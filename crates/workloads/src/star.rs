//! The long-lived-flow scenario: N senders sharing one bottleneck
//! (the setup of the paper's Figs. 1, 10, 11 and 12).

use dctcp_core::MarkingScheme;
use dctcp_sim::{
    Capacity, FaultPlan, FlowId, LinkId, NodeId, QueueConfig, SimDuration, SimError, SimTime,
    Simulator, TopologyBuilder,
};
use dctcp_stats::{TimeSeries, TimeWeightedSummary, Welford};
use dctcp_tcp::{ScheduledFlow, TcpConfig, TransportHost};

/// A validated long-lived-flow scenario; build with
/// [`LongLivedScenario::builder`], execute with
/// [`LongLivedScenario::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct LongLivedScenario {
    flows: u32,
    bottleneck_bps: u64,
    rtt: SimDuration,
    marking: MarkingScheme,
    tcp: TcpConfig,
    buffer: Capacity,
    warmup: SimDuration,
    duration: SimDuration,
    trace_interval: Option<SimDuration>,
    start_stagger: SimDuration,
}

/// Builder for [`LongLivedScenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct LongLivedScenarioBuilder {
    inner: LongLivedScenario,
}

/// An instantiated long-lived scenario: the simulator plus the node and
/// link handles a harness needs to drive it manually — e.g. to
/// [`install_faults`](Simulator::install_faults) before running,
/// or to interleave runs with mid-experiment inspection.
#[derive(Debug)]
pub struct LongLivedInstance {
    /// The ready-to-run simulator (no warm-up performed).
    pub sim: Simulator,
    /// The receiver host aggregating all flows.
    pub rx: NodeId,
    /// The bottleneck link (switch → receiver).
    pub bottleneck: LinkId,
    /// The switch at the sending end of the bottleneck.
    pub switch: NodeId,
    /// The sender hosts, one flow each.
    pub senders: Vec<NodeId>,
}

/// Measured outcome of a long-lived run (statistics cover the
/// post-warmup window only).
#[derive(Debug, Clone, PartialEq)]
pub struct LongLivedReport {
    /// Number of flows.
    pub flows: u32,
    /// Marking scheme at the bottleneck.
    pub scheme: MarkingScheme,
    /// Time-weighted bottleneck occupancy in packets.
    pub queue: TimeWeightedSummary,
    /// CE marks applied during the window.
    pub marks: u64,
    /// Packets dropped during the window.
    pub drops: u64,
    /// Queue-length trace (when tracing was enabled).
    pub trace: Option<TimeSeries>,
    /// Pooled per-window `α` samples across all senders.
    pub alpha: Welford,
    /// Receiver goodput over the window, bits/second.
    pub goodput_bps: f64,
    /// Sender retransmission timeouts during the window.
    pub timeouts: u64,
}

impl LongLivedReport {
    /// Bottleneck utilization: receiver goodput as a fraction of the
    /// given bottleneck rate. Goodput excludes header and ACK bytes, so
    /// a saturated link reports slightly below 1.0 (~0.97 at MSS 1460).
    pub fn utilization(&self, bottleneck_bps: u64) -> f64 {
        if bottleneck_bps == 0 {
            return 0.0;
        }
        self.goodput_bps / bottleneck_bps as f64
    }
}

impl LongLivedScenario {
    /// Starts building a scenario with the paper's defaults: 10 Gb/s
    /// bottleneck, 100 µs RTT, DCTCP senders with `g = 1/16`, `K = 40`
    /// packets, a 1000-packet buffer, 20 ms warm-up and a 50 ms
    /// measurement window.
    pub fn builder() -> LongLivedScenarioBuilder {
        LongLivedScenarioBuilder {
            inner: LongLivedScenario {
                flows: 10,
                bottleneck_bps: 10_000_000_000,
                rtt: SimDuration::from_micros(100),
                marking: MarkingScheme::dctcp_packets(40),
                tcp: TcpConfig::dctcp(1.0 / 16.0),
                buffer: Capacity::Packets(1000),
                warmup: SimDuration::from_millis(20),
                duration: SimDuration::from_millis(50),
                trace_interval: None,
                start_stagger: SimDuration::ZERO,
            },
        }
    }

    /// Runs the scenario to completion and reports post-warmup
    /// statistics.
    pub fn run(&self) -> LongLivedReport {
        self.run_with_faults(|_| FaultPlan::new())
            .expect("fault-free scenario")
    }

    /// Runs the scenario with a scripted fault plan installed before
    /// the clock starts. The plan builder receives the instantiated
    /// topology so plans can reference its links (typically
    /// [`LongLivedInstance::bottleneck`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if instantiation, fault installation or the
    /// run itself fails.
    pub fn run_with_faults(
        &self,
        plan: impl FnOnce(&LongLivedInstance) -> FaultPlan,
    ) -> Result<LongLivedReport, SimError> {
        let mut instance = self.instantiate()?;
        let faults = plan(&instance);
        instance.sim.install_faults(&faults)?;
        let LongLivedInstance {
            mut sim,
            rx,
            bottleneck,
            switch: sw,
            senders,
        } = instance;

        sim.run_for(self.warmup)?;
        sim.reset_all_queue_stats();
        for &h in &senders {
            let host: &mut TransportHost = sim.agent_mut(h).expect("sender host");
            host.reset_sender_stats();
        }
        let rx_host: &TransportHost = sim.agent(rx).expect("receiver host");
        let bytes_before: u64 = rx_host.receivers().map(|r| r.stats().bytes_received).sum();

        sim.run_for(self.duration)?;

        let report = sim.queue_report(bottleneck, sw);
        let rx_host: &TransportHost = sim.agent(rx).expect("receiver host");
        let bytes_after: u64 = rx_host.receivers().map(|r| r.stats().bytes_received).sum();
        let mut alpha = Welford::new();
        let mut timeouts = 0;
        for &h in &senders {
            let host: &TransportHost = sim.agent(h).expect("sender host");
            for s in host.senders() {
                alpha.merge(&s.stats().alpha);
                timeouts += s.stats().timeouts;
            }
        }
        Ok(LongLivedReport {
            flows: self.flows,
            scheme: self.marking,
            queue: report.occupancy_pkts,
            marks: report.counters.marked,
            drops: report.counters.dropped(),
            trace: report.trace,
            alpha,
            goodput_bps: (bytes_after - bytes_before) as f64 * 8.0 / self.duration.as_secs_f64(),
            timeouts,
        })
    }

    /// The configured bottleneck rate in bits per second.
    pub fn bottleneck_bps(&self) -> u64 {
        self.bottleneck_bps
    }

    /// Builds the topology and returns the raw pieces without running
    /// anything, for harnesses that inject faults or drive the clock
    /// themselves.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if topology construction fails.
    pub fn instantiate(&self) -> Result<LongLivedInstance, SimError> {
        let mut b = TopologyBuilder::new();
        let rx = b.host("rx", Box::new(TransportHost::new(self.tcp)));
        let sw = b.switch("sw");
        // Propagation RTT = 2*(d_host + d_bottleneck) = rtt.
        let hop = self.rtt / 4;
        let spec = dctcp_sim::LinkSpec {
            rate_bps: self.bottleneck_bps,
            delay: hop,
        };
        let mut senders = Vec::with_capacity(self.flows as usize);
        for i in 0..self.flows {
            let mut host = TransportHost::new(self.tcp);
            host.schedule(ScheduledFlow {
                flow: FlowId(i as u64 + 1),
                dst: rx,
                bytes: None,
                at: SimTime::ZERO + self.start_stagger * i as u64,
                cfg: self.tcp,
            });
            let h = b.host(format!("tx{i}"), Box::new(host));
            b.link(
                h,
                sw,
                spec,
                QueueConfig::host_nic(),
                QueueConfig::host_nic(),
            )?;
            senders.push(h);
        }
        let mut qcfg = QueueConfig::switch(self.buffer, self.marking);
        qcfg.trace_interval = self.trace_interval;
        let bottleneck = b.link(sw, rx, spec, qcfg, QueueConfig::host_nic())?;
        Ok(LongLivedInstance {
            sim: Simulator::new(b.build()?),
            rx,
            bottleneck,
            switch: sw,
            senders,
        })
    }
}

impl LongLivedScenarioBuilder {
    /// Sets the number of concurrent long-lived flows.
    pub fn flows(mut self, n: u32) -> Self {
        self.inner.flows = n;
        self
    }

    /// Sets the bottleneck rate in Gb/s.
    pub fn bottleneck_gbps(mut self, gbps: f64) -> Self {
        self.inner.bottleneck_bps = (gbps * 1e9) as u64;
        self
    }

    /// Sets the propagation round-trip time in microseconds.
    pub fn rtt_us(mut self, us: f64) -> Self {
        self.inner.rtt = SimDuration::from_secs_f64(us * 1e-6);
        self
    }

    /// Sets the bottleneck marking scheme.
    pub fn marking(mut self, scheme: MarkingScheme) -> Self {
        self.inner.marking = scheme;
        self
    }

    /// Sets the sender/receiver TCP configuration.
    pub fn tcp(mut self, cfg: TcpConfig) -> Self {
        self.inner.tcp = cfg;
        self
    }

    /// Sets the bottleneck buffer size.
    pub fn buffer(mut self, capacity: Capacity) -> Self {
        self.inner.buffer = capacity;
        self
    }

    /// Sets the warm-up length (excluded from statistics).
    pub fn warmup_secs(mut self, s: f64) -> Self {
        self.inner.warmup = SimDuration::from_secs_f64(s);
        self
    }

    /// Sets the measurement window length.
    pub fn duration_secs(mut self, s: f64) -> Self {
        self.inner.duration = SimDuration::from_secs_f64(s);
        self
    }

    /// Enables queue tracing with the given sample spacing.
    pub fn trace_interval(mut self, d: SimDuration) -> Self {
        self.inner.trace_interval = Some(d);
        self
    }

    /// Staggers flow starts by this much per flow (default: simultaneous).
    pub fn start_stagger(mut self, d: SimDuration) -> Self {
        self.inner.start_stagger = d;
        self
    }

    /// Validates and returns the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for a zero flow count or invalid
    /// marking/TCP parameters.
    pub fn build(self) -> Result<LongLivedScenario, SimError> {
        let s = self.inner;
        if s.flows == 0 {
            return Err(SimError::InvalidTopology(
                "at least one flow required".into(),
            ));
        }
        s.marking.build()?; // validates parameters
        s.tcp.validate()?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(n: u32, scheme: MarkingScheme) -> LongLivedReport {
        LongLivedScenario::builder()
            .flows(n)
            .bottleneck_gbps(1.0)
            .marking(scheme)
            .warmup_secs(0.02)
            .duration_secs(0.04)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn builder_rejects_zero_flows() {
        assert!(LongLivedScenario::builder().flows(0).build().is_err());
    }

    #[test]
    fn builder_rejects_bad_marking() {
        let r = LongLivedScenario::builder()
            .marking(MarkingScheme::dt_dctcp_packets(50, 30))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn dctcp_run_saturates_and_marks() {
        let r = quick(4, MarkingScheme::dctcp_packets(20));
        assert!(r.goodput_bps > 0.85e9, "goodput {}", r.goodput_bps);
        assert!(r.marks > 0);
        assert_eq!(r.drops, 0);
        assert!(
            r.queue.mean > 0.5 && r.queue.mean < 100.0,
            "queue {}",
            r.queue.mean
        );
        assert!(r.alpha.count() > 0);
        assert!(r.alpha.mean() > 0.0 && r.alpha.mean() < 1.0);
    }

    #[test]
    fn dt_run_saturates_and_marks() {
        let r = quick(4, MarkingScheme::dt_dctcp_packets(15, 25));
        assert!(r.goodput_bps > 0.85e9);
        assert!(r.marks > 0);
        assert_eq!(r.drops, 0);
    }

    #[test]
    fn trace_is_captured_when_requested() {
        let r = LongLivedScenario::builder()
            .flows(2)
            .bottleneck_gbps(1.0)
            .marking(MarkingScheme::dctcp_packets(20))
            .warmup_secs(0.01)
            .duration_secs(0.02)
            .trace_interval(SimDuration::from_micros(100))
            .build()
            .unwrap()
            .run();
        let trace = r.trace.expect("trace enabled");
        assert!(trace.len() > 10);
    }

    #[test]
    fn faulted_run_loses_goodput_during_outage() {
        let scenario = LongLivedScenario::builder()
            .flows(2)
            .bottleneck_gbps(1.0)
            .marking(MarkingScheme::dctcp_packets(20))
            .warmup_secs(0.01)
            .duration_secs(0.03)
            .build()
            .unwrap();
        let clean = scenario.run();
        // One 10 ms outage of the bottleneck inside the 10..40 ms
        // measurement window.
        let faulted = scenario
            .run_with_faults(|i| {
                FaultPlan::new().flap(
                    i.bottleneck,
                    SimTime::ZERO + SimDuration::from_millis(15),
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(20),
                    1,
                )
            })
            .unwrap();
        assert!(
            faulted.goodput_bps < clean.goodput_bps * 0.9,
            "outage did not dent goodput: {} vs {}",
            faulted.goodput_bps,
            clean.goodput_bps
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick(3, MarkingScheme::dctcp_packets(20));
        let b = quick(3, MarkingScheme::dctcp_packets(20));
        assert_eq!(a.queue.mean, b.queue.mean);
        assert_eq!(a.marks, b.marks);
        assert_eq!(a.goodput_bps, b.goodput_bps);
    }
}
