//! The heavy-traffic FCT scenario: open-loop Poisson flow churn over
//! racks of bottlenecked sinks, reporting flow-completion-time tails
//! per size class.
//!
//! Topology (per rack): `sources_per_rack` churn sources feed a rack
//! switch whose link to the rack sink is the bottleneck (marking scheme
//! under test). The racks share nothing, so [`FctScenario::run`]
//! simulates them one at a time, each with its original origins, and
//! merges the per-source results in rack-major order — the same report
//! the joined network gives. [`FctScenario::instantiate`] still builds
//! the joined network, its rack switches chained by idle high-delay
//! trunks; all churn state is host-local, so the trunks carry nothing.

use std::ops::Range;

use dctcp_core::MarkingScheme;
use dctcp_sim::{
    CancelToken, Capacity, LinkId, LinkSpec, NodeId, QueueConfig, SimDuration, SimError, SimTime,
    Simulator, TopologyBuilder,
};
use dctcp_stats::QuantileSketch;
use dctcp_tcp::{
    ChurnConfig, ChurnSink, ChurnSource, DeadlineConfig, SizeCdf, TcpConfig, SIZE_CLASSES,
};

use crate::sizes;

/// A validated FCT churn scenario; build with [`FctScenario::builder`],
/// execute with [`FctScenario::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct FctScenario {
    racks: u32,
    sources_per_rack: u32,
    bottleneck_bps: u64,
    rtt: SimDuration,
    load: f64,
    marking: MarkingScheme,
    tcp: TcpConfig,
    buffer: Capacity,
    sizes: SizeCdf,
    class_bounds: [u64; 2],
    slots: u32,
    seed: u64,
    warmup: SimDuration,
    duration: SimDuration,
    drain: SimDuration,
    deadline_slack: Option<f64>,
}

/// Builder for [`FctScenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct FctScenarioBuilder {
    inner: FctScenario,
}

/// An instantiated FCT scenario: the simulator plus node/link handles.
#[derive(Debug)]
pub struct FctInstance {
    /// The ready-to-run simulator.
    pub sim: Simulator,
    /// Churn source hosts, rack-major order.
    pub sources: Vec<NodeId>,
    /// One sink per rack.
    pub sinks: Vec<NodeId>,
    /// One rack switch per rack.
    pub switches: Vec<NodeId>,
    /// The bottleneck link of each rack (switch → sink).
    pub bottlenecks: Vec<LinkId>,
}

/// Merged outcome of an FCT run. All counters aggregate over every
/// source; sketches hold seconds and cover measured (post-warmup)
/// completions only.
#[derive(Debug, Clone, PartialEq)]
pub struct FctReport {
    /// Per-class FCT sketches, indexed short/mid/long.
    pub sketches: [QuantileSketch; SIZE_CLASSES],
    /// Total Poisson arrivals drawn inside the horizon.
    pub arrivals: u64,
    /// Flows started on a sender.
    pub started: u64,
    /// Flows fully acknowledged (measured or not).
    pub completed: u64,
    /// Flows aborted by the consecutive-RTO cap.
    pub aborted: u64,
    /// Measured completions (the sketch population).
    pub measured_completed: u64,
    /// Application bytes of measured completions.
    pub measured_bytes: u64,
    /// Measured goodput: measured bytes over the measurement window,
    /// bits/second.
    pub goodput_bps: f64,
    /// Measured completions that carried a deadline.
    pub deadline_flows: u64,
    /// ... of which missed it.
    pub deadline_missed: u64,
    /// Sender retransmission timeouts across all recycled flows.
    pub timeouts: u64,
    /// Largest per-source backlog behind a full slab.
    pub backlog_peak: u64,
    /// Largest per-source concurrent-flow footprint.
    pub slots_high_water: u32,
    /// Stale-incarnation ACKs/timers/segments dropped by generation
    /// checks (sources + sinks).
    pub stale_events: u64,
    /// Incarnations adopted in place by sink receivers.
    pub recycled_receivers: u64,
    /// Simulation events the engine dispatched for the whole run — a
    /// determinism fingerprint that also feeds the churn bench's
    /// events/sec rate. Transmit completions the engine elided (nothing
    /// waited on them) are not counted; see
    /// `dctcp_sim::Simulator::events_processed`.
    pub events: u64,
}

impl FctReport {
    /// FCT quantile in milliseconds for a size class (0 short, 1 mid,
    /// 2 long), or `None` if the class is empty.
    pub fn fct_ms(&self, class: usize, q: f64) -> Option<f64> {
        self.sketches.get(class)?.quantile(q).map(|s| s * 1e3)
    }

    /// Fraction of deadline-carrying measured flows that missed, or 0
    /// when deadlines were off.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.deadline_flows == 0 {
            0.0
        } else {
            self.deadline_missed as f64 / self.deadline_flows as f64
        }
    }
}

impl FctScenario {
    /// Starts building a scenario with CI-sized defaults: 2 racks of 8
    /// sources, 10 Gb/s bottlenecks, 100 µs RTT, load 0.6 of each
    /// bottleneck with web-search-style sizes, DCTCP marking at
    /// `K = 40` packets.
    pub fn builder() -> FctScenarioBuilder {
        FctScenarioBuilder {
            inner: FctScenario {
                racks: 2,
                sources_per_rack: 8,
                bottleneck_bps: 10_000_000_000,
                rtt: SimDuration::from_micros(100),
                load: 0.6,
                marking: MarkingScheme::dctcp_packets(40),
                tcp: TcpConfig::dctcp(1.0 / 16.0),
                buffer: Capacity::Packets(1000),
                sizes: sizes::web_search(),
                class_bounds: [10_000, 100_000],
                slots: 4096,
                seed: 1,
                warmup: SimDuration::from_millis(10),
                duration: SimDuration::from_millis(50),
                drain: SimDuration::from_millis(100),
                deadline_slack: None,
            },
        }
    }

    /// The per-source mean inter-arrival gap implied by the configured
    /// load: each rack's sources together offer
    /// `load × bottleneck_bps` of application bytes.
    pub fn mean_interarrival(&self) -> SimDuration {
        let per_source_bps = self.load * self.bottleneck_bps as f64 / self.sources_per_rack as f64;
        let flows_per_sec = per_source_bps / (8.0 * self.sizes.mean_bytes());
        SimDuration::from_secs_f64(1.0 / flows_per_sec)
    }

    /// Total offered arrivals per second across all racks.
    pub fn offered_flows_per_sec(&self) -> f64 {
        let total = self.racks as u64 * self.sources_per_rack as u64;
        total as f64 / self.mean_interarrival().as_secs_f64()
    }

    /// Builds the joined network of every rack without running it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if topology construction or agent
    /// configuration fails.
    pub fn instantiate(&self) -> Result<FctInstance, SimError> {
        self.instantiate_inner(0..self.racks)
    }

    /// The same as [`FctScenario::instantiate`]; the shard target is
    /// ignored. Kept only because the frozen benchmark (`benchmark/`)
    /// calls it.
    ///
    /// # Errors
    ///
    /// As [`FctScenario::instantiate`].
    pub fn instantiate_with_shards(&self, _target: usize) -> Result<FctInstance, SimError> {
        self.instantiate()
    }

    /// Builds the given racks, each with the node names and churn
    /// origins it has in the full network.
    fn instantiate_inner(&self, racks: Range<u32>) -> Result<FctInstance, SimError> {
        let mut b = TopologyBuilder::new();
        let hop = self.rtt / 4;
        let spec = LinkSpec {
            rate_bps: self.bottleneck_bps,
            delay: hop,
        };
        let mean_ia = self.mean_interarrival();
        let deadline = self.deadline_slack.map(|slack| DeadlineConfig {
            slack,
            line_rate_bps: self.bottleneck_bps,
            base_rtt: self.rtt,
        });

        let n = racks.len();
        let mut sources = Vec::with_capacity(n * self.sources_per_rack as usize);
        let mut sinks = Vec::with_capacity(n);
        let mut switches = Vec::with_capacity(n);
        let mut bottlenecks = Vec::with_capacity(n);
        for r in racks {
            let sw = b.switch(format!("rack{r}"));
            let sink = b.host(
                format!("sink{r}"),
                Box::new(
                    ChurnSink::new(self.tcp)
                        .map_err(|e| SimError::InvalidTopology(e.to_string()))?,
                ),
            );
            for i in 0..self.sources_per_rack {
                let origin = r * self.sources_per_rack + i;
                let cfg = ChurnConfig {
                    tcp: self.tcp,
                    dst: sink,
                    origin,
                    slots: self.slots,
                    seed: self.seed,
                    mean_interarrival: mean_ia,
                    sizes: self.sizes.clone(),
                    start: SimTime::ZERO,
                    horizon: SimTime::ZERO + self.warmup + self.duration,
                    measure_from: SimTime::ZERO + self.warmup,
                    class_bounds: self.class_bounds,
                    deadline,
                };
                let src = b.host(
                    format!("src{r}_{i}"),
                    Box::new(
                        ChurnSource::new(cfg)
                            .map_err(|e| SimError::InvalidTopology(e.to_string()))?,
                    ),
                );
                b.link(
                    src,
                    sw,
                    spec,
                    QueueConfig::host_nic(),
                    QueueConfig::host_nic(),
                )?;
                sources.push(src);
            }
            let qcfg = QueueConfig::switch(self.buffer, self.marking);
            let bottleneck = b.link(sw, sink, spec, qcfg, QueueConfig::host_nic())?;
            // Chain rack switches with an idle, high-latency trunk. Only
            // the joined network has trunks; they stay while the frozen
            // benchmark's `fct_churn` builds that network.
            if let Some(&prev) = switches.last() {
                b.link(
                    prev,
                    sw,
                    LinkSpec {
                        rate_bps: self.bottleneck_bps,
                        delay: SimDuration::from_micros(500),
                    },
                    QueueConfig::host_nic(),
                    QueueConfig::host_nic(),
                )?;
            }
            sinks.push(sink);
            switches.push(sw);
            bottlenecks.push(bottleneck);
        }
        Ok(FctInstance {
            sim: Simulator::new(b.build()?),
            sources,
            sinks,
            switches,
            bottlenecks,
        })
    }

    /// Runs the scenario to completion, one rack at a time, under an
    /// optional cancel token shared by every rack. Each rack is its own
    /// one-rack simulation with its original origins, so the report
    /// equals [`FctScenario::run_instance`] on the joined network.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if instantiation or a run fails, including
    /// `Cancelled` for a fired token.
    pub fn run(&self, cancel: Option<CancelToken>) -> Result<FctReport, SimError> {
        self.merge_runs((0..self.racks).map(|r| {
            let mut instance = self.instantiate_inner(r..r + 1)?;
            instance.sim.set_cancel_token(cancel.clone());
            Ok(instance)
        }))
    }

    /// Runs an already-instantiated scenario (e.g. the joined network
    /// from [`FctScenario::instantiate`]) and merges results.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the run fails or a source reports
    /// flow-table misuse.
    pub fn run_instance(&self, instance: FctInstance) -> Result<FctReport, SimError> {
        self.merge_runs([Ok(instance)])
    }

    /// Runs each instance in turn and folds its sources, in order, into
    /// one report: counters summed, peaks maxed, sketches merged, and
    /// goodput computed once from the total measured bytes.
    fn merge_runs(
        &self,
        instances: impl IntoIterator<Item = Result<FctInstance, SimError>>,
    ) -> Result<FctReport, SimError> {
        let mut report = FctReport {
            sketches: std::array::from_fn(|_| QuantileSketch::new()),
            arrivals: 0,
            started: 0,
            completed: 0,
            aborted: 0,
            measured_completed: 0,
            measured_bytes: 0,
            goodput_bps: 0.0,
            deadline_flows: 0,
            deadline_missed: 0,
            timeouts: 0,
            backlog_peak: 0,
            slots_high_water: 0,
            stale_events: 0,
            recycled_receivers: 0,
            events: 0,
        };
        for instance in instances {
            let FctInstance {
                mut sim,
                sources,
                sinks,
                ..
            } = instance?;
            sim.run_for(self.warmup + self.duration + self.drain)?;
            report.events += sim.events_processed();
            for &h in &sources {
                let src: &ChurnSource = sim.agent(h)?;
                if let Some(e) = src.table_errors().first() {
                    return Err(SimError::InvalidTopology(format!(
                        "flow-table misuse on {}: {e}",
                        sim.node_name(h)
                    )));
                }
                let s = src.stats();
                report.arrivals += s.arrivals;
                report.started += s.started;
                report.completed += s.completed;
                report.aborted += s.aborted;
                report.measured_completed += s.measured_completed;
                report.measured_bytes += s.measured_bytes;
                report.deadline_flows += s.deadline_flows;
                report.deadline_missed += s.deadline_missed;
                report.timeouts += s.timeouts;
                report.backlog_peak = report.backlog_peak.max(s.backlog_peak);
                report.slots_high_water = report.slots_high_water.max(src.slots_high_water());
                report.stale_events += s.stale_acks + s.stale_timers;
                for (into, sketch) in report.sketches.iter_mut().zip(src.sketches()) {
                    into.merge(sketch);
                }
            }
            for &h in &sinks {
                let sink: &ChurnSink = sim.agent(h)?;
                report.stale_events += sink.stats().stale_segments + sink.stats().stale_timers;
                report.recycled_receivers += sink.stats().recycled;
            }
        }
        report.goodput_bps = report.measured_bytes as f64 * 8.0 / self.duration.as_secs_f64();
        Ok(report)
    }
}

impl FctScenarioBuilder {
    /// Sets the number of racks (each with its own bottleneck + sink).
    pub fn racks(mut self, n: u32) -> Self {
        self.inner.racks = n;
        self
    }

    /// Sets churn sources per rack.
    pub fn sources_per_rack(mut self, n: u32) -> Self {
        self.inner.sources_per_rack = n;
        self
    }

    /// Sets every link's rate in Gb/s (the rack bottleneck rate).
    pub fn bottleneck_gbps(mut self, gbps: f64) -> Self {
        self.inner.bottleneck_bps = (gbps * 1e9) as u64;
        self
    }

    /// Sets the propagation round-trip time in microseconds.
    pub fn rtt_us(mut self, us: f64) -> Self {
        self.inner.rtt = SimDuration::from_secs_f64(us * 1e-6);
        self
    }

    /// Sets offered load as a fraction of each rack bottleneck.
    pub fn load(mut self, load: f64) -> Self {
        self.inner.load = load;
        self
    }

    /// Sets the bottleneck marking scheme.
    pub fn marking(mut self, scheme: MarkingScheme) -> Self {
        self.inner.marking = scheme;
        self
    }

    /// Sets the transport configuration for every flow.
    pub fn tcp(mut self, cfg: TcpConfig) -> Self {
        self.inner.tcp = cfg;
        self
    }

    /// Sets the bottleneck buffer size.
    pub fn buffer(mut self, capacity: Capacity) -> Self {
        self.inner.buffer = capacity;
        self
    }

    /// Sets the flow-size distribution.
    pub fn sizes(mut self, cdf: SizeCdf) -> Self {
        self.inner.sizes = cdf;
        self
    }

    /// Sets the size-class split `short <= b0 < mid <= b1 < long`.
    pub fn class_bounds(mut self, bounds: [u64; 2]) -> Self {
        self.inner.class_bounds = bounds;
        self
    }

    /// Sets the per-source concurrent-flow slab size.
    pub fn slots(mut self, slots: u32) -> Self {
        self.inner.slots = slots;
        self
    }

    /// Sets the arrival-stream seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Sets the warm-up length (arrivals simulated, not measured).
    pub fn warmup_secs(mut self, s: f64) -> Self {
        self.inner.warmup = SimDuration::from_secs_f64(s);
        self
    }

    /// Sets the measured arrival window length.
    pub fn duration_secs(mut self, s: f64) -> Self {
        self.inner.duration = SimDuration::from_secs_f64(s);
        self
    }

    /// Sets the drain period after arrivals stop (lets in-flight flows
    /// finish so their FCTs are recorded).
    pub fn drain_secs(mut self, s: f64) -> Self {
        self.inner.drain = SimDuration::from_secs_f64(s);
        self
    }

    /// Enables per-flow deadlines with this mean slack multiplier
    /// (drives D²TCP urgency when the congestion control is D²TCP).
    pub fn deadline_slack(mut self, slack: f64) -> Self {
        self.inner.deadline_slack = Some(slack);
        self
    }

    /// Validates and returns the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for an empty topology, a load outside
    /// `(0, 1)`, or invalid marking/TCP parameters.
    pub fn build(self) -> Result<FctScenario, SimError> {
        let s = self.inner;
        if s.racks == 0 || s.sources_per_rack == 0 {
            return Err(SimError::InvalidTopology(
                "at least one rack and one source per rack required".into(),
            ));
        }
        if !(s.load > 0.0 && s.load < 1.0) {
            return Err(SimError::InvalidTopology(format!(
                "load must be in (0, 1), got {}",
                s.load
            )));
        }
        if s.duration.is_zero() {
            return Err(SimError::InvalidTopology(
                "measurement window must be positive".into(),
            ));
        }
        s.marking.build()?;
        s.tcp.validate()?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scheme: MarkingScheme) -> FctScenario {
        FctScenario::builder()
            .racks(2)
            .sources_per_rack(4)
            .bottleneck_gbps(1.0)
            .load(0.5)
            .marking(scheme)
            .slots(512)
            .warmup_secs(0.002)
            .duration_secs(0.01)
            .drain_secs(0.05)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_nonsense() {
        assert!(FctScenario::builder().racks(0).build().is_err());
        assert!(FctScenario::builder().load(0.0).build().is_err());
        assert!(FctScenario::builder().load(1.5).build().is_err());
        assert!(FctScenario::builder().duration_secs(0.0).build().is_err());
    }

    #[test]
    fn load_sizing_matches_offered_bytes() {
        let s = quick(MarkingScheme::dctcp_packets(40));
        // offered bps per rack = sources × mean_bytes × 8 / mean_ia.
        let per_rack = 4.0 * s.sizes.mean_bytes() * 8.0 / s.mean_interarrival().as_secs_f64();
        let rel = (per_rack - 0.5e9).abs() / 0.5e9;
        assert!(rel < 0.01, "offered {per_rack}");
        assert!(s.offered_flows_per_sec() > 1000.0);
    }

    #[test]
    fn fct_run_completes_and_reports_tails() {
        let r = quick(MarkingScheme::dctcp_packets(40)).run(None).unwrap();
        assert!(r.arrivals > 100, "arrivals {}", r.arrivals);
        assert_eq!(r.completed + r.aborted, r.started);
        assert_eq!(r.started, r.arrivals, "open loop admits everything");
        assert_eq!(r.aborted, 0);
        assert!(r.measured_completed > 0);
        assert_eq!(
            r.sketches.iter().map(|s| s.count()).sum::<u64>(),
            r.measured_completed
        );
        let p50 = r.fct_ms(0, 0.50).expect("short flows present");
        let p99 = r.fct_ms(0, 0.99).expect("short flows present");
        assert!(p50 > 0.0 && p99 >= p50, "p50 {p50} p99 {p99}");
        assert!(r.goodput_bps > 0.0);
        assert!(r.recycled_receivers > 0, "sink receivers recycled");
    }

    /// The racks share nothing, so simulating them one at a time gives
    /// the joined network's report: every counter, `events` included,
    /// and every sketch bin.
    #[test]
    fn per_rack_runs_match_the_joined_network() {
        for (racks, marking) in [
            (2, MarkingScheme::dctcp_packets(40)),
            (3, MarkingScheme::dt_dctcp_packets(20, 40)),
        ] {
            let s = FctScenario::builder()
                .racks(racks)
                .sources_per_rack(8)
                .marking(marking)
                .warmup_secs(0.005)
                .duration_secs(0.03)
                .drain_secs(0.015)
                .build()
                .unwrap();
            let joined = s.run_instance(s.instantiate().unwrap()).unwrap();
            let per_rack = s.run(None).unwrap();
            assert!(joined.measured_completed > 0 && joined.events > 0);
            for (a, b) in joined.sketches.iter().zip(&per_rack.sketches) {
                assert_eq!(a.count(), b.count(), "racks = {racks}");
                for q in [0.5, 0.99, 0.999] {
                    assert_eq!(a.quantile(q), b.quantile(q), "racks = {racks}, q = {q}");
                }
            }
            assert_eq!(joined, per_rack, "racks = {racks}");
        }
    }

    #[test]
    fn deadline_scenario_reports_miss_rate() {
        let r = FctScenario::builder()
            .racks(1)
            .sources_per_rack(4)
            .bottleneck_gbps(1.0)
            .load(0.5)
            .tcp(dctcp_tcp::TcpConfig::d2tcp(1.0 / 16.0, 1.0))
            .deadline_slack(2.0)
            .slots(512)
            .warmup_secs(0.002)
            .duration_secs(0.01)
            .drain_secs(0.05)
            .build()
            .unwrap()
            .run(None)
            .unwrap();
        assert!(r.deadline_flows > 0);
        assert_eq!(r.deadline_flows, r.measured_completed);
        let rate = r.deadline_miss_rate();
        assert!((0.0..=1.0).contains(&rate));
    }
}
