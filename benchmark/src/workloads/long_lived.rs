//! `long_lived` — the paper's Figs. 10–12 sweep: N long-lived flows
//! over one 10 Gb/s bottleneck, closed loop (window-limited senders).
//!
//! Why it exists: the steady-state fast path — calendar queue
//! insert/pop, `OutputQueue` + marking decision, link transmission,
//! `Sender::on_ack` / `Receiver::on_data` in order — does nearly all
//! the work. No flow churn, no loss, no ECMP, no sketch.

use std::time::Instant;

use dctcp_core::MarkingScheme;
use dctcp_sim::{SimDuration, SimError};
use dctcp_stats::Welford;
use dctcp_tcp::TransportHost;
use dctcp_workloads::{LongLivedInstance, LongLivedScenario};

use super::{
    check_port_conservation, Checks, Counts, Digest, Engine, Env, Rep, WorkUnit, Workload,
};
use crate::spans::span;

pub struct LongLived {
    cells: Vec<LongLivedScenario>,
    warmup: SimDuration,
    duration: SimDuration,
}

impl LongLived {
    pub fn new(env: &Env) -> Self {
        let (flows, warmup_ms, duration_ms): (&[u32], u64, u64) = if env.quick {
            (&[10, 40], 5, 10)
        } else {
            (&[10, 40, 100], 20, 100)
        };
        // The seed staggers flow starts: same work, different phase.
        let stagger = SimDuration::from_nanos(100 * (1 + env.seed % 97));
        let mut cells = Vec::new();
        for &n in flows {
            for marking in [
                MarkingScheme::dctcp_packets(40),
                MarkingScheme::dt_dctcp_packets(30, 50),
            ] {
                cells.push(
                    LongLivedScenario::builder()
                        .flows(n)
                        .bottleneck_gbps(10.0)
                        .rtt_us(100.0)
                        .marking(marking)
                        .start_stagger(stagger)
                        .build()
                        .expect("valid long-lived cell"),
                );
            }
        }
        LongLived {
            cells,
            warmup: SimDuration::from_millis(warmup_ms),
            duration: SimDuration::from_millis(duration_ms),
        }
    }

    /// Drives one instantiated cell the way
    /// `LongLivedScenario::run_supervised` does — warm up, reset
    /// statistics, measure, report — reading the public counters on the
    /// way. Returns the cell's digest material and counts.
    fn drive(
        &self,
        inst: LongLivedInstance,
        digest: &mut Digest,
        checks: &mut Checks,
    ) -> Result<Counts, SimError> {
        let LongLivedInstance {
            mut sim,
            rx,
            bottleneck,
            switch,
            senders,
        } = inst;
        let mut counts = Counts::default();
        {
            let _s = span("sim.run_for.warmup");
            sim.run_for(self.warmup)?;
        }
        // Counters restart after warm-up; keep what the warm-up did.
        counts.add_port(&sim.port(bottleneck, switch));
        for &h in &senders {
            counts.add_host(sim.host(h)?, checks);
        }
        let resident_at_reset = sim.resident(bottleneck, switch);
        sim.reset_all_queue_stats();
        for &h in &senders {
            let host: &mut TransportHost = sim.agent_mut(h)?;
            host.reset_sender_stats();
        }
        let bytes_before: u64 = sim
            .host(rx)?
            .receivers()
            .map(|r| r.stats().bytes_received)
            .sum();
        {
            let _s = span("sim.run_for.measure");
            sim.run_for(self.duration)?;
        }

        let _s = span("workloads.report");
        let report = sim.port(bottleneck, switch);
        counts.add_port(&report);
        check_port_conservation(
            checks,
            "long_lived bottleneck",
            &report,
            resident_at_reset,
            sim.resident(bottleneck, switch),
        );
        let mut alpha = Welford::new();
        for &h in &senders {
            let host = sim.host(h)?;
            counts.add_host(host, checks);
            for s in host.senders() {
                alpha.merge(&s.stats().alpha);
            }
        }
        let rx_host = sim.host(rx)?;
        counts.add_host(rx_host, checks);
        let bytes_after: u64 = rx_host.receivers().map(|r| r.stats().bytes_received).sum();
        counts.events = sim.events();
        // Star: every data packet and every ACK crosses two links.
        counts.pkt_hops = 2 * (counts.pkts + counts.acks);
        digest
            .f64(report.occupancy_pkts.mean)
            .f64(report.occupancy_pkts.std)
            .f64(report.occupancy_pkts.max)
            .u64(report.counters.marked)
            .u64(report.counters.dropped())
            .u64(bytes_after - bytes_before)
            .u64(alpha.count())
            .f64(alpha.mean())
            .u64(counts.events);
        Ok(counts)
    }
}

impl Workload for LongLived {
    fn unit(&self) -> WorkUnit {
        WorkUnit::Packets
    }

    fn setup_only(&mut self, checks: &mut Checks) {
        for cell in &self.cells {
            checks.sim("long_lived instantiate", cell.instantiate());
        }
    }

    fn rep(&mut self, checks: &mut Checks) -> Rep {
        let mut digest = Digest::default();
        let mut counts = Counts::default();
        let mut wall_s = 0.0;
        for cell in &self.cells {
            let inst = {
                let _s = span("workloads.instantiate");
                checks.sim("long_lived instantiate", cell.instantiate())
            };
            let Some(inst) = inst else { continue };
            let start = Instant::now();
            let driven = self.drive(inst, &mut digest, checks);
            if let Some(c) = checks.sim("long_lived run", driven) {
                counts.add(&c);
            }
            wall_s += start.elapsed().as_secs_f64();
        }
        Rep {
            wall_s,
            work: counts.pkts as f64,
            digest: digest.finish(),
            counts,
        }
    }
}
