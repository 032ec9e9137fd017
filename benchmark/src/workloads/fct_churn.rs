//! `fct_churn` — open-loop Poisson flow churn with web-search sizes at
//! load 0.8 on 4 racks × 16 sources. Open loop: arrivals follow their
//! schedule whatever the network does, so the simulated arrival backlog
//! can grow; its peak is reported so that an overload is visible.
//!
//! Why it exists: flow set-up and teardown dominate — `FlowTable`
//! acquire/release, `Sender::reset`, `ChurnSource` arrivals,
//! `TaggedWire` checks, `QuantileSketch::record`, a large far-future
//! timer population. Steady-state `on_ack` does little here.

use std::time::Instant;

use dctcp_core::MarkingScheme;
use dctcp_sim::{SimDuration, SimError, HEADER_BYTES};
use dctcp_stats::QuantileSketch;
use dctcp_tcp::ChurnSource;
use dctcp_workloads::{FctInstance, FctReport, FctScenario};

use super::{
    check_port_conservation, shard_speedup, Checks, Counts, Digest, Env, Rep, WorkUnit, Workload,
};
use crate::metrics::Metrics;
use crate::spans::span;

pub struct FctChurn {
    cells: Vec<FctScenario>,
    phases: [SimDuration; 3],
}

impl FctChurn {
    pub fn new(env: &Env) -> Self {
        let (warmup_ms, duration_ms, drain_ms) = if env.quick {
            (10, 20, 50)
        } else {
            (50, 200, 200)
        };
        let cells = [
            MarkingScheme::dctcp_packets(40),
            MarkingScheme::dt_dctcp_packets(20, 40),
        ]
        .into_iter()
        .map(|marking| {
            FctScenario::builder()
                .racks(4)
                .sources_per_rack(16)
                .bottleneck_gbps(10.0)
                .rtt_us(100.0)
                .load(0.8)
                .marking(marking)
                .seed(env.seed)
                .warmup_secs(warmup_ms as f64 * 1e-3)
                .duration_secs(duration_ms as f64 * 1e-3)
                .drain_secs(drain_ms as f64 * 1e-3)
                .build()
                .expect("valid churn cell")
        })
        .collect();
        FctChurn {
            cells,
            phases: [warmup_ms, duration_ms, drain_ms].map(SimDuration::from_millis),
        }
    }

    /// Runs the three phases under their own spans, then merges the
    /// per-source results the way `FctScenario::run_instance` does
    /// while reading the counters its report does not carry.
    /// `Workload::shipped_digest` holds the two together.
    fn drive(
        &self,
        inst: FctInstance,
        counts: &mut Counts,
        checks: &mut Checks,
    ) -> Result<FctReport, SimError> {
        let FctInstance {
            mut sim,
            sources,
            sinks,
            switches,
            bottlenecks,
        } = inst;
        for (name, phase) in [
            "sim.run_for.warmup",
            "sim.run_for.measure",
            "sim.run_for.drain",
        ]
        .into_iter()
        .zip(self.phases)
        {
            let _s = span(name);
            sim.run_for(phase)?;
        }

        let _s = span("workloads.report");
        let mut report = empty_report(sim.events_processed());
        let mut open = 0u64;
        for &h in &sources {
            let src: &ChurnSource = sim.agent(h)?;
            let errors = (src.table_errors().len(), src.flow_errors().len());
            checks.check(errors == (0, 0), || {
                format!("churn source errors (table, flow): {errors:?}")
            });
            let s = src.stats();
            report.arrivals += s.arrivals;
            report.started += s.started;
            report.completed += s.completed;
            report.aborted += s.aborted;
            report.measured_completed += s.measured_completed;
            report.measured_bytes += s.measured_bytes;
            report.timeouts += s.timeouts;
            report.backlog_peak = report.backlog_peak.max(s.backlog_peak);
            report.slots_high_water = report.slots_high_water.max(src.slots_high_water());
            open += u64::from(src.open_flows());
            for (into, sketch) in report.sketches.iter_mut().zip(src.sketches()) {
                into.merge(sketch);
            }
        }
        checks.check(
            report.started == report.completed + report.aborted + open,
            || {
                format!(
                "flow conservation broken: started {} != completed {} + aborted {} + live {open}",
                report.started, report.completed, report.aborted
            )
            },
        );
        let mut cell = Counts {
            events: report.events,
            rtos: report.timeouts,
            flows_started: report.started,
            flows_completed: report.completed,
            backlog_peak: report.backlog_peak,
            ..Counts::default()
        };
        for ((&link, &sw), &sink) in bottlenecks.iter().zip(&switches).zip(&sinks) {
            let port = sim.queue_report(link, sw);
            cell.add_port(&port);
            check_port_conservation(
                checks,
                "fct_churn bottleneck",
                &port,
                0,
                sim.queue_len_pkts(link, sw),
            );
            // Only data crosses the bottleneck port, and nothing is
            // lost after it: what it dequeued reached the sink. The
            // sink's side of the link carries nothing but ACKs.
            cell.pkts += port.counters.dequeued;
            cell.acks += sim.link_bytes_sent(link, sink) / u64::from(HEADER_BYTES);
        }
        // Sender statistics are not reachable through the churn
        // agents: count a retransmission per bottleneck drop.
        cell.retransmits = cell.q_drops;
        // Source → rack switch → sink: two links each way.
        cell.pkt_hops = 2 * (cell.pkts + cell.acks);
        counts.add(&cell);
        Ok(report)
    }
}

fn empty_report(events: u64) -> FctReport {
    FctReport {
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
        events,
    }
}

/// The fields both `drive` and `run_instance` fill, so that their
/// digests compare.
fn digest_report(digest: &mut Digest, r: &FctReport) {
    digest
        .u64(r.events)
        .u64(r.arrivals)
        .u64(r.started)
        .u64(r.completed)
        .u64(r.aborted)
        .u64(r.measured_completed)
        .u64(r.measured_bytes)
        .u64(r.timeouts)
        .u64(r.backlog_peak)
        .u64(u64::from(r.slots_high_water));
    for sketch in &r.sketches {
        digest.u64(sketch.count());
        for q in [0.5, 0.99] {
            digest.opt_f64(sketch.quantile(q));
        }
    }
}

impl Workload for FctChurn {
    fn unit(&self) -> WorkUnit {
        WorkUnit::Flows
    }

    fn setup_only(&mut self, checks: &mut Checks) {
        for cell in &self.cells {
            checks.sim("fct_churn instantiate", cell.instantiate());
        }
    }

    fn rep(&mut self, checks: &mut Checks) -> Rep {
        let mut digest = Digest::default();
        let mut counts = Counts::default();
        let mut wall_s = 0.0;
        let mut flows = 0u64;
        for cell in &self.cells {
            let inst = {
                let _s = span("workloads.instantiate");
                cell.instantiate()
            };
            let Some(inst) = checks.sim("fct_churn instantiate", inst) else {
                continue;
            };
            let start = Instant::now();
            let report = self.drive(inst, &mut counts, checks);
            wall_s += start.elapsed().as_secs_f64();
            let Some(report) = checks.sim("fct_churn run", report) else {
                continue;
            };
            checks.check(
                report.aborted == 0 && report.completed <= report.started,
                || {
                    format!(
                        "fct_churn: {} flows aborted, {} completed of {} started",
                        report.aborted, report.completed, report.started
                    )
                },
            );
            flows += report.completed;
            digest_report(&mut digest, &report);
        }
        Rep {
            wall_s,
            work: flows as f64,
            digest: digest.finish(),
            counts,
        }
    }

    fn shipped_digest(&mut self, checks: &mut Checks) -> Option<u64> {
        let mut digest = Digest::default();
        for cell in &self.cells {
            let inst = checks.sim("fct_churn instantiate", cell.instantiate())?;
            let report = checks.sim("fct_churn run_instance", cell.run_instance(inst))?;
            digest_report(&mut digest, &report);
        }
        Some(digest.finish())
    }

    fn extras(&mut self, m: &mut Metrics, checks: &mut Checks) {
        let cell = &self.cells[0];
        let total = self
            .phases
            .into_iter()
            .fold(SimDuration::ZERO, |a, b| a + b);
        shard_speedup(m, checks, |shards, checks| {
            let inst = checks.sim("fct_churn sharded", cell.instantiate_with_shards(shards))?;
            let mut sim = inst.sim;
            let start = Instant::now();
            checks.sim("fct_churn sharded run", sim.run_for(total))?;
            Some((start.elapsed().as_secs_f64(), sim.events_processed()))
        });
    }
}
