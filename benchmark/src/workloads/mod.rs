//! The six workloads and what they share: the repetition record, exact
//! operation counts read from public counters, output checks and the
//! result digest.

pub mod fattree;
pub mod fct_churn;
pub mod fluid_sweep;
pub mod incast;
pub mod long_lived;
pub mod repro_matrix;

use std::path::PathBuf;

use dctcp_sim::{LinkId, NodeId, QueueReport, ShardedSimulator, SimError, Simulator};
use dctcp_tcp::TransportHost;

use crate::metrics::Metrics;

/// Where a workload finds its inputs and may write.
#[derive(Debug, Clone)]
pub struct Env {
    /// Feeds the input generator only.
    pub seed: u64,
    /// Shortened cells for the smoke run.
    pub quick: bool,
    /// The frozen scenario snapshot (`benchmark/scenarios`).
    pub scenarios: PathBuf,
    /// A directory of this run's own, inside the checkout.
    pub scratch: PathBuf,
    /// The release `repro` binary the user would run: built next to the
    /// benchmark's own binary.
    pub repro: PathBuf,
}

/// The unit `work_per_sec` counts for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkUnit {
    /// Simulated data packets delivered to receivers.
    Packets,
    /// Completed flows.
    Flows,
    /// Fluid operating points evaluated.
    Points,
    /// Scenario cells produced.
    Cells,
}

/// Pass/fail accounting of the checks a run performs on its outputs.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// A simulation that must not fail: counts one check, unwraps on
    /// success.
    pub fn sim<T>(&mut self, what: &str, r: Result<T, SimError>) -> Option<T> {
        self.check(r.is_ok(), || {
            format!(
                "{what}: {}",
                r.as_ref().err().map_or(String::new(), |e| e.to_string())
            )
        });
        r.ok()
    }
}

/// FNV-1a over the simulated statistics of a repetition. Equal digests
/// mean the simulated results are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn opt_f64(&mut self, v: Option<f64>) -> &mut Self {
        match v {
            Some(v) => self.u64(1).f64(v),
            None => self.u64(0),
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Exact operation counts of one repetition, read from the program's
/// public counters. They must repeat bit-for-bit between repetitions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Engine events processed.
    pub events: u64,
    /// Data segments that arrived at receivers.
    pub pkts: u64,
    /// Packet transmissions over links (one per hop).
    pub pkt_hops: u64,
    /// Packets offered to marking (AQM) switch ports.
    pub marking_decisions: u64,
    /// ACK packets sent by receivers.
    pub acks: u64,
    /// Fast-retransmit episodes (bottleneck drops where sender
    /// statistics are not reachable).
    pub retransmits: u64,
    /// Retransmission timeouts.
    pub rtos: u64,
    /// Segments that arrived out of order or duplicated: each makes the
    /// receiver leave the in-order path and emit a duplicate ACK.
    pub off_path_segments: u64,
    /// Deepest switch-port occupancy, packets.
    pub q_max_depth: u64,
    /// CE marks applied by switch ports.
    pub q_marks: u64,
    /// Packets dropped by switch ports.
    pub q_drops: u64,
    /// Churn only: flows started and completed, peak arrival backlog.
    pub flows_started: u64,
    pub flows_completed: u64,
    pub backlog_peak: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.pkts += o.pkts;
        self.pkt_hops += o.pkt_hops;
        self.marking_decisions += o.marking_decisions;
        self.acks += o.acks;
        self.retransmits += o.retransmits;
        self.rtos += o.rtos;
        self.off_path_segments += o.off_path_segments;
        self.q_max_depth = self.q_max_depth.max(o.q_max_depth);
        self.q_marks += o.q_marks;
        self.q_drops += o.q_drops;
        self.flows_started += o.flows_started;
        self.flows_completed += o.flows_completed;
        self.backlog_peak = self.backlog_peak.max(o.backlog_peak);
    }

    /// Folds one switch port's report in.
    pub fn add_port(&mut self, r: &QueueReport) {
        self.q_marks += r.counters.marked;
        self.q_drops += r.counters.dropped();
        self.q_max_depth = self.q_max_depth.max(r.occupancy_pkts.max as u64);
        self.marking_decisions += r.counters.enqueued + r.counters.dropped();
    }

    /// Folds one transport host's sender and receiver statistics in and
    /// checks that no flow errored.
    pub fn add_host(&mut self, host: &TransportHost, checks: &mut Checks) {
        for s in host.senders() {
            self.retransmits += s.stats().fast_retransmits;
            self.rtos += s.stats().timeouts;
        }
        for r in host.receivers() {
            let st = r.stats();
            self.pkts += st.segments_received;
            self.acks += st.acks_sent;
            self.off_path_segments += st.out_of_order_segments + st.duplicate_segments;
        }
        let errors = host.flow_errors();
        checks.check(errors.is_empty(), || format!("flow errors: {errors:?}"));
    }
}

/// One repetition of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Host seconds of the repetition excluding set-up.
    pub wall_s: f64,
    /// Units of simulated work done (see [`WorkUnit`]).
    pub work: f64,
    /// Digest of the simulated statistics.
    pub digest: u64,
    /// Operation counts; all zero where no packet engine runs.
    pub counts: Counts,
}

/// A benchmark workload: fixed, seed-generated inputs run repeatedly.
pub trait Workload {
    fn unit(&self) -> WorkUnit;

    /// Whether an untimed repetition precedes the timed ones. False
    /// only where the user pays the cold start on every run.
    fn warms_up(&self) -> bool {
        true
    }

    /// Fewest timed repetitions (or traced/untraced pairs) of a run.
    fn min_reps(&self) -> usize {
        3
    }

    /// Builds every input of one repetition and drops it: what
    /// `setup_s` times.
    fn setup_only(&mut self, checks: &mut Checks);

    /// Runs one repetition: one code path whether or not spans are
    /// being recorded.
    fn rep(&mut self, checks: &mut Checks) -> Rep;

    /// The digest of the same inputs run through the library's shipped
    /// entry point, where the repetition drives the public simulator
    /// itself in order to read its counters. It must equal the
    /// repetition's digest.
    fn shipped_digest(&mut self, _checks: &mut Checks) -> Option<u64> {
        None
    }

    /// Whether a repetition records spans of its own, so that running
    /// it with tracing on and off measures the tracing overhead.
    fn spans_in_rep(&self) -> bool {
        true
    }

    /// Peak RSS of the child process of each repetition, for the
    /// workload that measures a subprocess instead of itself.
    fn child_peaks_mb(&self) -> Option<&[f64]> {
        None
    }

    /// Extra per-layer measurements of the traced run.
    fn extras(&mut self, _m: &mut Metrics, _checks: &mut Checks) {}
}

pub fn build(name: &str, env: &Env) -> Option<Box<dyn Workload>> {
    Some(match name {
        "long_lived" => Box::new(long_lived::LongLived::new(env)),
        "incast" => Box::new(incast::Incast::new(env)),
        "fct_churn" => Box::new(fct_churn::FctChurn::new(env)),
        "fattree" => Box::new(fattree::FatTreeCollectives::new(env)),
        "fluid_sweep" => Box::new(fluid_sweep::FluidSweep::new(env)),
        "repro_matrix" => Box::new(repro_matrix::ReproMatrix::new(env)),
        _ => return None,
    })
}

/// The engine surface the harvest code needs, shared by the serial and
/// the sharded simulator so one helper serves every workload.
pub trait Engine {
    fn host(&self, node: NodeId) -> Result<&TransportHost, SimError>;
    fn port(&self, link: LinkId, from: NodeId) -> QueueReport;
    fn resident(&self, link: LinkId, from: NodeId) -> u32;
    fn events(&self) -> u64;
}

macro_rules! impl_engine {
    ($t:ty) => {
        impl Engine for $t {
            fn host(&self, node: NodeId) -> Result<&TransportHost, SimError> {
                self.agent(node)
            }
            fn port(&self, link: LinkId, from: NodeId) -> QueueReport {
                self.queue_report(link, from)
            }
            fn resident(&self, link: LinkId, from: NodeId) -> u32 {
                self.queue_len_pkts(link, from)
            }
            fn events(&self) -> u64 {
                self.events_processed()
            }
        }
    };
}
impl_engine!(Simulator);
impl_engine!(ShardedSimulator);

/// Queue conservation on one port since its statistics were last reset:
/// every packet that entered either left or is still resident. (Drops
/// on arrival never enter, and no benchmark scheme drops at the head.)
pub fn check_port_conservation(
    checks: &mut Checks,
    what: &str,
    report: &QueueReport,
    resident_at_reset: u32,
    resident_now: u32,
) {
    let c = &report.counters;
    let ok = c.enqueued + u64::from(resident_at_reset) == c.dequeued + u64::from(resident_now);
    checks.check(ok, || {
        format!(
            "{what}: queue conservation broken (enq {} + resident {} != deq {} + resident {})",
            c.enqueued, resident_at_reset, c.dequeued, resident_now
        )
    });
}

/// `sim.shard.speedup_2`: the time `run` takes at one shard over the
/// time it takes at two, `run(shards)` returning seconds and events
/// processed. Left out below two cores, where a speed-up says nothing,
/// and the two runs must process the same events.
pub fn shard_speedup(
    m: &mut Metrics,
    checks: &mut Checks,
    mut run: impl FnMut(usize, &mut Checks) -> Option<(f64, u64)>,
) {
    if crate::machine::cores() < 2 {
        return;
    }
    if let (Some((one, events_1)), Some((two, events_2))) = (run(1, checks), run(2, checks)) {
        checks.check(events_1 == events_2, || {
            format!("sharded run diverged: {events_1} vs {events_2} events")
        });
        m.set_exact("sim.shard.speedup_2", one / two);
    }
}

/// Data segments a finite flow of `bytes` needs at segment size `mss`.
pub fn segments(bytes: u64, mss: u32) -> u64 {
    bytes.div_ceil(u64::from(mss))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_values_and_order() {
        let d = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::default();
            f(&mut d);
            d.finish()
        };
        assert_eq!(
            d(&|d| {
                d.u64(1).u64(2);
            }),
            d(&|d| {
                d.u64(1).u64(2);
            })
        );
        assert_ne!(
            d(&|d| {
                d.u64(1).u64(2);
            }),
            d(&|d| {
                d.u64(2).u64(1);
            })
        );
        assert_ne!(
            d(&|d| {
                d.opt_f64(None);
            }),
            d(&|d| {
                d.opt_f64(Some(0.0));
            })
        );
        assert_ne!(
            d(&|d| {
                d.f64(0.0);
            }),
            d(&|d| {
                d.f64(-0.0);
            })
        );
    }

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "bad".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.notes, vec!["bad".to_string()]);
        assert_eq!(segments(64 * 1024, 1460), 45);
        assert_eq!(segments(1460, 1460), 1);
    }

    fn quick_env(seed: u64) -> Env {
        let package = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        Env {
            seed,
            quick: true,
            scenarios: package.join("scenarios"),
            scratch: package.join(format!("out/test-{}-{seed}", std::process::id())),
            repro: PathBuf::from("repro-is-not-run-by-tests"),
        }
    }

    /// The seed is the only thing that moves the inputs: the same seed
    /// gives the same simulated results — through the benchmark's
    /// driver and through the library's shipped entry point alike —
    /// and another seed gives other inputs and so other results.
    #[test]
    fn same_seed_same_digest_other_seed_other_inputs() {
        for name in [
            "long_lived",
            "incast",
            "fct_churn",
            "fattree",
            "fluid_sweep",
        ] {
            let digests = |seed: u64| {
                let mut checks = Checks::default();
                let mut w = build(name, &quick_env(seed)).unwrap();
                let rep = w.rep(&mut checks);
                let shipped = w.shipped_digest(&mut checks);
                assert_eq!(checks.failed, 0, "{name}: {:?}", checks.notes);
                assert!(rep.work > 0.0 && rep.wall_s > 0.0, "{name}");
                (rep.digest, shipped)
            };
            let (first, shipped) = digests(1);
            assert_eq!(first, digests(1).0, "{name}: same seed, other digest");
            assert_eq!(
                shipped.is_some(),
                ["incast", "fct_churn", "fattree"].contains(&name),
                "{name}"
            );
            assert!(
                shipped.is_none_or(|s| s == first),
                "{name}: the driver simulated something else than the shipped entry point"
            );
            assert_ne!(first, digests(2).0, "{name}: other seed, same digest");
        }
    }

    /// `--seed 1` hands `repro` the frozen snapshot byte for byte; any
    /// other seed hands it other seeds and nothing else.
    #[test]
    fn default_seed_materialises_the_snapshot_unchanged() {
        let read_all = |dir: &std::path::Path| -> Vec<(String, String)> {
            dctcp_scenario::list_scenarios(dir)
                .unwrap()
                .iter()
                .map(|p| {
                    let name = p.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read_to_string(p).unwrap())
                })
                .collect()
        };
        let mut env = quick_env(1);
        env.quick = false;
        let frozen = read_all(&env.scenarios);
        assert_eq!(
            frozen.len(),
            13,
            "the snapshot holds the 13 committed scenarios"
        );
        for seed in [1, 5] {
            env.seed = seed;
            env.scratch = quick_env(100 + seed).scratch;
            let dir = repro_matrix::ReproMatrix::new(&env)
                .scenario_dir()
                .to_path_buf();
            let written = read_all(&dir);
            if seed == 1 {
                assert_eq!(written, frozen);
            } else {
                let expected: Vec<(String, String)> = frozen
                    .iter()
                    .map(|(n, s)| (n.clone(), repro_matrix::reseed(s, seed)))
                    .collect();
                assert_eq!(written, expected);
                assert_ne!(written, frozen);
            }
            std::fs::remove_dir_all(&env.scratch).unwrap();
        }
    }
}
