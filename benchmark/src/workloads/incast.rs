//! `incast` — the paper's Figs. 14–15 testbed (`TestbedConfig::paper`,
//! 128 KB bottleneck buffer): Incast and partition-aggregate queries,
//! closed loop (each round's N responders are window-limited).
//!
//! Why it exists: the same `sim`/`tcp` layers as `long_lived`, used
//! differently — synchronized bursts, drops, RTO arm/cancel, fast
//! retransmit and out-of-order reassembly (a high share of packets
//! leaves the fast path) — and many short simulations, so set-up cost
//! shows.

use std::time::Instant;

use dctcp_core::MarkingScheme;
use dctcp_rng::Pcg32;
use dctcp_sim::{FlowId, NodeId, SimDuration, SimError, SimTime};
use dctcp_tcp::ScheduledFlow;
use dctcp_workloads::{
    build_testbed, run_query_rounds_with_threads, QueryRound, QueryWorkload, Testbed, TestbedConfig,
};

use super::{segments, Checks, Counts, Digest, Engine, Env, Rep, WorkUnit, Workload};
use crate::spans::span;

pub struct Incast {
    cells: Vec<(TestbedConfig, QueryWorkload)>,
}

impl Incast {
    pub fn new(env: &Env) -> Self {
        let (incast, aggregate, rounds): (&[u32], &[u32], u32) = if env.quick {
            (&[8, 32], &[8], 3)
        } else {
            (&[8, 16, 32, 40], &[8, 16], 20)
        };
        let mut cells = Vec::new();
        // The fig13 scenarios' thresholds for the 128 KB port.
        for marking in [
            MarkingScheme::dctcp_bytes(32 * 1024),
            MarkingScheme::dt_dctcp_bytes(28 * 1024, 34 * 1024),
        ] {
            let cfg = TestbedConfig::paper(marking);
            let workloads = incast
                .iter()
                .map(|&n| QueryWorkload::incast(n, rounds))
                .chain(
                    aggregate
                        .iter()
                        .map(|&n| QueryWorkload::partition_aggregate(n, rounds)),
                );
            for (i, mut wl) in workloads.enumerate() {
                // The seed feeds the start jitter; cells get disjoint
                // seed ranges (round r of a cell uses seed + r).
                wl.seed = env.seed * 10_000 + i as u64 * 100;
                cells.push((cfg, wl));
            }
        }
        Incast { cells }
    }
}

/// The flows of one round, jittered exactly as the library's round
/// driver jitters them (`Pcg32` seeded with `seed + round`).
fn round_flows(cfg: &TestbedConfig, wl: &QueryWorkload, round: u32) -> Vec<ScheduledFlow> {
    let mut rng = Pcg32::seed_from_u64(wl.seed.wrapping_add(u64::from(round)));
    (0..wl.flows)
        .map(|i| ScheduledFlow {
            flow: FlowId(u64::from(i) + 1),
            dst: NodeId::from_index(0), // the client is the first node
            bytes: Some(wl.bytes_per_flow),
            at: SimTime::ZERO + SimDuration::from_nanos(rng.range_u64(0, wl.jitter.as_nanos())),
            cfg: cfg.tcp,
        })
        .collect()
}

/// One round on an already built testbed: the polling loop of
/// `run_query_rounds_with_threads`, re-stated over the public simulator
/// so that the engine and transport counters can be read when it ends.
/// `Workload::shipped_digest` holds the two together.
fn drive_round(
    mut tb: Testbed,
    wl: &QueryWorkload,
    counts: &mut Counts,
    checks: &mut Checks,
) -> Result<QueryRound, SimError> {
    let step = SimDuration::from_micros(500);
    let deadline = SimTime::ZERO + wl.round_timeout;
    let mut completion = None;
    {
        let _s = span("sim.run_until");
        while tb.sim.now() < deadline {
            let next = (tb.sim.now() + step).min(deadline);
            tb.sim.run_until(next)?;
            let host = tb.sim.host(tb.client)?;
            let mut done = 0;
            let mut last = SimTime::ZERO;
            for i in 0..wl.flows {
                if let Some(r) = host.receiver(FlowId(u64::from(i) + 1)) {
                    if r.bytes_received() >= wl.bytes_per_flow {
                        done += 1;
                        last = last.max(r.stats().last_arrival.unwrap_or(SimTime::ZERO));
                    }
                }
            }
            if done == wl.flows {
                completion = Some(last.as_secs_f64());
                break;
            }
            if !tb.sim.has_pending_events() {
                break;
            }
        }
    }
    let _s = span("workloads.report");
    let mut round = Counts::default();
    for &w in &tb.workers {
        round.add_host(tb.sim.host(w)?, checks);
    }
    round.add_host(tb.sim.host(tb.client)?, checks);
    let port = tb.sim.port(tb.bottleneck, tb.switch1);
    round.add_port(&port);
    round.events = tb.sim.events();
    // Worker → leaf switch → switch 1 → client: three links each way.
    round.pkt_hops = 3 * (round.pkts + round.acks);
    let total_bytes = u64::from(wl.flows) * wl.bytes_per_flow;
    let result = QueryRound {
        completion,
        goodput_bps: completion
            .filter(|&t| t > 0.0)
            .map_or(0.0, |t| total_bytes as f64 * 8.0 / t),
        timeouts: round.rtos,
        drops: port.counters.dropped(),
    };
    counts.add(&round);
    Ok(result)
}

fn digest_rounds(digest: &mut Digest, rounds: &[QueryRound]) {
    for r in rounds {
        digest
            .opt_f64(r.completion)
            .f64(r.goodput_bps)
            .u64(r.timeouts)
            .u64(r.drops);
    }
}

impl Workload for Incast {
    fn unit(&self) -> WorkUnit {
        WorkUnit::Packets
    }

    fn setup_only(&mut self, checks: &mut Checks) {
        for (cfg, wl) in &self.cells {
            for round in 0..wl.rounds {
                checks.sim(
                    "incast build_testbed",
                    build_testbed(cfg, &round_flows(cfg, wl, round)),
                );
            }
        }
    }

    fn rep(&mut self, checks: &mut Checks) -> Rep {
        let mut digest = Digest::default();
        let mut counts = Counts::default();
        let mut wall_s = 0.0;
        let mut work = 0u64;
        for (cfg, wl) in &self.cells {
            let mut rounds = Vec::new();
            for round in 0..wl.rounds {
                let tb = {
                    let _s = span("workloads.instantiate");
                    build_testbed(cfg, &round_flows(cfg, wl, round))
                };
                let Some(tb) = checks.sim("incast build_testbed", tb) else {
                    continue;
                };
                let start = Instant::now();
                let driven = drive_round(tb, wl, &mut counts, checks);
                wall_s += start.elapsed().as_secs_f64();
                rounds.extend(checks.sim("incast round", driven));
            }
            digest_rounds(&mut digest, &rounds);
            account(wl, cfg, &rounds, &mut work, checks);
        }
        Rep {
            wall_s,
            work: work as f64,
            digest: digest.finish(),
            counts,
        }
    }

    fn shipped_digest(&mut self, checks: &mut Checks) -> Option<u64> {
        let mut digest = Digest::default();
        for (cfg, wl) in &self.cells {
            let report = run_query_rounds_with_threads(cfg, wl, 1);
            digest_rounds(&mut digest, &checks.sim("incast rounds", report)?.rounds);
        }
        Some(digest.finish())
    }
}

/// Finite flows must deliver exactly what was requested: every round of
/// the benchmark's cells completes. Work is the data segments those
/// flows need, which no implementation change can alter.
fn account(
    wl: &QueryWorkload,
    cfg: &TestbedConfig,
    rounds: &[QueryRound],
    work: &mut u64,
    checks: &mut Checks,
) {
    let completed = rounds.iter().filter(|r| r.completion.is_some()).count() as u64;
    checks.check(completed == u64::from(wl.rounds), || {
        format!(
            "incast N={}: {completed} of {} rounds delivered every requested byte",
            wl.flows, wl.rounds
        )
    });
    *work += completed * u64::from(wl.flows) * segments(wl.bytes_per_flow, cfg.tcp.mss);
}
