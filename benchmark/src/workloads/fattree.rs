//! `fattree` — collectives on a k = 4 fat-tree (16 hosts, 1 Gb/s
//! edge/aggregation links, 500 Mb/s core): a seeded permutation and a
//! ring allreduce, closed loop (16 window-limited senders per step).
//!
//! Why it exists: five queue/link hops and an ECMP `Routes::select` per
//! packet make `sim` forwarding dominate over `tcp`. It is the only
//! workload where intra-run sharding could help, and chained
//! bottlenecks are the regime single-queue results must not be assumed
//! to cover.

use std::time::Instant;

use dctcp_core::MarkingScheme;
use dctcp_sim::{
    Capacity, FatTree, FatTreeNet, FlowId, LinkId, LinkSpec, NodeId, QueueConfig, ShardedSimulator,
    SimDuration, SimError, SimTime, TierSpec,
};
use dctcp_tcp::{ScheduledFlow, TransportHost};
use dctcp_workloads::{run_collective, CollectiveConfig, CollectivePattern};

use super::{
    segments, shard_speedup, Checks, Counts, Digest, Engine, Env, Rep, WorkUnit, Workload,
};
use crate::metrics::Metrics;
use crate::spans::span;

const HOSTS: u32 = 16;

pub struct FatTreeCollectives {
    cells: Vec<CollectiveConfig>,
}

impl FatTreeCollectives {
    pub fn new(env: &Env) -> Self {
        let (permutation_bytes, chunk) = if env.quick {
            (256 * 1024, 16 * 1024)
        } else {
            (4 * 1024 * 1024, 512 * 1024)
        };
        let mut cells = Vec::new();
        for (pattern, bytes, chunk) in [
            (CollectivePattern::Permutation, permutation_bytes, 0),
            (
                CollectivePattern::RingAllreduce,
                chunk * u64::from(HOSTS),
                chunk,
            ),
        ] {
            for marking in [
                MarkingScheme::dctcp_packets(20),
                MarkingScheme::dt_dctcp_packets(15, 25),
            ] {
                cells.push(CollectiveConfig {
                    bytes_per_flow: bytes,
                    chunk,
                    marking,
                    core_gbps: 0.5,
                    buffer: Capacity::Packets(400),
                    // The seed picks the ECMP hash: other paths and
                    // collisions, the same hop counts. (A seeded
                    // permutation would move the number of intra-pod
                    // pairs, and with it the work, by several per cent.)
                    seed: 1,
                    ecmp_seed: env.seed,
                    ..CollectiveConfig::small(pattern, HOSTS)
                });
            }
        }
        FatTreeCollectives { cells }
    }
}

/// The flows of a collective, as `(destination host, flow, bytes)`.
type Expected = Vec<(usize, FlowId, u64)>;

/// Builds the fabric with every step's flows scheduled on its hosts —
/// the set-up `run_collective` performs internally, through the same
/// public builders.
fn build(cfg: &CollectiveConfig) -> Result<(FatTreeNet, Expected), SimError> {
    let steps = cfg
        .pattern
        .transfers(cfg.participants, cfg.bytes_per_flow, cfg.chunk, cfg.seed)?;
    let mut per_host: Vec<Vec<ScheduledFlow>> = vec![Vec::new(); HOSTS as usize];
    let mut expected = Vec::new();
    let mut next_flow = 1u64;
    for (s, step) in steps.iter().enumerate() {
        let at = SimTime::ZERO + cfg.phase_gap * s as u64;
        for &(src, dst, bytes) in step {
            let flow = FlowId(next_flow);
            next_flow += 1;
            per_host[src as usize].push(ScheduledFlow {
                flow,
                dst: NodeId::from_index(dst as usize),
                bytes: Some(bytes),
                at,
                cfg: cfg.tcp,
            });
            expected.push((dst as usize, flow, bytes));
        }
    }
    let q = QueueConfig::switch(cfg.buffer, cfg.marking);
    let tier = |gbps: f64, delay_us: u64| {
        TierSpec::new(
            LinkSpec {
                rate_bps: (gbps * 1e9) as u64,
                delay: SimDuration::from_micros(delay_us),
            },
            q,
        )
    };
    let net = FatTree::new(cfg.k, cfg.hosts_per_edge)
        .with_tiers(
            tier(cfg.host_gbps, cfg.delay_us),
            tier(cfg.agg_gbps, 2 * cfg.delay_us),
            tier(cfg.core_gbps, 4 * cfg.delay_us),
        )
        .ecmp_seed(cfg.ecmp_seed)
        .build(|i| {
            let mut host = TransportHost::new(cfg.tcp);
            for sf in per_host[i].drain(..) {
                host.schedule(sf);
            }
            Box::new(host)
        })?;
    Ok((net, expected))
}

/// What the driver below and `run_collective` both report about one
/// collective.
struct Outcome {
    completion: Option<f64>,
    marks: u64,
    drops: u64,
    timeouts: u64,
    events: u64,
}

impl Outcome {
    fn digest(&self, digest: &mut Digest) {
        digest
            .opt_f64(self.completion)
            .u64(self.marks)
            .u64(self.drops)
            .u64(self.timeouts)
            .u64(self.events);
    }
}

/// Runs a built fabric to completion the way `run_collective` does and
/// reads every port and host counter at the end.
/// `Workload::shipped_digest` holds the two together.
fn drive(
    net: FatTreeNet,
    expected: &Expected,
    cfg: &CollectiveConfig,
    shards: Option<usize>,
    counts: &mut Counts,
    checks: &mut Checks,
) -> Result<Outcome, SimError> {
    // Every transmitting end of every link, noted before the network
    // moves into the simulator.
    let ports: Vec<(LinkId, NodeId)> = (0..net.network.num_links())
        .map(LinkId::from_index)
        .flat_map(|l| {
            let (a, b) = net.network.link_ends(l);
            [(l, a), (l, b)]
        })
        .collect();
    let hosts = net.ids.hosts;
    let mut sim = match shards {
        Some(n) => ShardedSimulator::with_shards(net.network, n)?,
        None => ShardedSimulator::new(net.network)?,
    };
    let deadline = SimTime::ZERO + cfg.horizon;
    let step = SimDuration::from_micros(500);
    let mut completion = None;
    {
        let _s = span("sim.run_until");
        loop {
            let next = (sim.now() + step).min(deadline);
            sim.run_until(next)?;
            let mut last = SimTime::ZERO;
            let mut done = true;
            for &(dst, flow, bytes) in expected {
                match sim.host(hosts[dst])?.receiver(flow) {
                    Some(r) if r.bytes_received() >= bytes => {
                        last = last.max(r.stats().last_arrival.unwrap_or(SimTime::ZERO));
                    }
                    _ => {
                        done = false;
                        break;
                    }
                }
            }
            if done {
                completion = Some(last.as_secs_f64());
                break;
            }
            if sim.now() >= deadline {
                break;
            }
        }
    }
    let _s = span("workloads.report");
    let mut cell = Counts {
        events: sim.events(),
        ..Counts::default()
    };
    for &(link, from) in &ports {
        let port = sim.port(link, from);
        // One dequeue is one transmission over one hop.
        cell.pkt_hops += port.counters.dequeued;
        if from.index() >= hosts.len() {
            cell.add_port(&port); // a switch port
        }
    }
    for &h in &hosts {
        cell.add_host(sim.host(h)?, checks);
    }
    counts.add(&cell);
    Ok(Outcome {
        completion,
        marks: cell.q_marks,
        drops: cell.q_drops,
        timeouts: cell.rtos,
        events: cell.events,
    })
}

impl Workload for FatTreeCollectives {
    fn unit(&self) -> WorkUnit {
        WorkUnit::Packets
    }

    fn setup_only(&mut self, checks: &mut Checks) {
        for cfg in &self.cells {
            checks.sim("fattree build", build(cfg));
        }
    }

    fn rep(&mut self, checks: &mut Checks) -> Rep {
        let mut digest = Digest::default();
        let mut counts = Counts::default();
        let mut wall_s = 0.0;
        let mut work = 0u64;
        for cfg in &self.cells {
            let built = {
                let _s = span("workloads.instantiate");
                build(cfg)
            };
            let Some((net, expected)) = checks.sim("fattree build", built) else {
                continue;
            };
            let start = Instant::now();
            let driven = drive(net, &expected, cfg, None, &mut counts, checks);
            wall_s += start.elapsed().as_secs_f64();
            let Some(o) = checks.sim("fattree run", driven) else {
                continue;
            };
            checks.check(o.completion.is_some(), || {
                format!(
                    "fattree {}: not every requested byte was delivered within the horizon",
                    cfg.pattern.name()
                )
            });
            if o.completion.is_some() {
                work += expected
                    .iter()
                    .map(|&(_, _, bytes)| segments(bytes, cfg.tcp.mss))
                    .sum::<u64>();
            }
            o.digest(&mut digest);
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
        for cfg in &self.cells {
            let r = checks.sim("fattree run_collective", run_collective(cfg, None))?;
            Outcome {
                completion: r.completion,
                marks: r.marks,
                drops: r.drops,
                timeouts: r.timeouts,
                events: r.events,
            }
            .digest(&mut digest);
        }
        Some(digest.finish())
    }

    fn extras(&mut self, m: &mut Metrics, checks: &mut Checks) {
        let cfg = &self.cells[0];
        shard_speedup(m, checks, |shards, checks| {
            let (net, expected) = checks.sim("fattree build", build(cfg))?;
            let start = Instant::now();
            let run = drive(
                net,
                &expected,
                cfg,
                Some(shards),
                &mut Counts::default(),
                checks,
            );
            let o = checks.sim("fattree sharded run", run)?;
            Some((start.elapsed().as_secs_f64(), o.events))
        });
    }
}
