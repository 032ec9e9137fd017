//! Fat-tree/ECMP correctness suite: seeded ECMP property tests (path
//! determinism, validity, balance) and a k=4 allreduce that completes
//! with trace-oracle invariants holding on every tier.

use std::collections::BTreeMap;

use dt_dctcp::core::MarkingScheme;
use dt_dctcp::sim::{
    Capacity, FatTree, FatTreeIds, FatTreeNet, FlowId, LinkSpec, Network, NodeId, Packet,
    QueueConfig, SimDuration, SimError, SimTime, Simulator, TierSpec,
};
use dt_dctcp::tcp::{ScheduledFlow, TcpConfig, TransportHost};
use dt_dctcp::trace::{oracle, TraceConfig};
use dt_dctcp::workloads::CollectivePattern;

fn tcp() -> TcpConfig {
    TcpConfig::dctcp(1.0 / 16.0).with_rto_min(SimDuration::from_millis(10))
}

/// A k=4 fat-tree with explicit per-tier links (delays 5/10/20 µs) and
/// DCTCP switch queues.
fn fabric(ecmp_seed: u64, mut agents: impl FnMut(usize) -> TransportHost) -> FatTreeNet {
    let q = QueueConfig::switch(Capacity::Packets(100), MarkingScheme::dctcp_packets(20));
    FatTree::new(4, 2)
        .with_tiers(
            TierSpec::new(LinkSpec::gbps(1.0, 5), q),
            TierSpec::new(LinkSpec::gbps(1.0, 10), q),
            TierSpec::new(LinkSpec::gbps(1.0, 20), q),
        )
        .ecmp_seed(ecmp_seed)
        .build(|i| Box::new(agents(i)))
        .unwrap()
}

fn idle_fabric(ecmp_seed: u64) -> FatTreeNet {
    fabric(ecmp_seed, |_| TransportHost::new(tcp()))
}

/// Walks the ECMP tables from `src` to `dst` for one packet, asserting
/// each hop is a real link incident to the current node and that no
/// node repeats. Returns the node path (src..=dst).
fn walk(net: &Network, pkt: &Packet) -> Vec<NodeId> {
    let mut path = vec![pkt.src];
    let mut at = pkt.src;
    while at != pkt.dst {
        let (link, end) = net
            .routes()
            .select(at, pkt)
            .unwrap_or_else(|| panic!("no route at {} toward {}", at, pkt.dst));
        let (a, b) = net.link_ends(link);
        // Validity: the selected link leaves the node we are at, from
        // the queue end that belongs to it.
        let next = match end {
            0 => {
                assert_eq!(a, at, "end 0 of {link} is not {at}");
                b
            }
            _ => {
                assert_eq!(b, at, "end 1 of {link} is not {at}");
                a
            }
        };
        assert!(!path.contains(&next), "loop through {next}: {path:?}");
        path.push(next);
        at = next;
        assert!(path.len() <= 7, "path too long: {path:?}");
    }
    path
}

fn data(flow: u64, src: NodeId, dst: NodeId) -> Packet {
    Packet::data(FlowId(flow), src, dst, 0, 1460)
}

/// Same 5-tuple ⇒ same path, across runs and across independently
/// built replicas of the fabric (what different threads observe); a
/// different ECMP seed re-rolls the choices.
#[test]
fn ecmp_paths_are_deterministic_and_seeded() {
    let a = idle_fabric(7);
    let b = idle_fabric(7);
    let reseeded = idle_fabric(8);
    let hosts = &a.ids.hosts;
    let mut moved = 0usize;
    for flow in 1..=200u64 {
        let src = hosts[(flow as usize * 5) % hosts.len()];
        let dst = hosts[(flow as usize * 11 + 3) % hosts.len()];
        if src == dst {
            continue;
        }
        let pkt = data(flow, src, dst);
        let first = walk(&a.network, &pkt);
        // Re-walking the same tables is a pure function...
        assert_eq!(first, walk(&a.network, &pkt));
        // ...and an independently constructed replica (another thread's
        // build) selects the exact same path.
        assert_eq!(first, walk(&b.network, &pkt));
        if first != walk(&reseeded.network, &pkt) {
            moved += 1;
        }
    }
    assert!(moved > 0, "changing the ECMP seed never moved a path");
}

/// Every selected path is loop-free, uses only real links, respects the
/// tier ordering (up through edge/agg/core, then down), and has exactly
/// the equal-cost shortest length for the pair's relationship.
#[test]
fn ecmp_paths_are_valid_and_equal_cost_on_every_pair() {
    let FatTreeNet { network, ids } = idle_fabric(1);
    let hpe = 2usize;
    let half = 2usize; // k/2
    let edge_of = |h: usize| h / hpe;
    let pod_of = |h: usize| edge_of(h) / half;
    for (si, &src) in ids.hosts.iter().enumerate() {
        for (di, &dst) in ids.hosts.iter().enumerate() {
            if si == di {
                continue;
            }
            for flow in 1..=4u64 {
                let path = walk(&network, &data(flow, src, dst));
                let expected = if edge_of(si) == edge_of(di) {
                    3 // host, shared edge, host
                } else if pod_of(si) == pod_of(di) {
                    5 // up to an agg and back down
                } else {
                    7 // through a core switch
                };
                assert_eq!(path.len(), expected, "{src}->{dst}: {path:?}");
                // Tier ordering: hosts only at the endpoints, the
                // middle node of a max-length path is a core switch.
                for n in &path[1..path.len() - 1] {
                    assert!(!ids.hosts.contains(n), "host {n} mid-path: {path:?}");
                }
                if expected == 7 {
                    assert!(ids.cores.contains(&path[3]), "no core mid: {path:?}");
                }
            }
        }
    }
}

/// Chi-square-style balance: across ≥1k flows between inter-pod pairs,
/// each of an edge switch's two equal-cost uplinks takes a fair share.
#[test]
fn ecmp_balance_across_a_thousand_flows() {
    let FatTreeNet { network, ids } = idle_fabric(1);
    // First hop off edge0_0 for inter-pod traffic: 2 candidates.
    let src = ids.hosts[0];
    let dst = ids.hosts[15]; // last pod
    let edge = ids.edges[0];
    assert_eq!(network.equal_cost_routes(edge, dst).len(), 2);
    let mut counts: BTreeMap<(u64, usize), u64> = BTreeMap::new();
    let n_flows = 1000u64;
    for flow in 1..=n_flows {
        let pkt = data(flow, src, dst);
        let (link, end) = network.routes().select(edge, &pkt).unwrap();
        *counts.entry((link.index() as u64, end)).or_default() += 1;
    }
    assert_eq!(counts.len(), 2, "only one uplink ever chosen: {counts:?}");
    // Chi-square against the uniform split, 1 degree of freedom: the
    // p = 0.001 critical value is 10.83; a healthy hash sits far under.
    let expected = n_flows as f64 / 2.0;
    let chi2: f64 = counts
        .values()
        .map(|&o| (o as f64 - expected).powi(2) / expected)
        .sum();
    assert!(chi2 < 10.83, "uplink skew chi2 = {chi2:.2}: {counts:?}");
}

/// Runs a ring allreduce over all 16 hosts of the k=4 fabric, checking
/// the trace oracle and that every flow delivered all its bytes, and
/// returns the switch-port enqueue counts per tier.
fn run_allreduce() -> [u64; 3] {
    let bytes = 16 * 1024u64;
    let steps = CollectivePattern::RingAllreduce
        .transfers(16, bytes, 0, 1)
        .unwrap();
    let mut per_host: Vec<Vec<ScheduledFlow>> = vec![Vec::new(); 16];
    let mut expected: Vec<(usize, FlowId, u64)> = Vec::new();
    let mut next = 1u64;
    for (s, step) in steps.iter().enumerate() {
        for &(src, dst, bytes) in step {
            let flow = FlowId(next);
            next += 1;
            per_host[src as usize].push(ScheduledFlow {
                flow,
                dst: NodeId::from_index(dst as usize),
                bytes: Some(bytes),
                at: SimTime::ZERO + SimDuration::from_millis(1) * s as u64,
                cfg: tcp(),
            });
            expected.push((dst as usize, flow, bytes));
        }
    }
    let FatTreeNet { network, ids } = fabric(7, |i| {
        let mut host = TransportHost::new(tcp());
        for sf in per_host[i].drain(..) {
            host.schedule(sf);
        }
        host
    });
    let mut sim = Simulator::new(network);
    sim.enable_trace(TraceConfig::all());
    sim.run_for(SimDuration::from_millis(120)).unwrap();
    let log = sim.take_trace();
    let violations = oracle::check_log(&log);
    assert!(
        violations.is_empty(),
        "allreduce violated trace invariants, first: {}",
        violations[0]
    );
    for &(dst, flow, bytes) in &expected {
        let host: &TransportHost = sim.agent(ids.hosts[dst]).unwrap();
        let got = host.receiver(flow).map_or(0, |r| r.bytes_received());
        assert_eq!(got, bytes, "flow {flow:?} incomplete");
    }
    tier_counters(&sim, &ids)
}

/// Sums the switch-port enqueue counters per tier (host-access, pod
/// fabric, core).
fn tier_counters(sim: &Simulator, ids: &FatTreeIds) -> [u64; 3] {
    let half = 2usize;
    let mut out = [0u64; 3];
    for (i, &link) in ids.host_links.iter().enumerate() {
        out[0] += sim.queue_report(link, ids.edges[i / 2]).counters.enqueued;
    }
    for (i, &link) in ids.pod_links.iter().enumerate() {
        let edge = ids.edges[i / half];
        let agg = ids.aggs[(i / (half * half)) * half + i % half];
        out[1] += sim.queue_report(link, edge).counters.enqueued;
        out[1] += sim.queue_report(link, agg).counters.enqueued;
    }
    for (i, &link) in ids.core_links.iter().enumerate() {
        let agg = ids.aggs[i / half];
        let core = ids.cores[(i / half % half) * half + i % half];
        out[2] += sim.queue_report(link, agg).counters.enqueued;
        out[2] += sim.queue_report(link, core).counters.enqueued;
    }
    out
}

/// A k=4 fat-tree ring allreduce completes every flow with a clean
/// trace, and every tier carried traffic, so the oracle pass really
/// covered host, aggregation and core queues.
#[test]
fn allreduce_completes_with_clean_trace_on_every_tier() {
    for (tier, &enq) in run_allreduce().iter().enumerate() {
        assert!(enq > 0, "tier {tier} saw no traffic");
    }
}

/// Invalid construction surfaces as typed errors through the public
/// facade, not panics.
#[test]
fn invalid_fat_trees_are_typed_errors() {
    for ft in [
        FatTree::new(5, 2),  // odd arity
        FatTree::new(2, 2),  // arity below 4
        FatTree::new(18, 2), // arity above 16
        FatTree::new(4, 0),  // zero hosts per edge
    ] {
        let err = ft
            .build(|_| Box::new(TransportHost::new(tcp())))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
    }
    // Zero-capacity tier queues are mismatched tier configuration.
    let q = QueueConfig::switch(Capacity::Packets(0), MarkingScheme::dctcp_packets(20));
    let t = TierSpec::new(LinkSpec::gbps(1.0, 5), q);
    let err = FatTree::new(4, 2)
        .with_tiers(t, t, t)
        .build(|_| Box::new(TransportHost::new(tcp())))
        .unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
}
