//! Sharded-vs-serial equivalence suite: the intra-run sharded engine
//! must be bit-identical to the serial reference — same trace digests,
//! same transport outcomes, same queue accounting — at every shard
//! count, under clean runs, scripted faults, randomized chaos, and
//! deliberately tied cross-domain timestamps.

use dt_dctcp::core::MarkingScheme;
use dt_dctcp::sim::{
    Agent, Capacity, Context, EventCounts, FaultPlan, FlowId, LinkId, LinkSpec, Network, NodeId,
    Packet, QueueConfig, ShardedSimulator, SimDuration, SimTime, TopologyBuilder,
};
use dt_dctcp::tcp::{ScheduledFlow, TcpConfig, TransportHost};
use dt_dctcp::trace::{oracle, TraceConfig, TraceDigest};

const MB: u64 = 1024 * 1024;

fn tcp() -> TcpConfig {
    TcpConfig::dctcp(1.0 / 16.0)
        .with_rto_min(SimDuration::from_millis(10))
        .with_max_consecutive_rtos(10)
}

/// A dumbbell (tx — sw — rx, 10:1 rate step) carrying one finite flow,
/// rebuilt fresh per shard target so each run starts from scratch.
fn dumbbell(bottleneck_q: QueueConfig, bytes: u64) -> (Network, DumbbellIds) {
    let mut b = TopologyBuilder::new();
    let rx = b.host("rx", Box::new(TransportHost::new(tcp())));
    let mut host = TransportHost::new(tcp());
    host.schedule(ScheduledFlow {
        flow: FlowId(1),
        dst: rx,
        bytes: Some(bytes),
        at: SimTime::ZERO,
        cfg: tcp(),
    });
    let tx = b.host("tx", Box::new(host));
    let sw = b.switch("sw");
    let access = b
        .link(
            tx,
            sw,
            LinkSpec::gbps(10.0, 20),
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
    let bottleneck = b
        .link(
            sw,
            rx,
            LinkSpec::gbps(1.0, 20),
            bottleneck_q,
            QueueConfig::host_nic(),
        )
        .unwrap();
    (
        b.build().unwrap(),
        DumbbellIds {
            tx,
            rx,
            sw,
            access,
            bottleneck,
        },
    )
}

#[derive(Clone, Copy)]
struct DumbbellIds {
    tx: NodeId,
    rx: NodeId,
    sw: NodeId,
    access: LinkId,
    bottleneck: LinkId,
}

/// Everything observable about a finished run; two runs are "the same"
/// exactly when these compare equal.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    digest: TraceDigest,
    counts: EventCounts,
    ended_at_ns: u64,
    bytes_received: u64,
    segments_sent: u64,
    bottleneck_counters: dt_dctcp::sim::QueueCounters,
}

/// Runs the dumbbell to `horizon` at the given shard target (1 = the
/// serial reference engine) with an optional fault plan, insisting the
/// trace passes the invariant oracle.
fn run_dumbbell(
    target: usize,
    horizon: SimDuration,
    q: QueueConfig,
    plan: impl FnOnce(&DumbbellIds) -> FaultPlan,
) -> (Fingerprint, usize) {
    run_dumbbell_traced(true, target, horizon, q, plan)
}

/// [`run_dumbbell`] with engine tracing optional: off, the digest is
/// empty and the engine elides the transmit completions nothing waits
/// on.
fn run_dumbbell_traced(
    traced: bool,
    target: usize,
    horizon: SimDuration,
    q: QueueConfig,
    plan: impl FnOnce(&DumbbellIds) -> FaultPlan,
) -> (Fingerprint, usize) {
    let (net, ids) = dumbbell(q, MB / 2);
    let mut sim = ShardedSimulator::with_shards(net, target).unwrap();
    if traced {
        sim.enable_trace(TraceConfig::all());
    }
    sim.install_faults(&plan(&ids)).unwrap();
    sim.run_for(horizon).unwrap();
    let log = sim.take_trace();
    let violations = oracle::check_log(&log);
    assert!(
        violations.is_empty(),
        "{target}-target run violated invariants, first: {}",
        violations[0]
    );
    let rx_host: &TransportHost = sim.agent(ids.rx).unwrap();
    let bytes_received = rx_host
        .receiver(FlowId(1))
        .map_or(0, |r| r.bytes_received());
    let tx_host: &TransportHost = sim.agent(ids.tx).unwrap();
    let segments_sent = tx_host
        .sender(FlowId(1))
        .map_or(0, |s| s.stats().segments_sent);
    (
        Fingerprint {
            digest: log.digest(),
            counts: sim.event_counts(),
            ended_at_ns: sim.now().as_nanos(),
            bytes_received,
            segments_sent,
            bottleneck_counters: sim.queue_report(ids.bottleneck, ids.sw).counters,
        },
        sim.shard_count(),
    )
}

fn clean_queue() -> QueueConfig {
    QueueConfig::switch(Capacity::Packets(100), MarkingScheme::dctcp_packets(20))
}

/// Clean transport run: the golden-style trace digest must be identical
/// at 1, 2 and 4 requested shards (the 3-node dumbbell caps out at 3
/// actual domains; what matters is that >= 2 really ran sharded).
#[test]
fn transport_digest_parity_across_shard_counts() {
    let horizon = SimDuration::from_secs(6);
    let (serial, n) = run_dumbbell(1, horizon, clean_queue(), |_| FaultPlan::new());
    assert_eq!(n, 1, "target 1 must use the serial engine");
    assert_eq!(serial.bytes_received, MB / 2, "flow must complete");
    for target in [2, 4] {
        let (sharded, n) = run_dumbbell(target, horizon, clean_queue(), |_| FaultPlan::new());
        assert!(n >= 2, "target {target} fell back to serial");
        assert_eq!(serial, sharded, "target {target} diverged from serial");
    }
}

/// Scripted faults (a bottleneck flap) plus queue impairments must
/// replay identically under sharding: faults fire in the owning shard
/// only, but the observable run is the same.
#[test]
fn scripted_faults_replay_identically_under_sharding() {
    let horizon = SimDuration::from_secs(6);
    let q = clean_queue();
    let flap = |ids: &DumbbellIds| {
        FaultPlan::new().flap(
            ids.bottleneck,
            SimTime::ZERO + SimDuration::from_millis(10),
            SimDuration::from_millis(5),
            SimDuration::from_millis(15),
            2,
        )
    };
    let (serial, _) = run_dumbbell(1, horizon, q, flap);
    for target in [2, 4] {
        let (sharded, n) = run_dumbbell(target, horizon, q, flap);
        assert!(n >= 2);
        assert_eq!(serial, sharded, "faulted target {target} diverged");
    }
    assert!(
        serial.digest.count("fault") >= 4,
        "both outages (down + up each) must appear in the trace"
    );
}

/// The randomized chaos suite — Gilbert–Elliott loss, bounded
/// reordering, a randomized fault schedule — is the harshest
/// determinism check we have; every seed must produce the same
/// fingerprint sharded as serial.
#[test]
fn randomized_chaos_matches_serial_per_seed() {
    let horizon = SimDuration::from_secs(4);
    for seed in 1..=3u64 {
        let q = QueueConfig::switch(Capacity::Packets(100), MarkingScheme::dctcp_packets(20))
            .with_gilbert_elliott(0.01, 0.2, 0.001, 0.3, seed)
            .unwrap()
            .with_reorder(3, 0.02, seed ^ 0xdead)
            .unwrap();
        let chaos =
            |ids: &DumbbellIds| FaultPlan::randomized(seed, &[ids.access, ids.bottleneck], horizon);
        let (serial, _) = run_dumbbell(1, horizon, q, chaos);
        let (sharded, n) = run_dumbbell(4, horizon, q, chaos);
        assert!(n >= 2);
        assert_eq!(serial, sharded, "chaos seed {seed} diverged under sharding");
    }
}

/// Untraced, the engine schedules a transmit completion only when a
/// backlog waits on it. Which ones those are is decided by state local
/// to the transmitting link end, so the by-kind event counts — elided
/// completions included — match at every shard count, and everything
/// but the event count matches the traced (eager) run.
#[test]
fn untraced_event_counts_match_across_shard_counts() {
    fn check(q: QueueConfig, plan: impl Fn(&DumbbellIds) -> FaultPlan) {
        let horizon = SimDuration::from_secs(6);
        let (serial, _) = run_dumbbell_traced(false, 1, horizon, q, &plan);
        assert!(serial.counts.tx_elided > 0 && serial.counts.tx_completions > 0);
        for target in [2, 4] {
            let (sharded, n) = run_dumbbell_traced(false, target, horizon, q, &plan);
            assert!(n >= 2, "target {target} fell back to serial");
            assert_eq!(serial, sharded, "untraced target {target} diverged");
        }
        let (eager, _) = run_dumbbell(1, horizon, q, &plan);
        assert_eq!(eager.counts.tx_elided, 0);
        assert_eq!(
            eager.counts.tx_completions,
            serial.counts.tx_completions + serial.counts.tx_elided
        );
        assert!(serial.counts.dispatched() < eager.counts.dispatched());
        let results = |f: &Fingerprint| {
            (
                f.ended_at_ns,
                f.bytes_received,
                f.segments_sent,
                f.bottleneck_counters,
            )
        };
        assert_eq!(results(&eager), results(&serial), "tracing changed results");
    }
    check(clean_queue(), |_| FaultPlan::new());
    check(clean_queue(), |ids| {
        FaultPlan::new().flap(
            ids.bottleneck,
            SimTime::ZERO + SimDuration::from_millis(10),
            SimDuration::from_millis(5),
            SimDuration::from_millis(15),
            2,
        )
    });
}

/// Fires `count` same-sized packets at `peer` the moment the clock
/// starts, so two instances on symmetric links produce cross-domain
/// arrivals with *identical* timestamps.
#[derive(Debug)]
struct SyncBurst {
    peer: NodeId,
    count: u32,
}

impl Agent for SyncBurst {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.count {
            ctx.send(Packet::data(
                FlowId(u64::from(i) + 1),
                ctx.node(),
                self.peer,
                u64::from(i),
                1460,
            ));
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Context<'_>) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The mailbox tie-break case: two senders in *different* domains whose
/// packets reach the shared hub at exactly the same timestamps, window
/// after window. The injected events tie on arrival time and must drain
/// in the engine's documented order (source-shard id), which is also
/// what the serial engine does — so the digests must match exactly.
#[test]
fn equal_timestamp_cross_domain_arrivals_drain_like_serial() {
    let build = || {
        let mut b = TopologyBuilder::new();
        let rx_id = NodeId::from_index(3); // h1, h2, hub precede rx
        let h1 = b.host(
            "h1",
            Box::new(SyncBurst {
                peer: rx_id,
                count: 64,
            }),
        );
        let h2 = b.host(
            "h2",
            Box::new(SyncBurst {
                peer: rx_id,
                count: 64,
            }),
        );
        let hub = b.switch("hub");
        let rx = b.host(
            "rx",
            Box::new(SyncBurst {
                peer: rx_id,
                count: 0,
            }),
        );
        assert_eq!(rx, rx_id);
        let spec = LinkSpec::gbps(10.0, 10);
        // Identical h1→hub and h2→hub links: every packet pair arrives
        // at the hub with byte-identical timestamps.
        let sw_q = QueueConfig::switch(Capacity::Packets(256), MarkingScheme::dctcp_packets(200));
        b.link(h1, hub, spec, QueueConfig::host_nic(), sw_q)
            .unwrap();
        b.link(h2, hub, spec, QueueConfig::host_nic(), sw_q)
            .unwrap();
        let out = b
            .link(hub, rx, spec, sw_q, QueueConfig::host_nic())
            .unwrap();
        (b.build().unwrap(), hub, out)
    };
    let run = |target: usize| {
        let (net, hub, out) = build();
        let mut sim = ShardedSimulator::with_shards(net, target).unwrap();
        sim.enable_trace(TraceConfig::all());
        sim.run_for(SimDuration::from_millis(5)).unwrap();
        let counters = sim.queue_report(out, hub).counters;
        (sim.take_trace().digest(), sim.events_processed(), counters)
    };
    let serial = run(1);
    // All 128 packets funnel through the hub queue exactly once.
    assert_eq!(serial.2.enqueued, 128, "hub must see both bursts");
    for target in [2, 4] {
        assert_eq!(
            serial,
            run(target),
            "tied timestamps broke at target {target}"
        );
    }
}
