//! Chaos harness: seeded, scripted fault plans over the paper's
//! scenarios. Every run must end in one of exactly two states — the
//! transfer completed, or the flow aborted with a typed error — with
//! queue accounting conserved and the whole run replaying
//! bit-identically for the same seed.

use dt_dctcp::core::MarkingScheme;
use dt_dctcp::sim::{
    Capacity, FaultPlan, FlowId, LinkId, LinkSpec, NodeId, QueueConfig, SimDuration, SimTime,
    Simulator, TopologyBuilder,
};
use dt_dctcp::tcp::{FlowError, ScheduledFlow, TcpConfig, TransportHost};
use dt_dctcp::trace::{oracle, TraceConfig, TraceDigest, TraceLog};
use dt_dctcp::workloads::{build_testbed, LongLivedInstance, LongLivedScenario, TestbedConfig};

const MB: u64 = 1024 * 1024;

/// Every chaos run records a trace and replays it through the invariant
/// oracle: conservation, marking laws, monotonicity, CE echo, and work
/// conservation must hold under arbitrary fault schedules.
fn assert_oracle_clean(log: &TraceLog, label: &str) -> TraceDigest {
    let violations = oracle::check_log(log);
    assert!(
        violations.is_empty(),
        "{label}: {} invariant violations, first: {}",
        violations.len(),
        violations[0]
    );
    log.digest()
}

/// A dumbbell (tx — sw — rx) with the given bottleneck queue and one
/// finite flow of `bytes`, returning the handles a fault plan needs.
struct Dumbbell {
    sim: Simulator,
    tx: NodeId,
    rx: NodeId,
    sw: NodeId,
    access: LinkId,
    bottleneck: LinkId,
}

fn dumbbell(bottleneck_q: QueueConfig, tcp: TcpConfig, bytes: u64) -> Dumbbell {
    let mut b = TopologyBuilder::new();
    let rx = b.host("rx", Box::new(TransportHost::new(tcp)));
    let mut host = TransportHost::new(tcp);
    host.schedule(ScheduledFlow {
        flow: FlowId(1),
        dst: rx,
        bytes: Some(bytes),
        at: SimTime::ZERO,
        cfg: tcp,
    });
    let tx = b.host("tx", Box::new(host));
    let sw = b.switch("sw");
    // A 10:1 rate step into the bottleneck, so the switch queue is where
    // congestion actually happens.
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
    Dumbbell {
        sim: Simulator::new(b.build().unwrap()),
        tx,
        rx,
        sw,
        access,
        bottleneck,
    }
}

fn chaos_tcp() -> TcpConfig {
    TcpConfig::dctcp(1.0 / 16.0)
        .with_rto_min(SimDuration::from_millis(10))
        .with_max_consecutive_rtos(10)
        .with_ecn_fallback(4)
}

/// Queue-level packet conservation: everything that entered either left
/// or is still waiting.
fn assert_queue_conserved(c: dt_dctcp::sim::QueueCounters, waiting: u32) {
    let waiting = u64::from(waiting);
    assert_eq!(
        c.enqueued,
        c.dequeued + waiting,
        "queue accounting leak: {c:?} with {waiting} waiting"
    );
}

/// The sender-side outcome of a finite chaos run, used both for the
/// completed-or-aborted invariant and for bit-identical replay checks.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    completed: bool,
    error: Option<FlowError>,
    bytes_received: u64,
    segments_sent: u64,
    timeouts: u64,
    fast_retransmits: u64,
    bottleneck_counters: dt_dctcp::sim::QueueCounters,
    ended_at_ns: u64,
    trace_digest: TraceDigest,
}

fn run_dumbbell_chaos(seed: u64, horizon: SimDuration) -> Fingerprint {
    let q = QueueConfig::switch(Capacity::Packets(100), MarkingScheme::dctcp_packets(20))
        .with_gilbert_elliott(0.01, 0.2, 0.001, 0.3, seed)
        .unwrap()
        .with_reorder(3, 0.02, seed ^ 0xdead)
        .unwrap();
    let mut d = dumbbell(q, chaos_tcp(), MB / 2);
    d.sim.enable_trace(TraceConfig::all());
    let plan = FaultPlan::randomized(seed, &[d.access, d.bottleneck], horizon);
    d.sim.install_faults(&plan).unwrap();
    d.sim.run_for(horizon).unwrap();
    let log = d.sim.take_trace();
    let trace_digest = assert_oracle_clean(&log, &format!("chaos seed {seed}"));
    // Whatever the faults did, the run must have settled: either the
    // transfer finished or the sender gave up with a typed error.
    assert_queue_conserved(
        d.sim.queue_report(d.bottleneck, d.sw).counters,
        d.sim.queue_len_pkts(d.bottleneck, d.sw),
    );
    let rx_host: &TransportHost = d.sim.agent(d.rx).unwrap();
    let bytes_received = rx_host
        .receiver(FlowId(1))
        .map_or(0, |r| r.bytes_received());
    let tx_host: &TransportHost = d.sim.agent(d.tx).unwrap();
    let s = tx_host.sender(FlowId(1)).unwrap();
    Fingerprint {
        completed: s.is_complete(),
        error: s.error(),
        bytes_received,
        segments_sent: s.stats().segments_sent,
        timeouts: s.stats().timeouts,
        fast_retransmits: s.stats().fast_retransmits,
        bottleneck_counters: d.sim.queue_report(d.bottleneck, d.sw).counters,
        ended_at_ns: d.sim.now().as_nanos(),
        trace_digest,
    }
}

#[test]
fn star_bottleneck_flap_conserves_and_recovers() {
    let LongLivedInstance {
        mut sim,
        rx,
        bottleneck,
        switch,
        senders: _,
    } = LongLivedScenario::builder()
        .flows(4)
        .bottleneck_gbps(1.0)
        .marking(MarkingScheme::dctcp_packets(20))
        .build()
        .unwrap()
        .instantiate()
        .unwrap();

    sim.enable_trace(TraceConfig::all());
    // Two 5 ms outages of the only bottleneck, 15 ms apart.
    let plan = FaultPlan::new().flap(
        bottleneck,
        SimTime::ZERO + SimDuration::from_millis(10),
        SimDuration::from_millis(5),
        SimDuration::from_millis(15),
        2,
    );
    sim.install_faults(&plan).unwrap();

    // During the second outage (t = 29 ms) delivery is stalled...
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(29))
        .unwrap();
    assert!(!sim.link_is_up(bottleneck).unwrap());
    let mid_bytes: u64 = {
        let host: &TransportHost = sim.agent(rx).unwrap();
        host.receivers().map(|r| r.stats().bytes_received).sum()
    };

    // ...and after it the flows pick the bottleneck back up.
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(60))
        .unwrap();
    assert!(sim.link_is_up(bottleneck).unwrap());
    let end_bytes: u64 = {
        let host: &TransportHost = sim.agent(rx).unwrap();
        host.receivers().map(|r| r.stats().bytes_received).sum()
    };
    assert!(mid_bytes > 0, "nothing delivered before the outages");
    // 30 ms of healthy 1 Gb/s is ~3.75 MB; even a conservative bound
    // shows real post-recovery throughput rather than a trickle.
    assert!(
        end_bytes > mid_bytes + MB,
        "no recovery after flap: {mid_bytes} -> {end_bytes}"
    );
    assert_queue_conserved(
        sim.queue_report(bottleneck, switch).counters,
        sim.queue_len_pkts(bottleneck, switch),
    );
    let log = sim.take_trace();
    assert_oracle_clean(&log, "star flap");
    assert!(
        log.digest().count("fault") >= 4,
        "both outages (down + up each) must appear in the trace"
    );
}

#[test]
fn bursty_loss_transfer_completes() {
    let q = QueueConfig::switch(Capacity::Packets(200), MarkingScheme::dctcp_packets(20))
        .with_gilbert_elliott(0.02, 0.3, 0.0, 0.25, 7)
        .unwrap();
    let mut d = dumbbell(q, chaos_tcp(), MB);
    d.sim.enable_trace(TraceConfig::all());
    d.sim.run_for(SimDuration::from_secs(5)).unwrap();
    assert_oracle_clean(&d.sim.take_trace(), "bursty loss");
    let tx_host: &TransportHost = d.sim.agent(d.tx).unwrap();
    let s = tx_host.sender(FlowId(1)).unwrap();
    assert!(s.is_complete(), "1 MB must survive bursty loss");
    assert!(
        s.stats().fast_retransmits + s.stats().timeouts > 0,
        "bursty loss must have forced recoveries"
    );
    assert_queue_conserved(
        d.sim.queue_report(d.bottleneck, d.sw).counters,
        d.sim.queue_len_pkts(d.bottleneck, d.sw),
    );
}

#[test]
fn reordering_transfer_completes() {
    let q = QueueConfig::switch(Capacity::Packets(200), MarkingScheme::dctcp_packets(20))
        .with_reorder(3, 0.2, 21)
        .unwrap();
    let mut d = dumbbell(q, chaos_tcp(), MB);
    d.sim.enable_trace(TraceConfig::all());
    d.sim.run_for(SimDuration::from_secs(5)).unwrap();
    assert_oracle_clean(&d.sim.take_trace(), "reordering");
    let tx_host: &TransportHost = d.sim.agent(d.tx).unwrap();
    let s = tx_host.sender(FlowId(1)).unwrap();
    assert!(s.is_complete(), "1 MB must survive bounded reordering");
    assert_queue_conserved(
        d.sim.queue_report(d.bottleneck, d.sw).counters,
        d.sim.queue_len_pkts(d.bottleneck, d.sw),
    );
    let rx_host: &TransportHost = d.sim.agent(d.rx).unwrap();
    assert_eq!(
        rx_host.receiver(FlowId(1)).unwrap().bytes_received(),
        MB,
        "reassembly must deliver every byte exactly once"
    );
}

#[test]
fn permanent_outage_aborts_with_typed_error() {
    let q = QueueConfig::switch(Capacity::Packets(200), MarkingScheme::dctcp_packets(20));
    let tcp = TcpConfig::dctcp(1.0 / 16.0)
        .with_rto_min(SimDuration::from_millis(10))
        .with_max_consecutive_rtos(5);
    let mut d = dumbbell(q, tcp, MB);
    d.sim.enable_trace(TraceConfig::all());
    // The bottleneck dies 2 ms in and never comes back.
    let plan = FaultPlan::new().at(
        SimTime::ZERO + SimDuration::from_millis(2),
        d.bottleneck,
        dt_dctcp::sim::FaultAction::LinkDown,
    );
    d.sim.install_faults(&plan).unwrap();
    d.sim.run_for(SimDuration::from_secs(30)).unwrap();
    let log = d.sim.take_trace();
    assert_oracle_clean(&log, "permanent outage");
    assert!(
        log.digest().count("rto_fired") >= 5,
        "the outage must show up as repeated RTOs in the trace"
    );
    assert_eq!(log.digest().count("flow_aborted"), 1);

    let tx_host: &TransportHost = d.sim.agent(d.tx).unwrap();
    let s = tx_host.sender(FlowId(1)).unwrap();
    assert!(!s.is_complete());
    assert_eq!(
        s.error(),
        Some(FlowError::TooManyRtos {
            flow: FlowId(1),
            consecutive: 5
        })
    );
    assert_eq!(tx_host.flow_errors().len(), 1);
    // The aborted flow left no timers behind: the simulation drained
    // instead of spinning RTO events until the horizon.
    assert!(!d.sim.has_pending_events());
}

#[test]
fn bleached_testbed_incast_falls_back_and_completes() {
    let mut cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
    cfg.tcp = TcpConfig::dctcp(1.0 / 16.0)
        .with_rto_min(SimDuration::from_millis(10))
        .with_ecn_fallback(2);
    let flow_bytes: u64 = 256 * 1024;
    let client_node = NodeId::from_index(0); // client is added first
    let flows: Vec<ScheduledFlow> = (0..8)
        .map(|i| ScheduledFlow {
            flow: FlowId(i + 1),
            dst: client_node,
            bytes: Some(flow_bytes),
            at: SimTime::ZERO + SimDuration::from_micros(10 * i),
            cfg: cfg.tcp,
        })
        .collect();
    let mut tb = build_testbed(&cfg, &flows).unwrap();
    assert_eq!(tb.client, client_node);
    // A broken middlebox bleaches the bottleneck for the whole run.
    let plan = FaultPlan::new().bleach_window(
        tb.bottleneck,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_secs(30),
    );
    tb.sim.enable_trace(TraceConfig::all());
    tb.sim.install_faults(&plan).unwrap();
    tb.sim.run_for(SimDuration::from_secs(10)).unwrap();
    assert_oracle_clean(&tb.sim.take_trace(), "bleached incast");

    let client: &TransportHost = tb.sim.agent(tb.client).unwrap();
    for i in 0..8u64 {
        let r = client.receiver(FlowId(i + 1)).expect("flow reached client");
        assert_eq!(
            r.bytes_received(),
            flow_bytes,
            "flow {} incomplete through bleached bottleneck",
            i + 1
        );
    }
    // At least one sender must have detected the bleaching and dropped
    // back to loss-based congestion control.
    let mut fell_back = 0;
    for &w in &tb.workers {
        let host: &TransportHost = tb.sim.agent(w).unwrap();
        fell_back += host.senders().filter(|s| !s.ecn_active()).count();
    }
    assert!(
        fell_back > 0,
        "no sender disabled ECN under total bleaching"
    );
    let report = tb.sim.queue_report(tb.bottleneck, tb.switch1);
    assert!(report.counters.bleached > 0, "bleach fault never fired");
}

#[test]
fn randomized_chaos_replays_bit_identically() {
    let horizon = SimDuration::from_secs(8);
    let mut completions = 0;
    for seed in 1..=5u64 {
        let a = run_dumbbell_chaos(seed, horizon);
        let b = run_dumbbell_chaos(seed, horizon);
        assert_eq!(a, b, "seed {seed} did not replay identically");
        // Terminal-state invariant: finished, typed abort, or the
        // horizon cut the run mid-recovery (never a silent wedge with
        // zero progress).
        assert!(
            a.completed || a.error.is_some() || a.bytes_received > 0,
            "seed {seed} made no progress and raised no error: {a:?}"
        );
        if a.completed {
            completions += 1;
            assert_eq!(a.bytes_received, MB / 2);
        }
    }
    assert!(
        completions >= 2,
        "chaos too harsh: only {completions}/5 seeds completed"
    );
}
