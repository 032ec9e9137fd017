//! Targeted fault-recovery tests: one fault at a time, with the
//! expected recovery mechanism asserted explicitly (the chaos harness in
//! `chaos.rs` covers composed faults).

use dt_dctcp::core::MarkingScheme;
use dt_dctcp::sim::{
    Capacity, FaultPlan, FlowId, LinkId, LinkSpec, NodeId, QueueConfig, QueueCounters, SimDuration,
    SimTime, Simulator, TopologyBuilder,
};
use dt_dctcp::tcp::{ScheduledFlow, TcpConfig, TransportHost};
use dt_dctcp::trace::{oracle, TraceConfig, TraceLog};

/// Replays a recorded fault-run trace through the invariant oracle.
fn assert_oracle_clean(log: &TraceLog, label: &str) {
    let violations = oracle::check_log(log);
    assert!(
        violations.is_empty(),
        "{label}: {} invariant violations, first: {}",
        violations.len(),
        violations[0]
    );
}

/// One finite flow from `tx` through switch `sw` to `rx`; returns the
/// simulator with `(tx, rx, sw, bottleneck)`.
fn one_flow_sim(
    tcp: TcpConfig,
    bytes: u64,
    buffer_pkts: u32,
) -> (Simulator, NodeId, NodeId, NodeId, LinkId) {
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
    // 10 Gb/s access into a 1 Gb/s bottleneck: the switch queue is where
    // marking, bleaching and overflow happen.
    b.link(
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
            QueueConfig::switch(
                Capacity::Packets(buffer_pkts),
                MarkingScheme::dctcp_packets(20),
            ),
            QueueConfig::host_nic(),
        )
        .unwrap();
    (Simulator::new(b.build().unwrap()), tx, rx, sw, bottleneck)
}

fn completion_secs(sim: &Simulator, tx: NodeId) -> Option<f64> {
    let host: &TransportHost = sim.agent(tx).unwrap();
    host.sender(FlowId(1)).unwrap().stats().completion_time()
}

#[test]
fn transfer_recovers_from_a_link_flap() {
    let tcp = TcpConfig::dctcp(1.0 / 16.0).with_rto_min(SimDuration::from_millis(10));
    let bytes = 2 * 1024 * 1024;

    let (mut clean, clean_tx, _, _, _) = one_flow_sim(tcp, bytes, 200);
    clean.run_for(SimDuration::from_secs(5)).unwrap();
    let clean_ct = completion_secs(&clean, clean_tx).expect("clean run completes");

    let (mut faulty, tx, _, _, bottleneck) = one_flow_sim(tcp, bytes, 200);
    faulty.enable_trace(TraceConfig::all());
    // A 50 ms outage right in the middle of the transfer.
    let plan = FaultPlan::new().flap(
        bottleneck,
        SimTime::ZERO + SimDuration::from_millis(5),
        SimDuration::from_millis(50),
        SimDuration::from_secs(1),
        1,
    );
    faulty.install_faults(&plan).unwrap();
    faulty.run_for(SimDuration::from_secs(5)).unwrap();
    let log = faulty.take_trace();
    assert_oracle_clean(&log, "link flap");
    assert_eq!(log.digest().count("fault"), 2, "one down + one up");
    let faulty_ct = completion_secs(&faulty, tx).expect("transfer must survive the flap");

    // The flap costs at least the outage length (plus RTO recovery),
    // but the connection must come back instead of stalling forever.
    assert!(
        faulty_ct > clean_ct + 0.045,
        "flap too cheap: {clean_ct}s clean vs {faulty_ct}s flapped"
    );
    assert!(
        faulty_ct < clean_ct + 1.0,
        "recovery too slow after a 50 ms outage: {faulty_ct}s"
    );
    let host: &TransportHost = faulty.agent(tx).unwrap();
    assert!(
        host.sender(FlowId(1)).unwrap().stats().timeouts > 0,
        "a mid-transfer outage must cost at least one RTO"
    );
}

#[test]
fn ecn_bleach_fallback_keeps_the_flow_alive() {
    let tcp = TcpConfig::dctcp(1.0 / 16.0)
        .with_rto_min(SimDuration::from_millis(10))
        .with_ecn_fallback(2);
    let (mut sim, tx, rx, _, bottleneck) = one_flow_sim(tcp, 4 * 1024 * 1024, 40);
    sim.enable_trace(TraceConfig::all());
    // Bleach the bottleneck for the entire run: DCTCP's congestion
    // signal is gone, so the sender must detect it and degrade to
    // loss-based control rather than blast an unmanaged queue forever.
    let plan = FaultPlan::new().bleach_window(
        bottleneck,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_secs(60),
    );
    sim.install_faults(&plan).unwrap();
    sim.run_for(SimDuration::from_secs(10)).unwrap();
    assert_oracle_clean(&sim.take_trace(), "full bleach");

    let host: &TransportHost = sim.agent(tx).unwrap();
    let s = host.sender(FlowId(1)).unwrap();
    assert!(s.is_complete(), "4 MB must complete on a bleached path");
    assert!(!s.ecn_active(), "sender never detected the bleached path");
    assert!(
        s.stats().ecn_cuts == 0,
        "no ECE can arrive through a fully bleached bottleneck"
    );
    let rx_host: &TransportHost = sim.agent(rx).unwrap();
    assert_eq!(
        rx_host.receiver(FlowId(1)).unwrap().bytes_received(),
        4 * 1024 * 1024
    );
}

#[test]
fn bleach_window_end_restores_ecn_marking() {
    // Bleach only the first 5 ms; after the window closes, marks flow
    // again and DCTCP resumes ECN cuts (no fallback configured).
    let tcp = TcpConfig::dctcp(1.0 / 16.0).with_rto_min(SimDuration::from_millis(10));
    let (mut sim, tx, _, _, bottleneck) = one_flow_sim(tcp, 8 * 1024 * 1024, 200);
    sim.enable_trace(TraceConfig::all());
    let plan = FaultPlan::new().bleach_window(
        bottleneck,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_millis(5),
    );
    sim.install_faults(&plan).unwrap();
    sim.run_for(SimDuration::from_secs(10)).unwrap();
    assert_oracle_clean(&sim.take_trace(), "bleach window");

    let host: &TransportHost = sim.agent(tx).unwrap();
    let s = host.sender(FlowId(1)).unwrap();
    assert!(s.is_complete());
    assert!(s.ecn_active(), "no fallback configured, ECN must stay on");
    assert!(
        s.stats().ecn_cuts > 0,
        "marking must resume once the bleach window closes"
    );
}

/// What a run delivered, apart from how many events it took.
#[derive(Debug, PartialEq)]
struct Outcome {
    ended_at_ns: u64,
    bytes_received: u64,
    segments_sent: u64,
    bottleneck: QueueCounters,
}

/// Untraced, the engine schedules a transmit completion only when a
/// backlog waits on it; traced, it schedules every one, because the log
/// records each `TxComplete`. With and without a link flap, the elided
/// completions are exactly the difference, the untraced run dispatches
/// fewer events, and tracing changes nothing else about the run: the
/// transfer completes either way, and both outages reach the trace.
#[test]
fn untraced_runs_elide_completions_without_changing_results() {
    let tcp = TcpConfig::dctcp(1.0 / 16.0)
        .with_rto_min(SimDuration::from_millis(10))
        .with_max_consecutive_rtos(10);
    let run = |traced: bool, flap: bool| {
        let (mut sim, tx, rx, sw, bottleneck) = one_flow_sim(tcp, 512 * 1024, 100);
        if traced {
            sim.enable_trace(TraceConfig::all());
        }
        if flap {
            let plan = FaultPlan::new().flap(
                bottleneck,
                SimTime::ZERO + SimDuration::from_millis(10),
                SimDuration::from_millis(5),
                SimDuration::from_millis(15),
                2,
            );
            sim.install_faults(&plan).unwrap();
        }
        sim.run_for(SimDuration::from_secs(6)).unwrap();
        let log = sim.take_trace();
        assert_oracle_clean(&log, &format!("traced {traced}, flap {flap}"));
        if traced {
            let faults = if flap { 4 } else { 0 };
            assert_eq!(log.digest().count("fault"), faults, "down + up per outage");
        }
        let rx_host: &TransportHost = sim.agent(rx).unwrap();
        let tx_host: &TransportHost = sim.agent(tx).unwrap();
        let outcome = Outcome {
            ended_at_ns: sim.now().as_nanos(),
            bytes_received: rx_host.receiver(FlowId(1)).unwrap().bytes_received(),
            segments_sent: tx_host.sender(FlowId(1)).unwrap().stats().segments_sent,
            bottleneck: sim.queue_report(bottleneck, sw).counters,
        };
        (sim.event_counts(), outcome)
    };
    for flap in [false, true] {
        let (lazy, lazy_outcome) = run(false, flap);
        let (eager, eager_outcome) = run(true, flap);
        assert!(lazy.tx_elided > 0 && lazy.tx_completions > 0, "{lazy:?}");
        assert_eq!(eager.tx_elided, 0);
        assert_eq!(eager.tx_completions, lazy.tx_completions + lazy.tx_elided);
        assert!(lazy.dispatched() < eager.dispatched());
        assert_eq!(
            lazy_outcome.bytes_received,
            512 * 1024,
            "flow must complete"
        );
        assert_eq!(
            lazy_outcome, eager_outcome,
            "tracing changed results (flap {flap})"
        );
    }
}
