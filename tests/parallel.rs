//! Parallel-driver determinism: fanning independent simulation runs out
//! over `dt_dctcp::parallel` must produce bit-identical results to the
//! serial loop — same values, same order — regardless of thread count.
//! Each simulation owns its state and RNG streams, so the only way
//! parallelism could leak in is result (mis)ordering; these tests pin
//! that down with full-struct equality.

use dt_dctcp::core::MarkingScheme;
use dt_dctcp::parallel::par_map;
use dt_dctcp::sim::{
    Capacity, FaultPlan, FlowId, LinkSpec, QueueConfig, SimDuration, SimTime, Simulator,
    TopologyBuilder,
};
use dt_dctcp::tcp::{FlowError, ScheduledFlow, TcpConfig, TransportHost};
use dt_dctcp::trace::{oracle, TraceConfig, TraceDigest};
use dt_dctcp::workloads::{run_query_rounds_with_threads, QueryWorkload, TestbedConfig};

const MB: u64 = 1024 * 1024;

/// Sender-side outcome of one chaos run; `PartialEq` over every field
/// makes "bit-identical" a one-line assertion.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    completed: bool,
    error: Option<FlowError>,
    bytes_received: u64,
    segments_sent: u64,
    timeouts: u64,
    bottleneck_counters: dt_dctcp::sim::QueueCounters,
    events_processed: u64,
    ended_at_ns: u64,
    trace_digest: TraceDigest,
}

/// A tx — sw — rx dumbbell with seeded Gilbert-Elliott loss, seeded
/// reordering, and a seed-randomized fault plan: the same chaos recipe
/// `tests/chaos.rs` replays, run here under the parallel driver.
fn run_dumbbell_chaos(seed: u64, horizon: SimDuration) -> Fingerprint {
    let tcp = TcpConfig::dctcp(1.0 / 16.0)
        .with_rto_min(SimDuration::from_millis(10))
        .with_max_consecutive_rtos(10)
        .with_ecn_fallback(4);
    let q = QueueConfig::switch(Capacity::Packets(100), MarkingScheme::dctcp_packets(20))
        .with_gilbert_elliott(0.01, 0.2, 0.001, 0.3, seed)
        .unwrap()
        .with_reorder(3, 0.02, seed ^ 0xdead)
        .unwrap();
    let mut b = TopologyBuilder::new();
    let rx = b.host("rx", Box::new(TransportHost::new(tcp)));
    let mut host = TransportHost::new(tcp);
    host.schedule(ScheduledFlow {
        flow: FlowId(1),
        dst: rx,
        bytes: Some(MB / 2),
        at: SimTime::ZERO,
        cfg: tcp,
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
        .link(sw, rx, LinkSpec::gbps(1.0, 20), q, QueueConfig::host_nic())
        .unwrap();
    let mut sim = Simulator::new(b.build().unwrap());
    sim.enable_trace(TraceConfig::all());
    let plan = FaultPlan::randomized(seed, &[access, bottleneck], horizon);
    sim.install_faults(&plan).unwrap();
    sim.run_for(horizon).unwrap();
    let log = sim.take_trace();
    let violations = oracle::check_log(&log);
    assert!(
        violations.is_empty(),
        "seed {seed}: {} invariant violations, first: {}",
        violations.len(),
        violations[0]
    );
    let trace_digest = log.digest();

    let rx_host: &TransportHost = sim.agent(rx).unwrap();
    let bytes_received = rx_host
        .receiver(FlowId(1))
        .map_or(0, |r| r.bytes_received());
    let tx_host: &TransportHost = sim.agent(tx).unwrap();
    let s = tx_host.sender(FlowId(1)).unwrap();
    Fingerprint {
        completed: s.is_complete(),
        error: s.error(),
        bytes_received,
        segments_sent: s.stats().segments_sent,
        timeouts: s.stats().timeouts,
        bottleneck_counters: sim.queue_report(bottleneck, sw).counters,
        events_processed: sim.events_processed(),
        ended_at_ns: sim.now().as_nanos(),
        trace_digest,
    }
}

#[test]
fn multi_seed_chaos_sweep_is_bit_identical_across_thread_counts() {
    let horizon = SimDuration::from_secs(2);
    let seeds: Vec<u64> = (1..=6).collect();

    let serial: Vec<Fingerprint> = seeds
        .iter()
        .map(|&s| run_dumbbell_chaos(s, horizon))
        .collect();
    // Thread counts beyond the machine's core count still exercise the
    // claim-by-index path; determinism must not depend on parallelism
    // actually being available.
    for threads in [1, 2, 4, 8] {
        let parallel = par_map(seeds.clone(), threads, |_, s| {
            run_dumbbell_chaos(s, horizon)
        });
        assert_eq!(
            serial, parallel,
            "chaos sweep diverged from serial at {threads} threads"
        );
    }
    // The sweep must contain real work, not six identical no-op runs.
    assert!(serial.iter().any(|f| f.bytes_received > 0));
    assert!(
        serial
            .windows(2)
            .any(|w| w[0].bottleneck_counters != w[1].bottleneck_counters),
        "all seeds produced identical runs — chaos plan ignored the seed?"
    );
}

#[test]
fn query_rounds_parallel_matches_serial() {
    let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
    let workload = QueryWorkload::incast(8, 4);
    let serial = run_query_rounds_with_threads(&cfg, &workload, 1).unwrap();
    let parallel = run_query_rounds_with_threads(&cfg, &workload, 4).unwrap();
    assert_eq!(serial, parallel, "query rounds diverged from serial");
    assert_eq!(serial.rounds.len(), workload.rounds as usize);
}

#[test]
fn par_map_respects_jobs_env_override() {
    // DCTCP_JOBS steers available_threads(); par_map itself takes the
    // count explicitly, so this only checks the env plumbing once here
    // rather than in every driver.
    std::env::set_var("DCTCP_JOBS", "3");
    assert_eq!(dt_dctcp::parallel::available_threads(), 3);
    std::env::remove_var("DCTCP_JOBS");
    assert!(dt_dctcp::parallel::available_threads() >= 1);
}
