//! The paper's testbed (Fig. 13) and its query workloads: Incast
//! (Fig. 14) and partition-aggregate completion time (Fig. 15).
//!
//! Topology: Switch 1 connects one aggregator (client) host and three
//! leaf switches; each leaf switch connects three worker hosts. All
//! links run at 1 Gb/s. The marking scheme under test runs on Switch 1's
//! port toward the client (buffer 128 KB); every other switch port is
//! DropTail with 512 KB, placing the bottleneck exactly where the paper
//! does.

use dctcp_core::MarkingScheme;
use dctcp_rng::Pcg32;
use dctcp_sim::{
    Capacity, FlowId, LinkId, LinkSpec, NodeId, QueueConfig, SimDuration, SimError, SimTime,
    Simulator, TopologyBuilder,
};
use dctcp_stats::Quantiles;
use dctcp_tcp::{ScheduledFlow, TcpConfig, TransportHost};

/// Number of worker hosts in the Fig. 13 testbed.
pub const TESTBED_WORKERS: usize = 9;

/// Static configuration of the testbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestbedConfig {
    /// Marking scheme on the bottleneck port (Switch 1 → client).
    pub marking: MarkingScheme,
    /// Transport configuration for every host.
    pub tcp: TcpConfig,
    /// Bottleneck buffer (the paper: 128 KB).
    pub bottleneck_buffer: Capacity,
    /// Buffers of all other switch ports (the paper: 512 KB DropTail).
    pub other_buffer: Capacity,
    /// Link rate in Gb/s (the paper: 1).
    pub link_gbps: f64,
    /// One-way propagation delay per link in microseconds (25 µs gives
    /// the paper's ≈ 100 µs same-switch RTT).
    pub link_delay_us: u64,
}

impl TestbedConfig {
    /// The paper's testbed with the given bottleneck marking scheme:
    /// 1 Gb/s links, 128 KB bottleneck buffer, 512 KB elsewhere, DCTCP
    /// transport (`g = 1/16`).
    pub fn paper(marking: MarkingScheme) -> Self {
        TestbedConfig {
            marking,
            tcp: TcpConfig::dctcp(1.0 / 16.0),
            bottleneck_buffer: Capacity::Bytes(128 * 1024),
            other_buffer: Capacity::Bytes(512 * 1024),
            link_gbps: 1.0,
            link_delay_us: 25,
        }
    }
}

/// How response flows begin in a query workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Workers start their responses at scheduled times (jittered);
    /// no query packets cross the network.
    Scheduled,
    /// The aggregator transmits real query (`Control`) packets at the
    /// jittered instants and each worker responds when its query
    /// arrives — the paper's "aggregator generates one query from each
    /// worker" semantics, including query propagation time.
    QueryPackets,
}

/// A query-style workload: the aggregator requests data from `flows`
/// responders, each sending `bytes_per_flow`, all starting (nearly)
/// simultaneously.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryWorkload {
    /// Number of synchronized response flows.
    pub flows: u32,
    /// Bytes each responder sends.
    pub bytes_per_flow: u64,
    /// Uniform start jitter applied per flow (models query fan-out
    /// skew).
    pub jitter: SimDuration,
    /// Independent repetitions.
    pub rounds: u32,
    /// Base RNG seed; round `i` uses `seed + i`.
    pub seed: u64,
    /// Give-up horizon per round.
    pub round_timeout: SimDuration,
    /// How responses are triggered.
    pub mode: QueryMode,
}

impl QueryWorkload {
    /// The paper's Incast experiment: `n` workers each answering with
    /// 64 KB.
    pub fn incast(n: u32, rounds: u32) -> Self {
        QueryWorkload {
            flows: n,
            bytes_per_flow: 64 * 1024,
            jitter: SimDuration::from_micros(100),
            rounds,
            seed: 1,
            round_timeout: SimDuration::from_secs(5),
            mode: QueryMode::Scheduled,
        }
    }

    /// The paper's completion-time experiment: 1 MB split evenly over
    /// `n` workers.
    pub fn partition_aggregate(n: u32, rounds: u32) -> Self {
        QueryWorkload {
            flows: n,
            bytes_per_flow: (1024 * 1024) / n as u64,
            jitter: SimDuration::from_micros(100),
            rounds,
            seed: 1,
            round_timeout: SimDuration::from_secs(5),
            mode: QueryMode::Scheduled,
        }
    }

    /// Switches the workload to real query packets
    /// ([`QueryMode::QueryPackets`]).
    pub fn with_query_packets(mut self) -> Self {
        self.mode = QueryMode::QueryPackets;
        self
    }
}

/// Outcome of one query round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRound {
    /// Time from query start until the last byte arrived (seconds);
    /// `None` if the round hit the timeout horizon.
    pub completion: Option<f64>,
    /// Application goodput over the round, bits/second (0 when
    /// incomplete).
    pub goodput_bps: f64,
    /// Sender retransmission timeouts during the round.
    pub timeouts: u64,
    /// Packets dropped at the bottleneck.
    pub drops: u64,
}

/// Aggregate of all rounds of a query workload.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// The workload that was run.
    pub workload: QueryWorkload,
    /// Marking scheme under test.
    pub scheme: MarkingScheme,
    /// Per-round outcomes.
    pub rounds: Vec<QueryRound>,
}

impl QueryReport {
    /// Mean goodput across completed rounds (bits/second); incomplete
    /// rounds count as zero goodput, as a collapsed Incast round does.
    pub fn mean_goodput_bps(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.goodput_bps).sum::<f64>() / self.rounds.len() as f64
    }

    /// Completion-time quantile helper over completed rounds.
    pub fn completions(&self) -> Quantiles {
        self.rounds.iter().filter_map(|r| r.completion).collect()
    }

    /// Fraction of rounds that suffered at least one retransmission
    /// timeout.
    pub fn timeout_fraction(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().filter(|r| r.timeouts > 0).count() as f64 / self.rounds.len() as f64
    }
}

/// Handles to the built testbed.
#[derive(Debug)]
pub struct Testbed {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// The aggregator host.
    pub client: NodeId,
    /// Worker hosts (nine of them).
    pub workers: Vec<NodeId>,
    /// The bottleneck link (Switch 1 → client).
    pub bottleneck: LinkId,
    /// Switch 1 (the transmitting end of the bottleneck).
    pub switch1: NodeId,
}

/// Builds the Fig. 13 testbed with the given response flows scheduled on
/// the workers (round-robin assignment, flow `i` on worker `i % 9`).
///
/// # Errors
///
/// Returns [`SimError`] for invalid marking/TCP parameters.
pub fn build_testbed(cfg: &TestbedConfig, flows: &[ScheduledFlow]) -> Result<Testbed, SimError> {
    cfg.tcp.validate()?;
    let spec = LinkSpec::gbps(cfg.link_gbps, cfg.link_delay_us);
    let mut b = TopologyBuilder::new();

    let client = b.host("client", Box::new(TransportHost::new(cfg.tcp)));
    let sw1 = b.switch("sw1");

    // Worker transport hosts with their round-robin share of the flows.
    let mut worker_hosts: Vec<TransportHost> = (0..TESTBED_WORKERS)
        .map(|_| TransportHost::new(cfg.tcp))
        .collect();
    for (i, f) in flows.iter().enumerate() {
        worker_hosts[i % TESTBED_WORKERS].schedule(*f);
    }

    let droptail = QueueConfig::switch(cfg.other_buffer, MarkingScheme::DropTail);
    let mut workers = Vec::with_capacity(TESTBED_WORKERS);
    let mut hosts_iter = worker_hosts.into_iter();
    for leaf in 0..3 {
        let sw = b.switch(format!("sw{}", leaf + 2));
        b.link(sw, sw1, spec, droptail, droptail)?;
        for w in 0..3 {
            let host = hosts_iter.next().expect("nine worker hosts");
            let h = b.host(format!("w{}", leaf * 3 + w), Box::new(host));
            b.link(h, sw, spec, QueueConfig::host_nic(), droptail)?;
            workers.push(h);
        }
    }

    let bottleneck_q = QueueConfig::switch(cfg.bottleneck_buffer, cfg.marking);
    let bottleneck = b.link(sw1, client, spec, bottleneck_q, QueueConfig::host_nic())?;

    Ok(Testbed {
        sim: Simulator::new(b.build()?),
        client,
        workers,
        bottleneck,
        switch1: sw1,
    })
}

/// Runs every round of a query workload on a fresh testbed and collects
/// the report.
///
/// # Errors
///
/// Returns [`SimError`] if the testbed cannot be built.
pub fn run_query_rounds(
    cfg: &TestbedConfig,
    workload: &QueryWorkload,
) -> Result<QueryReport, SimError> {
    run_query_rounds_with_threads(cfg, workload, dctcp_parallel::available_threads())
}

/// [`run_query_rounds`] with an explicit worker-thread count. Rounds are
/// independent deterministic simulations (each seeds its own RNG from
/// `seed + round`) assembled in round order, so the report is
/// bit-identical for any `threads` value.
///
/// # Errors
///
/// Returns [`SimError`] if the testbed cannot be built; with several
/// failing rounds, the lowest-numbered round's error is reported, as in
/// serial execution.
pub fn run_query_rounds_with_threads(
    cfg: &TestbedConfig,
    workload: &QueryWorkload,
    threads: usize,
) -> Result<QueryReport, SimError> {
    let rounds = dctcp_parallel::par_map((0..workload.rounds).collect(), threads, |_idx, round| {
        run_one_round(cfg, workload, round)
    })
    .into_iter()
    .collect::<Result<Vec<QueryRound>, SimError>>()?;
    Ok(QueryReport {
        workload: *workload,
        scheme: cfg.marking,
        rounds,
    })
}

fn run_one_round(
    cfg: &TestbedConfig,
    workload: &QueryWorkload,
    round: u32,
) -> Result<QueryRound, SimError> {
    let mut rng = Pcg32::seed_from_u64(workload.seed.wrapping_add(round as u64));
    let client_node = NodeId::from_index(0); // client is added first
    let mut jittered = |i: u32| -> SimTime {
        let jitter_ns = if workload.jitter.is_zero() {
            0
        } else {
            rng.range_u64(0, workload.jitter.as_nanos())
        };
        let _ = i;
        SimTime::ZERO + SimDuration::from_nanos(jitter_ns)
    };

    let mut tb = match workload.mode {
        QueryMode::Scheduled => {
            let flows: Vec<ScheduledFlow> = (0..workload.flows)
                .map(|i| ScheduledFlow {
                    flow: FlowId(i as u64 + 1),
                    dst: client_node,
                    bytes: Some(workload.bytes_per_flow),
                    at: jittered(i),
                    cfg: cfg.tcp,
                })
                .collect();
            build_testbed(cfg, &flows)?
        }
        QueryMode::QueryPackets => {
            let mut tb = build_testbed(cfg, &[])?;
            // Workers answer queries; the aggregator emits them at the
            // jittered instants.
            for &w in &tb.workers {
                let host: &mut TransportHost = tb.sim.agent_mut(w).expect("worker transport host");
                host.respond_to_queries(workload.bytes_per_flow);
            }
            let queries: Vec<(FlowId, NodeId, SimTime)> = (0..workload.flows)
                .map(|i| {
                    (
                        FlowId(i as u64 + 1),
                        tb.workers[i as usize % TESTBED_WORKERS],
                        jittered(i),
                    )
                })
                .collect();
            let client: &mut TransportHost =
                tb.sim.agent_mut(tb.client).expect("client transport host");
            for (flow, dst, at) in queries {
                client.schedule_query(flow, dst, at);
            }
            tb
        }
    };
    debug_assert_eq!(tb.client, client_node);

    let step = SimDuration::from_micros(500);
    let deadline = SimTime::ZERO + workload.round_timeout;
    let mut completion: Option<f64> = None;
    while tb.sim.now() < deadline {
        let next = (tb.sim.now() + step).min(deadline);
        tb.sim.run_until(next)?;
        let host: &TransportHost = tb.sim.agent(tb.client).expect("client host");
        let mut done = 0u32;
        let mut last = SimTime::ZERO;
        for i in 0..workload.flows {
            if let Some(r) = host.receiver(FlowId(i as u64 + 1)) {
                if r.bytes_received() >= workload.bytes_per_flow {
                    done += 1;
                    if let Some(t) = r.stats().last_arrival {
                        last = last.max(t);
                    }
                }
            }
        }
        if done == workload.flows {
            completion = Some(last.as_secs_f64());
            break;
        }
        if !tb.sim.has_pending_events() {
            break; // deadlocked round (all senders gave up) — treat as timeout
        }
    }

    let mut timeouts = 0;
    for &w in &tb.workers {
        let host: &TransportHost = tb.sim.agent(w).expect("worker host");
        timeouts += host.senders().map(|s| s.stats().timeouts).sum::<u64>();
    }
    let drops = tb
        .sim
        .queue_report(tb.bottleneck, tb.switch1)
        .counters
        .dropped();
    let total_bytes = workload.flows as u64 * workload.bytes_per_flow;
    let goodput_bps = match completion {
        Some(t) if t > 0.0 => total_bytes as f64 * 8.0 / t,
        _ => 0.0,
    };
    Ok(QueryRound {
        completion,
        goodput_bps,
        timeouts,
        drops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_has_paper_shape() {
        let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
        let tb = build_testbed(&cfg, &[]).unwrap();
        assert_eq!(tb.workers.len(), TESTBED_WORKERS);
    }

    #[test]
    fn small_incast_completes_quickly() {
        let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
        let wl = QueryWorkload::incast(4, 3);
        let report = run_query_rounds(&cfg, &wl).unwrap();
        assert_eq!(report.rounds.len(), 3);
        for r in &report.rounds {
            let c = r.completion.expect("small incast must finish");
            // 4 * 64 KB at 1 Gb/s is ~2.1 ms plus slow start; allow 30 ms.
            assert!(c < 0.03, "completion {c}s too slow");
            assert!(r.goodput_bps > 5e7);
        }
        assert_eq!(report.timeout_fraction(), 0.0);
    }

    #[test]
    fn partition_aggregate_minimum_is_link_limited() {
        // 1 MB at 1 Gb/s takes >= 8.4 ms no matter how many workers.
        let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
        let wl = QueryWorkload::partition_aggregate(8, 2);
        let report = run_query_rounds(&cfg, &wl).unwrap();
        for r in &report.rounds {
            let c = r.completion.expect("must finish");
            assert!(c >= 0.008, "faster than line rate: {c}");
            assert!(c < 0.05, "too slow: {c}");
        }
    }

    #[test]
    fn massive_incast_shows_impairment() {
        // Far past the collapse point the bottleneck must drop and some
        // flows must stall on RTOs.
        let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
        let mut wl = QueryWorkload::incast(80, 1);
        wl.round_timeout = SimDuration::from_secs(8);
        let report = run_query_rounds(&cfg, &wl).unwrap();
        let r = &report.rounds[0];
        assert!(r.drops > 0, "no drops under 80-flow incast");
        assert!(r.timeouts > 0, "no RTOs under 80-flow incast");
    }

    #[test]
    fn query_packet_mode_completes_like_scheduled() {
        let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
        let wl = QueryWorkload::incast(4, 2).with_query_packets();
        let report = run_query_rounds(&cfg, &wl).unwrap();
        for r in &report.rounds {
            let c = r.completion.expect("query-driven incast must finish");
            // Query propagation adds ~100-200 us to the scheduled mode.
            assert!(c < 0.035, "completion {c}s too slow");
        }
    }

    #[test]
    fn query_packet_mode_includes_query_latency() {
        let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
        let mut scheduled = QueryWorkload::incast(2, 1);
        scheduled.jitter = dctcp_sim::SimDuration::ZERO;
        let queried = scheduled.with_query_packets();
        let a = run_query_rounds(&cfg, &scheduled).unwrap().rounds[0];
        let b = run_query_rounds(&cfg, &queried).unwrap().rounds[0];
        let (ca, cb) = (a.completion.unwrap(), b.completion.unwrap());
        assert!(
            cb > ca,
            "query mode must pay the query's one-way latency: {ca} vs {cb}"
        );
    }

    #[test]
    fn rounds_vary_with_seed_but_reproduce() {
        let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
        let wl = QueryWorkload::incast(4, 2);
        let a = run_query_rounds(&cfg, &wl).unwrap();
        let b = run_query_rounds(&cfg, &wl).unwrap();
        assert_eq!(a.rounds, b.rounds, "same seed, same outcome");
    }
}
