//! Collective-communication workloads on a fat-tree fabric: ring and
//! tree allreduce, permutation traffic, and many-to-one incast, driven
//! as bulk-synchronous phases over a k-ary Clos built by
//! [`FatTree`](dctcp_sim::FatTree).
//!
//! Phases are scheduled, not reactive: every step `s` starts its flows
//! at `s · phase_gap`, a pure function of the configuration. That keeps
//! the workload bit-identical across thread counts (flow start times
//! never depend on simulated completion), while congested steps still
//! overlap realistically when a phase overruns its gap.

use dctcp_core::MarkingScheme;
use dctcp_rng::Pcg32;
use dctcp_sim::{
    Capacity, FatTree, FlowId, LinkSpec, NodeId, QueueConfig, SimDuration, SimError, SimTime,
    Simulator, TierSpec,
};
use dctcp_stats::TimeWeightedSummary;
use dctcp_tcp::{ScheduledFlow, TcpConfig, TransportHost};

/// One point-to-point transfer inside a collective step:
/// `(source host index, destination host index, bytes)`.
pub type Transfer = (u32, u32, u64);

/// The communication patterns the collective driver can generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectivePattern {
    /// Ring allreduce: `2(P-1)` steps; in each, every participant sends
    /// one chunk to its ring successor `(i+1) mod P`.
    RingAllreduce,
    /// Binary-tree allreduce: `ceil(log2 P)` reduce-up steps followed by
    /// the mirrored broadcast-down steps.
    TreeAllreduce,
    /// One seeded random cyclic permutation: every participant sends to
    /// a distinct peer, nobody to itself.
    Permutation,
    /// Many-to-one gather: participants `1..P` all send to participant
    /// 0 simultaneously.
    Incast,
}

impl CollectivePattern {
    /// The scenario-file token for this pattern.
    pub fn name(self) -> &'static str {
        match self {
            CollectivePattern::RingAllreduce => "ring_allreduce",
            CollectivePattern::TreeAllreduce => "tree_allreduce",
            CollectivePattern::Permutation => "permutation",
            CollectivePattern::Incast => "incast",
        }
    }

    /// Parses a scenario-file token.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "ring_allreduce" => Some(CollectivePattern::RingAllreduce),
            "tree_allreduce" => Some(CollectivePattern::TreeAllreduce),
            "permutation" => Some(CollectivePattern::Permutation),
            "incast" => Some(CollectivePattern::Incast),
            _ => None,
        }
    }

    /// Expands the pattern into bulk-synchronous steps of point-to-point
    /// transfers among `participants` hosts. `bytes` is the per-rank
    /// payload; `chunk` (0 = automatic) overrides the per-transfer
    /// message size for the allreduce patterns; `seed` drives the
    /// permutation draw.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for fewer than two
    /// participants or a zero-byte payload.
    pub fn transfers(
        self,
        participants: u32,
        bytes: u64,
        chunk: u64,
        seed: u64,
    ) -> Result<Vec<Vec<Transfer>>, SimError> {
        let p = participants;
        if p < 2 {
            return Err(SimError::InvalidConfig(format!(
                "collective needs at least 2 participants, got {p}"
            )));
        }
        if bytes == 0 {
            return Err(SimError::InvalidConfig(
                "collective payload must be non-zero".into(),
            ));
        }
        Ok(match self {
            CollectivePattern::RingAllreduce => {
                let msg = if chunk > 0 {
                    chunk
                } else {
                    bytes.div_ceil(u64::from(p))
                };
                (0..2 * (p - 1))
                    .map(|_| (0..p).map(|i| (i, (i + 1) % p, msg)).collect())
                    .collect()
            }
            CollectivePattern::TreeAllreduce => {
                let msg = if chunk > 0 { chunk } else { bytes };
                let levels = 32 - (p - 1).leading_zeros();
                let mut steps: Vec<Vec<Transfer>> = Vec::new();
                for l in 0..levels {
                    let span = 1u32 << l;
                    let group = span << 1;
                    let step: Vec<Transfer> = (0..p)
                        .filter(|i| i % group == span)
                        .map(|i| (i, i - span, msg))
                        .collect();
                    if !step.is_empty() {
                        steps.push(step);
                    }
                }
                for l in (0..levels).rev() {
                    let span = 1u32 << l;
                    let group = span << 1;
                    let step: Vec<Transfer> = (0..p)
                        .filter(|i| i % group == 0 && i + span < p)
                        .map(|i| (i, i + span, msg))
                        .collect();
                    if !step.is_empty() {
                        steps.push(step);
                    }
                }
                steps
            }
            CollectivePattern::Permutation => {
                // A random cyclic permutation is a derangement for
                // P >= 2: everyone sends, nobody to itself.
                let mut order: Vec<u32> = (0..p).collect();
                let mut rng = Pcg32::seed_from_u64(seed);
                rng.shuffle(&mut order);
                let mut dst = vec![0u32; p as usize];
                for j in 0..p as usize {
                    dst[order[j] as usize] = order[(j + 1) % p as usize];
                }
                vec![(0..p).map(|i| (i, dst[i as usize], bytes)).collect()]
            }
            CollectivePattern::Incast => vec![(1..p).map(|i| (i, 0, bytes)).collect()],
        })
    }
}

/// A collective workload on a fat-tree: topology tiers, transport
/// configuration and the communication pattern, validated by
/// [`run_collective`].
#[derive(Debug, Clone)]
pub struct CollectiveConfig {
    /// Fat-tree arity (even, 4..=16).
    pub k: u32,
    /// Hosts under each edge switch.
    pub hosts_per_edge: u32,
    /// Communication pattern.
    pub pattern: CollectivePattern,
    /// Participating hosts (the first `participants` host indices).
    pub participants: u32,
    /// Per-rank payload in bytes.
    pub bytes_per_flow: u64,
    /// Per-transfer message size override for allreduce (0 = automatic:
    /// ring sends `bytes/P`, tree sends the full payload).
    pub chunk: u64,
    /// Gap between consecutive step starts.
    pub phase_gap: SimDuration,
    /// Simulated-time budget; an unfinished collective reports no
    /// completion instead of running forever.
    pub horizon: SimDuration,
    /// Seed for the permutation draw.
    pub seed: u64,
    /// Marking scheme at every switch queue.
    pub marking: MarkingScheme,
    /// Transport configuration for every host.
    pub tcp: TcpConfig,
    /// Host↔edge link rate, Gb/s.
    pub host_gbps: f64,
    /// Edge↔aggregation link rate, Gb/s.
    pub agg_gbps: f64,
    /// Aggregation↔core link rate, Gb/s.
    pub core_gbps: f64,
    /// Host-tier one-way propagation delay in microseconds; the
    /// aggregation tier uses 2× and the core tier 4×.
    pub delay_us: u64,
    /// Switch queue capacity (every tier).
    pub buffer: Capacity,
    /// Seed baked into the ECMP hash of the routing tables.
    pub ecmp_seed: u64,
}

impl CollectiveConfig {
    /// A small k=4 fabric at 1 Gb/s with DCTCP marking — the unit-test
    /// and benchmark baseline.
    pub fn small(pattern: CollectivePattern, participants: u32) -> Self {
        CollectiveConfig {
            k: 4,
            hosts_per_edge: 2,
            pattern,
            participants,
            bytes_per_flow: 64 * 1024,
            chunk: 0,
            phase_gap: SimDuration::from_millis(1),
            horizon: SimDuration::from_millis(400),
            seed: 1,
            marking: MarkingScheme::dctcp_packets(20),
            tcp: TcpConfig::dctcp(1.0 / 16.0),
            host_gbps: 1.0,
            agg_gbps: 1.0,
            core_gbps: 1.0,
            delay_us: 5,
            buffer: Capacity::Packets(100),
            ecmp_seed: 1,
        }
    }

    /// The fat-tree this workload runs on.
    fn fat_tree(&self) -> FatTree {
        let q = QueueConfig::switch(self.buffer, self.marking);
        FatTree::new(self.k, self.hosts_per_edge)
            .with_tiers(
                TierSpec::new(
                    LinkSpec {
                        rate_bps: (self.host_gbps * 1e9) as u64,
                        delay: SimDuration::from_micros(self.delay_us),
                    },
                    q,
                ),
                TierSpec::new(
                    LinkSpec {
                        rate_bps: (self.agg_gbps * 1e9) as u64,
                        delay: SimDuration::from_micros(2 * self.delay_us),
                    },
                    q,
                ),
                TierSpec::new(
                    LinkSpec {
                        rate_bps: (self.core_gbps * 1e9) as u64,
                        delay: SimDuration::from_micros(4 * self.delay_us),
                    },
                    q,
                ),
            )
            .ecmp_seed(self.ecmp_seed)
    }

    /// Checks the workload against the fabric it is asked to run on.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for invalid fat-tree
    /// parameters, more participants than hosts, fewer than two, a zero
    /// horizon or invalid transport/marking parameters.
    pub fn validate(&self) -> Result<(), SimError> {
        let ft = self.fat_tree();
        ft.validate()?;
        let hosts = ft.num_hosts();
        if self.participants < 2 {
            return Err(SimError::InvalidConfig(format!(
                "collective needs at least 2 participants, got {}",
                self.participants
            )));
        }
        if self.participants as usize > hosts {
            return Err(SimError::InvalidConfig(format!(
                "{} participants exceed the {hosts} hosts of a k={} fat-tree",
                self.participants, self.k
            )));
        }
        if self.horizon.is_zero() {
            return Err(SimError::InvalidConfig(
                "collective horizon must be non-zero".into(),
            ));
        }
        self.marking.build()?;
        self.tcp
            .validate()
            .map_err(|e| SimError::InvalidConfig(format!("collective transport config: {e:?}")))?;
        Ok(())
    }
}

/// Measured outcome of one collective run.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveReport {
    /// Participating hosts.
    pub participants: u32,
    /// Bulk-synchronous steps executed.
    pub steps: usize,
    /// Point-to-point flows scheduled across all steps.
    pub flows: usize,
    /// Payload bytes summed over every transfer.
    pub bytes_total: u64,
    /// Seconds until the last payload byte arrived; `None` when the
    /// collective did not finish inside the horizon.
    pub completion: Option<f64>,
    /// Aggregate goodput over the completed collective, bits/second
    /// (0 when unfinished).
    pub goodput_bps: f64,
    /// Time-weighted occupancy (packets) of the busiest core-link port
    /// — the port with the most enqueued packets, ties broken by lowest
    /// link id then end.
    pub core_queue: TimeWeightedSummary,
    /// CE marks summed over every switch port on the fabric.
    pub marks: u64,
    /// Drops summed over every switch port on the fabric.
    pub drops: u64,
    /// Retransmission timeouts summed over every participant.
    pub timeouts: u64,
    /// Events dispatched by the engine; transmit completions it elided
    /// (nothing waited on them) are not counted — see
    /// `dctcp_sim::Simulator::events_processed`.
    pub events: u64,
}

/// Runs one collective to completion (or to its horizon) and reports.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for an invalid configuration and
/// propagates engine errors (including `Cancelled` when a supervisor
/// fires `cancel`).
pub fn run_collective(
    cfg: &CollectiveConfig,
    cancel: Option<dctcp_sim::CancelToken>,
) -> Result<CollectiveReport, SimError> {
    cfg.validate()?;
    let steps = cfg
        .pattern
        .transfers(cfg.participants, cfg.bytes_per_flow, cfg.chunk, cfg.seed)?;
    let ft = cfg.fat_tree();
    let num_hosts = ft.num_hosts();

    // Pre-schedule every step's flows: step s starts at s * phase_gap.
    // Host indices are dense from zero because FatTree creates hosts
    // first, so destination NodeIds are known before the build.
    let mut per_host: Vec<Vec<ScheduledFlow>> = vec![Vec::new(); num_hosts];
    let mut expected: Vec<(usize, FlowId, u64)> = Vec::new();
    let mut bytes_total = 0u64;
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
            bytes_total += bytes;
        }
    }
    let flows = expected.len();

    let built = ft.build(|i| {
        let mut host = TransportHost::new(cfg.tcp);
        for sf in per_host[i].drain(..) {
            host.schedule(sf);
        }
        Box::new(host)
    })?;
    let ids = built.ids;
    debug_assert!(ids
        .hosts
        .iter()
        .enumerate()
        .all(|(i, &h)| h == NodeId::from_index(i)));

    let mut sim = Simulator::new(built.network);
    sim.set_cancel_token(cancel);
    let deadline = SimTime::ZERO + cfg.horizon;
    let step = SimDuration::from_micros(500);
    let mut completion: Option<f64> = None;
    loop {
        let next = (sim.now() + step).min(deadline);
        sim.run_until(next)?;
        let mut done = true;
        let mut last = SimTime::ZERO;
        for &(dst, flow, bytes) in &expected {
            let host: &TransportHost = sim.agent(ids.hosts[dst])?;
            match host.receiver(flow) {
                Some(r) if r.bytes_received() >= bytes => {
                    if let Some(t) = r.stats().last_arrival {
                        last = last.max(t);
                    }
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

    // Busiest core-link port: most enqueued packets wins, ties by the
    // deterministic iteration order (link id, then end 0 before end 1).
    let half = cfg.k as usize / 2;
    let mut core_queue: Option<TimeWeightedSummary> = None;
    let mut best_enqueued = 0u64;
    let mut marks = 0u64;
    let mut drops = 0u64;
    for (i, &link) in ids.core_links.iter().enumerate() {
        // core_links are built agg-major: index i = ((p*half)+a)*half+c.
        let agg = ids.aggs[i / half];
        let core = ids.cores[(i / half % half) * half + i % half];
        for node in [agg, core] {
            let report = sim.queue_report(link, node);
            marks += report.counters.marked;
            drops += report.counters.dropped();
            if core_queue.is_none() || report.counters.enqueued > best_enqueued {
                best_enqueued = report.counters.enqueued;
                core_queue = Some(report.occupancy_pkts);
            }
        }
    }
    let core_queue =
        core_queue.ok_or_else(|| SimError::InvalidConfig("fat-tree has no core links".into()))?;
    for (i, &link) in ids.host_links.iter().enumerate() {
        // Only the edge-side end is a switch queue.
        let report = sim.queue_report(link, ids.edges[i / cfg.hosts_per_edge as usize]);
        marks += report.counters.marked;
        drops += report.counters.dropped();
    }
    for (i, &link) in ids.pod_links.iter().enumerate() {
        // pod_links are edge-major: index i = ((p*half)+e)*half+a.
        let edge = ids.edges[i / half];
        let agg = ids.aggs[(i / (half * half)) * half + i % half];
        for node in [edge, agg] {
            let report = sim.queue_report(link, node);
            marks += report.counters.marked;
            drops += report.counters.dropped();
        }
    }
    let mut timeouts = 0u64;
    for i in 0..cfg.participants as usize {
        let host: &TransportHost = sim.agent(ids.hosts[i])?;
        timeouts += host.senders().map(|s| s.stats().timeouts).sum::<u64>();
    }

    let goodput_bps = completion
        .filter(|&t| t > 0.0)
        .map_or(0.0, |t| bytes_total as f64 * 8.0 / t);
    Ok(CollectiveReport {
        participants: cfg.participants,
        steps: steps.len(),
        flows,
        bytes_total,
        completion,
        goodput_bps,
        core_queue,
        marks,
        drops,
        timeouts,
        events: sim.events_processed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_allreduce_shape() {
        let steps = CollectivePattern::RingAllreduce
            .transfers(4, 1000, 0, 1)
            .unwrap();
        assert_eq!(steps.len(), 6); // 2(P-1)
        for step in &steps {
            assert_eq!(step.len(), 4);
            for &(src, dst, bytes) in step {
                assert_eq!(dst, (src + 1) % 4);
                assert_eq!(bytes, 250);
            }
        }
        // An explicit chunk overrides the automatic split.
        let chunked = CollectivePattern::RingAllreduce
            .transfers(4, 1000, 64, 1)
            .unwrap();
        assert_eq!(chunked[0][0].2, 64);
    }

    #[test]
    fn tree_allreduce_reduces_then_broadcasts() {
        let steps = CollectivePattern::TreeAllreduce
            .transfers(8, 500, 0, 1)
            .unwrap();
        assert_eq!(steps.len(), 6); // 3 up + 3 down
                                    // First reduce step: odd ranks send to their even partner.
        assert_eq!(
            steps[0],
            vec![(1, 0, 500), (3, 2, 500), (5, 4, 500), (7, 6, 500)]
        );
        // Last broadcast step mirrors it.
        assert_eq!(
            steps[5],
            vec![(0, 1, 500), (2, 3, 500), (4, 5, 500), (6, 7, 500)]
        );
        // Ragged participant counts still reduce to rank 0 and reach
        // every rank on the way down.
        let ragged = CollectivePattern::TreeAllreduce
            .transfers(6, 500, 0, 1)
            .unwrap();
        let mut reached: Vec<bool> = vec![false; 6];
        reached[0] = true;
        for step in &ragged[3..] {
            for &(_, dst, _) in step {
                reached[dst as usize] = true;
            }
        }
        assert!(reached.iter().all(|&r| r), "{ragged:?}");
    }

    #[test]
    fn permutation_is_a_seeded_derangement() {
        let steps = CollectivePattern::Permutation
            .transfers(16, 100, 0, 7)
            .unwrap();
        assert_eq!(steps.len(), 1);
        let step = &steps[0];
        assert_eq!(step.len(), 16);
        let mut seen_dst = std::collections::BTreeSet::new();
        for &(src, dst, _) in step {
            assert_ne!(src, dst, "fixed point in permutation");
            seen_dst.insert(dst);
        }
        assert_eq!(seen_dst.len(), 16, "not a permutation");
        // Seeded: same seed, same draw; different seed, different draw.
        assert_eq!(
            steps,
            CollectivePattern::Permutation
                .transfers(16, 100, 0, 7)
                .unwrap()
        );
        assert_ne!(
            steps,
            CollectivePattern::Permutation
                .transfers(16, 100, 0, 8)
                .unwrap()
        );
    }

    #[test]
    fn incast_converges_on_rank_zero() {
        let steps = CollectivePattern::Incast.transfers(5, 100, 0, 1).unwrap();
        assert_eq!(
            steps,
            vec![vec![(1, 0, 100), (2, 0, 100), (3, 0, 100), (4, 0, 100)]]
        );
    }

    #[test]
    fn degenerate_patterns_are_typed_errors() {
        for pattern in [
            CollectivePattern::RingAllreduce,
            CollectivePattern::TreeAllreduce,
            CollectivePattern::Permutation,
            CollectivePattern::Incast,
        ] {
            assert!(matches!(
                pattern.transfers(1, 100, 0, 1),
                Err(SimError::InvalidConfig(_))
            ));
            assert!(matches!(
                pattern.transfers(4, 0, 0, 1),
                Err(SimError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn oversubscribed_participants_rejected() {
        // k=4, hosts_per_edge=2 has 16 hosts.
        let cfg = CollectiveConfig {
            participants: 17,
            ..CollectiveConfig::small(CollectivePattern::Incast, 4)
        };
        assert!(matches!(
            run_collective(&cfg, None),
            Err(SimError::InvalidConfig(_))
        ));
        let cfg = CollectiveConfig {
            participants: 1,
            ..CollectiveConfig::small(CollectivePattern::Incast, 4)
        };
        assert!(matches!(
            run_collective(&cfg, None),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn small_incast_completes_and_is_deterministic() {
        let cfg = CollectiveConfig::small(CollectivePattern::Incast, 8);
        let a = run_collective(&cfg, None).unwrap();
        assert_eq!(a.flows, 7);
        assert!(a.completion.is_some(), "incast did not finish: {a:?}");
        assert!(a.goodput_bps > 0.0);
        assert_eq!(a, run_collective(&cfg, None).unwrap());
    }

    #[test]
    fn permutation_spreads_over_core_links() {
        let mut cfg = CollectiveConfig::small(CollectivePattern::Permutation, 16);
        cfg.bytes_per_flow = 128 * 1024;
        let r = run_collective(&cfg, None).unwrap();
        assert!(r.completion.is_some(), "{r:?}");
        // Inter-pod traffic must put load on the core tier.
        assert!(r.core_queue.max > 0.0, "{r:?}");
    }

    #[test]
    fn ring_allreduce_completes_every_step() {
        let mut cfg = CollectiveConfig::small(CollectivePattern::RingAllreduce, 8);
        cfg.bytes_per_flow = 32 * 1024;
        let r = run_collective(&cfg, None).unwrap();
        assert_eq!(r.steps, 14);
        assert_eq!(r.flows, 14 * 8);
        assert!(r.completion.is_some(), "{r:?}");
    }
}
