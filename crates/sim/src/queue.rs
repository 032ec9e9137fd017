//! Output queues with pluggable AQM and exact occupancy statistics.

use std::collections::VecDeque;

use dctcp_core::{
    Codel, CodelParams, EnqueueDecision, MarkingPolicy, MarkingScheme, QueueSnapshot,
};
use dctcp_rng::SplitMix64;
use dctcp_stats::{TimeSeries, TimeWeighted, TimeWeightedSummary};
use dctcp_trace::{DropReason, TraceKind, TraceScope, Tracer};

use crate::{Ecn, Packet, SimDuration, SimError, SimTime};

/// Buffer size limit of an output queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Capacity {
    /// No limit (host NIC queues, which are paced by the transport
    /// window).
    Unbounded,
    /// At most this many packets, counting queued but not in-service
    /// packets.
    Packets(u32),
    /// At most this many queued bytes (wire bytes).
    Bytes(u64),
}

impl Capacity {
    fn admits(&self, len_bytes: u64, len_pkts: u32, arriving: u32) -> bool {
        match *self {
            Capacity::Unbounded => true,
            Capacity::Packets(n) => len_pkts < n,
            Capacity::Bytes(b) => len_bytes + arriving as u64 <= b,
        }
    }
}

/// Random-loss fault injection for a queue, applied to every arriving
/// packet before the marking policy sees it. Deterministic per `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent (memoryless) loss: each arrival is dropped with
    /// probability `rate`.
    Bernoulli {
        /// Drop probability in `[0, 1]`.
        rate: f64,
        /// RNG seed (SplitMix64).
        seed: u64,
    },
    /// Gilbert–Elliott bursty loss: a two-state Markov chain stepped per
    /// arrival, with a per-state drop probability. Models correlated loss
    /// bursts (flaky optics, a congested middlebox) that memoryless loss
    /// cannot.
    GilbertElliott {
        /// Per-arrival probability of moving good → bad.
        p_gb: f64,
        /// Per-arrival probability of moving bad → good.
        p_bg: f64,
        /// Drop probability while in the good state.
        loss_good: f64,
        /// Drop probability while in the bad state.
        loss_bad: f64,
        /// RNG seed (SplitMix64).
        seed: u64,
    },
}

impl LossModel {
    /// Checks all probabilities are in `[0, 1]` and the GE chain can
    /// leave both states.
    pub fn validate(&self) -> Result<(), SimError> {
        let unit = |name: &str, p: f64| -> Result<(), SimError> {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(SimError::InvalidConfig(format!(
                    "{name} {p} outside [0, 1]"
                )))
            }
        };
        match *self {
            LossModel::Bernoulli { rate, .. } => unit("loss rate", rate),
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
                ..
            } => {
                unit("p_gb", p_gb)?;
                unit("p_bg", p_bg)?;
                unit("loss_good", loss_good)?;
                unit("loss_bad", loss_bad)?;
                if p_gb + p_bg <= 0.0 {
                    return Err(SimError::InvalidConfig(
                        "gilbert-elliott chain is frozen: p_gb + p_bg must be > 0".into(),
                    ));
                }
                Ok(())
            }
        }
    }

    /// The long-run (stationary) drop probability of this model.
    pub fn stationary_rate(&self) -> f64 {
        match *self {
            LossModel::Bernoulli { rate, .. } => rate,
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
                ..
            } => (p_bg * loss_good + p_gb * loss_bad) / (p_gb + p_bg),
        }
    }

    fn seed(&self) -> u64 {
        match *self {
            LossModel::Bernoulli { seed, .. } | LossModel::GilbertElliott { seed, .. } => seed,
        }
    }
}

/// Bounded packet reordering fault injection: with probability `prob`,
/// an accepted arrival is displaced up to `depth` positions ahead of the
/// packets already queued, so it departs before them. Deterministic per
/// `seed`; displacement is bounded, so reordering never starves a packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderModel {
    /// Maximum number of positions an arrival may jump ahead (≥ 1).
    pub depth: u32,
    /// Probability an accepted arrival is displaced.
    pub prob: f64,
    /// RNG seed (SplitMix64).
    pub seed: u64,
}

impl ReorderModel {
    /// Checks `prob` is a probability and `depth` is non-zero.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(0.0..=1.0).contains(&self.prob) {
            return Err(SimError::InvalidConfig(format!(
                "reorder probability {} outside [0, 1]",
                self.prob
            )));
        }
        if self.depth == 0 {
            return Err(SimError::InvalidConfig(
                "reorder depth must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Configuration of one output queue (one direction of one link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueConfig {
    /// Buffer limit.
    pub capacity: Capacity,
    /// Marking scheme (built into live policy state per queue).
    pub scheme: MarkingScheme,
    /// Record a queue-length trace, at most one point per this interval.
    /// `None` disables tracing.
    pub trace_interval: Option<SimDuration>,
    /// Optional random-loss fault injection.
    pub loss: Option<LossModel>,
    /// Optional bounded-reordering fault injection.
    pub reorder: Option<ReorderModel>,
}

impl QueueConfig {
    /// An unbounded FIFO without marking — the default for host NIC
    /// queues.
    pub fn host_nic() -> Self {
        QueueConfig {
            capacity: Capacity::Unbounded,
            scheme: MarkingScheme::DropTail,
            trace_interval: None,
            loss: None,
            reorder: None,
        }
    }

    /// A bounded switch queue with the given marking scheme.
    pub fn switch(capacity: Capacity, scheme: MarkingScheme) -> Self {
        QueueConfig {
            capacity,
            scheme,
            trace_interval: None,
            loss: None,
            reorder: None,
        }
    }

    /// Enables queue-length tracing with the given minimum sample
    /// spacing.
    pub fn with_trace(mut self, interval: SimDuration) -> Self {
        self.trace_interval = Some(interval);
        self
    }

    /// Enables independent (Bernoulli) random-loss fault injection on
    /// this queue.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `rate` is outside `[0, 1]`.
    pub fn with_loss(self, rate: f64, seed: u64) -> Result<Self, SimError> {
        self.with_loss_model(LossModel::Bernoulli { rate, seed })
    }

    /// Enables Gilbert–Elliott bursty-loss fault injection on this queue.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any probability is outside
    /// `[0, 1]` or the chain cannot change state.
    pub fn with_gilbert_elliott(
        self,
        p_gb: f64,
        p_bg: f64,
        loss_good: f64,
        loss_bad: f64,
        seed: u64,
    ) -> Result<Self, SimError> {
        self.with_loss_model(LossModel::GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            seed,
        })
    }

    /// Enables an explicit loss model on this queue.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the model's parameters are
    /// invalid.
    pub fn with_loss_model(mut self, model: LossModel) -> Result<Self, SimError> {
        model.validate()?;
        self.loss = Some(model);
        Ok(self)
    }

    /// Enables bounded packet reordering on this queue.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `prob` is outside `[0, 1]`
    /// or `depth` is zero.
    pub fn with_reorder(mut self, depth: u32, prob: f64, seed: u64) -> Result<Self, SimError> {
        let model = ReorderModel { depth, prob, seed };
        model.validate()?;
        self.reorder = Some(model);
        Ok(self)
    }
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self::host_nic()
    }
}

/// Event counters of a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueCounters {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets handed to the transmitter.
    pub dequeued: u64,
    /// Packets dropped by the buffer limit.
    pub dropped_overflow: u64,
    /// Packets dropped by the AQM policy (RED drop mode).
    pub dropped_aqm: u64,
    /// Packets dropped by fault injection ([`LossModel`]).
    pub dropped_random: u64,
    /// Packets marked CE by the policy.
    pub marked: u64,
    /// CE marks stripped by ECN bleaching (see
    /// [`OutputQueue::set_bleach`]).
    pub bleached: u64,
}

impl QueueCounters {
    /// Total packets dropped for any reason.
    pub fn dropped(&self) -> u64 {
        self.dropped_overflow + self.dropped_aqm + self.dropped_random
    }
}

/// Occupancy summary and counters of one queue over an observation
/// window.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueReport {
    /// Event counters since the last stats reset.
    pub counters: QueueCounters,
    /// Time-weighted occupancy in packets.
    pub occupancy_pkts: TimeWeightedSummary,
    /// Time-weighted occupancy in bytes.
    pub occupancy_bytes: TimeWeightedSummary,
    /// Queue-length trace in packets, if tracing was enabled.
    pub trace: Option<TimeSeries>,
}

/// What happened to an offered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Accepted (possibly CE-marked).
    Enqueued,
    /// Rejected by the AQM policy.
    DroppedAqm,
    /// Rejected by the buffer limit.
    DroppedOverflow,
    /// Dropped by fault injection.
    DroppedRandom,
}

/// A FIFO output queue with a marking policy, a buffer limit, and exact
/// time-weighted occupancy statistics.
///
/// Occupancy excludes the packet currently being serialized (it is popped
/// at transmission start), matching ns-2's queue accounting that the
/// paper's `K = 40 packets` refers to.
#[derive(Debug)]
pub struct OutputQueue {
    /// Queued packets, struct-of-arrays with `enq_at`: the hot path
    /// (offer/pop) only streams `Packet`s, while the enqueue instants —
    /// touched once per packet for sojourn-based AQM — live in their own
    /// dense ring. Both rings always have identical length and order.
    /// They grow by doubling to cover the most the port has held and
    /// never shrink, so after warm-up a port runs allocation-free.
    pkts: VecDeque<Packet>,
    /// Enqueue instant of each queued packet, parallel to `pkts`.
    enq_at: VecDeque<SimTime>,
    len_bytes: u64,
    capacity: Capacity,
    policy: Box<dyn MarkingPolicy>,
    /// True for [`MarkingScheme::DropTail`], whose policy is a stateless
    /// accept-all: the hot path skips the virtual policy calls entirely.
    policy_is_droptail: bool,
    counters: QueueCounters,
    tw_pkts: TimeWeighted,
    tw_bytes: TimeWeighted,
    trace: Option<TimeSeries>,
    trace_interval: Option<SimDuration>,
    last_trace_at: Option<SimTime>,
    loss: Option<LossModel>,
    loss_rng: SplitMix64,
    /// Gilbert–Elliott chain state: `true` while in the bad state.
    loss_bad: bool,
    reorder: Option<ReorderModel>,
    reorder_rng: SplitMix64,
    /// When set, CE marks are stripped from departing packets (an
    /// ECN-bleaching middlebox on the path).
    bleach: bool,
    codel: Option<Codel>,
    codel_params: Option<CodelParams>,
    /// The marking scheme this queue was built from (kept for trace
    /// metadata — the live policy is `policy`).
    scheme: MarkingScheme,
    /// Stable id used in trace events (`link_index * 2 + end`), assigned
    /// by the simulator; 0 for standalone queues.
    trace_id: u32,
}

impl OutputQueue {
    /// Builds a queue from its configuration.
    ///
    /// # Errors
    ///
    /// Returns the marking scheme's [`dctcp_core::ParamError`] if its
    /// parameters are invalid.
    pub fn new(config: &QueueConfig) -> Result<Self, dctcp_core::ParamError> {
        let codel = match config.scheme.codel_params() {
            Some(p) => Some(Codel::new(p)?),
            None => None,
        };
        // The rings start empty rather than sized to `capacity`: a FIFO
        // walks its head round its whole allocation, so a ring sized to
        // the buffer limit would keep all of it resident while the
        // queue itself stays tens of packets deep.
        Ok(OutputQueue {
            pkts: VecDeque::new(),
            enq_at: VecDeque::new(),
            len_bytes: 0,
            capacity: config.capacity,
            policy: config.scheme.build()?,
            policy_is_droptail: config.scheme == MarkingScheme::DropTail,
            counters: QueueCounters::default(),
            tw_pkts: TimeWeighted::new(0.0),
            tw_bytes: TimeWeighted::new(0.0),
            trace: config.trace_interval.map(|_| TimeSeries::new()),
            trace_interval: config.trace_interval,
            last_trace_at: None,
            loss: config.loss,
            loss_rng: SplitMix64::new(config.loss.map_or(1, |l| l.seed().max(1))),
            loss_bad: false,
            reorder: config.reorder,
            reorder_rng: SplitMix64::new(config.reorder.map_or(1, |r| r.seed.max(1))),
            bleach: false,
            codel,
            codel_params: config.scheme.codel_params(),
            scheme: config.scheme,
            trace_id: 0,
        })
    }

    /// The marking scheme this queue was built from.
    pub fn scheme(&self) -> MarkingScheme {
        self.scheme
    }

    /// Reconstructs the configuration this queue was built from, so an
    /// identical pristine queue can be created (sharded runs replicate
    /// the topology per shard).
    pub(crate) fn config(&self) -> QueueConfig {
        QueueConfig {
            capacity: self.capacity,
            scheme: self.scheme,
            trace_interval: self.trace_interval,
            loss: self.loss,
            reorder: self.reorder,
        }
    }

    /// The buffer limit.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// The id this queue stamps on trace events.
    pub fn trace_id(&self) -> u32 {
        self.trace_id
    }

    pub(crate) fn set_trace_id(&mut self, id: u32) {
        self.trace_id = id;
    }

    /// Current occupancy in packets (excluding the in-service packet).
    pub fn len_pkts(&self) -> u32 {
        self.pkts.len() as u32
    }

    /// Current occupancy in wire bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// Offers an arriving packet to the queue at time `now`.
    pub fn offer(&mut self, now: SimTime, pkt: Packet) -> Offer {
        self.offer_traced(now, pkt, &mut Tracer::disabled())
    }

    /// [`OutputQueue::offer`] with trace recording: emits a
    /// [`TraceKind::MarkDecision`] for every policy consultation
    /// (including packets later lost to overflow) and an
    /// enqueue/drop event for the packet's fate.
    pub fn offer_traced(&mut self, now: SimTime, mut pkt: Packet, tracer: &mut Tracer) -> Offer {
        let t = now.as_nanos();
        if self.loss.is_some() && self.draw_loss() {
            self.counters.dropped_random += 1;
            tracer.record_with(TraceScope::QUEUE, t, || TraceKind::Drop {
                queue: self.trace_id,
                flow: pkt.flow.0,
                pkt_bytes: pkt.wire_bytes(),
                reason: DropReason::Random,
                depth_pkts: self.len_pkts(),
                depth_bytes: self.len_bytes,
            });
            return Offer::DroppedRandom;
        }
        let consulted = !self.policy_is_droptail;
        let before = QueueSnapshot::new(self.len_bytes, self.len_pkts());
        let decision = if consulted {
            self.policy.on_enqueue(&before)
        } else {
            EnqueueDecision::accept()
        };
        match decision {
            EnqueueDecision::Drop => {
                self.counters.dropped_aqm += 1;
                tracer.record_with(TraceScope::QUEUE, t, || TraceKind::MarkDecision {
                    queue: self.trace_id,
                    flow: pkt.flow.0,
                    pre_pkts: before.len_pkts,
                    pre_bytes: before.len_bytes,
                    mark: false,
                    ce_applied: false,
                });
                tracer.record_with(TraceScope::QUEUE, t, || TraceKind::Drop {
                    queue: self.trace_id,
                    flow: pkt.flow.0,
                    pkt_bytes: pkt.wire_bytes(),
                    reason: DropReason::AqmArrival,
                    depth_pkts: self.len_pkts(),
                    depth_bytes: self.len_bytes,
                });
                Offer::DroppedAqm
            }
            EnqueueDecision::Enqueue { mark } => {
                if !self
                    .capacity
                    .admits(self.len_bytes, self.len_pkts(), pkt.wire_bytes())
                {
                    self.counters.dropped_overflow += 1;
                    if consulted {
                        tracer.record_with(TraceScope::QUEUE, t, || TraceKind::MarkDecision {
                            queue: self.trace_id,
                            flow: pkt.flow.0,
                            pre_pkts: before.len_pkts,
                            pre_bytes: before.len_bytes,
                            mark,
                            ce_applied: false,
                        });
                    }
                    tracer.record_with(TraceScope::QUEUE, t, || TraceKind::Drop {
                        queue: self.trace_id,
                        flow: pkt.flow.0,
                        pkt_bytes: pkt.wire_bytes(),
                        reason: DropReason::Overflow,
                        depth_pkts: self.len_pkts(),
                        depth_bytes: self.len_bytes,
                    });
                    return Offer::DroppedOverflow;
                }
                let ce_applied = mark && pkt.ecn.is_capable();
                if ce_applied {
                    pkt.ecn = Ecn::Ce;
                    self.counters.marked += 1;
                }
                if consulted {
                    tracer.record_with(TraceScope::QUEUE, t, || TraceKind::MarkDecision {
                        queue: self.trace_id,
                        flow: pkt.flow.0,
                        pre_pkts: before.len_pkts,
                        pre_bytes: before.len_bytes,
                        mark,
                        ce_applied,
                    });
                }
                self.len_bytes += pkt.wire_bytes() as u64;
                let (flow, wire) = (pkt.flow.0, pkt.wire_bytes());
                self.pkts.push_back(pkt);
                self.enq_at.push_back(now);
                self.counters.enqueued += 1;
                self.maybe_displace();
                self.record_occupancy(now);
                tracer.record_with(TraceScope::QUEUE, t, || TraceKind::Enqueue {
                    queue: self.trace_id,
                    flow,
                    pkt_bytes: wire,
                    depth_pkts: self.len_pkts(),
                    depth_bytes: self.len_bytes,
                });
                Offer::Enqueued
            }
        }
    }

    /// Removes the head packet for transmission at time `now`.
    ///
    /// Under CoDel drop mode, head packets the control law condemns are
    /// dropped here and the next survivor returned.
    pub fn pop(&mut self, now: SimTime) -> Option<Packet> {
        self.pop_traced(now, &mut Tracer::disabled())
    }

    /// [`OutputQueue::pop`] with trace recording: emits a
    /// [`TraceKind::Dequeue`] for the departing packet and a
    /// [`TraceKind::Drop`] for every CoDel head drop along the way.
    pub fn pop_traced(&mut self, now: SimTime, tracer: &mut Tracer) -> Option<Packet> {
        let t = now.as_nanos();
        loop {
            let mut pkt = self.pkts.pop_front()?;
            // Rings move in lockstep; the fallback never fires.
            let enq = self.enq_at.pop_front().unwrap_or(now);
            self.len_bytes -= pkt.wire_bytes() as u64;
            self.counters.dequeued += 1;
            if !self.policy_is_droptail {
                let after = QueueSnapshot::new(self.len_bytes, self.len_pkts());
                self.policy.on_dequeue(&after);
            }
            self.record_occupancy(now);

            let after = QueueSnapshot::new(self.len_bytes, self.len_pkts());
            if let (Some(codel), Some(params)) = (self.codel.as_mut(), self.codel_params) {
                let sojourn = now.saturating_duration_since(enq).as_nanos();
                if codel.on_dequeue_sojourn(now.as_nanos(), sojourn, &after) {
                    if params.ecn {
                        if pkt.ecn.is_capable() {
                            pkt.ecn = Ecn::Ce;
                            self.counters.marked += 1;
                        }
                    } else {
                        self.counters.dropped_aqm += 1;
                        self.counters.dequeued -= 1; // it never reached the wire
                        tracer.record_with(TraceScope::QUEUE, t, || TraceKind::Drop {
                            queue: self.trace_id,
                            flow: pkt.flow.0,
                            pkt_bytes: pkt.wire_bytes(),
                            reason: DropReason::AqmHead,
                            depth_pkts: self.len_pkts(),
                            depth_bytes: self.len_bytes,
                        });
                        continue;
                    }
                }
            }
            if self.bleach && pkt.ecn.is_ce() {
                pkt.ecn = Ecn::Ect;
                self.counters.bleached += 1;
            }
            tracer.record_with(TraceScope::QUEUE, t, || TraceKind::Dequeue {
                queue: self.trace_id,
                flow: pkt.flow.0,
                pkt_bytes: pkt.wire_bytes(),
                ce: pkt.ecn.is_ce(),
                depth_pkts: self.len_pkts(),
                depth_bytes: self.len_bytes,
            });
            return Some(pkt);
        }
    }

    /// Turns ECN bleaching on or off: while on, any CE mark is stripped
    /// from departing packets (downgraded back to ECT), emulating a
    /// broken middlebox that erases congestion signals mid-path.
    pub fn set_bleach(&mut self, on: bool) {
        self.bleach = on;
    }

    /// Whether ECN bleaching is currently active on this queue.
    pub fn is_bleaching(&self) -> bool {
        self.bleach
    }

    /// Restarts the statistics window at `now` (used to discard warm-up
    /// transients); queue contents and policy state are preserved.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.counters = QueueCounters::default();
        let t = now.as_secs_f64();
        self.tw_pkts = TimeWeighted::with_initial(t, self.len_pkts() as f64);
        self.tw_bytes = TimeWeighted::with_initial(t, self.len_bytes as f64);
        if self.trace.is_some() {
            self.trace = Some(TimeSeries::new());
            self.last_trace_at = None;
        }
    }

    /// Current sojourn time of the head packet, if any (diagnostics).
    pub fn head_sojourn(&self, now: SimTime) -> Option<SimDuration> {
        self.enq_at
            .front()
            .map(|&t| now.saturating_duration_since(t))
    }

    /// Snapshot of counters and occupancy statistics as of `now`.
    pub fn report(&self, now: SimTime) -> QueueReport {
        let t = now.as_secs_f64();
        QueueReport {
            counters: self.counters,
            occupancy_pkts: self.tw_pkts.finish(t),
            occupancy_bytes: self.tw_bytes.finish(t),
            trace: self.trace.clone(),
        }
    }

    /// Current counters (cheap accessor for in-flight checks).
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Advances the loss model one arrival and decides whether to drop.
    fn draw_loss(&mut self) -> bool {
        match self.loss {
            None => false,
            Some(LossModel::Bernoulli { rate, .. }) => self.loss_rng.next_f64() < rate,
            Some(LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
                ..
            }) => {
                // Step the chain first, then draw against the new state,
                // so a burst can begin on the arrival that triggers it.
                let flip = self.loss_rng.next_f64();
                if self.loss_bad {
                    if flip < p_bg {
                        self.loss_bad = false;
                    }
                } else if flip < p_gb {
                    self.loss_bad = true;
                }
                let p = if self.loss_bad { loss_bad } else { loss_good };
                self.loss_rng.next_f64() < p
            }
        }
    }

    /// Possibly displaces the just-enqueued tail packet forward by a
    /// bounded number of positions (reordering fault injection).
    fn maybe_displace(&mut self) {
        let Some(model) = self.reorder else { return };
        // Need at least one packet ahead of the new tail to jump over.
        if self.pkts.len() < 2 || self.reorder_rng.next_f64() >= model.prob {
            return;
        }
        let max_jump = (model.depth as usize).min(self.pkts.len() - 1);
        let jump = 1 + (self.reorder_rng.next_u64() as usize) % max_jump;
        let from = self.pkts.len() - 1;
        let to = from - jump;
        // The packet and its enqueue instant move together, so sojourn
        // accounting stays attached to the right packet.
        let (Some(pkt), Some(enq)) = (self.pkts.remove(from), self.enq_at.remove(from)) else {
            return;
        };
        self.pkts.insert(to, pkt);
        self.enq_at.insert(to, enq);
    }

    fn record_occupancy(&mut self, now: SimTime) {
        let t = now.as_secs_f64();
        self.tw_pkts.update(t, self.len_pkts() as f64);
        self.tw_bytes.update(t, self.len_bytes as f64);
        if let (Some(trace), Some(interval)) = (&mut self.trace, self.trace_interval) {
            let due = match self.last_trace_at {
                None => true,
                Some(last) => now.saturating_duration_since(last) >= interval,
            };
            if due {
                trace.push(t, self.pkts.len() as f64);
                self.last_trace_at = Some(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowId, NodeId};
    use dctcp_core::QueueLevel;

    fn pkt(payload: u32) -> Packet {
        let mut p = Packet::data(
            FlowId(0),
            NodeId::from_index(0),
            NodeId::from_index(1),
            0,
            payload,
        );
        p.ecn = Ecn::Ect;
        p
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = OutputQueue::new(&QueueConfig::host_nic()).unwrap();
        for i in 0..5u32 {
            let mut p = pkt(100);
            p.seq = i as u64;
            assert_eq!(q.offer(t(i as u64), p), Offer::Enqueued);
        }
        for i in 0..5u64 {
            assert_eq!(q.pop(t(10)).unwrap().seq, i);
        }
        assert!(q.pop(t(11)).is_none());
    }

    #[test]
    fn byte_accounting_includes_headers() {
        let mut q = OutputQueue::new(&QueueConfig::host_nic()).unwrap();
        q.offer(t(0), pkt(1460));
        assert_eq!(q.len_bytes(), 1500);
        assert_eq!(q.len_pkts(), 1);
        q.pop(t(1));
        assert_eq!(q.len_bytes(), 0);
    }

    #[test]
    fn packet_capacity_overflows() {
        let cfg = QueueConfig::switch(Capacity::Packets(2), MarkingScheme::DropTail);
        let mut q = OutputQueue::new(&cfg).unwrap();
        assert_eq!(q.offer(t(0), pkt(100)), Offer::Enqueued);
        assert_eq!(q.offer(t(0), pkt(100)), Offer::Enqueued);
        assert_eq!(q.offer(t(0), pkt(100)), Offer::DroppedOverflow);
        assert_eq!(q.counters().dropped_overflow, 1);
        assert_eq!(q.counters().enqueued, 2);
    }

    #[test]
    fn byte_capacity_overflows() {
        let cfg = QueueConfig::switch(Capacity::Bytes(3000), MarkingScheme::DropTail);
        let mut q = OutputQueue::new(&cfg).unwrap();
        assert_eq!(q.offer(t(0), pkt(1460)), Offer::Enqueued); // 1500
        assert_eq!(q.offer(t(0), pkt(1460)), Offer::Enqueued); // 3000
        assert_eq!(q.offer(t(0), pkt(1460)), Offer::DroppedOverflow);
    }

    #[test]
    fn dctcp_marking_applies_ce_when_capable() {
        let cfg = QueueConfig::switch(
            Capacity::Packets(100),
            MarkingScheme::Dctcp {
                k: QueueLevel::Packets(2),
            },
        );
        let mut q = OutputQueue::new(&cfg).unwrap();
        q.offer(t(0), pkt(100));
        q.offer(t(0), pkt(100));
        // Third arrival sees occupancy 2 >= K.
        q.offer(t(0), pkt(100));
        assert_eq!(q.counters().marked, 1);
        q.pop(t(1));
        q.pop(t(1));
        let third = q.pop(t(1)).unwrap();
        assert!(third.ecn.is_ce());
    }

    #[test]
    fn marking_skips_non_ect_packets() {
        let cfg = QueueConfig::switch(
            Capacity::Packets(100),
            MarkingScheme::Dctcp {
                k: QueueLevel::Packets(0),
            },
        );
        let mut q = OutputQueue::new(&cfg).unwrap();
        let mut p = pkt(100);
        p.ecn = Ecn::NotEct;
        q.offer(t(0), p);
        assert_eq!(q.counters().marked, 0);
        assert!(!q.pop(t(1)).unwrap().ecn.is_ce());
    }

    #[test]
    fn occupancy_statistics_are_time_weighted() {
        let mut q = OutputQueue::new(&QueueConfig::host_nic()).unwrap();
        // One packet resident from t=0 to t=1s, then empty until t=2s.
        q.offer(SimTime::ZERO, pkt(1460));
        q.pop(SimTime::from_nanos(1_000_000_000));
        let r = q.report(SimTime::from_nanos(2_000_000_000));
        assert!((r.occupancy_pkts.mean - 0.5).abs() < 1e-9);
        assert_eq!(r.occupancy_pkts.max, 1.0);
    }

    #[test]
    fn reset_stats_clears_counters_but_keeps_contents() {
        let mut q = OutputQueue::new(&QueueConfig::host_nic()).unwrap();
        q.offer(t(0), pkt(100));
        q.offer(t(1), pkt(100));
        q.reset_stats(t(2));
        assert_eq!(q.counters().enqueued, 0);
        assert_eq!(q.len_pkts(), 2);
        let r = q.report(t(4));
        // Occupancy over the fresh window is exactly 2 packets.
        assert!((r.occupancy_pkts.mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn trace_respects_sample_interval() {
        let cfg = QueueConfig::host_nic().with_trace(SimDuration::from_micros(10));
        let mut q = OutputQueue::new(&cfg).unwrap();
        for i in 0..100 {
            q.offer(t(i), pkt(100));
        }
        let r = q.report(t(100));
        let trace = r.trace.expect("tracing enabled");
        // 100 events over 100 us with >= 10 us spacing: at most 11 points.
        assert!(trace.len() <= 11, "trace too dense: {}", trace.len());
        assert!(trace.len() >= 9, "trace too sparse: {}", trace.len());
    }

    #[test]
    fn random_loss_drops_expected_fraction() {
        let cfg = QueueConfig::host_nic().with_loss(0.25, 42).unwrap();
        let mut q = OutputQueue::new(&cfg).unwrap();
        let mut dropped = 0;
        for i in 0..4000u64 {
            if q.offer(t(i), pkt(100)) == Offer::DroppedRandom {
                dropped += 1;
            } else {
                q.pop(t(i));
            }
        }
        let frac = dropped as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.03, "loss fraction {frac}");
        assert_eq!(q.counters().dropped_random, dropped);
        assert_eq!(q.counters().dropped(), dropped);
    }

    #[test]
    fn zero_loss_model_never_drops() {
        let cfg = QueueConfig::host_nic().with_loss(0.0, 7).unwrap();
        let mut q = OutputQueue::new(&cfg).unwrap();
        for i in 0..100u64 {
            assert_eq!(q.offer(t(i), pkt(100)), Offer::Enqueued);
        }
    }

    #[test]
    fn loss_rate_validated() {
        let err = QueueConfig::host_nic().with_loss(1.5, 1).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("outside [0, 1]"));
    }

    #[test]
    fn gilbert_elliott_parameters_validated() {
        let base = QueueConfig::host_nic();
        assert!(base.with_gilbert_elliott(1.2, 0.5, 0.0, 1.0, 1).is_err());
        assert!(base.with_gilbert_elliott(0.1, 0.5, 0.0, -0.1, 1).is_err());
        // A frozen chain (both transition probabilities zero) is rejected.
        assert!(base.with_gilbert_elliott(0.0, 0.0, 0.0, 1.0, 1).is_err());
        assert!(base.with_gilbert_elliott(0.05, 0.4, 0.001, 0.6, 1).is_ok());
    }

    #[test]
    fn gilbert_elliott_matches_stationary_marginal() {
        // pi_bad = p_gb / (p_gb + p_bg) = 0.2; expected loss =
        // 0.8 * 0.01 + 0.2 * 0.5 = 0.108.
        let model = LossModel::GilbertElliott {
            p_gb: 0.05,
            p_bg: 0.20,
            loss_good: 0.01,
            loss_bad: 0.50,
            seed: 99,
        };
        let cfg = QueueConfig::host_nic().with_loss_model(model).unwrap();
        let mut q = OutputQueue::new(&cfg).unwrap();
        let n = 60_000u64;
        let mut dropped = 0u64;
        for i in 0..n {
            if q.offer(t(i), pkt(100)) == Offer::DroppedRandom {
                dropped += 1;
            } else {
                q.pop(t(i));
            }
        }
        let frac = dropped as f64 / n as f64;
        let expect = model.stationary_rate();
        assert!((expect - 0.108).abs() < 1e-12);
        assert!(
            (frac - expect).abs() < 0.01,
            "empirical loss {frac} vs stationary {expect}"
        );
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Compare run-length structure: with a sticky bad state, losses
        // cluster far more than Bernoulli at the same marginal rate.
        let ge = QueueConfig::host_nic()
            .with_gilbert_elliott(0.02, 0.2, 0.0, 1.0, 7)
            .unwrap();
        let marginal = ge.loss.unwrap().stationary_rate();
        let bern = QueueConfig::host_nic().with_loss(marginal, 7).unwrap();
        let run_lengths = |cfg: &QueueConfig| {
            let mut q = OutputQueue::new(cfg).unwrap();
            let (mut runs, mut cur, mut losses) = (0u64, 0u64, 0u64);
            for i in 0..40_000u64 {
                if q.offer(t(i), pkt(100)) == Offer::DroppedRandom {
                    cur += 1;
                    losses += 1;
                } else {
                    q.pop(t(i));
                    if cur > 0 {
                        runs += 1;
                        cur = 0;
                    }
                }
            }
            if cur > 0 {
                runs += 1;
            }
            losses as f64 / runs.max(1) as f64
        };
        let ge_mean_run = run_lengths(&ge);
        let bern_mean_run = run_lengths(&bern);
        assert!(
            ge_mean_run > 2.0 * bern_mean_run,
            "GE mean burst {ge_mean_run} not bursty vs Bernoulli {bern_mean_run}"
        );
    }

    #[test]
    fn bleaching_strips_ce_marks_and_counts_them() {
        let cfg = QueueConfig::switch(
            Capacity::Packets(100),
            MarkingScheme::Dctcp {
                k: QueueLevel::Packets(0),
            },
        );
        let mut q = OutputQueue::new(&cfg).unwrap();
        q.set_bleach(true);
        assert!(q.is_bleaching());
        for _ in 0..5 {
            q.offer(t(0), pkt(100));
        }
        assert_eq!(q.counters().marked, 5);
        for _ in 0..5 {
            let p = q.pop(t(1)).unwrap();
            assert_eq!(p.ecn, Ecn::Ect, "CE mark survived bleaching");
        }
        assert_eq!(q.counters().bleached, 5);
        // Turned off, marks pass through again.
        q.set_bleach(false);
        q.offer(t(2), pkt(100));
        assert!(q.pop(t(3)).unwrap().ecn.is_ce());
        assert_eq!(q.counters().bleached, 5);
    }

    #[test]
    fn reordering_is_bounded_and_conserves_packets() {
        let cfg = QueueConfig::host_nic().with_reorder(3, 0.5, 11).unwrap();
        let mut q = OutputQueue::new(&cfg).unwrap();
        let n = 500u64;
        for i in 0..n {
            let mut p = pkt(100);
            p.seq = i;
            assert_eq!(q.offer(t(i), p), Offer::Enqueued);
        }
        let mut seqs = Vec::new();
        while let Some(p) = q.pop(t(n)) {
            seqs.push(p.seq);
        }
        assert_eq!(seqs.len(), n as usize, "packets lost by reordering");
        let mut inversions = 0u64;
        for w in seqs.windows(2) {
            if w[0] > w[1] {
                inversions += 1;
            }
        }
        assert!(inversions > 0, "reordering never displaced a packet");
        // Displacement stays bounded: a packet jumps forward at most
        // `depth` slots at enqueue, and can only be overtaken while it
        // sits within `depth` of the tail, so drift stays small (the
        // seed is fixed, making this deterministic).
        let max_drift = seqs
            .iter()
            .enumerate()
            .map(|(idx, &s)| (s as i64 - idx as i64).abs())
            .max()
            .unwrap();
        assert!(max_drift <= 20, "packet displaced {max_drift} slots");
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn reorder_parameters_validated() {
        assert!(QueueConfig::host_nic().with_reorder(0, 0.5, 1).is_err());
        assert!(QueueConfig::host_nic().with_reorder(3, 1.5, 1).is_err());
        assert!(QueueConfig::host_nic().with_reorder(3, 0.0, 1).is_ok());
    }

    #[test]
    fn codel_marks_after_sustained_sojourn() {
        let cfg = QueueConfig::switch(Capacity::Packets(1000), MarkingScheme::codel_datacenter());
        let mut q = OutputQueue::new(&cfg).unwrap();
        // Fill a standing queue, then dequeue slowly so sojourn stays
        // far above the 50 us target for more than one 1 ms interval.
        for i in 0..200u64 {
            q.offer(t(i), pkt(1460));
        }
        let mut marked = 0;
        for i in 0..200u64 {
            let now = t(1_000 + i * 100); // 100 us per departure
            if let Some(p) = q.pop(now) {
                if p.ecn.is_ce() {
                    marked += 1;
                }
            }
            q.offer(now, pkt(1460)); // keep the queue standing
        }
        assert!(marked > 0, "CoDel never marked under a standing queue");
        assert!(q.counters().marked > 0);
    }

    #[test]
    fn codel_idle_queue_never_marks() {
        let cfg = QueueConfig::switch(Capacity::Packets(1000), MarkingScheme::codel_datacenter());
        let mut q = OutputQueue::new(&cfg).unwrap();
        for i in 0..100u64 {
            q.offer(t(i * 100), pkt(1460));
            let p = q.pop(t(i * 100 + 1)).unwrap(); // 1 us sojourn
            assert!(!p.ecn.is_ce());
        }
        assert_eq!(q.counters().marked, 0);
    }

    #[test]
    fn head_sojourn_tracks_waiting_time() {
        let mut q = OutputQueue::new(&QueueConfig::host_nic()).unwrap();
        assert_eq!(q.head_sojourn(t(5)), None);
        q.offer(t(5), pkt(100));
        assert_eq!(q.head_sojourn(t(9)), Some(SimDuration::from_micros(4)));
    }

    #[test]
    fn dt_dctcp_queue_end_to_end_hysteresis() {
        let cfg = QueueConfig::switch(
            Capacity::Packets(1000),
            MarkingScheme::dt_dctcp_packets(3, 6),
        );
        let mut q = OutputQueue::new(&cfg).unwrap();
        // Fill to 8 packets: arrivals seeing occupancy >= 3 get marked.
        for _ in 0..8 {
            q.offer(t(0), pkt(100));
        }
        assert_eq!(q.counters().marked, 5);
        // Drain to 5 (< K2 = 6): crossing disarms.
        q.pop(t(1));
        q.pop(t(1));
        q.pop(t(1));
        // Arrival at occupancy 5 (>= K1) on the falling phase: unmarked.
        q.offer(t(2), pkt(100));
        assert_eq!(q.counters().marked, 5);
    }

    /// CoDel in drop mode: condemned head packets leave through `pop`.
    fn codel_drop() -> QueueConfig {
        let params = CodelParams {
            ecn: false,
            ..CodelParams::datacenter()
        };
        QueueConfig::switch(Capacity::Packets(1000), MarkingScheme::Codel { params })
    }

    /// Asserts the SoA lockstep: each queued packet sits beside its own
    /// enqueue instant (`seq` is the microsecond it was offered at) and,
    /// when `fifo`, in offer order.
    fn assert_lockstep(q: &OutputQueue, fifo: bool) {
        assert_eq!(q.pkts.len(), q.enq_at.len(), "rings out of lockstep");
        for (p, &at) in q.pkts.iter().zip(&q.enq_at) {
            assert_eq!(at, t(p.seq), "packet {} paired with {at:?}", p.seq);
        }
        if fifo {
            let seqs: Vec<u64> = q.pkts.iter().map(|p| p.seq).collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "queue out of order");
        }
    }

    /// Drives `q` through a steady phase that wraps the ring head, a
    /// burst past the ring's capacity while it is wrapped, a slow
    /// standing-queue drain and a final flush, checking the lockstep
    /// after every operation. Returns the popped seqs and the count
    /// offered.
    fn drive_ring(q: &mut OutputQueue, fifo: bool) -> (Vec<u64>, u64) {
        let mut clock = 0u64;
        let mut offered = 0u64;
        let mut popped = Vec::new();
        let mut offer = |q: &mut OutputQueue, clock: &mut u64| {
            *clock += 1;
            let mut p = pkt(1460);
            p.seq = *clock;
            q.offer(t(*clock), p);
            offered += 1;
            assert_lockstep(q, fifo);
        };
        let pop = |q: &mut OutputQueue, clock: u64, popped: &mut Vec<u64>| {
            let now = t(clock);
            let head = q.head_sojourn(now);
            let drops = q.counters().dropped_aqm;
            let p = q.pop(now);
            if q.counters().dropped_aqm == drops {
                // No head drop: the departing packet is the one whose
                // sojourn the queue reported.
                let own = p.as_ref().map(|p| now.saturating_duration_since(t(p.seq)));
                assert_eq!(head, own);
            }
            popped.extend(p.map(|p| p.seq));
            assert_lockstep(q, fifo);
        };
        for _ in 0..3 {
            offer(q, &mut clock);
        }
        // One in, one out: the head walks round a ring that stops growing.
        let mut rounds = 0;
        while rounds < 40 || q.pkts.as_slices().1.is_empty() {
            offer(q, &mut clock);
            pop(q, clock, &mut popped);
            rounds += 1;
            assert!(rounds < 1_000, "ring head never wrapped");
        }
        let wrapped_cap = q.pkts.capacity();
        for _ in 0..300 {
            offer(q, &mut clock);
        }
        assert!(
            q.pkts.capacity() > wrapped_cap,
            "burst did not grow the ring"
        );
        for i in 0..600 {
            clock += 10;
            pop(q, clock, &mut popped);
            if i % 2 == 0 {
                offer(q, &mut clock);
            }
        }
        while !q.is_empty() {
            clock += 10;
            pop(q, clock, &mut popped);
        }
        (popped, offered)
    }

    #[test]
    fn ring_growth_keeps_fifo_and_sojourn_pairing() {
        let reorder_codel = codel_drop().with_reorder(4, 0.3, 9).unwrap();
        for (cfg, fifo) in [
            (QueueConfig::host_nic(), true),
            (codel_drop(), true),
            (reorder_codel, false),
        ] {
            let mut q = OutputQueue::new(&cfg).unwrap();
            let (popped, offered) = drive_ring(&mut q, fifo);
            let c = q.counters();
            assert_eq!(c.dropped_overflow + c.dropped_random, 0);
            assert_eq!(popped.len() as u64 + c.dropped_aqm, offered);
            if cfg.scheme.codel_params().is_some() {
                assert!(c.dropped_aqm > 0, "CoDel never dropped a head packet");
            }
            if !fifo {
                assert!(popped.windows(2).any(|w| w[0] > w[1]), "nothing reordered");
            }
        }
    }

    #[test]
    fn rings_grow_to_occupancy_not_to_the_buffer_limit() {
        let switch = QueueConfig::switch(Capacity::Packets(1000), MarkingScheme::DropTail);
        for cfg in [switch, QueueConfig::host_nic()] {
            for k in [1usize, 3, 5, 17, 40] {
                let mut q = OutputQueue::new(&cfg).unwrap();
                let mut now = 0;
                for round in 0..200 {
                    // Fill to k (k - 1 on odd rounds), hold that depth
                    // while the head walks, then drain.
                    let fill = k - round % 2;
                    for i in 0..fill + 5 {
                        now += 1;
                        if i >= fill {
                            q.pop(t(now));
                        }
                        assert_eq!(q.offer(t(now), pkt(1460)), Offer::Enqueued);
                    }
                    while q.pop(t(now)).is_some() {}
                }
                let bound = 2 * k.max(4);
                assert!(q.pkts.capacity() < bound, "k = {k}: {}", q.pkts.capacity());
                assert!(
                    q.enq_at.capacity() < bound,
                    "k = {k}: {}",
                    q.enq_at.capacity()
                );
            }
        }
    }
}
