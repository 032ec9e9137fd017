//! Open-loop flow churn: millions of short flows over recycled
//! connection state.
//!
//! Two agents implement the heavy-traffic FCT workload:
//!
//! * [`ChurnSource`] — draws Poisson arrivals at a configured rate with
//!   sizes from an empirical CDF ([`SizeCdf`]), runs each flow on a
//!   [`Sender`] recycled through a [`FlowTable`] (reset in place, no
//!   per-flow allocation), and streams completion times into per-class
//!   [`QuantileSketch`]es.
//! * [`ChurnSink`] — terminates flows on [`Receiver`]s recycled per
//!   `(origin, slot)` key, adopting new generations as they appear.
//!
//! Flow ids carry a generation tag ([`FlowId::tagged`]): an ACK, data
//! packet or timer surviving from a slot's previous incarnation fails
//! the generation check and is counted and dropped instead of corrupting
//! the next flow. All state is per-host and all randomness is a per-host
//! PCG stream, so runs are bit-identical at any shard count.

use std::any::Any;
use std::collections::VecDeque;

use dctcp_core::ParamError;
use dctcp_rng::{Pcg32, SplitMix64};
use dctcp_sim::{
    Agent, Context, FlowId, FlowTable, FlowTableError, IdMap, NodeId, Packet, PacketKind,
    SimDuration, SimTime, TimerToken,
};
use dctcp_stats::QuantileSketch;
use dctcp_trace::{TraceKind, TraceScope};

use crate::{CongestionControl, FlowError, Receiver, Sender, TcpConfig, TimerKind, Wire};

/// Flow-size classes reported by the churn harness, split at the two
/// configured byte bounds.
pub const SIZE_CLASSES: usize = 3;

/// An empirical flow-size distribution as a piecewise-linear CDF over
/// `(cumulative probability, bytes)` points.
///
/// # Examples
///
/// ```
/// use dctcp_tcp::SizeCdf;
///
/// let cdf = SizeCdf::new(&[(0.0, 1_000), (0.9, 10_000), (1.0, 1_000_000)]).unwrap();
/// assert!(cdf.mean_bytes() > 1_000.0);
/// assert!(cdf.sample(0.0) >= 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SizeCdf {
    points: Vec<(f64, f64)>,
    mean: f64,
}

impl SizeCdf {
    /// Builds a CDF from `(cumulative probability, bytes)` points.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless probabilities start at 0, end at 1
    /// and strictly increase, and sizes are positive and non-decreasing.
    pub fn new(points: &[(f64, u64)]) -> Result<Self, ParamError> {
        if points.len() < 2 {
            return Err(ParamError::new("size cdf needs at least two points"));
        }
        if points[0].0 != 0.0 {
            return Err(ParamError::new("size cdf must start at probability 0"));
        }
        if points[points.len() - 1].0 != 1.0 {
            return Err(ParamError::new("size cdf must end at probability 1"));
        }
        let mut converted = Vec::with_capacity(points.len());
        for w in points.windows(2) {
            let ((p0, b0), (p1, b1)) = (w[0], w[1]);
            if p1.partial_cmp(&p0) != Some(std::cmp::Ordering::Greater) {
                return Err(ParamError::new(format!(
                    "size cdf probabilities must strictly increase ({p0} then {p1})"
                )));
            }
            if b0 == 0 || b1 < b0 {
                return Err(ParamError::new(
                    "size cdf bytes must be positive and non-decreasing",
                ));
            }
        }
        for &(p, b) in points {
            converted.push((p, b as f64));
        }
        let mean = converted
            .windows(2)
            .map(|w| (w[1].0 - w[0].0) * (w[0].1 + w[1].1) / 2.0)
            .sum();
        Ok(SizeCdf {
            points: converted,
            mean,
        })
    }

    /// Mean flow size implied by the piecewise-linear CDF, in bytes.
    pub fn mean_bytes(&self) -> f64 {
        self.mean
    }

    /// Inverse-CDF sample for a uniform draw `u ∈ [0, 1)`, linearly
    /// interpolated within the bracketing segment; always at least one
    /// byte.
    pub fn sample(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let seg = self
            .points
            .windows(2)
            .find(|w| u <= w[1].0)
            .unwrap_or_else(|| &self.points[self.points.len() - 2..]);
        let (p0, b0) = seg[0];
        let (p1, b1) = seg[1];
        let frac = (u - p0) / (p1 - p0);
        ((b0 + frac * (b1 - b0)).round() as u64).max(1)
    }
}

/// Optional per-flow deadlines for the churn workload, driving the
/// D²TCP urgency term ([`dctcp_core::d2tcp_cut`]) and the
/// deadline-miss-rate metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineConfig {
    /// Mean slack multiplier: each flow's deadline is
    /// `slack_i × idealFCT`, with `slack_i` drawn uniformly from
    /// `[0.5, 1.5] × slack` and `idealFCT = bytes·8/line_rate + rtt`.
    pub slack: f64,
    /// Line rate for the ideal-FCT transmission term, bits/second.
    pub line_rate_bps: u64,
    /// Base round-trip time added to the ideal FCT.
    pub base_rtt: SimDuration,
}

/// Configuration of one [`ChurnSource`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Base per-flow transport configuration (validated at build).
    pub tcp: TcpConfig,
    /// Destination host terminating every flow (a [`ChurnSink`]).
    pub dst: NodeId,
    /// This source's unique index, embedded in every flow id
    /// (`<=` [`FlowId::MAX_ORIGIN`]).
    pub origin: u32,
    /// Maximum concurrently open flows; arrivals beyond it queue in a
    /// FIFO backlog (open-loop semantics: FCT still counts from the
    /// arrival instant).
    pub slots: u32,
    /// Workload seed; mixed with `origin` into an independent per-host
    /// stream.
    pub seed: u64,
    /// Mean Poisson inter-arrival gap for this host.
    pub mean_interarrival: SimDuration,
    /// Flow-size distribution.
    pub sizes: SizeCdf,
    /// First possible arrival instant.
    pub start: SimTime,
    /// Arrivals stop at this instant (exclusive); flows already admitted
    /// drain afterwards.
    pub horizon: SimTime,
    /// Flows arriving before this instant are simulated but excluded
    /// from sketches and measured counters (warm-up).
    pub measure_from: SimTime,
    /// Size-class split: `short <= bounds[0] < mid <= bounds[1] < long`.
    pub class_bounds: [u64; 2],
    /// Optional per-flow deadlines (D²TCP urgency + miss-rate metric).
    pub deadline: Option<DeadlineConfig>,
}

impl ChurnConfig {
    fn validate(&self) -> Result<(), ParamError> {
        self.tcp.validate()?;
        if self.slots == 0 {
            return Err(ParamError::new("churn slots must be >= 1"));
        }
        if self.slots as u64 > FlowId::MAX_SLOT as u64 + 1 {
            return Err(ParamError::new(format!(
                "churn slots {} exceed the tagged-FlowId slot field",
                self.slots
            )));
        }
        if self.origin > FlowId::MAX_ORIGIN {
            return Err(ParamError::new(format!(
                "churn origin {} exceeds the tagged-FlowId origin field",
                self.origin
            )));
        }
        if self.mean_interarrival.is_zero() {
            return Err(ParamError::new("mean inter-arrival must be positive"));
        }
        if self.horizon <= self.start {
            return Err(ParamError::new("churn horizon must follow start"));
        }
        if self.class_bounds[0] == 0 || self.class_bounds[1] <= self.class_bounds[0] {
            return Err(ParamError::new(
                "size-class bounds must satisfy 0 < short < long",
            ));
        }
        if let Some(d) = self.deadline {
            if !(d.slack > 0.0 && d.slack.is_finite()) {
                return Err(ParamError::new("deadline slack must be positive"));
            }
            if d.line_rate_bps == 0 {
                return Err(ParamError::new("deadline line rate must be positive"));
            }
        }
        Ok(())
    }
}

/// Counters collected by a [`ChurnSource`]. "Measured" quantities cover
/// flows that arrived at or after `measure_from` only.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChurnSourceStats {
    /// Arrivals drawn from the Poisson process (admitted or backlogged).
    pub arrivals: u64,
    /// Flows actually started on a sender.
    pub started: u64,
    /// Flows fully acknowledged.
    pub completed: u64,
    /// Flows aborted by the consecutive-RTO cap.
    pub aborted: u64,
    /// Measured flows started.
    pub measured_started: u64,
    /// Measured flows completed (the sketch population).
    pub measured_completed: u64,
    /// Application bytes of measured completed flows.
    pub measured_bytes: u64,
    /// Measured completed flows that carried a deadline.
    pub deadline_flows: u64,
    /// ... of which finished after their deadline.
    pub deadline_missed: u64,
    /// ACKs that failed the generation check (stale incarnation).
    pub stale_acks: u64,
    /// Timers that failed the generation check.
    pub stale_timers: u64,
    /// Retransmission timeouts accumulated across recycled senders.
    pub timeouts: u64,
    /// Largest backlog ever queued behind a full flow table.
    pub backlog_peak: u64,
}

/// One live flow's slab entry: the recycled sender plus per-incarnation
/// metadata.
#[derive(Debug)]
struct ChurnFlow {
    sender: Sender,
    arrival: SimTime,
    bytes: u64,
    deadline: Option<SimDuration>,
    measured: bool,
}

/// An arrival waiting for a free slot; size and deadline slack were
/// drawn at arrival time so the RNG stream is independent of slot
/// availability.
#[derive(Debug, Clone, Copy)]
struct PendingFlow {
    arrival: SimTime,
    bytes: u64,
    slack: Option<f64>,
}

/// Timer-routing [`Wire`] shared by both churn agents: armed timers are
/// recorded under the flow's generation-tagged key so stale incarnations
/// can be recognized when they fire.
struct TaggedWire<'a, 'c, K: Copy> {
    ctx: &'a mut Context<'c>,
    timers: &'a mut IdMap<TimerToken, (K, TimerKind)>,
    tag: K,
}

impl<K: Copy> Wire for TaggedWire<'_, '_, K> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn local(&self) -> NodeId {
        self.ctx.node()
    }

    fn send(&mut self, pkt: Packet) {
        self.ctx.send(pkt);
    }

    fn arm(&mut self, delay: SimDuration, kind: TimerKind) -> TimerToken {
        let token = self.ctx.set_timer(delay);
        self.timers.insert(token, (self.tag, kind));
        token
    }

    fn cancel(&mut self, token: TimerToken) {
        self.timers.remove(&token);
        self.ctx.cancel_timer(token);
    }

    fn trace_enabled(&self) -> bool {
        self.ctx.trace_enabled(TraceScope::TCP)
    }

    fn trace(&mut self, kind: TraceKind) {
        self.ctx.trace(TraceScope::TCP, kind);
    }
}

/// The open-loop churn sender host: Poisson arrivals, slab-recycled
/// [`Sender`]s, streaming per-class FCT sketches.
#[derive(Debug)]
pub struct ChurnSource {
    cfg: ChurnConfig,
    rng: Pcg32,
    table: FlowTable<ChurnFlow>,
    timers: IdMap<TimerToken, ((u32, u32), TimerKind)>,
    backlog: VecDeque<PendingFlow>,
    arrival_token: TimerToken,
    next_arrival: SimTime,
    sketches: [QuantileSketch; SIZE_CLASSES],
    stats: ChurnSourceStats,
    /// First few terminal flow errors (abort diagnostics).
    flow_errors: Vec<FlowError>,
    /// Slab misuse (stale release): always empty on a healthy run.
    table_errors: Vec<FlowTableError>,
}

impl ChurnSource {
    /// Creates a churn source.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if the configuration is inconsistent (see
    /// [`ChurnConfig`] field docs).
    pub fn new(cfg: ChurnConfig) -> Result<Self, ParamError> {
        cfg.validate()?;
        let mut mix =
            SplitMix64::new(cfg.seed ^ (cfg.origin as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let rng = Pcg32::seed_from_u64(mix.next_u64());
        let slots = cfg.slots;
        Ok(ChurnSource {
            cfg,
            rng,
            table: FlowTable::with_capacity(slots),
            timers: IdMap::default(),
            backlog: VecDeque::new(),
            arrival_token: TimerToken::NONE,
            next_arrival: SimTime::ZERO,
            sketches: [
                QuantileSketch::new(),
                QuantileSketch::new(),
                QuantileSketch::new(),
            ],
            stats: ChurnSourceStats::default(),
            flow_errors: Vec::new(),
            table_errors: Vec::new(),
        })
    }

    /// Collected counters.
    pub fn stats(&self) -> &ChurnSourceStats {
        &self.stats
    }

    /// Per-class FCT sketches (seconds), indexed short/mid/long.
    pub fn sketches(&self) -> &[QuantileSketch; SIZE_CLASSES] {
        &self.sketches
    }

    /// Flows still open (not yet completed or aborted).
    pub fn open_flows(&self) -> u32 {
        self.table.live()
    }

    /// Arrivals still queued behind a full flow table.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Most flows ever concurrently open — the slab's real footprint.
    pub fn slots_high_water(&self) -> u32 {
        self.table.high_water()
    }

    /// First few terminal flow errors (aborts, config rejections).
    pub fn flow_errors(&self) -> &[FlowError] {
        &self.flow_errors
    }

    /// Slab misuse errors; non-empty means a harness bug, never silent.
    pub fn table_errors(&self) -> &[FlowTableError] {
        &self.table_errors
    }

    /// Draws the next exponential inter-arrival gap (at least 1 ns so
    /// the clock always advances).
    fn draw_gap(&mut self) -> SimDuration {
        let u = self.rng.next_f64();
        let mean_ns = self.cfg.mean_interarrival.as_nanos() as f64;
        let gap = (-(1.0 - u).ln() * mean_ns).round();
        SimDuration::from_nanos((gap as u64).max(1))
    }

    fn arm_next_arrival(&mut self, ctx: &mut Context<'_>) {
        let gap = self.draw_gap();
        self.next_arrival += gap;
        if self.next_arrival < self.cfg.horizon {
            self.arrival_token = ctx.set_timer_at(self.next_arrival);
        } else {
            self.arrival_token = TimerToken::NONE;
        }
    }

    /// Handles one Poisson arrival: draw size (and deadline slack),
    /// admit or backlog, schedule the next arrival.
    fn on_arrival(&mut self, ctx: &mut Context<'_>) {
        let arrival = ctx.now();
        let bytes = self.cfg.sizes.sample(self.rng.next_f64());
        let slack = self
            .cfg
            .deadline
            .map(|d| d.slack * (0.5 + self.rng.next_f64()));
        self.stats.arrivals += 1;
        let pending = PendingFlow {
            arrival,
            bytes,
            slack,
        };
        if self.table.is_full() {
            self.backlog.push_back(pending);
            self.stats.backlog_peak = self.stats.backlog_peak.max(self.backlog.len() as u64);
        } else {
            self.start_flow(pending, ctx);
        }
        self.arm_next_arrival(ctx);
    }

    /// Starts `pending` on a recycled slot. The slot's previous sender
    /// is reset in place; only a slot's very first use constructs one.
    fn start_flow(&mut self, pending: PendingFlow, ctx: &mut Context<'_>) {
        let base = self.cfg.tcp;
        let dst = self.cfg.dst;
        let Some((slot, generation)) = self.table.acquire(|| ChurnFlow {
            // Placeholder sender, immediately reset below; `base` was
            // validated in `ChurnSource::new`, so this cannot panic.
            sender: Sender::new(FlowId(0), dst, Some(1), base),
            arrival: SimTime::ZERO,
            bytes: 0,
            deadline: None,
            measured: false,
        }) else {
            // Raced full (cannot happen: callers check); keep open-loop
            // semantics by re-queueing rather than dropping the flow.
            self.backlog.push_front(pending);
            return;
        };

        let flow_id = FlowId::tagged(generation, self.cfg.origin, slot);
        let mut cfg = base;
        let deadline = match (self.cfg.deadline, pending.slack) {
            (Some(dl), Some(slack)) => {
                let ideal = pending.bytes as f64 * 8.0 / dl.line_rate_bps as f64
                    + dl.base_rtt.as_secs_f64();
                // Static-d D²TCP: urgency is the inverse of the slack the
                // deadline leaves over the ideal FCT (d = Tc/D at start).
                if let CongestionControl::D2tcp { g, .. } = cfg.cc {
                    cfg.cc = CongestionControl::D2tcp {
                        g,
                        d: (1.0 / slack).clamp(0.25, 4.0),
                    };
                }
                Some(SimDuration::from_secs_f64(slack * ideal))
            }
            _ => None,
        };
        let measured = pending.arrival >= self.cfg.measure_from;

        let Some(flow) = self.table.get_mut(slot, generation) else {
            return; // unreachable: the handle was just issued
        };
        if let Err(e) = flow.sender.reset(flow_id, dst, Some(pending.bytes), cfg) {
            // Per-flow config rejected: surface the typed error, free
            // the slot, and carry on with the next arrival.
            self.flow_errors.push(e);
            if let Err(te) = self.table.release(slot, generation) {
                self.table_errors.push(te);
            }
            return;
        }
        flow.arrival = pending.arrival;
        flow.bytes = pending.bytes;
        flow.deadline = deadline;
        flow.measured = measured;

        self.stats.started += 1;
        if measured {
            self.stats.measured_started += 1;
        }
        let mut wire = TaggedWire {
            ctx,
            timers: &mut self.timers,
            tag: (slot, generation),
        };
        flow.sender.start(&mut wire);
        self.settle(slot, generation, ctx);
    }

    /// After any sender dispatch: retire the flow if it completed or
    /// aborted, recycle its slot, and pull the next backlogged arrival.
    fn settle(&mut self, slot: u32, generation: u32, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let Some(flow) = self.table.get_mut(slot, generation) else {
            return;
        };
        let aborted = flow.sender.is_aborted();
        if !flow.sender.is_complete() && !aborted {
            return;
        }
        self.stats.timeouts += flow.sender.stats().timeouts;
        if aborted {
            self.stats.aborted += 1;
            if self.flow_errors.len() < 8 {
                if let Some(e) = flow.sender.error() {
                    self.flow_errors.push(e);
                }
            }
        } else {
            self.stats.completed += 1;
            if flow.measured {
                let fct = now.duration_since(flow.arrival);
                let class = if flow.bytes <= self.cfg.class_bounds[0] {
                    0
                } else if flow.bytes <= self.cfg.class_bounds[1] {
                    1
                } else {
                    2
                };
                self.sketches[class].record(fct.as_secs_f64());
                self.stats.measured_completed += 1;
                self.stats.measured_bytes += flow.bytes;
                if let Some(deadline) = flow.deadline {
                    self.stats.deadline_flows += 1;
                    if fct > deadline {
                        self.stats.deadline_missed += 1;
                    }
                }
            }
        }
        if let Err(e) = self.table.release(slot, generation) {
            self.table_errors.push(e);
        }
        if !self.table.is_full() {
            if let Some(pending) = self.backlog.pop_front() {
                self.start_flow(pending, ctx);
            }
        }
    }
}

impl Agent for ChurnSource {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.next_arrival = self.cfg.start.max(ctx.now());
        self.arm_next_arrival(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Context<'_>) {
        if pkt.kind != PacketKind::Ack {
            return;
        }
        let (slot, generation) = (pkt.flow.slot(), pkt.flow.generation());
        let Some(flow) = self.table.get_mut(slot, generation) else {
            self.stats.stale_acks += 1;
            return;
        };
        let mut wire = TaggedWire {
            ctx,
            timers: &mut self.timers,
            tag: (slot, generation),
        };
        flow.sender.on_ack(pkt, &mut wire);
        self.settle(slot, generation, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_>) {
        if token == self.arrival_token {
            self.arrival_token = TimerToken::NONE;
            self.on_arrival(ctx);
            return;
        }
        let Some(((slot, generation), kind)) = self.timers.remove(&token) else {
            return;
        };
        if kind != TimerKind::Rto {
            return; // senders only arm RTO timers
        }
        let Some(flow) = self.table.get_mut(slot, generation) else {
            self.stats.stale_timers += 1;
            return;
        };
        let mut wire = TaggedWire {
            ctx,
            timers: &mut self.timers,
            tag: (slot, generation),
        };
        flow.sender.on_rto(&mut wire);
        self.settle(slot, generation, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Counters collected by a [`ChurnSink`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChurnSinkStats {
    /// Data segments that failed the generation check (stale
    /// incarnation, e.g. a duplicate retransmission outliving its flow).
    pub stale_segments: u64,
    /// Timers that failed the generation check.
    pub stale_timers: u64,
    /// Incarnations adopted on an existing receiver (in-place resets).
    pub recycled: u64,
}

#[derive(Debug)]
struct RxSlot {
    generation: u32,
    receiver: Receiver,
}

/// The churn receiver host: one recycled [`Receiver`] per
/// `(origin, slot)` key, adopting each new generation in place.
#[derive(Debug)]
pub struct ChurnSink {
    tcp: TcpConfig,
    rx: IdMap<u64, RxSlot>,
    timers: IdMap<TimerToken, ((u64, u32), TimerKind)>,
    /// Bytes delivered by receivers already recycled away.
    retired_bytes: u64,
    stats: ChurnSinkStats,
}

impl ChurnSink {
    /// Creates a sink whose receivers use `tcp`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `tcp` fails validation.
    pub fn new(tcp: TcpConfig) -> Result<Self, ParamError> {
        tcp.validate()?;
        Ok(ChurnSink {
            tcp,
            rx: IdMap::default(),
            timers: IdMap::default(),
            retired_bytes: 0,
            stats: ChurnSinkStats::default(),
        })
    }

    /// Collected counters.
    pub fn stats(&self) -> &ChurnSinkStats {
        &self.stats
    }

    /// Total contiguous bytes delivered across all incarnations
    /// (order-independent sum — deterministic despite map iteration).
    pub fn delivered_bytes(&self) -> u64 {
        self.retired_bytes
            + self
                .rx
                .values()
                .map(|s| s.receiver.stats().bytes_received)
                .sum::<u64>()
    }

    /// Wrap-aware "is `generation` a later incarnation than `current`"
    /// over the 24-bit generation field.
    fn is_newer(generation: u32, current: u32) -> bool {
        let diff = generation.wrapping_sub(current) & FlowId::MAX_GENERATION;
        diff != 0 && diff < (FlowId::MAX_GENERATION >> 1)
    }
}

impl Agent for ChurnSink {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Context<'_>) {
        if pkt.kind != PacketKind::Data {
            return;
        }
        let key = pkt.flow.incarnation_key();
        let generation = pkt.flow.generation();
        let slot = match self.rx.entry(key) {
            std::collections::hash_map::Entry::Vacant(v) => v.insert(RxSlot {
                generation,
                // `tcp` was validated in `ChurnSink::new`.
                receiver: Receiver::new(pkt.flow, pkt.src, self.tcp),
            }),
            std::collections::hash_map::Entry::Occupied(o) => {
                let slot = o.into_mut();
                if generation != slot.generation {
                    if Self::is_newer(generation, slot.generation) {
                        // New incarnation: retire the old receiver's
                        // tally and reset it in place.
                        self.retired_bytes += slot.receiver.stats().bytes_received;
                        slot.receiver.reset(pkt.flow, pkt.src, self.tcp);
                        slot.generation = generation;
                        self.stats.recycled += 1;
                    } else {
                        self.stats.stale_segments += 1;
                        return;
                    }
                }
                slot
            }
        };
        let mut wire = TaggedWire {
            ctx,
            timers: &mut self.timers,
            tag: (key, generation),
        };
        slot.receiver.on_data(pkt, &mut wire);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_>) {
        let Some(((key, generation), kind)) = self.timers.remove(&token) else {
            return;
        };
        if kind != TimerKind::DelAck {
            return; // receivers only arm delayed-ACK timers
        }
        let Some(slot) = self.rx.get_mut(&key) else {
            return;
        };
        if slot.generation != generation {
            self.stats.stale_timers += 1;
            return;
        }
        let mut wire = TaggedWire {
            ctx,
            timers: &mut self.timers,
            tag: (key, generation),
        };
        slot.receiver.on_delack(&mut wire);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctcp_sim::{LinkSpec, QueueConfig, SimDuration, Simulator, TopologyBuilder};

    fn web_cdf() -> SizeCdf {
        SizeCdf::new(&[(0.0, 600), (0.6, 2_000), (0.9, 8_000), (1.0, 60_000)]).unwrap()
    }

    fn run_pair(
        seed: u64,
        slots: u32,
        horizon_ms: u64,
        deadline: Option<DeadlineConfig>,
    ) -> (ChurnSourceStats, [u64; SIZE_CLASSES], u64, ChurnSinkStats) {
        let tcp = TcpConfig::dctcp(1.0 / 16.0).with_rto_min(SimDuration::from_millis(2));
        let cfg = ChurnConfig {
            tcp,
            dst: NodeId::from_index(1),
            origin: 0,
            slots,
            seed,
            mean_interarrival: SimDuration::from_micros(40),
            sizes: web_cdf(),
            start: SimTime::ZERO,
            horizon: SimTime::ZERO + SimDuration::from_millis(horizon_ms),
            measure_from: SimTime::ZERO + SimDuration::from_micros(500),
            class_bounds: [3_000, 10_000],
            deadline,
        };
        let mut b = TopologyBuilder::new();
        let src = b.host("src", Box::new(ChurnSource::new(cfg).unwrap()));
        let dst = b.host("dst", Box::new(ChurnSink::new(tcp).unwrap()));
        b.link(
            src,
            dst,
            LinkSpec::gbps(1.0, 20),
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.run_for(SimDuration::from_millis(horizon_ms) + SimDuration::from_millis(200))
            .unwrap();
        let s: &ChurnSource = sim.agent(src).unwrap();
        let k: &ChurnSink = sim.agent(dst).unwrap();
        assert!(s.table_errors().is_empty(), "{:?}", s.table_errors());
        let sketch_counts = [
            s.sketches()[0].count(),
            s.sketches()[1].count(),
            s.sketches()[2].count(),
        ];
        (*s.stats(), sketch_counts, k.delivered_bytes(), *k.stats())
    }

    #[test]
    fn size_cdf_validates_and_samples() {
        assert!(SizeCdf::new(&[(0.0, 100)]).is_err());
        assert!(SizeCdf::new(&[(0.1, 100), (1.0, 200)]).is_err());
        assert!(SizeCdf::new(&[(0.0, 100), (0.9, 200)]).is_err());
        assert!(SizeCdf::new(&[(0.0, 100), (0.5, 50), (1.0, 200)]).is_err());
        assert!(SizeCdf::new(&[(0.0, 100), (0.0, 200), (1.0, 300)]).is_err());
        let cdf = web_cdf();
        assert_eq!(cdf.sample(0.0), 600);
        assert_eq!(cdf.sample(1.0), 60_000);
        let mid = cdf.sample(0.3);
        assert!((600..=2_000).contains(&mid), "{mid}");
        // Empirical mean of many inverse-CDF draws tracks the analytic
        // piecewise-linear mean.
        let mut rng = Pcg32::seed_from_u64(5);
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| cdf.sample(rng.next_f64())).sum();
        let emp = sum as f64 / n as f64;
        let rel = (emp - cdf.mean_bytes()).abs() / cdf.mean_bytes();
        assert!(
            rel < 0.02,
            "empirical {emp} vs analytic {}",
            cdf.mean_bytes()
        );
    }

    #[test]
    fn churn_completes_flows_and_recycles_slots() {
        let (stats, sketch_counts, delivered, sink) = run_pair(1, 8, 20, None);
        assert!(stats.arrivals > 300, "arrivals {}", stats.arrivals);
        assert_eq!(stats.started, stats.arrivals);
        assert_eq!(stats.completed, stats.started, "all flows drain");
        assert_eq!(stats.aborted, 0);
        // Far more flows than slots: the slab recycled.
        assert!(stats.started > 8 * 10);
        assert!(sink.recycled > 0);
        // Every measured completion landed in exactly one sketch.
        assert_eq!(sketch_counts.iter().sum::<u64>(), stats.measured_completed);
        assert!(sketch_counts[0] > 0, "short class populated");
        assert!(
            stats.measured_completed < stats.completed,
            "warmup excluded"
        );
        assert!(delivered >= stats.measured_bytes);
        assert_eq!(stats.deadline_flows, 0);
    }

    #[test]
    fn churn_is_deterministic() {
        let a = run_pair(7, 8, 10, None);
        let b = run_pair(7, 8, 10, None);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_pair(1, 8, 10, None);
        let b = run_pair(2, 8, 10, None);
        assert_ne!(a.0.arrivals, b.0.arrivals);
    }

    #[test]
    fn tiny_slot_table_backlogs_but_conserves_flows() {
        let (stats, ..) = run_pair(3, 1, 10, None);
        assert!(stats.backlog_peak > 0, "one slot must backlog");
        assert_eq!(stats.completed, stats.arrivals);
    }

    #[test]
    fn deadlines_report_misses_with_d2tcp() {
        let deadline = DeadlineConfig {
            // Deliberately tight: ideal FCT with no queueing or slow
            // start is not achievable, so misses must show up.
            slack: 1.0,
            line_rate_bps: 1_000_000_000,
            base_rtt: SimDuration::from_micros(40),
        };
        let tcp = TcpConfig::d2tcp(1.0 / 16.0, 1.0);
        let cfg = ChurnConfig {
            tcp,
            dst: NodeId::from_index(1),
            origin: 3,
            slots: 8,
            seed: 11,
            mean_interarrival: SimDuration::from_micros(60),
            sizes: web_cdf(),
            start: SimTime::ZERO,
            horizon: SimTime::ZERO + SimDuration::from_millis(10),
            measure_from: SimTime::ZERO,
            class_bounds: [3_000, 10_000],
            deadline: Some(deadline),
        };
        let mut b = TopologyBuilder::new();
        let src = b.host("src", Box::new(ChurnSource::new(cfg).unwrap()));
        let dst = b.host("dst", Box::new(ChurnSink::new(tcp).unwrap()));
        b.link(
            src,
            dst,
            LinkSpec::gbps(1.0, 20),
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.run_for(SimDuration::from_millis(60)).unwrap();
        let s: &ChurnSource = sim.agent(src).unwrap();
        let stats = s.stats();
        assert!(stats.deadline_flows > 0);
        assert_eq!(stats.deadline_flows, stats.measured_completed);
        assert!(stats.deadline_missed > 0, "tight deadlines must miss");
        assert!(stats.deadline_missed <= stats.deadline_flows);
    }

    #[test]
    fn invalid_configs_rejected_with_typed_errors() {
        let tcp = TcpConfig::dctcp(1.0 / 16.0);
        let good = ChurnConfig {
            tcp,
            dst: NodeId::from_index(1),
            origin: 0,
            slots: 4,
            seed: 1,
            mean_interarrival: SimDuration::from_micros(50),
            sizes: web_cdf(),
            start: SimTime::ZERO,
            horizon: SimTime::ZERO + SimDuration::from_millis(1),
            measure_from: SimTime::ZERO,
            class_bounds: [3_000, 10_000],
            deadline: None,
        };
        assert!(ChurnSource::new(good.clone()).is_ok());
        let mut bad = good.clone();
        bad.slots = 0;
        assert!(ChurnSource::new(bad).is_err());
        let mut bad = good.clone();
        bad.mean_interarrival = SimDuration::ZERO;
        assert!(ChurnSource::new(bad).is_err());
        let mut bad = good.clone();
        bad.horizon = SimTime::ZERO;
        assert!(ChurnSource::new(bad).is_err());
        let mut bad = good.clone();
        bad.class_bounds = [5_000, 5_000];
        assert!(ChurnSource::new(bad).is_err());
        let mut bad = good.clone();
        bad.origin = FlowId::MAX_ORIGIN + 1;
        assert!(ChurnSource::new(bad).is_err());
        let mut bad = good;
        bad.deadline = Some(DeadlineConfig {
            slack: 0.0,
            line_rate_bps: 1,
            base_rtt: SimDuration::ZERO,
        });
        assert!(ChurnSource::new(bad).is_err());
        let mut bad_tcp = tcp;
        bad_tcp.mss = 0;
        assert!(ChurnSink::new(bad_tcp).is_err());
    }

    #[test]
    fn generation_comparison_is_wrap_aware() {
        assert!(ChurnSink::is_newer(1, 0));
        assert!(!ChurnSink::is_newer(0, 1));
        assert!(!ChurnSink::is_newer(5, 5));
        // Across the 24-bit wrap point.
        assert!(ChurnSink::is_newer(0, FlowId::MAX_GENERATION));
        assert!(!ChurnSink::is_newer(FlowId::MAX_GENERATION, 0));
    }
}
