//! Typed event tracing for the DT-DCTCP simulator.
//!
//! The paper's whole argument is about *trajectory shape* — relay-induced
//! queue self-oscillation under DCTCP versus damped hysteresis under
//! DT-DCTCP — yet end-of-run aggregates cannot distinguish a correct
//! trajectory from a subtly distorted one. This crate records the
//! event-level story: every enqueue/dequeue/drop, every marking decision
//! with the occupancy it saw, every cwnd move with its cause, every
//! CE-echo state flip. On top of the recording sits [`oracle`], which
//! replays a finished trace and machine-checks conservation and protocol
//! laws.
//!
//! Design constraints:
//!
//! * **Zero dependencies** — like every crate in this workspace.
//! * **O(1) disabled cost** — [`Tracer::record_with`] takes a closure, so
//!   a disabled tracer costs one branch and never constructs the event.
//! * **Bounded memory** — events land in a ring; once full, the oldest
//!   events are overwritten and counted in [`TraceLog::dropped`].
//! * **Primitive payloads** — events carry plain integers/bools so the
//!   crate stays decoupled from the simulator's types and the JSONL
//!   export (`dctcp-trace/v1`) is trivial to consume offline.
//!
//! # Examples
//!
//! ```
//! use dctcp_trace::{TraceConfig, TraceKind, TraceScope, Tracer};
//!
//! let mut t = Tracer::new(TraceConfig::all());
//! t.record_with(TraceScope::QUEUE, 10, || TraceKind::Enqueue {
//!     queue: 0,
//!     flow: 1,
//!     pkt_bytes: 1500,
//!     depth_pkts: 1,
//!     depth_bytes: 1500,
//! });
//! let log = t.into_log();
//! assert_eq!(log.events.len(), 1);
//! assert!(log.to_jsonl_string().starts_with("{\"schema\": \"dctcp-trace/v1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::fmt::Write as _;
use std::io::{self, Write};
use std::ops::BitOr;

pub mod oracle;

/// Bitmask selecting which simulator components record events.
///
/// Scopes compose with `|`:
///
/// ```
/// use dctcp_trace::TraceScope;
///
/// let s = TraceScope::QUEUE | TraceScope::TCP;
/// assert!(s.contains(TraceScope::QUEUE));
/// assert!(!s.contains(TraceScope::FAULT));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceScope(u32);

impl TraceScope {
    /// No scopes: recording disabled.
    pub const NONE: TraceScope = TraceScope(0);
    /// Queue events: enqueue/dequeue/drop and marking decisions.
    pub const QUEUE: TraceScope = TraceScope(1);
    /// Link events: transmit completions.
    pub const LINK: TraceScope = TraceScope(1 << 1);
    /// Transport events: cwnd updates, RTO, fast retransmit, CE echo.
    pub const TCP: TraceScope = TraceScope(1 << 2);
    /// Fault-plan activations.
    pub const FAULT: TraceScope = TraceScope(1 << 3);
    /// Every scope.
    pub const ALL: TraceScope = TraceScope(0b1111);

    /// Whether every scope in `other` is enabled in `self`.
    pub const fn contains(self, other: TraceScope) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no scope is enabled.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for TraceScope {
    type Output = TraceScope;
    fn bitor(self, rhs: TraceScope) -> TraceScope {
        TraceScope(self.0 | rhs.0)
    }
}

/// Recorder configuration: ring capacity and enabled scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events retained; older events are overwritten once full.
    pub capacity: usize,
    /// Which components record.
    pub scopes: TraceScope,
}

impl TraceConfig {
    /// All scopes with a generous default ring (1 Mi events).
    pub fn all() -> Self {
        TraceConfig {
            capacity: 1 << 20,
            scopes: TraceScope::ALL,
        }
    }

    /// All scopes with an explicit ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig {
            capacity,
            scopes: TraceScope::ALL,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::all()
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Random loss injection (Gilbert–Elliott or uniform) at arrival.
    Random,
    /// AQM early drop at arrival (RED in drop mode).
    AqmArrival,
    /// Buffer overflow at arrival.
    Overflow,
    /// AQM head drop at dequeue (CoDel).
    AqmHead,
}

impl DropReason {
    /// Stable lowercase name used in the JSONL export.
    pub const fn name(self) -> &'static str {
        match self {
            DropReason::Random => "random",
            DropReason::AqmArrival => "aqm_arrival",
            DropReason::Overflow => "overflow",
            DropReason::AqmHead => "aqm_head",
        }
    }
}

/// A fault-plan action applied to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Link taken down.
    LinkDown,
    /// Link restored.
    LinkUp,
    /// ECN bleaching (CE→ECT rewrite) enabled.
    BleachOn,
    /// ECN bleaching disabled.
    BleachOff,
}

impl FaultKind {
    /// Stable lowercase name used in the JSONL export.
    pub const fn name(self) -> &'static str {
        match self {
            FaultKind::LinkDown => "link_down",
            FaultKind::LinkUp => "link_up",
            FaultKind::BleachOn => "bleach_on",
            FaultKind::BleachOff => "bleach_off",
        }
    }
}

/// What moved a sender's congestion window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CwndCause {
    /// Exponential growth below ssthresh.
    SlowStart,
    /// Additive increase at/above ssthresh.
    CongestionAvoidance,
    /// ECN-echo-driven multiplicative cut (DCTCP α, D2TCP, or Reno halving).
    EcnCut,
    /// Third duplicate ACK: retransmit and halve.
    FastRetransmit,
    /// Retransmission timeout: collapse to minimum window.
    RtoReset,
    /// Leaving fast recovery.
    RecoveryExit,
}

impl CwndCause {
    /// Stable lowercase name used in the JSONL export.
    pub const fn name(self) -> &'static str {
        match self {
            CwndCause::SlowStart => "slow_start",
            CwndCause::CongestionAvoidance => "congestion_avoidance",
            CwndCause::EcnCut => "ecn_cut",
            CwndCause::FastRetransmit => "fast_retransmit",
            CwndCause::RtoReset => "rto_reset",
            CwndCause::RecoveryExit => "recovery_exit",
        }
    }
}

/// The marking threshold a queue operates under, captured once per queue
/// in [`TraceKind::QueueInfo`] so the oracle can check marking laws.
///
/// `bytes` selects the occupancy measure the thresholds compare against:
/// byte occupancy when `true`, packet occupancy when `false`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MarkThreshold {
    /// No checkable instantaneous-threshold law (droptail, RED, CoDel…).
    None,
    /// DCTCP relay: mark iff occupancy at arrival is at least `k`.
    Single {
        /// Threshold in the unit selected by `bytes`.
        k: f64,
        /// Byte-denominated when true, packet-denominated when false.
        bytes: bool,
    },
    /// DT-DCTCP hysteresis: arm at `k1` rising (or at/above `k2`),
    /// release on a falling `k2` crossing or below `k1`.
    Hysteresis {
        /// Arming (lower) threshold.
        k1: f64,
        /// Release (upper) threshold.
        k2: f64,
        /// Byte-denominated when true, packet-denominated when false.
        bytes: bool,
    },
}

/// The payload of one trace event. All fields are primitives: queue ids
/// are `link_index * 2 + end`, flows are raw `FlowId` values, sequence
/// numbers are byte offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// Static description of a queue, emitted once when tracing starts.
    QueueInfo {
        /// Queue id (`link * 2 + end`).
        queue: u32,
        /// Owning link index.
        link: u32,
        /// Packet capacity, if packet-bounded.
        capacity_pkts: Option<u32>,
        /// Byte capacity, if byte-bounded.
        capacity_bytes: Option<u64>,
        /// Active marking threshold law.
        threshold: MarkThreshold,
    },
    /// A packet entered the queue. Depths are *after* the enqueue.
    Enqueue {
        /// Queue id.
        queue: u32,
        /// Flow the packet belongs to.
        flow: u64,
        /// Packet length on the wire.
        pkt_bytes: u32,
        /// Occupancy in packets after the enqueue.
        depth_pkts: u32,
        /// Occupancy in bytes after the enqueue.
        depth_bytes: u64,
    },
    /// A packet left the queue for transmission. Depths are *after* the
    /// dequeue.
    Dequeue {
        /// Queue id.
        queue: u32,
        /// Flow the packet belongs to.
        flow: u64,
        /// Packet length on the wire.
        pkt_bytes: u32,
        /// Whether the departing packet carries CE.
        ce: bool,
        /// Occupancy in packets after the dequeue.
        depth_pkts: u32,
        /// Occupancy in bytes after the dequeue.
        depth_bytes: u64,
    },
    /// A packet was dropped. Depths are *after* the drop took effect
    /// (unchanged for arrival-side drops, reduced for head drops).
    Drop {
        /// Queue id.
        queue: u32,
        /// Flow the packet belonged to.
        flow: u64,
        /// Packet length on the wire.
        pkt_bytes: u32,
        /// Why it was dropped.
        reason: DropReason,
        /// Occupancy in packets after the drop.
        depth_pkts: u32,
        /// Occupancy in bytes after the drop.
        depth_bytes: u64,
    },
    /// The marking policy ruled on an arriving packet. Emitted for every
    /// policy consultation, including packets later lost to overflow.
    MarkDecision {
        /// Queue id.
        queue: u32,
        /// Flow of the arriving packet.
        flow: u64,
        /// Occupancy in packets at arrival (excluding the packet).
        pre_pkts: u32,
        /// Occupancy in bytes at arrival (excluding the packet).
        pre_bytes: u64,
        /// The policy's verdict: mark CE?
        mark: bool,
        /// Whether CE was actually applied (verdict AND the packet was
        /// ECN-capable AND it was admitted).
        ce_applied: bool,
    },
    /// A transmitter finished serializing a packet.
    TxComplete {
        /// Link index.
        link: u32,
        /// Transmitting end (0 or 1).
        end: u8,
    },
    /// A fault-plan action fired.
    Fault {
        /// Link index.
        link: u32,
        /// What happened.
        kind: FaultKind,
    },
    /// A sender's congestion window or ssthresh changed.
    CwndUpdate {
        /// Flow id.
        flow: u64,
        /// New congestion window, in packets.
        cwnd: u32,
        /// New slow-start threshold, in packets.
        ssthresh: u32,
        /// Lowest unacknowledged byte at the update.
        snd_una: u64,
        /// What caused the change.
        cause: CwndCause,
    },
    /// A retransmission timeout fired.
    RtoFired {
        /// Flow id.
        flow: u64,
        /// Back-off exponent after this firing.
        backoff: u32,
        /// Consecutive RTOs without forward progress.
        consecutive: u32,
    },
    /// Third duplicate ACK: the sender entered fast recovery.
    FastRetransmitEnter {
        /// Flow id.
        flow: u64,
        /// Recovery point (highest byte sent when recovery began).
        recover: u64,
    },
    /// The sender left fast recovery.
    FastRetransmitExit {
        /// Flow id.
        flow: u64,
    },
    /// The sender aborted after too many consecutive RTOs.
    FlowAborted {
        /// Flow id.
        flow: u64,
        /// Consecutive RTOs at abort.
        consecutive: u32,
    },
    /// The receiver accepted a data packet.
    DataRecv {
        /// Flow id.
        flow: u64,
        /// Sequence number of the packet.
        seq: u64,
        /// Whether the packet arrived with CE.
        ce: bool,
    },
    /// The receiver's CE-echo state flipped (DCTCP delayed-ACK state
    /// machine). Emitted *after* any forced ACK flush that precedes the
    /// flip.
    CeState {
        /// Flow id.
        flow: u64,
        /// New echo state.
        ce: bool,
    },
    /// The receiver sent an ACK.
    AckSent {
        /// Flow id.
        flow: u64,
        /// Cumulative ACK number.
        ack: u64,
        /// ECN-echo flag carried.
        ece: bool,
    },
}

impl TraceKind {
    /// Stable lowercase variant name used in the JSONL export and digest.
    pub const fn name(&self) -> &'static str {
        match self {
            TraceKind::QueueInfo { .. } => "queue_info",
            TraceKind::Enqueue { .. } => "enqueue",
            TraceKind::Dequeue { .. } => "dequeue",
            TraceKind::Drop { .. } => "drop",
            TraceKind::MarkDecision { .. } => "mark_decision",
            TraceKind::TxComplete { .. } => "tx_complete",
            TraceKind::Fault { .. } => "fault",
            TraceKind::CwndUpdate { .. } => "cwnd_update",
            TraceKind::RtoFired { .. } => "rto_fired",
            TraceKind::FastRetransmitEnter { .. } => "fast_retransmit_enter",
            TraceKind::FastRetransmitExit { .. } => "fast_retransmit_exit",
            TraceKind::FlowAborted { .. } => "flow_aborted",
            TraceKind::DataRecv { .. } => "data_recv",
            TraceKind::CeState { .. } => "ce_state",
            TraceKind::AckSent { .. } => "ack_sent",
        }
    }
}

/// Number of distinct [`TraceKind`] variants (digest table size).
const KIND_COUNT: usize = 15;

/// All variant names in digest order.
const KIND_NAMES: [&str; KIND_COUNT] = [
    "queue_info",
    "enqueue",
    "dequeue",
    "drop",
    "mark_decision",
    "tx_complete",
    "fault",
    "cwnd_update",
    "rto_fired",
    "fast_retransmit_enter",
    "fast_retransmit_exit",
    "flow_aborted",
    "data_recv",
    "ce_state",
    "ack_sent",
];

impl TraceKind {
    const fn index(&self) -> usize {
        match self {
            TraceKind::QueueInfo { .. } => 0,
            TraceKind::Enqueue { .. } => 1,
            TraceKind::Dequeue { .. } => 2,
            TraceKind::Drop { .. } => 3,
            TraceKind::MarkDecision { .. } => 4,
            TraceKind::TxComplete { .. } => 5,
            TraceKind::Fault { .. } => 6,
            TraceKind::CwndUpdate { .. } => 7,
            TraceKind::RtoFired { .. } => 8,
            TraceKind::FastRetransmitEnter { .. } => 9,
            TraceKind::FastRetransmitExit { .. } => 10,
            TraceKind::FlowAborted { .. } => 11,
            TraceKind::DataRecv { .. } => 12,
            TraceKind::CeState { .. } => 13,
            TraceKind::AckSent { .. } => 14,
        }
    }
}

/// One recorded event: a simulation timestamp plus payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulation time in nanoseconds.
    pub t_ns: u64,
    /// Payload.
    pub kind: TraceKind,
}

/// Bounded ring-buffer event recorder.
///
/// A disabled tracer ([`Tracer::disabled`], or any scope not enabled in
/// its [`TraceConfig`]) costs a single branch per [`Tracer::record_with`]
/// call: the closure building the event is never invoked.
#[derive(Debug)]
pub struct Tracer {
    mask: u32,
    cap: usize,
    ring: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
}

impl Tracer {
    /// A recorder with the given configuration. A zero capacity or empty
    /// scope set yields a disabled tracer.
    pub fn new(cfg: TraceConfig) -> Self {
        let mask = if cfg.capacity == 0 { 0 } else { cfg.scopes.0 };
        Tracer {
            mask,
            cap: cfg.capacity,
            ring: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// The cheap no-op recorder: one branch per record call, no
    /// allocation.
    pub fn disabled() -> Self {
        Tracer {
            mask: 0,
            cap: 0,
            ring: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Whether any scope records.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mask != 0
    }

    /// Whether `scope` records.
    #[inline]
    pub fn scope_enabled(&self, scope: TraceScope) -> bool {
        self.mask & scope.0 != 0
    }

    /// Records the event built by `f` at time `t_ns`, if `scope` is
    /// enabled. When the scope is disabled this is one branch and `f` is
    /// never called.
    #[inline]
    pub fn record_with(&mut self, scope: TraceScope, t_ns: u64, f: impl FnOnce() -> TraceKind) {
        if self.mask & scope.0 == 0 {
            return;
        }
        self.push(TraceEvent { t_ns, kind: f() });
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.ring.len() < self.cap {
            self.ring.push(ev);
        } else {
            // Full: overwrite the oldest event and count it as lost.
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events lost to ring overwrite so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the recorder, yielding retained events in chronological
    /// order.
    pub fn into_log(mut self) -> TraceLog {
        // When the ring wrapped, `head` points at the oldest event.
        self.ring.rotate_left(self.head);
        TraceLog {
            events: self.ring,
            dropped: self.dropped,
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

/// A finished trace: retained events plus the count lost to ring
/// overwrite.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Retained events, chronological.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrite (the *oldest* events are lost
    /// first, so the retained suffix is still contiguous).
    pub dropped: u64,
}

impl TraceLog {
    /// Summarizes the trace into a deterministic digest.
    pub fn digest(&self) -> TraceDigest {
        let mut counts = [0u64; KIND_COUNT];
        let mut peak_queue_pkts: u32 = 0;
        let mut depth_sum: u64 = 0;
        let mut depth_samples: u64 = 0;
        let mut ce_marks: u64 = 0;
        let mut drops: u64 = 0;
        for ev in &self.events {
            counts[ev.kind.index()] += 1;
            match ev.kind {
                TraceKind::Enqueue { depth_pkts, .. } | TraceKind::Dequeue { depth_pkts, .. } => {
                    peak_queue_pkts = peak_queue_pkts.max(depth_pkts);
                    depth_sum += depth_pkts as u64;
                    depth_samples += 1;
                }
                TraceKind::Drop { .. } => drops += 1,
                TraceKind::MarkDecision { ce_applied, .. } => ce_marks += ce_applied as u64,
                _ => {}
            }
        }
        TraceDigest {
            counts,
            peak_queue_pkts,
            mean_queue_pkts: if depth_samples == 0 {
                0.0
            } else {
                depth_sum as f64 / depth_samples as f64
            },
            ce_marks,
            drops,
            dropped_events: self.dropped,
        }
    }

    /// Serializes the trace as `dctcp-trace/v1` JSONL: a header line,
    /// then one flat JSON object per event.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(
            w,
            "{{\"schema\": \"dctcp-trace/v1\", \"events\": {}, \"dropped\": {}}}",
            self.events.len(),
            self.dropped
        )?;
        let mut line = String::with_capacity(160);
        for ev in &self.events {
            line.clear();
            render_event(&mut line, ev);
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// [`TraceLog::write_jsonl`] into a `String`.
    pub fn to_jsonl_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("JSONL output is ASCII")
    }
}

/// Renders one event as a flat JSON object (all values numeric, boolean,
/// or fixed lowercase names — no escaping needed).
fn render_event(out: &mut String, ev: &TraceEvent) {
    let t = ev.t_ns;
    let name = ev.kind.name();
    let _ = write!(out, "{{\"t_ns\": {t}, \"kind\": \"{name}\"");
    match ev.kind {
        TraceKind::QueueInfo {
            queue,
            link,
            capacity_pkts,
            capacity_bytes,
            threshold,
        } => {
            let _ = write!(out, ", \"queue\": {queue}, \"link\": {link}");
            match capacity_pkts {
                Some(c) => {
                    let _ = write!(out, ", \"capacity_pkts\": {c}");
                }
                None => out.push_str(", \"capacity_pkts\": null"),
            }
            match capacity_bytes {
                Some(c) => {
                    let _ = write!(out, ", \"capacity_bytes\": {c}");
                }
                None => out.push_str(", \"capacity_bytes\": null"),
            }
            match threshold {
                MarkThreshold::None => out.push_str(", \"threshold\": \"none\""),
                MarkThreshold::Single { k, bytes } => {
                    let _ = write!(
                        out,
                        ", \"threshold\": \"single\", \"k\": {k}, \"unit_bytes\": {bytes}"
                    );
                }
                MarkThreshold::Hysteresis { k1, k2, bytes } => {
                    let _ = write!(
                        out,
                        ", \"threshold\": \"hysteresis\", \"k1\": {k1}, \"k2\": {k2}, \"unit_bytes\": {bytes}"
                    );
                }
            }
        }
        TraceKind::Enqueue {
            queue,
            flow,
            pkt_bytes,
            depth_pkts,
            depth_bytes,
        } => {
            let _ = write!(
                out,
                ", \"queue\": {queue}, \"flow\": {flow}, \"pkt_bytes\": {pkt_bytes}, \"depth_pkts\": {depth_pkts}, \"depth_bytes\": {depth_bytes}"
            );
        }
        TraceKind::Dequeue {
            queue,
            flow,
            pkt_bytes,
            ce,
            depth_pkts,
            depth_bytes,
        } => {
            let _ = write!(
                out,
                ", \"queue\": {queue}, \"flow\": {flow}, \"pkt_bytes\": {pkt_bytes}, \"ce\": {ce}, \"depth_pkts\": {depth_pkts}, \"depth_bytes\": {depth_bytes}"
            );
        }
        TraceKind::Drop {
            queue,
            flow,
            pkt_bytes,
            reason,
            depth_pkts,
            depth_bytes,
        } => {
            let _ = write!(
                out,
                ", \"queue\": {queue}, \"flow\": {flow}, \"pkt_bytes\": {pkt_bytes}, \"reason\": \"{}\", \"depth_pkts\": {depth_pkts}, \"depth_bytes\": {depth_bytes}",
                reason.name()
            );
        }
        TraceKind::MarkDecision {
            queue,
            flow,
            pre_pkts,
            pre_bytes,
            mark,
            ce_applied,
        } => {
            let _ = write!(
                out,
                ", \"queue\": {queue}, \"flow\": {flow}, \"pre_pkts\": {pre_pkts}, \"pre_bytes\": {pre_bytes}, \"mark\": {mark}, \"ce_applied\": {ce_applied}"
            );
        }
        TraceKind::TxComplete { link, end } => {
            let _ = write!(out, ", \"link\": {link}, \"end\": {end}");
        }
        TraceKind::Fault { link, kind } => {
            let _ = write!(out, ", \"link\": {link}, \"fault\": \"{}\"", kind.name());
        }
        TraceKind::CwndUpdate {
            flow,
            cwnd,
            ssthresh,
            snd_una,
            cause,
        } => {
            let _ = write!(
                out,
                ", \"flow\": {flow}, \"cwnd\": {cwnd}, \"ssthresh\": {ssthresh}, \"snd_una\": {snd_una}, \"cause\": \"{}\"",
                cause.name()
            );
        }
        TraceKind::RtoFired {
            flow,
            backoff,
            consecutive,
        } => {
            let _ = write!(
                out,
                ", \"flow\": {flow}, \"backoff\": {backoff}, \"consecutive\": {consecutive}"
            );
        }
        TraceKind::FastRetransmitEnter { flow, recover } => {
            let _ = write!(out, ", \"flow\": {flow}, \"recover\": {recover}");
        }
        TraceKind::FastRetransmitExit { flow } => {
            let _ = write!(out, ", \"flow\": {flow}");
        }
        TraceKind::FlowAborted { flow, consecutive } => {
            let _ = write!(out, ", \"flow\": {flow}, \"consecutive\": {consecutive}");
        }
        TraceKind::DataRecv { flow, seq, ce } => {
            let _ = write!(out, ", \"flow\": {flow}, \"seq\": {seq}, \"ce\": {ce}");
        }
        TraceKind::CeState { flow, ce } => {
            let _ = write!(out, ", \"flow\": {flow}, \"ce\": {ce}");
        }
        TraceKind::AckSent { flow, ack, ece } => {
            let _ = write!(out, ", \"flow\": {flow}, \"ack\": {ack}, \"ece\": {ece}");
        }
    }
    out.push('}');
}

/// Deterministic summary of a [`TraceLog`]: per-kind event counts plus
/// queue/marking aggregates. [`TraceDigest::render`] produces the stable
/// text compared against golden snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDigest {
    counts: [u64; KIND_COUNT],
    /// Highest post-event packet occupancy seen on any queue.
    pub peak_queue_pkts: u32,
    /// Mean post-event packet occupancy over enqueue/dequeue samples.
    pub mean_queue_pkts: f64,
    /// CE marks actually applied.
    pub ce_marks: u64,
    /// Packets dropped (all reasons).
    pub drops: u64,
    /// Events lost to ring overwrite.
    pub dropped_events: u64,
}

impl TraceDigest {
    /// The count of events of kind `name` (a [`TraceKind::name`] value);
    /// zero for unknown names.
    pub fn count(&self, name: &str) -> u64 {
        KIND_NAMES
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.counts[i])
    }

    /// Total events summarized.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Stable multi-line text form, suitable for golden-snapshot
    /// comparison: one `key: value` pair per line, fixed ordering and
    /// fixed float precision.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("dctcp-trace/v1 digest\n");
        let _ = writeln!(out, "total_events: {}", self.total_events());
        let _ = writeln!(out, "dropped_events: {}", self.dropped_events);
        for (i, name) in KIND_NAMES.iter().enumerate() {
            let _ = writeln!(out, "count.{name}: {}", self.counts[i]);
        }
        let _ = writeln!(out, "peak_queue_pkts: {}", self.peak_queue_pkts);
        let _ = writeln!(out, "mean_queue_pkts: {:.6}", self.mean_queue_pkts);
        let _ = writeln!(out, "ce_marks: {}", self.ce_marks);
        let _ = writeln!(out, "drops: {}", self.drops);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enqueue(queue: u32, depth: u32) -> TraceKind {
        TraceKind::Enqueue {
            queue,
            flow: 7,
            pkt_bytes: 1500,
            depth_pkts: depth,
            depth_bytes: depth as u64 * 1500,
        }
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let mut t = Tracer::disabled();
        t.record_with(TraceScope::QUEUE, 1, || {
            panic!("closure must not run when disabled")
        });
        assert!(!t.enabled());
        assert!(t.into_log().events.is_empty());
    }

    #[test]
    fn scope_mask_filters_per_component() {
        let mut t = Tracer::new(TraceConfig {
            capacity: 16,
            scopes: TraceScope::QUEUE,
        });
        t.record_with(TraceScope::QUEUE, 1, || enqueue(0, 1));
        t.record_with(TraceScope::TCP, 2, || panic!("TCP scope is disabled"));
        let log = t.into_log();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].t_ns, 1);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_lost() {
        let mut t = Tracer::new(TraceConfig::with_capacity(3));
        for i in 0..5u64 {
            t.record_with(TraceScope::QUEUE, i, || enqueue(0, i as u32));
        }
        let log = t.into_log();
        assert_eq!(log.dropped, 2);
        let times: Vec<u64> = log.events.iter().map(|e| e.t_ns).collect();
        assert_eq!(times, vec![2, 3, 4], "oldest lost, order preserved");
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let t = Tracer::new(TraceConfig::with_capacity(0));
        assert!(!t.enabled());
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_event() {
        let mut t = Tracer::new(TraceConfig::with_capacity(8));
        t.record_with(TraceScope::QUEUE, 5, || enqueue(1, 1));
        t.record_with(TraceScope::QUEUE, 9, || TraceKind::Drop {
            queue: 1,
            flow: 7,
            pkt_bytes: 1500,
            reason: DropReason::Overflow,
            depth_pkts: 1,
            depth_bytes: 1500,
        });
        let body = t.into_log().to_jsonl_string();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\": \"dctcp-trace/v1\""));
        assert!(lines[1].contains("\"kind\": \"enqueue\""));
        assert!(lines[2].contains("\"reason\": \"overflow\""));
    }

    #[test]
    fn digest_counts_and_aggregates() {
        let mut t = Tracer::new(TraceConfig::with_capacity(64));
        for d in 1..=4u32 {
            t.record_with(TraceScope::QUEUE, d as u64, || enqueue(0, d));
        }
        t.record_with(TraceScope::QUEUE, 9, || TraceKind::MarkDecision {
            queue: 0,
            flow: 7,
            pre_pkts: 4,
            pre_bytes: 6000,
            mark: true,
            ce_applied: true,
        });
        let d = t.into_log().digest();
        assert_eq!(d.count("enqueue"), 4);
        assert_eq!(d.count("mark_decision"), 1);
        assert_eq!(d.peak_queue_pkts, 4);
        assert_eq!(d.mean_queue_pkts, 2.5);
        assert_eq!(d.ce_marks, 1);
        assert_eq!(d.total_events(), 5);
    }

    #[test]
    fn digest_render_is_stable() {
        let mut t = Tracer::new(TraceConfig::with_capacity(8));
        t.record_with(TraceScope::QUEUE, 1, || enqueue(0, 1));
        let log = t.into_log();
        assert_eq!(log.digest().render(), log.digest().render());
        assert!(log.digest().render().starts_with("dctcp-trace/v1 digest\n"));
    }

    #[test]
    fn kind_name_matches_index_table() {
        // Guards the parallel arrays against drift when variants change.
        let samples = [
            enqueue(0, 1),
            TraceKind::TxComplete { link: 0, end: 0 },
            TraceKind::AckSent {
                flow: 1,
                ack: 0,
                ece: false,
            },
        ];
        for k in samples {
            assert_eq!(KIND_NAMES[k.index()], k.name());
        }
    }
}
