//! Replayable invariant oracle.
//!
//! [`check_log`] replays a finished [`TraceLog`] and machine-checks
//! conservation and protocol laws:
//!
//! 1. **Queue conservation** — occupancy equals enqueues − dequeues −
//!    head drops, never goes negative, and never exceeds the queue's
//!    declared capacity.
//! 2. **Marking law** — a single-threshold (DCTCP) queue marks exactly
//!    iff the occupancy at arrival is at least `K`; a hysteresis
//!    (DT-DCTCP) queue's decisions replay the K1/K2 automaton exactly.
//! 3. **Monotonicity** — cumulative ACK numbers and the sender's
//!    `snd_una` never regress per flow.
//! 4. **CE echo** — the receiver's echo state flips only on a CE change
//!    observed in data, and every ACK carries the state current at its
//!    emission (the DCTCP delayed-ACK state machine).
//! 5. **Work conservation** — an up link with a non-empty queue and an
//!    idle transmitter starts transmitting immediately (a dequeue or a
//!    head drop at the same instant).
//!
//! Laws 1–3 are checked on any log (the ring drops *oldest* events
//! first, so the retained suffix is contiguous and self-consistent).
//! Laws 4–5 and the hysteresis replay need the missing prefix's state,
//! so they are skipped when [`TraceLog::dropped`] is non-zero; size the
//! ring to the run when you want the full oracle. All stateful checks
//! assume tracing was enabled from simulation start.

use std::collections::HashMap;
use std::fmt;

use crate::{DropReason, FaultKind, MarkThreshold, TraceKind, TraceLog};

/// Stop collecting after this many violations: a broken invariant tends
/// to fire on every subsequent event, and the first few are what matter.
const MAX_VIOLATIONS: usize = 100;

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which check fired (stable snake_case name).
    pub check: &'static str,
    /// Simulation time of the offending event.
    pub t_ns: u64,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} @ {}ns] {}", self.check, self.t_ns, self.detail)
    }
}

#[derive(Default)]
struct QueueState {
    /// Replayed occupancy; `None` until the first depth-bearing event.
    depth: Option<(i64, i64)>,
    cap_pkts: Option<u32>,
    cap_bytes: Option<u64>,
    link: Option<u32>,
    threshold: Option<MarkThreshold>,
    /// Hysteresis replay state (armed, previous measure).
    hyst: (bool, f64),
    /// Whether the port's transmitter is serializing a packet.
    busy: bool,
}

#[derive(Default)]
struct FlowState {
    last_ack: Option<u64>,
    last_snd_una: Option<u64>,
    /// Replayed receiver CE-echo state.
    ce: bool,
    last_data_ce: Option<bool>,
}

/// Replays `log` and returns every violation found (empty = all
/// invariants hold). See the module docs for the law catalog and the
/// rules on partial (ring-wrapped) logs.
pub fn check_log(log: &TraceLog) -> Vec<Violation> {
    let mut out = Vec::new();
    let stateful = log.dropped == 0;
    let mut queues: HashMap<u32, QueueState> = HashMap::new();
    let mut flows: HashMap<u64, FlowState> = HashMap::new();
    let mut link_up: HashMap<u32, bool> = HashMap::new();

    for (i, ev) in log.events.iter().enumerate() {
        if out.len() >= MAX_VIOLATIONS {
            break;
        }
        let t = ev.t_ns;
        match ev.kind {
            TraceKind::QueueInfo {
                queue,
                link,
                capacity_pkts,
                capacity_bytes,
                threshold,
            } => {
                let q = queues.entry(queue).or_default();
                q.cap_pkts = capacity_pkts;
                q.cap_bytes = capacity_bytes;
                q.link = Some(link);
                q.threshold = Some(threshold);
            }
            TraceKind::Enqueue {
                queue,
                pkt_bytes,
                depth_pkts,
                depth_bytes,
                ..
            } => {
                apply_depth(
                    &mut out,
                    queues.entry(queue).or_default(),
                    queue,
                    t,
                    (1, pkt_bytes as i64),
                    (depth_pkts, depth_bytes),
                );
                let q = &queues[&queue];
                if stateful && !q.busy && is_up(&link_up, q.link) {
                    require_service(&mut out, log, i, queue, t, "enqueue to idle port");
                }
            }
            TraceKind::Dequeue {
                queue,
                pkt_bytes,
                depth_pkts,
                depth_bytes,
                ..
            } => {
                let q = queues.entry(queue).or_default();
                apply_depth(
                    &mut out,
                    q,
                    queue,
                    t,
                    (-1, -(pkt_bytes as i64)),
                    (depth_pkts, depth_bytes),
                );
                q.busy = true;
                // A departure is an on_dequeue call: advance the
                // hysteresis automaton.
                if stateful {
                    if let Some(MarkThreshold::Hysteresis { k1, k2, bytes }) = q.threshold {
                        let m = if bytes {
                            depth_bytes as f64
                        } else {
                            depth_pkts as f64
                        };
                        let (armed, prev) = q.hyst;
                        let mut armed = armed;
                        if prev >= k2 && m < k2 {
                            armed = false;
                        }
                        if m < k1 {
                            armed = false;
                        }
                        q.hyst = (armed, m);
                    }
                }
            }
            TraceKind::Drop {
                queue,
                pkt_bytes,
                reason,
                depth_pkts,
                depth_bytes,
                ..
            } => {
                let delta = if reason == DropReason::AqmHead {
                    (-1, -(pkt_bytes as i64))
                } else {
                    (0, 0)
                };
                apply_depth(
                    &mut out,
                    queues.entry(queue).or_default(),
                    queue,
                    t,
                    delta,
                    (depth_pkts, depth_bytes),
                );
            }
            TraceKind::MarkDecision {
                queue,
                pre_pkts,
                pre_bytes,
                mark,
                ce_applied,
                ..
            } => {
                if ce_applied && !mark {
                    out.push(Violation {
                        check: "marking_law",
                        t_ns: t,
                        detail: format!("queue {queue}: CE applied without a mark verdict"),
                    });
                }
                let q = queues.entry(queue).or_default();
                match q.threshold {
                    Some(MarkThreshold::Single { k, bytes }) => {
                        let m = if bytes {
                            pre_bytes as f64
                        } else {
                            pre_pkts as f64
                        };
                        let expect = m >= k;
                        if mark != expect {
                            out.push(Violation {
                                check: "marking_law",
                                t_ns: t,
                                detail: format!(
                                    "queue {queue}: single-threshold K={k} saw occupancy {m} but \
                                     {} (expected {})",
                                    verdict(mark),
                                    verdict(expect)
                                ),
                            });
                        }
                    }
                    Some(MarkThreshold::Hysteresis { k1, k2, bytes }) if stateful => {
                        let m = if bytes {
                            pre_bytes as f64
                        } else {
                            pre_pkts as f64
                        };
                        let (armed, prev) = q.hyst;
                        // Arms at/above K2 unconditionally, or on an
                        // upward K1 crossing.
                        let armed = armed || m >= k2 || (prev < k1 && m >= k1);
                        q.hyst = (armed, m);
                        if mark != armed {
                            out.push(Violation {
                                check: "marking_law",
                                t_ns: t,
                                detail: format!(
                                    "queue {queue}: hysteresis K1={k1} K2={k2} at occupancy {m} \
                                     {} but automaton is {}",
                                    verdict(mark),
                                    if armed { "armed" } else { "disarmed" }
                                ),
                            });
                        }
                    }
                    _ => {}
                }
            }
            TraceKind::TxComplete { link, end } => {
                let queue = link * 2 + end as u32;
                let q = queues.entry(queue).or_default();
                q.busy = false;
                let depth = q.depth.map_or(0, |(p, _)| p);
                if stateful && depth > 0 && is_up(&link_up, Some(link)) {
                    require_service(&mut out, log, i, queue, t, "tx-complete on backlogged port");
                }
            }
            TraceKind::Fault { link, kind } => {
                match kind {
                    FaultKind::LinkDown => {
                        link_up.insert(link, false);
                    }
                    FaultKind::LinkUp => {
                        link_up.insert(link, true);
                        if stateful {
                            // Restoration restarts both transmitters.
                            for end in 0..2u32 {
                                let queue = link * 2 + end;
                                let q = queues.entry(queue).or_default();
                                if !q.busy && q.depth.map_or(0, |(p, _)| p) > 0 {
                                    require_service(
                                        &mut out,
                                        log,
                                        i,
                                        queue,
                                        t,
                                        "link restored with backlog",
                                    );
                                }
                            }
                        }
                    }
                    FaultKind::BleachOn | FaultKind::BleachOff => {}
                }
            }
            TraceKind::CwndUpdate { flow, snd_una, .. } => {
                let f = flows.entry(flow).or_default();
                if let Some(prev) = f.last_snd_una {
                    if snd_una < prev {
                        out.push(Violation {
                            check: "monotonicity",
                            t_ns: t,
                            detail: format!("flow {flow}: snd_una regressed {prev} -> {snd_una}"),
                        });
                    }
                }
                f.last_snd_una = Some(snd_una);
            }
            TraceKind::AckSent { flow, ack, ece } => {
                let f = flows.entry(flow).or_default();
                if let Some(prev) = f.last_ack {
                    if ack < prev {
                        out.push(Violation {
                            check: "monotonicity",
                            t_ns: t,
                            detail: format!("flow {flow}: ACK regressed {prev} -> {ack}"),
                        });
                    }
                }
                f.last_ack = Some(ack);
                if stateful && ece != f.ce {
                    out.push(Violation {
                        check: "ce_echo",
                        t_ns: t,
                        detail: format!(
                            "flow {flow}: ACK carries ECE={ece} but echo state is {}",
                            f.ce
                        ),
                    });
                }
            }
            TraceKind::DataRecv { flow, ce, .. } => {
                flows.entry(flow).or_default().last_data_ce = Some(ce);
            }
            TraceKind::CeState { flow, ce } => {
                let f = flows.entry(flow).or_default();
                if stateful {
                    if ce == f.ce {
                        out.push(Violation {
                            check: "ce_echo",
                            t_ns: t,
                            detail: format!("flow {flow}: echo state set to {ce} without a flip"),
                        });
                    }
                    if f.last_data_ce != Some(ce) {
                        out.push(Violation {
                            check: "ce_echo",
                            t_ns: t,
                            detail: format!(
                                "flow {flow}: echo state {ce} does not match last data CE {:?}",
                                f.last_data_ce
                            ),
                        });
                    }
                }
                f.ce = ce;
            }
            TraceKind::RtoFired { .. }
            | TraceKind::FastRetransmitEnter { .. }
            | TraceKind::FastRetransmitExit { .. }
            | TraceKind::FlowAborted { .. } => {}
        }
    }
    out
}

fn verdict(mark: bool) -> &'static str {
    if mark {
        "marked"
    } else {
        "did not mark"
    }
}

fn is_up(link_up: &HashMap<u32, bool>, link: Option<u32>) -> bool {
    link.is_none_or(|l| *link_up.get(&l).unwrap_or(&true))
}

/// Applies a depth delta, checking continuity against the reported
/// occupancy and the queue's capacity bounds.
fn apply_depth(
    out: &mut Vec<Violation>,
    q: &mut QueueState,
    queue: u32,
    t: u64,
    delta: (i64, i64),
    reported: (u32, u64),
) {
    let (rep_p, rep_b) = (reported.0 as i64, reported.1 as i64);
    if let Some((p, b)) = q.depth {
        let (exp_p, exp_b) = (p + delta.0, b + delta.1);
        if (exp_p, exp_b) != (rep_p, rep_b) {
            out.push(Violation {
                check: "queue_conservation",
                t_ns: t,
                detail: format!(
                    "queue {queue}: replay expects {exp_p} pkts / {exp_b} B, event reports \
                     {rep_p} pkts / {rep_b} B"
                ),
            });
        }
    }
    if rep_p < 0 || rep_b < 0 {
        out.push(Violation {
            check: "queue_conservation",
            t_ns: t,
            detail: format!("queue {queue}: negative occupancy {rep_p} pkts / {rep_b} B"),
        });
    }
    if let Some(cap) = q.cap_pkts {
        if reported.0 > cap {
            out.push(Violation {
                check: "queue_conservation",
                t_ns: t,
                detail: format!(
                    "queue {queue}: occupancy {} pkts exceeds capacity {cap}",
                    reported.0
                ),
            });
        }
    }
    if let Some(cap) = q.cap_bytes {
        if reported.1 > cap {
            out.push(Violation {
                check: "queue_conservation",
                t_ns: t,
                detail: format!(
                    "queue {queue}: occupancy {} B exceeds capacity {cap} B",
                    reported.1
                ),
            });
        }
    }
    // Resync to the reported depth so one mismatch is one violation,
    // not a cascade.
    q.depth = Some((rep_p, rep_b));
}

/// A service obligation at instant `t` on `queue`: some departure (a
/// dequeue or a CoDel head drop) must also happen at `t`, after event
/// `at` in trace order.
fn require_service(
    out: &mut Vec<Violation>,
    log: &TraceLog,
    at: usize,
    queue: u32,
    t: u64,
    why: &str,
) {
    let served = log.events[at + 1..]
        .iter()
        .take_while(|ev| ev.t_ns == t)
        .any(|ev| match ev.kind {
            TraceKind::Dequeue { queue: q, .. } => q == queue,
            TraceKind::Drop {
                queue: q, reason, ..
            } => q == queue && reason == DropReason::AqmHead,
            _ => false,
        });
    if !served {
        out.push(Violation {
            check: "work_conservation",
            t_ns: t,
            detail: format!("queue {queue}: {why} but no departure at the same instant"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn log(events: Vec<TraceEvent>) -> TraceLog {
        TraceLog { events, dropped: 0 }
    }

    fn ev(t_ns: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { t_ns, kind }
    }

    fn info(queue: u32, cap: u32, threshold: MarkThreshold) -> TraceEvent {
        ev(
            0,
            TraceKind::QueueInfo {
                queue,
                link: queue / 2,
                capacity_pkts: Some(cap),
                capacity_bytes: None,
                threshold,
            },
        )
    }

    fn enq(t: u64, queue: u32, depth: u32) -> TraceEvent {
        ev(
            t,
            TraceKind::Enqueue {
                queue,
                flow: 1,
                pkt_bytes: 1500,
                depth_pkts: depth,
                depth_bytes: depth as u64 * 1500,
            },
        )
    }

    fn deq(t: u64, queue: u32, depth: u32) -> TraceEvent {
        ev(
            t,
            TraceKind::Dequeue {
                queue,
                flow: 1,
                pkt_bytes: 1500,
                ce: false,
                depth_pkts: depth,
                depth_bytes: depth as u64 * 1500,
            },
        )
    }

    fn mark(t: u64, queue: u32, pre: u32, mark: bool) -> TraceEvent {
        ev(
            t,
            TraceKind::MarkDecision {
                queue,
                flow: 1,
                pre_pkts: pre,
                pre_bytes: pre as u64 * 1500,
                mark,
                ce_applied: mark,
            },
        )
    }

    #[test]
    fn clean_queue_episode_passes() {
        let l = log(vec![
            info(0, 10, MarkThreshold::None),
            enq(5, 0, 1),
            deq(5, 0, 0),
            ev(100, TraceKind::TxComplete { link: 0, end: 0 }),
        ]);
        assert_eq!(check_log(&l), vec![]);
    }

    #[test]
    fn conservation_catches_depth_jump() {
        let l = log(vec![
            info(0, 10, MarkThreshold::None),
            enq(1, 0, 1),
            deq(1, 0, 0),
            enq(2, 0, 3),
            deq(2, 0, 2),
        ]);
        let v: Vec<_> = check_log(&l)
            .into_iter()
            .filter(|v| v.check == "queue_conservation")
            .collect();
        // The bogus jump at t=2 breaks the enqueue replay once; after
        // resyncing to the reported depth the dequeue agrees again.
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("replay expects 1 pkts"));
    }

    #[test]
    fn conservation_catches_capacity_excess() {
        let l = log(vec![
            info(0, 1, MarkThreshold::None),
            enq(1, 0, 1),
            enq(2, 0, 2),
        ]);
        let v = check_log(&l);
        assert!(v.iter().any(|v| v.detail.contains("exceeds capacity")));
    }

    #[test]
    fn single_threshold_law_catches_missing_mark() {
        let th = MarkThreshold::Single {
            k: 5.0,
            bytes: false,
        };
        let ok = log(vec![
            info(0, 100, th),
            mark(1, 0, 4, false),
            mark(2, 0, 5, true),
        ]);
        assert_eq!(check_log(&ok), vec![]);
        let bad = log(vec![info(0, 100, th), mark(1, 0, 5, false)]);
        let v = check_log(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "marking_law");
    }

    #[test]
    fn hysteresis_replay_follows_automaton() {
        let th = MarkThreshold::Hysteresis {
            k1: 3.0,
            k2: 5.0,
            bytes: false,
        };
        // Rise through K1 (marks), fall through K2 (disarms), arrival in
        // the band stays unmarked: the legal story.
        let ok = log(vec![
            info(0, 100, th),
            mark(1, 0, 2, false),
            mark(2, 0, 3, true),
            mark(3, 0, 6, true),
            deq(4, 0, 4),
            mark(5, 0, 4, false),
        ]);
        assert_eq!(check_log(&ok), vec![]);
        // Same prefix but the in-band arrival claims a mark: chatter the
        // automaton forbids.
        let bad = log(vec![
            info(0, 100, th),
            mark(1, 0, 2, false),
            mark(2, 0, 3, true),
            mark(3, 0, 6, true),
            deq(4, 0, 4),
            mark(5, 0, 4, true),
        ]);
        let v = check_log(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "marking_law");
    }

    #[test]
    fn hysteresis_skipped_on_partial_log() {
        let th = MarkThreshold::Hysteresis {
            k1: 3.0,
            k2: 5.0,
            bytes: false,
        };
        // A lone in-band mark is only legal given unseen prior arming —
        // with a wrapped ring the oracle must not flag it.
        let mut l = log(vec![info(0, 100, th), mark(5, 0, 4, true)]);
        l.dropped = 7;
        assert_eq!(check_log(&l), vec![]);
    }

    #[test]
    fn monotonicity_catches_ack_regression() {
        let l = log(vec![
            ev(
                1,
                TraceKind::AckSent {
                    flow: 9,
                    ack: 3000,
                    ece: false,
                },
            ),
            ev(
                2,
                TraceKind::AckSent {
                    flow: 9,
                    ack: 1500,
                    ece: false,
                },
            ),
        ]);
        let v = check_log(&l);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "monotonicity");
    }

    #[test]
    fn ce_echo_requires_state_match() {
        let ok = log(vec![
            ev(
                1,
                TraceKind::DataRecv {
                    flow: 9,
                    seq: 0,
                    ce: true,
                },
            ),
            ev(
                1,
                TraceKind::AckSent {
                    flow: 9,
                    ack: 1500,
                    ece: false,
                },
            ),
            ev(1, TraceKind::CeState { flow: 9, ce: true }),
            ev(
                2,
                TraceKind::AckSent {
                    flow: 9,
                    ack: 3000,
                    ece: true,
                },
            ),
        ]);
        assert_eq!(check_log(&ok), vec![]);
        // ECE claimed before any CE was observed.
        let bad = log(vec![ev(
            1,
            TraceKind::AckSent {
                flow: 9,
                ack: 1500,
                ece: true,
            },
        )]);
        let v = check_log(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "ce_echo");
    }

    #[test]
    fn work_conservation_catches_idle_backlogged_port() {
        let l = log(vec![
            info(0, 10, MarkThreshold::None),
            enq(1, 0, 1),
            deq(1, 0, 0),
            enq(5, 0, 1),
            // Transmitter finishes at t=9 with backlog, but nothing
            // departs at t=9.
            ev(9, TraceKind::TxComplete { link: 0, end: 0 }),
            deq(12, 0, 0),
        ]);
        let v = check_log(&l);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "work_conservation");
    }

    #[test]
    fn work_conservation_respects_link_down() {
        let l = log(vec![
            info(0, 10, MarkThreshold::None),
            enq(1, 0, 1),
            deq(1, 0, 0),
            enq(5, 0, 1),
            ev(
                6,
                TraceKind::Fault {
                    link: 0,
                    kind: FaultKind::LinkDown,
                },
            ),
            ev(9, TraceKind::TxComplete { link: 0, end: 0 }),
        ]);
        assert_eq!(check_log(&l), vec![]);
    }

    #[test]
    fn violation_display_names_check_and_time() {
        let v = Violation {
            check: "marking_law",
            t_ns: 42,
            detail: "boom".into(),
        };
        assert_eq!(v.to_string(), "[marking_law @ 42ns] boom");
    }
}
