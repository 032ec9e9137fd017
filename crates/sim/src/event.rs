//! The event queue: a two-level bucketed calendar queue.
//!
//! The future-event list is the hottest structure in the engine — every
//! packet costs four to six schedule/pop round-trips — so it is built
//! for the event mix discrete-event network simulations actually
//! produce: almost all deadlines land within a few link round-trips of
//! the clock, with a thin tail of far-out timers (RTOs, flow starts,
//! fault plans).
//!
//! * **Level 0 — timer wheel.** A power-of-two array of buckets, each
//!   covering [`BUCKET_WIDTH_NS`] nanoseconds, spanning a sliding window
//!   of ~1 ms ahead of the cursor. Scheduling is O(1) (append to the
//!   deadline's bucket); popping scans an occupancy bitmap to the next
//!   non-empty bucket. The first pop from a bucket sorts it once,
//!   latest `(at, prio, seq)` first, and every pop then takes its tail,
//!   so draining a bucket of `B` events costs O(B log B), not the
//!   O(B²) of a min-scan per pop. Until the cursor moves on, schedules
//!   into that one bucket insert in order; every other bucket appends.
//!   Because the window is exactly one wheel revolution, a bucket never
//!   mixes events from different laps.
//! * **Level 1 — sorted overflow.** Deadlines beyond the window go to a
//!   binary heap ordered by `(at, prio, seq)` and migrate into the wheel
//!   as the cursor advances toward them.
//!
//! All ordering decisions compare the key `(at, prio, seq)` — a
//! **content-derived** key, fixed by the event's origin and drawn when
//! the event is decided, not when it enters the queue:
//!
//! * `at` is the deadline;
//! * `prio` is the *scheduling instant* (the clock value when the event
//!   was scheduled);
//! * `seq` packs the event's **origin** (the node whose local activity
//!   caused the schedule — an agent callback, a transmitter on one of
//!   the node's link ends, or the topology-wide fault pseudo-origin)
//!   with a per-origin monotone counter:
//!   `seq = origin << SEQ_COUNTER_BITS | counter`.
//!
//! For a serial run with a single origin this degenerates to the classic
//! `(at, seq)` FIFO order: the clock never runs backwards, so `prio` is
//! nondecreasing in the counter and same-instant events fire in
//! scheduling order. With multiple origins, ties at equal `(at, sched)`
//! break by origin index, then per-origin scheduling order — arbitrary
//! but *reproducible from the event's content alone*. That is what lets
//! the engine schedule transmit completions lazily: a transmission draws
//! its `TxComplete` key from its node's counter at transmission start
//! ([`EventQueue::next_seq`]), and the event enters the queue
//! ([`EventQueue::insert_keyed`]) only if a backlog forms behind it. It
//! then sorts exactly where an eagerly scheduled completion would have,
//! and every other event keeps the key — and with it the dispatch
//! order — it has under eager completions, which the golden digests pin.
//!
//! The queue also owns the in-flight **packet slab**: arrival events
//! carry a `u32` slot into a recycled [`Packet`] arena instead of an
//! inline packet, which keeps [`ScheduledEvent`] small (cheaper bucket
//! scans and `swap_remove` moves on the hot path) and makes the
//! steady-state forwarding path allocation-free.
//!
//! Timer cancellation is O(1): [`EventQueue::cancel_timer`] records a
//! tombstone and the pop path drops the stale entry inside the queue,
//! so cancelled retransmit timers are never dispatched to an agent.
//! Tombstones are additionally reaped in bulk: when they come to
//! dominate the queue ([`COMPACT_MIN`] onward), a compaction sweep
//! drops every cancelled entry from both levels and empties the
//! tombstone set, so cancel-heavy workloads (arm/disarm retransmit
//! timers per ACK) do not drag dead entries through the overflow heap,
//! the migration path and the wheel before finally discarding them.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::fault::FaultAction;
use crate::{LinkId, NodeId, Packet, SimTime, TimerToken};

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum EventKind {
    /// A transmitter finished serializing a packet and becomes free.
    TxComplete {
        link: LinkId,
        /// Which end of the link was transmitting (0 or 1).
        end: usize,
    },
    /// A packet fully arrived at a node (after serialization and
    /// propagation). The packet itself lives in the queue's slab; `slot`
    /// is claimed with [`EventQueue::alloc_packet`] and redeemed exactly
    /// once with [`EventQueue::take_packet`] at dispatch.
    Arrival { node: NodeId, slot: u32 },
    /// An agent timer fires.
    Timer { node: NodeId, token: TimerToken },
    /// A scheduled fault fires (see [`crate::FaultPlan`]).
    Fault { link: LinkId, action: FaultAction },
}

#[derive(Debug)]
struct ScheduledEvent {
    at: SimTime,
    /// Scheduling-instant priority: the clock value (in nanoseconds) at
    /// the moment the event was scheduled. Monotone over a run, so among
    /// equal deadlines earlier-scheduled events fire first.
    prio: u64,
    /// Content-derived tie-breaker: `origin << SEQ_COUNTER_BITS |
    /// counter`, where `origin` identifies the node whose activity
    /// scheduled the event and `counter` is that origin's monotone
    /// schedule count (see the module docs).
    seq: u64,
    kind: EventKind,
}

impl ScheduledEvent {
    #[inline]
    fn key(&self) -> (SimTime, u64, u64) {
        (self.at, self.prio, self.seq)
    }
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for ScheduledEvent {}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// log2 of the bucket count. 512 buckets.
const BUCKET_BITS: u32 = 9;
/// Number of wheel buckets; the window spans one full revolution.
const NUM_BUCKETS: usize = 1 << BUCKET_BITS;
/// log2 of the bucket width in nanoseconds. 2048 ns per bucket is a
/// little above one 1500-byte serialization at 10 Gb/s, so under load
/// buckets hold only a handful of events each.
const WIDTH_SHIFT: u32 = 11;
/// Occupancy bitmap words (one bit per bucket).
const BITMAP_WORDS: usize = NUM_BUCKETS / 64;
/// Tombstone count below which compaction is never attempted: a full
/// sweep touches every bucket, so it must amortize over enough reaped
/// entries to beat the pop path's one-hashset-probe-per-event cost.
const COMPACT_MIN: usize = 256;
/// Bits of `seq` reserved for the per-origin counter; the origin index
/// occupies the bits above. 2^40 ≈ 1.1e12 schedules per origin and
/// 2^24 ≈ 16.7M origins — both far beyond any realistic run, enforced
/// by debug assertions in [`EventQueue::next_seq`].
pub(crate) const SEQ_COUNTER_BITS: u32 = 40;

/// Identity-strength hasher for the simulator's own integer ids
/// ([`TimerToken`]s, flow ids), which are sequential or tagged `u64`s:
/// one multiply by a 64-bit odd constant spreads the low bits without
/// SipHash's per-lookup cost. Not for keys from outside the program.
#[derive(Debug, Default)]
pub struct TokenHasher(u64);

impl Hasher for TokenHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

type TokenSet = HashSet<TimerToken, BuildHasherDefault<TokenHasher>>;

/// A `HashMap` keyed by a simulator-issued integer id
/// ([`TimerToken`], [`FlowId`](crate::FlowId)) under the engine's
/// one-multiply hasher — for per-packet and per-timer demux tables,
/// where the default SipHash is most of the lookup.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<TokenHasher>>;

/// A deterministic future-event list: earliest deadline first, FIFO among
/// equal deadlines. See the module docs for the structure.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// Level 0: the timer wheel. All entries in bucket `i & mask` share
    /// the absolute bucket index `i ∈ [cursor, cursor + NUM_BUCKETS)`.
    wheel: Vec<Vec<ScheduledEvent>>,
    /// The bucket the cursor is draining, kept sorted latest-first so
    /// its earliest entry is the tail. Only this bucket is ordered.
    sorted_slot: Option<usize>,
    /// One occupancy bit per bucket, so the pop path skips empty
    /// stretches with `trailing_zeros` instead of probing each bucket.
    occupied: [u64; BITMAP_WORDS],
    /// Absolute bucket index (deadline >> WIDTH_SHIFT) of the earliest
    /// bucket that may still hold events.
    cursor: u64,
    wheel_len: usize,
    /// Level 1: deadlines at or beyond `cursor + NUM_BUCKETS`.
    overflow: BinaryHeap<ScheduledEvent>,
    /// Live entries across both levels (including not-yet-reaped
    /// cancelled timers, as with the previous heap implementation).
    len: usize,
    /// Per-origin schedule counters, indexed by origin id (node index,
    /// or the fault pseudo-origin one past the last node). Grown on
    /// demand; each entry is the number of events that origin has
    /// scheduled so far, which — combined with the origin id — forms the
    /// content-derived `seq` tie-breaker.
    origin_seq: Vec<u64>,
    /// Tombstones for cancelled timers; matching entries are dropped by
    /// the pop path instead of being dispatched.
    cancelled: TokenSet,
    /// In-flight packet slab: [`EventKind::Arrival`] events index into
    /// this arena instead of carrying the packet inline. Arrivals are
    /// never cancelled, so every allocated slot is redeemed exactly once
    /// and the freelist fully recycles — the arena stops growing once it
    /// covers the peak in-flight population.
    packets: Vec<Packet>,
    /// LIFO freelist of reusable `packets` slots.
    free: Vec<u32>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            wheel: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            sorted_slot: None,
            occupied: [0; BITMAP_WORDS],
            cursor: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            origin_seq: Vec::new(),
            cancelled: TokenSet::default(),
            packets: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Parks an in-flight packet in the slab and returns its slot, for
    /// embedding in an [`EventKind::Arrival`]. O(1), allocation-free once
    /// the arena covers the peak in-flight population.
    #[inline]
    pub(crate) fn alloc_packet(&mut self, pkt: Packet) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.packets[slot as usize] = pkt;
            slot
        } else {
            self.packets.push(pkt);
            (self.packets.len() - 1) as u32
        }
    }

    /// Redeems an arrival's slab slot, recycling it. Each slot must be
    /// taken exactly once, at dispatch.
    #[inline]
    pub(crate) fn take_packet(&mut self, slot: u32) -> Packet {
        self.free.push(slot);
        self.packets[slot as usize]
    }

    /// Draws the next content-derived `seq` for `origin`: the origin id
    /// packed with that origin's monotone schedule count, so the value
    /// is a tie-breaker fixed by the event's content. O(1) amortized.
    #[inline]
    pub(crate) fn next_seq(&mut self, origin: u32) -> u64 {
        debug_assert!(
            u64::from(origin) < 1 << (64 - SEQ_COUNTER_BITS),
            "origin id overflow"
        );
        let i = origin as usize;
        if i >= self.origin_seq.len() {
            self.origin_seq.resize(i + 1, 0);
        }
        let counter = self.origin_seq[i];
        self.origin_seq[i] = counter + 1;
        debug_assert!(
            counter < 1 << SEQ_COUNTER_BITS,
            "per-origin counter overflow"
        );
        (u64::from(origin) << SEQ_COUNTER_BITS) | counter
    }

    /// Schedules `kind` to fire at `at`; `sched` is the current clock
    /// value (the scheduling instant, which orders same-deadline events)
    /// and `origin` the node whose activity caused the schedule. O(1).
    #[inline]
    pub(crate) fn schedule(&mut self, at: SimTime, sched: SimTime, origin: u32, kind: EventKind) {
        let seq = self.next_seq(origin);
        self.insert_keyed(at, sched, seq, kind);
    }

    /// Inserts an event under an explicit, already-drawn key — the lazy
    /// `TxComplete` path. The transmission draws `seq` from its origin's
    /// counter ([`EventQueue::next_seq`]) when it starts, so the event
    /// sorts exactly where an eager schedule would have put it, however
    /// much later it is inserted. Does not touch the origin counters.
    #[inline]
    pub(crate) fn insert_keyed(&mut self, at: SimTime, sched: SimTime, seq: u64, kind: EventKind) {
        self.insert(ScheduledEvent {
            at,
            prio: sched.as_nanos(),
            seq,
            kind,
        });
    }

    /// Marks an armed timer as dead. Amortized O(1); the entry itself is
    /// reaped by the pop path, by overflow migration, or by a bulk
    /// compaction sweep once tombstones dominate the queue — it never
    /// reaches dispatch. Cancelling a token that already fired (or was
    /// never armed through this queue) leaves a tombstone that the next
    /// compaction discards.
    pub(crate) fn cancel_timer(&mut self, token: TimerToken) {
        self.cancelled.insert(token);
        if self.cancelled.len() >= COMPACT_MIN && self.cancelled.len() * 2 >= self.len {
            self.compact();
        }
    }

    /// Drops every cancelled entry from both levels and empties the
    /// tombstone set.
    ///
    /// Clearing *unmatched* tombstones is sound because timer tokens are
    /// issued by a single monotone counter (see `Context::set_timer`)
    /// and cancellation always follows arming: a tombstone with no live
    /// entry now belongs to a timer that already fired, and its token
    /// can never be armed again.
    fn compact(&mut self) {
        let cancelled = &self.cancelled;
        let is_dead = |e: &ScheduledEvent| matches!(&e.kind, EventKind::Timer { token, .. } if cancelled.contains(token));
        let mut removed = 0;
        for (slot, bucket) in self.wheel.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let before = bucket.len();
            // `retain` keeps order, so the sorted bucket stays sorted.
            bucket.retain(|e| !is_dead(e));
            removed += before - bucket.len();
            if bucket.is_empty() {
                self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
            }
        }
        self.wheel_len -= removed;
        if !self.overflow.is_empty() {
            let before = self.overflow.len();
            let mut entries = std::mem::take(&mut self.overflow).into_vec();
            entries.retain(|e| !is_dead(e));
            removed += before - entries.len();
            self.overflow = BinaryHeap::from(entries);
        }
        self.len -= removed;
        self.cancelled.clear();
    }

    #[inline]
    fn insert(&mut self, ev: ScheduledEvent) {
        self.len += 1;
        // The simulator never schedules into the past, so the bucket
        // index is at or ahead of the cursor; clamping keeps ordering
        // correct regardless because pops compare exact `(at, seq)`.
        let idx = (ev.at.as_nanos() >> WIDTH_SHIFT).max(self.cursor);
        if idx < self.cursor + NUM_BUCKETS as u64 {
            let slot = (idx as usize) & (NUM_BUCKETS - 1);
            let bucket = &mut self.wheel[slot];
            if self.sorted_slot == Some(slot) {
                let pos = bucket.partition_point(|e| e.key() > ev.key());
                bucket.insert(pos, ev);
            } else {
                bucket.push(ev);
            }
            self.occupied[slot >> 6] |= 1u64 << (slot & 63);
            self.wheel_len += 1;
        } else {
            self.overflow.push(ev);
        }
    }

    /// Moves every overflow entry whose deadline now falls inside the
    /// wheel window onto the wheel. Kept out of line: the hot pop path
    /// calls it only when the overflow level is non-empty, which steady
    /// forwarding (all deadlines within a few RTTs) never hits.
    #[inline(never)]
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor + NUM_BUCKETS as u64;
        while let Some(head) = self.overflow.peek() {
            if head.at.as_nanos() >> WIDTH_SHIFT >= horizon {
                break;
            }
            let ev = self.overflow.pop().expect("peeked entry exists");
            self.len -= 1; // insert() re-adds it
            if !self.cancelled.is_empty() {
                if let EventKind::Timer { token, .. } = &ev.kind {
                    if self.cancelled.remove(token) {
                        continue; // reaped en route, never reaches the wheel
                    }
                }
            }
            self.insert(ev);
        }
    }

    /// Circular distance from the cursor's slot to the next occupied
    /// slot, if any.
    #[inline]
    fn next_occupied_distance(&self) -> Option<u64> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.cursor as usize) & (NUM_BUCKETS - 1);
        let mut word = start >> 6;
        let mut bits = self.occupied[word] & (!0u64 << (start & 63));
        for step in 0..=BITMAP_WORDS {
            if bits != 0 {
                let slot = (word << 6) + bits.trailing_zeros() as usize;
                let dist = (slot + NUM_BUCKETS - start) & (NUM_BUCKETS - 1);
                return Some(
                    dist as u64
                        + if step > 0 && slot == start {
                            NUM_BUCKETS as u64
                        } else {
                            0
                        },
                );
            }
            word = (word + 1) % BITMAP_WORDS;
            bits = self.occupied[word];
        }
        None
    }

    /// Removes and returns the earliest event — deadline, the `(prio,
    /// seq)` tail of its key (which decides whether a lazy completion
    /// would already have fired), and payload — whose deadline is at or
    /// before `until`; `None` leaves the queue untouched apart from
    /// cursor advancement over empty buckets. Timers cancelled before
    /// firing are reaped here without being returned.
    pub(crate) fn pop_before(&mut self, until: SimTime) -> Option<(SimTime, u64, u64, EventKind)> {
        loop {
            if self.len == 0 {
                return None;
            }
            let overflow_live = !self.overflow.is_empty();
            if overflow_live {
                self.migrate_overflow();
            }
            if self.wheel_len == 0 {
                // Jump the window to the overflow's earliest bucket.
                let head_at = self.overflow.peek().expect("len > 0 with empty wheel").at;
                self.cursor = head_at.as_nanos() >> WIDTH_SHIFT;
                self.migrate_overflow();
                // The wheel may still be empty if every migrated entry
                // was a cancelled timer reaped en route; the next lap
                // jumps again (or observes len == 0 and stops).
                continue;
            }
            let Some(dist) = self.next_occupied_distance() else {
                unreachable!("wheel_len > 0 but bitmap empty");
            };
            self.cursor += dist;
            let slot = (self.cursor as usize) & (NUM_BUCKETS - 1);
            // Advancing the cursor widens the window; anything that just
            // slid into it must be considered before this bucket drains.
            if dist > 0 && overflow_live && !self.overflow.is_empty() {
                self.migrate_overflow();
            }
            let bucket = &mut self.wheel[slot];
            if self.sorted_slot != Some(slot) {
                // Keys are unique (`seq` is origin ‖ counter), so an
                // unstable sort is deterministic.
                bucket.sort_unstable_by_key(|e| Reverse(e.key()));
                self.sorted_slot = Some(slot);
            }
            if bucket.last().expect("occupied bucket").at > until {
                return None;
            }
            let ev = bucket.pop().expect("occupied bucket");
            if bucket.is_empty() {
                self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
            }
            self.wheel_len -= 1;
            self.len -= 1;
            if !self.cancelled.is_empty() {
                if let EventKind::Timer { token, .. } = &ev.kind {
                    if self.cancelled.remove(token) {
                        continue; // reaped without dispatch
                    }
                }
            }
            return Some((ev.at, ev.prio, ev.seq, ev.kind));
        }
    }

    /// Removes and returns the earliest event.
    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.pop_before(SimTime::from_nanos(u64::MAX))
            .map(|(at, _, _, kind)| (at, kind))
    }

    /// Number of scheduled entries, in O(1). A cancelled timer counts
    /// until reaped — by the pop path, by overflow migration, or by a
    /// compaction sweep.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// [`EventQueue::schedule`] with the scheduling instant pinned to
    /// zero and a single origin, for ordering tests that predate those
    /// parameters: the key then degenerates to `(at, counter)`.
    #[cfg(test)]
    pub(crate) fn schedule_t0(&mut self, at: SimTime, kind: EventKind) {
        self.schedule(at, SimTime::ZERO, 0, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctcp_rng::SplitMix64;

    fn timer(node: usize, token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId::from_index(node),
            token: TimerToken(token),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_t0(SimTime::from_nanos(30), timer(0, 0));
        q.schedule_t0(SimTime::from_nanos(10), timer(0, 1));
        q.schedule_t0(SimTime::from_nanos(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_nanos())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_t0(SimTime::from_nanos(5), timer(0, i));
        }
        let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn equal_times_fire_fifo_across_levels() {
        // Same instant, far enough out that early schedules land in the
        // overflow level and late ones (after the cursor jumps) in the
        // wheel: FIFO order must hold regardless.
        let far = SimTime::from_nanos(50_000_000);
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.schedule_t0(far, timer(0, i));
        }
        // Drain an early event so the cursor advances, then add more
        // same-instant events (these go straight onto the wheel once the
        // window covers them).
        q.schedule_t0(SimTime::from_nanos(1), timer(0, 100));
        assert_eq!(q.pop().unwrap().0, SimTime::from_nanos(1));
        for i in 4..8 {
            q.schedule_t0(far, timer(0, i));
        }
        let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_schedule_and_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_t0(SimTime::from_nanos(7), timer(0, 0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule_t0(SimTime::from_nanos(100), timer(0, 0));
        q.schedule_t0(SimTime::from_nanos(200), timer(0, 1));
        assert_eq!(q.pop_before(SimTime::from_nanos(50)), None);
        assert_eq!(q.len(), 2);
        let (at, ..) = q.pop_before(SimTime::from_nanos(150)).unwrap();
        assert_eq!(at, SimTime::from_nanos(100));
        assert_eq!(q.pop_before(SimTime::from_nanos(150)), None);
        let (at, ..) = q.pop_before(SimTime::from_nanos(10_000)).unwrap();
        assert_eq!(at, SimTime::from_nanos(200));
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_timer_is_reaped_not_returned() {
        let mut q = EventQueue::new();
        q.schedule_t0(SimTime::from_nanos(10), timer(0, 0));
        q.schedule_t0(SimTime::from_nanos(20), timer(0, 1));
        q.schedule_t0(SimTime::from_nanos(30), timer(0, 2));
        q.cancel_timer(TimerToken(1));
        let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, vec![0, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_of_unknown_or_fired_token_is_inert() {
        let mut q = EventQueue::new();
        q.schedule_t0(SimTime::from_nanos(10), timer(0, 0));
        assert!(q.pop().is_some());
        // Cancelling after the fact (or a token never armed) must not
        // disturb later events.
        q.cancel_timer(TimerToken(0));
        q.cancel_timer(TimerToken(999));
        q.schedule_t0(SimTime::from_nanos(20), timer(0, 1));
        let (_, k) = q.pop().unwrap();
        assert_eq!(k, timer(0, 1));
    }

    #[test]
    fn cancelled_far_timer_never_surfaces_across_migration() {
        let mut q = EventQueue::new();
        // Deadline far beyond the wheel window: lives in overflow.
        q.schedule_t0(SimTime::from_nanos(10_000_000), timer(0, 7));
        q.cancel_timer(TimerToken(7));
        q.schedule_t0(SimTime::from_nanos(20_000_000), timer(0, 8));
        let (at, k) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_nanos(20_000_000));
        assert_eq!(k, timer(0, 8));
        assert!(q.pop().is_none());
    }

    #[test]
    fn compaction_reaps_tombstones_without_reordering() {
        let mut q = EventQueue::new();
        // Enough cancels to trip compaction (> COMPACT_MIN), spread over
        // wheel buckets and the overflow level. Survivors are every
        // fourth timer.
        let n = 4 * COMPACT_MIN as u64;
        for i in 0..n {
            // ~3 per bucket near the cursor, plus a far overflow tail.
            let at = if i % 5 == 4 { 10_000_000 + i } else { i * 700 };
            q.schedule_t0(SimTime::from_nanos(at), timer(0, i));
        }
        assert_eq!(q.len(), n as usize);
        for i in 0..n {
            if i % 4 != 0 {
                q.cancel_timer(TimerToken(i));
            }
        }
        // Compaction has already dropped the dead entries — no pops yet.
        assert_eq!(q.len(), (n / 4) as usize);
        let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token.0,
                _ => unreachable!(),
            })
            .collect();
        let mut expected: Vec<u64> = (0..n).step_by(4).collect();
        expected.sort_by_key(|&i| {
            if i % 5 == 4 {
                (10_000_000 + i, i)
            } else {
                (i * 700, i)
            }
        });
        assert_eq!(tokens, expected);
        assert!(q.is_empty());
    }

    #[test]
    fn compaction_discards_unmatched_tombstones_safely() {
        let mut q = EventQueue::new();
        // A flood of cancels for timers that already fired: compaction
        // trips and clears the set without touching live state.
        q.schedule_t0(SimTime::from_nanos(1), timer(0, 0));
        assert!(q.pop().is_some());
        for t in 0..2 * COMPACT_MIN as u64 {
            q.cancel_timer(TimerToken(t));
        }
        assert!(q.is_empty());
        // Cancellation of freshly armed timers still works afterwards.
        q.schedule_t0(SimTime::from_nanos(10), timer(0, 10_000));
        q.schedule_t0(SimTime::from_nanos(20), timer(0, 10_001));
        q.cancel_timer(TimerToken(10_000));
        let (_, k) = q.pop().unwrap();
        assert_eq!(k, timer(0, 10_001));
        assert!(q.pop().is_none());
    }

    /// A reference entry deliberately ordered by the *old* `(at, seq)`
    /// key, so the differential test proves the production `(at, prio,
    /// seq)` key preserves the classic FIFO order whenever the
    /// scheduling instant is monotone (i.e. for every serial run).
    struct RefEvent {
        at: SimTime,
        seq: u64,
        kind: EventKind,
    }

    impl PartialEq for RefEvent {
        fn eq(&self, other: &Self) -> bool {
            (self.at, self.seq) == (other.at, other.seq)
        }
    }

    impl Eq for RefEvent {}

    impl Ord for RefEvent {
        fn cmp(&self, other: &Self) -> Ordering {
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    impl PartialOrd for RefEvent {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The pre-calendar-queue implementation (a plain `(at, seq)` binary
    /// heap), kept as the ordering oracle for the differential test
    /// below.
    #[derive(Default)]
    struct ReferenceQueue {
        heap: BinaryHeap<RefEvent>,
        next_seq: u64,
        cancelled: std::collections::HashSet<TimerToken>,
    }

    impl ReferenceQueue {
        fn schedule(&mut self, at: SimTime, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(RefEvent { at, seq, kind });
        }

        fn cancel_timer(&mut self, token: TimerToken) {
            self.cancelled.insert(token);
        }

        fn pop(&mut self) -> Option<(SimTime, EventKind)> {
            self.pop_before(SimTime::from_nanos(u64::MAX))
        }

        fn pop_before(&mut self, until: SimTime) -> Option<(SimTime, EventKind)> {
            while let Some(head) = self.heap.peek() {
                if let EventKind::Timer { token, .. } = head.kind {
                    if self.cancelled.remove(&token) {
                        self.heap.pop();
                        continue;
                    }
                }
                if head.at > until {
                    return None;
                }
                let e = self.heap.pop()?;
                return Some((e.at, e.kind));
            }
            None
        }
    }

    /// Seeded differential test: a random interleaving of schedules,
    /// cancellations, and pops must produce the identical event order on
    /// the calendar queue and the reference heap. Deadlines mix bucket
    /// collisions, exact ties, and far-overflow times.
    #[test]
    fn differential_against_reference_heap() {
        for seed in 1..=8u64 {
            let mut rng = SplitMix64::new(seed);
            let mut cal = EventQueue::new();
            let mut oracle = ReferenceQueue::default();
            let mut clock = 0u64; // lower bound for new deadlines
            let mut armed: Vec<u64> = Vec::new();
            let mut next_token = 0u64;
            let mut popped = 0usize;
            for _ in 0..5_000 {
                match rng.next_u64() % 10 {
                    // Schedule (weighted toward near deadlines, with
                    // exact ties and far overflow tails mixed in).
                    0..=5 => {
                        let at = match rng.next_u64() % 8 {
                            0 => clock,                                // exact tie with "now"
                            1..=4 => clock + rng.next_u64() % 4_000,   // in-bucket / near
                            5 | 6 => clock + rng.next_u64() % 400_000, // within window
                            _ => clock + rng.next_u64() % 50_000_000,  // overflow
                        };
                        let token = next_token;
                        next_token += 1;
                        armed.push(token);
                        let at = SimTime::from_nanos(at);
                        // The calendar queue runs with the real (monotone)
                        // scheduling instant and a single origin, so its
                        // counter is the global insertion order; the oracle
                        // orders by the old (at, seq) key. Equality of the
                        // two pop sequences proves the (at, prio, seq) key
                        // preserves serial FIFO order.
                        cal.schedule(at, SimTime::from_nanos(clock), 0, timer(0, token));
                        oracle.schedule(at, timer(0, token));
                    }
                    6 => {
                        if let Some(&t) = armed.get(rng.next_u64() as usize % armed.len().max(1)) {
                            cal.cancel_timer(TimerToken(t));
                            oracle.cancel_timer(TimerToken(t));
                        }
                    }
                    _ => {
                        let a = cal.pop();
                        let b = oracle.pop();
                        assert_eq!(a, b, "divergence after {popped} pops (seed {seed})");
                        if let Some((at, _)) = a {
                            clock = clock.max(at.as_nanos());
                            popped += 1;
                        }
                    }
                }
            }
            // Drain both completely.
            loop {
                let a = cal.pop();
                let b = oracle.pop();
                assert_eq!(a, b, "divergence while draining (seed {seed})");
                if a.is_none() {
                    break;
                }
            }
            assert!(popped > 100, "degenerate interleaving (seed {seed})");
        }
    }

    /// The calendar queue and the reference heap driven in lockstep by
    /// a simulated clock, counting which hot-bucket paths a run took.
    #[derive(Default)]
    struct HotBucket {
        cal: EventQueue,
        oracle: ReferenceQueue,
        clock: u64,
        next_token: u64,
        armed: Vec<u64>,
        /// Inserts into the sorted bucket ahead of / behind its minimum.
        before_min: usize,
        after_min: usize,
        /// Compaction sweeps that ran while a sorted bucket held entries.
        sorted_compactions: usize,
        /// `pop_before` horizons that stopped inside the sorted bucket.
        mid_bucket_stops: usize,
    }

    fn slot_of(at: u64) -> usize {
        ((at >> WIDTH_SHIFT) as usize) & (NUM_BUCKETS - 1)
    }

    impl HotBucket {
        /// Absolute end of the bucket holding the clock.
        fn bucket_end(&self) -> u64 {
            ((self.clock >> WIDTH_SHIFT) + 1) << WIDTH_SHIFT
        }

        fn sorted_live(&self) -> Option<&Vec<ScheduledEvent>> {
            self.cal
                .sorted_slot
                .map(|s| &self.cal.wheel[s])
                .filter(|b| !b.is_empty())
        }

        fn schedule(&mut self, at: u64) {
            let slot = slot_of(at);
            if self.cal.sorted_slot == Some(slot) {
                if let Some(min) = self.cal.wheel[slot].last() {
                    // The new key's (prio, seq) tail is the largest yet,
                    // so only `at` can put it ahead of the minimum.
                    if at < min.at.as_nanos() {
                        self.before_min += 1;
                    } else {
                        self.after_min += 1;
                    }
                }
            }
            let token = self.next_token;
            self.next_token += 1;
            self.armed.push(token);
            let at = SimTime::from_nanos(at);
            self.cal
                .schedule(at, SimTime::from_nanos(self.clock), 0, timer(0, token));
            self.oracle.schedule(at, timer(0, token));
        }

        fn cancel(&mut self, token: u64) {
            let sorted = self.sorted_live().is_some();
            let before = self.cal.len();
            self.cal.cancel_timer(TimerToken(token));
            self.oracle.cancel_timer(TimerToken(token));
            if sorted && self.cal.len() < before {
                self.sorted_compactions += 1;
            }
        }

        /// Pops up to `n` events at or before `until`, checking each
        /// against the reference; returns how many it popped.
        fn pop_before(&mut self, until: u64, n: usize) -> usize {
            let until = SimTime::from_nanos(until);
            for i in 0..n {
                let a = self.cal.pop_before(until).map(|(at, _, _, k)| (at, k));
                let b = self.oracle.pop_before(until);
                assert_eq!(a, b, "divergence at clock {}", self.clock);
                match a {
                    Some((at, _)) => self.clock = at.as_nanos(),
                    None => return i,
                }
            }
            n
        }
    }

    /// Seeded differential test aimed at the bucket being drained:
    /// bursts of 50–200 schedules land in it and the next few buckets,
    /// ahead of and behind its current minimum, cancellation bursts
    /// compact the queue while it is sorted, and `pop_before` horizons
    /// stop inside it before more events arrive there. Every pop must
    /// match the reference heap.
    #[test]
    fn hot_bucket_drain_matches_reference_heap() {
        const WIDTH: u64 = 1 << WIDTH_SHIFT;
        for seed in 1..=8u64 {
            let mut rng = SplitMix64::new(seed);
            let mut h = HotBucket::default();
            for round in 0..200 {
                let burst = 50 + rng.next_u64() % 151;
                for _ in 0..burst {
                    let at = match rng.next_u64() % 4 {
                        // Now, or anywhere in the bucket being drained.
                        0 => h.clock,
                        1 => h.clock + rng.next_u64() % (h.bucket_end() - h.clock),
                        // One of the next four buckets.
                        _ => h.bucket_end() + rng.next_u64() % (4 * WIDTH),
                    };
                    h.schedule(at);
                }
                // Drain part of the burst, leaving the bucket sorted.
                let n = rng.next_u64() % 250;
                h.pop_before(u64::MAX, n as usize);
                if round % 10 == 9 {
                    // A cancellation burst over the newest timers, large
                    // enough to trip compaction.
                    let burst = (2 * COMPACT_MIN).max(2 * h.cal.len());
                    let from = h.armed.len().saturating_sub(burst);
                    for t in h.armed.split_off(from) {
                        h.cancel(t);
                    }
                }
                if round % 3 == 2 && h.sorted_live().is_some() {
                    // Stop inside the bucket being drained, then schedule
                    // into the rest of it.
                    let until = h.clock + rng.next_u64() % (h.bucket_end() - h.clock);
                    h.pop_before(until, usize::MAX);
                    if h.sorted_live().is_some() && h.cal.sorted_slot == Some(slot_of(until)) {
                        h.mid_bucket_stops += 1;
                    }
                    h.clock = h.clock.max(until);
                    for _ in 0..20 {
                        let at = h.clock + rng.next_u64() % (h.bucket_end() - h.clock);
                        h.schedule(at);
                    }
                }
            }
            h.pop_before(u64::MAX, usize::MAX);
            assert!(h.cal.is_empty(), "seed {seed}: calendar queue not drained");
            assert!(
                h.before_min > 0
                    && h.after_min > 0
                    && h.sorted_compactions > 0
                    && h.mid_bucket_stops > 0,
                "seed {seed}: a hot-bucket path went unexercised \
                 ({} before min, {} after min, {} compactions, {} stops)",
                h.before_min,
                h.after_min,
                h.sorted_compactions,
                h.mid_bucket_stops
            );
        }
    }

    fn drain_tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token.0,
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    /// Ties at equal `(at, sched)` break by origin index, then each
    /// origin's own scheduling order — derived from the event's content,
    /// not from the order the queue saw the schedules in.
    #[test]
    fn equal_instant_ties_order_by_origin_then_counter() {
        let mut q = EventQueue::new();
        let at = SimTime::from_nanos(500);
        let sched = SimTime::from_nanos(100);
        q.schedule(at, sched, 2, timer(0, 20));
        q.schedule(at, sched, 1, timer(0, 10));
        q.schedule(at, sched, 2, timer(0, 21));
        q.schedule(at, sched, 1, timer(0, 11));
        assert_eq!(drain_tokens(&mut q), vec![10, 11, 20, 21]);
    }

    /// A keyed insert (a lazy completion) sorts purely by the key drawn
    /// earlier, so insertion order is irrelevant — even when two keyed
    /// inserts and a scheduled event tie on `(at, sched)`.
    #[test]
    fn keyed_insert_is_independent_of_insertion_order() {
        let mut q = EventQueue::new();
        // Origin 3 draws two consecutive keys up front.
        let first = q.next_seq(3);
        let second = q.next_seq(3);
        assert!(first < second);
        // An event from origin 5 at the same instant, then the keyed
        // inserts in *reversed* draw order.
        let at = SimTime::from_nanos(500);
        let sched = SimTime::from_nanos(100);
        q.schedule(at, sched, 5, timer(0, 50));
        q.insert_keyed(at, sched, second, timer(0, 31));
        q.insert_keyed(at, sched, first, timer(0, 30));
        // Origin 3 sorts before origin 5; within origin 3, draw order.
        assert_eq!(drain_tokens(&mut q), vec![30, 31, 50]);
    }

    /// The scheduling instant dominates the origin tie-break: a keyed
    /// insert drawn at an *earlier* instant sorts ahead of an event
    /// scheduled later, however late it is inserted.
    #[test]
    fn scheduling_instant_dominates_origin() {
        let mut q = EventQueue::new();
        let key = q.next_seq(9);
        let at = SimTime::from_nanos(900);
        q.schedule(at, SimTime::from_nanos(800), 0, timer(0, 1));
        q.insert_keyed(at, SimTime::from_nanos(200), key, timer(0, 2));
        assert_eq!(drain_tokens(&mut q), vec![2, 1]);
    }

    /// Per-origin counters are independent: interleaved draws from two
    /// origins each count 0, 1, 2, …, so one origin's activity never
    /// shifts another origin's keys.
    #[test]
    fn origin_counters_are_independent() {
        let mut q = EventQueue::new();
        let a0 = q.next_seq(1);
        let b0 = q.next_seq(7);
        let a1 = q.next_seq(1);
        let b1 = q.next_seq(7);
        assert_eq!(a0, 1 << SEQ_COUNTER_BITS);
        assert_eq!(a1, (1 << SEQ_COUNTER_BITS) | 1);
        assert_eq!(b0, 7 << SEQ_COUNTER_BITS);
        assert_eq!(b1, (7 << SEQ_COUNTER_BITS) | 1);
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;
    use std::time::Instant;

    #[test]
    #[ignore]
    fn probe_schedule_pop() {
        let mut q = EventQueue::new();
        let kind = EventKind::TxComplete {
            link: LinkId::from_index(0),
            end: 0,
        };
        // Steady state: ~4 events in flight, spaced ~1.2us like the
        // forward bench.
        let mut t = 0u64;
        for i in 0..4 {
            q.schedule(
                SimTime::from_nanos(1180 * i),
                SimTime::ZERO,
                0,
                kind.clone(),
            );
        }
        let n = 4_000_000u64;
        let start = Instant::now();
        for _ in 0..n {
            let (at, _, _, k) = q.pop_before(SimTime::from_nanos(u64::MAX)).unwrap();
            t = at.as_nanos();
            q.schedule(SimTime::from_nanos(t + 4 * 1180), at, 0, k);
        }
        let dt = start.elapsed().as_nanos() as u64;
        println!(
            "schedule+pop pair: {:.1} ns (clock {})",
            dt as f64 / n as f64,
            t
        );
    }
}
