//! Full-duplex point-to-point links.

use crate::{NodeId, OutputQueue, QueueConfig, SimDuration, SimTime};

/// Rate and propagation delay of a full-duplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSpec {
    /// Line rate in bits per second (both directions).
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
}

impl LinkSpec {
    /// A link of `gbps` gigabits per second with the given one-way
    /// propagation delay in microseconds.
    pub fn gbps(gbps: f64, delay_us: u64) -> Self {
        LinkSpec {
            rate_bps: (gbps * 1e9) as u64,
            delay: SimDuration::from_micros(delay_us),
        }
    }
}

/// When a transmission ends, and the key its `TxComplete` event
/// carries. The key is drawn when the transmission starts; the event
/// itself enters the calendar only once a backlog waits on it (see
/// `Simulator::try_start_tx`), so "is the transmitter busy?" is answered
/// from this record, not from an event having fired.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxCompletion {
    /// The instant serialization ends.
    pub(crate) at: SimTime,
    /// The instant the transmission started (the event key's `prio`).
    pub(crate) sched: SimTime,
    /// The key's `seq`, drawn from the transmitting node's counter.
    pub(crate) seq: u64,
    /// Whether the `TxComplete` event is in the event queue.
    pub(crate) scheduled: bool,
}

impl TxCompletion {
    /// Whether this completion's event — had it been scheduled eagerly —
    /// would still be waiting to fire at `now`, while the engine
    /// dispatches the event whose key tail `(prio, seq)` is `running`
    /// (`None` outside any event, i.e. in `on_start`). At `now == at`
    /// the keys decide: events at one instant fire in key order, so the
    /// completion is still to come iff the running key is smaller.
    pub(crate) fn pending(&self, now: SimTime, running: Option<(u64, u64)>) -> bool {
        match now.cmp(&self.at) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                running.is_none_or(|key| key < (self.sched.as_nanos(), self.seq))
            }
        }
    }
}

/// One transmitting end of a link: the attached node, its output queue
/// toward the other end, and the transmission in flight.
#[derive(Debug)]
pub(crate) struct LinkEnd {
    pub(crate) node: NodeId,
    pub(crate) queue: OutputQueue,
    /// Completion of the current (or latest) transmission; `None` before
    /// the first one and after a dispatched `TxComplete`. The transmitter
    /// is busy while this is [`TxCompletion::pending`].
    pub(crate) tx: Option<TxCompletion>,
    /// Accumulated transmitter busy time since the last stats reset.
    pub(crate) busy_time: SimDuration,
    /// Start of the current utilization window.
    pub(crate) window_start: SimTime,
    /// Bytes put on the wire since the last stats reset.
    pub(crate) bytes_sent: u64,
    /// Memo of the last serialization-time computation (wire bytes →
    /// duration). Traffic repeats a handful of packet sizes, so this
    /// one-entry cache removes the division from almost every
    /// transmission start.
    pub(crate) last_tx: (u64, SimDuration),
}

/// A full-duplex link between two nodes with independent per-direction
/// queues and transmitters.
#[derive(Debug)]
pub(crate) struct Link {
    pub(crate) spec: LinkSpec,
    pub(crate) ends: [LinkEnd; 2],
    /// Whether the link is up. While down, neither transmitter starts
    /// new packets; queues keep absorbing arrivals (fault injection).
    pub(crate) up: bool,
}

impl Link {
    pub(crate) fn new(
        spec: LinkSpec,
        a: NodeId,
        queue_a: &QueueConfig,
        b: NodeId,
        queue_b: &QueueConfig,
    ) -> Result<Self, dctcp_core::ParamError> {
        Ok(Link {
            spec,
            ends: [
                LinkEnd {
                    node: a,
                    queue: OutputQueue::new(queue_a)?,
                    tx: None,
                    busy_time: SimDuration::ZERO,
                    window_start: SimTime::ZERO,
                    bytes_sent: 0,
                    last_tx: (0, SimDuration::ZERO),
                },
                LinkEnd {
                    node: b,
                    queue: OutputQueue::new(queue_b)?,
                    tx: None,
                    busy_time: SimDuration::ZERO,
                    window_start: SimTime::ZERO,
                    bytes_sent: 0,
                    last_tx: (0, SimDuration::ZERO),
                },
            ],
            up: true,
        })
    }

    /// Index of the end attached to `node`, if any.
    pub(crate) fn end_of(&self, node: NodeId) -> Option<usize> {
        self.ends.iter().position(|e| e.node == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_constructor() {
        let s = LinkSpec::gbps(10.0, 25);
        assert_eq!(s.rate_bps, 10_000_000_000);
        assert_eq!(s.delay, SimDuration::from_micros(25));
    }

    #[test]
    fn completion_is_pending_until_its_key_comes_up() {
        let t = SimTime::from_nanos;
        let c = TxCompletion {
            at: t(500),
            sched: t(100),
            seq: 7,
            scheduled: false,
        };
        // Off the completion instant the clock alone decides.
        assert!(c.pending(t(499), Some((u64::MAX, u64::MAX))));
        assert!(!c.pending(t(501), Some((0, 0))));
        assert!(!c.pending(t(501), None));
        // On it, events with a smaller key run first and see it busy…
        assert!(c.pending(t(500), Some((99, u64::MAX))));
        assert!(c.pending(t(500), Some((100, 6))));
        // …the completion's own event and later keys see it free…
        assert!(!c.pending(t(500), Some((100, 7))));
        assert!(!c.pending(t(500), Some((100, 8))));
        assert!(!c.pending(t(500), Some((101, 0))));
        // …and outside any event (`on_start`) nothing has fired yet,
        // even for a zero-length transmission that ends as it starts.
        assert!(c.pending(t(500), None));
        let zero = TxCompletion {
            at: SimTime::ZERO,
            sched: SimTime::ZERO,
            seq: 0,
            scheduled: false,
        };
        assert!(zero.pending(SimTime::ZERO, None));
    }

    #[test]
    fn end_lookup() {
        let a = NodeId::from_index(3);
        let b = NodeId::from_index(7);
        let l = Link::new(
            LinkSpec::gbps(1.0, 1),
            a,
            &QueueConfig::host_nic(),
            b,
            &QueueConfig::host_nic(),
        )
        .unwrap();
        assert_eq!(l.end_of(a), Some(0));
        assert_eq!(l.end_of(b), Some(1));
        assert_eq!(l.end_of(NodeId::from_index(9)), None);
    }
}
