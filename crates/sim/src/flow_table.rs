//! A generation-tagged slab for recycled per-flow state.
//!
//! Opening and closing millions of short flows must not allocate per
//! flow: a [`FlowTable`] hands out fixed slots from a freelist, and the
//! caller resets the slot's value in place instead of constructing a new
//! one. Every slot carries a *generation* counter, bumped on release, so
//! a lookup with a stale generation — an ACK or timer from a previous
//! incarnation of the slot — returns `None` and is safely ignored.
//!
//! Combined with [`FlowId::tagged`](crate::FlowId::tagged) (which packs
//! the `(generation, origin, slot)` triple into the wire-visible flow
//! id), this gives O(1) amortized flow open/close with zero steady-state
//! allocations.

use std::error::Error;
use std::fmt;

/// Why a [`FlowTable`] release was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowTableError {
    /// The slot index is beyond the table's capacity.
    SlotOutOfRange {
        /// The offending slot.
        slot: u32,
        /// The table capacity.
        capacity: u32,
    },
    /// The slot is not currently occupied.
    SlotVacant {
        /// The offending slot.
        slot: u32,
    },
    /// The caller's generation does not match the slot's current
    /// incarnation (a stale handle).
    StaleGeneration {
        /// The offending slot.
        slot: u32,
        /// Generation presented by the caller.
        presented: u32,
        /// Generation currently live in the slot.
        current: u32,
    },
}

impl fmt::Display for FlowTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowTableError::SlotOutOfRange { slot, capacity } => {
                write!(f, "slot {slot} out of range for capacity {capacity}")
            }
            FlowTableError::SlotVacant { slot } => write!(f, "slot {slot} is vacant"),
            FlowTableError::StaleGeneration {
                slot,
                presented,
                current,
            } => write!(
                f,
                "slot {slot}: stale generation {presented} (current {current})"
            ),
        }
    }
}

impl Error for FlowTableError {}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    occupied: bool,
    value: T,
}

/// A bounded slab of recyclable per-flow values with generation-checked
/// handles.
///
/// # Examples
///
/// ```
/// use dctcp_sim::FlowTable;
///
/// let mut t: FlowTable<String> = FlowTable::with_capacity(2);
/// let (slot, generation) = t.acquire(String::new).unwrap();
/// t.get_mut(slot, generation).unwrap().push_str("flow state");
/// t.release(slot, generation).unwrap();
/// // The old handle is now stale: lookups miss instead of aliasing the
/// // slot's next occupant.
/// assert!(t.get(slot, generation).is_none());
/// let (slot2, generation2) = t.acquire(String::new).unwrap();
/// assert_eq!(slot2, slot);
/// assert_eq!(generation2, generation + 1);
/// // The recycled value still holds the previous incarnation's data;
/// // the caller resets it in place (no allocation).
/// assert_eq!(t.get(slot2, generation2).unwrap(), "flow state");
/// ```
#[derive(Debug)]
pub struct FlowTable<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    capacity: u32,
    live: u32,
    high_water: u32,
}

impl<T> FlowTable<T> {
    /// Creates an empty table that will hold at most `capacity` live
    /// flows. `capacity` is admission only: slot storage grows by
    /// doubling to the high-water mark, not to `capacity`, and never
    /// shrinks.
    pub fn with_capacity(capacity: u32) -> Self {
        FlowTable {
            slots: Vec::new(),
            free: Vec::new(),
            capacity,
            live: 0,
            high_water: 0,
        }
    }

    /// Maximum number of concurrently live flows.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Currently live flows.
    pub fn live(&self) -> u32 {
        self.live
    }

    /// Whether no flows are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.live == self.capacity
    }

    /// The most flows ever live at once — the table's real footprint.
    pub fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Claims a slot and returns its `(slot, generation)` handle, or
    /// `None` when the table is full (the caller queues the flow).
    ///
    /// A recycled slot keeps its previous incarnation's value — the
    /// caller must reset it in place via [`FlowTable::get_mut`]. `init`
    /// runs only the first time a slot index is touched, so steady-state
    /// churn performs no allocation.
    pub fn acquire(&mut self, init: impl FnOnce() -> T) -> Option<(u32, u32)> {
        let slot = if let Some(slot) = self.free.pop() {
            let entry = &mut self.slots[slot as usize];
            entry.occupied = true;
            slot
        } else {
            if self.slots.len() as u32 >= self.capacity {
                return None;
            }
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                generation: 0,
                occupied: true,
                value: init(),
            });
            slot
        };
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        Some((slot, self.slots[slot as usize].generation))
    }

    /// Releases a live slot back to the freelist and bumps its
    /// generation, invalidating every outstanding handle (wraps at
    /// 2^24 to match the tagged-[`FlowId`](crate::FlowId) field width).
    ///
    /// # Errors
    ///
    /// Returns a [`FlowTableError`] for an out-of-range slot, a vacant
    /// slot, or a stale generation — all signs of a harness bug, so they
    /// surface as typed errors rather than silent corruption.
    pub fn release(&mut self, slot: u32, generation: u32) -> Result<(), FlowTableError> {
        let entry = self.entry_mut(slot, generation)?;
        entry.occupied = false;
        entry.generation = (entry.generation + 1) & crate::FlowId::MAX_GENERATION;
        self.free.push(slot);
        self.live -= 1;
        Ok(())
    }

    /// The value at `(slot, generation)`, or `None` when the slot is
    /// vacant, out of range, or the generation is stale — the
    /// ignore-stale-traffic path, deliberately not an error.
    pub fn get(&self, slot: u32, generation: u32) -> Option<&T> {
        let entry = self.slots.get(slot as usize)?;
        (entry.occupied && entry.generation == generation).then_some(&entry.value)
    }

    /// Mutable access to the value at `(slot, generation)`; `None` on
    /// any mismatch, like [`FlowTable::get`].
    pub fn get_mut(&mut self, slot: u32, generation: u32) -> Option<&mut T> {
        let entry = self.slots.get_mut(slot as usize)?;
        (entry.occupied && entry.generation == generation).then_some(&mut entry.value)
    }

    /// Iterates over live flows as `(slot, generation, &value)`, in slot
    /// order (deterministic).
    pub fn iter_live(&self) -> impl Iterator<Item = (u32, u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, e)| e.occupied)
            .map(|(i, e)| (i as u32, e.generation, &e.value))
    }

    fn entry_mut(&mut self, slot: u32, generation: u32) -> Result<&mut Slot<T>, FlowTableError> {
        let capacity = self.capacity;
        let entry = self
            .slots
            .get_mut(slot as usize)
            .ok_or(FlowTableError::SlotOutOfRange { slot, capacity })?;
        if !entry.occupied {
            return Err(FlowTableError::SlotVacant { slot });
        }
        if entry.generation != generation {
            return Err(FlowTableError::StaleGeneration {
                slot,
                presented: generation,
                current: entry.generation,
            });
        }
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_until_full_then_none() {
        let mut t: FlowTable<u32> = FlowTable::with_capacity(2);
        let a = t.acquire(|| 0).unwrap();
        let b = t.acquire(|| 0).unwrap();
        assert_ne!(a.0, b.0);
        assert!(t.is_full());
        assert_eq!(t.acquire(|| 0), None);
        assert_eq!(t.live(), 2);
        assert_eq!(t.high_water(), 2);
    }

    #[test]
    fn release_recycles_with_bumped_generation() {
        let mut t: FlowTable<u32> = FlowTable::with_capacity(4);
        let (s, g) = t.acquire(|| 7).unwrap();
        *t.get_mut(s, g).unwrap() = 99;
        t.release(s, g).unwrap();
        assert!(t.is_empty());
        let (s2, g2) = t.acquire(|| 7).unwrap();
        assert_eq!(s2, s, "freelist reuses the slot");
        assert_eq!(g2, g + 1);
        // Value survives for in-place reset; init closure not re-run.
        assert_eq!(*t.get(s2, g2).unwrap(), 99);
        // Old handle is dead.
        assert!(t.get(s, g).is_none());
        assert!(t.get_mut(s, g).is_none());
    }

    #[test]
    fn release_errors_are_typed() {
        let mut t: FlowTable<u32> = FlowTable::with_capacity(2);
        let (s, g) = t.acquire(|| 0).unwrap();
        assert_eq!(
            t.release(9, 0),
            Err(FlowTableError::SlotOutOfRange {
                slot: 9,
                capacity: 2
            })
        );
        assert_eq!(
            t.release(s, g + 5),
            Err(FlowTableError::StaleGeneration {
                slot: s,
                presented: g + 5,
                current: g
            })
        );
        t.release(s, g).unwrap();
        assert_eq!(
            t.release(s, g + 1),
            Err(FlowTableError::SlotVacant { slot: s })
        );
        let msg = FlowTableError::SlotVacant { slot: 3 }.to_string();
        assert!(msg.contains("vacant"), "{msg}");
    }

    #[test]
    fn generation_wraps_at_flow_id_width() {
        let mut t: FlowTable<()> = FlowTable::with_capacity(1);
        // Force the generation to the wrap point.
        let (s, _) = t.acquire(|| ()).unwrap();
        t.release(s, 0).unwrap();
        for _ in 0..5 {
            let (s, g) = t.acquire(|| ()).unwrap();
            t.release(s, g).unwrap();
        }
        let (_, g) = t.acquire(|| ()).unwrap();
        assert_eq!(g, 6);
        assert!(g <= crate::FlowId::MAX_GENERATION);
    }

    #[test]
    fn iter_live_is_slot_ordered() {
        let mut t: FlowTable<u32> = FlowTable::with_capacity(4);
        let handles: Vec<_> = (0..4).map(|i| (t.acquire(|| i).unwrap(), i)).collect();
        let ((s1, g1), _) = handles[1];
        t.release(s1, g1).unwrap();
        let live: Vec<u32> = t.iter_live().map(|(s, _, _)| s).collect();
        assert_eq!(live, vec![0, 2, 3]);
        assert_eq!(t.live(), 3);
        assert_eq!(t.high_water(), 4);
    }

    #[test]
    fn churn_many_flows_without_growing() {
        let mut t: FlowTable<u64> = FlowTable::with_capacity(8);
        let mut live: Vec<(u32, u32)> = Vec::new();
        for i in 0..10_000u64 {
            if live.len() == 8 || (i % 3 == 0 && !live.is_empty()) {
                let (s, g) = live.remove((i % live.len() as u64) as usize);
                t.release(s, g).unwrap();
            }
            let (s, g) = t.acquire(|| 0).unwrap();
            *t.get_mut(s, g).unwrap() = i;
            live.push((s, g));
        }
        assert!(t.high_water() <= 8);
        // Every live handle still resolves and holds its own value.
        for &(s, g) in &live {
            assert!(t.get(s, g).is_some());
        }
    }

    #[test]
    fn storage_grows_to_high_water_not_capacity() {
        let mut t: FlowTable<u64> = FlowTable::with_capacity(4096);
        for _ in 0..100 {
            let held: Vec<_> = (0..5).map(|_| t.acquire(|| 0).unwrap()).collect();
            for (s, g) in held {
                t.release(s, g).unwrap();
            }
        }
        assert_eq!(t.high_water(), 5);
        assert!(t.slots.capacity() < 10 && t.free.capacity() < 10);
    }
}
