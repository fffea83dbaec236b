//! The event queue of the fleet-scale simulation engine.
//!
//! The serving simulator's event loop needs a priority queue of *lane wake
//! hints* — "lane `w` may dispatch at or after time `t`" — with a strict
//! deterministic order even when hints collide on the same instant.  A
//! [`CalendarQueue`] is a binary min-heap of `(time, lane, seq)` keys, the
//! time stored as `u64` bits whose unsigned order is [`f64::total_cmp`]
//! order: insert and pop are O(log n) in the number of queued events, with
//! no tuning to the event density and no allocation once the heap has grown
//! to the engine's working size.
//!
//! Ordering is total and deterministic: events pop by
//! `(time, lane, seq)` with times compared via [`f64::total_cmp`].  Two
//! events at the *same* instant pop lowest-lane first — exactly the
//! tie-break the legacy linear scan applied (`start < s` keeps the first,
//! i.e. lowest, workload index), so an engine built on this queue reproduces
//! the scan's dispatch order bit for bit.  Events with equal keys are
//! identical, so the heap's arbitrary order among them is unobservable.
//!
//! ```
//! use mars_serve::calendar::CalendarQueue;
//!
//! let mut q = CalendarQueue::new();
//! q.insert(2.5, 1, 0);
//! q.insert(0.5, 0, 0);
//! q.insert(2.5, 0, 0); // same instant as lane 1: lane 0 pops first
//! assert_eq!(q.len(), 3);
//!
//! let first = q.pop_min().unwrap();
//! assert_eq!((first.time, first.lane), (0.5, 0));
//! assert_eq!(q.pop_min().unwrap().lane, 0);
//! assert_eq!(q.pop_min().unwrap().lane, 1);
//! assert!(q.pop_min().is_none());
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled wake event: lane `lane` may act at or after `time`.
///
/// `seq` is the lane's generation counter at arming time; the engine bumps a
/// lane's generation on any mutation (fault, restore, re-placement), so a
/// popped event whose `seq` is stale is simply discarded instead of having
/// to be searched for and removed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// The event's instant in seconds (compared via [`f64::total_cmp`]).
    pub time: f64,
    /// The lane (workload index) the event belongs to.
    pub lane: u32,
    /// The lane's generation counter at arming time.
    pub seq: u32,
}

/// The heap key: `(order_bits(time), lane, seq)`.
type Key = (u64, u32, u32);

impl Event {
    fn from_key((bits, lane, seq): Key) -> Self {
        Event {
            time: time_of(bits),
            lane,
            seq,
        }
    }
}

/// Maps an `f64` onto `u64` bits whose unsigned order equals
/// [`f64::total_cmp`] order (the standard sign-flip trick).
fn order_bits(t: f64) -> u64 {
    let b = t.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

/// The inverse of [`order_bits`]: the exact `f64` the bits came from.
fn time_of(bits: u64) -> f64 {
    f64::from_bits(if bits >> 63 == 1 {
        bits & !(1 << 63)
    } else {
        !bits
    })
}

/// A min-priority queue of [`Event`]s, ordered by `(time, lane, seq)`.
///
/// Any time but NaN is accepted — negative, `±∞` and inserts behind the
/// last pop (a re-armed lane, a mutation waking a lane at the current
/// clock) included — and pop order is globally correct for any interleaving
/// of inserts and pops.
///
/// ```
/// use mars_serve::calendar::CalendarQueue;
///
/// // An insert *behind* the last pop is the next to pop.
/// let mut q = CalendarQueue::new();
/// q.insert(0.9, 3, 7);
/// assert_eq!(q.pop_min().unwrap().lane, 3);
/// q.insert(0.1, 2, 1);
/// assert_eq!(q.pop_min().unwrap().lane, 2);
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CalendarQueue {
    heap: BinaryHeap<Reverse<Key>>,
}

impl CalendarQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events currently queued (stale events included until
    /// popped).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no event is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts an event.
    ///
    /// `time` must not be NaN: NaN has no defined place in the
    /// `(time, lane, seq)` pop order, so it is **rejected by a panic in
    /// every build**.  `±∞` are accepted: `+∞` pops after every finite
    /// event and `-∞` before them ([`f64::total_cmp`] orders both).
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn insert(&mut self, time: f64, lane: u32, seq: u32) {
        assert!(!time.is_nan(), "CalendarQueue::insert: NaN event time");
        self.heap.push(Reverse((order_bits(time), lane, seq)));
    }

    /// The smallest event without removing it.
    pub fn peek_min(&self) -> Option<Event> {
        self.heap.peek().map(|&Reverse(key)| Event::from_key(key))
    }

    /// Removes and returns the smallest event.
    pub fn pop_min(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(key)| Event::from_key(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_lane_seq_order() {
        let mut q = CalendarQueue::new();
        q.insert(1.0, 2, 0);
        q.insert(1.0, 1, 5);
        q.insert(1.0, 1, 3);
        q.insert(0.25, 7, 0);
        let order: Vec<(f64, u32, u32)> = std::iter::from_fn(|| q.pop_min())
            .map(|e| (e.time, e.lane, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![(0.25, 7, 0), (1.0, 1, 3), (1.0, 1, 5), (1.0, 2, 0)]
        );
    }

    #[test]
    fn far_future_and_negative_times_pop_in_order() {
        let mut q = CalendarQueue::new();
        q.insert(1e9, 0, 0);
        q.insert(7.0, 1, 0);
        q.insert(-3.0, 2, 0);
        assert_eq!(q.pop_min().unwrap().lane, 2);
        assert_eq!(q.pop_min().unwrap().lane, 1);
        assert_eq!(q.pop_min().unwrap().lane, 0);
    }

    #[test]
    #[should_panic(expected = "NaN event time")]
    fn nan_event_time_is_rejected_in_every_build() {
        let mut q = CalendarQueue::new();
        q.insert(f64::NAN, 0, 0);
    }

    #[test]
    fn infinite_times_pop_at_the_correct_ends() {
        let mut q = CalendarQueue::new();
        q.insert(f64::INFINITY, 0, 0); // pops last
        q.insert(2.0, 1, 0);
        q.insert(f64::NEG_INFINITY, 2, 0); // pops first
        q.insert(0.5, 3, 0);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_min()).map(|e| e.lane).collect();
        assert_eq!(order, vec![2, 3, 1, 0]);
    }

    #[test]
    fn inserts_behind_the_last_pop_are_found() {
        let mut q = CalendarQueue::new();
        q.insert(3.7, 0, 0);
        assert_eq!(q.pop_min().unwrap().time, 3.7);
        q.insert(3.0, 1, 0);
        q.insert(3.5, 2, 0);
        assert_eq!(q.pop_min().unwrap().lane, 1);
        assert_eq!(q.pop_min().unwrap().lane, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        for (i, t) in [4.2, 0.1, 9.9, 4.2].into_iter().enumerate() {
            q.insert(t, i as u32, 0);
        }
        while let Some(p) = q.peek_min() {
            assert_eq!(q.pop_min().unwrap(), p);
        }
        assert_eq!(q.len(), 0);
    }
}
