//! Property tests for the calendar event queue against an ordered-map
//! reference model.
//!
//! The fleet engine's correctness rests on the queue popping events in
//! exact `(time, lane, seq)` order — with [`f64::total_cmp`] time order and
//! deterministic tie-breaks at equal instants — for *any* interleaving of
//! inserts and pops, and for any non-NaN time: negative, huge, `±∞`, or
//! behind the last pop.  The reference model is a `BTreeMap` keyed on the
//! same total order: every queue operation is mirrored against it and every
//! popped event must match the map's minimum.

use mars_serve::calendar::CalendarQueue;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `u64` bits whose unsigned order equals `total_cmp` order (the same
/// sign-flip the queue uses internally — re-derived here so the test fails
/// rather than inheriting a bug).
fn order_bits(t: f64) -> u64 {
    let b = t.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

/// The reference model: a `BTreeMap` over the `(time, lane, seq)` total
/// order, with multiplicity (nothing stops the same triple being inserted
/// twice).
#[derive(Default)]
struct Model {
    events: BTreeMap<(u64, u32, u32), usize>,
    len: usize,
}

impl Model {
    fn insert(&mut self, time: f64, lane: u32, seq: u32) {
        *self
            .events
            .entry((order_bits(time), lane, seq))
            .or_insert(0) += 1;
        self.len += 1;
    }

    fn pop_min(&mut self) -> Option<(u64, u32, u32)> {
        let (&key, _) = self.events.iter().next()?;
        let count = self.events.get_mut(&key).expect("present");
        *count -= 1;
        if *count == 0 {
            self.events.remove(&key);
        }
        self.len -= 1;
        Some(key)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn queue_pops_agree_with_the_ordered_map_model(
        ops in proptest::collection::vec(
            (0u8..100, -2.0f64..12.0, 0u32..24, 0u32..4),
            1..120,
        ),
    ) {
        let mut queue = CalendarQueue::new();
        let mut model = Model::default();
        let mut last_popped = 0.0f64;

        for (sel, t, lane, seq) in ops {
            match sel {
                // Plain insert; coarse rounding manufactures equal-time
                // collisions so the (lane, seq) tie-break actually fires.
                0..=49 => {
                    let time = if sel % 3 == 0 { (t * 4.0).round() / 4.0 } else { t };
                    queue.insert(time, lane, seq);
                    model.insert(time, lane, seq);
                }
                // Insert at or behind the last popped instant.
                50..=59 => {
                    let time = (last_popped * 4.0).floor() / 4.0;
                    queue.insert(time, lane, seq);
                    model.insert(time, lane, seq);
                }
                // Extreme times: ±∞, huge finite, and signed zeros.
                60..=69 => {
                    let time = match sel % 5 {
                        0 => f64::INFINITY,
                        1 => f64::NEG_INFINITY,
                        2 => f64::MAX * (t / 12.0),
                        3 => -0.0,
                        _ => 0.0,
                    };
                    queue.insert(time, lane, seq);
                    model.insert(time, lane, seq);
                }
                // Pop from both and compare the full event.
                70..=89 => {
                    let popped = queue.pop_min();
                    let expected = model.pop_min();
                    match (popped, expected) {
                        (None, None) => {}
                        (Some(ev), Some((bits, l, s))) => {
                            prop_assert_eq!(order_bits(ev.time), bits);
                            prop_assert_eq!((ev.lane, ev.seq), (l, s));
                            last_popped = ev.time;
                        }
                        (got, want) => {
                            prop_assert!(false, "pop mismatch: queue {got:?}, model {want:?}");
                        }
                    }
                }
                // Peek must preview exactly the next pop.
                _ => {
                    let peeked = queue.peek_min();
                    prop_assert_eq!(peeked.is_some(), model.len > 0);
                    if let Some(p) = peeked {
                        let popped = queue.pop_min().expect("peeked");
                        prop_assert_eq!(popped, p);
                        let (bits, l, s) = model.pop_min().expect("model non-empty");
                        prop_assert_eq!(order_bits(p.time), bits);
                        prop_assert_eq!((p.lane, p.seq), (l, s));
                        last_popped = p.time;
                    }
                }
            }
            prop_assert_eq!(queue.len(), model.len);
            prop_assert_eq!(queue.is_empty(), model.len == 0);
        }

        // Drain: the full remaining order must match, ties and all.
        while let Some(ev) = queue.pop_min() {
            let (bits, l, s) = model.pop_min().expect("model drains with queue");
            prop_assert_eq!(order_bits(ev.time), bits);
            prop_assert_eq!((ev.lane, ev.seq), (l, s));
        }
        prop_assert_eq!(model.len, 0);
    }
}
