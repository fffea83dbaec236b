//! A std-only scoped-thread worker pool for embarrassingly parallel maps.
//!
//! The genetic search evaluates every genome of a generation independently, so
//! fitness evaluation parallelises across a worker pool.  This module is the
//! pool: [`scoped_map`] fans a slice of items out over `threads` scoped worker
//! threads (work-stealing via an atomic cursor, so cheap and expensive items
//! mix freely) and collects the results *in input order*.  It is built purely
//! on [`std::thread::scope`] and atomics — no crates.io dependencies, no
//! unsafe code.
//!
//! Each worker tags its results with the item index it claimed and the tags
//! are used to restore input order after the join, so the output order is
//! always the input order regardless of which worker ran which item.  With
//! `threads <= 1` (or a single item) the map degenerates to a plain serial
//! loop on the calling thread, which keeps single-threaded callers free of
//! any synchronisation overhead.
//!
//! ```
//! use mars_parallel::scoped_map;
//!
//! let squares = scoped_map(4, &[1u64, 2, 3, 4, 5], |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! // A 1-thread map produces the same result in the same order.
//! assert_eq!(scoped_map(1, &[1u64, 2, 3, 4, 5], |_, x| x * x), squares);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a `threads` knob to an actual worker count.
///
/// `0` means "ask the OS" ([`std::thread::available_parallelism`], falling
/// back to 1 when the query fails); any other value is used as given.  This is
/// the single place where the convention "0 = auto" is interpreted, shared by
/// the GA engine, the bench harness and the examples.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Reads the worker-thread knob from the `MARS_THREADS` environment variable.
///
/// Unset, unparsable or `0` all mean "auto" (the `0` convention of
/// [`resolve_threads`]); any other value is the explicit worker count.  The
/// examples and every `mars-bench` binary read the knob through this one
/// helper so the convention cannot diverge.
pub fn threads_from_env() -> usize {
    std::env::var("MARS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Maps `f` over `items` on up to `threads` scoped worker threads and returns
/// the results in input order.
///
/// `f` receives `(index, &item)` so callers can derive per-item state (for
/// example a deterministic RNG stream) from the item's position.  Work is
/// distributed dynamically: each worker repeatedly claims the next unclaimed
/// index from a shared atomic cursor, so a few expensive items do not stall
/// the rest of the batch behind a static partition.
///
/// The result is identical — including order — for every `threads` value,
/// because each item's result lands in its own slot.  `threads == 0` asks the
/// OS for the available parallelism (see [`resolve_threads`]); `threads <= 1`
/// or a batch of fewer than two items runs serially on the caller's thread.
///
/// # Panics
///
/// Panics if `f` panics on any item: the worker's original panic payload is
/// re-raised on the calling thread once the pool has stopped.
pub fn scoped_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = resolve_threads(threads).min(items.len().max(1));
    if workers <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        claimed.push((i, f(i, &items[i])));
                    }
                    claimed
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                // Re-raise a worker's panic with its original payload so the
                // caller sees the real assertion message, not a generic one.
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });

    // Each index was claimed exactly once; restore input order.
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, value) in tagged {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index evaluated by a worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn maps_in_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let got = scoped_map(threads, &items, |_, x| x * 3 + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn passes_the_item_index_through() {
        let items = vec!["a", "b", "c", "d"];
        let got = scoped_map(3, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn every_item_is_evaluated_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..50).collect();
        scoped_map(4, &items, |_, &i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(scoped_map(4, &empty, |_, x| *x).is_empty());
        assert_eq!(scoped_map(4, &[7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        // And the map itself accepts the auto value.
        let got = scoped_map(0, &[1u64, 2, 3], |_, x| x + 1);
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn worker_panic_payload_reaches_the_caller() {
        let items: Vec<u64> = (0..8).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scoped_map(2, &items, |_, &x| {
                assert!(x != 5, "item {x} is poisoned");
                x
            })
        }));
        let payload = result.expect_err("the poisoned item must panic the map");
        let message = payload
            .downcast_ref::<String>()
            .expect("assert! panics with a String payload");
        assert!(
            message.contains("item 5 is poisoned"),
            "original message lost: {message}"
        );
    }

    #[test]
    fn uneven_workloads_are_balanced_dynamically() {
        // One slow item plus many fast ones: with dynamic stealing the total
        // wall time is near the slow item's cost, and all results are right.
        let items: Vec<u64> = (0..16).collect();
        let got = scoped_map(4, &items, |_, &x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x * 2
        });
        assert_eq!(got, (0..16).map(|x| x * 2).collect::<Vec<_>>());
    }
}
