//! Integration stress tests for the worker pool and the sharded cache: the
//! concurrency primitives the genetic search engine is built on.

use mars_parallel::{scoped_map, ShardedCache};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A compute function with an observable call counter, used to count misses.
fn keyed_value(key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9).rotate_left(13)
}

#[test]
fn pool_and_cache_compose_like_the_search_engine() {
    // Model of the GA hot path: a population of "genomes" (keys), each
    // evaluated through a shared memo cache from pool workers.
    let cache: ShardedCache<u64, u64> = ShardedCache::new();
    let computations = AtomicUsize::new(0);
    // 300 items but only 50 distinct keys, so most lookups are hits.
    let population: Vec<u64> = (0..300).map(|i| i % 50).collect();

    for threads in [1, 4, 8] {
        let results = scoped_map(threads, &population, |_, &key| {
            cache.get_or_insert_with(key, || {
                computations.fetch_add(1, Ordering::Relaxed);
                keyed_value(key)
            })
        });
        for (i, &key) in population.iter().enumerate() {
            assert_eq!(results[i], keyed_value(key), "threads={threads}, item {i}");
        }
    }
    assert_eq!(cache.len(), 50);
    // Racing threads may compute a missing key more than once (the cache
    // drops the losers), but hits never recompute: the count is bounded by
    // misses (50) times the worst case of every thread racing on the key.
    assert!(computations.load(Ordering::Relaxed) >= 50);
    assert!(computations.load(Ordering::Relaxed) <= 50 * 8);
}

#[test]
fn pool_workers_racing_a_once_cache_compute_each_key_exactly_once() {
    // Model of the second-level memoisation: many pool items resolve to few
    // distinct keys, and each key's expensive computation must run once no
    // matter how the workers interleave.
    use mars_parallel::OnceCache;
    let cache: OnceCache<u64, u64> = OnceCache::new();
    let computations = AtomicUsize::new(0);
    // 64 items, all hammering the same 4 keys.
    let population: Vec<u64> = (0..64).map(|i| i % 4).collect();

    let results = scoped_map(8, &population, |_, &key| {
        cache.get_or_compute(key, || {
            computations.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            keyed_value(key)
        })
    });
    for (i, &key) in population.iter().enumerate() {
        assert_eq!(results[i], keyed_value(key), "item {i}");
    }
    // Unlike ShardedCache's optimistic racing (see the bound in
    // pool_and_cache_compose_like_the_search_engine), OnceCache is exact.
    assert_eq!(computations.load(Ordering::SeqCst), 4);
    assert_eq!(cache.len(), 4);
}

#[test]
fn single_shard_cache_behaves_like_the_old_global_mutex_cache() {
    // The pre-sharding design was one lock around one map.  Run the same
    // concurrent workload against it and the sharded cache and require
    // identical final contents.
    let old_style: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
    let sharded: ShardedCache<u64, u64> = ShardedCache::new();

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let (old_style, sharded) = (&old_style, &sharded);
            scope.spawn(move || {
                for i in 0..250 {
                    let key = (t * 125 + i) % 500;
                    let v = sharded.get_or_insert_with(key, || keyed_value(key));
                    assert_eq!(v, keyed_value(key));
                    let mut map = old_style.lock().unwrap();
                    assert_eq!(*map.entry(key).or_insert_with(|| keyed_value(key)), v);
                }
            });
        }
    });

    let old_style = old_style.into_inner().unwrap();
    assert_eq!(old_style.len(), sharded.len());
    for key in 0..500 {
        assert_eq!(old_style.get(&key).copied(), sharded.get(&key), "key {key}");
    }
}

#[test]
fn cache_stress_with_interleaved_inserts_and_reads() {
    let cache: ShardedCache<(u64, u64), Vec<u64>> = ShardedCache::new();
    std::thread::scope(|scope| {
        for t in 0..6u64 {
            let cache = &cache;
            scope.spawn(move || {
                for i in 0..400u64 {
                    let key = (i % 97, (t + i) % 13);
                    match i % 3 {
                        0 => {
                            cache.insert(key, vec![key.0; 3]);
                        }
                        1 => {
                            if let Some(v) = cache.get(&key) {
                                assert_eq!(v, vec![key.0; 3], "torn value for {key:?}");
                            }
                        }
                        _ => {
                            let v = cache.get_or_insert_with(key, || vec![key.0; 3]);
                            assert_eq!(v, vec![key.0; 3]);
                        }
                    }
                }
            });
        }
    });
    assert!(!cache.is_empty());
    assert!(cache.len() <= 97 * 13);
}

#[test]
fn pool_overlaps_latency_bound_work_at_least_1_5x() {
    // Latency-bound items (sleeps) overlap across workers even on a
    // single-core host, so this measures the pool's fan-out itself: 24 items
    // of 10 ms are >=240 ms serially but ~60 ms on 4 workers.  The 1.5x bar
    // therefore tolerates ~100 ms of scheduler noise on the parallel side
    // (and the parallel run is sampled twice, keeping the better time) so a
    // loaded CI runner does not flake it.
    use std::time::{Duration, Instant};
    let items: Vec<u64> = (0..24).collect();
    let work = |_: usize, &x: &u64| {
        std::thread::sleep(Duration::from_millis(10));
        x + 1
    };

    let start = Instant::now();
    let serial = scoped_map(1, &items, work);
    let serial_elapsed = start.elapsed();

    let mut parallel_elapsed = Duration::MAX;
    for _ in 0..2 {
        let start = Instant::now();
        let parallel = scoped_map(4, &items, work);
        parallel_elapsed = parallel_elapsed.min(start.elapsed());
        assert_eq!(serial, parallel);
    }

    assert!(
        parallel_elapsed.as_secs_f64() * 1.5 <= serial_elapsed.as_secs_f64(),
        "4 workers must be >=1.5x faster on overlapping work: serial {serial_elapsed:?}, parallel {parallel_elapsed:?}"
    );
}

#[test]
fn pool_handles_more_threads_than_items() {
    let items = vec![10u64, 20];
    let got = scoped_map(64, &items, |i, &x| x + i as u64);
    assert_eq!(got, vec![10, 21]);
}
