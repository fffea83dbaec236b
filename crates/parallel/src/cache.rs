//! An N-way sharded concurrent memo cache.
//!
//! The mapping search memoises per-layer evaluations and second-level search
//! results.  Under parallel fitness evaluation a single `Mutex<HashMap>`
//! serialises every lookup; [`ShardedCache`] removes that bottleneck by
//! hashing each key to one of 16 independent `Mutex<HashMap>` shards, so
//! threads touching different keys almost never contend on the same lock.
//!
//! Sharding only spreads the locks: after any sequence of operations the
//! cache holds exactly what one `HashMap` would, which the tests check.
//!
//! Two flavours share the sharding machinery:
//!
//! * [`ShardedCache`] — optimistic: racing threads may compute a missing key
//!   twice (first insert wins).  Right for cheap pure computations.
//! * [`OnceCache`] — pessimistic: each key's computation runs **exactly
//!   once**; racing threads block on the winner's slot.  Right for expensive
//!   computations such as memoised second-level GA runs.
//!
//! ```
//! use mars_parallel::ShardedCache;
//!
//! let cache: ShardedCache<u32, String> = ShardedCache::new();
//! assert_eq!(cache.get(&1), None);
//! let v = cache.get_or_insert_with(1, || "one".to_string());
//! assert_eq!(v, "one");
//! // Second lookup hits the memoised value instead of recomputing.
//! let v = cache.get_or_insert_with(1, || unreachable!("cached"));
//! assert_eq!(v, "one");
//! assert_eq!(cache.len(), 1);
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Shard count of every cache: enough ways that a typical worker-pool's
/// threads rarely collide, small enough that `len()` stays cheap.
const SHARDS: usize = 16;

/// Hit/miss counters observed on a cache's memoising entry points.
///
/// Counting covers [`ShardedCache::get_or_insert_with`] and
/// [`OnceCache::get_or_compute`] — the paths the search hot loop actually
/// takes — not the raw `get`/`insert` plumbing.  Counters are relaxed
/// atomics: totals are exact once the threads that touched the cache have
/// joined, which is the only time the search reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a memoised value.
    pub hits: u64,
    /// Lookups that had to run the compute closure.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A concurrent memo cache sharded over 16 independent locks.
///
/// Keys are assigned to shards by hash, so two threads operating on different
/// keys contend only when the keys happen to share a shard (probability
/// `1/16`).  Values are returned by clone; the cache is intended for small
/// value types (tuples of numbers, small maps).
pub struct ShardedCache<K, V> {
    shards: [Mutex<HashMap<K, V>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> ShardedCache<K, V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Returns a clone of the cached value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard_for(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
            .cloned()
    }

    /// Inserts `value` under `key`, returning the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard_for(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value)
    }

    /// Returns the cached value for `key`, computing and memoising it with
    /// `compute` on a miss.
    ///
    /// The shard lock is *not* held while `compute` runs, so an expensive
    /// computation never blocks unrelated lookups; if two threads race on the
    /// same missing key both compute, and the first insert wins (the loser's
    /// value is discarded, which is harmless for the deterministic
    /// computations this cache memoises).
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        let mut shard = self.shard_for(&key).lock().expect("cache shard poisoned");
        shard.entry(key).or_insert(value).clone()
    }

    /// Snapshot of the hit/miss counters observed by
    /// [`ShardedCache::get_or_insert_with`].
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Total number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// `true` when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardedCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// A sharded memo cache that computes each key's value **exactly once**, even
/// under contention.
///
/// [`ShardedCache::get_or_insert_with`] deliberately releases the shard lock
/// while the compute closure runs, so two threads racing on the same missing
/// key may both compute it (the loser's value is discarded).  That is fine for
/// cheap pure functions, but the mapping search also memoises *entire
/// second-level GA runs* — there a duplicated computation wastes seconds, not
/// nanoseconds.  `OnceCache` closes that hole: each key maps to an
/// `Arc<OnceLock>` slot, and `OnceLock::get_or_init` lets exactly one thread
/// run the computation while every other thread parks on the slot and then
/// shares the winner's result.
///
/// ```
/// use mars_parallel::OnceCache;
///
/// let cache: OnceCache<u32, String> = OnceCache::new();
/// let v = cache.get_or_compute(1, || "one".to_string());
/// assert_eq!(v, "one");
/// // Second lookup can never recompute.
/// let v = cache.get_or_compute(1, || unreachable!("computed once"));
/// assert_eq!(v, "one");
/// assert_eq!(cache.len(), 1);
/// ```
pub struct OnceCache<K, V> {
    slots: ShardedCache<K, Arc<OnceLock<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> OnceCache<K, V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            slots: ShardedCache::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached value for `key`, running `compute` on a miss.
    ///
    /// `compute` runs **at most once per key** across all threads: when
    /// several threads miss simultaneously, one computes while the rest block
    /// on the slot and receive a clone of the winner's value.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let slot = self
            .slots
            .get_or_insert_with(key, || Arc::new(OnceLock::new()));
        if let Some(v) = slot.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        slot.get_or_init(compute).clone()
    }

    /// Snapshot of the hit/miss counters observed by
    /// [`OnceCache::get_or_compute`].
    ///
    /// A hit is a lookup whose value had already *completed*; threads that
    /// park on an in-flight slot count as misses (they asked before the
    /// value existed), so `misses` bounds the compute attempts from above.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// `true` when `key` has a slot (completed or in flight).  Unlike
    /// [`OnceCache::get_or_compute`] it counts no lookup, so a caller can
    /// plan work without moving [`OnceCache::stats`].
    pub fn contains(&self, key: &K) -> bool {
        self.slots.get(key).is_some()
    }

    /// Number of keys with a slot (completed or in flight).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no key has ever been requested.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl<K: Hash + Eq, V: Clone> Default for OnceCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> std::fmt::Debug for OnceCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnceCache")
            .field("shards", &self.slots.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss_and_overwrite() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.insert(1, 10), None);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.insert(1, 11), Some(10));
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn get_or_insert_with_memoises() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let v = cache.get_or_insert_with(9, || {
                calls += 1;
                81
            });
            assert_eq!(v, 81);
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn single_shard_matches_multi_shard_contents() {
        // One `HashMap` is the single-shard cache; the sharded cache must
        // expose exactly the same contents for the same operations.
        let mut one = HashMap::new();
        let many = ShardedCache::new();
        for k in 0u64..200 {
            one.insert(k, k * k);
            many.insert(k, k * k);
        }
        assert_eq!(one.len(), many.len());
        for k in 0u64..200 {
            assert_eq!(one.get(&k).copied(), many.get(&k));
        }
    }

    #[test]
    fn keys_spread_over_multiple_shards() {
        let cache: ShardedCache<u64, ()> = ShardedCache::new();
        for k in 0..1000 {
            cache.insert(k, ());
        }
        let occupied = cache
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert!(occupied > 1, "all 1000 keys landed in one shard");
    }

    #[test]
    fn once_cache_memoises_and_reports_len() {
        let cache: OnceCache<u32, u32> = OnceCache::new();
        assert!(cache.is_empty());
        let mut calls = 0;
        for _ in 0..3 {
            let v = cache.get_or_compute(9, || {
                calls += 1;
                81
            });
            assert_eq!(v, 81);
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn once_cache_single_evaluation_under_contention() {
        // N threads hammer the same key; the slow computation must run
        // exactly once, with every thread observing the winner's value.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache: OnceCache<u64, u64> = OnceCache::new();
        let calls = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = &cache;
                let calls = &calls;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..64 {
                        let v = cache.get_or_compute(42, || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window: without once-semantics
                            // several threads would land in here.
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            4242
                        });
                        assert_eq!(v, 4242);
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "computed more than once");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
        assert_eq!(cache.stats(), CacheStats::default());
        cache.get_or_insert_with(1, || 1);
        cache.get_or_insert_with(1, || 1);
        cache.get_or_insert_with(2, || 4);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!(s.lookups(), 3);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);

        let once: OnceCache<u32, u32> = OnceCache::new();
        once.get_or_compute(1, || 1);
        once.get_or_compute(1, || 1);
        // Membership queries are not lookups.
        assert!(once.contains(&1) && !once.contains(&2));
        let s = once.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_mixed_hit_miss_stress() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    // Overlapping key ranges: every thread both misses (its own
                    // range) and hits (ranges already filled by neighbours).
                    for i in 0..500 {
                        let key = (t * 250 + i) % 1500;
                        let got = cache.get_or_insert_with(key, || key * 7);
                        assert_eq!(got, key * 7);
                        if let Some(v) = cache.get(&key) {
                            assert_eq!(v, key * 7);
                        }
                    }
                });
            }
        });
        // Every key observed holds the deterministic value, never a torn one.
        for key in 0..1500 {
            if let Some(v) = cache.get(&key) {
                assert_eq!(v, key * 7);
            }
        }
        assert!(cache.len() <= 1500);
    }
}
