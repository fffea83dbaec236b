//! The lane-shard runner behind every whole-run serving replay.
//!
//! Lanes own disjoint accelerators and never interact, so a replay splits
//! exactly by lane: contiguous shards run as independent engines on the
//! `mars-parallel` pool and merge *in lane order*.  Per-lane figures come
//! from the same float operations as a single-engine run and the aggregate
//! percentiles are recomputed from the raw samples, so the report is
//! **bit-identical** to one engine's at every `MARS_THREADS` setting
//! (`tests/fleet_sim_equivalence.rs` pins it).

use mars_obs::Recorder;
use mars_parallel::{resolve_threads, scoped_map, threads_from_env};
use mars_topology::AccelId;
use std::collections::BTreeMap;
use std::ops::Range;

/// The finished lanes of an engine (or of merged shards), in lane order:
/// what a report is assembled from.
pub(crate) struct Lanes<S> {
    /// Per-lane statistics.
    pub(crate) stats: Vec<S>,
    /// Every lane's completion latencies in seconds, concatenated: the
    /// samples behind the aggregate percentiles.
    pub(crate) latencies: Vec<f64>,
    /// Busy seconds per accelerator, sorted by id (empty for LLM lanes).
    pub(crate) accel_busy: Vec<(AccelId, f64)>,
}

/// Runs lanes `0..lanes` as contiguous shards of `ceil(lanes / workers)`
/// lanes on the `MARS_THREADS` pool (one shard, inline, at one thread) and
/// merges them in lane order.
///
/// `shard` builds the engine of one lane range from input the caller has
/// validated whole, runs it to the horizon with the given local recorder,
/// and hands back its lanes; each local store is absorbed into `recorder`
/// in lane order.  Zero lanes still make one (empty) shard.
pub(crate) fn run_lanes<S: Send>(
    lanes: usize,
    recorder: &Recorder,
    shard: impl Fn(Range<usize>, Recorder) -> Lanes<S> + Sync,
) -> Lanes<S> {
    let threads = threads_from_env();
    let workers = resolve_threads(threads).min(lanes.max(1));
    let size = lanes.div_ceil(workers).max(1);
    let shards: Vec<Range<usize>> = (0..lanes.max(1))
        .step_by(size)
        .map(|lo| lo..(lo + size).min(lanes))
        .collect();
    let outputs = scoped_map(threads, &shards, |_, range| {
        let local = recorder.local();
        let out = shard(range.clone(), local.clone());
        (out, local.take())
    });

    let mut merged = Lanes {
        stats: Vec::with_capacity(lanes),
        latencies: Vec::with_capacity(outputs.iter().map(|(o, _)| o.latencies.len()).sum()),
        accel_busy: Vec::new(),
    };
    let mut busy: BTreeMap<AccelId, f64> = BTreeMap::new();
    for (out, obs) in outputs {
        merged.stats.extend(out.stats);
        merged.latencies.extend(out.latencies);
        // Partitions are disjoint, so each accelerator's busy total comes
        // whole from exactly one shard: no cross-shard float addition.
        for (a, b) in out.accel_busy {
            *busy.entry(a).or_insert(0.0) += b;
        }
        recorder.absorb(&obs);
    }
    merged.accel_busy = busy.into_iter().collect();
    merged
}
