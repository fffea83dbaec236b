//! Ring-based collective communication algorithms.
//!
//! Each collective is a transfer-DAG builder executed on the discrete-event
//! [`Engine`], which captures link contention and host staging.  The tests
//! cross-check the engine against closed-form alpha–beta estimates
//! (`estimate_*`, the textbook cost model of ASTRA-Sim's analytical backend)
//! on contention-free topologies.

use crate::event::{Endpoint, Engine, Transfer, HOST_LATENCY, LINK_LATENCY};
use mars_topology::{transfer_seconds, AccelId};

/// Smallest chunk a ring collective splits its payload into, in bytes, so
/// tiny messages are not dominated by per-chunk latency.
const MIN_CHUNK_BYTES: u64 = 4096;

/// Builds the transfers of `steps` ring steps over `set`, each step sending
/// `chunk_bytes` from every member to its ring successor, with a barrier
/// between steps.
fn ring_steps(set: &[AccelId], steps: usize, chunk_bytes: u64) -> Vec<Transfer> {
    let p = set.len();
    let mut transfers: Vec<Transfer> = Vec::with_capacity(steps * p);
    let mut prev_step: Vec<usize> = Vec::new();
    for _ in 0..steps {
        let mut this_step = Vec::with_capacity(p);
        for i in 0..p {
            let t = Transfer::new(
                Endpoint::Accel(set[i]),
                Endpoint::Accel(set[(i + 1) % p]),
                chunk_bytes,
            )
            .after(prev_step.iter().copied());
            this_step.push(transfers.len());
            transfers.push(t);
        }
        prev_step = this_step;
    }
    transfers
}

/// Chunk size of a ring collective over `p` members moving `bytes` per member.
fn ring_chunk(bytes: u64, p: usize) -> u64 {
    (bytes / p.max(1) as u64).max(MIN_CHUNK_BYTES.min(bytes.max(1)))
}

/// Makespan of `steps` barrier-separated ring steps over `set`, each step
/// sending `chunk_bytes` from every member to its ring successor — the exact
/// fast path of `engine.simulate(&ring_steps(set, steps, chunk_bytes))`.
///
/// In that DAG every step is a full barrier and each directional link (or
/// host up/down link) is occupied exactly once per step, so list scheduling
/// degenerates to the recurrence `M_k = max_i((M_{k-1} + up_i) + down_i)`.
/// The float operations below replay the engine's per-hop additions in the
/// same order, so the result is bit-identical — the ring collectives sit on
/// the search's per-layer miss path, where skipping the DAG construction,
/// per-transfer allocations and resource hashing is worth ~20x.
fn ring_makespan(engine: &Engine<'_>, set: &[AccelId], steps: usize, chunk_bytes: u64) -> f64 {
    let topo = engine.topology();
    let p = set.len();
    // Per ring edge: the one or two hop durations the engine would price.
    let edges: Vec<(f64, f64, bool)> = (0..p)
        .map(|i| {
            let a = set[i];
            let b = set[(i + 1) % p];
            if topo.requires_host_staging(a, b) {
                (
                    HOST_LATENCY + transfer_seconds(chunk_bytes, topo.host_bandwidth(a)),
                    HOST_LATENCY + transfer_seconds(chunk_bytes, topo.host_bandwidth(b)),
                    true,
                )
            } else {
                (
                    LINK_LATENCY + transfer_seconds(chunk_bytes, topo.bandwidth(a, b)),
                    0.0,
                    false,
                )
            }
        })
        .collect();

    let mut makespan = 0.0_f64;
    for _ in 0..steps {
        let barrier = makespan;
        for &(up, down, staged) in &edges {
            let completion = if staged {
                (barrier + up) + down
            } else {
                barrier + up
            };
            makespan = makespan.max(completion);
        }
    }
    debug_assert_eq!(
        makespan.to_bits(),
        engine
            .simulate(&ring_steps(set, steps, chunk_bytes))
            .to_bits(),
        "ring fast path diverged from the event engine"
    );
    makespan
}

/// Ring All-Reduce of a tensor of `bytes` replicated on every member of `set`.
///
/// Used to combine the partial sums produced when a reduction dimension
/// (`Cin`, `Kh`, `Kw`) is partitioned into exclusive shards (Fig. 2(b)).
pub(crate) fn all_reduce(engine: &Engine<'_>, set: &[AccelId], bytes: u64) -> f64 {
    let p = set.len();
    if p < 2 || bytes == 0 {
        return 0.0;
    }
    let chunk = ring_chunk(bytes, p);
    // Reduce-scatter (p-1 steps) followed by all-gather (p-1 steps).
    ring_makespan(engine, set, 2 * (p - 1), chunk)
}

/// Ring All-Gather: every member contributes a shard of `shard_bytes` and ends
/// up with all `p` shards.
pub(crate) fn all_gather(engine: &Engine<'_>, set: &[AccelId], shard_bytes: u64) -> f64 {
    let p = set.len();
    if p < 2 || shard_bytes == 0 {
        return 0.0;
    }
    ring_makespan(engine, set, p - 1, shard_bytes)
}

/// Ring Reduce-Scatter of a tensor of `bytes` replicated on every member.
pub(crate) fn reduce_scatter(engine: &Engine<'_>, set: &[AccelId], bytes: u64) -> f64 {
    let p = set.len();
    if p < 2 || bytes == 0 {
        return 0.0;
    }
    let chunk = ring_chunk(bytes, p);
    ring_makespan(engine, set, p - 1, chunk)
}

/// One ring-shift step: every member sends a shard of `shard_bytes` to its ring
/// successor.  This is the per-phase communication of the shared-shard (SS)
/// strategy of Fig. 2(c).
pub(crate) fn ring_shift(engine: &Engine<'_>, set: &[AccelId], shard_bytes: u64) -> f64 {
    let p = set.len();
    if p < 2 || shard_bytes == 0 {
        return 0.0;
    }
    ring_makespan(engine, set, 1, shard_bytes)
}

/// Pipelined broadcast of `bytes` from `set[0]` along the ring order.
pub(crate) fn broadcast(engine: &Engine<'_>, set: &[AccelId], bytes: u64) -> f64 {
    if set.len() < 2 || bytes == 0 {
        return 0.0;
    }
    let mut transfers = Vec::new();
    for w in set.windows(2) {
        let dep: Vec<usize> = if transfers.is_empty() {
            vec![]
        } else {
            vec![transfers.len() - 1]
        };
        transfers
            .push(Transfer::new(Endpoint::Accel(w[0]), Endpoint::Accel(w[1]), bytes).after(dep));
    }
    engine.simulate(&transfers)
}

/// Scatter from the host: the host sends a distinct `bytes_per_accel` payload
/// to every member of `set` over its host link.
pub(crate) fn host_scatter(engine: &Engine<'_>, set: &[AccelId], bytes_per_accel: u64) -> f64 {
    if set.is_empty() || bytes_per_accel == 0 {
        return 0.0;
    }
    let transfers: Vec<Transfer> = set
        .iter()
        .map(|a| Transfer::new(Endpoint::Host, Endpoint::Accel(*a), bytes_per_accel))
        .collect();
    engine.simulate(&transfers)
}

/// Gather to the host: every member of `set` sends `bytes_per_accel` to the
/// host over its host link.
pub(crate) fn host_gather(engine: &Engine<'_>, set: &[AccelId], bytes_per_accel: u64) -> f64 {
    if set.is_empty() || bytes_per_accel == 0 {
        return 0.0;
    }
    let transfers: Vec<Transfer> = set
        .iter()
        .map(|a| Transfer::new(Endpoint::Accel(*a), Endpoint::Host, bytes_per_accel))
        .collect();
    engine.simulate(&transfers)
}

/// Redistribution of an activation of `total_bytes`, currently sharded evenly
/// over `from`, to be sharded evenly over `to`.
///
/// Every source accelerator sends its shard to the destination accelerator
/// that will own the corresponding slice (round-robin when the set sizes
/// differ).  Transfers between accelerators present in both sets are free.
pub(crate) fn redistribute(
    engine: &Engine<'_>,
    from: &[AccelId],
    to: &[AccelId],
    total_bytes: u64,
) -> f64 {
    if from.is_empty() || to.is_empty() || total_bytes == 0 {
        return 0.0;
    }
    if from == to {
        return 0.0;
    }
    let shards = from.len().max(to.len());
    let shard_bytes = total_bytes.div_ceil(shards as u64);
    let mut transfers = Vec::new();
    for i in 0..shards {
        let src = from[i % from.len()];
        let dst = to[i % to.len()];
        if src != dst {
            transfers.push(Transfer::new(
                Endpoint::Accel(src),
                Endpoint::Accel(dst),
                shard_bytes,
            ));
        }
    }
    engine.simulate(&transfers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_topology::{presets, Topology};

    /// Per-step alpha/beta cost of the slowest consecutive pair on the ring formed
    /// by `set` (in the given order).
    fn ring_step_cost(topo: &Topology, set: &[AccelId], chunk_bytes: u64) -> f64 {
        let p = set.len();
        if p < 2 {
            return 0.0;
        }
        let mut worst = 0.0_f64;
        for i in 0..p {
            let a = set[i];
            let b = set[(i + 1) % p];
            let cost = if topo.requires_host_staging(a, b) {
                2.0 * HOST_LATENCY
                    + transfer_seconds(chunk_bytes, topo.host_bandwidth(a))
                    + transfer_seconds(chunk_bytes, topo.host_bandwidth(b))
            } else {
                LINK_LATENCY + transfer_seconds(chunk_bytes, topo.bandwidth(a, b))
            };
            worst = worst.max(cost);
        }
        worst
    }

    /// Closed-form estimate of [`all_reduce`].
    fn estimate_all_reduce(topo: &Topology, set: &[AccelId], bytes: u64) -> f64 {
        let p = set.len();
        if p < 2 || bytes == 0 {
            return 0.0;
        }
        let chunk = ring_chunk(bytes, p);
        2.0 * (p - 1) as f64 * ring_step_cost(topo, set, chunk)
    }

    /// Closed-form estimate of [`ring_shift`].
    fn estimate_ring_shift(topo: &Topology, set: &[AccelId], shard_bytes: u64) -> f64 {
        if set.len() < 2 || shard_bytes == 0 {
            return 0.0;
        }
        ring_step_cost(topo, set, shard_bytes)
    }

    fn group(topo: &Topology) -> Vec<AccelId> {
        topo.group_members(0)
    }

    #[test]
    fn ring_fast_path_matches_event_engine_bitwise() {
        // The recurrence in `ring_makespan` must replay the event engine's
        // float ops exactly — including on host-staged (cross-group) rings
        // where every transfer expands to two hops.
        let topo = presets::f1_16xlarge();
        let intra = group(&topo);
        let cross: Vec<AccelId> = vec![AccelId(0), AccelId(1), AccelId(4), AccelId(5)];
        let engine = Engine::new(&topo);
        for set in [&intra, &cross] {
            for steps in [1usize, 3, 6] {
                for bytes in [1u64, 4096, 1 << 20] {
                    let fast = ring_makespan(&engine, set, steps, bytes);
                    let dag = engine.simulate(&ring_steps(set, steps, bytes));
                    assert_eq!(fast.to_bits(), dag.to_bits(), "{set:?} {steps} {bytes}");
                }
            }
        }
    }

    #[test]
    fn all_reduce_matches_estimate_on_contention_free_ring() {
        let topo = presets::f1_16xlarge();
        let engine = Engine::new(&topo);
        let set = group(&topo);
        let bytes = 4 << 20;
        let simulated = all_reduce(&engine, &set, bytes);
        let estimated = estimate_all_reduce(&topo, &set, bytes);
        assert!(
            (simulated - estimated).abs() / estimated < 0.01,
            "sim {simulated} vs est {estimated}"
        );
    }

    #[test]
    fn all_reduce_scales_with_bytes_and_is_zero_for_singletons() {
        let topo = presets::f1_16xlarge();
        let engine = Engine::new(&topo);
        let set = group(&topo);
        let small = all_reduce(&engine, &set, 1 << 16);
        let large = all_reduce(&engine, &set, 1 << 22);
        assert!(large > small);
        assert_eq!(all_reduce(&engine, &[AccelId(0)], 1 << 20), 0.0);
        assert_eq!(all_reduce(&engine, &set, 0), 0.0);
    }

    #[test]
    fn cross_group_all_reduce_is_much_slower() {
        let topo = presets::f1_16xlarge();
        let engine = Engine::new(&topo);
        let intra = group(&topo);
        let cross: Vec<AccelId> = vec![AccelId(0), AccelId(1), AccelId(4), AccelId(5)];
        let bytes = 1 << 20;
        let t_intra = all_reduce(&engine, &intra, bytes);
        let t_cross = all_reduce(&engine, &cross, bytes);
        assert!(
            t_cross > 3.0 * t_intra,
            "cross {t_cross} vs intra {t_intra}"
        );
    }

    #[test]
    fn all_gather_and_reduce_scatter_are_cheaper_than_all_reduce() {
        let topo = presets::f1_16xlarge();
        let engine = Engine::new(&topo);
        let set = group(&topo);
        let bytes = 1 << 20;
        let ar = all_reduce(&engine, &set, bytes);
        let rs = reduce_scatter(&engine, &set, bytes);
        let ag = all_gather(&engine, &set, bytes / set.len() as u64);
        assert!(rs < ar);
        assert!(ag < ar);
        // All-reduce = reduce-scatter + all-gather on the same chunking.
        assert!((rs + ag - ar).abs() / ar < 0.05, "{rs} + {ag} vs {ar}");
    }

    #[test]
    fn ring_shift_is_one_step() {
        let topo = presets::f1_16xlarge();
        let engine = Engine::new(&topo);
        let set = group(&topo);
        let shard = 1 << 20;
        let shift = ring_shift(&engine, &set, shard);
        let est = estimate_ring_shift(&topo, &set, shard);
        assert!((shift - est).abs() / est < 0.01);
        // One step of `shard` bytes over 8 Gbps ~ 1.05 ms, plus the link
        // latency.
        assert!((shift - (LINK_LATENCY + transfer_seconds(shard, 8.0))).abs() < 1e-12);
    }

    #[test]
    fn broadcast_pipelines_along_the_ring() {
        let topo = presets::f1_16xlarge();
        let engine = Engine::new(&topo);
        let set = group(&topo);
        let bytes = 1 << 20;
        let t = broadcast(&engine, &set, bytes);
        // Three sequential hops over 8 Gbps.
        let hop = LINK_LATENCY + transfer_seconds(bytes, 8.0);
        assert!((t - 3.0 * hop).abs() < 1e-12);
        assert_eq!(broadcast(&engine, &[AccelId(0)], bytes), 0.0);
    }

    #[test]
    fn host_scatter_gather_use_parallel_host_links() {
        let topo = presets::f1_16xlarge();
        let engine = Engine::new(&topo);
        let set = group(&topo);
        let bytes = 1 << 20;
        // Distinct host links: all four transfers run in parallel at 2 Gbps.
        let hop = HOST_LATENCY + transfer_seconds(bytes, 2.0);
        let t = host_scatter(&engine, &set, bytes);
        assert!((t - hop).abs() < 1e-12);
        let t = host_gather(&engine, &set, bytes);
        assert!((t - hop).abs() < 1e-12);
    }

    #[test]
    fn redistribute_is_free_within_same_set_and_costly_across_groups() {
        let topo = presets::f1_16xlarge();
        let engine = Engine::new(&topo);
        let g0 = topo.group_members(0);
        let g1 = topo.group_members(1);
        assert_eq!(redistribute(&engine, &g0, &g0, 1 << 20), 0.0);
        let within = redistribute(&engine, &g0, &[AccelId(1), AccelId(2)], 1 << 20);
        let across = redistribute(&engine, &g0, &g1, 1 << 20);
        assert!(across > within, "across {across} within {within}");
    }
}
