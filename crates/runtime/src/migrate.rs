//! The migration cost model: what activating a new placement costs.
//!
//! A re-schedule is not free.  Before the new placement serves its first
//! batch the runtime charges, in simulated time:
//!
//! 1. **Drain** — every in-flight batch finishes on the old placement (the
//!    runtime reads this off the simulator; it is not part of this module).
//! 2. **Weight transfer** — each workload whose accelerator subset changed
//!    re-stages its weights onto the new subset.  The byte volume is
//!    `total_params × 2` (half-precision serving weights, the common
//!    deployment format), and the transfer time comes from the
//!    same `mars-comm` engine the mapper's evaluator uses
//!    ([`CommSim::redistribute`]): shards move pairwise from old to new
//!    members over the [`Topology`]'s links (host-staged when two
//!    accelerators share no direct path), and members present in both
//!    subsets keep their shard for free.
//!
//! A workload whose subset is unchanged transfers nothing, so a re-schedule
//! that lands on the incumbent partition costs exactly zero — the property
//! the runtime's tests pin.

use mars_comm::CommSim;
use mars_core::CoScheduleResult;
use mars_model::Workload;
use mars_topology::Topology;

/// Bytes per model parameter staged onto the new subset.
const BYTES_PER_PARAM: u64 = 2;

/// The charged cost of activating a new placement.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationCost {
    /// Total simulated transfer time, seconds (workloads migrate one after
    /// another — the conservative, contention-free-per-workload model).
    pub seconds: f64,
    /// Total weight bytes moved.
    pub bytes: u64,
    /// Workload indices that actually moved.
    pub migrated: Vec<usize>,
}

impl MigrationCost {
    /// A free migration (no placement changed).
    pub(crate) fn free() -> Self {
        Self {
            seconds: 0.0,
            bytes: 0,
            migrated: Vec::new(),
        }
    }

    /// `true` when nothing needs to move.
    pub fn is_free(&self) -> bool {
        self.migrated.is_empty()
    }
}

/// Prices the move from `old` to `new` placements for `workloads` on `topo`.
///
/// Both results must place the same workloads in input order (as
/// `co_schedule` guarantees).  Workloads whose subsets are identical cost
/// nothing; the rest pay a weight-transfer redistribution each, summed —
/// migrations share the fabric with each other, so the serial sum is the
/// honest upper bound a scheduler should budget for.
pub fn migration_cost(
    topo: &Topology,
    workloads: &[Workload],
    old: &CoScheduleResult,
    new: &CoScheduleResult,
) -> MigrationCost {
    let sim = CommSim::new(topo);
    let mut cost = MigrationCost::free();
    for ((w, workload), (old_p, new_p)) in workloads
        .iter()
        .enumerate()
        .zip(old.placements.iter().zip(&new.placements))
    {
        if old_p.accels == new_p.accels {
            continue;
        }
        let bytes = workload.network.total_params() * BYTES_PER_PARAM;
        cost.seconds += sim.redistribute(&old_p.accels, &new_p.accels, bytes);
        cost.bytes += bytes;
        cost.migrated.push(w);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_core::{co_schedule, CoScheduleConfig, GaConfig};
    use mars_model::zoo;
    use mars_topology::presets;

    fn tiny(seed: u64) -> CoScheduleConfig {
        CoScheduleConfig {
            outer: GaConfig {
                population: 4,
                generations: 1,
                ..GaConfig::first_level(seed)
            },
            ..CoScheduleConfig::fast(seed)
        }
    }

    fn small_workloads() -> Vec<Workload> {
        vec![
            Workload::new(zoo::alexnet(100)).with_batch(4),
            Workload::new(zoo::alexnet(10)).with_batch(2),
        ]
    }

    #[test]
    fn unchanged_placement_migrates_for_free() {
        let workloads = small_workloads();
        let topo = presets::f1_16xlarge();
        let catalog = mars_accel::Catalog::standard_three();
        let co = co_schedule(&workloads, &topo, &catalog, &tiny(3)).unwrap();
        let cost = migration_cost(&topo, &workloads, &co, &co);
        assert!(cost.is_free());
        assert_eq!(cost.seconds, 0.0);
        assert_eq!(cost.bytes, 0);
    }

    #[test]
    fn changed_placement_pays_weight_bytes_over_the_fabric() {
        let workloads = small_workloads();
        let topo = presets::f1_16xlarge();
        let catalog = mars_accel::Catalog::standard_three();
        // Two different seeds tend to land on different cuts; if not, force
        // a difference by swapping the subsets.
        let a = co_schedule(&workloads, &topo, &catalog, &tiny(3)).unwrap();
        let mut b = a.clone();
        b.placements[0].accels = a.placements[1].accels.clone();
        b.placements[1].accels = a.placements[0].accels.clone();
        let cost = migration_cost(&topo, &workloads, &a, &b);
        assert_eq!(cost.migrated, vec![0, 1]);
        assert!(cost.seconds > 0.0);
        let expected: u64 = workloads.iter().map(|w| w.network.total_params() * 2).sum();
        assert_eq!(cost.bytes, expected);
    }
}
