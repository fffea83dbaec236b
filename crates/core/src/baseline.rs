//! Reference mappers the paper compares against.
//!
//! * [`computation_prioritized`]: the baseline of Section VI-A — an extension
//!   of Herald's computation-prioritised mapping with the ES parallelism
//!   strategy bolted on.  "The baseline uses fixed two accelerator sets which
//!   are the same as two groups in the system topology ... it allocates half
//!   of the layers to each accelerator set and chooses the accelerator design
//!   with the lowest computation latency.  About the parallelism strategies,
//!   each layer is partitioned with ES along the longest two dimensions."
//! * [`h2h_like`]: an H2H-style mapper for the Section VI-C comparison —
//!   layers of a heterogeneous model are assigned one-by-one to fixed
//!   heterogeneous accelerators by a computation- and communication-aware
//!   dynamic program, *without* intra-layer parallelism (the capability gap
//!   the paper attributes to H2H).

use crate::evaluator::{DesignPolicy, Evaluator};
use crate::mapping::{Assignment, Mapping};
use mars_accel::{Catalog, DesignId, ProfileTable};
use mars_comm::CommSim;
use mars_model::{DimSet, Network};
use mars_parallel::Strategy;
use mars_topology::{AccelId, Topology};
use std::collections::BTreeMap;

/// The computation-prioritised baseline (extended Herald) of Section VI-A.
///
/// Returns the fully evaluated mapping so it can be compared directly with a
/// MARS search result.
pub fn computation_prioritized(net: &Network, topo: &Topology, catalog: &Catalog) -> Mapping {
    let profile = ProfileTable::build(net, catalog);
    let evaluator = Evaluator::new(net, topo, catalog);

    // Fixed accelerator sets: the topology's groups.
    let groups: Vec<Vec<AccelId>> = topo
        .groups()
        .into_iter()
        .map(|g| topo.group_members(g))
        .collect();
    let k = groups.len().max(1);

    // Evenly split the flattened layer list across the sets.
    let n = net.len();
    let mut assignments = Vec::with_capacity(k);
    for (i, accels) in groups.into_iter().enumerate() {
        let start = i * n / k;
        let end = (i + 1) * n / k;
        let design = if start < end {
            profile.best_design_for_range(start, end)
        } else {
            DesignId(0)
        };
        assignments.push(Assignment::new(accels, design, start..end));
    }

    // ES along the two longest loop dimensions of every compute layer.
    let mut strategies = BTreeMap::new();
    for (id, layer) in net.compute_layers() {
        let nest = layer.as_conv().expect("compute layer").loop_nest();
        let longest: DimSet = nest.dims_by_extent().into_iter().take(2).collect();
        strategies.insert(id.0, Strategy::exclusive(longest));
    }

    evaluator.mapping_of(assignments, strategies)
}

/// Assigns a fixed design to every accelerator for the H2H comparison:
/// designs cycle through the catalogue *per group*, so the platform is
/// heterogeneous across groups (as in H2H's cloud-scale setting, where each
/// rack hosts one accelerator generation) while accelerators inside a group
/// are identical and can therefore cooperate on a layer without the
/// stall-at-the-slowest penalty.
pub fn default_fixed_designs(topo: &Topology, catalog: &Catalog) -> BTreeMap<AccelId, DesignId> {
    topo.accelerators()
        .map(|a| (a, DesignId(topo.group(a) % catalog.len().max(1))))
        .collect()
}

/// An H2H-style computation- and communication-aware layer-to-accelerator
/// mapper on fixed heterogeneous designs, without intra-layer parallelism.
///
/// Layers are walked in topological order; a dynamic program chooses, for every
/// layer, the accelerator minimising accumulated compute latency plus the
/// transfer cost of moving the previous activation to that accelerator.  The
/// resulting per-layer placement is folded into contiguous single-accelerator
/// assignments and evaluated with the same system evaluator MARS uses, so the
/// comparison in Table IV is apples-to-apples.
pub fn h2h_like(
    net: &Network,
    topo: &Topology,
    catalog: &Catalog,
    designs: &BTreeMap<AccelId, DesignId>,
) -> Mapping {
    let sim = CommSim::new(topo);
    let n_acc = topo.len();
    let layers = net.layers();

    // dp[a] = best accumulated latency with the most recent layer on accelerator a.
    let mut dp = vec![0.0f64; n_acc];
    let mut choices: Vec<Vec<usize>> = Vec::with_capacity(layers.len());

    for (idx, layer) in layers.iter().enumerate() {
        let prev_bytes = if idx == 0 {
            layer.input_bytes()
        } else {
            layers[idx - 1].output_bytes()
        };
        let mut next = vec![f64::INFINITY; n_acc];
        let mut back = vec![0usize; n_acc];
        for a in 0..n_acc {
            let design = designs.get(&AccelId(a)).copied().unwrap_or(DesignId(0));
            let compute = catalog.model(design).layer_latency(layer);
            for (prev_a, prev_cost) in dp.iter().enumerate() {
                let transfer = if idx == 0 || prev_a == a {
                    0.0
                } else {
                    sim.point_to_point(AccelId(prev_a), AccelId(a), prev_bytes)
                };
                let total = prev_cost + transfer + compute;
                if total < next[a] {
                    next[a] = total;
                    back[a] = prev_a;
                }
            }
        }
        choices.push(back);
        dp = next;
    }

    // Backtrack the per-layer accelerator placement.
    let mut placement = vec![0usize; layers.len()];
    let mut current = dp
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .unwrap_or(0);
    for idx in (0..layers.len()).rev() {
        placement[idx] = current;
        current = choices[idx][current];
    }

    // Fold consecutive layers on the same accelerator into assignments.
    let mut assignments: Vec<Assignment> = Vec::new();
    let mut start = 0usize;
    for idx in 1..=layers.len() {
        if idx == layers.len() || placement[idx] != placement[start] {
            let acc = AccelId(placement[start]);
            let design = designs.get(&acc).copied().unwrap_or(DesignId(0));
            assignments.push(Assignment::new(vec![acc], design, start..idx));
            start = idx;
        }
    }

    let evaluator =
        Evaluator::with_policy(net, topo, catalog, DesignPolicy::Fixed(designs.clone()));
    evaluator.mapping_of(assignments, BTreeMap::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_model::zoo;
    use mars_topology::presets;

    #[test]
    fn baseline_uses_the_two_groups_and_longest_dims() {
        let net = zoo::vgg16(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let m = computation_prioritized(&net, &topo, &catalog);
        assert!(m.is_valid());
        assert_eq!(m.assignments.len(), 2);
        assert!(m.assignments.iter().all(|a| a.set_size() == 4));
        // Half the layers each.
        assert_eq!(m.assignments[0].layers.end, net.len() / 2);
        // Every compute layer is partitioned along exactly two dimensions.
        for (id, _) in net.compute_layers() {
            assert_eq!(m.strategy_for_layer(id.0).es().len(), 2);
        }
    }

    #[test]
    fn baseline_latency_is_in_a_plausible_range_for_vgg() {
        // Table III reports 20.6 ms for the VGG16 baseline on the F1-style
        // platform; the reproduction should land in the same order of
        // magnitude (a few to a few tens of milliseconds).
        let net = zoo::vgg16(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let m = computation_prioritized(&net, &topo, &catalog);
        assert!(
            m.latency_ms() > 3.0 && m.latency_ms() < 80.0,
            "VGG16 baseline latency {} ms",
            m.latency_ms()
        );
    }

    #[test]
    fn default_fixed_designs_cycle_per_group() {
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let designs = default_fixed_designs(&topo, &catalog);
        assert_eq!(designs.len(), 8);
        // Group 0 (accelerators 0..4) shares one design, group 1 another.
        assert_eq!(designs[&AccelId(0)], DesignId(0));
        assert_eq!(designs[&AccelId(3)], DesignId(0));
        assert_eq!(designs[&AccelId(4)], DesignId(1));
        assert_eq!(designs[&AccelId(7)], DesignId(1));
    }

    #[test]
    fn h2h_like_places_every_layer_on_one_accelerator() {
        let net = zoo::casia_surf_like();
        let topo = presets::h2h_cloud(2.0);
        let catalog = Catalog::h2h_heterogeneous();
        let designs = default_fixed_designs(&topo, &catalog);
        let m = h2h_like(&net, &topo, &catalog, &designs);
        assert!(m.is_valid());
        // Single-accelerator sets only, covering every layer.
        assert!(m.assignments.iter().all(|a| a.set_size() == 1));
        let covered: usize = m.assignments.iter().map(|a| a.layers.len()).sum();
        assert_eq!(covered, net.len());
        // No intra-layer parallelism.
        assert!(m.strategies.is_empty());
    }

    #[test]
    fn h2h_like_uses_more_than_one_design_when_transfers_are_cheap() {
        // With an (artificially) fast interconnect the transfer penalty
        // vanishes and the computation-aware DP places each layer on the
        // accelerator whose fixed design suits it, so several designs get used.
        let net = zoo::facebagnet_like();
        let topo = presets::single_group(4, 100.0, 50.0);
        let catalog = Catalog::h2h_heterogeneous();
        let designs: BTreeMap<AccelId, DesignId> = topo
            .accelerators()
            .map(|a| (a, DesignId(a.0 % 3)))
            .collect();
        let m = h2h_like(&net, &topo, &catalog, &designs);
        let mut used_designs: Vec<DesignId> = m
            .assignments
            .iter()
            .map(|a| designs[&a.accels[0]])
            .collect();
        used_designs.sort();
        used_designs.dedup();
        assert!(
            used_designs.len() > 1,
            "DP should exploit design heterogeneity when transfers are cheap"
        );
    }
}
