//! Per-layer, per-design profiling.
//!
//! Section V of the paper: "MARS profiles the performance of accelerator
//! designs on the layers of the DNN workload according to analytical models
//! before the search.  The gene value of these designs at the first generation
//! is initialized according to the normalized performance."  [`ProfileTable`]
//! is that profile: a dense `(layer, design) -> cycles` table with helpers to
//! pick the best design per layer and to compute the normalised design scores
//! used to seed the genetic algorithm.

use crate::catalog::Catalog;
use crate::design::DesignId;
use mars_model::{LayerId, Network};

/// Dense per-layer, per-design cycle table.
#[derive(Debug, Clone)]
pub struct ProfileTable {
    /// `cycles[layer][design]`.
    cycles: Vec<Vec<u64>>,
    designs: usize,
}

impl ProfileTable {
    /// Profiles every layer of `net` on every design of `catalog`.
    pub fn build(net: &Network, catalog: &Catalog) -> Self {
        let cycles = net
            .layers()
            .iter()
            .map(|layer| {
                catalog
                    .iter()
                    .map(|(_, model)| model.layer_cycles(layer))
                    .collect()
            })
            .collect();
        Self {
            cycles,
            designs: catalog.len(),
        }
    }

    /// The design with the fewest cycles for `layer` (ties broken by lower
    /// design id).
    ///
    /// # Panics
    ///
    /// Panics if the layer index is out of range or the table has no designs.
    pub fn best_design(&self, layer: LayerId) -> DesignId {
        let row = &self.cycles[layer.0];
        let (idx, _) = row
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (**c, *i))
            .expect("profile table has at least one design");
        DesignId(idx)
    }

    /// Total cycles over a contiguous range of layers `[start, end)` on one
    /// design — the quantity the computation-prioritised baseline minimises
    /// when it picks "the accelerator design with the lowest computation
    /// latency" for a layer range.
    pub(crate) fn range_cycles(&self, start: usize, end: usize, design: DesignId) -> u64 {
        self.cycles[start..end]
            .iter()
            .map(|row| row[design.0])
            .sum()
    }

    /// The design with the fewest total cycles over the layers `[start, end)`.
    pub fn best_design_for_range(&self, start: usize, end: usize) -> DesignId {
        (0..self.designs)
            .map(DesignId)
            .min_by_key(|d| (self.range_cycles(start, end, *d), d.0))
            .expect("at least one design")
    }

    /// Normalised performance score per design, in `(0, 1]`, proportional to
    /// the inverse of the design's total cycles over all layers.  The fastest
    /// design scores 1.0.  Used to initialise the first-level genes.
    pub fn normalized_scores(&self) -> Vec<f64> {
        let totals: Vec<f64> = (0..self.designs)
            .map(|d| {
                self.cycles
                    .iter()
                    .map(|row| row[d] as f64)
                    .sum::<f64>()
                    .max(1.0)
            })
            .collect();
        let best = totals.iter().cloned().fold(f64::INFINITY, f64::min);
        totals.iter().map(|t| best / t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_model::zoo;

    fn table() -> (Network, ProfileTable) {
        let net = zoo::resnet34(1000);
        let catalog = Catalog::standard_three();
        let t = ProfileTable::build(&net, &catalog);
        (net, t)
    }

    #[test]
    fn dimensions_match_inputs() {
        let (net, t) = table();
        assert_eq!(t.cycles.len(), net.len());
        assert_eq!(t.designs, 3);
    }

    #[test]
    fn early_layers_prefer_superlip() {
        let (net, t) = table();
        // The stem convolution (7x7, 3 input channels) should prefer Design 1,
        // the pattern reported in Section VI-B.
        let (stem_id, _) = net.conv_layers().next().unwrap();
        assert_eq!(t.best_design(stem_id), DesignId(0));
    }

    #[test]
    fn deep_3x3_layers_prefer_winograd_or_systolic() {
        let (net, t) = table();
        let (last_3x3, _) = net
            .conv_layers()
            .filter(|(_, l)| l.as_conv().unwrap().kernel == 3)
            .last()
            .unwrap();
        let best = t.best_design(last_3x3);
        assert_ne!(best, DesignId(0));
    }

    #[test]
    fn range_cycles_sums_rows() {
        let (_, t) = table();
        let total: u64 = t.cycles[..4].iter().map(|row| row[1]).sum();
        assert_eq!(t.range_cycles(0, 4, DesignId(1)), total);
        assert_eq!(t.range_cycles(2, 2, DesignId(1)), 0);
    }

    #[test]
    fn best_design_for_range_minimises_total() {
        let (net, t) = table();
        let n = net.len();
        let best = t.best_design_for_range(0, n);
        for d in 0..3 {
            assert!(t.range_cycles(0, n, best) <= t.range_cycles(0, n, DesignId(d)));
        }
    }

    #[test]
    fn normalized_scores_are_in_unit_interval_with_a_one() {
        let (_, t) = table();
        let scores = t.normalized_scores();
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|s| *s > 0.0 && *s <= 1.0));
        assert!(scores.iter().any(|s| (*s - 1.0).abs() < 1e-12));
    }

    #[test]
    fn winograd_scores_poorly_on_pointwise_heavy_network() {
        let net = zoo::resnet101(1000);
        let catalog = Catalog::standard_three();
        let t = ProfileTable::build(&net, &catalog);
        let scores = t.normalized_scores();
        // Winograd (index 2) must not be the overall best design for a
        // bottleneck-dominated network.
        assert!(scores[2] < scores[1]);
    }
}
