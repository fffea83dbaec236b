//! The design catalogue: the set `Design = {d1, ..., dM}` of available
//! accelerator designs an adaptive platform can be configured with.

use crate::design::{DesignId, PerformanceModel};
use crate::superlip::SuperLipModel;
use crate::systolic::SystolicModel;
use crate::winograd::WinogradModel;
use std::sync::Arc;

/// An ordered collection of accelerator designs with their performance models.
///
/// The catalogue is shared (cheaply clonable) because the mapping search
/// evaluates many candidate configurations concurrently.
#[derive(Clone)]
pub struct Catalog {
    models: Vec<Arc<dyn PerformanceModel>>,
}

impl Catalog {
    /// Creates an empty catalogue.
    pub fn new() -> Self {
        Self { models: Vec::new() }
    }

    /// The three-design catalogue of Table II (SuperLIP, systolic array,
    /// Winograd), all clocked at 200 MHz with comparable PE counts.
    pub fn standard_three() -> Self {
        let mut c = Self::new();
        c.push(Arc::new(SuperLipModel::table2()));
        c.push(Arc::new(SystolicModel::table2()));
        c.push(Arc::new(WinogradModel::table2()));
        c
    }

    /// A heterogeneous catalogue in the spirit of the H2H comparison
    /// (Section VI-C): the three Table II designs plus down-scaled variants of
    /// the SuperLIP and systolic designs, modelling a platform populated with
    /// fixed accelerators of unequal capability.
    pub fn h2h_heterogeneous() -> Self {
        let mut c = Self::new();
        c.push(Arc::new(SuperLipModel::table2()));
        c.push(Arc::new(SystolicModel::table2()));
        c.push(Arc::new(WinogradModel::table2()));
        c.push(Arc::new(SuperLipModel::new(DesignId(3), 200, 32, 4, 7, 14)));
        c.push(Arc::new(SystolicModel::new(DesignId(4), 200, 8, 8, 4)));
        c
    }

    /// Appends a design; its [`DesignId`] must equal its catalogue position.
    ///
    /// # Panics
    ///
    /// Panics if the model's declared id does not match its position, which
    /// would make gene decoding ambiguous.
    pub fn push(&mut self, model: Arc<dyn PerformanceModel>) {
        assert_eq!(
            model.design().id,
            DesignId(self.models.len()),
            "design id must match catalogue position"
        );
        self.models.push(model);
    }

    /// Number of designs.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// `true` if the catalogue has no designs.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The performance model of design `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn model(&self, id: DesignId) -> &dyn PerformanceModel {
        self.models[id.0].as_ref()
    }

    /// The shared handle to the performance model of design `id`, if present.
    pub fn model_arc(&self, id: DesignId) -> Option<Arc<dyn PerformanceModel>> {
        self.models.get(id.0).cloned()
    }

    /// Iterates over `(DesignId, &dyn PerformanceModel)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DesignId, &dyn PerformanceModel)> {
        self.models
            .iter()
            .enumerate()
            .map(|(i, m)| (DesignId(i), m.as_ref()))
    }

    /// All design ids in order.
    pub fn design_ids(&self) -> Vec<DesignId> {
        (0..self.len()).map(DesignId).collect()
    }

    /// The smallest on-board memory of any design in the catalog —
    /// `u64::MAX` for an empty catalog (no design, no constraint).
    ///
    /// An *adaptive* platform may configure an accelerator with any design,
    /// so a placement that must hold regardless of the design choice can
    /// only rely on this minimum.  The co-scheduler uses it as the
    /// design-independent part of its per-accelerator memory capacity, which
    /// keeps its memoised inner searches pure (the cache key has no design
    /// dimension).
    pub fn min_memory_bytes(&self) -> u64 {
        self.models
            .iter()
            .map(|m| m.design().memory_bytes)
            .min()
            .unwrap_or(u64::MAX)
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.models.iter().map(|m| m.design()))
            .finish()
    }
}

impl std::fmt::Display for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (id, m) in self.iter() {
            writeln!(f, "{id}: {}", m.design())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_model::ConvParams;

    #[test]
    fn standard_three_matches_table2() {
        let c = Catalog::standard_three();
        assert_eq!(c.len(), 3);
        assert_eq!(c.model(DesignId(0)).design().name, "SuperLIP");
        assert_eq!(c.model(DesignId(1)).design().name, "Systolic");
        assert_eq!(c.model(DesignId(2)).design().name, "Winograd");
        for (_, m) in c.iter() {
            assert_eq!(m.design().frequency_mhz, 200);
            let pes = m.design().num_pes;
            assert!((400..=600).contains(&pes), "comparable PE count, got {pes}");
        }
    }

    #[test]
    fn h2h_catalogue_is_heterogeneous() {
        let c = Catalog::h2h_heterogeneous();
        assert_eq!(c.len(), 5);
        let conv = ConvParams::new(256, 256, 14, 14, 3, 1);
        let fast = c.model(DesignId(1)).conv_cycles(&conv);
        let slow = c.model(DesignId(4)).conv_cycles(&conv);
        assert!(slow > fast, "down-scaled design must be slower");
    }

    #[test]
    fn design_ids_enumerate_in_order() {
        let c = Catalog::standard_three();
        assert_eq!(c.design_ids(), vec![DesignId(0), DesignId(1), DesignId(2)]);
        assert!(c.model_arc(DesignId(2)).is_some());
        assert!(c.model_arc(DesignId(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "design id must match")]
    fn push_rejects_mismatched_id() {
        let mut c = Catalog::new();
        c.push(Arc::new(SystolicModel::table2())); // id 1 pushed at position 0
    }

    #[test]
    fn display_lists_all_designs() {
        let s = Catalog::standard_three().to_string();
        assert!(s.contains("SuperLIP"));
        assert!(s.contains("Winograd"));
    }
}
