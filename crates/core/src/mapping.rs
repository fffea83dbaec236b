//! Mapping result types: who runs what, with which design and which strategy.

use mars_accel::DesignId;
use mars_parallel::Strategy;
use mars_topology::AccelId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

/// One accelerator set with its configured design and the contiguous range of
/// layers (indices into the topological layer order) mapped onto it.
///
/// This is the triple `(AccSet_i, Config[AccSet_i], LayerSet_i)` of the
/// paper's system formulation, with `LayerSet_i` restricted to a contiguous
/// run of the flattened layer order, as the first-level heuristic requires
/// ("each accelerator set is only mapped with a continuous series of layers in
/// topology order").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Member accelerators of the set.
    pub accels: Vec<AccelId>,
    /// The design every member is configured with.
    pub design: DesignId,
    /// Contiguous range of layer indices mapped to the set.
    pub layers: Range<usize>,
}

impl Assignment {
    /// Creates an assignment.
    pub fn new(accels: Vec<AccelId>, design: DesignId, layers: Range<usize>) -> Self {
        Self {
            accels,
            design,
            layers,
        }
    }

    /// Number of accelerators in the set.
    pub(crate) fn set_size(&self) -> usize {
        self.accels.len()
    }

    /// `true` if the assignment maps no layers (its accelerators idle).
    pub fn is_idle(&self) -> bool {
        self.layers.is_empty()
    }
}

impl std::fmt::Display for Assignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "L{}..L{} -> {}x{}",
            self.layers.start,
            self.layers.end.saturating_sub(1),
            self.set_size(),
            self.design
        )
    }
}

/// A complete mapping decision together with its evaluated latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// The accelerator-set assignments, ordered by their layer ranges.
    pub assignments: Vec<Assignment>,
    /// Per-layer parallelism strategy (compute layers only; auxiliary layers
    /// follow the surrounding convolutions).
    pub strategies: BTreeMap<usize, Strategy>,
    /// Evaluated end-to-end latency in seconds ([`f64::INFINITY`] if invalid).
    pub latency_seconds: f64,
}

impl Mapping {
    /// Creates a mapping with its evaluated latency.
    pub fn new(
        assignments: Vec<Assignment>,
        strategies: BTreeMap<usize, Strategy>,
        latency_seconds: f64,
    ) -> Self {
        Self {
            assignments,
            strategies,
            latency_seconds,
        }
    }

    /// Latency in milliseconds (the unit of Tables III and IV).
    pub fn latency_ms(&self) -> f64 {
        self.latency_seconds * 1e3
    }

    /// The assignment whose layer range contains `layer_index`, if any.
    pub fn assignment_for_layer(&self, layer_index: usize) -> Option<&Assignment> {
        self.assignments
            .iter()
            .find(|a| a.layers.contains(&layer_index))
    }

    /// The strategy of `layer_index` (the default no-partitioning strategy if
    /// none was recorded).
    pub(crate) fn strategy_for_layer(&self, layer_index: usize) -> Strategy {
        self.strategies
            .get(&layer_index)
            .copied()
            .unwrap_or_default()
    }

    /// `true` if the mapping was evaluated as valid (finite latency).
    pub fn is_valid(&self) -> bool {
        self.latency_seconds.is_finite()
    }

    /// Number of distinct designs used by non-idle assignments.
    pub(crate) fn distinct_designs(&self) -> usize {
        let mut designs: Vec<DesignId> = self
            .assignments
            .iter()
            .filter(|a| !a.is_idle())
            .map(|a| a.design)
            .collect();
        designs.sort();
        designs.dedup();
        designs.len()
    }

    /// Relative latency improvement over `other`, as a fraction in `[0, 1)`
    /// when this mapping is faster (the "-X%" figures of Tables III and IV).
    pub fn improvement_over(&self, other: &Mapping) -> f64 {
        if !other.is_valid() || other.latency_seconds <= 0.0 {
            return 0.0;
        }
        1.0 - self.latency_seconds / other.latency_seconds
    }
}

impl std::fmt::Display for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "latency: {:.3} ms", self.latency_ms())?;
        for a in &self.assignments {
            writeln!(f, "  {a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_model::{Dim, DimSet};

    fn sample() -> Mapping {
        let mut strategies = BTreeMap::new();
        strategies.insert(0, Strategy::exclusive(DimSet::from_dims([Dim::H, Dim::W])));
        Mapping::new(
            vec![
                Assignment::new(vec![AccelId(0), AccelId(1)], DesignId(0), 0..3),
                Assignment::new(vec![AccelId(2), AccelId(3)], DesignId(2), 3..6),
            ],
            strategies,
            2e-3,
        )
    }

    #[test]
    fn lookup_by_layer() {
        let m = sample();
        assert_eq!(m.assignment_for_layer(1).unwrap().design, DesignId(0));
        assert_eq!(m.assignment_for_layer(4).unwrap().design, DesignId(2));
        assert!(m.assignment_for_layer(10).is_none());
    }

    #[test]
    fn strategy_defaults_to_none() {
        let m = sample();
        assert!(!m.strategy_for_layer(0).is_none());
        assert!(m.strategy_for_layer(5).is_none());
    }

    #[test]
    fn latency_conversions_and_validity() {
        let m = sample();
        assert!((m.latency_ms() - 2.0).abs() < 1e-12);
        assert!(m.is_valid());
        let invalid = Mapping::new(vec![], BTreeMap::new(), f64::INFINITY);
        assert!(!invalid.is_valid());
    }

    #[test]
    fn improvement_is_relative() {
        let fast = sample();
        let mut slow = sample();
        slow.latency_seconds = 4e-3;
        assert!((fast.improvement_over(&slow) - 0.5).abs() < 1e-12);
        assert_eq!(
            fast.improvement_over(&Mapping::new(vec![], BTreeMap::new(), 0.0)),
            0.0
        );
    }

    #[test]
    fn distinct_designs_ignores_idle_sets() {
        let mut m = sample();
        assert_eq!(m.distinct_designs(), 2);
        m.assignments
            .push(Assignment::new(vec![AccelId(7)], DesignId(1), 6..6));
        assert_eq!(m.distinct_designs(), 2);
    }

    #[test]
    fn display_mentions_latency_and_ranges() {
        let text = sample().to_string();
        assert!(text.contains("2.000 ms"));
        assert!(text.contains("Design 1"));
    }

    #[test]
    fn assignment_helpers() {
        let a = Assignment::new(vec![AccelId(0)], DesignId(1), 5..5);
        assert!(a.is_idle());
        assert_eq!(a.layers.len(), 0);
        assert_eq!(a.set_size(), 1);
    }
}
