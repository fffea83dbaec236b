//! Shard algebra: how a [`Strategy`] maps onto a concrete accelerator set.
//!
//! A [`ShardPlan`] answers, for one convolution layer, one strategy and `p`
//! accelerators:
//!
//! * how the `p`-way parallelism is factorised across the exclusive (ES)
//!   dimensions (balanced factors, capped by the dimension extents);
//! * how many ring **phases** the shared (SS) dimension introduces;
//! * the per-accelerator, per-phase loop nest (what each accelerator actually
//!   computes in one phase);
//! * the per-accelerator shard sizes of the input, weight and output tensors,
//!   and which of them rotates around the ring;
//! * the reduction-group size (how many accelerators must All-Reduce their
//!   partial outputs because a reduction dimension was partitioned).

use crate::strategy::Strategy;
use mars_model::{ConvParams, Dim, LoopNest, BYTES_PER_ELEMENT};
use serde::{Deserialize, Serialize};

/// Splits `p` into `k` factors whose product is `p` (when `k > 0`), as
/// balanced as possible, in non-increasing order.
///
/// A [`ShardPlan`] splits its accelerators over the exclusive dimensions
/// this way:
///
/// ```
/// use mars_model::{ConvParams, Dim, DimSet};
/// use mars_parallel::{ShardPlan, Strategy};
///
/// let conv = ConvParams::new(64, 64, 28, 28, 3, 1);
/// let es = Strategy::exclusive(DimSet::from_dims([Dim::Cout, Dim::Cin]));
/// // `Cin` is the reduction dimension; its factor is the All-Reduce group.
/// let group = |p| ShardPlan::new(&conv, &es, p).reduction_group;
/// assert_eq!(group(4), 2); // 2 × 2
/// assert_eq!(group(8), 2); // 4 × 2
/// assert_eq!(group(7), 1); // 7 × 1: a prime does not split
/// ```
pub(crate) fn balanced_factors(p: usize, k: usize) -> Vec<usize> {
    match k {
        0 => Vec::new(),
        1 => vec![p.max(1)],
        _ => {
            let p = p.max(1);
            // Largest divisor of p not exceeding sqrt(p).
            let mut small = 1;
            let mut d = 1;
            while d * d <= p {
                if p % d == 0 {
                    small = d;
                }
                d += 1;
            }
            let mut out = vec![p / small, small];
            out.extend(std::iter::repeat_n(1, k - 2));
            out
        }
    }
}

/// The concrete sharding of one convolution layer under one strategy on an
/// accelerator set of a given size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// Exclusive-shard factor per dimension, e.g. `[(H, 2), (W, 2)]`.
    pub(crate) es_factors: Vec<(Dim, usize)>,
    /// Shared dimension and its ring length (number of phases), if any.
    pub(crate) ss: Option<(Dim, usize)>,
    /// Number of accelerators doing useful work (`∏ es_factors`), at most the
    /// set size; the remaining accelerators idle.
    pub parallel_degree: usize,
    /// Number of ring phases (1 when no shared dimension is used).
    pub phases: usize,
    /// Loop nest executed by one accelerator in one phase.
    pub(crate) phase_nest: LoopNest,
    /// Number of accelerators whose partial outputs must be All-Reduced
    /// (product of the factors on reduction dimensions; 1 = no All-Reduce).
    pub reduction_group: usize,
    /// Per-accelerator input-activation shard in bytes.
    pub input_shard_bytes: u64,
    /// Per-accelerator weight shard in bytes.
    pub weight_shard_bytes: u64,
    /// Per-accelerator output-activation shard in bytes.
    pub output_shard_bytes: u64,
    /// Bytes of the shard that rotates around the ring each phase (0 when no
    /// shared dimension is used).
    pub shared_shard_bytes: u64,
}

impl ShardPlan {
    /// Builds the plan for `conv` under `strategy` on a set of `p`
    /// accelerators.
    pub fn new(conv: &ConvParams, strategy: &Strategy, p: usize) -> Self {
        let p = p.max(1);
        let nest = conv.loop_nest();

        // --- Exclusive factors -------------------------------------------------
        // Assign the balanced factors of p to the ES dimensions, larger factor
        // to the dimension with the larger extent, and cap every factor by the
        // extent so we never create empty shards.
        let mut es_dims: Vec<Dim> = strategy.es().iter().collect();
        es_dims.sort_by_key(|d| std::cmp::Reverse(nest.bound(*d)));
        let raw_factors = balanced_factors(p, es_dims.len());
        let es_factors: Vec<(Dim, usize)> = es_dims
            .iter()
            .zip(raw_factors.iter())
            .map(|(d, f)| (*d, (*f).min(nest.bound(*d)).max(1)))
            .collect();
        let parallel_degree: usize = es_factors.iter().map(|(_, f)| *f).product::<usize>().max(1);

        // --- Shared dimension --------------------------------------------------
        let ss = strategy.ss().and_then(|d| {
            let phases = p.min(nest.bound(d));
            if phases >= 2 {
                Some((d, phases))
            } else {
                None
            }
        });
        let phases = ss.map(|(_, s)| s).unwrap_or(1);

        // --- Per-phase loop nest ----------------------------------------------
        let mut phase_nest = nest;
        for (d, f) in &es_factors {
            phase_nest = phase_nest.sharded(*d, *f);
        }
        if let Some((d, s)) = ss {
            phase_nest = phase_nest.sharded(d, s);
        }

        let reduction_group = es_factors
            .iter()
            .filter(|(d, _)| d.is_reduction())
            .map(|(_, f)| *f)
            .product::<usize>()
            .max(1);

        // --- Tensor shards ------------------------------------------------------
        let factor = |dim: Dim| -> u64 {
            es_factors
                .iter()
                .find(|(d, _)| *d == dim)
                .map(|(_, f)| *f as u64)
                .unwrap_or(1)
        };
        let ss_factor = |dims: &[Dim]| -> u64 {
            match ss {
                Some((d, s)) if dims.contains(&d) => s as u64,
                _ => 1,
            }
        };

        let input = conv.input_shape();
        let input_elems = input.elements();
        let input_div = factor(Dim::Cin)
            * factor(Dim::H)
            * factor(Dim::W)
            * ss_factor(&[Dim::Cin, Dim::H, Dim::W]);
        let input_shard_bytes = (input_elems / input_div.max(1)).max(1) * BYTES_PER_ELEMENT;

        let weight_elems = conv.weight_count();
        let weight_div = factor(Dim::Cout)
            * factor(Dim::Cin)
            * factor(Dim::Kh)
            * factor(Dim::Kw)
            * ss_factor(&[Dim::Cout, Dim::Kh, Dim::Kw]);
        let weight_shard_bytes = (weight_elems / weight_div.max(1)).max(1) * BYTES_PER_ELEMENT;

        let output_elems = conv.output_shape().elements();
        let output_div = factor(Dim::Cout) * factor(Dim::H) * factor(Dim::W);
        let output_shard_bytes = (output_elems / output_div.max(1)).max(1) * BYTES_PER_ELEMENT;

        let shared_shard_bytes = match ss {
            Some((Dim::Cout, _)) | Some((Dim::Kh, _)) | Some((Dim::Kw, _)) => weight_shard_bytes,
            Some((Dim::H, _)) | Some((Dim::W, _)) | Some((Dim::Cin, _)) => input_shard_bytes,
            None => 0,
        };

        Self {
            es_factors,
            ss,
            parallel_degree,
            phases,
            phase_nest,
            reduction_group,
            input_shard_bytes,
            weight_shard_bytes,
            output_shard_bytes,
            shared_shard_bytes,
        }
    }

    /// The convolution shape executed by one accelerator in one phase, for use
    /// with an accelerator performance model.
    ///
    /// If a kernel dimension was sharded (a rare strategy), the kernel stays at
    /// its original extent and the sharding ratio is folded into the input
    /// channels so that the MAC count of the nest is preserved.
    pub(crate) fn phase_conv(&self, conv: &ConvParams) -> ConvParams {
        let [c_out, c_in, h, w, kh, kw] = self.phase_nest.bounds();
        let k = conv.kernel.max(1);
        let k_ratio = (kh * kw) as f64 / (k * k) as f64;
        let c_in_eff = ((c_in as f64 * k_ratio).ceil() as usize).max(1);
        ConvParams::new(c_out, c_in_eff, h.max(1), w.max(1), k, conv.stride)
    }

    /// Per-accelerator resident bytes: input shard, weight shard, output shard
    /// and (when a shared dimension is used) a double-buffer for the incoming
    /// shared shard.
    pub(crate) fn per_accel_bytes(&self) -> u64 {
        self.input_shard_bytes
            + self.weight_shard_bytes
            + self.output_shard_bytes
            + self.shared_shard_bytes
    }

    /// Total MACs executed by one accelerator over all phases.
    pub fn per_accel_macs(&self) -> u64 {
        self.phase_nest.macs() * self.phases as u64
    }

    /// `true` if a shared dimension is active (at least two ring phases).
    pub fn uses_shared_shards(&self) -> bool {
        self.phases > 1
    }
}

impl std::fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ES factors {:?}, phases {}, degree {}, reduction group {}",
            self.es_factors
                .iter()
                .map(|(d, n)| format!("{d}:{n}"))
                .collect::<Vec<_>>(),
            self.phases,
            self.parallel_degree,
            self.reduction_group
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_model::DimSet;

    fn conv() -> ConvParams {
        // Fig. 2-style layer: Cout=256, Cin=128, 28x28, 3x3.
        ConvParams::new(256, 128, 28, 28, 3, 1)
    }

    #[test]
    fn balanced_factors_cover_edge_cases() {
        assert_eq!(balanced_factors(1, 2), vec![1, 1]);
        assert_eq!(balanced_factors(12, 2), vec![4, 3]);
        assert_eq!(balanced_factors(9, 2), vec![3, 3]);
        assert_eq!(balanced_factors(0, 1), vec![1]);
    }

    #[test]
    fn default_strategy_runs_on_one_accelerator() {
        let plan = ShardPlan::new(&conv(), &Strategy::none(), 4);
        assert_eq!(plan.parallel_degree, 1);
        assert_eq!(plan.phases, 1);
        assert_eq!(plan.phase_nest, conv().loop_nest());
        assert_eq!(plan.reduction_group, 1);
        assert_eq!(plan.shared_shard_bytes, 0);
        assert_eq!(plan.per_accel_macs(), conv().macs());
    }

    #[test]
    fn figure_2b_exclusive_cin_and_w() {
        // ES = {Cin, W} over 4 accelerators: 2x2 factorisation, all-reduce
        // over pairs, each accelerator holds half the weights and a quarter of
        // the input.
        let s = Strategy::exclusive(DimSet::from_dims([Dim::Cin, Dim::W]));
        let plan = ShardPlan::new(&conv(), &s, 4);
        assert_eq!(plan.parallel_degree, 4);
        assert_eq!(plan.phases, 1);
        assert_eq!(plan.reduction_group, 2);
        let c = conv();
        assert_eq!(plan.weight_shard_bytes, c.weight_bytes() / 2);
        assert_eq!(plan.input_shard_bytes, c.input_shape().bytes() / 4);
        // Output is sharded only along W (Cin is a reduction dim).
        assert_eq!(plan.output_shard_bytes, c.output_shape().bytes() / 2);
        // Per-accelerator MACs are a quarter of the layer.
        assert_eq!(plan.per_accel_macs(), c.macs() / 4);
    }

    #[test]
    fn figure_2c_shared_cout_with_exclusive_w() {
        // ES = {W}, SS = {Cout} over 2 accelerators: 2 phases, the weight
        // shard rotates, no all-reduce, each accelerator ends up computing all
        // output channels of its W half.
        let s = Strategy::with_shared(DimSet::from_dims([Dim::W]), Dim::Cout);
        let plan = ShardPlan::new(&conv(), &s, 2);
        assert_eq!(plan.parallel_degree, 2);
        assert_eq!(plan.phases, 2);
        assert_eq!(plan.reduction_group, 1);
        assert!(plan.uses_shared_shards());
        let c = conv();
        // The rotating shard is the weight, split along Cout.
        assert_eq!(plan.shared_shard_bytes, c.weight_bytes() / 2);
        assert_eq!(plan.weight_shard_bytes, c.weight_bytes() / 2);
        // Output shard is the W half with all channels (not divided by phases).
        assert_eq!(plan.output_shard_bytes, c.output_shape().bytes() / 2);
        // Total per-accelerator work is half the layer.
        assert_eq!(plan.per_accel_macs(), c.macs() / 2);
    }

    #[test]
    fn shared_spatial_dim_rotates_the_input() {
        let s = Strategy::with_shared(DimSet::from_dims([Dim::Cout]), Dim::H);
        let plan = ShardPlan::new(&conv(), &s, 4);
        assert_eq!(plan.phases, 4);
        assert_eq!(plan.shared_shard_bytes, plan.input_shard_bytes);
        // Weight is sharded along Cout only.
        assert_eq!(plan.weight_shard_bytes, conv().weight_bytes() / 4);
    }

    #[test]
    fn factors_are_capped_by_dimension_extents() {
        // Kernel dims have extent 3: a 8-way split cannot exceed 3.
        let s = Strategy::exclusive(DimSet::from_dims([Dim::Kh]));
        let plan = ShardPlan::new(&conv(), &s, 8);
        assert_eq!(plan.es_factors, vec![(Dim::Kh, 3)]);
        assert_eq!(plan.parallel_degree, 3);
        assert_eq!(plan.reduction_group, 3);
    }

    #[test]
    fn larger_factor_goes_to_larger_extent() {
        // 8 accelerators over {Cout (256), H (28)}: factors 4 and 2, the 4
        // must go to Cout.
        let s = Strategy::exclusive(DimSet::from_dims([Dim::Cout, Dim::H]));
        let plan = ShardPlan::new(&conv(), &s, 8);
        let map: std::collections::HashMap<Dim, usize> = plan.es_factors.iter().copied().collect();
        assert_eq!(map[&Dim::Cout], 4);
        assert_eq!(map[&Dim::H], 2);
    }

    #[test]
    fn phase_conv_preserves_mac_count_within_rounding() {
        let c = conv();
        for s in crate::enumerate::paper_strategies().into_iter().take(20) {
            let plan = ShardPlan::new(&c, &s, 4);
            let pc = plan.phase_conv(&c);
            let macs = pc.macs();
            let expected = plan.phase_nest.macs();
            // Folding kernel sharding into Cin only ever rounds up slightly.
            assert!(macs >= expected, "{s}: {macs} < {expected}");
            assert!(macs <= expected * 2, "{s}: {macs} > 2*{expected}");
        }
    }

    #[test]
    fn ss_on_tiny_dimension_degenerates_to_no_sharing() {
        // A 1x1 conv cannot share along Kh.
        let pw = ConvParams::new(256, 64, 14, 14, 1, 1);
        let s = Strategy::with_shared(DimSet::from_dims([Dim::Cout]), Dim::Kh);
        let plan = ShardPlan::new(&pw, &s, 4);
        assert_eq!(plan.phases, 1);
        assert!(!plan.uses_shared_shards());
        assert_eq!(plan.shared_shard_bytes, 0);
    }

    #[test]
    fn per_accel_bytes_shrink_with_more_sharding() {
        let c = conv();
        let none = ShardPlan::new(&c, &Strategy::none(), 4);
        let es = ShardPlan::new(
            &c,
            &Strategy::exclusive(DimSet::from_dims([Dim::Cout, Dim::H])),
            4,
        );
        let es_ss = ShardPlan::new(
            &c,
            &Strategy::with_shared(DimSet::from_dims([Dim::H, Dim::W]), Dim::Cout),
            4,
        );
        assert!(es.per_accel_bytes() < none.per_accel_bytes());
        // Adding SS on Cout also shards the weights.
        assert!(es_ss.weight_shard_bytes < es.weight_shard_bytes.max(1) * 2);
        assert!(es_ss.per_accel_bytes() < none.per_accel_bytes());
    }

    #[test]
    fn display_is_informative() {
        let s = Strategy::with_shared(DimSet::from_dims([Dim::W]), Dim::Cout);
        let plan = ShardPlan::new(&conv(), &s, 2);
        let text = plan.to_string();
        assert!(text.contains("phases 2"));
        assert!(text.contains("W:2"));
    }
}
