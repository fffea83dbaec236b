//! Per-layer latency evaluation: accelerator compute + collective
//! communication + memory validity, for one strategy on one accelerator set.

use crate::shard::ShardPlan;
use crate::strategy::Strategy;
use mars_accel::PerformanceModel;
use mars_comm::CommSim;
use mars_model::{ConvParams, Layer};
use mars_topology::AccelId;

/// Everything needed to evaluate strategies for one accelerator set: the
/// performance model of the design the set is configured with, the
/// communication simulator, and the member accelerators.
#[derive(Clone, Copy)]
pub struct EvalContext<'a> {
    model: &'a dyn PerformanceModel,
    sim: &'a CommSim<'a>,
    accset: &'a [AccelId],
}

impl<'a> EvalContext<'a> {
    /// Creates an evaluation context.
    ///
    /// # Panics
    ///
    /// Panics if `accset` is empty.
    pub fn new(
        model: &'a dyn PerformanceModel,
        sim: &'a CommSim<'a>,
        accset: &'a [AccelId],
    ) -> Self {
        assert!(!accset.is_empty(), "accelerator set must not be empty");
        Self { model, sim, accset }
    }

    /// Number of accelerators in the set.
    pub(crate) fn set_size(&self) -> usize {
        self.accset.len()
    }

    /// The member accelerators.
    pub(crate) fn accset(&self) -> &[AccelId] {
        self.accset
    }

    /// The performance model of the configured design.
    pub(crate) fn model(&self) -> &dyn PerformanceModel {
        self.model
    }

    /// The communication simulator.
    pub(crate) fn sim(&self) -> &CommSim<'a> {
        self.sim
    }

    /// DRAM capacity of the smallest member, in bytes.
    pub(crate) fn dram_bytes(&self) -> u64 {
        self.sim.topology().min_dram_within(self.accset)
    }
}

impl std::fmt::Debug for EvalContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalContext")
            .field("design", &self.model.design().name)
            .field("accset", &self.accset)
            .finish()
    }
}

/// The evaluated cost of one convolution layer under one strategy.
#[derive(Debug, Clone)]
pub struct LayerEval {
    /// Pure compute time (all phases), in seconds.
    pub compute_seconds: f64,
    /// All-Reduce time for partial-sum combination, in seconds.
    pub allreduce_seconds: f64,
    /// Ring-shift time *not hidden* behind compute, in seconds.
    pub ring_exposed_seconds: f64,
    /// The shard plan the numbers were derived from.
    pub plan: ShardPlan,
    /// Per-accelerator resident bytes.
    pub per_accel_bytes: u64,
    /// `true` if the per-accelerator footprint fits the smallest DRAM in the
    /// set (the validity condition of Section III).
    pub memory_ok: bool,
}

impl LayerEval {
    /// End-to-end latency of the layer on its accelerator set, in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.compute_seconds + self.allreduce_seconds + self.ring_exposed_seconds
    }

    /// Communication share of the total latency, in `[0, 1]`.
    pub fn communication_fraction(&self) -> f64 {
        let total = self.total_seconds();
        if total <= 0.0 {
            return 0.0;
        }
        (self.allreduce_seconds + self.ring_exposed_seconds) / total
    }
}

/// Evaluates one convolution layer under `strategy` on the context's
/// accelerator set.
pub fn evaluate_layer(conv: &ConvParams, strategy: &Strategy, ctx: &EvalContext<'_>) -> LayerEval {
    let p = ctx.set_size();
    let plan = ShardPlan::new(conv, strategy, p);

    // Accelerators that actually take part in the exclusive partitioning; the
    // ring of the shared dimension also runs over these members.
    let active = plan.parallel_degree.min(p).max(1);
    let participants = &ctx.accset()[..active];

    // --- Compute -------------------------------------------------------------
    let phase_conv = plan.phase_conv(conv);
    let phase_cycles = ctx.model().conv_cycles(&phase_conv) + ctx.model().layer_overhead_cycles();
    let phase_seconds = ctx.model().design().cycles_to_seconds(phase_cycles);
    let phases = plan.phases as f64;
    let compute_seconds = phases * phase_seconds;

    // --- Shared-shard ring traffic (overlapped with the next phase) -----------
    let ring_exposed_seconds = if plan.uses_shared_shards() && participants.len() >= 2 {
        let shift = ctx.sim().ring_shift(participants, plan.shared_shard_bytes);
        (plan.phases - 1) as f64 * (shift - phase_seconds).max(0.0)
    } else {
        0.0
    };

    // --- All-Reduce of partial sums -------------------------------------------
    let allreduce_seconds = if plan.reduction_group > 1 && participants.len() >= 2 {
        let group = &participants[..plan.reduction_group.min(participants.len())];
        ctx.sim().all_reduce(group, plan.output_shard_bytes)
    } else {
        0.0
    };

    // --- Memory validity -------------------------------------------------------
    let per_accel_bytes = plan.per_accel_bytes();
    let memory_ok = per_accel_bytes <= ctx.dram_bytes();

    LayerEval {
        compute_seconds,
        allreduce_seconds,
        ring_exposed_seconds,
        plan,
        per_accel_bytes,
        memory_ok,
    }
}

/// Evaluates a non-convolution layer (pooling, normalisation, activation,
/// element-wise).  These are element-wise parallel over the set, carry no
/// collective traffic, and are therefore modelled as the single-accelerator
/// latency divided by the set size.
pub fn evaluate_non_conv(layer: &Layer, ctx: &EvalContext<'_>) -> f64 {
    ctx.model().layer_latency(layer) / ctx.set_size() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_accel::{Catalog, DesignId};
    use mars_model::{zoo, Dim, DimSet, LayerKind};
    use mars_topology::presets;

    fn fixture() -> (mars_topology::Topology, Catalog) {
        (presets::f1_16xlarge(), Catalog::standard_three())
    }

    fn deep_conv() -> ConvParams {
        ConvParams::new(512, 512, 14, 14, 3, 1)
    }

    #[test]
    fn parallel_strategies_beat_the_default() {
        let (topo, catalog) = fixture();
        let sim = CommSim::new(&topo);
        let group = topo.group_members(0);
        let ctx = EvalContext::new(catalog.model(DesignId(1)), &sim, &group);
        let conv = deep_conv();
        let none = evaluate_layer(&conv, &Strategy::none(), &ctx);
        let hw = evaluate_layer(
            &conv,
            &Strategy::exclusive(DimSet::from_dims([Dim::H, Dim::W])),
            &ctx,
        );
        assert!(hw.total_seconds() < none.total_seconds());
        // The default strategy uses a single accelerator: no communication.
        assert_eq!(none.allreduce_seconds, 0.0);
        assert_eq!(none.ring_exposed_seconds, 0.0);
    }

    #[test]
    fn reduction_dim_sharding_incurs_all_reduce() {
        let (topo, catalog) = fixture();
        let sim = CommSim::new(&topo);
        let group = topo.group_members(0);
        let ctx = EvalContext::new(catalog.model(DesignId(0)), &sim, &group);
        let conv = deep_conv();
        let cin = evaluate_layer(
            &conv,
            &Strategy::exclusive(DimSet::from_dims([Dim::Cin, Dim::Cout])),
            &ctx,
        );
        assert!(cin.allreduce_seconds > 0.0);
        let hw = evaluate_layer(
            &conv,
            &Strategy::exclusive(DimSet::from_dims([Dim::H, Dim::W])),
            &ctx,
        );
        assert_eq!(hw.allreduce_seconds, 0.0);
    }

    #[test]
    fn shared_shards_reduce_memory_at_some_communication_cost() {
        let (topo, catalog) = fixture();
        let sim = CommSim::new(&topo);
        let group = topo.group_members(0);
        let ctx = EvalContext::new(catalog.model(DesignId(1)), &sim, &group);
        // A weight-heavy layer (fully-connected style).
        let fc = ConvParams::new(4096, 4096, 4, 4, 1, 1);
        let es_only = evaluate_layer(
            &fc,
            &Strategy::exclusive(DimSet::from_dims([Dim::H, Dim::W])),
            &ctx,
        );
        let with_ss = evaluate_layer(
            &fc,
            &Strategy::with_shared(DimSet::from_dims([Dim::H, Dim::W]), Dim::Cout),
            &ctx,
        );
        // SS shards the weights across the ring, shrinking the footprint.
        assert!(with_ss.per_accel_bytes < es_only.per_accel_bytes);
        // Both must still fit the 1 GiB DRAM.
        assert!(es_only.memory_ok && with_ss.memory_ok);
    }

    #[test]
    fn ring_traffic_is_hidden_when_compute_dominates() {
        let (topo, catalog) = fixture();
        let sim = CommSim::new(&topo);
        let group = topo.group_members(0);
        let ctx = EvalContext::new(catalog.model(DesignId(1)), &sim, &group);
        // Heavy 3x3 layer: per-phase compute far exceeds a weight-shard shift.
        let conv = ConvParams::new(256, 256, 56, 56, 3, 1);
        let eval = evaluate_layer(
            &conv,
            &Strategy::with_shared(DimSet::from_dims([Dim::H, Dim::W]), Dim::Cout),
            &ctx,
        );
        assert!(eval.plan.uses_shared_shards());
        assert_eq!(eval.ring_exposed_seconds, 0.0);
    }

    #[test]
    fn low_bandwidth_exposes_ring_traffic() {
        let topo = presets::h2h_cloud(1.0);
        let catalog = Catalog::standard_three();
        let sim = CommSim::new(&topo);
        let set: Vec<AccelId> = (0..4).map(AccelId).collect();
        let ctx = EvalContext::new(catalog.model(DesignId(1)), &sim, &set);
        // Weight-dominated layer on a slow network: the rotating weight shard
        // cannot hide behind the short per-phase compute.
        let fc = ConvParams::new(4096, 4096, 1, 1, 1, 1);
        let eval = evaluate_layer(
            &fc,
            &Strategy::with_shared(DimSet::from_dims([Dim::Cin]), Dim::Cout),
            &ctx,
        );
        assert!(eval.ring_exposed_seconds > 0.0);
        assert!(eval.communication_fraction() > 0.1);
    }

    #[test]
    fn memory_validity_fails_for_oversized_layers_on_tiny_dram() {
        // 1 MiB of DRAM cannot hold a VGG fully-connected layer un-sharded.
        let topo = mars_topology::presets::multi_group("tiny", 1, 4, 8.0, 2.0, 1 << 20);
        let catalog = Catalog::standard_three();
        let sim = CommSim::new(&topo);
        let set: Vec<AccelId> = topo.accelerators().collect();
        let ctx = EvalContext::new(catalog.model(DesignId(0)), &sim, &set);
        let fc = ConvParams::new(4096, 25088, 1, 1, 1, 1);
        let none = evaluate_layer(&fc, &Strategy::none(), &ctx);
        assert!(!none.memory_ok);
        // Sharding the output channels across the ring shrinks the footprint.
        let ss = evaluate_layer(
            &fc,
            &Strategy::with_shared(DimSet::from_dims([Dim::Cin]), Dim::Cout),
            &ctx,
        );
        assert!(ss.per_accel_bytes < none.per_accel_bytes);
    }

    #[test]
    fn spatial_sharding_is_cheapest_at_low_bandwidth() {
        // Section VI-C: "When the bandwidth is extremely low, MARS tends to
        // partition convolution layers along H/W-dimension, which requires low
        // communication cost."
        let topo = presets::h2h_cloud(1.0);
        let catalog = Catalog::standard_three();
        let sim = CommSim::new(&topo);
        let set: Vec<AccelId> = (0..4).map(AccelId).collect();
        let ctx = EvalContext::new(catalog.model(DesignId(1)), &sim, &set);
        let conv = deep_conv();
        let hw = evaluate_layer(
            &conv,
            &Strategy::exclusive(DimSet::from_dims([Dim::H, Dim::W])),
            &ctx,
        );
        let cin_cout = evaluate_layer(
            &conv,
            &Strategy::exclusive(DimSet::from_dims([Dim::Cin, Dim::Cout])),
            &ctx,
        );
        assert!(hw.total_seconds() < cin_cout.total_seconds());
    }

    #[test]
    fn non_conv_layers_scale_with_set_size() {
        let (topo, catalog) = fixture();
        let sim = CommSim::new(&topo);
        let group = topo.group_members(0);
        let single = [AccelId(0)];
        let ctx4 = EvalContext::new(catalog.model(DesignId(0)), &sim, &group);
        let ctx1 = EvalContext::new(catalog.model(DesignId(0)), &sim, &single);
        let net = zoo::resnet34(1000);
        let (_, pool) = net
            .iter()
            .find(|(_, l)| matches!(l.kind, LayerKind::Pool(_)))
            .unwrap();
        let t4 = evaluate_non_conv(pool, &ctx4);
        let t1 = evaluate_non_conv(pool, &ctx1);
        assert!((t1 / t4 - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_accset_panics() {
        let (topo, catalog) = fixture();
        let sim = CommSim::new(&topo);
        let _ = EvalContext::new(catalog.model(DesignId(0)), &sim, &[]);
    }
}
