//! Whole-system latency evaluation of a mapping.
//!
//! The evaluator is the "simulator" box of Fig. 3: it combines per-layer
//! compute latencies (from the analytical accelerator models via
//! `mars-parallel`), intra-set collective traffic, inter-set activation
//! transfers, host input/output staging and DRAM validity into a single
//! end-to-end latency figure for a candidate mapping.  Both levels of the
//! genetic algorithm use it as their fitness function, so per-layer results
//! are memoised.

use crate::mapping::Assignment;
use crate::memo::{set_key, NetworkMemo, SetMemo, Term};
use mars_accel::{AccelDesign, Catalog, DesignId, PerformanceModel};
use mars_comm::CommSim;
use mars_model::{ConvParams, DimSet, Network};
use mars_parallel::{
    evaluate_layer, evaluate_non_conv, CacheStats, EvalContext, ShardedCache, Strategy,
};
use mars_topology::{AccelId, Topology};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Reconstructs the serial-trajectory hit/miss split of a memo cache from
/// its (deterministic) lookup total and its (deterministic) count of
/// computed entries: each entry misses exactly once in a serial run, and
/// racing duplicate computations never change either input.
pub(crate) fn exact_split(lookups: u64, entries: u64) -> CacheStats {
    CacheStats {
        hits: lookups.saturating_sub(entries),
        misses: entries.min(lookups),
    }
}

/// How accelerator designs are decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignPolicy {
    /// The adaptive setting of the main evaluation: every accelerator of a set
    /// is reconfigured to the design chosen for that set.
    Adaptive,
    /// The H2H comparison setting (Section VI-C): every accelerator has a
    /// fixed design; a set containing heterogeneous designs "stalls until the
    /// slowest accelerator finishes computing".
    Fixed(BTreeMap<AccelId, DesignId>),
}

/// A performance model that reports, for every layer shape, the time of the
/// *slowest* of its member models — the paper's stalling assumption for
/// heterogeneous accelerator sets.
///
/// Members may run at different clocks, so they are compared in wall time:
/// the model reports cycles at its first member's clock `f₀`, counting a
/// member at `f_m` as `⌈cycles · f₀ / f_m⌉` of them.
pub(crate) struct WorstOfModel {
    design: AccelDesign,
    models: Vec<Arc<dyn PerformanceModel>>,
}

impl WorstOfModel {
    /// Builds a worst-of model over the given members.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub(crate) fn new(models: Vec<Arc<dyn PerformanceModel>>) -> Self {
        assert!(
            !models.is_empty(),
            "worst-of model needs at least one member"
        );
        let freq = models[0].design().frequency_mhz;
        let names: Vec<&str> = models.iter().map(|m| m.design().name.as_str()).collect();
        let design = AccelDesign {
            id: models[0].design().id,
            name: format!("worst-of({})", names.join(", ")),
            frequency_mhz: freq,
            num_pes: models.iter().map(|m| m.design().num_pes).min().unwrap_or(1),
            // Conservative, like the cycle counts: the tightest member bounds
            // what the set can hold.
            memory_bytes: models
                .iter()
                .map(|m| m.design().memory_bytes)
                .min()
                .unwrap_or(0),
            parameters: "heterogeneous set".into(),
        };
        Self { design, models }
    }

    /// The worst member's `cycles` in wall time, as cycles at the first
    /// member's clock, rounded up (exact for a member at that clock).  A
    /// member with a zero clock never finishes.
    fn max_at_first_clock(&self, cycles: impl Fn(&dyn PerformanceModel) -> u64) -> u64 {
        let f0 = u128::from(self.design.frequency_mhz);
        self.models
            .iter()
            .map(|m| {
                let fm = u128::from(m.design().frequency_mhz);
                if fm == 0 {
                    return u64::MAX;
                }
                let at_f0 = (u128::from(cycles(m.as_ref())) * f0).div_ceil(fm);
                u64::try_from(at_f0).unwrap_or(u64::MAX)
            })
            .max()
            .unwrap_or(0)
    }
}

impl PerformanceModel for WorstOfModel {
    fn design(&self) -> &AccelDesign {
        &self.design
    }

    fn conv_cycles(&self, conv: &mars_model::ConvParams) -> u64 {
        self.max_at_first_clock(|m| m.conv_cycles(conv))
    }

    fn layer_overhead_cycles(&self) -> u64 {
        self.max_at_first_clock(|m| m.layer_overhead_cycles())
    }
}

/// The evaluated cost of one assignment (one accelerator set and its layers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AssignmentCost {
    /// Intra-set latency (compute + collectives + resharding) in seconds.
    pub(crate) seconds: f64,
    /// Per-accelerator resident weight bytes summed over the mapped layers.
    pub(crate) weight_bytes_per_accel: u64,
    /// `true` if every layer's footprint and the resident weights fit the DRAM
    /// of the smallest member.
    pub(crate) memory_ok: bool,
}

pub(crate) enum ModelHandle {
    Shared(Arc<dyn PerformanceModel>),
    Worst(Box<WorstOfModel>),
}

impl ModelHandle {
    pub(crate) fn as_dyn(&self) -> &dyn PerformanceModel {
        match self {
            ModelHandle::Shared(m) => m.as_ref(),
            ModelHandle::Worst(m) => m.as_ref(),
        }
    }
}

// Keyed by the layer's *shape* (exact `ConvParams` contents, not an index or
// a hash of them), the accelerator-context signature, a layer tag and the
// strategy.  With shape keying (the default) the tag is a constant, so every
// layer of every generation — and every repeated shape within a network,
// which CNNs have in abundance — that resolves to the same shape/context/
// strategy triple shares one memoised entry across the whole search.  With
// per-layer keying (the pre-rebuild behaviour, kept for the reference search
// engine) the tag is the layer index, so repeated shapes do not share.
type LayerCacheKey = (ConvParams, u64, u32, Strategy);

/// Evaluates mappings of one network onto one topology with one design
/// catalogue.
///
/// The evaluator is `Sync` and designed to be shared by reference across the
/// genetic search's worker threads: per-layer results are memoised in an
/// N-way [`ShardedCache`] (keys hash to independent locks), so concurrent
/// genome evaluations don't serialise on a single global mutex.
///
/// ```
/// use mars_accel::Catalog;
/// use mars_core::{Assignment, Evaluator};
/// use mars_model::zoo;
/// use mars_topology::presets;
/// use std::collections::BTreeMap;
///
/// let net = zoo::alexnet(1000);
/// let topo = presets::f1_16xlarge();
/// let catalog = Catalog::standard_three();
/// let eval = Evaluator::new(&net, &topo, &catalog);
///
/// // Map the whole network onto the first group with design 0.
/// let all = Assignment::new(topo.group_members(0), mars_accel::DesignId(0), 0..net.len());
/// let latency = eval.evaluate(&[all.clone()], &BTreeMap::new());
/// assert!(latency.is_finite() && latency > 0.0);
/// // A repeated evaluation is served from the memo, bit for bit.
/// assert_eq!(eval.evaluate(&[all], &BTreeMap::new()), latency);
/// ```
pub struct Evaluator<'a> {
    net: &'a Network,
    topo: &'a Topology,
    catalog: &'a Catalog,
    sim: CommSim<'a>,
    policy: DesignPolicy,
    cache: ShardedCache<LayerCacheKey, Term>,
    /// The flat engine's term tables and greedy winners, which other
    /// searches of the same network may share (see [`NetworkMemo`]).
    memo: Arc<NetworkMemo>,
    /// This evaluator's handles on `memo`'s set entries, by exact
    /// (accelerators, design): each set's content key is built and interned
    /// once per search, so a term lookup stays an indexed load.
    sets: Mutex<HashMap<SetId, Arc<SetMemo>>>,
    /// Term lookups of this evaluator's search.  Callers add them in bulk
    /// through [`Evaluator::count_term_lookups`], once per second-level
    /// search and once per greedy scan, rather than one shared atomic
    /// increment per lookup.
    term_lookups: AtomicU64,
    /// Term slots this evaluator's search filled.
    term_fills: AtomicU64,
    /// Greedy-winner lookups and candidate scans of this evaluator's search.
    greedy_lookups: AtomicU64,
    greedy_scans: AtomicU64,
    per_layer_keys: bool,
}

/// An accelerator set as the flat engine names it inside one search: its
/// members in order and the design the set is configured with.
pub(crate) type SetId = (Vec<AccelId>, DesignId);

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with the adaptive design policy.
    pub fn new(net: &'a Network, topo: &'a Topology, catalog: &'a Catalog) -> Self {
        Self::with_policy(net, topo, catalog, DesignPolicy::Adaptive)
    }

    /// Creates an evaluator with an explicit design policy.
    pub fn with_policy(
        net: &'a Network,
        topo: &'a Topology,
        catalog: &'a Catalog,
        policy: DesignPolicy,
    ) -> Self {
        Self::with_memo(net, topo, catalog, policy, Arc::new(NetworkMemo::new(net)))
    }

    /// Creates an evaluator whose term tables and greedy winners live in
    /// `memo`, a memo made for `net` that other searches may share.
    pub(crate) fn with_memo(
        net: &'a Network,
        topo: &'a Topology,
        catalog: &'a Catalog,
        policy: DesignPolicy,
        memo: Arc<NetworkMemo>,
    ) -> Self {
        debug_assert_eq!(memo.layers(), net.len(), "memo made for another network");
        Self {
            net,
            topo,
            catalog,
            sim: CommSim::new(topo),
            policy,
            cache: ShardedCache::new(),
            memo,
            sets: Mutex::new(HashMap::new()),
            term_lookups: AtomicU64::new(0),
            term_fills: AtomicU64::new(0),
            greedy_lookups: AtomicU64::new(0),
            greedy_scans: AtomicU64::new(0),
            per_layer_keys: false,
        }
    }

    /// Switches the per-layer memo cache from shape keys to per-layer-index
    /// keys — the keying the search used before repeated shapes were
    /// deduplicated.  Cached values are a pure function of shape, context and
    /// strategy, so every latency is bit-identical either way; only reuse
    /// across repeated shapes changes.  The retained reference search engine
    /// runs with this keying, as it shipped, so the differential tests
    /// compare the rebuilt engine against the pre-rebuild pipeline itself
    /// rather than against one already sharing the shape cache.
    #[must_use]
    pub(crate) fn with_per_layer_cache_keys(mut self) -> Self {
        self.per_layer_keys = true;
        self
    }

    /// Number of memoised per-layer evaluations.
    pub(crate) fn cache_entries(&self) -> usize {
        self.cache.len()
    }

    /// Hit/miss counters of the per-layer memo cache.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Hit/miss counters of this evaluator's term lookups: misses are the
    /// slots it filled, hits the remaining lookups.
    ///
    /// Concurrent lookups racing on one empty slot both compute it, but
    /// exactly one fill wins.  So on a memo no other search shares, misses
    /// are the filled slots, a pure function of the search trajectory, and
    /// the split is the one a serial run observes at every thread count.  On
    /// a shared memo it depends on what the other searches filled first.
    pub(crate) fn term_stats(&self) -> CacheStats {
        exact_split(
            self.term_lookups.load(Relaxed),
            self.term_fills.load(Relaxed),
        )
    }

    /// Hit/miss counters of this evaluator's greedy-winner lookups: misses
    /// are the candidate scans it ran (see [`Evaluator::term_stats`]).
    pub(crate) fn greedy_stats(&self) -> CacheStats {
        exact_split(
            self.greedy_lookups.load(Relaxed),
            self.greedy_scans.load(Relaxed),
        )
    }

    /// The communication simulator the evaluator prices collectives with.
    pub(crate) fn comm(&self) -> &CommSim<'a> {
        &self.sim
    }

    pub(crate) fn model_for(&self, assignment: &Assignment) -> ModelHandle {
        match &self.policy {
            DesignPolicy::Adaptive => ModelHandle::Shared(
                self.catalog
                    .model_arc(assignment.design)
                    .expect("design id exists in catalogue"),
            ),
            DesignPolicy::Fixed(map) => {
                let mut designs: Vec<DesignId> = assignment
                    .accels
                    .iter()
                    .map(|a| map.get(a).copied().unwrap_or(DesignId(0)))
                    .collect();
                designs.sort();
                designs.dedup();
                if designs.len() == 1 {
                    ModelHandle::Shared(
                        self.catalog
                            .model_arc(designs[0])
                            .expect("design id exists in catalogue"),
                    )
                } else {
                    let models = designs
                        .iter()
                        .map(|d| self.catalog.model_arc(*d).expect("design id exists"))
                        .collect();
                    ModelHandle::Worst(Box::new(WorstOfModel::new(models)))
                }
            }
        }
    }

    pub(crate) fn context_signature(&self, assignment: &Assignment) -> u64 {
        let mut h = DefaultHasher::new();
        assignment.accels.hash(&mut h);
        match &self.policy {
            DesignPolicy::Adaptive => assignment.design.hash(&mut h),
            DesignPolicy::Fixed(map) => {
                for a in &assignment.accels {
                    map.get(a).copied().unwrap_or(DesignId(0)).hash(&mut h);
                }
            }
        }
        h.finish()
    }

    pub(crate) fn cached_conv_eval(
        &self,
        layer_index: usize,
        strategy: Strategy,
        signature: u64,
        ctx: &EvalContext<'_>,
    ) -> Term {
        let conv = self.net.layers()[layer_index]
            .as_conv()
            .expect("compute layer");
        let tag = if self.per_layer_keys {
            layer_index as u32
        } else {
            u32::MAX
        };
        let key = (conv, signature, tag, strategy);
        self.cache.get_or_insert_with(key, || {
            let eval = evaluate_layer(&conv, &strategy, ctx);
            (
                eval.total_seconds(),
                eval.plan.weight_shard_bytes,
                eval.memory_ok,
            )
        })
    }

    /// The memo entry of `set`: this evaluator's handle when it has one,
    /// else the entry of the set's content key ([`set_key`]) in the shared
    /// memo, kept as this evaluator's handle.
    pub(crate) fn set_memo(&self, set: &SetId) -> Arc<SetMemo> {
        let mut sets = self.sets.lock().expect("set handle map poisoned");
        if let Some(entry) = sets.get(set) {
            return Arc::clone(entry);
        }
        let (accels, design) = set;
        let entry = self
            .memo
            .set(set_key(self.topo, accels, |a| match &self.policy {
                DesignPolicy::Adaptive => *design,
                DesignPolicy::Fixed(map) => map.get(&a).copied().unwrap_or(DesignId(0)),
            }));
        sets.insert(set.clone(), Arc::clone(&entry));
        entry
    }

    /// The best strategy for one compute layer in one evaluation context:
    /// the latency arg-min over [`mars_parallel::paper_strategies`] with the
    /// default (unpartitioned) strategy as the initial incumbent and ties
    /// resolved to the earlier candidate.  The winner is a pure function of
    /// the layer shape and the set's memo key, so it is memoised in the set's
    /// entry across repeated shapes, assignments and searches; the flat
    /// search engine seeds its per-layer genes from it without rescanning
    /// the candidate space.  `set` must be the entry of the set `ctx`
    /// evaluates on.
    pub(crate) fn greedy_paper_strategy(
        &self,
        set: &SetMemo,
        layer_index: usize,
        ctx: &EvalContext<'_>,
    ) -> Strategy {
        self.greedy_lookups.fetch_add(1, Relaxed);
        *set.greedy(self.memo.shape_class(layer_index))
            .get_or_init(|| {
                self.greedy_scans.fetch_add(1, Relaxed);
                let latency_of = |s| {
                    let (latency, _, ok) = self.fast_term(set, layer_index, s, ctx);
                    if ok {
                        latency
                    } else {
                        f64::INFINITY
                    }
                };
                let mut best = Strategy::default();
                let mut best_latency = latency_of(best);
                let candidates = mars_parallel::paper_strategies();
                for &s in &candidates {
                    let latency = latency_of(s);
                    if latency < best_latency {
                        best_latency = latency;
                        best = s;
                    }
                }
                self.count_term_lookups(1 + candidates.len() as u64);
                best
            })
    }

    /// Adds `lookups` [`Evaluator::fast_term`] calls to the total that
    /// [`Evaluator::term_stats`] reports.
    pub(crate) fn count_term_lookups(&self, lookups: u64) {
        self.term_lookups.fetch_add(lookups, Relaxed);
    }

    /// Per-layer term of `strategy` through a set's memo entry: a dense
    /// indexed load on a hit, a direct [`evaluate_layer`] call (then a slot
    /// fill) on a miss.  The entry already deduplicates by shape class and
    /// set content, so misses skip the sharded cache's hashing entirely.
    /// The caller counts its lookups with [`Evaluator::count_term_lookups`];
    /// they are reported by [`Evaluator::term_stats`] (not by
    /// [`Evaluator::cache_stats`]).  `set` must be the entry of the set
    /// `ctx` evaluates on.
    pub(crate) fn fast_term(
        &self,
        set: &SetMemo,
        layer_index: usize,
        strategy: Strategy,
        ctx: &EvalContext<'_>,
    ) -> Term {
        let slot = set.term(self.memo.shape_class(layer_index), strategy);
        if let Some(term) = slot.get() {
            return term;
        }
        let conv = self.net.layers()[layer_index]
            .as_conv()
            .expect("compute layer");
        let eval = evaluate_layer(&conv, &strategy, ctx);
        let term = (
            eval.total_seconds(),
            eval.plan.weight_shard_bytes,
            eval.memory_ok,
        );
        if slot.fill(term) {
            self.term_fills.fetch_add(1, Relaxed);
        }
        term
    }

    /// Latency of one compute layer of `assignment` under `strategy`
    /// (memoised).  Returns `f64::INFINITY` when the sharded layer does not
    /// fit the set's DRAM.  Used by the greedy per-layer seeding of the
    /// second-level search.
    ///
    /// # Panics
    ///
    /// Panics if `layer_index` is not a compute layer of the network.
    pub(crate) fn conv_latency_under(
        &self,
        assignment: &Assignment,
        layer_index: usize,
        strategy: Strategy,
    ) -> f64 {
        let model = self.model_for(assignment);
        let ctx = EvalContext::new(model.as_dyn(), &self.sim, &assignment.accels);
        let signature = self.context_signature(assignment);
        let (latency, _, ok) = self.cached_conv_eval(layer_index, strategy, signature, &ctx);
        if ok {
            latency
        } else {
            f64::INFINITY
        }
    }

    /// Evaluates the intra-set cost of one assignment under the given
    /// per-layer strategies.
    pub(crate) fn evaluate_assignment(
        &self,
        assignment: &Assignment,
        strategies: &BTreeMap<usize, Strategy>,
    ) -> AssignmentCost {
        if assignment.is_idle() {
            return AssignmentCost {
                seconds: 0.0,
                weight_bytes_per_accel: 0,
                memory_ok: true,
            };
        }
        let model = self.model_for(assignment);
        let ctx = EvalContext::new(model.as_dyn(), &self.sim, &assignment.accels);
        let signature = self.context_signature(assignment);

        let mut seconds = 0.0;
        let mut weight_bytes = 0u64;
        let mut memory_ok = true;
        let mut prev_es: Option<DimSet> = None;
        let mut prev_out_bytes = 0u64;

        for idx in assignment.layers.clone() {
            let layer = &self.net.layers()[idx];
            if layer.is_compute() {
                let strategy = strategies.get(&idx).copied().unwrap_or_default();
                let (latency, wbytes, ok) = self.cached_conv_eval(idx, strategy, signature, &ctx);
                seconds += latency;
                weight_bytes += wbytes;
                memory_ok &= ok;
                // Re-sharding of the activation when the exclusive partitioning
                // changes between consecutive compute layers of the same set.
                if let Some(prev) = prev_es {
                    if prev != strategy.es() && assignment.set_size() > 1 {
                        let shard = prev_out_bytes / assignment.set_size() as u64;
                        seconds += self.sim.all_gather(&assignment.accels, shard);
                    }
                }
                prev_es = Some(strategy.es());
                prev_out_bytes = layer.output_bytes();
            } else {
                seconds += evaluate_non_conv(layer, &ctx);
                prev_out_bytes = layer.output_bytes();
            }
        }

        // Resident weights of every mapped layer must fit the smallest DRAM of
        // the set alongside a working activation buffer.
        let dram = self.topo.min_dram_within(&assignment.accels);
        let activation_headroom = assignment
            .layers
            .clone()
            .map(|idx| self.net.layers()[idx].output_bytes())
            .max()
            .unwrap_or(0);
        memory_ok &= weight_bytes + activation_headroom <= dram;

        AssignmentCost {
            seconds,
            weight_bytes_per_accel: weight_bytes,
            memory_ok,
        }
    }

    /// Evaluates the end-to-end latency of a complete set of assignments and
    /// strategies, in seconds.  Returns [`f64::INFINITY`] for invalid mappings
    /// (uncovered layers, overlapping ranges, or DRAM overflow).
    pub fn evaluate(
        &self,
        assignments: &[Assignment],
        strategies: &BTreeMap<usize, Strategy>,
    ) -> f64 {
        self.evaluate_by(assignments, |_, a| self.evaluate_assignment(a, strategies))
    }

    /// Like [`Evaluator::evaluate`], but sources each assignment's intra-set
    /// cost from `costs` instead of recomputing it — the fast path for
    /// callers (the flat search engine) that already hold memoised
    /// [`AssignmentCost`]s.  `costs` must be index-aligned with
    /// `assignments` and each entry equal to
    /// `evaluate_assignment(&assignments[i], strategies)` for the strategies
    /// the cost was computed under; the result is then bit-identical to
    /// [`Evaluator::evaluate`].
    pub(crate) fn evaluate_with_costs(
        &self,
        assignments: &[Assignment],
        costs: &[AssignmentCost],
    ) -> f64 {
        debug_assert_eq!(assignments.len(), costs.len());
        self.evaluate_by(assignments, |i, _| costs[i])
    }

    /// The body of [`Evaluator::evaluate`] and
    /// [`Evaluator::evaluate_with_costs`]: the coverage check, the intra-set
    /// costs from `cost_of(index, assignment)` in assignment order, then the
    /// inter-set transfers and the host staging, summed in that order.
    fn evaluate_by(
        &self,
        assignments: &[Assignment],
        cost_of: impl Fn(usize, &Assignment) -> AssignmentCost,
    ) -> f64 {
        // Coverage check: every layer belongs to exactly one assignment.
        let mut owner: Vec<Option<usize>> = vec![None; self.net.len()];
        for (ai, a) in assignments.iter().enumerate() {
            for idx in a.layers.clone() {
                if idx >= owner.len() || owner[idx].is_some() {
                    return f64::INFINITY;
                }
                owner[idx] = Some(ai);
            }
        }
        if owner.iter().any(Option::is_none) {
            return f64::INFINITY;
        }

        let mut total = 0.0;
        for (i, a) in assignments.iter().enumerate() {
            let cost = cost_of(i, a);
            if !cost.memory_ok {
                return f64::INFINITY;
            }
            total += cost.seconds;
        }

        // Inter-set activation transfers along every cut edge of the graph.
        for (u, v) in self.net.edges() {
            let (au, av) = (owner[u.0].expect("covered"), owner[v.0].expect("covered"));
            if au != av {
                let bytes = self.net.layers()[u.0].output_bytes();
                total +=
                    self.sim
                        .redistribute(&assignments[au].accels, &assignments[av].accels, bytes);
            }
        }

        // Host staging of the network input and output.
        if let Some(first) = assignments.iter().find(|a| !a.is_idle()) {
            let bytes = self.net.layers()[first.layers.start].input_bytes()
                / first.set_size().max(1) as u64;
            total += self.sim.host_scatter(&first.accels, bytes);
        }
        if let Some(last) = assignments.iter().rev().find(|a| !a.is_idle()) {
            let idx = last.layers.end - 1;
            let bytes = self.net.layers()[idx].output_bytes() / last.set_size().max(1) as u64;
            total += self.sim.host_gather(&last.accels, bytes);
        }

        total
    }

    /// Convenience: evaluates and wraps the result into a [`Mapping`](crate::Mapping).
    pub(crate) fn mapping_of(
        &self,
        assignments: Vec<Assignment>,
        strategies: BTreeMap<usize, Strategy>,
    ) -> crate::mapping::Mapping {
        let latency = self.evaluate(&assignments, &strategies);
        crate::mapping::Mapping::new(assignments, strategies, latency)
    }
}

impl std::fmt::Debug for Evaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("network", &self.net.name())
            .field("topology", &self.topo.name())
            .field("designs", &self.catalog.len())
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_model::{zoo, Dim};
    use mars_topology::presets;

    fn fixture() -> (Network, Topology, Catalog) {
        (
            zoo::alexnet(1000),
            presets::f1_16xlarge(),
            Catalog::standard_three(),
        )
    }

    fn two_group_assignments(net: &Network, topo: &Topology) -> Vec<Assignment> {
        let half = net.len() / 2;
        vec![
            Assignment::new(topo.group_members(0), DesignId(0), 0..half),
            Assignment::new(topo.group_members(1), DesignId(2), half..net.len()),
        ]
    }

    #[test]
    fn evaluates_a_simple_two_set_mapping() {
        let (net, topo, catalog) = fixture();
        let eval = Evaluator::new(&net, &topo, &catalog);
        let assignments = two_group_assignments(&net, &topo);
        let latency = eval.evaluate(&assignments, &BTreeMap::new());
        assert!(latency.is_finite());
        // AlexNet on 8 accelerators without intra-layer parallelism still
        // lands in the milliseconds range.
        assert!(latency > 1e-4 && latency < 1.0, "latency {latency}");
    }

    #[test]
    fn parallel_strategies_reduce_total_latency() {
        let (net, topo, catalog) = fixture();
        let eval = Evaluator::new(&net, &topo, &catalog);
        let assignments = two_group_assignments(&net, &topo);
        let sequential = eval.evaluate(&assignments, &BTreeMap::new());
        let mut strategies = BTreeMap::new();
        for (id, _) in net.compute_layers() {
            strategies.insert(
                id.0,
                Strategy::exclusive(DimSet::from_dims([Dim::H, Dim::W])),
            );
        }
        let parallel = eval.evaluate(&assignments, &strategies);
        assert!(parallel < sequential, "{parallel} !< {sequential}");
    }

    #[test]
    fn uncovered_or_overlapping_layers_are_invalid() {
        let (net, topo, catalog) = fixture();
        let eval = Evaluator::new(&net, &topo, &catalog);
        // Gap: second range starts one layer late.
        let gap = vec![
            Assignment::new(topo.group_members(0), DesignId(0), 0..3),
            Assignment::new(topo.group_members(1), DesignId(0), 4..net.len()),
        ];
        assert!(eval.evaluate(&gap, &BTreeMap::new()).is_infinite());
        // Overlap.
        let overlap = vec![
            Assignment::new(topo.group_members(0), DesignId(0), 0..5),
            Assignment::new(topo.group_members(1), DesignId(0), 4..net.len()),
        ];
        assert!(eval.evaluate(&overlap, &BTreeMap::new()).is_infinite());
    }

    #[test]
    fn vgg_on_one_tiny_dram_accelerator_is_invalid() {
        let net = zoo::vgg16(1000);
        // 64 MiB DRAM cannot hold VGG-16's 276 MB of weights on one set.
        let topo = presets::multi_group("small", 1, 4, 8.0, 2.0, 64 << 20);
        let catalog = Catalog::standard_three();
        let eval = Evaluator::new(&net, &topo, &catalog);
        let all = Assignment::new(topo.accelerators().collect(), DesignId(0), 0..net.len());
        assert!(eval.evaluate(&[all], &BTreeMap::new()).is_infinite());
    }

    #[test]
    fn cache_is_populated_and_reused() {
        let (net, topo, catalog) = fixture();
        let eval = Evaluator::new(&net, &topo, &catalog);
        let assignments = two_group_assignments(&net, &topo);
        assert_eq!(eval.cache_entries(), 0);
        let first = eval.evaluate(&assignments, &BTreeMap::new());
        let populated = eval.cache_entries();
        assert!(populated > 0);
        let second = eval.evaluate(&assignments, &BTreeMap::new());
        assert_eq!(eval.cache_entries(), populated);
        assert_eq!(first, second);
    }

    #[test]
    fn concurrent_evaluations_share_the_cache_and_agree_with_serial() {
        let (net, topo, catalog) = fixture();
        let eval = Evaluator::new(&net, &topo, &catalog);
        let assignments = two_group_assignments(&net, &topo);
        let serial = eval.evaluate(&assignments, &BTreeMap::new());
        // Hammer the shared evaluator from several threads at once; every
        // evaluation must see the same memoised per-layer results.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let eval = &eval;
                let assignments = &assignments;
                scope.spawn(move || {
                    for _ in 0..8 {
                        let latency = eval.evaluate(assignments, &BTreeMap::new());
                        assert_eq!(latency.to_bits(), serial.to_bits());
                    }
                });
            }
        });
        assert!(eval.cache_entries() > 0);
    }

    #[test]
    fn evaluate_with_costs_matches_evaluate_bitwise() {
        let (net, topo, catalog) = fixture();
        let eval = Evaluator::new(&net, &topo, &catalog);
        let assignments = two_group_assignments(&net, &topo);
        let strategies = BTreeMap::new();
        let costs: Vec<AssignmentCost> = assignments
            .iter()
            .map(|a| eval.evaluate_assignment(a, &strategies))
            .collect();
        let direct = eval.evaluate(&assignments, &strategies);
        let from_costs = eval.evaluate_with_costs(&assignments, &costs);
        assert_eq!(direct.to_bits(), from_costs.to_bits());

        // Invalid coverage is rejected the same way.
        let gap = vec![
            Assignment::new(topo.group_members(0), DesignId(0), 0..3),
            Assignment::new(topo.group_members(1), DesignId(0), 4..net.len()),
        ];
        let gap_costs: Vec<AssignmentCost> = gap
            .iter()
            .map(|a| eval.evaluate_assignment(a, &strategies))
            .collect();
        assert!(eval.evaluate_with_costs(&gap, &gap_costs).is_infinite());
    }

    #[test]
    fn repeated_layer_shapes_share_cache_entries() {
        // VGG-16 repeats convolution shapes (e.g. 3×3 512→512 at 28×28); the
        // shape-keyed cache must memoise one entry per distinct shape, not
        // one per layer index.
        let net = zoo::vgg16(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let eval = Evaluator::new(&net, &topo, &catalog);
        let all = Assignment::new(topo.group_members(0), DesignId(0), 0..net.len());
        eval.evaluate(&[all], &BTreeMap::new());
        let compute_layers = net.compute_layers().count();
        let distinct_shapes: std::collections::HashSet<_> =
            net.layers().iter().filter_map(|l| l.as_conv()).collect();
        assert!(distinct_shapes.len() < compute_layers);
        assert_eq!(eval.cache_entries(), distinct_shapes.len());
        // Re-evaluating is all hits.
        let before = eval.cache_stats();
        let all = Assignment::new(topo.group_members(0), DesignId(0), 0..net.len());
        eval.evaluate(&[all], &BTreeMap::new());
        let after = eval.cache_stats();
        assert_eq!(after.misses, before.misses);
        assert!(after.hits > before.hits);
    }

    #[test]
    fn fixed_policy_uses_worst_member_for_mixed_sets() {
        let (net, topo, catalog) = fixture();
        // Group 0 mixes design 0 and design 1 accelerators.
        let mut map = BTreeMap::new();
        for a in topo.accelerators() {
            map.insert(a, DesignId(a.0 % 2));
        }
        let fixed = Evaluator::with_policy(&net, &topo, &catalog, DesignPolicy::Fixed(map));
        let adaptive = Evaluator::new(&net, &topo, &catalog);
        let assignments = vec![Assignment::new(
            topo.group_members(0),
            DesignId(0),
            0..net.len(),
        )];
        let t_fixed = fixed.evaluate(&assignments, &BTreeMap::new());
        // The adaptive evaluator can use the best single design; the stalled
        // heterogeneous set can only be as fast as its slowest member.
        let best = (0..catalog.len())
            .map(|d| {
                let a = vec![Assignment::new(
                    topo.group_members(0),
                    DesignId(d),
                    0..net.len(),
                )];
                adaptive.evaluate(&a, &BTreeMap::new())
            })
            .fold(f64::INFINITY, f64::min);
        assert!(t_fixed >= best, "worst-of {t_fixed} must be >= best {best}");
    }

    #[test]
    fn worst_of_model_reports_max_cycles() {
        let catalog = Catalog::standard_three();
        let models: Vec<Arc<dyn PerformanceModel>> = (0..3)
            .map(|i| catalog.model_arc(DesignId(i)).unwrap())
            .collect();
        let worst = WorstOfModel::new(models);
        let conv = mars_model::ConvParams::new(256, 256, 14, 14, 1, 1);
        let max = (0..3)
            .map(|i| catalog.model(DesignId(i)).conv_cycles(&conv))
            .max()
            .unwrap();
        assert_eq!(worst.conv_cycles(&conv), max);
        assert!(worst.design().name.contains("worst-of"));
    }

    #[test]
    fn worst_of_model_compares_members_in_wall_time() {
        use mars_accel::SystolicModel;
        let catalog = Catalog::standard_three();
        let fast: Arc<dyn PerformanceModel> =
            Arc::new(SystolicModel::new(DesignId(3), 300, 16, 16, 4));
        let base = catalog.model_arc(DesignId(0)).unwrap();
        let conv = mars_model::ConvParams::new(256, 256, 14, 14, 3, 1);
        // Reported at the first member's clock, each member's cycles take
        // its own wall time (rounded up to a whole cycle).
        for models in [
            vec![base.clone(), fast.clone()],
            vec![fast.clone(), base.clone()],
        ] {
            let worst = WorstOfModel::new(models.clone());
            let seconds =
                |m: &Arc<dyn PerformanceModel>| m.design().cycles_to_seconds(m.conv_cycles(&conv));
            let slowest = models.iter().map(seconds).fold(0.0, f64::max);
            let reported = worst.design().cycles_to_seconds(worst.conv_cycles(&conv));
            assert!(reported >= slowest, "{reported} < {slowest}");
            assert!(reported - slowest <= worst.design().cycles_to_seconds(1));
            assert!(worst.layer_overhead_cycles() >= models[0].layer_overhead_cycles());
        }
    }

    /// A fixed-design search over sets whose members run at different
    /// clocks completes with a valid mapping.
    #[test]
    fn fixed_designs_at_mixed_clocks_search() {
        use mars_accel::SystolicModel;
        let mut catalog = Catalog::standard_three();
        catalog.push(Arc::new(SystolicModel::new(DesignId(3), 300, 16, 16, 4)));
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let designs = topo
            .accelerators()
            .map(|a| (a, DesignId(if a.0 % 2 == 0 { 0 } else { 3 })))
            .collect();
        let result = crate::Mars::new(&net, &topo, &catalog)
            .with_config(crate::SearchConfig::fast(7))
            .with_fixed_designs(designs)
            .search();
        assert!(result.mapping.is_valid());
        assert!(result.mapping.latency_seconds.is_finite());
    }

    #[test]
    fn cross_group_sets_pay_host_staging() {
        let (net, topo, catalog) = fixture();
        let eval = Evaluator::new(&net, &topo, &catalog);
        let mut strategies = BTreeMap::new();
        for (id, _) in net.compute_layers() {
            strategies.insert(id.0, Strategy::exclusive(DimSet::from_dims([Dim::Cin])));
        }
        // Same design and layer split, but one variant uses an accelerator set
        // that straddles the two groups, so the All-Reduce over the whole set
        // must go through the host.
        let half = net.len() / 2;
        let intra = vec![
            Assignment::new(topo.group_members(0), DesignId(0), 0..half),
            Assignment::new(topo.group_members(1), DesignId(0), half..net.len()),
        ];
        let straddle = vec![
            Assignment::new(
                vec![AccelId(0), AccelId(1), AccelId(4), AccelId(5)],
                DesignId(0),
                0..half,
            ),
            Assignment::new(
                vec![AccelId(2), AccelId(3), AccelId(6), AccelId(7)],
                DesignId(0),
                half..net.len(),
            ),
        ];
        let t_intra = eval.evaluate(&intra, &strategies);
        let t_straddle = eval.evaluate(&straddle, &strategies);
        assert!(
            t_straddle > t_intra,
            "straddling groups ({t_straddle}) must cost more than staying inside them ({t_intra})"
        );
    }
}
