//! The MARS two-level genetic mapping search (Fig. 3 of the paper).
//!
//! Two engine implementations share this module:
//!
//! * [`SearchEngine::Flat`] (the default) — the rebuilt hot path: flat
//!   arena-backed GA populations, incremental per-layer (delta) fitness in
//!   the second level via [`GeneticAlgorithm::run_blocks`], a hoisted
//!   evaluation context, and a whole-decision memo on top of the
//!   per-assignment second-level memo.
//! * [`SearchEngine::Reference`] — the pre-rebuild pipeline, retained
//!   verbatim as the bit-identity oracle.  Only the differential tests run
//!   it: they run both engines on the same seeds and assert the returned
//!   [`SearchResult`]s are bit-identical.
//!
//! Both engines are deterministic for any thread count; see the `ga` module
//! docs.

use crate::evaluator::{exact_split, AssignmentCost, DesignPolicy, Evaluator, SetId};
use crate::ga::{GaConfig, GeneticAlgorithm};
use crate::genome::{decode_strategy_fast, FirstLevelGenome, SecondLevelGenome, GENES_PER_LAYER};
use crate::mapping::{Assignment, Mapping};
use crate::memo::{NetworkMemo, SetMemo};
use mars_accel::{Catalog, DesignId, ProfileTable};
use mars_model::{DimSet, LoopNest, Network};
use mars_obs::Recorder;
use mars_parallel::{evaluate_non_conv, CacheStats, EvalContext, OnceCache, Strategy};
use mars_topology::{partition, AccelId, Topology};
use rand::rngs::StdRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which implementation of the search hot path to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchEngine {
    /// The rebuilt engine: flat genome arenas, delta fitness, memoised
    /// decision caches.  Bit-identical to [`SearchEngine::Reference`] on the
    /// same seed.
    #[default]
    Flat,
    /// The pre-rebuild pipeline, kept as the correctness oracle.
    Reference,
}

/// Configuration of the complete two-level search.  Each level's GA takes
/// its budget and seed from here and its operators from the level (see
/// [`GaConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Budget and seed of the first-level GA (accelerator sets, designs,
    /// workload allocation).
    pub first_level: GaConfig,
    /// Budget and seed of the second-level GA (per-layer strategies); each
    /// second-level search mixes its (set, design, layer range) into the
    /// seed.
    pub second_level: GaConfig,
    /// Which engine runs the search.
    pub engine: SearchEngine,
}

impl SearchConfig {
    /// The configuration used for the paper-scale experiments: the first
    /// level seeded with `seed`, the second with `seed + 1`.
    pub fn standard(seed: u64) -> Self {
        Self {
            first_level: GaConfig::first_level(seed),
            second_level: GaConfig::second_level(seed.wrapping_add(1)),
            engine: SearchEngine::Flat,
        }
    }

    /// A reduced configuration for unit tests, examples and quick runs.
    pub fn fast(seed: u64) -> Self {
        Self {
            first_level: GaConfig {
                population: 8,
                generations: 5,
                ..GaConfig::first_level(seed)
            },
            second_level: GaConfig {
                population: 10,
                generations: 6,
                ..GaConfig::second_level(seed.wrapping_add(1))
            },
            engine: SearchEngine::Flat,
        }
    }

    /// Sets the worker-thread count for first-level fitness evaluation
    /// (`0` = ask the OS, `1` = serial).
    ///
    /// The second-level GAs stay serial: they already run *inside* the
    /// first-level worker threads, so giving them their own pools would only
    /// oversubscribe the machine.  The search outcome is bit-identical for
    /// every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.first_level.threads = threads;
        self.second_level.threads = 1;
        self
    }

    /// Returns the configuration with the given engine selected.
    pub fn with_engine(mut self, engine: SearchEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The configured worker-thread knob of the first-level search.
    pub fn threads(&self) -> usize {
        self.first_level.threads
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self::standard(0)
    }
}

/// Evaluation-throughput counters of one search.
///
/// `search_cache` counts the decision-level memo lookups (second-level
/// search memo plus, on the flat engine, the whole-decision memo);
/// `layer_cache` counts the per-layer evaluation memo underneath them;
/// `term_table` and `greedy_cache` count the flat engine's dense term memo
/// and greedy-winner memo (zero on the reference engine, which routes every
/// per-layer lookup through `layer_cache`).
///
/// Every hit/miss split is reported as the *serial-trajectory* split —
/// misses are the entries this search computed, hits the remaining
/// lookups.  The flat engine keeps its terms, greedy winners and
/// second-level results in a memo of the network that other searches may
/// share:
///
/// - a standalone [`Mars::search`] has a memo of its own, so every counter
///   is bit-identical for every thread count, even when concurrent lookups
///   race on an in-flight entry;
/// - an inner search of a co-schedule shares its workload's memo with every
///   other inner search of the same [`InnerSearchCache`], so its
///   `term_table`, `greedy_cache`, `second_level_searches`, `search_cache`
///   and `blocks_reused` count only the work that searches of the same
///   cache had not already done, and depend on which of them ran first.
///   `evaluations`, `layer_cache` and the returned mapping do not.
///
/// [`InnerSearchCache`]: crate::InnerSearchCache
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalStats {
    /// First-level fitness evaluations.
    pub evaluations: usize,
    /// Distinct second-level GA searches this search actually ran.
    pub second_level_searches: usize,
    /// Hit/miss counters of the per-layer evaluation memo.
    pub layer_cache: CacheStats,
    /// Hit/miss counters of the decision-level memo caches.
    pub search_cache: CacheStats,
    /// Hit/miss counters of the flat engine's dense per-layer term tables.
    pub term_table: CacheStats,
    /// Hit/miss counters of the flat engine's greedy per-layer winner memo.
    pub greedy_cache: CacheStats,
    /// Block terms reused by the flat engine's second-level delta-fitness
    /// path.
    pub blocks_reused: u64,
    /// Wall-clock time of the whole search.
    pub(crate) elapsed: Duration,
}

impl EvalStats {
    /// Total cache hits across all memo layers.
    pub fn cache_hits(&self) -> u64 {
        self.layer_cache.hits
            + self.search_cache.hits
            + self.term_table.hits
            + self.greedy_cache.hits
    }
}

/// Outcome of a mapping search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best mapping found, with its evaluated latency.
    pub mapping: Mapping,
    /// Best end-to-end latency after every first-level generation.
    pub history: Vec<f64>,
    /// Number of first-level fitness evaluations.
    pub evaluations: usize,
    /// Wall-clock time of the whole search.
    pub elapsed: Duration,
    /// Evaluation and cache counters.  Engines agree bit-identically on
    /// every other field, but not on these (the flat engine looks up
    /// different caches), so differential comparisons skip them.
    pub stats: EvalStats,
}

impl SearchResult {
    /// Latency of the best mapping in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.mapping.latency_ms()
    }

    /// First-level fitness evaluations per second of wall-clock search time.
    pub fn evals_per_second(&self) -> f64 {
        crate::ga::throughput(self.evaluations, self.elapsed)
    }
}

/// A second-level search: the ordered accelerator set, its design and the
/// layer range.  It also seeds the search's GA.
pub(crate) type SecondLevelKey = (Vec<AccelId>, DesignId, usize, usize);
type SecondLevelValue = (BTreeMap<usize, Strategy>, f64);
/// Exactly-once memo of the second-level searches: concurrent first-level
/// workers racing on the same key block on the winner instead of redundantly
/// re-running the expensive second-level GA.
type SecondLevelCache = OnceCache<SecondLevelKey, SecondLevelValue>;
type BestDecision = (f64, Vec<Assignment>, BTreeMap<usize, Strategy>);

/// One memoised second-level outcome of the flat engine: the winning
/// per-layer strategies plus the assignment's evaluated cost, so first-level
/// fitness never re-walks the layer range.
#[derive(Debug, Clone)]
pub(crate) struct SecondOutcome {
    strategies: BTreeMap<usize, Strategy>,
    cost: AssignmentCost,
}
/// Whole-decision memo of the flat engine: a decoded first-level genome is
/// fully described by its per-assignment keys, and repeated decisions
/// (elites, clones, convergent genomes) are answered without touching the
/// evaluator at all.  Unlike the [`NetworkMemo`], it lives for one search.
type DecisionCache = OnceCache<Vec<SecondLevelKey>, f64>;

/// Work counters of one flat-engine search that the [`NetworkMemo`] cannot
/// hold, because other searches may share it.
#[derive(Default)]
struct FlatCounters {
    /// Second-level lookups, and the searches this search ran on a miss.
    second_lookups: AtomicU64,
    second_searches: AtomicU64,
    /// Block terms reused by the delta-fitness path of those searches.
    blocks_reused: AtomicU64,
}

/// Memoised per-layer term of the flat second-level search: everything
/// `combine` needs from one compute layer under one strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LayerTerm {
    es: DimSet,
    seconds: f64,
    weight_bytes: u64,
    memory_ok: bool,
}

/// One step of the precomputed walk over an assignment's layer range:
/// compute layers carry their position and (static) resharding price, other
/// layers a fixed latency.
#[derive(Debug, Clone, Copy)]
enum RangeStep {
    Compute { pos: usize, reshard: f64 },
    Fixed(f64),
}

const IDLE_COST: AssignmentCost = AssignmentCost {
    seconds: 0.0,
    weight_bytes_per_accel: 0,
    memory_ok: true,
};

/// The MARS mapping framework: computation-aware accelerator selection and
/// communication-aware multi-level parallelism search.
pub struct Mars<'a> {
    net: &'a Network,
    topo: &'a Topology,
    catalog: &'a Catalog,
    config: SearchConfig,
    policy: DesignPolicy,
    recorder: Recorder,
}

impl<'a> Mars<'a> {
    /// Creates a search over `net` on `topo` with the adaptive design policy.
    pub fn new(net: &'a Network, topo: &'a Topology, catalog: &'a Catalog) -> Self {
        Self {
            net,
            topo,
            catalog,
            config: SearchConfig::standard(0),
            policy: DesignPolicy::Adaptive,
            recorder: Recorder::disabled(),
        }
    }

    /// Replaces the search configuration.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches an observability recorder.  After the search finishes it
    /// receives per-generation best/mean fitness series plus evaluation and
    /// cache counters — all derived from the search's deterministic state,
    /// so attaching a recorder never changes the returned
    /// [`SearchResult`], and the recorded metrics are bit-identical for
    /// every thread count.  The disabled recorder (the default) records
    /// nothing.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Switches to the fixed heterogeneous-design policy used for the H2H
    /// comparison: each accelerator keeps its given design and mixed sets
    /// stall at the pace of their slowest member.
    pub fn with_fixed_designs(mut self, designs: BTreeMap<AccelId, DesignId>) -> Self {
        self.policy = DesignPolicy::Fixed(designs);
        self
    }

    /// Runs the two-level genetic search and returns the best mapping found.
    ///
    /// First-level fitness evaluations (each of which runs the second-level
    /// GAs of its candidate assignments) are fanned out over
    /// [`SearchConfig::threads`] worker threads; the result is bit-identical
    /// for every thread count because all stochastic state uses per-genome
    /// RNG streams and the shared caches only memoise pure functions.
    pub fn search(&self) -> SearchResult {
        self.search_in(Arc::new(NetworkMemo::new(self.net)))
    }

    /// [`Mars::search`] with the flat engine's per-layer terms, greedy
    /// winners and second-level results in `memo`, a memo made for this
    /// network that other searches may share.  Every memo entry is a pure
    /// function of its key, so the result is the same as on a fresh memo
    /// as long as every search that shares it uses this network and this
    /// second-level configuration; only the work counters in
    /// [`SearchResult::stats`] depend on what the others computed first.
    pub(crate) fn search_in(&self, memo: Arc<NetworkMemo>) -> SearchResult {
        match self.config.engine {
            SearchEngine::Flat => self.search_flat(memo),
            SearchEngine::Reference => self.search_reference(),
        }
    }

    /// Publishes the finished search to the attached recorder: the
    /// per-generation best/mean fitness series (keyed on generation index)
    /// plus evaluation and cache counters.  Everything recorded here is read
    /// from the completed, deterministic outcome — never from live search
    /// state — so enabling observation cannot perturb the search, and the
    /// recorded values are bit-identical across thread counts.  Wall-clock
    /// time goes into the recorder's explicitly-nondeterministic section.
    fn record_search(&self, outcome: &crate::ga::GaOutcome, stats: &EvalStats) {
        if !self.recorder.is_enabled() {
            return;
        }
        let r = &self.recorder;
        for (g, (&best, &mean)) in outcome
            .history
            .iter()
            .zip(&outcome.mean_history)
            .enumerate()
        {
            r.point("search/best_fitness", g as f64, best);
            r.point("search/mean_fitness", g as f64, mean);
        }
        r.counter("search/evaluations", stats.evaluations as u64);
        r.counter(
            "search/second_level_searches",
            stats.second_level_searches as u64,
        );
        r.counter("search/blocks_reused", stats.blocks_reused);
        for (name, cache) in [
            ("layer_cache", stats.layer_cache),
            ("search_cache", stats.search_cache),
            ("term_table", stats.term_table),
            ("greedy_cache", stats.greedy_cache),
        ] {
            r.counter(&format!("search/{name}_hits"), cache.hits);
            r.counter(&format!("search/{name}_misses"), cache.misses);
        }
        r.wall_seconds("search/elapsed", stats.elapsed.as_secs_f64());
    }

    /// The initial first-level population, shared verbatim by both engines.
    fn first_level_seed(
        &self,
        rng: &mut StdRng,
        i: usize,
        layout: &FirstLevelGenome,
        candidates: &[Vec<AccelId>],
        profile: &ProfileTable,
        design_scores: &[f64],
    ) -> Vec<f64> {
        match i {
            // The baseline-like seed: the topology groups as sets, evenly
            // split layers, and the profiling-preferred design *per range*
            // (not just per network), so the search starts from a point at
            // least as good as the computation-prioritised baseline.
            0 => {
                let mut genes = layout.heuristic_seed(self.topo, candidates, design_scores);
                let n_groups = self.topo.groups().len().max(1);
                for slot in 0..n_groups {
                    let start = slot * self.net.len() / n_groups;
                    let end = (slot + 1) * self.net.len() / n_groups;
                    if start < end {
                        layout.set_preferred_design(
                            &mut genes,
                            slot,
                            profile.best_design_for_range(start, end),
                        );
                    }
                }
                genes
            }
            1 => layout.full_platform_seed(candidates, design_scores),
            // "One group runs everything": the group-structured seed with
            // all cut points pushed to the end, so the remaining sets idle.
            2 => {
                let mut genes = layout.heuristic_seed(self.topo, candidates, design_scores);
                let cuts_start = genes.len() - (self.topo.len() - 1);
                for g in &mut genes[cuts_start..] {
                    *g = 1.0;
                }
                genes
            }
            _ => layout.random_init(rng, design_scores),
        }
    }

    // ------------------------------------------------------------------
    // Flat engine
    // ------------------------------------------------------------------

    fn search_flat(&self, memo: Arc<NetworkMemo>) -> SearchResult {
        let start = Instant::now();
        let candidates = partition::accset_candidates(self.topo);
        let profile = ProfileTable::build(self.net, self.catalog);
        let design_scores = profile.normalized_scores();
        let evaluator = Evaluator::with_memo(
            self.net,
            self.topo,
            self.catalog,
            self.policy.clone(),
            Arc::clone(&memo),
        );

        let layout = FirstLevelGenome::new(
            candidates.len(),
            self.catalog.len(),
            self.topo.len(),
            self.net.len(),
        );

        let decision_cache: DecisionCache = OnceCache::new();
        let counters = FlatCounters::default();

        let first_ga = GeneticAlgorithm::new(self.config.first_level);
        let outcome = first_ga.run(
            layout.len(),
            |rng, i| self.first_level_seed(rng, i, &layout, &candidates, &profile, &design_scores),
            |genes| {
                let assignments = layout.decode(genes, &candidates);
                self.flat_latency(&assignments, &evaluator, &memo, &decision_cache, &counters)
            },
        );

        // Re-derive the winning decision from the best genome; every
        // second-level search it needs is a cache hit, so this is cheap.
        let (latency, assignments, strategies) = if outcome.best_fitness.is_finite() {
            let assignments = layout.decode(&outcome.best_genes, &candidates);
            let mut strategies = BTreeMap::new();
            for a in &assignments {
                if a.is_idle() {
                    continue;
                }
                let second = self.second_level_flat(a, &evaluator, &memo, &counters);
                strategies.extend(second.strategies.iter().map(|(k, v)| (*k, *v)));
            }
            let latency =
                self.flat_latency(&assignments, &evaluator, &memo, &decision_cache, &counters);
            (latency, assignments, strategies)
        } else {
            // Every individual was invalid; fall back to the heuristic seed.
            let genes = layout.heuristic_seed(self.topo, &candidates, &design_scores);
            let assignments = layout.decode(&genes, &candidates);
            let latency = evaluator.evaluate(&assignments, &BTreeMap::new());
            (latency, assignments, BTreeMap::new())
        };

        let elapsed = start.elapsed();
        let second_searches = counters.second_searches.load(Relaxed);
        let stats = EvalStats {
            evaluations: outcome.evaluations,
            second_level_searches: second_searches as usize,
            layer_cache: exact_split(
                evaluator.cache_stats().lookups(),
                evaluator.cache_entries() as u64,
            ),
            search_cache: exact_split(
                counters.second_lookups.load(Relaxed) + decision_cache.stats().lookups(),
                second_searches + decision_cache.len() as u64,
            ),
            term_table: evaluator.term_stats(),
            greedy_cache: evaluator.greedy_stats(),
            blocks_reused: counters.blocks_reused.load(Relaxed),
            elapsed,
        };
        self.record_search(&outcome, &stats);
        SearchResult {
            mapping: Mapping::new(assignments, strategies, latency),
            history: outcome.history,
            evaluations: outcome.evaluations,
            elapsed,
            stats,
        }
    }

    /// First-level fitness of the flat engine: decode-key the decision,
    /// answer repeats from the whole-decision memo, and on a miss assemble
    /// the latency from the per-assignment memoised costs.
    fn flat_latency(
        &self,
        assignments: &[Assignment],
        evaluator: &Evaluator<'_>,
        memo: &NetworkMemo,
        decision_cache: &DecisionCache,
        counters: &FlatCounters,
    ) -> f64 {
        let key: Vec<SecondLevelKey> = assignments
            .iter()
            .map(|a| (a.accels.clone(), a.design, a.layers.start, a.layers.end))
            .collect();
        decision_cache.get_or_compute(key, || {
            let costs: Vec<AssignmentCost> = assignments
                .iter()
                .map(|a| {
                    if a.is_idle() {
                        IDLE_COST
                    } else {
                        self.second_level_flat(a, evaluator, memo, counters).cost
                    }
                })
                .collect();
            let latency = evaluator.evaluate_with_costs(assignments, &costs);
            // Debug cross-check: the memoised fast path must agree with a
            // full re-evaluation through the reference entry point.  The
            // evaluator's per-layer cache is its own, so this recomputes on
            // this search's topology every term and cost the memo returned,
            // including those another search stored.
            #[cfg(debug_assertions)]
            {
                let mut strategies = BTreeMap::new();
                for a in assignments {
                    if !a.is_idle() {
                        let second = self.second_level_flat(a, evaluator, memo, counters);
                        strategies.extend(second.strategies.iter().map(|(k, v)| (*k, *v)));
                    }
                }
                let full = evaluator.evaluate(assignments, &strategies);
                debug_assert_eq!(
                    latency.to_bits(),
                    full.to_bits(),
                    "flat fast path diverged from full evaluation"
                );
            }
            latency
        })
    }

    /// The second-level outcome of `assignment`, from the memo's entry for
    /// its set content and (set, design, layer range) key, or searched now.
    fn second_level_flat(
        &self,
        assignment: &Assignment,
        evaluator: &Evaluator<'_>,
        memo: &NetworkMemo,
        counters: &FlatCounters,
    ) -> Arc<SecondOutcome> {
        let set_id: SetId = (assignment.accels.clone(), assignment.design);
        let set = evaluator.set_memo(&set_id);
        let (accels, design) = set_id;
        let key: SecondLevelKey = (
            accels,
            design,
            assignment.layers.start,
            assignment.layers.end,
        );
        counters.second_lookups.fetch_add(1, Relaxed);
        memo.second.get_or_compute((set.id(), key.clone()), || {
            counters.second_searches.fetch_add(1, Relaxed);
            Arc::new(self.search_strategies_flat(assignment, evaluator, &set, &key, counters))
        })
    }

    /// The flat second-level GA body: identical decisions to
    /// [`Mars::search_strategies`], reached through block-incremental
    /// fitness over a precomputed walk of the layer range.
    fn search_strategies_flat(
        &self,
        assignment: &Assignment,
        evaluator: &Evaluator<'_>,
        set: &SetMemo,
        key: &SecondLevelKey,
        counters: &FlatCounters,
    ) -> SecondOutcome {
        let compute_layers: Vec<usize> = assignment
            .layers
            .clone()
            .filter(|idx| self.net.layers()[*idx].is_compute())
            .collect();
        if compute_layers.is_empty() {
            let strategies = BTreeMap::new();
            let cost = evaluator.evaluate_assignment(assignment, &strategies);
            return SecondOutcome { strategies, cost };
        }

        let nests: Vec<LoopNest> = compute_layers
            .iter()
            .map(|idx| {
                self.net.layers()[*idx]
                    .as_conv()
                    .expect("compute layer")
                    .loop_nest()
            })
            .collect();

        let layout = SecondLevelGenome::new(compute_layers.len());
        let mut seed_hasher = DefaultHasher::new();
        key.hash(&mut seed_hasher);
        let ga = GeneticAlgorithm::second_level(GaConfig {
            seed: self.config.second_level.seed ^ seed_hasher.finish(),
            ..self.config.second_level
        });

        // Hoisted evaluation context: the reference path rebuilds the model
        // handle, context and signature on every fitness call.
        let model = evaluator.model_for(assignment);
        let ctx = EvalContext::new(model.as_dyn(), evaluator.comm(), &assignment.accels);
        let set_size = assignment.set_size();

        // Precomputed walk of the layer range: non-compute latencies and
        // per-position resharding prices are pure functions of the
        // assignment, so they are evaluated once instead of per genome.
        // The resharding price of a compute layer is the all-gather of the
        // *preceding* layer's output shard — applied by `combine` only when
        // the exclusive sharding actually changes.
        let mut plan: Vec<RangeStep> = Vec::with_capacity(assignment.layers.len());
        let mut pos = 0usize;
        let mut prev_layer: Option<usize> = None;
        for idx in assignment.layers.clone() {
            let layer = &self.net.layers()[idx];
            if layer.is_compute() {
                let reshard = match prev_layer {
                    Some(p) if set_size > 1 => evaluator.comm().all_gather(
                        &assignment.accels,
                        self.net.layers()[p].output_bytes() / set_size as u64,
                    ),
                    _ => 0.0,
                };
                plan.push(RangeStep::Compute { pos, reshard });
                pos += 1;
            } else {
                plan.push(RangeStep::Fixed(evaluate_non_conv(layer, &ctx)));
            }
            prev_layer = Some(idx);
        }
        let dram = self.topo.min_dram_within(&assignment.accels);
        let activation_headroom = assignment
            .layers
            .clone()
            .map(|idx| self.net.layers()[idx].output_bytes())
            .max()
            .unwrap_or(0);

        // The set's dense term row, shared by every search of this network
        // on a set with the same content (see [`NetworkMemo`]): an indexed
        // atomic load per lookup, instead of a hash + shard lock, and terms
        // survive from one second-level search to the next.
        let term_for = |pos: usize, strategy: Strategy| -> (f64, u64, bool) {
            evaluator.fast_term(set, compute_layers[pos], strategy, &ctx)
        };

        let block_eval = |pos: usize, block: &[f64]| -> LayerTerm {
            let strategy = decode_strategy_fast(block);
            let (seconds, weight_bytes, memory_ok) = term_for(pos, strategy);
            LayerTerm {
                es: strategy.es(),
                seconds,
                weight_bytes,
                memory_ok,
            }
        };

        // Walks the range in layer order, re-summing exactly like
        // `Evaluator::evaluate_assignment` (float addition is order
        // sensitive, so the walk must not be reordered).
        let combine_cost = |terms: &[LayerTerm]| -> AssignmentCost {
            let mut seconds = 0.0;
            let mut weight_bytes = 0u64;
            let mut memory_ok = true;
            let mut prev_es: Option<DimSet> = None;
            for step in &plan {
                match *step {
                    RangeStep::Compute { pos, reshard } => {
                        let t = &terms[pos];
                        seconds += t.seconds;
                        weight_bytes += t.weight_bytes;
                        memory_ok &= t.memory_ok;
                        if let Some(prev) = prev_es {
                            if prev != t.es && set_size > 1 {
                                seconds += reshard;
                            }
                        }
                        prev_es = Some(t.es);
                    }
                    RangeStep::Fixed(s) => seconds += s,
                }
            }
            memory_ok &= weight_bytes + activation_headroom <= dram;
            AssignmentCost {
                seconds,
                weight_bytes_per_accel: weight_bytes,
                memory_ok,
            }
        };
        let fitness = |terms: &[LayerTerm]| -> f64 {
            let cost = combine_cost(terms);
            if cost.memory_ok {
                cost.seconds
            } else {
                f64::INFINITY
            }
        };

        // Greedy per-layer seed: for every layer, the best strategy from the
        // paper's candidate space when evaluated in isolation.  The GA then
        // only has to repair the (usually few) places where neighbouring
        // layers should align their sharding to avoid re-distribution.
        let greedy: Vec<Strategy> = compute_layers
            .iter()
            .map(|&idx| evaluator.greedy_paper_strategy(set, idx, &ctx))
            .collect();

        let outcome = ga.run_blocks(
            compute_layers.len(),
            GENES_PER_LAYER,
            |rng, i| match i {
                0 => layout.heuristic_seed(&nests),
                1 => layout.genes_for(&greedy),
                _ => layout.random_init(rng),
            },
            block_eval,
            fitness,
        );
        // Accumulated inside the OnceCache compute closure, so each
        // second-level key contributes exactly once — on a memo no other
        // search shares, the total is a pure function of the set of keys
        // searched, hence thread invariant.
        counters
            .blocks_reused
            .fetch_add(outcome.blocks_reused, Relaxed);
        // The search's term lookups, counted once: every block of every
        // scored genome that was not reused from its parent, plus one per
        // layer for the winner's terms below.
        let layers = compute_layers.len() as u64;
        evaluator.count_term_lookups(
            outcome.evaluations as u64 * layers - outcome.blocks_reused + layers,
        );

        let strategies: BTreeMap<usize, Strategy> = layout
            .decode(&outcome.best_genes)
            .into_iter()
            .zip(compute_layers.iter())
            .map(|(s, idx)| (*idx, s))
            .collect();
        // Re-derive the winner's cost through the same memoised terms (all
        // hits), so first-level fitness can reuse it without re-walking.
        let terms: Vec<LayerTerm> = (0..compute_layers.len())
            .map(|p| {
                block_eval(
                    p,
                    &outcome.best_genes[p * GENES_PER_LAYER..(p + 1) * GENES_PER_LAYER],
                )
            })
            .collect();
        let cost = combine_cost(&terms);
        #[cfg(debug_assertions)]
        {
            let full = evaluator.evaluate_assignment(assignment, &strategies);
            debug_assert_eq!(
                cost, full,
                "flat second-level cost diverged from evaluate_assignment"
            );
        }
        SecondOutcome { strategies, cost }
    }

    // ------------------------------------------------------------------
    // Reference engine (pre-rebuild pipeline, kept as the oracle)
    // ------------------------------------------------------------------

    fn search_reference(&self) -> SearchResult {
        let start = Instant::now();
        let candidates = partition::accset_candidates(self.topo);
        let profile = ProfileTable::build(self.net, self.catalog);
        let design_scores = profile.normalized_scores();
        // Per-layer cache keys: the keying this pipeline shipped with, kept
        // so the oracle stays the pre-rebuild code path, not one that shares
        // the rebuilt engine's shape-keyed reuse.  Results are bit-identical
        // either way.
        let evaluator =
            Evaluator::with_policy(self.net, self.topo, self.catalog, self.policy.clone())
                .with_per_layer_cache_keys();

        let layout = FirstLevelGenome::new(
            candidates.len(),
            self.catalog.len(),
            self.topo.len(),
            self.net.len(),
        );

        // Cache of second-level search results per (set, design, range),
        // sharded so concurrent first-level evaluations rarely contend.
        let second_cache: SecondLevelCache = OnceCache::new();

        let first_ga = GeneticAlgorithm::new(self.config.first_level);
        let outcome = first_ga.run_reference(
            layout.len(),
            |rng, i| self.first_level_seed(rng, i, &layout, &candidates, &profile, &design_scores),
            |genes| {
                let (latency, _, _) =
                    self.decide(genes, &layout, &candidates, &evaluator, &second_cache);
                latency
            },
        );

        // Re-derive the winning decision from the best genome; every
        // second-level search it needs is a cache hit, so this is cheap.
        let (latency, assignments, strategies) = if outcome.best_fitness.is_finite() {
            self.decide(
                &outcome.best_genes,
                &layout,
                &candidates,
                &evaluator,
                &second_cache,
            )
        } else {
            // Every individual was invalid; fall back to the heuristic seed.
            let genes = layout.heuristic_seed(self.topo, &candidates, &design_scores);
            let assignments = layout.decode(&genes, &candidates);
            let latency = evaluator.evaluate(&assignments, &BTreeMap::new());
            (latency, assignments, BTreeMap::new())
        };

        let elapsed = start.elapsed();
        let stats = EvalStats {
            evaluations: outcome.evaluations,
            second_level_searches: second_cache.len(),
            layer_cache: exact_split(
                evaluator.cache_stats().lookups(),
                evaluator.cache_entries() as u64,
            ),
            search_cache: exact_split(second_cache.stats().lookups(), second_cache.len() as u64),
            // The reference engine predates the dense term memo and the
            // greedy seed cache; both report zero lookups here.
            term_table: evaluator.term_stats(),
            greedy_cache: evaluator.greedy_stats(),
            blocks_reused: 0,
            elapsed,
        };
        self.record_search(&outcome, &stats);
        SearchResult {
            mapping: Mapping::new(assignments, strategies, latency),
            history: outcome.history,
            evaluations: outcome.evaluations,
            elapsed,
            stats,
        }
    }

    /// Decodes one first-level genome into a complete decision: assignments,
    /// the per-layer strategies found by the (cached) second-level searches,
    /// and the end-to-end latency.
    fn decide(
        &self,
        genes: &[f64],
        layout: &FirstLevelGenome,
        candidates: &[Vec<AccelId>],
        evaluator: &Evaluator<'_>,
        second_cache: &SecondLevelCache,
    ) -> BestDecision {
        let assignments = layout.decode(genes, candidates);
        let mut strategies = BTreeMap::new();
        for a in &assignments {
            if a.is_idle() {
                continue;
            }
            let (strats, _) = self.second_level(a, evaluator, second_cache);
            strategies.extend(strats);
        }
        let latency = evaluator.evaluate(&assignments, &strategies);
        (latency, assignments, strategies)
    }

    /// Runs (or fetches from cache) the second-level GA for one assignment:
    /// the best per-layer strategies for its layer range on its accelerator
    /// set, considering both computation and communication costs.
    ///
    /// The [`OnceCache`] guarantees the expensive second-level GA runs exactly
    /// once per (set, design, range) key: when several first-level workers
    /// decode assignments with the same key at once, one computes while the
    /// others wait for (and share) its result.
    fn second_level(
        &self,
        assignment: &Assignment,
        evaluator: &Evaluator<'_>,
        cache: &SecondLevelCache,
    ) -> SecondLevelValue {
        let key: SecondLevelKey = (
            assignment.accels.clone(),
            assignment.design,
            assignment.layers.start,
            assignment.layers.end,
        );
        cache.get_or_compute(key.clone(), || {
            self.search_strategies(assignment, evaluator, &key)
        })
    }

    /// The uncached second-level GA body: searches the best per-layer
    /// strategies for one assignment.
    fn search_strategies(
        &self,
        assignment: &Assignment,
        evaluator: &Evaluator<'_>,
        key: &SecondLevelKey,
    ) -> SecondLevelValue {
        let compute_layers: Vec<usize> = assignment
            .layers
            .clone()
            .filter(|idx| self.net.layers()[*idx].is_compute())
            .collect();
        if compute_layers.is_empty() {
            return (BTreeMap::new(), 0.0);
        }

        let nests: Vec<LoopNest> = compute_layers
            .iter()
            .map(|idx| {
                self.net.layers()[*idx]
                    .as_conv()
                    .expect("compute layer")
                    .loop_nest()
            })
            .collect();

        let layout = SecondLevelGenome::new(compute_layers.len());
        let mut seed_hasher = DefaultHasher::new();
        key.hash(&mut seed_hasher);
        let ga = GeneticAlgorithm::second_level(GaConfig {
            seed: self.config.second_level.seed ^ seed_hasher.finish(),
            ..self.config.second_level
        });

        let to_strategy_map = |genes: &[f64]| -> BTreeMap<usize, Strategy> {
            layout
                .decode(genes)
                .into_iter()
                .zip(compute_layers.iter())
                .map(|(s, idx)| (*idx, s))
                .collect()
        };

        // Greedy per-layer seed: for every layer, the best strategy from the
        // paper's candidate space when evaluated in isolation.  The GA then
        // only has to repair the (usually few) places where neighbouring
        // layers should align their sharding to avoid re-distribution.
        let greedy: Vec<Strategy> = compute_layers
            .iter()
            .map(|idx| {
                let mut best = Strategy::default();
                let mut best_latency = evaluator.conv_latency_under(assignment, *idx, best);
                for s in mars_parallel::paper_strategies() {
                    let latency = evaluator.conv_latency_under(assignment, *idx, s);
                    if latency < best_latency {
                        best_latency = latency;
                        best = s;
                    }
                }
                best
            })
            .collect();

        let outcome = ga.run_reference(
            layout.len(),
            |rng, i| match i {
                0 => layout.heuristic_seed(&nests),
                1 => layout.genes_for(&greedy),
                _ => layout.random_init(rng),
            },
            |genes| {
                let strategies = to_strategy_map(genes);
                let cost = evaluator.evaluate_assignment(assignment, &strategies);
                if cost.memory_ok {
                    cost.seconds
                } else {
                    f64::INFINITY
                }
            },
        );

        (to_strategy_map(&outcome.best_genes), outcome.best_fitness)
    }
}

impl std::fmt::Debug for Mars<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mars")
            .field("network", &self.net.name())
            .field("topology", &self.topo.name())
            .field("designs", &self.catalog.len())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use mars_model::zoo;
    use mars_topology::presets;

    #[test]
    fn search_finds_a_valid_mapping_for_alexnet() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let result = Mars::new(&net, &topo, &catalog)
            .with_config(SearchConfig::fast(1))
            .search();
        assert!(result.mapping.is_valid());
        assert!(result.latency_ms() > 0.0);
        // Every layer is covered.
        for idx in 0..net.len() {
            assert!(
                result.mapping.assignment_for_layer(idx).is_some(),
                "layer {idx} uncovered"
            );
        }
        // History never regresses (elitism).
        for w in result.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn search_beats_the_computation_prioritized_baseline() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let baseline = baseline::computation_prioritized(&net, &topo, &catalog);
        let result = Mars::new(&net, &topo, &catalog)
            .with_config(SearchConfig::fast(2))
            .search();
        assert!(
            result.mapping.latency_seconds <= baseline.latency_seconds * 1.001,
            "MARS {} ms must not lose to the baseline {} ms",
            result.latency_ms(),
            baseline.latency_ms()
        );
    }

    #[test]
    fn search_is_reproducible_for_a_fixed_seed() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let a = Mars::new(&net, &topo, &catalog)
            .with_config(SearchConfig::fast(7))
            .search();
        let b = Mars::new(&net, &topo, &catalog)
            .with_config(SearchConfig::fast(7))
            .search();
        assert_eq!(a.mapping.latency_seconds, b.mapping.latency_seconds);
        assert_eq!(a.mapping.assignments, b.mapping.assignments);
    }

    #[test]
    fn search_outcome_is_identical_at_one_and_four_threads() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let run = |threads| {
            Mars::new(&net, &topo, &catalog)
                .with_config(SearchConfig::fast(17).with_threads(threads))
                .search()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(
            serial.mapping.latency_seconds.to_bits(),
            parallel.mapping.latency_seconds.to_bits()
        );
        assert_eq!(serial.mapping.assignments, parallel.mapping.assignments);
        assert_eq!(serial.mapping.strategies, parallel.mapping.strategies);
        assert_eq!(serial.history, parallel.history);
        assert_eq!(serial.evaluations, parallel.evaluations);
    }

    #[test]
    fn flat_engine_matches_reference_engine_bitwise() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        for (seed, threads) in [(17, 1), (17, 4), (40, 1)] {
            let run = |engine| {
                Mars::new(&net, &topo, &catalog)
                    .with_config(
                        SearchConfig::fast(seed)
                            .with_engine(engine)
                            .with_threads(threads),
                    )
                    .search()
            };
            let flat = run(SearchEngine::Flat);
            let reference = run(SearchEngine::Reference);
            assert_eq!(
                flat.mapping.latency_seconds.to_bits(),
                reference.mapping.latency_seconds.to_bits(),
                "seed {seed} threads {threads}"
            );
            assert_eq!(flat.mapping.assignments, reference.mapping.assignments);
            assert_eq!(flat.mapping.strategies, reference.mapping.strategies);
            assert_eq!(flat.history, reference.history);
            assert_eq!(flat.evaluations, reference.evaluations);
        }
    }

    #[test]
    fn search_reports_eval_stats() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let result = Mars::new(&net, &topo, &catalog)
            .with_config(SearchConfig::fast(4))
            .search();
        let stats = result.stats;
        assert_eq!(stats.evaluations, result.evaluations);
        assert!(stats.second_level_searches > 0);
        assert!(stats.search_cache.hits > 0, "repeat decisions must hit");
        assert!(stats.cache_hits() > 0);
        assert_eq!(stats.elapsed, result.elapsed);
        // The flat engine keeps per-layer terms in the evaluator's dense
        // term table and seeds populations from the greedy-winner memo;
        // both are counted now, and the memos earn real hits.
        assert!(stats.term_table.lookups() > 0, "term table is counted");
        assert!(stats.term_table.hits > 0, "repeat terms must hit");
        assert!(stats.greedy_cache.lookups() > 0, "greedy memo is counted");
        assert!(stats.blocks_reused > 0, "delta fitness must reuse blocks");
        // The reference engine predates both memos: it routes every
        // per-layer lookup through the layer cache instead.
        let reference = Mars::new(&net, &topo, &catalog)
            .with_config(SearchConfig::fast(4).with_engine(SearchEngine::Reference))
            .search();
        assert!(reference.stats.layer_cache.lookups() > 0);
        assert!(reference.stats.layer_cache.hits > 0);
        assert_eq!(reference.stats.term_table.lookups(), 0);
        assert_eq!(reference.stats.greedy_cache.lookups(), 0);
        assert_eq!(reference.stats.blocks_reused, 0);
    }

    #[test]
    fn work_counters_count_every_term_lookup_once() {
        // AlexNet at `fast(40)` looks terms up 6 572 times, one per
        // `fast_term` call outside the debug-only reuse cross-check, which
        // is no lookup the search needs.  Counting them in bulk, once per
        // second-level search and greedy scan, must give exactly that, at
        // every thread count; so must the other work counters.  The memo
        // keys terms and greedy winners on set content, so F1's two
        // identical groups share them: 2 143 slot fills and fewer greedy
        // scans (9 004 lookups and 4 685 fills when they were keyed on
        // accelerator ids).  Greedy lookups and reused blocks do not move:
        // second-level searches are still keyed on their ids.
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        for threads in [1, 4] {
            let stats = Mars::new(&net, &topo, &catalog)
                .with_config(SearchConfig::fast(40).with_threads(threads))
                .search()
                .stats;
            assert_eq!(stats.term_table.lookups(), 6_572, "threads {threads}");
            assert_eq!(stats.term_table.misses, 2_143);
            assert_eq!(stats.greedy_cache.lookups(), 82);
            assert_eq!(stats.blocks_reused, 1_074);
        }
    }

    #[test]
    fn recorder_captures_search_metrics_without_changing_the_result() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let plain = Mars::new(&net, &topo, &catalog)
            .with_config(SearchConfig::fast(4))
            .search();
        let recorder = Recorder::enabled();
        let observed = Mars::new(&net, &topo, &catalog)
            .with_config(SearchConfig::fast(4))
            .with_recorder(recorder.clone())
            .search();

        // Attaching a recorder must not perturb the search.
        assert_eq!(plain.mapping, observed.mapping);
        assert_eq!(plain.history, observed.history);
        assert_eq!(plain.stats.evaluations, observed.stats.evaluations);

        let obs = recorder.snapshot();
        let best = obs.series("search/best_fitness").expect("best series");
        let mean = obs.series("search/mean_fitness").expect("mean series");
        assert_eq!(best.len(), observed.history.len());
        assert_eq!(mean.len(), observed.history.len());
        for ((_, b), h) in best.iter().zip(&observed.history) {
            assert_eq!(b.to_bits(), h.to_bits());
        }
        assert_eq!(
            obs.counter_value("search/evaluations"),
            observed.stats.evaluations as u64
        );
        assert_eq!(
            obs.counter_value("search/term_table_hits"),
            observed.stats.term_table.hits
        );
        assert!(obs.counter_value("search/blocks_reused") > 0);
    }

    #[test]
    fn search_records_wall_clock_and_throughput() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let result = Mars::new(&net, &topo, &catalog)
            .with_config(SearchConfig::fast(4))
            .search();
        assert!(result.elapsed > std::time::Duration::ZERO);
        assert!(result.evals_per_second().is_finite());
        assert!(result.evals_per_second() > 0.0);
    }

    #[test]
    fn fixed_design_policy_searches_without_reconfiguration() {
        let net = zoo::casia_surf_like();
        let topo = presets::h2h_cloud(4.0);
        let catalog = Catalog::h2h_heterogeneous();
        let designs = baseline::default_fixed_designs(&topo, &catalog);
        let result = Mars::new(&net, &topo, &catalog)
            .with_fixed_designs(designs)
            .with_config(SearchConfig::fast(3))
            .search();
        assert!(result.mapping.is_valid());
    }
}
