//! Multi-DNN co-scheduling across the accelerator pool.
//!
//! MARS proper maps *one* network onto the platform.  This module adds the
//! next level of parallelism above the ES/SS strategies: given several
//! workloads (network + SLA weight + batch), it partitions the topology into
//! disjoint accelerator subsets, runs the existing per-network [`Mars`] search
//! inside each partition, and searches *over partitions* so that the workloads
//! run concurrently with the best weighted makespan — the co-scheduling regime
//! of MAGMA (Kao & Krishna, HPCA'22) and the multi-DNN accelerator survey.
//!
//! The search is two nested levels, mirroring the single-network design:
//!
//! * **Outer GA** — a genome of `k-1` *partition cut* genes (splitting the
//!   accelerator id order into `k` contiguous, non-empty subsets; id order
//!   keeps group members together on grouped platforms) plus `k` *rank* genes
//!   (the permutation assigning workloads to subsets).  Seeds: a greedy
//!   demand-proportional split and a group-boundary-aligned split.
//! * **Inner searches** — for each `(workload, subset)` the existing
//!   two-level [`Mars`] GA runs on the [`Topology::subtopology`] of the
//!   subset.  Results are memoised in a [`OnceCache`] keyed by the workload
//!   and the sub-platform's *content* (links, host links, DRAM, groups — not
//!   which ids it came from), so each inner search runs **exactly once**
//!   even when concurrent outer genomes race on it, isomorphic subsets share
//!   one search, and the outer fitness is a pure function of the genes —
//!   which makes the whole co-schedule bit-identical for every thread count,
//!   like the single-network search.
//!
//! The fitness minimised is the *weighted makespan*: workloads start
//! simultaneously on their disjoint subsets, workload `i` finishes its batch
//! at `t_i = batch_i · latency_i`, and the objective is
//! `max_i weight_i · t_i`.  [`sequential_exclusive`] computes the baseline
//! (every workload gets the whole platform, back to back, in
//! descending-weight order) so callers can see when co-scheduling pays off.

use crate::ga::{genome_stream_seed, GaConfig, GeneticAlgorithm};
use crate::mapper::{Mars, SearchConfig, SearchResult};
use crate::mapping::{Assignment, Mapping};
use crate::memo::{push_set_content, NetworkMemo};
use mars_accel::Catalog;
use mars_parallel::{resolve_threads, scoped_map, OnceCache};
use mars_topology::{AccelId, Topology};
use std::cmp::Reverse;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workload type the co-scheduler consumes: a network with its SLA
/// weight and batch size.  Defined in `mars-model` (next to the zoo whose
/// [`MixZoo`](mars_model::zoo::MixZoo) mixes produce it) and re-exported here
/// as the scheduler's input vocabulary.
pub use mars_model::Workload;

/// Errors rejected before a co-schedule search starts.
#[derive(Debug, Clone, PartialEq)]
pub enum CoScheduleError {
    /// No workloads were given.
    NoWorkloads,
    /// The catalog holds no accelerator design, so no accelerator can be
    /// configured.
    EmptyCatalog,
    /// More workloads than accelerators: disjoint non-empty partitions are
    /// impossible.
    TooManyWorkloads {
        /// Number of workloads requested.
        workloads: usize,
        /// Number of accelerators available.
        accelerators: usize,
    },
    /// A workload's SLA weight is not a positive finite number.
    InvalidWeight {
        /// Index of the offending workload.
        workload: usize,
        /// The rejected weight.
        weight: f64,
    },
    /// A workload's batch size is zero.
    InvalidBatch {
        /// Index of the offending workload.
        workload: usize,
    },
    /// A workload's resident-memory footprint cannot be satisfied: no
    /// accelerator (or, for the final placement, no accelerator of its
    /// partition) offers `demand_bytes` of memory.  Memory is a **hard**
    /// constraint — infeasible placements are rejected, never penalised —
    /// so a demand the platform cannot meet anywhere is an input error.
    MemoryInfeasible {
        /// Index of the offending workload.
        workload: usize,
        /// The workload's per-accelerator resident footprint, bytes.
        demand_bytes: u64,
        /// The largest per-accelerator capacity the platform offers, bytes.
        capacity_bytes: u64,
    },
}

impl std::fmt::Display for CoScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoScheduleError::NoWorkloads => write!(f, "no workloads to schedule"),
            CoScheduleError::EmptyCatalog => write!(f, "the catalog holds no accelerator design"),
            CoScheduleError::TooManyWorkloads {
                workloads,
                accelerators,
            } => write!(
                f,
                "{workloads} workloads cannot get disjoint subsets of {accelerators} accelerators"
            ),
            CoScheduleError::InvalidWeight { workload, weight } => {
                write!(f, "workload {workload} has invalid SLA weight {weight}")
            }
            CoScheduleError::InvalidBatch { workload } => {
                write!(f, "workload {workload} has batch size 0")
            }
            CoScheduleError::MemoryInfeasible {
                workload,
                demand_bytes,
                capacity_bytes,
            } => write!(
                f,
                "workload {workload} needs {demand_bytes} B resident memory per accelerator, \
                 but the tightest usable accelerator offers only {capacity_bytes} B"
            ),
        }
    }
}

impl std::error::Error for CoScheduleError {}

/// An incumbent placement encoded for warm-starting the outer GA.
///
/// Built by [`CoScheduleConfig::warm_start`] from a previous
/// [`CoScheduleResult`]: the partition's cut positions (in accelerator-id
/// order) plus the subset → workload assignment.  During a warm-started
/// search the encoding is decoded back into one extra seeded genome, so the
/// incumbent competes (and, with elitism, survives) from generation zero —
/// the MAGMA-style amortisation the elastic runtime leans on when it
/// re-schedules online.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// Cut positions in `[1, accelerators-1]`, strictly increasing: subset
    /// `j` spans ids `[cuts[j-1], cuts[j])` (with implicit 0 and n bounds).
    cuts: Vec<usize>,
    /// `order[j]` = workload placed on subset `j`.
    order: Vec<usize>,
    /// Number of accelerators the encoding was taken on (sanity check: a
    /// warm start from a different platform is silently ignored).
    accelerators: usize,
}

impl WarmStart {
    /// Encodes `incumbent`'s partition.  Placements decoded by
    /// [`co_schedule`] are always contiguous runs of the id order, so the
    /// encoding is exact.
    pub(crate) fn from_result(incumbent: &CoScheduleResult) -> Self {
        let mut by_position: Vec<(usize, usize)> = incumbent
            .placements
            .iter()
            .map(|p| {
                let min = p.accels.iter().map(|a| a.0).min().unwrap_or(0);
                (min, p.workload)
            })
            .collect();
        by_position.sort_unstable();
        let order: Vec<usize> = by_position.iter().map(|&(_, w)| w).collect();
        // Interior boundaries: the start of every subset but the first.
        let cuts: Vec<usize> = by_position.iter().skip(1).map(|&(min, _)| min).collect();
        let accelerators = incumbent.placements.iter().map(|p| p.accels.len()).sum();
        Self {
            cuts,
            order,
            accelerators,
        }
    }

    /// Decodes into a genome for a `k`-workload, `n`-accelerator layout;
    /// `None` when the encoding does not fit (different workload count or
    /// platform size).
    fn genes(&self, k: usize, n: usize) -> Option<Vec<f64>> {
        self.genes_with_cuts(k, n, &self.cuts)
    }

    fn genes_with_cuts(&self, k: usize, n: usize, cuts: &[usize]) -> Option<Vec<f64>> {
        if self.order.len() != k || self.accelerators != n || cuts.len() != k - 1 {
            return None;
        }
        let mut genes = Vec::with_capacity(2 * k - 1);
        for &cut in cuts {
            genes.push(cut as f64 / n as f64);
        }
        // rank[w] = (j + 0.5) / k sorts workload w into subset position j.
        let mut ranks = vec![0.0; k];
        for (j, &w) in self.order.iter().enumerate() {
            ranks[w] = (j as f64 + 0.5) / k as f64;
        }
        genes.extend(ranks);
        Some(genes)
    }

    /// The warm genome plus its one-accelerator-shifted neighbours: for each
    /// cut, the partitions with that boundary moved one id left and one id
    /// right (where the move keeps every subset non-empty).  Re-schedules
    /// triggered by load drift usually want a placement *adjacent* to the
    /// incumbent, and a small outer-GA population cannot be relied on to
    /// sample those cuts — seeding them makes the one-step moves a certainty
    /// rather than a lottery.
    fn seed_genomes(&self, k: usize, n: usize) -> Vec<Vec<f64>> {
        let mut seeds = Vec::new();
        if let Some(warm) = self.genes(k, n) {
            seeds.push(warm);
        } else {
            return seeds;
        }
        for i in 0..self.cuts.len() {
            for delta in [-1isize, 1] {
                let moved = self.cuts[i] as isize + delta;
                let lo = if i == 0 {
                    1
                } else {
                    self.cuts[i - 1] as isize + 1
                };
                let hi = if i + 1 == self.cuts.len() {
                    n as isize - 1
                } else {
                    self.cuts[i + 1] as isize - 1
                };
                if moved < lo || moved > hi {
                    continue;
                }
                let mut cuts = self.cuts.clone();
                cuts[i] = moved as usize;
                if let Some(genes) = self.genes_with_cuts(k, n, &cuts) {
                    seeds.push(genes);
                }
            }
        }
        seeds
    }
}

/// Configuration of the co-schedule search.
#[derive(Debug, Clone, PartialEq)]
pub struct CoScheduleConfig {
    /// Budget of the outer GA over partition assignments.  Its
    /// [`seed`](GaConfig::seed) is the master seed of the whole co-schedule:
    /// it seeds the outer GA and derives every per-workload inner-search
    /// seed.
    pub outer: GaConfig,
    /// Budget template for the inner per-workload searches.  Each workload's
    /// search replaces this template's seeds with ones derived from the
    /// master seed (`outer.seed`) and its workload index, and its thread
    /// count: the inner searches an outer generation starts run side by
    /// side on [`outer`](Self::outer)'s workers, one worker each, or a lone
    /// one on all of them.
    pub inner: SearchConfig,
    /// Optional incumbent placement to warm-start from — see
    /// [`CoScheduleConfig::warm_start`].
    pub warm: Option<WarmStart>,
}

impl CoScheduleConfig {
    /// The paper-scale budget: a broader outer GA over fast inner searches.
    pub fn standard(seed: u64) -> Self {
        Self {
            outer: GaConfig {
                population: 12,
                generations: 8,
                ..GaConfig::first_level(seed)
            },
            inner: SearchConfig::fast(seed),
            warm: None,
        }
    }

    /// A reduced budget for unit tests, examples and quick runs.
    pub fn fast(seed: u64) -> Self {
        Self {
            outer: GaConfig {
                population: 6,
                generations: 3,
                ..GaConfig::first_level(seed)
            },
            inner: SearchConfig::fast(seed),
            warm: None,
        }
    }

    /// Warm-starts the search from `incumbent`: its partition is encoded
    /// ([`WarmStart`]) and injected as extra seeded genomes (population
    /// slots from 2, after the greedy and group-aligned seeds) — the
    /// incumbent itself plus its one-accelerator-shifted neighbours — so
    /// with elitism the search can never finish with a worse weighted
    /// makespan than the incumbent's partition achieves under the *current*
    /// workloads, and the adjacent re-balancing moves an online re-schedule
    /// usually wants are always evaluated.
    ///
    /// A warm start taken on a different platform size or workload count is
    /// ignored at decode time.  Warm-started searches remain bit-identical
    /// across thread counts; callers re-scheduling online (the elastic
    /// runtime) combine this with [`co_schedule_cached`] so the incumbent's
    /// inner searches are cache hits rather than recomputations.
    pub fn warm_start(mut self, incumbent: &CoScheduleResult) -> Self {
        self.warm = Some(WarmStart::from_result(incumbent));
        self
    }

    /// Sets the worker-thread count of the co-schedule (`0` = ask the OS,
    /// `1` = serial): each outer generation's new inner searches run on
    /// them.  The co-schedule outcome is bit-identical for every thread
    /// count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.outer.threads = threads;
        self
    }
}

impl Default for CoScheduleConfig {
    fn default() -> Self {
        Self::standard(0)
    }
}

/// One workload's placement in a co-schedule.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Index of the workload in the input slice.
    pub workload: usize,
    /// Network name (for reports).
    pub name: String,
    /// SLA weight of the workload.
    pub weight: f64,
    /// Batch size of the workload.
    pub batch: usize,
    /// The accelerators of this partition, as ids of the *original* topology.
    pub accels: Vec<AccelId>,
    /// The inner search outcome; its mapping's accelerator ids are translated
    /// back to the original topology.  Its `stats` and `elapsed` belong to
    /// the search that filled the [`InnerSearchCache`] entry, which may have
    /// run in an earlier call or on another subset with the same content.
    /// That search's term, greedy, second-level and reuse counts leave out
    /// the work earlier searches of the same cache had already done (see
    /// [`EvalStats`](crate::EvalStats)), so they depend on the order the
    /// cache's searches ran in; the mapping, history and evaluation count
    /// do not.
    pub result: SearchResult,
}

impl Placement {
    /// Time this workload occupies its partition: batch × per-inference
    /// latency, in seconds.
    pub(crate) fn round_seconds(&self) -> f64 {
        self.batch as f64 * self.result.mapping.latency_seconds
    }

    /// The workload's contribution to the weighted makespan.
    pub(crate) fn weighted_seconds(&self) -> f64 {
        self.weight * self.round_seconds()
    }
}

/// Outcome of a co-schedule search.
#[derive(Debug, Clone)]
pub struct CoScheduleResult {
    /// Per-workload placements, in input order.  Their accelerator subsets
    /// are pairwise disjoint and together cover the platform.
    pub placements: Vec<Placement>,
    /// Completion time of the whole round: all workloads start at once, so
    /// this is the slowest placement's round (batch × latency).
    pub makespan_seconds: f64,
    /// The optimised objective: maximum weighted completion time.
    pub weighted_makespan_seconds: f64,
    /// Best weighted makespan after every outer generation.
    pub outer_history: Vec<f64>,
    /// Number of outer fitness evaluations.
    pub outer_evaluations: usize,
    /// Number of inner searches this call ran.  Cache hits are excluded,
    /// and that includes hits on entries an earlier call filled and on a
    /// subset whose sub-platform has the same content as one already
    /// searched (on F1, `{0,1}`, `{1,2}` and `{2,3}` are one search).
    pub inner_searches: usize,
    /// Wall-clock time of the whole co-schedule.
    pub elapsed: Duration,
}

impl CoScheduleResult {
    /// Makespan in milliseconds.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_seconds * 1e3
    }

    /// Total inferences completed per round.
    pub(crate) fn total_inferences(&self) -> usize {
        self.placements.iter().map(|p| p.batch).sum()
    }

    /// Aggregate system throughput in inferences per second.
    ///
    /// Returns `0.0` when the makespan is zero instead of dividing by it.
    pub fn throughput_per_second(&self) -> f64 {
        if self.makespan_seconds > 0.0 {
            self.total_inferences() as f64 / self.makespan_seconds
        } else {
            0.0
        }
    }

    /// `true` when every placement found a valid mapping.
    pub fn is_valid(&self) -> bool {
        self.makespan_seconds.is_finite()
            && self.placements.iter().all(|p| p.result.mapping.is_valid())
    }
}

/// The sequential-exclusive baseline of a workload mix: every workload runs
/// alone on the *whole* platform, back to back, in descending SLA-weight
/// order (ties in input order).  Computed by [`sequential_exclusive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialBaseline {
    /// When the last workload finishes its batch, in seconds.
    pub makespan_seconds: f64,
    /// Maximum weighted completion time under the same order.
    pub weighted_makespan_seconds: f64,
}

impl SequentialBaseline {
    /// Makespan in milliseconds.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_seconds * 1e3
    }

    /// How much faster `co` finishes the round than this baseline (>1 =
    /// co-scheduling wins).
    ///
    /// Returns `0.0` when `co`'s makespan is zero (an empty or zero-latency
    /// mix): no meaningful ratio exists there, and `0.0` is an explicit "no
    /// speedup measured" marker rather than a division by zero propagating
    /// `inf`/`NaN` into reports.
    pub fn speedup_of(&self, co: &CoScheduleResult) -> f64 {
        if co.makespan_seconds > 0.0 {
            self.makespan_seconds / co.makespan_seconds
        } else {
            0.0
        }
    }
}

/// Genome layout of the outer search: `k-1` partition-cut genes followed by
/// `k` workload-rank genes.
struct OuterGenome {
    workloads: usize,
    accelerators: usize,
}

impl OuterGenome {
    fn len(&self) -> usize {
        2 * self.workloads - 1
    }

    /// Decodes the cut genes into `k` contiguous, non-empty id segments.
    ///
    /// Raw cut positions are sorted and then repaired to be strictly
    /// increasing inside `[1, n-1]`, so every genome decodes to a valid
    /// partition (genetic operators can never produce an empty subset).
    fn decode_subsets(&self, genes: &[f64], ids: &[AccelId]) -> Vec<Vec<AccelId>> {
        let (k, n) = (self.workloads, self.accelerators);
        let mut raw: Vec<usize> = genes[..k - 1]
            .iter()
            .map(|g| (g * n as f64).round() as usize)
            .collect();
        raw.sort_unstable();
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(0usize);
        let mut prev = 0usize;
        for (j, r) in raw.into_iter().enumerate() {
            let hi = n - (k - 1 - j);
            let cut = r.clamp(prev + 1, hi);
            bounds.push(cut);
            prev = cut;
        }
        bounds.push(n);
        bounds
            .windows(2)
            .map(|w| ids[w[0]..w[1]].to_vec())
            .collect()
    }

    /// Decodes the rank genes into the workload order: position `j` of the
    /// returned permutation is the workload assigned to subset `j`.
    fn decode_order(&self, genes: &[f64]) -> Vec<usize> {
        let k = self.workloads;
        let ranks = &genes[k - 1..];
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|a, b| {
            ranks[*a]
                .partial_cmp(&ranks[*b])
                .expect("genes are finite")
                .then(a.cmp(b))
        });
        order
    }

    /// The greedy seed: subset sizes proportional to workload demand, with
    /// the identity assignment (workload `i` → subset `i`).
    fn greedy_seed(&self, demands: &[u64]) -> Vec<f64> {
        let k = self.workloads;
        let total: u64 = demands.iter().sum::<u64>().max(1);
        let mut genes = Vec::with_capacity(self.len());
        let mut cum = 0u64;
        for d in &demands[..k - 1] {
            cum += d;
            genes.push(cum as f64 / total as f64);
        }
        for i in 0..k {
            genes.push((i as f64 + 0.5) / k as f64);
        }
        genes
    }

    /// The group-aligned seed: the greedy cuts snapped to the nearest group
    /// boundary of the topology, so partitions respect the platform's natural
    /// communication domains when possible.
    fn group_seed(&self, demands: &[u64], topo: &Topology, ids: &[AccelId]) -> Vec<f64> {
        let n = self.accelerators;
        let mut boundaries = Vec::new();
        for i in 1..n {
            if topo.group(ids[i]) != topo.group(ids[i - 1]) {
                boundaries.push(i);
            }
        }
        let mut genes = self.greedy_seed(demands);
        for gene in genes[..self.workloads - 1].iter_mut() {
            let target = *gene * n as f64;
            if let Some(best) = boundaries.iter().min_by(|a, b| {
                let da = (**a as f64 - target).abs();
                let db = (**b as f64 - target).abs();
                da.partial_cmp(&db).expect("finite")
            }) {
                *gene = *best as f64 / n as f64;
            }
        }
        genes
    }
}

/// An inner search's cache key: the workload index and the exact content of
/// the sub-platform it runs on (see [`platform_key`]).
type InnerKey = (usize, Vec<u64>);
type InnerCache = OnceCache<InnerKey, Arc<SearchResult>>;

/// A shareable exactly-once memo of inner searches, for callers that run
/// [`co_schedule_cached`] and [`sequential_exclusive`] repeatedly — the
/// elastic runtime's online re-scheduling loop, or a table row that wants
/// both the co-schedule and its baseline.
///
/// An entry is keyed by the workload index and the *content* of the
/// sub-platform the search ran on: every value [`Topology::subtopology`]
/// copies (link bandwidths, host links, DRAM, group labels), as bits, but
/// not the platform's name or which ids the subset had.  Each entry holds
/// the search result in the sub-platform's local ids; a call translates it
/// to its own ids.  So isomorphic subsets share one search, and a re-plan
/// on the survivors of a failure (a call on a [`Topology::subtopology`])
/// hits the entries the full-pool calls filled.
///
/// The cache also keeps one memo per workload of the per-layer strategy
/// terms, greedy per-layer winners and second-level search results its
/// inner searches computed, keyed on the content of each accelerator set
/// (the members' designs, links, host links and DRAM) rather than on ids.
/// Every inner search of that workload reads and extends it, so a term a
/// search on another sub-platform already computed costs nothing.  Results
/// are unchanged, but an inner search's work counters leave out what the
/// others already did (see [`Placement::result`]).
///
/// **Soundness**: a cached value is a pure function of the key plus the
/// network list, the catalog, the inner budget ([`CoScheduleConfig::inner`])
/// and the master seed (the seed of [`CoScheduleConfig::outer`]); so is
/// every memo entry, and every inner search of one workload has the same
/// second-level seed.  One cache therefore serves every sub-topology of one platform,
/// for one network list (the SLA weights, batches and memory demands may
/// change), one catalog, one inner budget and one master seed.  Reusing it
/// after any of those change would silently serve stale results — create a
/// fresh cache instead.
#[derive(Debug, Default)]
pub struct InnerSearchCache {
    cache: InnerCache,
    /// One memo of per-layer terms, greedy winners and second-level results
    /// per workload index, handed to every inner search of that workload.
    memos: OnceCache<usize, Arc<NetworkMemo>>,
    total_searches: AtomicUsize,
}

impl InnerSearchCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of distinct inner searches computed through this cache
    /// over its whole lifetime (across every [`co_schedule_cached`] and
    /// [`sequential_exclusive`] call).
    pub fn searches_run(&self) -> usize {
        self.total_searches.load(Ordering::Relaxed)
    }
}

/// The content of the sub-platform `subset` (ascending ids of `topo`)
/// induces: exactly the values [`Topology::subtopology`] copies, as bits,
/// and nothing else.  Two subsets with equal keys have equal sub-topologies
/// up to the name, so an inner search on either returns the same result in
/// local ids.
fn platform_key(topo: &Topology, subset: &[AccelId]) -> Vec<u64> {
    debug_assert!(subset.windows(2).all(|w| w[0] < w[1]), "ascending ids");
    let m = subset.len();
    let mut key = Vec::with_capacity(m * (m + 3));
    push_set_content(&mut key, topo, subset);
    key.extend(subset.iter().map(|&a| topo.group(a) as u64));
    key
}

/// The inner searches of one call, looked up in (and added to) a shared
/// [`InnerSearchCache`].
struct InnerSearches<'a> {
    workloads: &'a [Workload],
    topo: &'a Topology,
    catalog: &'a Catalog,
    config: &'a CoScheduleConfig,
    shared: &'a InnerSearchCache,
    /// Searches this call computed (cache hits excluded).
    computed: AtomicUsize,
}

impl<'a> InnerSearches<'a> {
    fn new(
        workloads: &'a [Workload],
        topo: &'a Topology,
        catalog: &'a Catalog,
        config: &'a CoScheduleConfig,
        shared: &'a InnerSearchCache,
    ) -> Self {
        Self {
            workloads,
            topo,
            catalog,
            config,
            shared,
            computed: AtomicUsize::new(0),
        }
    }

    /// Workload `w`'s search on the sub-platform of `subset` (ascending ids
    /// of the topology), in the sub-platform's local ids: a cache hit, or a
    /// search run now on `threads` workers.
    fn get(&self, w: usize, subset: &[AccelId], threads: usize) -> Arc<SearchResult> {
        let key = (w, platform_key(self.topo, subset));
        self.shared.cache.get_or_compute(key, || {
            self.computed.fetch_add(1, Ordering::Relaxed);
            self.shared.total_searches.fetch_add(1, Ordering::Relaxed);
            Arc::new(self.search(w, subset, threads))
        })
    }

    /// Runs workload `w`'s [`Mars`] search on the sub-platform of `subset`;
    /// the mapping stays in the sub-platform's local ids.
    fn search(&self, w: usize, subset: &[AccelId], threads: usize) -> SearchResult {
        let (sub, _) = self
            .topo
            .subtopology(subset)
            .expect("decoded subsets are valid accelerator sets");
        // Deterministic per-workload seeds; the subset does not enter the
        // seed, so the same workload explores consistently across candidate
        // partitions, and equal cache keys give bit-identical results.
        let seed = genome_stream_seed(self.config.outer.seed, 0x5eed, w as u64);
        let mut inner = self.config.inner;
        inner.first_level.seed = seed;
        inner.second_level.seed = seed.wrapping_add(1);
        // The search outcome is bit-identical for every thread count, so the
        // caller picks: one worker when other inner searches run beside it,
        // the configured pool when it runs alone or for the sequential
        // baseline.
        inner = inner.with_threads(threads);
        let network = &self.workloads[w].network;
        let memo = self
            .shared
            .memos
            .get_or_compute(w, || Arc::new(NetworkMemo::new(network)));
        Mars::new(network, &sub, self.catalog)
            .with_config(inner)
            .search_in(memo)
    }
}

/// Rejects inputs no search can run on — see [`CoScheduleError`].
fn check_inputs(
    workloads: &[Workload],
    topo: &Topology,
    catalog: &Catalog,
) -> Result<(), CoScheduleError> {
    let k = workloads.len();
    let n = topo.len();
    if k == 0 {
        return Err(CoScheduleError::NoWorkloads);
    }
    if catalog.is_empty() {
        return Err(CoScheduleError::EmptyCatalog);
    }
    if k > n {
        return Err(CoScheduleError::TooManyWorkloads {
            workloads: k,
            accelerators: n,
        });
    }
    for (i, w) in workloads.iter().enumerate() {
        if !(w.weight.is_finite() && w.weight > 0.0) {
            return Err(CoScheduleError::InvalidWeight {
                workload: i,
                weight: w.weight,
            });
        }
        if w.batch == 0 {
            return Err(CoScheduleError::InvalidBatch { workload: i });
        }
    }
    let best = topo
        .accelerators()
        .map(|a| usable_capacity(topo, catalog, a))
        .max()
        .unwrap_or(0);
    for (i, w) in workloads.iter().enumerate() {
        if w.memory_bytes > 0 && w.memory_bytes > best {
            return Err(CoScheduleError::MemoryInfeasible {
                workload: i,
                demand_bytes: w.memory_bytes,
                capacity_bytes: best,
            });
        }
    }
    Ok(())
}

/// Per-accelerator memory capacity, as a *hard* placement constraint.  An
/// adaptive platform may configure any accelerator with any catalog design,
/// so the usable capacity is the accelerator's DRAM clamped by the tightest
/// design's on-board memory — design-choice-independent, which keeps the
/// memoised inner searches pure (their cache key carries no design
/// dimension).
fn usable_capacity(topo: &Topology, catalog: &Catalog, a: AccelId) -> u64 {
    topo.dram_bytes(a).min(catalog.min_memory_bytes())
}

/// Co-schedules `workloads` onto disjoint partitions of `topo`.
///
/// Every workload receives a non-empty accelerator subset; the subsets are
/// pairwise disjoint and together cover the platform.  The returned result
/// carries one [`Placement`] per workload (input order) plus the
/// system-level makespan/throughput figures; [`sequential_exclusive`]
/// computes the baseline to compare them with.  The outcome is
/// bit-identical for every [`CoScheduleConfig::with_threads`] value.
///
/// # Errors
///
/// Rejects empty workload lists, an empty catalog, more workloads than
/// accelerators, non-positive weights or batches and memory demands no
/// accelerator can hold — see [`CoScheduleError`].
///
/// ```no_run
/// use mars_accel::Catalog;
/// use mars_core::{
///     co_schedule_cached, sequential_exclusive, CoScheduleConfig, InnerSearchCache, Workload,
/// };
/// use mars_model::zoo;
/// use mars_topology::presets;
///
/// let workloads = vec![
///     Workload::new(zoo::alexnet(1000)).with_batch(16).with_weight(1.5),
///     Workload::new(zoo::vgg16(1000)),
/// ];
/// let topo = presets::f1_16xlarge();
/// let catalog = Catalog::standard_three();
/// let config = CoScheduleConfig::fast(42);
/// let cache = InnerSearchCache::new();
/// let result = co_schedule_cached(&workloads, &topo, &catalog, &config, &cache).unwrap();
/// let sequential = sequential_exclusive(&workloads, &topo, &catalog, &config, &cache).unwrap();
/// assert!(sequential.speedup_of(&result) > 1.0);
/// ```
pub fn co_schedule(
    workloads: &[Workload],
    topo: &Topology,
    catalog: &Catalog,
    config: &CoScheduleConfig,
) -> Result<CoScheduleResult, CoScheduleError> {
    co_schedule_cached(workloads, topo, catalog, config, &InnerSearchCache::new())
}

/// [`co_schedule`] with an externally-owned [`InnerSearchCache`], so a
/// sequence of searches over the same inputs (an online re-scheduling loop,
/// or a co-schedule and its [`sequential_exclusive`] baseline) reuses every
/// inner search any earlier call already ran, on this topology or on any
/// other sub-topology of the same platform.  The result is identical to
/// [`co_schedule`]'s except that [`CoScheduleResult::inner_searches`]
/// counts only the searches *this* call actually computed — cache hits
/// from earlier calls are free and uncounted.
///
/// With two or more workloads every partition is a strict subset of the
/// platform, so no full-platform search runs.
///
/// See [`InnerSearchCache`] for the reuse-soundness contract.
///
/// # Errors
///
/// As for [`co_schedule`].
pub fn co_schedule_cached(
    workloads: &[Workload],
    topo: &Topology,
    catalog: &Catalog,
    config: &CoScheduleConfig,
    shared: &InnerSearchCache,
) -> Result<CoScheduleResult, CoScheduleError> {
    let start = Instant::now();
    check_inputs(workloads, topo, catalog)?;
    let k = workloads.len();
    let n = topo.len();
    let ids: Vec<AccelId> = topo.accelerators().collect();

    // A workload's `memory_bytes` must fit on **every** accelerator of its
    // partition (weights stay resident wherever its shards run); zero means
    // unconstrained.
    let capacity_of = |a: AccelId| usable_capacity(topo, catalog, a);
    let memory_fits = |w: usize, subset: &[AccelId]| -> bool {
        let demand = workloads[w].memory_bytes;
        demand == 0 || subset.iter().all(|&a| capacity_of(a) >= demand)
    };
    let demands: Vec<u64> = workloads.iter().map(Workload::demand_macs).collect();
    let layout = OuterGenome {
        workloads: k,
        accelerators: n,
    };

    // Memory infeasibility rejects a whole genome before any inner search
    // runs: infinite fitness, never a finite penalty.
    let fits = |subsets: &[Vec<AccelId>], order: &[usize]| {
        subsets
            .iter()
            .zip(order)
            .all(|(subset, &w)| memory_fits(w, subset))
    };

    // Exactly-once memo of the inner searches: the expensive part of an outer
    // fitness evaluation.  With more than one worker, the inner searches a
    // generation will start run before it is scored: a lone one on every
    // worker, several side by side on one worker each, longest (compute
    // layers × subset size) first.  The generation is then scored serially,
    // from the memo.
    let searches = InnerSearches::new(workloads, topo, catalog, config, shared);
    let inner = |w: usize, subset: &[AccelId]| searches.get(w, subset, 1);
    let compute_layers: Vec<usize> = workloads
        .iter()
        .map(|w| w.network.compute_layers().count())
        .collect();
    let workers = resolve_threads(config.outer.threads);
    let prefetch = |generation: &[f64]| {
        let mut seen = HashSet::new();
        let mut tasks: Vec<(usize, usize, Vec<AccelId>)> = Vec::new();
        for genes in generation.chunks(layout.len()) {
            let subsets = layout.decode_subsets(genes, &ids);
            let order = layout.decode_order(genes);
            if !fits(&subsets, &order) {
                continue;
            }
            for (subset, w) in subsets.into_iter().zip(order) {
                let key = (w, platform_key(topo, &subset));
                if !shared.cache.contains(&key) && seen.insert(key) {
                    tasks.push((compute_layers[w] * subset.len(), w, subset));
                }
            }
        }
        tasks.sort_by_key(|&(cost, _, _)| Reverse(cost));
        match tasks.as_slice() {
            [] => {}
            [(_, w, subset)] => {
                searches.get(*w, subset, config.outer.threads);
            }
            _ => {
                scoped_map(workers, &tasks, |_, (_, w, subset)| {
                    inner(*w, subset);
                });
            }
        }
    };

    let weighted_makespan_of = |genes: &[f64]| -> f64 {
        let subsets = layout.decode_subsets(genes, &ids);
        let order = layout.decode_order(genes);
        if !fits(&subsets, &order) {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for (subset, &w) in subsets.iter().zip(&order) {
            let result = inner(w, subset);
            let t =
                workloads[w].weight * workloads[w].batch as f64 * result.mapping.latency_seconds;
            worst = worst.max(t);
        }
        worst
    };

    // The warm-start genomes, when an incumbent was supplied and fits this
    // layout: the incumbent itself (decoding is exact — cuts round-trip
    // through the gene encoding) plus its one-accelerator-shifted
    // neighbours, all competing from generation zero.
    let warm_genes: Vec<Vec<f64>> = config
        .warm
        .as_ref()
        .map_or_else(Vec::new, |w| w.seed_genomes(k, n));

    let outcome = GeneticAlgorithm::new(config.outer).run_blocks(
        1,
        layout.len(),
        |rng, i| match i {
            0 => layout.greedy_seed(&demands),
            1 => layout.group_seed(&demands, topo, &ids),
            i if i >= 2 && i - 2 < warm_genes.len() => warm_genes[i - 2].clone(),
            _ => (0..layout.len()).map(|_| rand::Rng::gen(rng)).collect(),
        },
        |_, genes| weighted_makespan_of(genes),
        |t| t[0],
        (workers > 1).then_some(&prefetch as &dyn Fn(&[f64])),
    );

    // Re-derive the winning partition (all inner searches are cache hits); if
    // every genome was invalid, fall back to the greedy seed.
    let best_genes = if outcome.best_fitness.is_finite() {
        outcome.best_genes.clone()
    } else {
        layout.greedy_seed(&demands)
    };
    let subsets = layout.decode_subsets(&best_genes, &ids);
    let order = layout.decode_order(&best_genes);

    // The final partition must satisfy the memory constraint outright — if
    // even the greedy fallback violates it (every GA genome was infeasible),
    // the placement is rejected, not returned with a penalty attached.
    for (subset, &w) in subsets.iter().zip(&order) {
        if !memory_fits(w, subset) {
            let tightest = subset.iter().map(|&a| capacity_of(a)).min().unwrap_or(0);
            return Err(CoScheduleError::MemoryInfeasible {
                workload: w,
                demand_bytes: workloads[w].memory_bytes,
                capacity_bytes: tightest,
            });
        }
    }

    let mut placements: Vec<Placement> = subsets
        .iter()
        .zip(&order)
        .map(|(subset, &w)| {
            let result = inner(w, subset);
            Placement {
                workload: w,
                name: workloads[w].network.name().to_string(),
                weight: workloads[w].weight,
                batch: workloads[w].batch,
                accels: subset.clone(),
                // The subset is ascending, so it is the sub-platform's
                // local-to-caller id map.
                result: SearchResult {
                    mapping: remap_mapping(&result.mapping, subset),
                    ..(*result).clone()
                },
            }
        })
        .collect();
    placements.sort_by_key(|p| p.workload);

    let makespan_seconds = placements
        .iter()
        .map(Placement::round_seconds)
        .fold(0.0, f64::max);
    let weighted_makespan_seconds = placements
        .iter()
        .map(Placement::weighted_seconds)
        .fold(0.0, f64::max);

    Ok(CoScheduleResult {
        placements,
        makespan_seconds,
        weighted_makespan_seconds,
        outer_history: outcome.history,
        outer_evaluations: outcome.evaluations,
        inner_searches: searches.computed.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    })
}

/// The sequential-exclusive baseline of `workloads` on `topo`: every
/// workload alone on the whole platform, back to back in descending SLA
/// weight order (the natural priority order; ties resolve to input order).
///
/// Its full-platform inner searches go through `cache`, so they are shared
/// with any [`co_schedule_cached`] call on the same cache (a single-workload
/// co-schedule searches the full platform too).  They run on the caller's
/// thread and may use the configured worker pool
/// ([`CoScheduleConfig::with_threads`]); the baseline is bit-identical at
/// every thread count.
///
/// # Errors
///
/// As for [`co_schedule`]: the inputs pass the same checks.
pub fn sequential_exclusive(
    workloads: &[Workload],
    topo: &Topology,
    catalog: &Catalog,
    config: &CoScheduleConfig,
    cache: &InnerSearchCache,
) -> Result<SequentialBaseline, CoScheduleError> {
    check_inputs(workloads, topo, catalog)?;
    let ids: Vec<AccelId> = topo.accelerators().collect();
    let searches = InnerSearches::new(workloads, topo, catalog, config, cache);
    let mut order: Vec<usize> = (0..workloads.len()).collect();
    order.sort_by(|a, b| {
        workloads[*b]
            .weight
            .partial_cmp(&workloads[*a].weight)
            .expect("weights are finite")
            .then(a.cmp(b))
    });
    let mut clock = 0.0f64;
    let mut weighted = 0.0f64;
    for &w in &order {
        let result = searches.get(w, &ids, config.outer.threads);
        clock += workloads[w].batch as f64 * result.mapping.latency_seconds;
        weighted = weighted.max(workloads[w].weight * clock);
    }
    Ok(SequentialBaseline {
        makespan_seconds: clock,
        weighted_makespan_seconds: weighted,
    })
}

/// Translates a mapping searched on a sub-topology back to the original
/// topology's accelerator ids (`map[local.0] == global`).
fn remap_mapping(mapping: &Mapping, map: &[AccelId]) -> Mapping {
    let assignments = mapping
        .assignments
        .iter()
        .map(|a| {
            Assignment::new(
                a.accels.iter().map(|local| map[local.0]).collect(),
                a.design,
                a.layers.clone(),
            )
        })
        .collect();
    Mapping::new(
        assignments,
        mapping.strategies.clone(),
        mapping.latency_seconds,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_model::zoo;
    use mars_topology::presets::{self, GIB};
    use mars_topology::TopologyBuilder;
    use std::collections::BTreeSet;

    fn tiny_config(seed: u64) -> CoScheduleConfig {
        CoScheduleConfig {
            outer: GaConfig {
                population: 4,
                generations: 2,
                ..GaConfig::first_level(seed)
            },
            ..CoScheduleConfig::fast(seed)
        }
    }

    fn two_small_workloads() -> Vec<Workload> {
        vec![
            Workload::new(zoo::alexnet(100))
                .with_batch(4)
                .with_weight(1.5),
            Workload::new(zoo::alexnet(10)).with_batch(2),
        ]
    }

    #[test]
    fn outer_genome_decodes_valid_partitions_for_any_genes() {
        let layout = OuterGenome {
            workloads: 3,
            accelerators: 8,
        };
        let ids: Vec<AccelId> = (0..8).map(AccelId).collect();
        for genes in [
            vec![0.0; 5],
            vec![1.0; 5],
            vec![0.5, 0.5, 0.1, 0.9, 0.5],
            vec![0.2, 0.9, 0.7, 0.1, 0.4],
        ] {
            let subsets = layout.decode_subsets(&genes, &ids);
            assert_eq!(subsets.len(), 3);
            assert!(subsets.iter().all(|s| !s.is_empty()));
            let all: Vec<AccelId> = subsets.iter().flatten().copied().collect();
            assert_eq!(all, ids, "subsets must tile the id order");
            let order = layout.decode_order(&genes);
            let set: BTreeSet<usize> = order.iter().copied().collect();
            assert_eq!(set.len(), 3, "order must be a permutation");
        }
    }

    #[test]
    fn greedy_seed_gives_bigger_subsets_to_heavier_workloads() {
        let layout = OuterGenome {
            workloads: 2,
            accelerators: 8,
        };
        let ids: Vec<AccelId> = (0..8).map(AccelId).collect();
        let genes = layout.greedy_seed(&[3, 1]);
        let subsets = layout.decode_subsets(&genes, &ids);
        assert_eq!(subsets[0].len(), 6);
        assert_eq!(subsets[1].len(), 2);
        // Identity assignment: workload 0 (heavier) takes the big subset.
        assert_eq!(layout.decode_order(&genes), vec![0, 1]);
    }

    #[test]
    fn group_seed_snaps_cuts_to_group_boundaries() {
        let topo = presets::f1_16xlarge();
        let layout = OuterGenome {
            workloads: 2,
            accelerators: 8,
        };
        let ids: Vec<AccelId> = topo.accelerators().collect();
        // Even with a 7:1 demand ratio the cut snaps to the 4|4 boundary.
        let genes = layout.group_seed(&[7, 1], &topo, &ids);
        let subsets = layout.decode_subsets(&genes, &ids);
        assert_eq!(subsets[0].len(), 4);
        assert_eq!(subsets[1].len(), 4);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let cfg = tiny_config(1);
        assert_eq!(
            co_schedule(&[], &topo, &catalog, &cfg).unwrap_err(),
            CoScheduleError::NoWorkloads
        );

        let nine: Vec<Workload> = (0..9).map(|_| Workload::new(zoo::alexnet(10))).collect();
        assert!(matches!(
            co_schedule(&nine, &topo, &catalog, &cfg).unwrap_err(),
            CoScheduleError::TooManyWorkloads {
                workloads: 9,
                accelerators: 8
            }
        ));

        let bad_weight = vec![Workload::new(zoo::alexnet(10)).with_weight(0.0)];
        assert!(matches!(
            co_schedule(&bad_weight, &topo, &catalog, &cfg).unwrap_err(),
            CoScheduleError::InvalidWeight { workload: 0, .. }
        ));

        let bad_batch = vec![Workload::new(zoo::alexnet(10)).with_batch(0)];
        assert_eq!(
            co_schedule(&bad_batch, &topo, &catalog, &cfg).unwrap_err(),
            CoScheduleError::InvalidBatch { workload: 0 }
        );

        // The baseline runs the same checks.
        let cache = InnerSearchCache::new();
        let baseline = |w: &[Workload]| sequential_exclusive(w, &topo, &catalog, &cfg, &cache);
        assert_eq!(baseline(&[]).unwrap_err(), CoScheduleError::NoWorkloads);
        assert!(matches!(
            baseline(&nine).unwrap_err(),
            CoScheduleError::TooManyWorkloads { .. }
        ));
        assert!(matches!(
            baseline(&bad_weight).unwrap_err(),
            CoScheduleError::InvalidWeight { workload: 0, .. }
        ));
        assert_eq!(cache.searches_run(), 0);
    }

    #[test]
    fn co_schedule_rejects_an_empty_catalog() {
        let workloads = [Workload::new(zoo::alexnet(1000))];
        let topo = presets::f1_16xlarge();
        assert_eq!(
            co_schedule(&workloads, &topo, &Catalog::new(), &tiny_config(1)).unwrap_err(),
            CoScheduleError::EmptyCatalog
        );
    }

    #[test]
    fn sequential_exclusive_rejects_an_empty_catalog() {
        let workloads = [Workload::new(zoo::alexnet(1000))];
        let topo = presets::f1_16xlarge();
        let cache = InnerSearchCache::new();
        let err = sequential_exclusive(&workloads, &topo, &Catalog::new(), &tiny_config(1), &cache);
        assert_eq!(err.unwrap_err(), CoScheduleError::EmptyCatalog);
        assert_eq!(cache.searches_run(), 0);
    }

    #[test]
    fn memory_demand_no_accelerator_can_hold_is_rejected_up_front() {
        let topo = presets::f1_16xlarge(); // every accelerator holds 1 GiB
        let catalog = Catalog::standard_three();
        let demand = 2u64 << 30; // 2 GiB: larger than any single accelerator
        let hog = vec![Workload::new(zoo::alexnet(10)).with_memory_bytes(demand)];
        let err = co_schedule(&hog, &topo, &catalog, &tiny_config(3)).unwrap_err();
        assert!(
            matches!(
                err,
                CoScheduleError::MemoryInfeasible {
                    workload: 0,
                    demand_bytes,
                    ..
                } if demand_bytes == demand
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn feasible_memory_demand_schedules_and_every_partition_holds_it() {
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let capacity = catalog.min_memory_bytes();
        let workloads: Vec<Workload> = two_small_workloads()
            .into_iter()
            .map(|w| w.with_memory_bytes(512 << 20))
            .collect();
        let result = co_schedule(&workloads, &topo, &catalog, &tiny_config(5)).unwrap();
        assert!(result.is_valid());
        for p in &result.placements {
            let demand = workloads[p.workload].memory_bytes;
            for &a in &p.accels {
                assert!(
                    demand <= topo.dram_bytes(a).min(capacity),
                    "workload {} overcommits accelerator {a:?}",
                    p.workload
                );
            }
        }
    }

    #[test]
    fn zero_memory_workloads_schedule_identically_to_before_the_constraint() {
        // memory_bytes = 0 must be a pure no-op: same seed, same placements
        // as an identical run (the constraint adds only a guard branch).
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let plain = co_schedule(&two_small_workloads(), &topo, &catalog, &tiny_config(7)).unwrap();
        let zeroed: Vec<Workload> = two_small_workloads()
            .into_iter()
            .map(|w| w.with_memory_bytes(0))
            .collect();
        let again = co_schedule(&zeroed, &topo, &catalog, &tiny_config(7)).unwrap();
        assert_eq!(plain.placements.len(), again.placements.len());
        for (a, b) in plain.placements.iter().zip(&again.placements) {
            assert_eq!(a.accels, b.accels);
            assert_eq!(
                a.result.mapping.latency_seconds.to_bits(),
                b.result.mapping.latency_seconds.to_bits()
            );
        }
    }

    #[test]
    fn places_workloads_on_disjoint_covering_subsets() {
        let workloads = two_small_workloads();
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let result = co_schedule(&workloads, &topo, &catalog, &tiny_config(5)).unwrap();

        assert!(result.is_valid());
        assert_eq!(result.placements.len(), 2);
        let mut all: Vec<AccelId> = result
            .placements
            .iter()
            .flat_map(|p| p.accels.clone())
            .collect();
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "subsets overlap");
        assert_eq!(all, topo.accelerators().collect::<Vec<_>>());

        // Each placement's mapping only uses its own subset.
        for p in &result.placements {
            let subset: BTreeSet<AccelId> = p.accels.iter().copied().collect();
            for a in &p.result.mapping.assignments {
                assert!(
                    a.accels.iter().all(|id| subset.contains(id)),
                    "mapping escapes its partition"
                );
            }
        }
    }

    #[test]
    fn single_workload_gets_the_whole_platform() {
        let workloads = vec![Workload::new(zoo::alexnet(10))];
        let topo = presets::single_group(4, 8.0, 2.0);
        let catalog = Catalog::standard_three();
        let result = co_schedule(&workloads, &topo, &catalog, &tiny_config(2)).unwrap();
        assert_eq!(result.placements.len(), 1);
        assert_eq!(
            result.placements[0].accels,
            topo.accelerators().collect::<Vec<_>>()
        );
        // With one workload, concurrent == sequential, and the baseline's
        // full-platform search is the co-schedule's own.
        let cache = InnerSearchCache::new();
        let cfg = tiny_config(2);
        let co = co_schedule_cached(&workloads, &topo, &catalog, &cfg, &cache).unwrap();
        let seq = sequential_exclusive(&workloads, &topo, &catalog, &cfg, &cache).unwrap();
        assert_eq!(cache.searches_run(), 1);
        assert_eq!(
            co.makespan_seconds.to_bits(),
            seq.makespan_seconds.to_bits()
        );
        assert_eq!(
            result.makespan_seconds.to_bits(),
            seq.makespan_seconds.to_bits()
        );
    }

    #[test]
    fn co_schedule_is_reproducible_and_thread_count_invariant() {
        // Each input reaches one path of the outer GA's generation hook:
        // several inner searches per generation; genomes the memory check
        // rejects before any inner search runs, whose searches the hook
        // must not run either (it would change `inner_searches`); and a
        // lone inner search per generation, which runs on every worker.
        let f1 = presets::f1_16xlarge();
        let uneven = TopologyBuilder::new("uneven-dram")
            .accelerators(2, 2.0, GIB)
            .accelerators(2, 2.0, GIB / 4)
            .clique(&[0, 1, 2, 3].map(AccelId), 8.0)
            .and_then(TopologyBuilder::build)
            .expect("valid topology");
        let mut hog = two_small_workloads();
        hog[0] = hog[0].clone().with_memory_bytes(512 << 20);
        let cases = [
            ("two small workloads", two_small_workloads(), &f1),
            ("a demand only half the platform holds", hog, &uneven),
            (
                "AlexNet alone",
                vec![Workload::new(zoo::alexnet(1000))],
                &f1,
            ),
        ];
        let catalog = Catalog::standard_three();
        for (name, workloads, topo) in &cases {
            let run = |threads: usize| {
                let cfg = tiny_config(7).with_threads(threads);
                co_schedule(workloads, topo, &catalog, &cfg).unwrap()
            };
            let a = run(1);
            for (threads, other) in [1, 2, 4].map(|t| (t, run(t))) {
                let what = format!("{name} at {threads} threads");
                assert_eq!(
                    a.makespan_seconds.to_bits(),
                    other.makespan_seconds.to_bits(),
                    "{what}"
                );
                assert_eq!(
                    a.weighted_makespan_seconds.to_bits(),
                    other.weighted_makespan_seconds.to_bits(),
                    "{what}"
                );
                assert_eq!(a.outer_history, other.outer_history, "{what}");
                assert_eq!(a.outer_evaluations, other.outer_evaluations, "{what}");
                assert_eq!(a.inner_searches, other.inner_searches, "{what}");
                for (pa, po) in a.placements.iter().zip(&other.placements) {
                    let (ra, ro) = (&pa.result, &po.result);
                    assert_eq!(pa.accels, po.accels, "{what}");
                    assert_eq!(ra.mapping.assignments, ro.mapping.assignments, "{what}");
                    assert_eq!(ra.mapping.strategies, ro.mapping.strategies, "{what}");
                    assert_eq!(
                        ra.mapping.latency_seconds.to_bits(),
                        ro.mapping.latency_seconds.to_bits(),
                        "{what}"
                    );
                    assert_eq!(ra.history, ro.history, "{what}");
                    assert_eq!(ra.evaluations, ro.evaluations, "{what}");
                }
            }
        }
    }

    #[test]
    fn inner_searches_are_memoised_across_outer_generations() {
        let workloads = two_small_workloads();
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let result = co_schedule(&workloads, &topo, &catalog, &tiny_config(3)).unwrap();
        // Distinct (workload, subset) pairs are bounded by workloads x cut
        // positions; far fewer than outer evaluations x workloads without
        // memoisation.
        let bound = 2 * 7;
        assert!(
            result.inner_searches <= bound,
            "{} inner searches exceed the {bound} distinct keys",
            result.inner_searches
        );
        assert!(result.outer_evaluations >= 8);
    }

    #[test]
    fn degenerate_zero_makespan_reports_zero_rates_not_inf() {
        // An empty mix cannot come out of co_schedule (it errors first), but
        // a zero-makespan result can be constructed downstream; the derived
        // rates must stay finite zeros, never inf/NaN.
        let empty = CoScheduleResult {
            placements: Vec::new(),
            makespan_seconds: 0.0,
            weighted_makespan_seconds: 0.0,
            outer_history: Vec::new(),
            outer_evaluations: 0,
            inner_searches: 0,
            elapsed: Duration::ZERO,
        };
        let zero = SequentialBaseline {
            makespan_seconds: 0.0,
            weighted_makespan_seconds: 0.0,
        };
        assert_eq!(empty.total_inferences(), 0);
        assert_eq!(zero.speedup_of(&empty), 0.0);
        assert_eq!(empty.throughput_per_second(), 0.0);
        assert!(empty.throughput_per_second().is_finite());

        // Zero co-schedule makespan with a non-zero sequential one is still
        // degenerate: no ratio, not an infinite speedup.
        let lopsided = SequentialBaseline {
            makespan_seconds: 1.0,
            ..zero
        };
        assert_eq!(lopsided.speedup_of(&empty), 0.0);
    }

    #[test]
    fn platform_keys_are_equal_exactly_when_sub_topologies_are() {
        let f1 = presets::f1_16xlarge();
        let ids: Vec<AccelId> = f1.accelerators().collect();
        let subsets: Vec<&[AccelId]> = (0..8)
            .flat_map(|i| (i + 1..=8).map(move |j| (i, j)))
            .map(|(i, j)| &ids[i..j])
            .collect();
        for a in &subsets {
            for b in &subsets {
                assert_eq!(
                    platform_key(&f1, a) == platform_key(&f1, b),
                    f1.subtopology(a).unwrap().0 == f1.subtopology(b).unwrap().0,
                    "{a:?} vs {b:?}"
                );
            }
        }
        // Isomorphic pairs inside one F1 group share a key; a pair in the
        // other group does not (its group label differs).
        let key = |s: &[usize]| {
            let set: Vec<AccelId> = s.iter().copied().map(AccelId).collect();
            platform_key(&f1, &set)
        };
        assert_eq!(key(&[0, 1]), key(&[1, 2]));
        assert_eq!(key(&[0, 1]), key(&[2, 3]));
        assert_ne!(key(&[0, 1]), key(&[4, 5]));
        // A subset of a survivors' sub-topology keys like the same subset of
        // the full platform.
        let survivors: Vec<AccelId> = [0, 2, 3, 5, 6, 7].map(AccelId).to_vec();
        let (sub, map) = f1.subtopology(&survivors).unwrap();
        for local in [vec![0, 1], vec![1, 2], vec![3, 4, 5]] {
            let local: Vec<AccelId> = local.into_iter().map(AccelId).collect();
            let global: Vec<AccelId> = local.iter().map(|a| map[a.0]).collect();
            assert_eq!(platform_key(&sub, &local), platform_key(&f1, &global));
        }
    }

    #[test]
    fn isomorphic_sub_platforms_share_one_inner_search() {
        let f1 = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let workloads = vec![Workload::new(zoo::alexnet(10))];
        let cfg = tiny_config(4);
        let cache = InnerSearchCache::new();
        let (low, low_map) = f1.subtopology(&[AccelId(0), AccelId(1)]).unwrap();
        let (high, high_map) = f1.subtopology(&[AccelId(2), AccelId(3)]).unwrap();
        let first = co_schedule_cached(&workloads, &low, &catalog, &cfg, &cache).unwrap();
        let second = co_schedule_cached(&workloads, &high, &catalog, &cfg, &cache).unwrap();
        assert_eq!(first.inner_searches, 1);
        assert_eq!(second.inner_searches, 0, "{{2,3}} reuses {{0,1}}'s search");
        assert_eq!(cache.searches_run(), 1);
        // Up to the renaming 0 -> 2, 1 -> 3 the mappings are the same.
        let on_f1 = |co: &CoScheduleResult, map: &[AccelId]| {
            remap_mapping(&co.placements[0].result.mapping, map)
        };
        let renamed = |m: &Mapping| {
            let mut m = m.clone();
            for a in &mut m.assignments {
                for id in &mut a.accels {
                    id.0 += 2;
                }
            }
            m
        };
        let (a, b) = (on_f1(&first, &low_map), on_f1(&second, &high_map));
        assert_eq!(renamed(&a), b);
        assert_eq!(a.latency_seconds.to_bits(), b.latency_seconds.to_bits());
    }

    #[test]
    fn a_multi_workload_co_schedule_runs_no_full_platform_search() {
        let workloads = two_small_workloads();
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let cfg = tiny_config(6);
        let cache = InnerSearchCache::new();
        co_schedule_cached(&workloads, &topo, &catalog, &cfg, &cache).unwrap();
        let before = cache.searches_run();
        let seq = sequential_exclusive(&workloads, &topo, &catalog, &cfg, &cache).unwrap();
        // Both full-platform searches are new: the co-schedule ran neither.
        assert_eq!(cache.searches_run(), before + 2);
        assert!(seq.makespan_seconds > 0.0);
        assert!(seq.weighted_makespan_seconds > 0.0);
        // And a second baseline is free.
        let again = sequential_exclusive(&workloads, &topo, &catalog, &cfg, &cache).unwrap();
        assert_eq!(cache.searches_run(), before + 2);
        assert_eq!(again, seq);
    }

    #[test]
    fn warm_start_encoding_round_trips_through_the_genome() {
        let workloads = two_small_workloads();
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let incumbent = co_schedule(&workloads, &topo, &catalog, &tiny_config(5)).unwrap();

        let warm = WarmStart::from_result(&incumbent);
        let genes = warm.genes(2, 8).expect("encoding fits its own layout");
        let layout = OuterGenome {
            workloads: 2,
            accelerators: 8,
        };
        let ids: Vec<AccelId> = topo.accelerators().collect();
        let subsets = layout.decode_subsets(&genes, &ids);
        let order = layout.decode_order(&genes);
        for (subset, &w) in subsets.iter().zip(&order) {
            assert_eq!(
                subset, &incumbent.placements[w].accels,
                "decoded subset must reproduce workload {w}'s incumbent partition"
            );
        }
        // Mismatched layouts are rejected rather than mis-decoded.
        assert_eq!(warm.genes(3, 8), None);
        assert_eq!(warm.genes(2, 4), None);
    }

    /// The warm-start satellite contract: at a small outer budget, seeding
    /// from a better-budget incumbent matches or beats the cold search on
    /// ClassicPair (elitism keeps the incumbent alive, so warm can never do
    /// worse than the incumbent's partition under the same workloads).
    #[test]
    fn warm_started_search_matches_or_beats_cold_on_classic_pair() {
        let workloads: Vec<Workload> = zoo::MixZoo::ClassicPair.entries();
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let small = CoScheduleConfig {
            outer: GaConfig {
                population: 4,
                generations: 1,
                ..GaConfig::first_level(9)
            },
            ..CoScheduleConfig::fast(9)
        };

        let cache = InnerSearchCache::new();
        let cold = co_schedule_cached(&workloads, &topo, &catalog, &small, &cache).unwrap();
        let incumbent = co_schedule_cached(
            &workloads,
            &topo,
            &catalog,
            &CoScheduleConfig::fast(9),
            &cache,
        )
        .unwrap();
        let warm_cfg = small.clone().warm_start(&incumbent);
        let warm = co_schedule_cached(&workloads, &topo, &catalog, &warm_cfg, &cache).unwrap();

        assert!(
            warm.weighted_makespan_seconds <= cold.weighted_makespan_seconds + 1e-12,
            "warm {} must not lose to cold {}",
            warm.weighted_makespan_seconds,
            cold.weighted_makespan_seconds
        );
        assert!(
            warm.weighted_makespan_seconds <= incumbent.weighted_makespan_seconds + 1e-12,
            "warm must not lose to its own incumbent"
        );
        // The shared cache pays: re-running the warm search computes no new
        // inner searches at all.
        let before = cache.searches_run();
        let again = co_schedule_cached(&workloads, &topo, &catalog, &warm_cfg, &cache).unwrap();
        assert_eq!(cache.searches_run(), before, "everything was a cache hit");
        assert_eq!(again.inner_searches, 0);
        assert_eq!(
            again.weighted_makespan_seconds.to_bits(),
            warm.weighted_makespan_seconds.to_bits()
        );
    }

    #[test]
    fn mix_zoo_entries_are_ready_made_workloads() {
        let workloads: Vec<Workload> = zoo::MixZoo::ClassicPair.entries();
        assert_eq!(workloads.len(), 2);
        assert_eq!(workloads[0].batch, 16);
        assert!(workloads.iter().all(|w| w.weight > 0.0));
        assert!(workloads.iter().all(|w| w.demand_macs() > 0));
    }
}
