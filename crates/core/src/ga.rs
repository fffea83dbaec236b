//! A small real-valued genetic-algorithm engine with parallel evaluation.
//!
//! Both levels of the MARS search optimise fixed-length vectors of gene values
//! in `[0, 1]` that are *decoded* into discrete decisions (accelerator-set
//! choices, designs, layer cuts, ES/SS dimensions).  The engine below is the
//! shared machinery: tournament selection, uniform crossover, Gaussian
//! mutation, elitism, and deterministic seeding.
//!
//! ## Parallelism and determinism
//!
//! Fitness evaluation dominates search time, and every genome of a generation
//! is evaluated independently, so [`GeneticAlgorithm::run`] fans the
//! population out over a scoped-thread worker pool
//! ([`mars_parallel::scoped_map`]) sized by [`GaConfig::threads`].  Runs are
//! **bit-identical for every thread count**: every stochastic step draws from
//! a private RNG stream whose seed is derived from
//! `(master seed, generation, genome index)` via [`genome_stream_seed`], so no
//! random stream ever depends on the order in which workers finish, and the
//! fitness function is required to be a pure `Fn` (same genes → same score).
//!
//! A whole-genome GA whose fitness runs memoised sub-searches (the first
//! level's second-level searches, the co-schedule's inner searches) does not
//! hand the pool whole genomes: one genome that starts a new sub-search
//! would hold the generation back.  It gives the generation loop a hook
//! instead, which sees each generation's genomes before they are scored and
//! runs their distinct, not yet memoised sub-searches as the pool's tasks,
//! longest first.  The genomes are then scored serially, from the memos.
//!
//! ## Flat populations and incremental fitness
//!
//! [`GeneticAlgorithm::run_blocks`] is the one generation loop.  It stores
//! each generation in a single flat arena (`population × genome_len` gene
//! values in one allocation, double-buffered across generations) instead of
//! one heap `Vec` per genome, so breeding writes offspring straight into the
//! next generation's buffer, and it scores genomes by *incremental (delta)
//! fitness*: the fitness is `combine(block_eval(block 0), …,
//! block_eval(block n-1))`, and an offspring re-evaluates only the blocks
//! whose genes differ from its breeding parent, reusing the parent's
//! remaining block terms (with a debug-build cross-check that every reused
//! term matches a fresh evaluation).  [`GeneticAlgorithm::run`] is the
//! whole-genome case: one block, so elites and unmutated clones reuse their
//! parent's score.  The block terms and scores of a generation live in one
//! slot-major arena, double-buffered like the genes, so a serial run
//! allocates nothing per genome.  A NaN score counts as `+∞`, the mark of
//! an invalid individual.
//!
//! ## Branch-free breeding
//!
//! The RNG call sequence is identical to the historical per-genome-`Vec`
//! engine, which is retained verbatim as
//! [`GeneticAlgorithm::run_reference`]; a test pins the two bit-identical.
//! Breeding reads the same words but spends no branch on a coin whose
//! outcome is random: `rng.gen_bool(0.5)` holds exactly when a word's top
//! bit is clear, so a crossover gene is a sign-mask blend of the parents'
//! bits, and `rng.gen_bool(rate)` holds exactly when the word's top 53 bits
//! fall below `⌈rate · 2⁵³⌉`, a threshold computed once per run.  Only a
//! mutation that comes up heads branches, into the unchanged Box-Muller
//! step, whose `ln` and `cos` bound breeding's cost while the stream is
//! fixed.

use mars_parallel::{resolve_threads, scoped_map};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Genetic-algorithm budget and seed.
///
/// The variation and selection operators are not settable: they belong to
/// the level that runs (see [`GeneticAlgorithm::new`]).  Every GA breeds an
/// offspring by uniform crossover with probability 0.8 (otherwise it is a
/// copy of one parent), picks parents by 3-way tournaments, keeps the 2 best
/// individuals unchanged, and mutates each gene by a Gaussian step: with
/// probability 0.2 and standard deviation 0.3 in the second-level search,
/// with probability 0.15 and standard deviation 0.25 in every other GA (the
/// first level, the co-schedule's outer GA and the ablations).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Number of individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// PRNG seed; searches with the same seed and inputs are reproducible,
    /// bit-identically, for **any** value of [`threads`](Self::threads).
    pub seed: u64,
    /// Worker threads of the search: `1` runs serially on the calling
    /// thread, `0` asks the OS for the available parallelism, any other
    /// value is used as given.  A plain GA scores each generation's genomes
    /// on them; a search with memoised sub-searches runs each generation's
    /// new sub-searches on them (see the module docs).
    pub threads: usize,
}

impl GaConfig {
    /// The budget of the first-level search: 16 individuals, 10
    /// generations.
    pub fn first_level(seed: u64) -> Self {
        Self {
            population: 16,
            generations: 10,
            seed,
            threads: 1,
        }
    }

    /// The budget of the second-level (per accelerator set) search: 20
    /// individuals, 12 generations.
    pub(crate) fn second_level(seed: u64) -> Self {
        Self {
            population: 20,
            generations: 12,
            seed,
            threads: 1,
        }
    }

    /// Returns the configuration with the thread knob set (`0` = auto,
    /// `1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl Default for GaConfig {
    fn default() -> Self {
        Self::first_level(0)
    }
}

/// Probability that an offspring is bred by crossover; otherwise it is a
/// mutated copy of one parent.
const CROSSOVER_RATE: f64 = 0.8;
/// Tournament size of parent selection.
const TOURNAMENT: usize = 3;
/// Number of best individuals copied unchanged into the next generation.
const ELITISM: usize = 2;

/// The Gaussian mutation of one GA level: each gene mutates with
/// probability `rate`, by a normal step of standard deviation `sigma`.
#[derive(Debug, Clone, Copy)]
struct Mutation {
    rate: f64,
    sigma: f64,
}

/// The mutation of every GA but the second level's: the first level, the
/// co-schedule's outer GA and the ablations.
const FIRST_LEVEL_MUTATION: Mutation = Mutation {
    rate: 0.15,
    sigma: 0.25,
};
/// The mutation of the second-level (per accelerator set) search.
const SECOND_LEVEL_MUTATION: Mutation = Mutation {
    rate: 0.2,
    sigma: 0.3,
};

/// Derives the seed of the private RNG stream used for one genome.
///
/// Initialisation of individual `i` uses `(master_seed, 0, i)`; breeding of
/// the offspring in population slot `i` of generation `g >= 1` uses
/// `(master_seed, g, i)`.  Because each stream is a pure function of these
/// coordinates, the random numbers a genome sees never depend on how work was
/// interleaved across worker threads — the property behind the engine's
/// thread-count-independent determinism.
pub fn genome_stream_seed(master_seed: u64, generation: u64, genome_index: u64) -> u64 {
    // SplitMix64 finaliser over a mix of the three coordinates; the odd
    // multiplicative constants keep (gen, idx) and (idx, gen) distinct.
    let mut z = master_seed
        ^ generation.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ genome_index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Outcome of one GA run.
#[derive(Debug, Clone)]
pub struct GaOutcome {
    /// The best genome found across all generations.
    pub best_genes: Vec<f64>,
    /// Fitness (lower is better) of the best genome.
    pub best_fitness: f64,
    /// Best fitness after every generation (length = `generations + 1`,
    /// including the initial population).
    pub history: Vec<f64>,
    /// Population mean fitness after every generation (same indexing as
    /// [`history`](Self::history); infinite while any individual scores
    /// `INFINITY`).  Scores are summed in population index order, so the
    /// value is bit-identical for every thread count.
    pub(crate) mean_history: Vec<f64>,
    /// Number of fitness evaluations performed.
    pub evaluations: usize,
    /// Block terms reused from breeding parents by the delta-fitness path of
    /// [`GeneticAlgorithm::run_blocks`]; a whole-genome [`GeneticAlgorithm::run`]
    /// counts one per elite or unmutated clone.
    pub(crate) blocks_reused: u64,
}

/// A generation hook of [`GeneticAlgorithm::run_blocks`]: it sees each
/// generation's genomes, back to back in slot order, before they are scored.
pub(crate) type GenerationHook<'a> = &'a dyn Fn(&[f64]);

/// Evaluations per second of wall-clock time ([`f64::INFINITY`] when no time
/// elapsed); shared by [`GaOutcome`] and the mapper's `SearchResult` so the
/// two throughput figures can never diverge.
pub(crate) fn throughput(evaluations: usize, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        evaluations as f64 / secs
    } else {
        f64::INFINITY
    }
}

/// The genetic-algorithm engine (fitness is minimised).
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    cfg: GaConfig,
    mutation: Mutation,
}

impl GeneticAlgorithm {
    /// Creates an engine with the given budget and seed, breeding with the
    /// operators of every GA but the second-level search (see
    /// [`GaConfig`]).
    pub fn new(cfg: GaConfig) -> Self {
        Self {
            cfg,
            mutation: FIRST_LEVEL_MUTATION,
        }
    }

    /// The second-level search's engine: [`GeneticAlgorithm::new`] with the
    /// second level's mutation.
    pub(crate) fn second_level(cfg: GaConfig) -> Self {
        Self {
            cfg,
            mutation: SECOND_LEVEL_MUTATION,
        }
    }

    /// Runs the search.
    ///
    /// * `genome_len` — number of genes per individual;
    /// * `init` — produces the initial genome of individual `i` (this is where
    ///   heuristic seeding happens: individual 0 is conventionally the
    ///   heuristic seed, the rest random);
    /// * `fitness` — evaluates a genome (lower is better; `INFINITY` marks an
    ///   invalid individual, and a NaN score counts as `INFINITY`).  It must
    ///   be a *pure* function of the genes: the engine may evaluate a
    ///   generation's genomes concurrently on [`GaConfig::threads`] worker
    ///   threads and in any order.
    ///
    /// This is the block-structured (delta-fitness) engine with the whole
    /// genome as one block, so elites and unmutated clones keep their parent's score
    /// instead of being re-evaluated.  The outcome is bit-identical for every
    /// thread count (see the module docs on determinism).
    ///
    /// ```
    /// use mars_core::{GaConfig, GeneticAlgorithm};
    ///
    /// // Minimise the sphere function centred at 0.7 per gene.
    /// let sphere = |genes: &[f64]| genes.iter().map(|g| (g - 0.7).powi(2)).sum();
    /// let cfg = GaConfig {
    ///     population: 6,
    ///     generations: 4,
    ///     ..GaConfig::first_level(42)
    /// };
    /// let ga = GeneticAlgorithm::new(cfg.with_threads(2));
    /// let out = ga.run(4, |rng, _| (0..4).map(|_| rand::Rng::gen(rng)).collect(), sphere);
    /// assert!(out.best_fitness < 0.7);
    /// assert_eq!(out.history.len(), cfg.generations + 1);
    /// ```
    pub fn run<I, F>(&self, genome_len: usize, init: I, fitness: F) -> GaOutcome
    where
        I: FnMut(&mut StdRng, usize) -> Vec<f64>,
        F: Fn(&[f64]) -> f64 + Sync,
    {
        self.run_blocks(1, genome_len, init, |_, g| fitness(g), |t| t[0], None)
    }

    /// The historical per-genome-`Vec` engine, retained verbatim as the
    /// reference oracle for the flat-arena [`GeneticAlgorithm::run`].
    ///
    /// Same trajectory, genome by genome and bit by bit — the differential
    /// tests (and `SearchEngine::Reference`) run both and assert equality.
    /// New code should call [`GeneticAlgorithm::run`].
    pub fn run_reference<I, F>(&self, genome_len: usize, mut init: I, fitness: F) -> GaOutcome
    where
        I: FnMut(&mut StdRng, usize) -> Vec<f64>,
        F: Fn(&[f64]) -> f64 + Sync,
    {
        let cfg = self.cfg;
        let pop_size = cfg.population.max(2);

        let mut population: Vec<Vec<f64>> = (0..pop_size)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(genome_stream_seed(cfg.seed, 0, i as u64));
                let mut g = init(&mut rng, i);
                g.resize(genome_len, 0.5);
                g.iter_mut().for_each(|x| *x = x.clamp(0.0, 1.0));
                g
            })
            .collect();
        let mut scores = self.evaluate(&population, &fitness);
        let mut evaluations = pop_size;

        // Best-ever individual, updated in index order after each (possibly
        // parallel) evaluation so ties always resolve to the lowest index.
        let mut best_genes = population[0].clone();
        let mut best_fitness = scores[0];
        for (g, &s) in population.iter().zip(&scores).skip(1) {
            if s < best_fitness {
                best_fitness = s;
                best_genes = g.clone();
            }
        }

        let mut history = Vec::with_capacity(cfg.generations + 1);
        history.push(best_of(&scores));
        let mut mean_history = Vec::with_capacity(cfg.generations + 1);
        mean_history.push(mean_of(&scores));

        for generation in 1..=cfg.generations {
            let mut order: Vec<usize> = (0..pop_size).collect();
            order.sort_by(|a, b| scores[*a].partial_cmp(&scores[*b]).expect("finite or inf"));

            let elites = ELITISM.min(pop_size);
            let mut next: Vec<Vec<f64>> = Vec::with_capacity(pop_size);
            for &i in order.iter().take(elites) {
                next.push(population[i].clone());
            }

            for slot in elites..pop_size {
                let mut rng = StdRng::seed_from_u64(genome_stream_seed(
                    cfg.seed,
                    generation as u64,
                    slot as u64,
                ));
                let a = self.tournament(&mut rng, &scores);
                let child = if rng.gen_bool(CROSSOVER_RATE) {
                    let b = self.tournament(&mut rng, &scores);
                    self.crossover(&mut rng, &population[a], &population[b])
                } else {
                    population[a].clone()
                };
                next.push(self.mutate(&mut rng, child));
            }

            population = next;
            scores = self.evaluate(&population, &fitness);
            evaluations += pop_size;
            history.push(best_of(&scores));
            mean_history.push(mean_of(&scores));

            for (g, &s) in population.iter().zip(&scores) {
                if s < best_fitness {
                    best_fitness = s;
                    best_genes = g.clone();
                }
            }
        }

        GaOutcome {
            best_genes,
            best_fitness,
            history,
            mean_history,
            evaluations,
            blocks_reused: 0,
        }
    }

    /// Runs the search with *incremental (block-structured) fitness*.
    ///
    /// The genome is `n_blocks` consecutive blocks of `block_len` genes, and
    /// the fitness of a genome factors through per-block *terms*:
    /// `fitness(genes) == combine(&[block_eval(0, block 0), …])`, where
    /// `block_eval` is a pure function of `(block index, block genes)`.
    /// Under that contract the run's trajectory — genomes bred, scores,
    /// history, returned best — is bit-identical to
    /// [`GeneticAlgorithm::run_reference`] with the composed fitness, but
    /// offspring only re-evaluate the blocks whose genes differ from their
    /// breeding parent; unchanged blocks reuse the parent's memoised term.
    /// Debug builds cross-check every reused term against a fresh
    /// evaluation.
    ///
    /// `prepare`, when given, sees each generation's genomes (back to back,
    /// in slot order) before they are scored, and the genomes are then
    /// scored serially: the hook has run the expensive work they share on
    /// the pool, so their fitness reads memos.  It must not change what any
    /// fitness returns.
    pub(crate) fn run_blocks<B, I, E, C>(
        &self,
        n_blocks: usize,
        block_len: usize,
        mut init: I,
        block_eval: E,
        combine: C,
        prepare: Option<GenerationHook<'_>>,
    ) -> GaOutcome
    where
        B: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        I: FnMut(&mut StdRng, usize) -> Vec<f64>,
        E: Fn(usize, &[f64]) -> B + Sync,
        C: Fn(&[B]) -> f64 + Sync,
    {
        let cfg = self.cfg;
        let pop_size = cfg.population.max(2);
        let fitness = BlockFitness {
            n_blocks,
            block_len,
            eval: block_eval,
            combine,
        };
        let genome_len = fitness.genome_len();
        let mutation_coin = coin_threshold(self.mutation.rate);
        let workers = match prepare {
            Some(_) => 1,
            None => resolve_threads(cfg.threads),
        };
        let prepare = |genes: &[f64]| prepare.map_or((), |hook| hook(genes));

        // Flat arena: all genomes of a generation live in one allocation,
        // double-buffered with `next` so breeding never allocates.
        let mut genes = vec![0.0f64; pop_size * genome_len];
        for i in 0..pop_size {
            let mut rng = StdRng::seed_from_u64(genome_stream_seed(cfg.seed, 0, i as u64));
            let mut g = init(&mut rng, i);
            g.resize(genome_len, 0.5);
            let dst = &mut genes[i * genome_len..(i + 1) * genome_len];
            for (d, x) in dst.iter_mut().zip(&g) {
                *d = x.clamp(0.0, 1.0);
            }
        }

        // Block terms and scores of the current generation, double-buffered
        // with `prev` like the genes, and which previous-generation slot each
        // genome was bred from.
        let mut parents: Vec<Option<usize>> = vec![None; pop_size];
        let mut scored = Scored::default();
        let mut prev = Scored::default();
        prepare(&genes);
        let mut reused = fitness.evaluate_blocks(&genes, None, &parents, workers, &mut scored);
        let mut evaluations = pop_size;

        // Best-ever individual, updated in index order after each (possibly
        // parallel) evaluation so ties always resolve to the lowest index.
        let mut best_genes = genes[..genome_len].to_vec();
        let mut best_fitness = scored.scores[0];
        for (i, &s) in scored.scores.iter().enumerate().skip(1) {
            if s < best_fitness {
                best_fitness = s;
                best_genes.copy_from_slice(&genes[i * genome_len..(i + 1) * genome_len]);
            }
        }

        let mut history = Vec::with_capacity(cfg.generations + 1);
        history.push(best_of(&scored.scores));
        let mut mean_history = Vec::with_capacity(cfg.generations + 1);
        mean_history.push(mean_of(&scored.scores));

        let mut next = vec![0.0f64; pop_size * genome_len];
        for generation in 1..=cfg.generations {
            let scores = &scored.scores;
            let mut order: Vec<usize> = (0..pop_size).collect();
            order.sort_by(|a, b| scores[*a].partial_cmp(&scores[*b]).expect("finite or inf"));

            let elites = ELITISM.min(pop_size);
            for (slot, &i) in order.iter().take(elites).enumerate() {
                let (src, dst) = (i * genome_len, slot * genome_len);
                next[dst..dst + genome_len].copy_from_slice(&genes[src..src + genome_len]);
                parents[slot] = Some(i);
            }

            for (slot, parent) in parents.iter_mut().enumerate().skip(elites) {
                let mut rng = StdRng::seed_from_u64(genome_stream_seed(
                    cfg.seed,
                    generation as u64,
                    slot as u64,
                ));
                let a = self.tournament(&mut rng, scores);
                let child = &mut next[slot * genome_len..(slot + 1) * genome_len];
                let genome_a = &genes[a * genome_len..(a + 1) * genome_len];
                if rng.gen_bool(CROSSOVER_RATE) {
                    let b = self.tournament(&mut rng, scores);
                    let genome_b = &genes[b * genome_len..(b + 1) * genome_len];
                    crossover_into(&mut rng, child, genome_a, genome_b);
                } else {
                    child.copy_from_slice(genome_a);
                }
                self.mutate_bred(&mut rng, child, mutation_coin);
                *parent = Some(a);
            }

            std::mem::swap(&mut genes, &mut next);
            std::mem::swap(&mut scored, &mut prev);
            // After the swaps `next` and `prev` hold the parent generation's
            // genes and terms — exactly what block reuse compares child
            // blocks against and copies terms from.
            prepare(&genes);
            reused += fitness.evaluate_blocks(
                &genes,
                Some((&next, &prev)),
                &parents,
                workers,
                &mut scored,
            );
            evaluations += pop_size;
            history.push(best_of(&scored.scores));
            mean_history.push(mean_of(&scored.scores));

            for (i, &s) in scored.scores.iter().enumerate() {
                if s < best_fitness {
                    best_fitness = s;
                    best_genes.copy_from_slice(&genes[i * genome_len..(i + 1) * genome_len]);
                }
            }
        }

        GaOutcome {
            best_genes,
            best_fitness,
            history,
            mean_history,
            evaluations,
            blocks_reused: reused,
        }
    }

    /// Scores one generation, fanning the genomes out over the worker pool
    /// when `threads != 1`.
    fn evaluate<F>(&self, population: &[Vec<f64>], fitness: &F) -> Vec<f64>
    where
        F: Fn(&[f64]) -> f64 + Sync,
    {
        scoped_map(self.cfg.threads, population, |_, genes| fitness(genes))
    }

    fn tournament(&self, rng: &mut StdRng, scores: &[f64]) -> usize {
        let mut best = rng.gen_range(0..scores.len());
        for _ in 1..TOURNAMENT {
            let challenger = rng.gen_range(0..scores.len());
            if scores[challenger] < scores[best] {
                best = challenger;
            }
        }
        best
    }

    fn crossover(&self, rng: &mut StdRng, a: &[f64], b: &[f64]) -> Vec<f64> {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| if rng.gen_bool(0.5) { *x } else { *y })
            .collect()
    }

    fn mutate(&self, rng: &mut StdRng, mut genes: Vec<f64>) -> Vec<f64> {
        for g in &mut genes {
            if rng.gen_bool(self.mutation.rate) {
                // Box-Muller Gaussian step.
                let u1: f64 = rng.gen_range(1e-9..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                *g = (*g + normal * self.mutation.sigma).clamp(0.0, 1.0);
            }
        }
        genes
    }

    /// Gaussian mutation of a bred child in place: [`GeneticAlgorithm::mutate`]
    /// with each gene's `rng.gen_bool(rate)` coin taken as the integer
    /// compare of [`coin_threshold`] (`threshold` is its value for the
    /// level's mutation rate).  Same draws, same Box-Muller step, same genes.
    fn mutate_bred(&self, rng: &mut StdRng, genes: &mut [f64], threshold: u64) {
        for g in genes {
            if heads(rng.next_u64(), threshold) {
                // Box-Muller Gaussian step.
                let u1: f64 = rng.gen_range(1e-9..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                *g = (*g + normal * self.mutation.sigma).clamp(0.0, 1.0);
            }
        }
    }
}

/// The per-block fitness of a [`GeneticAlgorithm::run_blocks`] search: a
/// genome is `n_blocks` blocks of `block_len` genes, block `j` scores as
/// the term `eval(j, block)`, and `combine` folds a genome's terms into its
/// fitness.
struct BlockFitness<E, C> {
    n_blocks: usize,
    block_len: usize,
    eval: E,
    combine: C,
}

impl<E, C> BlockFitness<E, C> {
    fn genome_len(&self) -> usize {
        self.n_blocks * self.block_len
    }

    /// Scores one generation of a [`GeneticAlgorithm::run_blocks`] search
    /// into `out`.  `prev` holds the parent generation's genes and terms
    /// (`None` for the initial population); a block whose genes equal its
    /// breeding parent's reuses the parent's term.  Returns the number of
    /// reused terms.
    ///
    /// With one worker the genomes are scored in slot order straight into
    /// `out`'s arenas, so nothing is allocated per genome.  With more, each
    /// slot is scored on the pool into its own small `Vec` and copied in;
    /// that path serves whole-genome GAs, whose genomes are one block each
    /// and whose fitness dwarfs the copy.
    fn evaluate_blocks<B>(
        &self,
        genes: &[f64],
        prev: Option<(&[f64], &Scored<B>)>,
        parents: &[Option<usize>],
        workers: usize,
        out: &mut Scored<B>,
    ) -> u64
    where
        B: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        E: Fn(usize, &[f64]) -> B + Sync,
        C: Fn(&[B]) -> f64 + Sync,
    {
        let (genome_len, n_blocks) = (self.genome_len(), self.n_blocks);
        let genome = |slot: usize| &genes[slot * genome_len..(slot + 1) * genome_len];
        let parent_of = |slot: usize| {
            let (prev_genes, prev) = prev?;
            let p = parents[slot]?;
            Some((
                &prev_genes[p * genome_len..(p + 1) * genome_len],
                &prev.terms[p * n_blocks..(p + 1) * n_blocks],
            ))
        };
        out.terms.clear();
        out.scores.clear();

        if workers <= 1 || parents.len() < 2 {
            let mut reused = 0;
            for slot in 0..parents.len() {
                let (score, r) = self.score(genome(slot), parent_of(slot), &mut out.terms);
                out.scores.push(score);
                reused += r;
            }
            return reused;
        }
        let slots: Vec<usize> = (0..parents.len()).collect();
        let per_slot = scoped_map(workers, &slots, |_, &slot| {
            let mut terms = Vec::with_capacity(n_blocks);
            let (score, reused) = self.score(genome(slot), parent_of(slot), &mut terms);
            (terms, score, reused)
        });
        let mut reused = 0;
        for (terms, score, r) in per_slot {
            out.terms.extend(terms);
            out.scores.push(score);
            reused += r;
        }
        reused
    }

    /// Appends the terms of `genome` to `terms` and returns the genome's
    /// score and how many terms it reused.  `parent` holds the breeding
    /// parent's genes and terms: a block whose genes equal the parent's
    /// takes the parent's term instead of being evaluated, and debug builds
    /// check it against a fresh evaluation.  A NaN score becomes `+∞`,
    /// which already marks an invalid individual and keeps the generation
    /// sortable.
    fn score<B>(
        &self,
        genome: &[f64],
        parent: Option<(&[f64], &[B])>,
        terms: &mut Vec<B>,
    ) -> (f64, u64)
    where
        B: Clone + PartialEq + std::fmt::Debug,
        E: Fn(usize, &[f64]) -> B,
        C: Fn(&[B]) -> f64,
    {
        let first = terms.len();
        let mut reused = 0;
        for j in 0..self.n_blocks {
            let span = j * self.block_len..(j + 1) * self.block_len;
            let block = &genome[span.clone()];
            match parent.filter(|(genes, _)| block == &genes[span]) {
                Some((_, parent_terms)) => {
                    let t = parent_terms[j].clone();
                    #[cfg(debug_assertions)]
                    {
                        let fresh = (self.eval)(j, block);
                        debug_assert!(
                            fresh == t,
                            "delta-fitness reuse mismatch at block {j}: {fresh:?} != {t:?}"
                        );
                    }
                    reused += 1;
                    terms.push(t);
                }
                None => terms.push((self.eval)(j, block)),
            }
        }
        let score = (self.combine)(&terms[first..]);
        (if score.is_nan() { f64::INFINITY } else { score }, reused)
    }
}

/// One generation's block terms and scores.  `terms` is slot-major: slot
/// `i`'s terms are `terms[i * n_blocks..(i + 1) * n_blocks]`.
struct Scored<B> {
    terms: Vec<B>,
    scores: Vec<f64>,
}

impl<B> Default for Scored<B> {
    fn default() -> Self {
        Self {
            terms: Vec::new(),
            scores: Vec::new(),
        }
    }
}

/// The integer form of `rng.gen_bool(p)` for a probability `p` (every
/// mutation rate is one).  The coin draws a word `w` and comes up heads when
/// `(w >> 11) · 2⁻⁵³ < p`; scaling by 2⁵³ is exact, so that holds exactly
/// when `(w >> 11) < ⌈p · 2⁵³⌉`, the threshold returned here (see
/// [`heads`]).
fn coin_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// `rng.gen_bool(p)` on the word `w`, given `threshold ==
/// coin_threshold(p)`.
fn heads(w: u64, threshold: u64) -> bool {
    w >> 11 < threshold
}

/// All ones when the word `w` makes a crossover child take parent `b`'s
/// gene, else zero.  `rng.gen_bool(0.5)` on `w` is `(w >> 11) · 2⁻⁵³ <
/// 0.5`, which holds exactly when the top bit of `w` is clear, and then the
/// gene comes from `a`.
fn take_b_mask(w: u64) -> u64 {
    ((w as i64) >> 63) as u64
}

/// Uniform crossover of `a` and `b` into `child`, one draw per gene as in
/// [`GeneticAlgorithm::crossover`], with each gene picked by a
/// [`take_b_mask`] blend of the parents' bits rather than a branch.
fn crossover_into(rng: &mut StdRng, child: &mut [f64], a: &[f64], b: &[f64]) {
    for ((c, x), y) in child.iter_mut().zip(a).zip(b) {
        let take_b = take_b_mask(rng.next_u64());
        *c = f64::from_bits((x.to_bits() & !take_b) | (y.to_bits() & take_b));
    }
}

fn best_of(scores: &[f64]) -> f64 {
    scores.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Population mean in index order (float addition is order sensitive, and
/// scores arrive in population order from every engine, so the mean is the
/// same bits for any thread count).
fn mean_of(scores: &[f64]) -> f64 {
    let mut sum = 0.0;
    for s in scores {
        sum += s;
    }
    sum / scores.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sphere function shifted to 0.7 per gene: minimum 0 at genes = 0.7.
    fn sphere(genes: &[f64]) -> f64 {
        genes.iter().map(|g| (g - 0.7).powi(2)).sum()
    }

    /// A small first-level budget: 6 individuals, 4 generations.
    fn small(seed: u64) -> GaConfig {
        GaConfig {
            population: 6,
            generations: 4,
            ..GaConfig::first_level(seed)
        }
    }

    #[test]
    fn optimises_a_smooth_function() {
        let ga = GeneticAlgorithm::new(GaConfig {
            population: 24,
            generations: 30,
            ..GaConfig::first_level(7)
        });
        let out = ga.run(8, |rng, _| (0..8).map(|_| rng.gen()).collect(), sphere);
        assert!(out.best_fitness < 0.1, "fitness {}", out.best_fitness);
        assert_eq!(out.history.len(), 31);
        assert_eq!(out.mean_history.len(), 31);
        // The population mean can never beat the population best.
        for (mean, best) in out.mean_history.iter().zip(&out.history) {
            assert!(mean >= best, "mean {mean} below best {best}");
        }
        assert!(out.evaluations >= 24 * 31);
    }

    #[test]
    fn history_is_monotonically_non_increasing_with_elitism() {
        let ga = GeneticAlgorithm::new(GaConfig::first_level(3));
        let out = ga.run(6, |rng, _| (0..6).map(|_| rng.gen()).collect(), sphere);
        for w in out.history.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "history must not regress: {:?}",
                out.history
            );
        }
    }

    #[test]
    fn same_seed_is_reproducible_and_different_seed_differs() {
        let run = |seed| {
            GeneticAlgorithm::new(small(seed)).run(
                5,
                |rng, _| (0..5).map(|_| rng.gen()).collect(),
                sphere,
            )
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.best_genes, b.best_genes);
        assert_eq!(a.best_fitness, b.best_fitness);
        let c = run(12);
        assert_ne!(a.best_genes, c.best_genes);
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        let run = |threads| {
            GeneticAlgorithm::new(GaConfig {
                population: 12,
                generations: 8,
                ..GaConfig::first_level(21).with_threads(threads)
            })
            .run(6, |rng, _| (0..6).map(|_| rng.gen()).collect(), sphere)
        };
        let serial = run(1);
        for threads in [2, 4, 0] {
            let parallel = run(threads);
            assert_eq!(serial.best_genes, parallel.best_genes, "threads={threads}");
            assert_eq!(
                serial.best_fitness.to_bits(),
                parallel.best_fitness.to_bits(),
                "threads={threads}"
            );
            assert_eq!(serial.history, parallel.history, "threads={threads}");
            assert_eq!(serial.evaluations, parallel.evaluations);
        }
    }

    #[test]
    fn stream_seeds_are_distinct_across_coordinates() {
        let mut seen = std::collections::HashSet::new();
        for generation in 0..20 {
            for index in 0..20 {
                assert!(
                    seen.insert(genome_stream_seed(99, generation, index)),
                    "collision at ({generation}, {index})"
                );
            }
        }
        // Swapping the coordinates must give a different stream.
        assert_ne!(genome_stream_seed(1, 2, 3), genome_stream_seed(1, 3, 2));
    }

    #[test]
    fn heuristic_seed_individual_is_kept_when_it_is_optimal() {
        // Individual 0 is seeded at the optimum; with elitism the search can
        // never do worse than the seed.
        let ga = GeneticAlgorithm::new(small(5));
        let out = ga.run(
            4,
            |rng, i| {
                if i == 0 {
                    vec![0.7; 4]
                } else {
                    (0..4).map(|_| rng.gen()).collect()
                }
            },
            sphere,
        );
        assert!(out.best_fitness < 1e-12);
    }

    #[test]
    fn infinite_fitness_individuals_are_selected_against() {
        // Fitness is INFINITY unless all genes are below 0.5.
        let fitness = |genes: &[f64]| {
            if genes.iter().all(|g| *g < 0.5) {
                genes.iter().sum()
            } else {
                f64::INFINITY
            }
        };
        let ga = GeneticAlgorithm::new(GaConfig {
            population: 20,
            generations: 20,
            ..GaConfig::first_level(9)
        });
        let out = ga.run(
            3,
            |rng, _| (0..3).map(|_| rng.gen_range(0.0..0.4)).collect(),
            fitness,
        );
        assert!(out.best_fitness.is_finite());
    }

    #[test]
    fn genomes_are_clamped_to_unit_interval() {
        // Fitness rewards distance from 0.5, so mutation steps push genes
        // past 0 and 1.  Initial genes are drawn from [0, 1) and crossover
        // only copies parents' genes, so genes on a bound come from mutation
        // steps the clamp held there.
        let away_from_half = |genes: &[f64]| -genes.iter().map(|g| (g - 0.5).abs()).sum::<f64>();
        let ga = GeneticAlgorithm::new(GaConfig {
            population: 24,
            generations: 30,
            ..GaConfig::first_level(2)
        });
        let out = ga.run(
            8,
            |rng, _| (0..8).map(|_| rng.gen()).collect(),
            away_from_half,
        );
        assert!(out.best_genes.iter().all(|g| (0.0..=1.0).contains(g)));
        let bounds = out.best_genes.iter().filter(|g| **g == 0.0 || **g == 1.0);
        assert!(
            bounds.count() >= 4,
            "few genes on a bound: {:?}",
            out.best_genes
        );
    }

    #[test]
    fn nan_fitness_scores_as_an_invalid_individual() {
        // A NaN score used to panic the generation sort.  It now scores
        // `+∞`, like any other invalid individual.
        let fitness = |genes: &[f64]| {
            if genes[0] > 0.5 {
                f64::NAN
            } else {
                sphere(genes)
            }
        };
        let out = GeneticAlgorithm::new(small(3)).run(
            3,
            |rng, _| (0..3).map(|_| rng.gen()).collect(),
            fitness,
        );
        assert!(!out.best_fitness.is_nan());
        assert!(out.best_genes[0] <= 0.5, "a NaN genome won: {out:?}");
        assert!(out.history.iter().all(|h| !h.is_nan()), "{out:?}");
        assert!(out.mean_history.iter().all(|m| !m.is_nan()), "{out:?}");
    }

    /// An RNG that always draws the same word, to put a chosen word under
    /// `gen_bool`.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn integer_coins_equal_gen_bool_on_the_same_word() {
        let mut rng = StdRng::seed_from_u64(31);
        let random: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
        for p in [0.0, 0.15, 0.2, 0.25, 0.5, 0.8, 1.0] {
            let t = coin_threshold(p);
            // Words whose top 53 bits are just below, on and just above
            // the threshold, with random low bits.
            let edges: Vec<u64> = [t.wrapping_sub(1), t, t + 1]
                .into_iter()
                .filter(|top| *top < 1 << 53)
                .map(|top| top << 11 | (rng.next_u64() & 0x7ff))
                .collect();
            assert!(!edges.is_empty(), "p {p}");
            for &w in random.iter().chain(&edges) {
                assert_eq!(heads(w, t), Word(w).gen_bool(p), "p {p} word {w:#018x}");
            }
        }
        // The crossover's sign mask takes parent `a` exactly when
        // `gen_bool(0.5)` comes up true.
        let signs = [0, 1 << 63, (1 << 63) - 1, u64::MAX, 1 << 62];
        for &w in random.iter().chain(&signs) {
            let mask = take_b_mask(w);
            assert!(mask == 0 || mask == u64::MAX, "word {w:#018x}");
            assert_eq!(mask == 0, Word(w).gen_bool(0.5), "word {w:#018x}");
        }
    }

    #[test]
    fn run_matches_reference_engine_and_reuses_elite_scores() {
        // `run` is `run_blocks` with one block: it must retrace the
        // historical per-genome-Vec engine exactly — same genomes, same
        // scores, same history — while answering elites and unmutated
        // clones from their parent's score instead of re-evaluating them.
        for seed in [3, 11, 21] {
            for threads in [1, 4] {
                let cfg = GaConfig {
                    population: 10,
                    generations: 6,
                    ..GaConfig::first_level(seed).with_threads(threads)
                };
                let init =
                    |rng: &mut StdRng, _: usize| (0..7).map(|_| rng.gen()).collect::<Vec<_>>();
                let flat = GeneticAlgorithm::new(cfg).run(7, init, sphere);
                let reference = GeneticAlgorithm::new(cfg).run_reference(7, init, sphere);
                assert_eq!(flat.best_genes, reference.best_genes, "seed {seed}");
                assert_eq!(
                    flat.best_fitness.to_bits(),
                    reference.best_fitness.to_bits()
                );
                assert_eq!(flat.history, reference.history);
                assert_eq!(flat.mean_history, reference.mean_history);
                assert_eq!(flat.evaluations, reference.evaluations);
                // Two elites per generation are verbatim copies.
                assert!(
                    flat.blocks_reused >= 2 * cfg.generations as u64,
                    "seed {seed}: elites were re-scored ({} reused)",
                    flat.blocks_reused
                );
            }
        }
    }

    /// Block fitness used by the `run_blocks` tests: genome of `n` blocks of
    /// 3 genes, each block's term is its sphere partial, combined by summing
    /// in block order — exactly `sphere` factored through blocks.
    fn block_term(_: usize, block: &[f64]) -> f64 {
        block.iter().map(|g| (g - 0.7).powi(2)).sum()
    }

    fn block_sum(terms: &[f64]) -> f64 {
        let mut total = 0.0;
        for t in terms {
            total += t;
        }
        total
    }

    #[test]
    fn run_blocks_matches_whole_genome_run_bitwise() {
        for seed in [5, 17] {
            let cfg = GaConfig {
                population: 8,
                generations: 6,
                ..GaConfig::second_level(seed)
            };
            let init = |rng: &mut StdRng, _: usize| (0..12).map(|_| rng.gen()).collect::<Vec<_>>();
            // The whole-genome oracle must sum through the same block
            // grouping — float addition is not associative.
            let blocked_sphere = |genes: &[f64]| {
                let terms: Vec<f64> = genes
                    .chunks(3)
                    .enumerate()
                    .map(|(j, b)| block_term(j, b))
                    .collect();
                block_sum(&terms)
            };
            let whole = GeneticAlgorithm::new(cfg).run(12, init, blocked_sphere);
            let blocks =
                GeneticAlgorithm::new(cfg).run_blocks(4, 3, init, block_term, block_sum, None);
            assert_eq!(whole.best_genes, blocks.best_genes, "seed {seed}");
            assert_eq!(whole.best_fitness.to_bits(), blocks.best_fitness.to_bits());
            assert_eq!(whole.history, blocks.history);
            assert_eq!(whole.mean_history, blocks.mean_history);
            assert_eq!(whole.evaluations, blocks.evaluations);
            // Elites are verbatim copies of their parents, so the delta path
            // must have reused at least their blocks.
            assert!(blocks.blocks_reused > 0, "seed {seed}: no delta reuse");
        }
    }

    #[test]
    fn run_blocks_is_thread_count_invariant() {
        let run = |threads| {
            GeneticAlgorithm::new(GaConfig {
                population: 10,
                generations: 5,
                ..GaConfig::second_level(23).with_threads(threads)
            })
            .run_blocks(
                5,
                3,
                |rng, _| (0..15).map(|_| rng.gen()).collect(),
                block_term,
                block_sum,
                None,
            )
        };
        let serial = run(1);
        for threads in [2, 4] {
            let parallel = run(threads);
            assert_eq!(serial.best_genes, parallel.best_genes, "threads={threads}");
            assert_eq!(serial.history, parallel.history, "threads={threads}");
        }
    }

    #[test]
    fn a_generation_hook_sees_each_generation_before_it_is_scored() {
        // Every genome the fitness scores is one of the genomes the hook saw
        // last, and the hook changes nothing about the run.
        use std::sync::Mutex;
        let cfg = GaConfig {
            population: 7,
            generations: 5,
            ..GaConfig::first_level(13).with_threads(4)
        };
        let last_seen = Mutex::new(Vec::new());
        let generations = Mutex::new(0);
        let hook = |genes: &[f64]| {
            assert_eq!(genes.len(), cfg.population * 4);
            *last_seen.lock().unwrap() = genes.to_vec();
            *generations.lock().unwrap() += 1;
        };
        let fitness = |genes: &[f64]| {
            let seen = last_seen.lock().unwrap();
            assert!(seen.chunks(4).any(|g| g == genes), "{genes:?} was not seen");
            sphere(genes)
        };
        let init = |rng: &mut StdRng, _: usize| (0..4).map(|_| rng.gen()).collect::<Vec<_>>();
        let ga = GeneticAlgorithm::new(cfg);
        let hooked = ga.run_blocks(1, 4, init, |_, g| fitness(g), |t| t[0], Some(&hook));
        let plain = ga.run(4, init, sphere);
        assert_eq!(hooked.best_genes, plain.best_genes);
        assert_eq!(hooked.history, plain.history);
        assert_eq!(hooked.mean_history, plain.mean_history);
        assert_eq!(hooked.blocks_reused, plain.blocks_reused);
        assert_eq!(*generations.lock().unwrap(), cfg.generations + 1);
    }

    /// A block term that remembers which chain step computed it.  Equality
    /// (and therefore the delta-reuse debug cross-check) compares only the
    /// value, so the step tag rides along untouched — a term carrying an
    /// older tag is positive proof the delta path reused it rather than
    /// recomputing.
    #[derive(Clone, Debug)]
    struct TaggedTerm {
        value: f64,
        step: usize,
    }

    impl PartialEq for TaggedTerm {
        fn eq(&self, other: &Self) -> bool {
            self.value.to_bits() == other.value.to_bits()
        }
    }

    #[test]
    fn delta_fitness_equals_full_fitness_on_random_mutation_chains() {
        // Hand-rolled property test (the tree carries no proptest): drive
        // `evaluate_blocks` through chains of random block mutations —
        // each child copies a random parent and rewrites a random subset of
        // its blocks — and check every delta-scored generation against a
        // from-scratch oracle, bit for bit.  Also proves reuse actually
        // happens (via the step tags) and is thread-count invariant.
        use std::sync::atomic::{AtomicUsize, Ordering};

        const POP: usize = 6;
        const BLOCKS: usize = 5;
        const BLOCK_LEN: usize = 3;
        const GENOME: usize = BLOCKS * BLOCK_LEN;
        const STEPS: usize = 12;

        for seed in [1u64, 42, 977] {
            for threads in [1usize, 4] {
                let step = AtomicUsize::new(0);
                let fitness = BlockFitness {
                    n_blocks: BLOCKS,
                    block_len: BLOCK_LEN,
                    eval: |j: usize, block: &[f64]| TaggedTerm {
                        value: block_term(j, block),
                        step: step.load(Ordering::Relaxed),
                    },
                    combine: |terms: &[TaggedTerm]| {
                        let mut total = 0.0;
                        for t in terms {
                            total += t.value;
                        }
                        total
                    },
                };

                let mut rng = StdRng::seed_from_u64(seed ^ 0xD1F7);
                let mut genes: Vec<f64> = (0..POP * GENOME).map(|_| rng.gen()).collect();
                let mut parents: Vec<Option<usize>> = vec![None; POP];
                let mut terms = Scored::default();
                let mut reused_count =
                    fitness.evaluate_blocks(&genes, None, &parents, threads, &mut terms);

                let mut reused_terms = 0usize;
                for s in 1..=STEPS {
                    step.store(s, Ordering::Relaxed);
                    // Breed: each child copies a random parent genome and
                    // rewrites a random non-empty subset of its blocks.
                    let mut next = vec![0.0f64; POP * GENOME];
                    for slot in 0..POP {
                        let p = rng.gen_range(0..POP);
                        parents[slot] = Some(p);
                        let child = &mut next[slot * GENOME..(slot + 1) * GENOME];
                        child.copy_from_slice(&genes[p * GENOME..(p + 1) * GENOME]);
                        let rewrite = rng.gen_range(1..=BLOCKS);
                        for _ in 0..rewrite {
                            let j = rng.gen_range(0..BLOCKS);
                            for g in &mut child[j * BLOCK_LEN..(j + 1) * BLOCK_LEN] {
                                *g = rng.gen();
                            }
                        }
                    }
                    let mut t = Scored::default();
                    reused_count += fitness.evaluate_blocks(
                        &next,
                        Some((&genes, &terms)),
                        &parents,
                        threads,
                        &mut t,
                    );
                    let scores = &t.scores;
                    // Oracle: full recomputation of every block, combined in
                    // the same order.  Delta fitness must match bit for bit.
                    for slot in 0..POP {
                        let genome = &next[slot * GENOME..(slot + 1) * GENOME];
                        let fresh: Vec<f64> = (0..BLOCKS)
                            .map(|j| block_term(j, &genome[j * BLOCK_LEN..(j + 1) * BLOCK_LEN]))
                            .collect();
                        let full = block_sum(&fresh);
                        assert_eq!(
                            scores[slot].to_bits(),
                            full.to_bits(),
                            "seed {seed} threads {threads} step {s} slot {slot}"
                        );
                        let slot_terms = &t.terms[slot * BLOCKS..(slot + 1) * BLOCKS];
                        for (j, term) in slot_terms.iter().enumerate() {
                            assert_eq!(term.value.to_bits(), fresh[j].to_bits());
                        }
                        reused_terms += slot_terms.iter().filter(|term| term.step < s).count();
                    }
                    genes = next;
                    terms = t;
                }
                assert!(
                    reused_terms > 0,
                    "seed {seed} threads {threads}: no term was ever delta-reused"
                );
                // The engine's own reuse counter agrees with the tag-based
                // count.
                assert_eq!(reused_count, reused_terms as u64);
            }
        }
    }
}
