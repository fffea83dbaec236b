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
//! parent's score.  The RNG call sequence is identical to the historical
//! per-genome-`Vec` engine, which is retained verbatim as
//! [`GeneticAlgorithm::run_reference`]; a test pins the two bit-identical.

use mars_parallel::scoped_map;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Genetic-algorithm hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Number of individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability that an offspring is produced by crossover (otherwise it is
    /// a mutated copy of one parent).
    pub crossover_rate: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Standard deviation of the Gaussian mutation step.
    pub mutation_sigma: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Number of best individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// PRNG seed; searches with the same seed and inputs are reproducible,
    /// bit-identically, for **any** value of [`threads`](Self::threads).
    pub seed: u64,
    /// Worker threads for fitness evaluation: `1` evaluates serially on the
    /// calling thread, `0` asks the OS for the available parallelism, any
    /// other value is used as given.
    pub threads: usize,
}

impl GaConfig {
    /// The configuration used by the first-level search.
    pub fn first_level(seed: u64) -> Self {
        Self {
            population: 16,
            generations: 10,
            crossover_rate: 0.8,
            mutation_rate: 0.15,
            mutation_sigma: 0.25,
            tournament: 3,
            elitism: 2,
            seed,
            threads: 1,
        }
    }

    /// The configuration used by the second-level (per accelerator set)
    /// search.
    pub fn second_level(seed: u64) -> Self {
        Self {
            population: 20,
            generations: 12,
            crossover_rate: 0.8,
            mutation_rate: 0.2,
            mutation_sigma: 0.3,
            tournament: 3,
            elitism: 2,
            seed,
            threads: 1,
        }
    }

    /// A deliberately tiny configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            population: 6,
            generations: 4,
            crossover_rate: 0.8,
            mutation_rate: 0.25,
            mutation_sigma: 0.3,
            tournament: 2,
            elitism: 1,
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
    pub mean_history: Vec<f64>,
    /// Number of fitness evaluations performed.
    pub evaluations: usize,
    /// Block terms reused from breeding parents by the delta-fitness path of
    /// [`GeneticAlgorithm::run_blocks`]; a whole-genome [`GeneticAlgorithm::run`]
    /// counts one per elite or unmutated clone.
    pub blocks_reused: u64,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

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

impl GaOutcome {
    /// Fitness evaluations per second of wall-clock search time.
    pub fn evals_per_second(&self) -> f64 {
        throughput(self.evaluations, self.elapsed)
    }
}

/// The genetic-algorithm engine (fitness is minimised).
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    cfg: GaConfig,
}

impl GeneticAlgorithm {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: GaConfig) -> Self {
        Self { cfg }
    }

    /// The engine configuration.
    pub fn config(&self) -> &GaConfig {
        &self.cfg
    }

    /// Runs the search.
    ///
    /// * `genome_len` — number of genes per individual;
    /// * `init` — produces the initial genome of individual `i` (this is where
    ///   heuristic seeding happens: individual 0 is conventionally the
    ///   heuristic seed, the rest random);
    /// * `fitness` — evaluates a genome (lower is better; `INFINITY` marks an
    ///   invalid individual).  It must be a *pure* function of the genes: the
    ///   engine may evaluate a generation's genomes concurrently on
    ///   [`GaConfig::threads`] worker threads and in any order.
    ///
    /// This is [`GeneticAlgorithm::run_blocks`] with the whole genome as one
    /// block, so elites and unmutated clones keep their parent's score
    /// instead of being re-evaluated.  The outcome is bit-identical for every
    /// thread count (see the module docs on determinism).
    ///
    /// ```
    /// use mars_core::{GaConfig, GeneticAlgorithm};
    ///
    /// // Minimise the sphere function centred at 0.7 per gene.
    /// let sphere = |genes: &[f64]| genes.iter().map(|g| (g - 0.7).powi(2)).sum();
    /// let ga = GeneticAlgorithm::new(GaConfig::tiny(42).with_threads(2));
    /// let out = ga.run(4, |rng, _| (0..4).map(|_| rand::Rng::gen(rng)).collect(), sphere);
    /// assert!(out.best_fitness < 0.7);
    /// assert_eq!(out.history.len(), ga.config().generations + 1);
    /// assert!(out.evals_per_second() > 0.0);
    /// ```
    pub fn run<I, F>(&self, genome_len: usize, init: I, fitness: F) -> GaOutcome
    where
        I: FnMut(&mut StdRng, usize) -> Vec<f64>,
        F: Fn(&[f64]) -> f64 + Sync,
    {
        self.run_blocks(1, genome_len, init, |_, genes| fitness(genes), |t| t[0])
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
        let start = Instant::now();
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

            let elites = cfg.elitism.min(pop_size);
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
                let child = if rng.gen_bool(cfg.crossover_rate) {
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
            elapsed: start.elapsed(),
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
    pub fn run_blocks<B, I, E, C>(
        &self,
        n_blocks: usize,
        block_len: usize,
        mut init: I,
        block_eval: E,
        combine: C,
    ) -> GaOutcome
    where
        B: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        I: FnMut(&mut StdRng, usize) -> Vec<f64>,
        E: Fn(usize, &[f64]) -> B + Sync,
        C: Fn(&[B]) -> f64 + Sync,
    {
        let start = Instant::now();
        let cfg = self.cfg;
        let pop_size = cfg.population.max(2);
        let genome_len = n_blocks * block_len;

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

        // Deterministic total: reuse decisions are pure functions of the
        // genes, so a relaxed sum over worker threads is exact and
        // thread-count invariant.
        let reused = AtomicU64::new(0);

        // Per-slot block terms of the current generation, and which
        // previous-generation slot each genome was bred from.
        let mut parents: Vec<Option<usize>> = vec![None; pop_size];
        let (mut terms, mut scores) = self.evaluate_blocks(
            &genes,
            &[],
            n_blocks,
            block_len,
            &[],
            &parents,
            &block_eval,
            &combine,
            &reused,
        );
        let mut evaluations = pop_size;

        // Best-ever individual, updated in index order after each (possibly
        // parallel) evaluation so ties always resolve to the lowest index.
        let mut best_genes = genes[..genome_len].to_vec();
        let mut best_fitness = scores[0];
        for (i, &s) in scores.iter().enumerate().skip(1) {
            if s < best_fitness {
                best_fitness = s;
                best_genes.copy_from_slice(&genes[i * genome_len..(i + 1) * genome_len]);
            }
        }

        let mut history = Vec::with_capacity(cfg.generations + 1);
        history.push(best_of(&scores));
        let mut mean_history = Vec::with_capacity(cfg.generations + 1);
        mean_history.push(mean_of(&scores));

        let mut next = vec![0.0f64; pop_size * genome_len];
        for generation in 1..=cfg.generations {
            let mut order: Vec<usize> = (0..pop_size).collect();
            order.sort_by(|a, b| scores[*a].partial_cmp(&scores[*b]).expect("finite or inf"));

            let elites = cfg.elitism.min(pop_size);
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
                let a = self.tournament(&mut rng, &scores);
                let dst = slot * genome_len;
                if rng.gen_bool(cfg.crossover_rate) {
                    let b = self.tournament(&mut rng, &scores);
                    for g in 0..genome_len {
                        next[dst + g] = if rng.gen_bool(0.5) {
                            genes[a * genome_len + g]
                        } else {
                            genes[b * genome_len + g]
                        };
                    }
                } else {
                    next[dst..dst + genome_len]
                        .copy_from_slice(&genes[a * genome_len..(a + 1) * genome_len]);
                }
                self.mutate_slice(&mut rng, &mut next[dst..dst + genome_len]);
                *parent = Some(a);
            }

            std::mem::swap(&mut genes, &mut next);
            // After the swap `next` holds the parent generation's genes —
            // exactly what block reuse compares child blocks against.
            (terms, scores) = self.evaluate_blocks(
                &genes,
                &next,
                n_blocks,
                block_len,
                &terms,
                &parents,
                &block_eval,
                &combine,
                &reused,
            );
            evaluations += pop_size;
            history.push(best_of(&scores));
            mean_history.push(mean_of(&scores));

            for (i, &s) in scores.iter().enumerate() {
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
            blocks_reused: reused.load(Relaxed),
            elapsed: start.elapsed(),
        }
    }

    /// Scores one generation of a [`GeneticAlgorithm::run_blocks`] search:
    /// per-slot block terms with parent reuse, and `combine` for the score.
    /// Returns `(terms, scores)`.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_blocks<B, E, C>(
        &self,
        genes: &[f64],
        prev_genes: &[f64],
        n_blocks: usize,
        block_len: usize,
        prev_terms: &[Vec<B>],
        parents: &[Option<usize>],
        block_eval: &E,
        combine: &C,
        reused_total: &AtomicU64,
    ) -> (Vec<Vec<B>>, Vec<f64>)
    where
        B: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        E: Fn(usize, &[f64]) -> B + Sync,
        C: Fn(&[B]) -> f64 + Sync,
    {
        let genome_len = n_blocks * block_len;
        let slots: Vec<usize> = (0..parents.len()).collect();
        scoped_map(self.cfg.threads, &slots, |_, &slot| {
            let genome = &genes[slot * genome_len..(slot + 1) * genome_len];
            let parent = parents[slot].filter(|_| !prev_terms.is_empty());
            let terms: Vec<B> = (0..n_blocks)
                .map(|j| {
                    let block = &genome[j * block_len..(j + 1) * block_len];
                    let reused = parent.and_then(|p| {
                        let at = p * genome_len + j * block_len;
                        (block == &prev_genes[at..at + block_len]).then(|| prev_terms[p][j].clone())
                    });
                    match reused {
                        Some(t) => {
                            #[cfg(debug_assertions)]
                            {
                                let fresh = block_eval(j, block);
                                debug_assert!(
                                    fresh == t,
                                    "delta-fitness reuse mismatch at block {j}: {fresh:?} != {t:?}"
                                );
                            }
                            reused_total.fetch_add(1, Relaxed);
                            t
                        }
                        None => block_eval(j, block),
                    }
                })
                .collect();
            let score = combine(&terms);
            (terms, score)
        })
        .into_iter()
        .unzip()
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
        for _ in 1..self.cfg.tournament.max(1) {
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
        self.mutate_slice(rng, &mut genes);
        genes
    }

    fn mutate_slice(&self, rng: &mut StdRng, genes: &mut [f64]) {
        for g in genes {
            if rng.gen_bool(self.cfg.mutation_rate) {
                // Box-Muller Gaussian step.
                let u1: f64 = rng.gen_range(1e-9..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                *g = (*g + normal * self.cfg.mutation_sigma).clamp(0.0, 1.0);
            }
        }
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
        assert!(out.elapsed > Duration::ZERO);
        assert!(out.evals_per_second() > 0.0);
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
            GeneticAlgorithm::new(GaConfig::tiny(seed)).run(
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
        let ga = GeneticAlgorithm::new(GaConfig::tiny(5));
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
        let ga = GeneticAlgorithm::new(GaConfig {
            mutation_rate: 1.0,
            mutation_sigma: 5.0,
            ..GaConfig::tiny(2)
        });
        let out = ga.run(4, |_, _| vec![0.5; 4], sphere);
        assert!(out.best_genes.iter().all(|g| (0.0..=1.0).contains(g)));
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
            let blocks = GeneticAlgorithm::new(cfg).run_blocks(4, 3, init, block_term, block_sum);
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
            )
        };
        let serial = run(1);
        for threads in [2, 4] {
            let parallel = run(threads);
            assert_eq!(serial.best_genes, parallel.best_genes, "threads={threads}");
            assert_eq!(serial.history, parallel.history, "threads={threads}");
        }
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
                let ga = GeneticAlgorithm::new(GaConfig {
                    population: POP,
                    ..GaConfig::second_level(seed).with_threads(threads)
                });
                let step = AtomicUsize::new(0);
                let block_eval = |j: usize, block: &[f64]| TaggedTerm {
                    value: block_term(j, block),
                    step: step.load(Ordering::Relaxed),
                };
                let combine = |terms: &[TaggedTerm]| {
                    let mut total = 0.0;
                    for t in terms {
                        total += t.value;
                    }
                    total
                };

                let mut rng = StdRng::seed_from_u64(seed ^ 0xD1F7);
                let mut genes: Vec<f64> = (0..POP * GENOME).map(|_| rng.gen()).collect();
                let mut parents: Vec<Option<usize>> = vec![None; POP];
                let reused_count = AtomicU64::new(0);
                let (mut terms, _) = ga.evaluate_blocks(
                    &genes,
                    &[],
                    BLOCKS,
                    BLOCK_LEN,
                    &[],
                    &parents,
                    &block_eval,
                    &combine,
                    &reused_count,
                );

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
                    let (t, scores) = ga.evaluate_blocks(
                        &next,
                        &genes,
                        BLOCKS,
                        BLOCK_LEN,
                        &terms,
                        &parents,
                        &block_eval,
                        &combine,
                        &reused_count,
                    );
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
                        for (j, term) in t[slot].iter().enumerate() {
                            assert_eq!(term.value.to_bits(), fresh[j].to_bits());
                        }
                        reused_terms += t[slot].iter().filter(|term| term.step < s).count();
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
                assert_eq!(reused_count.load(Ordering::Relaxed), reused_terms as u64);
            }
        }
    }

    #[test]
    fn best_ever_survives_even_without_elitism() {
        // With elitism 0 the best individual can be bred away from the
        // population, but the outcome still reports the best ever seen.
        let ga = GeneticAlgorithm::new(GaConfig {
            elitism: 0,
            mutation_rate: 1.0,
            mutation_sigma: 2.0,
            ..GaConfig::tiny(13)
        });
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
        assert_eq!(out.best_genes, vec![0.7; 4]);
    }
}
