//! Ablation variants of the mapping search.
//!
//! Section V motivates the two-level decomposition: "Simply tuning them in one
//! pass of the search is easy to fall into local optimums."  The variants here
//! let the benchmark harness quantify that claim:
//!
//! * [`single_level_search`] — one flat GA over the concatenation of the
//!   first-level genes and the per-layer strategy genes of *all* layers.
//! * [`random_search`] — uniform random sampling of the same flat genome, as a
//!   sanity floor.
//!
//! Both return the same [`SearchResult`] shape as [`Mars::search`] so the
//! ablation bench can print them side by side.
//!
//! [`Mars::search`]: crate::Mars::search

use crate::evaluator::Evaluator;
use crate::ga::{GaConfig, GeneticAlgorithm};
use crate::genome::{FirstLevelGenome, SecondLevelGenome};
use crate::mapper::SearchResult;
use crate::mapping::{Assignment, Mapping};
use mars_accel::{Catalog, ProfileTable};
use mars_model::{LoopNest, Network};
use mars_parallel::Strategy;
use mars_topology::{partition, AccelId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct FlatProblem<'a> {
    layout1: FirstLevelGenome,
    layout2: SecondLevelGenome,
    candidates: Vec<Vec<AccelId>>,
    compute_layers: Vec<usize>,
    nests: Vec<LoopNest>,
    design_scores: Vec<f64>,
    evaluator: Evaluator<'a>,
    topo: &'a Topology,
}

impl<'a> FlatProblem<'a> {
    fn new(net: &'a Network, topo: &'a Topology, catalog: &'a Catalog) -> Self {
        let candidates = partition::accset_candidates(topo);
        let profile = ProfileTable::build(net, catalog);
        let compute_layers: Vec<usize> = net.compute_layers().map(|(id, _)| id.0).collect();
        let nests = compute_layers
            .iter()
            .map(|idx| {
                net.layers()[*idx]
                    .as_conv()
                    .expect("compute layer")
                    .loop_nest()
            })
            .collect();
        Self {
            layout1: FirstLevelGenome::new(candidates.len(), catalog.len(), topo.len(), net.len()),
            layout2: SecondLevelGenome::new(compute_layers.len()),
            candidates,
            compute_layers,
            nests,
            design_scores: profile.normalized_scores(),
            evaluator: Evaluator::new(net, topo, catalog),
            topo,
        }
    }

    fn genome_len(&self) -> usize {
        self.layout1.len() + self.layout2.len()
    }

    fn decode(&self, genes: &[f64]) -> (Vec<Assignment>, BTreeMap<usize, Strategy>) {
        let (g1, g2) = genes.split_at(self.layout1.len());
        let assignments = self.layout1.decode(g1, &self.candidates);
        let strategies = self
            .layout2
            .decode(g2)
            .into_iter()
            .zip(self.compute_layers.iter())
            .map(|(s, idx)| (*idx, s))
            .collect();
        (assignments, strategies)
    }

    fn fitness(&self, genes: &[f64]) -> f64 {
        let (assignments, strategies) = self.decode(genes);
        self.evaluator.evaluate(&assignments, &strategies)
    }

    fn seed_genes(&self) -> Vec<f64> {
        let mut genes =
            self.layout1
                .heuristic_seed(self.topo, &self.candidates, &self.design_scores);
        genes.extend(self.layout2.heuristic_seed(&self.nests));
        genes
    }

    fn random_genes(&self, rng: &mut StdRng) -> Vec<f64> {
        let mut genes = self.layout1.random_init(rng, &self.design_scores);
        genes.extend(self.layout2.random_init(rng));
        genes
    }
}

fn result_from(
    problem: &FlatProblem<'_>,
    genes: &[f64],
    history: Vec<f64>,
    evals: usize,
    elapsed: Duration,
) -> SearchResult {
    let (assignments, strategies) = problem.decode(genes);
    let latency = problem.evaluator.evaluate(&assignments, &strategies);
    SearchResult {
        mapping: Mapping::new(assignments, strategies, latency),
        history,
        evaluations: evals,
        elapsed,
        stats: crate::EvalStats {
            evaluations: evals,
            elapsed,
            ..Default::default()
        },
    }
}

/// A flat, single-level GA over the joint genome (the ablation of the paper's
/// two-level decomposition).  The GA engine tracks the best-ever genome
/// itself, so the flat fitness function stays pure and parallelisable.
pub fn single_level_search(
    net: &Network,
    topo: &Topology,
    catalog: &Catalog,
    ga: GaConfig,
) -> SearchResult {
    let start = Instant::now();
    let problem = FlatProblem::new(net, topo, catalog);
    let engine = GeneticAlgorithm::new(ga);
    let outcome = engine.run(
        problem.genome_len(),
        |rng, i| {
            if i == 0 {
                problem.seed_genes()
            } else {
                problem.random_genes(rng)
            }
        },
        |genes| problem.fitness(genes),
    );
    result_from(
        &problem,
        &outcome.best_genes,
        outcome.history,
        outcome.evaluations,
        start.elapsed(),
    )
}

/// Uniform random sampling of the flat genome (the sanity floor).
pub fn random_search(
    net: &Network,
    topo: &Topology,
    catalog: &Catalog,
    samples: usize,
    seed: u64,
) -> SearchResult {
    let start = Instant::now();
    let problem = FlatProblem::new(net, topo, catalog);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best_genes = problem.seed_genes();
    let mut best = problem.fitness(&best_genes);
    let mut history = vec![best];
    for _ in 0..samples.saturating_sub(1) {
        let genes: Vec<f64> = if rng.gen_bool(0.5) {
            problem.random_genes(&mut rng)
        } else {
            (0..problem.genome_len()).map(|_| rng.gen()).collect()
        };
        let f = problem.fitness(&genes);
        if f < best {
            best = f;
            best_genes = genes;
        }
        history.push(best);
    }
    result_from(&problem, &best_genes, history, samples, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_model::zoo;
    use mars_topology::presets;

    #[test]
    fn single_level_search_produces_a_valid_mapping() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let ga = GaConfig {
            population: 6,
            generations: 4,
            ..GaConfig::first_level(4)
        };
        let result = single_level_search(&net, &topo, &catalog, ga);
        assert!(result.mapping.is_valid());
        assert!(result.evaluations > 0);
    }

    #[test]
    fn random_search_improves_monotonically() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let result = random_search(&net, &topo, &catalog, 10, 5);
        assert!(result.mapping.is_valid());
        for w in result.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn two_level_search_is_at_least_as_good_as_random() {
        let net = zoo::alexnet(1000);
        let topo = presets::f1_16xlarge();
        let catalog = Catalog::standard_three();
        let random = random_search(&net, &topo, &catalog, 8, 9);
        let two_level = crate::Mars::new(&net, &topo, &catalog)
            .with_config(crate::SearchConfig::fast(9))
            .search();
        assert!(
            two_level.mapping.latency_seconds <= random.mapping.latency_seconds * 1.05,
            "two-level {} ms vs random {} ms",
            two_level.latency_ms(),
            random.mapping.latency_ms()
        );
    }
}
