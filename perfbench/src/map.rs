//! `map`: offline single-network mapping at the paper-scale budget.
//!
//! One op is a baseline plus one `Mars::search` at `SearchConfig::standard`,
//! with a search seed derived from the workload seed, the round and the op.
//! A round runs the five Table III CNNs on the F1 platform against the
//! computation-prioritised baseline, and the two heterogeneous models on the
//! H2H cloud at each of the five bandwidth levels with fixed designs against
//! the H2H-like mapper: 15 ops.  Nearly all host time is `mars-core` search;
//! nothing is served.

use crate::harness::{per_second, Digest, Harness, SimResults};
use mars_accel::{Catalog, DesignId};
use mars_comm::CommSim;
use mars_core::{
    baseline, genome_stream_seed, DesignPolicy, Evaluator, Mapping, Mars, SearchConfig,
    SearchResult,
};
use mars_model::zoo::{self, Benchmark};
use mars_model::{ConvParams, Network};
use mars_parallel::{evaluate_layer, paper_strategies, EvalContext};
use mars_topology::{presets, AccelId, Topology};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Rounds whose results feed the simulated metrics and the digest.
const PREFIX_ROUNDS: u64 = 4;
const SEARCH_STREAM: u64 = 1;

/// Where an op maps its network.
#[derive(Clone, Copy)]
enum Platform {
    /// The F1 platform with adaptive designs (Table III).
    F1,
    /// The H2H cloud at one bandwidth level with fixed designs (Table IV).
    H2h(usize),
}

struct Case {
    net: usize,
    platform: Platform,
    label: String,
}

struct Inputs {
    nets: Vec<Network>,
    f1: Topology,
    adaptive: Catalog,
    fixed: Catalog,
    levels: Vec<(Topology, BTreeMap<AccelId, DesignId>)>,
}

impl Inputs {
    fn build(h: &Harness) -> Self {
        let nets = h.call("model.build", || {
            let mut nets: Vec<Network> = Benchmark::ALL.iter().map(|b| b.build()).collect();
            nets.push(zoo::casia_surf_like());
            nets.push(zoo::facebagnet_like());
            nets
        });
        let fixed = Catalog::h2h_heterogeneous();
        let levels = presets::h2h_bandwidth_levels()
            .iter()
            .map(|&(_, gbps)| {
                let topo = presets::h2h_cloud(gbps);
                let designs = baseline::default_fixed_designs(&topo, &fixed);
                (topo, designs)
            })
            .collect();
        Inputs {
            nets,
            f1: presets::f1_16xlarge(),
            adaptive: Catalog::standard_three(),
            fixed,
            levels,
        }
    }

    /// Topology, catalog and design policy of `platform`.
    fn context(&self, platform: Platform) -> (&Topology, &Catalog, DesignPolicy) {
        match platform {
            Platform::F1 => (&self.f1, &self.adaptive, DesignPolicy::Adaptive),
            Platform::H2h(l) => (
                &self.levels[l].0,
                &self.fixed,
                DesignPolicy::Fixed(self.levels[l].1.clone()),
            ),
        }
    }

    fn cases(&self) -> Vec<Case> {
        let case = |net: usize, platform, on: &str| Case {
            net,
            platform,
            label: format!("{} on {on}", self.nets[net].name()),
        };
        let mut cases: Vec<Case> = (0..Benchmark::ALL.len())
            .map(|net| case(net, Platform::F1, "F1"))
            .collect();
        for net in [Benchmark::ALL.len(), Benchmark::ALL.len() + 1] {
            for (l, (level, _)) in presets::h2h_bandwidth_levels().iter().enumerate() {
                cases.push(case(net, Platform::H2h(l), &format!("H2H {level}")));
            }
        }
        cases
    }
}

/// One op: the case's baseline, then its MARS search.
fn search(h: &Harness, inputs: &Inputs, case: &Case, seed: u64) -> (Mapping, SearchResult) {
    let net = &inputs.nets[case.net];
    let config = SearchConfig::standard(seed).with_threads(h.threads);
    let (topo, catalog, policy) = inputs.context(case.platform);
    h.op(|| {
        let base = h.call("core.baseline", || match &policy {
            DesignPolicy::Fixed(designs) => baseline::h2h_like(net, topo, catalog, designs),
            DesignPolicy::Adaptive => baseline::computation_prioritized(net, topo, catalog),
        });
        let mars = Mars::new(net, topo, catalog).with_config(config);
        let mars = match policy {
            DesignPolicy::Fixed(designs) => mars.with_fixed_designs(designs),
            DesignPolicy::Adaptive => mars,
        };
        (base, h.call("core.search", || mars.search()))
    })
}

fn check(h: &Harness, inputs: &Inputs, case: &Case, base: &Mapping, found: &SearchResult) {
    let (topo, catalog, policy) = inputs.context(case.platform);
    let m = &found.mapping;
    let again = Evaluator::with_policy(&inputs.nets[case.net], topo, catalog, policy)
        .evaluate(&m.assignments, &m.strategies);
    let what = &case.label;
    h.check(
        m.latency_seconds.is_finite() && m.latency_seconds > 0.0,
        what,
        "mapping latency is finite and positive",
    );
    h.check(m.is_valid(), what, "Mapping::is_valid");
    h.check(
        again.to_bits() == m.latency_seconds.to_bits(),
        what,
        "Evaluator re-evaluation gives the same latency bits",
    );
    h.check(
        base.latency_seconds.is_finite() && base.latency_seconds > 0.0,
        what,
        "baseline latency is finite and positive",
    );
}

fn count(h: &Harness, found: &SearchResult) {
    let s = &found.stats;
    h.count("core.search.calls", 1.0);
    h.count("core.search.evals", s.evaluations as f64);
    h.count("core.search.second_level", s.second_level_searches as f64);
    h.count("core.evaluator.term_lookups", s.term_table.lookups() as f64);
    h.count("core.evaluator.term_hits", s.term_table.hits as f64);
    h.count(
        "core.evaluator.layer_evals",
        (s.term_table.misses + s.layer_cache.misses) as f64,
    );
    h.count(
        "core.evaluator.greedy_lookups",
        s.greedy_cache.lookups() as f64,
    );
    h.count("core.evaluator.greedy_hits", s.greedy_cache.hits as f64);
    h.count(
        "core.mapper.decision_lookups",
        s.search_cache.lookups() as f64,
    );
    h.count("core.mapper.decision_hits", s.search_cache.hits as f64);
    h.count("core.ga.blocks_reused", s.blocks_reused as f64);
}

pub fn run(h: &Harness, seed: u64) -> SimResults {
    let inputs = h.setup(5, || Inputs::build(h));
    let cases = inputs.cases();
    // (round, case) -> (baseline latency, MARS latency), prefix rounds only.
    let mut results: BTreeMap<(u64, usize), (f64, f64)> = BTreeMap::new();
    let mut first_round: BTreeMap<usize, Mapping> = BTreeMap::new();
    h.measure(
        PREFIX_ROUNDS,
        false,
        || Inputs::build(h),
        |r| {
            let mut d = Digest::new();
            for (i, case) in cases.iter().enumerate() {
                let (base, found) = search(
                    h,
                    &inputs,
                    case,
                    genome_stream_seed(seed, SEARCH_STREAM, r << 16 | i as u64),
                );
                check(h, &inputs, case, &base, &found);
                count(h, &found);
                d.add(&(&base, &found.mapping, &found.history, found.evaluations));
                if r < PREFIX_ROUNDS {
                    results.insert(
                        (r, i),
                        (base.latency_seconds, found.mapping.latency_seconds),
                    );
                }
                if r == 0 {
                    first_round.insert(i, found.mapping);
                }
            }
            d.value()
        },
    );
    if h.traced() {
        unit_costs(h, &inputs, &cases, &first_round);
    }

    let pick = |typical: bool| -> Vec<(f64, f64)> {
        results
            .iter()
            .filter(|((_, i), _)| matches!(cases[*i].platform, Platform::F1) == typical)
            .map(|(_, &v)| v)
            .collect()
    };
    let reduction = |v: &[(f64, f64)]| {
        v.iter()
            .map(|(base, mars)| 100.0 * (1.0 - mars / base))
            .sum::<f64>()
            / v.len() as f64
    };
    let geomean_ms = |v: &[(f64, f64)]| {
        (v.iter().map(|(_, mars)| (mars * 1e3).ln()).sum::<f64>() / v.len() as f64).exp()
    };
    let (typical, hetero) = (pick(true), pick(false));
    SimResults {
        quality: ("typical_reduction_pct", reduction(&typical)),
        quality2: ("hetero_reduction_pct", reduction(&hetero)),
        latency: ("typical_geomean_latency_ms", geomean_ms(&typical)),
        latency2: ("hetero_geomean_latency_ms", geomean_ms(&hetero)),
    }
}

/// Unit-cost calls of the layers under the search, made only in the traced
/// run, on this workload's own conv shapes, designs and accelerator groups.
fn unit_costs(h: &Harness, inputs: &Inputs, cases: &[Case], mappings: &BTreeMap<usize, Mapping>) {
    let mut shapes: Vec<ConvParams> = Vec::new();
    for net in &inputs.nets {
        for (_, layer) in net.compute_layers() {
            if let Some(conv) = layer.as_conv().filter(|c| !shapes.contains(c)) {
                shapes.push(conv);
            }
        }
    }
    let topo = &inputs.f1;
    let sim = CommSim::new(topo);
    let groups: Vec<Vec<AccelId>> = topo
        .groups()
        .into_iter()
        .map(|g| topo.group_members(g))
        .collect();
    let strategies = paper_strategies();
    let catalog = &inputs.adaptive;
    let designs = catalog.design_ids();

    h.set_layer(
        "parallel.evaluate_layer_per_s",
        per_second(|| {
            let mut calls = 0;
            for &d in &designs {
                let ctx = EvalContext::new(catalog.model(d), &sim, &groups[0]);
                for conv in &shapes {
                    for s in &strategies {
                        black_box(evaluate_layer(conv, s, &ctx));
                        calls += 1;
                    }
                }
            }
            calls
        }),
    );
    h.set_layer(
        "accel.conv_cycles_per_s",
        per_second(|| {
            let mut calls = 0;
            for &d in &designs {
                let model = catalog.model(d);
                for conv in &shapes {
                    black_box(model.conv_cycles(conv));
                    calls += 1;
                }
            }
            calls
        }),
    );
    h.set_layer(
        "comm.collectives_per_s",
        per_second(|| {
            let mut calls = 0;
            for group in &groups {
                for conv in &shapes {
                    black_box(sim.all_reduce(group, conv.weight_bytes()));
                    let shard = conv.output_shape().bytes() / group.len() as u64;
                    black_box(sim.all_gather(group, shard));
                    calls += 2;
                }
            }
            calls
        }),
    );
    h.set_layer(
        "core.evaluator.evaluate_per_s",
        per_second(|| {
            let mut calls = 0;
            for (&i, m) in mappings {
                let (topo, catalog, policy) = inputs.context(cases[i].platform);
                let eval =
                    Evaluator::with_policy(&inputs.nets[cases[i].net], topo, catalog, policy);
                black_box(eval.evaluate(&m.assignments, &m.strategies));
                calls += 1;
            }
            calls
        }),
    );
}
