//! `elastic`: multi-DNN co-scheduling plus online re-planning.
//!
//! One op is one `run_elastic_with_cache` call: a (mix, scenario) pair under
//! one `RuntimePolicy`.  A round runs the three bundled mixes, each with its
//! phased traffic and its failure scenario, under Static, Reactive and
//! Oracle: 18 ops.  The three policies of a pair share one fresh
//! `InnerSearchCache`, and the pair's co-schedules search at
//! `CoScheduleConfig::fast` with a seed derived from the workload seed, the
//! round and the pair.  Each pair draws a pool of traces at setup and round
//! `r` replays trace `r % TRACES`: how often the runtime re-plans, and so
//! its cost, depends on the trace, and a run should average over several.
//! Host time goes to `co_schedule` (the outer GA and
//! many small inner searches on sub-topologies) and, a little, to the
//! windowed serving simulation with faults and re-placements.

use crate::harness::{Digest, Harness, SimResults};
use mars_accel::Catalog;
use mars_core::{genome_stream_seed, CoScheduleConfig, InnerSearchCache, Workload};
use mars_model::zoo::MixZoo;
use mars_model::PhasedTraffic;
use mars_runtime::{run_elastic_with_cache, ElasticReport, RuntimeConfig, RuntimePolicy};
use mars_serve::Trace;
use mars_topology::{presets, Topology};
use std::collections::BTreeMap;

/// Rounds whose results feed the simulated metrics and the digest.
const PREFIX_ROUNDS: u64 = 6;
/// Traces drawn per (mix, scenario) pair.
const TRACES: u64 = 8;
const TRACE_STREAM: u64 = 2;
const SEARCH_STREAM: u64 = 3;

struct Pair {
    label: String,
    failure: bool,
    workloads: Vec<Workload>,
    scenario: PhasedTraffic,
    traces: Vec<Trace>,
}

struct Inputs {
    topo: Topology,
    catalog: Catalog,
    pairs: Vec<Pair>,
}

fn build(h: &Harness, seed: u64) -> Inputs {
    let mut pairs = Vec::new();
    for mix in MixZoo::ALL {
        let workloads = h.call("model.build", || mix.entries());
        for failure in [false, true] {
            let scenario = if failure {
                mix.failure_scenario()
            } else {
                mix.phased_traffic()
            };
            let pair = pairs.len() as u64;
            let traces = h.call("serve.trace", || {
                (0..TRACES)
                    .map(|i| {
                        let trace_seed = genome_stream_seed(seed, TRACE_STREAM, pair << 8 | i);
                        Trace::phased(&scenario, trace_seed).expect("bundled scenarios are valid")
                    })
                    .collect()
            });
            let kind = if failure { "failure" } else { "phased" };
            pairs.push(Pair {
                label: format!("{mix} {kind}"),
                failure,
                workloads: workloads.clone(),
                scenario,
                traces,
            });
        }
    }
    Inputs {
        topo: presets::f1_16xlarge(),
        catalog: Catalog::standard_three(),
        pairs,
    }
}

fn check(h: &Harness, what: &str, report: &ElasticReport, requests: usize) {
    let s = &report.serve;
    h.check(
        s.goodput <= s.completed && s.completed <= s.total_requests,
        what,
        "goodput <= completed <= requests",
    );
    h.check(
        s.total_requests == requests,
        what,
        "requests equal the trace's count",
    );
    let applied: Vec<_> = report
        .reconfigurations
        .iter()
        .filter(|e| e.applied)
        .collect();
    h.check(
        applied.windows(2).all(|w| w[0].epoch < w[1].epoch),
        what,
        "applied events carry strictly increasing epochs",
    );
    h.check(
        applied
            .iter()
            .all(|e| e.accels.iter().flatten().all(|a| !e.down.contains(a))),
        what,
        "no applied subset holds an accelerator of the event's down set",
    );
}

fn count(h: &Harness, report: &ElasticReport) {
    h.count("runtime.decisions", report.reconfigurations.len() as f64);
    h.count("runtime.triggers", report.triggers_fired as f64);
    h.count("runtime.applied", report.placements_changed() as f64);
}

/// What the simulated metrics need from one op.
struct Outcome {
    failure: bool,
    policy: RuntimePolicy,
    goodput: usize,
    requests: usize,
    p50_ms: f64,
}

pub fn run(h: &Harness, seed: u64) -> SimResults {
    let inputs = h.setup(5, || build(h, seed));
    let mut outcomes: BTreeMap<(u64, usize, usize), Outcome> = BTreeMap::new();
    h.measure(
        PREFIX_ROUNDS,
        false,
        || build(h, seed),
        |r| {
            let mut d = Digest::new();
            for (k, pair) in inputs.pairs.iter().enumerate() {
                let cache = InnerSearchCache::new();
                let schedule = CoScheduleConfig::fast(genome_stream_seed(
                    seed,
                    SEARCH_STREAM,
                    r << 8 | k as u64,
                ))
                .with_threads(h.threads);
                let config = RuntimeConfig::new(schedule);
                let trace = &pair.traces[(r % TRACES) as usize];
                for (p, policy) in RuntimePolicy::ALL.into_iter().enumerate() {
                    let layer = match policy {
                        RuntimePolicy::Static => "runtime.static",
                        RuntimePolicy::Reactive => "runtime.reactive",
                        RuntimePolicy::Oracle => "runtime.oracle",
                    };
                    let out = h.op(|| {
                        h.call(layer, || {
                            run_elastic_with_cache(
                                &pair.workloads,
                                &inputs.topo,
                                &inputs.catalog,
                                &pair.scenario,
                                trace,
                                policy,
                                &config,
                                &cache,
                            )
                        })
                    });
                    let what = format!("{} {policy}", pair.label);
                    let report = match out {
                        Ok(report) => report,
                        Err(e) => {
                            h.check(false, &what, &format!("run_elastic_with_cache failed: {e}"));
                            continue;
                        }
                    };
                    check(h, &what, &report, trace.total_requests());
                    count(h, &report);
                    d.add(&report);
                    if r < PREFIX_ROUNDS {
                        let s = &report.serve;
                        outcomes.insert(
                            (r, k, p),
                            Outcome {
                                failure: pair.failure,
                                policy,
                                goodput: s.goodput,
                                requests: s.total_requests,
                                p50_ms: s.p50_ms,
                            },
                        );
                    }
                }
                h.count("core.scheduler.inner_searches", cache.searches_run() as f64);
            }
            d.value()
        },
    );

    let reactive: Vec<&Outcome> = outcomes
        .values()
        .filter(|o| o.policy == RuntimePolicy::Reactive)
        .collect();
    let goodput = |policy: RuntimePolicy| -> usize {
        outcomes
            .values()
            .filter(|o| o.failure && o.policy == policy)
            .map(|o| o.goodput)
            .sum()
    };
    let mean_p50 = |failure: bool| {
        let v: Vec<f64> = reactive
            .iter()
            .filter(|o| o.failure == failure)
            .map(|o| o.p50_ms)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let served: usize = reactive.iter().map(|o| o.goodput).sum();
    let requests: usize = reactive.iter().map(|o| o.requests).sum();
    SimResults {
        quality: (
            "elastic_goodput_pct",
            100.0 * served as f64 / requests as f64,
        ),
        quality2: (
            "recovery_pct",
            100.0 * goodput(RuntimePolicy::Reactive) as f64 / goodput(RuntimePolicy::Static) as f64,
        ),
        latency: ("reactive_phased_p50_ms", mean_p50(false)),
        latency2: ("reactive_failure_p50_ms", mean_p50(true)),
    }
}
