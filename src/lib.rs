//! # MARS — Exploiting Multi-Level Parallelism for DNN Workloads on Adaptive
//! # Multi-Accelerator Systems
//!
//! This crate is the facade of a full reproduction of the MARS mapping
//! framework (Shen et al., DAC 2023).  It re-exports the workspace crates so
//! downstream users need a single dependency:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`model`]    | `mars-model`    | DNN workload IR and model zoo (AlexNet … WRN-50-2, heterogeneous models) |
//! | [`accel`]    | `mars-accel`    | Accelerator design catalogue and analytical performance models (Table II) |
//! | [`topology`] | `mars-topology` | Multi-accelerator platform graph `G(Acc, BW)` and presets (F1, H2H) |
//! | [`comm`]     | `mars-comm`     | Collective-communication simulator (ASTRA-Sim substitute) |
//! | [`parallel`] | `mars-parallel` | ES/SS parallelism strategies, shard algebra and per-layer evaluation |
//! | [`core`]     | `mars-core`     | Two-level genetic mapping search, baselines, reports, ablations |
//! | [`serve`]    | `mars-serve`    | Online serving simulator: SLA-aware dynamic batching over co-schedule placements |
//! | [`runtime`]  | `mars-runtime`  | Elastic runtime: drift monitor, warm-started online re-scheduling, migration cost model, epoch-style failure recovery |
//! | [`obs`]      | `mars-obs`      | Deterministic observability: counters/gauges/histograms, sim-time trace spans, metrics-JSON and Perfetto exporters |
//!
//! ## Quickstart
//!
//! The [`quickstart`] function is the one-call entry point: a fast-budget
//! search with an explicit worker-thread knob (`0` = all available cores;
//! the outcome is bit-identical for every thread count).
//!
//! ```no_run
//! use mars::prelude::*;
//!
//! let net = mars::model::zoo::resnet34(1000);
//! let topo = mars::topology::presets::f1_16xlarge();
//! let catalog = Catalog::standard_three();
//!
//! let baseline = mars::core::baseline::computation_prioritized(&net, &topo, &catalog);
//! let result = mars::quickstart(&net, &topo, &catalog, 42, 0);
//!
//! println!("baseline: {:.2} ms", baseline.latency_ms());
//! println!("MARS:     {:.2} ms", result.latency_ms());
//! println!(
//!     "search:   {:.2} s at {:.0} evals/s",
//!     result.elapsed.as_secs_f64(),
//!     result.evals_per_second()
//! );
//! println!("{}", mars::core::report::render(&net, &result.mapping));
//! ```
//!
//! For full control (budgets, engines, fixed-design policies, recorders,
//! custom thread counts) build a [`core::Mars`] search with a
//! [`core::SearchConfig`]; [`co_schedule`] takes a
//! [`core::CoScheduleConfig`] the same way:
//!
//! ```no_run
//! use mars::prelude::*;
//!
//! let net = mars::model::zoo::resnet34(1000);
//! let topo = mars::topology::presets::f1_16xlarge();
//! let catalog = Catalog::standard_three();
//!
//! let result = Mars::new(&net, &topo, &catalog)
//!     .with_config(SearchConfig::standard(42).with_threads(0))
//!     .search();
//! println!(
//!     "{} evals, {:.0}% per-layer term hits",
//!     result.stats.evaluations,
//!     100.0 * result.stats.term_table.hit_rate()
//! );
//! ```
//!
//! ## Multi-workload co-scheduling
//!
//! [`co_schedule`] places *several* networks on disjoint accelerator
//! partitions of one platform at once: an outer search over partitions wraps
//! the per-network search inside each partition and minimises the weighted
//! makespan.  Bundled workload mixes live in [`model::zoo::MixZoo`].
//!
//! ## Online serving
//!
//! [`serve`] replays a seeded request-arrival trace against a co-schedule's
//! placements with SLA-aware dynamic batching
//! ([`serve::simulate_sharded_with_faults`], called once per
//! [`serve::DispatchPolicy`] to compare them), producing tail-latency,
//! goodput and utilisation figures — see [`serve::Trace`].  LLM lanes
//! ([`serve::simulate_llm_sharded`]) run on the same event engine.
//! Every whole-run replay splits its lanes across the `MARS_THREADS` pool
//! and is bit-identical to one [`serve::SimState`] run.  Bundled traffic
//! profiles live on [`model::zoo::MixZoo::traffic`].
//!
//! ## Elastic serving
//!
//! [`runtime`] closes the loop for *non-stationary* traffic
//! ([`model::PhasedTraffic`], bundled per mix on
//! [`model::zoo::MixZoo::phased_traffic`]): a drift monitor watches the
//! live stream, re-schedules run [`co_schedule`] warm-started from the
//! incumbent, and a migration cost model prices every placement change
//! before it activates — see [`runtime::run_elastic_with_cache`] and
//! [`runtime::RuntimePolicy`].
//!
//! ## Fault tolerance
//!
//! Scenarios can also inject platform faults ([`model::FaultEvent`]:
//! accelerator failures, restores, link degradation — bundled per mix on
//! [`model::zoo::MixZoo::failure_scenario`]).  The runtime treats a
//! topology change as an epoch transition: in-flight work on the dead
//! accelerator is revoked per [`serve::FaultPolicy`], the co-scheduler
//! re-plans on the surviving sub-topology, and every applied change stamps
//! a monotonically increasing [`runtime::ReconfigureEvent::epoch`].
//!
//! ## Observability
//!
//! Every layer accepts an [`obs::Recorder`]: the search streams convergence
//! series and cache-hit counters ([`core::Mars::with_recorder`]), the
//! serving replays stream batch spans, queue histograms and fault instants
//! ([`serve::simulate_sharded_observed`], or
//! [`serve::SimState::with_recorder`] for one engine plus its calendar
//! metrics), and the elastic runtime records its drift-monitor windows and
//! trigger→re-plan→migrate timeline ([`runtime::run_elastic_observed`]).
//! All recorded quantities derive from simulation clocks and deterministic
//! counters, so an instrumented run is bit-identical to an uninstrumented
//! one; [`obs::metrics_json`] and [`obs::chrome_trace_json`] (loadable in
//! Perfetto) export the collected [`obs::Obs`].  The default
//! [`obs::Recorder::disabled`] compiles every record call down to a null
//! check.
//!
//! The `examples/` directory contains runnable versions of these flows
//! (`quickstart`, `resnet_on_f1`, `hetero_bandwidth_sweep`,
//! `custom_accelerator`, `co_schedule`, `serve`, `elastic`, `failover`),
//! and the `mars-bench` crate regenerates every table and figure of the
//! paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use mars_accel as accel;
pub use mars_comm as comm;
pub use mars_core as core;
pub use mars_model as model;
pub use mars_obs as obs;
pub use mars_parallel as parallel;
pub use mars_runtime as runtime;
pub use mars_serve as serve;
pub use mars_topology as topology;

/// Runs a fast-budget MARS search for `net` on `topo` over the designs in
/// `catalog`, running each generation's new second-level searches on
/// `threads` worker threads (`0` = ask the OS, `1` = serial).
///
/// This is the one-call entry point the quickstart example builds on.  The
/// result is bit-identical for every `threads` value — parallelism only
/// changes how fast the answer arrives, never which answer it is — and
/// records its wall-clock time and evaluation throughput.
///
/// ```
/// use mars::prelude::*;
///
/// let net = mars::model::zoo::alexnet(1000);
/// let topo = mars::topology::presets::f1_16xlarge();
/// let catalog = Catalog::standard_three();
///
/// let result = mars::quickstart(&net, &topo, &catalog, 42, 2);
/// assert!(result.mapping.is_valid());
/// assert!(result.latency_ms() > 0.0);
/// assert!(result.evals_per_second() > 0.0);
/// ```
pub fn quickstart(
    net: &model::Network,
    topo: &topology::Topology,
    catalog: &accel::Catalog,
    seed: u64,
    threads: usize,
) -> core::SearchResult {
    core::Mars::new(net, topo, catalog)
        .with_config(core::SearchConfig::fast(seed).with_threads(threads))
        .search()
}

/// The multi-workload co-scheduler of `mars-core`, at the facade root.
///
/// [`core::sequential_exclusive`] computes its baseline (every workload alone
/// on the whole platform, back to back) and shares inner searches with
/// [`core::co_schedule_cached`] through one [`core::InnerSearchCache`].
///
/// ```no_run
/// use mars::prelude::*;
///
/// let workloads: Vec<Workload> = mars::model::zoo::MixZoo::ResNetSurf.entries();
/// let topo = mars::topology::presets::f1_16xlarge();
/// let catalog = Catalog::standard_three();
/// let config = CoScheduleConfig::fast(42);
///
/// let result = mars::co_schedule(&workloads, &topo, &catalog, &config).unwrap();
/// let sequential = mars::core::sequential_exclusive(
///     &workloads,
///     &topo,
///     &catalog,
///     &config,
///     &InnerSearchCache::new(),
/// )
/// .unwrap();
/// println!(
///     "{}",
///     mars::core::report::render_co_schedule(&workloads, &result, &sequential)
/// );
/// assert!(sequential.speedup_of(&result) > 1.0);
/// ```
pub use mars_core::co_schedule;

/// Commonly used types, importable with `use mars::prelude::*`.
pub mod prelude {
    pub use mars_accel::{AccelDesign, Catalog, DesignId, PerformanceModel, ProfileTable};
    pub use mars_comm::CommSim;
    pub use mars_core::{
        Assignment, CoScheduleConfig, CoScheduleResult, DesignPolicy, EvalStats, Evaluator,
        GaConfig, InnerSearchCache, Mapping, Mars, Placement, SearchConfig, SearchResult,
        SequentialBaseline, Workload,
    };
    pub use mars_model::{
        ConvParams, Dim, DimSet, FaultEvent, FaultKind, FeatureMap, Layer, LayerId, LayerKind,
        LoopNest, Network, PhasedTraffic, TrafficPhase, TrafficProfile,
    };
    pub use mars_obs::{Obs, Recorder};
    pub use mars_parallel::{evaluate_layer, EvalContext, LayerEval, ShardPlan, Strategy};
    pub use mars_runtime::{run_elastic_with_cache, ElasticReport, RuntimeConfig, RuntimePolicy};
    pub use mars_serve::{DispatchPolicy, FaultPolicy, ServeConfig, ServeReport, SimState, Trace};
    pub use mars_topology::{AccelId, Gbps, Topology, TopologyBuilder};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile_and_are_usable() {
        use crate::prelude::*;
        let catalog = Catalog::standard_three();
        assert_eq!(catalog.len(), 3);
        let topo = crate::topology::presets::f1_16xlarge();
        assert_eq!(topo.len(), 8);
        let net = crate::model::zoo::alexnet(10);
        assert_eq!(net.conv_layers().count(), 5);
        let s = Strategy::none();
        assert!(s.is_none());
        let cfg = SearchConfig::fast(1).with_threads(2);
        assert_eq!(cfg.threads(), 2);
        assert_eq!(EvalStats::default().cache_hits(), 0);
        let r = Recorder::enabled();
        r.counter("x", 2);
        assert_eq!(r.snapshot().counter_value("x"), 2);
        assert!(Recorder::disabled().snapshot().is_empty());
    }
}
