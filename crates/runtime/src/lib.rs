//! # mars-runtime
//!
//! The elastic runtime: drift-aware *online re-scheduling* on top of the
//! MARS stack.  Everything below this crate is adaptive only at design time
//! — `co_schedule` produces one placement and the serving simulator replays
//! traffic against it forever.  This crate closes the loop for the
//! non-stationary case (workloads surging, fading and departing, the
//! defining challenge of multi-DNN serving):
//!
//! * a drift monitor watches the live stream in fixed windows (SLA-miss
//!   rate, queue growth, per-accelerator imbalance) and fires deterministic
//!   triggers, each with a [`TriggerReason`];
//! * a re-schedule runs `co_schedule`
//!   [warm-started](mars_core::CoScheduleConfig::warm_start) from the
//!   incumbent placement through a shared
//!   [`InnerSearchCache`](mars_core::InnerSearchCache), with the workloads'
//!   SLA weights scaled by observed load;
//! * a [migration cost model](migration_cost) prices the switch (weight
//!   bytes over the [`Topology`](mars_topology::Topology)'s links via
//!   `mars-comm`, after draining in-flight batches) before the new placement
//!   activates;
//! * when the scenario injects [`FaultEvent`](mars_model::FaultEvent)s, the
//!   monitor's [`TriggerReason::TopologyChanged`] forces an *epoch-style
//!   recovery*: in-flight work on the dead accelerator is requeued
//!   ([`FaultPolicy::RequeueInflight`](mars_serve::FaultPolicy::RequeueInflight)),
//!   the co-scheduler re-plans on the surviving sub-topology
//!   ([`Topology::subtopology`](mars_topology::Topology::subtopology))
//!   through the same cache, and every applied change stamps a new
//!   monotonically increasing
//!   [`epoch`](ReconfigureEvent::epoch).
//!
//! [`run_elastic_with_cache`] compares three [`RuntimePolicy`]s — `Static`
//! (never re-schedule), `Reactive` (drift-triggered) and `Oracle`
//! (phase-boundary clairvoyant) — under the same trace; all three are
//! bit-identical across `MARS_THREADS` values and repeat runs, and runs that
//! share an [`InnerSearchCache`](mars_core::InnerSearchCache) share every
//! inner search, fault re-plans included.  [`run_elastic_observed`] is the same loop with a
//! [`Recorder`](mars_obs::Recorder) attached.
//!
//! ## Surviving a failure
//!
//! ```no_run
//! use mars_accel::Catalog;
//! use mars_core::InnerSearchCache;
//! use mars_model::zoo::MixZoo;
//! use mars_runtime::{run_elastic_with_cache, RuntimeConfig, RuntimePolicy};
//! use mars_serve::Trace;
//! use mars_topology::presets;
//!
//! // The bundled failure scenario: same phases as `phased_traffic()`, plus
//! // seeded accelerator failures and restores.
//! let mix = MixZoo::ClassicPair;
//! let scenario = mix.failure_scenario();
//! assert!(!scenario.faults.is_empty());
//! let trace = Trace::phased(&scenario, 42).unwrap();
//! let config = RuntimeConfig::new(mars_core::CoScheduleConfig::fast(42));
//! let report = run_elastic_with_cache(
//!     &mix.entries(),
//!     &presets::f1_16xlarge(),
//!     &Catalog::standard_three(),
//!     &scenario,
//!     &trace,
//!     RuntimePolicy::Reactive,
//!     &config,
//!     &InnerSearchCache::new(),
//! )
//! .unwrap();
//! println!("recovered through epoch {}", report.final_epoch());
//! ```
//!
//! ```no_run
//! use mars_accel::Catalog;
//! use mars_core::InnerSearchCache;
//! use mars_model::zoo::MixZoo;
//! use mars_runtime::{run_elastic_with_cache, RuntimeConfig, RuntimePolicy};
//! use mars_serve::Trace;
//! use mars_topology::presets;
//!
//! let mix = MixZoo::ClassicPair;
//! let workloads = mix.entries();
//! let scenario = mix.phased_traffic();
//! let trace = Trace::phased(&scenario, 42).unwrap();
//! let topo = presets::f1_16xlarge();
//! let catalog = Catalog::standard_three();
//! let config = RuntimeConfig::new(mars_core::CoScheduleConfig::fast(42));
//! let cache = InnerSearchCache::new();
//!
//! for policy in RuntimePolicy::ALL {
//!     let report = run_elastic_with_cache(
//!         &workloads, &topo, &catalog, &scenario, &trace, policy, &config, &cache,
//!     )
//!     .unwrap();
//!     println!(
//!         "{policy}: goodput {} of {} ({} re-placements)",
//!         report.serve.goodput,
//!         report.serve.total_requests,
//!         report.placements_changed()
//!     );
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod migrate;
mod monitor;
mod runtime;

pub use migrate::{migration_cost, MigrationCost};
pub use monitor::TriggerReason;
pub use runtime::{
    run_elastic_observed, run_elastic_with_cache, ElasticError, ElasticReport, ReconfigureEvent,
    RuntimeConfig, RuntimePolicy,
};
