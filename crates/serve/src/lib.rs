//! # mars-serve
//!
//! Deterministic online serving on top of a MARS co-schedule: replay a
//! seeded request-arrival [`Trace`] against a
//! [`CoScheduleResult`](mars_core::CoScheduleResult)'s placements with
//! SLA-aware dynamic batching, and measure what the offline makespan never
//! shows — tail latency, goodput and per-accelerator utilisation under a
//! live request stream.
//!
//! The co-scheduler answers *where* each workload runs (a disjoint
//! accelerator partition with a searched mapping); this crate answers *how
//! it holds up* when requests actually arrive: each workload's requests
//! queue in a batcher, a [`DispatchPolicy`] decides when an accumulated
//! batch launches on the partition, and the partition executes it under the
//! same per-placement latency model the co-scheduler optimised.
//!
//! Everything is a pure function of `(trace, placements, config)`: the
//! trace is drawn once from the workspace's seeded RNG shim, the event loop
//! consumes no wall clock and no global state, and the resulting
//! [`ServeReport`] is bit-identical across `MARS_THREADS` values and repeat
//! runs — the same determinism contract as every other MARS subsystem.
//!
//! CNN batching lanes ([`SimState`]) and LLM continuous-batching lanes
//! ([`LlmSimState`]) run on one resumable event engine: each lane says when
//! it next acts, a calendar queue holds one wake event per lane, and
//! `run_until` advances each due lane in one burst up to the bound.  Every
//! whole-run replay — [`simulate_sharded_with_faults`] for CNN placements,
//! [`simulate_llm_sharded`] for LLM lanes, and their `_observed` forms —
//! validates its input once (rejecting it with a [`ServeError`]) and runs
//! its lanes as shards on the `MARS_THREADS` pool, merged into a report
//! bit-identical to one engine's.
//!
//! The resumable [`SimState`] also supports *fault injection* for the
//! elastic runtime above: [`SimState::fail_accel`] revokes the dead lane's
//! in-flight batch (its requests requeued or lost per [`FaultPolicy`]) and
//! blocks dispatch until [`SimState::restore_accel`]; the current down set
//! rides on every [`SimSnapshot`].
//!
//! ```no_run
//! use mars_accel::Catalog;
//! use mars_core::{co_schedule, CoScheduleConfig};
//! use mars_model::zoo::MixZoo;
//! use mars_serve::{
//!     render_serve, simulate_sharded_with_faults, DispatchPolicy, FaultPolicy, ServeConfig, Trace,
//! };
//! use mars_topology::presets;
//!
//! let mix = MixZoo::ClassicPair;
//! let workloads = mix.entries();
//! let topo = presets::f1_16xlarge();
//! let catalog = Catalog::standard_three();
//! let co = co_schedule(&workloads, &topo, &catalog, &CoScheduleConfig::fast(42)).unwrap();
//!
//! let profiles = mix.traffic();
//! let trace = Trace::poisson(&profiles, 1.0, 42).unwrap();
//! let config = ServeConfig::new(DispatchPolicy::EarliestDeadline);
//! let report =
//!     simulate_sharded_with_faults(&co, &profiles, &trace, &config, &[], FaultPolicy::default())
//!         .unwrap();
//! println!("{}", render_serve(&report));
//! assert!(report.goodput <= report.total_requests);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod arena;
pub mod calendar;
mod fleet;
mod lanes;
mod llm;
pub mod reference;
mod report;
mod sim;
mod trace;

pub use fleet::{fleet_co_schedule, simulate_sharded_observed, simulate_sharded_with_faults};
pub use llm::{
    simulate_llm_sharded, simulate_llm_sharded_observed, BatchingMode, LlmLaneStats,
    LlmServeReport, LlmSimState, LlmTrace,
};
pub use report::render_serve;
pub use sim::{
    BatchEvent, DispatchPolicy, FaultPolicy, LaneSnapshot, ServeConfig, ServeError, ServeReport,
    SimSnapshot, SimState, WorkloadServeStats,
};
pub use trace::Trace;

#[doc(hidden)]
pub mod testing {
    //! Test-support constructors shared by this crate's unit and
    //! integration tests.  Not part of the public API.

    use mars_core::CoScheduleResult;
    use mars_model::zoo::FleetSpec;
    use mars_model::PhasedTraffic;

    /// A synthetic co-schedule with no real search behind it: one placement
    /// per latency (seconds), two accelerators each, the given SLA weights —
    /// [`fleet_co_schedule`](crate::fleet_co_schedule) of a spec named
    /// `net0, net1, …` (it reads no traffic).
    pub fn synthetic_co(latencies: &[f64], weights: &[f64]) -> CoScheduleResult {
        crate::fleet_co_schedule(&FleetSpec {
            names: (0..latencies.len()).map(|w| format!("net{w}")).collect(),
            weights: weights.to_vec(),
            latencies_seconds: latencies.to_vec(),
            traffic: PhasedTraffic::new(0.0, Vec::new()),
        })
    }
}
