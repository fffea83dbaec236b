//! # mars-parallel
//!
//! Parallelism strategies for multi-accelerator systems (Section IV of the
//! paper): the exclusive-shard / shared-shard (ES/SS) representation, the
//! shard algebra that turns a strategy into per-accelerator work and tensor
//! footprints, and the per-layer latency evaluator that combines an
//! accelerator performance model with the collective-communication simulator.
//!
//! * [`Strategy`] — "annotate dimensions with ES and SS": a set of exclusive
//!   dimensions plus an optional shared dimension.
//! * [`paper_strategies`] and [`all_strategies`] — the candidate spaces
//!   discussed in the paper (15 two-dim ES choices, plus the SS variants).
//! * [`ShardPlan`] — how a concrete strategy maps onto `p` accelerators:
//!   balanced factorisation of `p` over the ES dimensions, ring phases for the
//!   SS dimension, per-accelerator loop nest and tensor shard sizes, and the
//!   collectives the strategy requires.
//! * [`evaluate_layer`] — latency of one convolution layer on one accelerator
//!   set under one strategy: per-phase compute from the analytical accelerator
//!   model, All-Reduce for partitioned reduction dimensions, ring-shift
//!   communication (overlapped with compute) for the shared dimension, and a
//!   DRAM-capacity validity check.
//!
//! The crate also hosts the concurrency primitives the genetic search runs
//! on — they live here (rather than in `mars-core`) because they are generic,
//! std-only and reusable by any crate in the workspace:
//!
//! * [`scoped_map`] — a scoped-thread worker pool that fans independent
//!   evaluations out over N threads with dynamic work stealing and
//!   order-preserving results.
//! * [`ShardedCache`] and [`OnceCache`] — N-way sharded concurrent memo
//!   caches that replace a single global `Mutex<HashMap>` so concurrent
//!   genome evaluations don't serialise on one lock.
//!
//! ```
//! use mars_accel::Catalog;
//! use mars_comm::CommSim;
//! use mars_model::{ConvParams, Dim, DimSet};
//! use mars_parallel::{evaluate_layer, EvalContext, Strategy};
//! use mars_topology::presets;
//!
//! let topo = presets::f1_16xlarge();
//! let sim = CommSim::new(&topo);
//! let catalog = Catalog::standard_three();
//! let group = topo.group_members(0);
//! let ctx = EvalContext::new(catalog.model(mars_accel::DesignId(0)), &sim, &group);
//!
//! let conv = ConvParams::new(256, 256, 28, 28, 3, 1);
//! let seq = evaluate_layer(&conv, &Strategy::none(), &ctx);
//! let par = evaluate_layer(
//!     &conv,
//!     &Strategy::exclusive(DimSet::from_dims([Dim::H, Dim::W])),
//!     &ctx,
//! );
//! // Partitioning H and W over the four accelerators is faster than running
//! // the layer on a single accelerator of the set.
//! assert!(par.total_seconds() < seq.total_seconds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cache;
mod enumerate;
mod eval;
mod pool;
mod shard;
mod strategy;

pub use cache::{CacheStats, OnceCache, ShardedCache};
pub use enumerate::{all_strategies, paper_strategies, StrategySpace};
pub use eval::{evaluate_layer, evaluate_non_conv, EvalContext, LayerEval};
pub use pool::{resolve_threads, scoped_map, threads_from_env};
pub use shard::ShardPlan;
pub use strategy::{Strategy, StrategyError, MAX_ES_DIMS};
