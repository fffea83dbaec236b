//! # mars-core
//!
//! The MARS mapping algorithm (Section V of the paper): a two-level genetic
//! algorithm with heuristics that selects accelerator sets, their designs, the
//! contiguous layer ranges mapped to them, and per-layer ES/SS parallelism
//! strategies, so that end-to-end inference latency on an adaptive
//! multi-accelerator system is minimised.
//!
//! The crate also contains everything needed to *measure* a mapping and to
//! compare against the paper's reference points:
//!
//! * [`Evaluator`] — turns a [`Mapping`] into a latency in seconds by combining
//!   the analytical accelerator models (`mars-accel`), the ES/SS shard
//!   evaluator (`mars-parallel`) and the collective-communication simulator
//!   (`mars-comm`), including inter-set transfers and DRAM validity checks.
//! * [`Mars`] — the two-level genetic search itself.
//! * [`baseline`] — the computation-prioritised baseline of Section VI-A
//!   (extended Herald) and the H2H-like layer-to-accelerator mapper of
//!   Section VI-C.
//! * [`ablation`] — single-level GA and random-search variants used to justify
//!   the two-level design.
//! * [`report`] — the human-readable "Mapping found by MARS" summaries of
//!   Table III.
//! * [`co_schedule`] — multi-DNN co-scheduling: partitions the platform into
//!   disjoint accelerator subsets and runs one inner search per workload,
//!   optimising the system-level weighted makespan.
//!
//! ```no_run
//! use mars_accel::Catalog;
//! use mars_core::{Mars, SearchConfig};
//! use mars_model::zoo;
//! use mars_topology::presets;
//!
//! let net = zoo::resnet34(1000);
//! let topo = presets::f1_16xlarge();
//! let catalog = Catalog::standard_three();
//!
//! let result = Mars::new(&net, &topo, &catalog)
//!     .with_config(SearchConfig::fast(42))
//!     .search();
//! println!("latency: {:.3} ms", result.mapping.latency_seconds * 1e3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ablation;
pub mod baseline;
mod evaluator;
mod ga;
mod genome;
mod mapper;
mod mapping;
mod memo;
pub mod report;
mod scheduler;

pub use evaluator::{DesignPolicy, Evaluator};
pub use ga::{genome_stream_seed, GaConfig, GaOutcome, GeneticAlgorithm};
pub use genome::{FirstLevelGenome, SecondLevelGenome};
pub use mapper::{EvalStats, Mars, SearchConfig, SearchEngine, SearchResult};
pub use mapping::{Assignment, Mapping};
pub use scheduler::{
    co_schedule, co_schedule_cached, sequential_exclusive, CoScheduleConfig, CoScheduleError,
    CoScheduleResult, InnerSearchCache, Placement, SequentialBaseline, WarmStart, Workload,
};
