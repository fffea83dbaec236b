//! # mars-obs
//!
//! Deterministic observability for the MARS reproduction: counters, peak
//! gauges, fixed-bucket log-scale histograms, sim-time series and
//! span-style trace events, with flat-JSON and Chrome trace-event
//! exporters.
//!
//! The layer's defining property is that **instrumentation never perturbs
//! results**: every recorded quantity derives from simulation clocks and
//! deterministic counters (wall time is quarantined in an explicitly
//! nondeterministic section, [`Recorder::wall_seconds`]), a disabled
//! [`Recorder`] — the default — compiles to an inlineable null check on the
//! hot paths, and parallel shards record into local stores that merge
//! bit-identically for any shard grouping (merge, then
//! [`Obs::canonicalize`]).  Instrumented runs of the search, serving and
//! elastic-runtime engines are bit-identical to uninstrumented ones, and
//! merged metrics are bit-identical across `MARS_THREADS` values — the
//! workspace's observability determinism suite pins both.
//!
//! The enabled path is allocation-light.  A metric key is allocated the
//! first time it is seen, and span and instant tracks and names are interned
//! in one string table per store, so a [`Span`] or [`Instant`] is a `Copy`
//! record of two `u32` ids and its times; snapshots, merges and shard
//! hand-offs copy plain data.  Both exporters read the store in place, sort
//! only packed integer keys of the span and instant records (time, then
//! string rank), and write every event straight into one pre-sized byte
//! buffer, checked as UTF-8 once.  Numbers keep the exact bytes `{}` gives
//! them but skip the
//! formatting machinery: integral values below 2^53 print as integers, and
//! other values take Ryū's shortest round-trip digits, with multiplier
//! tables computed at compile time and exact ties rounded up as `{}` does.
//!
//! ```
//! use mars_obs::{chrome_trace_json, metrics_json, Recorder};
//!
//! let rec = Recorder::enabled();
//! // Quantities derive from the *simulation* clock, never wall time.
//! rec.counter("serve/dispatches", 1);
//! rec.observe("serve/batch_size", 4.0);
//! rec.span("lane/0", "batch(4)", 0.010, 0.014);
//!
//! let obs = rec.snapshot();
//! let metrics = metrics_json(&obs);       // flat, machine-diffable
//! let trace = chrome_trace_json(&obs);    // open in Perfetto
//! assert!(metrics.contains("serve/batch_size"));
//! assert!(trace.contains("\"ph\": \"X\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod export;
mod hist;
mod num;
mod recorder;
mod store;

pub use export::{chrome_trace_json, metrics_json};
pub use recorder::Recorder;
pub use store::{Instant, Obs, Span};
