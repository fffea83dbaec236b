//! Shared harness code for the MARS evaluation benchmarks.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures
//! (`table2`, `table3`, `table4`, `fig2_strategies`, `ablation_ga`); the
//! Criterion benches in `benches/` time the same workloads.  Everything they
//! share — row structures, search-budget selection, formatting — lives here so
//! the printed tables and the timed code paths are identical.
//!
//! Two environment variables tune every binary: `MARS_BUDGET` (`full` for the
//! paper-scale GA budgets, anything else for the fast CI budgets) and
//! `MARS_THREADS` (fitness-evaluation worker threads; `0`/unset = all cores,
//! `1` = serial — the mapping found is identical either way).
//!
//! Every row function takes a [`Recorder`] (pass [`Recorder::disabled`] to
//! record nothing); recording never changes a row, bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mars_accel::Catalog;
use mars_core::{
    baseline, co_schedule, co_schedule_cached, sequential_exclusive, CoScheduleConfig,
    CoScheduleResult, InnerSearchCache, Mapping, Mars, SearchConfig, SearchResult,
    SequentialBaseline, Workload,
};
use mars_model::zoo::{Benchmark, MixZoo};
use mars_model::{Network, PhasedTraffic, TrafficProfile};
use mars_obs::Recorder;
use mars_runtime::{run_elastic_observed, ElasticReport, RuntimeConfig, RuntimePolicy};
use mars_serve::{
    fleet_co_schedule, simulate_llm_sharded_observed, simulate_sharded_observed, BatchingMode,
    DispatchPolicy, FaultPolicy, LlmServeReport, LlmTrace, ServeConfig, ServeReport, SimState,
    Trace,
};
use mars_topology::{presets, Topology};
use std::time::Instant;

/// Search budget used by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Reduced GA budgets; finishes in seconds, used by `cargo bench` and CI.
    Fast,
    /// The paper-scale budgets: [`SearchConfig::standard`] and
    /// [`CoScheduleConfig::standard`].
    Full,
}

impl Budget {
    /// Reads the budget from the `MARS_BUDGET` environment variable
    /// (`full` selects [`Budget::Full`]; anything else is [`Budget::Fast`]).
    pub fn from_env() -> Self {
        match std::env::var("MARS_BUDGET").as_deref() {
            Ok("full") | Ok("FULL") => Budget::Full,
            _ => Budget::Fast,
        }
    }

    /// The search configuration for this budget, with the worker-thread knob
    /// taken from [`threads_from_env`].
    pub fn search_config(self, seed: u64) -> SearchConfig {
        let config = match self {
            Budget::Fast => SearchConfig::fast(seed),
            Budget::Full => SearchConfig::standard(seed),
        };
        config.with_threads(threads_from_env())
    }

    /// The co-schedule configuration for this budget, with the worker-thread
    /// knob taken from [`threads_from_env`].
    pub fn co_schedule_config(self, seed: u64) -> CoScheduleConfig {
        let config = match self {
            Budget::Fast => CoScheduleConfig::fast(seed),
            Budget::Full => CoScheduleConfig::standard(seed),
        };
        config.with_threads(threads_from_env())
    }
}

/// Re-export of [`mars_parallel::threads_from_env`]: the `MARS_THREADS`
/// worker-thread knob (`0` or unset/unparsable = all available cores,
/// `1` = serial).  The searched mapping is bit-identical for every value;
/// only the search time changes.
pub use mars_parallel::threads_from_env;

/// One row of the Table III reproduction.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark network.
    pub benchmark: Benchmark,
    /// Number of convolution layers in the constructed graph.
    pub convs: usize,
    /// Parameter count in millions.
    pub params_m: f64,
    /// MAC count in GMACs.
    pub flops_g: f64,
    /// Baseline latency in milliseconds.
    pub baseline_ms: f64,
    /// MARS latency in milliseconds.
    pub mars_ms: f64,
    /// Wall-clock time of the MARS search in seconds.
    pub search_s: f64,
    /// First-level fitness evaluations per second of search time.
    pub evals_per_s: f64,
    /// The MARS mapping (for the report column).
    pub mapping: Mapping,
}

impl Table3Row {
    /// Latency reduction relative to the baseline, in percent.
    pub fn reduction_percent(&self) -> f64 {
        100.0 * (1.0 - self.mars_ms / self.baseline_ms)
    }
}

/// Runs one Table III row: baseline and MARS on the F1-style platform, with
/// `recorder` attached to the MARS search (per-generation convergence
/// series, evaluation counters and cache-hit splits).
pub fn table3_row(
    benchmark: Benchmark,
    budget: Budget,
    seed: u64,
    recorder: &Recorder,
) -> Table3Row {
    let net = benchmark.build();
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let baseline = baseline::computation_prioritized(&net, &topo, &catalog);
    let result = Mars::new(&net, &topo, &catalog)
        .with_config(budget.search_config(seed))
        .with_recorder(recorder.clone())
        .search();
    Table3Row {
        benchmark,
        convs: net.conv_layers().count(),
        params_m: net.total_params() as f64 / 1e6,
        flops_g: net.total_macs() as f64 / 1e9,
        baseline_ms: baseline.latency_ms(),
        mars_ms: result.latency_ms(),
        search_s: result.elapsed.as_secs_f64(),
        evals_per_s: result.evals_per_second(),
        mapping: result.mapping,
    }
}

/// One row of the Table IV reproduction.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Bandwidth level label (`Low-(1Gbps)` …).
    pub label: &'static str,
    /// Bandwidth in Gbps.
    pub gbps: f64,
    /// H2H-like mapper latency in milliseconds.
    pub h2h_ms: f64,
    /// MARS latency in milliseconds.
    pub mars_ms: f64,
}

impl Table4Row {
    /// Latency reduction relative to the H2H-like mapper, in percent.
    pub fn reduction_percent(&self) -> f64 {
        100.0 * (1.0 - self.mars_ms / self.h2h_ms)
    }
}

/// Runs the Table IV sweep for one heterogeneous model: five bandwidth levels,
/// H2H-like mapper vs MARS with fixed heterogeneous designs, with `recorder`
/// attached to every MARS search (the five levels run sequentially, so the
/// recorded series are deterministic).
pub fn table4_rows(
    net: &Network,
    budget: Budget,
    seed: u64,
    recorder: &Recorder,
) -> Vec<Table4Row> {
    let catalog = Catalog::h2h_heterogeneous();
    presets::h2h_bandwidth_levels()
        .into_iter()
        .map(|(label, gbps)| {
            let topo = presets::h2h_cloud(gbps);
            let designs = baseline::default_fixed_designs(&topo, &catalog);
            let h2h = baseline::h2h_like(net, &topo, &catalog, &designs);
            let mars = Mars::new(net, &topo, &catalog)
                .with_fixed_designs(designs)
                .with_config(budget.search_config(seed))
                .with_recorder(recorder.clone())
                .search();
            Table4Row {
                label,
                gbps,
                h2h_ms: h2h.latency_ms(),
                mars_ms: mars.latency_ms(),
            }
        })
        .collect()
}

/// One row of the multi-workload co-scheduling comparison (`table_multi`).
#[derive(Debug, Clone)]
pub struct MultiRow {
    /// The workload mix.
    pub mix: MixZoo,
    /// The workloads the co-schedule was computed from.
    pub workloads: Vec<Workload>,
    /// The full co-schedule outcome.
    pub result: CoScheduleResult,
    /// The sequential-exclusive baseline of the same workloads.
    pub sequential: SequentialBaseline,
}

impl MultiRow {
    /// Latency reduction of co-scheduling relative to sequential-exclusive
    /// execution, in percent.
    pub fn reduction_percent(&self) -> f64 {
        100.0 * (1.0 - self.result.makespan_seconds / self.sequential.makespan_seconds)
    }

    /// How much faster the co-schedule finishes than the baseline.
    pub fn speedup(&self) -> f64 {
        self.sequential.speedup_of(&self.result)
    }
}

/// Runs one `table_multi` row: co-scheduling the mix on the F1-style platform
/// versus running its workloads back to back on the whole platform.
pub fn table_multi_row(mix: MixZoo, budget: Budget, seed: u64) -> MultiRow {
    let workloads = mix.entries();
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let config = budget.co_schedule_config(seed);
    let cache = InnerSearchCache::new();
    let result = co_schedule_cached(&workloads, &topo, &catalog, &config, &cache)
        .expect("bundled mixes fit the F1 platform");
    let sequential = sequential_exclusive(&workloads, &topo, &catalog, &config, &cache)
        .expect("bundled mixes fit the F1 platform");
    MultiRow {
        mix,
        workloads,
        result,
        sequential,
    }
}

/// One row of the online-serving policy comparison (`table_serve`): the same
/// seeded request trace replayed against the mix's co-schedule placements
/// under every [`DispatchPolicy`].
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// The workload mix.
    pub mix: MixZoo,
    /// The traffic profiles the trace was drawn from.
    pub profiles: Vec<TrafficProfile>,
    /// The co-schedule the requests were served on.
    pub co: CoScheduleResult,
    /// The replayed trace (shared by every policy).
    pub trace: Trace,
    /// One report per policy, in [`DispatchPolicy::ALL`] order.
    pub reports: Vec<ServeReport>,
}

impl ServeRow {
    /// The report of `policy`.
    ///
    /// # Panics
    /// Panics if `policy` is somehow missing from the row (it never is: rows
    /// always carry all of [`DispatchPolicy::ALL`]).
    pub fn report(&self, policy: DispatchPolicy) -> &ServeReport {
        self.reports
            .iter()
            .find(|r| r.policy == policy)
            .expect("rows carry every policy")
    }

    /// Goodput of the best SLA-aware policy (EDF or SLA-weighted) divided by
    /// FIFO's goodput — the headline "does deadline awareness pay" figure
    /// (`0.0` when FIFO's goodput is zero and the aware policies' is too;
    /// `f64::INFINITY` when only FIFO's is zero).
    pub fn sla_aware_goodput_gain(&self) -> f64 {
        let fifo = self.report(DispatchPolicy::Fifo).goodput;
        let best = self
            .report(DispatchPolicy::EarliestDeadline)
            .goodput
            .max(self.report(DispatchPolicy::SlaWeighted).goodput);
        if fifo > 0 {
            best as f64 / fifo as f64
        } else if best > 0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

/// Runs one `table_serve` row: co-schedules the mix (same platform, catalog
/// and seed conventions as [`table_multi_row`]), draws a one-second seeded
/// Poisson trace from the mix's bundled [`MixZoo::traffic`] profile, and
/// replays it under every dispatch policy.
///
/// Each policy replays on one [`SimState`] (so the engine-level calendar
/// metrics are recorded too), with `recorder` on the *default-policy* replay
/// only: recording every policy would overlay the replays of one trace on
/// the same tracks and histograms, which is noise, not signal.
pub fn table_serve_row(mix: MixZoo, budget: Budget, seed: u64, recorder: &Recorder) -> ServeRow {
    let co = co_schedule(
        &mix.entries(),
        &presets::f1_16xlarge(),
        &Catalog::standard_three(),
        &budget.co_schedule_config(seed),
    )
    .expect("bundled mixes fit the F1 platform");
    let profiles = mix.traffic();
    let trace = Trace::poisson(&profiles, 1.0, seed).expect("bundled traffic is bounded");
    let base = ServeConfig::default();
    let reports = DispatchPolicy::ALL
        .into_iter()
        .map(|policy| {
            let config = ServeConfig { policy, ..base };
            SimState::new(&co, &profiles, &trace, &config)
                .expect("bundled profiles and placements are valid")
                .with_recorder(arm_recorder(policy == base.policy, recorder))
                .finish()
        })
        .collect();
    ServeRow {
        mix,
        profiles,
        co,
        trace,
        reports,
    }
}

/// One row of the fleet-scale engine benchmark (`table_fleet`): the
/// 144-workload, 288-accelerator [`MixZoo::fleet`] scenario — phased traffic
/// plus its bundled failure schedule — served under every dispatch policy,
/// and a timed event-by-event drive of the calendar-queue engine
/// ([`SimState::step`] until exhaustion): next-event extraction is the
/// operation a fleet-scale discrete-event simulator performs tens of
/// thousands of times per run.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Number of workloads (= serving lanes) in the fleet.
    pub workloads: usize,
    /// Number of accelerators across all (disjoint) partitions.
    pub accels: usize,
    /// The replayed phased trace (shared by every policy and the timed
    /// drive).
    pub trace: Trace,
    /// One faulted, sharded report per policy, in [`DispatchPolicy::ALL`]
    /// order.
    pub reports: Vec<ServeReport>,
    /// Simulation events in the timed drive: every request arrival plus
    /// every dispatched batch.
    pub events: usize,
    /// Batches the timed drive dispatched (`events` minus the arrivals).
    pub batches: usize,
    /// Wall-clock seconds of the timed drive.
    pub calendar_seconds: f64,
}

impl FleetRow {
    /// The report of `policy`.
    ///
    /// # Panics
    /// Panics if `policy` is somehow missing from the row (it never is: rows
    /// always carry all of [`DispatchPolicy::ALL`]).
    pub fn report(&self, policy: DispatchPolicy) -> &ServeReport {
        self.reports
            .iter()
            .find(|r| r.policy == policy)
            .expect("rows carry every policy")
    }

    /// Events per wall-clock second of the timed drive — the `perf_smoke`
    /// `events_per_second` headline.
    pub fn events_per_second(&self) -> f64 {
        self.events as f64 / self.calendar_seconds.max(1e-12)
    }
}

/// Runs one `table_fleet` row at `seed`: builds the [`MixZoo::fleet`]
/// scenario's synthetic co-schedule, replays its seeded phased trace with
/// the bundled failure schedule under every dispatch policy (on the
/// lane-shard runner), then times the unfaulted default-policy trace
/// through [`SimState::step`] to exhaustion.
///
/// `recorder` is attached to the *default-policy* faulted replay: batch
/// spans per lane, queue/batch-size histograms, per-accelerator busy gauges
/// and fault instants stream into it.  The timed drive always runs
/// unobserved so its wall clock measures the engine, not the recording.
pub fn table_fleet_row(seed: u64, recorder: &Recorder) -> FleetRow {
    let fleet = MixZoo::fleet();
    let co = fleet_co_schedule(&fleet);
    let profiles = fleet.traffic.phases[0].profiles.clone();
    let trace = Trace::phased(&fleet.traffic, seed).expect("bundled fleet scenario is valid");
    let accels = co.placements.iter().map(|p| p.accels.len()).sum();
    let faults = &fleet.traffic.faults;

    let default_policy = ServeConfig::default().policy;
    let reports: Vec<ServeReport> = DispatchPolicy::ALL
        .into_iter()
        .map(|policy| {
            simulate_sharded_observed(
                &co,
                &profiles,
                &trace,
                &ServeConfig::new(policy),
                faults,
                FaultPolicy::RequeueInflight,
                &arm_recorder(policy == default_policy, recorder),
            )
            .expect("valid fleet inputs")
        })
        .collect();

    let t = Instant::now();
    let mut sim =
        SimState::new(&co, &profiles, &trace, &ServeConfig::default()).expect("valid fleet inputs");
    let mut batches = 0usize;
    while sim.step().is_some() {
        batches += 1;
    }
    let report = sim.finish();
    let calendar_seconds = t.elapsed().as_secs_f64();

    FleetRow {
        workloads: co.placements.len(),
        accels,
        trace,
        reports,
        events: report.total_requests + batches,
        batches,
        calendar_seconds,
    }
}

/// One row of the LLM serving comparison (`table_llm`): the bundled
/// [`llm_mix`](mars_model::zoo::llm_mix) scenario — autoregressive
/// transformer workloads with compute-bound prefill and bandwidth-bound
/// decode phases — replayed under both [`BatchingMode`]s on the lane-sharded
/// runner, with each run timed.
///
/// Continuous batching is the treatment, one-shot static batching the
/// control: same trace, same KV budgets, same slots.  The gap is pure
/// scheduling — iteration-level re-forming of the batch keeps decode slots
/// full and admits waiting requests the moment memory frees up.
#[derive(Debug, Clone)]
pub struct LlmRow {
    /// Number of LLM workloads (= serving lanes).
    pub workloads: usize,
    /// The replayed trace (shared by both modes).
    pub trace: LlmTrace,
    /// One report per mode, in [`BatchingMode::ALL`] order (one-shot first).
    pub reports: Vec<LlmServeReport>,
    /// Wall-clock seconds per mode, same order.
    pub wall_seconds: Vec<f64>,
}

impl LlmRow {
    /// The report of `mode`.
    ///
    /// # Panics
    /// Panics if `mode` is somehow missing from the row (it never is: rows
    /// always carry all of [`BatchingMode::ALL`]).
    pub fn report(&self, mode: BatchingMode) -> &LlmServeReport {
        self.reports
            .iter()
            .find(|r| r.mode == mode)
            .expect("rows carry every mode")
    }

    /// Continuous-batching goodput over one-shot goodput — the acceptance
    /// figure (must exceed 1 on the bundled mix).
    pub fn continuous_goodput_gain(&self) -> f64 {
        let one_shot = self.report(BatchingMode::OneShot).goodput.max(1);
        self.report(BatchingMode::Continuous).goodput as f64 / one_shot as f64
    }
}

/// Runs one `table_llm` row at `seed`: draws the
/// [`llm_mix`](mars_model::zoo::llm_mix) trace (arrivals, token shapes,
/// phase-stamped deadlines) and replays it under one-shot and continuous
/// batching on the lane-shard runner, timing each replay.
///
/// `recorder` is attached to the *continuous-batching* replay (the
/// treatment arm — its prefill/decode phase spans and KV-reservation series
/// are what the trace is for).
pub fn table_llm_row(seed: u64, recorder: &Recorder) -> LlmRow {
    let spec = mars_model::zoo::llm_mix();
    let trace = LlmTrace::draw(&spec, seed).expect("bundled LLM mix is valid");

    let mut reports = Vec::with_capacity(BatchingMode::ALL.len());
    let mut wall_seconds = Vec::with_capacity(BatchingMode::ALL.len());
    for mode in BatchingMode::ALL {
        let r = arm_recorder(mode == BatchingMode::Continuous, recorder);
        let t = Instant::now();
        let report =
            simulate_llm_sharded_observed(&spec, &trace, mode, &r).expect("valid LLM inputs");
        wall_seconds.push(t.elapsed().as_secs_f64());
        reports.push(report);
    }

    LlmRow {
        workloads: spec.workloads.len(),
        trace,
        reports,
        wall_seconds,
    }
}

/// One row of the elastic-runtime comparison (`table_elastic`): the same
/// phased (non-stationary) trace served under every [`RuntimePolicy`] —
/// `Static` (one offline placement forever), `Reactive` (drift-triggered
/// warm-started re-scheduling) and `Oracle` (phase-boundary clairvoyant).
#[derive(Debug, Clone)]
pub struct ElasticRow {
    /// The workload mix.
    pub mix: MixZoo,
    /// The non-stationary scenario the trace was drawn from.
    pub scenario: PhasedTraffic,
    /// The replayed trace (shared by every policy).
    pub trace: Trace,
    /// One report per policy, in [`RuntimePolicy::ALL`] order.
    pub reports: Vec<ElasticReport>,
}

impl ElasticRow {
    /// The report of `policy`.
    ///
    /// # Panics
    /// Panics if `policy` is somehow missing from the row (it never is: rows
    /// always carry all of [`RuntimePolicy::ALL`]).
    pub fn report(&self, policy: RuntimePolicy) -> &ElasticReport {
        self.reports
            .iter()
            .find(|r| r.policy == policy)
            .expect("rows carry every policy")
    }

    /// `policy`'s goodput divided by Static's (`0.0` when both are zero;
    /// [`f64::INFINITY`] when only Static's is zero).
    pub fn goodput_gain_over_static(&self, policy: RuntimePolicy) -> f64 {
        let s = self.report(RuntimePolicy::Static).serve.goodput;
        let p = self.report(policy).serve.goodput;
        if s > 0 {
            p as f64 / s as f64
        } else if p > 0 {
            f64::INFINITY
        } else {
            0.0
        }
    }

    /// Reactive goodput over Static goodput — the headline "does closing the
    /// loop pay" figure.
    pub fn reactive_vs_static_goodput_gain(&self) -> f64 {
        self.goodput_gain_over_static(RuntimePolicy::Reactive)
    }

    /// Oracle goodput over Static goodput — the ceiling a detector-based
    /// runtime is chasing.
    pub fn oracle_vs_static_goodput_gain(&self) -> f64 {
        self.goodput_gain_over_static(RuntimePolicy::Oracle)
    }
}

/// Runs one `table_elastic` row: draws the mix's bundled
/// [`MixZoo::phased_traffic`] trace at `seed` and runs the elastic runtime
/// under every policy on the F1-style platform (same platform/catalog
/// conventions as [`table_multi_row`]).  All three policies share one
/// [`InnerSearchCache`], fault re-plans on the survivors included, so the
/// initial co-schedule is searched once and every re-schedule pays only for
/// sub-platforms no earlier search covered.
///
/// `recorder` is attached to the *Reactive* run — the arm whose
/// drift-monitor windows and trigger → re-plan → migrate timeline the trace
/// exists to show.
pub fn table_elastic_row(
    mix: MixZoo,
    budget: Budget,
    seed: u64,
    recorder: &Recorder,
) -> ElasticRow {
    elastic_row_on(mix, mix.phased_traffic(), budget, seed, recorder)
}

/// Runs one `table_failover` row: like [`table_elastic_row`] but over the
/// mix's bundled [`MixZoo::failure_scenario`] — the same phased traffic plus
/// seeded accelerator failures, restores and link degradations.  The row
/// shape is identical (an [`ElasticRow`] with one report per policy), so all
/// the gain accessors apply; the headline here is
/// [`ElasticRow::reactive_vs_static_goodput_gain`] under *faults*: Static
/// keeps serving into a dead partition while Reactive re-plans onto the
/// survivors.  With `recorder` on the Reactive run, the fault instants land
/// on the `"faults"` track next to the recovery timeline.
pub fn table_failover_row(
    mix: MixZoo,
    budget: Budget,
    seed: u64,
    recorder: &Recorder,
) -> ElasticRow {
    elastic_row_on(mix, mix.failure_scenario(), budget, seed, recorder)
}

/// The shared body of the two elastic rows: runs every [`RuntimePolicy`] on
/// `scenario`'s trace, observing only the Reactive arm.
fn elastic_row_on(
    mix: MixZoo,
    scenario: PhasedTraffic,
    budget: Budget,
    seed: u64,
    recorder: &Recorder,
) -> ElasticRow {
    let workloads = mix.entries();
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let trace = Trace::phased(&scenario, seed).expect("bundled scenarios are valid");
    let config = RuntimeConfig::new(budget.co_schedule_config(seed));
    let cache = InnerSearchCache::new();
    let reports = RuntimePolicy::ALL
        .into_iter()
        .map(|policy| {
            let r = arm_recorder(policy == RuntimePolicy::Reactive, recorder);
            run_elastic_observed(
                &workloads, &topo, &catalog, &scenario, &trace, policy, &config, &cache, &r,
            )
            .expect("bundled scenarios fit the F1 platform")
        })
        .collect();
    ElasticRow {
        mix,
        scenario,
        trace,
        reports,
    }
}

/// `recorder` for the one arm of a row that records, a disabled recorder for
/// the others.
fn arm_recorder(records: bool, recorder: &Recorder) -> Recorder {
    if records {
        recorder.clone()
    } else {
        Recorder::disabled()
    }
}

/// Runs a single MARS search on the F1 platform with an explicit worker
/// count (used by the GA benches, the parallel-speedup bench and the
/// ablation harness).
pub fn run_mars(
    net: &Network,
    topo: &Topology,
    budget: Budget,
    seed: u64,
    threads: usize,
) -> SearchResult {
    let catalog = Catalog::standard_three();
    Mars::new(net, topo, &catalog)
        .with_config(budget.search_config(seed).with_threads(threads))
        .search()
}

/// Environment-resolved context shared by every table binary: the search
/// budget, the resolved worker-thread count, the observability output paths,
/// and the uniform header and throughput lines — so the `MARS_THREADS`
/// parsing, evals/s reporting and `--trace`/`--metrics` handling are written
/// once instead of per binary.
#[derive(Debug, Clone)]
pub struct BinContext {
    /// Search budget from `MARS_BUDGET`.
    pub budget: Budget,
    /// Resolved worker-thread count from `MARS_THREADS` (`0` already mapped
    /// to the machine's available parallelism).
    pub threads: usize,
    /// Chrome-trace-event (Perfetto) output path from `--trace <path>`
    /// (`None` = no trace requested).
    pub trace_path: Option<String>,
    /// Flat metrics-JSON output path from `--metrics <path>` (`None` = no
    /// metrics requested).
    pub metrics_path: Option<String>,
}

impl BinContext {
    /// Reads `MARS_BUDGET` and `MARS_THREADS` from the environment and the
    /// `--trace <path>` / `--metrics <path>` flags from the process
    /// arguments.  Unknown arguments are ignored (the binaries have no other
    /// CLI surface).
    pub fn from_env() -> Self {
        Self::from_env_and_args(std::env::args().skip(1))
    }

    /// [`from_env`](Self::from_env) with an explicit argument list (the
    /// environment variables are still read from the environment) — the
    /// testable core of the flag parsing.  Both `--trace p` and `--trace=p`
    /// spellings are accepted; the last occurrence of a flag wins.
    pub fn from_env_and_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut trace_path = None;
        let mut metrics_path = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--trace" {
                trace_path = args.next();
            } else if arg == "--metrics" {
                metrics_path = args.next();
            } else if let Some(p) = arg.strip_prefix("--trace=") {
                trace_path = Some(p.to_string());
            } else if let Some(p) = arg.strip_prefix("--metrics=") {
                metrics_path = Some(p.to_string());
            }
        }
        Self {
            budget: Budget::from_env(),
            threads: mars_parallel::resolve_threads(threads_from_env()),
            trace_path,
            metrics_path,
        }
    }

    /// The recorder a binary should thread through its rows: enabled iff an
    /// output path was requested, so un-flagged runs keep the no-op null
    /// check on every hot-path record call.
    pub fn recorder(&self) -> Recorder {
        if self.trace_path.is_some() || self.metrics_path.is_some() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Writes the recorder's collected observations to the requested output
    /// files — flat metrics JSON to `--metrics`, Chrome trace-event JSON
    /// (open in Perfetto) to `--trace` — printing one line per file.  A
    /// no-op when neither flag was given.
    ///
    /// # Panics
    ///
    /// Panics if an output file cannot be written; for a CLI flag pointing
    /// at a bad path, failing loudly beats silently dropping the export.
    pub fn export(&self, recorder: &Recorder) {
        if self.trace_path.is_none() && self.metrics_path.is_none() {
            return;
        }
        let obs = recorder.snapshot();
        if let Some(path) = &self.metrics_path {
            std::fs::write(path, mars_obs::metrics_json(&obs))
                .unwrap_or_else(|e| panic!("writing metrics JSON to {path}: {e}"));
            println!("wrote metrics JSON to {path}");
        }
        if let Some(path) = &self.trace_path {
            std::fs::write(path, mars_obs::chrome_trace_json(&obs))
                .unwrap_or_else(|e| panic!("writing Perfetto trace to {path}: {e}"));
            println!("wrote Perfetto trace to {path}");
        }
    }

    /// Prints the standard table header:
    /// `TITLE (Fast budget, N search threads)`.
    pub fn print_header(&self, title: &str) {
        println!(
            "{title} ({:?} budget, {} search threads)",
            self.budget, self.threads
        );
    }

    /// Prints a header for binaries whose workers are simulation shards, not
    /// search threads: `TITLE (N shard threads)`.
    pub fn print_shard_header(&self, title: &str) {
        println!("{title} ({} shard threads)", self.threads);
    }

    /// The uniform evaluation-throughput suffix, e.g.
    /// `(48 evaluations in 0.12 s, 400.0 evals/s)`.
    pub fn throughput_suffix(evaluations: usize, seconds: f64) -> String {
        format!(
            "({evaluations} evaluations in {seconds:.2} s, {:.1} evals/s)",
            evaluations as f64 / seconds.max(1e-12)
        )
    }
}

/// The perf-smoke gate: a machine-readable summary of the fast-budget
/// headline numbers plus the floor check CI fails on.
///
/// The summary and the committed `bench-baseline.json` floors are *flat*
/// JSON — string keys mapping to numbers (nested one level for grouping).
/// The workspace's serde shim has no JSON layer, so this module renders and
/// parses that restricted shape directly; it is not a general JSON parser
/// and does not try to be one.
pub mod smoke {
    use std::cmp::Ordering;

    /// One named scalar of the summary (a wall-clock second count or a
    /// headline throughput).
    pub type Entry = (&'static str, f64);

    /// Renders the `BENCH_4.json` summary: schema tag, run parameters, one
    /// object of per-workload wall-clock seconds and one of headlines.
    pub fn render_summary(
        budget: &str,
        threads: usize,
        wall_clock: &[Entry],
        headlines: &[Entry],
    ) -> String {
        let obj = |entries: &[Entry], indent: &str| {
            entries
                .iter()
                .map(|(k, v)| format!("{indent}\"{k}\": {v:.6}"))
                .collect::<Vec<_>>()
                .join(",\n")
        };
        format!(
            "{{\n  \"schema\": \"mars-perf-smoke-v2\",\n  \"budget\": \"{budget}\",\n  \"threads\": {threads},\n  \"wall_clock_seconds\": {{\n{}\n  }},\n  \"headlines\": {{\n{}\n  }}\n}}\n",
            obj(wall_clock, "    "),
            obj(headlines, "    "),
        )
    }

    /// Extracts every `"key": number` pair from flat JSON text, in order of
    /// appearance.  Nested objects are flattened (their braces are skipped);
    /// string values (like the schema tag) are ignored.
    pub fn parse_flat_numbers(text: &str) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        let mut rest = text;
        while let Some(open) = rest.find('"') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('"') else { break };
            let key = &after[..close];
            let tail = &after[close + 1..];
            // A key's closing quote is followed (modulo whitespace) by a
            // colon; anything else was a string *value*, not a key.
            let after_colon = match tail.trim_start().strip_prefix(':') {
                Some(t) => t,
                None => {
                    rest = tail;
                    continue;
                }
            };
            let value_text = after_colon.trim_start();
            let end = value_text
                .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
                .unwrap_or(value_text.len());
            if let Ok(v) = value_text[..end].parse::<f64>() {
                out.push((key.to_string(), v));
            }
            rest = after_colon;
        }
        out
    }

    /// Compares measured headlines against the committed floors: every floor
    /// key must be present and its measured value at least the floor (a NaN
    /// reading is below every floor).  Returns the human-readable violations
    /// (empty = gate passes).
    pub fn check_floors(measured: &[Entry], floors: &[(String, f64)]) -> Vec<String> {
        let mut violations = Vec::new();
        for (key, floor) in floors {
            match measured.iter().find(|(k, _)| k == key) {
                None => violations.push(format!("floor key {key:?} was not measured")),
                Some((_, got)) if got.partial_cmp(floor).is_none_or(Ordering::is_lt) => violations
                    .push(format!(
                        "{key}: measured {got:.4} is below the committed floor {floor:.4}"
                    )),
                Some(_) => {}
            }
        }
        violations
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn summary_round_trips_through_the_flat_parser() {
            let text = render_summary(
                "fast",
                1,
                &[("table3", 12.5)],
                &[("search_evals_per_second", 4321.5)],
            );
            let parsed = parse_flat_numbers(&text);
            assert!(parsed.contains(&("threads".to_string(), 1.0)));
            assert!(parsed.contains(&("table3".to_string(), 12.5)));
            assert!(parsed.contains(&("search_evals_per_second".to_string(), 4321.5)));
            // The schema string is not a number and must not parse as one.
            assert!(parsed.iter().all(|(k, _)| k != "schema"));
        }

        #[test]
        fn floor_check_flags_regressions_and_missing_keys() {
            let measured = [("a", 1.5), ("b", 1.0), ("d", f64::NAN)];
            let floors = vec![
                ("a".to_string(), 1.4),
                ("b".to_string(), 1.1),
                ("c".to_string(), 1.0),
                ("d".to_string(), 1.0),
            ];
            let violations = check_floors(&measured, &floors);
            assert_eq!(violations.len(), 3);
            assert!(violations[0].contains("b"));
            assert!(violations[1].contains("c"));
            assert!(violations[2].contains("d"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_from_env_defaults_to_fast() {
        assert_eq!(Budget::from_env(), Budget::Fast);
    }

    #[test]
    fn threads_from_env_resolves_to_a_usable_worker_count() {
        // The suite must stay green whether or not the ambient environment
        // sets `MARS_THREADS`, so only pin the value when it is unset.
        if std::env::var("MARS_THREADS").is_err() {
            assert_eq!(threads_from_env(), 0);
        }
        assert!(mars_parallel::resolve_threads(threads_from_env()) >= 1);
    }

    #[test]
    fn table3_row_for_alexnet_shows_improvement() {
        let row = table3_row(Benchmark::AlexNet, Budget::Fast, 1, &Recorder::disabled());
        assert_eq!(row.convs, 5);
        assert!(row.baseline_ms > 0.0 && row.mars_ms > 0.0);
        assert!(row.mars_ms <= row.baseline_ms * 1.001);
        assert!(row.reduction_percent() >= -0.1);
    }

    #[test]
    fn table4_rows_cover_all_bandwidth_levels() {
        let net = mars_model::zoo::casia_surf_like();
        let rows = table4_rows(&net, Budget::Fast, 2, &Recorder::disabled());
        assert_eq!(rows.len(), 5);
        // MARS's intra-layer parallelism should beat the layer-per-accelerator
        // mapper at every bandwidth level; with the reduced test budget allow
        // a small tolerance at the most communication-bound (1 Gbps) point.
        for row in &rows {
            assert!(
                row.mars_ms < row.h2h_ms * 1.05,
                "{}: MARS {} vs H2H {}",
                row.label,
                row.mars_ms,
                row.h2h_ms
            );
        }
        // And clearly wins once bandwidth stops being the bottleneck.
        let high = rows.last().unwrap();
        assert!(
            high.reduction_percent() > 10.0,
            "high-bandwidth reduction {}",
            high.reduction_percent()
        );
        // Higher bandwidth means lower latency for both mappers.
        assert!(rows.last().unwrap().mars_ms < rows.first().unwrap().mars_ms);
    }

    #[test]
    fn table_multi_row_co_scheduling_beats_sequential() {
        let row = table_multi_row(MixZoo::ClassicPair, Budget::Fast, 42);
        assert_eq!(row.workloads.len(), 2);
        assert_eq!(row.result.placements.len(), 2);
        assert!(row.result.is_valid());
        assert!(row.speedup() > 1.0, "speedup {:.2}", row.speedup());
        assert!(row.reduction_percent() > 0.0);
    }

    #[test]
    fn table_serve_row_replays_one_trace_under_every_policy() {
        let row = table_serve_row(MixZoo::ClassicPair, Budget::Fast, 42, &Recorder::disabled());
        assert_eq!(row.reports.len(), DispatchPolicy::ALL.len());
        let requests = row.trace.total_requests();
        assert!(requests > 0);
        for report in &row.reports {
            assert_eq!(report.total_requests, requests);
            assert!(report.goodput <= report.completed);
            assert!(report.completed <= report.total_requests);
        }
        // The headline figure is a finite positive ratio on bundled mixes.
        let gain = row.sla_aware_goodput_gain();
        assert!(gain.is_finite() && gain > 0.0, "gain {gain}");
    }
}
