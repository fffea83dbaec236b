//! The measurement harness every workload shares: setup repetitions, the
//! round loop with per-op host timing, the benchmark's own span tracer,
//! per-layer counters, output checks, result digests, and the few
//! statistics and `/proc` readers the metrics need.
//!
//! A workload builds its inputs through [`Harness::setup`], then hands
//! [`Harness::measure`] a closure that runs one *round* of ops.  Inside a
//! round every op goes through [`Harness::op`] (host-timed, the unit of
//! `attempted`/`failed`), every call into a workspace crate through
//! [`Harness::call`] (a span named after the layer), and every output
//! through [`Harness::check`].  Checks, counts and digests run after the op
//! returns, so they never count towards `run_s`.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// How long each unit-cost kernel of a traced run loops.
const UNIT_COST_SECONDS: f64 = 0.3;
/// Minimum length of one timed setup sample.
const SETUP_SAMPLE_SECONDS: f64 = 0.03;

/// One call the benchmark made into a workspace crate, or the op grouping
/// such calls.  Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// The op the span belongs to; `None` during setup.
    op: Option<u64>,
}

/// Keeps spans in memory while it is on.  While it is off, `span` is a
/// plain call that reads no clock.
struct Tracer {
    epoch: Instant,
    on: Cell<bool>,
    op: Cell<Option<u64>>,
    open: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            on: Cell::new(false),
            op: Cell::new(None),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let start_s = self.epoch.elapsed().as_secs_f64();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_s,
                end_s: start_s,
                parent: self.open.borrow().last().copied(),
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }
}

/// Each span's self time: its duration minus the durations of its children.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.end_s - s.start_s;
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| (s.end_s - s.start_s) - c)
        .collect()
}

/// The four simulated results every workload reports, each as
/// `(name in the workload's own vocabulary, value)`.  They fill the
/// `sim_*` end-to-end metrics; each is deterministic for a given seed.
pub struct SimResults {
    /// `sim_quality_pct`: the workload's headline result quality, percent.
    pub quality: (&'static str, f64),
    /// `sim_quality2_pct`: its second quality figure, percent.
    pub quality2: (&'static str, f64),
    /// `sim_latency_ms`: its headline simulated latency, milliseconds.
    pub latency: (&'static str, f64),
    /// `sim_latency2_ms`: its second simulated latency, milliseconds.
    pub latency2: (&'static str, f64),
}

/// Every per-layer metric a traced run prints, with its unit; layers a
/// workload bypasses read 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.search.calls", "count"),
    ("core.search.busy_s", "s"),
    ("core.search.evals_per_s", "1/s"),
    ("core.search.second_level", "count"),
    ("core.evaluator.term_lookups", "count"),
    ("core.evaluator.term_hit_pct", "%"),
    ("core.evaluator.layer_evals", "count"),
    ("core.evaluator.greedy_hit_pct", "%"),
    ("core.mapper.decision_hit_pct", "%"),
    ("core.ga.blocks_reused", "count"),
    ("core.baseline.busy_s", "s"),
    ("parallel.evaluate_layer_per_s", "1/s"),
    ("accel.conv_cycles_per_s", "1/s"),
    ("comm.collectives_per_s", "1/s"),
    ("core.evaluator.evaluate_per_s", "1/s"),
    ("core.evaluator.layer_eval_share_pct", "%"),
    ("parallel.pool_util_pct", "%"),
    ("runtime.static_busy_s", "s"),
    ("runtime.reactive_busy_s", "s"),
    ("runtime.oracle_busy_s", "s"),
    ("core.scheduler.inner_searches", "count"),
    ("runtime.decisions", "count"),
    ("runtime.triggers", "count"),
    ("runtime.applied_pct", "%"),
    ("serve.trace.busy_s", "s"),
    ("serve.sim.busy_s", "s"),
    ("serve.sim.events", "count"),
    ("serve.sim.events_per_s", "1/s"),
    ("serve.sim.mean_batch", "count"),
    ("serve.llm.busy_s", "s"),
    ("serve.llm.iterations", "count"),
    ("serve.llm.iterations_per_s", "1/s"),
    ("serve.llm.mean_running", "count"),
    ("obs.observed_busy_s", "s"),
    ("obs.export_s", "s"),
    ("obs.spans", "count"),
    ("obs.export_mib", "MiB"),
    ("obs.overhead_x", "x"),
    ("model.build_s", "s"),
    ("bench.harness_self_s", "s"),
    ("bench.traced_run_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// Per-round busy time of a layer: the self time of its spans.  Maps each
/// busy metric to the span name the workloads give the calls it covers.
const ROUND_BUSY: &[(&str, &str)] = &[
    ("core.search.busy_s", "core.search"),
    ("core.baseline.busy_s", "core.baseline"),
    ("runtime.static_busy_s", "runtime.static"),
    ("runtime.reactive_busy_s", "runtime.reactive"),
    ("runtime.oracle_busy_s", "runtime.oracle"),
    ("serve.sim.busy_s", "serve.sim"),
    ("serve.llm.busy_s", "serve.llm"),
    ("obs.observed_busy_s", "obs.observed"),
    ("obs.export_s", "obs.export"),
    ("bench.harness_self_s", "op"),
];

/// Per-build busy time of a setup layer.
const SETUP_BUSY: &[(&str, &str)] = &[
    ("model.build_s", "model.build"),
    ("serve.trace.busy_s", "serve.trace"),
];

/// Counters reported as per-round totals under their own name.
const ROUND_COUNTS: &[&str] = &[
    "core.search.calls",
    "core.search.second_level",
    "core.evaluator.term_lookups",
    "core.evaluator.layer_evals",
    "core.ga.blocks_reused",
    "core.scheduler.inner_searches",
    "runtime.decisions",
    "runtime.triggers",
    "serve.sim.events",
    "serve.llm.iterations",
    "obs.spans",
    "obs.export_mib",
];

/// Shared state of one benchmark run.  Every method takes `&self`, so a
/// workload's round closure can time ops, open spans and record checks
/// through one shared reference.
pub struct Harness {
    seconds: f64,
    traced_mode: bool,
    /// Worker threads of the searches and of the sharded simulations.
    pub threads: usize,
    tracer: Tracer,
    counters: RefCell<BTreeMap<&'static str, f64>>,
    layer: RefCell<BTreeMap<&'static str, f64>>,
    setup_s: RefCell<Vec<f64>>,
    setup_builds: Cell<u64>,
    round_ops: RefCell<Vec<f64>>,
    op_s: RefCell<Vec<f64>>,
    untraced_rounds: RefCell<Vec<f64>>,
    traced_rounds: RefCell<Vec<f64>>,
    pair_overhead: RefCell<Vec<f64>>,
    next_op: Cell<u64>,
    failed_ops: RefCell<BTreeSet<u64>>,
    problems: RefCell<Vec<String>>,
    loop_wall_s: Cell<f64>,
    loop_cpu_s: Cell<f64>,
    digest: Cell<u64>,
    prefix_rounds: Cell<u64>,
}

impl Harness {
    /// A harness that measures for about `seconds` and, when `traced`, runs
    /// every round twice (plain and traced) and reports per-layer metrics.
    pub fn new(seconds: f64, traced: bool, threads: usize) -> Self {
        Self {
            seconds,
            traced_mode: traced,
            threads,
            tracer: Tracer::new(),
            counters: RefCell::new(BTreeMap::new()),
            layer: RefCell::new(BTreeMap::new()),
            setup_s: RefCell::new(Vec::new()),
            setup_builds: Cell::new(0),
            round_ops: RefCell::new(Vec::new()),
            op_s: RefCell::new(Vec::new()),
            untraced_rounds: RefCell::new(Vec::new()),
            traced_rounds: RefCell::new(Vec::new()),
            pair_overhead: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
            failed_ops: RefCell::new(BTreeSet::new()),
            problems: RefCell::new(Vec::new()),
            loop_wall_s: Cell::new(0.0),
            loop_cpu_s: Cell::new(0.0),
            digest: Cell::new(0),
            prefix_rounds: Cell::new(0),
        }
    }

    /// `true` in the traced run (`--trace 1`).
    pub fn traced(&self) -> bool {
        self.traced_mode
    }

    /// Builds the workload's inputs in `samples` timed setup samples and
    /// returns the last build.  Each build replaces the previous one, so
    /// peak memory holds one copy.
    pub fn setup<T>(&self, samples: usize, mut build: impl FnMut() -> T) -> T {
        let mut built = None;
        self.tracer.on.set(self.traced_mode);
        for _ in 0..samples.max(1) {
            let builds = self.setup_sample(&mut build, &mut built);
            self.setup_builds.set(self.setup_builds.get() + builds);
        }
        self.tracer.on.set(false);
        built.expect("setup ran at least once")
    }

    /// One timed setup sample: repeats `build` until it has run for
    /// [`SETUP_SAMPLE_SECONDS`], so sub-millisecond builds are timed over
    /// many repetitions, and records the per-build time.  `setup_s` is the
    /// median of the samples.  Returns the number of builds.
    fn setup_sample<T>(&self, build: &mut impl FnMut() -> T, built: &mut Option<T>) -> u64 {
        let t = Instant::now();
        let mut builds = 0u32;
        while builds == 0 || t.elapsed().as_secs_f64() < SETUP_SAMPLE_SECONDS {
            drop(built.take());
            *built = Some(build());
            builds += 1;
        }
        self.setup_s
            .borrow_mut()
            .push(t.elapsed().as_secs_f64() / f64::from(builds));
        u64::from(builds)
    }

    /// Runs `round(r)` for `r = 0, 1, …` until at least `prefix` rounds ran
    /// and the measuring time has passed.  `round` returns a digest of the
    /// round's simulated outputs.  With `identical`, every round replays the
    /// same inputs and must reproduce round 0's digest.  In the traced run
    /// each round runs twice with the same inputs, plain and traced, in
    /// alternating order; both runs must agree.  The workload's digest
    /// covers rounds `0..prefix`.  After each round, `rebuild` takes one more
    /// setup sample (untraced, its build dropped), so `setup_s` is measured
    /// across the same stretch of time as `run_s`.
    pub fn measure<T>(
        &self,
        prefix: u64,
        identical: bool,
        mut rebuild: impl FnMut() -> T,
        mut run_round: impl FnMut(u64) -> u64,
    ) {
        let start = Instant::now();
        let cpu = cpu_seconds();
        let mut first: BTreeMap<u64, u64> = BTreeMap::new();
        let mut r = 0;
        while r < prefix || start.elapsed().as_secs_f64() < self.seconds {
            let order: &[bool] = match (self.traced_mode, r % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            let mut secs = [0.0; 2];
            for &traced in order {
                let ops = self.next_op.get();
                let (digest, s) = self.round(traced, || run_round(r));
                secs[traced as usize] = s;
                let reference = first.get(if identical { &0 } else { &r }).copied();
                first.entry(r).or_insert(digest);
                if reference.is_some_and(|d| d != digest) {
                    self.problem(format!(
                        "round {r}: results differ from {}",
                        if identical {
                            "round 0"
                        } else {
                            "the other run of the same round"
                        }
                    ));
                    self.failed_ops.borrow_mut().extend(ops..self.next_op.get());
                }
            }
            if self.traced_mode {
                self.pair_overhead.borrow_mut().push(secs[1] - secs[0]);
            }
            self.setup_sample(&mut rebuild, &mut None);
            r += 1;
        }
        self.loop_wall_s.set(start.elapsed().as_secs_f64());
        self.loop_cpu_s.set(cpu_seconds() - cpu);
        let mut d = Digest::new();
        for r in 0..prefix {
            d.add(&first[&r]);
        }
        self.digest.set(d.value());
        self.prefix_rounds.set(prefix);
    }

    fn round(&self, traced: bool, f: impl FnOnce() -> u64) -> (u64, f64) {
        self.round_ops.borrow_mut().clear();
        self.tracer.on.set(traced);
        let digest = f();
        self.tracer.on.set(false);
        let ops = std::mem::take(&mut *self.round_ops.borrow_mut());
        let secs: f64 = ops.iter().sum();
        if traced {
            self.traced_rounds.borrow_mut().push(secs);
        } else {
            self.untraced_rounds.borrow_mut().push(secs);
            self.op_s.borrow_mut().extend(ops);
        }
        (digest, secs)
    }

    /// Runs one op — the calls into the product that `f` makes — and times
    /// it.  In a traced round the op is the root span of those calls.
    pub fn op<T>(&self, f: impl FnOnce() -> T) -> T {
        let id = self.next_op.get();
        self.next_op.set(id + 1);
        self.tracer.op.set(Some(id));
        let t = Instant::now();
        let out = self.tracer.span("op", f);
        self.round_ops.borrow_mut().push(t.elapsed().as_secs_f64());
        self.tracer.op.set(None);
        out
    }

    /// One call into a workspace crate, recorded as a span named after the
    /// layer it enters.
    pub fn call<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(layer, f)
    }

    /// Adds `value` to a per-layer counter; counts only in traced rounds.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.tracer.on.get() {
            *self.counters.borrow_mut().entry(name).or_insert(0.0) += value;
        }
    }

    /// Sets a per-layer metric measured outside the rounds.
    pub fn set_layer(&self, name: &'static str, value: f64) {
        self.layer.borrow_mut().insert(name, value);
    }

    /// Records the outcome of one output check of the last op; a failed
    /// check is printed with what it checked and fails the op.
    pub fn check(&self, ok: bool, what: &str, check: &str) {
        if !ok {
            let op = self.next_op.get().saturating_sub(1);
            println!("check failed: op {op} ({what}): {check}");
            self.failed_ops.borrow_mut().insert(op);
        }
    }

    /// Records a failure that belongs to no single op.
    pub fn problem(&self, message: String) {
        println!("check failed: {message}");
        self.problems.borrow_mut().push(message);
    }

    /// Prints the run's summary lines and, last, the one-line JSON result:
    /// end-to-end metrics, or per-layer metrics in the traced run.  The
    /// traced run also writes its spans to `out_dir` when one is given.
    pub fn finish(&self, workload: &str, seed: u64, sims: &SimResults, out_dir: Option<&Path>) {
        let attempted = self.next_op.get();
        let failed = self.failed_ops.borrow().len() as u64;
        let end_to_end = self.end_to_end(attempted, failed, sims);
        let per_layer = self.per_layer();
        let ops = self.op_s.borrow().len();
        println!(
            "perfbench {workload} seed={seed} threads={} trace={} rounds={} ops={attempted} setup_builds={}",
            self.threads,
            u8::from(self.traced_mode),
            self.untraced_rounds.borrow().len(),
            self.setup_builds.get(),
        );
        println!(
            "end-to-end: {} (tail over {ops} ops is p{:.1})",
            render(&end_to_end),
            tail(&self.op_s.borrow()).1
        );
        println!(
            "sim: {}={} {}={} {}={} {}={}",
            sims.quality.0,
            sims.quality.1,
            sims.quality2.0,
            sims.quality2.1,
            sims.latency.0,
            sims.latency.1,
            sims.latency2.0,
            sims.latency2.1
        );
        println!(
            "digest={:016x} prefix_rounds={}",
            self.digest.get(),
            self.prefix_rounds.get()
        );
        if self.traced_mode {
            println!("per-layer: {}", render(&per_layer));
            if let Some(dir) = out_dir {
                let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
                if let Err(e) = self.write_spans(&path) {
                    eprintln!("perfbench: writing spans to {}: {e}", path.display());
                }
            }
        }
        let metrics = if self.traced_mode {
            per_layer
        } else {
            end_to_end
        };
        for (name, _, value) in &metrics {
            if !value.is_finite() {
                self.problem(format!("metric {name} is not finite ({value})"));
            }
        }
        let correct = failed == 0 && self.problems.borrow().is_empty() && attempted > 0;
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }

    fn end_to_end(&self, attempted: u64, failed: u64, sims: &SimResults) -> Vec<Metric> {
        let op_ms: Vec<f64> = self.op_s.borrow().iter().map(|s| s * 1e3).collect();
        vec![
            ("setup_s", "s", median(&self.setup_s.borrow())),
            ("run_s", "s", median(&self.untraced_rounds.borrow())),
            ("op_p50_ms", "ms", median(&op_ms)),
            ("op_tail_ms", "ms", tail(&op_ms).0),
            ("peak_rss_mib", "MiB", peak_rss_mib()),
            (
                "ok_ops_pct",
                "%",
                100.0 * (attempted - failed) as f64 / attempted.max(1) as f64,
            ),
            ("sim_quality_pct", "%", sims.quality.1),
            ("sim_quality2_pct", "%", sims.quality2.1),
            ("sim_latency_ms", "ms", sims.latency.1),
            ("sim_latency2_ms", "ms", sims.latency2.1),
        ]
    }

    fn per_layer(&self) -> Vec<Metric> {
        let spans = self.tracer.spans.borrow();
        let rounds = self.traced_rounds.borrow().len().max(1) as f64;
        let builds = self.setup_builds.get().max(1) as f64;
        let mut round_busy: BTreeMap<&str, f64> = BTreeMap::new();
        let mut setup_busy: BTreeMap<&str, f64> = BTreeMap::new();
        for (span, secs) in spans.iter().zip(self_times(&spans)) {
            let busy = if span.op.is_some() {
                &mut round_busy
            } else {
                &mut setup_busy
            };
            *busy.entry(span.name).or_insert(0.0) += secs;
        }
        let counters = self.counters.borrow();
        let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
        let busy = |span: &str| round_busy.get(span).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        let mut v: BTreeMap<&str, f64> = self.layer.borrow().clone();
        for &(metric, span) in ROUND_BUSY {
            v.insert(metric, busy(span) / rounds);
        }
        for &(metric, span) in SETUP_BUSY {
            v.insert(
                metric,
                setup_busy.get(span).copied().unwrap_or(0.0) / builds,
            );
        }
        for &name in ROUND_COUNTS {
            v.insert(name, c(name) / rounds);
        }
        v.insert(
            "core.search.evals_per_s",
            ratio(c("core.search.evals"), busy("core.search")),
        );
        for (metric, hits, lookups) in [
            (
                "core.evaluator.term_hit_pct",
                "core.evaluator.term_hits",
                "core.evaluator.term_lookups",
            ),
            (
                "core.evaluator.greedy_hit_pct",
                "core.evaluator.greedy_hits",
                "core.evaluator.greedy_lookups",
            ),
            (
                "core.mapper.decision_hit_pct",
                "core.mapper.decision_hits",
                "core.mapper.decision_lookups",
            ),
            (
                "runtime.applied_pct",
                "runtime.applied",
                "runtime.decisions",
            ),
        ] {
            v.insert(metric, 100.0 * ratio(c(hits), c(lookups)));
        }
        let per_layer_call = v
            .get("parallel.evaluate_layer_per_s")
            .copied()
            .unwrap_or(0.0);
        v.insert(
            "core.evaluator.layer_eval_share_pct",
            100.0
                * ratio(
                    ratio(c("core.evaluator.layer_evals"), per_layer_call),
                    busy("core.search"),
                ),
        );
        v.insert(
            "serve.sim.events_per_s",
            ratio(c("serve.sim.events"), busy("serve.sim")),
        );
        v.insert(
            "serve.sim.mean_batch",
            ratio(c("serve.sim.batched_requests"), c("serve.sim.batches")),
        );
        v.insert(
            "serve.llm.iterations_per_s",
            ratio(c("serve.llm.iterations"), busy("serve.llm")),
        );
        v.insert(
            "serve.llm.mean_running",
            ratio(c("serve.llm.running"), c("serve.llm.iterations")),
        );
        v.insert(
            "parallel.pool_util_pct",
            100.0
                * ratio(
                    self.loop_cpu_s.get(),
                    self.loop_wall_s.get() * self.threads as f64,
                ),
        );
        v.insert("bench.traced_run_s", median(&self.traced_rounds.borrow()));
        v.insert(
            "bench.trace_overhead_s",
            median(&self.pair_overhead.borrow()),
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, v.get(name).copied().unwrap_or(0.0)))
            .collect()
    }

    fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.tracer.spans.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_s) in spans.iter().zip(self_times(&spans)) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let op = span.op.map_or("null".to_string(), |o| o.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"self_s\": {self_s}, \"parent\": {parent}, \"op\": {op}}}",
                span.name, span.start_s, span.end_s
            )?;
        }
        out.flush()
    }
}

/// `(name, unit, value)` of one printed metric.
type Metric = (&'static str, &'static str, f64);

fn render(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|(name, _, value)| format!("{name}={value:.6}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile)`; the maximum when there are ten samples or fewer.
fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0),
        n if n <= 10 => (v[n - 1], 100.0),
        n => (v[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// Calls `batch` — which returns how many unit calls it made — until
/// [`UNIT_COST_SECONDS`] have passed, and returns calls per second.
pub fn per_second(mut batch: impl FnMut() -> u64) -> f64 {
    let t = Instant::now();
    let mut calls = 0;
    loop {
        calls += batch();
        let secs = t.elapsed().as_secs_f64();
        if secs >= UNIT_COST_SECONDS {
            return calls as f64 / secs;
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU time of this process and its finished threads,
/// seconds (`/proc/self/stat` fields 14 and 15, at 100 ticks per second).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; the fields after it do not.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => 0.0,
    }
}

/// FNV-1a over the `Debug` rendering of simulated outputs.  `Debug` prints
/// every `f64` in its shortest exact round-trip form, so two digests agree
/// only when every digested float has the same bits.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, value: &impl fmt::Debug) {
        fmt::write(self, format_args!("{value:?}")).expect("hashing never fails");
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}
