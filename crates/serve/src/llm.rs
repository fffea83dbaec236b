//! Autoregressive LLM serving: continuous batching under a KV-memory budget.
//!
//! The CNN serving engine ([`crate::SimState`]) dispatches a batch, waits for
//! it to finish, and only then looks at the queue again — the right model for
//! one-shot inference, and structurally wrong for autoregressive decoding,
//! where a "batch" is re-formed *every iteration*: each wake processes the
//! prefills of newly admitted requests plus one decode token for every
//! running sequence, finished sequences leave immediately, and the freed KV
//! memory admits waiting requests at the very next iteration boundary.  This
//! module implements that loop — **continuous batching** — next to the
//! classic **one-shot** static batch as its baseline.
//!
//! Mechanically, decode-phase requests *re-enter the lane's schedule as
//! calendar events*: each iteration's end is the lane's next wake on the
//! serving event engine it shares with [`SimState`](crate::SimState).  The
//! wake completes the iteration (tokens accepted, finished sequences
//! retired), admission control refills the slots under the lane's KV budget,
//! and the next iteration's end becomes the lane's next wake.
//!
//! Memory is enforced by **reservation**: admission reserves the worst-case
//! KV footprint of the whole request (prompt plus full output) up front, so
//! the sum of reservations — and therefore the lane's true KV usage, which
//! reservations dominate — can never exceed the budget at any step, by
//! construction.  The property suite pins this at `MARS_THREADS` 1 and 4.
//!
//! Everything is a pure function of `(spec, trace, mode)`: the [`LlmTrace`]
//! is drawn once (arrival instants, per-request token counts, and the SLA
//! factor of the traffic phase in force at arrival), and the report is
//! bit-identical across thread counts and repeat runs.

use crate::lanes::{check_streams, Engine, Env, Lanes, ServeLane, Shards};
use crate::sim::{check_horizon, ServeError};
use crate::trace::Trace;
use mars_core::genome_stream_seed;
use mars_model::zoo::{LlmSpec, LlmWorkload};
use mars_model::TrafficError;
use mars_obs::Recorder;
use mars_parallel::threads_from_env;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Domain-separation tag for per-request token draws, so prompt/output
/// lengths never correlate with the arrival streams (`TRACE_STREAM` /
/// `PHASE_STREAM`) or the co-scheduler's search streams.
const LLM_TOKEN_STREAM: u64 = 0x7011_cace;

/// How a lane forms its decode batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchingMode {
    /// Classic static batching: admit a batch, hold every slot until the
    /// *slowest* member finishes, then look at the queue again.  Finished
    /// members wait for stragglers; arrivals wait for the whole batch.
    OneShot,
    /// Iteration-level scheduling: re-form the batch at every decode
    /// iteration — finished sequences retire immediately and waiting
    /// requests are admitted as soon as slots and KV memory allow.
    Continuous,
}

impl BatchingMode {
    /// Both modes, baseline first — the comparison `table_llm` prints.
    pub const ALL: [BatchingMode; 2] = [BatchingMode::OneShot, BatchingMode::Continuous];
}

impl std::fmt::Display for BatchingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BatchingMode::OneShot => "one-shot",
            BatchingMode::Continuous => "continuous",
        })
    }
}

/// One drawn request: when it arrives, its shape, and its deadline budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LlmRequest {
    /// Arrival instant, seconds.
    pub(crate) arrival: f64,
    /// Prompt length in tokens (drives the prefill cost and the initial KV
    /// footprint).
    pub(crate) prompt_tokens: u32,
    /// Number of tokens to generate (one decode iteration each; the first
    /// comes out of the prefill).
    pub(crate) output_tokens: u32,
    /// Deadline budget, seconds past arrival: `sla_factor` of the traffic
    /// phase in force *at arrival* times the request's contention-free
    /// latency ([`LlmWorkload::ideal_latency_seconds`]).  Phase-aware: the
    /// same shape arriving mid-surge gets a tighter deadline.
    pub(crate) sla_seconds: f64,
}

/// The replayable input of the LLM engine: per-workload request streams with
/// token shapes and phase-stamped deadlines, drawn once from the seeded RNG
/// shim — the LLM-serving analogue of [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct LlmTrace {
    /// Length of the arrival window in seconds.
    pub horizon_seconds: f64,
    /// Per-workload requests, in non-decreasing arrival order.  Each stream
    /// is shared with the lanes that replay it, not copied.
    pub(crate) requests: Vec<Arc<Vec<LlmRequest>>>,
}

impl LlmTrace {
    /// Draws the trace of `spec` for `seed`: arrival instants come from
    /// [`Trace::phased`] on the spec's traffic (so the same seed yields the
    /// same instants as any other consumer of that scenario), token shapes
    /// from a per-workload `LLM_TOKEN_STREAM` stream, and each request's
    /// deadline from the SLA factor of the phase in force at its arrival.
    ///
    /// # Errors
    ///
    /// Propagates [`LlmSpec::validate`].
    pub fn draw(spec: &LlmSpec, seed: u64) -> Result<Self, TrafficError> {
        spec.validate()?;
        let arrivals = Trace::phased(&spec.traffic, seed)?;
        let requests = spec
            .workloads
            .iter()
            .enumerate()
            .map(|(w, llm)| {
                let mut rng =
                    StdRng::seed_from_u64(genome_stream_seed(seed, LLM_TOKEN_STREAM, w as u64));
                let stream = arrivals.arrivals[w]
                    .iter()
                    .map(|&t| {
                        let prompt = rng.gen_range(llm.prompt_tokens.0..=llm.prompt_tokens.1);
                        let output = rng.gen_range(llm.output_tokens.0..=llm.output_tokens.1);
                        let sla_factor = spec.traffic.profiles_at(t)[w].sla_factor;
                        LlmRequest {
                            arrival: t,
                            prompt_tokens: prompt,
                            output_tokens: output,
                            sla_seconds: sla_factor * llm.ideal_latency_seconds(prompt, output),
                        }
                    })
                    .collect();
                Arc::new(stream)
            })
            .collect();
        Ok(LlmTrace {
            horizon_seconds: spec.traffic.horizon_seconds,
            requests,
        })
    }

    /// Total number of requests across all workloads.
    pub fn total_requests(&self) -> usize {
        self.requests.iter().map(|stream| stream.len()).sum()
    }
}

/// One workload's serving lane: a single accelerator card holding the
/// model's weights, a KV budget, and the iteration state machine.
///
/// Its actions are wakes: an arrival on an idle lane, or the end of an
/// iteration (one-shot: of a batch).  Each wake finishes the work that
/// ended, admits what fits, and launches the next iteration, whose end is
/// the lane's next wake — decode-phase sequences re-enter the lane's
/// schedule that way.
#[derive(Debug, Clone)]
pub(crate) struct LlmLane {
    workload: usize,
    llm: LlmWorkload,
    /// The lane's request stream, shared with its [`LlmTrace`].
    requests: Arc<Vec<LlmRequest>>,
    /// Per request: tokens accepted beyond the prompt in continuous mode
    /// (the prefill emits the first output token), and KV bytes reserved
    /// while in flight.
    decoded: Vec<u32>,
    reserved: Vec<u64>,
    kv_budget: u64,
    slots: usize,
    /// When the lane next wakes (`None`: never).
    wake: Option<f64>,
    /// Next request index not yet pulled into the admission queue.
    next_arrival: usize,
    /// Admission queue (request indices, FCFS).
    queue: VecDeque<u32>,
    /// Sequences in flight: admitted, not yet finished.
    running: Vec<u32>,
    /// Members of the currently-executing iteration that are prefilling.
    iter_new: Vec<u32>,
    /// `true` while an iteration (or one-shot batch) executes.
    in_flight: bool,
    /// KV bytes currently reserved (sum over `running`).
    kv_reserved: u64,
    /// High-water mark of `kv_reserved`.
    peak_kv: u64,
    completed: usize,
    met_sla: usize,
    latencies: Vec<f64>,
    iterations: usize,
    prefills: usize,
    /// Σ decode-phase occupancy over iterations (for the mean batch figure).
    decode_occupancy: usize,
    busy_seconds: f64,
    /// The lane's span track (`llm/<name>`) and KV series key
    /// (`llm/kv_reserved/<name>`), named when an enabled recorder attaches.
    track: String,
    kv_key: String,
}

impl LlmLane {
    /// Workload `w`'s lane at time zero.
    fn new(spec: &LlmSpec, trace: &LlmTrace, w: usize) -> Self {
        let requests = Arc::clone(&trace.requests[w]);
        Self {
            workload: w,
            llm: spec.workloads[w].clone(),
            // The first wake is the first arrival.
            wake: requests.first().map(|r| r.arrival),
            decoded: vec![0; requests.len()],
            reserved: vec![0; requests.len()],
            requests,
            kv_budget: spec.kv_budget_bytes(w),
            slots: spec.max_batch_slots,
            next_arrival: 0,
            queue: VecDeque::new(),
            running: Vec::new(),
            iter_new: Vec::new(),
            in_flight: false,
            kv_reserved: 0,
            peak_kv: 0,
            completed: 0,
            met_sla: 0,
            latencies: Vec::new(),
            iterations: 0,
            prefills: 0,
            decode_occupancy: 0,
            busy_seconds: 0.0,
            track: String::new(),
            kv_key: String::new(),
        }
    }

    /// Pulls every arrival at or before `now` into the admission queue.
    fn pull_arrivals(&mut self, now: f64) {
        while self.next_arrival < self.requests.len()
            && self.requests[self.next_arrival].arrival <= now
        {
            self.queue.push_back(self.next_arrival as u32);
            self.next_arrival += 1;
        }
    }

    /// Admits queued requests while a slot and a full worst-case KV
    /// reservation fit.  FCFS: a request that does not fit blocks the queue
    /// (no starvation of large requests behind small ones).
    fn admit(&mut self) {
        while self.running.len() < self.slots {
            let Some(&idx) = self.queue.front() else {
                break;
            };
            let req = self.requests[idx as usize];
            let need = self
                .llm
                .request_kv_bytes(req.prompt_tokens, req.output_tokens);
            if self.kv_reserved + need > self.kv_budget {
                break;
            }
            self.queue.pop_front();
            self.kv_reserved += need;
            self.peak_kv = self.peak_kv.max(self.kv_reserved);
            self.reserved[idx as usize] = need;
            self.running.push(idx);
            self.iter_new.push(idx);
            self.prefills += 1;
        }
    }

    /// Retires request `idx` at `now`: records latency and SLA verdict,
    /// releases its KV reservation.
    fn retire(&mut self, idx: u32, now: f64) {
        let req = self.requests[idx as usize];
        let latency = now - req.arrival;
        self.kv_reserved -= self.reserved[idx as usize];
        self.reserved[idx as usize] = 0;
        self.completed += 1;
        if latency <= req.sla_seconds {
            self.met_sla += 1;
        }
        self.latencies.push(latency);
    }

    /// Completes the iteration that ends at `now` (continuous mode): new
    /// members finish their prefill (first token accepted), decode members
    /// accept one token, and finished sequences retire immediately.
    /// `running` is compacted in place, visiting members in order, so
    /// finished sequences retire in `running` order with no allocation.
    fn finish_iteration(&mut self, now: f64) {
        self.iter_new.clear();
        let mut running = std::mem::take(&mut self.running);
        running.retain(|&idx| {
            let d = &mut self.decoded[idx as usize];
            *d += 1; // prefill emits the first token; decode emits one more
            let done = *d >= self.requests[idx as usize].output_tokens;
            if done {
                self.retire(idx, now);
            }
            !done
        });
        self.running = running;
        self.in_flight = false;
    }

    /// Completes the one-shot batch that ends at `now`: every member —
    /// straggler or not — retires together.
    fn finish_batch(&mut self, now: f64) {
        self.iter_new.clear();
        for idx in std::mem::take(&mut self.running) {
            self.retire(idx, now);
        }
        self.in_flight = false;
    }

    /// Starts the next unit of work at `now`, returning the instant it
    /// ends, or `None` if the lane has nothing admitted.
    fn start_work(&mut self, now: f64, mode: BatchingMode, horizon: f64) -> Option<f64> {
        if self.running.is_empty() {
            return None;
        }
        self.in_flight = true;
        // The prefills of the newly admitted — in one-shot mode the whole
        // batch, since every earlier member retired with its batch.
        let prefill: f64 = self
            .iter_new
            .iter()
            .map(|&i| {
                self.llm
                    .prefill_seconds(self.requests[i as usize].prompt_tokens)
            })
            .sum();
        let duration = match mode {
            BatchingMode::Continuous => {
                // One iteration: the prefills plus one decode step of
                // everything already holding tokens.
                let decoding = self.running.len() - self.iter_new.len();
                self.iterations += 1;
                self.decode_occupancy += decoding;
                let decode = if decoding > 0 {
                    self.llm.decode_iteration_seconds(decoding)
                } else {
                    0.0
                };
                prefill + decode
            }
            BatchingMode::OneShot => {
                // The whole batch runs to completion: every prefill, then
                // enough decode iterations for the slowest member, with all
                // slots held throughout.
                let longest = self
                    .running
                    .iter()
                    .map(|&i| self.requests[i as usize].output_tokens)
                    .max()
                    .unwrap_or(1);
                let iters = longest.saturating_sub(1) as usize;
                self.iterations += iters.max(1);
                self.decode_occupancy += iters * self.running.len();
                prefill + iters as f64 * self.llm.decode_iteration_seconds(self.running.len())
            }
        };
        let end = now + duration;
        self.busy_seconds += (end.min(horizon) - now.min(horizon)).max(0.0);
        Some(end)
    }

    /// The wake at `now`: finishes the work that ended, admits what fits,
    /// launches the next unit of work and returns the next wake.
    fn wake_at(&mut self, now: f64, env: &mut Env<BatchingMode>) -> Option<f64> {
        if self.in_flight {
            match env.knobs {
                BatchingMode::Continuous => self.finish_iteration(now),
                BatchingMode::OneShot => self.finish_batch(now),
            }
        }
        self.pull_arrivals(now);
        self.admit();
        // Records are buffered until the burst ends (`flush`).
        let recording = env.recorder.is_enabled();
        if recording {
            env.burst.samples.push((now, self.kv_reserved as f64));
        }
        let Some(end) = self.start_work(now, env.knobs, env.horizon) else {
            // Idle: wake at the next arrival.
            return self.requests.get(self.next_arrival).map(|r| r.arrival);
        };
        if recording {
            // `iter_new` still holds this iteration's prefilling members
            // (cleared when the iteration finishes), so the phase
            // composition is readable right after launch.
            let prefilling = self.iter_new.len();
            let phase = match (prefilling > 0, self.running.len() > prefilling) {
                (true, true) => "prefill+decode",
                (true, false) => "prefill",
                _ => "decode",
            };
            env.burst.spans.push((phase, now, end));
        }
        Some(end)
    }
}

impl ServeLane for LlmLane {
    type Knobs = BatchingMode;
    type Stats = LlmLaneStats;
    type Report = LlmServeReport;
    const AT_BOUND: bool = true;

    fn advance(&mut self, env: &mut Env<BatchingMode>, bound: f64) -> Option<f64> {
        while let Some(now) = self.wake.filter(|&t| t <= bound) {
            self.wake = self.wake_at(now, env);
        }
        self.wake
    }

    fn name_tracks(&mut self) {
        self.track = format!("llm/{}", self.llm.name);
        self.kv_key = format!("llm/kv_reserved/{}", self.llm.name);
    }

    /// Records the burst's KV reservation points, then its phase spans.
    fn flush(&self, env: &mut Env<BatchingMode>) {
        let (recorder, burst) = (&env.recorder, &mut env.burst);
        recorder.point_all(&self.kv_key, burst.samples.drain(..));
        recorder.span_all(&self.track, burst.spans.drain(..));
    }

    fn stats(&self, (p50_ms, p95_ms, p99_ms): (f64, f64, f64)) -> LlmLaneStats {
        LlmLaneStats {
            workload: self.workload,
            name: self.llm.name.clone(),
            requests: self.requests.len(),
            completed: self.completed,
            met_sla: self.met_sla,
            prefills: self.prefills,
            iterations: self.iterations,
            mean_running: if self.iterations > 0 {
                self.decode_occupancy as f64 / self.iterations as f64
            } else {
                0.0
            },
            p50_ms,
            p95_ms,
            p99_ms,
            busy_seconds: self.busy_seconds,
            peak_kv_bytes: self.peak_kv,
            kv_budget_bytes: self.kv_budget,
        }
    }

    fn take_latencies(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.latencies)
    }

    fn record_gauges(&self, recorder: &Recorder) {
        let name = &self.llm.name;
        recorder.gauge_max(&format!("llm/kv_peak_bytes/{name}"), self.peak_kv as f64);
        recorder.gauge_max(&format!("llm/busy_seconds/{name}"), self.busy_seconds);
    }

    fn report(
        mode: BatchingMode,
        horizon_seconds: f64,
        lanes: Lanes<LlmLaneStats>,
    ) -> LlmServeReport {
        let Lanes {
            stats: per_workload,
            percentiles: (p50_ms, p95_ms, p99_ms),
            ..
        } = lanes;
        LlmServeReport {
            mode,
            horizon_seconds,
            total_requests: per_workload.iter().map(|s| s.requests).sum(),
            completed: per_workload.iter().map(|s| s.completed).sum(),
            goodput: per_workload.iter().map(|s| s.met_sla).sum(),
            p50_ms,
            p95_ms,
            p99_ms,
            per_workload,
        }
    }
}

/// Per-workload serving statistics of an LLM run.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmLaneStats {
    /// Workload index.
    pub(crate) workload: usize,
    /// Workload display name.
    pub name: String,
    /// Requests arrived over the horizon.
    pub requests: usize,
    /// Requests fully generated before the horizon.
    pub completed: usize,
    /// Completed requests that met their (phase-aware) deadline.
    pub met_sla: usize,
    /// Admitted requests (each runs exactly one prefill).
    pub(crate) prefills: usize,
    /// Decode iterations executed (continuous) or padded-batch decode
    /// iterations (one-shot).
    pub iterations: usize,
    /// Mean decode-phase occupancy per iteration — the figure continuous
    /// batching keeps high and one-shot lets decay as members finish.
    pub mean_running: f64,
    /// p50 completion latency, milliseconds.
    pub(crate) p50_ms: f64,
    /// p95 completion latency, milliseconds.
    pub(crate) p95_ms: f64,
    /// p99 completion latency, milliseconds.
    pub(crate) p99_ms: f64,
    /// Seconds the lane's accelerator spent executing (clamped to horizon).
    pub(crate) busy_seconds: f64,
    /// High-water mark of reserved KV bytes; never exceeds
    /// [`kv_budget_bytes`](LlmLaneStats::kv_budget_bytes) by construction.
    pub peak_kv_bytes: u64,
    /// The lane's KV budget (capacity minus resident weights).
    pub kv_budget_bytes: u64,
}

/// The report of one LLM serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmServeReport {
    /// The batching mode that produced the run.
    pub mode: BatchingMode,
    /// Scenario horizon, seconds.
    pub(crate) horizon_seconds: f64,
    /// Requests arrived across all workloads.
    pub total_requests: usize,
    /// Requests fully generated before the horizon.
    pub completed: usize,
    /// Completed requests that met their deadline — the headline figure.
    pub goodput: usize,
    /// Aggregate p50 completion latency, milliseconds.
    pub p50_ms: f64,
    /// Aggregate p95 completion latency, milliseconds.
    pub p95_ms: f64,
    /// Aggregate p99 completion latency, milliseconds.
    pub p99_ms: f64,
    /// Per-workload breakdown, in workload order.
    pub per_workload: Vec<LlmLaneStats>,
}

/// The resumable LLM serving simulation over one [`LlmSpec`] and its drawn
/// [`LlmTrace`].
///
/// Lanes are independent (one workload per accelerator card) and run on the
/// event engine [`SimState`](crate::SimState) runs on: each lane's next
/// wake — an arrival on an idle lane, or the end of the running iteration —
/// is one calendar event, and [`run_until`](LlmSimState::run_until)
/// advances each due lane through all its wakes up to the bound.  All state
/// is plain data, so checkpoint/restore is `Clone`, as for the fleet engine.
#[derive(Debug, Clone)]
pub struct LlmSimState {
    engine: Engine<LlmLane>,
}

impl LlmSimState {
    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Rejects, in this order: shape mismatches, a horizon that is not
    /// positive and finite, zero batch slots, a spec that fails
    /// [`LlmSpec::validate`], then — in one pass over each lane's requests,
    /// the lowest failing lane first — a request whose KV need exceeds its
    /// lane's budget and arrivals that are not sorted, finite and inside
    /// `[0, horizon)` (see [`ServeError`]).
    pub fn new(spec: &LlmSpec, trace: &LlmTrace, mode: BatchingMode) -> Result<Self, ServeError> {
        validate(spec, trace, 1)?;
        Ok(Self {
            engine: engine(spec, trace, mode, 0..spec.workloads.len()),
        })
    }

    /// Attaches an observability recorder: per-lane prefill/decode phase
    /// spans, KV reservation series and peak-KV gauges.  Every recorded
    /// quantity derives from the simulated clock, so attaching a recorder
    /// never changes the report.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.engine.attach(recorder, false);
        self
    }

    /// Advances the simulation to `min(until, horizon)`: every wake at or
    /// before that instant happens; later ones stay queued.  A NaN `until`
    /// is a no-op.
    pub fn run_until(&mut self, until: f64) {
        self.engine.run_until(until);
    }

    /// KV bytes currently reserved on workload `w`'s lane.
    pub fn kv_reserved_bytes(&self, w: usize) -> u64 {
        self.engine.lanes[w].kv_reserved
    }

    /// Workload `w`'s KV budget.
    pub fn kv_budget_bytes(&self, w: usize) -> u64 {
        self.engine.lanes[w].kv_budget
    }

    /// Builds the report for the state as it stands.
    pub fn report(&self) -> LlmServeReport {
        self.engine.report()
    }

    /// Runs to the horizon and returns the final report.  Work in flight at
    /// the horizon is abandoned — its requests count as arrived, not
    /// completed, exactly as in the fleet engine.
    pub fn finish(self) -> LlmServeReport {
        self.engine.finish()
    }
}

/// The time-zero engine of the lanes `range` of already-validated inputs —
/// a lane shard, or every lane.  Lane `w` keeps its global workload index
/// `range.start + w`.
fn engine(
    spec: &LlmSpec,
    trace: &LlmTrace,
    mode: BatchingMode,
    range: Range<usize>,
) -> Engine<LlmLane> {
    let lanes = range.map(|w| LlmLane::new(spec, trace, w)).collect();
    Engine::new(mode, trace.horizon_seconds, lanes, Vec::new())
}

/// Every check [`LlmSimState::new`] makes, in its documented order, the
/// streams per shard of lanes for `threads` workers.  Returns the shards.
fn validate(spec: &LlmSpec, trace: &LlmTrace, threads: usize) -> Result<Shards, ServeError> {
    let k = spec.workloads.len();
    let profiles = spec.traffic.workloads();
    if profiles != k || trace.requests.len() != k {
        return Err(ServeError::ShapeMismatch {
            placements: k,
            profiles,
            streams: trace.requests.len(),
        });
    }
    check_horizon(trace.horizon_seconds)?;
    if spec.max_batch_slots == 0 {
        return Err(ServeError::ZeroMaxBatch);
    }
    spec.validate().map_err(ServeError::Traffic)?;
    let requests: Vec<usize> = trace.requests.iter().map(|s| s.len()).collect();
    Shards::checked(threads, &requests, |lanes| {
        let streams = lanes.map(|w| (w, trace.requests[w].as_slice()));
        // A request that can never be admitted would block its lane's FCFS
        // queue for the rest of the run.
        check_streams(trace.horizon_seconds, streams, |w, r| {
            let llm = &spec.workloads[w];
            let request_bytes = llm.request_kv_bytes(r.prompt_tokens, r.output_tokens);
            let budget_bytes = spec.kv_budget_bytes(w);
            if request_bytes > budget_bytes {
                return Err(ServeError::Traffic(TrafficError::RequestExceedsKvBudget {
                    workload: w,
                    request_bytes,
                    budget_bytes,
                }));
            }
            Ok(r.arrival)
        })
    })
}

/// Replays `trace` against `spec` under `mode`, its lanes sharded across
/// the `MARS_THREADS` worker pool.
///
/// Lanes never interact, so the decomposition is exact: each shard checks
/// and simulates its lane range as an independent engine, and the merge
/// selects the aggregate percentiles from the shards' summed sample counts
/// and the few samples in the buckets that hold them, so the report is
/// **bit-identical** to one [`LlmSimState`]'s at every thread count.
///
/// # Errors
///
/// As for [`LlmSimState::new`].
pub fn simulate_llm_sharded(
    spec: &LlmSpec,
    trace: &LlmTrace,
    mode: BatchingMode,
) -> Result<LlmServeReport, ServeError> {
    simulate_llm_sharded_observed(spec, trace, mode, &Recorder::disabled())
}

/// [`simulate_llm_sharded`] with an observability recorder: each shard
/// records its lanes' metrics (prefill/decode spans, KV levels and gauges,
/// keyed by workload name) into a local store, absorbed into `recorder` in
/// lane order after the join.  Lanes never interact, so the merged record
/// is bit-identical at every `MARS_THREADS` setting, exactly like the
/// report.
///
/// # Errors
///
/// As for [`LlmSimState::new`].
pub fn simulate_llm_sharded_observed(
    spec: &LlmSpec,
    trace: &LlmTrace,
    mode: BatchingMode,
    recorder: &Recorder,
) -> Result<LlmServeReport, ServeError> {
    let shards = validate(spec, trace, threads_from_env())?;
    Ok(
        shards.run(recorder, (mode, trace.horizon_seconds), |range, local| {
            let mut shard = engine(spec, trace, mode, range);
            shard.attach(local, false);
            shard
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_model::zoo::llm_mix;
    use mars_model::{PhasedTraffic, TrafficPhase, TrafficProfile};

    /// One engine, validated and run to the horizon.
    fn replay(
        spec: &LlmSpec,
        trace: &LlmTrace,
        mode: BatchingMode,
    ) -> Result<LlmServeReport, ServeError> {
        Ok(LlmSimState::new(spec, trace, mode)?.finish())
    }

    fn tiny_spec() -> LlmSpec {
        let mut spec = llm_mix();
        // One workload, slow arrivals: hand-checkable.
        spec.workloads.truncate(1);
        let sla = 3.0;
        spec.traffic = PhasedTraffic::new(
            4.0,
            vec![TrafficPhase::new(0.0, vec![TrafficProfile::new(2.0, sla)])],
        );
        spec
    }

    #[test]
    fn trace_draw_is_deterministic_and_phase_stamped() {
        let spec = llm_mix();
        let a = LlmTrace::draw(&spec, 42).unwrap();
        let b = LlmTrace::draw(&spec, 42).unwrap();
        assert_eq!(a, b);
        assert!(a.total_requests() > 0);
        for (w, stream) in a.requests.iter().enumerate() {
            let llm = &spec.workloads[w];
            for r in stream.iter() {
                assert!((llm.prompt_tokens.0..=llm.prompt_tokens.1).contains(&r.prompt_tokens));
                assert!((llm.output_tokens.0..=llm.output_tokens.1).contains(&r.output_tokens));
                // Deadline derives from the phase in force at arrival.
                let f = spec.traffic.profiles_at(r.arrival)[w].sla_factor;
                let ideal = llm.ideal_latency_seconds(r.prompt_tokens, r.output_tokens);
                assert!((r.sla_seconds - f * ideal).abs() < 1e-12);
            }
        }
        // Different seeds differ.
        assert_ne!(a, LlmTrace::draw(&spec, 43).unwrap());
    }

    #[test]
    fn single_request_completes_at_its_ideal_latency() {
        let spec = tiny_spec();
        let llm = spec.workloads[0].clone();
        let trace = LlmTrace {
            horizon_seconds: 4.0,
            requests: vec![Arc::new(vec![LlmRequest {
                arrival: 0.5,
                prompt_tokens: 100,
                output_tokens: 4,
                sla_seconds: 10.0,
            }])],
        };
        for mode in BatchingMode::ALL {
            let report = replay(&spec, &trace, mode).unwrap();
            assert_eq!(report.completed, 1, "{mode}");
            assert_eq!(report.goodput, 1, "{mode}");
            // Alone in the lane, both modes cost prefill + 3 solo decodes.
            let expect = llm.prefill_seconds(100) + 3.0 * llm.decode_iteration_seconds(1);
            assert!(
                (report.p50_ms - expect * 1e3).abs() < 1e-9,
                "{mode}: {} vs {}",
                report.p50_ms,
                expect * 1e3
            );
        }
    }

    #[test]
    fn conservation_and_kv_envelope_hold_on_the_bundled_mix() {
        let spec = llm_mix();
        let trace = LlmTrace::draw(&spec, 42).unwrap();
        for mode in BatchingMode::ALL {
            let report = replay(&spec, &trace, mode).unwrap();
            assert_eq!(report.total_requests, trace.total_requests());
            assert!(report.goodput <= report.completed);
            assert!(report.completed <= report.total_requests);
            assert!(report.completed > 0, "{mode}: nothing completed");
            for s in &report.per_workload {
                assert!(s.met_sla <= s.completed);
                assert!(s.completed <= s.requests);
                assert!(
                    s.peak_kv_bytes <= s.kv_budget_bytes,
                    "{mode}: KV overcommit"
                );
                assert!(s.busy_seconds <= report.horizon_seconds + 1e-9);
            }
        }
    }

    #[test]
    fn continuous_batching_beats_one_shot_on_goodput() {
        let spec = llm_mix();
        let trace = LlmTrace::draw(&spec, 42).unwrap();
        let reports: Vec<LlmServeReport> = BatchingMode::ALL
            .into_iter()
            .map(|mode| simulate_llm_sharded(&spec, &trace, mode).unwrap())
            .collect();
        let one_shot = &reports[0];
        let continuous = &reports[1];
        assert!(
            continuous.goodput > one_shot.goodput,
            "continuous {} must beat one-shot {}",
            continuous.goodput,
            one_shot.goodput
        );
        // Iteration-level scheduling also completes at least as many.
        assert!(continuous.completed >= one_shot.completed);
    }

    #[test]
    fn sharded_run_is_bit_identical_to_unsharded() {
        let spec = llm_mix();
        let trace = LlmTrace::draw(&spec, 7).unwrap();
        for mode in BatchingMode::ALL {
            let sharded = simulate_llm_sharded(&spec, &trace, mode).unwrap();
            let single = replay(&spec, &trace, mode).unwrap();
            assert_eq!(sharded, single, "{mode}");
        }
    }

    #[test]
    fn checkpoint_restore_is_bit_identical() {
        let spec = llm_mix();
        let trace = LlmTrace::draw(&spec, 11).unwrap();
        for mode in BatchingMode::ALL {
            let baseline = LlmSimState::new(&spec, &trace, mode).unwrap().finish();
            let mut sim = LlmSimState::new(&spec, &trace, mode).unwrap();
            for fraction in [0.25, 0.5, 0.75] {
                sim.run_until(fraction * trace.horizon_seconds);
                let restored = sim.clone().finish();
                assert_eq!(restored, baseline, "{mode} diverged at {fraction}");
            }
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let spec = llm_mix();
        let mut trace = LlmTrace::draw(&spec, 1).unwrap();
        trace.requests.pop();
        assert!(matches!(
            replay(&spec, &trace, BatchingMode::Continuous),
            Err(ServeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn nan_arrival_is_a_typed_error_not_a_panic() {
        let spec = llm_mix();
        let mut trace = LlmTrace::draw(&spec, 3).unwrap();
        Arc::make_mut(&mut trace.requests[2])[0].arrival = f64::NAN;
        for mode in BatchingMode::ALL {
            assert_eq!(
                simulate_llm_sharded(&spec, &trace, mode),
                Err(ServeError::InvalidTrace { workload: 2 })
            );
            assert_eq!(
                replay(&spec, &trace, mode),
                Err(ServeError::InvalidTrace { workload: 2 })
            );
        }
        // Unsorted and out-of-window streams are rejected the same way.
        let mut unsorted = LlmTrace::draw(&spec, 3).unwrap();
        Arc::make_mut(&mut unsorted.requests[1]).swap(0, 1);
        assert_eq!(
            simulate_llm_sharded(&spec, &unsorted, BatchingMode::Continuous),
            Err(ServeError::InvalidTrace { workload: 1 })
        );
        let mut late = LlmTrace::draw(&spec, 3).unwrap();
        let last = Arc::make_mut(&mut late.requests[0]).last_mut().unwrap();
        last.arrival = late.horizon_seconds;
        assert!(matches!(
            LlmSimState::new(&spec, &late, BatchingMode::OneShot),
            Err(ServeError::InvalidTrace { workload: 0 })
        ));
    }

    #[test]
    fn nan_horizon_is_rejected() {
        let spec = llm_mix();
        for horizon in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let mut trace = LlmTrace::draw(&spec, 5).unwrap();
            trace.horizon_seconds = horizon;
            for mode in BatchingMode::ALL {
                assert!(
                    matches!(
                        simulate_llm_sharded(&spec, &trace, mode),
                        Err(ServeError::InvalidHorizon(h)) if h.to_bits() == horizon.to_bits()
                    ),
                    "horizon {horizon} accepted"
                );
            }
        }
    }

    /// A lane too small for one request is a typed error when the trace is
    /// drawn, and at every entry point when a trace drawn earlier is
    /// replayed on it.
    #[test]
    fn lane_too_small_for_one_request_is_a_typed_error() {
        let mut spec = llm_mix();
        let trace = LlmTrace::draw(&spec, 42).unwrap();
        spec.accel_memory_bytes = 1;
        assert!(matches!(
            LlmTrace::draw(&spec, 42),
            Err(TrafficError::RequestExceedsKvBudget { workload: 0, .. })
        ));
        let expected = ServeError::Traffic(TrafficError::RequestExceedsKvBudget {
            workload: 0,
            request_bytes: spec.workloads[0].max_request_kv_bytes(),
            budget_bytes: 0,
        });
        assert_rejected(&spec, &trace, &expected);
    }

    /// Zero lanes: the runner returns the engine's all-zero report, and
    /// still rejects a bad horizon.
    #[test]
    fn zero_lane_replay_matches_the_engine() {
        let mut spec = llm_mix();
        spec.workloads.clear();
        // A valid spec with no workloads: its phases carry no profiles.
        spec.traffic = PhasedTraffic::new(1.0, vec![TrafficPhase::new(0.0, Vec::new())]);
        let mut trace = LlmTrace {
            horizon_seconds: 1.0,
            requests: Vec::new(),
        };
        for mode in BatchingMode::ALL {
            let report = simulate_llm_sharded(&spec, &trace, mode).unwrap();
            assert_eq!(report, replay(&spec, &trace, mode).unwrap());
            assert!(report.per_workload.is_empty());
            assert_eq!(
                (report.p50_ms, report.p95_ms, report.p99_ms),
                (0.0, 0.0, 0.0)
            );
        }
        trace.horizon_seconds = f64::NAN;
        assert!(matches!(
            simulate_llm_sharded(&spec, &trace, BatchingMode::Continuous),
            Err(ServeError::InvalidHorizon(h)) if h.is_nan()
        ));
    }

    /// A bound past the horizon is clamped to it: iteration ends after the
    /// horizon never happen, so the run still matches `finish()` alone.
    #[test]
    fn run_until_past_the_horizon_is_clamped_to_it() {
        let spec = llm_mix();
        let trace = LlmTrace::draw(&spec, 42).unwrap();
        for mode in BatchingMode::ALL {
            let finished = replay(&spec, &trace, mode).unwrap();
            let mut sim = LlmSimState::new(&spec, &trace, mode).unwrap();
            sim.run_until(2.0 * trace.horizon_seconds);
            assert_eq!(sim.report(), finished, "{mode}");
            assert_eq!(sim.finish(), finished, "{mode}");
        }
    }

    /// One lane arrives out of order and another holds a request over its
    /// KV budget (each lane is its own shard at `MARS_THREADS` >= 3): every
    /// entry point returns the engine's error, the lowest failing lane's,
    /// whichever of the two that is.
    #[test]
    fn the_lowest_failing_lane_wins_across_shards() {
        let spec = llm_mix();
        let last = spec.workloads.len() - 1;
        for (unsorted, over_budget) in [(last, 0), (0, last)] {
            let mut trace = LlmTrace::draw(&spec, 42).unwrap();
            Arc::make_mut(&mut trace.requests[unsorted]).swap(0, 1);
            Arc::make_mut(&mut trace.requests[over_budget])[3].prompt_tokens = u32::MAX;
            let expected = LlmSimState::new(&spec, &trace, BatchingMode::Continuous)
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(
                expected,
                ServeError::InvalidTrace { workload: 0 }
                    | ServeError::Traffic(TrafficError::RequestExceedsKvBudget { workload: 0, .. })
            ));
            assert_rejected(&spec, &trace, &expected);
        }
    }

    /// A NaN bound is a no-op: `until.min(horizon)` used to turn it into
    /// the horizon and finish every request before the clock got there.
    #[test]
    fn run_until_nan_changes_nothing() {
        let spec = llm_mix();
        let trace = LlmTrace::draw(&spec, 42).unwrap();
        for mode in BatchingMode::ALL {
            let finished = replay(&spec, &trace, mode).unwrap();
            for at in [0.0, 0.25 * trace.horizon_seconds] {
                let mut sim = LlmSimState::new(&spec, &trace, mode).unwrap();
                sim.run_until(at);
                let report = sim.report();
                sim.run_until(f64::NAN);
                assert_eq!(sim.report(), report, "{mode} at {at}");
                assert_eq!(sim.finish(), finished, "{mode} at {at}");
            }
        }
    }

    /// Every whole-run entry point, for one input, the observed one
    /// recording into `recorder`.
    fn every_entry_point(
        spec: &LlmSpec,
        trace: &LlmTrace,
        recorder: &Recorder,
    ) -> Vec<Result<(), ServeError>> {
        BatchingMode::ALL
            .into_iter()
            .flat_map(|mode| {
                [
                    LlmSimState::new(spec, trace, mode).map(|_| ()),
                    simulate_llm_sharded(spec, trace, mode).map(|_| ()),
                    simulate_llm_sharded_observed(spec, trace, mode, recorder).map(|_| ()),
                ]
            })
            .collect()
    }

    /// Every entry point rejects the input with `expected`, and the
    /// observed one records nothing.
    #[track_caller]
    fn assert_rejected(spec: &LlmSpec, trace: &LlmTrace, expected: &ServeError) {
        let recorder = Recorder::enabled();
        for got in every_entry_point(spec, trace, &recorder) {
            assert_eq!(got.as_ref(), Err(expected));
        }
        assert!(recorder.snapshot().is_empty(), "a rejected input recorded");
    }

    /// Zero batch slots would admit nothing: a typed error.
    #[test]
    fn zero_batch_slots_are_rejected() {
        let mut spec = llm_mix();
        let trace = LlmTrace::draw(&spec, 42).unwrap();
        spec.max_batch_slots = 0;
        assert_rejected(&spec, &trace, &ServeError::ZeroMaxBatch);
    }

    /// A trace request that can never be admitted would block its lane's
    /// FCFS queue forever; it is rejected by workload, with its KV need
    /// summed in `u64` so even a `u32::MAX`-token prompt cannot overflow.
    #[test]
    fn request_over_the_kv_budget_is_rejected() {
        let spec = llm_mix();
        let just_over = (spec.kv_budget_bytes(1) / spec.workloads[1].kv_bytes_per_token) as u32;
        for (w, prompt_tokens) in [(1, just_over), (0, u32::MAX)] {
            let mut trace = LlmTrace::draw(&spec, 42).unwrap();
            let request = &mut Arc::make_mut(&mut trace.requests[w])[3];
            request.prompt_tokens = prompt_tokens;
            let tokens = u64::from(prompt_tokens) + u64::from(request.output_tokens);
            let expected = ServeError::Traffic(TrafficError::RequestExceedsKvBudget {
                workload: w,
                request_bytes: spec.workloads[w].kv_bytes(tokens),
                budget_bytes: spec.kv_budget_bytes(w),
            });
            assert_rejected(&spec, &trace, &expected);
        }
    }

    /// Nothing a lane buffered stays behind when `run_until` returns: an
    /// `LlmSimState` run in quarters exports the bytes one run to the
    /// horizon exports, in both batching modes.
    #[test]
    fn quartered_runs_export_what_one_run_exports() {
        use mars_obs::{chrome_trace_json, metrics_json};
        let spec = llm_mix();
        let trace = LlmTrace::draw(&spec, 42).unwrap();
        for mode in BatchingMode::ALL {
            let exports = |quarters: &[f64]| {
                let recorder = Recorder::enabled();
                let mut sim = LlmSimState::new(&spec, &trace, mode)
                    .unwrap()
                    .with_recorder(recorder.clone());
                for q in quarters {
                    sim.run_until(trace.horizon_seconds * q / 4.0);
                    assert!(!recorder.snapshot().is_empty(), "{mode}: quarter {q}");
                }
                sim.finish();
                let obs = recorder.take();
                (metrics_json(&obs), chrome_trace_json(&obs))
            };
            let whole = exports(&[]);
            assert!(whole.1.contains("prefill"), "{mode}: no phase spans");
            assert!(exports(&[1.0, 2.0, 3.0]) == whole, "{mode}");
        }
    }
}
