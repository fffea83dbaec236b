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
//! Mechanically, decode-phase requests *re-enter the lane queue via calendar
//! events*: each iteration's end is a [`CalendarQueue`] event, popping it
//! completes the iteration (tokens accepted, finished sequences retired),
//! admission control refills the slots under the lane's KV budget, and the
//! next iteration's end is inserted as a fresh event.  Lane generation
//! counters make superseded events stale, exactly as in the fleet engine.
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

use crate::calendar::CalendarQueue;
use crate::lanes::{run_lanes, Lanes};
use crate::sim::percentile_triple_ms;
use crate::trace::Trace;
use mars_core::genome_stream_seed;
use mars_model::zoo::{LlmSpec, LlmWorkload};
use mars_model::TrafficError;
use mars_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::ops::Range;

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
pub struct LlmRequest {
    /// Arrival instant, seconds.
    pub arrival: f64,
    /// Prompt length in tokens (drives the prefill cost and the initial KV
    /// footprint).
    pub prompt_tokens: u32,
    /// Number of tokens to generate (one decode iteration each; the first
    /// comes out of the prefill).
    pub output_tokens: u32,
    /// Deadline budget, seconds past arrival: `sla_factor` of the traffic
    /// phase in force *at arrival* times the request's contention-free
    /// latency ([`LlmWorkload::ideal_latency_seconds`]).  Phase-aware: the
    /// same shape arriving mid-surge gets a tighter deadline.
    pub sla_seconds: f64,
}

/// The replayable input of the LLM engine: per-workload request streams with
/// token shapes and phase-stamped deadlines, drawn once from the seeded RNG
/// shim — the LLM-serving analogue of [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct LlmTrace {
    /// Length of the arrival window in seconds.
    pub horizon_seconds: f64,
    /// Per-workload requests, in strictly increasing arrival order.
    pub requests: Vec<Vec<LlmRequest>>,
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
                arrivals.arrivals[w]
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
                    .collect()
            })
            .collect();
        Ok(LlmTrace {
            horizon_seconds: spec.traffic.horizon_seconds,
            requests,
        })
    }

    /// Total number of requests across all workloads.
    pub fn total_requests(&self) -> usize {
        self.requests.iter().map(Vec::len).sum()
    }
}

/// Why an LLM simulation rejected its inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum LlmServeError {
    /// The spec's workload count and the trace's stream count disagree.
    ShapeMismatch {
        /// Number of workloads in the spec.
        workloads: usize,
        /// Number of request streams in the trace.
        streams: usize,
    },
    /// The spec itself is invalid (propagated from [`LlmSpec::validate`]).
    Traffic(TrafficError),
    /// The trace's horizon is not a positive finite number.
    InvalidHorizon(f64),
    /// A workload's request stream violates the [`LlmTrace`] invariant:
    /// arrivals must be sorted, finite and inside `[0, horizon)`.
    InvalidTrace {
        /// Index of the offending workload.
        workload: usize,
    },
}

impl std::fmt::Display for LlmServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmServeError::ShapeMismatch { workloads, streams } => write!(
                f,
                "spec has {workloads} workloads but the trace has {streams} request streams"
            ),
            LlmServeError::Traffic(e) => write!(f, "invalid LLM scenario: {e}"),
            LlmServeError::InvalidHorizon(h) => write!(f, "invalid LLM trace horizon {h}"),
            LlmServeError::InvalidTrace { workload } => write!(
                f,
                "workload {workload}: arrivals must be sorted and inside [0, horizon)"
            ),
        }
    }
}

impl std::error::Error for LlmServeError {}

impl From<TrafficError> for LlmServeError {
    fn from(e: TrafficError) -> Self {
        LlmServeError::Traffic(e)
    }
}

/// Checks that `trace` lines up with `spec` and keeps the [`LlmTrace`]
/// invariant the event loop relies on — a positive finite horizon, every
/// stream sorted, finite and inside `[0, horizon)` — in one O(n) pass, as
/// [`SimState::new`](crate::SimState::new) does for CNN traces.
fn check_inputs(spec: &LlmSpec, trace: &LlmTrace) -> Result<(), LlmServeError> {
    if spec.workloads.len() != trace.requests.len() {
        return Err(LlmServeError::ShapeMismatch {
            workloads: spec.workloads.len(),
            streams: trace.requests.len(),
        });
    }
    let horizon = trace.horizon_seconds;
    if !(horizon > 0.0 && horizon.is_finite()) {
        return Err(LlmServeError::InvalidHorizon(horizon));
    }
    for (w, stream) in trace.requests.iter().enumerate() {
        let in_window = stream.iter().all(|r| (0.0..horizon).contains(&r.arrival));
        let sorted = stream.windows(2).all(|p| p[0].arrival <= p[1].arrival);
        if !(in_window && sorted) {
            return Err(LlmServeError::InvalidTrace { workload: w });
        }
    }
    Ok(())
}

/// Per-request lifecycle state inside a lane (struct-of-arrays, like the
/// fleet engine's arena — but with token/phase state, and without the
/// queue-contiguity invariant: continuous batching retires sequences out of
/// admission order).
#[derive(Debug, Clone, Default)]
struct LlmArena {
    /// Tokens accepted into the KV cache beyond the prompt (0 while waiting
    /// or prefilling; the prefill emits the first output token).
    decoded: Vec<u32>,
    /// KV bytes reserved for the request while it is in flight.
    reserved: Vec<u64>,
    /// Completion latency, seconds (`NaN` until completed).
    latency: Vec<f64>,
}

impl LlmArena {
    fn with_len(n: usize) -> Self {
        Self {
            decoded: vec![0; n],
            reserved: vec![0; n],
            latency: vec![f64::NAN; n],
        }
    }
}

/// One workload's serving lane: a single accelerator card holding the
/// model's weights, a KV budget, and the iteration state machine.
#[derive(Debug, Clone)]
struct LlmLane {
    workload: usize,
    llm: LlmWorkload,
    requests: Vec<LlmRequest>,
    arena: LlmArena,
    kv_budget: u64,
    slots: usize,
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
    /// Lane generation: bumped whenever a new wake supersedes the old one.
    generation: u32,
    completed: usize,
    met_sla: usize,
    latencies: Vec<f64>,
    iterations: usize,
    prefills: usize,
    /// Σ decode-phase occupancy over iterations (for the mean batch figure).
    decode_occupancy: usize,
    busy_seconds: f64,
}

impl LlmLane {
    fn new(
        workload: usize,
        llm: LlmWorkload,
        requests: Vec<LlmRequest>,
        spec_budget: u64,
        slots: usize,
    ) -> Self {
        let n = requests.len();
        Self {
            workload,
            llm,
            requests,
            arena: LlmArena::with_len(n),
            kv_budget: spec_budget,
            slots,
            next_arrival: 0,
            queue: VecDeque::new(),
            running: Vec::new(),
            iter_new: Vec::new(),
            in_flight: false,
            kv_reserved: 0,
            peak_kv: 0,
            generation: 0,
            completed: 0,
            met_sla: 0,
            latencies: Vec::new(),
            iterations: 0,
            prefills: 0,
            decode_occupancy: 0,
            busy_seconds: 0.0,
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
                .kv_bytes((req.prompt_tokens + req.output_tokens) as u64);
            if self.kv_reserved + need > self.kv_budget {
                break;
            }
            self.queue.pop_front();
            self.kv_reserved += need;
            self.peak_kv = self.peak_kv.max(self.kv_reserved);
            self.arena.reserved[idx as usize] = need;
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
        self.arena.latency[idx as usize] = latency;
        self.kv_reserved -= self.arena.reserved[idx as usize];
        self.arena.reserved[idx as usize] = 0;
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
            let d = &mut self.arena.decoded[idx as usize];
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
            self.arena.decoded[idx as usize] = self.requests[idx as usize].output_tokens;
            self.retire(idx, now);
        }
        self.in_flight = false;
    }

    /// Starts the next unit of work at `now`, returning the instant its end
    /// event should fire, or `None` if the lane has nothing admitted.
    fn start_work(&mut self, now: f64, mode: BatchingMode, horizon: f64) -> Option<f64> {
        if self.running.is_empty() {
            return None;
        }
        self.in_flight = true;
        let duration = match mode {
            BatchingMode::Continuous => {
                // One iteration: the prefills of the newly admitted plus one
                // decode step of everything already holding tokens.
                let prefill: f64 = self
                    .iter_new
                    .iter()
                    .map(|&i| {
                        self.llm
                            .prefill_seconds(self.requests[i as usize].prompt_tokens)
                    })
                    .sum();
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
                let prefill: f64 = self
                    .running
                    .iter()
                    .map(|&i| {
                        self.llm
                            .prefill_seconds(self.requests[i as usize].prompt_tokens)
                    })
                    .sum();
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
}

/// Per-workload serving statistics of an LLM run.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmLaneStats {
    /// Workload index.
    pub workload: usize,
    /// Workload display name.
    pub name: String,
    /// Requests arrived over the horizon.
    pub requests: usize,
    /// Requests fully generated before the horizon.
    pub completed: usize,
    /// Completed requests that met their (phase-aware) deadline.
    pub met_sla: usize,
    /// Admitted requests (each runs exactly one prefill).
    pub prefills: usize,
    /// Decode iterations executed (continuous) or padded-batch decode
    /// iterations (one-shot).
    pub iterations: usize,
    /// Mean decode-phase occupancy per iteration — the figure continuous
    /// batching keeps high and one-shot lets decay as members finish.
    pub mean_running: f64,
    /// p50 completion latency, milliseconds.
    pub p50_ms: f64,
    /// p95 completion latency, milliseconds.
    pub p95_ms: f64,
    /// p99 completion latency, milliseconds.
    pub p99_ms: f64,
    /// Seconds the lane's accelerator spent executing (clamped to horizon).
    pub busy_seconds: f64,
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
    pub horizon_seconds: f64,
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

impl LlmServeReport {
    /// Assembles the report from finished lanes in lane order: the one
    /// place an `LlmServeReport` is built, for a single engine and for
    /// merged shards alike.
    pub(crate) fn from_lanes(
        mode: BatchingMode,
        horizon_seconds: f64,
        lanes: Lanes<LlmLaneStats>,
    ) -> Self {
        let Lanes {
            stats: per_workload,
            mut latencies,
            ..
        } = lanes;
        let (p50_ms, p95_ms, p99_ms) = percentile_triple_ms(&mut latencies);
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

/// The resumable LLM serving simulation over one [`LlmSpec`] and its drawn
/// [`LlmTrace`].
///
/// Lanes are independent (one workload per accelerator card), but share one
/// [`CalendarQueue`] ordered by `(time, lane, seq)` — iteration ends are
/// calendar events, and decode-phase sequences re-enter the lane's schedule
/// by inserting the next iteration's end.  All state is plain data, so
/// checkpoint/restore is `Clone`, as for the fleet engine.
#[derive(Debug, Clone)]
pub struct LlmSimState {
    mode: BatchingMode,
    horizon: f64,
    lanes: Vec<LlmLane>,
    calendar: CalendarQueue,
    clock: f64,
    /// Observability sink: prefill/decode phase spans and KV reservation
    /// levels land here, keyed by workload name.  Lanes are independent, so
    /// everything recorded is lane-local and merges bit-identically across
    /// shard splits.  Disabled (a null check) by default.
    recorder: Recorder,
    /// Per-lane span tracks (`llm/<name>`) and KV series keys
    /// (`llm/kv_reserved/<name>`), built once when an enabled recorder
    /// attaches.
    tracks: Vec<String>,
    kv_keys: Vec<String>,
}

impl LlmSimState {
    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Rejects spec/trace shape mismatches, a horizon that is not positive
    /// and finite, and request streams that are not sorted, finite and
    /// inside `[0, horizon)`.
    pub fn new(
        spec: &LlmSpec,
        trace: &LlmTrace,
        mode: BatchingMode,
    ) -> Result<Self, LlmServeError> {
        check_inputs(spec, trace)?;
        Ok(Self::for_lanes(spec, trace, mode, 0..spec.workloads.len()))
    }

    /// Builds the initial state of the lanes `range` of already-validated
    /// inputs — a lane shard, or every lane.  Lane `w` keeps its global
    /// workload index `range.start + w`.
    pub(crate) fn for_lanes(
        spec: &LlmSpec,
        trace: &LlmTrace,
        mode: BatchingMode,
        range: Range<usize>,
    ) -> Self {
        let horizon = trace.horizon_seconds;
        let lanes: Vec<LlmLane> = range
            .map(|w| {
                LlmLane::new(
                    w,
                    spec.workloads[w].clone(),
                    trace.requests[w].clone(),
                    spec.kv_budget_bytes(w),
                    spec.max_batch_slots,
                )
            })
            .collect();
        let mut calendar = CalendarQueue::new();
        // Seed each lane's first wake at its first arrival.
        for (w, lane) in lanes.iter().enumerate() {
            if let Some(first) = lane.requests.first() {
                calendar.insert(first.arrival, w as u32, 0);
            }
        }
        Self {
            mode,
            horizon,
            lanes,
            calendar,
            clock: 0.0,
            recorder: Recorder::disabled(),
            tracks: Vec::new(),
            kv_keys: Vec::new(),
        }
    }

    /// Attaches an observability recorder: per-lane prefill/decode phase
    /// spans, KV reservation series and peak-KV gauges.  Every recorded
    /// quantity derives from the simulated clock, so attaching a recorder
    /// never changes the report.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        if recorder.is_enabled() {
            let names = self.lanes.iter().map(|lane| &lane.llm.name);
            self.tracks = names.clone().map(|n| format!("llm/{n}")).collect();
            self.kv_keys = names.map(|n| format!("llm/kv_reserved/{n}")).collect();
        }
        self.recorder = recorder;
        self
    }

    /// Records the final per-lane gauges (peak KV, busy seconds); idempotent
    /// under repeated reports because the values are monotone.
    fn record_lane_gauges(&self) {
        if self.recorder.is_enabled() {
            for lane in &self.lanes {
                self.recorder.gauge_max(
                    &format!("llm/kv_peak_bytes/{}", lane.llm.name),
                    lane.peak_kv as f64,
                );
                self.recorder.gauge_max(
                    &format!("llm/busy_seconds/{}", lane.llm.name),
                    lane.busy_seconds,
                );
            }
        }
    }

    /// Advances the simulation to `until` (events strictly after it stay
    /// queued).
    pub fn run_until(&mut self, until: f64) {
        while let Some(ev) = self.calendar.peek_min() {
            if ev.time > until {
                break;
            }
            self.calendar.pop_min();
            let lane = &mut self.lanes[ev.lane as usize];
            if ev.seq != lane.generation {
                continue; // superseded wake
            }
            let now = ev.time;
            self.clock = self.clock.max(now);
            if lane.in_flight {
                match self.mode {
                    BatchingMode::Continuous => lane.finish_iteration(now),
                    BatchingMode::OneShot => lane.finish_batch(now),
                }
            }
            lane.pull_arrivals(now);
            lane.admit();
            lane.generation = lane.generation.wrapping_add(1);
            let gen = lane.generation;
            if self.recorder.is_enabled() {
                self.recorder.point(
                    &self.kv_keys[ev.lane as usize],
                    now,
                    lane.kv_reserved as f64,
                );
            }
            if let Some(end) = lane.start_work(now, self.mode, self.horizon) {
                if self.recorder.is_enabled() {
                    // `iter_new` still holds this iteration's prefilling
                    // members (cleared when the iteration finishes), so the
                    // phase composition is readable right after launch.
                    let prefilling = lane.iter_new.len();
                    let phase = match (prefilling > 0, lane.running.len() > prefilling) {
                        (true, true) => "prefill+decode",
                        (true, false) => "prefill",
                        _ => "decode",
                    };
                    self.recorder
                        .span(&self.tracks[ev.lane as usize], phase, now, end);
                }
                // Decode re-entry: the next iteration's end is a fresh
                // calendar event for this lane.
                self.calendar.insert(end, ev.lane, gen);
            } else if lane.next_arrival < lane.requests.len() {
                // Idle: wake at the next arrival.
                let at = lane.requests[lane.next_arrival].arrival;
                self.calendar.insert(at, ev.lane, gen);
            }
        }
        self.clock = self.clock.max(until.min(self.horizon));
    }

    /// KV bytes currently reserved on workload `w`'s lane.
    pub fn kv_reserved_bytes(&self, w: usize) -> u64 {
        self.lanes[w].kv_reserved
    }

    /// Workload `w`'s KV budget.
    pub fn kv_budget_bytes(&self, w: usize) -> u64 {
        self.lanes[w].kv_budget
    }

    /// Builds the report for the state as it stands.
    pub fn report(&self) -> LlmServeReport {
        self.record_lane_gauges();
        LlmServeReport::from_lanes(self.mode, self.horizon, self.lanes())
    }

    /// Runs to the horizon and returns the final report.  Work in flight at
    /// the horizon is abandoned — its requests count as arrived, not
    /// completed, exactly as in the fleet engine.
    pub fn finish(self) -> LlmServeReport {
        let (mode, horizon) = (self.mode, self.horizon);
        LlmServeReport::from_lanes(mode, horizon, self.finish_lanes())
    }

    /// Runs to the horizon, records the final lane gauges, and hands back
    /// the finished lanes (what a lane shard returns to the runner).
    pub(crate) fn finish_lanes(mut self) -> Lanes<LlmLaneStats> {
        self.run_until(self.horizon);
        self.record_lane_gauges();
        self.lanes()
    }

    /// The lanes as they stand, in lane order.
    fn lanes(&self) -> Lanes<LlmLaneStats> {
        let samples: Vec<&[f64]> = self.lanes.iter().map(|l| &l.latencies[..]).collect();
        Lanes {
            stats: self.lanes.iter().map(lane_stats).collect(),
            latencies: samples.concat(),
            accel_busy: Vec::new(),
        }
    }
}

fn lane_stats(lane: &LlmLane) -> LlmLaneStats {
    let mut sample = lane.latencies.clone();
    let (p50_ms, p95_ms, p99_ms) = percentile_triple_ms(&mut sample);
    LlmLaneStats {
        workload: lane.workload,
        name: lane.llm.name.clone(),
        requests: lane.requests.len(),
        completed: lane.completed,
        met_sla: lane.met_sla,
        prefills: lane.prefills,
        iterations: lane.iterations,
        mean_running: if lane.iterations > 0 {
            lane.decode_occupancy as f64 / lane.iterations as f64
        } else {
            0.0
        },
        p50_ms,
        p95_ms,
        p99_ms,
        busy_seconds: lane.busy_seconds,
        peak_kv_bytes: lane.peak_kv,
        kv_budget_bytes: lane.kv_budget,
    }
}

/// Replays `trace` against `spec` under `mode`, its lanes sharded across
/// the `MARS_THREADS` worker pool.
///
/// Lanes never interact, so the decomposition is exact: each shard
/// simulates its lane range as an independent [`LlmSimState`] and the merge
/// re-derives the aggregate percentiles from the concatenated raw samples,
/// so the report is **bit-identical** to one engine's at every thread
/// count.
///
/// # Errors
///
/// As for [`LlmSimState::new`].
pub fn simulate_llm_sharded(
    spec: &LlmSpec,
    trace: &LlmTrace,
    mode: BatchingMode,
) -> Result<LlmServeReport, LlmServeError> {
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
) -> Result<LlmServeReport, LlmServeError> {
    check_inputs(spec, trace)?;
    let lanes = run_lanes(spec.workloads.len(), recorder, |range, local| {
        LlmSimState::for_lanes(spec, trace, mode, range)
            .with_recorder(local)
            .finish_lanes()
    });
    Ok(LlmServeReport::from_lanes(
        mode,
        trace.horizon_seconds,
        lanes,
    ))
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
    ) -> Result<LlmServeReport, LlmServeError> {
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
            for r in stream {
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
            requests: vec![vec![LlmRequest {
                arrival: 0.5,
                prompt_tokens: 100,
                output_tokens: 4,
                sla_seconds: 10.0,
            }]],
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
            Err(LlmServeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn nan_arrival_is_a_typed_error_not_a_panic() {
        let spec = llm_mix();
        let mut trace = LlmTrace::draw(&spec, 3).unwrap();
        trace.requests[2][0].arrival = f64::NAN;
        for mode in BatchingMode::ALL {
            assert_eq!(
                simulate_llm_sharded(&spec, &trace, mode),
                Err(LlmServeError::InvalidTrace { workload: 2 })
            );
            assert_eq!(
                replay(&spec, &trace, mode),
                Err(LlmServeError::InvalidTrace { workload: 2 })
            );
        }
        // Unsorted and out-of-window streams are rejected the same way.
        let mut unsorted = LlmTrace::draw(&spec, 3).unwrap();
        unsorted.requests[1].swap(0, 1);
        assert_eq!(
            simulate_llm_sharded(&spec, &unsorted, BatchingMode::Continuous),
            Err(LlmServeError::InvalidTrace { workload: 1 })
        );
        let mut late = LlmTrace::draw(&spec, 3).unwrap();
        late.requests[0].last_mut().unwrap().arrival = late.horizon_seconds;
        assert!(matches!(
            LlmSimState::new(&spec, &late, BatchingMode::OneShot),
            Err(LlmServeError::InvalidTrace { workload: 0 })
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
                        Err(LlmServeError::InvalidHorizon(h)) if h.to_bits() == horizon.to_bits()
                    ),
                    "horizon {horizon} accepted"
                );
            }
        }
    }

    #[test]
    fn lane_too_small_for_one_request_is_a_typed_error() {
        let mut spec = llm_mix();
        spec.accel_memory_bytes = 1;
        assert!(matches!(
            LlmTrace::draw(&spec, 42),
            Err(TrafficError::RequestExceedsKvBudget { workload: 0, .. })
        ));
    }

    /// Zero lanes: the runner returns the engine's all-zero report, and
    /// still rejects a bad horizon.
    #[test]
    fn zero_lane_replay_matches_the_engine() {
        let mut spec = llm_mix();
        spec.workloads.clear();
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
            Err(LlmServeError::InvalidHorizon(h)) if h.is_nan()
        ));
    }
}
