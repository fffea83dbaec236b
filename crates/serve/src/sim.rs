//! The discrete-event serving simulator.
//!
//! Every workload of a [`CoScheduleResult`] owns a disjoint accelerator
//! partition, so online serving decomposes into one single-server queue per
//! placement: requests arrive along the [`Trace`], wait in the workload's
//! batcher, and execute as batches on the partition.  A batch of `b`
//! inferences costs
//!
//! ```text
//! cost(b) = overhead + b × L        where L = placement per-inference latency
//! ```
//!
//! with `overhead = DISPATCH_OVERHEAD_FACTOR × L` (one inference's worth)
//! modelling the per-dispatch reconfiguration/weight-staging cost of the
//! partition — the term that makes dynamic batching worthwhile (bigger
//! batches amortise it) and late batching risky (requests age while the
//! batch fills).  A batch carries at most `MAX_BATCH` = 8 requests.
//!
//! The [`DispatchPolicy`] decides *when* a waiting batch launches:
//!
//! * [`Fifo`](DispatchPolicy::Fifo) — launch when the batch is full or the
//!   oldest request has waited `BATCH_TIMEOUT_SECONDS` (10 ms),
//!   deadline-blind.
//! * [`EarliestDeadline`](DispatchPolicy::EarliestDeadline) — keep
//!   accumulating until the last instant the oldest deadline can still be
//!   met (`deadline − cost(b)`), then launch.
//! * [`SlaWeighted`](DispatchPolicy::SlaWeighted) — earliest-deadline with
//!   the safety margin scaled by the workload's SLA weight (clamped below
//!   at 1): heavier workloads launch earlier, trading batch size for
//!   headroom; sub-one weights behave like plain EDF.
//!
//! The whole simulation is a pure function of `(placements, profiles,
//! trace, config)` — no wall clock, no global RNG — so its [`ServeReport`]
//! is bit-identical across `MARS_THREADS` settings and repeat runs.

use crate::arena::RequestArena;
use crate::lanes::{check_streams, Engine, Env, Lanes, ServeLane, Shards};
use crate::trace::Trace;
use mars_core::CoScheduleResult;
use mars_model::{TrafficError, TrafficProfile};
use mars_obs::Recorder;
use mars_parallel::scoped_map;
use mars_topology::AccelId;
use std::ops::Range;
use std::sync::Arc;

/// When the batcher hands an accumulated batch to its partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchPolicy {
    /// Full batch or fixed timeout, whichever first; ignores deadlines.
    Fifo,
    /// Launch at the last instant the oldest request's deadline is met.
    EarliestDeadline,
    /// [`EarliestDeadline`](DispatchPolicy::EarliestDeadline) with the
    /// safety margin scaled by the placement's SLA weight, clamped below at
    /// `1.0`: weights above one launch earlier (more headroom for their
    /// stricter SLA), while sub-one weights fall back to plain EDF rather
    /// than launching *past* the last deadline-safe instant.
    SlaWeighted,
}

impl DispatchPolicy {
    /// All policies, in the order the benchmark tables print them.
    pub const ALL: [DispatchPolicy; 3] = [
        DispatchPolicy::Fifo,
        DispatchPolicy::EarliestDeadline,
        DispatchPolicy::SlaWeighted,
    ];

    /// Short display name (`fifo`, `edf`, `sla-w`).
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::Fifo => "fifo",
            DispatchPolicy::EarliestDeadline => "edf",
            DispatchPolicy::SlaWeighted => "sla-w",
        }
    }
}

impl std::fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What happens to a batch in flight on an accelerator that fails
/// (see [`SimState::fail_accel`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FaultPolicy {
    /// The batch is destroyed with the device: its requests never complete
    /// (they still count as arrived, so they weigh on goodput).
    LoseInflight,
    /// The batch's requests return to the *front* of the lane's queue in
    /// their original order, keeping the deadlines they were admitted with —
    /// they rejoin the next dispatch once the lane is healthy again.
    #[default]
    RequeueInflight,
}

impl FaultPolicy {
    /// Short display name (`lose`, `requeue`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            FaultPolicy::LoseInflight => "lose",
            FaultPolicy::RequeueInflight => "requeue",
        }
    }
}

impl std::fmt::Display for FaultPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Largest batch a single dispatch may carry.
pub(crate) const MAX_BATCH: usize = 8;
/// The span name of a batch of `b` requests: `BATCH_LABELS[b]`.
const BATCH_LABELS: [&str; MAX_BATCH + 1] = [
    "batch(0)", "batch(1)", "batch(2)", "batch(3)", "batch(4)", "batch(5)", "batch(6)", "batch(7)",
    "batch(8)",
];
/// FIFO's accumulation window, in seconds: the oldest request never waits
/// longer than this before its batch launches (subject to the server being
/// free).
pub(crate) const BATCH_TIMEOUT_SECONDS: f64 = 0.010;
/// Per-dispatch overhead in units of the placement's per-inference latency.
pub(crate) const DISPATCH_OVERHEAD_FACTOR: f64 = 1.0;

/// Knobs of the serving simulation.  The batch cap (8), FIFO's window
/// (10 ms) and the dispatch overhead (one inference's latency) are constants
/// of the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Dispatch policy of every workload's batcher.
    pub policy: DispatchPolicy,
    /// Extra launch margin for the deadline-aware policies, as a fraction of
    /// the batch cost: EDF/SLA-weighted launch at
    /// `deadline − cost(b) × (margin + slack)` instead of the bare
    /// last-safe-instant.
    ///
    /// The default `0.0` reproduces the original zero-slack semantics
    /// (finishing *exactly at* the deadline) bit for bit — but zero slack is
    /// metastable: a singleton batch then finishes at `deadline ± 1 ulp`,
    /// and whether it counts as met is floating-point noise.  Serving stacks
    /// that steer by goodput (the elastic runtime's drift monitor) set a
    /// small positive slack so healthy lanes are *robustly* healthy.
    pub deadline_slack_factor: f64,
}

impl ServeConfig {
    /// The serving knobs with the given policy and zero deadline slack.
    pub fn new(policy: DispatchPolicy) -> Self {
        Self {
            policy,
            deadline_slack_factor: 0.0,
        }
    }

    /// Sets the deadline-aware launch slack (see
    /// [`deadline_slack_factor`](Self::deadline_slack_factor)).
    pub fn with_deadline_slack(mut self, slack: f64) -> Self {
        self.deadline_slack_factor = slack;
        self
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new(DispatchPolicy::EarliestDeadline)
    }
}

/// Errors rejected before a simulation starts.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The trace or profile slice does not line up with the placements (for
    /// LLM lanes: the spec's workloads and traffic profiles, and the trace's
    /// request streams).
    ShapeMismatch {
        /// Number of placements in the co-schedule.
        placements: usize,
        /// Number of traffic profiles supplied.
        profiles: usize,
        /// Number of arrival streams in the trace.
        streams: usize,
    },
    /// The trace's horizon is not a positive finite number.
    InvalidHorizon(f64),
    /// An LLM spec's `max_batch_slots` is zero.
    ZeroMaxBatch,
    /// A knob that must be non-negative and finite is not.
    InvalidKnob {
        /// Name of the offending knob.
        knob: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A workload's SLA factor is not a positive finite number.
    InvalidSla {
        /// Index of the offending workload.
        workload: usize,
        /// The rejected factor.
        sla_factor: f64,
    },
    /// A placement's per-inference latency is not a positive finite number,
    /// so batches would take zero or undefined time.
    InvalidPlacementLatency {
        /// Index of the offending workload.
        workload: usize,
        /// The rejected latency in seconds.
        latency_seconds: f64,
    },
    /// A workload's arrival stream violates the [`Trace`] invariant: times
    /// must be sorted, finite and inside `[0, horizon)`.
    InvalidTrace {
        /// Index of the offending workload.
        workload: usize,
    },
    /// The fault schedule handed to a replay is invalid (see
    /// [`validate_faults`](mars_model::validate_faults)), an LLM spec fails
    /// [`LlmSpec::validate`](mars_model::zoo::LlmSpec::validate), or an LLM
    /// request needs more KV memory than its lane's budget.
    Traffic(TrafficError),
    /// Two placements share an accelerator, or one lists it twice: the
    /// engine needs disjoint partitions (each accelerator backs at most one
    /// lane).
    OverlappingPartitions {
        /// The accelerator listed more than once.
        accel: AccelId,
        /// The first workload whose placement lists it.
        first: usize,
        /// The workload that lists it again (equal to `first` when one
        /// placement lists it twice).
        second: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShapeMismatch {
                placements,
                profiles,
                streams,
            } => write!(
                f,
                "shape mismatch: {placements} placements, {profiles} profiles, {streams} trace streams"
            ),
            ServeError::InvalidHorizon(h) => write!(f, "invalid horizon {h}"),
            ServeError::ZeroMaxBatch => write!(f, "max_batch_slots must be at least 1"),
            ServeError::InvalidKnob { knob, value } => {
                write!(f, "invalid {knob}: {value}")
            }
            ServeError::InvalidSla {
                workload,
                sla_factor,
            } => write!(f, "workload {workload} has invalid SLA factor {sla_factor}"),
            ServeError::InvalidPlacementLatency {
                workload,
                latency_seconds,
            } => write!(
                f,
                "workload {workload}'s placement has invalid latency {latency_seconds}s"
            ),
            ServeError::InvalidTrace { workload } => write!(
                f,
                "workload {workload}'s arrival stream is not sorted inside [0, horizon)"
            ),
            ServeError::Traffic(e) => write!(f, "invalid scenario: {e}"),
            ServeError::OverlappingPartitions {
                accel,
                first,
                second,
            } => write!(
                f,
                "{accel} is listed by workload {first} and again by workload {second}; partitions must be disjoint"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-workload serving outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadServeStats {
    /// Index of the workload in the co-schedule's input order.
    pub workload: usize,
    /// Network name (from the placement).
    pub name: String,
    /// Requests that arrived inside the horizon.
    pub requests: usize,
    /// Requests whose batch finished by the horizon.
    pub completed: usize,
    /// Completed requests that also met their deadline.
    pub met_sla: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Mean dispatched batch size (`0` when no batch launched).
    pub mean_batch: f64,
    /// Median completed-request latency in milliseconds (`0` when none).
    pub(crate) p50_ms: f64,
    /// 95th-percentile completed-request latency in milliseconds.
    pub(crate) p95_ms: f64,
    /// 99th-percentile completed-request latency in milliseconds.
    pub(crate) p99_ms: f64,
    /// The absolute SLA budget in seconds (`sla_factor ×` placement latency).
    pub(crate) sla_seconds: f64,
    /// Time the partition spent executing batches, clamped to the horizon.
    pub busy_seconds: f64,
}

/// Outcome of one serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The dispatch policy that produced this report.
    pub policy: DispatchPolicy,
    /// The simulated horizon in seconds.
    pub horizon_seconds: f64,
    /// Per-workload statistics, in co-schedule input order.
    pub per_workload: Vec<WorkloadServeStats>,
    /// Per-accelerator utilisation (`busy / horizon`), one entry per
    /// accelerator of the platform, sorted by id.
    pub utilization: Vec<(AccelId, f64)>,
    /// Requests that arrived inside the horizon, across all workloads.
    pub total_requests: usize,
    /// Requests whose batch finished by the horizon.
    pub completed: usize,
    /// Completed requests that also met their deadline — the goodput count.
    pub goodput: usize,
    /// Aggregate median latency over all completed requests, milliseconds.
    pub p50_ms: f64,
    /// Aggregate 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// Aggregate 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
}

impl ServeReport {
    /// Completed requests per second of simulated time.
    pub fn throughput_per_second(&self) -> f64 {
        if self.horizon_seconds > 0.0 {
            self.completed as f64 / self.horizon_seconds
        } else {
            0.0
        }
    }

    /// Fraction of arrived requests that met their SLA (`0` when none
    /// arrived).
    pub fn goodput_rate(&self) -> f64 {
        if self.total_requests > 0 {
            self.goodput as f64 / self.total_requests as f64
        } else {
            0.0
        }
    }

    /// Mean per-accelerator utilisation (`0` on an empty platform).
    pub fn mean_utilization(&self) -> f64 {
        if self.utilization.is_empty() {
            0.0
        } else {
            self.utilization.iter().map(|(_, u)| u).sum::<f64>() / self.utilization.len() as f64
        }
    }
}

/// The zero-based index of the nearest-rank `q` quantile of `n >= 1`
/// sorted samples.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The (p50, p95, p99) triple of an unsorted sample, in milliseconds, by
/// selection instead of a sort: O(n) where a sort is O(n log n).
///
/// It selects the p50 rank over the whole slice, then the p95 rank in the
/// part right of it, then the p99 rank right of that; equal ranks reuse the
/// value already found.  (Low rank first: the later selections run on the
/// upper half and the top 5%, about half the work of selecting p99 first.)
/// Under [`f64::total_cmp`] only bit-identical values compare equal, so the
/// element selection puts at a rank is, bit for bit, the one a sort puts
/// there: the triple equals three calls of the sort-based `percentile_ms`
/// oracle in this module's tests, degenerate sizes included (0 samples →
/// `0.0`, 1 sample → that sample).
///
/// The slice is left partly ordered, not sorted.  No caller reads the order
/// afterwards: each drops the buffer or only counts and gathers its samples.
pub(crate) fn percentile_triple_ms(latencies: &mut [f64]) -> (f64, f64, f64) {
    let n = latencies.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let [r50, r95, r99] = [0.50, 0.95, 0.99].map(|q| nearest_rank(q, n));
    // Each selection leaves the ranks above it in `above`, which starts at
    // rank `r + 1` of the whole slice.
    let (_, &mut p50, above_p50) = latencies.select_nth_unstable_by(r50, f64::total_cmp);
    let (p95, above_p95) = if r95 == r50 {
        (p50, above_p50)
    } else {
        let (_, &mut p95, above) = above_p50.select_nth_unstable_by(r95 - r50 - 1, f64::total_cmp);
        (p95, above)
    };
    let p99 = if r99 == r95 {
        p95
    } else {
        *above_p95
            .select_nth_unstable_by(r99 - r95 - 1, f64::total_cmp)
            .1
    };
    (p50 * 1e3, p95 * 1e3, p99 * 1e3)
}

/// The [`SampleCounts`] bucket of `v`: the top 16 bits of its total-order
/// key, whose unsigned order is [`f64::total_cmp`] order.
fn bucket(v: f64) -> usize {
    let bits = v.to_bits();
    ((bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63)) >> 48) as usize
}

/// Exact, mergeable state for the (p50, p95, p99) of samples spread over
/// many buffers: how many fall in each bucket, over only the buckets they
/// touch (all 2^16 `u32`s are 256 KiB per engine, which shows on `elastic`).
#[derive(Default)]
pub(crate) struct SampleCounts {
    /// The bucket `counts[0]` counts.
    first: usize,
    counts: Vec<usize>,
}

impl SampleCounts {
    /// Adds `more` to bucket `b`'s count, widening the table to cover it.
    fn bump(&mut self, b: usize, more: usize) {
        if self.counts.is_empty() {
            self.first = b;
        } else if b < self.first {
            let below = std::iter::repeat_n(0, self.first - b);
            self.counts.splice(0..0, below);
            self.first = b;
        }
        let at = b - self.first;
        if at >= self.counts.len() {
            self.counts.resize(at + 1, 0);
        }
        self.counts[at] += more;
    }

    /// Counts every sample of `samples`.
    pub(crate) fn add(&mut self, samples: &[f64]) {
        for &v in samples {
            self.bump(bucket(v), 1);
        }
    }

    /// Adds `other`'s counts to these.
    pub(crate) fn merge(&mut self, other: &Self) {
        for (b, &more) in (other.first..).zip(&other.counts) {
            self.bump(b, more);
        }
    }

    /// The (p50, p95, p99) in milliseconds of the counted samples, which the
    /// buffers of `groups` hold.  The prefix sums locate each nearest rank's
    /// bucket (buckets are contiguous in [`f64::total_cmp`] order) and its
    /// position among the bucket's members; the pool gathers those members
    /// group by group, and selecting among them finds, bit for bit, what
    /// [`percentile_triple_ms`] finds on the concatenation.
    pub(crate) fn percentile_triple_ms(
        &self,
        threads: usize,
        groups: &[&[Vec<f64>]],
    ) -> (f64, f64, f64) {
        let n: usize = self.counts.iter().sum();
        if n == 0 {
            return (0.0, 0.0, 0.0);
        }
        // (position in its bucket, bucket) of each rank.
        let mut targets = [0.50, 0.95, 0.99].map(|q| (nearest_rank(q, n), 0));
        let (mut next, mut below) = (0, 0);
        for (b, &count) in (self.first..).zip(&self.counts) {
            while next < 3 && targets[next].0 < below + count {
                targets[next] = (targets[next].0 - below, b);
                next += 1;
            }
            below += count;
        }
        // Ranks in one bucket share the slot of the first of them.
        let slot = |b: usize| targets.iter().position(|&(_, t)| t == b);
        let parts = scoped_map(threads, groups, |_, buffers| {
            let mut slots: [Vec<f64>; 3] = Default::default();
            for &v in buffers.iter().flatten() {
                if let Some(s) = slot(bucket(v)) {
                    slots[s].push(v);
                }
            }
            slots
        });
        let mut slots: [Vec<f64>; 3] = Default::default();
        for part in parts {
            for (members, mut more) in slots.iter_mut().zip(part) {
                members.append(&mut more);
            }
        }
        let [p50, p95, p99] = targets.map(|(within, b)| {
            let members = &mut slots[slot(b).unwrap_or(0)];
            *members.select_nth_unstable_by(within, f64::total_cmp).1 * 1e3
        });
        (p50, p95, p99)
    }
}

/// One dispatched batch, as reported by [`SimState::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchEvent {
    /// The workload whose lane dispatched.
    pub(crate) workload: usize,
    /// Instant the batch launched, seconds.
    pub(crate) start: f64,
    /// Instant the batch finishes, seconds (may lie past the horizon, in
    /// which case its requests never count as completed).
    pub(crate) finish: f64,
    /// Number of requests in the batch.
    pub(crate) size: usize,
}

/// A cheap observation of one lane, taken by [`SimState::snapshot`].  The
/// elastic runtime's drift monitor diffs consecutive snapshots to compute
/// windowed SLA-miss, queue-growth and utilisation statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    /// Index of the workload.
    pub workload: usize,
    /// Requests pulled into the batcher so far (arrivals already considered
    /// by the dispatch decision; a lower bound on arrivals up to the clock).
    pub enqueued: usize,
    /// Requests waiting in the batcher right now.
    pub queued: usize,
    /// Requests whose batch has finished.
    pub completed: usize,
    /// Completed requests that met their deadline.
    pub met_sla: usize,
    /// Time the lane's partition has spent executing batches so far.
    pub busy_seconds: f64,
    /// When the partition finishes its current in-flight batch (`<= now`
    /// when idle).
    pub free_at: f64,
    /// The accelerators currently backing the lane (shared with the live
    /// lane state — snapshots are allocation-free here; placements are
    /// replaced wholesale, never mutated in place, so the shared slice is
    /// immutable).
    pub accels: Arc<[AccelId]>,
}

/// A consistent observation of the whole simulation at the current clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// The clock the snapshot was taken at (the last `run_until` bound).
    pub clock: f64,
    /// One entry per lane, in workload order.
    pub lanes: Vec<LaneSnapshot>,
    /// Cumulative busy seconds per accelerator, sorted by id.
    pub accel_busy: Vec<(AccelId, f64)>,
    /// The accelerators currently failed, sorted by id (empty on a healthy
    /// pool).  The elastic runtime's drift monitor diffs this across
    /// snapshots to fire its `TopologyChanged` trigger.
    pub down: Vec<AccelId>,
}

/// One workload's single-server batching lane inside a [`SimState`], in the
/// fleet-scale representation: request state lives in a struct-of-arrays
/// [`RequestArena`] (contiguous id spans instead of id queues and per-batch
/// member vectors) and the accelerator subset is a shared `Arc` slice so
/// snapshots are allocation-free.
///
/// The decision arithmetic (`decide`/`dispatch`/`revoke_inflight`) is kept
/// *expression-for-expression* identical to the legacy loop preserved in
/// [`crate::reference`]: the equivalence suite demands bit-identical reports,
/// and float associativity makes even a re-parenthesisation observable.
#[derive(Debug, Clone)]
pub(crate) struct Lane {
    workload: usize,
    name: String,
    /// SLA weight of the placement (drives [`DispatchPolicy::SlaWeighted`]).
    weight: f64,
    /// Per-inference latency on the partition, seconds.
    latency: f64,
    /// Absolute deadline budget for *newly enqueued* requests, seconds after
    /// arrival.
    sla_seconds: f64,
    /// The accelerators currently backing the lane (for busy attribution);
    /// shared with every snapshot taken while this placement is in force.
    accels: Arc<[AccelId]>,
    /// Indices of this lane's accelerators in the engine's sorted
    /// `accel_busy` vector (parallel to `accels`), so busy attribution on
    /// the dispatch hot path is two array adds instead of map lookups.
    /// Recomputed whenever a placement swap can grow the accelerator set.
    busy_slots: Vec<u32>,
    /// Struct-of-arrays request state (arrivals, deadlines, queue and
    /// in-flight spans, latency samples).
    arena: RequestArena,
    /// When the partition finishes its current batch.
    free: f64,
    busy: f64,
    batches: usize,
    dispatched: usize,
    completed: usize,
    met_sla: usize,
    /// Finish instant of the most recent dispatch (`0` before the first).
    inflight_finish: f64,
    /// `true` when the lane's live event is its *exact* next dispatch
    /// instant (the `decide(horizon)` fixpoint), not just a lower bound.
    exact: bool,
    /// The lane's span track (`lane/<name>`), named when an enabled
    /// recorder attaches.
    track: String,
}

impl Lane {
    /// Computes the next batch's launch instant, pulling every arrival that
    /// joins before it (and strictly before `bound`) into the queue first.
    ///
    /// Returns `None` when nothing can launch before `bound`.  The decision
    /// is a fixpoint of the arena spans and `free`: calling it again — in a
    /// later segment, with a larger bound — resumes the identical
    /// computation, so segmented runs reproduce the uninterrupted run bit
    /// for bit.  (Identical arithmetic to the reference loop.)
    fn decide(&mut self, config: &ServeConfig, bound: f64) -> Option<f64> {
        if self.arena.queue_len() == 0 {
            match self.arena.next_arrival() {
                Some(a) if a < bound => self.arena.enqueue_next(self.sla_seconds),
                _ => return None,
            }
        }
        let overhead = DISPATCH_OVERHEAD_FACTOR * self.latency;
        loop {
            let head = self.arena.head().expect("queue non-empty");
            let head_arrival = self.arena.arrival(head);
            let q_len = self.arena.queue_len();
            let b_now = q_len.min(MAX_BATCH);
            // `cost(b_now)`: what launching right now would take.
            let cost_now = overhead + b_now as f64 * self.latency;
            // Instant the batch fills from arrivals already known to come.
            let fill = if q_len >= MAX_BATCH {
                // Full already: ready the moment its newest member arrived.
                self.arena.arrival(self.arena.queued(MAX_BATCH - 1))
            } else {
                // need >= 1 here.
                let need = MAX_BATCH - q_len;
                self.arena
                    .lookahead_arrival(need - 1)
                    .unwrap_or(f64::INFINITY)
            };
            // With zero slack the margin reduces exactly to the original
            // `cost(b)` / `cost(b) × weight` last-safe-instant expressions.
            let slack = 1.0 + config.deadline_slack_factor;
            let policy_t = match config.policy {
                DispatchPolicy::Fifo => head_arrival + BATCH_TIMEOUT_SECONDS,
                DispatchPolicy::EarliestDeadline => self.arena.deadline(head) - cost_now * slack,
                // Heavier SLA weight → larger margin before the deadline.
                DispatchPolicy::SlaWeighted => {
                    self.arena.deadline(head) - cost_now * (self.weight.max(1.0) * slack)
                }
            };
            let start = fill.min(policy_t).max(self.free).max(head_arrival);
            // Requests arriving by the launch instant join the queue first
            // (and may move the launch decision — recompute).  Arrivals at
            // or past `bound` stay un-enqueued; a later segment's own
            // `decide` pulls them with the service parameters in force then.
            if let Some(a) = self.arena.next_arrival() {
                if a <= start && a < bound {
                    self.arena.enqueue_next(self.sla_seconds);
                    continue;
                }
            }
            return Some(start);
        }
    }

    /// Launches the batch decided at `start`, updating all lane accounting
    /// and the busy time of the lane's accelerators, and records it.
    /// Allocation-free: the batch is the arena's in-flight span.
    fn dispatch(&mut self, env: &mut Env<ServeConfig>, start: f64) -> BatchEvent {
        let horizon = env.horizon;
        let before = self.busy;
        let overhead = DISPATCH_OVERHEAD_FACTOR * self.latency;
        let size = self.arena.take_batch(start, MAX_BATCH);
        // Parenthesised as cost-then-add: bit-compatible with the original
        // loop's `start + cost(b)` (associativity changes here would flip
        // borderline deadline comparisons).
        let finish = start + (overhead + size as f64 * self.latency);
        if finish <= horizon {
            // In-flight-at-horizon batches never complete inside the
            // simulation, so only finished batches contribute samples.
            let first = self.arena.inflight_start();
            for i in first..first + size {
                self.completed += 1;
                let sample = finish - self.arena.arrival(i);
                self.arena.push_latency(sample);
                if finish <= self.arena.deadline(i) {
                    self.met_sla += 1;
                }
            }
        }
        self.busy += finish.min(horizon) - start;
        self.free = finish;
        self.batches += 1;
        self.dispatched += size;
        self.inflight_finish = finish;
        let delta = self.busy - before;
        for &slot in &self.busy_slots {
            env.accel_busy[slot as usize].1 += delta;
        }
        if env.recorder.is_enabled() {
            // Buffered until the burst ends (`flush`).
            let depth = self.arena.queue_len() as f64;
            env.burst.samples.push((size as f64, depth));
            env.burst.spans.push((BATCH_LABELS[size], start, finish));
        }
        BatchEvent {
            workload: self.workload,
            start,
            finish,
            size,
        }
    }

    /// Undoes the most recent dispatch because its accelerator died at
    /// `clock` (strictly before the batch's finish).  Returns the
    /// busy-seconds delta (non-positive) so the caller can fix per-
    /// accelerator attribution.  With contiguous spans the requeue is an
    /// integer rewind instead of front-pushing ids.
    fn revoke_inflight(&mut self, clock: f64, horizon: f64, policy: FaultPolicy) -> f64 {
        let finish = self.inflight_finish;
        debug_assert!(finish > clock);
        let len = self.arena.inflight_len();
        if finish <= horizon {
            // `dispatch` counted these at launch; the batch never finishes.
            let first = self.arena.inflight_start();
            for i in first..first + len {
                self.completed -= 1;
                if finish <= self.arena.deadline(i) {
                    self.met_sla -= 1;
                }
            }
            self.arena.truncate_latencies(len);
        }
        let delta = clock.min(horizon) - finish.min(horizon);
        self.busy += delta;
        self.batches -= 1;
        self.dispatched -= len;
        self.free = clock;
        self.inflight_finish = clock;
        if policy == FaultPolicy::RequeueInflight {
            self.arena.requeue_inflight();
        } else {
            self.arena.drop_inflight();
        }
        delta
    }

    /// `true` when the lane's accelerator subset intersects the failed set
    /// `down` — the lane cannot dispatch until it is re-placed onto
    /// survivors or its accelerators are restored.
    fn blocked(&self, down: &[AccelId]) -> bool {
        self.accels.iter().any(|a| down.binary_search(a).is_ok())
    }

    fn snapshot(&self) -> LaneSnapshot {
        LaneSnapshot {
            workload: self.workload,
            enqueued: self.arena.enqueued(),
            queued: self.arena.queue_len(),
            completed: self.completed,
            met_sla: self.met_sla,
            busy_seconds: self.busy,
            free_at: self.free,
            accels: Arc::clone(&self.accels),
        }
    }
}

impl ServeLane for Lane {
    type Knobs = ServeConfig;
    type Stats = WorkloadServeStats;
    type Report = ServeReport;
    const AT_BOUND: bool = false;

    /// Runs the decide/dispatch loop up to `bound` (the legacy per-lane
    /// inner loop, verbatim) and returns the lane's wake hint.
    fn advance(&mut self, env: &mut Env<ServeConfig>, bound: f64) -> Option<f64> {
        if self.blocked(&env.down) {
            return None; // re-armed by the restore / re-placement
        }
        let last = loop {
            match self.decide(&env.knobs, bound) {
                Some(start) if start < bound => {
                    self.dispatch(env, start);
                }
                other => break other,
            }
        };
        // Wake hint: the lane cannot dispatch before `min(start, next
        // arrival)` — pulling future arrivals can only move the decision
        // earlier via arrivals at or past this segment's bound, and with no
        // new pulls the decision is exactly `start`.  `None` means an empty
        // queue: nothing happens before the next arrival.  Streams whose
        // hint reaches the horizon can never dispatch again (arrivals all
        // lie inside the horizon), so the engine leaves them un-armed.
        self.exact = false;
        let next_arrival = self.arena.next_arrival().unwrap_or(f64::INFINITY);
        Some(last.map_or(next_arrival, |start| start.min(next_arrival)))
    }

    fn name_tracks(&mut self) {
        self.track = format!("lane/{}", self.name);
    }

    /// Records the burst's batch sizes and queue depths, then its batch
    /// spans.  Lane-local, keyed by placement name: the same batches on the
    /// same lanes regardless of shard split, so the merged record is
    /// shard-count invariant.
    fn flush(&self, env: &mut Env<ServeConfig>) {
        let (recorder, burst) = (&env.recorder, &mut env.burst);
        recorder.observe_all("serve/batch_size", burst.samples.iter().map(|s| s.0));
        recorder.observe_all("serve/queue_depth", burst.samples.iter().map(|s| s.1));
        recorder.span_all(&self.track, burst.spans.iter().copied());
        burst.samples.clear();
        burst.spans.clear();
    }

    fn stats(&self, (p50_ms, p95_ms, p99_ms): (f64, f64, f64)) -> WorkloadServeStats {
        WorkloadServeStats {
            workload: self.workload,
            name: self.name.clone(),
            requests: self.arena.total_requests(),
            completed: self.completed,
            met_sla: self.met_sla,
            batches: self.batches,
            mean_batch: if self.batches > 0 {
                self.dispatched as f64 / self.batches as f64
            } else {
                0.0
            },
            p50_ms,
            p95_ms,
            p99_ms,
            sla_seconds: self.sla_seconds,
            busy_seconds: self.busy,
        }
    }

    fn take_latencies(&mut self) -> Vec<f64> {
        self.arena.take_latencies()
    }

    /// The one place a [`ServeReport`] is assembled, for the engine and the
    /// reference oracle alike.
    fn report(
        config: ServeConfig,
        horizon_seconds: f64,
        lanes: Lanes<WorkloadServeStats>,
    ) -> ServeReport {
        let Lanes {
            stats: per_workload,
            percentiles: (p50_ms, p95_ms, p99_ms),
            accel_busy,
        } = lanes;
        ServeReport {
            policy: config.policy,
            horizon_seconds,
            total_requests: per_workload.iter().map(|s| s.requests).sum(),
            completed: per_workload.iter().map(|s| s.completed).sum(),
            goodput: per_workload.iter().map(|s| s.met_sla).sum(),
            p50_ms,
            p95_ms,
            p99_ms,
            per_workload,
            utilization: accel_busy
                .into_iter()
                .map(|(a, busy)| (a, busy / horizon_seconds))
                .collect(),
        }
    }
}

/// The resumable serving simulation: the engine behind every replay
/// ([`simulate_sharded_with_faults`](crate::simulate_sharded_with_faults)
/// runs one per lane shard).
///
/// A `SimState` owns one batching [lane](LaneSnapshot) per placement and
/// advances them on demand — [`run_until`](SimState::run_until) a chosen
/// instant, one [`step`](SimState::step) (batch dispatch) at a time, or
/// straight to the [`finish`](SimState::finish).  Because every piece of
/// state is plain data, **checkpoint/restore is `Clone`**: cloning at any
/// event boundary and resuming both copies reproduces the uninterrupted
/// run's [`ServeReport`] bit for bit (pinned by this crate's tests).
///
/// # Fleet-scale engine
///
/// The state is event-driven rather than scan-driven: it runs on the event
/// engine it shares with [`LlmSimState`](crate::LlmSimState), whose
/// binary-heap [`CalendarQueue`](crate::calendar::CalendarQueue) holds one
/// *wake hint* per lane — a proven lower bound on the lane's next dispatch
/// instant — so `run_until` touches only the lanes that can actually act
/// before the bound, and `step` pops the globally-earliest dispatch instead
/// of re-deciding every lane.  Request bookkeeping is a struct-of-arrays
/// request arena per lane (no per-batch allocations).  The retired
/// linear-scan loop survives verbatim in [`crate::reference`] as the
/// differential oracle; `tests/fleet_sim_equivalence.rs` pins the two
/// engines bit-identical across every bundled mix, policy and fault
/// scenario.
///
/// Like the legacy loop, the engine needs the co-schedule's partitions to be
/// **disjoint** (each accelerator backs at most one lane at a time) — the
/// invariant the co-scheduler guarantees, and which construction and
/// [`apply_placements`](SimState::apply_placements) check
/// ([`ServeError::OverlappingPartitions`]) — so lanes never interact except
/// through explicit faults and re-placements.
///
/// The elastic runtime (`mars-runtime`) builds directly on the resumable
/// surface: it interleaves `run_until` with [`snapshot`](SimState::snapshot)
/// observations for its drift monitor and swaps service parameters via
/// [`apply_placements`](SimState::apply_placements) when it re-schedules.
///
/// ```
/// use mars_model::TrafficProfile;
/// use mars_serve::testing::synthetic_co;
/// use mars_serve::{simulate_sharded_with_faults, FaultPolicy, ServeConfig, SimState, Trace};
///
/// let co = synthetic_co(&[1e-3], &[1.0]);
/// let profiles = [TrafficProfile::new(200.0, 5.0)];
/// let trace = Trace::poisson(&profiles, 0.5, 7).unwrap();
/// let config = ServeConfig::default();
///
/// let mut sim = SimState::new(&co, &profiles, &trace, &config).unwrap();
/// sim.run_until(0.25);                // first half of the horizon
/// let checkpoint = sim.clone();       // checkpoint = clone
/// let report = checkpoint.finish();   // restore = resume the clone
/// assert_eq!(report, sim.finish());
/// let replay =
///     simulate_sharded_with_faults(&co, &profiles, &trace, &config, &[], FaultPolicy::default());
/// assert_eq!(report, replay.unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct SimState {
    pub(crate) engine: Engine<Lane>,
    /// `true` when some lane's event is a hint (or missing after a
    /// mutation), so [`step`](SimState::step) must refine before popping.
    needs_refine: bool,
}

impl SimState {
    /// Validates the inputs and builds the initial (time-zero) state.
    ///
    /// `profiles[w]` and `trace.arrivals[w]` describe workload `w` of
    /// `co.placements` (co-schedule input order).
    ///
    /// # Errors
    ///
    /// Rejects mismatched input shapes, degenerate knobs, overlapping
    /// partitions and, last, arrival streams that break the [`Trace`]
    /// invariant (the lowest such workload) — see [`ServeError`].
    pub fn new(
        co: &CoScheduleResult,
        profiles: &[TrafficProfile],
        trace: &Trace,
        config: &ServeConfig,
    ) -> Result<Self, ServeError> {
        validate(co, profiles, trace, config, 1)?;
        Ok(Self::for_lanes(
            co,
            profiles,
            trace,
            config,
            0..co.placements.len(),
        ))
    }

    /// Builds the initial state of the lanes `range` of already-validated
    /// inputs — a lane shard, or every lane.  Lane `w` keeps its global
    /// workload index `range.start + w` and shares its arrival stream with
    /// the trace.
    pub(crate) fn for_lanes(
        co: &CoScheduleResult,
        profiles: &[TrafficProfile],
        trace: &Trace,
        config: &ServeConfig,
        range: Range<usize>,
    ) -> Self {
        let placements = &co.placements[range.clone()];
        let ids: std::collections::BTreeSet<AccelId> = placements
            .iter()
            .flat_map(|p| p.accels.iter().copied())
            .collect();
        let accel_busy: Vec<(AccelId, f64)> = ids.into_iter().map(|a| (a, 0.0)).collect();
        let lanes: Vec<Lane> = range
            .zip(placements)
            .map(|(w, placement)| {
                let latency = placement.result.mapping.latency_seconds;
                Lane {
                    workload: w,
                    name: placement.name.clone(),
                    weight: placement.weight,
                    latency,
                    sla_seconds: profiles[w].sla_factor * latency,
                    accels: placement.accels.clone().into(),
                    busy_slots: busy_slots_of(&accel_busy, &placement.accels),
                    arena: RequestArena::new(Arc::clone(&trace.arrivals[w])),
                    free: 0.0,
                    busy: 0.0,
                    batches: 0,
                    dispatched: 0,
                    completed: 0,
                    met_sla: 0,
                    inflight_finish: 0.0,
                    exact: false,
                    track: String::new(),
                }
            })
            .collect();
        Self {
            engine: Engine::new(*config, trace.horizon_seconds, lanes, accel_busy),
            needs_refine: true,
        }
    }

    /// Attaches an observability recorder to this (top-level) simulation:
    /// per-lane batch spans, queue-depth and batch-size histograms, fault
    /// markers, plus the engine-level calendar-occupancy series and
    /// stale-skip counter.  Recording never changes the simulation — every
    /// quantity derives from the simulated clock, and the default disabled
    /// recorder compiles the hooks down to null checks.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.engine.attach(recorder, true);
        self
    }

    /// Advances every lane, dispatching each batch whose launch instant lies
    /// strictly before `min(t, horizon)`.  Idempotent for non-increasing
    /// `t`, and a no-op for a NaN `t`; a sequence of `run_until` calls with
    /// increasing bounds is bit-identical to one call with the final bound.
    /// Cost is proportional to the lanes that act before the bound (plus
    /// lanes mutated since the last advance): idle lanes sleep in the
    /// calendar.
    pub fn run_until(&mut self, t: f64) {
        self.engine.run_until(t);
        self.needs_refine = true;
    }

    /// Dispatches the single globally-earliest pending batch (ties resolve
    /// to the lowest workload index), regardless of the clock, and returns
    /// it; `None` when no batch can ever launch inside the horizon.  This
    /// is the finest event granularity — the boundary the checkpoint test
    /// clones at.
    ///
    /// The first `step` after construction, a `run_until`, or a mutation
    /// refines every candidate lane's wake hint into its exact next
    /// dispatch instant (one `decide` per lane); subsequent steps pop the
    /// calendar's minimum and re-decide only the lane that dispatched,
    /// instead of the legacy loop's full re-scan on every event.
    pub fn step(&mut self) -> Option<BatchEvent> {
        if self.needs_refine {
            self.refine_all();
            self.needs_refine = false;
        }
        let ev = self.engine.pop_due(f64::INFINITY)?;
        let w = ev.lane as usize;
        let e = &mut self.engine;
        debug_assert!(e.lanes[w].exact, "refined queue holds exact events");
        debug_assert!(
            !e.lanes[w].blocked(&e.env.down),
            "blocked lanes are never armed exact"
        );
        // The event's time *is* the dispatch instant: `refine_all` /
        // `arm_exact` computed it as the lane's `decide(horizon)` fixpoint,
        // and nothing that invalidates it (mutations, a `run_until` advance)
        // leaves the event live.
        let event = e.lanes[w].dispatch(&mut e.env, ev.time);
        if !e.env.burst.is_empty() {
            e.lanes[w].flush(&mut e.env);
        }
        self.arm_exact(w);
        debug_assert!(self.engine.env.burst.is_empty(), "the dispatch is flushed");
        Some(event)
    }

    /// Replaces every hint (and every dirtied lane's missing event) with the
    /// lane's exact next dispatch instant, so the calendar's minimum is the
    /// true global minimum with the legacy `(time, lane)` tie-break.
    fn refine_all(&mut self) {
        for w in 0..self.engine.lanes.len() {
            let e = &mut self.engine;
            let mark = &mut e.marks[w];
            if mark.dirty {
                mark.dirty = false; // mutations already un-armed the lane
            } else if mark.armed && !e.lanes[w].exact {
                mark.seq = mark.seq.wrapping_add(1); // stale the hint
                mark.armed = false;
            } else {
                continue; // exact already, or provably inactive
            }
            if e.lanes[w].blocked(&e.env.down) {
                continue;
            }
            self.arm_exact(w);
        }
        self.engine.dirty.clear();
    }

    /// Arms lane `w` with its exact next dispatch instant (the
    /// `decide(horizon)` fixpoint), if one exists inside the horizon.
    fn arm_exact(&mut self, w: usize) {
        let e = &mut self.engine;
        let horizon = e.env.horizon;
        if let Some(start) = e.lanes[w].decide(&e.env.knobs, horizon) {
            if start < horizon {
                e.lanes[w].exact = true;
                e.arm(w, start);
            }
        }
    }

    /// Observes the current state (see [`SimSnapshot`]); does not advance
    /// the simulation.  Cheap at fleet scale: per-lane accelerator lists are
    /// shared (`Arc`), not copied.
    pub fn snapshot(&self) -> SimSnapshot {
        let e = &self.engine;
        SimSnapshot {
            clock: e.clock,
            lanes: e.lanes.iter().map(Lane::snapshot).collect(),
            accel_busy: e.env.accel_busy.clone(),
            down: e.env.down.clone(),
        }
    }

    /// Fails accelerator `accel` at the current clock.  Any batch in flight
    /// on a lane backed by it is revoked: its completion accounting is
    /// undone, the partition's busy time is cut back to the failure instant,
    /// and the batch's requests are requeued or lost per `policy`.  Lanes
    /// whose subset contains a failed accelerator dispatch nothing until
    /// re-placed (see [`apply_placements`](Self::apply_placements)) or
    /// restored (see [`restore_accel`](Self::restore_accel)).  Returns the
    /// number of in-flight requests the failure interrupted.
    ///
    /// Failing an already-failed accelerator is a no-op.  Advance the clock
    /// to the failure instant with [`run_until`](Self::run_until) *before*
    /// calling this, so exactly the batches launched before the failure are
    /// affected.
    pub fn fail_accel(&mut self, accel: AccelId, policy: FaultPolicy) -> usize {
        match self.engine.env.down.binary_search(&accel) {
            Ok(_) => return 0,
            Err(idx) => self.engine.env.down.insert(idx, accel),
        }
        // Only the sim that owns a lane backed by `accel` records the fault
        // instant: in the sharded runner every shard replays the full fault
        // schedule, and partitions are disjoint, so this gate keeps the
        // merged trace identical to the single-shard one (one instant per
        // fault, not one per shard).
        self.record_fault("fail", accel);
        self.needs_refine = true;
        let e = &mut self.engine;
        let (clock, horizon) = (e.clock, e.env.horizon);
        let mut interrupted = 0;
        for w in 0..e.lanes.len() {
            if !e.lanes[w].accels.contains(&accel) {
                continue;
            }
            // The lane just became blocked: silence its wake event.
            e.mark_dirty(w);
            let lane = &mut e.lanes[w];
            // Only a genuinely running batch (launched before the failure,
            // finishing after it) is revoked; `free` alone can sit in the
            // future for other reasons (migration blocking).
            if lane.arena.inflight_len() == 0 || lane.inflight_finish <= clock {
                continue;
            }
            interrupted += lane.arena.inflight_len();
            let delta = lane.revoke_inflight(clock, horizon, policy);
            for &slot in &lane.busy_slots {
                e.env.accel_busy[slot as usize].1 += delta;
            }
        }
        e.env
            .recorder
            .counter("serve/revoked_requests", interrupted as u64);
        interrupted
    }

    /// Restores a previously-failed accelerator at the current clock.  Lanes
    /// it unblocks resume dispatching from now (never retroactively inside
    /// the outage window).  Restoring a healthy accelerator is a no-op.
    pub fn restore_accel(&mut self, accel: AccelId) {
        let Ok(idx) = self.engine.env.down.binary_search(&accel) else {
            return;
        };
        self.engine.env.down.remove(idx);
        // Owner-gated like the failure instant (see fail_accel).
        self.record_fault("restore", accel);
        self.needs_refine = true;
        let e = &mut self.engine;
        for w in 0..e.lanes.len() {
            let lane = &mut e.lanes[w];
            if lane.accels.contains(&accel) && !lane.blocked(&e.env.down) {
                lane.free = lane.free.max(e.clock);
                e.mark_dirty(w);
            }
        }
    }

    /// Records a `what:a<id>` fault instant at the clock, if some lane of
    /// this sim is backed by `accel`.
    fn record_fault(&self, what: &str, accel: AccelId) {
        let e = &self.engine;
        if e.env.recorder.is_enabled() && e.lanes.iter().any(|l| l.accels.contains(&accel)) {
            e.env
                .recorder
                .instant("faults", &format!("{what}:a{}", accel.0), e.clock);
        }
    }

    /// The accelerators currently failed, sorted by id — borrowed from the
    /// cached down set (the drift monitor polls this every window; the
    /// legacy `Vec`-building accessor allocated on every call).
    pub fn down(&self) -> &[AccelId] {
        &self.engine.env.down
    }

    /// When every in-flight batch has finished: the latest lane `free`
    /// instant (at least the clock).  The elastic runtime drains to this
    /// point before migrating weights.
    pub fn drain_seconds(&self) -> f64 {
        let e = &self.engine;
        e.lanes.iter().map(|l| l.free).fold(e.clock, f64::max)
    }

    /// Swaps in a re-scheduled co-schedule: each lane adopts its new
    /// placement's accelerator subset and per-inference latency, its
    /// deadline budget for *future* arrivals becomes
    /// `sla_factors[w] × latency`, and the lane stays blocked until
    /// `activate_at` (the migration completing).  Requests already waiting
    /// keep the deadlines they were admitted with.
    ///
    /// The lane's SLA *weight* (the [`DispatchPolicy::SlaWeighted`] margin)
    /// is intentionally **not** taken from the new placements: re-schedulers
    /// pass load-scaled weights to the search, which must not leak into
    /// dispatch priorities.
    ///
    /// # Errors
    ///
    /// Rejects shape mismatches, degenerate latencies/SLA factors and
    /// overlapping partitions, like [`SimState::new`] — the state is
    /// unchanged on error.
    pub fn apply_placements(
        &mut self,
        co: &CoScheduleResult,
        sla_factors: &[f64],
        activate_at: f64,
    ) -> Result<(), ServeError> {
        let k = self.engine.lanes.len();
        validate_placements(k, co, sla_factors)?;
        let e = &mut self.engine;
        for ((lane, placement), &factor) in e.lanes.iter_mut().zip(&co.placements).zip(sla_factors)
        {
            lane.latency = placement.result.mapping.latency_seconds;
            lane.sla_seconds = factor * lane.latency;
            lane.accels = placement.accels.clone().into();
            lane.free = lane.free.max(activate_at);
            for &a in &placement.accels {
                if let Err(idx) = e.env.accel_busy.binary_search_by_key(&a, |&(id, _)| id) {
                    e.env.accel_busy.insert(idx, (a, 0.0));
                }
            }
        }
        // New entries shift the sorted vector, so every lane's cached slots
        // are recomputed (placement swaps are rare; dispatches are not).
        for lane in &mut e.lanes {
            lane.busy_slots = busy_slots_of(&e.env.accel_busy, &lane.accels);
        }
        (0..k).for_each(|w| e.mark_dirty(w));
        self.needs_refine = true;
        Ok(())
    }

    /// Updates the deadline budget of future arrivals to
    /// `sla_factors[w] × current latency` (a phase-boundary SLA change
    /// without a re-placement).
    ///
    /// # Errors
    ///
    /// Rejects a mismatched factor count or non-positive/non-finite factors.
    pub fn set_sla_factors(&mut self, sla_factors: &[f64]) -> Result<(), ServeError> {
        let k = self.engine.lanes.len();
        validate_sla_factors(k, sla_factors)?;
        let e = &mut self.engine;
        for (lane, &f) in e.lanes.iter_mut().zip(sla_factors) {
            lane.sla_seconds = f * lane.latency;
        }
        (0..k).for_each(|w| e.mark_dirty(w));
        self.needs_refine = true;
        Ok(())
    }

    /// Builds the report for the state *as it stands* (requests not yet
    /// dispatched count as arrived but incomplete).  Call after
    /// [`run_until`](SimState::run_until)`(horizon)` — or use
    /// [`finish`](SimState::finish) — for the complete-run report.
    pub fn report(&self) -> ServeReport {
        self.engine.report()
    }

    /// Runs the remaining events and returns the final [`ServeReport`].
    pub fn finish(self) -> ServeReport {
        self.engine.finish()
    }
}

/// The sorted-`accel_busy` slot of each of `accels`, in order.  Every lane
/// accelerator is guaranteed an entry: construction and placement swaps
/// insert them before slots are (re)computed.
fn busy_slots_of(accel_busy: &[(AccelId, f64)], accels: &[AccelId]) -> Vec<u32> {
    accels
        .iter()
        .map(|a| {
            accel_busy
                .binary_search_by_key(a, |&(id, _)| id)
                .expect("lane accelerators always have busy entries") as u32
        })
        .collect()
}

/// Every check [`SimState::new`] makes, in this order: shapes, horizon,
/// knobs, each lane's SLA factor and placement latency, disjoint partitions,
/// then the arrival streams (the lowest failing lane wins), checked per
/// shard of lanes for `threads` workers on the pool.  Returns the shards.
pub(crate) fn validate(
    co: &CoScheduleResult,
    profiles: &[TrafficProfile],
    trace: &Trace,
    config: &ServeConfig,
    threads: usize,
) -> Result<Shards, ServeError> {
    let k = co.placements.len();
    if profiles.len() != k || trace.arrivals.len() != k {
        return Err(ServeError::ShapeMismatch {
            placements: k,
            profiles: profiles.len(),
            streams: trace.arrivals.len(),
        });
    }
    check_horizon(trace.horizon_seconds)?;
    let slack = config.deadline_slack_factor;
    if !(slack >= 0.0 && slack.is_finite()) {
        return Err(ServeError::InvalidKnob {
            knob: "deadline_slack_factor",
            value: slack,
        });
    }
    validate_service(co, profiles.iter().map(|p| p.sla_factor))?;
    let requests: Vec<usize> = trace.arrivals.iter().map(|s| s.len()).collect();
    Shards::checked(threads, &requests, |lanes| {
        let streams = lanes.map(|w| (w, trace.arrivals[w].as_slice()));
        check_streams(trace.horizon_seconds, streams, |_, &t| Ok(t))
    })
}

/// Rejects a horizon that is not a positive finite number.
pub(crate) fn check_horizon(horizon: f64) -> Result<(), ServeError> {
    if horizon > 0.0 && horizon.is_finite() {
        Ok(())
    } else {
        Err(ServeError::InvalidHorizon(horizon))
    }
}

/// The checks of [`SimState::apply_placements`] on `k` lanes: one placement
/// and one SLA factor per lane, then [`validate_service`].
pub(crate) fn validate_placements(
    k: usize,
    co: &CoScheduleResult,
    sla_factors: &[f64],
) -> Result<(), ServeError> {
    if co.placements.len() != k || sla_factors.len() != k {
        return Err(ServeError::ShapeMismatch {
            placements: co.placements.len(),
            profiles: sla_factors.len(),
            streams: k,
        });
    }
    validate_service(co, sla_factors.iter().copied())
}

/// The checks of [`SimState::set_sla_factors`] on `k` lanes: one positive,
/// finite factor per lane.
pub(crate) fn validate_sla_factors(k: usize, sla_factors: &[f64]) -> Result<(), ServeError> {
    if sla_factors.len() != k {
        return Err(ServeError::ShapeMismatch {
            placements: k,
            profiles: sla_factors.len(),
            streams: k,
        });
    }
    match sla_factors
        .iter()
        .position(|&f| !(f > 0.0 && f.is_finite()))
    {
        Some(w) => Err(ServeError::InvalidSla {
            workload: w,
            sla_factor: sla_factors[w],
        }),
        None => Ok(()),
    }
}

/// The per-placement service-parameter checks shared by [`SimState::new`]
/// and [`SimState::apply_placements`], then the disjointness of the
/// partitions.
fn validate_service(
    co: &CoScheduleResult,
    sla_factors: impl Iterator<Item = f64>,
) -> Result<(), ServeError> {
    for (w, sla_factor) in sla_factors.enumerate() {
        if !(sla_factor > 0.0 && sla_factor.is_finite()) {
            return Err(ServeError::InvalidSla {
                workload: w,
                sla_factor,
            });
        }
        let lat = co.placements[w].result.mapping.latency_seconds;
        if !(lat > 0.0 && lat.is_finite()) {
            return Err(ServeError::InvalidPlacementLatency {
                workload: w,
                latency_seconds: lat,
            });
        }
    }
    // Lanes attribute busy time per accelerator and are sharded as if they
    // never interact, so a shared accelerator would be double-booked.
    let mut owner = std::collections::BTreeMap::new();
    for (second, placement) in co.placements.iter().enumerate() {
        for &accel in &placement.accels {
            if let Some(first) = owner.insert(accel, second) {
                return Err(ServeError::OverlappingPartitions {
                    accel,
                    first,
                    second,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::synthetic_co;

    /// Nearest-rank percentile of an unsorted latency sample, in milliseconds,
    /// by a full sort: the oracle [`percentile_triple_ms`] is tested against.
    ///
    /// Degenerate sample sizes get explicit, documented answers instead of
    /// falling out of the rank arithmetic:
    ///
    /// * **0 samples** → `0.0` for every `q` — an explicit "nothing completed"
    ///   marker, never `NaN` or a value interpolated off nothing.
    /// * **1 sample** → that sample for every `q`: with a single observation the
    ///   p50, p95 and p99 are all exactly it (nearest-rank never interpolates,
    ///   so no synthetic spread is invented around a lone point).
    ///
    /// `q` is clamped into `[0, 1]`; `q = 0` means "the smallest sample" (rank
    /// is floored at 1).
    fn percentile_ms(latencies: &mut [f64], q: f64) -> f64 {
        latencies.sort_by(f64::total_cmp);
        match latencies.len() {
            0 => 0.0,
            n => latencies[nearest_rank(q, n)] * 1e3,
        }
    }

    /// One engine, validated and run to the horizon.
    fn replay(
        co: &CoScheduleResult,
        profiles: &[TrafficProfile],
        trace: &Trace,
        config: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        Ok(SimState::new(co, profiles, trace, config)?.finish())
    }

    fn trace_of(arrivals: Vec<Vec<f64>>, horizon: f64) -> Trace {
        Trace {
            horizon_seconds: horizon,
            arrivals: arrivals.into_iter().map(Arc::new).collect(),
        }
    }

    const MS: f64 = 1e-3;

    /// One workload, 1 ms per-inference latency, 5 ms SLA, three requests in
    /// the first 2 ms: FIFO sits out its 10 ms window and misses every
    /// deadline; EDF launches at the last safe instant and meets all three.
    #[test]
    fn edf_meets_deadlines_fifo_sleeps_through() {
        let co = synthetic_co(&[1.0 * MS], &[1.0]);
        let profiles = [TrafficProfile::new(100.0, 5.0)];
        let trace = trace_of(vec![vec![0.0, 1.0 * MS, 2.0 * MS]], 0.1);

        let fifo = replay(
            &co,
            &profiles,
            &trace,
            &ServeConfig::new(DispatchPolicy::Fifo),
        )
        .unwrap();
        // Launches at t=10ms with all 3 requests: cost (1+3)ms, finish 14ms.
        assert_eq!(fifo.completed, 3);
        assert_eq!(fifo.goodput, 0);
        assert!((fifo.p50_ms - 13.0).abs() < 1e-9);

        let edf = replay(
            &co,
            &profiles,
            &trace,
            &ServeConfig::new(DispatchPolicy::EarliestDeadline),
        )
        .unwrap();
        // First batch launches at t=1ms (deadline 5ms − cost(3)=4ms) with the
        // two arrived requests, finishing at 4ms; the third runs alone,
        // starting at its latest safe instant 5ms, finishing at 7ms — all met.
        assert_eq!(edf.completed, 3);
        assert_eq!(edf.goodput, 3);
        assert_eq!(edf.per_workload[0].batches, 2);
        assert!(edf.p95_ms < fifo.p50_ms);
    }

    #[test]
    fn sla_weighted_launches_no_later_than_edf() {
        let co_heavy = synthetic_co(&[1.0 * MS], &[2.0]);
        let profiles = [TrafficProfile::new(100.0, 5.0)];
        let trace = trace_of(vec![vec![0.0, 1.0 * MS, 2.0 * MS]], 0.1);
        let edf = replay(
            &co_heavy,
            &profiles,
            &trace,
            &ServeConfig::new(DispatchPolicy::EarliestDeadline),
        )
        .unwrap();
        let slaw = replay(
            &co_heavy,
            &profiles,
            &trace,
            &ServeConfig::new(DispatchPolicy::SlaWeighted),
        )
        .unwrap();
        // Double margin → earlier launches → latency no worse, goodput no
        // worse, batches no larger.
        assert!(slaw.p95_ms <= edf.p95_ms);
        assert!(slaw.goodput >= edf.goodput);
        assert!(slaw.per_workload[0].mean_batch <= edf.per_workload[0].mean_batch);
    }

    #[test]
    fn full_batches_launch_without_waiting_for_the_timeout() {
        let co = synthetic_co(&[1.0 * MS], &[1.0]);
        let profiles = [TrafficProfile::new(100.0, 50.0)];
        // Sixteen arrivals 0.1 ms apart fill the cap of 8 twice.
        let arrivals: Vec<f64> = (0..16).map(|i| i as f64 * 0.1 * MS).collect();
        let trace = trace_of(vec![arrivals], 0.1);
        let report = replay(
            &co,
            &profiles,
            &trace,
            &ServeConfig::new(DispatchPolicy::Fifo),
        )
        .unwrap();
        assert_eq!(report.per_workload[0].batches, 2);
        assert_eq!(report.completed, 16);
        // Each full batch costs (1 + 8) ms.
        assert!((report.per_workload[0].busy_seconds - 18.0 * MS).abs() < 1e-12);
        // The first batch starts when request 7 arrives (0.7 ms), not at the
        // 10 ms window, and finishes at 9.7 ms, so the median latency is
        // request 0's 9.7 ms (19 ms had it waited for the window).  The
        // second starts when the first finishes.
        assert!((report.p50_ms - 9.7).abs() < 1e-9, "p50 {}", report.p50_ms);
    }

    #[test]
    fn horizon_cuts_off_late_work_and_clamps_busy_time() {
        let co = synthetic_co(&[10.0 * MS], &[1.0]);
        let profiles = [TrafficProfile::new(100.0, 3.0)];
        // Horizon 25 ms: the second batch (starting ~20ms, cost 20ms) is cut.
        let trace = trace_of(vec![vec![0.0, 1.0 * MS, 15.0 * MS]], 25.0 * MS);
        let report = replay(
            &co,
            &profiles,
            &trace,
            &ServeConfig::new(DispatchPolicy::Fifo),
        )
        .unwrap();
        assert_eq!(report.total_requests, 3);
        assert!(report.completed < 3);
        for s in &report.per_workload {
            assert!(s.busy_seconds <= report.horizon_seconds + 1e-12);
        }
        for (_, u) in &report.utilization {
            assert!((0.0..=1.0 + 1e-12).contains(u));
        }
    }

    #[test]
    fn utilization_covers_every_partition_accelerator() {
        let co = synthetic_co(&[1.0 * MS, 2.0 * MS], &[1.0, 1.0]);
        let profiles = [
            TrafficProfile::new(50.0, 5.0),
            TrafficProfile::new(50.0, 5.0),
        ];
        let trace = Trace::poisson(&profiles, 0.5, 7).unwrap();
        let report = replay(&co, &profiles, &trace, &ServeConfig::default()).unwrap();
        let ids: Vec<AccelId> = report.utilization.iter().map(|(a, _)| *a).collect();
        assert_eq!(ids, (0..4).map(AccelId).collect::<Vec<_>>());
        assert!(report.goodput <= report.completed);
        assert!(report.completed <= report.total_requests);
        assert_eq!(report.total_requests, trace.total_requests());
    }

    #[test]
    fn simulation_is_bit_identical_across_runs() {
        let co = synthetic_co(&[1.0 * MS, 3.0 * MS], &[1.5, 1.0]);
        let profiles = [
            TrafficProfile::new(200.0, 4.0),
            TrafficProfile::new(80.0, 6.0),
        ];
        let trace = Trace::poisson(&profiles, 1.0, 42).unwrap();
        let a = replay(&co, &profiles, &trace, &ServeConfig::default()).unwrap();
        let b = replay(&co, &profiles, &trace, &ServeConfig::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.p99_ms.to_bits(), b.p99_ms.to_bits());
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let co = synthetic_co(&[1.0 * MS], &[1.0]);
        let profiles = [TrafficProfile::new(100.0, 5.0)];
        let trace = trace_of(vec![vec![0.0]], 1.0);

        let two = [profiles[0], profiles[0]];
        assert!(matches!(
            replay(&co, &two, &trace, &ServeConfig::default()),
            Err(ServeError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            replay(
                &co,
                &profiles,
                &trace_of(vec![vec![]], 0.0),
                &ServeConfig::default()
            ),
            Err(ServeError::InvalidHorizon(_))
        ));
        assert!(matches!(
            replay(
                &co,
                &profiles,
                &Trace::poisson(&profiles, f64::INFINITY, 1).unwrap(),
                &ServeConfig::default()
            ),
            Err(ServeError::InvalidHorizon(h)) if h == f64::INFINITY
        ));
        assert!(matches!(
            replay(
                &co,
                &profiles,
                &trace,
                &ServeConfig::default().with_deadline_slack(f64::NAN)
            ),
            Err(ServeError::InvalidKnob {
                knob: "deadline_slack_factor",
                ..
            })
        ));
        let bad_sla = [TrafficProfile::new(100.0, 0.0)];
        assert!(matches!(
            replay(&co, &bad_sla, &trace, &ServeConfig::default()),
            Err(ServeError::InvalidSla { workload: 0, .. })
        ));
        let invalid = synthetic_co(&[f64::INFINITY], &[1.0]);
        assert!(matches!(
            replay(&invalid, &profiles, &trace, &ServeConfig::default()),
            Err(ServeError::InvalidPlacementLatency { workload: 0, .. })
        ));
        // Hand-built traces must respect the Trace invariant: sorted, finite
        // arrivals inside [0, horizon).
        for bad in [
            vec![0.9, 0.1],           // unsorted
            vec![0.5, 1.5],           // beyond the horizon
            vec![-0.1, 0.5],          // before time zero
            vec![0.1, f64::NAN, 0.2], // not a time
        ] {
            assert_eq!(
                replay(
                    &co,
                    &profiles,
                    &trace_of(vec![bad], 1.0),
                    &ServeConfig::default()
                ),
                Err(ServeError::InvalidTrace { workload: 0 })
            );
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut sample = vec![0.004, 0.001, 0.002, 0.003];
        assert_eq!(percentile_ms(&mut sample, 0.50), 2.0);
        assert_eq!(percentile_ms(&mut sample, 0.95), 4.0);
        let mut empty: [f64; 0] = [];
        assert_eq!(percentile_ms(&mut empty, 0.99), 0.0);
    }

    /// The degenerate-sample contract: zero samples report an explicit zero
    /// for every percentile, and a single sample *is* every percentile —
    /// exactly, with no interpolation inventing spread around a lone point.
    #[test]
    fn percentile_edge_cases_zero_and_one_sample() {
        let mut empty: [f64; 0] = [];
        for q in [0.0, 0.50, 0.95, 0.99, 1.0] {
            assert_eq!(percentile_ms(&mut empty, q), 0.0, "q={q}");
        }
        let mut one = [0.0075];
        for q in [0.0, 0.50, 0.95, 0.99, 1.0] {
            assert_eq!(
                percentile_ms(&mut one, q).to_bits(),
                7.5f64.to_bits(),
                "q={q}"
            );
        }
        // Two samples: p50 is the lower, p95/p99 the upper — still no
        // interpolation between them.
        let mut two = [0.004, 0.002];
        assert_eq!(percentile_ms(&mut two, 0.50), 2.0);
        assert_eq!(percentile_ms(&mut two, 0.95), 4.0);
        assert_eq!(percentile_ms(&mut two, 0.99), 4.0);
        // Out-of-range q is clamped, not allowed to index out of bounds.
        let mut many = [0.001, 0.002, 0.003];
        assert_eq!(percentile_ms(&mut many, -1.0), 1.0);
        assert_eq!(percentile_ms(&mut many, 2.0), 3.0);
    }

    /// The selection triple is bit-identical to three independent
    /// sort-based [`percentile_ms`] calls: on the sizes the degenerate-case
    /// contract distinguishes (0, 1, 2, many); on every size up to 64 with
    /// samples drawn from six values — signed zeros, ties, two neighbouring
    /// `f64`s and `+∞` — so ties and signed zeros land on every rank; on
    /// ~100k uniform samples; and on ~100k samples over three values.
    #[test]
    fn percentile_triple_matches_three_individual_calls() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn check(sample: &[f64]) {
            let mut triple_input = sample.to_vec();
            let (p50, p95, p99) = percentile_triple_ms(&mut triple_input);
            for (q, got) in [(0.50, p50), (0.95, p95), (0.99, p99)] {
                let mut fresh = sample.to_vec();
                assert_eq!(
                    got.to_bits(),
                    percentile_ms(&mut fresh, q).to_bits(),
                    "q={q} n={} sample={sample:?}",
                    sample.len()
                );
            }
        }

        let samples: [&[f64]; 4] = [
            &[],
            &[0.0075],
            &[0.004, 0.002],
            &[
                0.009, 0.001, 0.005, 0.003, 0.007, 0.002, 0.008, 0.006, 0.004,
            ],
        ];
        for sample in samples {
            check(sample);
        }

        let next_above = f64::from_bits(2e-3f64.to_bits() + 1);
        let values = [-0.0, 0.0, 1e-3, 2e-3, next_above, f64::INFINITY];
        let mut rng = StdRng::seed_from_u64(17);
        for n in 0..=64 {
            for _ in 0..32 {
                let sample: Vec<f64> = (0..n)
                    .map(|_| values[rng.gen_range(0..values.len())])
                    .collect();
                check(&sample);
            }
        }
        let uniform: Vec<f64> = (0..100_000).map(|_| rng.gen::<f64>()).collect();
        check(&uniform);
        let three: Vec<f64> = (0..100_000)
            .map(|_| [1e-3, 2e-3, 3e-3][rng.gen_range(0..3usize)])
            .collect();
        check(&three);
    }

    /// One drawn latency sample for the mergeable-percentile property:
    /// `kind` 0 mixes ties, signed zeros, subnormals, infinities and NaNs
    /// of both signs with ordinary values; 1 is all one value; 2 keeps every
    /// sample in one bucket (so all three ranks fall in it); 3 draws
    /// ordinary latencies; 4 draws any bit pattern.
    fn draw_samples(rng: &mut rand::rngs::StdRng, kind: usize, n: usize) -> Vec<f64> {
        use rand::Rng;
        let specials = [
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_0042),
            1e-3,
            1e-3,
            2e-3,
            f64::from_bits(2e-3f64.to_bits() + 1),
        ];
        let one = specials[rng.gen_range(0..specials.len())];
        (0..n)
            .map(|_| match kind {
                0 if rng.gen_bool(0.5) => specials[rng.gen_range(0..specials.len())],
                0 | 3 => rng.gen::<f64>() * 0.2,
                1 => one,
                2 => f64::from_bits(0.05f64.to_bits() + rng.gen_range(0..1u64 << 40)),
                _ => f64::from_bits(rng.gen()),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The mergeable percentiles equal the selection on the
        /// concatenation, bit for bit: samples of every kind above, split
        /// at random into 1–8 buffers (each reordered by its own triple,
        /// as a lane's is), one table per buffer merged in a random order,
        /// and the target buckets gathered over random groups of buffers.
        #[test]
        fn merged_counts_select_the_concatenation_triple(
            seed in 0u64..u64::MAX,
            kind in 0usize..5,
            size in 0usize..7,
            parts in 1usize..9,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let n = match size {
                0..=3 => size,
                4 => rng.gen_range(4..1_000),
                5 => rng.gen_range(1_000..100_000),
                _ => 100_000,
            };
            let samples = draw_samples(&mut rng, kind, n);
            let mut buffers = vec![Vec::new(); parts];
            for &v in &samples {
                buffers[rng.gen_range(0..parts)].push(v);
            }
            let mut tables: Vec<SampleCounts> = (buffers.iter_mut())
                .map(|buffer| {
                    percentile_triple_ms(buffer);
                    let mut counts = SampleCounts::default();
                    counts.add(buffer);
                    counts
                })
                .collect();
            while tables.len() > 1 {
                let part = tables.swap_remove(rng.gen_range(0..tables.len()));
                let at = rng.gen_range(0..tables.len());
                tables[at].merge(&part);
            }
            let mut groups = Vec::new();
            let mut rest = &buffers[..];
            while !rest.is_empty() {
                let (group, tail) = rest.split_at(rng.gen_range(1..=rest.len()));
                groups.push(group);
                rest = tail;
            }
            let got = tables[0].percentile_triple_ms(rng.gen_range(1..3), &groups);
            let want = percentile_triple_ms(&mut samples.clone());
            let bits = |(a, b, c): (f64, f64, f64)| [a, b, c].map(f64::to_bits);
            proptest::prop_assert_eq!(bits(got), bits(want), "kind {} n {} parts {}", kind, n, parts);
        }
    }

    /// A NaN bound is a no-op for the engine and the oracle alike:
    /// `t.min(horizon)` used to turn it into the horizon and replay the
    /// whole run.
    #[test]
    fn run_until_nan_changes_nothing() {
        let co = synthetic_co(&[1.0 * MS, 2.0 * MS], &[1.0, 1.0]);
        let profiles = [
            TrafficProfile::new(200.0, 5.0),
            TrafficProfile::new(100.0, 5.0),
        ];
        let trace = Trace::poisson(&profiles, 0.5, 11).unwrap();
        let config = ServeConfig::default();
        let uninterrupted = replay(&co, &profiles, &trace, &config).unwrap();
        for at in [0.0, 0.2] {
            let mut sim = SimState::new(&co, &profiles, &trace, &config).unwrap();
            sim.run_until(at);
            let (snapshot, report) = (sim.snapshot(), sim.report());
            sim.run_until(f64::NAN);
            assert_eq!(sim.snapshot(), snapshot, "run_until(NaN) at {at}");
            assert_eq!(sim.report(), report, "run_until(NaN) at {at}");
            assert_eq!(sim.finish(), uninterrupted);

            let mut oracle =
                crate::reference::SimState::new(&co, &profiles, &trace, &config).unwrap();
            oracle.run_until(at);
            oracle.run_until(f64::NAN);
            assert_eq!(oracle.snapshot(), snapshot, "oracle run_until(NaN) at {at}");
            assert_eq!(oracle.finish(), uninterrupted);
        }
    }

    /// A one-completion simulation reports that completion's latency as its
    /// p50, p95 *and* p99 — the report-level face of the single-sample rule.
    #[test]
    fn single_completion_report_has_flat_percentiles() {
        let co = synthetic_co(&[1.0 * MS], &[1.0]);
        let profiles = [TrafficProfile::new(100.0, 5.0)];
        let trace = trace_of(vec![vec![0.0]], 0.1);
        let report = replay(&co, &profiles, &trace, &ServeConfig::default()).unwrap();
        assert_eq!(report.completed, 1);
        assert!(report.p50_ms > 0.0);
        assert_eq!(report.p50_ms.to_bits(), report.p95_ms.to_bits());
        assert_eq!(report.p95_ms.to_bits(), report.p99_ms.to_bits());
        // And the zero-completion report keeps explicit zeros.
        let none = replay(
            &co,
            &profiles,
            &trace_of(vec![vec![0.099]], 0.1),
            &ServeConfig::new(DispatchPolicy::Fifo),
        )
        .unwrap();
        assert_eq!(none.completed, 0);
        assert_eq!(none.p50_ms, 0.0);
        assert_eq!(none.p99_ms, 0.0);
    }

    /// Checkpoint (= clone) at *every* event boundary, resume the copy, and
    /// the uninterrupted report must be reproduced bit for bit.
    #[test]
    fn checkpoint_restore_at_every_event_boundary_is_bit_identical() {
        let co = synthetic_co(&[1.0 * MS, 3.0 * MS], &[1.5, 1.0]);
        let profiles = [
            TrafficProfile::new(300.0, 4.0),
            TrafficProfile::new(120.0, 6.0),
        ];
        let trace = Trace::poisson(&profiles, 0.5, 42).unwrap();
        for policy in DispatchPolicy::ALL {
            let config = ServeConfig::new(policy);
            let uninterrupted = replay(&co, &profiles, &trace, &config).unwrap();
            // Walk the run one dispatch at a time; at each boundary fork a
            // checkpoint and run it to completion.
            let mut sim = SimState::new(&co, &profiles, &trace, &config).unwrap();
            let mut boundaries = 0usize;
            loop {
                let restored = sim.clone().finish();
                assert_eq!(
                    restored, uninterrupted,
                    "{policy}: divergence after {boundaries} events"
                );
                if sim.step().is_none() {
                    break;
                }
                boundaries += 1;
            }
            assert!(boundaries > 10, "{policy}: too few events to be meaningful");
            // The stepped-to-exhaustion state agrees too.
            assert_eq!(sim.report(), uninterrupted);
        }
    }

    /// Segmented `run_until` advances (mid-batch, mid-queue bounds included)
    /// are bit-identical to the one-shot run.
    #[test]
    fn segmented_run_until_matches_one_shot() {
        let co = synthetic_co(&[2.0 * MS], &[1.0]);
        let profiles = [TrafficProfile::new(400.0, 6.0)];
        let trace = Trace::poisson(&profiles, 0.4, 7).unwrap();
        let config = ServeConfig::default();
        let uninterrupted = replay(&co, &profiles, &trace, &config).unwrap();
        let mut sim = SimState::new(&co, &profiles, &trace, &config).unwrap();
        let mut t = 0.0;
        while t < 0.4 {
            sim.run_until(t);
            assert!((sim.engine.clock - t).abs() < 1e-15);
            t += 0.0137;
        }
        // Bounds past the horizon are clamped...
        sim.run_until(1.0);
        assert_eq!(sim.engine.clock, 0.4);
        // ...and non-increasing bounds are no-ops.
        sim.run_until(0.1);
        assert_eq!(sim.engine.clock, 0.4);
        assert_eq!(sim.finish(), uninterrupted);
    }

    /// Snapshots observe without advancing, and their accounting is
    /// consistent with the final report.
    #[test]
    fn snapshots_observe_without_perturbing() {
        let co = synthetic_co(&[1.0 * MS, 2.0 * MS], &[1.0, 1.0]);
        let profiles = [
            TrafficProfile::new(200.0, 5.0),
            TrafficProfile::new(100.0, 5.0),
        ];
        let trace = Trace::poisson(&profiles, 0.5, 11).unwrap();
        let config = ServeConfig::default();
        let mut sim = SimState::new(&co, &profiles, &trace, &config).unwrap();
        sim.run_until(0.25);
        let snap = sim.snapshot();
        assert_eq!(snap.clock, 0.25);
        assert_eq!(snap.lanes.len(), 2);
        for lane in &snap.lanes {
            assert!(lane.met_sla <= lane.completed);
            assert!(lane.completed + lane.queued <= lane.enqueued);
            assert_eq!(lane.accels.len(), 2);
        }
        // Observing twice changes nothing, and the finished run still
        // matches the one-shot simulation.
        assert_eq!(snap, sim.snapshot());
        assert!(sim.drain_seconds() >= snap.clock);
        assert_eq!(
            sim.finish(),
            replay(&co, &profiles, &trace, &config).unwrap()
        );
    }

    /// Snapshots share the lane accelerator lists with the live state
    /// (`Arc`, not a per-call copy) and `down()` borrows the cached down
    /// set; neither may ever reflect mutations made *after* the observation.
    #[test]
    fn mid_run_snapshots_stay_frozen_as_the_sim_mutates_on() {
        let co = synthetic_co(&[1.0 * MS, 2.0 * MS], &[1.0, 1.0]);
        let profiles = [
            TrafficProfile::new(300.0, 5.0),
            TrafficProfile::new(150.0, 5.0),
        ];
        let trace = Trace::poisson(&profiles, 1.0, 23).unwrap();
        let config = ServeConfig::default();
        let mut sim = SimState::new(&co, &profiles, &trace, &config).unwrap();

        sim.run_until(0.3);
        sim.fail_accel(AccelId(0), FaultPolicy::RequeueInflight);
        let snap = sim.snapshot();
        let frozen = snap.clone();
        let down_then = sim.down().to_vec();
        assert_eq!(down_then, vec![AccelId(0)]);

        // Mutate everything observable: restore, advance, fail the *other*
        // lane, re-place both lanes (fresh `Arc`s behind `accels`).
        sim.restore_accel(AccelId(0));
        sim.run_until(0.6);
        sim.fail_accel(AccelId(3), FaultPolicy::LoseInflight);
        let swapped = synthetic_co(&[1.5 * MS, 2.0 * MS], &[1.0, 1.0]);
        sim.apply_placements(&swapped, &[5.0, 5.0], 0.6).unwrap();

        // The earlier observation is bit-for-bit untouched.
        assert_eq!(snap, frozen);
        assert_eq!(&snap.lanes[0].accels[..], [AccelId(0), AccelId(1)]);
        assert_eq!(snap.down, vec![AccelId(0)]);
        // The cached down set tracks the *current* state, and repeated
        // calls agree without rebuilding.
        assert_eq!(sim.down(), vec![AccelId(3)]);
        assert_eq!(sim.down(), sim.snapshot().down);
    }

    /// Zero deadline slack finishes singleton EDF batches *exactly at* the
    /// deadline (metastable by a ulp); a small positive slack turns those
    /// coin-flips into robust hits without rescheduling anything else.
    #[test]
    fn deadline_slack_turns_exact_deadline_finishes_into_hits() {
        let co = synthetic_co(&[1.0 * MS], &[1.0]);
        let profiles = [TrafficProfile::new(20.0, 5.0)];
        // Sparse singleton arrivals: every batch is a lone request launched
        // at the last safe instant.
        let trace = Trace::poisson(&profiles, 1.0, 13).unwrap();
        let zero = replay(
            &co,
            &profiles,
            &trace,
            &ServeConfig::new(DispatchPolicy::EarliestDeadline),
        )
        .unwrap();
        let slack = replay(
            &co,
            &profiles,
            &trace,
            &ServeConfig::new(DispatchPolicy::EarliestDeadline).with_deadline_slack(0.2),
        )
        .unwrap();
        assert_eq!(zero.completed, slack.completed);
        // With slack every completion has real headroom; without, the
        // at-deadline finishes are floating-point luck.
        assert_eq!(slack.goodput, slack.completed);
        assert!(slack.goodput >= zero.goodput);
        assert!(slack.p95_ms <= zero.p95_ms + 1e-9);
        // And the zero-slack run is the pinned legacy behaviour (the knob
        // does not perturb it).
        let legacy = replay(
            &co,
            &profiles,
            &trace,
            &ServeConfig::new(DispatchPolicy::EarliestDeadline).with_deadline_slack(0.0),
        )
        .unwrap();
        assert_eq!(legacy, zero);
    }

    /// A mid-run re-placement changes latency/SLA for future work only:
    /// queued requests keep their admitted deadlines, the lane stays blocked
    /// until the activation instant, and new busy time is attributed to the
    /// new accelerators.
    #[test]
    fn apply_placements_swaps_service_for_future_arrivals() {
        let co_slow = synthetic_co(&[4.0 * MS], &[1.0]);
        // The "re-schedule": the same workload on twice the accelerators at
        // half the latency (synthetic ids 0/1 -> manual 2/3 swap below).
        let mut co_fast = synthetic_co(&[2.0 * MS], &[1.0]);
        co_fast.placements[0].accels = vec![AccelId(2), AccelId(3)];
        let profiles = [TrafficProfile::new(150.0, 3.0)];
        let trace = Trace::poisson(&profiles, 1.0, 3).unwrap();
        let config = ServeConfig::default();

        let static_report = replay(&co_slow, &profiles, &trace, &config).unwrap();

        let mut sim = SimState::new(&co_slow, &profiles, &trace, &config).unwrap();
        sim.run_until(0.5);
        sim.apply_placements(&co_fast, &[3.0], 0.55).unwrap();
        let snap = sim.snapshot();
        assert_eq!(&snap.lanes[0].accels[..], [AccelId(2), AccelId(3)]);
        assert!(snap.lanes[0].free_at >= 0.55, "blocked until activation");
        let elastic_report = sim.finish();

        // The faster second half must not lose goodput relative to the
        // all-slow run (it may gain), and the utilisation map now covers
        // both the old and the new accelerators.
        assert!(elastic_report.goodput >= static_report.goodput);
        let ids: Vec<AccelId> = elastic_report.utilization.iter().map(|(a, _)| *a).collect();
        assert_eq!(ids, (0..4).map(AccelId).collect::<Vec<_>>());
        // Errors leave the state untouched.
        assert!(sim_err_is_shape(&co_fast, &profiles, &trace, &config));
    }

    /// Failing an accelerator mid-batch revokes the dispatch-time
    /// accounting, cuts busy time back to the failure instant, and blocks
    /// the lane until the accelerator is restored — after which requeued
    /// requests are served (late), never retroactively inside the outage.
    #[test]
    fn fail_accel_revokes_inflight_and_requeues() {
        let co = synthetic_co(&[10.0 * MS], &[1.0]);
        let profiles = [TrafficProfile::new(20.0, 3.0)];
        let trace = trace_of(vec![vec![0.0, 50.0 * MS]], 0.2);
        let config = ServeConfig::default();
        let mut sim = SimState::new(&co, &profiles, &trace, &config).unwrap();
        // EDF launches request 0 at 10 ms (deadline 30 ms − cost 20 ms),
        // finishing at 30 ms; at 15 ms the batch is in flight.
        sim.run_until(15.0 * MS);
        let before = sim.snapshot();
        assert_eq!(before.lanes[0].completed, 1, "counted at dispatch time");
        assert!(before.down.is_empty());

        let interrupted = sim.fail_accel(AccelId(0), FaultPolicy::RequeueInflight);
        assert_eq!(interrupted, 1);
        let failed = sim.snapshot();
        assert_eq!(failed.down, vec![AccelId(0)]);
        assert_eq!(failed.lanes[0].completed, 0, "revoked");
        assert_eq!(failed.lanes[0].queued, 1, "requeued");
        assert!((failed.lanes[0].busy_seconds - 5.0 * MS).abs() < 1e-12);
        for (_, b) in &failed.accel_busy {
            assert!(*b >= 0.0);
        }
        // Failing the same accelerator again is a no-op.
        assert_eq!(sim.fail_accel(AccelId(0), FaultPolicy::RequeueInflight), 0);

        // Blocked: nothing dispatches while the accelerator is down.
        sim.run_until(40.0 * MS);
        assert_eq!(sim.snapshot().lanes[0].completed, 0);

        // Restored at 40 ms: the requeued request runs from now (finish
        // 60 ms — past its admitted 30 ms deadline), the later arrival is
        // served normally.
        sim.restore_accel(AccelId(0));
        assert!(sim.down().is_empty());
        let report = sim.finish();
        assert_eq!(report.completed, 2);
        assert_eq!(report.goodput, 1, "the interrupted request misses");
    }

    /// `LoseInflight` destroys the batch instead of requeueing it: the
    /// requests still count as arrived but can never complete.
    #[test]
    fn lose_inflight_drops_the_interrupted_requests() {
        let co = synthetic_co(&[10.0 * MS], &[1.0]);
        let profiles = [TrafficProfile::new(20.0, 3.0)];
        let trace = trace_of(vec![vec![0.0, 50.0 * MS]], 0.2);
        let mut sim = SimState::new(&co, &profiles, &trace, &ServeConfig::default()).unwrap();
        sim.run_until(15.0 * MS);
        assert_eq!(sim.fail_accel(AccelId(0), FaultPolicy::LoseInflight), 1);
        assert_eq!(sim.snapshot().lanes[0].queued, 0, "lost, not requeued");
        sim.run_until(40.0 * MS);
        sim.restore_accel(AccelId(0));
        let report = sim.finish();
        assert_eq!(report.total_requests, 2);
        assert_eq!(report.completed, 1, "only the post-outage arrival");
    }

    /// A failure on an idle lane (no batch in flight) interrupts nothing;
    /// restoring an accelerator that never failed is a no-op.
    #[test]
    fn idle_failures_and_spurious_restores_are_benign() {
        let co = synthetic_co(&[1.0 * MS], &[1.0]);
        let profiles = [TrafficProfile::new(50.0, 5.0)];
        let trace = trace_of(vec![vec![50.0 * MS]], 0.2);
        let mut sim = SimState::new(&co, &profiles, &trace, &ServeConfig::default()).unwrap();
        sim.run_until(10.0 * MS);
        assert_eq!(sim.fail_accel(AccelId(1), FaultPolicy::RequeueInflight), 0);
        sim.restore_accel(AccelId(5));
        assert_eq!(sim.down(), vec![AccelId(1)]);
        sim.run_until(100.0 * MS);
        sim.restore_accel(AccelId(1));
        let report = sim.finish();
        assert_eq!(report.completed, 1);
    }

    /// Overlapping partitions are a typed error at every entry point.  The
    /// sharded replay used to accept this input, book accelerator 0 busy
    /// for 253% of the horizon, and report a utilisation that differed in
    /// its last bits between `MARS_THREADS=1` and `4`.
    #[test]
    fn overlapping_partitions_are_rejected_at_every_entry_point() {
        let mut shared = synthetic_co(&[1.0 * MS; 8], &[1.0; 8]);
        for p in &mut shared.placements {
            p.accels = vec![AccelId(0), AccelId(1)];
        }
        let profiles = [TrafficProfile::new(200.0, 5.0); 8];
        let trace = Trace::poisson(&profiles, 2.0, 7).unwrap();
        let config = ServeConfig::default();
        let faults = [
            mars_model::FaultEvent::accel_down(0.5, 0),
            mars_model::FaultEvent::accel_restored(0.9, 0),
        ];
        let overlap = Err(ServeError::OverlappingPartitions {
            accel: AccelId(0),
            first: 0,
            second: 1,
        });

        assert_eq!(
            SimState::new(&shared, &profiles, &trace, &config).map(|_| ()),
            overlap
        );
        for policy in [FaultPolicy::LoseInflight, FaultPolicy::RequeueInflight] {
            let replay = crate::simulate_sharded_with_faults(
                &shared, &profiles, &trace, &config, &faults, policy,
            );
            assert_eq!(replay.map(|_| ()), overlap);
        }
        // A re-placement onto shared accelerators is rejected and leaves the
        // running simulation untouched.
        let disjoint = synthetic_co(&[1.0 * MS; 8], &[1.0; 8]);
        let mut sim = SimState::new(&disjoint, &profiles, &trace, &config).unwrap();
        sim.run_until(0.5);
        let before = sim.snapshot();
        assert_eq!(sim.apply_placements(&shared, &[5.0; 8], 0.5), overlap);
        assert_eq!(sim.snapshot(), before);

        // One placement listing an accelerator twice overlaps itself.
        let mut twice = synthetic_co(&[1.0 * MS], &[1.0]);
        twice.placements[0].accels = vec![AccelId(1), AccelId(1)];
        let trace = Trace::poisson(&profiles[..1], 2.0, 7).unwrap();
        assert_eq!(
            SimState::new(&twice, &profiles[..1], &trace, &config).map(|_| ()),
            Err(ServeError::OverlappingPartitions {
                accel: AccelId(1),
                first: 0,
                second: 0,
            })
        );
    }

    fn sim_err_is_shape(
        co: &mars_core::CoScheduleResult,
        profiles: &[TrafficProfile],
        trace: &Trace,
        config: &ServeConfig,
    ) -> bool {
        let mut sim = SimState::new(co, profiles, trace, config).unwrap();
        matches!(
            sim.apply_placements(co, &[], 0.0),
            Err(ServeError::ShapeMismatch { .. })
        ) && matches!(
            sim.set_sla_factors(&[1.0, 2.0]),
            Err(ServeError::ShapeMismatch { .. })
        ) && matches!(
            sim.set_sla_factors(&[f64::NAN]),
            Err(ServeError::InvalidSla { .. })
        )
    }

    /// The `"histograms"` section of `obs`'s metrics JSON.
    fn histograms_json(obs: &mars_obs::Obs) -> String {
        let json = mars_obs::metrics_json(obs);
        let start = json
            .find("\n  \"histograms\": {")
            .expect("a histograms section");
        let len = json[start..].find("\n  }").expect("sections close");
        json[start..start + len].to_owned()
    }

    /// Nothing a step dispatches stays buffered once `step` returns: a
    /// recorded `SimState` of the bundled fleet, stepped to exhaustion,
    /// holds each step's batch span and its two histogram samples by then,
    /// and what the steps recorded equals a run to the horizon, spans
    /// (canonicalized) and histograms.  Each step's records are `take`n, so
    /// the check stays linear in the steps.
    #[test]
    fn each_step_is_recorded_when_it_returns() {
        let fleet = mars_model::zoo::MixZoo::fleet();
        let co = crate::fleet_co_schedule(&fleet);
        let profiles = &fleet.traffic.phases[0].profiles;
        let trace = Trace::phased(&fleet.traffic, 42).unwrap();
        let config = ServeConfig::default();
        let sim = || SimState::new(&co, profiles, &trace, &config).unwrap();

        let recorder = Recorder::enabled();
        let mut stepped = sim().with_recorder(recorder.clone());
        let all = Recorder::enabled();
        let mut steps = 0;
        while let Some(batch) = stepped.step() {
            steps += 1;
            let took = recorder.take();
            let one = Recorder::enabled();
            let track = format!("lane/{}", co.placements[batch.workload].name);
            let name = format!("batch({})", batch.size);
            one.span(&track, &name, batch.start, batch.finish);
            assert_eq!(took.spans(), one.take().spans(), "step {steps}");
            let histograms = histograms_json(&took);
            for key in ["serve/batch_size", "serve/queue_depth"] {
                let entry = format!("\"{key}\": {{\"count\": 1,");
                assert!(histograms.contains(&entry), "step {steps}: {histograms}");
            }
            all.absorb(&took);
        }
        assert_eq!(steps, 66_377);

        let horizon = Recorder::enabled();
        sim().with_recorder(horizon.clone()).finish();
        let (mut stepped, mut ran) = (all.take(), horizon.take());
        assert_eq!(histograms_json(&stepped), histograms_json(&ran));
        stepped.canonicalize();
        ran.canonicalize();
        assert_eq!(stepped.spans().len(), steps);
        assert_eq!(stepped.spans(), ran.spans());
    }
}
