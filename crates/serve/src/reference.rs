//! The legacy run-to-completion serving loop, preserved as the differential
//! oracle for the calendar-queue engine.
//!
//! This module is the pre-fleet event loop moved here verbatim: one
//! `LaneState` per placement with `VecDeque` queues and per-batch `Vec`
//! allocations, advanced by a *linear scan* over every lane on every
//! [`run_until`](SimState::run_until) call and every
//! [`step`](SimState::step).  It is `O(lanes)` per event and allocation-happy
//! — exactly the costs the arena + calendar engine in the crate's `sim`
//! module was built to remove — but it is also small, battle-tested, and
//! obviously faithful to the simulator's documented semantics.
//!
//! It therefore stays in the tree as the **oracle**: the equivalence suite
//! (`tests/fleet_sim_equivalence.rs`) runs both engines over every bundled
//! mix, policy, and fault scenario and demands bit-identical
//! [`ServeReport`]s, including the float-associativity-sensitive aggregates.
//! Only what that suite drives is kept: construction, `run_until`, `step`,
//! snapshots, accelerator failure and restore, and the reports.  It is
//! **not** part of the serving API proper: use
//! [`crate::simulate_sharded_with_faults`] / [`crate::SimState`] for real
//! work.

use crate::lanes::{Lanes, ServeLane};
use crate::sim::{
    percentile_triple_ms, validate, BatchEvent, DispatchPolicy, FaultPolicy, Lane, LaneSnapshot,
    ServeConfig, ServeError, ServeReport, SimSnapshot, WorkloadServeStats, BATCH_TIMEOUT_SECONDS,
    DISPATCH_OVERHEAD_FACTOR, MAX_BATCH,
};
use crate::trace::Trace;
use mars_core::CoScheduleResult;
use mars_model::TrafficProfile;
use mars_topology::AccelId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One workload's single-server batching lane (legacy representation:
/// explicit id queue, per-batch member vectors).
#[derive(Debug, Clone)]
struct LaneState {
    workload: usize,
    name: String,
    weight: f64,
    latency: f64,
    sla_seconds: f64,
    accels: Vec<AccelId>,
    arrivals: Vec<f64>,
    deadlines: Vec<f64>,
    queue: VecDeque<usize>,
    next: usize,
    free: f64,
    busy: f64,
    batches: usize,
    dispatched: usize,
    completed: usize,
    met_sla: usize,
    latencies: Vec<f64>,
    inflight: Vec<usize>,
    inflight_finish: f64,
}

impl LaneState {
    fn enqueue_next(&mut self) {
        self.deadlines
            .push(self.arrivals[self.next] + self.sla_seconds);
        self.queue.push_back(self.next);
        self.next += 1;
    }

    /// Computes the next batch's launch instant, pulling every arrival that
    /// joins before it (and strictly before `bound`) into the queue first.
    fn decide(&mut self, config: &ServeConfig, bound: f64) -> Option<f64> {
        if self.queue.is_empty() {
            if self.next >= self.arrivals.len() || self.arrivals[self.next] >= bound {
                return None;
            }
            self.enqueue_next();
        }
        let overhead = DISPATCH_OVERHEAD_FACTOR * self.latency;
        loop {
            let head = self.queue[0];
            let head_arrival = self.arrivals[head];
            let b_now = self.queue.len().min(MAX_BATCH);
            let cost_now = overhead + b_now as f64 * self.latency;
            let fill = if self.queue.len() >= MAX_BATCH {
                self.arrivals[self.queue[MAX_BATCH - 1]]
            } else {
                let need = MAX_BATCH - self.queue.len();
                match self.arrivals.get(self.next.saturating_add(need - 1)) {
                    Some(&a) => a,
                    None => f64::INFINITY,
                }
            };
            let slack = 1.0 + config.deadline_slack_factor;
            let policy_t = match config.policy {
                DispatchPolicy::Fifo => head_arrival + BATCH_TIMEOUT_SECONDS,
                DispatchPolicy::EarliestDeadline => self.deadlines[head] - cost_now * slack,
                DispatchPolicy::SlaWeighted => {
                    self.deadlines[head] - cost_now * (self.weight.max(1.0) * slack)
                }
            };
            let start = fill.min(policy_t).max(self.free).max(head_arrival);
            if let Some(&a) = self.arrivals.get(self.next) {
                if a <= start && a < bound {
                    self.enqueue_next();
                    continue;
                }
            }
            return Some(start);
        }
    }

    fn dispatch(&mut self, horizon: f64, start: f64) -> BatchEvent {
        let overhead = DISPATCH_OVERHEAD_FACTOR * self.latency;
        let mut batch: Vec<usize> = Vec::new();
        while batch.len() < MAX_BATCH
            && self
                .queue
                .front()
                .is_some_and(|&i| self.arrivals[i] <= start)
        {
            batch.push(self.queue.pop_front().expect("front checked"));
        }
        let finish = start + (overhead + batch.len() as f64 * self.latency);
        if finish <= horizon {
            for &i in &batch {
                self.completed += 1;
                self.latencies.push(finish - self.arrivals[i]);
                if finish <= self.deadlines[i] {
                    self.met_sla += 1;
                }
            }
        }
        self.busy += finish.min(horizon) - start;
        self.free = finish;
        self.batches += 1;
        self.dispatched += batch.len();
        let size = batch.len();
        self.inflight = batch;
        self.inflight_finish = finish;
        BatchEvent {
            workload: self.workload,
            start,
            finish,
            size,
        }
    }

    fn revoke_inflight(&mut self, clock: f64, horizon: f64, policy: FaultPolicy) -> f64 {
        let finish = self.inflight_finish;
        debug_assert!(finish > clock);
        if finish <= horizon {
            for &i in &self.inflight {
                self.completed -= 1;
                if finish <= self.deadlines[i] {
                    self.met_sla -= 1;
                }
            }
            self.latencies
                .truncate(self.latencies.len() - self.inflight.len());
        }
        let delta = clock.min(horizon) - finish.min(horizon);
        self.busy += delta;
        self.batches -= 1;
        self.dispatched -= self.inflight.len();
        self.free = clock;
        self.inflight_finish = clock;
        let members = std::mem::take(&mut self.inflight);
        if policy == FaultPolicy::RequeueInflight {
            for &i in members.iter().rev() {
                self.queue.push_front(i);
            }
        }
        delta
    }

    fn stats(&self) -> WorkloadServeStats {
        let mut sample = self.latencies.clone();
        let (p50_ms, p95_ms, p99_ms) = percentile_triple_ms(&mut sample);
        WorkloadServeStats {
            workload: self.workload,
            name: self.name.clone(),
            requests: self.arrivals.len(),
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

    fn snapshot(&self) -> LaneSnapshot {
        LaneSnapshot {
            workload: self.workload,
            enqueued: self.next,
            queued: self.queue.len(),
            completed: self.completed,
            met_sla: self.met_sla,
            busy_seconds: self.busy,
            free_at: self.free,
            accels: self.accels.clone().into(),
        }
    }
}

/// The legacy linear-scan simulation state — same public surface as
/// [`crate::SimState`], kept as the differential oracle.
#[derive(Debug, Clone)]
pub struct SimState {
    config: ServeConfig,
    horizon: f64,
    clock: f64,
    lanes: Vec<LaneState>,
    accel_busy: BTreeMap<AccelId, f64>,
    down: BTreeSet<AccelId>,
}

impl SimState {
    /// Validates the inputs with the checks [`crate::SimState::new`] makes
    /// and builds the initial (time-zero) state.
    ///
    /// # Errors
    ///
    /// As for [`crate::SimState::new`].
    pub fn new(
        co: &CoScheduleResult,
        profiles: &[TrafficProfile],
        trace: &Trace,
        config: &ServeConfig,
    ) -> Result<Self, ServeError> {
        validate(co, profiles, trace, config)?;
        let mut accel_busy = BTreeMap::new();
        let lanes = co
            .placements
            .iter()
            .enumerate()
            .map(|(w, placement)| {
                for &a in &placement.accels {
                    accel_busy.entry(a).or_insert(0.0);
                }
                let latency = placement.result.mapping.latency_seconds;
                LaneState {
                    workload: w,
                    name: placement.name.clone(),
                    weight: placement.weight,
                    latency,
                    sla_seconds: profiles[w].sla_factor * latency,
                    accels: placement.accels.clone(),
                    arrivals: trace.arrivals[w].clone(),
                    deadlines: Vec::new(),
                    queue: VecDeque::new(),
                    next: 0,
                    free: 0.0,
                    busy: 0.0,
                    batches: 0,
                    dispatched: 0,
                    completed: 0,
                    met_sla: 0,
                    latencies: Vec::new(),
                    inflight: Vec::new(),
                    inflight_finish: 0.0,
                }
            })
            .collect();
        Ok(Self {
            config: *config,
            horizon: trace.horizon_seconds,
            clock: 0.0,
            lanes,
            accel_busy,
            down: BTreeSet::new(),
        })
    }

    /// Advances every lane by linear scan, dispatching each batch whose
    /// launch instant lies strictly before `min(t, horizon)`.
    pub fn run_until(&mut self, t: f64) {
        let bound = t.min(self.horizon).max(self.clock);
        for w in 0..self.lanes.len() {
            if self.lane_blocked(w) {
                continue;
            }
            while let Some(start) = self.lanes[w].decide(&self.config, bound) {
                if start >= bound {
                    break;
                }
                self.dispatch_lane(w, start);
            }
        }
        self.clock = bound;
    }

    /// Dispatches the single globally-earliest pending batch by scanning
    /// every lane (ties resolve to the lowest workload index).
    pub fn step(&mut self) -> Option<BatchEvent> {
        let mut earliest: Option<(usize, f64)> = None;
        for w in 0..self.lanes.len() {
            if self.lane_blocked(w) {
                continue;
            }
            if let Some(start) = self.lanes[w].decide(&self.config, self.horizon) {
                if start < self.horizon && earliest.is_none_or(|(_, s)| start < s) {
                    earliest = Some((w, start));
                }
            }
        }
        let (w, start) = earliest?;
        Some(self.dispatch_lane(w, start))
    }

    fn dispatch_lane(&mut self, w: usize, start: f64) -> BatchEvent {
        let lane = &mut self.lanes[w];
        let before = lane.busy;
        let event = lane.dispatch(self.horizon, start);
        let delta = lane.busy - before;
        for &a in &lane.accels {
            *self.accel_busy.entry(a).or_insert(0.0) += delta;
        }
        event
    }

    /// Observes the current state (see [`SimSnapshot`]).
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            clock: self.clock,
            lanes: self.lanes.iter().map(LaneState::snapshot).collect(),
            accel_busy: self.accel_busy.iter().map(|(&a, &b)| (a, b)).collect(),
            down: self.down.iter().copied().collect(),
        }
    }

    fn lane_blocked(&self, w: usize) -> bool {
        self.lanes[w].accels.iter().any(|a| self.down.contains(a))
    }

    /// Fails accelerator `accel` at the current clock (see
    /// [`crate::SimState::fail_accel`]).
    pub fn fail_accel(&mut self, accel: AccelId, policy: FaultPolicy) -> usize {
        if !self.down.insert(accel) {
            return 0;
        }
        let clock = self.clock;
        let horizon = self.horizon;
        let mut interrupted = 0;
        for w in 0..self.lanes.len() {
            let lane = &self.lanes[w];
            if !lane.accels.contains(&accel)
                || lane.inflight.is_empty()
                || lane.inflight_finish <= clock
            {
                continue;
            }
            interrupted += self.lanes[w].inflight.len();
            let delta = self.lanes[w].revoke_inflight(clock, horizon, policy);
            let lane = &self.lanes[w];
            for &a in &lane.accels {
                *self.accel_busy.entry(a).or_insert(0.0) += delta;
            }
        }
        interrupted
    }

    /// Restores a previously-failed accelerator at the current clock.
    pub fn restore_accel(&mut self, accel: AccelId) {
        if !self.down.remove(&accel) {
            return;
        }
        let clock = self.clock;
        for w in 0..self.lanes.len() {
            if self.lanes[w].accels.contains(&accel) && !self.lane_blocked(w) {
                let lane = &mut self.lanes[w];
                lane.free = lane.free.max(clock);
            }
        }
    }

    /// Builds the report for the state as it stands.
    pub fn report(&self) -> ServeReport {
        let lanes = Lanes {
            stats: self.lanes.iter().map(LaneState::stats).collect(),
            latencies: self
                .lanes
                .iter()
                .flat_map(|l| l.latencies.iter().copied())
                .collect(),
            accel_busy: self.accel_busy.iter().map(|(&a, &b)| (a, b)).collect(),
        };
        Lane::report(self.config, self.horizon, lanes)
    }

    /// Runs the remaining events and returns the final [`ServeReport`].
    pub fn finish(mut self) -> ServeReport {
        self.run_until(self.horizon);
        self.report()
    }
}

/// The one-shot legacy simulation (oracle counterpart of
/// [`crate::SimState::finish`]).
///
/// # Errors
///
/// Rejects mismatched input shapes and degenerate knobs — see [`ServeError`].
pub fn simulate(
    co: &CoScheduleResult,
    profiles: &[TrafficProfile],
    trace: &Trace,
    config: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    Ok(SimState::new(co, profiles, trace, config)?.finish())
}
