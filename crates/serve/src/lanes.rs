//! The serving event engine shared by CNN and LLM lanes, and the lane-shard
//! runner behind every whole-run replay.
//!
//! A lane ([`ServeLane`]: a CNN batching lane or an LLM iteration lane)
//! answers when it next acts and advances itself to a bound.  [`Engine`]
//! keeps one wake event per lane in a [`CalendarQueue`] and advances only
//! the lanes whose event is due, each in one burst up to the bound.
//!
//! Lanes own disjoint accelerators and never interact, so a replay splits
//! exactly by lane: contiguous shards run as independent engines on the
//! `mars-parallel` pool and merge *in lane order*.  Per-lane figures come
//! from the same float operations as a single-engine run and the aggregate
//! percentiles are recomputed from the raw samples, so the report is
//! **bit-identical** to one engine's at every `MARS_THREADS` setting
//! (`tests/fleet_sim_equivalence.rs` pins it).  Everything a lane records
//! is keyed by its name and the exporters put records in canonical order,
//! so the merged record is shard-count invariant too.

use crate::calendar::{CalendarQueue, Event};
use crate::sim::ServeError;
use mars_obs::Recorder;
use mars_parallel::{resolve_threads, scoped_map, threads_from_env};
use mars_topology::AccelId;
use std::fmt::Debug;
use std::ops::Range;

/// One workload's server, as the [`Engine`] drives it.
pub(crate) trait ServeLane {
    /// The knobs every lane of an engine reads.
    type Knobs: Copy + Debug;
    /// The lane's figures in a report.
    type Stats: Send;
    /// What finished lanes are assembled into.
    type Report;
    /// Whether an action due exactly at the bound happens in this segment:
    /// LLM lanes process iteration ends at or before a bound, CNN lanes
    /// dispatch only strictly before it.
    const AT_BOUND: bool;

    /// Performs every action due by `bound` and returns when the lane acts
    /// next (`None`: never).
    fn advance(&mut self, env: &mut Env<Self::Knobs>, bound: f64) -> Option<f64>;
    /// Names the lane's span tracks and series keys for an enabled recorder.
    fn name_tracks(&mut self);
    fn stats(&self) -> Self::Stats;
    /// The lane's completion latencies so far, seconds.
    fn latencies(&self) -> &[f64];
    /// Records the lane's final gauges; monotone, so recording them at
    /// every report is idempotent.
    fn record_gauges(&self, _recorder: &Recorder) {}
    /// Assembles the report from finished lanes in lane order.
    fn report(knobs: Self::Knobs, horizon: f64, lanes: Lanes<Self::Stats>) -> Self::Report;
}

/// What lane actions read and write beyond the lane itself.
#[derive(Debug, Clone)]
pub(crate) struct Env<K> {
    pub(crate) knobs: K,
    pub(crate) horizon: f64,
    /// Observability sink (disabled, a null check, by default).
    pub(crate) recorder: Recorder,
    /// Cumulative busy seconds per accelerator, sorted by id (empty for LLM
    /// lanes); CNN lanes cache their slots in it.
    pub(crate) accel_busy: Vec<(AccelId, f64)>,
    /// The accelerators currently failed, sorted by id.
    pub(crate) down: Vec<AccelId>,
    /// Reused buffer span names render into.
    pub(crate) label: String,
}

/// The engine's bookkeeping for one lane's wake event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mark {
    /// Generation counter: a queued event whose `seq` differs is stale and
    /// discarded on pop (mutations bump it instead of searching the queue).
    pub(crate) seq: u32,
    /// `true` while the lane's one live (current-`seq`) event is queued.
    pub(crate) armed: bool,
    /// `true` when a mutation invalidated the lane's event since it last
    /// advanced.
    pub(crate) dirty: bool,
}

/// The resumable event engine over one set of lanes.  All state is plain
/// data, so checkpoint/restore is `Clone`.
#[derive(Debug, Clone)]
pub(crate) struct Engine<L: ServeLane> {
    pub(crate) env: Env<L::Knobs>,
    pub(crate) lanes: Vec<L>,
    pub(crate) marks: Vec<Mark>,
    /// One wake event per armed lane: when it next acts, or a proven lower
    /// bound on it.
    pub(crate) events: CalendarQueue,
    /// Lanes with `Mark::dirty` set, advanced before the calendar.
    pub(crate) dirty: Vec<u32>,
    /// The largest `run_until` bound reached so far.
    pub(crate) clock: f64,
    /// `true` only on a top-level (unsharded) CNN simulation: calendar
    /// occupancy and stale-event skips depend on which lanes share the
    /// calendar, so shards and LLM runs do not record them.
    engine_metrics: bool,
}

impl<L: ServeLane> Engine<L> {
    /// The time-zero engine over `lanes`, every lane dirty.
    pub(crate) fn new(
        knobs: L::Knobs,
        horizon: f64,
        lanes: Vec<L>,
        accel_busy: Vec<(AccelId, f64)>,
    ) -> Self {
        let k = lanes.len();
        let mark = Mark {
            seq: 0,
            armed: false,
            dirty: true,
        };
        Self {
            env: Env {
                knobs,
                horizon,
                recorder: Recorder::disabled(),
                accel_busy,
                down: Vec::new(),
                label: String::new(),
            },
            lanes,
            marks: vec![mark; k],
            events: CalendarQueue::new(),
            dirty: (0..k as u32).collect(),
            clock: 0.0,
            engine_metrics: false,
        }
    }

    /// Installs `recorder` (naming the lanes' tracks when it is enabled);
    /// `engine_metrics` adds calendar occupancy and stale-skip counts.
    pub(crate) fn attach(&mut self, recorder: Recorder, engine_metrics: bool) {
        if recorder.is_enabled() {
            self.lanes.iter_mut().for_each(L::name_tracks);
        }
        self.env.recorder = recorder;
        self.engine_metrics = engine_metrics;
    }

    /// Whether an event at `t` falls inside a segment ending at `bound`.
    fn due(t: f64, bound: f64) -> bool {
        t < bound || (L::AT_BOUND && t == bound)
    }

    /// Advances every lane to `min(t, horizon)`: mutated lanes first, then
    /// every lane whose event is due.  A lane whose event is not due
    /// provably does nothing in this segment.
    pub(crate) fn run_until(&mut self, t: f64) {
        let bound = t.min(self.env.horizon).max(self.clock);
        for w in std::mem::take(&mut self.dirty) {
            let mark = &mut self.marks[w as usize];
            if mark.dirty {
                mark.dirty = false;
                self.advance_lane(w as usize, bound);
            }
        }
        while let Some(ev) = self.pop_due(bound) {
            self.advance_lane(ev.lane as usize, bound);
        }
        self.clock = bound;
        if self.engine_metrics && self.env.recorder.is_enabled() {
            self.env.recorder.point(
                "serve/calendar_occupancy",
                self.clock,
                self.events.len() as f64,
            );
        }
    }

    /// Advances lane `w` to `bound`, then arms it at its next action if
    /// that lies inside the horizon.
    fn advance_lane(&mut self, w: usize, bound: f64) {
        if let Some(t) = self.lanes[w].advance(&mut self.env, bound) {
            if Self::due(t, self.env.horizon) {
                self.arm(w, t);
            }
        }
    }

    /// Queues lane `w`'s live event at `t`.
    pub(crate) fn arm(&mut self, w: usize, t: f64) {
        let mark = &mut self.marks[w];
        mark.armed = true;
        self.events.insert(t, w as u32, mark.seq);
    }

    /// Pops the earliest live event due by `bound` and disarms its lane,
    /// discarding stale events on the way.
    pub(crate) fn pop_due(&mut self, bound: f64) -> Option<Event> {
        while let Some(ev) = self.events.peek_min() {
            if !Self::due(ev.time, bound) {
                break;
            }
            self.events.pop_min();
            let mark = &mut self.marks[ev.lane as usize];
            if ev.seq == mark.seq {
                mark.armed = false;
                return Some(ev);
            }
            if self.engine_metrics {
                self.env.recorder.counter("serve/stale_skips", 1);
            }
        }
        None
    }

    /// Marks lane `w` mutated: its queued event (if any) is staled and the
    /// lane joins the dirty set the next advance processes first.
    pub(crate) fn mark_dirty(&mut self, w: usize) {
        let mark = &mut self.marks[w];
        if mark.armed {
            mark.seq = mark.seq.wrapping_add(1);
            mark.armed = false;
        }
        if !mark.dirty {
            mark.dirty = true;
            self.dirty.push(w as u32);
        }
    }

    /// The report for the state as it stands.
    pub(crate) fn report(&self) -> L::Report {
        L::report(self.env.knobs, self.env.horizon, self.lanes())
    }

    /// Runs to the horizon and returns the final report.
    pub(crate) fn finish(self) -> L::Report {
        let (knobs, horizon) = (self.env.knobs, self.env.horizon);
        L::report(knobs, horizon, self.finish_lanes())
    }

    /// Runs to the horizon, records the per-accelerator busy totals as
    /// gauges (disjoint across shards, so shard-count invariant), and hands
    /// back the finished lanes.
    pub(crate) fn finish_lanes(mut self) -> Lanes<L::Stats> {
        self.run_until(self.env.horizon);
        let lanes = self.lanes();
        if self.env.recorder.is_enabled() {
            for &(a, busy) in &lanes.accel_busy {
                self.env
                    .recorder
                    .gauge_max(&format!("serve/accel_busy_seconds/a{}", a.0), busy);
            }
        }
        lanes
    }

    /// The lanes as they stand, in lane order, after recording their
    /// gauges.
    fn lanes(&self) -> Lanes<L::Stats> {
        if self.env.recorder.is_enabled() {
            for lane in &self.lanes {
                lane.record_gauges(&self.env.recorder);
            }
        }
        let samples: Vec<&[f64]> = self.lanes.iter().map(L::latencies).collect();
        Lanes {
            stats: self.lanes.iter().map(L::stats).collect(),
            latencies: samples.concat(),
            accel_busy: self.env.accel_busy.clone(),
        }
    }
}

/// Checks every arrival stream in one pass: sorted, finite and inside
/// `[0, horizon)` — the [`Trace`](crate::Trace) invariant the lanes'
/// lookahead relies on.  `item` reads an element's arrival, or rejects the
/// element first (with `w`, its stream index).
pub(crate) fn check_streams<T>(
    horizon: f64,
    streams: &[Vec<T>],
    item: impl Fn(usize, &T) -> Result<f64, ServeError>,
) -> Result<(), ServeError> {
    for (w, stream) in streams.iter().enumerate() {
        let mut prev = 0.0;
        for x in stream {
            let t = item(w, x)?;
            // NaN fails `prev <= t`; the first arrival checks `t >= 0`.
            if !(prev <= t && t < horizon) {
                return Err(ServeError::InvalidTrace { workload: w });
            }
            prev = t;
        }
    }
    Ok(())
}

/// The finished lanes of an engine (or of merged shards), in lane order:
/// what a report is assembled from.
pub(crate) struct Lanes<S> {
    /// Per-lane statistics.
    pub(crate) stats: Vec<S>,
    /// Every lane's completion latencies in seconds, concatenated: the
    /// samples behind the aggregate percentiles.
    pub(crate) latencies: Vec<f64>,
    /// Busy seconds per accelerator, sorted by id (empty for LLM lanes).
    pub(crate) accel_busy: Vec<(AccelId, f64)>,
}

/// Runs lanes `0..lanes` as contiguous shards of `ceil(lanes / workers)`
/// lanes on the `MARS_THREADS` pool (one shard, inline, at one thread) and
/// assembles the report of the lanes merged in lane order.
///
/// `shard` builds the engine of one lane range from input the caller has
/// validated whole, attaches the given local recorder (without engine
/// metrics) and drives the engine as far as it needs to; the runner runs it
/// to the horizon.  Each local store is absorbed into `recorder` in lane
/// order.  Zero lanes still make one (empty) shard.
pub(crate) fn run_lanes<L: ServeLane>(
    lanes: usize,
    recorder: &Recorder,
    (knobs, horizon): (L::Knobs, f64),
    shard: impl Fn(Range<usize>, Recorder) -> Engine<L> + Sync,
) -> L::Report {
    let threads = threads_from_env();
    let workers = resolve_threads(threads).min(lanes.max(1));
    let size = lanes.div_ceil(workers).max(1);
    let shards: Vec<Range<usize>> = (0..lanes.max(1))
        .step_by(size)
        .map(|lo| lo..(lo + size).min(lanes))
        .collect();
    let outputs = scoped_map(threads, &shards, |_, range| {
        let local = recorder.local();
        let out = shard(range.clone(), local.clone()).finish_lanes();
        (out, local.take())
    });

    let mut merged = Lanes {
        stats: Vec::with_capacity(lanes),
        latencies: Vec::with_capacity(outputs.iter().map(|(o, _)| o.latencies.len()).sum()),
        accel_busy: Vec::new(),
    };
    for (out, obs) in outputs {
        merged.stats.extend(out.stats);
        merged.latencies.extend(out.latencies);
        // Partitions are disjoint, so each accelerator's busy total comes
        // whole from exactly one shard.
        merged.accel_busy.extend(out.accel_busy);
        recorder.absorb(&obs);
    }
    merged.accel_busy.sort_by_key(|&(a, _)| a);
    L::report(knobs, horizon, merged)
}
