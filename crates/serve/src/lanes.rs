//! The serving event engine shared by CNN and LLM lanes, and the lane-shard
//! runner behind every whole-run replay.
//!
//! A lane ([`ServeLane`]: a CNN batching lane or an LLM iteration lane)
//! answers when it next acts and advances itself to a bound.  [`Engine`]
//! keeps one wake event per lane in a [`CalendarQueue`] and advances only
//! the lanes whose event is due, each in one burst up to the bound.
//!
//! Lanes own disjoint accelerators and never interact, so a replay splits
//! exactly by lane into contiguous [`Shards`] of about equal request counts
//! on the `mars-parallel` pool,
//! and each request's data stays inside its shard: a shard checks its
//! lanes' request streams, runs them as an independent engine and hands
//! over their latency buffers (moved, not copied) with [`SampleCounts`].
//! Shards merge *in lane order*: per-lane figures come from the same float
//! operations as a single-engine run and the aggregate percentiles select
//! the same samples as on one buffer of every sample, so the report is
//! **bit-identical** to one engine's at every `MARS_THREADS` setting
//! (`tests/fleet_sim_equivalence.rs` pins it).  Everything a lane records
//! is keyed by its name and the exporters put records in canonical order,
//! so the merged record is shard-count invariant too.  A lane buffers what
//! it records during a burst in the engine's [`Burst`] and hands it over in
//! bulk when the burst ends, before any other lane advances, so records
//! land in the order per-record calls would give them.

use crate::calendar::{CalendarQueue, Event};
use crate::sim::{percentile_triple_ms, SampleCounts, ServeError};
use mars_obs::Recorder;
use mars_parallel::{resolve_threads, scoped_map};
use mars_topology::AccelId;
use std::fmt::Debug;
use std::ops::Range;

/// One workload's server, as the [`Engine`] drives it.
pub(crate) trait ServeLane: Clone {
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
    /// Hands what the lane buffered in `env.burst` over to the recorder in
    /// bulk, leaving the buffer empty.  The engine calls it when the burst
    /// that filled the buffer ends, before any other lane advances.
    fn flush(&self, env: &mut Env<Self::Knobs>);
    /// The lane's figures, given the (p50, p95, p99) of its latencies in
    /// milliseconds.
    fn stats(&self, percentiles: (f64, f64, f64)) -> Self::Stats;
    /// Moves the lane's completion latencies (seconds) out, leaving none.
    fn take_latencies(&mut self) -> Vec<f64>;
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
    /// What the advancing lane recorded so far in its burst; always empty
    /// when the recorder is disabled, and between bursts.
    pub(crate) burst: Burst,
}

/// A lane's records of one burst, buffered so that the burst takes the
/// recorder's lock once per record kind ([`ServeLane::flush`]).  The
/// buffers are reused, so recording allocates only while they grow.
#[derive(Debug, Clone, Default)]
pub(crate) struct Burst {
    /// Spans on the lane's track: `(name, start, end)`.
    pub(crate) spans: Vec<(&'static str, f64, f64)>,
    /// One pair per record of the lane's other kinds: `(batch size, queue
    /// depth)` per CNN batch, `(instant, KV bytes reserved)` per LLM wake.
    pub(crate) samples: Vec<(f64, f64)>,
}

impl Burst {
    /// `true` when nothing is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.samples.is_empty()
    }
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
                burst: Burst::default(),
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

    /// Advances every lane to `t`, clamped to `[clock, horizon]`: mutated
    /// lanes first, then every lane whose event is due.  A lane whose event
    /// is not due provably does nothing in this segment.  A NaN `t` is a
    /// no-op: `f64::max` ignores it, so the bound stays at the clock.
    pub(crate) fn run_until(&mut self, t: f64) {
        let bound = t.max(self.clock).min(self.env.horizon);
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
        debug_assert!(self.env.burst.is_empty(), "every burst is flushed");
        self.clock = bound;
        if self.engine_metrics && self.env.recorder.is_enabled() {
            self.env.recorder.point(
                "serve/calendar_occupancy",
                self.clock,
                self.events.len() as f64,
            );
        }
    }

    /// Advances lane `w` to `bound` and flushes what it recorded, then arms
    /// it at its next action if that lies inside the horizon.
    fn advance_lane(&mut self, w: usize, bound: f64) {
        let next = self.lanes[w].advance(&mut self.env, bound);
        if !self.env.burst.is_empty() {
            self.lanes[w].flush(&mut self.env);
        }
        if let Some(t) = next {
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

    /// The report for the state as it stands, from a copy of the lanes.
    pub(crate) fn report(&self) -> L::Report {
        let finished = finished(&mut self.lanes.clone(), &self.env);
        L::report(self.env.knobs, self.env.horizon, merge(1, vec![finished]))
    }

    /// Runs to the horizon and returns the final report.
    pub(crate) fn finish(self) -> L::Report {
        let (knobs, horizon) = (self.env.knobs, self.env.horizon);
        L::report(knobs, horizon, merge(1, vec![self.finish_lanes()]))
    }

    /// Runs to the horizon, records the per-accelerator busy totals as
    /// gauges (disjoint across shards, so shard-count invariant), and hands
    /// back the finished lanes with their latency buffers moved out.
    pub(crate) fn finish_lanes(mut self) -> Finished<L::Stats> {
        self.run_until(self.env.horizon);
        let finished = finished(&mut self.lanes, &self.env);
        if self.env.recorder.is_enabled() {
            for &(a, busy) in &finished.accel_busy {
                self.env
                    .recorder
                    .gauge_max(&format!("serve/accel_busy_seconds/a{}", a.0), busy);
            }
        }
        finished
    }
}

/// `lanes` as they stand, in lane order, after recording their gauges, with
/// their latencies moved out; each lane's percentiles select in place on
/// its own buffer.
fn finished<L: ServeLane>(lanes: &mut [L], env: &Env<L::Knobs>) -> Finished<L::Stats> {
    let mut finished = Finished {
        stats: Vec::with_capacity(lanes.len()),
        buffers: Vec::with_capacity(lanes.len()),
        counts: SampleCounts::default(),
        accel_busy: env.accel_busy.clone(),
    };
    for lane in lanes {
        if env.recorder.is_enabled() {
            lane.record_gauges(&env.recorder);
        }
        let mut buffer = lane.take_latencies();
        finished.counts.add(&buffer);
        finished
            .stats
            .push(lane.stats(percentile_triple_ms(&mut buffer)));
        finished.buffers.push(buffer);
    }
    finished
}

/// Checks request streams in one pass each: sorted, finite and inside
/// `[0, horizon)` — the [`Trace`](crate::Trace) invariant the lanes'
/// lookahead relies on.  `streams` yields each stream with its lane index
/// `w`, in lane order, and the first failing lane wins.  `item` reads an
/// element's arrival, or rejects the element first.
pub(crate) fn check_streams<'a, T: 'a>(
    horizon: f64,
    streams: impl IntoIterator<Item = (usize, &'a [T])>,
    item: impl Fn(usize, &T) -> Result<f64, ServeError>,
) -> Result<(), ServeError> {
    for (w, stream) in streams {
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

/// One engine's finished lanes, in lane order: what a shard returns, each
/// lane's latency buffer (seconds) handed over whole with their counts.
pub(crate) struct Finished<S> {
    stats: Vec<S>,
    buffers: Vec<Vec<f64>>,
    counts: SampleCounts,
    accel_busy: Vec<(AccelId, f64)>,
}

/// The finished lanes of an engine (or of merged shards), in lane order:
/// what a report is assembled from.
pub(crate) struct Lanes<S> {
    /// Per-lane statistics.
    pub(crate) stats: Vec<S>,
    /// The (p50, p95, p99) of every lane's completion latencies together,
    /// milliseconds.
    pub(crate) percentiles: (f64, f64, f64),
    /// Busy seconds per accelerator, sorted by id (empty for LLM lanes).
    pub(crate) accel_busy: Vec<(AccelId, f64)>,
}

/// Merges finished shards in lane order.  The aggregate percentiles come
/// from the summed counts and the shards' buffers, gathered on the pool: no
/// serial pass over every sample.
fn merge<S>(threads: usize, shards: Vec<Finished<S>>) -> Lanes<S> {
    let mut counts = SampleCounts::default();
    for shard in &shards {
        counts.merge(&shard.counts);
    }
    let buffers: Vec<&[Vec<f64>]> = shards.iter().map(|s| &s.buffers[..]).collect();
    let percentiles = counts.percentile_triple_ms(threads, &buffers);
    let mut lanes = Lanes {
        stats: Vec::new(),
        percentiles,
        accel_busy: Vec::new(),
    };
    for shard in shards {
        lanes.stats.extend(shard.stats);
        // Partitions are disjoint, so each accelerator's busy total comes
        // whole from exactly one shard.
        lanes.accel_busy.extend(shard.accel_busy);
    }
    lanes.accel_busy.sort_by_key(|&(a, _)| a);
    lanes
}

/// The lane-shard runner: lanes `0..lanes` as contiguous shards of about
/// equal request counts on the `MARS_THREADS` pool (one shard, inline, at
/// one thread).  Zero lanes still make one (empty) shard.
pub(crate) struct Shards {
    threads: usize,
    ranges: Vec<Range<usize>>,
}

/// Cuts lanes with `requests[w]` requests each into at most `workers`
/// contiguous, non-empty ranges covering every lane: range `k` ends at the
/// first lane where the running count reaches `(k + 1) / workers` of the
/// total.  Each lane counts as its requests plus one, so empty lanes still
/// spread, and no range counts more than `total / workers` plus its largest
/// lane.  Zero lanes make the one range `0..0`.
fn cut(workers: usize, requests: &[usize]) -> Vec<Range<usize>> {
    let weight = |r: usize| r as u128 + 1;
    let workers = workers.max(1) as u128;
    let total: u128 = requests.iter().map(|&r| weight(r)).sum();
    let mut ranges = Vec::new();
    let (mut lo, mut running, mut k) = (0, 0, 1);
    for (w, &r) in requests.iter().enumerate() {
        running += weight(r);
        if running * workers >= k * total {
            ranges.push(lo..w + 1);
            lo = w + 1;
            // A lane that crosses several cuts ends one range, not several.
            while running * workers >= k * total {
                k += 1;
            }
        }
    }
    if ranges.is_empty() {
        ranges.push(0..0);
    }
    ranges
}

impl Shards {
    /// The shards of lanes holding `requests[w]` requests each for `threads`
    /// workers, once `check` passes on every shard's lane range, run on the
    /// pool before any shard simulates.  The first error in lane order is
    /// returned: with `check` failing on its lowest failing lane, the lowest
    /// of all wins.
    pub(crate) fn checked(
        threads: usize,
        requests: &[usize],
        check: impl Fn(Range<usize>) -> Result<(), ServeError> + Sync,
    ) -> Result<Self, ServeError> {
        let ranges = cut(resolve_threads(threads), requests);
        scoped_map(threads, &ranges, |_, range| check(range.clone()))
            .into_iter()
            .collect::<Result<(), _>>()?;
        Ok(Self { threads, ranges })
    }

    /// Runs every shard and assembles the report of the merged lanes.
    /// `shard` builds the engine of one lane range from checked input,
    /// attaches the given local recorder (without engine metrics) and
    /// drives the engine as far as it needs to; the runner runs it to the
    /// horizon and absorbs the local stores into `recorder` in lane order.
    pub(crate) fn run<L: ServeLane>(
        &self,
        recorder: &Recorder,
        (knobs, horizon): (L::Knobs, f64),
        shard: impl Fn(Range<usize>, Recorder) -> Engine<L> + Sync,
    ) -> L::Report {
        let outputs = scoped_map(self.threads, &self.ranges, |_, range| {
            let local = recorder.local();
            let out = shard(range.clone(), local.clone()).finish_lanes();
            (out, local.take())
        });
        let mut shards = Vec::with_capacity(outputs.len());
        for (out, obs) in outputs {
            shards.push(out);
            recorder.absorb(&obs);
        }
        L::report(knobs, horizon, merge(self.threads, shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Mutex;

    /// The shards of `requests` for `workers` workers, with the ranges the
    /// stream check ran on.
    fn shards(workers: usize, requests: &[usize]) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
        let checked = Mutex::new(Vec::new());
        let shards = Shards::checked(workers, requests, |range| {
            checked.lock().unwrap().push(range);
            Ok(())
        })
        .unwrap();
        let mut checked = checked.into_inner().unwrap();
        checked.sort_by_key(|r| r.start);
        (shards.ranges, checked)
    }

    /// The request-count cut, over generated counts: contiguous non-empty
    /// ranges covering every lane, at most one per worker, none counting
    /// more than `total / workers` plus its largest lane (each lane counting
    /// its requests plus one), and the stream checks run on the same ranges.
    #[test]
    fn request_count_cut_balances_contiguous_ranges() {
        let mut rng = StdRng::seed_from_u64(35);
        let mut cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![0; 7],
            vec![5, 0, 0],
            vec![0, 0, 1_000_000, 0, 0, 0],
            vec![80_424, 46_659],
            (0..144).map(|w| if w < 72 { 1_117 } else { 648 }).collect(),
        ];
        for _ in 0..200 {
            let lanes = rng.gen_range(0..40usize);
            let max = [1, 10, 100_000][rng.gen_range(0..3usize)];
            let mut counts: Vec<usize> = (0..lanes).map(|_| rng.gen_range(0..max)).collect();
            if lanes > 0 && rng.gen_bool(0.2) {
                // One lane holds every request.
                let hot = rng.gen_range(0..lanes);
                counts.iter_mut().enumerate().for_each(|(w, c)| {
                    *c = if w == hot { max * lanes } else { 0 };
                });
            }
            cases.push(counts);
        }
        for requests in &cases {
            let lanes = requests.len();
            let weight = |w: usize| requests[w] as u128 + 1;
            let total: u128 = (0..lanes).map(weight).sum();
            for workers in [1, 2, 3, 4, 7, 64] {
                let (ranges, checked) = shards(workers, requests);
                let what = format!("{workers} workers over {requests:?}");
                assert_eq!(checked, ranges, "{what}: checks ran on other ranges");
                if lanes == 0 {
                    assert_eq!(ranges, vec![0..0], "{what}");
                    continue;
                }
                if workers == 1 {
                    assert_eq!(ranges, vec![0..lanes], "{what}");
                }
                assert!(ranges.len() <= workers.min(lanes), "{what}: {ranges:?}");
                assert_eq!(ranges[0].start, 0, "{what}");
                assert_eq!(ranges.last().unwrap().end, lanes, "{what}");
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "{what}: {ranges:?}");
                }
                for range in &ranges {
                    assert!(!range.is_empty(), "{what}: {ranges:?}");
                    let held: u128 = range.clone().map(weight).sum();
                    let largest = range.clone().map(weight).max().unwrap();
                    assert!(
                        held * workers as u128 <= total + largest * workers as u128,
                        "{what}: {range:?} holds {held} of {total}"
                    );
                }
            }
        }
    }
}
