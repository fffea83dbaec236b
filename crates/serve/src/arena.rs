//! Struct-of-arrays request bookkeeping for one serving lane.
//!
//! The legacy lane kept a `VecDeque<usize>` of queued request ids and
//! allocated a fresh `Vec<usize>` of members for every dispatched batch —
//! one heap allocation per batch, millions of them at fleet scale.  The
//! arena representation exploits an invariant of the simulator's dynamics to
//! delete both structures:
//!
//! **Queue contiguity.** Requests enter the queue in arrival (id) order,
//! batches always pop a *prefix* of the queue, and a revoked batch is
//! requeued at the *front* in its original order.  The waiting queue is
//! therefore always the contiguous id range `[queue_head, enqueued)`, and
//! the in-flight batch always the range `[inflight_start, inflight_start +
//! inflight_len)` — both representable as plain integers.
//!
//! A [`RequestArena`] holds the per-request state as parallel arrays
//! (arrivals, assigned deadlines, completion latencies) plus those integer
//! spans.  Enqueue, batch take, requeue and revoke are all O(1) in
//! allocations; the only growth is the `deadlines`/`latencies` arrays, which
//! are reserved up front to the request count.  The arrival stream itself is
//! the [`Trace`](crate::Trace)'s `Arc`, so neither building a lane nor
//! checkpointing one (cloning the engine state) copies it.
//!
//! A lane's snapshot shows the spans at work: failing the accelerator of a
//! busy lane returns its in-flight batch to the queue.
//!
//! ```
//! use mars_model::TrafficProfile;
//! use mars_serve::testing::synthetic_co;
//! use mars_serve::{FaultPolicy, ServeConfig, SimState, Trace};
//! use mars_topology::AccelId;
//!
//! let co = synthetic_co(&[20e-3], &[1.0]);
//! let profiles = [TrafficProfile::new(200.0, 5.0)];
//! let trace = Trace::poisson(&profiles, 1.0, 7).unwrap();
//! let mut sim = SimState::new(&co, &profiles, &trace, &ServeConfig::default()).unwrap();
//!
//! sim.run_until(0.5);
//! let queued = sim.snapshot().lanes[0].queued;
//! let revoked = sim.fail_accel(AccelId(0), FaultPolicy::RequeueInflight);
//! assert!(revoked > 0);
//! assert_eq!(sim.snapshot().lanes[0].queued, queued + revoked);
//! ```

use std::sync::Arc;

/// Struct-of-arrays request state for one lane (see the module docs for the
/// contiguity invariant that makes the integer spans sound).
#[derive(Debug, Clone)]
pub(crate) struct RequestArena {
    /// The immutable arrival stream shared with the `Trace` (sorted; the
    /// `Trace` invariant).
    arrivals: Arc<Vec<f64>>,
    /// `deadlines[i]` for every enqueued request `i < enqueued`, assigned at
    /// enqueue time with the lane's SLA budget *then* in force.
    deadlines: Vec<f64>,
    /// Completion latency samples, in completion order (revocation truncates
    /// from the tail, matching dispatch-time accounting).
    latencies: Vec<f64>,
    /// First request id still waiting (queue = `[queue_head, enqueued)`).
    queue_head: usize,
    /// First request id not yet pulled from the arrival stream.
    enqueued: usize,
    /// First id of the most recent dispatch's batch.
    inflight_start: usize,
    /// Size of the most recent dispatch's batch (`0` once revoked).
    inflight_len: usize,
}

impl RequestArena {
    /// An empty arena over the given arrival stream.
    pub(crate) fn new(arrivals: Arc<Vec<f64>>) -> Self {
        let n = arrivals.len();
        Self {
            arrivals,
            deadlines: Vec::with_capacity(n),
            latencies: Vec::with_capacity(n),
            queue_head: 0,
            enqueued: 0,
            inflight_start: 0,
            inflight_len: 0,
        }
    }

    /// Total requests in the arrival stream.
    pub(crate) fn total_requests(&self) -> usize {
        self.arrivals.len()
    }

    /// Arrival instant of request `i`.
    pub(crate) fn arrival(&self, i: usize) -> f64 {
        self.arrivals[i]
    }

    /// The arrival instant of the next *un-enqueued* request, if any.
    pub(crate) fn next_arrival(&self) -> Option<f64> {
        self.arrivals.get(self.enqueued).copied()
    }

    /// The arrival instant of un-enqueued request `enqueued + offset`
    /// (saturating), used by the batch-fill prediction.
    pub(crate) fn lookahead_arrival(&self, offset: usize) -> Option<f64> {
        self.arrivals
            .get(self.enqueued.saturating_add(offset))
            .copied()
    }

    /// Requests pulled from the stream so far (the snapshot `enqueued`
    /// figure).
    pub(crate) fn enqueued(&self) -> usize {
        self.enqueued
    }

    /// Assigned deadline of enqueued request `i`.
    pub(crate) fn deadline(&self, i: usize) -> f64 {
        self.deadlines[i]
    }

    /// Number of requests waiting in the queue.
    pub(crate) fn queue_len(&self) -> usize {
        self.enqueued - self.queue_head
    }

    /// Id of the oldest waiting request (`None` on an empty queue).
    pub(crate) fn head(&self) -> Option<usize> {
        (self.queue_head < self.enqueued).then_some(self.queue_head)
    }

    /// Id of the `k`-th waiting request (0 = head); `k` must be inside the
    /// queue.
    pub(crate) fn queued(&self, k: usize) -> usize {
        debug_assert!(k < self.queue_len());
        self.queue_head + k
    }

    /// Pulls the next arrival into the queue, assigning its deadline as
    /// `arrival + sla_seconds` (the budget in force *now* — re-placements
    /// change budgets for future pulls only).
    pub(crate) fn enqueue_next(&mut self, sla_seconds: f64) {
        self.deadlines
            .push(self.arrivals[self.enqueued] + sla_seconds);
        self.enqueued += 1;
    }

    /// Pops the batch for a dispatch launching at `start`: the longest queue
    /// prefix (capped at `max_batch`) whose members arrived by `start`.
    /// Returns the batch size; the popped span is readable as
    /// [`inflight_start`](Self::inflight_start) /
    /// [`inflight_len`](Self::inflight_len) until the next take or revoke.
    pub(crate) fn take_batch(&mut self, start: f64, max_batch: usize) -> usize {
        let first = self.queue_head;
        let mut len = 0usize;
        while len < max_batch
            && self.queue_head < self.enqueued
            && self.arrivals[self.queue_head] <= start
        {
            self.queue_head += 1;
            len += 1;
        }
        self.inflight_start = first;
        self.inflight_len = len;
        len
    }

    /// First id of the most recent batch.
    pub(crate) fn inflight_start(&self) -> usize {
        self.inflight_start
    }

    /// Size of the most recent batch (`0` after a revoke).
    pub(crate) fn inflight_len(&self) -> usize {
        self.inflight_len
    }

    /// Returns the most recent batch to the *front* of the queue in its
    /// original order (the `RequeueInflight` fault policy): with contiguous
    /// spans this is a single integer rewind.
    pub(crate) fn requeue_inflight(&mut self) {
        debug_assert_eq!(self.inflight_start + self.inflight_len, self.queue_head);
        self.queue_head = self.inflight_start;
        self.inflight_len = 0;
    }

    /// Discards the most recent batch (the `LoseInflight` fault policy): its
    /// requests leave the system without completing.
    pub(crate) fn drop_inflight(&mut self) {
        self.inflight_len = 0;
    }

    /// Records a completion latency sample.
    pub(crate) fn push_latency(&mut self, seconds: f64) {
        self.latencies.push(seconds);
    }

    /// Drops the most recent `n` latency samples (revoking a dispatch that
    /// had already been counted as completed).
    pub(crate) fn truncate_latencies(&mut self, n: usize) {
        self.latencies.truncate(self.latencies.len() - n);
    }

    /// Moves the completion latency samples out, leaving none.
    pub(crate) fn take_latencies(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.latencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(arrivals: &[f64]) -> RequestArena {
        RequestArena::new(arrivals.to_vec().into())
    }

    #[test]
    fn queue_is_the_contiguous_span_between_head_and_enqueued() {
        let mut a = arena(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(a.queue_len(), 0);
        assert_eq!(a.head(), None);
        a.enqueue_next(0.5);
        a.enqueue_next(0.5);
        a.enqueue_next(0.5);
        assert_eq!(a.queue_len(), 3);
        assert_eq!((a.queued(0), a.queued(2)), (0, 2));
        assert_eq!(a.deadline(1), 1.5);
        assert_eq!(a.next_arrival(), Some(3.0));
        assert_eq!(a.lookahead_arrival(usize::MAX), None);
    }

    #[test]
    fn take_batch_pops_only_arrived_prefix_up_to_cap() {
        let mut a = arena(&[0.0, 0.1, 0.2, 5.0]);
        for _ in 0..4 {
            a.enqueue_next(1.0);
        }
        // Cap of 2 takes requests 0..2; request 2 arrived but stays queued.
        assert_eq!(a.take_batch(0.3, 2), 2);
        assert_eq!(a.head(), Some(2));
        // Request 3 has not arrived by t=0.3: only request 2 is taken.
        assert_eq!(a.take_batch(0.3, 8), 1);
        assert_eq!((a.inflight_start(), a.inflight_len()), (2, 1));
        assert_eq!(a.head(), Some(3));
    }

    #[test]
    fn requeue_restores_and_drop_discards() {
        let mut a = arena(&[0.0, 0.1, 0.2]);
        for _ in 0..3 {
            a.enqueue_next(1.0);
        }
        a.take_batch(0.5, 2);
        a.requeue_inflight();
        assert_eq!((a.head(), a.queue_len()), (Some(0), 3));
        a.take_batch(0.5, 2);
        a.drop_inflight();
        assert_eq!((a.head(), a.queue_len()), (Some(2), 1));
        assert_eq!(a.inflight_len(), 0);
    }

    #[test]
    fn latency_samples_truncate_from_the_tail() {
        let mut a = arena(&[0.0]);
        a.push_latency(0.1);
        a.push_latency(0.2);
        a.push_latency(0.3);
        a.truncate_latencies(2);
        assert_eq!(a.take_latencies(), [0.1]);
    }
}
