//! The [`Recorder`] handle instrumented code records through.
//!
//! A `Recorder` is either **disabled** (the default — a `None` inside, so
//! every recording method is an inlineable null check that compiles to
//! nothing on the hot paths) or **enabled**, holding a shared deterministic
//! [`Obs`] store.  Cloning an enabled recorder shares the store, which is
//! how one recorder threads through a search, a simulator and a runtime
//! loop and collects everything into one export.
//!
//! ## Determinism contract
//!
//! Instrumented engines must only record quantities derived from simulation
//! clocks and deterministic counters.  Parallel code must not record
//! through a shared enabled recorder from worker threads — instead each
//! shard records into its own local recorder ([`Recorder::local`]) and the
//! owner merges the shards **in item order** after the join
//! ([`Recorder::absorb`]), which is what makes merged stores bit-identical
//! across `MARS_THREADS` values.
//!
//! ## Bulk recording
//!
//! Each per-record method takes the store's lock and looks its key up (a
//! span interns its track and its name).  Code that makes many records of
//! one kind in a burst can buffer them and hand them over at once:
//! [`Recorder::observe_all`], [`Recorder::point_all`] and
//! [`Recorder::span_all`] take the lock once and look the key up once, and
//! `span_all` interns its track once and each distinct name once per call.
//! The store ends up exactly as the per-record calls in the same order
//! would leave it, ids and first-seen string order included, and an empty
//! input records nothing and creates no key.  Hand a buffer over before
//! anything else records through the same recorder, so records of one
//! kind keep their order.  The serving engine's lanes buffer each burst
//! and flush it when the burst ends; one-off records (fault instants,
//! search series, runtime events) use the per-record methods.
//!
//! ```
//! use mars_obs::Recorder;
//!
//! let (bulk, single) = (Recorder::enabled(), Recorder::enabled());
//! let batches = [(0.0, 0.4, 4.0), (0.5, 0.7, 2.0)];
//! bulk.observe_all("batch_size", batches.iter().map(|b| b.2));
//! bulk.span_all("lane/0", batches.iter().map(|b| ("batch", b.0, b.1)));
//! for (start, end, size) in batches {
//!     single.observe("batch_size", size);
//!     single.span("lane/0", "batch", start, end);
//! }
//! assert_eq!(bulk.snapshot(), single.snapshot());
//! ```

use crate::store::Obs;
use std::sync::{Arc, Mutex, PoisonError};

/// A cheap, cloneable observability handle — see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<Obs>>>,
}

impl Recorder {
    /// An enabled recorder with an empty store.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Obs::new()))),
        }
    }

    /// The disabled recorder (same as [`Recorder::default`]): every
    /// recording method is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A fresh recorder with the same enabled-ness but its **own** store —
    /// what a parallel shard records into before the owner
    /// [`absorb`](Recorder::absorb)s it in item order.
    pub fn local(&self) -> Self {
        if self.inner.is_some() {
            Self::enabled()
        } else {
            Self::disabled()
        }
    }

    /// `true` when recording actually lands anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` on the store when enabled (`None` when disabled — a null
    /// check).  A poisoned store is recovered rather than propagated: the
    /// lock is only held around one `Obs` update (map inserts, pushes and
    /// counter increments, one or one bulk call's worth) that leaves the
    /// store valid plain data even if it panics.
    #[inline]
    fn with_store<R>(&self, f: impl FnOnce(&mut Obs) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|inner| f(&mut inner.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Adds `delta` to counter `name`.
    #[inline]
    pub fn counter(&self, name: &str, delta: u64) {
        self.with_store(|obs| obs.counter(name, delta));
    }

    /// Raises peak gauge `name` to at least `value`.
    #[inline]
    pub fn gauge_max(&self, name: &str, value: f64) {
        self.with_store(|obs| obs.gauge_max(name, value));
    }

    /// Records `value` into histogram `name`.
    #[inline]
    pub fn observe(&self, name: &str, value: f64) {
        self.with_store(|obs| obs.observe(name, value));
    }

    /// Appends a `(t, value)` sample to series `name`.
    #[inline]
    pub fn point(&self, name: &str, t: f64, value: f64) {
        self.with_store(|obs| obs.point(name, t, value));
    }

    /// Appends a span on `track` from `start` to `end` sim seconds.
    #[inline]
    pub fn span(&self, track: &str, name: &str, start: f64, end: f64) {
        self.with_store(|obs| obs.span(track, name, start, end));
    }

    /// Records each of `values`, in order, into histogram `name`: one lock
    /// and one key lookup for all of them.  No values record nothing.
    #[inline]
    pub fn observe_all(&self, name: &str, values: impl IntoIterator<Item = f64>) {
        self.with_store(|obs| obs.observe_all(name, values));
    }

    /// Appends each `(t, value)` of `points`, in order, to series `name`:
    /// one lock and one key lookup for all of them.  No points record
    /// nothing.
    #[inline]
    pub fn point_all(&self, name: &str, points: impl IntoIterator<Item = (f64, f64)>) {
        self.with_store(|obs| obs.point_all(name, points));
    }

    /// Appends each `(name, start, end)` of `spans`, in order, on `track`:
    /// one lock, the track interned once and each distinct name once per
    /// call.  No spans record nothing.
    #[inline]
    pub fn span_all<'a>(&self, track: &str, spans: impl IntoIterator<Item = (&'a str, f64, f64)>) {
        self.with_store(|obs| obs.span_all(track, spans));
    }

    /// Appends an instantaneous marker on `track` at `at` sim seconds.
    #[inline]
    pub fn instant(&self, track: &str, name: &str, at: f64) {
        self.with_store(|obs| obs.instant(track, name, at));
    }

    /// Adds wall-clock seconds in the explicitly nondeterministic profiling
    /// section, which [`Obs::strip_wall`] drops.
    #[inline]
    pub fn wall_seconds(&self, name: &str, seconds: f64) {
        self.with_store(|obs| obs.wall_seconds(name, seconds));
    }

    /// Folds a shard's finished store into this recorder (no-op when
    /// disabled).  Call in item order after a parallel join.
    pub fn absorb(&self, shard: &Obs) {
        self.with_store(|obs| obs.merge(shard));
    }

    /// A snapshot of everything recorded so far (empty when disabled): a
    /// copy of the keyed maps and the string table plus a plain-data copy
    /// of the span and instant records.
    pub fn snapshot(&self) -> Obs {
        self.with_store(|obs| obs.clone()).unwrap_or_default()
    }

    /// Takes the recorded store out, leaving the recorder empty but still
    /// enabled (empty when disabled).
    pub fn take(&self) -> Obs {
        self.with_store(std::mem::take).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::default();
        assert!(!r.is_enabled());
        r.counter("c", 1);
        r.gauge_max("g", 1.0);
        r.observe("h", 1.0);
        r.point("s", 0.0, 1.0);
        r.span("t", "n", 0.0, 1.0);
        r.instant("t", "n", 0.0);
        r.wall_seconds("w", 1.0);
        r.observe_all("h", [1.0]);
        r.point_all("s", [(0.0, 1.0)]);
        r.span_all("t", [("n", 0.0, 1.0)]);
        assert!(r.snapshot().is_empty());
        assert!(!r.local().is_enabled());
    }

    #[test]
    fn clones_share_the_store_and_locals_do_not() {
        let r = Recorder::enabled();
        let shared = r.clone();
        shared.counter("c", 2);
        r.counter("c", 3);
        assert_eq!(r.snapshot().counter_value("c"), 5);

        let local = r.local();
        local.counter("c", 100);
        assert_eq!(r.snapshot().counter_value("c"), 5);
        r.absorb(&local.take());
        assert_eq!(r.snapshot().counter_value("c"), 105);
    }

    /// The bulk calls leave the store exactly as the per-record calls over
    /// the same records do — keys, histogram buckets, series order, span
    /// order, label ids and their first-seen order — with no
    /// canonicalization.
    #[test]
    fn bulk_calls_record_what_per_record_calls_record() {
        // Batches `(start, end, size, depth)` on CNN-like tracks, in bursts:
        // names repeat within a burst, recur across bursts and appear new
        // in a later burst.  Sizes and depths reach every histogram branch.
        let batches: [&[(f64, f64, f64, f64)]; 3] = [
            &[
                (0.0, 0.1, 4.0, 2.0),
                (0.1, 0.2, 4.0, 0.0),
                (0.2, 0.4, 8.0, -1.0),
            ],
            &[(0.4, 0.5, 4.0, f64::NAN), (0.5, 0.6, 1.0, f64::INFINITY)],
            &[(0.6, 0.7, 0.0, f64::NEG_INFINITY), (0.7, 0.9, 8.0, 1e12)],
        ];
        let tracks = ["lane/a", "lane/\"b\"\\\n", "lane/a"];
        // Iterations `(t, kv, phase)` on LLM-like tracks, the phase span from
        // `t` to the next iteration (none after the last of a burst).
        let iterations: [&[(f64, f64, &str)]; 2] = [
            &[
                (0.0, 10.0, "prefill"),
                (0.3, 20.0, "decode"),
                (0.5, 0.0, "decode"),
            ],
            &[(0.9, 5.0, "prefill+decode"), (1.0, 5.0, "prefill")],
        ];
        let name = |size: f64| format!("batch({size})");

        let single = Recorder::enabled();
        let bulk = Recorder::enabled();
        for (burst, track) in batches.iter().zip(tracks) {
            for &(start, end, size, depth) in *burst {
                single.observe("serve/batch_size", size);
                single.observe("serve/queue_depth", depth);
                single.span(track, &name(size), start, end);
            }
            // Names rendered per batch: equal strings at different
            // addresses, matched by content.
            let names: Vec<String> = burst.iter().map(|b| name(b.2)).collect();
            bulk.observe_all("serve/batch_size", burst.iter().map(|b| b.2));
            bulk.observe_all("serve/queue_depth", burst.iter().map(|b| b.3));
            let spans = burst
                .iter()
                .zip(&names)
                .map(|(b, n)| (n.as_str(), b.0, b.1));
            bulk.span_all(track, spans);
        }
        for (i, burst) in iterations.iter().enumerate() {
            let track = format!("llm/m{i}");
            let spans = burst.windows(2).map(|w| (w[0].2, w[0].0, w[1].0));
            for (&(t, kv, _), span) in burst.iter().zip(spans.clone().map(Some).chain([None])) {
                single.point("llm/kv_reserved", t, kv);
                if let Some((phase, start, end)) = span {
                    single.span(&track, phase, start, end);
                }
            }
            bulk.point_all("llm/kv_reserved", burst.iter().map(|&(t, kv, _)| (t, kv)));
            bulk.span_all(&track, spans);
        }
        // Empty bulk calls create no key and intern no label.
        bulk.observe_all("empty/hist", []);
        bulk.point_all("empty/series", []);
        bulk.span_all("empty/track", []);
        // More distinct names in one call than the call's table of seen
        // names holds, each repeated.
        let many: Vec<String> = (0..40).map(|i| format!("n{}", i % 20)).collect();
        for (i, n) in many.iter().enumerate() {
            single.span("many", n, i as f64, i as f64 + 1.0);
        }
        let spans = many.iter().enumerate();
        bulk.span_all(
            "many",
            spans.map(|(i, n)| (n.as_str(), i as f64, i as f64 + 1.0)),
        );

        let (single, bulk) = (single.take(), bulk.take());
        assert_eq!(bulk, single);
        assert_eq!(format!("{bulk:?}"), format!("{single:?}"));
        assert!(!format!("{bulk:?}").contains("empty"));
        assert_eq!(bulk.spans().len(), 7 + 3 + 40);
        let json = crate::metrics_json(&bulk);
        assert!(json.contains("\"serve/queue_depth\": {\"count\": 7,"));
    }

    #[test]
    fn take_drains_but_keeps_recording() {
        let r = Recorder::enabled();
        r.counter("c", 1);
        let first = r.take();
        assert_eq!(first.counter_value("c"), 1);
        assert!(r.snapshot().is_empty());
        r.counter("c", 7);
        assert_eq!(r.snapshot().counter_value("c"), 7);
    }

    #[test]
    fn poisoned_store_is_recovered_not_propagated() {
        let r = Recorder::enabled();
        r.counter("c", 1);
        let store = Arc::clone(r.inner.as_ref().expect("enabled"));
        let died = std::thread::spawn(move || {
            let _held = store.lock().unwrap();
            panic!("recording thread dies holding the store lock");
        })
        .join();
        assert!(died.is_err());
        assert!(r.inner.as_ref().expect("enabled").is_poisoned());
        // Every entry point still records, reads and drains.
        r.counter("c", 2);
        r.point("s", 0.0, 1.0);
        r.absorb(&Obs::new());
        assert_eq!(r.snapshot().counter_value("c"), 3);
        assert_eq!(r.take().counter_value("c"), 3);
        assert!(r.snapshot().is_empty());
    }
}
