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
    /// lock is only held around one `Obs` update, a map insert, push or
    /// counter increment that leaves the store valid plain data even if it
    /// panics.
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
