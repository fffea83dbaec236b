//! The deterministic observation store: counters, peak gauges, histograms,
//! sim-time series and trace spans, with a shard-grouping-invariant merge.
//!
//! Everything in an [`Obs`] derives from simulation clocks and deterministic
//! counters — never wall time — so two runs of the same deterministic
//! computation produce bit-identical stores, and any shard grouping of the
//! same per-item observations merges to a bit-identical whole:
//!
//! * counters are `u64` sums (associative),
//! * gauges are **peaks** (`f64::max`, commutative for non-NaN values),
//! * histograms are integer buckets ([`Histogram::merge`]),
//! * series points and spans are appended; the exporters and
//!   [`Obs::canonicalize`] order them by a total order over all fields.
//!
//! Metric keys are allocated once, the first time a key is seen.  Span and
//! instant tracks and names live in one interned string table, so [`Span`]
//! and [`Instant`] are `Copy` records (two `u32` ids plus their times):
//! recording one is a table lookup and a push, and snapshots, merges and
//! shard hand-offs copy plain data.  Ids number strings in first-seen order,
//! which differs between stores; [`Obs::merge`] remaps the other store's
//! ids, and [`Obs::canonicalize`] renumbers the table into string order so
//! canonical stores compare with `==`.

use crate::hist::Histogram;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// One span-style trace event on a named track, in simulated seconds.
///
/// A `Copy` record: its track (the Chrome-trace thread it renders on, e.g.
/// `lane/3`) and its name (e.g. `batch(4)` or `reconfigure:queue-growth`)
/// are ids into the string table of the [`Obs`] it was recorded in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub(crate) track: u32,
    pub(crate) name: u32,
    /// Start instant in simulated seconds.
    pub(crate) start: f64,
    /// End instant in simulated seconds (`>= start`).
    pub(crate) end: f64,
}

/// One instantaneous trace event on a named track.
///
/// A `Copy` record, like [`Span`]: its track and its name (e.g.
/// `fault:accel3-down`) are ids into the string table of the [`Obs`] it was
/// recorded in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instant {
    pub(crate) track: u32,
    pub(crate) name: u32,
    /// The instant in simulated seconds.
    pub(crate) at: f64,
}

/// The interned string table of span and instant tracks and names: id `i`
/// is `strings[i]`, and `ids` indexes it.  `Debug` shows only the table, so
/// it prints in a deterministic order.
#[derive(Clone, PartialEq, Default)]
struct Labels {
    strings: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Labels {
    /// The id of `s`, allocating it on first sight.
    fn id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("fewer than 2^32 trace labels");
        self.strings.push(s.to_owned());
        self.ids.insert(s.to_owned(), id);
        id
    }
}

impl fmt::Debug for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.strings).finish()
    }
}

/// Applies `f` to the value under `key`, inserting `default()` first — and
/// allocating the key — only the first time `key` is seen.
fn update<V>(
    map: &mut BTreeMap<String, V>,
    key: &str,
    default: impl FnOnce() -> V,
    f: impl FnOnce(&mut V),
) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => f(map.entry(key.to_owned()).or_insert_with(default)),
    }
}

/// The canonical order of series points: by time, then value.
pub(crate) fn point_order(a: &(f64, f64), b: &(f64, f64)) -> Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.1.total_cmp(&b.1))
}

/// `x`'s bits, mapped so that their unsigned order is [`f64::total_cmp`]'s.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)
}

/// The `f64` whose [`total_order_bits`] are `key`.
fn from_total_order_bits(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key })
}

/// `spans` in canonical order — start, track, end, name — with each label
/// id replaced by `rank[id]`, its position in string order.  The sort runs
/// on packed integer keys (the times' total-order bits and the ranks); a
/// key determines its span, so the spans are rebuilt from the sorted keys.
pub(crate) fn canonical_spans(spans: &[Span], rank: &[u32]) -> Vec<Span> {
    let r = |id: u32| rank[id as usize];
    let mut keys: Vec<_> = spans
        .iter()
        .map(|s| {
            (
                total_order_bits(s.start),
                r(s.track),
                total_order_bits(s.end),
                r(s.name),
            )
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|(start, track, end, name)| Span {
            track,
            name,
            start: from_total_order_bits(start),
            end: from_total_order_bits(end),
        })
        .collect()
}

/// `instants` in canonical order — at, track, name — ranked and keyed as in
/// [`canonical_spans`].
pub(crate) fn canonical_instants(instants: &[Instant], rank: &[u32]) -> Vec<Instant> {
    let r = |id: u32| rank[id as usize];
    let mut keys: Vec<_> = instants
        .iter()
        .map(|i| (total_order_bits(i.at), r(i.track), r(i.name)))
        .collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|(at, track, name)| Instant {
            track,
            name,
            at: from_total_order_bits(at),
        })
        .collect()
}

/// The deterministic observation store — see the module docs for the merge
/// contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Obs {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) hists: BTreeMap<String, Histogram>,
    pub(crate) series: BTreeMap<String, Vec<(f64, f64)>>,
    labels: Labels,
    pub(crate) spans: Vec<Span>,
    pub(crate) instants: Vec<Instant>,
    pub(crate) wall: BTreeMap<String, f64>,
}

impl Obs {
    /// An empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.series.is_empty()
            && self.spans.is_empty()
            && self.instants.is_empty()
            && self.wall.is_empty()
    }

    /// Adds `delta` to counter `name`.
    pub(crate) fn counter(&mut self, name: &str, delta: u64) {
        update(&mut self.counters, name, || 0, |c| *c += delta);
    }

    /// Raises peak gauge `name` to at least `value` (NaN is ignored).
    pub(crate) fn gauge_max(&mut self, name: &str, value: f64) {
        if value.is_nan() {
            return;
        }
        update(
            &mut self.gauges,
            name,
            || f64::NEG_INFINITY,
            |g| *g = g.max(value),
        );
    }

    /// Records `value` into histogram `name`.
    pub(crate) fn observe(&mut self, name: &str, value: f64) {
        update(&mut self.hists, name, Histogram::new, |h| h.record(value));
    }

    /// Appends a `(t, value)` sample to series `name` (t in sim seconds).
    pub(crate) fn point(&mut self, name: &str, t: f64, value: f64) {
        update(&mut self.series, name, Vec::new, |s| s.push((t, value)));
    }

    /// Appends a span on `track` from `start` to `end` sim seconds.
    pub(crate) fn span(&mut self, track: &str, name: &str, start: f64, end: f64) {
        let (track, name) = (self.labels.id(track), self.labels.id(name));
        self.spans.push(Span {
            track,
            name,
            start,
            end,
        });
    }

    /// Appends an instantaneous marker on `track` at `at` sim seconds.
    pub(crate) fn instant(&mut self, track: &str, name: &str, at: f64) {
        let (track, name) = (self.labels.id(track), self.labels.id(name));
        self.instants.push(Instant { track, name, at });
    }

    /// Adds wall-clock `seconds` under `name` in the **explicitly
    /// nondeterministic** profiling section.  This is the only place wall
    /// time is allowed into a store: everything else derives from
    /// simulation clocks and deterministic counters.  Deterministic
    /// instrumentation must never call this; the determinism suite compares
    /// whole stores, so a wall entry from inside an instrumented engine is
    /// a test failure, not a tolerated wobble.
    pub(crate) fn wall_seconds(&mut self, name: &str, seconds: f64) {
        update(&mut self.wall, name, || 0.0, |w| *w += seconds);
    }

    /// Drops the explicitly-nondeterministic wall-clock section, leaving the
    /// deterministic core — the part the bit-identity guarantees quantify
    /// over.  Determinism tests call this before comparing exports from runs
    /// whose only legitimate difference is how long they took.
    pub fn strip_wall(&mut self) {
        self.wall.clear();
    }

    /// Value of counter `name` (0 when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of peak gauge `name`, if ever set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The series under `name`, if any points were recorded.
    pub fn series(&self, name: &str) -> Option<&[(f64, f64)]> {
        self.series.get(name).map(|v| v.as_slice())
    }

    /// All spans recorded so far (pre-canonicalisation order).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The track or name string behind a [`Span`] or [`Instant`] id of this
    /// store.
    pub(crate) fn label(&self, id: u32) -> &str {
        &self.labels.strings[id as usize]
    }

    /// `rank[id]`: the position of label `id` in string order.
    pub(crate) fn label_ranks(&self) -> Vec<u32> {
        let strings = &self.labels.strings;
        let mut order: Vec<u32> = (0..strings.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| strings[a as usize].cmp(&strings[b as usize]));
        let mut rank = vec![0; order.len()];
        for (r, &id) in order.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        rank
    }

    /// Folds `other` into `self`: counters add, gauges take the max,
    /// histograms merge bucket-wise, series and trace events append (with
    /// `other`'s label ids remapped into this store's table).  After
    /// [`canonicalize`](Obs::canonicalize), the result is bit-identical for
    /// any shard grouping of the same per-item observations.
    pub(crate) fn merge(&mut self, other: &Obs) {
        for (k, &v) in &other.counters {
            self.counter(k, v);
        }
        for (k, &v) in &other.gauges {
            self.gauge_max(k, v);
        }
        for (k, h) in &other.hists {
            update(&mut self.hists, k, Histogram::new, |mine| mine.merge(h));
        }
        for (k, pts) in &other.series {
            update(&mut self.series, k, Vec::new, |mine| {
                mine.extend_from_slice(pts)
            });
        }
        let remap: Vec<u32> = other
            .labels
            .strings
            .iter()
            .map(|s| self.labels.id(s))
            .collect();
        let id = |old: u32| remap[old as usize];
        self.spans.extend(other.spans.iter().map(|s| Span {
            track: id(s.track),
            name: id(s.name),
            ..*s
        }));
        self.instants.extend(other.instants.iter().map(|i| Instant {
            track: id(i.track),
            name: id(i.name),
            ..*i
        }));
        for (k, &v) in &other.wall {
            self.wall_seconds(k, v);
        }
    }

    /// Sorts series points and trace events into their canonical total
    /// order and renumbers the string table into string order, so stores
    /// merged from different shard groupings of the same observations
    /// compare with `==`.  The exporters do not need it: they order what
    /// they render themselves.
    pub fn canonicalize(&mut self) {
        for pts in self.series.values_mut() {
            pts.sort_by(point_order);
        }
        let rank = self.label_ranks();
        self.spans = canonical_spans(&self.spans, &rank);
        self.instants = canonical_instants(&self.instants, &rank);
        // The strings are distinct, so sorting them puts each at its rank.
        self.labels.strings.sort_unstable();
        for id in self.labels.ids.values_mut() {
            *id = rank[*id as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_obs(shift: f64) -> Obs {
        let mut o = Obs::new();
        o.counter("c", 2);
        o.gauge_max("g", 1.0 + shift);
        o.observe("h", 0.5 + shift);
        o.point("s", shift, 10.0);
        o.span("t", "work", shift, shift + 0.1);
        o.instant("t", "mark", shift);
        o
    }

    #[test]
    fn record_and_read_back() {
        let o = sample_obs(0.0);
        assert_eq!(o.counter_value("c"), 2);
        assert_eq!(o.counter_value("missing"), 0);
        assert_eq!(o.gauge_value("g"), Some(1.0));
        assert_eq!(o.hists["h"].count(), 1);
        assert_eq!(o.series("s").unwrap().len(), 1);
        assert_eq!(o.spans().len(), 1);
        let span = o.spans()[0];
        assert_eq!((o.label(span.track), o.label(span.name)), ("t", "work"));
        assert!(!o.is_empty());
        assert!(Obs::new().is_empty());
    }

    #[test]
    fn merge_is_grouping_invariant_after_canonicalize() {
        // Shard `i` also records four (track, name) pairs that tie on start,
        // first seeing them from pair `i % 4`, so the shards' string tables
        // number the shared strings differently.
        let pairs = [
            ("lane/b", "batch(2)"),
            ("lane/a", "batch(1)"),
            ("faults", "lane/a"),
            ("lane/a", "batch(2)"),
        ];
        let parts: Vec<Obs> = (0..6)
            .map(|i| {
                let shift = i as f64 * 0.25;
                let mut o = sample_obs(shift);
                for k in 0..pairs.len() {
                    let (track, name) = pairs[(i + k) % pairs.len()];
                    o.span(track, name, shift, shift + 0.05 * k as f64);
                    o.instant(track, name, shift);
                }
                o
            })
            .collect();

        // One-shard grouping: fold everything into one store.
        let mut flat = Obs::new();
        for p in &parts {
            flat.merge(p);
        }
        // Three-shard grouping, merged in a different association.
        let mut a = Obs::new();
        a.merge(&parts[0]);
        a.merge(&parts[1]);
        let mut b = Obs::new();
        b.merge(&parts[3]);
        b.merge(&parts[2]);
        let mut c = Obs::new();
        c.merge(&parts[5]);
        c.merge(&parts[4]);
        let mut grouped = Obs::new();
        grouped.merge(&b);
        grouped.merge(&a);
        grouped.merge(&c);
        // The two groupings numbered the shared strings differently.
        assert_ne!(flat.labels, grouped.labels);
        assert_ne!(flat, grouped);

        flat.canonicalize();
        grouped.canonicalize();
        assert_eq!(flat, grouped);
        assert_eq!(flat.counter_value("c"), 12);
        assert_eq!(
            flat.gauge_value("g").unwrap().to_bits(),
            grouped.gauge_value("g").unwrap().to_bits()
        );
        // Canonical ids are string ranks, and merged spans keep their
        // strings through the remap.
        assert!(flat.labels.strings.windows(2).all(|w| w[0] < w[1]));
        let first = flat.spans()[0];
        assert_eq!(
            (flat.label(first.track), flat.label(first.name)),
            ("faults", "lane/a")
        );
    }

    /// The sort keys order times as `total_cmp` does, and the records are
    /// rebuilt from them bit for bit: signed zeros, subnormals, infinities
    /// and NaNs of either sign included.
    #[test]
    fn total_order_bits_round_trip_in_total_cmp_order() {
        let xs = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            2.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in xs {
            let key = total_order_bits(a);
            assert_eq!(from_total_order_bits(key).to_bits(), a.to_bits());
            for b in xs {
                assert_eq!(key.cmp(&total_order_bits(b)), a.total_cmp(&b));
            }
        }
    }

    #[test]
    fn gauge_keeps_the_peak_and_ignores_nan() {
        let mut o = Obs::new();
        o.gauge_max("g", 3.0);
        o.gauge_max("g", 1.0);
        o.gauge_max("g", f64::NAN);
        assert_eq!(o.gauge_value("g"), Some(3.0));
    }
}
