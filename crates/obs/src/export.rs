//! Exporters: flat machine-diffable metrics JSON and Chrome trace-event
//! JSON (loadable in Perfetto or `chrome://tracing`).
//!
//! The bytes both exporters produce are a pure function of the recorded
//! observations — independent of thread counts, shard groupings, insertion
//! order or how the store's string table numbered its labels.  Neither
//! copies the store: maps render in key order, a series is sorted (on a
//! copy) only when it is out of order, and the trace exporter sorts packed
//! integer keys of the span and instant records (their times' total-order
//! bits and their labels' string ranks), rebuilding the records from the
//! sorted keys.  Each export is one pass that writes every event straight
//! into one pre-sized byte buffer, checked as UTF-8 once at the end rather
//! than once per write.  Numbers keep their `{}` form but are written by
//! the crate's own writers (shortest round-trip digits, exact ties rounded
//! up as `{}` rounds them); `write!` is left for escapes and non-finite
//! values.  The metrics JSON follows the same restricted flat
//! shape as the repo's `BENCH_*.json` files (string keys to numbers, one
//! nesting level for grouping); the trace JSON is the Chrome trace-event
//! array format with timestamps in **simulated microseconds**.

use crate::num::{push_f64, push_u64};
use crate::store::{canonical_instants, canonical_spans, point_order, Obs};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write as _;

/// Appends `s` escaped for a JSON string literal.  Byte by byte: every
/// byte that needs an escape is ASCII, and the bytes of other characters
/// pass through unchanged.
fn push_esc(out: &mut Vec<u8>, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.extend_from_slice(s.as_bytes());
        return;
    }
    for b in s.bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b if b < 0x20 => {
                let _ = write!(out, "\\u{b:04x}");
            }
            b => out.push(b),
        }
    }
}

/// The finished export as a `String`.
fn into_string(out: Vec<u8>) -> String {
    // Every byte written is ASCII or copied from a `&str`, so this never
    // fails.
    String::from_utf8(out).expect("exports are built from UTF-8")
}

/// Appends `v` in its `{}` form, quoted when it is not finite (JSON has no
/// inf/NaN; they become strings the flat parser skips, which is the right
/// behaviour for sentinel gauges).
fn push_num(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        push_f64(out, v);
    } else {
        let _ = write!(out, "\"{v}\"");
    }
}

/// `pts` in canonical order, copied and sorted only when out of order.
fn sorted_points(pts: &[(f64, f64)]) -> Cow<'_, [(f64, f64)]> {
    if pts.windows(2).all(|w| point_order(&w[0], &w[1]).is_le()) {
        Cow::Borrowed(pts)
    } else {
        let mut owned = pts.to_vec();
        owned.sort_by(point_order);
        Cow::Owned(owned)
    }
}

/// Appends `,\n  "title": {` and one `"key": value` line per entry of `map`
/// (nothing when `map` is empty).
fn section<V>(
    out: &mut Vec<u8>,
    title: &str,
    map: &BTreeMap<String, V>,
    mut value: impl FnMut(&mut Vec<u8>, &V),
) {
    if map.is_empty() {
        return;
    }
    out.extend_from_slice(b",\n  \"");
    out.extend_from_slice(title.as_bytes());
    out.extend_from_slice(b"\": {\n");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b",\n");
        }
        out.extend_from_slice(b"    \"");
        push_esc(out, k);
        out.extend_from_slice(b"\": ");
        value(out, v);
    }
    out.extend_from_slice(b"\n  }");
}

/// Renders the flat metrics JSON: counters, peak gauges, histograms
/// (count/min/max plus non-empty `(edge, count)` buckets) and series.
pub fn metrics_json(obs: &Obs) -> String {
    let points: usize = obs.series.values().map(Vec::len).sum();
    let keys = obs.counters.len() + obs.gauges.len() + obs.series.len() + obs.wall.len();
    let mut out = Vec::with_capacity(64 + 64 * keys + 256 * obs.hists.len() + 48 * points);
    out.extend_from_slice(b"{\n  \"schema\": \"mars-obs-metrics-v1\"");
    section(&mut out, "counters", &obs.counters, |out, &v| {
        push_u64(out, v)
    });
    section(&mut out, "gauges", &obs.gauges, |out, &v| push_num(out, v));
    section(&mut out, "histograms", &obs.hists, |out, h| {
        out.extend_from_slice(b"{\"count\": ");
        push_u64(out, h.count());
        out.extend_from_slice(b", \"underflow\": ");
        push_u64(out, h.underflow());
        out.extend_from_slice(b", \"overflow\": ");
        push_u64(out, h.overflow());
        out.extend_from_slice(b", \"min\": ");
        push_num(out, h.min());
        out.extend_from_slice(b", \"max\": ");
        push_num(out, h.max());
        out.extend_from_slice(b", \"buckets\": [");
        for (i, (edge, c)) in h.nonzero_buckets().into_iter().enumerate() {
            if i > 0 {
                out.extend_from_slice(b", ");
            }
            out.push(b'[');
            push_num(out, edge);
            out.extend_from_slice(b", ");
            push_u64(out, c);
            out.push(b']');
        }
        out.extend_from_slice(b"]}");
    });
    section(&mut out, "series", &obs.series, |out, pts| {
        out.push(b'[');
        for (i, &(t, v)) in sorted_points(pts).iter().enumerate() {
            if i > 0 {
                out.extend_from_slice(b", ");
            }
            out.push(b'[');
            push_num(out, t);
            out.extend_from_slice(b", ");
            push_num(out, v);
            out.push(b']');
        }
        out.push(b']');
    });
    // Wall time is the one explicitly nondeterministic section: these bytes
    // may differ between otherwise identical runs.
    section(
        &mut out,
        "wall_seconds_nondeterministic",
        &obs.wall,
        |out, &v| push_num(out, v),
    );
    out.extend_from_slice(b"\n}\n");
    into_string(out)
}

/// Renders Chrome trace-event JSON keyed on simulated time.
///
/// Tracks become threads of one process: a thread-name metadata event per
/// track, spans as complete (`"X"`) events, markers as instant (`"i"`)
/// events and series as counter (`"C"`) events.  Timestamps are simulated
/// seconds scaled to microseconds, so a one-second simulation renders as
/// one second on the Perfetto timeline.
pub fn chrome_trace_json(obs: &Obs) -> String {
    let rank = obs.label_ranks();
    let spans = canonical_spans(&obs.spans, &rank);
    let instants = canonical_instants(&obs.instants, &rank);
    // The sorted records name their labels by rank.
    let mut labels = vec![""; rank.len()];
    for (id, &r) in rank.iter().enumerate() {
        labels[r as usize] = obs.label(id as u32);
    }
    let label = |r: u32| labels[r as usize];

    // Deterministic track ids: the labels used as tracks, numbered from 1
    // in string order.
    let mut is_track = vec![false; rank.len()];
    for s in &spans {
        is_track[s.track as usize] = true;
    }
    for i in &instants {
        is_track[i.track as usize] = true;
    }
    let tracks: Vec<u32> = (0..rank.len() as u32)
        .filter(|&r| is_track[r as usize])
        .collect();
    let mut tid = vec![0u32; rank.len()];
    for (n, &r) in tracks.iter().enumerate() {
        tid[r as usize] = n as u32 + 1;
    }
    let us = |t: f64| t * 1e6;

    // Room for each event's fixed text, its name and ~40 bytes of numbers.
    let len = |r: u32| label(r).len();
    let capacity = 8
        + tracks.iter().map(|&t| 90 + len(t)).sum::<usize>()
        + spans.iter().map(|s| 120 + len(s.name)).sum::<usize>()
        + instants.iter().map(|i| 110 + len(i.name)).sum::<usize>()
        + obs
            .series
            .iter()
            .map(|(k, p)| (100 + k.len()) * p.len())
            .sum::<usize>();
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(b"[\n");
    for (i, &track) in tracks.iter().enumerate() {
        out.extend_from_slice(b"{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": ");
        push_u64(&mut out, i as u64 + 1);
        out.extend_from_slice(b", \"args\": {\"name\": \"");
        push_esc(&mut out, label(track));
        out.extend_from_slice(b"\"}},\n");
    }
    for s in &spans {
        out.extend_from_slice(b"{\"name\": \"");
        push_esc(&mut out, label(s.name));
        out.extend_from_slice(b"\", \"cat\": \"sim\", \"ph\": \"X\", \"ts\": ");
        push_num(&mut out, us(s.start));
        out.extend_from_slice(b", \"dur\": ");
        push_num(&mut out, us((s.end - s.start).max(0.0)));
        out.extend_from_slice(b", \"pid\": 1, \"tid\": ");
        push_u64(&mut out, tid[s.track as usize].into());
        out.extend_from_slice(b"},\n");
    }
    for i in &instants {
        out.extend_from_slice(b"{\"name\": \"");
        push_esc(&mut out, label(i.name));
        out.extend_from_slice(b"\", \"cat\": \"sim\", \"ph\": \"i\", \"s\": \"t\", \"ts\": ");
        push_num(&mut out, us(i.at));
        out.extend_from_slice(b", \"pid\": 1, \"tid\": ");
        push_u64(&mut out, tid[i.track as usize].into());
        out.extend_from_slice(b"},\n");
    }
    for (name, pts) in &obs.series {
        for &(t, v) in sorted_points(pts).iter() {
            out.extend_from_slice(b"{\"name\": \"");
            push_esc(&mut out, name);
            out.extend_from_slice(b"\", \"ph\": \"C\", \"ts\": ");
            push_num(&mut out, us(t));
            out.extend_from_slice(b", \"pid\": 1, \"args\": {\"value\": ");
            push_num(&mut out, v);
            out.extend_from_slice(b"}},\n");
        }
    }
    // Every event ended with ",\n"; the last one ends the array instead.
    if out.ends_with(b",\n") {
        out.truncate(out.len() - 2);
    }
    out.extend_from_slice(b"\n]\n");
    into_string(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Obs {
        let mut o = Obs::new();
        o.counter("search/evals", 42);
        o.gauge_max("kv/peak", 0.75);
        o.observe("serve/batch_size", 4.0);
        o.observe("serve/batch_size", 8.0);
        o.point("search/best_fitness", 0.0, 12.5);
        o.point("search/best_fitness", 1.0, 11.0);
        // Exactly representable sim times, so the expected microsecond
        // timestamps below are exact too.
        o.span("lane/0", "batch(4)", 0.125, 0.1875);
        o.instant("lane/0", "fault:down", 0.15625);
        o
    }

    #[test]
    fn metrics_json_is_flat_and_machine_parseable() {
        let text = metrics_json(&sample());
        assert!(text.contains("\"schema\": \"mars-obs-metrics-v1\""));
        assert!(text.contains("\"search/evals\": 42"));
        assert!(text.contains("\"kv/peak\": 0.75"));
        assert!(text.contains("\"count\": 2"));
        assert!(text.contains("\"search/best_fitness\": [[0, 12.5], [1, 11]]"));
        // Well-formed: braces balance.
        let open = text.matches('{').count();
        let close = text.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn chrome_trace_has_thread_names_spans_instants_and_counters() {
        let text = chrome_trace_json(&sample());
        assert!(text.starts_with("[\n"));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"ph\": \"M\""));
        assert!(text.contains("\"name\": \"lane/0\""));
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("\"ts\": 125000, \"dur\": 62500"));
        assert!(text.contains("\"ph\": \"i\""));
        assert!(text.contains("\"ph\": \"C\""));
        let open = text.matches('[').count();
        let close = text.matches(']').count();
        assert_eq!(open, close);
    }

    /// Spans and instants on three tracks, all starting at 0.25, recorded
    /// in the order `which` lists them — so a store's string table numbers
    /// the shared strings in that order, and string ranks break the ties.
    fn ties(o: &mut Obs, which: &[usize]) {
        let events = [
            ("lane/1", "batch(2)"),
            ("faults", "lane/0"),
            ("lane/0", "batch(2)"),
        ];
        for &k in which {
            let (track, name) = events[k];
            o.span(track, name, 0.25, 0.25 + 0.125 * k as f64);
            o.instant(track, name, 0.25);
        }
    }

    #[test]
    fn exports_are_insertion_order_invariant() {
        let mut a = sample();
        ties(&mut a, &[0, 1, 2]);
        let mut b = Obs::new();
        // Same observations, recorded in a different order.
        ties(&mut b, &[2, 0, 1]);
        b.span("lane/0", "batch(4)", 0.125, 0.1875);
        b.point("search/best_fitness", 1.0, 11.0);
        b.observe("serve/batch_size", 8.0);
        b.counter("search/evals", 40);
        b.counter("search/evals", 2);
        b.gauge_max("kv/peak", 0.75);
        b.observe("serve/batch_size", 4.0);
        b.point("search/best_fitness", 0.0, 12.5);
        b.instant("lane/0", "fault:down", 0.15625);
        // Same observations again, split over two shards that first see the
        // shared strings in different orders, merged either way round: the
        // merged tables number every string differently.
        let mut s1 = Obs::new();
        s1.instant("lane/0", "fault:down", 0.15625);
        ties(&mut s1, &[2, 1]);
        s1.counter("search/evals", 40);
        s1.observe("serve/batch_size", 8.0);
        s1.point("search/best_fitness", 1.0, 11.0);
        let mut s2 = Obs::new();
        ties(&mut s2, &[0]);
        s2.span("lane/0", "batch(4)", 0.125, 0.1875);
        s2.counter("search/evals", 2);
        s2.gauge_max("kv/peak", 0.75);
        s2.observe("serve/batch_size", 4.0);
        s2.point("search/best_fitness", 0.0, 12.5);
        let mut c = Obs::new();
        c.merge(&s1);
        c.merge(&s2);
        let mut d = Obs::new();
        d.merge(&s2);
        d.merge(&s1);
        assert_ne!(c.label(0), d.label(0));
        for other in [&b, &c, &d] {
            assert_eq!(metrics_json(&a), metrics_json(other));
            assert_eq!(chrome_trace_json(&a), chrome_trace_json(other));
        }
    }

    #[test]
    fn non_finite_values_render_as_strings() {
        let mut o = Obs::new();
        o.gauge_max("g", f64::INFINITY);
        let text = metrics_json(&o);
        assert!(text.contains("\"g\": \"inf\""));
    }

    /// Every event kind, JSON escaping (quote, backslash, newline, a
    /// control character and non-ASCII), non-finite and `{}`-formatted
    /// values, an empty histogram's infinite min/max, out-of-order series
    /// points, spans that tie on start (broken by track, then end, then
    /// name), a backwards span and a track that holds only instants.  The
    /// `num/` gauges reach every branch of number rendering: exact ties,
    /// which `{}` rounds up (`2^50 + 0.25` is `…624.3`), the smallest
    /// subnormal and normal, the largest finite value, integers past 2^53,
    /// small values in `0.000…` form and a negative integer.
    fn golden_store() -> Obs {
        let mut o = Obs::new();
        o.counter("search/evals", 40);
        o.counter("esc/\"q\"\\b\nl\u{1}µ", 7);
        o.counter("search/evals", 2);
        o.gauge_max("kv/peak", 0.75);
        o.gauge_max("kv/peak", 0.5);
        o.gauge_max("g/inf", f64::INFINITY);
        o.gauge_max("g/neg", -3.25);
        o.gauge_max("g/tiny", 1e-7);
        o.gauge_max("g/huge", 1e21);
        o.gauge_max("num/2^50+0.25", 2f64.powi(50) + 0.25);
        o.gauge_max("num/2^50+0.75", 2f64.powi(50) + 0.75);
        o.gauge_max("num/5e-324", 5e-324);
        o.gauge_max("num/min_positive", f64::MIN_POSITIVE);
        o.gauge_max("num/max", f64::MAX);
        o.gauge_max("num/2^60", 2f64.powi(60));
        o.gauge_max("num/1e22", 1e22);
        o.gauge_max("num/1e23", 1e23);
        o.gauge_max("num/0.00001234", 0.00001234);
        o.gauge_max("num/-1.5e-7", -1.5e-7);
        o.gauge_max("num/-123456789", -123456789.0);
        o.observe("serve/batch_size", 4.0);
        o.observe("serve/batch_size", 8.0);
        o.observe("serve/batch_size", 0.0);
        o.observe("serve/batch_size", 1e12);
        o.observe("h/empty", f64::NAN);
        o.point("s/b", 1.0, 11.0);
        o.point("s/b", 0.5, 2.0);
        o.point("s/b", 0.0, 12.5);
        o.point("s/b", 0.5, 1.0);
        o.point("s/b", -0.0, f64::INFINITY);
        o.point("s/a", 0.1, 0.3);
        o.point("s/a", 1.0 / 3.0, 0.1 + 0.2);
        o.span("lane/b", "batch(2)", 0.25, 0.5);
        o.span("lane/a", "batch(9)", 0.25, 0.75);
        o.span("lane/a", "batch(3)", 0.25, 0.5);
        o.span("lane/a", "batch(1)", 0.25, 0.5);
        o.span("lane/\"x\"\\\n\u{1}", "na\"me\\\n\u{1}", 0.125, 0.1875);
        o.span("lane/b", "backwards", 0.6, 0.4);
        o.span("lane/a", "batch(4)", 0.0, 0.1);
        o.instant("faults", "restore:a3", 0.3);
        o.instant("lane/a", "mark", 0.3);
        o.instant("faults", "fail:a3", 0.3);
        o.instant("faults", "lane/b", 0.05);
        o.wall_seconds("wall/x", 0.5);
        o
    }

    /// Byte-exact exports of [`golden_store`] and of the empty store.
    #[test]
    fn exports_match_golden_bytes() {
        assert_eq!(metrics_json(&golden_store()), METRICS);
        assert_eq!(chrome_trace_json(&golden_store()), TRACE);
        assert_eq!(metrics_json(&Obs::new()), EMPTY_METRICS);
        assert_eq!(chrome_trace_json(&Obs::new()), EMPTY_TRACE);
    }

    // The expected bytes, as rendered by the earlier exporters that cloned
    // and canonicalized the store and formatted each event on its own.
    const METRICS: &str = r#"{
  "schema": "mars-obs-metrics-v1",
  "counters": {
    "esc/\"q\"\\b\nl\u0001µ": 7,
    "search/evals": 42
  },
  "gauges": {
    "g/huge": 1000000000000000000000,
    "g/inf": "inf",
    "g/neg": -3.25,
    "g/tiny": 0.0000001,
    "kv/peak": 0.75,
    "num/-1.5e-7": -0.00000015,
    "num/-123456789": -123456789,
    "num/0.00001234": 0.00001234,
    "num/1e22": 10000000000000000000000,
    "num/1e23": 100000000000000000000000,
    "num/2^50+0.25": 1125899906842624.3,
    "num/2^50+0.75": 1125899906842624.8,
    "num/2^60": 1152921504606847000,
    "num/5e-324": 0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,
    "num/max": 179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,
    "num/min_positive": 0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014
  },
  "histograms": {
    "h/empty": {"count": 1, "underflow": 0, "overflow": 1, "min": "inf", "max": "-inf", "buckets": []},
    "serve/batch_size": {"count": 4, "underflow": 1, "overflow": 1, "min": 0, "max": 1000000000000, "buckets": [[4, 1], [8, 1]]}
  },
  "series": {
    "s/a": [[0.1, 0.3], [0.3333333333333333, 0.30000000000000004]],
    "s/b": [[-0, "inf"], [0, 12.5], [0.5, 1], [0.5, 2], [1, 11]]
  },
  "wall_seconds_nondeterministic": {
    "wall/x": 0.5
  }
}
"#;

    const TRACE: &str = r#"[
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "faults"}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "lane/\"x\"\\\n\u0001"}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 3, "args": {"name": "lane/a"}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 4, "args": {"name": "lane/b"}},
{"name": "batch(4)", "cat": "sim", "ph": "X", "ts": 0, "dur": 100000, "pid": 1, "tid": 3},
{"name": "na\"me\\\n\u0001", "cat": "sim", "ph": "X", "ts": 125000, "dur": 62500, "pid": 1, "tid": 2},
{"name": "batch(1)", "cat": "sim", "ph": "X", "ts": 250000, "dur": 250000, "pid": 1, "tid": 3},
{"name": "batch(3)", "cat": "sim", "ph": "X", "ts": 250000, "dur": 250000, "pid": 1, "tid": 3},
{"name": "batch(9)", "cat": "sim", "ph": "X", "ts": 250000, "dur": 500000, "pid": 1, "tid": 3},
{"name": "batch(2)", "cat": "sim", "ph": "X", "ts": 250000, "dur": 250000, "pid": 1, "tid": 4},
{"name": "backwards", "cat": "sim", "ph": "X", "ts": 600000, "dur": 0, "pid": 1, "tid": 4},
{"name": "lane/b", "cat": "sim", "ph": "i", "s": "t", "ts": 50000, "pid": 1, "tid": 1},
{"name": "fail:a3", "cat": "sim", "ph": "i", "s": "t", "ts": 300000, "pid": 1, "tid": 1},
{"name": "restore:a3", "cat": "sim", "ph": "i", "s": "t", "ts": 300000, "pid": 1, "tid": 1},
{"name": "mark", "cat": "sim", "ph": "i", "s": "t", "ts": 300000, "pid": 1, "tid": 3},
{"name": "s/a", "ph": "C", "ts": 100000, "pid": 1, "args": {"value": 0.3}},
{"name": "s/a", "ph": "C", "ts": 333333.3333333333, "pid": 1, "args": {"value": 0.30000000000000004}},
{"name": "s/b", "ph": "C", "ts": -0, "pid": 1, "args": {"value": "inf"}},
{"name": "s/b", "ph": "C", "ts": 0, "pid": 1, "args": {"value": 12.5}},
{"name": "s/b", "ph": "C", "ts": 500000, "pid": 1, "args": {"value": 1}},
{"name": "s/b", "ph": "C", "ts": 500000, "pid": 1, "args": {"value": 2}},
{"name": "s/b", "ph": "C", "ts": 1000000, "pid": 1, "args": {"value": 11}}
]
"#;

    const EMPTY_METRICS: &str = r#"{
  "schema": "mars-obs-metrics-v1"
}
"#;

    const EMPTY_TRACE: &str = r#"[

]
"#;
}
