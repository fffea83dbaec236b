//! The CI perf-smoke gate: run the fast-budget table binaries' workloads
//! with pinned seeds, write a machine-readable `BENCH_4.json` summary
//! (wall-clock per table plus the headline speedups), and fail when any
//! headline regresses below the committed floors in `bench-baseline.json`.
//!
//! Environment:
//!
//! * `MARS_THREADS` — worker threads (CI pins `1`; the *results* are
//!   thread-count-invariant, only the wall clock moves).
//! * `BENCH_OUT` — where to write the summary (default `BENCH_4.json`).
//! * `BENCH_BASELINE` — the committed floors (default `bench-baseline.json`;
//!   a missing file fails the gate, so the floors cannot silently vanish).
//!
//! ```sh
//! MARS_THREADS=1 cargo run --release -p mars-bench --bin perf_smoke
//! ```

use mars_accel::{Catalog, ProfileTable};
use mars_bench::{
    search_engine_row, smoke, table3_row, table_elastic_row, table_failover_row, table_fleet_row,
    table_llm_row, table_multi_row, table_serve_row_on, BinContext, Budget,
};
use mars_model::zoo::{Benchmark, MixZoo};
use mars_obs::Recorder;
use std::time::Instant;

fn main() {
    let budget = Budget::Fast;
    let threads = BinContext::from_env().threads;
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_4.json".to_string());
    let baseline_path =
        std::env::var("BENCH_BASELINE").unwrap_or_else(|_| "bench-baseline.json".to_string());

    // table2: pure profiling, no search — timed for the wall-clock summary.
    let t = Instant::now();
    let catalog = Catalog::standard_three();
    let mut profiled_convs = 0usize;
    for benchmark in Benchmark::ALL {
        let net = benchmark.build();
        let profile = ProfileTable::build(&net, &catalog);
        profiled_convs += net
            .conv_layers()
            .filter(|(id, _)| profile.best_design(*id).0 < 3)
            .count();
    }
    let table2_s = t.elapsed().as_secs_f64();

    // table3: per-benchmark mapping quality (baseline vs MARS latency, seeds
    // 40+row) plus the search-engine head-to-head: the flat engine timed
    // against the retained reference engine on the identical workloads and
    // seeds, with the row builder asserting their outcomes bit-identical.
    // Three headlines: the worst-case latency speedup over the baseline
    // mapper, the worst-case flat-over-reference wall-clock speedup, and the
    // flat engine's aggregate evaluation throughput.
    let t = Instant::now();
    let disabled = Recorder::disabled();
    let mut table3_min_latency_speedup = f64::INFINITY;
    let mut table3_min_engine_speedup = f64::INFINITY;
    let mut engine_evals = 0usize;
    let mut engine_flat_seconds = 0.0f64;
    let mut table3_rows = Vec::new();
    let mut table3_rows_s = 0.0f64;
    for (i, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        let row_t = Instant::now();
        let row = table3_row(benchmark, budget, 40 + i as u64, &disabled);
        table3_rows_s += row_t.elapsed().as_secs_f64();
        table3_min_latency_speedup = table3_min_latency_speedup.min(row.baseline_ms / row.mars_ms);
        table3_rows.push(row);
        let engine = search_engine_row(benchmark, budget, 40 + i as u64);
        table3_min_engine_speedup = table3_min_engine_speedup.min(engine.engine_speedup());
        engine_evals += engine.evaluations;
        engine_flat_seconds += engine.flat_seconds;
    }
    let search_evals_per_second = engine_evals as f64 / engine_flat_seconds.max(1e-12);
    let table3_s = t.elapsed().as_secs_f64();

    // obs_disabled_overhead: the observability hooks behind a *disabled*
    // Recorder must stay free.  Every row takes a recorder, so the pass
    // above already ran the code path every instrumented caller pays when
    // tracing is off.  Re-run the identical table3 rows with a disabled
    // recorder, assert them bit-identical to the first pass, and gate the
    // first/second wall-clock ratio: the committed 0.95 floor allows the
    // repeat at most ~5% extra cost before the gate trips.
    let t = Instant::now();
    for (i, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        let row = table3_row(benchmark, budget, 40 + i as u64, &disabled);
        assert_eq!(
            row.mars_ms.to_bits(),
            table3_rows[i].mars_ms.to_bits(),
            "{benchmark:?}: disabled-recorder search diverged from the plain search"
        );
    }
    let table3_obs_s = t.elapsed().as_secs_f64();
    let obs_disabled_overhead = table3_rows_s / table3_obs_s.max(1e-12);

    // table_multi: co-scheduling vs sequential-exclusive (seeds 42+row).
    let t = Instant::now();
    let mut multi_min_speedup = f64::INFINITY;
    let mut multi_rows = Vec::new();
    for (i, mix) in MixZoo::ALL.into_iter().enumerate() {
        let row = table_multi_row(mix, budget, 42 + i as u64);
        multi_min_speedup = multi_min_speedup.min(row.speedup());
        multi_rows.push(row);
    }
    let table_multi_s = t.elapsed().as_secs_f64();

    // table_serve: SLA-aware dispatch vs FIFO goodput (seeds 42+row),
    // serving on the co-schedules the table_multi loop already searched —
    // the searches are deterministic, so re-running them would only burn
    // gate time.  Like the other headlines this gates on the *worst* mix,
    // matching the documented claim that SLA-aware dispatch beats FIFO on
    // every mix.
    let t = Instant::now();
    let mut serve_min_gain = f64::INFINITY;
    for (i, multi) in multi_rows.into_iter().enumerate() {
        let row = table_serve_row_on(multi.mix, 42 + i as u64, multi.result, &disabled);
        // An infinite gain means FIFO met zero SLAs while the SLA-aware
        // policies met some — the best possible outcome, not a regression.
        // Clamp it to a large finite value so the JSON stays parseable and
        // the floor check passes rather than discarding the measurement.
        let gain = row.sla_aware_goodput_gain().min(1e6);
        serve_min_gain = serve_min_gain.min(gain);
    }
    let table_serve_s = t.elapsed().as_secs_f64();

    // table_elastic: drift-aware re-scheduling vs a static placement under
    // the bundled phased traffic (seed 42 on every mix).  The gate holds the
    // *worst* mix's Reactive/Static goodput ratio: the elastic runtime must
    // never lose to never-rescheduling (on mixes where migration is
    // uneconomic it declines every move and the ratio is exactly 1).
    let t = Instant::now();
    let mut elastic_min_gain = f64::INFINITY;
    for mix in MixZoo::ALL {
        let row = table_elastic_row(mix, budget, 42, &disabled);
        let gain = row.reactive_vs_static_goodput_gain().min(1e6);
        elastic_min_gain = elastic_min_gain.min(gain);
    }
    let table_elastic_s = t.elapsed().as_secs_f64();

    // table_failover: epoch-style recovery from injected accelerator
    // failures (seed 42 on every mix's bundled failure scenario).  The gate
    // holds the *worst* mix's Reactive/Static goodput ratio under faults —
    // the recovery headline: a runtime that re-plans onto the surviving
    // sub-topology must strictly beat one that keeps serving into a dead
    // partition.
    let t = Instant::now();
    let mut recovery_min_ratio = f64::INFINITY;
    for mix in MixZoo::ALL {
        let row = table_failover_row(mix, budget, 42, &disabled);
        let ratio = row.reactive_vs_static_goodput_gain().min(1e6);
        recovery_min_ratio = recovery_min_ratio.min(ratio);
    }
    let table_failover_s = t.elapsed().as_secs_f64();

    // table_fleet: the calendar-queue engine on the 144-workload fleet
    // scenario (seed 42).  Two headlines: raw simulation throughput in
    // events/s (arrivals + dispatched batches over the engine's wall clock)
    // and the speedup over the legacy linear-scan oracle on the identical
    // event-by-event drive.  The row builder asserts the engines' reports are
    // bit-identical, so a passing gate also re-proves the oracle agreement.
    let t = Instant::now();
    let fleet_row = table_fleet_row(42, &disabled);
    let events_per_second = fleet_row.events_per_second();
    let fleet_engine_speedup = fleet_row.engine_speedup();
    let table_fleet_s = t.elapsed().as_secs_f64();

    // table_llm: continuous batching vs one-shot on the bundled LLM mix
    // (seed 42).  The headline is the continuous goodput itself — an
    // absolute count, pinned as a floor: iteration-level scheduling must
    // keep meeting at least as many deadlines as the committed baseline.
    let t = Instant::now();
    let llm_row = table_llm_row(42, &disabled);
    let llm_goodput = llm_row.report(mars_serve::BatchingMode::Continuous).goodput as f64;
    let table_llm_s = t.elapsed().as_secs_f64();

    let wall_clock = [
        ("table2", table2_s),
        ("table3", table3_s),
        ("table3_obs_disabled", table3_obs_s),
        ("table_multi", table_multi_s),
        ("table_serve", table_serve_s),
        ("table_elastic", table_elastic_s),
        ("table_failover", table_failover_s),
        ("table_fleet", table_fleet_s),
        ("table_llm", table_llm_s),
    ];
    let headlines = [
        ("table3_min_search_speedup", table3_min_engine_speedup),
        ("table3_min_latency_speedup", table3_min_latency_speedup),
        ("search_evals_per_second", search_evals_per_second),
        ("obs_disabled_overhead", obs_disabled_overhead),
        ("table_multi_min_speedup", multi_min_speedup),
        ("table_serve_min_goodput_gain", serve_min_gain),
        ("reactive_vs_static", elastic_min_gain),
        ("recovery_goodput_ratio", recovery_min_ratio),
        ("events_per_second", events_per_second),
        ("fleet_engine_speedup", fleet_engine_speedup),
        ("llm_goodput", llm_goodput),
    ];

    let summary = smoke::render_summary("fast", threads, &wall_clock, &headlines);
    std::fs::write(&out_path, &summary).unwrap_or_else(|e| {
        eprintln!("perf-smoke: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("perf-smoke summary ({profiled_convs} convs profiled) -> {out_path}");
    print!("{summary}");

    let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("perf-smoke: cannot read committed floors {baseline_path}: {e}");
        std::process::exit(1);
    });
    let floors = smoke::parse_flat_numbers(&baseline);
    if floors.is_empty() {
        eprintln!("perf-smoke: no floors found in {baseline_path}");
        std::process::exit(1);
    }
    let violations = smoke::check_floors(&headlines, &floors);
    if violations.is_empty() {
        println!(
            "perf-smoke: all {} floors hold ({baseline_path})",
            floors.len()
        );
    } else {
        for v in &violations {
            eprintln!("perf-smoke REGRESSION: {v}");
        }
        std::process::exit(1);
    }
}
