//! The CI perf-smoke gate: run the table3 searches and the table_fleet drive
//! at the fast budget with pinned seeds, write a machine-readable
//! `BENCH_4.json` summary (wall clock per workload plus the two headline
//! throughputs), and fail when either throughput falls below its committed
//! floor in `bench-baseline.json` (a missing file fails the gate, so the
//! floors cannot silently vanish).
//!
//! Only throughputs are gated here.  Every simulated table number is pinned
//! exactly by the goldens in `crates/bench/tests/golden_tables.rs`, which run
//! on every PR.
//!
//! `MARS_THREADS` sets the worker threads (CI pins `1`; the *results* are
//! thread-count-invariant, only the wall clock moves).
//!
//! ```sh
//! MARS_THREADS=1 cargo run --release -p mars-bench --bin perf_smoke
//! ```

use mars_bench::{smoke, table3_row, table_fleet_row, BinContext, Budget};
use mars_model::zoo::Benchmark;
use mars_obs::Recorder;
use std::time::Instant;

const OUT_PATH: &str = "BENCH_4.json";
const BASELINE_PATH: &str = "bench-baseline.json";

fn main() {
    let threads = BinContext::from_env().threads;
    let disabled = Recorder::disabled();

    // table3 (seeds 40+row): the flat search engine's aggregate first-level
    // evaluation throughput over the five benchmarks' own searches.
    let t = Instant::now();
    let mut evaluations = 0.0f64;
    let mut search_seconds = 0.0f64;
    for (i, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        let row = table3_row(benchmark, Budget::Fast, 40 + i as u64, &disabled);
        evaluations += row.evals_per_s * row.search_s;
        search_seconds += row.search_s;
    }
    let search_evals_per_second = evaluations / search_seconds.max(1e-12);
    let table3_s = t.elapsed().as_secs_f64();

    // table_fleet (seed 42): the calendar-queue engine's simulation
    // throughput in events/s (arrivals + dispatched batches over the timed
    // event-by-event drive) on the 144-workload fleet scenario.
    let t = Instant::now();
    let events_per_second = table_fleet_row(42, &disabled).events_per_second();
    let table_fleet_s = t.elapsed().as_secs_f64();

    let wall_clock = [("table3", table3_s), ("table_fleet", table_fleet_s)];
    let headlines = [
        ("search_evals_per_second", search_evals_per_second),
        ("events_per_second", events_per_second),
    ];

    let summary = smoke::render_summary("fast", threads, &wall_clock, &headlines);
    std::fs::write(OUT_PATH, &summary).unwrap_or_else(|e| {
        eprintln!("perf-smoke: cannot write {OUT_PATH}: {e}");
        std::process::exit(1);
    });
    println!("perf-smoke summary -> {OUT_PATH}");
    print!("{summary}");

    let baseline = std::fs::read_to_string(BASELINE_PATH).unwrap_or_else(|e| {
        eprintln!("perf-smoke: cannot read committed floors {BASELINE_PATH}: {e}");
        std::process::exit(1);
    });
    let floors = smoke::parse_flat_numbers(&baseline);
    if floors.is_empty() {
        eprintln!("perf-smoke: no floors found in {BASELINE_PATH}");
        std::process::exit(1);
    }
    let violations = smoke::check_floors(&headlines, &floors);
    if violations.is_empty() {
        println!(
            "perf-smoke: all {} floors hold ({BASELINE_PATH})",
            floors.len()
        );
    } else {
        for v in &violations {
            eprintln!("perf-smoke REGRESSION: {v}");
        }
        std::process::exit(1);
    }
}
