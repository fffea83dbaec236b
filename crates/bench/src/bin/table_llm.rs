//! E9 — LLM-era serving: the bundled [`llm_mix`](mars_model::zoo::llm_mix)
//! scenario (autoregressive transformer workloads with compute-bound prefill
//! and bandwidth-bound decode, phased traffic, per-lane KV budgets) replayed
//! under one-shot static batching and continuous batching on the
//! lane-sharded runner.  Same trace, same memory, same slots — the printed
//! gap is pure iteration-level scheduling.
//!
//! ```sh
//! cargo run --release -p mars-bench --bin table_llm
//! MARS_THREADS=8 cargo run --release -p mars-bench --bin table_llm
//! ```

use mars_bench::{table_llm_row, BinContext};
use mars_serve::BatchingMode;

fn main() {
    let ctx = BinContext::from_env();
    ctx.print_shard_header("TABLE LLM: CONTINUOUS BATCHING VS ONE-SHOT");
    let recorder = ctx.recorder();

    let row = table_llm_row(42, &recorder);
    println!(
        "mix: {} LLM workloads, {} requests over {:.1}s horizon",
        row.workloads,
        row.trace.total_requests(),
        row.trace.horizon_seconds,
    );
    println!(
        "{:<11} {:>6} {:>6} {:>8} {:>9} {:>9} {:>9} {:>8}",
        "Mode", "Req", "Done", "Goodput", "p50/ms", "p95/ms", "p99/ms", "Wall/s"
    );
    for (report, wall) in row.reports.iter().zip(&row.wall_seconds) {
        println!(
            "{:<11} {:>6} {:>6} {:>8} {:>9.1} {:>9.1} {:>9.1} {:>8.4}",
            report.mode.to_string(),
            report.total_requests,
            report.completed,
            report.goodput,
            report.p50_ms,
            report.p95_ms,
            report.p99_ms,
            wall,
        );
    }

    println!();
    println!("per-workload breakdown (continuous):");
    println!(
        "  {:<14} {:>5} {:>5} {:>7} {:>7} {:>9} {:>10} {:>10}",
        "Workload", "Req", "Done", "MetSLA", "Iters", "MeanRun", "PeakKV/MiB", "Budget/MiB"
    );
    for s in &row.report(BatchingMode::Continuous).per_workload {
        println!(
            "  {:<14} {:>5} {:>5} {:>7} {:>7} {:>9.2} {:>10.1} {:>10.1}",
            s.name,
            s.requests,
            s.completed,
            s.met_sla,
            s.iterations,
            s.mean_running,
            s.peak_kv_bytes as f64 / (1 << 20) as f64,
            s.kv_budget_bytes as f64 / (1 << 20) as f64,
        );
    }

    println!();
    println!(
        "continuous goodput gain over one-shot: {:.2}x (acceptance floor: >1x)",
        row.continuous_goodput_gain()
    );
    ctx.export(&recorder);
}
