//! E5 — multi-DNN co-scheduling: weighted-makespan comparison between
//! co-scheduled (disjoint accelerator partitions, workloads run concurrently)
//! and sequential-exclusive (each workload alone on the whole platform, back
//! to back) execution for the bundled workload mixes on the F1-style
//! platform.  This is the scenario axis above the paper's single-network
//! evaluation, in the spirit of MAGMA (HPCA'22).
//!
//! ```sh
//! cargo run --release -p mars-bench --bin table_multi            # fast budget
//! MARS_BUDGET=full cargo run --release -p mars-bench --bin table_multi
//! ```

use mars_bench::{table_multi_row, BinContext};
use mars_core::report;
use mars_model::zoo::MixZoo;

fn main() {
    let ctx = BinContext::from_env();
    let budget = ctx.budget;
    let recorder = ctx.recorder();
    ctx.print_header("TABLE MULTI: CO-SCHEDULED VS SEQUENTIAL-EXCLUSIVE EXECUTION");
    println!(
        "{:<14} {:>5} {:>12} {:>14} {:>9} {:>10} {:>8}",
        "Mix", "#DNNs", "CoSched/ms", "Sequential/ms", "Speedup", "Thruput/s", "Inner"
    );

    let rows: Vec<_> = MixZoo::ALL
        .into_iter()
        .enumerate()
        .map(|(i, mix)| table_multi_row(mix, budget, 42 + i as u64))
        .collect();

    let mut reductions = Vec::new();
    for row in &rows {
        reductions.push(row.reduction_percent());
        // Post-hoc recording from the finished deterministic outcome: the
        // co-scheduler itself has no recorder hook, but the headline numbers
        // still land in the export.
        recorder.counter("multi/inner_searches", row.result.inner_searches as u64);
        recorder.counter(
            "multi/outer_evaluations",
            row.result.outer_evaluations as u64,
        );
        recorder.gauge_max(&format!("multi/speedup/{}", row.mix.name()), row.speedup());
        println!(
            "{:<14} {:>5} {:>12.3} {:>14.3} {:>8.2}x {:>10.1} {:>8}",
            row.mix.name(),
            row.workloads.len(),
            row.result.makespan_ms(),
            row.sequential.makespan_ms(),
            row.speedup(),
            row.result.throughput_per_second(),
            row.result.inner_searches,
        );
    }

    println!();
    for row in &rows {
        println!("== {} ==", row.mix.name());
        print!(
            "{}",
            report::render_co_schedule(&row.workloads, &row.result, &row.sequential)
        );
    }

    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    println!("\nAverage round-time reduction from co-scheduling: {avg:.1}%");
    ctx.export(&recorder);
}
