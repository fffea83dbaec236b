//! E2 — Table III: latency comparison between the computation-prioritised
//! baseline and MARS for the five CNN benchmarks on the F1-style platform,
//! including the "Mapping found by MARS" column.
//!
//! ```sh
//! cargo run --release -p mars-bench --bin table3            # fast budget
//! MARS_BUDGET=full cargo run --release -p mars-bench --bin table3
//! cargo run --release -p mars-bench --bin table3 -- --metrics search.json --trace search-trace.json
//! ```

use mars_bench::{table3_row, BinContext};
use mars_core::report;
use mars_model::zoo::Benchmark;

fn main() {
    let ctx = BinContext::from_env();
    let budget = ctx.budget;
    let recorder = ctx.recorder();
    ctx.print_header("TABLE III: LATENCY COMPARISON BETWEEN BASELINE AND MARS");
    println!(
        "{:<12} {:>7} {:>9} {:>8} {:>13} {:>18} {:>10} {:>9}",
        "Model", "#Convs", "#Params", "FLOPs", "Baseline/ms", "MARS/ms", "Search/s", "Evals/s"
    );

    let mut reductions = Vec::new();
    for (i, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        let row = table3_row(benchmark, budget, 40 + i as u64, &recorder);
        reductions.push(row.reduction_percent());
        println!(
            "{:<12} {:>7} {:>8.1}M {:>7.2}G {:>13.3} {:>11.3}({:+.1}%) {:>10.2} {:>9.1}",
            row.benchmark.name(),
            row.convs,
            row.params_m,
            row.flops_g,
            row.baseline_ms,
            row.mars_ms,
            -row.reduction_percent(),
            row.search_s,
            row.evals_per_s
        );
        let net = benchmark.build();
        for line in report::describe_mapping(&net, &row.mapping) {
            println!("{:>14}{line}", "");
        }
    }

    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    println!("\nAverage latency reduction: {avg:.1}% (paper reports 32.2% on its testbed)");
    ctx.export(&recorder);
}
