//! E6 — online serving: the same seeded request trace replayed against each
//! mix's co-schedule placements under every dispatch policy (FIFO window,
//! earliest-deadline-first, SLA-weighted EDF), comparing goodput, tail
//! latency, throughput and utilisation.  This is the layer above
//! `table_multi`: not "how fast is one offline round" but "how many live
//! requests meet their SLA".
//!
//! ```sh
//! cargo run --release -p mars-bench --bin table_serve            # fast budget
//! MARS_BUDGET=full cargo run --release -p mars-bench --bin table_serve
//! ```

use mars_bench::{table_serve_row, BinContext};
use mars_model::zoo::MixZoo;
use mars_serve::render_serve;

fn main() {
    let ctx = BinContext::from_env();
    let budget = ctx.budget;
    let recorder = ctx.recorder();
    ctx.print_header("TABLE SERVE: SLA-AWARE DYNAMIC BATCHING OVER CO-SCHEDULE PLACEMENTS");
    println!(
        "{:<14} {:<6} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>9} {:>6}",
        "Mix",
        "Policy",
        "Req",
        "Done",
        "MetSLA",
        "p50/ms",
        "p95/ms",
        "p99/ms",
        "Thruput/s",
        "Util%"
    );

    let rows: Vec<_> = MixZoo::ALL
        .into_iter()
        .enumerate()
        .map(|(i, mix)| table_serve_row(mix, budget, 42 + i as u64, &recorder))
        .collect();

    for row in &rows {
        for report in &row.reports {
            println!(
                "{:<14} {:<6} {:>6} {:>6} {:>8} {:>8.2} {:>8.2} {:>8.2} {:>9.1} {:>6.1}",
                row.mix.name(),
                report.policy.name(),
                report.total_requests,
                report.completed,
                report.goodput,
                report.p50_ms,
                report.p95_ms,
                report.p99_ms,
                report.throughput_per_second(),
                100.0 * report.mean_utilization(),
            );
        }
    }

    println!();
    for row in &rows {
        println!(
            "== {} (SLA-aware goodput gain over FIFO: {:.2}x) ==",
            row.mix.name(),
            row.sla_aware_goodput_gain()
        );
        for report in &row.reports {
            print!("{}", render_serve(report));
        }
        println!();
    }
    ctx.export(&recorder);
}
