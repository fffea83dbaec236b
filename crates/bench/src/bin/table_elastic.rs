//! E7 — the elastic runtime: the same non-stationary (phased) request trace
//! served under `Static` (one offline placement forever), `Reactive`
//! (drift-triggered warm-started re-scheduling with migration charged) and
//! `Oracle` (phase-boundary clairvoyant re-scheduling).  This is the layer
//! above `table_serve`: not "how does one placement hold up" but "what does
//! *closing the loop* between serving and scheduling buy when traffic
//! drifts".
//!
//! ```sh
//! cargo run --release -p mars-bench --bin table_elastic          # fast budget
//! MARS_BUDGET=full cargo run --release -p mars-bench --bin table_elastic
//! ```

use mars_bench::{table_elastic_row, BinContext};
use mars_model::zoo::MixZoo;

fn main() {
    let ctx = BinContext::from_env();
    let budget = ctx.budget;
    let recorder = ctx.recorder();
    ctx.print_header("TABLE ELASTIC: DRIFT-AWARE ONLINE RE-SCHEDULING OVER THE SERVING SIMULATOR");
    println!(
        "{:<14} {:<9} {:>6} {:>8} {:>7} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "Mix",
        "Policy",
        "Req",
        "Goodput",
        "Good%",
        "p95/ms",
        "Triggers",
        "Moves",
        "Mig/ms",
        "Declined"
    );

    let rows: Vec<_> = MixZoo::ALL
        .into_iter()
        .map(|mix| table_elastic_row(mix, budget, 42, &recorder))
        .collect();

    for row in &rows {
        for report in &row.reports {
            println!(
                "{:<14} {:<9} {:>6} {:>8} {:>6.1}% {:>8.2} {:>8} {:>8} {:>8.1} {:>9}",
                row.mix.name(),
                report.policy.name(),
                report.serve.total_requests,
                report.serve.goodput,
                100.0 * report.serve.goodput_rate(),
                report.serve.p95_ms,
                report.triggers_fired,
                report.placements_changed(),
                report.migration_seconds() * 1e3,
                report
                    .reconfigurations
                    .iter()
                    .filter(|e| e.declined())
                    .count(),
            );
        }
    }

    println!();
    for row in &rows {
        println!(
            "== {} | phases {} | reactive/static goodput {:.2}x | oracle/static {:.2}x ==",
            row.mix.name(),
            row.scenario.phases.len(),
            row.reactive_vs_static_goodput_gain(),
            row.oracle_vs_static_goodput_gain(),
        );
        for report in &row.reports {
            for e in &report.reconfigurations {
                println!(
                    "   {}: t={:.2}s {} -> {} ({} workloads moved, {:.1} ms transfer{})",
                    report.policy.name(),
                    e.decided_at,
                    e.reason,
                    if e.applied {
                        format!("active {:.2}s", e.activated_at)
                    } else if e.declined() {
                        "declined (migration budget)".to_string()
                    } else {
                        "incumbent confirmed".to_string()
                    },
                    e.migration.migrated.len(),
                    e.migration.seconds * 1e3,
                    if e.applied { "" } else { ", not charged" },
                );
            }
        }
        println!();
    }
    ctx.export(&recorder);
}
