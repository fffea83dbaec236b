//! E8 — fault-tolerant elastic serving: the bundled failure scenarios
//! (accelerator failures, restores and link degradations injected into the
//! phased traffic of `table_elastic`) served under `Static`, `Reactive` and
//! `Oracle`.  The story this table tells: Static collapses when its
//! partition dies, Reactive detects the topology change and re-plans on the
//! surviving sub-topology (a new *epoch*), Oracle recovers with zero
//! detection lag — the gap between the last two is the price of detection.
//!
//! ```sh
//! cargo run --release -p mars-bench --bin table_failover          # fast budget
//! MARS_BUDGET=full cargo run --release -p mars-bench --bin table_failover
//! ```

use mars_bench::{table_failover_row, BinContext};
use mars_model::zoo::MixZoo;

fn main() {
    let ctx = BinContext::from_env();
    let budget = ctx.budget;
    let recorder = ctx.recorder();
    ctx.print_header("TABLE FAILOVER: EPOCH-STYLE RECOVERY FROM ACCELERATOR FAILURES");
    println!(
        "{:<14} {:<9} {:>6} {:>8} {:>7} {:>8} {:>6} {:>8} {:>8} {:>9}",
        "Mix",
        "Policy",
        "Req",
        "Goodput",
        "Good%",
        "p95/ms",
        "Epoch",
        "Moves",
        "Mig/ms",
        "Declined"
    );

    let rows: Vec<_> = MixZoo::ALL
        .into_iter()
        .map(|mix| table_failover_row(mix, budget, 42, &recorder))
        .collect();

    for row in &rows {
        for report in &row.reports {
            println!(
                "{:<14} {:<9} {:>6} {:>8} {:>6.1}% {:>8.2} {:>6} {:>8} {:>8.1} {:>9}",
                row.mix.name(),
                report.policy.name(),
                report.serve.total_requests,
                report.serve.goodput,
                100.0 * report.serve.goodput_rate(),
                report.serve.p95_ms,
                report.final_epoch(),
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
            "== {} | {} fault events | reactive/static goodput {:.2}x | oracle/static {:.2}x ==",
            row.mix.name(),
            row.scenario.faults.len(),
            row.reactive_vs_static_goodput_gain(),
            row.oracle_vs_static_goodput_gain(),
        );
        for report in &row.reports {
            for e in &report.reconfigurations {
                let down: Vec<String> = e.down.iter().map(|a| a.0.to_string()).collect();
                println!(
                    "   {}: t={:.2}s epoch {} down=[{}] {} -> {} ({} workloads moved, {:.1} ms transfer{})",
                    report.policy.name(),
                    e.decided_at,
                    e.epoch,
                    down.join(","),
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
