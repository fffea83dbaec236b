//! E8 — fleet-scale serving: the 144-workload, 288-accelerator
//! [`MixZoo::fleet`] scenario (phased traffic plus its bundled failure
//! schedule) replayed under every dispatch policy on the partition-sharded
//! runner, followed by the engine head-to-head: the calendar-queue engine
//! against the legacy linear-scan oracle on an identical event-by-event
//! drive.  The oracle comparison is load-bearing — the row builder asserts
//! the two engines' reports are bit-identical before any throughput number
//! is printed.
//!
//! ```sh
//! cargo run --release -p mars-bench --bin table_fleet
//! MARS_THREADS=8 cargo run --release -p mars-bench --bin table_fleet
//! cargo run --release -p mars-bench --bin table_fleet -- --trace fleet.json   # open in Perfetto
//! ```

use mars_bench::{table_fleet_row, BinContext};
use mars_model::zoo::MixZoo;

fn main() {
    let ctx = BinContext::from_env();
    ctx.print_shard_header("TABLE FLEET: CALENDAR-QUEUE ENGINE AT FLEET SCALE");
    let recorder = ctx.recorder();

    let row = table_fleet_row(42, &recorder);
    println!(
        "fleet: {} workloads on {} accelerators, {} requests over {:.1}s horizon, {} fault events",
        row.workloads,
        row.accels,
        row.trace.total_requests(),
        row.trace.horizon_seconds,
        MixZoo::fleet().traffic.faults.len(),
    );
    println!(
        "{:<6} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8} {:>9} {:>6}",
        "Policy", "Req", "Done", "MetSLA", "p50/ms", "p95/ms", "p99/ms", "Thruput/s", "Util%"
    );
    for report in &row.reports {
        println!(
            "{:<6} {:>7} {:>7} {:>8} {:>8.2} {:>8.2} {:>8.2} {:>9.1} {:>6.1}",
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

    println!();
    println!(
        "engine head-to-head, event-by-event drive ({} events: {} arrivals + {} batches):",
        row.events,
        row.events - row.batches,
        row.batches
    );
    println!(
        "  calendar engine: {:>12.0} events/s  ({:.4}s wall clock)",
        row.events_per_second(),
        row.calendar_seconds
    );
    println!(
        "  legacy oracle:   {:>12.0} events/s  ({:.4}s wall clock)",
        row.legacy_events_per_second(),
        row.legacy_seconds
    );
    println!(
        "  speedup: {:.1}x (acceptance floor: 5x)",
        row.engine_speedup()
    );
    ctx.export(&recorder);
}
