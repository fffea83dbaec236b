//! Fault-tolerant serving quickstart: inject accelerator failures into a
//! phased trace and watch the three runtime policies cope — Static collapses
//! (its dead partition serves nothing), Reactive detects the topology change
//! and re-plans on the survivors, Oracle recovers with zero detection lag.
//!
//! ```sh
//! cargo run --release --example failover
//! ```

use mars::prelude::*;
use mars::serve::Trace;

fn main() {
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let config = RuntimeConfig::new(CoScheduleConfig::fast(42));

    for mix in mars::model::zoo::MixZoo::ALL {
        let workloads: Vec<Workload> = mix.entries();

        // The bundled failure scenario: the mix's phased traffic plus seeded
        // accelerator failures/restores and link degradations.
        let scenario: PhasedTraffic = mix.failure_scenario();
        let trace = Trace::phased(&scenario, 42).expect("bundled scenario is valid");
        println!(
            "{mix}: {} requests over {:.0}s, {} fault events",
            trace.total_requests(),
            scenario.horizon_seconds,
            scenario.faults.len()
        );

        let cache = InnerSearchCache::new();
        for policy in RuntimePolicy::ALL {
            let report = mars::runtime::run_elastic_with_cache(
                &workloads, &topo, &catalog, &scenario, &trace, policy, &config, &cache,
            )
            .expect("bundled scenario fits the platform");
            println!(
                "  {:<9} goodput {:>4}/{} ({:.1}%) | p95 {:>7.1} ms | epoch {} | {} changes, {:.0} ms migrating",
                policy.name(),
                report.serve.goodput,
                report.serve.total_requests,
                100.0 * report.serve.goodput_rate(),
                report.serve.p95_ms,
                report.final_epoch(),
                report.placements_changed(),
                report.migration_seconds() * 1e3,
            );
            for event in &report.reconfigurations {
                let down: Vec<String> = event.down.iter().map(|a| a.0.to_string()).collect();
                println!(
                    "            t={:5.2}s epoch {} down=[{:<3}] {:<28} -> {}",
                    event.decided_at,
                    event.epoch,
                    down.join(","),
                    event.reason.to_string(),
                    if event.changed() {
                        format!("re-planned, live at {:.2}s", event.activated_at)
                    } else if event.declined() {
                        "declined: migration over budget".to_string()
                    } else {
                        "incumbent confirmed".to_string()
                    }
                );
            }
        }
        println!();
    }
}
