//! Elastic serving quickstart: serve a *non-stationary* phased trace and
//! compare never re-scheduling (Static) with drift-triggered warm-started
//! re-scheduling (Reactive) and phase-boundary clairvoyance (Oracle).
//!
//! ```sh
//! cargo run --release --example elastic
//! ```

use mars::prelude::*;
use mars::serve::Trace;

fn main() {
    let mix = mars::model::zoo::MixZoo::HeteroTriple;
    let workloads: Vec<Workload> = mix.entries();
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();

    // The bundled non-stationary scenario: a healthy warm-up, a BERT surge,
    // then BERT departs and ResNet surges.
    let scenario: PhasedTraffic = mix.phased_traffic();
    let trace = Trace::phased(&scenario, 42).expect("bundled scenario is valid");
    println!(
        "{mix}: {} requests over {:.0}s across {} phases\n",
        trace.total_requests(),
        scenario.horizon_seconds,
        scenario.phases.len()
    );

    let config = RuntimeConfig::new(CoScheduleConfig::fast(42));
    let cache = InnerSearchCache::new();
    for policy in RuntimePolicy::ALL {
        let report = mars::runtime::run_elastic_with_cache(
            &workloads, &topo, &catalog, &scenario, &trace, policy, &config, &cache,
        )
        .expect("bundled scenario fits the platform");
        println!(
            "{:<9} goodput {:>4}/{} ({:.1}%) | p95 {:>7.1} ms | {} triggers, {} placement changes, {:.0} ms migrating",
            policy.name(),
            report.serve.goodput,
            report.serve.total_requests,
            100.0 * report.serve.goodput_rate(),
            report.serve.p95_ms,
            report.triggers_fired,
            report.placements_changed(),
            report.migration_seconds() * 1e3,
        );
        for event in &report.reconfigurations {
            println!(
                "          t={:5.2}s {:<22} -> {}",
                event.decided_at,
                event.reason.to_string(),
                if event.changed() {
                    format!(
                        "moved {} workloads, live at {:.2}s",
                        event.migration.migrated.len(),
                        event.activated_at
                    )
                } else if event.declined() {
                    "declined: migration over budget".to_string()
                } else {
                    "incumbent confirmed".to_string()
                }
            );
        }
    }
}
