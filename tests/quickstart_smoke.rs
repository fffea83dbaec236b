//! Smoke test for the `examples/quickstart.rs` flow: the same facade path —
//! model zoo → preset topology → catalogue → baseline → `Mars` search →
//! report rendering — guarded to a tiny GA budget so it stays fast under
//! `cargo test` and in CI.

use mars::prelude::*;

/// The quickstart example's search, shrunk to the smallest useful budget:
/// 6 individuals and 4 generations at both levels.
fn smoke_config(seed: u64) -> SearchConfig {
    let small = |seed| GaConfig {
        population: 6,
        generations: 4,
        ..GaConfig::first_level(seed)
    };
    SearchConfig {
        first_level: small(seed),
        second_level: small(seed.wrapping_add(1)),
        ..SearchConfig::fast(seed)
    }
}

#[test]
fn quickstart_flow_runs_end_to_end_on_the_facade() {
    // Same workload family as the example (the example uses ResNet-34; the
    // smoke test uses ResNet-18 to keep debug-profile CI under a second).
    let net = mars::model::zoo::resnet18(1000);
    assert!(!net.summary().is_empty());

    let topo = mars::topology::presets::f1_16xlarge();
    assert!(!topo.to_string().is_empty());

    let catalog = Catalog::standard_three();
    assert!(!catalog.to_string().is_empty());

    let baseline = mars::core::baseline::computation_prioritized(&net, &topo, &catalog);
    assert!(baseline.latency_ms() > 0.0 && baseline.latency_ms().is_finite());

    let result = Mars::new(&net, &topo, &catalog)
        .with_config(smoke_config(42))
        .search();
    assert!(result.latency_ms() > 0.0 && result.latency_ms().is_finite());
    assert!(result.mapping.is_valid());

    // Seeded with the baseline-like individual, the search never regresses.
    assert!(result.mapping.latency_seconds <= baseline.latency_seconds * 1.001);

    // The Table III-style report renders without panicking.
    let report = mars::core::report::render(&net, &result.mapping);
    assert!(
        report.contains("Conv"),
        "report should mention conv layers:\n{report}"
    );
}

#[test]
fn quickstart_flow_is_deterministic_for_a_fixed_seed() {
    let net = mars::model::zoo::alexnet(1000);
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();

    let a = Mars::new(&net, &topo, &catalog)
        .with_config(smoke_config(7))
        .search();
    let b = Mars::new(&net, &topo, &catalog)
        .with_config(smoke_config(7))
        .search();
    assert_eq!(
        a.mapping.latency_seconds.to_bits(),
        b.mapping.latency_seconds.to_bits()
    );
}
