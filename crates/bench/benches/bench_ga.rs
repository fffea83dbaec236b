//! Criterion bench for the mapping-search building blocks: whole-system
//! evaluation of a fixed mapping, the second-level strategy space, and the
//! ablation searches.

use criterion::{criterion_group, criterion_main, Criterion};
use mars_accel::{Catalog, DesignId};
use mars_core::{ablation, Assignment, Evaluator, GaConfig};
use mars_model::zoo;
use mars_topology::presets;
use std::collections::BTreeMap;

fn bench_evaluator(c: &mut Criterion) {
    let net = zoo::resnet34(1000);
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let evaluator = Evaluator::new(&net, &topo, &catalog);
    let half = net.len() / 2;
    let assignments = vec![
        Assignment::new(topo.group_members(0), DesignId(0), 0..half),
        Assignment::new(topo.group_members(1), DesignId(2), half..net.len()),
    ];
    c.bench_function("ga/evaluate-resnet34-two-sets", |b| {
        b.iter(|| evaluator.evaluate(&assignments, &BTreeMap::new()))
    });
}

fn bench_ablation_searches(c: &mut Criterion) {
    let net = zoo::alexnet(1000);
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let tiny = GaConfig {
        population: 6,
        generations: 4,
        ..GaConfig::first_level(1)
    };
    let mut group = c.benchmark_group("ga/ablation");
    group.sample_size(10);
    group.bench_function("single-level-tiny", |b| {
        b.iter(|| ablation::single_level_search(&net, &topo, &catalog, tiny))
    });
    group.bench_function("random-search-16", |b| {
        b.iter(|| ablation::random_search(&net, &topo, &catalog, 16, 1))
    });
    group.finish();
}

criterion_group!(benches, bench_evaluator, bench_ablation_searches);
criterion_main!(benches);
