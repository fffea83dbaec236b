//! Criterion bench for E2 (Table III): baseline mapper and MARS search time
//! and resulting latency on the F1-style platform.
//!
//! The *measured quantity* here is harness runtime (how long the mappers take
//! to produce a decision); the *reported artefact* of Table III — the mapped
//! inference latency — is printed by the `table3` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mars_accel::Catalog;
use mars_bench::{table3_row, Budget};
use mars_core::baseline;
use mars_model::zoo::Benchmark;
use mars_obs::Recorder;
use mars_topology::presets;

fn bench_baseline_mapper(c: &mut Criterion) {
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let mut group = c.benchmark_group("table3/baseline");
    group.sample_size(10);
    for benchmark in [Benchmark::AlexNet, Benchmark::ResNet34] {
        let net = benchmark.build();
        group.bench_with_input(
            BenchmarkId::from_parameter(benchmark.name()),
            &net,
            |b, net| b.iter(|| baseline::computation_prioritized(net, &topo, &catalog)),
        );
    }
    group.finish();
}

fn bench_mars_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3/mars-search");
    group.sample_size(10);
    for benchmark in [Benchmark::AlexNet, Benchmark::Vgg16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(benchmark.name()),
            &benchmark,
            |b, &bm| b.iter(|| table3_row(bm, Budget::Fast, 1, &Recorder::disabled())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_baseline_mapper, bench_mars_search);
criterion_main!(benches);
