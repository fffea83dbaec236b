//! Acceptance tests for multi-DNN co-scheduling: `mars::co_schedule` must
//! place distinct networks on disjoint accelerator subsets of one topology,
//! beat sequential-exclusive execution on the bundled mixes at the default
//! seed, and be bit-identical across worker-thread counts.

use mars::model::zoo::MixZoo;
use mars::prelude::*;
use std::collections::BTreeSet;

/// The default seed of the bundled experiments (`table_multi` uses 42 + row).
const DEFAULT_SEED: u64 = 42;

fn mix_workloads(mix: MixZoo) -> Vec<Workload> {
    mix.entries()
}

/// The mix's co-schedule and its sequential-exclusive baseline, searched
/// through one cache.
fn run(mix: MixZoo, threads: usize) -> (Vec<Workload>, CoScheduleResult, SequentialBaseline) {
    let workloads = mix_workloads(mix);
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let config = CoScheduleConfig::fast(DEFAULT_SEED).with_threads(threads);
    let cache = InnerSearchCache::new();
    let result = mars::core::co_schedule_cached(&workloads, &topo, &catalog, &config, &cache)
        .expect("bundled mix fits the F1 platform");
    let sequential = mars::core::sequential_exclusive(&workloads, &topo, &catalog, &config, &cache)
        .expect("bundled mix fits the F1 platform");
    (workloads, result, sequential)
}

#[test]
fn places_distinct_networks_on_disjoint_subsets_of_one_topology() {
    let (workloads, result, _) = run(MixZoo::ClassicPair, 1);
    let topo = mars::topology::presets::f1_16xlarge();

    assert!(result.is_valid());
    assert_eq!(result.placements.len(), workloads.len());

    // At least two *distinct* networks are placed.
    let names: BTreeSet<&str> = result.placements.iter().map(|p| p.name.as_str()).collect();
    assert!(names.len() >= 2, "placements: {names:?}");

    // The subsets are non-empty, pairwise disjoint, and cover the platform.
    let mut all: Vec<AccelId> = Vec::new();
    for p in &result.placements {
        assert!(!p.accels.is_empty(), "{} got no accelerators", p.name);
        all.extend(p.accels.iter().copied());
    }
    let total = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), total, "accelerator subsets overlap");
    assert_eq!(all, topo.accelerators().collect::<Vec<_>>());

    // Every placement's mapping stays inside its own subset and covers its
    // network's layers.
    for p in &result.placements {
        let subset: BTreeSet<AccelId> = p.accels.iter().copied().collect();
        let net = &workloads[p.workload].network;
        for a in &p.result.mapping.assignments {
            assert!(a.accels.iter().all(|id| subset.contains(id)));
        }
        for idx in 0..net.len() {
            assert!(
                p.result.mapping.assignment_for_layer(idx).is_some(),
                "{}: layer {idx} uncovered",
                p.name
            );
        }
    }
}

#[test]
fn weighted_makespan_beats_sequential_exclusive_on_the_bundled_mix() {
    let (_, result, sequential) = run(MixZoo::ClassicPair, 1);
    assert!(
        result.weighted_makespan_seconds < sequential.weighted_makespan_seconds,
        "co-scheduled weighted makespan {:.3} ms must beat sequential-exclusive {:.3} ms",
        result.weighted_makespan_seconds * 1e3,
        sequential.weighted_makespan_seconds * 1e3,
    );
    assert!(
        result.makespan_seconds < sequential.makespan_seconds,
        "co-scheduled makespan {:.3} ms must beat sequential-exclusive {:.3} ms",
        result.makespan_ms(),
        sequential.makespan_ms(),
    );
    assert!(sequential.speedup_of(&result) > 1.0);
    assert!(result.throughput_per_second() > 0.0);
}

#[test]
fn co_schedule_is_bit_identical_across_one_and_four_threads() {
    let (_, serial, serial_seq) = run(MixZoo::ClassicPair, 1);
    let (_, parallel, parallel_seq) = run(MixZoo::ClassicPair, 4);

    assert_eq!(
        serial.makespan_seconds.to_bits(),
        parallel.makespan_seconds.to_bits()
    );
    assert_eq!(
        serial.weighted_makespan_seconds.to_bits(),
        parallel.weighted_makespan_seconds.to_bits()
    );
    assert_eq!(
        serial_seq.makespan_seconds.to_bits(),
        parallel_seq.makespan_seconds.to_bits()
    );
    assert_eq!(serial.outer_history, parallel.outer_history);
    assert_eq!(serial.outer_evaluations, parallel.outer_evaluations);
    assert_eq!(serial.placements.len(), parallel.placements.len());
    for (a, b) in serial.placements.iter().zip(&parallel.placements) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.accels, b.accels);
        assert_eq!(
            a.result.mapping.latency_seconds.to_bits(),
            b.result.mapping.latency_seconds.to_bits()
        );
        assert_eq!(a.result.mapping.assignments, b.result.mapping.assignments);
        assert_eq!(a.result.mapping.strategies, b.result.mapping.strategies);
    }
}

/// The heavier bundled mixes also win at the default seed.
#[test]
fn heavier_bundled_mixes_also_beat_sequential_exclusive() {
    for mix in [MixZoo::ResNetSurf, MixZoo::HeteroTriple] {
        let (_, result, sequential) = run(mix, 1);
        assert!(result.is_valid(), "{mix}: invalid co-schedule");
        assert!(
            result.weighted_makespan_seconds < sequential.weighted_makespan_seconds,
            "{mix}: weighted {:.3} ms vs sequential {:.3} ms",
            result.weighted_makespan_seconds * 1e3,
            sequential.weighted_makespan_seconds * 1e3,
        );
        assert!(
            sequential.speedup_of(&result) > 1.0,
            "{mix}: speedup {:.2}",
            sequential.speedup_of(&result)
        );
    }
}

/// The report renders the system line and one line per workload.
#[test]
fn co_schedule_report_covers_every_workload() {
    let (workloads, result, sequential) = run(MixZoo::ClassicPair, 1);
    let text = mars::core::report::render_co_schedule(&workloads, &result, &sequential);
    assert!(text.contains("makespan"));
    assert!(text.contains("speedup"));
    for w in &workloads {
        assert!(
            text.contains(w.network.name()),
            "report misses {}",
            w.network.name()
        );
    }
}
