//! Differential harness for the rebuilt search core: the flat engine must be
//! *bit-identical* to the retained reference engine — same mappings, same
//! fitness histories, same evaluation counts — on every bundled workload, at
//! every worker-thread count.
//!
//! Three layers of coverage:
//!
//! - single-model adaptive searches on all five Table III benchmarks;
//! - single-model searches in Table IV's setting: both heterogeneous models
//!   on the H2H platform at every bandwidth level, with fixed per-group
//!   designs (so mixed-design sets take the fixed-design pricing path);
//! - full co-schedules on all bundled MixZoo mixes, where the engines run as
//!   the *inner* per-workload search under the outer partition GA.
//!
//! Wall-clock stats (`elapsed`, cache hit/miss counters) are the only fields
//! allowed to differ: the engines share the trajectory, not the timing.

use mars_accel::Catalog;
use mars_bench::Budget;
use mars_core::{baseline, co_schedule, CoScheduleResult, Mars, SearchEngine, SearchResult};
use mars_model::zoo::{self, Benchmark, MixZoo};
use mars_topology::presets;

/// Field-wise equality of two search outcomes: the mapping (latency bits,
/// assignments, strategies), the fitness history and the evaluation count.
fn assert_searches_identical(label: &str, a: &SearchResult, b: &SearchResult) {
    assert_eq!(
        a.mapping.latency_seconds.to_bits(),
        b.mapping.latency_seconds.to_bits(),
        "{label}: search engines diverged on latency"
    );
    assert_eq!(a.mapping.assignments, b.mapping.assignments, "{label}");
    assert_eq!(a.mapping.strategies, b.mapping.strategies, "{label}");
    assert_eq!(a.history, b.history, "{label}");
    assert_eq!(a.evaluations, b.evaluations, "{label}");
}

/// Runs the mix's co-schedule with the given inner search engine.
fn co_schedule_with_engine(mix: MixZoo, threads: usize, engine: SearchEngine) -> CoScheduleResult {
    let workloads = mix.entries();
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let mut config = Budget::Fast.co_schedule_config(77).with_threads(threads);
    config.inner = config.inner.with_engine(engine);
    co_schedule(&workloads, &topo, &catalog, &config).expect("bundled mixes fit the F1 platform")
}

/// Field-wise equality of two co-schedule outcomes, `elapsed` excluded.
fn assert_co_schedules_identical(mix: MixZoo, a: &CoScheduleResult, b: &CoScheduleResult) {
    assert_eq!(
        a.makespan_seconds.to_bits(),
        b.makespan_seconds.to_bits(),
        "{mix:?}: makespans diverged"
    );
    assert_eq!(
        a.weighted_makespan_seconds.to_bits(),
        b.weighted_makespan_seconds.to_bits()
    );
    assert_eq!(a.outer_history, b.outer_history, "{mix:?}");
    assert_eq!(a.outer_evaluations, b.outer_evaluations);
    assert_eq!(a.inner_searches, b.inner_searches);
    assert_eq!(a.placements.len(), b.placements.len());
    for (pa, pb) in a.placements.iter().zip(&b.placements) {
        assert_eq!(pa.workload, pb.workload);
        let label = format!("{mix:?} workload {}", pa.workload);
        assert_eq!(pa.accels, pb.accels, "{label}");
        assert_searches_identical(&label, &pa.result, &pb.result);
    }
}

/// Every Table III benchmark on F1, both engines, at the `table3` seeds
/// (40 + row).
#[test]
fn engines_agree_on_all_benchmarks_serial() {
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    for (i, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        let net = benchmark.build();
        let config = Budget::Fast.search_config(40 + i as u64);
        let search = |engine| {
            Mars::new(&net, &topo, &catalog)
                .with_config(config.with_engine(engine))
                .search()
        };
        let flat = search(SearchEngine::Flat);
        assert!(flat.evaluations > 0);
        assert_searches_identical(
            &format!("{benchmark:?}"),
            &flat,
            &search(SearchEngine::Reference),
        );
    }
}

/// Table IV's setting: both heterogeneous models at every H2H bandwidth
/// level with the default fixed per-group designs, both engines, at the
/// `table4` seeds (90 + model).
#[test]
fn engines_agree_on_table4_fixed_designs() {
    let catalog = Catalog::h2h_heterogeneous();
    for (i, net) in [zoo::casia_surf_like(), zoo::facebagnet_like()]
        .iter()
        .enumerate()
    {
        let config = Budget::Fast.search_config(90 + i as u64);
        for (label, gbps) in presets::h2h_bandwidth_levels() {
            let topo = presets::h2h_cloud(gbps);
            let designs = baseline::default_fixed_designs(&topo, &catalog);
            let search = |engine| {
                Mars::new(net, &topo, &catalog)
                    .with_fixed_designs(designs.clone())
                    .with_config(config.with_engine(engine))
                    .search()
            };
            assert_searches_identical(
                &format!("{} at {label}", net.name()),
                &search(SearchEngine::Flat),
                &search(SearchEngine::Reference),
            );
        }
    }
}

/// The engine contract is thread-count invariant: the same benchmark at 1
/// and 4 workers produces one identical trajectory for both engines.
#[test]
fn engines_agree_on_all_mixes_at_one_and_four_threads() {
    for mix in MixZoo::ALL {
        let mut serial_flat: Option<CoScheduleResult> = None;
        for threads in [1usize, 4] {
            let flat = co_schedule_with_engine(mix, threads, SearchEngine::Flat);
            let reference = co_schedule_with_engine(mix, threads, SearchEngine::Reference);
            assert_co_schedules_identical(mix, &flat, &reference);
            // Thread count changes nothing either — one trajectory total.
            if let Some(serial) = &serial_flat {
                assert_co_schedules_identical(mix, serial, &flat);
            } else {
                serial_flat = Some(flat);
            }
        }
    }
}
