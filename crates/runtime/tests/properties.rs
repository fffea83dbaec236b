//! Integration tests of the elastic runtime's contracts:
//!
//! * trigger sequences and whole elastic reports are bit-identical across
//!   `MARS_THREADS` worker counts and repeat runs;
//! * re-scheduling onto the incumbent placement migrates nothing;
//! * fault handling is strictly additive (an empty fault list changes
//!   nothing), recovery placements never target a downed accelerator, and
//!   applied reconfigurations carry strictly increasing epochs.

use mars_accel::Catalog;
use mars_core::{co_schedule, CoScheduleConfig, GaConfig, InnerSearchCache, Workload};
use mars_model::zoo;
use mars_model::{FaultEvent, PhasedTraffic, TrafficPhase, TrafficProfile};
use mars_runtime::{migration_cost, run_elastic_with_cache, RuntimeConfig, RuntimePolicy};
use mars_serve::Trace;
use mars_topology::presets;

fn tiny_schedule(seed: u64) -> CoScheduleConfig {
    CoScheduleConfig {
        outer: GaConfig {
            population: 4,
            generations: 1,
            ..GaConfig::first_level(seed)
        },
        ..CoScheduleConfig::fast(seed)
    }
}

fn small_workloads() -> Vec<Workload> {
    vec![
        Workload::new(zoo::alexnet(100))
            .with_batch(4)
            .with_weight(1.5),
        Workload::new(zoo::alexnet(10)).with_batch(2),
    ]
}

/// Per-workload placement latencies of the runtime's starting co-schedule —
/// the anchor for building scenarios with known load factors.
fn placement_latencies(workloads: &[Workload], seed: u64) -> Vec<f64> {
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let co = co_schedule(workloads, &topo, &catalog, &tiny_schedule(seed)).unwrap();
    co.placements
        .iter()
        .map(|p| p.result.mapping.latency_seconds)
        .collect()
}

/// Stationary traffic end to end: the reactive runtime never triggers, never
/// reconfigures, and lands on the exact same report as the static runtime.
#[test]
fn stationary_traffic_reactive_equals_static_with_zero_triggers() {
    let workloads = small_workloads();
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let lat = placement_latencies(&workloads, 5);
    // Moderate load on both lanes: ~25% of the deadline-feasible rate.
    let profiles: Vec<TrafficProfile> = lat
        .iter()
        .map(|l| TrafficProfile::new((0.25 * 0.8 / l).min(400.0), 5.0))
        .collect();
    let scenario = PhasedTraffic::stationary(profiles, 4.0);
    let trace = Trace::phased(&scenario, 11).unwrap();
    let config = RuntimeConfig::new(tiny_schedule(5));

    let cache = InnerSearchCache::new();
    let run = |policy| {
        run_elastic_with_cache(
            &workloads, &topo, &catalog, &scenario, &trace, policy, &config, &cache,
        )
        .unwrap()
    };
    let reactive = run(RuntimePolicy::Reactive);
    assert_eq!(
        reactive.triggers_fired, 0,
        "stationary traffic must not trigger"
    );
    assert!(reactive.reconfigurations.is_empty());
    let static_run = run(RuntimePolicy::Static);
    assert_eq!(reactive.serve, static_run.serve);
    // A single-phase scenario has no boundaries, so the oracle is static too.
    let oracle = run(RuntimePolicy::Oracle);
    assert_eq!(oracle.serve, static_run.serve);
    assert!(oracle.reconfigurations.is_empty());
}

/// A genuine surge: the monitor fires, and the whole elastic report —
/// triggers, reconfigurations, serving outcome — is bit-identical across
/// `MARS_THREADS` worker counts and repeat runs.
#[test]
fn elastic_report_is_bit_identical_across_thread_counts() {
    let workloads = small_workloads();
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let lat = placement_latencies(&workloads, 5);
    // Healthy warm-up, then workload 0 surges to 3x its feasible rate.
    let warm: Vec<TrafficProfile> = lat
        .iter()
        .map(|l| TrafficProfile::new(0.25 * 0.8 / l, 5.0))
        .collect();
    let mut surge = warm.clone();
    surge[0] = TrafficProfile::new(3.0 * 0.8 / lat[0], 5.0);
    let scenario = PhasedTraffic::new(
        6.0,
        vec![TrafficPhase::new(0.0, warm), TrafficPhase::new(2.0, surge)],
    );
    let trace = Trace::phased(&scenario, 11).unwrap();

    let run = |threads: usize| {
        let config = RuntimeConfig::new(tiny_schedule(5).with_threads(threads));
        run_elastic_with_cache(
            &workloads,
            &topo,
            &catalog,
            &scenario,
            &trace,
            RuntimePolicy::Reactive,
            &config,
            &InnerSearchCache::new(),
        )
        .unwrap()
    };
    let serial = run(1);
    assert!(serial.triggers_fired > 0, "the surge must be detected");
    let again = run(1);
    let parallel = run(4);
    for other in [&again, &parallel] {
        assert_eq!(&serial, other);
        assert_eq!(
            serial.serve.p99_ms.to_bits(),
            other.serve.p99_ms.to_bits(),
            "percentiles must match to the bit"
        );
    }
    // The oracle sees the same scenario boundaries at every thread count too.
    let oracle = |threads: usize| {
        let config = RuntimeConfig::new(tiny_schedule(5).with_threads(threads));
        run_elastic_with_cache(
            &workloads,
            &topo,
            &catalog,
            &scenario,
            &trace,
            RuntimePolicy::Oracle,
            &config,
            &InnerSearchCache::new(),
        )
        .unwrap()
    };
    assert_eq!(oracle(1), oracle(4));
}

/// Re-scheduling onto the incumbent placement is free: zero migration
/// seconds, zero bytes, no lane listed — whatever the placement.
#[test]
fn unchanged_placement_always_migrates_for_free() {
    let workloads = small_workloads();
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    for seed in [3, 5, 7] {
        let co = co_schedule(&workloads, &topo, &catalog, &tiny_schedule(seed)).unwrap();
        let cost = migration_cost(&topo, &workloads, &co, &co);
        assert!(cost.is_free(), "seed {seed}");
        assert_eq!(cost.seconds.to_bits(), 0.0f64.to_bits());
        assert_eq!(cost.bytes, 0);
        assert!(cost.migrated.is_empty());
    }
}

/// A two-phase surge scenario shared by the fault tests: healthy warm-up,
/// then workload 0 surges to 3x its feasible rate at t=2.
fn surge_scenario(lat: &[f64]) -> PhasedTraffic {
    let warm: Vec<TrafficProfile> = lat
        .iter()
        .map(|l| TrafficProfile::new(0.25 * 0.8 / l, 5.0))
        .collect();
    let mut surge = warm.clone();
    surge[0] = TrafficProfile::new(3.0 * 0.8 / lat[0], 5.0);
    PhasedTraffic::new(
        6.0,
        vec![TrafficPhase::new(0.0, warm), TrafficPhase::new(2.0, surge)],
    )
}

/// Fault handling is strictly additive: a scenario whose fault list is
/// explicitly empty produces bit-identical reports to the same scenario
/// without the builder call, for every policy.
#[test]
fn empty_fault_list_is_bit_identical_to_a_fault_free_run() {
    let workloads = small_workloads();
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let lat = placement_latencies(&workloads, 5);
    let plain = surge_scenario(&lat);
    let stripped = plain.clone().with_faults(vec![]);
    let config = RuntimeConfig::new(tiny_schedule(5));
    for policy in RuntimePolicy::ALL {
        let run = |s: &PhasedTraffic| {
            let trace = Trace::phased(s, 11).unwrap();
            let cache = InnerSearchCache::new();
            run_elastic_with_cache(
                &workloads, &topo, &catalog, s, &trace, policy, &config, &cache,
            )
            .unwrap()
        };
        assert_eq!(run(&plain), run(&stripped), "{policy} diverged");
    }
}

/// Under injected failures: no applied reconfiguration ever places a
/// workload on a downed accelerator, applied epochs increase strictly, the
/// reactive runtime actually recovers (at least one applied change), and
/// the whole faulted report stays bit-identical across thread counts.
#[test]
fn recovery_placements_avoid_downed_accels_and_epochs_increase() {
    let workloads = small_workloads();
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let lat = placement_latencies(&workloads, 5);
    // Knock out both accelerators of workload 0's starting partition, then
    // bring one back: the run crosses a fail *and* a restore epoch.
    let co = co_schedule(&workloads, &topo, &catalog, &tiny_schedule(5)).unwrap();
    let victim = co.placements[0].accels[0].0;
    let scenario = surge_scenario(&lat).with_faults(vec![
        FaultEvent::accel_down(1.0, victim),
        FaultEvent::accel_restored(4.0, victim),
    ]);
    scenario.validate().unwrap();
    let trace = Trace::phased(&scenario, 11).unwrap();

    let run = |policy, threads: usize| {
        let config = RuntimeConfig::new(tiny_schedule(5).with_threads(threads));
        let cache = InnerSearchCache::new();
        run_elastic_with_cache(
            &workloads, &topo, &catalog, &scenario, &trace, policy, &config, &cache,
        )
        .unwrap()
    };
    for policy in [RuntimePolicy::Reactive, RuntimePolicy::Oracle] {
        let report = run(policy, 1);
        assert!(
            report.placements_changed() >= 1,
            "{policy} must recover from the failure"
        );
        let mut last_epoch = 0u64;
        for e in &report.reconfigurations {
            if e.applied {
                assert!(e.epoch > last_epoch, "{policy}: epochs must increase");
                last_epoch = e.epoch;
                for accels in &e.accels {
                    assert!(
                        accels.iter().all(|a| !e.down.contains(a)),
                        "{policy}: applied placement targets a downed accel"
                    );
                }
            }
        }
        assert_eq!(report.final_epoch(), last_epoch);
        assert_eq!(report, run(policy, 4), "{policy} not thread-invariant");
    }
}

/// Malformed inputs are rejected up front with the matching error.
#[test]
fn degenerate_inputs_are_rejected() {
    use mars_runtime::ElasticError;
    let workloads = small_workloads();
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let profiles = vec![
        TrafficProfile::new(50.0, 5.0),
        TrafficProfile::new(50.0, 5.0),
    ];
    let scenario = PhasedTraffic::stationary(profiles.clone(), 2.0);
    let trace = Trace::phased(&scenario, 3).unwrap();
    let config = RuntimeConfig::new(tiny_schedule(1));
    let run = |w: &[Workload], s: &PhasedTraffic, t: &Trace, c: &RuntimeConfig| {
        let cache = InnerSearchCache::new();
        run_elastic_with_cache(w, &topo, &catalog, s, t, RuntimePolicy::Reactive, c, &cache)
    };

    // Scenario shape vs workloads.
    let one_profile = PhasedTraffic::stationary(vec![profiles[0]], 2.0);
    assert!(matches!(
        run(
            &workloads,
            &one_profile,
            &Trace::phased(&one_profile, 3).unwrap(),
            &config
        ),
        Err(ElasticError::ShapeMismatch { .. })
    ));
    // Trace horizon vs scenario horizon.
    let longer = PhasedTraffic::stationary(profiles.clone(), 3.0);
    assert!(matches!(
        run(&workloads, &longer, &trace, &config),
        Err(ElasticError::HorizonMismatch { .. })
    ));
    // Malformed scenario.
    let empty = PhasedTraffic::new(2.0, Vec::new());
    assert!(matches!(
        run(&workloads, &empty, &trace, &config),
        Err(ElasticError::Traffic(_))
    ));
    // A fault naming an accelerator the topology does not have.
    let phantom = scenario
        .clone()
        .with_faults(vec![FaultEvent::accel_down(1.0, 99)]);
    assert!(matches!(
        run(&workloads, &phantom, &trace, &config),
        Err(ElasticError::FaultAccelOutOfRange { accel: 99, .. })
    ));
}

/// A horizon past 10⁶ monitor windows (500,000 s at 0.5 s windows) is
/// outside input, not a knob: it is rejected with a typed error before the
/// runtime runs a single search.
#[test]
fn overlong_horizon_is_rejected_before_any_search() {
    use mars_runtime::ElasticError;
    let workloads = small_workloads();
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    // Zero-rate profiles keep the 500,001 s trace empty.
    let scenario = PhasedTraffic::stationary(vec![TrafficProfile::new(0.0, 5.0); 2], 500_001.0);
    let trace = Trace::phased(&scenario, 3).unwrap();
    let cache = InnerSearchCache::new();
    let result = run_elastic_with_cache(
        &workloads,
        &topo,
        &catalog,
        &scenario,
        &trace,
        RuntimePolicy::Reactive,
        &RuntimeConfig::new(tiny_schedule(1)),
        &cache,
    );
    assert_eq!(
        result,
        Err(ElasticError::HorizonTooLong {
            horizon: 500_001.0,
            max: 500_000.0
        })
    );
    assert_eq!(cache.searches_run(), 0);
}

/// A catalog with no design is the co-scheduler's typed error, passed
/// through before any search runs.
#[test]
fn empty_catalog_is_a_typed_schedule_error() {
    use mars_core::CoScheduleError;
    use mars_runtime::ElasticError;
    let workloads = small_workloads();
    let topo = presets::f1_16xlarge();
    let scenario = PhasedTraffic::stationary(vec![TrafficProfile::new(50.0, 5.0); 2], 1.0);
    let trace = Trace::phased(&scenario, 3).unwrap();
    let cache = InnerSearchCache::new();
    let result = run_elastic_with_cache(
        &workloads,
        &topo,
        &Catalog::new(),
        &scenario,
        &trace,
        RuntimePolicy::Reactive,
        &RuntimeConfig::new(tiny_schedule(1)),
        &cache,
    );
    assert_eq!(
        result,
        Err(ElasticError::Schedule(CoScheduleError::EmptyCatalog))
    );
    assert_eq!(cache.searches_run(), 0);
}

/// One cache serves every policy, fault re-plans on the survivors included:
/// on each bundled failure scenario, Static, Reactive and Oracle sharing one
/// cache report exactly what they report on three fresh caches, and run
/// fewer inner searches in total.
#[test]
fn policies_sharing_one_cache_match_fresh_caches_with_fewer_searches() {
    let topo = presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let config = RuntimeConfig::new(CoScheduleConfig::fast(42));
    for mix in zoo::MixZoo::ALL {
        let workloads = mix.entries();
        let scenario = mix.failure_scenario();
        let trace = Trace::phased(&scenario, 42).unwrap();
        let run = |policy, cache: &InnerSearchCache| {
            let report = run_elastic_with_cache(
                &workloads, &topo, &catalog, &scenario, &trace, policy, &config, cache,
            )
            .unwrap();
            // `Debug` prints every f64 in its shortest round-trip form, so
            // equal renderings mean equal bits.
            format!("{report:?}")
        };
        let shared = InnerSearchCache::new();
        let mut fresh_searches = 0;
        for policy in RuntimePolicy::ALL {
            let fresh = InnerSearchCache::new();
            let alone = run(policy, &fresh);
            fresh_searches += fresh.searches_run();
            assert_eq!(run(policy, &shared), alone, "{mix}/{policy}");
        }
        assert!(
            shared.searches_run() < fresh_searches,
            "{mix}: shared cache ran {} searches, fresh caches {fresh_searches}",
            shared.searches_run()
        );
    }
}
