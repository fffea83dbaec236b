//! Acceptance tests for the elastic runtime, through the `mars` facade: the
//! same phased trace and seed must produce bit-identical `ElasticReport`s
//! regardless of the worker-thread count of the underlying co-schedule
//! searches, the policies must respect their contracts (Static never moves,
//! the Oracle only moves at phase boundaries), and the bundled scenarios
//! must actually be non-stationary.

use mars::model::zoo::MixZoo;
use mars::prelude::*;
use mars::serve::Trace;

const DEFAULT_SEED: u64 = 42;

/// A reduced-budget runtime config so the acceptance suite stays fast; the
/// full fast-budget comparison lives in the golden test
/// (`golden_table_elastic_goodput`).
fn tiny_runtime(threads: usize) -> RuntimeConfig {
    let schedule = CoScheduleConfig {
        outer: GaConfig {
            population: 4,
            generations: 1,
            ..GaConfig::first_level(DEFAULT_SEED)
        },
        ..CoScheduleConfig::fast(DEFAULT_SEED)
    }
    .with_threads(threads);
    RuntimeConfig::new(schedule)
}

fn run_mix(mix: MixZoo, policy: RuntimePolicy, threads: usize) -> ElasticReport {
    let workloads: Vec<Workload> = mix.entries();
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let scenario: PhasedTraffic = mix.phased_traffic();
    let trace = Trace::phased(&scenario, DEFAULT_SEED).expect("bundled scenario is valid");
    run_elastic_with_cache(
        &workloads,
        &topo,
        &catalog,
        &scenario,
        &trace,
        policy,
        &tiny_runtime(threads),
        &InnerSearchCache::new(),
    )
    .expect("bundled scenario fits the F1 platform")
}

#[test]
fn elastic_report_is_bit_identical_across_one_and_four_threads() {
    for policy in RuntimePolicy::ALL {
        let serial = run_mix(MixZoo::ClassicPair, policy, 1);
        let parallel = run_mix(MixZoo::ClassicPair, policy, 4);
        assert_eq!(serial, parallel, "{policy} diverged across thread counts");
        assert_eq!(
            serial.serve.p99_ms.to_bits(),
            parallel.serve.p99_ms.to_bits(),
            "{policy}: percentiles must match to the bit"
        );
    }
}

#[test]
fn policies_respect_their_contracts() {
    let scenario = MixZoo::ClassicPair.phased_traffic();
    let static_run = run_mix(MixZoo::ClassicPair, RuntimePolicy::Static, 1);
    assert!(static_run.reconfigurations.is_empty(), "Static never moves");
    assert_eq!(static_run.triggers_fired, 0, "Static runs no monitor");
    assert_eq!(
        static_run.migration_seconds().to_bits(),
        0.0f64.to_bits(),
        "nothing migrated is +0.0 seconds, not -0.0"
    );

    let oracle = run_mix(MixZoo::ClassicPair, RuntimePolicy::Oracle, 1);
    assert_eq!(oracle.triggers_fired, 0, "the Oracle runs no monitor");
    assert!(
        oracle.reconfigurations.len() <= scenario.boundaries().len(),
        "the Oracle decides at phase boundaries only"
    );
    for event in &oracle.reconfigurations {
        assert!(
            scenario
                .boundaries()
                .iter()
                .any(|b| b.to_bits() == event.decided_at.to_bits()),
            "oracle decision at {} is not a phase boundary",
            event.decided_at
        );
    }

    // Whatever the policy, the serving envelope holds.
    for policy in RuntimePolicy::ALL {
        let report = run_mix(MixZoo::ClassicPair, policy, 1);
        assert!(report.serve.goodput <= report.serve.completed);
        assert!(report.serve.completed <= report.serve.total_requests);
        for (_, u) in &report.serve.utilization {
            assert!((0.0..=1.0 + 1e-12).contains(u));
        }
        assert!(report.migration_seconds().is_sign_positive());
    }
}

#[test]
fn bundled_failure_scenarios_inject_faults_and_policies_recover() {
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    for mix in MixZoo::ALL {
        let scenario = mix.failure_scenario();
        scenario
            .validate()
            .expect("bundled failure scenario is valid");
        assert!(!scenario.faults.is_empty(), "{mix} injects no faults");
        assert!(
            scenario.max_fault_accel().unwrap() < topo.len(),
            "{mix} faults an accelerator off the F1 platform"
        );
        // Fault instants are interior and become control-loop boundaries.
        for &at in &scenario.fault_instants() {
            assert!(at > 0.0 && at < scenario.horizon_seconds);
        }
    }

    // One end-to-end recovery at tiny budget: Reactive applies at least one
    // epoch-stamped change, and no applied placement targets a down accel.
    let mix = MixZoo::ClassicPair;
    let workloads: Vec<Workload> = mix.entries();
    let scenario = mix.failure_scenario();
    let trace = Trace::phased(&scenario, DEFAULT_SEED).unwrap();
    let report = run_elastic_with_cache(
        &workloads,
        &topo,
        &catalog,
        &scenario,
        &trace,
        RuntimePolicy::Reactive,
        &tiny_runtime(1),
        &InnerSearchCache::new(),
    )
    .expect("bundled failure scenario fits the F1 platform");
    assert!(
        report.placements_changed() >= 1,
        "Reactive must recover from the bundled failure"
    );
    assert!(report.final_epoch() >= 1);
    for event in &report.reconfigurations {
        if event.applied {
            for accels in &event.accels {
                assert!(accels.iter().all(|a| !event.down.contains(a)));
            }
        }
    }
}

#[test]
fn bundled_scenarios_are_non_stationary_and_traceable() {
    for mix in MixZoo::ALL {
        let scenario = mix.phased_traffic();
        scenario.validate().expect("bundled scenario is valid");
        assert!(scenario.phases.len() >= 3, "{mix} is not phased");
        assert!(!scenario.boundaries().is_empty());
        let trace = Trace::phased(&scenario, DEFAULT_SEED).unwrap();
        assert_eq!(trace.arrivals.len(), mix.entries().len());
        assert!(trace.total_requests() > 0);
        // The trace really shifts across phases: some workload's windowed
        // rate changes by at least 2x between consecutive phases.
        let shifted = (0..trace.arrivals.len()).any(|w| {
            scenario.phases.windows(2).any(|phases| {
                let a0 =
                    scenario.phases[scenario.phase_index_at(phases[0].start_seconds)].start_seconds;
                let e0 = scenario.phase_end(scenario.phase_index_at(a0));
                let a1 = phases[1].start_seconds;
                let e1 = scenario.phase_end(scenario.phase_index_at(a1));
                let r0 = trace.arrivals_in(w, a0, e0) as f64 / (e0 - a0);
                let r1 = trace.arrivals_in(w, a1, e1) as f64 / (e1 - a1);
                r1 > 2.0 * r0 + 1.0 || r0 > 2.0 * r1 + 1.0
            })
        });
        assert!(shifted, "{mix}'s trace never shifts rate");
    }
}
