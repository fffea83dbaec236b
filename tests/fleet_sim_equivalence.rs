//! The differential harness for the fleet-scale serving engine.
//!
//! The calendar-queue engine (`mars::serve::SimState`) replaced the legacy
//! per-step linear scan, but the determinism contract did not move an inch:
//! for **every** bundled mix, **every** dispatch policy and **every** fault
//! scenario, the new engine must produce `ServeReport`s — and mid-run
//! `SimSnapshot`s — **bit-identical** to the legacy loop, which survives
//! verbatim in `mars::serve::reference` as the oracle.  The partition-
//! sharded runner must additionally agree with the single-shard run at
//! every `MARS_THREADS` setting.
//!
//! These are equality assertions on `f64`-bearing structs on purpose: the
//! simulator's contract is bit-identity, not tolerance, so the harness
//! demands `==`.

use mars::model::zoo::MixZoo;
use mars::model::{FaultEvent, FaultKind, PhasedTraffic};
use mars::prelude::*;
use mars::serve::{
    fleet_co_schedule, reference, simulate_sharded_with_faults, ServeError, ServeReport,
    SimSnapshot,
};
use mars::topology::AccelId;

const SEED: u64 = 42;

/// Fast-budget co-schedule for a bundled mix (the placement quality is
/// irrelevant here — both engines replay the same placements).
fn co_for(mix: MixZoo) -> CoScheduleResult {
    let workloads: Vec<Workload> = mix.entries();
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    mars::co_schedule(
        &workloads,
        &topo,
        &catalog,
        &CoScheduleConfig::fast(SEED).with_threads(0),
    )
    .expect("bundled mix fits the F1 platform")
}

/// Drives the new engine through a fault schedule, capturing a snapshot
/// after every fault event, and returns `(snapshots, final report)`.
fn drive_new(
    co: &CoScheduleResult,
    profiles: &[TrafficProfile],
    trace: &Trace,
    config: &ServeConfig,
    faults: &[FaultEvent],
    fault_policy: FaultPolicy,
) -> (Vec<SimSnapshot>, ServeReport) {
    let mut sim = SimState::new(co, profiles, trace, config).expect("valid inputs");
    let mut snaps = Vec::new();
    for fault in faults {
        sim.run_until(fault.at_seconds);
        match fault.kind {
            FaultKind::AccelDown { accel } => {
                sim.fail_accel(AccelId(accel), fault_policy);
            }
            FaultKind::AccelRestored { accel } => sim.restore_accel(AccelId(accel)),
            FaultKind::LinkDegraded { .. } => {}
        }
        snaps.push(sim.snapshot());
    }
    (snaps, sim.finish())
}

/// The same drive against the legacy oracle.
fn drive_legacy(
    co: &CoScheduleResult,
    profiles: &[TrafficProfile],
    trace: &Trace,
    config: &ServeConfig,
    faults: &[FaultEvent],
    fault_policy: FaultPolicy,
) -> (Vec<SimSnapshot>, ServeReport) {
    let mut sim = reference::SimState::new(co, profiles, trace, config).expect("valid inputs");
    let mut snaps = Vec::new();
    for fault in faults {
        sim.run_until(fault.at_seconds);
        match fault.kind {
            FaultKind::AccelDown { accel } => {
                sim.fail_accel(AccelId(accel), fault_policy);
            }
            FaultKind::AccelRestored { accel } => sim.restore_accel(AccelId(accel)),
            FaultKind::LinkDegraded { .. } => {}
        }
        snaps.push(sim.snapshot());
    }
    (snaps, sim.finish())
}

/// The full differential sweep for one co-schedule and traffic scenario:
/// every dispatch policy × {no faults, the given fault schedule} × both
/// fault policies, plus an event-by-event `step()` comparison.
fn assert_engines_agree(
    label: &str,
    co: &CoScheduleResult,
    scenario: &PhasedTraffic,
    trace: &Trace,
) {
    let profiles = scenario.phases[0].profiles.clone();
    for policy in DispatchPolicy::ALL {
        let config = ServeConfig::new(policy);

        // One-shot, no faults.
        let new = SimState::new(co, &profiles, trace, &config)
            .expect("valid inputs")
            .finish();
        let legacy = reference::simulate(co, &profiles, trace, &config).expect("valid inputs");
        assert_eq!(new, legacy, "{label}/{policy:?}: one-shot reports diverge");

        // Event-by-event: each dispatched batch must match exactly, in
        // order, and so must the post-exhaustion reports.
        let mut sim_new = SimState::new(co, &profiles, trace, &config).expect("valid");
        let mut sim_old = reference::SimState::new(co, &profiles, trace, &config).expect("valid");
        let mut events = 0usize;
        loop {
            let (a, b) = (sim_new.step(), sim_old.step());
            assert_eq!(a, b, "{label}/{policy:?}: step event {events} diverges");
            if a.is_none() {
                break;
            }
            events += 1;
        }
        assert!(
            events > 0,
            "{label}/{policy:?}: scenario dispatched nothing"
        );
        assert_eq!(
            sim_new.report(),
            sim_old.report(),
            "{label}/{policy:?}: stepped reports diverge"
        );

        // Fault-scenario drives, both fault policies, snapshots included.
        for fault_policy in [FaultPolicy::RequeueInflight, FaultPolicy::LoseInflight] {
            let (snaps_new, report_new) = drive_new(
                co,
                &profiles,
                trace,
                &config,
                &scenario.faults,
                fault_policy,
            );
            let (snaps_old, report_old) = drive_legacy(
                co,
                &profiles,
                trace,
                &config,
                &scenario.faults,
                fault_policy,
            );
            assert_eq!(
                snaps_new, snaps_old,
                "{label}/{policy:?}/{fault_policy:?}: mid-run snapshots diverge"
            );
            assert_eq!(
                report_new, report_old,
                "{label}/{policy:?}/{fault_policy:?}: fault-scenario reports diverge"
            );
        }
    }
}

fn mix_equivalence(mix: MixZoo) {
    let co = co_for(mix);
    let scenario = mix.failure_scenario();
    let trace = Trace::phased(&scenario, SEED).expect("bundled scenario is valid");
    assert_engines_agree(mix.name(), &co, &scenario, &trace);
}

#[test]
fn classic_pair_new_engine_matches_legacy_oracle() {
    mix_equivalence(MixZoo::ClassicPair);
}

#[test]
fn resnet_surf_new_engine_matches_legacy_oracle() {
    mix_equivalence(MixZoo::ResNetSurf);
}

#[test]
fn hetero_triple_new_engine_matches_legacy_oracle() {
    mix_equivalence(MixZoo::HeteroTriple);
}

#[test]
fn fleet_new_engine_matches_legacy_oracle() {
    let fleet = MixZoo::fleet();
    let co = fleet_co_schedule(&fleet);
    let trace = Trace::phased(&fleet.traffic, SEED).expect("fleet scenario is valid");
    assert_engines_agree("fleet", &co, &fleet.traffic, &trace);
}

/// The sharded runner against the single-shard run, `MARS_THREADS` ∈
/// {1, 4, 8}, with and without the fleet fault schedule, and its input
/// errors against the engine's: a lane in the second half corrupted three
/// ways must be named by its global index at every thread count.  The only
/// test in this binary that touches the environment or calls the runner
/// (which reads `MARS_THREADS`), so the sequential set/restore cannot race.
#[test]
fn fleet_sharded_equals_single_shard_at_every_thread_count() {
    let fleet = MixZoo::fleet();
    let co = fleet_co_schedule(&fleet);
    let profiles = fleet.traffic.phases[0].profiles.clone();
    let trace = Trace::phased(&fleet.traffic, SEED).expect("fleet scenario is valid");
    let saved = std::env::var("MARS_THREADS").ok();

    for policy in DispatchPolicy::ALL {
        let config = ServeConfig::new(policy);
        let single = SimState::new(&co, &profiles, &trace, &config)
            .expect("valid")
            .finish();
        let (_, single_faulted) = drive_new(
            &co,
            &profiles,
            &trace,
            &config,
            &fleet.traffic.faults,
            FaultPolicy::RequeueInflight,
        );
        for threads in ["1", "4", "8"] {
            std::env::set_var("MARS_THREADS", threads);
            let sharded = simulate_sharded_with_faults(
                &co,
                &profiles,
                &trace,
                &config,
                &[],
                FaultPolicy::RequeueInflight,
            )
            .expect("valid");
            assert_eq!(
                sharded, single,
                "{policy:?}/MARS_THREADS={threads}: sharded run diverges"
            );
            let sharded_faulted = simulate_sharded_with_faults(
                &co,
                &profiles,
                &trace,
                &config,
                &fleet.traffic.faults,
                FaultPolicy::RequeueInflight,
            )
            .expect("valid");
            assert_eq!(
                sharded_faulted, single_faulted,
                "{policy:?}/MARS_THREADS={threads}: sharded fault run diverges"
            );
        }
    }

    let lane = 100;
    let mut bad_arrival = trace.clone();
    bad_arrival.arrivals[lane].push(f64::NAN);
    let mut bad_sla = profiles.clone();
    bad_sla[lane].sla_factor = -1.0;
    let mut bad_latency = co.clone();
    bad_latency.placements[lane].result.mapping.latency_seconds = 0.0;
    let config = ServeConfig::default();
    for (co, profiles, trace) in [
        (&co, &profiles, &bad_arrival),
        (&co, &bad_sla, &trace),
        (&bad_latency, &profiles, &trace),
    ] {
        let expected = SimState::new(co, profiles, trace, &config).map(SimState::finish);
        assert!(matches!(
            expected,
            Err(ServeError::InvalidTrace { workload: 100 }
                | ServeError::InvalidSla { workload: 100, .. }
                | ServeError::InvalidPlacementLatency { workload: 100, .. })
        ));
        for threads in ["1", "4", "8"] {
            std::env::set_var("MARS_THREADS", threads);
            let sharded = simulate_sharded_with_faults(
                co,
                profiles,
                trace,
                &config,
                &fleet.traffic.faults,
                FaultPolicy::RequeueInflight,
            );
            assert_eq!(
                sharded, expected,
                "MARS_THREADS={threads}: the runner names the wrong lane"
            );
        }
    }

    match saved {
        Some(v) => std::env::set_var("MARS_THREADS", v),
        None => std::env::remove_var("MARS_THREADS"),
    }
}
