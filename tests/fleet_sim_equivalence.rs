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
    fleet_co_schedule, reference, simulate_sharded_observed, simulate_sharded_with_faults,
    ServeError, ServeReport, SimSnapshot,
};
use mars::topology::AccelId;
use std::sync::Arc;

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
/// ways, bad streams in two shards, a bad stream under a bad fault schedule
/// and a bad last lane must each give the engine's error, naming the lane by
/// its global index, at every thread count, and record nothing.  The only
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

    // Input errors: the runner checks each shard's streams on the pool, and
    // must return exactly what one engine returns.  NaN arrivals corrupt
    // lane 100 alone, lanes 10 and 130 (different shards at 4 and 8
    // threads: lane 10 wins), the last lane, and lane 100 under a reversed
    // (invalid) fault schedule (the stream error wins).
    let corrupt = |lanes: &[usize]| {
        let mut bad = trace.clone();
        for &w in lanes {
            Arc::make_mut(&mut bad.arrivals[w]).push(f64::NAN);
        }
        bad
    };
    let last = co.placements.len() - 1;
    let (bad_arrival, two_shards, last_lane) =
        (corrupt(&[100]), corrupt(&[130, 10]), corrupt(&[last]));
    let mut bad_sla = profiles.clone();
    bad_sla[100].sla_factor = -1.0;
    let mut bad_latency = co.clone();
    bad_latency.placements[100].result.mapping.latency_seconds = 0.0;
    let faults = &fleet.traffic.faults[..];
    let mut reversed = fleet.traffic.faults.clone();
    reversed.reverse();
    let config = ServeConfig::default();
    assert!(matches!(
        simulate_sharded_with_faults(
            &co,
            &profiles,
            &trace,
            &config,
            &reversed,
            FaultPolicy::RequeueInflight
        ),
        Err(ServeError::Traffic(_))
    ));
    for (co, profiles, trace, faults, lane) in [
        (&co, &profiles, &bad_arrival, faults, 100),
        (&co, &bad_sla, &trace, faults, 100),
        (&bad_latency, &profiles, &trace, faults, 100),
        (&co, &profiles, &two_shards, faults, 10),
        (&co, &profiles, &bad_arrival, &reversed[..], 100),
        (&co, &profiles, &last_lane, faults, last),
    ] {
        let expected = SimState::new(co, profiles, trace, &config).map(SimState::finish);
        assert!(
            matches!(
                expected,
                Err(ServeError::InvalidTrace { workload }
                    | ServeError::InvalidSla { workload, .. }
                    | ServeError::InvalidPlacementLatency { workload, .. }) if workload == lane
            ),
            "{expected:?} should name lane {lane}"
        );
        for threads in ["1", "4", "8"] {
            std::env::set_var("MARS_THREADS", threads);
            let recorder = Recorder::enabled();
            let sharded = simulate_sharded_observed(
                co,
                profiles,
                trace,
                &config,
                faults,
                FaultPolicy::RequeueInflight,
                &recorder,
            );
            assert_eq!(
                sharded, expected,
                "MARS_THREADS={threads}: the runner names the wrong lane"
            );
            assert!(recorder.snapshot().is_empty(), "an invalid input recorded");
        }
    }

    match saved {
        Some(v) => std::env::set_var("MARS_THREADS", v),
        None => std::env::remove_var("MARS_THREADS"),
    }
}
