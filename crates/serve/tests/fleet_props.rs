//! Fleet-scale stress properties on the [`MixZoo::fleet`] scenario: 144
//! workloads on a 288-accelerator pool, phased traffic, mid-run failures.
//!
//! The unit suites pin small hand-built scenarios; these properties assert
//! the same physical envelope and resumability contracts hold at fleet
//! scale, where the calendar engine actually earns its keep — goodput never
//! exceeds arrivals, no partition is busy past the horizon, checkpoint/
//! restore at *every* batch boundary reproduces the uninterrupted run, and
//! fault injection keeps every lane's accounting consistent.

use mars_model::zoo::MixZoo;
use mars_model::{FaultKind, TrafficProfile};
use mars_serve::{
    fleet_co_schedule, simulate_sharded_with_faults, DispatchPolicy, FaultPolicy, ServeConfig,
    SimState, Trace,
};
use mars_topology::AccelId;
use proptest::prelude::*;

fn policy_of(index: usize) -> DispatchPolicy {
    DispatchPolicy::ALL[index % DispatchPolicy::ALL.len()]
}

fn fault_policy_of(index: usize) -> FaultPolicy {
    if index % 2 == 0 {
        FaultPolicy::RequeueInflight
    } else {
        FaultPolicy::LoseInflight
    }
}

/// The fleet inputs for one run: synthetic co-schedule, phase-0 profiles and
/// the phased trace (optionally truncated to `horizon` for the quadratic
/// checkpoint sweep).
fn fleet_inputs(
    seed: u64,
    horizon: Option<f64>,
) -> (mars_core::CoScheduleResult, Vec<TrafficProfile>, Trace) {
    let fleet = MixZoo::fleet();
    let co = fleet_co_schedule(&fleet);
    let profiles = fleet.traffic.phases[0].profiles.clone();
    let mut trace = Trace::phased(&fleet.traffic, seed).expect("fleet scenario is valid");
    if let Some(h) = horizon {
        trace.horizon_seconds = h;
        for stream in &mut trace.arrivals {
            std::sync::Arc::make_mut(stream).retain(|&t| t < h);
        }
    }
    (co, profiles, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The physical envelope at 64+ accelerators, with the bundled failure
    /// schedule injected: conservation of requests, utilisation inside
    /// `[0, 1]`, and per-workload accounting consistency.
    #[test]
    fn fleet_run_stays_inside_the_physical_envelope(
        seed in 0u64..1000,
        policy_index in 0usize..3,
        fault_index in 0usize..2,
    ) {
        let fleet = MixZoo::fleet();
        let (co, profiles, trace) = fleet_inputs(seed, None);
        let accels: usize = co.placements.iter().map(|p| p.accels.len()).sum();
        prop_assert!(accels >= 64, "fleet must exercise 64+ accelerators");

        let config = ServeConfig::new(policy_of(policy_index));
        let report = simulate_sharded_with_faults(
            &co,
            &profiles,
            &trace,
            &config,
            &fleet.traffic.faults,
            fault_policy_of(fault_index),
        )
        .expect("valid fleet inputs");

        prop_assert_eq!(report.total_requests, trace.total_requests());
        prop_assert!(report.goodput <= report.completed);
        prop_assert!(report.completed <= report.total_requests);
        prop_assert_eq!(report.per_workload.len(), co.placements.len());
        for (w, stats) in report.per_workload.iter().enumerate() {
            prop_assert_eq!(stats.workload, w);
            prop_assert!(stats.met_sla <= stats.completed);
            prop_assert!(stats.completed <= stats.requests);
            // No lane's partition is busy longer than the horizon.
            prop_assert!(stats.busy_seconds <= trace.horizon_seconds + 1e-9);
        }
        // Per-accelerator utilisation is a fraction of the horizon.
        prop_assert_eq!(report.utilization.len(), accels);
        for &(_, u) in &report.utilization {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&u), "utilisation {u} out of range");
        }
    }

    /// Fault injection on the live state keeps every snapshot consistent and
    /// the down set exact, at every event boundary around the failures.
    #[test]
    fn fleet_faults_keep_snapshots_consistent(
        seed in 0u64..1000,
        policy_index in 0usize..3,
        fault_index in 0usize..2,
    ) {
        let fleet = MixZoo::fleet();
        let (co, profiles, trace) = fleet_inputs(seed, None);
        let config = ServeConfig::new(policy_of(policy_index));
        let mut sim = SimState::new(&co, &profiles, &trace, &config).expect("valid");

        let mut expected_down: Vec<AccelId> = Vec::new();
        for fault in &fleet.traffic.faults {
            sim.run_until(fault.at_seconds);
            match fault.kind {
                FaultKind::AccelDown { accel } => {
                    sim.fail_accel(AccelId(accel), fault_policy_of(fault_index));
                    if !expected_down.contains(&AccelId(accel)) {
                        expected_down.push(AccelId(accel));
                    }
                }
                FaultKind::AccelRestored { accel } => {
                    sim.restore_accel(AccelId(accel));
                    expected_down.retain(|&a| a != AccelId(accel));
                }
                FaultKind::LinkDegraded { .. } => {}
            }
            expected_down.sort();
            prop_assert_eq!(sim.down(), &expected_down[..]);
            let snap = sim.snapshot();
            prop_assert_eq!(&snap.down, &expected_down);
            for lane in &snap.lanes {
                prop_assert!(lane.met_sla <= lane.completed);
                prop_assert!(lane.completed + lane.queued <= lane.enqueued);
            }
        }
        let report = sim.finish();
        prop_assert!(report.goodput <= report.total_requests);
    }
}

/// Checkpoint/restore at **every** batch boundary of a truncated fleet run:
/// cloning the state after each [`SimState::step`] and finishing the clone
/// must reproduce the uninterrupted run's report bit for bit.  (Truncated to
/// a short horizon — the sweep is quadratic in the event count.)
#[test]
fn fleet_checkpoint_restore_at_every_event_boundary_is_bit_identical() {
    let (co, profiles, trace) = fleet_inputs(42, Some(0.15));
    for policy in DispatchPolicy::ALL {
        let config = ServeConfig::new(policy);
        let baseline = SimState::new(&co, &profiles, &trace, &config)
            .expect("valid")
            .finish();
        let mut sim = SimState::new(&co, &profiles, &trace, &config).expect("valid");
        let mut boundaries = 0usize;
        loop {
            let restored = sim.clone().finish();
            assert_eq!(
                restored, baseline,
                "boundary {boundaries} diverged ({policy:?})"
            );
            if sim.step().is_none() {
                break;
            }
            boundaries += 1;
        }
        assert!(
            boundaries > 100,
            "fleet truncation still exercises many boundaries, got {boundaries}"
        );
        assert_eq!(sim.report(), baseline);
    }
}
