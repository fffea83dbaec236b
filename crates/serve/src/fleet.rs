//! Fleet-scale serving: synthetic placements for the
//! [`MixZoo::fleet`](mars_model::zoo::MixZoo::fleet) scenario, and the CNN
//! replay entry points, which run [`SimState`] lane shards on the
//! lane-shard runner (`crate::lanes`).

use crate::sim::{validate, FaultPolicy, ServeConfig, ServeError, ServeReport, SimState};
use crate::trace::Trace;
use mars_core::{CoScheduleResult, Mapping, Placement, SearchResult};
use mars_model::zoo::FleetSpec;
use mars_model::{validate_faults, FaultEvent, FaultKind, TrafficProfile};
use mars_obs::Recorder;
use mars_parallel::threads_from_env;
use mars_topology::AccelId;
use std::collections::BTreeMap;
use std::time::Duration;

/// Builds the synthetic co-schedule of a [`FleetSpec`]: workload `w` runs on
/// the two-accelerator partition `{2w, 2w + 1}` at the spec's per-inference
/// latency, with no search behind the mapping (searching placements for 144
/// workloads would dwarf the serving experiment; the spec's fault schedule
/// already assumes this accelerator numbering).
///
/// ```
/// use mars_model::zoo::MixZoo;
/// use mars_serve::fleet_co_schedule;
///
/// let co = fleet_co_schedule(&MixZoo::fleet());
/// assert_eq!(co.placements.len(), 144);
/// let accels: usize = co.placements.iter().map(|p| p.accels.len()).sum();
/// assert!(accels >= 64, "fleet pool spans 64+ accelerators");
/// ```
pub fn fleet_co_schedule(spec: &FleetSpec) -> CoScheduleResult {
    let placements: Vec<Placement> = spec
        .names
        .iter()
        .enumerate()
        .map(|(w, name)| Placement {
            workload: w,
            name: name.clone(),
            weight: spec.weights[w],
            batch: 1,
            accels: vec![AccelId(2 * w), AccelId(2 * w + 1)],
            result: SearchResult {
                mapping: Mapping::new(Vec::new(), BTreeMap::new(), spec.latencies_seconds[w]),
                history: Vec::new(),
                evaluations: 0,
                elapsed: Duration::ZERO,
                stats: Default::default(),
            },
        })
        .collect();
    CoScheduleResult {
        placements,
        makespan_seconds: 0.0,
        weighted_makespan_seconds: 0.0,
        outer_history: Vec::new(),
        outer_evaluations: 0,
        inner_searches: 0,
        elapsed: Duration::ZERO,
    }
}

/// Replays `trace` against the co-schedule's placements under `config`
/// (`profiles[w]` and `trace.arrivals[w]` describe workload `w` of
/// `co.placements`), applying a hardware-fault schedule — `&[]` for a
/// healthy pool: `AccelDown` → [`SimState::fail_accel`] under
/// `fault_policy`, `AccelRestored` → [`SimState::restore_accel`];
/// `LinkDegraded` has no serving-level analogue and is ignored (in the
/// elastic runtime the co-scheduler handles it).  The lanes run as shards on
/// the `MARS_THREADS` pool, bit-identical to driving one [`SimState`]
/// through the same `run_until`/fault sequence.
///
/// # Errors
///
/// Rejects exactly the inputs [`SimState::new`] rejects, then an invalid
/// fault schedule as [`ServeError::Traffic`].
pub fn simulate_sharded_with_faults(
    co: &CoScheduleResult,
    profiles: &[TrafficProfile],
    trace: &Trace,
    config: &ServeConfig,
    faults: &[FaultEvent],
    fault_policy: FaultPolicy,
) -> Result<ServeReport, ServeError> {
    simulate_sharded_observed(
        co,
        profiles,
        trace,
        config,
        faults,
        fault_policy,
        &Recorder::disabled(),
    )
}

/// [`simulate_sharded_with_faults`] with an observability recorder: each
/// shard records its lanes' metrics (batch-size/queue-depth histograms,
/// per-lane batch spans, per-accelerator busy gauges) into a local store,
/// absorbed into `recorder` in lane order after the join.  Lane metrics are
/// keyed by placement name and partitions are disjoint, so the merged record
/// is bit-identical at every `MARS_THREADS` setting, exactly like the report
/// itself.  Engine-level metrics (calendar occupancy, stale skips) depend on
/// the shard split and are not recorded here; attach a recorder to one
/// engine with [`SimState::with_recorder`] for those.
///
/// # Errors
///
/// As for [`simulate_sharded_with_faults`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_sharded_observed(
    co: &CoScheduleResult,
    profiles: &[TrafficProfile],
    trace: &Trace,
    config: &ServeConfig,
    faults: &[FaultEvent],
    fault_policy: FaultPolicy,
    recorder: &Recorder,
) -> Result<ServeReport, ServeError> {
    let shards = validate(co, profiles, trace, config, threads_from_env())?;
    validate_faults(faults, trace.horizon_seconds).map_err(ServeError::Traffic)?;
    Ok(shards.run(
        recorder,
        (*config, trace.horizon_seconds),
        |range, local| {
            let mut sim = SimState::for_lanes(co, profiles, trace, config, range);
            sim.engine.attach(local, false);
            // Advance to each fault's instant, then fail or restore the
            // accelerator (`validate_faults` guarantees non-decreasing times).
            for fault in faults {
                sim.run_until(fault.at_seconds);
                match fault.kind {
                    FaultKind::AccelDown { accel } => {
                        sim.fail_accel(AccelId(accel), fault_policy);
                    }
                    FaultKind::AccelRestored { accel } => sim.restore_accel(AccelId(accel)),
                    FaultKind::LinkDegraded { .. } => {}
                }
            }
            sim.engine
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::DispatchPolicy;
    use mars_model::zoo::MixZoo;
    use mars_model::TrafficError;

    #[test]
    fn fleet_spec_and_schedule_are_consistent() {
        let fleet = MixZoo::fleet();
        fleet.traffic.validate().unwrap();
        let co = fleet_co_schedule(&fleet);
        assert_eq!(co.placements.len(), fleet.names.len());
        // Disjoint two-accelerator partitions numbered 0..2k.
        let mut seen = std::collections::BTreeSet::new();
        for (w, p) in co.placements.iter().enumerate() {
            assert_eq!(p.accels, vec![AccelId(2 * w), AccelId(2 * w + 1)]);
            assert!(p.accels.iter().all(|&a| seen.insert(a)));
        }
        assert!(seen.len() >= 64, "fleet spans 64+ accelerators");
        // Fault accel ids stay inside the synthesized pool.
        assert!(fleet.traffic.max_fault_accel().unwrap() < seen.len());
    }

    /// The fault schedule is validated before any lane runs: a reversed
    /// bundled schedule, a failure at a NaN instant and a restore of a
    /// healthy accelerator are typed errors, not quietly different replays.
    #[test]
    fn invalid_fault_schedules_are_rejected() {
        let fleet = MixZoo::fleet();
        let co = fleet_co_schedule(&fleet);
        let profiles = fleet.traffic.phases[0].profiles.clone();
        let trace = Trace::phased(&fleet.traffic, 42).unwrap();
        let replay = |faults: &[FaultEvent]| {
            simulate_sharded_with_faults(
                &co,
                &profiles,
                &trace,
                &ServeConfig::new(DispatchPolicy::EarliestDeadline),
                faults,
                FaultPolicy::RequeueInflight,
            )
        };
        let mut reversed = fleet.traffic.faults.clone();
        reversed.reverse();
        assert!(matches!(replay(&reversed), Err(ServeError::Traffic(_))));
        assert!(matches!(
            replay(&[FaultEvent::accel_down(f64::NAN, 0)]),
            Err(ServeError::Traffic(TrafficError::InvalidFaultTime {
                fault: 0,
                ..
            }))
        ));
        assert_eq!(
            replay(&[FaultEvent::accel_restored(1.0, 3)]),
            Err(ServeError::Traffic(TrafficError::InconsistentFault {
                fault: 0,
                accel: 3
            }))
        );
    }

    /// Zero lanes: the runner returns the engine's all-zero report, and
    /// still rejects a bad horizon.
    #[test]
    fn zero_lane_replay_matches_the_engine() {
        let co = crate::testing::synthetic_co(&[], &[]);
        let trace = Trace {
            horizon_seconds: 1.0,
            arrivals: Vec::new(),
        };
        let config = ServeConfig::default();
        let replay = |trace: &Trace| {
            simulate_sharded_with_faults(&co, &[], trace, &config, &[], FaultPolicy::default())
        };
        let report = replay(&trace).unwrap();
        assert_eq!(
            report,
            SimState::new(&co, &[], &trace, &config).unwrap().finish()
        );
        assert!(report.per_workload.is_empty() && report.utilization.is_empty());
        assert_eq!(
            (report.p50_ms, report.p95_ms, report.p99_ms),
            (0.0, 0.0, 0.0)
        );
        let nan = Trace {
            horizon_seconds: f64::NAN,
            arrivals: Vec::new(),
        };
        assert!(matches!(replay(&nan), Err(ServeError::InvalidHorizon(h)) if h.is_nan()));
    }
}
