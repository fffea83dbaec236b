//! Property-based tests for the serving simulator: for *any* policy,
//! traffic and placement latencies, the accounting must stay inside its
//! physical envelope — goodput never exceeds arrivals, busy time never
//! exceeds the horizon, and the simulation is a pure function of its inputs.

use mars_core::CoScheduleResult;
use mars_model::TrafficProfile;
use mars_serve::testing::synthetic_co;
use mars_serve::{
    simulate_sharded_with_faults, DispatchPolicy, FaultPolicy, ServeConfig, ServeError,
    ServeReport, Trace,
};
use proptest::prelude::*;

/// A whole-run replay on a healthy pool.
fn simulate(
    co: &CoScheduleResult,
    profiles: &[TrafficProfile],
    trace: &Trace,
    config: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    simulate_sharded_with_faults(co, profiles, trace, config, &[], FaultPolicy::default())
}

fn policy_of(index: usize) -> DispatchPolicy {
    DispatchPolicy::ALL[index % DispatchPolicy::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accounting_stays_inside_the_physical_envelope(
        lat_a_ms in 0.2f64..20.0,
        lat_b_ms in 0.2f64..20.0,
        qps_a in 10.0f64..600.0,
        qps_b in 10.0f64..600.0,
        sla in 1.5f64..12.0,
        weight in 1.0f64..4.0,
        policy_index in 0usize..3,
        seed in 0u64..1000,
    ) {
        let co = synthetic_co(&[lat_a_ms * 1e-3, lat_b_ms * 1e-3], &[weight, 1.0]);
        let profiles = [
            TrafficProfile::new(qps_a, sla),
            TrafficProfile::new(qps_b, sla),
        ];
        let trace = Trace::poisson(&profiles, 0.25, seed).unwrap();
        let config = ServeConfig::new(policy_of(policy_index));
        let report = simulate(&co, &profiles, &trace, &config).expect("valid inputs");

        // Conservation: every counted request arrived, and goodput is a
        // subset of completions.
        prop_assert_eq!(report.total_requests, trace.total_requests());
        prop_assert!(report.goodput <= report.completed);
        prop_assert!(report.completed <= report.total_requests);

        // The physical envelope: no partition is busy longer than the
        // simulated horizon, so utilisation is a true fraction.
        for s in &report.per_workload {
            prop_assert!(s.busy_seconds >= 0.0);
            prop_assert!(s.busy_seconds <= report.horizon_seconds + 1e-12);
            prop_assert!(s.met_sla <= s.completed);
            prop_assert!(s.completed <= s.requests);
            // No dispatched batch exceeds the engine's cap of 8.
            prop_assert!(s.mean_batch <= 8.0 + 1e-12);
        }
        for (_, u) in &report.utilization {
            prop_assert!((0.0..=1.0 + 1e-12).contains(u));
        }

        // Percentiles are ordered and non-negative.
        prop_assert!(0.0 <= report.p50_ms);
        prop_assert!(report.p50_ms <= report.p95_ms);
        prop_assert!(report.p95_ms <= report.p99_ms);

        // Purity: replaying the identical inputs is bit-identical.
        let again = simulate(&co, &profiles, &trace, &config).expect("valid inputs");
        prop_assert_eq!(report, again);
    }

    #[test]
    fn tighter_sla_never_increases_goodput(
        lat_ms in 0.5f64..10.0,
        qps in 20.0f64..400.0,
        policy_index in 0usize..3,
        seed in 0u64..1000,
    ) {
        let co = synthetic_co(&[lat_ms * 1e-3], &[1.0]);
        let loose = [TrafficProfile::new(qps, 8.0)];
        let tight = [TrafficProfile::new(qps, 2.0)];
        // Identical arrival stream for both SLAs: the trace only reads qps.
        let trace = Trace::poisson(&loose, 0.25, seed).unwrap();
        let config = ServeConfig::new(policy_of(policy_index));
        let relaxed = simulate(&co, &loose, &trace, &config).expect("valid");
        let strict = simulate(&co, &tight, &trace, &config).expect("valid");
        // FIFO ignores deadlines entirely, so its schedule is identical and
        // the tighter deadline can only reclassify completions; the
        // SLA-aware policies may reschedule, but for FIFO the bound is
        // exact.
        if policy_of(policy_index) == DispatchPolicy::Fifo {
            prop_assert!(strict.goodput <= relaxed.goodput);
            prop_assert_eq!(strict.completed, relaxed.completed);
        }
    }
}
