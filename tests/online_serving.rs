//! Acceptance tests for online serving: the same trace and seed must
//! produce bit-identical `ServeReport`s regardless of the worker-thread
//! count of the underlying co-schedule search, and the simulator's
//! accounting must stay inside its physical envelope.

use mars::model::zoo::MixZoo;
use mars::prelude::*;
use mars::serve::{render_serve, simulate_sharded_with_faults};

const DEFAULT_SEED: u64 = 42;

fn serve_mix(
    mix: MixZoo,
    threads: usize,
    policy: DispatchPolicy,
) -> (Trace, mars::serve::ServeReport) {
    let workloads: Vec<Workload> = mix.entries();
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let co = mars::co_schedule(
        &workloads,
        &topo,
        &catalog,
        &CoScheduleConfig::fast(DEFAULT_SEED).with_threads(threads),
    )
    .expect("bundled mix fits the F1 platform");
    let profiles: Vec<TrafficProfile> = mix.traffic();
    let trace = Trace::poisson(&profiles, 1.0, DEFAULT_SEED).unwrap();
    let config = ServeConfig::new(policy);
    let report =
        simulate_sharded_with_faults(&co, &profiles, &trace, &config, &[], FaultPolicy::default())
            .expect("bundled profiles are valid");
    (trace, report)
}

#[test]
fn serve_report_is_bit_identical_across_one_and_four_threads() {
    let (trace_a, a) = serve_mix(MixZoo::ClassicPair, 1, DispatchPolicy::EarliestDeadline);
    let (trace_b, b) = serve_mix(MixZoo::ClassicPair, 4, DispatchPolicy::EarliestDeadline);

    // The trace itself never depends on threads…
    assert_eq!(trace_a, trace_b);
    // …and neither does anything the simulation derives from the
    // (thread-count-invariant) placements.
    assert_eq!(a, b);
    for (x, y) in [
        (a.p50_ms, b.p50_ms),
        (a.p95_ms, b.p95_ms),
        (a.p99_ms, b.p99_ms),
    ] {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    for (sa, sb) in a.per_workload.iter().zip(&b.per_workload) {
        assert_eq!(sa.busy_seconds.to_bits(), sb.busy_seconds.to_bits());
        assert_eq!(sa.mean_batch.to_bits(), sb.mean_batch.to_bits());
    }
    for ((ia, ua), (ib, ub)) in a.utilization.iter().zip(&b.utilization) {
        assert_eq!(ia, ib);
        assert_eq!(ua.to_bits(), ub.to_bits());
    }
}

#[test]
fn serve_accounting_stays_inside_the_physical_envelope() {
    let (trace, report) = serve_mix(MixZoo::ClassicPair, 1, DispatchPolicy::Fifo);
    assert_eq!(report.total_requests, trace.total_requests());
    assert!(report.goodput <= report.completed);
    assert!(report.completed <= report.total_requests);
    assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);
    for s in &report.per_workload {
        assert!(
            s.busy_seconds <= report.horizon_seconds + 1e-12,
            "{}: busy {} exceeds horizon {}",
            s.name,
            s.busy_seconds,
            report.horizon_seconds
        );
    }
    for (a, u) in &report.utilization {
        assert!((0.0..=1.0 + 1e-12).contains(u), "Acc{} util {u}", a.0);
    }
}

#[test]
fn every_policy_serves_the_same_request_stream() {
    let workloads: Vec<Workload> = MixZoo::ClassicPair.entries();
    let topo = mars::topology::presets::f1_16xlarge();
    let catalog = Catalog::standard_three();
    let co = mars::co_schedule(
        &workloads,
        &topo,
        &catalog,
        &CoScheduleConfig::fast(DEFAULT_SEED),
    )
    .unwrap();
    let profiles: Vec<TrafficProfile> = MixZoo::ClassicPair.traffic();
    let trace = Trace::poisson(&profiles, 1.0, DEFAULT_SEED).unwrap();
    for policy in DispatchPolicy::ALL {
        let config = ServeConfig::new(policy);
        let report = simulate_sharded_with_faults(
            &co,
            &profiles,
            &trace,
            &config,
            &[],
            FaultPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.policy, policy);
        assert_eq!(report.total_requests, trace.total_requests());
        let text = render_serve(&report);
        assert!(text.contains(policy.name()));
        for w in &workloads {
            assert!(text.contains(w.network.name()));
        }
    }
}
