//! Property-based tests for the collective-communication simulator.

use mars_comm::CommSim;
use mars_topology::{presets, AccelId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_reduce_is_monotone_in_bytes_and_set_size(
        bytes_a in 1u64..(8 << 20),
        bytes_b in 1u64..(8 << 20),
        extra in 0usize..2,
    ) {
        let topo = presets::f1_16xlarge();
        let sim = CommSim::new(&topo);
        let set2: Vec<AccelId> = vec![AccelId(0), AccelId(1)];
        let set: Vec<AccelId> = (0..(2 + extra)).map(AccelId).collect();

        let (small, large) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        prop_assert!(sim.all_reduce(&set, small) <= sim.all_reduce(&set, large) + 1e-12);
        // A larger ring over the same payload is never cheaper than a 2-ring.
        prop_assert!(sim.all_reduce(&set2, small) <= sim.all_reduce(&set, small) + 1e-12);
    }

    #[test]
    fn collectives_are_nonnegative_and_finite(bytes in 0u64..(16 << 20), n in 1usize..=8) {
        let topo = presets::f1_16xlarge();
        let sim = CommSim::new(&topo);
        let set: Vec<AccelId> = (0..n).map(AccelId).collect();
        for t in [
            sim.all_reduce(&set, bytes),
            sim.all_gather(&set, bytes),
            sim.reduce_scatter(&set, bytes),
            sim.ring_shift(&set, bytes),
            sim.broadcast(&set, bytes),
            sim.host_scatter(&set, bytes),
            sim.host_gather(&set, bytes),
        ] {
            prop_assert!(t.is_finite());
            prop_assert!(t >= 0.0);
        }
    }

    #[test]
    fn higher_bandwidth_is_never_slower(bytes in 1u64..(8 << 20), n in 2usize..=8) {
        let slow = presets::h2h_cloud(1.0);
        let fast = presets::h2h_cloud(10.0);
        let set: Vec<AccelId> = (0..n).map(AccelId).collect();
        let t_slow = CommSim::new(&slow).all_reduce(&set, bytes);
        let t_fast = CommSim::new(&fast).all_reduce(&set, bytes);
        prop_assert!(t_fast <= t_slow + 1e-12);
    }

    #[test]
    fn point_to_point_is_symmetric_and_triangle_like(
        bytes in 1u64..(4 << 20),
        a in 0usize..8,
        b in 0usize..8,
    ) {
        let topo = presets::f1_16xlarge();
        let sim = CommSim::new(&topo);
        let t_ab = sim.point_to_point(AccelId(a), AccelId(b), bytes);
        let t_ba = sim.point_to_point(AccelId(b), AccelId(a), bytes);
        prop_assert!((t_ab - t_ba).abs() < 1e-12);
        if a == b {
            prop_assert_eq!(t_ab, 0.0);
        } else {
            prop_assert!(t_ab > 0.0);
        }
    }

    #[test]
    fn redistribute_within_a_set_is_free_and_across_costs(
        bytes in 1u64..(4 << 20),
    ) {
        let topo = presets::f1_16xlarge();
        let sim = CommSim::new(&topo);
        let g0 = topo.group_members(0);
        let g1 = topo.group_members(1);
        prop_assert_eq!(sim.redistribute(&g0, &g0, bytes), 0.0);
        prop_assert!(sim.redistribute(&g0, &g1, bytes) > 0.0);
    }
}
