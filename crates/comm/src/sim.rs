//! The high-level communication simulator facade consumed by the parallelism
//! evaluator and the mapping search.

use crate::collective;
use crate::event::Engine;
use mars_topology::{AccelId, Topology};

/// Communication simulator over one topology.
///
/// All methods return latencies in seconds.  The simulator is cheap to create
/// and borrow-only, so callers typically construct one per search and share it.
#[derive(Debug, Clone)]
pub struct CommSim<'a> {
    engine: Engine<'a>,
}

impl<'a> CommSim<'a> {
    /// Creates a simulator over `topo`.
    pub fn new(topo: &'a Topology) -> Self {
        Self {
            engine: Engine::new(topo),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        self.engine.topology()
    }

    /// Point-to-point transfer latency (host-staged automatically when the two
    /// accelerators have no direct link).
    pub fn point_to_point(&self, src: AccelId, dst: AccelId, bytes: u64) -> f64 {
        self.engine.point_to_point(src, dst, bytes)
    }

    /// Ring All-Reduce of `bytes` per member over `set`.
    pub fn all_reduce(&self, set: &[AccelId], bytes: u64) -> f64 {
        collective::all_reduce(&self.engine, set, bytes)
    }

    /// Ring All-Gather of `shard_bytes` per member over `set`.
    pub fn all_gather(&self, set: &[AccelId], shard_bytes: u64) -> f64 {
        collective::all_gather(&self.engine, set, shard_bytes)
    }

    /// Ring Reduce-Scatter of `bytes` per member over `set`.
    pub fn reduce_scatter(&self, set: &[AccelId], bytes: u64) -> f64 {
        collective::reduce_scatter(&self.engine, set, bytes)
    }

    /// One ring-shift step of `shard_bytes` per member over `set` (the
    /// per-phase communication of the shared-shard strategy).
    pub fn ring_shift(&self, set: &[AccelId], shard_bytes: u64) -> f64 {
        collective::ring_shift(&self.engine, set, shard_bytes)
    }

    /// Pipelined broadcast of `bytes` from `set[0]` to the rest of `set`.
    pub fn broadcast(&self, set: &[AccelId], bytes: u64) -> f64 {
        collective::broadcast(&self.engine, set, bytes)
    }

    /// Host-to-accelerator scatter of `bytes_per_accel` to every member.
    pub fn host_scatter(&self, set: &[AccelId], bytes_per_accel: u64) -> f64 {
        collective::host_scatter(&self.engine, set, bytes_per_accel)
    }

    /// Accelerator-to-host gather of `bytes_per_accel` from every member.
    pub fn host_gather(&self, set: &[AccelId], bytes_per_accel: u64) -> f64 {
        collective::host_gather(&self.engine, set, bytes_per_accel)
    }

    /// Redistribution of an activation of `total_bytes` from the shards held by
    /// `from` to the shards needed by `to` (free when the sets are identical).
    pub fn redistribute(&self, from: &[AccelId], to: &[AccelId], total_bytes: u64) -> f64 {
        collective::redistribute(&self.engine, from, to, total_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_topology::presets;

    #[test]
    fn facade_methods_agree_with_collective_module() {
        let topo = presets::f1_16xlarge();
        let sim = CommSim::new(&topo);
        let set = topo.group_members(0);
        let bytes = 1 << 20;
        assert!(sim.all_reduce(&set, bytes) > 0.0);
        assert!(sim.all_gather(&set, bytes) > 0.0);
        assert!(sim.reduce_scatter(&set, bytes) > 0.0);
        assert!(sim.ring_shift(&set, bytes) > 0.0);
        assert!(sim.broadcast(&set, bytes) > 0.0);
        assert!(sim.host_scatter(&set, bytes) > 0.0);
        assert!(sim.host_gather(&set, bytes) > 0.0);
        assert_eq!(sim.redistribute(&set, &set, bytes), 0.0);
        assert!(sim.point_to_point(AccelId(0), AccelId(1), bytes) > 0.0);
        assert_eq!(sim.topology().len(), 8);
    }

    #[test]
    fn higher_bandwidth_reduces_collective_latency() {
        let slow = presets::h2h_cloud(1.0);
        let fast = presets::h2h_cloud(10.0);
        let set: Vec<AccelId> = (0..4).map(AccelId).collect();
        let bytes = 4 << 20;
        let t_slow = CommSim::new(&slow).all_reduce(&set, bytes);
        let t_fast = CommSim::new(&fast).all_reduce(&set, bytes);
        assert!(t_slow > 5.0 * t_fast, "slow {t_slow} fast {t_fast}");
    }
}
