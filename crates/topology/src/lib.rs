//! # mars-topology
//!
//! Multi-accelerator system modelling for the MARS mapping framework.
//!
//! Section III of the paper formulates the platform as a graph `G(Acc, BW)`:
//! vertices are adaptively-configurable accelerators, edge weights are
//! inter-accelerator bandwidths, and every accelerator additionally has a host
//! link (`BW_{i,host}`) and an attached off-chip DRAM of size `Mem_i`.
//! [`Topology`] is that graph; [`presets`] provides the concrete platforms used
//! in the evaluation (the AWS F1.16xlarge instance of Fig. 1 and the
//! cloud-scale multi-FPGA system with H2H's five bandwidth levels);
//! [`partition`] implements the AccSet-candidate heuristic of Section V
//! (iteratively removing the lowest-bandwidth edge and collecting the connected
//! components).
//!
//! ```
//! use mars_topology::{presets, partition};
//!
//! let topo = presets::f1_16xlarge();
//! assert_eq!(topo.len(), 8);
//! let candidates = partition::accset_candidates(&topo);
//! // The two 4-FPGA groups of Fig. 1 are among the candidates.
//! assert!(candidates.iter().any(|set| set.len() == 4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod partition;
pub mod presets;
mod system;

pub use system::{AccelId, Link, Topology, TopologyBuilder, TopologyError};

/// Gigabits per second, the unit used for all bandwidths in the paper.
pub type Gbps = f64;

/// Converts a payload size in bytes and a bandwidth in Gbps into seconds.
///
/// Returns `f64::INFINITY` when the bandwidth is zero or negative, which
/// callers use to represent "no direct link".
///
/// ```
/// let t = mars_topology::transfer_seconds(1_000_000, 8.0);
/// assert!((t - 0.001).abs() < 1e-9); // 1 MB over 8 Gbps = 1 ms
/// ```
pub fn transfer_seconds(bytes: u64, bandwidth: Gbps) -> f64 {
    if bandwidth <= 0.0 {
        return f64::INFINITY;
    }
    (bytes as f64 * 8.0) / (bandwidth * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_seconds_basic() {
        assert_eq!(transfer_seconds(0, 8.0), 0.0);
        assert!((transfer_seconds(1_000_000_000, 8.0) - 1.0).abs() < 1e-9);
        assert!(transfer_seconds(1, 0.0).is_infinite());
        assert!(transfer_seconds(1, -1.0).is_infinite());
    }
}
