//! Discrete-event transfer engine.
//!
//! Collectives are expressed as DAGs of [`Transfer`]s between [`Endpoint`]s.
//! The engine assigns each transfer to the link resource it occupies (one
//! resource per unordered accelerator pair, plus one per accelerator-to-host
//! link), serialises transfers that share a resource, and respects transfer
//! dependencies — i.e. classic list scheduling over link resources.  The
//! result is the makespan of the whole DAG.
//!
//! Transfers between accelerators without a direct link are automatically
//! expanded into two host-staged hops (source → host, host → destination).

use mars_topology::{transfer_seconds, AccelId, Topology};
use std::collections::HashMap;

/// Fixed latency of one direct accelerator-to-accelerator transfer (DMA
/// descriptor setup, PCIe peer-to-peer initiation), in seconds.
pub(crate) const LINK_LATENCY: f64 = 5e-6;
/// Fixed latency of one host-staged hop (kernel driver involvement, host
/// memory copy), in seconds.
pub(crate) const HOST_LATENCY: f64 = 25e-6;

/// One end of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Endpoint {
    /// An accelerator in the topology.
    Accel(AccelId),
    /// The host CPU / host memory.
    Host,
}

/// Identifier of a transfer within one simulation.
pub(crate) type TransferId = usize;

/// A point-to-point transfer request.
#[derive(Debug, Clone)]
pub(crate) struct Transfer {
    /// Source endpoint.
    pub(crate) src: Endpoint,
    /// Destination endpoint.
    pub(crate) dst: Endpoint,
    /// Payload size in bytes.
    pub(crate) bytes: u64,
    /// Transfers that must complete before this one starts.
    pub(crate) deps: Vec<TransferId>,
}

impl Transfer {
    /// A dependency-free transfer.
    pub(crate) fn new(src: Endpoint, dst: Endpoint, bytes: u64) -> Self {
        Self {
            src,
            dst,
            bytes,
            deps: Vec::new(),
        }
    }

    /// Adds dependencies and returns `self` (builder style).
    pub(crate) fn after(mut self, deps: impl IntoIterator<Item = TransferId>) -> Self {
        self.deps.extend(deps);
        self
    }
}

/// The resource a hop occupies.  Links are full duplex: each direction of a
/// peer link, and each direction of a host link, is an independent resource,
/// so `a -> b` and `b -> a` traffic do not contend (as on PCIe peer-to-peer
/// and NIC links), while two transfers in the same direction serialise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Resource {
    /// Direct link between two accelerators, in the `src -> dst` direction.
    Link(AccelId, AccelId),
    /// Host link of one accelerator in the accelerator-to-host direction.
    HostUplink(AccelId),
    /// Host link of one accelerator in the host-to-accelerator direction.
    HostDownlink(AccelId),
}

/// One schedulable hop: resource + duration.
#[derive(Debug, Clone, Copy)]
struct Hop {
    resource: Resource,
    duration: f64,
}

/// The discrete-event engine.
#[derive(Debug, Clone)]
pub(crate) struct Engine<'a> {
    topo: &'a Topology,
}

impl<'a> Engine<'a> {
    /// Creates an engine over a topology.
    pub(crate) fn new(topo: &'a Topology) -> Self {
        Self { topo }
    }

    /// The topology this engine schedules on.
    pub(crate) fn topology(&self) -> &Topology {
        self.topo
    }

    /// Expands a transfer into its sequence of hops (1 for direct or
    /// host-terminated transfers, 2 for host-staged accelerator pairs).
    fn hops(&self, t: &Transfer) -> Vec<Hop> {
        match (t.src, t.dst) {
            (Endpoint::Accel(a), Endpoint::Accel(b)) => {
                if a == b {
                    return vec![];
                }
                if self.topo.requires_host_staging(a, b) {
                    vec![
                        Hop {
                            resource: Resource::HostUplink(a),
                            duration: HOST_LATENCY
                                + transfer_seconds(t.bytes, self.topo.host_bandwidth(a)),
                        },
                        Hop {
                            resource: Resource::HostDownlink(b),
                            duration: HOST_LATENCY
                                + transfer_seconds(t.bytes, self.topo.host_bandwidth(b)),
                        },
                    ]
                } else {
                    vec![Hop {
                        resource: Resource::Link(a, b),
                        duration: LINK_LATENCY
                            + transfer_seconds(t.bytes, self.topo.bandwidth(a, b)),
                    }]
                }
            }
            (Endpoint::Accel(a), Endpoint::Host) => {
                vec![Hop {
                    resource: Resource::HostUplink(a),
                    duration: HOST_LATENCY + transfer_seconds(t.bytes, self.topo.host_bandwidth(a)),
                }]
            }
            (Endpoint::Host, Endpoint::Accel(a)) => {
                vec![Hop {
                    resource: Resource::HostDownlink(a),
                    duration: HOST_LATENCY + transfer_seconds(t.bytes, self.topo.host_bandwidth(a)),
                }]
            }
            (Endpoint::Host, Endpoint::Host) => vec![],
        }
    }

    /// Simulates a DAG of transfers and returns `(makespan_seconds,
    /// per-transfer completion times)`.
    ///
    /// # Panics
    ///
    /// Panics if a transfer depends on a transfer with a higher index
    /// (dependencies must point backwards, mirroring a topological order).
    pub(crate) fn simulate_with_completions(&self, transfers: &[Transfer]) -> (f64, Vec<f64>) {
        let mut completion = vec![0.0_f64; transfers.len()];
        let mut resource_free: HashMap<Resource, f64> = HashMap::new();

        for (i, t) in transfers.iter().enumerate() {
            let ready = t
                .deps
                .iter()
                .map(|d| {
                    assert!(*d < i, "dependency {d} of transfer {i} must precede it");
                    completion[*d]
                })
                .fold(0.0_f64, f64::max);

            let mut finish = ready;
            for hop in self.hops(t) {
                let free = resource_free.get(&hop.resource).copied().unwrap_or(0.0);
                let start = finish.max(free);
                finish = start + hop.duration;
                resource_free.insert(hop.resource, finish);
            }
            completion[i] = finish;
        }

        let makespan = completion.iter().copied().fold(0.0, f64::max);
        (makespan, completion)
    }

    /// Simulates a DAG of transfers and returns the makespan in seconds.
    pub(crate) fn simulate(&self, transfers: &[Transfer]) -> f64 {
        self.simulate_with_completions(transfers).0
    }

    /// Latency of a single point-to-point transfer.
    pub(crate) fn point_to_point(&self, src: AccelId, dst: AccelId, bytes: u64) -> f64 {
        self.simulate(&[Transfer::new(
            Endpoint::Accel(src),
            Endpoint::Accel(dst),
            bytes,
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_topology::presets;

    fn engine(topo: &Topology) -> Engine<'_> {
        Engine::new(topo)
    }

    #[test]
    fn direct_transfer_uses_link_bandwidth() {
        let topo = presets::f1_16xlarge();
        let e = engine(&topo);
        // 1 MB over 8 Gbps = 1 ms, plus the link latency.
        let t = e.point_to_point(AccelId(0), AccelId(1), 1_000_000);
        assert!((t - (1e-3 + LINK_LATENCY)).abs() < 1e-9, "{t}");
    }

    #[test]
    fn cross_group_transfer_is_host_staged() {
        let topo = presets::f1_16xlarge();
        let e = engine(&topo);
        // 1 MB over 2 Gbps host link, twice (up and down) = 8 ms, plus two
        // host-hop latencies.
        let t = e.point_to_point(AccelId(0), AccelId(4), 1_000_000);
        assert!((t - (8e-3 + 2.0 * HOST_LATENCY)).abs() < 1e-8, "{t}");
        // Much slower than the intra-group transfer.
        assert!(t > 4.0 * e.point_to_point(AccelId(0), AccelId(1), 1_000_000));
    }

    #[test]
    fn self_and_host_to_host_transfers_are_free() {
        let topo = presets::f1_16xlarge();
        let e = engine(&topo);
        assert_eq!(e.point_to_point(AccelId(0), AccelId(0), 1 << 20), 0.0);
        let t = e.simulate(&[Transfer::new(Endpoint::Host, Endpoint::Host, 1 << 20)]);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn fixed_latency_is_added_per_hop() {
        let topo = presets::f1_16xlarge();
        let e = engine(&topo);
        let direct = e.point_to_point(AccelId(0), AccelId(1), 0);
        assert!((direct - 5e-6).abs() < 1e-12);
        let staged = e.point_to_point(AccelId(0), AccelId(4), 0);
        assert!((staged - 50e-6).abs() < 1e-12);
    }

    #[test]
    fn contention_serialises_transfers_on_same_link() {
        let topo = presets::f1_16xlarge();
        let e = engine(&topo);
        // Two 1 MB transfers over the same link: 2 ms plus two latencies.
        let transfers = vec![
            Transfer::new(
                Endpoint::Accel(AccelId(0)),
                Endpoint::Accel(AccelId(1)),
                1_000_000,
            ),
            Transfer::new(
                Endpoint::Accel(AccelId(0)),
                Endpoint::Accel(AccelId(1)),
                1_000_000,
            ),
        ];
        let t = e.simulate(&transfers);
        assert!((t - 2.0 * (1e-3 + LINK_LATENCY)).abs() < 1e-9, "{t}");
        // Two transfers on disjoint links proceed in parallel: one transfer's
        // time.
        let transfers = vec![
            Transfer::new(
                Endpoint::Accel(AccelId(0)),
                Endpoint::Accel(AccelId(1)),
                1_000_000,
            ),
            Transfer::new(
                Endpoint::Accel(AccelId(2)),
                Endpoint::Accel(AccelId(3)),
                1_000_000,
            ),
        ];
        let t = e.simulate(&transfers);
        assert!((t - (1e-3 + LINK_LATENCY)).abs() < 1e-9, "{t}");
    }

    #[test]
    fn dependencies_are_respected() {
        let topo = presets::f1_16xlarge();
        let e = engine(&topo);
        // Chain of two dependent transfers on disjoint links: two transfers'
        // time.
        let transfers = vec![
            Transfer::new(
                Endpoint::Accel(AccelId(0)),
                Endpoint::Accel(AccelId(1)),
                1_000_000,
            ),
            Transfer::new(
                Endpoint::Accel(AccelId(2)),
                Endpoint::Accel(AccelId(3)),
                1_000_000,
            )
            .after([0]),
        ];
        let (makespan, completions) = e.simulate_with_completions(&transfers);
        assert!((makespan - 2.0 * (1e-3 + LINK_LATENCY)).abs() < 1e-9);
        assert!(completions[1] > completions[0]);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn forward_dependencies_panic() {
        let topo = presets::f1_16xlarge();
        let e = engine(&topo);
        let transfers = vec![
            Transfer::new(Endpoint::Accel(AccelId(0)), Endpoint::Accel(AccelId(1)), 1).after([1]),
            Transfer::new(Endpoint::Accel(AccelId(2)), Endpoint::Accel(AccelId(3)), 1),
        ];
        let _ = e.simulate(&transfers);
    }

    #[test]
    fn host_links_contend_independently_of_peer_links() {
        let topo = presets::f1_16xlarge();
        let e = engine(&topo);
        // A host-staged transfer (0 -> 4) and a direct transfer (0 -> 1) do not
        // share a resource, so the makespan is the host-staged time.
        let transfers = vec![
            Transfer::new(
                Endpoint::Accel(AccelId(0)),
                Endpoint::Accel(AccelId(4)),
                1_000_000,
            ),
            Transfer::new(
                Endpoint::Accel(AccelId(0)),
                Endpoint::Accel(AccelId(1)),
                1_000_000,
            ),
        ];
        let t = e.simulate(&transfers);
        assert!((t - (8e-3 + 2.0 * HOST_LATENCY)).abs() < 1e-8, "{t}");
    }
}
