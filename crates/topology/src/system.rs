//! The multi-accelerator system graph `G(Acc, BW)`.

use crate::Gbps;
use serde::{Deserialize, Serialize};

/// Identifier of one accelerator in a [`Topology`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct AccelId(pub usize);

impl std::fmt::Display for AccelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Acc{}", self.0)
    }
}

/// A direct accelerator-to-accelerator link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint.
    pub a: AccelId,
    /// The other endpoint.
    pub b: AccelId,
    /// Bandwidth in Gbps.
    pub bandwidth: Gbps,
}

/// Errors produced while building or validating a [`Topology`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// A referenced accelerator does not exist.
    UnknownAccelerator(AccelId),
    /// A link was declared with a non-positive bandwidth.
    InvalidBandwidth {
        /// Offending link endpoints.
        a: AccelId,
        /// Offending link endpoints.
        b: AccelId,
        /// The declared bandwidth.
        bandwidth: Gbps,
    },
    /// A self-link was declared.
    SelfLink(AccelId),
    /// The topology has no accelerators.
    Empty,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownAccelerator(id) => write!(f, "unknown accelerator {id}"),
            TopologyError::InvalidBandwidth { a, b, bandwidth } => {
                write!(f, "invalid bandwidth {bandwidth} Gbps on link {a}-{b}")
            }
            TopologyError::SelfLink(id) => write!(f, "self link on {id}"),
            TopologyError::Empty => write!(f, "topology has no accelerators"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The multi-accelerator platform: accelerators, direct links, host links,
/// DRAM capacities and group labels.
///
/// Bandwidths are symmetric (the matrix is kept symmetric by construction).
/// A bandwidth of `0.0` between two accelerators means there is no direct
/// link; traffic between them must be staged through the host, as on the F1
/// instance when crossing groups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    /// Flattened `n x n` symmetric bandwidth matrix in Gbps; 0.0 = no link.
    bandwidth: Vec<Gbps>,
    /// Host link bandwidth per accelerator in Gbps.
    host_bandwidth: Vec<Gbps>,
    /// Off-chip DRAM capacity per accelerator in bytes.
    dram_bytes: Vec<u64>,
    /// Group label per accelerator (e.g. the two FPGA groups of Fig. 1).
    group: Vec<usize>,
}

impl Topology {
    /// Number of accelerators.
    pub fn len(&self) -> usize {
        self.host_bandwidth.len()
    }

    /// `true` if the topology has no accelerators.
    pub fn is_empty(&self) -> bool {
        self.host_bandwidth.is_empty()
    }

    /// The platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Iterates over all accelerator ids.
    pub fn accelerators(&self) -> impl Iterator<Item = AccelId> {
        (0..self.len()).map(AccelId)
    }

    /// Direct link bandwidth between two accelerators in Gbps (0.0 if there is
    /// no direct link or the ids are equal).
    pub fn bandwidth(&self, a: AccelId, b: AccelId) -> Gbps {
        if a == b {
            return 0.0;
        }
        self.bandwidth[a.0 * self.len() + b.0]
    }

    /// Host link bandwidth of accelerator `a` in Gbps.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn host_bandwidth(&self, a: AccelId) -> Gbps {
        self.host_bandwidth[a.0]
    }

    /// DRAM capacity of accelerator `a` in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn dram_bytes(&self, a: AccelId) -> u64 {
        self.dram_bytes[a.0]
    }

    /// Group label of accelerator `a` (accelerators in the same group enjoy
    /// the low-latency direct links of Fig. 1).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn group(&self, a: AccelId) -> usize {
        self.group[a.0]
    }

    /// All accelerators with the given group label, in id order.
    pub fn group_members(&self, group: usize) -> Vec<AccelId> {
        self.accelerators()
            .filter(|a| self.group(*a) == group)
            .collect()
    }

    /// The set of distinct group labels, in ascending order.
    pub fn groups(&self) -> Vec<usize> {
        let mut g: Vec<usize> = self.group.clone();
        g.sort_unstable();
        g.dedup();
        g
    }

    /// All direct links (each undirected link reported once, `a < b`).
    pub fn links(&self) -> Vec<Link> {
        let mut links = Vec::new();
        for i in 0..self.len() {
            for j in (i + 1)..self.len() {
                let bw = self.bandwidth(AccelId(i), AccelId(j));
                if bw > 0.0 {
                    links.push(Link {
                        a: AccelId(i),
                        b: AccelId(j),
                        bandwidth: bw,
                    });
                }
            }
        }
        links
    }

    /// The *effective* bandwidth between two accelerators: the direct link if
    /// one exists, otherwise the bottleneck of staging through the host
    /// (minimum of the two host links).
    pub fn path_bandwidth(&self, a: AccelId, b: AccelId) -> Gbps {
        if a == b {
            return f64::INFINITY;
        }
        let direct = self.bandwidth(a, b);
        if direct > 0.0 {
            direct
        } else {
            self.host_bandwidth(a).min(self.host_bandwidth(b))
        }
    }

    /// `true` if the pair must communicate through the host (no direct link).
    pub fn requires_host_staging(&self, a: AccelId, b: AccelId) -> bool {
        a != b && self.bandwidth(a, b) <= 0.0
    }

    /// The minimum pairwise effective bandwidth within a set of accelerators —
    /// the bottleneck a collective over that set experiences.
    ///
    /// Returns `f64::INFINITY` for sets with fewer than two members.
    pub fn min_bandwidth_within(&self, set: &[AccelId]) -> Gbps {
        let mut min = f64::INFINITY;
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                min = min.min(self.path_bandwidth(a, b));
            }
        }
        min
    }

    /// The minimum DRAM capacity over a set of accelerators (the memory bound
    /// a replicated allocation must satisfy).  Returns `u64::MAX` for an empty
    /// set.
    pub fn min_dram_within(&self, set: &[AccelId]) -> u64 {
        set.iter()
            .map(|a| self.dram_bytes(*a))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// `true` if every pair in the set has a direct link (no host staging).
    pub fn is_fully_connected(&self, set: &[AccelId]) -> bool {
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                if self.requires_host_staging(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Empty`] for a topology with no accelerators.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.is_empty() {
            return Err(TopologyError::Empty);
        }
        Ok(())
    }

    /// Extracts the sub-platform induced by `set`: a topology over only those
    /// accelerators, reindexed to `AccelId(0)..AccelId(set.len())`, preserving
    /// pairwise link bandwidths, host links, DRAM capacities and group labels.
    ///
    /// Returns the sub-topology together with the id map from local ids back
    /// to the ids of `self` (`map[local.0] == global`).  The input set is
    /// sorted and deduplicated, so the map is ascending and the extraction is
    /// deterministic regardless of the order of `set`.
    ///
    /// This is the bridge the multi-workload co-scheduler uses: each workload
    /// of a co-schedule runs the single-network search on the sub-platform of
    /// its partition, and the resulting mapping is translated back through the
    /// id map.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Empty`] for an empty set and
    /// [`TopologyError::UnknownAccelerator`] if any member is out of range.
    ///
    /// ```
    /// use mars_topology::{presets, AccelId};
    ///
    /// let topo = presets::f1_16xlarge();
    /// let group = topo.group_members(1);
    /// let (sub, map) = topo.subtopology(&group).unwrap();
    /// assert_eq!(sub.len(), 4);
    /// assert_eq!(map, group);
    /// // Local pair (0, 1) is global pair (4, 5): same direct bandwidth.
    /// assert_eq!(
    ///     sub.bandwidth(AccelId(0), AccelId(1)),
    ///     topo.bandwidth(map[0], map[1]),
    /// );
    /// ```
    pub fn subtopology(&self, set: &[AccelId]) -> Result<(Topology, Vec<AccelId>), TopologyError> {
        let mut ids: Vec<AccelId> = set.to_vec();
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return Err(TopologyError::Empty);
        }
        if let Some(&bad) = ids.iter().find(|a| a.0 >= self.len()) {
            return Err(TopologyError::UnknownAccelerator(bad));
        }
        let m = ids.len();
        let mut bandwidth = vec![0.0; m * m];
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                bandwidth[i * m + j] = self.bandwidth(a, b);
            }
        }
        let sub = Topology {
            name: format!("{}[{}/{}]", self.name, m, self.len()),
            bandwidth,
            host_bandwidth: ids.iter().map(|a| self.host_bandwidth(*a)).collect(),
            dram_bytes: ids.iter().map(|a| self.dram_bytes(*a)).collect(),
            group: ids.iter().map(|a| self.group(*a)).collect(),
        };
        Ok((sub, ids))
    }

    /// Returns a copy with every bandwidth (inter-accelerator and host) scaled
    /// by `factor`; used by bandwidth-sweep experiments such as Table IV.
    pub fn scaled_bandwidth(&self, factor: f64) -> Topology {
        let mut t = self.clone();
        for bw in &mut t.bandwidth {
            *bw *= factor;
        }
        for bw in &mut t.host_bandwidth {
            *bw *= factor;
        }
        t
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} accelerators, {} direct links",
            self.name,
            self.len(),
            self.links().len()
        )?;
        for a in self.accelerators() {
            writeln!(
                f,
                "  {a}: group {}, host {:.1} Gbps, DRAM {} MiB",
                self.group(a),
                self.host_bandwidth(a),
                self.dram_bytes(a) / (1 << 20)
            )?;
        }
        Ok(())
    }
}

/// Builder for [`Topology`].
///
/// ```
/// use mars_topology::{AccelId, TopologyBuilder};
///
/// # fn main() -> Result<(), mars_topology::TopologyError> {
/// let topo = TopologyBuilder::new("pair")
///     .accelerators(2, 2.0, 1 << 30)
///     .link(AccelId(0), AccelId(1), 8.0)?
///     .build()?;
/// assert_eq!(topo.bandwidth(AccelId(0), AccelId(1)), 8.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    host_bandwidth: Vec<Gbps>,
    dram_bytes: Vec<u64>,
    group: Vec<usize>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Starts building a topology with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            host_bandwidth: Vec::new(),
            dram_bytes: Vec::new(),
            group: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Appends `count` accelerators with identical host bandwidth and DRAM
    /// capacity, all in group 0.
    pub fn accelerators(mut self, count: usize, host_bandwidth: Gbps, dram_bytes: u64) -> Self {
        for _ in 0..count {
            self.host_bandwidth.push(host_bandwidth);
            self.dram_bytes.push(dram_bytes);
            self.group.push(0);
        }
        self
    }

    /// Appends one accelerator with explicit parameters and group label,
    /// returning its id through the builder (ids are assigned sequentially).
    pub fn accelerator(
        mut self,
        host_bandwidth: Gbps,
        dram_bytes: u64,
        group: usize,
    ) -> (Self, AccelId) {
        let id = AccelId(self.host_bandwidth.len());
        self.host_bandwidth.push(host_bandwidth);
        self.dram_bytes.push(dram_bytes);
        self.group.push(group);
        (self, id)
    }

    /// Sets the group label of an accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownAccelerator`] for out-of-range ids.
    pub(crate) fn set_group(mut self, a: AccelId, group: usize) -> Result<Self, TopologyError> {
        if a.0 >= self.host_bandwidth.len() {
            return Err(TopologyError::UnknownAccelerator(a));
        }
        self.group[a.0] = group;
        Ok(self)
    }

    /// Declares a symmetric link.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown endpoints, self links, or non-positive
    /// bandwidths.
    pub fn link(mut self, a: AccelId, b: AccelId, bandwidth: Gbps) -> Result<Self, TopologyError> {
        let n = self.host_bandwidth.len();
        if a.0 >= n {
            return Err(TopologyError::UnknownAccelerator(a));
        }
        if b.0 >= n {
            return Err(TopologyError::UnknownAccelerator(b));
        }
        if a == b {
            return Err(TopologyError::SelfLink(a));
        }
        if bandwidth <= 0.0 {
            return Err(TopologyError::InvalidBandwidth { a, b, bandwidth });
        }
        self.links.push(Link { a, b, bandwidth });
        Ok(self)
    }

    /// Fully connects every accelerator pair inside `set` at `bandwidth`.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`TopologyBuilder::link`].
    pub fn clique(mut self, set: &[AccelId], bandwidth: Gbps) -> Result<Self, TopologyError> {
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                self = self.link(a, b, bandwidth)?;
            }
        }
        Ok(self)
    }

    /// Finalises the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Empty`] if no accelerators were added.
    pub fn build(self) -> Result<Topology, TopologyError> {
        let n = self.host_bandwidth.len();
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        let mut bandwidth = vec![0.0; n * n];
        for link in &self.links {
            bandwidth[link.a.0 * n + link.b.0] = link.bandwidth;
            bandwidth[link.b.0 * n + link.a.0] = link.bandwidth;
        }
        Ok(Topology {
            name: self.name,
            bandwidth,
            host_bandwidth: self.host_bandwidth,
            dram_bytes: self.dram_bytes,
            group: self.group,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_group_topology() -> Topology {
        // 4 accelerators, two groups of two, 8 Gbps intra-group, host 2 Gbps.
        let mut b = TopologyBuilder::new("test").accelerators(4, 2.0, 1 << 30);
        b = b.set_group(AccelId(2), 1).unwrap();
        b = b.set_group(AccelId(3), 1).unwrap();
        b = b.link(AccelId(0), AccelId(1), 8.0).unwrap();
        b = b.link(AccelId(2), AccelId(3), 8.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn bandwidth_is_symmetric_and_zero_for_missing_links() {
        let t = two_group_topology();
        assert_eq!(t.bandwidth(AccelId(0), AccelId(1)), 8.0);
        assert_eq!(t.bandwidth(AccelId(1), AccelId(0)), 8.0);
        assert_eq!(t.bandwidth(AccelId(0), AccelId(2)), 0.0);
        assert_eq!(t.bandwidth(AccelId(0), AccelId(0)), 0.0);
    }

    #[test]
    fn path_bandwidth_falls_back_to_host() {
        let t = two_group_topology();
        assert_eq!(t.path_bandwidth(AccelId(0), AccelId(1)), 8.0);
        assert_eq!(t.path_bandwidth(AccelId(0), AccelId(2)), 2.0);
        assert!(t.requires_host_staging(AccelId(0), AccelId(2)));
        assert!(!t.requires_host_staging(AccelId(0), AccelId(1)));
    }

    #[test]
    fn min_bandwidth_within_sets() {
        let t = two_group_topology();
        assert_eq!(t.min_bandwidth_within(&[AccelId(0), AccelId(1)]), 8.0);
        assert_eq!(
            t.min_bandwidth_within(&[AccelId(0), AccelId(1), AccelId(2)]),
            2.0
        );
        assert!(t.min_bandwidth_within(&[AccelId(0)]).is_infinite());
    }

    #[test]
    fn groups_and_members() {
        let t = two_group_topology();
        assert_eq!(t.groups(), vec![0, 1]);
        assert_eq!(t.group_members(0), vec![AccelId(0), AccelId(1)]);
        assert_eq!(t.group_members(1), vec![AccelId(2), AccelId(3)]);
    }

    #[test]
    fn links_reported_once() {
        let t = two_group_topology();
        let links = t.links();
        assert_eq!(links.len(), 2);
        assert!(links.iter().all(|l| l.a < l.b));
    }

    #[test]
    fn builder_rejects_bad_links() {
        let b = TopologyBuilder::new("x").accelerators(2, 1.0, 1024);
        assert!(matches!(
            b.clone().link(AccelId(0), AccelId(5), 1.0),
            Err(TopologyError::UnknownAccelerator(_))
        ));
        assert!(matches!(
            b.clone().link(AccelId(0), AccelId(0), 1.0),
            Err(TopologyError::SelfLink(_))
        ));
        assert!(matches!(
            b.clone().link(AccelId(0), AccelId(1), 0.0),
            Err(TopologyError::InvalidBandwidth { .. })
        ));
    }

    #[test]
    fn empty_topology_rejected() {
        assert!(matches!(
            TopologyBuilder::new("x").build(),
            Err(TopologyError::Empty)
        ));
    }

    #[test]
    fn clique_connects_all_pairs() {
        let set = [AccelId(0), AccelId(1), AccelId(2)];
        let t = TopologyBuilder::new("x")
            .accelerators(3, 1.0, 1024)
            .clique(&set, 4.0)
            .unwrap()
            .build()
            .unwrap();
        assert!(t.is_fully_connected(&set));
        assert_eq!(t.links().len(), 3);
    }

    #[test]
    fn scaled_bandwidth_scales_everything() {
        let t = two_group_topology().scaled_bandwidth(0.5);
        assert_eq!(t.bandwidth(AccelId(0), AccelId(1)), 4.0);
        assert_eq!(t.host_bandwidth(AccelId(0)), 1.0);
    }

    #[test]
    fn min_dram_and_host_bandwidth() {
        let (b, _) = TopologyBuilder::new("x").accelerator(2.0, 100, 0);
        let (b, _) = b.accelerator(4.0, 200, 0);
        let t = b.build().unwrap();
        let all = [AccelId(0), AccelId(1)];
        assert_eq!(t.min_dram_within(&all), 100);
        assert_eq!(t.min_dram_within(&[]), u64::MAX);
    }

    #[test]
    fn subtopology_reindexes_and_preserves_parameters() {
        let t = two_group_topology();
        // Unsorted with a duplicate: extraction sorts and dedups.
        let (sub, map) = t
            .subtopology(&[AccelId(3), AccelId(2), AccelId(3)])
            .unwrap();
        assert_eq!(map, vec![AccelId(2), AccelId(3)]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.bandwidth(AccelId(0), AccelId(1)), 8.0);
        assert_eq!(sub.host_bandwidth(AccelId(0)), 2.0);
        assert_eq!(sub.dram_bytes(AccelId(1)), 1 << 30);
        // Group labels carried over verbatim.
        assert_eq!(sub.group(AccelId(0)), 1);
        sub.validate().unwrap();
    }

    #[test]
    fn subtopology_drops_links_to_outside_members() {
        let t = two_group_topology();
        // One member from each group: they had no direct link, and the
        // sub-platform must still stage through the host.
        let (sub, _) = t.subtopology(&[AccelId(0), AccelId(2)]).unwrap();
        assert_eq!(sub.bandwidth(AccelId(0), AccelId(1)), 0.0);
        assert!(sub.requires_host_staging(AccelId(0), AccelId(1)));
        assert_eq!(sub.path_bandwidth(AccelId(0), AccelId(1)), 2.0);
    }

    #[test]
    fn subtopology_rejects_bad_sets() {
        let t = two_group_topology();
        assert!(matches!(t.subtopology(&[]), Err(TopologyError::Empty)));
        assert!(matches!(
            t.subtopology(&[AccelId(9)]),
            Err(TopologyError::UnknownAccelerator(AccelId(9)))
        ));
    }

    #[test]
    fn subtopology_of_all_accelerators_is_the_topology_itself() {
        let t = two_group_topology();
        let all: Vec<AccelId> = t.accelerators().collect();
        let (sub, map) = t.subtopology(&all).unwrap();
        assert_eq!(map, all);
        for a in t.accelerators() {
            for b in t.accelerators() {
                assert_eq!(sub.bandwidth(a, b), t.bandwidth(a, b));
            }
            assert_eq!(sub.host_bandwidth(a), t.host_bandwidth(a));
            assert_eq!(sub.group(a), t.group(a));
        }
    }

    #[test]
    fn display_mentions_groups() {
        let t = two_group_topology();
        let s = t.to_string();
        assert!(s.contains("4 accelerators"));
        assert!(s.contains("group 1"));
    }
}
