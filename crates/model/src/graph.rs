//! The workload computation graph.
//!
//! A [`Network`] is a directed acyclic graph of [`Layer`]s.  Layers are stored
//! in the order they were added, which is required to be a topological order
//! (the builder enforces that every edge points forward).  This matches the
//! paper's formulation where the workload is "a series of layers
//! `{L1, ..., LN}` (flattened in topology order)" and the first-level genetic
//! algorithm maps *contiguous* runs of that order onto accelerator sets.

use crate::layer::Layer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Identifier of a layer inside a [`Network`] (its topological index).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct LayerId(pub usize);

impl std::fmt::Display for LayerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Errors produced while constructing or validating a [`Network`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// An edge references a layer id that does not exist.
    UnknownLayer(LayerId),
    /// An edge points backwards (or to itself) with respect to the insertion
    /// order, which would break the topological-order invariant.
    BackwardEdge {
        /// Edge source.
        from: LayerId,
        /// Edge destination.
        to: LayerId,
    },
    /// The network contains no layers.
    Empty,
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::UnknownLayer(id) => write!(f, "unknown layer {id}"),
            NetworkError::BackwardEdge { from, to } => {
                write!(f, "edge {from} -> {to} violates topological order")
            }
            NetworkError::Empty => write!(f, "network contains no layers"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A DNN workload: a named DAG of layers in topological order.
///
/// ```
/// use mars_model::{ConvParams, Layer, LayerKind, Network};
///
/// # fn main() -> Result<(), mars_model::NetworkError> {
/// let mut net = Network::new("tiny");
/// let a = net.add_layer(Layer::new(
///     "conv1",
///     LayerKind::Conv(ConvParams::new(16, 3, 32, 32, 3, 1)),
/// ));
/// let b = net.add_layer(Layer::new(
///     "conv2",
///     LayerKind::Conv(ConvParams::new(32, 16, 32, 32, 3, 1)),
/// ));
/// net.connect(a, b)?;
/// assert_eq!(net.len(), 2);
/// assert_eq!(net.edges().collect::<Vec<_>>(), vec![(a, b)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    layers: Vec<Layer>,
    edges: BTreeSet<(LayerId, LayerId)>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            layers: Vec::new(),
            edges: BTreeSet::new(),
        }
    }

    /// The network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a layer and returns its id.  The id is the layer's position in
    /// the topological order.
    pub fn add_layer(&mut self, layer: Layer) -> LayerId {
        let id = LayerId(self.layers.len());
        self.layers.push(layer);
        id
    }

    /// Adds a data dependency `from -> to`.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownLayer`] if either endpoint does not
    /// exist and [`NetworkError::BackwardEdge`] if `from >= to`, which would
    /// violate the topological-order invariant.
    pub fn connect(&mut self, from: LayerId, to: LayerId) -> Result<(), NetworkError> {
        if from.0 >= self.layers.len() {
            return Err(NetworkError::UnknownLayer(from));
        }
        if to.0 >= self.layers.len() {
            return Err(NetworkError::UnknownLayer(to));
        }
        if from.0 >= to.0 {
            return Err(NetworkError::BackwardEdge { from, to });
        }
        self.edges.insert((from, to));
        Ok(())
    }

    /// Appends a layer and connects it after `prev` in one call, returning the
    /// new layer's id.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Network::connect`].
    pub fn push_after(&mut self, prev: LayerId, layer: Layer) -> Result<LayerId, NetworkError> {
        let id = self.add_layer(layer);
        self.connect(prev, id)?;
        Ok(id)
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// All layers in topological order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Iterates over `(LayerId, &Layer)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (LayerId, &Layer)> {
        self.layers.iter().enumerate().map(|(i, l)| (LayerId(i), l))
    }

    /// All edges in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (LayerId, LayerId)> + '_ {
        self.edges.iter().copied()
    }

    /// Direct successors of `id`.
    pub(crate) fn successors(&self, id: LayerId) -> Vec<LayerId> {
        self.edges
            .iter()
            .filter(|(from, _)| *from == id)
            .map(|(_, to)| *to)
            .collect()
    }

    /// Direct predecessors of `id`.
    pub(crate) fn predecessors(&self, id: LayerId) -> Vec<LayerId> {
        self.edges
            .iter()
            .filter(|(_, to)| *to == id)
            .map(|(from, _)| *from)
            .collect()
    }

    /// Iterates over the compute-intensive layers (convolutions and
    /// fully-connected layers) in topological order.
    pub fn compute_layers(&self) -> impl Iterator<Item = (LayerId, &Layer)> {
        self.iter().filter(|(_, l)| l.is_compute())
    }

    /// Iterates over convolution layers only (the `#Convs` column of
    /// Table III).
    pub fn conv_layers(&self) -> impl Iterator<Item = (LayerId, &Layer)> {
        self.iter().filter(|(_, l)| l.is_conv())
    }

    /// Total multiply-accumulate count of the network.  This matches the
    /// "FLOPs" column of Table III, which counts MACs.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Total learnable parameter count ("#Params" in Table III).
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Validates structural invariants: non-empty, every edge endpoint exists
    /// and points forward.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetworkError> {
        if self.layers.is_empty() {
            return Err(NetworkError::Empty);
        }
        for (from, to) in &self.edges {
            if from.0 >= self.layers.len() {
                return Err(NetworkError::UnknownLayer(*from));
            }
            if to.0 >= self.layers.len() {
                return Err(NetworkError::UnknownLayer(*to));
            }
            if from.0 >= to.0 {
                return Err(NetworkError::BackwardEdge {
                    from: *from,
                    to: *to,
                });
            }
        }
        Ok(())
    }

    /// Returns the ids of layers with no predecessors (the network inputs).
    pub fn sources(&self) -> Vec<LayerId> {
        (0..self.layers.len())
            .map(LayerId)
            .filter(|id| self.predecessors(*id).is_empty())
            .collect()
    }

    /// Returns the ids of layers with no successors (the network outputs).
    pub fn sinks(&self) -> Vec<LayerId> {
        (0..self.layers.len())
            .map(LayerId)
            .filter(|id| self.successors(*id).is_empty())
            .collect()
    }

    /// Merges another network into this one as an independent branch, shifting
    /// its layer ids.  Returns the id offset applied to `other`'s layers.
    ///
    /// This is how heterogeneous multi-model workloads (e.g. the multi-modal
    /// CASIA-SURF branches) are assembled before being joined by a fusion
    /// layer.
    pub fn absorb(&mut self, other: &Network) -> usize {
        let offset = self.layers.len();
        self.layers.extend(other.layers.iter().cloned());
        for (from, to) in &other.edges {
            self.edges
                .insert((LayerId(from.0 + offset), LayerId(to.0 + offset)));
        }
        offset
    }

    /// A short single-line summary used by reports.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} layers ({} convs), {:.1}M params, {:.2}G MACs",
            self.name,
            self.len(),
            self.conv_layers().count(),
            self.total_params() as f64 / 1e6,
            self.total_macs() as f64 / 1e9
        )
    }
}

impl std::fmt::Display for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for (id, layer) in self.iter() {
            writeln!(f, "  {id}: {layer}")?;
        }
        Ok(())
    }
}

/// Convenience builder for linear (chain) networks, used heavily by the zoo.
#[derive(Debug)]
pub struct ChainBuilder {
    net: Network,
    tail: Option<LayerId>,
}

impl ChainBuilder {
    /// Starts a chain with the given network name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            net: Network::new(name),
            tail: None,
        }
    }

    /// Appends a layer to the end of the chain.
    pub fn push(&mut self, layer: Layer) -> LayerId {
        let id = self.net.add_layer(layer);
        if let Some(prev) = self.tail {
            self.net
                .connect(prev, id)
                .expect("chain edges are always forward");
        }
        self.tail = Some(id);
        id
    }

    /// Finishes the chain and returns the network.
    pub fn finish(self) -> Network {
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvParams, DenseParams, LayerKind, NormActParams};
    use crate::tensor::FeatureMap;

    fn conv(c_out: usize, c_in: usize, hw: usize) -> Layer {
        Layer::new(
            format!("conv_{c_in}_{c_out}"),
            LayerKind::Conv(ConvParams::new(c_out, c_in, hw, hw, 3, 1)),
        )
    }

    #[test]
    fn add_and_connect_layers() {
        let mut net = Network::new("t");
        let a = net.add_layer(conv(16, 3, 32));
        let b = net.add_layer(conv(32, 16, 32));
        net.connect(a, b).unwrap();
        assert_eq!(net.len(), 2);
        assert_eq!(net.successors(a), vec![b]);
        assert_eq!(net.predecessors(b), vec![a]);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn backward_and_self_edges_rejected() {
        let mut net = Network::new("t");
        let a = net.add_layer(conv(16, 3, 32));
        let b = net.add_layer(conv(32, 16, 32));
        assert_eq!(
            net.connect(b, a),
            Err(NetworkError::BackwardEdge { from: b, to: a })
        );
        assert_eq!(
            net.connect(a, a),
            Err(NetworkError::BackwardEdge { from: a, to: a })
        );
    }

    #[test]
    fn unknown_layer_rejected() {
        let mut net = Network::new("t");
        let a = net.add_layer(conv(16, 3, 32));
        let ghost = LayerId(42);
        assert_eq!(
            net.connect(a, ghost),
            Err(NetworkError::UnknownLayer(ghost))
        );
    }

    #[test]
    fn empty_network_fails_validation() {
        let net = Network::new("t");
        assert_eq!(net.validate(), Err(NetworkError::Empty));
    }

    #[test]
    fn totals_sum_over_layers() {
        let mut net = Network::new("t");
        let a = net.add_layer(conv(16, 3, 32));
        let b = net.add_layer(Layer::new("fc", LayerKind::Dense(DenseParams::new(10, 16))));
        net.connect(a, b).unwrap();
        assert_eq!(net.total_macs(), 16 * 3 * 32 * 32 * 9 + 10 * 16);
        assert_eq!(net.total_params(), (16 * 3 * 9 + 16) + (10 * 16 + 10));
    }

    #[test]
    fn sources_and_sinks() {
        let mut net = Network::new("t");
        let a = net.add_layer(conv(16, 3, 32));
        let b = net.add_layer(conv(16, 16, 32));
        let c = net.add_layer(Layer::new(
            "add",
            LayerKind::Add(NormActParams {
                shape: FeatureMap::new(16, 32, 32),
            }),
        ));
        net.connect(a, b).unwrap();
        net.connect(a, c).unwrap();
        net.connect(b, c).unwrap();
        assert_eq!(net.sources(), vec![a]);
        assert_eq!(net.sinks(), vec![c]);
    }

    #[test]
    fn chain_builder_links_sequentially() {
        let mut b = ChainBuilder::new("chain");
        let l0 = b.push(conv(8, 3, 16));
        let l1 = b.push(conv(16, 8, 16));
        let l2 = b.push(conv(32, 16, 16));
        let net = b.finish();
        assert_eq!(net.successors(l0), vec![l1]);
        assert_eq!(net.successors(l1), vec![l2]);
        assert_eq!(net.sinks(), vec![l2]);
    }

    #[test]
    fn absorb_offsets_ids_and_edges() {
        let mut a = Network::new("a");
        let a0 = a.add_layer(conv(8, 3, 16));
        let a1 = a.add_layer(conv(8, 8, 16));
        a.connect(a0, a1).unwrap();

        let mut b = Network::new("b");
        let b0 = b.add_layer(conv(8, 3, 16));
        let b1 = b.add_layer(conv(8, 8, 16));
        b.connect(b0, b1).unwrap();

        let offset = a.absorb(&b);
        assert_eq!(offset, 2);
        assert_eq!(a.len(), 4);
        assert_eq!(a.successors(LayerId(2)), vec![LayerId(3)]);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn display_and_summary_mention_name() {
        let mut net = Network::new("tiny");
        net.add_layer(conv(8, 3, 16));
        assert!(net.summary().starts_with("tiny:"));
        assert!(net.to_string().contains("Conv"));
    }
}
