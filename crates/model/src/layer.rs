//! Layer-level intermediate representation.
//!
//! A [`Layer`] is one node of the workload graph.  Convolution and
//! fully-connected layers carry the parameters needed to build their
//! six-dimensional [`LoopNest`]; auxiliary layers (pooling, normalisation,
//! activation, element-wise add, concatenation) carry only their activation
//! shapes so that the mapper can account for the data they move, mirroring the
//! treatment in the paper where "convolution layers occupy most of the
//! computation resources".

use crate::loopnest::LoopNest;
use crate::tensor::{FeatureMap, BYTES_PER_ELEMENT};
use serde::{Deserialize, Serialize};

/// Parameters of a 2-D convolution layer.
///
/// The spatial extents stored here (`h_out`, `w_out`) are the *output*
/// feature-map extents, which are also the `H`/`W` loop bounds of the nest in
/// Fig. 2(a) of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvParams {
    /// Number of output channels (`Cout`).
    pub c_out: usize,
    /// Number of input channels (`Cin`).
    pub c_in: usize,
    /// Output feature-map height (`H`).
    pub h_out: usize,
    /// Output feature-map width (`W`).
    pub w_out: usize,
    /// Square kernel extent (`K`).
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Number of channel groups (1 for a dense convolution).
    pub(crate) groups: usize,
}

impl ConvParams {
    /// Creates a dense (non-grouped) convolution.
    pub fn new(
        c_out: usize,
        c_in: usize,
        h_out: usize,
        w_out: usize,
        kernel: usize,
        stride: usize,
    ) -> Self {
        Self {
            c_out,
            c_in,
            h_out,
            w_out,
            kernel,
            stride,
            groups: 1,
        }
    }

    /// The six-dimensional loop nest `(Cout, Cin/g, H, W, Kh, Kw)` describing
    /// the work of one channel group times the number of groups folded into
    /// the `Cin` bound (so that `macs()` stays exact for grouped layers).
    pub fn loop_nest(&self) -> LoopNest {
        LoopNest::new(
            self.c_out,
            self.c_in / self.groups.max(1),
            self.h_out,
            self.w_out,
            self.kernel,
            self.kernel,
        )
    }

    /// Multiply-accumulate count of the layer.
    pub fn macs(&self) -> u64 {
        self.loop_nest().macs()
    }

    /// Number of weight parameters (no bias).
    pub fn weight_count(&self) -> u64 {
        self.c_out as u64
            * (self.c_in / self.groups.max(1)) as u64
            * self.kernel as u64
            * self.kernel as u64
    }

    /// Weight size in bytes.
    pub fn weight_bytes(&self) -> u64 {
        self.weight_count() * BYTES_PER_ELEMENT
    }

    /// Shape of the input activation consumed by the layer.
    pub fn input_shape(&self) -> FeatureMap {
        FeatureMap::new(
            self.c_in,
            self.h_out * self.stride,
            self.w_out * self.stride,
        )
    }

    /// Shape of the output activation produced by the layer.
    pub fn output_shape(&self) -> FeatureMap {
        FeatureMap::new(self.c_out, self.h_out, self.w_out)
    }

    /// `true` if this is a pointwise (1×1) convolution, which Winograd-based
    /// accelerators cannot speed up (Section VI-B of the paper).
    pub fn is_pointwise(&self) -> bool {
        self.kernel == 1
    }
}

/// Parameters of a fully-connected (dense) layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DenseParams {
    /// Output features.
    pub(crate) out_features: usize,
    /// Input features.
    pub(crate) in_features: usize,
}

impl DenseParams {
    /// Creates a dense layer descriptor.
    pub(crate) fn new(out_features: usize, in_features: usize) -> Self {
        Self {
            out_features,
            in_features,
        }
    }

    /// The equivalent 1×1 convolution over a 1×1 feature map, which is how the
    /// mapper treats fully-connected layers.
    pub(crate) fn as_conv(&self) -> ConvParams {
        ConvParams::new(self.out_features, self.in_features, 1, 1, 1, 1)
    }
}

/// Pooling operator kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling (including global average pooling).
    Average,
}

/// Parameters of a pooling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PoolParams {
    /// Pooling kind.
    pub(crate) kind: PoolKind,
    /// Channels (unchanged by pooling).
    pub(crate) channels: usize,
    /// Output feature-map height.
    pub(crate) h_out: usize,
    /// Output feature-map width.
    pub(crate) w_out: usize,
    /// Window extent.
    pub(crate) window: usize,
    /// Stride.
    pub(crate) stride: usize,
}

impl PoolParams {
    /// Output activation shape.
    pub fn output_shape(&self) -> FeatureMap {
        FeatureMap::new(self.channels, self.h_out, self.w_out)
    }

    /// Comparison/accumulation operation count (one op per window element per
    /// output element); negligible next to convolutions but tracked for
    /// completeness.
    pub(crate) fn ops(&self) -> u64 {
        self.output_shape().elements() * (self.window * self.window) as u64
    }
}

/// Shape information for normalisation / activation / element-wise layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NormActParams {
    /// Activation shape the operator is applied to.
    pub shape: FeatureMap,
}

/// The operator performed by a [`Layer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv(ConvParams),
    /// Fully-connected layer.
    Dense(DenseParams),
    /// Pooling.
    Pool(PoolParams),
    /// Batch normalisation.
    BatchNorm(NormActParams),
    /// Point-wise activation (ReLU etc.).
    Activation(NormActParams),
    /// Element-wise addition (residual connection join).
    Add(NormActParams),
    /// Channel concatenation (multi-branch fusion join).
    Concat(NormActParams),
}

/// One node of the workload graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layer {
    /// Human-readable layer name (e.g. `"conv2_1"`).
    pub(crate) name: String,
    /// The operator.
    pub kind: LayerKind,
}

impl Layer {
    /// Creates a layer.
    pub fn new(name: impl Into<String>, kind: LayerKind) -> Self {
        Self {
            name: name.into(),
            kind,
        }
    }

    /// Convolution parameters if this layer is compute-intensive (a
    /// convolution, or a fully-connected layer viewed as a 1×1 convolution).
    pub fn as_conv(&self) -> Option<ConvParams> {
        match &self.kind {
            LayerKind::Conv(c) => Some(*c),
            LayerKind::Dense(d) => Some(d.as_conv()),
            _ => None,
        }
    }

    /// `true` if [`Layer::as_conv`] returns `Some`.
    pub fn is_compute(&self) -> bool {
        matches!(self.kind, LayerKind::Conv(_) | LayerKind::Dense(_))
    }

    /// `true` if the layer is a convolution proper (what Table III counts as
    /// `#Convs`).
    pub fn is_conv(&self) -> bool {
        matches!(self.kind, LayerKind::Conv(_))
    }

    /// Multiply-accumulate count of the layer (0 for non-compute layers,
    /// window ops for pooling).
    pub fn macs(&self) -> u64 {
        match &self.kind {
            LayerKind::Conv(c) => c.macs(),
            LayerKind::Dense(d) => d.as_conv().macs(),
            LayerKind::Pool(p) => p.ops(),
            _ => 0,
        }
    }

    /// Number of learnable parameters.
    pub fn param_count(&self) -> u64 {
        match &self.kind {
            LayerKind::Conv(c) => c.weight_count() + c.c_out as u64,
            LayerKind::Dense(d) => {
                d.out_features as u64 * d.in_features as u64 + d.out_features as u64
            }
            // Scale and shift per channel.
            LayerKind::BatchNorm(p) => 2 * p.shape.channels as u64,
            _ => 0,
        }
    }

    /// Shape of the activation produced by the layer.
    pub(crate) fn output_shape(&self) -> FeatureMap {
        match &self.kind {
            LayerKind::Conv(c) => c.output_shape(),
            LayerKind::Dense(d) => FeatureMap::new(d.out_features, 1, 1),
            LayerKind::Pool(p) => p.output_shape(),
            LayerKind::BatchNorm(p)
            | LayerKind::Activation(p)
            | LayerKind::Add(p)
            | LayerKind::Concat(p) => p.shape,
        }
    }

    /// Size in bytes of the output activation.
    pub fn output_bytes(&self) -> u64 {
        self.output_shape().bytes()
    }

    /// Shape of the (primary) input activation consumed by the layer.
    pub(crate) fn input_shape(&self) -> FeatureMap {
        match &self.kind {
            LayerKind::Conv(c) => c.input_shape(),
            LayerKind::Dense(d) => FeatureMap::new(d.in_features, 1, 1),
            LayerKind::Pool(p) => {
                FeatureMap::new(p.channels, p.h_out * p.stride, p.w_out * p.stride)
            }
            LayerKind::BatchNorm(p)
            | LayerKind::Activation(p)
            | LayerKind::Add(p)
            | LayerKind::Concat(p) => p.shape,
        }
    }

    /// Size in bytes of the input activation.
    pub fn input_bytes(&self) -> u64 {
        self.input_shape().bytes()
    }
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            LayerKind::Conv(c) => write!(
                f,
                "{}: Conv {}x{} {}->{} @{}x{} s{}",
                self.name, c.kernel, c.kernel, c.c_in, c.c_out, c.h_out, c.w_out, c.stride
            ),
            LayerKind::Dense(d) => {
                write!(f, "{}: FC {}->{}", self.name, d.in_features, d.out_features)
            }
            LayerKind::Pool(p) => write!(
                f,
                "{}: Pool {}x{} @{}x{}x{}",
                self.name, p.window, p.window, p.channels, p.h_out, p.w_out
            ),
            LayerKind::BatchNorm(p) => write!(f, "{}: BN {}", self.name, p.shape),
            LayerKind::Activation(p) => write!(f, "{}: Act {}", self.name, p.shape),
            LayerKind::Add(p) => write!(f, "{}: Add {}", self.name, p.shape),
            LayerKind::Concat(p) => write!(f, "{}: Concat {}", self.name, p.shape),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopnest::Dim;

    fn conv_example() -> ConvParams {
        // ResNet conv3_x style layer.
        ConvParams::new(128, 128, 28, 28, 3, 1)
    }

    #[test]
    fn conv_macs_match_loop_nest_product() {
        let c = conv_example();
        assert_eq!(c.macs(), 128 * 128 * 28 * 28 * 9);
        assert_eq!(c.loop_nest().bound(Dim::Kh), 3);
    }

    #[test]
    fn conv_weight_count_and_bytes() {
        let c = conv_example();
        assert_eq!(c.weight_count(), 128 * 128 * 9);
        assert_eq!(c.weight_bytes(), c.weight_count() * BYTES_PER_ELEMENT);
    }

    #[test]
    fn conv_shapes() {
        let c = ConvParams::new(64, 3, 112, 112, 7, 2);
        assert_eq!(c.output_shape(), FeatureMap::new(64, 112, 112));
        assert_eq!(c.input_shape(), FeatureMap::new(3, 224, 224));
        assert!(!c.is_pointwise());
        assert!(ConvParams::new(256, 64, 56, 56, 1, 1).is_pointwise());
    }

    #[test]
    fn grouped_conv_reduces_macs_and_weights() {
        let dense = ConvParams::new(128, 128, 28, 28, 3, 1);
        let grouped = ConvParams {
            groups: 4,
            ..ConvParams::new(128, 128, 28, 28, 3, 1)
        };
        assert_eq!(grouped.macs() * 4, dense.macs());
        assert_eq!(grouped.weight_count() * 4, dense.weight_count());
    }

    #[test]
    fn dense_as_conv_is_pointwise_1x1() {
        let d = DenseParams::new(4096, 9216);
        let c = d.as_conv();
        assert_eq!(c.kernel, 1);
        assert_eq!(c.macs(), 4096 * 9216);
    }

    #[test]
    fn layer_param_count_includes_bias() {
        let l = Layer::new(
            "conv1",
            LayerKind::Conv(ConvParams::new(64, 3, 112, 112, 7, 2)),
        );
        assert_eq!(l.param_count(), 64 * 3 * 49 + 64);
        let fc = Layer::new("fc", LayerKind::Dense(DenseParams::new(1000, 2048)));
        assert_eq!(fc.param_count(), 1000 * 2048 + 1000);
    }

    #[test]
    fn non_compute_layers_have_zero_macs_and_params() {
        let shape = FeatureMap::new(64, 56, 56);
        let relu = Layer::new("relu", LayerKind::Activation(NormActParams { shape }));
        assert_eq!(relu.macs(), 0);
        assert_eq!(relu.param_count(), 0);
        assert_eq!(relu.output_shape(), shape);
        let bn = Layer::new("bn", LayerKind::BatchNorm(NormActParams { shape }));
        assert_eq!(bn.param_count(), 128);
        assert!(!bn.is_compute());
    }

    #[test]
    fn pool_ops_and_shape() {
        let p = PoolParams {
            kind: PoolKind::Max,
            channels: 64,
            h_out: 56,
            w_out: 56,
            window: 3,
            stride: 2,
        };
        let l = Layer::new("pool", LayerKind::Pool(p));
        assert_eq!(l.output_shape(), FeatureMap::new(64, 56, 56));
        assert_eq!(l.macs(), 64 * 56 * 56 * 9);
    }

    #[test]
    fn display_is_informative() {
        let l = Layer::new("conv1", LayerKind::Conv(conv_example()));
        let s = l.to_string();
        assert!(s.contains("conv1"));
        assert!(s.contains("Conv"));
    }
}
