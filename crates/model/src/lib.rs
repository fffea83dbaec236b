//! # mars-model
//!
//! DNN workload representation used by the MARS mapping framework.
//!
//! A workload is a [`Network`]: a directed acyclic graph of [`Layer`]s flattened
//! in topological order, exactly as in Section III of the paper ("the DNN
//! workload can be represented as a computation graph with a series of layers
//! `{L1, ..., LN}`").  Compute-intensive layers (convolutions and
//! fully-connected layers) expose their six-dimensional loop nest
//! (`Cout, Cin, H, W, Kh, Kw`) through [`LoopNest`], which is the object the
//! parallelism strategies of `mars-parallel` partition.
//!
//! The [`zoo`] module provides builders for every benchmark network used in the
//! paper's evaluation (AlexNet, VGG-16, ResNet-34, ResNet-101, WideResNet-50-2)
//! plus the heterogeneous multi-branch models used for the H2H comparison
//! (CASIA-SURF-like and FaceBagNet-like).
//!
//! ```
//! use mars_model::zoo;
//!
//! let net = zoo::resnet34(1000);
//! assert!(net.conv_layers().count() >= 33);
//! // Parameter count is ~21.8 M, matching Table III of the paper.
//! assert!((net.total_params() as f64) > 20.0e6 && (net.total_params() as f64) < 24.0e6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod graph;
mod layer;
mod loopnest;
mod tensor;
mod workload;
pub mod zoo;

pub use graph::{ChainBuilder, LayerId, Network, NetworkError};
pub use layer::{ConvParams, DenseParams, Layer, LayerKind, NormActParams, PoolKind, PoolParams};
pub use loopnest::{Dim, DimSet, LoopNest};
pub use tensor::{FeatureMap, BYTES_PER_ELEMENT};
pub use workload::{
    validate_faults, FaultEvent, FaultKind, PhasedTraffic, TrafficError, TrafficPhase,
    TrafficProfile, Workload, MAX_EXPECTED_ARRIVALS,
};
