//! Design descriptors and the analytical performance-model trait.

use mars_model::{ConvParams, Layer, LayerKind};
use serde::{Deserialize, Serialize};

/// Identifier of an accelerator design inside a [`Catalog`](crate::Catalog).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct DesignId(pub usize);

impl std::fmt::Display for DesignId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Design {}", self.0 + 1)
    }
}

/// Default on-board memory of a design when the catalog does not override
/// it: 4 GiB, a typical FPGA accelerator card's DDR bank.
pub(crate) const DEFAULT_MEMORY_BYTES: u64 = 4 << 30;

/// Static description of an accelerator design (one row of Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelDesign {
    /// Design identifier.
    pub id: DesignId,
    /// Human-readable name.
    pub name: String,
    /// Clock frequency in MHz.
    pub frequency_mhz: u32,
    /// Number of processing elements (multipliers) in the design.
    pub num_pes: u32,
    /// On-board memory capacity in bytes.  A hard placement constraint for
    /// memory-bound workloads (LLM weights + KV cache): the co-scheduler
    /// rejects any placement whose per-accelerator footprint exceeds it.
    pub memory_bytes: u64,
    /// Free-form description of the design parameters (the last column of
    /// Table II).
    pub parameters: String,
}

impl AccelDesign {
    /// Clock period in seconds.
    pub(crate) fn clock_period(&self) -> f64 {
        1.0 / (self.frequency_mhz as f64 * 1e6)
    }

    /// Converts a cycle count into seconds at this design's clock frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 * self.clock_period()
    }
}

impl std::fmt::Display for AccelDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} MHz, {} PEs, {})",
            self.name, self.frequency_mhz, self.num_pes, self.parameters
        )
    }
}

/// An analytical performance model of one accelerator design.
///
/// Implementations return the number of clock cycles the design needs to
/// execute a convolution of the given shape, assuming weights and activations
/// are resident in the accelerator's off-chip DRAM (host transfers are
/// accounted for separately by the communication simulator).
pub trait PerformanceModel: Send + Sync {
    /// The static design descriptor.
    fn design(&self) -> &AccelDesign;

    /// Cycles needed to execute a convolution layer of shape `conv`.
    fn conv_cycles(&self, conv: &ConvParams) -> u64;

    /// Fixed per-layer overhead in cycles (configuration, DMA descriptor
    /// setup, pipeline fill/drain).  Charged once per layer invocation and
    /// once per shared-shard phase, so that extremely fine-grained sharding
    /// shows the diminishing returns real systems exhibit.
    fn layer_overhead_cycles(&self) -> u64 {
        1024
    }

    /// Cycles needed to execute an arbitrary layer.
    ///
    /// Convolutions and fully-connected layers go through [`conv_cycles`];
    /// pooling, normalisation, activation and element-wise layers are
    /// bandwidth-bound and modelled as one output element per PE-row per
    /// cycle, which keeps them negligible next to convolutions (as in the
    /// paper, which only discusses convolution latency).
    ///
    /// [`conv_cycles`]: PerformanceModel::conv_cycles
    fn layer_cycles(&self, layer: &Layer) -> u64 {
        match &layer.kind {
            LayerKind::Conv(_) | LayerKind::Dense(_) => {
                let conv = layer.as_conv().expect("compute layer has conv view");
                self.conv_cycles(&conv) + self.layer_overhead_cycles()
            }
            LayerKind::Pool(p) => p.output_shape().elements() / 16 + 64,
            LayerKind::BatchNorm(p)
            | LayerKind::Activation(p)
            | LayerKind::Add(p)
            | LayerKind::Concat(p) => p.shape.elements() / 32 + 32,
        }
    }

    /// Latency in seconds for a convolution of shape `conv`.
    fn conv_latency(&self, conv: &ConvParams) -> f64 {
        self.design().cycles_to_seconds(self.conv_cycles(conv))
    }

    /// Latency in seconds for an arbitrary layer.
    fn layer_latency(&self, layer: &Layer) -> f64 {
        self.design().cycles_to_seconds(self.layer_cycles(layer))
    }

    /// Achieved fraction of peak MAC throughput on `conv` (0.0 – 1.0).
    fn utilization(&self, conv: &ConvParams) -> f64 {
        let cycles = self.conv_cycles(conv) as f64;
        if cycles == 0.0 {
            return 0.0;
        }
        let ideal = conv.macs() as f64 / self.design().num_pes as f64;
        (ideal / cycles).min(1.0)
    }
}

/// Shared helper: ceiling division for tile counts.
pub(crate) fn tiles(extent: usize, tile: usize) -> u64 {
    (extent as u64).div_ceil(tile.max(1) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ideal {
        design: AccelDesign,
    }

    impl PerformanceModel for Ideal {
        fn design(&self) -> &AccelDesign {
            &self.design
        }
        fn conv_cycles(&self, conv: &ConvParams) -> u64 {
            conv.macs() / self.design.num_pes as u64
        }
    }

    fn ideal() -> Ideal {
        Ideal {
            design: AccelDesign {
                id: DesignId(0),
                name: "ideal".into(),
                frequency_mhz: 200,
                num_pes: 512,
                memory_bytes: DEFAULT_MEMORY_BYTES,
                parameters: "n/a".into(),
            },
        }
    }

    #[test]
    fn cycles_to_seconds_uses_frequency() {
        let d = ideal().design;
        assert!((d.cycles_to_seconds(200_000_000) - 1.0).abs() < 1e-12);
        assert!((d.clock_period() - 5e-9).abs() < 1e-15);
    }

    #[test]
    fn utilization_is_bounded() {
        let m = ideal();
        let conv = ConvParams::new(512, 512, 14, 14, 3, 1);
        let u = m.utilization(&conv);
        assert!(u > 0.9 && u <= 1.0);
    }

    #[test]
    fn layer_cycles_adds_overhead_for_compute_layers() {
        let m = ideal();
        let conv = ConvParams::new(64, 64, 28, 28, 3, 1);
        let layer = Layer::new("c", LayerKind::Conv(conv));
        assert_eq!(
            m.layer_cycles(&layer),
            m.conv_cycles(&conv) + m.layer_overhead_cycles()
        );
    }

    #[test]
    fn aux_layers_are_cheap() {
        let m = ideal();
        let shape = mars_model::FeatureMap::new(64, 56, 56);
        let relu = Layer::new(
            "relu",
            LayerKind::Activation(mars_model::NormActParams { shape }),
        );
        let conv = Layer::new("c", LayerKind::Conv(ConvParams::new(64, 64, 56, 56, 3, 1)));
        assert!(m.layer_cycles(&relu) * 10 < m.layer_cycles(&conv));
    }

    #[test]
    fn tiles_rounds_up_and_handles_zero() {
        assert_eq!(tiles(10, 3), 4);
        assert_eq!(tiles(9, 3), 3);
        assert_eq!(tiles(1, 8), 1);
        assert_eq!(tiles(0, 8), 1);
        assert_eq!(tiles(8, 0), 8);
    }

    #[test]
    fn display_formats() {
        assert_eq!(DesignId(0).to_string(), "Design 1");
        assert!(ideal().design.to_string().contains("200 MHz"));
    }
}
