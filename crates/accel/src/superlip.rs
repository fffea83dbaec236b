//! Design 1: SuperLIP-style tiled convolution accelerator (Jiang et al.,
//! "Achieving super-linear speedup across multi-FPGA for real-time DNN
//! inference", ACM TECS 2019).
//!
//! The architecture unrolls the output-channel and input-channel loops onto a
//! `Tm × Tn` multiplier array and tiles the output feature map into `Tr × Tc`
//! blocks that are streamed through the array.  Its defining property for the
//! MARS study is the small input-channel unroll factor (`Tn = 7`): layers with
//! very few input channels (the first layers of a CNN, `Cin = 3`) still keep
//! `3/7` of the array busy, whereas designs that unroll `Cin` more aggressively
//! idle most of their PEs there.

use crate::design::{tiles, AccelDesign, DesignId, PerformanceModel};
use mars_model::ConvParams;

/// Analytical model of the SuperLIP accelerator (Design 1 in Table II).
#[derive(Debug, Clone)]
pub(crate) struct SuperLipModel {
    design: AccelDesign,
    tm: usize,
    tn: usize,
    tr: usize,
    tc: usize,
}

impl SuperLipModel {
    /// Creates the Table II configuration: `Tm, Tn, Tr, Tc = 64, 7, 7, 14` at
    /// 200 MHz with 438 PEs.
    pub(crate) fn table2() -> Self {
        Self::new(DesignId(0), 200, 64, 7, 7, 14)
    }

    /// Creates a custom configuration.
    pub(crate) fn new(
        id: DesignId,
        frequency_mhz: u32,
        tm: usize,
        tn: usize,
        tr: usize,
        tc: usize,
    ) -> Self {
        // The published implementation achieves 438 effective PEs out of the
        // nominal Tm*Tn = 448 multiplier array; we keep the nominal product
        // for custom configurations and the published figure for the default.
        let num_pes = if (tm, tn) == (64, 7) {
            438
        } else {
            (tm * tn) as u32
        };
        Self {
            design: AccelDesign {
                id,
                name: "SuperLIP".into(),
                frequency_mhz,
                num_pes,
                memory_bytes: crate::design::DEFAULT_MEMORY_BYTES,
                parameters: format!("Tm, Tn, Tr, Tc: {tm}, {tn}, {tr}, {tc}"),
            },
            tm,
            tn,
            tr,
            tc,
        }
    }
}

impl PerformanceModel for SuperLipModel {
    fn design(&self) -> &AccelDesign {
        &self.design
    }

    fn conv_cycles(&self, conv: &ConvParams) -> u64 {
        let nest = conv.loop_nest();
        let [c_out, c_in, h, w, kh, kw] = nest.bounds();

        // Tile counts over the four unrolled/tiled dimensions.
        let t_cout = tiles(c_out, self.tm);
        let t_cin = tiles(c_in, self.tn);
        let t_h = tiles(h, self.tr);
        let t_w = tiles(w, self.tc);

        // Per output tile: the kernel window is iterated sequentially while the
        // Tm x Tn array computes one (row, col) position per cycle; loading the
        // input tile and flushing the output tile add a fixed per-tile cost.
        let compute_per_tile = (self.tr * self.tc * kh * kw) as u64;
        let tile_overhead = (self.tr * self.tc) as u64 + (self.tn * self.tm / 8) as u64;

        t_cout * t_cin * t_h * t_w * (compute_per_tile + tile_overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_descriptor_matches_paper() {
        let m = SuperLipModel::table2();
        assert_eq!(m.design().frequency_mhz, 200);
        assert_eq!(m.design().num_pes, 438);
        assert!(m.design().parameters.contains("64, 7, 7, 14"));
    }

    #[test]
    fn narrow_input_channels_keep_reasonable_utilization() {
        let m = SuperLipModel::table2();
        // AlexNet/ResNet stem style layer: 3 input channels.
        let early = ConvParams::new(64, 3, 112, 112, 7, 2);
        // Mid-network layer with plenty of channels.
        let mid = ConvParams::new(256, 256, 14, 14, 3, 1);
        let u_early = m.utilization(&early);
        let u_mid = m.utilization(&mid);
        // Early layers retain at least ~25% utilization (3/7 channel occupancy
        // times spatial tile quantisation), far better than channel-parallel
        // designs achieve there.
        assert!(u_early > 0.25, "early utilization {u_early}");
        assert!(u_mid > 0.5, "mid utilization {u_mid}");
    }

    #[test]
    fn cycles_scale_linearly_in_output_channels_by_tile() {
        let m = SuperLipModel::table2();
        let base = ConvParams::new(64, 64, 28, 28, 3, 1);
        let double = ConvParams::new(128, 64, 28, 28, 3, 1);
        assert_eq!(m.conv_cycles(&double), 2 * m.conv_cycles(&base));
    }

    #[test]
    fn cycles_are_monotonic_in_spatial_size() {
        let m = SuperLipModel::table2();
        let small = ConvParams::new(128, 128, 14, 14, 3, 1);
        let big = ConvParams::new(128, 128, 28, 28, 3, 1);
        assert!(m.conv_cycles(&big) > m.conv_cycles(&small));
    }

    #[test]
    fn pointwise_convs_are_supported() {
        let m = SuperLipModel::table2();
        let pw = ConvParams::new(256, 64, 56, 56, 1, 1);
        assert!(m.conv_cycles(&pw) > 0);
        // 1x1 utilization is lower than 3x3 (per-tile overhead amortises worse)
        // but not catastrophic.
        assert!(m.utilization(&pw) > 0.15);
    }

    #[test]
    fn custom_configuration_uses_nominal_pe_count() {
        let m = SuperLipModel::new(DesignId(5), 300, 32, 8, 7, 7);
        assert_eq!(m.design().num_pes, 256);
        assert_eq!(m.design().frequency_mhz, 300);
    }
}
