//! Design 3: Winograd fast-convolution accelerator (Lu et al., "Evaluating fast
//! algorithms for convolutional neural networks on FPGAs", FCCM 2017).
//!
//! The architecture computes `F(4×4, 3×3)` Winograd tiles: a 6×6 input tile is
//! transformed, multiplied element-wise (36 multipliers), and inverse
//! transformed into a 4×4 output tile, processing `Pn` input channels and `Pm`
//! output channels in parallel (`36 × Pn × Pm = 576` multipliers for the
//! Table II configuration).  The transform trick only pays off for 3×3
//! kernels; 1×1 convolutions degenerate to a single tap per tile and leave the
//! multiplier array almost entirely idle — which is exactly why the paper
//! observes that "design 3 does not show up in ResNet101 and WRN-50-2"
//! (both are dominated by 1×1 bottleneck convolutions).

use crate::design::{tiles, AccelDesign, DesignId, PerformanceModel};
use mars_model::ConvParams;

/// Analytical model of the Winograd accelerator (Design 3 in Table II).
#[derive(Debug, Clone)]
pub(crate) struct WinogradModel {
    design: AccelDesign,
    /// Input tile extent (`n`); output tile extent is `n - kernel + 1` for a
    /// 3×3 kernel, i.e. 4 for the Table II configuration.
    tile: usize,
    pn: usize,
    pm: usize,
}

impl WinogradModel {
    /// Creates the Table II configuration: `n, Pn, Pm = 6, 2, 8` at 200 MHz
    /// with 576 PEs.
    pub(crate) fn table2() -> Self {
        Self::new(DesignId(2), 200, 6, 2, 8)
    }

    /// Creates a custom configuration.
    pub(crate) fn new(id: DesignId, frequency_mhz: u32, tile: usize, pn: usize, pm: usize) -> Self {
        let num_pes = (tile * tile * pn * pm) as u32;
        Self {
            design: AccelDesign {
                id,
                name: "Winograd".into(),
                frequency_mhz,
                num_pes,
                memory_bytes: crate::design::DEFAULT_MEMORY_BYTES,
                parameters: format!("n, Pn, Pm: {tile}, {pn}, {pm}"),
            },
            tile,
            pn,
            pm,
        }
    }

    /// Output tile extent for a 3×3 kernel.
    fn out_tile(&self) -> usize {
        self.tile.saturating_sub(2).max(1)
    }
}

impl PerformanceModel for WinogradModel {
    fn design(&self) -> &AccelDesign {
        &self.design
    }

    fn conv_cycles(&self, conv: &ConvParams) -> u64 {
        let nest = conv.loop_nest();
        let [c_out, c_in, h, w, kh, kw] = nest.bounds();
        let out_tile = self.out_tile();

        // Spatial tiles of the output feature map.
        let t_h = tiles(h, out_tile);
        let t_w = tiles(w, out_tile);
        let t_cin = tiles(c_in, self.pn);
        let t_cout = tiles(c_out, self.pm);
        let tile_passes = t_h * t_w * t_cin * t_cout;

        if kh == 3 && kw == 3 {
            // Native Winograd path.  In steady state the element-wise multiply
            // stage retires one tile pass every 2 cycles; the input/inverse
            // transform pipelines are hidden behind the input-channel loop, so
            // short input-channel loops (early layers) expose their latency.
            let transform_exposure = 20u64.div_ceil(t_cin);
            tile_passes * (2 + transform_exposure)
        } else if kh == 1 && kw == 1 {
            // Pointwise fallback: the transform pipeline degenerates to a
            // single tap; only the centre multipliers of each 6x6 tile do
            // useful work, so each pass still costs the full pipeline depth
            // while producing only out_tile^2 x Pn x Pm useful MACs.
            tile_passes * 6
        } else {
            // Other kernel extents are not supported by the transform engines;
            // the design falls back to a direct convolution that keeps only a
            // small fraction of the multiplier array busy.
            let direct_macs_per_cycle =
                (self.out_tile() * self.out_tile() * self.pn * self.pm / 2).max(1) as u64;
            nest.macs().div_ceil(direct_macs_per_cycle)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superlip::SuperLipModel;
    use crate::systolic::SystolicModel;

    #[test]
    fn table2_descriptor_matches_paper() {
        let m = WinogradModel::table2();
        assert_eq!(m.design().num_pes, 576);
        assert!(m.design().parameters.contains("6, 2, 8"));
        assert_eq!(m.out_tile(), 4);
    }

    #[test]
    fn winograd_excels_at_3x3() {
        let wino = WinogradModel::table2();
        let sl = SuperLipModel::table2();
        let sys = SystolicModel::table2();
        // A VGG-style 3x3 layer with plenty of channels.
        let conv = ConvParams::new(256, 256, 28, 28, 3, 1);
        assert!(wino.conv_cycles(&conv) < sl.conv_cycles(&conv));
        assert!(wino.conv_cycles(&conv) < sys.conv_cycles(&conv));
        // Effective utilization can exceed 1.0 relative to the PE count since
        // Winograd performs fewer multiplications than the MAC count; check
        // raw speed instead.
    }

    #[test]
    fn winograd_collapses_on_1x1() {
        let wino = WinogradModel::table2();
        let sys = SystolicModel::table2();
        let sl = SuperLipModel::table2();
        // ResNet bottleneck 1x1 convolution.
        let pw = ConvParams::new(512, 2048, 7, 7, 1, 1);
        assert!(wino.conv_cycles(&pw) > 2 * sys.conv_cycles(&pw));
        assert!(wino.conv_cycles(&pw) > 2 * sl.conv_cycles(&pw));
    }

    #[test]
    fn large_kernels_fall_back_to_slow_direct_mode() {
        let wino = WinogradModel::table2();
        let k3 = ConvParams::new(64, 64, 56, 56, 3, 1);
        let k7 = ConvParams::new(64, 64, 56, 56, 7, 1);
        // 7x7 has 49/9 = 5.4x the MACs but must run in the direct fallback, so
        // the slowdown is far larger than the MAC ratio alone.
        let ratio = wino.conv_cycles(&k7) as f64 / wino.conv_cycles(&k3) as f64;
        assert!(ratio > 15.0, "ratio {ratio}");
        // SuperLIP handles the 7x7 layer natively and beats the fallback.
        let sl = crate::superlip::SuperLipModel::table2();
        assert!(sl.conv_cycles(&k7) < wino.conv_cycles(&k7));
    }

    #[test]
    fn cycles_monotonic_in_spatial_extent() {
        let wino = WinogradModel::table2();
        let a = ConvParams::new(128, 128, 14, 14, 3, 1);
        let b = ConvParams::new(128, 128, 28, 28, 3, 1);
        assert!(wino.conv_cycles(&b) > wino.conv_cycles(&a));
    }

    #[test]
    fn custom_configuration_pe_count() {
        let m = WinogradModel::new(DesignId(9), 200, 6, 4, 4);
        assert_eq!(m.design().num_pes, 576);
        let m2 = WinogradModel::new(DesignId(9), 200, 4, 2, 2);
        assert_eq!(m2.design().num_pes, 64);
        assert_eq!(m2.out_tile(), 2);
    }
}
