//! Design 2: automated systolic-array accelerator (Wei et al., "Automated
//! systolic array architecture synthesis for high throughput CNN inference on
//! FPGAs", DAC 2017).
//!
//! The architecture is a 2-D systolic array of `row × col` PEs, each operating
//! on a `vec`-wide SIMD slice of the input channels.  Output feature-map
//! positions stream along the rows and output channels along the columns.  The
//! design saturates only when both the spatial extent and the channel widths
//! are large, which is why MARS maps the deep, wide layers of a network to it
//! and keeps the narrow early layers away from it.

use crate::design::{tiles, AccelDesign, DesignId, PerformanceModel};
use mars_model::ConvParams;

/// Analytical model of the systolic-array accelerator (Design 2 in Table II).
#[derive(Debug, Clone)]
pub struct SystolicModel {
    design: AccelDesign,
    rows: usize,
    cols: usize,
    vec: usize,
}

impl SystolicModel {
    /// Creates the Table II configuration: `row, col, vec = 11, 13, 8` at
    /// 200 MHz with 572 PEs.
    pub(crate) fn table2() -> Self {
        Self::new(DesignId(1), 200, 11, 13, 8)
    }

    /// Creates a custom configuration.
    pub fn new(id: DesignId, frequency_mhz: u32, rows: usize, cols: usize, vec: usize) -> Self {
        // Each of the row*col PEs contains a `vec/2`-wide fused MAC datapath in
        // the published design, giving 11*13*4 = 572 effective PEs.
        let num_pes = if (rows, cols, vec) == (11, 13, 8) {
            572
        } else {
            (rows * cols * vec / 2).max(1) as u32
        };
        Self {
            design: AccelDesign {
                id,
                name: "Systolic".into(),
                frequency_mhz,
                num_pes,
                memory_bytes: crate::design::DEFAULT_MEMORY_BYTES,
                parameters: format!("row, col, vec: {rows}, {cols}, {vec}"),
            },
            rows,
            cols,
            vec,
        }
    }
}

impl PerformanceModel for SystolicModel {
    fn design(&self) -> &AccelDesign {
        &self.design
    }

    fn conv_cycles(&self, conv: &ConvParams) -> u64 {
        let nest = conv.loop_nest();
        let [c_out, c_in, h, w, kh, kw] = nest.bounds();

        // Output pixels stream along rows, output channels along columns, and
        // the input-channel dimension is consumed `vec` lanes at a time.  The
        // kernel window is iterated sequentially.  Each PE retires `vec/2`
        // MACs per cycle, so one pass over the array takes 2 cycles per
        // (pixel-tile, channel-tile, cin-tile, tap) combination.
        let t_pix = tiles(h * w, self.rows);
        let t_cout = tiles(c_out, self.cols);
        let t_cin = tiles(c_in, self.vec);
        let taps = (kh * kw) as u64;

        // Array fill/drain: rows + cols cycles per (cout, cin) tile pass.
        let drain = (self.rows + self.cols) as u64;

        t_pix * t_cout * (t_cin * taps * 2 + drain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superlip::SuperLipModel;

    #[test]
    fn table2_descriptor_matches_paper() {
        let m = SystolicModel::table2();
        assert_eq!(m.design().num_pes, 572);
        assert!(m.design().parameters.contains("11, 13, 8"));
    }

    #[test]
    fn saturates_on_wide_deep_layers() {
        let m = SystolicModel::table2();
        let deep = ConvParams::new(512, 512, 14, 14, 3, 1);
        assert!(m.utilization(&deep) > 0.6, "util {}", m.utilization(&deep));
    }

    #[test]
    fn starves_on_narrow_input_channels() {
        let m = SystolicModel::table2();
        let early = ConvParams::new(64, 3, 112, 112, 7, 2);
        // 3 of 8 SIMD lanes busy at best.
        assert!(m.utilization(&early) < 0.45);
        // And SuperLIP beats it there (the pattern Table III reports for the
        // first layers of every model).
        let superlip = SuperLipModel::table2();
        assert!(superlip.conv_cycles(&early) < m.conv_cycles(&early));
    }

    #[test]
    fn beats_superlip_on_deep_layers() {
        let sys = SystolicModel::table2();
        let sl = SuperLipModel::table2();
        let deep = ConvParams::new(512, 512, 7, 7, 3, 1);
        assert!(sys.conv_cycles(&deep) < sl.conv_cycles(&deep));
    }

    #[test]
    fn cycles_monotonic_in_channels() {
        let m = SystolicModel::table2();
        let a = ConvParams::new(128, 128, 28, 28, 3, 1);
        let b = ConvParams::new(256, 128, 28, 28, 3, 1);
        let c = ConvParams::new(128, 256, 28, 28, 3, 1);
        assert!(m.conv_cycles(&b) > m.conv_cycles(&a));
        assert!(m.conv_cycles(&c) > m.conv_cycles(&a));
    }

    #[test]
    fn custom_configuration_pe_count() {
        let m = SystolicModel::new(DesignId(7), 250, 8, 8, 4);
        assert_eq!(m.design().num_pes, 128);
    }
}
