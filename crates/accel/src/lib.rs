//! # mars-accel
//!
//! Accelerator design catalogue and analytical performance models.
//!
//! An *adaptive* multi-accelerator system can configure each accelerator with
//! one of several available designs (`Design = {d1, ..., dM}` in Section III of
//! the paper).  Following the paper (and H2H), each design is characterised by
//! an **analytical performance model** that returns the number of cycles it
//! needs for a convolution layer of given shape.  Three FPGA CNN accelerator
//! designs are modelled, matching Table II:
//!
//! | # | Design | Freq | #PEs | Parameters |
//! |---|--------|------|------|------------|
//! | 1 | SuperLIP \[14\]          | 200 MHz | 438 | `Tm, Tn, Tr, Tc = 64, 7, 7, 14` |
//! | 2 | Systolic array \[15\]    | 200 MHz | 572 | `row, col, vec = 11, 13, 8` |
//! | 3 | Winograd (fast) \[16\]   | 200 MHz | 576 | `n, Pn, Pm = 6, 2, 8` |
//!
//! The models are deliberately simple (tile-quantised roofline-style cycle
//! counts) but reproduce the qualitative behaviour the paper's analysis relies
//! on: SuperLIP tolerates narrow input channels (early layers), the systolic
//! design needs wide channels to saturate, and the Winograd design accelerates
//! 3×3 kernels while degrading sharply on 1×1 convolutions.
//!
//! ```
//! use mars_accel::{Catalog, DesignId};
//! use mars_model::ConvParams;
//!
//! let catalog = Catalog::standard_three();
//! // Early layer: high resolution, 3 input channels.
//! let early = ConvParams::new(64, 3, 112, 112, 7, 2);
//! // Deep layer: low resolution, wide channels.
//! let deep = ConvParams::new(512, 512, 7, 7, 3, 1);
//!
//! let superlip = catalog.model(DesignId(0));
//! let systolic = catalog.model(DesignId(1));
//! // SuperLIP wins on the early layer, the systolic array on the deep layer.
//! assert!(superlip.conv_cycles(&early) < systolic.conv_cycles(&early));
//! assert!(systolic.conv_cycles(&deep) < superlip.conv_cycles(&deep));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod catalog;
mod design;
mod profile;
mod superlip;
mod systolic;
mod winograd;

pub use catalog::Catalog;
pub use design::{AccelDesign, DesignId, PerformanceModel};
pub use profile::ProfileTable;
pub use systolic::SystolicModel;
