//! Tensor shape primitives.
//!
//! MARS reasons about tensors only through their *shapes* and *sizes in
//! bytes*: the mapper never touches actual tensor data.  The shape type is
//! the convolution-centric [`FeatureMap`] (`channels × height × width`), which
//! is what the layer IR uses for activations.

use serde::{Deserialize, Serialize};

/// Number of bytes per tensor element.
///
/// The paper's accelerators operate on 16-bit fixed-point / half-precision
/// values, which is the dominant deployment datatype for FPGA CNN inference;
/// all activation and weight sizes are therefore computed at 2 bytes per
/// element.
pub const BYTES_PER_ELEMENT: u64 = 2;

/// A `channels × height × width` activation tensor shape.
///
/// This is the canonical shape of the data flowing along the edges of a
/// [`Network`](crate::Network).
///
/// ```
/// use mars_model::FeatureMap;
/// let fm = FeatureMap::new(3, 224, 224);
/// assert_eq!(fm.elements(), 3 * 224 * 224);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FeatureMap {
    /// Number of channels (`C`).
    pub(crate) channels: usize,
    /// Spatial height (`H`).
    pub(crate) height: usize,
    /// Spatial width (`W`).
    pub(crate) width: usize,
}

impl FeatureMap {
    /// Creates a feature-map shape.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }

    /// Total number of elements.
    pub fn elements(&self) -> u64 {
        self.channels as u64 * self.height as u64 * self.width as u64
    }

    /// Size in bytes at [`BYTES_PER_ELEMENT`] bytes per element.
    pub fn bytes(&self) -> u64 {
        self.elements() * BYTES_PER_ELEMENT
    }
}

impl Default for FeatureMap {
    fn default() -> Self {
        Self::new(1, 1, 1)
    }
}

impl std::fmt::Display for FeatureMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}×{}×{}", self.channels, self.height, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(FeatureMap::new(3, 224, 224).to_string(), "3×224×224");
    }
}
