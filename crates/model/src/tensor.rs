//! Tensor shape primitives.
//!
//! MARS reasons about tensors only through their *shapes* and *sizes in
//! bytes*: the mapper never touches actual tensor data.  Two shape types are
//! provided: the generic [`TensorShape`] (arbitrary rank) and the
//! convolution-centric [`FeatureMap`] (`channels × height × width`), which is
//! what the layer IR uses for activations.

use serde::{Deserialize, Serialize};

/// Number of bytes per tensor element.
///
/// The paper's accelerators operate on 16-bit fixed-point / half-precision
/// values, which is the dominant deployment datatype for FPGA CNN inference;
/// all activation and weight sizes are therefore computed at 2 bytes per
/// element.
pub const BYTES_PER_ELEMENT: u64 = 2;

/// An arbitrary-rank tensor shape.
///
/// ```
/// use mars_model::TensorShape;
/// let s = TensorShape::new(vec![64, 56, 56]);
/// assert_eq!(s.elements(), 64 * 56 * 56);
/// assert_eq!(s.rank(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TensorShape {
    dims: Vec<usize>,
}

impl TensorShape {
    /// Creates a shape from its dimension extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Self { dims }
    }

    /// Returns the dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of extents). Empty shapes hold one
    /// scalar element.
    pub fn elements(&self) -> u64 {
        self.dims.iter().map(|&d| d as u64).product()
    }

    /// Size in bytes at [`BYTES_PER_ELEMENT`] bytes per element.
    pub fn bytes(&self) -> u64 {
        self.elements() * BYTES_PER_ELEMENT
    }
}

impl From<FeatureMap> for TensorShape {
    fn from(fm: FeatureMap) -> Self {
        TensorShape::new(vec![fm.channels, fm.height, fm.width])
    }
}

impl std::fmt::Display for TensorShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

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
    pub channels: usize,
    /// Spatial height (`H`).
    pub height: usize,
    /// Spatial width (`W`).
    pub width: usize,
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

    /// Returns a copy downsampled spatially by `factor` (ceiling division),
    /// as produced by a strided convolution or pooling layer.
    pub fn downsampled(self, factor: usize) -> Self {
        assert!(factor > 0, "downsampling factor must be positive");
        Self {
            channels: self.channels,
            height: self.height.div_ceil(factor),
            width: self.width.div_ceil(factor),
        }
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
    fn tensor_shape_elements_and_bytes() {
        let s = TensorShape::new(vec![2, 3, 4]);
        assert_eq!(s.elements(), 24);
        assert_eq!(s.bytes(), 24 * BYTES_PER_ELEMENT);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn empty_shape_is_scalar() {
        let s = TensorShape::new(vec![]);
        assert_eq!(s.elements(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn feature_map_conversions() {
        let fm = FeatureMap::new(64, 56, 56);
        let s: TensorShape = fm.into();
        assert_eq!(s.dims(), &[64, 56, 56]);
        assert_eq!(s.elements(), fm.elements());
    }

    #[test]
    fn feature_map_downsampled_rounds_up() {
        let fm = FeatureMap::new(64, 55, 55);
        let d = fm.downsampled(2);
        assert_eq!((d.height, d.width), (28, 28));
        assert_eq!(d.channels, 64);
    }

    #[test]
    fn display_formats() {
        assert_eq!(FeatureMap::new(3, 224, 224).to_string(), "3×224×224");
        assert_eq!(TensorShape::new(vec![3, 3]).to_string(), "(3×3)");
    }

    #[test]
    #[should_panic(expected = "downsampling factor")]
    fn downsample_by_zero_panics() {
        let _ = FeatureMap::new(1, 1, 1).downsampled(0);
    }
}
