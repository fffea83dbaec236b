//! The six-dimensional convolution loop nest and dimension sets.
//!
//! Section IV of the paper expresses a convolution layer as a six-level nested
//! loop over `(Cout, Cin, H, W, Kh, Kw)`.  Parallelism strategies are described
//! by annotating a subset of these dimensions with *exclusive shard* (ES) or
//! *shared shard* (SS) markers.  This module defines the dimension enumeration
//! ([`Dim`]), a small-set type over dimensions ([`DimSet`]) and the loop-bound
//! view of a layer ([`LoopNest`]).

use serde::{Deserialize, Serialize};

/// One dimension of the convolution loop nest.
///
/// The ordering matches the loop order in Fig. 2(a) of the paper:
/// output channels, input channels, output rows, output columns, kernel rows,
/// kernel columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Dim {
    /// Output channels (`Cout`).
    Cout,
    /// Input channels (`Cin`).  Partitioning this dimension produces partial
    /// sums that must be combined with an All-Reduce.
    Cin,
    /// Output feature-map rows (`H`).
    H,
    /// Output feature-map columns (`W`).
    W,
    /// Kernel rows (`Kh`).
    Kh,
    /// Kernel columns (`Kw`).
    Kw,
}

impl Dim {
    /// All six dimensions in canonical order.
    pub const ALL: [Dim; 6] = [Dim::Cout, Dim::Cin, Dim::H, Dim::W, Dim::Kh, Dim::Kw];

    /// Index of this dimension in [`Dim::ALL`].
    pub fn index(self) -> usize {
        match self {
            Dim::Cout => 0,
            Dim::Cin => 1,
            Dim::H => 2,
            Dim::W => 3,
            Dim::Kh => 4,
            Dim::Kw => 5,
        }
    }

    /// The dimension at `index` in [`Dim::ALL`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= 6`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }

    /// `true` if partitioning this dimension partitions the *reduction* of the
    /// convolution (input channels or kernel window), which forces an
    /// All-Reduce on the produced output shard.
    pub fn is_reduction(self) -> bool {
        matches!(self, Dim::Cin | Dim::Kh | Dim::Kw)
    }
}

impl std::fmt::Display for Dim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Dim::Cout => "Cout",
            Dim::Cin => "Cin",
            Dim::H => "H",
            Dim::W => "W",
            Dim::Kh => "Kh",
            Dim::Kw => "Kw",
        };
        f.write_str(s)
    }
}

/// A set of loop-nest dimensions, stored as a 6-bit bitmask.
///
/// ```
/// use mars_model::{Dim, DimSet};
/// let set = DimSet::from_dims([Dim::Cin, Dim::W]);
/// assert!(set.contains(Dim::Cin));
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.to_string(), "{Cin, W}");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct DimSet(u8);

impl DimSet {
    /// The empty set.
    pub const EMPTY: DimSet = DimSet(0);

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Creates a set from an iterator of dimensions.
    pub fn from_dims<I: IntoIterator<Item = Dim>>(dims: I) -> Self {
        let mut s = Self::EMPTY;
        for d in dims {
            s.insert(d);
        }
        s
    }

    /// Inserts a dimension; returns `true` if it was newly inserted.
    pub fn insert(&mut self, dim: Dim) -> bool {
        let bit = 1u8 << dim.index();
        let newly = self.0 & bit == 0;
        self.0 |= bit;
        newly
    }

    /// `true` if the set contains `dim`.
    pub fn contains(self, dim: Dim) -> bool {
        self.0 & (1 << dim.index()) != 0
    }

    /// Number of dimensions in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the dimensions in canonical order.
    pub fn iter(self) -> impl Iterator<Item = Dim> {
        Dim::ALL.into_iter().filter(move |d| self.contains(*d))
    }

    /// Set union.
    pub fn union(self, other: DimSet) -> DimSet {
        DimSet(self.0 | other.0)
    }
}

impl FromIterator<Dim> for DimSet {
    fn from_iter<T: IntoIterator<Item = Dim>>(iter: T) -> Self {
        Self::from_dims(iter)
    }
}

impl Extend<Dim> for DimSet {
    fn extend<T: IntoIterator<Item = Dim>>(&mut self, iter: T) {
        for d in iter {
            self.insert(d);
        }
    }
}

impl std::fmt::Display for DimSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, d) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "}}")
    }
}

/// Loop bounds of the six-dimensional convolution nest of one layer.
///
/// `bound(Dim)` is the trip count of the corresponding loop.  The product of
/// all bounds equals the number of multiply-accumulate operations of the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LoopNest {
    bounds: [usize; 6],
}

impl LoopNest {
    /// Creates a loop nest from the six bounds `(Cout, Cin, H, W, Kh, Kw)`.
    pub fn new(c_out: usize, c_in: usize, h: usize, w: usize, kh: usize, kw: usize) -> Self {
        Self {
            bounds: [c_out, c_in, h, w, kh, kw],
        }
    }

    /// Trip count of dimension `dim`.
    pub fn bound(&self, dim: Dim) -> usize {
        self.bounds[dim.index()]
    }

    /// All six bounds in canonical order.
    pub fn bounds(&self) -> [usize; 6] {
        self.bounds
    }

    /// Total number of multiply-accumulate operations (product of all bounds).
    pub fn macs(&self) -> u64 {
        self.bounds.iter().map(|&b| b as u64).product()
    }

    /// Returns the dimensions sorted by decreasing trip count.  Ties are broken
    /// by canonical dimension order so the result is deterministic.
    ///
    /// The computation-prioritised baseline of Section VI-A partitions each
    /// layer along "the longest two dimensions"; this method is what it uses.
    pub fn dims_by_extent(&self) -> [Dim; 6] {
        let mut dims = Dim::ALL;
        dims.sort_by_key(|d| (std::cmp::Reverse(self.bound(*d)), d.index()));
        dims
    }

    /// Returns a copy with dimension `dim` divided by `factor` (ceiling
    /// division, never below 1), i.e. the loop nest of one shard.
    pub fn sharded(&self, dim: Dim, factor: usize) -> Self {
        assert!(factor > 0, "shard factor must be positive");
        let mut bounds = self.bounds;
        bounds[dim.index()] = bounds[dim.index()].div_ceil(factor).max(1);
        Self { bounds }
    }
}

impl std::fmt::Display for LoopNest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[Cout={} Cin={} H={} W={} Kh={} Kw={}]",
            self.bounds[0],
            self.bounds[1],
            self.bounds[2],
            self.bounds[3],
            self.bounds[4],
            self.bounds[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_roundtrip_through_index() {
        for d in Dim::ALL {
            assert_eq!(Dim::from_index(d.index()), d);
        }
    }

    #[test]
    fn reduction_dims() {
        assert!(Dim::Cin.is_reduction());
        assert!(Dim::Kh.is_reduction());
        assert!(Dim::Kw.is_reduction());
        assert!(!Dim::Cout.is_reduction());
        assert!(!Dim::H.is_reduction());
        assert!(!Dim::W.is_reduction());
    }

    #[test]
    fn dimset_insert_remove_contains() {
        let mut s = DimSet::new();
        assert!(s.is_empty());
        assert!(s.insert(Dim::H));
        assert!(!s.insert(Dim::H));
        assert!(s.contains(Dim::H));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn dimset_union_intersection_disjoint() {
        let a = DimSet::from_dims([Dim::Cin, Dim::W]);
        let b = DimSet::from_dims([Dim::W, Dim::Cout]);
        assert_eq!(a.union(b).len(), 3);
    }

    #[test]
    fn dimset_iterates_in_canonical_order() {
        let s = DimSet::from_dims([Dim::Kw, Dim::Cout, Dim::H]);
        let dims: Vec<Dim> = s.iter().collect();
        assert_eq!(dims, vec![Dim::Cout, Dim::H, Dim::Kw]);
    }

    #[test]
    fn dimset_collect_from_iterator() {
        let s: DimSet = [Dim::Cin, Dim::Cin, Dim::W].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn loopnest_macs_and_bounds() {
        let n = LoopNest::new(64, 3, 224, 224, 7, 7);
        assert_eq!(n.bound(Dim::Cout), 64);
        assert_eq!(n.bound(Dim::Kh), 7);
        assert_eq!(n.macs(), 64 * 3 * 224 * 224 * 7 * 7);
    }

    #[test]
    fn loopnest_dims_by_extent_orders_desc() {
        let n = LoopNest::new(512, 256, 7, 7, 3, 3);
        let order = n.dims_by_extent();
        assert_eq!(order[0], Dim::Cout);
        assert_eq!(order[1], Dim::Cin);
        // H and W tie at 7, canonical order breaks the tie.
        assert_eq!(order[2], Dim::H);
        assert_eq!(order[3], Dim::W);
    }

    #[test]
    fn loopnest_sharded_divides_rounding_up() {
        let n = LoopNest::new(100, 64, 28, 28, 3, 3);
        let s = n.sharded(Dim::Cout, 3);
        assert_eq!(s.bound(Dim::Cout), 34);
        let t = n.sharded(Dim::Kh, 8);
        assert_eq!(t.bound(Dim::Kh), 1);
    }

    #[test]
    fn display_strings() {
        assert_eq!(Dim::Cout.to_string(), "Cout");
        let s = DimSet::from_dims([Dim::Cin, Dim::W]);
        assert_eq!(s.to_string(), "{Cin, W}");
        assert_eq!(DimSet::EMPTY.to_string(), "{}");
    }
}
