//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this shim implements
//! the small slice of the `rand 0.8` API the MARS genetic search uses:
//!
//! * [`rngs::StdRng`] — a deterministic xoshiro256++ generator seeded through
//!   SplitMix64 (the same construction the xoshiro authors recommend).
//! * [`SeedableRng::seed_from_u64`] — the only seeding entry point MARS uses.
//! * [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`] — uniform sampling
//!   for `f64` genes, index ranges and Bernoulli coin flips.
//!
//! The streams differ from the real `rand::rngs::StdRng` (which is ChaCha12),
//! so seeds are *not* reproducible across the swap — acceptable here because
//! the workspace only relies on determinism within one build, never on
//! specific stream values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// A source of random 64-bit words; the base trait every generator implements.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Generators that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed (via SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from their "standard" distribution
/// (`[0, 1)` for floats, the full value range for integers).
pub trait SampleStandard {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_sample_standard_int {
    ($($t:ty),*) => {$(
        impl SampleStandard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_sample_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges that can be sampled uniformly, mirroring `rand`'s `SampleRange`.
pub trait SampleRange<T> {
    /// Draws one value inside the range from `rng`.
    ///
    /// # Panics
    /// Panics if the range is empty, like the real crate.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let span = ((hi - lo) as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range of a 64-bit type.
                    return lo + rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = f64::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// Convenience sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution of `T`.
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, RA: SampleRange<T>>(&mut self, range: RA) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators (only [`StdRng`] is provided).

    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator, the shim's drop-in for
    /// `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn f64_samples_live_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let i = rng.gen_range(5usize..17);
            assert!((5..17).contains(&i));
            let j = rng.gen_range(2usize..=4);
            assert!((2..=4).contains(&j));
            let x = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&x));
        }
    }

    #[test]
    fn full_width_inclusive_ranges_take_the_raw_word() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut raw = StdRng::seed_from_u64(5);
        assert_eq!(rng.gen_range(0u64..=u64::MAX), raw.next_u64());
        assert_eq!(rng.gen_range(0usize..=usize::MAX), raw.next_u64() as usize);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }
}
