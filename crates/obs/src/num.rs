//! Number writers for the exporters, byte-identical to `{}`.
//!
//! `Display` prints an `f64` as its shortest round-trip digits — the
//! fewest significant digits that parse back to the same value, the one
//! nearest the exact value when several are that short — placed without an
//! exponent: `-0`, `0.00001234`, `1e23` as `100000000000000000000000`.
//! [`push_f64`] writes the same bytes without the formatting machinery,
//! into a byte buffer the exporters check as UTF-8 once, not per number.
//! Integral values below 2^53 print as integers; every other value takes
//! Ryū's shortest digits (Adams, "Ryū: fast float-to-string conversion",
//! PLDI 2018) with one change: where the exact value lies exactly halfway
//! between the two nearest shortest strings, `{}` rounds up, and so does
//! this writer, where Ryū rounds to even.  The 128-bit multiplier tables of
//! 5^i and 2^k / 5^q are computed at compile time.  [`push_u64`] prints
//! integers with the same two-digit table.

/// Explicit mantissa bits of an `f64`.
const MANTISSA_BITS: i32 = 52;
/// The exponent bias of an `f64`.
const BIAS: i32 = 1023;
/// Significant bits kept of each power of five and of each inverse.
const POW5_BITS: i32 = 125;
/// Entries of [`POW5`]: 5^i for `i` up to 325, reached by the smallest
/// subnormal.
const POW5_LEN: usize = 326;
/// Entries of [`POW5_INV`]: 5^-q for `q` up to 290, reached by `f64::MAX`.
const POW5_INV_LEN: usize = 291;
/// 2^53: every integer below it is exactly an `f64`.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;
/// Limbs of the compile-time big integers: 896 bits hold 5^325 · 2^128 and
/// 2^895.
const LIMBS: usize = 14;

/// `POW5[i]`: the top [`POW5_BITS`] bits of 5^i, shifted left where 5^i is
/// shorter.
static POW5: [u128; POW5_LEN] = pow5_table();
/// `POW5_INV[q]`: `floor(2^(pow5bits(q) - 1 + POW5_BITS) / 5^q) + 1`.
static POW5_INV: [u128; POW5_INV_LEN] = pow5_inv_table();
/// `"00" "01" … "99"`: the two decimal digits of `n` at `2n` and `2n + 1`.
static PAIRS: [u8; 200] = pairs();

/// `x · m` in place, for products that fit.
const fn mul_small(x: &mut [u64; LIMBS], m: u64) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let t = x[i] as u128 * m as u128 + carry;
        x[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
}

/// `floor(x / d)` in place.
const fn div_small(x: &mut [u64; LIMBS], d: u64) {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = rem << 64 | x[i] as u128;
        x[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
}

/// Limb `i` of `x`, zero past the top.
const fn limb(x: &[u64; LIMBS], i: usize) -> u64 {
    if i < LIMBS {
        x[i]
    } else {
        0
    }
}

/// `floor(x / 2^n)`, which must fit in 128 bits.
const fn shr_to_u128(x: &[u64; LIMBS], n: u32) -> u128 {
    let (w, s) = ((n / 64) as usize, n % 64);
    let low = limb(x, w) as u128 | (limb(x, w + 1) as u128) << 64;
    if s == 0 {
        low
    } else {
        low >> s | (limb(x, w + 2) as u128) << (128 - s)
    }
}

/// `ceil(log2(5^e))` for `e` in 1..=3528, and 1 for `e = 0`: the bit length
/// of 5^e.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1217359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `e` in 0..=1650.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78913) >> 18) as i32
}

/// `floor(log10(5^e))` for `e` in 0..=2620.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732923) >> 20) as i32
}

const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0; POW5_LEN];
    // 5^i · 2^128, so that one right shift keeps the top POW5_BITS bits of
    // 5^i, also for the powers shorter than that.
    let mut p = [0u64; LIMBS];
    p[2] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        table[i] = shr_to_u128(&p, (pow5bits(i as i32) - POW5_BITS + 128) as u32);
        mul_small(&mut p, 5);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_LEN] {
    let mut table = [0; POW5_INV_LEN];
    // floor(2^top / 5^q); then floor(2^k / 5^q) = floor(that / 2^(top - k)).
    let top = 64 * LIMBS as u32 - 1;
    let mut r = [0u64; LIMBS];
    r[LIMBS - 1] = 1 << 63;
    let mut q = 0;
    while q < POW5_INV_LEN {
        let k = (pow5bits(q as i32) - 1 + POW5_BITS) as u32;
        table[q] = shr_to_u128(&r, top - k) + 1;
        div_small(&mut r, 5);
        q += 1;
    }
    table
}

const fn pairs() -> [u8; 200] {
    let mut table = [0; 200];
    let mut n = 0;
    while n < 100 {
        table[2 * n] = b'0' + (n / 10) as u8;
        table[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    table
}

/// `floor(m · mul / 2^j)` for `m` below 2^55 and `mul` below 2^126.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Ryū on the bits of a finite `f64` above zero: the shortest `digits` with
/// `digits · 10^exp` inside the value's rounding interval, the one nearest
/// the exact value, an exact tie rounded up.
fn shortest(bits: u64) -> (u64, i32) {
    let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let exponent = (bits >> MANTISSA_BITS) as i32;
    let (m2, e2) = if exponent == 0 {
        (mantissa, 1 - BIAS - MANTISSA_BITS - 2)
    } else {
        (
            mantissa | 1 << MANTISSA_BITS,
            exponent - BIAS - MANTISSA_BITS - 2,
        )
    };
    // The interval's bounds belong to it when the mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    // The value and its interval, scaled by 4 · 2^e2: [mv - 1 - mm_shift,
    // mv + 2], with a narrower lower half at a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);

    // vr, vp and vm: the value and its bounds over 10^e10, truncated, where
    // e10 is q for e2 >= 0 and q + e2 below.
    let (q, mul, shift) = if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        (
            q,
            POW5_INV[q as usize],
            -e2 + q + POW5_BITS + pow5bits(q) - 1,
        )
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        let i = -e2 - q;
        (q, POW5[i as usize], q - (pow5bits(i) - POW5_BITS))
    };
    let e10 = if e2 >= 0 { q } else { q + e2 };
    let mut vr = mul_shift(mv, mul, shift);
    let mut vp = mul_shift(mv + 2, mul, shift);
    let mut vm = mul_shift(mv - 1 - mm_shift, mul, shift);
    // Where a bound is exact at this scale: vm, when the interval includes
    // it, may end the digit loop below; vp, when the interval excludes it,
    // steps back inside.
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        // The three lie within 4 of each other: when mv is a multiple of 5,
        // neither bound is, so neither is exact.
        if q <= 21 && mv % 5 != 0 {
            let pow5 = 5u64.pow(q as u32);
            if accept_bounds {
                vm_trailing_zeros = (mv - 1 - mm_shift) % pow5 == 0;
            } else {
                vp -= u64::from((mv + 2) % pow5 == 0);
            }
        }
    } else if q <= 1 {
        if accept_bounds {
            vm_trailing_zeros = mm_shift == 1;
        } else {
            vp -= 1;
        }
    }

    // Drop digits while a shorter number still fits between vm and vp;
    // round on the last digit dropped, 5 and up rounding up (an exact tie
    // included: Ryū rounds that one to even, `{}` does not).
    let mut removed = 0;
    let mut last = 0;
    if vm_trailing_zeros {
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        let round_up = (vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last >= 5;
        (vr + u64::from(round_up), e10 + removed)
    } else {
        if vp / 100 > vm / 100 {
            last = vr % 100 / 10;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed = 2;
        }
        while vp / 10 > vm / 10 {
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        (vr + u64::from(vr == vm || last >= 5), e10 + removed)
    }
}

/// Writes `n`'s decimal digits to the end of `buf`; returns where they start.
fn put_digits(buf: &mut [u8], mut n: u64) -> usize {
    let mut at = buf.len();
    while n >= 100 {
        let d = 2 * (n % 100) as usize;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[d..d + 2]);
    }
    if n >= 10 {
        let d = 2 * n as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[d..d + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

fn push_zeros(out: &mut Vec<u8>, n: usize) {
    out.resize(out.len() + n, b'0');
}

/// Appends `n` as `{}` writes it.
pub(crate) fn push_u64(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0; 20];
    let at = put_digits(&mut buf, n);
    out.extend_from_slice(&buf[at..]);
}

/// Appends a finite `v` as `{}` writes it.
pub(crate) fn push_f64(out: &mut Vec<u8>, v: f64) {
    debug_assert!(v.is_finite(), "{v} has no digits");
    if v.is_sign_negative() {
        out.push(b'-');
    }
    let a = v.abs();
    // Below 2^53 every integer is an `f64`, so an integral value's shortest
    // digits are its own: no other number that short rounds to it.
    if a < TWO_POW_53 && a == (a as u64) as f64 {
        push_u64(out, a as u64);
        return;
    }
    let (digits, exp) = shortest(a.to_bits());
    // One spare byte in front for the decimal point.
    let mut buf = [0; 18];
    let mut at = put_digits(&mut buf, digits);
    let len = buf.len() - at;
    // Digits before the decimal point.
    let point = len as i32 + exp;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        push_zeros(out, point.unsigned_abs() as usize);
        out.extend_from_slice(&buf[at..]);
    } else if (point as usize) < len {
        let point = point as usize;
        buf.copy_within(at..at + point, at - 1);
        at -= 1;
        buf[at + point] = b'.';
        out.extend_from_slice(&buf[at..]);
    } else {
        out.extend_from_slice(&buf[at..]);
        push_zeros(out, point as usize - len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// SplitMix64: a fixed stream, so the sweep is the same on every run.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in [0, 1), on the 2^-53 grid.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Compares [`push_f64`]'s bytes with `{}` on `v` and `-v`.
    fn compare(v: f64, ours: &mut Vec<u8>, std: &mut String) {
        for v in [v, -v] {
            ours.clear();
            push_f64(ours, v);
            std.clear();
            write!(std, "{v}").expect("writing to a String never fails");
            assert!(
                ours == std.as_bytes(),
                "bits {:#018x}: {} vs {std}",
                v.to_bits(),
                String::from_utf8_lossy(ours)
            );
        }
    }

    /// About 2.3 M comparisons, each value and its negation: random finite
    /// bit patterns, sim times in microseconds, integers around 2^53, every
    /// power of two and of ten with its neighbours, and exact ties, which
    /// `{}` rounds up.
    #[test]
    fn push_f64_matches_display() {
        let (mut ours, mut std) = (Vec::new(), String::new());
        let mut check = |v: f64| compare(v, &mut ours, &mut std);
        let mut rng = SplitMix(0x5eed);
        let neighbours = |v: f64| {
            let b = v.to_bits();
            [f64::from_bits(b - 1), v, f64::from_bits(b + 1)]
        };

        for _ in 0..400_000 {
            let v = f64::from_bits(rng.next());
            if v.is_finite() {
                check(v);
            }
        }
        // Span timestamps: U[0, 8) seconds scaled as the trace scales them.
        for _ in 0..400_000 {
            check(rng.unit() * 8.0 * 1e6);
        }
        // Integers up to 2^64, many past 2^53 where `{}` rounds them, and
        // every integer within 2^14 of 2^53.
        for _ in 0..100_000 {
            let n = rng.next();
            check((n >> (n % 64)) as f64);
        }
        let two53 = 1u64 << 53;
        for n in two53 - (1 << 14)..two53 + (1 << 14) {
            check(n as f64);
        }
        // Every power of two, from the smallest subnormal up.
        check(f64::from_bits(1));
        for e in -1073..=1023 {
            let bits = if e < -1022 {
                1 << (e + 1074)
            } else {
                ((e + 1023) as u64) << 52
            };
            for v in neighbours(f64::from_bits(bits)) {
                check(v);
            }
        }
        for k in -323..=308 {
            let p: f64 = format!("1e{k}").parse().expect("a float literal");
            for v in neighbours(p) {
                check(v);
            }
        }
        // Exact ties: k · 2^-2 in [2^50, 2^51) sits halfway between two
        // 17-digit strings when k is odd.  k · 2^-1 in [2^51, 2^52).
        for _ in 0..100_000 {
            check(2f64.powi(50) + (rng.next() >> 12) as f64 * 0.25);
            check(2f64.powi(51) + (rng.next() >> 12) as f64 * 0.5);
        }
        for (bits, text) in [
            (0x4317_9085_685d_83c9, "1658206780088562.3"),
            ((2f64.powi(50) + 0.25).to_bits(), "1125899906842624.3"),
            ((2f64.powi(50) + 0.75).to_bits(), "1125899906842624.8"),
        ] {
            let v = f64::from_bits(bits);
            check(v);
            assert_eq!(format!("{v}"), text);
        }
    }

    #[test]
    fn push_u64_matches_display() {
        for n in [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX] {
            let mut ours = Vec::new();
            push_u64(&mut ours, n);
            assert_eq!(ours, n.to_string().as_bytes());
        }
    }
}
