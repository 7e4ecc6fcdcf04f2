//! Standard and uniform-range sampling.

use crate::{Rng, RngCore};
use std::ops::{Range, RangeInclusive};

/// A distribution over `T` (same shape as `rand::distributions::Distribution`).
pub trait Distribution<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

impl<T, D: Distribution<T> + ?Sized> Distribution<T> for &D {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        (**self).sample(rng)
    }
}

/// Types `Rng::gen` can produce.
pub trait StandardSample: Sized {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    /// 53 random mantissa bits: uniform on `[0, 1)`.
    #[inline]
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for u64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

/// Types `Rng::gen_range` can draw uniformly.
pub trait SampleUniform: Sized {
    /// Uniform on `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

/// Unbiased integer in `[0, span)` by rejection (`span == 0` means 2^64).
fn below<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(lo: $t, hi: $t, inclusive: bool, rng: &mut R) -> $t {
                assert!(if inclusive { lo <= hi } else { lo < hi }, "gen_range: empty range");
                // Width in the two's-complement domain; wraps to 0 only for
                // the full 64-bit inclusive range, which `below` handles.
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64 + inclusive as u64;
                (lo as $wide).wrapping_add(below(span, rng) as $wide) as $t
            }
        }
    )*};
}
uniform_int!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
             i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(lo: f64, hi: f64, inclusive: bool, rng: &mut R) -> f64 {
        assert!(if inclusive { lo <= hi } else { lo < hi }, "gen_range: empty range");
        let x = lo + (hi - lo) * f64::standard(rng);
        // Rounding can land exactly on `hi`; keep half-open ranges half-open.
        if !inclusive && x >= hi {
            lo
        } else {
            x
        }
    }
}

/// Range syntaxes accepted by `Rng::gen_range`.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(lo, hi, true, rng)
    }
}
