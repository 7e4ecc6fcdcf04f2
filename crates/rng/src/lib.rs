//! The workspace's one source of randomness: xoshiro256\*\* (Blackman &
//! Vigna) seeded through SplitMix64, uniform integers by rejection, normals
//! by the Marsaglia polar method, exponentials by inverse CDF — and a seeded
//! property runner, [`check`], for the tests that draw their inputs.
//!
//! The streams are part of the reproduction's contract: a campaign's
//! thermostat noise, duration noise, fault draws and Metropolis decisions are
//! functions of `cfg.seed` through this file, so every algorithm below is
//! pinned operation for operation by the golden values in the tests. Change
//! one and every recorded number moves.

use std::ops::{Bound, RangeBounds};

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step on the counter value `z`: advance by the golden-ratio
/// increment, then avalanche. Also a cheap stable hash of a `u64`.
#[inline]
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256\*\* generator state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Expand `seed` into the state with four consecutive SplitMix64 outputs
    /// (a bijection of a counter, so they are never all zero).
    pub fn seed(seed: u64) -> Rng {
        Rng { s: [0, 1, 2, 3].map(|k: u64| mix64(seed.wrapping_add(k.wrapping_mul(GAMMA)))) }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform on `[0, 1)`: 53 random mantissa bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Unbiased integer in `[0, n)` by rejection. Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// Uniform draw from `lo..hi` or `lo..=hi` over the integer types and
    /// `f64`. Panics on an empty range.
    pub fn range<T: uniform::Uniform>(&mut self, bounds: impl RangeBounds<T>) -> T {
        match (bounds.start_bound(), bounds.end_bound()) {
            (Bound::Included(&lo), Bound::Excluded(&hi)) => T::between(lo, hi, false, self),
            (Bound::Included(&lo), Bound::Included(&hi)) => T::between(lo, hi, true, self),
            _ => panic!("range needs both ends"),
        }
    }

    /// N(0, 1) by the polar method; the second variate is discarded, so a
    /// draw depends on the generator state alone.
    #[inline]
    pub fn normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Exponential with the given rate (mean `1 / rate`), which the caller
    /// has checked to be finite and positive.
    #[inline]
    pub fn exp(&mut self, rate: f64) -> f64 {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        -(1.0 - self.f64()).ln() * (1.0 / rate)
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.range(0..=i));
        }
    }
}

/// The element types of [`Rng::range`]; sealed by living in a private module.
mod uniform {
    use super::Rng;

    pub trait Uniform: Copy {
        /// Uniform on `[lo, hi)`, or `[lo, hi]` when `inclusive`.
        fn between(lo: Self, hi: Self, inclusive: bool, rng: &mut Rng) -> Self;
    }

    macro_rules! uniform_int {
        ($($t:ty => $wide:ty),*) => {$(
            impl Uniform for $t {
                fn between(lo: $t, hi: $t, inclusive: bool, rng: &mut Rng) -> $t {
                    assert!(if inclusive { lo <= hi } else { lo < hi }, "empty range");
                    // Width in the two's-complement domain; it wraps to 0
                    // only for the full 64-bit inclusive range.
                    let width = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                    let span = width.wrapping_add(inclusive as u64);
                    let k = if span == 0 { rng.next_u64() } else { rng.below(span) };
                    (lo as $wide).wrapping_add(k as $wide) as $t
                }
            }
        )*};
    }
    uniform_int!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
                 i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

    impl Uniform for f64 {
        fn between(lo: f64, hi: f64, inclusive: bool, rng: &mut Rng) -> f64 {
            assert!(if inclusive { lo <= hi } else { lo < hi }, "empty range");
            let x = lo + (hi - lo) * rng.f64();
            // Rounding can land exactly on `hi`; keep half-open ranges half-open.
            if !inclusive && x >= hi {
                lo
            } else {
                x
            }
        }
    }
}

/// Seeded property runner: calls `property` `cases` times, case `k` on
/// `Rng::seed(k)`, and names the case on standard error when one panics — to
/// replay it, run the body on that seed.
pub fn check(cases: u64, mut property: impl FnMut(&mut Rng)) {
    struct Case(u64);
    impl Drop for Case {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("rng::check: property failed at case {0} (Rng::seed({0}))", self.0);
            }
        }
    }
    for case in 0..cases {
        let _named_while_unwinding = Case(case);
        property(&mut Rng::seed(case));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        (mean, xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n)
    }

    #[test]
    fn xoshiro_matches_reference_vector() {
        // State {1,2,3,4}: first outputs of the public-domain reference
        // implementation (Blackman & Vigna, xoshiro256starstar.c).
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(got, [11520, 0, 1509978240, 1215971899390074240]);
    }

    /// The project's streams at seed 7, generated once from the std-only
    /// stand-ins (`benchmark/standins/`) every number in this repository
    /// was measured on before this crate existed.
    #[test]
    #[allow(clippy::excessive_precision)] // the digits as they were generated
    fn golden_values_at_seed_7() {
        let draws = |f: fn(&mut Rng) -> f64| {
            let mut rng = Rng::seed(7);
            [f(&mut rng), f(&mut rng), f(&mut rng), f(&mut rng)]
        };
        let mut rng = Rng::seed(7);
        assert_eq!(
            [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()],
            [12923355070828475994, 5142052590334782674, 15488392906492639638, 18098058644649177664]
        );
        assert_eq!(
            draws(Rng::f64),
            [
                7.0057648217968960e-1,
                2.7875122947378428e-1,
                8.3962746187641979e-1,
                9.8109772501493508e-1
            ]
        );
        assert_eq!(
            draws(Rng::normal),
            [
                9.6436185272551844e-1,
                -3.0393012386565671e-1,
                3.0479435832638674e-1,
                -1.7010190714940672e0
            ]
        );
        assert_eq!(
            draws(|r| r.exp(0.5)),
            [
                2.4117925204948993e0,
                6.5354233160861819e-1,
                3.6605116138269311e0,
                7.9369459891604457e0
            ]
        );
        let mut rng = Rng::seed(7);
        let below: Vec<u64> = (0..8).map(|_| rng.below(6)).collect();
        assert_eq!(below, [0, 2, 0, 4, 2, 5, 4, 4]);
        let mut v: Vec<usize> = (0..10).collect();
        Rng::seed(7).shuffle(&mut v);
        assert_eq!(v, [8, 3, 9, 0, 7, 2, 1, 6, 5, 4]);
    }

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let stream = |seed| {
            let mut rng = Rng::seed(seed);
            (0..16).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn uniform_normal_and_exponential_moments() {
        const N: usize = 200_000;
        let mut rng = Rng::seed(1);
        let xs: Vec<f64> = (0..N).map(|_| rng.f64()).collect();
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        let (mean, var) = moments(&xs);
        assert!((mean - 0.5).abs() < 5e-3, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 2e-3, "var {var}");

        let xs: Vec<f64> = (0..N).map(|_| 3.0 + 2.0 * rng.normal()).collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.06, "var {var}");
        let beyond_2sd = xs.iter().filter(|x| (**x - 3.0).abs() > 4.0).count() as f64 / N as f64;
        assert!((beyond_2sd - 0.0455).abs() < 0.003, "tail {beyond_2sd}");

        let xs: Vec<f64> = (0..N).map(|_| rng.exp(0.25)).collect();
        assert!(xs.iter().all(|x| x.is_finite() && *x >= 0.0));
        let (mean, var) = moments(&xs);
        assert!((mean - 4.0).abs() < 0.05, "mean {mean}");
        assert!((var - 16.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn range_respects_bounds_and_hits_both_ends() {
        let mut rng = Rng::seed(2);
        let mut seen = [false; 6];
        for _ in 0..2000 {
            seen[rng.range(0..6usize)] = true;
            assert!((3..=5).contains(&rng.range(3..=5u64)));
            assert!((-4..4).contains(&rng.range(-4..4i32)));
            assert!((-999.0..999.0).contains(&rng.range(-999.0..999.0)));
        }
        assert!(seen.iter().all(|s| *s));
        assert_eq!(rng.range(9..=9u32), 9);
        assert_eq!(rng.range(1.5..=1.5), 1.5);
        let _full_width: u64 = rng.range(0..=u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_rejects_an_empty_range() {
        Rng::seed(0).range(5..5usize);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_rejects_zero() {
        Rng::seed(0).below(0);
    }

    #[test]
    fn shuffle_is_a_permutation_and_moves_things() {
        let mut v: Vec<usize> = (0..100).collect();
        Rng::seed(5).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn mix64_is_the_seed_expansion_step() {
        // Vigna's splitmix64.c from state 0.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(Rng::seed(0).s[0], mix64(0));
        assert_eq!(Rng::seed(0).s[1], mix64(GAMMA));
    }

    #[test]
    fn check_runs_exactly_the_requested_cases_each_on_its_own_seed() {
        let mut seen = Vec::new();
        check(64, |r| seen.push(r.clone()));
        assert_eq!(seen, (0..64).map(Rng::seed).collect::<Vec<_>>());
        check(0, |_| panic!("no cases, no calls"));
    }

    #[test]
    fn check_stops_at_the_failing_case_and_propagates_its_panic() {
        let mut calls = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            check(256, |r| {
                calls += 1;
                assert!(*r != Rng::seed(3));
            })
        }));
        assert!(outcome.is_err(), "the property's panic reaches the caller");
        assert_eq!(calls, 4, "cases 0..=3 ran, nothing after the failure");
    }

    /// Not a test of its own: `check_names_the_failing_case` runs it in a
    /// child process to read what `check` prints while unwinding.
    #[test]
    #[ignore = "fails on purpose; driven by check_names_the_failing_case"]
    fn a_property_that_fails_at_case_3() {
        check(256, |r| assert!(*r != Rng::seed(3)));
    }

    #[test]
    fn check_names_the_failing_case() {
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--ignored", "--exact", "--nocapture", "tests::a_property_that_fails_at_case_3"])
            .output()
            .expect("re-run this test binary");
        assert!(!child.status.success());
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert!(stderr.contains("property failed at case 3 (Rng::seed(3))"), "{stderr}");
    }
}
