//! std-only stand-in for the subset of `rand` 0.8 the repository uses.
//!
//! `StdRng` here is xoshiro256** seeded through SplitMix64 (the generator
//! ROADMAP item 1 names), **not** ChaCha12: every random stream differs from
//! a build against the published crate. Distribution *shapes* are the same.

pub mod distributions;
pub mod rngs;
pub mod seq;

pub use distributions::Distribution;

/// The raw generator interface.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seeding interface; only the `u64` entry point is used in this repository.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every generator.
pub trait Rng: RngCore {
    /// A value from the type's standard distribution (`f64`: uniform `[0,1)`).
    fn gen<T: distributions::StandardSample>(&mut self) -> T {
        T::standard(self)
    }

    /// Uniform draw from `lo..hi` or `lo..=hi`. Panics on an empty range.
    fn gen_range<T, S: distributions::SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn xoshiro_matches_reference_vector() {
        // State {1,2,3,4}: first outputs of the public-domain reference
        // implementation (Blackman & Vigna, xoshiro256starstar.c).
        let mut rng = StdRng::from_state([1, 2, 3, 4]);
        assert_eq!(rng.next_u64(), 11520);
        assert_eq!(rng.next_u64(), 0);
        assert_eq!(rng.next_u64(), 1509978240);
        assert_eq!(rng.next_u64(), 1215971899390074240);
    }

    #[test]
    fn uniform_f64_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 5e-3, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 2e-3, "var {var}");
    }

    #[test]
    fn gen_range_respects_bounds_and_hits_both_ends() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 6];
        for _ in 0..2000 {
            let k = rng.gen_range(0..6usize);
            seen[k] = true;
            let j = rng.gen_range(3..=5u64);
            assert!((3..=5).contains(&j));
            let i = rng.gen_range(-4..4i32);
            assert!((-4..4).contains(&i));
            let x = rng.gen_range(-999.0..999.0);
            assert!((-999.0..999.0).contains(&x));
        }
        assert!(seen.iter().all(|s| *s));
        assert_eq!(rng.gen_range(9..=9u32), 9);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty_range() {
        StdRng::seed_from_u64(0).gen_range(5..5usize);
    }

    #[test]
    fn works_through_dyn_rngcore() {
        let mut rng = StdRng::seed_from_u64(4);
        let dynrng: &mut dyn RngCore = &mut rng;
        let x: f64 = dynrng.gen();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn shuffle_is_a_permutation_and_moves_things() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut rng);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
