//! std-only stand-in for the subset of `rand_distr` 0.4 the repository uses:
//! `StandardNormal`/`Normal`/`LogNormal` by the Marsaglia polar method
//! (the published crate uses a ziggurat: same law, different stream and a
//! different number of uniform draws per sample) and `Exp` by inverse CDF.
//! The types keep the real crate's float parameter (`Exp<f64>`) because the
//! repository spells it out, but only `f64` is implemented.

pub use rand::distributions::Distribution;
use rand::Rng;

/// Invalid distribution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error(&'static str);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for Error {}

/// N(0, 1).
#[derive(Debug, Clone, Copy)]
pub struct StandardNormal;

impl Distribution<f64> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Polar method; the second variate is discarded so the distribution
        // object stays stateless like the real one.
        loop {
            let u = 2.0 * rng.gen::<f64>() - 1.0;
            let v = 2.0 * rng.gen::<f64>() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

/// N(mean, std_dev²).
#[derive(Debug, Clone, Copy)]
pub struct Normal<F = f64> {
    mean: F,
    std_dev: F,
}

impl Normal<f64> {
    pub fn new(mean: f64, std_dev: f64) -> Result<Normal<f64>, Error> {
        if !(std_dev.is_finite() && std_dev >= 0.0 && mean.is_finite()) {
            return Err(Error("Normal: mean and std_dev must be finite, std_dev >= 0"));
        }
        Ok(Normal { mean, std_dev })
    }
}

impl Distribution<f64> for Normal<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * StandardNormal.sample(rng)
    }
}

/// exp(N(mu, sigma²)).
#[derive(Debug, Clone, Copy)]
pub struct LogNormal<F = f64> {
    norm: Normal<F>,
}

impl LogNormal<f64> {
    pub fn new(mu: f64, sigma: f64) -> Result<LogNormal<f64>, Error> {
        Ok(LogNormal { norm: Normal::new(mu, sigma)? })
    }
}

impl Distribution<f64> for LogNormal<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Exponential with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy)]
pub struct Exp<F = f64> {
    lambda_inv: F,
}

impl Exp<f64> {
    pub fn new(lambda: f64) -> Result<Exp<f64>, Error> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(Error("Exp: lambda must be finite and positive"));
        }
        Ok(Exp { lambda_inv: 1.0 / lambda })
    }
}

impl Distribution<f64> for Exp<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        -(1.0 - rng.gen::<f64>()).ln() * self.lambda_inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        (mean, xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n)
    }

    #[test]
    fn normal_moments_and_tail() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Normal::new(3.0, 2.0).unwrap();
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.06, "var {var}");
        let beyond_2sd = xs.iter().filter(|x| (**x - 3.0).abs() > 4.0).count() as f64 / 2e5;
        assert!((beyond_2sd - 0.0455).abs() < 0.003, "tail {beyond_2sd}");
    }

    #[test]
    fn lognormal_median_and_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = LogNormal::new(1.0, 0.5).unwrap();
        let mut xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, _) = moments(&xs);
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        assert!((median - 1.0f64.exp()).abs() < 0.03, "median {median}");
        assert!((mean - (1.0f64 + 0.125).exp()).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn exp_mean_and_positivity() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Exp::new(0.25).unwrap();
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|x| x.is_finite() && *x >= 0.0));
        let (mean, var) = moments(&xs);
        assert!((mean - 4.0).abs() < 0.05, "mean {mean}");
        assert!((var - 16.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn bad_parameters_are_errors() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::new(0.0, f64::INFINITY).is_err());
        assert!(Exp::new(0.0).is_err());
        assert!(Exp::new(-2.0).is_err());
        assert!(Exp::new(f64::INFINITY).is_err());
    }

    #[test]
    fn samples_through_dyn_rngcore() {
        let mut rng = StdRng::seed_from_u64(4);
        let dynrng: &mut dyn rand::RngCore = &mut rng;
        assert!(StandardNormal.sample(dynrng).is_finite());
    }
}
