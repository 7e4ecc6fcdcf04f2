//! Batch-queue wait-time model.
//!
//! Pilot jobs sit in the machine's batch queue before becoming active; the
//! whole point of the pilot abstraction is to pay this wait once rather than
//! per task. We model wait time as lognormal — `exp(ln median + sigma *`
//! [`Rng::normal`]`)` — growing with the fraction of the machine requested.

use crate::cluster::ClusterSpec;
use rng::Rng;

/// Queue wait model parameters.
#[derive(Debug, Clone, Copy)]
pub struct BatchQueue {
    /// Median wait for a tiny job, in seconds.
    pub base_median: f64,
    /// Lognormal sigma (spread).
    pub sigma: f64,
    /// How strongly wait grows with requested machine fraction.
    pub size_exponent: f64,
}

impl Default for BatchQueue {
    fn default() -> Self {
        BatchQueue { base_median: 600.0, sigma: 0.8, size_exponent: 1.5 }
    }
}

impl BatchQueue {
    /// Sample a queue wait for a pilot requesting `cores` on `cluster`.
    pub fn sample_wait(&self, cores: usize, cluster: &ClusterSpec, rng: &mut Rng) -> f64 {
        let fraction = (cores as f64 / cluster.total_cores() as f64).clamp(0.0, 1.0);
        let median = self.base_median * (1.0 + fraction).powf(self.size_exponent * 10.0);
        (median.ln() + self.sigma * rng.normal()).exp()
    }

    /// Median (deterministic) wait, for reporting.
    pub fn median_wait(&self, cores: usize, cluster: &ClusterSpec) -> f64 {
        let fraction = (cores as f64 / cluster.total_cores() as f64).clamp(0.0, 1.0);
        self.base_median * (1.0 + fraction).powf(self.size_exponent * 10.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_requests_wait_longer_in_median() {
        let q = BatchQueue::default();
        let c = ClusterSpec::supermic();
        let small = q.median_wait(64, &c);
        let large = q.median_wait(c.total_cores() / 2, &c);
        assert!(large > small * 2.0, "{small} vs {large}");
    }

    #[test]
    fn samples_are_positive_and_spread() {
        let q = BatchQueue::default();
        let c = ClusterSpec::supermic();
        let mut rng = Rng::seed(1);
        let samples: Vec<f64> = (0..200).map(|_| q.sample_wait(1000, &c, &mut rng)).collect();
        assert!(samples.iter().all(|s| *s > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let spread = samples.iter().map(|s| (s - mean).abs()).sum::<f64>() / samples.len() as f64;
        assert!(spread > 0.0, "lognormal must have spread");
    }

    #[test]
    fn deterministic_median_is_stable() {
        let q = BatchQueue::default();
        let c = ClusterSpec::stampede();
        assert_eq!(q.median_wait(100, &c), q.median_wait(100, &c));
    }
}
