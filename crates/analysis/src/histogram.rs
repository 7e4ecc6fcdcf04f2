//! Periodic 2-D histograms over the (φ, ψ) torus.

/// A 2-D histogram with periodic binning over `[-180°, 180°) × [-180°, 180°)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram2D {
    pub bins: usize,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram2D {
    pub fn new(bins: usize) -> Self {
        assert!(bins >= 2, "need at least 2 bins per axis");
        Histogram2D { bins, counts: vec![0; bins * bins], total: 0 }
    }

    /// Bin index for an angle in radians (wrapped periodically).
    #[inline]
    pub fn bin_of(&self, angle_rad: f64) -> usize {
        let deg = mdsim::units::wrap_angle_deg(angle_rad.to_degrees());
        // deg in (-180, 180]; map to [0, bins).
        let f = (deg + 180.0) / 360.0;
        ((f * self.bins as f64) as usize).min(self.bins - 1)
    }

    /// Bin center in degrees.
    pub fn center_deg(&self, bin: usize) -> f64 {
        -180.0 + (bin as f64 + 0.5) * 360.0 / self.bins as f64
    }

    pub fn add(&mut self, phi_rad: f64, psi_rad: f64) {
        let i = self.bin_of(phi_rad);
        let j = self.bin_of(psi_rad);
        self.counts[i * self.bins + j] += 1;
        self.total += 1;
    }

    pub fn add_all(&mut self, samples: &[(f64, f64)]) {
        for &(phi, psi) in samples {
            self.add(phi, psi);
        }
    }

    pub fn count(&self, i: usize, j: usize) -> u64 {
        self.counts[i * self.bins + j]
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Probability per bin (0 for empty histogram).
    pub fn probability(&self, i: usize, j: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(i, j) as f64 / self.total as f64
        }
    }

    /// Number of non-empty bins.
    pub fn occupied_bins(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_covers_the_torus() {
        let h = Histogram2D::new(8);
        assert_eq!(h.bin_of((-179.9f64).to_radians()), 0);
        assert_eq!(h.bin_of(179.9f64.to_radians()), 7);
        assert_eq!(h.bin_of(0.0), 4);
        // Periodic wrap: 181° == -179°.
        assert_eq!(h.bin_of(181f64.to_radians()), h.bin_of((-179f64).to_radians()));
        assert_eq!(h.bin_of(540f64.to_radians()), h.bin_of(180f64.to_radians()));
    }

    #[test]
    fn centers_are_in_range() {
        let h = Histogram2D::new(36);
        for b in 0..36 {
            let c = h.center_deg(b);
            assert!(c > -180.0 && c < 180.0);
        }
        assert!((h.center_deg(0) + 175.0).abs() < 1e-12);
    }

    #[test]
    fn counting_and_probability() {
        let mut h = Histogram2D::new(4);
        h.add(0.0, 0.0);
        h.add(0.0, 0.0);
        h.add(3.0, 3.0); // different bin
        assert_eq!(h.total(), 3);
        let i = h.bin_of(0.0);
        assert_eq!(h.count(i, i), 2);
        assert!((h.probability(i, i) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.occupied_bins(), 2);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram2D::new(4);
        assert_eq!(h.probability(0, 0), 0.0);
        assert_eq!(h.occupied_bins(), 0);
    }

    #[test]
    fn every_angle_lands_in_a_valid_bin() {
        rng::check(256, |r| {
            let (a, bins) = (r.range(-1000.0..1000.0), r.range(2usize..64));
            let h = Histogram2D::new(bins);
            let b = h.bin_of(a);
            assert!(b < bins);
        });
    }
}
