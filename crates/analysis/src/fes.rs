//! Free-energy surface estimation from umbrella-biased samples.
//!
//! The paper's Fig. 4 builds F(φ, ψ) at six temperatures from the last
//! nanosecond of 3-D REMD production data using the maximum-likelihood vFEP
//! estimator. We use WHAM (the Weighted Histogram Analysis Method) over the
//! same biased histograms — an equivalent standard estimator for the same
//! observable (vFEP generalizes WHAM with smooth basis functions; on a
//! binned torus they converge to the same surface).

use crate::histogram::Histogram2D;
use mdsim::units::{angle_diff_deg, beta};

/// One umbrella window's data: the bias parameters and its samples.
#[derive(Debug, Clone)]
pub struct BiasedWindow {
    /// Harmonic center on φ in degrees.
    pub phi_center_deg: f64,
    /// Harmonic center on ψ in degrees (None = no ψ bias).
    pub psi_center_deg: Option<f64>,
    /// Force constant in kcal/mol/deg² (shared by both axes).
    pub k_deg: f64,
    /// Samples (φ, ψ) in radians.
    pub samples: Vec<(f64, f64)>,
}

impl BiasedWindow {
    /// Bias energy at a grid point (degrees).
    fn bias_at(&self, phi_deg: f64, psi_deg: f64) -> f64 {
        let dphi = angle_diff_deg(phi_deg, self.phi_center_deg);
        let mut w = self.k_deg * dphi * dphi;
        if let Some(psi_c) = self.psi_center_deg {
            let dpsi = angle_diff_deg(psi_deg, psi_c);
            w += self.k_deg * dpsi * dpsi;
        }
        w
    }
}

/// A free-energy surface on the (φ, ψ) grid, in kcal/mol, shifted so the
/// minimum is zero. Bins never visited hold `f64::INFINITY`.
#[derive(Debug, Clone)]
pub struct FreeEnergySurface {
    pub bins: usize,
    /// Row-major F values (φ index × ψ index).
    pub f: Vec<f64>,
}

impl FreeEnergySurface {
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.f[i * self.bins + j]
    }

    /// The lowest free energy (0 after shifting) and its bin.
    pub fn minimum(&self) -> (usize, usize, f64) {
        let mut best = (0, 0, f64::INFINITY);
        for i in 0..self.bins {
            for j in 0..self.bins {
                let v = self.value(i, j);
                if v < best.2 {
                    best = (i, j, v);
                }
            }
        }
        best
    }

    /// Range of finite values (min, max).
    pub fn finite_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.f {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo, hi)
    }

    /// The q-quantile (0..1) of the finite free-energy values — a robust
    /// "range" statistic for comparing surface corrugation across
    /// temperatures without being dominated by barely-sampled corners.
    pub fn finite_quantile(&self, q: f64) -> f64 {
        let mut vals: Vec<f64> = self.f.iter().copied().filter(|v| v.is_finite()).collect();
        if vals.is_empty() {
            return f64::NAN;
        }
        vals.sort_by(f64::total_cmp);
        let idx = ((vals.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        vals[idx]
    }

    /// Fraction of bins with finite estimates (sampling coverage).
    pub fn coverage(&self) -> f64 {
        self.f.iter().filter(|v| v.is_finite()).count() as f64 / self.f.len() as f64
    }
}

/// Direct (unbiased) free-energy estimate `F = -kT ln p` from samples with
/// no umbrella bias (used for T-only REMD).
pub fn unbiased_fes(samples: &[(f64, f64)], temperature: f64, bins: usize) -> FreeEnergySurface {
    let mut h = Histogram2D::new(bins);
    h.add_all(samples);
    let kt = 1.0 / beta(temperature);
    let mut f = vec![f64::INFINITY; bins * bins];
    for i in 0..bins {
        for j in 0..bins {
            let p = h.probability(i, j);
            if p > 0.0 {
                f[i * bins + j] = -kt * p.ln();
            }
        }
    }
    shift_to_zero(&mut f);
    FreeEnergySurface { bins, f }
}

/// WHAM over umbrella windows at a common temperature.
///
/// Iterates the standard self-consistent equations until the window free
/// energies move less than `tol` (kcal/mol), up to `max_iter` sweeps.
pub fn wham_fes(
    windows: &[BiasedWindow],
    temperature: f64,
    bins: usize,
    tol: f64,
    max_iter: usize,
) -> FreeEnergySurface {
    wham_fes_min_count(windows, temperature, bins, tol, max_iter, 1)
}

/// [`wham_fes`] with a minimum per-bin sample count: bins with fewer total
/// samples are reported as unvisited (infinite F) instead of producing
/// wildly reweighted estimates from one or two hits — standard practice
/// before plotting contours.
pub fn wham_fes_min_count(
    windows: &[BiasedWindow],
    temperature: f64,
    bins: usize,
    tol: f64,
    max_iter: usize,
    min_count: u64,
) -> FreeEnergySurface {
    assert!(!windows.is_empty(), "WHAM needs at least one window");
    let b = beta(temperature);
    let kt = 1.0 / b;
    let nb = bins * bins;

    // Per-window histograms and sample counts.
    let mut hists = Vec::with_capacity(windows.len());
    let mut n_samples = Vec::with_capacity(windows.len());
    for w in windows {
        let mut h = Histogram2D::new(bins);
        h.add_all(&w.samples);
        n_samples.push(h.total() as f64);
        hists.push(h);
    }
    // Precompute bias Boltzmann factors per (window, bin), averaging
    // exp(-beta w) over a sub-grid inside each bin. With stiff umbrellas
    // (sigma of a few degrees) the bias changes by tens of kcal/mol across
    // one bin, so evaluating at the bin center alone grossly misestimates
    // the reweighting denominator.
    const SUB: usize = 5;
    let h = Histogram2D::new(bins);
    let bin_width = 360.0 / bins as f64;
    let mut bias_bf = vec![0.0; windows.len() * nb];
    for (wi, w) in windows.iter().enumerate() {
        for idx in 0..nb {
            let phi_c = h.center_deg(idx / bins);
            let psi_c = h.center_deg(idx % bins);
            let mut acc = 0.0;
            for si in 0..SUB {
                for sj in 0..SUB {
                    let phi = phi_c + bin_width * ((si as f64 + 0.5) / SUB as f64 - 0.5);
                    let psi = psi_c + bin_width * ((sj as f64 + 0.5) / SUB as f64 - 0.5);
                    acc += (-b * w.bias_at(phi, psi)).exp();
                }
            }
            bias_bf[wi * nb + idx] = acc / (SUB * SUB) as f64;
        }
    }
    // Total counts per bin.
    let mut total_counts = vec![0.0; nb];
    for h in &hists {
        for (idx, tc) in total_counts.iter_mut().enumerate() {
            *tc += h.count(idx / bins, idx % bins) as f64;
        }
    }

    // Self-consistent iteration on the window normalizers z_i = exp(-b f_i).
    let mut z = vec![1.0f64; windows.len()];
    let mut p = vec![0.0f64; nb];
    for _iter in 0..max_iter {
        // P(x) = sum_i n_i(x) / sum_i N_i exp(-b w_i(x)) / z_i
        for idx in 0..nb {
            let denom: f64 = windows
                .iter()
                .enumerate()
                .map(|(wi, _)| n_samples[wi] * bias_bf[wi * nb + idx] / z[wi])
                .sum();
            p[idx] = if denom > 0.0 { total_counts[idx] / denom } else { 0.0 };
        }
        // z_i = sum_x P(x) exp(-b w_i(x))
        let mut max_shift: f64 = 0.0;
        for wi in 0..windows.len() {
            let new_z: f64 = (0..nb).map(|idx| p[idx] * bias_bf[wi * nb + idx]).sum();
            if new_z > 0.0 {
                let shift = kt * (new_z.ln() - z[wi].ln()).abs();
                max_shift = max_shift.max(shift);
                z[wi] = new_z;
            }
        }
        if max_shift < tol {
            break;
        }
    }

    let mut f = vec![f64::INFINITY; nb];
    for idx in 0..nb {
        if p[idx] > 0.0 && total_counts[idx] >= min_count as f64 {
            f[idx] = -kt * p[idx].ln();
        }
    }
    shift_to_zero(&mut f);
    FreeEnergySurface { bins, f }
}

fn shift_to_zero(f: &mut [f64]) {
    let min = f.iter().copied().filter(|v| v.is_finite()).fold(f64::INFINITY, f64::min);
    if min.is_finite() {
        for v in f.iter_mut() {
            if v.is_finite() {
                *v -= min;
            }
        }
    }
}

/// Render a surface as an ASCII contour map (for bench output).
pub fn render_ascii(fes: &FreeEnergySurface, levels: &[f64]) -> String {
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut s = String::new();
    for i in (0..fes.bins).rev() {
        for j in 0..fes.bins {
            let v = fes.value(j, i); // x = phi (j), y = psi (i)
            let g = if !v.is_finite() {
                '?'
            } else {
                let lvl = levels.iter().filter(|&&l| v >= l).count();
                glyphs[lvl.min(glyphs.len() - 1)]
            };
            s.push(g);
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::Rng;

    /// Draw samples from a harmonic bias on a FLAT landscape: Gaussian
    /// around the window center with sigma = sqrt(kT / (2 k)) degrees.
    fn flat_landscape_window(
        center_phi: f64,
        center_psi: f64,
        k_deg: f64,
        t: f64,
        n: usize,
        rng: &mut Rng,
    ) -> BiasedWindow {
        let kt = 1.0 / beta(t);
        let sigma = (kt / (2.0 * k_deg)).sqrt();
        let samples = (0..n)
            .map(|_| {
                let phi = (center_phi + sigma * rng.normal()).to_radians();
                let psi = (center_psi + sigma * rng.normal()).to_radians();
                (phi, psi)
            })
            .collect();
        BiasedWindow {
            phi_center_deg: center_phi,
            psi_center_deg: Some(center_psi),
            k_deg,
            samples,
        }
    }

    #[test]
    fn wham_recovers_flat_landscape() {
        // Samples generated under harmonic biases on a flat landscape:
        // WHAM must unbias them back to (nearly) flat F where sampled.
        let mut rng = Rng::seed(42);
        let t = 300.0;
        let k = 0.002; // soft springs -> wide overlap
        let mut windows = Vec::new();
        for ci in 0..6 {
            for cj in 0..6 {
                let c_phi = -180.0 + 60.0 * ci as f64 + 30.0;
                let c_psi = -180.0 + 60.0 * cj as f64 + 30.0;
                windows.push(flat_landscape_window(c_phi, c_psi, k, t, 4000, &mut rng));
            }
        }
        let fes = wham_fes(&windows, t, 24, 1e-6, 2000);
        assert!(fes.coverage() > 0.9, "coverage {}", fes.coverage());
        // Flat landscape: the spread of recovered F (ignoring the sparsely
        // sampled tail) should be small compared to kT-scale structure.
        let mut vals: Vec<f64> = fes.f.iter().copied().filter(|v| v.is_finite()).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p90 = vals[(vals.len() as f64 * 0.9) as usize];
        assert!(p90 < 1.0, "90th percentile of F on a flat landscape: {p90} kcal/mol");
    }

    #[test]
    fn unbiased_fes_finds_the_well() {
        // Gaussian samples around (60, -60): minimum should be there and F
        // grows away from it.
        let mut rng = Rng::seed(3);
        let samples: Vec<(f64, f64)> = (0..50_000)
            .map(|_| {
                (
                    (60.0 + 20.0 * rng.normal()).to_radians(),
                    (-60.0 + 20.0 * rng.normal()).to_radians(),
                )
            })
            .collect();
        let fes = unbiased_fes(&samples, 300.0, 24);
        let (i, j, v) = fes.minimum();
        assert_eq!(v, 0.0, "shifted to zero");
        // Minimum bin near (60, -60); 60° sits exactly on a bin edge with
        // 24 bins, so allow the neighbouring bin.
        let h = Histogram2D::new(24);
        assert!((i as i64 - h.bin_of(60f64.to_radians()) as i64).abs() <= 1);
        assert!((j as i64 - h.bin_of((-60f64).to_radians()) as i64).abs() <= 1);
        let (_, hi) = fes.finite_range();
        assert!(hi > 1.0, "tails are several kT up: {hi}");
    }

    #[test]
    fn gaussian_well_depth_matches_analytic() {
        // For p ~ N(0, sigma) in each axis, F(r) - F(0) = kT r²/(2σ²).
        let mut rng = Rng::seed(9);
        let sigma_deg = 30.0;
        let samples: Vec<(f64, f64)> = (0..200_000)
            .map(|_| {
                ((sigma_deg * rng.normal()).to_radians(), (sigma_deg * rng.normal()).to_radians())
            })
            .collect();
        let t = 300.0;
        let fes = unbiased_fes(&samples, t, 36);
        let h = Histogram2D::new(36);
        let center = h.bin_of(0.0);
        let off = h.bin_of(30f64.to_radians()); // about one sigma away in phi
        let measured = fes.value(off, center) - fes.value(center, center);
        // For p ~ N(0, sigma), F(c) - F(c0) = kT (c² - c0²)/(2σ²) evaluated
        // at the actual bin centers.
        let c_off = h.center_deg(off);
        let c0 = h.center_deg(center);
        let kt = 1.0 / beta(t);
        let expect = kt * (c_off * c_off - c0 * c0) / (2.0 * sigma_deg * sigma_deg);
        assert!(
            (measured - expect).abs() < 0.15 * expect.max(0.1),
            "measured {measured}, analytic {expect}"
        );
    }

    #[test]
    fn ascii_rendering_shape() {
        let fes = FreeEnergySurface { bins: 4, f: vec![0.0; 16] };
        let art = render_ascii(&fes, &[1.0, 2.0]);
        assert_eq!(art.lines().count(), 4);
        assert!(art.lines().all(|l| l.chars().count() == 4));
    }

    #[test]
    fn wham_invariant_to_window_order() {
        let mut rng = Rng::seed(5);
        let t = 300.0;
        let mut windows = Vec::new();
        for c in [-120.0, 0.0, 120.0] {
            windows.push(flat_landscape_window(c, 0.0, 0.004, t, 1500, &mut rng));
        }
        let a = wham_fes(&windows, t, 12, 1e-7, 2000);
        windows.reverse();
        let b = wham_fes(&windows, t, 12, 1e-7, 2000);
        for (x, y) in a.f.iter().zip(&b.f) {
            if x.is_finite() || y.is_finite() {
                assert!((x - y).abs() < 1e-6, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn unvisited_bins_are_infinite() {
        let fes = unbiased_fes(&[(0.0, 0.0)], 300.0, 8);
        assert!(fes.coverage() < 0.05);
        let (lo, hi) = fes.finite_range();
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 0.0);
    }
}
