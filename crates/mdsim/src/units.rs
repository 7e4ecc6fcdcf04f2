//! Unit system and physical constants.
//!
//! The substrate uses the AKMA-style unit system common to Amber/CHARMM:
//!
//! * length — Å (angstrom)
//! * energy — kcal/mol
//! * mass — amu (g/mol)
//! * temperature — K
//! * time — ps (with an internal conversion factor for the integrator)
//!
//! With these units, `v = sqrt(kB*T/m)` comes out in Å per *AKMA time unit*;
//! the integrator converts time steps given in ps via [`AKMA_PER_PS`].

/// Boltzmann constant in kcal/(mol·K).
pub const KB: f64 = 0.001_987_204_259;

/// Ideal-gas constant alias (identical value in molar units).
pub const R_GAS: f64 = KB;

/// Number of AKMA time units per picosecond.
///
/// 1 AKMA time unit = 1/sqrt(kcal/mol / (amu·Å²)) ≈ 0.048888 ps, hence
/// 1 ps ≈ 20.455 AKMA units.
pub const AKMA_PER_PS: f64 = 20.454_829_497_575_9;

/// Degrees → radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * std::f64::consts::PI / 180.0
}

/// Radians → degrees.
#[inline]
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / std::f64::consts::PI
}

/// Wrap an angle in radians into `(-pi, pi]`.
#[inline]
pub fn wrap_angle(mut a: f64) -> f64 {
    use std::f64::consts::PI;
    while a > PI {
        a -= 2.0 * PI;
    }
    while a <= -PI {
        a += 2.0 * PI;
    }
    a
}

/// Wrap an angle in degrees into `(-180, 180]`.
#[inline]
pub fn wrap_angle_deg(mut a: f64) -> f64 {
    while a > 180.0 {
        a -= 360.0;
    }
    while a <= -180.0 {
        a += 360.0;
    }
    a
}

/// Smallest signed angular difference `a - b` in degrees, in `(-180, 180]`.
#[inline]
pub fn angle_diff_deg(a: f64, b: f64) -> f64 {
    wrap_angle_deg(a - b)
}

/// kB·T in kcal/mol at temperature `t` (K).
#[inline]
pub fn kbt(t: f64) -> f64 {
    KB * t
}

/// Inverse temperature β = 1/(kB·T) in mol/kcal.
#[inline]
pub fn beta(t: f64) -> f64 {
    1.0 / kbt(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn kb_room_temperature() {
        // kB*T at 300 K is the textbook ~0.596 kcal/mol.
        assert!((kbt(300.0) - 0.5962).abs() < 1e-3);
        assert!((beta(300.0) * kbt(300.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn angle_conversions_roundtrip() {
        for d in [-180.0, -90.0, 0.0, 45.0, 180.0] {
            assert!((rad_to_deg(deg_to_rad(d)) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn wrapping() {
        assert!((wrap_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(-3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_angle_deg(540.0) - 180.0).abs() < 1e-12);
        assert!((wrap_angle_deg(-190.0) - 170.0).abs() < 1e-12);
        assert!((angle_diff_deg(170.0, -170.0) + 20.0).abs() < 1e-12);
    }

    #[test]
    fn akma_conversion_magnitude() {
        // 2 fs in AKMA units: 0.002 ps * 20.4548 ≈ 0.0409.
        let dt = 0.002 * AKMA_PER_PS;
        assert!((dt - 0.04091).abs() < 1e-4);
    }

    #[test]
    fn wrap_angle_is_idempotent() {
        rng::check(256, |r| {
            let w = wrap_angle(r.range(-1e4..1e4));
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12);
            assert!((wrap_angle(w) - w).abs() < 1e-12);
        });
    }

    #[test]
    fn wrap_deg_preserves_sin_cos() {
        rng::check(256, |r| {
            let a = r.range(-1e4..1e4);
            let w = wrap_angle_deg(a);
            assert!((deg_to_rad(a).sin() - deg_to_rad(w).sin()).abs() < 1e-6);
            assert!((deg_to_rad(a).cos() - deg_to_rad(w).cos()).abs() < 1e-6);
        });
    }
}
