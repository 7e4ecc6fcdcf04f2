//! Exchange parameters and ladder construction.
//!
//! RepEx supports three exchange parameter types — temperature (T), umbrella
//! / biasing potential (U) and salt concentration (S) — composable into
//! multi-dimensional REMD with arbitrary ordering (TSU, TUU, ...).

use mdsim::DihedralRestraint;

/// One exchangeable thermodynamic control variable.
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeParam {
    /// Thermostat temperature in K.
    Temperature(f64),
    /// Umbrella window: harmonic restraint on a named dihedral.
    Umbrella { dihedral: String, center_deg: f64, k_deg: f64 },
    /// Salt concentration in mol/L.
    Salt(f64),
    /// Solvent pH (the paper's proposed pH-exchange extension).
    Ph(f64),
}

impl ExchangeParam {
    /// The dimension type letter used in simulation names (T/U/S).
    pub fn letter(&self) -> char {
        match self {
            ExchangeParam::Temperature(_) => 'T',
            ExchangeParam::Umbrella { .. } => 'U',
            ExchangeParam::Salt(_) => 'S',
            ExchangeParam::Ph(_) => 'P',
        }
    }

    /// Scalar value for reporting/ordering within a ladder.
    pub fn scalar(&self) -> f64 {
        match self {
            ExchangeParam::Temperature(t) => *t,
            ExchangeParam::Umbrella { center_deg, .. } => *center_deg,
            ExchangeParam::Salt(c) => *c,
            ExchangeParam::Ph(p) => *p,
        }
    }

    /// Convert an umbrella parameter to the engine-level restraint.
    pub fn as_restraint(&self) -> Option<DihedralRestraint> {
        match self {
            ExchangeParam::Umbrella { dihedral, center_deg, k_deg } => {
                Some(DihedralRestraint::new(dihedral.clone(), *k_deg, *center_deg))
            }
            _ => None,
        }
    }
}

/// One exchange dimension: an ordered ladder of parameter values.
#[derive(Debug, Clone, PartialEq)]
pub struct Dimension {
    /// Human-readable name ("T", "U-phi", "S").
    pub name: String,
    /// The ladder, ordered.
    pub ladder: Vec<ExchangeParam>,
}

impl Dimension {
    pub fn len(&self) -> usize {
        self.ladder.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ladder.is_empty()
    }

    pub fn kind_letter(&self) -> char {
        self.ladder.first().map_or('?', |p| p.letter())
    }

    /// Geometric temperature ladder from `t_min` to `t_max` with `n` rungs —
    /// the standard spacing for T-REMD (the paper's validation run uses 6
    /// windows 273–373 K "by geometrical progression").
    pub fn temperature_geometric(t_min: f64, t_max: f64, n: usize) -> Self {
        assert!(n >= 1 && t_min > 0.0 && t_max >= t_min);
        let ladder = if n == 1 {
            vec![ExchangeParam::Temperature(t_min)]
        } else {
            let ratio = (t_max / t_min).powf(1.0 / (n as f64 - 1.0));
            (0..n).map(|i| ExchangeParam::Temperature(t_min * ratio.powi(i as i32))).collect()
        };
        Dimension { name: "T".into(), ladder }
    }

    /// Uniform umbrella windows over the full circle for a named dihedral
    /// (the paper: "8 windows chosen uniformly between 0° and 360°", force
    /// constant 0.02 kcal/mol/deg²).
    pub fn umbrella_uniform(dihedral: &str, n: usize, k_deg: f64) -> Self {
        assert!(n >= 1 && k_deg > 0.0);
        let ladder = (0..n)
            .map(|i| {
                let raw = 360.0 * i as f64 / n as f64;
                ExchangeParam::Umbrella {
                    dihedral: dihedral.to_string(),
                    center_deg: mdsim::units::wrap_angle_deg(raw),
                    k_deg,
                }
            })
            .collect();
        Dimension { name: format!("U-{dihedral}"), ladder }
    }

    /// Explicit temperature ladder (used by the adaptive ladder optimizer,
    /// which produces non-geometric spacings).
    pub fn temperature_list(temps: &[f64]) -> Self {
        assert!(!temps.is_empty());
        assert!(
            temps.windows(2).all(|w| w[1] > w[0]) && temps[0] > 0.0,
            "temperatures must be positive and strictly increasing"
        );
        Dimension {
            name: "T".into(),
            ladder: temps.iter().map(|&t| ExchangeParam::Temperature(t)).collect(),
        }
    }

    /// Linear pH ladder (pH-REMD, the paper's Section 5 extension).
    pub fn ph_linear(ph_min: f64, ph_max: f64, n: usize) -> Self {
        assert!(n >= 1 && ph_max >= ph_min);
        let ladder = (0..n)
            .map(|i| {
                let f = if n == 1 { 0.0 } else { i as f64 / (n as f64 - 1.0) };
                ExchangeParam::Ph(ph_min + f * (ph_max - ph_min))
            })
            .collect();
        Dimension { name: "pH".into(), ladder }
    }

    /// Linear salt-concentration ladder in mol/L.
    pub fn salt_linear(c_min: f64, c_max: f64, n: usize) -> Self {
        assert!(n >= 1 && c_min >= 0.0 && c_max >= c_min);
        let ladder = (0..n)
            .map(|i| {
                let f = if n == 1 { 0.0 } else { i as f64 / (n as f64 - 1.0) };
                ExchangeParam::Salt(c_min + f * (c_max - c_min))
            })
            .collect();
        Dimension { name: "S".into(), ladder }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_temperature_ladder_matches_paper_setup() {
        let d = Dimension::temperature_geometric(273.0, 373.0, 6);
        assert_eq!(d.len(), 6);
        let temps: Vec<f64> = d.ladder.iter().map(|p| p.scalar()).collect();
        assert!((temps[0] - 273.0).abs() < 1e-9);
        assert!((temps[5] - 373.0).abs() < 1e-9);
        // Constant ratio between neighbours.
        let r0 = temps[1] / temps[0];
        for w in temps.windows(2) {
            assert!((w[1] / w[0] - r0).abs() < 1e-9, "geometric spacing");
        }
        assert_eq!(d.kind_letter(), 'T');
    }

    #[test]
    fn umbrella_windows_cover_circle_uniformly() {
        let d = Dimension::umbrella_uniform("phi", 8, 0.02);
        assert_eq!(d.len(), 8);
        let centers: Vec<f64> = d.ladder.iter().map(|p| p.scalar()).collect();
        // Spacing is 45 degrees between consecutive raw values.
        assert!((centers[1] - centers[0] - 45.0).abs() < 1e-9);
        // All wrapped into (-180, 180].
        assert!(centers.iter().all(|c| *c > -180.0 - 1e-9 && *c <= 180.0 + 1e-9));
        assert_eq!(d.kind_letter(), 'U');
        // Restraint conversion carries the paper's force constant.
        let r = d.ladder[2].as_restraint().unwrap();
        assert_eq!(r.k_deg, 0.02);
        assert_eq!(r.dihedral, "phi");
    }

    #[test]
    fn salt_ladder_linear() {
        let d = Dimension::salt_linear(0.0, 1.0, 5);
        let vals: Vec<f64> = d.ladder.iter().map(|p| p.scalar()).collect();
        assert_eq!(vals, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(d.kind_letter(), 'S');
        assert!(d.ladder[0].as_restraint().is_none());
    }

    #[test]
    fn single_rung_ladders() {
        assert_eq!(Dimension::temperature_geometric(300.0, 400.0, 1).len(), 1);
        assert_eq!(Dimension::salt_linear(0.1, 0.9, 1).ladder[0].scalar(), 0.1);
    }

    #[test]
    fn temperature_list_validates() {
        let d = Dimension::temperature_list(&[273.0, 301.5, 373.0]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.kind_letter(), 'T');
    }

    #[test]
    #[should_panic]
    fn temperature_list_rejects_non_increasing() {
        Dimension::temperature_list(&[300.0, 290.0]);
    }

    #[test]
    fn ph_ladder_linear() {
        let d = Dimension::ph_linear(4.0, 9.0, 6);
        assert_eq!(d.len(), 6);
        assert_eq!(d.kind_letter(), 'P');
        let vals: Vec<f64> = d.ladder.iter().map(|p| p.scalar()).collect();
        assert_eq!(vals, vec![4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert!(d.ladder[0].as_restraint().is_none());
    }

    #[test]
    fn letters() {
        assert_eq!(ExchangeParam::Temperature(300.0).letter(), 'T');
        assert_eq!(ExchangeParam::Salt(0.5).letter(), 'S');
        assert_eq!(ExchangeParam::Ph(7.0).letter(), 'P');
        assert_eq!(
            ExchangeParam::Umbrella { dihedral: "psi".into(), center_deg: 0.0, k_deg: 0.1 }
                .letter(),
            'U'
        );
    }
}
