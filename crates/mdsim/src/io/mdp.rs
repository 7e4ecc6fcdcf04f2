//! GROMACS-style `.mdp` run-parameter files.
//!
//! A third genuinely different input format (`key = value` with `;`
//! comments), for the GROMACS engine family. Supported subset mirrors what
//! the REMD workflow needs: `integrator` (must be `sd`, GROMACS's Langevin),
//! `nsteps`, `dt` (ps), `ref-t`, `tau-t` (ps; friction = 1/tau), `ld-seed`,
//! `rcoulomb`. Extensions (documented as such): `salt-concentration`,
//! `solvent-ph`, and `dihres = <name> <center_deg> <k>` lines standing in
//! for GROMACS's dihedral-restraint `.itp` sections.

use std::fmt::Write as _;

/// Parsed `.mdp` parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MdpConfig {
    pub nsteps: u64,
    /// Time step in ps (GROMACS convention).
    pub dt: f64,
    /// Reference temperature in K.
    pub ref_t: f64,
    /// Temperature-coupling time constant in ps (friction = 1/tau_t).
    pub tau_t: f64,
    pub ld_seed: u64,
    /// Coulomb cutoff in nm (GROMACS uses nanometres!).
    pub rcoulomb_nm: f64,
    pub salt_concentration: f64,
    pub solvent_ph: f64,
    /// Dihedral restraints: (name, center deg, k kcal/mol/deg²).
    pub dihres: Vec<(String, f64, f64)>,
}

impl Default for MdpConfig {
    fn default() -> Self {
        MdpConfig {
            nsteps: 1000,
            dt: 0.002,
            ref_t: 300.0,
            tau_t: 0.2,
            ld_seed: 1,
            rcoulomb_nm: 0.9,
            salt_concentration: 0.0,
            solvent_ph: 7.0,
            dihres: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MdpError(pub String);

impl std::fmt::Display for MdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mdp error: {}", self.0)
    }
}

impl std::error::Error for MdpError {}

impl MdpConfig {
    /// Langevin friction in ps⁻¹ (GROMACS sd: gamma = 1/tau_t).
    pub fn gamma_ps(&self) -> f64 {
        1.0 / self.tau_t
    }

    /// Coulomb cutoff in Å (internal convention).
    pub fn rcoulomb_angstrom(&self) -> f64 {
        self.rcoulomb_nm * 10.0
    }

    pub fn render(&self) -> String {
        let mut s = String::with_capacity(360);
        let _ = writeln!(s, "; GROMACS run parameters (generated)");
        let _ = writeln!(s, "integrator          = sd");
        let _ = writeln!(s, "nsteps              = {}", self.nsteps);
        let _ = writeln!(s, "dt                  = {}", self.dt);
        let _ = writeln!(s, "ref-t               = {}", self.ref_t);
        let _ = writeln!(s, "tau-t               = {}", self.tau_t);
        let _ = writeln!(s, "ld-seed             = {}", self.ld_seed);
        let _ = writeln!(s, "rcoulomb            = {}", self.rcoulomb_nm);
        let _ = writeln!(s, "; repex extensions below");
        let _ = writeln!(s, "salt-concentration  = {}", self.salt_concentration);
        let _ = writeln!(s, "solvent-ph          = {}", self.solvent_ph);
        for (name, center, k) in &self.dihres {
            let _ = writeln!(s, "dihres              = {name} {center} {k}");
        }
        s
    }

    pub fn parse(text: &str) -> Result<Self, MdpError> {
        let mut cfg = MdpConfig::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split(';').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| MdpError(format!("line {}: expected key = value", lineno + 1)))?;
            let key = key.trim().to_ascii_lowercase().replace('_', "-");
            let value = value.trim();
            let bad = |v: &str| MdpError(format!("line {}: bad number {v:?}", lineno + 1));
            let parse_f = |v: &str| v.parse::<f64>().map_err(|_| bad(v));
            let parse_u = |v: &str| super::parse_u64(v).ok_or_else(|| bad(v));
            match key.as_str() {
                "integrator" => {
                    if value != "sd" {
                        return Err(MdpError(format!(
                            "line {}: only the sd (Langevin) integrator is supported, got {value:?}",
                            lineno + 1
                        )));
                    }
                }
                "nsteps" => cfg.nsteps = parse_u(value)?,
                "dt" => cfg.dt = parse_f(value)?,
                "ref-t" => cfg.ref_t = parse_f(value)?,
                "tau-t" => cfg.tau_t = parse_f(value)?,
                "ld-seed" => cfg.ld_seed = parse_u(value)?,
                "rcoulomb" => cfg.rcoulomb_nm = parse_f(value)?,
                "salt-concentration" => cfg.salt_concentration = parse_f(value)?,
                "solvent-ph" => cfg.solvent_ph = parse_f(value)?,
                "dihres" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    if parts.len() != 3 {
                        return Err(MdpError(format!(
                            "line {}: dihres expects <name> <center> <k>",
                            lineno + 1
                        )));
                    }
                    cfg.dihres.push((parts[0].to_string(), parse_f(parts[1])?, parse_f(parts[2])?));
                }
                other => {
                    return Err(MdpError(format!("line {}: unknown key {other:?}", lineno + 1)))
                }
            }
        }
        if cfg.tau_t <= 0.0 {
            return Err(MdpError("tau-t must be positive".into()));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let cfg = MdpConfig {
            nsteps: 6000,
            dt: 0.002,
            ref_t: 329.0,
            tau_t: 0.5,
            ld_seed: u64::MAX - 1, // every bit of a 64-bit seed survives
            rcoulomb_nm: 1.0,
            salt_concentration: 0.15,
            solvent_ph: 6.0,
            dihres: vec![("phi".into(), 60.0, 0.02)],
        };
        let back = MdpConfig::parse(&cfg.render()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn units_are_gromacs_flavoured() {
        let cfg = MdpConfig::parse("tau-t = 0.5\nrcoulomb = 0.9\n").unwrap();
        assert!((cfg.gamma_ps() - 2.0).abs() < 1e-12, "gamma = 1/tau");
        assert!((cfg.rcoulomb_angstrom() - 9.0).abs() < 1e-12, "nm -> A");
    }

    #[test]
    fn comments_and_underscores() {
        let text = "; a comment\nref_t = 310 ; inline\nnsteps = 42\n";
        let cfg = MdpConfig::parse(text).unwrap();
        assert_eq!(cfg.ref_t, 310.0);
        assert_eq!(cfg.nsteps, 42);
    }

    #[test]
    fn rejects_non_sd_integrator() {
        assert!(MdpConfig::parse("integrator = md\n").is_err());
        assert!(MdpConfig::parse("integrator = sd\n").is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(MdpConfig::parse("nsteps 1000\n").is_err(), "missing =");
        assert!(MdpConfig::parse("nsteps = banana\n").is_err());
        assert!(MdpConfig::parse("pme-order = 4\n").is_err(), "unknown key");
        assert!(MdpConfig::parse("dihres = phi 60\n").is_err(), "arity");
        assert!(MdpConfig::parse("tau-t = 0\n").is_err());
    }
}
