//! NAMD-style configuration files.
//!
//! NAMD uses a Tcl-flavoured `keyword value` format rather than Fortran
//! namelists; keeping the two engine input formats genuinely different is
//! part of what the paper's AMM abstraction is for. Supported subset:
//! `numsteps`, `timestep` (fs!), `temperature`, `langevinDamping`, `seed`,
//! `cutoff`, `saltConcentration`, `outputEnergies`, plus `colvars`-style
//! harmonic dihedral restraint blocks.

use std::fmt::Write as _;

/// Parsed NAMD configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NamdConfig {
    pub numsteps: u64,
    /// Time step in femtoseconds (NAMD convention).
    pub timestep_fs: f64,
    pub temperature: f64,
    /// Langevin damping coefficient in ps⁻¹.
    pub langevin_damping: f64,
    pub seed: u64,
    pub cutoff: f64,
    pub salt_concentration: f64,
    /// Solvent pH (our constant-pH extension keyword `solventPH`).
    pub solvent_ph: f64,
    pub output_energies: u64,
    /// Harmonic dihedral restraints: (dihedral name, center deg, k).
    pub restraints: Vec<(String, f64, f64)>,
}

impl Default for NamdConfig {
    fn default() -> Self {
        NamdConfig {
            numsteps: 1000,
            timestep_fs: 2.0,
            temperature: 300.0,
            langevin_damping: 5.0,
            seed: 1,
            cutoff: 9.0,
            salt_concentration: 0.0,
            solvent_ph: 7.0,
            output_energies: 100,
            restraints: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct NamdConfError(pub String);

impl std::fmt::Display for NamdConfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "namd config error: {}", self.0)
    }
}

impl std::error::Error for NamdConfError {}

impl NamdConfig {
    /// Time step in ps (internal convention).
    pub fn dt_ps(&self) -> f64 {
        self.timestep_fs * 1e-3
    }

    pub fn render(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = writeln!(s, "# NAMD configuration (generated)");
        let _ = writeln!(s, "numsteps            {}", self.numsteps);
        let _ = writeln!(s, "timestep            {}", self.timestep_fs);
        let _ = writeln!(s, "temperature         {}", self.temperature);
        let _ = writeln!(s, "langevinDamping     {}", self.langevin_damping);
        let _ = writeln!(s, "seed                {}", self.seed);
        let _ = writeln!(s, "cutoff              {}", self.cutoff);
        let _ = writeln!(s, "saltConcentration   {}", self.salt_concentration);
        let _ = writeln!(s, "solventPH           {}", self.solvent_ph);
        let _ = writeln!(s, "outputEnergies      {}", self.output_energies);
        for (name, center, k) in &self.restraints {
            let _ = writeln!(s, "harmonicDihedral    {name} {center} {k}");
        }
        s
    }

    pub fn parse(text: &str) -> Result<Self, NamdConfError> {
        let mut cfg = NamdConfig::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let Some(first) = parts.next() else { continue };
            let key = first.to_ascii_lowercase();
            let rest: Vec<&str> = parts.collect();
            let one = || match rest[..] {
                [value] => Ok(value),
                _ => Err(NamdConfError(format!("line {}: {key} expects 1 value", lineno + 1))),
            };
            let bad = |v: &str| NamdConfError(format!("line {}: bad number {v:?}", lineno + 1));
            let parse_f = |v: &str| v.parse::<f64>().map_err(|_| bad(v));
            let parse_u = |v: &str| super::parse_u64(v).ok_or_else(|| bad(v));
            match key.as_str() {
                "numsteps" => cfg.numsteps = parse_u(one()?)?,
                "timestep" => cfg.timestep_fs = parse_f(one()?)?,
                "temperature" => cfg.temperature = parse_f(one()?)?,
                "langevindamping" => cfg.langevin_damping = parse_f(one()?)?,
                "seed" => cfg.seed = parse_u(one()?)?,
                "cutoff" => cfg.cutoff = parse_f(one()?)?,
                "saltconcentration" => cfg.salt_concentration = parse_f(one()?)?,
                "solventph" => cfg.solvent_ph = parse_f(one()?)?,
                "outputenergies" => cfg.output_energies = parse_u(one()?)?,
                "harmonicdihedral" => {
                    if rest.len() != 3 {
                        return Err(NamdConfError(format!(
                            "line {}: harmonicDihedral expects <name> <center> <k>",
                            lineno + 1
                        )));
                    }
                    cfg.restraints.push((
                        rest[0].to_string(),
                        parse_f(rest[1])?,
                        parse_f(rest[2])?,
                    ));
                }
                other => {
                    return Err(NamdConfError(format!(
                        "line {}: unknown keyword {other:?}",
                        lineno + 1
                    )))
                }
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let cfg = NamdConfig {
            numsteps: 4000,
            timestep_fs: 2.0,
            temperature: 350.0,
            langevin_damping: 5.0,
            seed: u64::MAX - 1, // every bit of a 64-bit seed survives
            cutoff: 10.0,
            salt_concentration: 0.15,
            solvent_ph: 6.2,
            output_energies: 500,
            restraints: vec![("phi".into(), 60.0, 0.02), ("psi".into(), -120.0, 0.02)],
        };
        let back = NamdConfig::parse(&cfg.render()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# full-line comment\nnumsteps 10 # trailing comment\n\ntemperature 273\n";
        let cfg = NamdConfig::parse(text).unwrap();
        assert_eq!(cfg.numsteps, 10);
        assert_eq!(cfg.temperature, 273.0);
    }

    #[test]
    fn unknown_keyword_is_error() {
        assert!(NamdConfig::parse("pmegridspacing 1.0\n").is_err());
    }

    #[test]
    fn wrong_arity_is_error() {
        assert!(NamdConfig::parse("numsteps 1 2\n").is_err());
        assert!(NamdConfig::parse("harmonicDihedral phi 60.0\n").is_err());
    }

    #[test]
    fn timestep_units_are_femtoseconds() {
        let cfg = NamdConfig::parse("timestep 2.0\n").unwrap();
        assert!((cfg.dt_ps() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn case_insensitive_keywords() {
        let cfg = NamdConfig::parse("LangevinDamping 3.0\nCUTOFF 8.0\n").unwrap();
        assert_eq!(cfg.langevin_damping, 3.0);
        assert_eq!(cfg.cutoff, 8.0);
    }
}
