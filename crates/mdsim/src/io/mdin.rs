//! Amber-style `mdin` control files and `DISANG` restraint files.
//!
//! RepEx's Amber AMM writes an `mdin` namelist per replica per cycle (with
//! the replica's current temperature / salt concentration) and, for umbrella
//! windows, a `DISANG` restraint file. We implement the same formats so the
//! framework's file-preparation path is exercised for real.
//!
//! Supported `&cntrl` subset: `nstlim`, `dt`, `temp0`, `gamma_ln`, `ig`,
//! `saltcon`, `cut`, `ntpr`. A `DISANG=<file>` line after the namelist
//! names the restraint file.

use std::fmt::Write as _;

/// Parsed `&cntrl` namelist.
#[derive(Debug, Clone, PartialEq)]
pub struct MdinControl {
    /// Number of MD steps.
    pub nstlim: u64,
    /// Time step in ps.
    pub dt: f64,
    /// Target temperature in K.
    pub temp0: f64,
    /// Langevin collision frequency in ps⁻¹.
    pub gamma_ln: f64,
    /// RNG seed.
    pub ig: u64,
    /// Salt concentration in mol/L.
    pub saltcon: f64,
    /// Solvent pH (Amber's constant-pH `solvph` keyword).
    pub solvph: f64,
    /// Nonbonded cutoff in Å.
    pub cut: f64,
    /// Print frequency.
    pub ntpr: u64,
    /// Restraint file referenced by `DISANG=`.
    pub disang: Option<String>,
}

impl Default for MdinControl {
    fn default() -> Self {
        MdinControl {
            nstlim: 1000,
            dt: 0.002,
            temp0: 300.0,
            gamma_ln: 5.0,
            ig: 1,
            saltcon: 0.0,
            solvph: 7.0,
            cut: 9.0,
            ntpr: 100,
            disang: None,
        }
    }
}

/// Errors from parsing the Amber-style input files.
#[derive(Debug, Clone, PartialEq)]
pub enum MdinError {
    MissingNamelist(&'static str),
    BadValue { key: String, value: String },
    Malformed(String),
}

impl std::fmt::Display for MdinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdinError::MissingNamelist(n) => write!(f, "missing &{n} namelist"),
            MdinError::BadValue { key, value } => write!(f, "bad value for {key}: {value:?}"),
            MdinError::Malformed(s) => write!(f, "malformed input: {s}"),
        }
    }
}

impl std::error::Error for MdinError {}

impl MdinControl {
    /// Render as an Amber mdin file with a title line.
    pub fn render(&self, title: &str) -> String {
        let mut s = String::with_capacity(256);
        let _ = writeln!(s, "{title}");
        let _ = writeln!(s, " &cntrl");
        let _ = writeln!(s, "  nstlim = {}, dt = {:.5},", self.nstlim, self.dt);
        let _ = writeln!(s, "  temp0 = {:.3}, gamma_ln = {:.3},", self.temp0, self.gamma_ln);
        let _ = writeln!(s, "  ig = {}, ntpr = {},", self.ig, self.ntpr);
        let _ = writeln!(
            s,
            "  saltcon = {:.4}, solvph = {:.3}, cut = {:.2},",
            self.saltcon, self.solvph, self.cut
        );
        let _ = writeln!(s, " /");
        if let Some(d) = &self.disang {
            let _ = writeln!(s, "DISANG={d}");
        }
        s
    }

    /// Parse an mdin file (title line is ignored).
    pub fn parse(text: &str) -> Result<Self, MdinError> {
        let body = extract_namelist(text, "cntrl").ok_or(MdinError::MissingNamelist("cntrl"))?;
        let kv = parse_kv(&body)?;
        let mut ctl = MdinControl::default();
        for (key, value) in &kv {
            match key.as_str() {
                "nstlim" => ctl.nstlim = parse_num(key, value)?,
                "dt" => ctl.dt = parse_float(key, value)?,
                "temp0" => ctl.temp0 = parse_float(key, value)?,
                "gamma_ln" => ctl.gamma_ln = parse_float(key, value)?,
                "ig" => ctl.ig = parse_num(key, value)?,
                "saltcon" => ctl.saltcon = parse_float(key, value)?,
                "solvph" => ctl.solvph = parse_float(key, value)?,
                "cut" => ctl.cut = parse_float(key, value)?,
                "ntpr" => ctl.ntpr = parse_num(key, value)?,
                _ => {} // unknown keys tolerated, like sander
            }
        }
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("DISANG=") {
                ctl.disang = Some(rest.trim().to_string());
            }
        }
        Ok(ctl)
    }
}

/// One `&rst` record of a DISANG file: a harmonic dihedral restraint.
#[derive(Debug, Clone, PartialEq)]
pub struct DisangRestraint {
    /// 1-based atom indices (Amber convention).
    pub iat: [u32; 4],
    /// Restraint center in degrees.
    pub r2: f64,
    /// Force constant in kcal/mol/deg².
    pub rk2: f64,
}

/// Render a DISANG file from restraint records.
pub fn render_disang(restraints: &[DisangRestraint]) -> String {
    let mut s = String::new();
    for r in restraints {
        let _ = writeln!(
            s,
            " &rst iat={},{},{},{}, r2={:.4}, rk2={:.6}, /",
            r.iat[0], r.iat[1], r.iat[2], r.iat[3], r.r2, r.rk2
        );
    }
    s
}

/// Parse a DISANG file.
pub fn parse_disang(text: &str) -> Result<Vec<DisangRestraint>, MdinError> {
    let mut out = Vec::new();
    let mut search = text;
    while let Some(start) = search.find("&rst") {
        let rest = &search[start + 4..];
        let end = rest
            .find('/')
            .ok_or_else(|| MdinError::Malformed("unterminated &rst record".into()))?;
        let body = &rest[..end];
        let kv = parse_kv(body)?;
        let mut iat = None;
        let mut r2 = None;
        let mut rk2 = None;
        for (key, value) in &kv {
            match key.as_str() {
                "iat" => {
                    let parts: Vec<u32> = value
                        .split(',')
                        .map(|p| p.trim().parse::<u32>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| MdinError::BadValue {
                            key: key.clone(),
                            value: value.clone(),
                        })?;
                    if parts.len() != 4 {
                        return Err(MdinError::BadValue { key: key.clone(), value: value.clone() });
                    }
                    iat = Some([parts[0], parts[1], parts[2], parts[3]]);
                }
                "r2" => r2 = Some(parse_float(key, value)?),
                "rk2" => rk2 = Some(parse_float(key, value)?),
                _ => {}
            }
        }
        match (iat, r2, rk2) {
            (Some(iat), Some(r2), Some(rk2)) => out.push(DisangRestraint { iat, r2, rk2 }),
            _ => return Err(MdinError::Malformed("&rst record missing iat/r2/rk2".into())),
        }
        search = &rest[end + 1..];
    }
    Ok(out)
}

/// Extract the body between `&name` and the terminating `/`.
fn extract_namelist(text: &str, name: &str) -> Option<String> {
    let tag = format!("&{name}");
    let start = text.find(&tag)? + tag.len();
    let rest = &text[start..];
    let end = rest.find('/')?;
    Some(rest[..end].to_string())
}

/// Parse `key = value` pairs separated by commas/newlines. Values containing
/// commas (like `iat=1,2,3,4`) are supported: digits following `key=` are
/// grouped until the next `key=` token.
fn parse_kv(body: &str) -> Result<Vec<(String, String)>, MdinError> {
    let mut out: Vec<(String, String)> = Vec::new();
    // Tokenize on '=' boundaries: everything before the first '=' is a key;
    // each subsequent segment holds "value[, nextkey]".
    let segments: Vec<&str> = body.split('=').collect();
    if segments.len() < 2 {
        return Ok(out);
    }
    let mut key = segments[0].trim().trim_start_matches(',').trim().to_string();
    for (i, seg) in segments[1..].iter().enumerate() {
        let is_last = i == segments.len() - 2;
        if is_last {
            out.push((normalize_key(&key)?, seg.trim().trim_end_matches(',').trim().to_string()));
        } else {
            // The trailing word of this segment is the next key.
            let seg_trim = seg.trim_end();
            let cut = seg_trim
                .rfind(|c: char| c == ',' || c.is_whitespace())
                .ok_or_else(|| MdinError::Malformed(format!("cannot split {seg_trim:?}")))?;
            let (value, next_key) = seg_trim.split_at(cut);
            out.push((normalize_key(&key)?, value.trim().trim_end_matches(',').trim().to_string()));
            key = next_key.trim_start_matches(|c: char| c == ',' || c.is_whitespace()).to_string();
        }
    }
    Ok(out)
}

fn normalize_key(key: &str) -> Result<String, MdinError> {
    let k = key.trim().to_ascii_lowercase();
    if k.is_empty() || !k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(MdinError::Malformed(format!("bad key {key:?}")));
    }
    Ok(k)
}

fn parse_num(key: &str, value: &str) -> Result<u64, MdinError> {
    super::parse_u64(value)
        .ok_or_else(|| MdinError::BadValue { key: key.to_string(), value: value.to_string() })
}

fn parse_float(key: &str, value: &str) -> Result<f64, MdinError> {
    value
        .trim()
        .parse::<f64>()
        .map_err(|_| MdinError::BadValue { key: key.to_string(), value: value.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mdin() {
        let ctl = MdinControl {
            nstlim: 6000,
            dt: 0.002,
            temp0: 329.0,
            gamma_ln: 5.0,
            ig: u64::MAX - 1, // every bit of a 64-bit seed survives
            saltcon: 0.5,
            solvph: 5.5,
            cut: 9.0,
            ntpr: 500,
            disang: Some("replica_12.RST".into()),
        };
        let text = ctl.render("U-REMD cycle 4 replica 12");
        let back = MdinControl::parse(&text).unwrap();
        assert_eq!(back, ctl);
    }

    #[test]
    fn parse_handcrafted_mdin() {
        let text = "\
production
 &cntrl
  nstlim = 20000, dt = 0.002,
  temp0 = 273.0,
  gamma_ln = 2.0, ig = 42, saltcon = 0.15, cut = 10.0, ntpr = 1000,
 /
";
        let ctl = MdinControl::parse(text).unwrap();
        assert_eq!(ctl.nstlim, 20000);
        assert_eq!(ctl.temp0, 273.0);
        assert_eq!(ctl.saltcon, 0.15);
        assert_eq!(ctl.disang, None);
    }

    #[test]
    fn missing_namelist_is_error() {
        assert_eq!(MdinControl::parse("just a title\n"), Err(MdinError::MissingNamelist("cntrl")));
    }

    #[test]
    fn bad_value_is_error() {
        let text = " &cntrl\n nstlim = banana,\n /";
        assert!(matches!(MdinControl::parse(text), Err(MdinError::BadValue { .. })));
    }

    #[test]
    fn integer_fields_accept_an_integral_float_spelling_only() {
        let ctl = MdinControl::parse(" &cntrl\n nstlim = 1000.0, ntpr = 5e2, ig = 7,\n /").unwrap();
        assert_eq!((ctl.nstlim, ctl.ntpr, ctl.ig), (1000, 500, 7));
        for bad in ["10.5", "-1", "1e30", "nan"] {
            let text = format!(" &cntrl\n nstlim = {bad},\n /");
            assert!(matches!(MdinControl::parse(&text), Err(MdinError::BadValue { .. })), "{bad}");
        }
    }

    #[test]
    fn unknown_keys_tolerated() {
        let text = " &cntrl\n ntx = 5, irest = 1, nstlim = 10,\n /";
        let ctl = MdinControl::parse(text).unwrap();
        assert_eq!(ctl.nstlim, 10);
    }

    #[test]
    fn disang_roundtrip() {
        let rs = vec![
            DisangRestraint { iat: [2, 3, 4, 5], r2: 60.0, rk2: 0.02 },
            DisangRestraint { iat: [3, 4, 5, 6], r2: -135.0, rk2: 0.02 },
        ];
        let text = render_disang(&rs);
        let back = parse_disang(&text).unwrap();
        assert_eq!(back, rs);
    }

    #[test]
    fn disang_rejects_incomplete_record() {
        assert!(parse_disang(" &rst iat=1,2,3,4, /").is_err());
        assert!(parse_disang(" &rst r2=10.0, rk2=0.1").is_err()); // unterminated
    }

    #[test]
    fn disang_empty_input() {
        assert_eq!(parse_disang("").unwrap(), vec![]);
    }
}
