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

use super::push_fixed;
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
        let _ = write!(s, "{title}\n &cntrl\n  nstlim = {}, dt = ", self.nstlim);
        push_fixed(&mut s, self.dt, 0, 5);
        s.push_str(",\n  temp0 = ");
        push_fixed(&mut s, self.temp0, 0, 3);
        s.push_str(", gamma_ln = ");
        push_fixed(&mut s, self.gamma_ln, 0, 3);
        let _ = write!(s, ",\n  ig = {}, ntpr = {},\n  saltcon = ", self.ig, self.ntpr);
        push_fixed(&mut s, self.saltcon, 0, 4);
        s.push_str(", solvph = ");
        push_fixed(&mut s, self.solvph, 0, 3);
        s.push_str(", cut = ");
        push_fixed(&mut s, self.cut, 0, 2);
        s.push_str(",\n /\n");
        if let Some(d) = &self.disang {
            let _ = writeln!(s, "DISANG={d}");
        }
        s
    }

    /// Parse an mdin file (title line is ignored).
    pub fn parse(text: &str) -> Result<Self, MdinError> {
        let body = extract_namelist(text, "&cntrl").ok_or(MdinError::MissingNamelist("cntrl"))?;
        let mut ctl = MdinControl::default();
        let mut ints = [("nstlim", &mut ctl.nstlim), ("ig", &mut ctl.ig), ("ntpr", &mut ctl.ntpr)];
        let mut floats = [
            ("dt", &mut ctl.dt),
            ("temp0", &mut ctl.temp0),
            ("gamma_ln", &mut ctl.gamma_ln),
            ("saltcon", &mut ctl.saltcon),
            ("solvph", &mut ctl.solvph),
            ("cut", &mut ctl.cut),
        ];
        for pair in parse_kv(body) {
            let (key, value) = pair?;
            // Unknown keys are tolerated, like sander.
            if let Some((name, field)) = ints.iter_mut().find(|(n, _)| key.eq_ignore_ascii_case(n))
            {
                **field = parse_num(name, value)?;
            } else if let Some((name, field)) =
                floats.iter_mut().find(|(n, _)| key.eq_ignore_ascii_case(n))
            {
                **field = parse_float(name, value)?;
            }
        }
        for line in text.lines() {
            if let Some(rest) = line.trim().strip_prefix("DISANG=") {
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
    let mut s = String::with_capacity(64 * restraints.len());
    for r in restraints {
        let [a, b, c, d] = r.iat;
        let _ = write!(s, " &rst iat={a},{b},{c},{d}, r2=");
        push_fixed(&mut s, r.r2, 0, 4);
        s.push_str(", rk2=");
        push_fixed(&mut s, r.rk2, 0, 6);
        s.push_str(", /\n");
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
        let (mut iat, mut r2, mut rk2) = (None, None, None);
        for pair in parse_kv(&rest[..end]) {
            let (key, value) = pair?;
            if key.eq_ignore_ascii_case("iat") {
                let bad = || MdinError::BadValue { key: "iat".into(), value: value.into() };
                let atoms: Result<Vec<u32>, _> =
                    value.split(',').map(|p| p.trim().parse()).collect();
                iat = Some(atoms.ok().and_then(|four| four.try_into().ok()).ok_or_else(bad)?);
            } else if key.eq_ignore_ascii_case("r2") {
                r2 = Some(parse_float("r2", value)?);
            } else if key.eq_ignore_ascii_case("rk2") {
                rk2 = Some(parse_float("rk2", value)?);
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

/// The body between `tag` (`&name`) and the terminating `/`.
fn extract_namelist<'a>(text: &'a str, tag: &str) -> Option<&'a str> {
    let rest = &text[text.find(tag)? + tag.len()..];
    Some(&rest[..rest.find('/')?])
}

/// The `key = value` pairs of a namelist body, separated by commas or
/// newlines, borrowed from it in file order. A value may contain commas
/// (`iat=1,2,3,4`): it runs up to the word before the next `=`.
fn parse_kv(body: &str) -> impl Iterator<Item = Result<(&str, &str), MdinError>> {
    let separator = |c: char| c == ',' || c.is_whitespace();
    // Everything before the first '=' is a key; each later segment holds
    // "value[, nextkey]".
    let mut segments = body.split('=').peekable();
    let mut key = segments.next().unwrap_or("").trim().trim_start_matches(',').trim();
    std::iter::from_fn(move || {
        let mut value = segments.next()?;
        let this = key;
        if segments.peek().is_some() {
            // The trailing word of this segment is the next key.
            value = value.trim_end();
            let Some(cut) = value.rfind(separator) else {
                return Some(Err(MdinError::Malformed(format!("cannot split {value:?}"))));
            };
            key = value[cut..].trim_start_matches(separator);
            value = &value[..cut];
        }
        if this.is_empty() || !this.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Some(Err(MdinError::Malformed(format!("bad key {this:?}"))));
        }
        Some(Ok((this, value.trim().trim_end_matches(',').trim())))
    })
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

    /// `MdinControl::render` and `render_disang` as they were written
    /// through `core::fmt`: the oracles.
    fn render_oracle(ctl: &MdinControl, title: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{title}");
        let _ = writeln!(s, " &cntrl");
        let _ = writeln!(s, "  nstlim = {}, dt = {:.5},", ctl.nstlim, ctl.dt);
        let _ = writeln!(s, "  temp0 = {:.3}, gamma_ln = {:.3},", ctl.temp0, ctl.gamma_ln);
        let _ = writeln!(s, "  ig = {}, ntpr = {},", ctl.ig, ctl.ntpr);
        let _ = writeln!(
            s,
            "  saltcon = {:.4}, solvph = {:.3}, cut = {:.2},",
            ctl.saltcon, ctl.solvph, ctl.cut
        );
        let _ = writeln!(s, " /");
        if let Some(d) = &ctl.disang {
            let _ = writeln!(s, "DISANG={d}");
        }
        s
    }

    fn render_disang_oracle(restraints: &[DisangRestraint]) -> String {
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

    #[test]
    fn renders_are_byte_equal_to_the_core_fmt_oracles() {
        // A ladder value, a short decimal (ties at the shorter fields), or
        // anything at all.
        fn value(r: &mut rng::Rng) -> f64 {
            match r.below(3) {
                0 => r.range(0.0..500.0),
                1 => r.range(0i64..1 << 20) as f64 / 1024.0,
                _ => r.normal() * 10f64.powi(r.range(-8..10)),
            }
        }
        rng::check(2000, |r| {
            let ctl = MdinControl {
                dt: value(r),
                temp0: value(r),
                gamma_ln: value(r),
                saltcon: value(r),
                solvph: value(r),
                cut: value(r),
                nstlim: r.next_u64() >> r.below(64),
                ig: r.next_u64(),
                ntpr: r.below(10_000),
                disang: (r.below(2) == 0)
                    .then(|| format!("r{:05}_c{:04}.RST", r.below(7000), r.below(20))),
            };
            assert_eq!(ctl.render("replica 3 cycle 9"), render_oracle(&ctl, "replica 3 cycle 9"));
            let restraints: Vec<DisangRestraint> = (0..r.below(4))
                .map(|_| DisangRestraint {
                    iat: [(); 4].map(|()| r.range(0u32..100_000)),
                    r2: r.range(-180.0..180.0),
                    rk2: value(r),
                })
                .collect();
            assert_eq!(render_disang(&restraints), render_disang_oracle(&restraints));
        });
    }

    /// The borrowing `parse_kv`: what it yields for the bodies both namelists
    /// meet, and the two ways it fails.
    #[test]
    fn parse_kv_borrows_keys_and_values_in_file_order() {
        let pairs = |body| parse_kv(body).collect::<Result<Vec<_>, _>>();
        assert_eq!(
            pairs("\n  NstLim = 10, dt=0.002,\n ig = 7 ntpr=1,,\n"),
            Ok(vec![("NstLim", "10"), ("dt", "0.002"), ("ig", "7"), ("ntpr", "1")])
        );
        assert_eq!(
            pairs(" iat=3,4,5,6, r2=-120.0000, rk2=0.020000, "),
            Ok(vec![("iat", "3,4,5,6"), ("r2", "-120.0000"), ("rk2", "0.020000")])
        );
        assert_eq!(pairs(", cut = 9.0"), Ok(vec![("cut", "9.0")]));
        assert_eq!(pairs(""), Ok(vec![]));
        assert_eq!(pairs("no pairs here"), Ok(vec![]));
        assert_eq!(pairs("a = 1, b c = 2"), Ok(vec![("a", "1, b"), ("c", "2")]));
        assert_eq!(pairs("a==1"), Err(MdinError::Malformed("cannot split \"\"".into())));
        assert_eq!(pairs("temp-0 = 1"), Err(MdinError::Malformed("bad key \"temp-0\"".into())));
        assert_eq!(pairs(" = 1"), Err(MdinError::Malformed("bad key \"\"".into())));
        // Keys match whatever their case; the error names the key as the
        // parser knows it.
        let ctl = MdinControl::parse(" &cntrl NSTLIM = 5, Temp0 = 310.0, /").unwrap();
        assert_eq!((ctl.nstlim, ctl.temp0), (5, 310.0));
        assert_eq!(
            MdinControl::parse(" &cntrl TEMP0 = hot, /"),
            Err(MdinError::BadValue { key: "temp0".into(), value: "hot".into() })
        );
        assert_eq!(
            parse_disang(" &rst IAT=1,2,3, R2=0, RK2=1, /"),
            Err(MdinError::BadValue { key: "iat".into(), value: "1,2,3".into() })
        );
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
