//! Amber-style `mdinfo` energy summaries.
//!
//! The paper's exchange phase stages each replica's `.mdinfo` file to a
//! shared staging area; the exchange calculators parse energies out of them.
//! Our RAM does exactly the same with this format.

use super::{parse_u64, push_fixed};
use crate::forcefield::EnergyBreakdown;
use std::fmt::Write as _;

/// Parsed energy record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdInfo {
    pub nstep: u64,
    pub time_ps: f64,
    pub temperature: f64,
    pub etot: f64,
    pub ektot: f64,
    pub eptot: f64,
    pub bond: f64,
    pub angle: f64,
    pub dihed: f64,
    pub vdwaals: f64,
    pub eel: f64,
    pub restraint: f64,
}

impl MdInfo {
    pub fn from_breakdown(
        nstep: u64,
        time_ps: f64,
        temperature: f64,
        kinetic: f64,
        e: &EnergyBreakdown,
    ) -> Self {
        MdInfo {
            nstep,
            time_ps,
            temperature,
            etot: e.total() + kinetic,
            ektot: kinetic,
            eptot: e.total(),
            bond: e.bond,
            angle: e.angle,
            dihed: e.torsion,
            vdwaals: e.lj,
            eel: e.coulomb,
            restraint: e.restraint,
        }
    }

    /// Potential energy without the restraint term (used by T-exchange).
    pub fn physical_potential(&self) -> f64 {
        self.eptot - self.restraint
    }

    pub fn render(&self) -> String {
        let mut s = String::with_capacity(320);
        let _ = write!(s, " NSTEP = {:>10}   TIME(PS) = ", self.nstep);
        push_fixed(&mut s, self.time_ps, 12, 3);
        s.push_str("  TEMP(K) = ");
        push_fixed(&mut s, self.temperature, 8, 2);
        for (label, energy) in [
            ("\n Etot   = ", self.etot),
            ("  EKtot   = ", self.ektot),
            ("  EPtot      = ", self.eptot),
            ("\n BOND   = ", self.bond),
            ("  ANGLE   = ", self.angle),
            ("  DIHED      = ", self.dihed),
            ("\n VDWAALS= ", self.vdwaals),
            ("  EEL     = ", self.eel),
            ("  RESTRAINT  = ", self.restraint),
        ] {
            s.push_str(label);
            push_fixed(&mut s, energy, 14, 4);
        }
        s.push('\n');
        s
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut ahead = text;
        let nstep = field(text, &mut ahead, "NSTEP")?;
        let nstep = parse_u64(nstep).ok_or_else(|| format!("bad value for NSTEP: {nstep:?}"))?;
        let mut grab = |key: &str| -> Result<f64, String> {
            field(text, &mut ahead, key)?
                .parse::<f64>()
                .map_err(|e| format!("bad value for {key}: {e}"))
        };
        Ok(MdInfo {
            nstep,
            time_ps: grab("TIME(PS)")?,
            temperature: grab("TEMP(K)")?,
            etot: grab("Etot")?,
            ektot: grab("EKtot")?,
            eptot: grab("EPtot")?,
            bond: grab("BOND")?,
            angle: grab("ANGLE")?,
            dihed: grab("DIHED")?,
            vdwaals: grab("VDWAALS")?,
            eel: grab("EEL")?,
            restraint: grab("RESTRAINT")?,
        })
    }
}

/// The token after `key` and the next '='. `render` writes the fields in the
/// order `parse` asks for them, so `key` is normally the next word `ahead`;
/// in any other layout it is searched for from the top of `text`.
fn field<'a>(text: &'a str, ahead: &mut &'a str, key: &str) -> Result<&'a str, String> {
    let after_key = match ahead.trim_start().strip_prefix(key) {
        Some(rest) => rest,
        None => &text[text.find(key).ok_or_else(|| format!("missing field {key}"))? + key.len()..],
    };
    let eq = after_key.find('=').ok_or_else(|| format!("missing '=' after {key}"))?;
    let value = after_key[eq + 1..].trim_start();
    let (token, rest) = value.split_at(value.find(char::is_whitespace).unwrap_or(value.len()));
    *ahead = rest;
    (!token.is_empty()).then_some(token).ok_or_else(|| format!("missing value for {key}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MdInfo {
        let e = EnergyBreakdown {
            bond: 12.5,
            angle: 8.25,
            torsion: 4.0,
            lj: -35.75,
            coulomb: -120.0,
            restraint: 2.5,
        };
        MdInfo::from_breakdown(6000, 12.0, 297.31, 55.5, &e)
    }

    #[test]
    fn roundtrip() {
        let info = sample();
        let back = MdInfo::parse(&info.render()).unwrap();
        assert_eq!(back.nstep, 6000);
        assert!((back.eptot - info.eptot).abs() < 1e-3);
        assert!((back.restraint - 2.5).abs() < 1e-3);
        assert!((back.temperature - 297.31).abs() < 1e-2);
    }

    #[test]
    fn totals_are_consistent() {
        let info = sample();
        assert!((info.etot - (info.ektot + info.eptot)).abs() < 1e-9);
        let parts = info.bond + info.angle + info.dihed + info.vdwaals + info.eel + info.restraint;
        assert!((info.eptot - parts).abs() < 1e-9);
        assert!((info.physical_potential() - (info.eptot - info.restraint)).abs() < 1e-12);
    }

    /// `render` as it was written through `core::fmt`: the oracle.
    fn render_oracle(info: &MdInfo) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            " NSTEP = {:>10}   TIME(PS) = {:>12.3}  TEMP(K) = {:>8.2}",
            info.nstep, info.time_ps, info.temperature
        );
        let _ = writeln!(
            s,
            " Etot   = {:>14.4}  EKtot   = {:>14.4}  EPtot      = {:>14.4}",
            info.etot, info.ektot, info.eptot
        );
        let _ = writeln!(
            s,
            " BOND   = {:>14.4}  ANGLE   = {:>14.4}  DIHED      = {:>14.4}",
            info.bond, info.angle, info.dihed
        );
        let _ = writeln!(
            s,
            " VDWAALS= {:>14.4}  EEL     = {:>14.4}  RESTRAINT  = {:>14.4}",
            info.vdwaals, info.eel, info.restraint
        );
        s
    }

    #[test]
    fn render_is_byte_equal_to_the_core_fmt_oracle() {
        assert_eq!(sample().render(), render_oracle(&sample()));
        rng::check(2000, |r| {
            // Energies of any size a field can meet, overflowing its width
            // included; multiples of 1/32 are exact ties at four places.
            let mut energy = || match r.below(3) {
                0 => r.normal() * 10f64.powi(r.range(-6..12)),
                1 => r.range(-4000i64..4000) as f64 / 32.0,
                _ => 0.0,
            };
            let e = EnergyBreakdown {
                bond: energy(),
                angle: energy(),
                torsion: energy(),
                lj: energy(),
                coulomb: energy(),
                restraint: energy(),
            };
            let (time, temperature, kinetic) = (energy().abs(), energy().abs(), energy().abs());
            let info =
                MdInfo::from_breakdown(r.next_u64() >> r.below(64), time, temperature, kinetic, &e);
            assert_eq!(info.render(), render_oracle(&info));
        });
    }

    #[test]
    fn nstep_is_parsed_as_an_integer() {
        let with = |nstep: &str| sample().render().replace("      6000", nstep);
        assert_eq!(MdInfo::parse(&with("6000")).unwrap().nstep, 6000);
        assert_eq!(MdInfo::parse(&with("6000.0")).unwrap().nstep, 6000);
        let big = u64::MAX - 1; // above 2^53: every bit survives
        let info = MdInfo { nstep: big, ..sample() };
        assert_eq!(MdInfo::parse(&info.render()).unwrap().nstep, big);
        for bad in ["-5", "nan", "1e30", "10.5"] {
            let err = MdInfo::parse(&with(bad)).unwrap_err();
            assert!(err.contains("NSTEP") && err.contains(bad), "{bad}: {err}");
        }
    }

    /// The forward pass is an optimisation for the layout `render` writes,
    /// not a requirement on the file: any order of lines or of fields parses
    /// to the same record.
    #[test]
    fn field_order_does_not_matter() {
        let info = MdInfo::parse(&sample().render()).unwrap();
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        for order in [[3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1], [0, 2, 1, 3]] {
            let permuted: String = order.iter().map(|&i| format!("{}\n", lines[i])).collect();
            assert_eq!(MdInfo::parse(&permuted), Ok(info), "{order:?}");
        }
        let totals = [" Etot   = 1.5", "  EKtot   = 2.5", "  EPtot      = 3.5"];
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let line: String = order.iter().map(|&i| totals[i]).collect();
            let text = format!("{}\n{line}\n{}\n{}\n", lines[0], lines[2], lines[3]);
            let back = MdInfo::parse(&text).unwrap();
            assert_eq!((back.etot, back.ektot, back.eptot), (1.5, 2.5, 3.5), "{order:?}");
            assert_eq!(
                MdInfo { etot: info.etot, ektot: info.ektot, eptot: info.eptot, ..back },
                info
            );
        }
        // Nothing aligned, the value on another line than its key.
        let text = "RESTRAINT=12\nEEL =\n -11\nNSTEP = 1\nTIME(PS)=2 TEMP(K)=3 Etot=4 \
                    EKtot=5 EPtot=6\nDIHED=9 ANGLE=8 BOND=7 VDWAALS=10\n";
        let back = MdInfo::parse(text).unwrap();
        let fields = [
            back.time_ps,
            back.temperature,
            back.etot,
            back.ektot,
            back.eptot,
            back.bond,
            back.angle,
            back.dihed,
            back.vdwaals,
            -back.eel,
            back.restraint,
        ];
        assert_eq!(back.nstep, 1);
        assert_eq!(fields, [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn missing_field_is_error() {
        for key in ["NSTEP", "TIME(PS)", "Etot", "EKtot", "DIHED", "EEL", "RESTRAINT"] {
            let err = MdInfo::parse(&sample().render().replace(key, "XXX")).unwrap_err();
            assert_eq!(err, format!("missing field {key}"));
        }
        let cut = sample().render();
        let err = MdInfo::parse(cut.trim_end().rsplit_once(' ').unwrap().0).unwrap_err();
        assert_eq!(err, "missing value for RESTRAINT");
        assert_eq!(MdInfo::parse(" NSTEP 5").unwrap_err(), "missing '=' after NSTEP");
    }

    #[test]
    fn parse_negative_energies() {
        let info = sample();
        let back = MdInfo::parse(&info.render()).unwrap();
        assert!(back.eel < 0.0);
        assert!(back.vdwaals < 0.0);
    }
}
