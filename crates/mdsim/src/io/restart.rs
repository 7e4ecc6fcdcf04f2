//! Amber-style restart files (`.rst7`, formatted).
//!
//! Format: a title line; a header line with the atom count, the simulation
//! time in ps, the integrator step and a campaign cycle counter; coordinates
//! (6 fixed-width scientific fields per line); velocities in the same
//! layout. Two deliberate departures from Amber's rst7: floats are written
//! with 17 significant digits, which round-trips every finite `f64` exactly
//! (campaign checkpoints serialize replica microstates through this format,
//! and a resumed run must continue bit-for-bit), and the header carries the
//! step/cycle counters that the classic format drops (readers accept old
//! two-field headers, parsing step = cycle = 0). A segment stages one for
//! whoever inspects the staging area (tests, a user): the campaign continues
//! from the in-memory `System`, and `checkpoint.rs` renders its own from it.

use crate::system::State;
use crate::vec3::Vec3;
use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct RestartError(pub String);

impl std::fmt::Display for RestartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "restart file error: {}", self.0)
    }
}

impl std::error::Error for RestartError {}

/// Serialize a [`State`] to restart-file text (cycle recorded as 0).
pub fn write_restart(title: &str, state: &State) -> String {
    write_restart_with_cycle(title, state, 0)
}

/// Serialize a [`State`] to restart-file text, recording a campaign cycle
/// number (the replica's completed-segment count) alongside the step.
pub fn write_restart_with_cycle(title: &str, state: &State, cycle: u64) -> String {
    let n = state.n_atoms();
    let mut s = String::with_capacity(64 + n * 160);
    let _ = writeln!(s, "{title}");
    let _ = writeln!(s, "{n:6}{:25.16e} {} {}", state.time_ps, state.step, cycle);
    write_triplets(&mut s, &state.positions);
    write_triplets(&mut s, &state.velocities);
    s
}

fn write_triplets(s: &mut String, vecs: &[Vec3]) {
    let mut fields = 0;
    for v in vecs {
        for c in [v.x, v.y, v.z] {
            let _ = write!(s, "{c:25.16e}");
            fields += 1;
            if fields % 6 == 0 {
                s.push('\n');
            }
        }
    }
    if fields % 6 != 0 {
        s.push('\n');
    }
}

/// Parse restart-file text back into a [`State`] (the campaign cycle in the
/// header, if any, is discarded).
pub fn read_restart(text: &str) -> Result<State, RestartError> {
    read_restart_with_cycle(text).map(|(state, _)| state)
}

/// Parse restart-file text into a [`State`] plus the campaign cycle number
/// from the header (0 for files that predate the header extension).
pub fn read_restart_with_cycle(text: &str) -> Result<(State, u64), RestartError> {
    let mut lines = text.lines();
    let _title = lines.next().ok_or_else(|| RestartError("empty file".into()))?;
    let header = lines.next().ok_or_else(|| RestartError("missing header line".into()))?;
    let mut parts = header.split_whitespace();
    let n: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| RestartError(format!("bad atom count in {header:?}")))?;
    let time_ps: f64 = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| RestartError(format!("bad time in {header:?}")))?;
    let step: u64 = match parts.next() {
        Some(tok) => tok.parse().map_err(|_| RestartError(format!("bad step in {header:?}")))?,
        None => 0,
    };
    let cycle: u64 = match parts.next() {
        Some(tok) => tok.parse().map_err(|_| RestartError(format!("bad cycle in {header:?}")))?,
        None => 0,
    };
    if parts.next().is_some() {
        return Err(RestartError(format!("trailing header fields in {header:?}")));
    }

    let rest: String = lines.collect::<Vec<_>>().join(" ");
    let values: Vec<f64> = rest
        .split_whitespace()
        .map(|t| t.parse::<f64>().map_err(|_| RestartError(format!("bad float {t:?}"))))
        .collect::<Result<_, _>>()?;
    if values.len() != 6 * n {
        return Err(RestartError(format!(
            "expected {} values for {n} atoms, found {}",
            6 * n,
            values.len()
        )));
    }
    let to_vecs = |vals: &[f64]| -> Vec<Vec3> {
        vals.chunks_exact(3).map(|c| Vec3::new(c[0], c[1], c[2])).collect()
    };
    let state = State {
        positions: to_vecs(&values[..3 * n]),
        velocities: to_vecs(&values[3 * n..]),
        time_ps,
        step,
    };
    Ok((state, cycle))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state(n: usize) -> State {
        let mut st = State::zeros(n);
        for (i, p) in st.positions.iter_mut().enumerate() {
            *p = Vec3::new(i as f64 * 1.1, -(i as f64) * 0.3, 42.0 + i as f64);
        }
        for (i, v) in st.velocities.iter_mut().enumerate() {
            *v = Vec3::new(0.001 * i as f64, -0.002, 0.5);
        }
        st.time_ps = 12.5;
        st
    }

    #[test]
    fn roundtrip_is_exact() {
        let mut st = sample_state(7);
        st.step = 4200;
        st.time_ps = 0.1 + 0.2; // not representable "nicely"
        let text = write_restart("replica 3 cycle 9", &st);
        let back = read_restart(&text).unwrap();
        assert_eq!(back.n_atoms(), 7);
        assert_eq!(back.time_ps, st.time_ps);
        assert_eq!(back.step, 4200);
        for (a, b) in st.positions.iter().zip(&back.positions) {
            assert_eq!((a.x, a.y, a.z), (b.x, b.y, b.z));
        }
        for (a, b) in st.velocities.iter().zip(&back.velocities) {
            assert_eq!((a.x, a.y, a.z), (b.x, b.y, b.z));
        }
    }

    #[test]
    fn step_and_cycle_survive_the_round_trip() {
        let mut st = sample_state(3);
        st.step = 987_654_321;
        let text = write_restart_with_cycle("t", &st, 17);
        let (back, cycle) = read_restart_with_cycle(&text).unwrap();
        assert_eq!(back.step, 987_654_321);
        assert_eq!(cycle, 17);
        // The plain reader keeps the step and drops only the cycle.
        assert_eq!(read_restart(&text).unwrap().step, 987_654_321);
    }

    #[test]
    fn header_without_step_or_cycle_still_parses() {
        // Files written before the header extension: two fields only.
        let text = "old file\n     1 1.5\n1.0 2.0 3.0 0.1 0.2 0.3\n";
        let (st, cycle) = read_restart_with_cycle(text).unwrap();
        assert_eq!(st.n_atoms(), 1);
        assert_eq!(st.time_ps, 1.5);
        assert_eq!(st.step, 0);
        assert_eq!(cycle, 0);
        // Step without cycle is also accepted.
        let text = "old file\n     1 1.5 42\n1.0 2.0 3.0 0.1 0.2 0.3\n";
        let (st, cycle) = read_restart_with_cycle(text).unwrap();
        assert_eq!(st.step, 42);
        assert_eq!(cycle, 0);
    }

    #[test]
    fn line_layout_is_six_fields() {
        let st = sample_state(4); // 12 coords = 2 lines of 6
        let text = write_restart("t", &st);
        let lines: Vec<&str> = text.lines().collect();
        // title + header + 2 coord lines + 2 vel lines
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[2].split_whitespace().count(), 6);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let st = sample_state(5);
        let text = write_restart("t", &st);
        let cut = &text[..text.len() - 30];
        assert!(read_restart(cut).is_err());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(read_restart("").is_err());
        assert!(read_restart("title\nnot_a_number 0.0\n").is_err());
        assert!(read_restart("title\n2 0.0\n1.0 2.0 x 4.0 5.0 6.0\n").is_err());
        assert!(read_restart("title\n1 0.0 -3\n1 2 3 4 5 6\n").is_err());
        assert!(read_restart("title\n1 0.0 0 0 99\n1 2 3 4 5 6\n").is_err());
    }

    #[test]
    fn roundtrip_random_states() {
        rng::check(256, |r| {
            let n = r.range(1usize..40);
            let step = r.range(0u64..u64::MAX);
            let cycle = r.range(0u64..100_000);
            let mut st = State::zeros(n);
            for p in &mut st.positions {
                *p = Vec3::new(
                    r.range(-999.0..999.0),
                    r.range(-999.0..999.0),
                    r.range(-999.0..999.0),
                );
            }
            for v in &mut st.velocities {
                *v = Vec3::new(r.range(-10.0..10.0), r.range(-10.0..10.0), r.range(-10.0..10.0));
            }
            st.time_ps = r.range(0.0..1e4);
            st.step = step;
            let (back, back_cycle) =
                read_restart_with_cycle(&write_restart_with_cycle("x", &st, cycle)).unwrap();
            assert_eq!(back.step, step);
            assert_eq!(back_cycle, cycle);
            assert_eq!(back.time_ps, st.time_ps);
            // Bit-exact round trip: checkpoint/resume depends on it.
            for (a, b) in st.positions.iter().zip(&back.positions) {
                assert_eq!((a.x, a.y, a.z), (b.x, b.y, b.z));
            }
            for (a, b) in st.velocities.iter().zip(&back.velocities) {
                assert_eq!((a.x, a.y, a.z), (b.x, b.y, b.z));
            }
        });
    }
}
