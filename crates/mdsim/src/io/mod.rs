//! File formats staged between framework tasks.

pub mod mdin;
pub mod mdinfo;
pub mod mdp;
pub mod namdconf;
pub mod restart;

use std::fmt::Write as _;

/// An integer field of a control file: every `u64` in its decimal spelling
/// (a 64-bit seed must survive the render → parse round trip, which it does
/// not through `f64`), or a non-negative integral float such as `1000.0`.
pub(crate) fn parse_u64(text: &str) -> Option<u64> {
    let text = text.trim();
    text.parse().ok().or_else(|| {
        let v: f64 = text.parse().ok()?;
        (v >= 0.0 && v.fract() == 0.0 && v < u64::MAX as f64).then_some(v as u64)
    })
}

/// Append `value` right-aligned in `width` with `decimals` places: the bytes
/// of `write!(out, "{value:>width$.decimals$}")` for every `f64`, without
/// `core::fmt`'s digit generation. |value| is `mant · 2^-shift` exactly, so
/// its expansion is the integer `mant · 10^decimals >> shift`, rounded on the
/// bits shifted out with ties to even — the exact value's rounding, which is
/// what `core::fmt` computes. What does not fit that arithmetic (non-finite,
/// 2^52 and beyond, more than 19 digits) goes to `write!`.
pub(crate) fn push_fixed(out: &mut String, value: f64, width: usize, decimals: u32) {
    let bits = value.to_bits();
    let (biased, fraction) = ((bits >> 52) & 0x7ff, bits & ((1 << 52) - 1));
    let (mant, shift) =
        if biased == 0 { (fraction, 1074) } else { (fraction | 1 << 52, 1075 - biased as i64) };
    let rounded = 10u64.checked_pow(decimals).filter(|_| shift > 0).and_then(|pow10| {
        // scaled < 2^117: a shift past 127 rounds to 0 just as 127 does.
        let (scaled, shift) = (u128::from(mant) * u128::from(pow10), shift.min(127));
        let (kept, lost, half) = (scaled >> shift, scaled & ((1 << shift) - 1), 1 << (shift - 1));
        u64::try_from(kept + u128::from(lost > half || (lost == half && kept & 1 == 1))).ok()
    });
    let places = decimals as usize;
    let Some(mut digits) = rounded else {
        let _ = write!(out, "{value:>width$.places$}");
        return;
    };
    // Least significant digit first, from the end of a buffer of signs: at
    // most 20 digits and the point, and one sign kept or not.
    let mut buf = [b'-'; 24];
    let mut at = buf.len();
    for place in 0.. {
        if place > places && digits == 0 {
            break;
        }
        if place == places && places > 0 {
            at -= 1;
            buf[at] = b'.';
        }
        at -= 1;
        buf[at] = b'0' + (digits % 10) as u8;
        digits /= 10;
    }
    at -= usize::from(value.is_sign_negative());
    let text = std::str::from_utf8(&buf[at..]).expect("ASCII digits");
    out.extend(std::iter::repeat_n(' ', width.saturating_sub(text.len())));
    out.push_str(text);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every (width, decimals) `MdInfo::render`, `MdinControl::render` and
    /// `render_disang` use; no decimal point at all; the most places the
    /// integer arithmetic takes, and the first it does not.
    const FORMATS: [(usize, u32); 11] = [
        (12, 3),
        (8, 2),
        (14, 4),
        (0, 5),
        (0, 3),
        (0, 4),
        (0, 2),
        (0, 6),
        (3, 0),
        (30, 19),
        (0, 20),
    ];

    fn assert_is_core_fmt(v: f64) {
        for (w, d) in FORMATS {
            let mut ours = String::from("=");
            push_fixed(&mut ours, v, w, d);
            let bits = v.to_bits();
            let places = d as usize;
            assert_eq!(ours, format!("={v:>w$.places$}"), "{v:e} ({bits:#018x}) as {w}.{d}");
        }
    }

    /// The licence of `push_fixed`: the same bytes as `core::fmt`, on the
    /// values where a shortcut would show and on 10^5 drawn ones per format.
    /// CI runs it in `--release` too (overflow checks off, other codegen).
    #[test]
    fn push_fixed_is_core_fmt_byte_for_byte() {
        let two53 = 9_007_199_254_740_992.0_f64;
        let mut seeds = vec![
            0.0,
            f64::MIN_POSITIVE,             // smallest normal
            f64::MIN_POSITIVE.next_down(), // largest subnormal
            5e-324,
            // Exact ties: odd multiples of 2^-(d+1) at d decimals.
            0.5,
            1.5,
            2.5,
            0.125,
            0.375,
            0.03125,
            0.09375,
            1.0 / 128.0,
            3.0 / 128.0,
            // Carries into a new digit.
            0.99995,
            0.999995,
            9.995,
            99999.99995,
            999.9999999,
            // Where f64 stops holding halves and odd integers, and the first
            // value that goes to `write!` (2^52: no fraction bits left).
            two53 - 1.0,
            two53,
            two53 + 2.0,
            two53 / 2.0,
            (two53 / 2.0).next_down(),
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        // Where the scaled value stops fitting 64 bits, per decimals.
        seeds.extend((0..7).map(|d| 2f64.powi(64) / 10f64.powi(d)));
        for v in seeds {
            for v in [v.next_down(), v, v.next_up()] {
                assert_is_core_fmt(v);
                assert_is_core_fmt(-v);
            }
        }
        rng::check(1000, |r| {
            for _ in 0..100 {
                let v = match r.below(4) {
                    // Any bit pattern: every exponent, subnormals, NaNs.
                    0 => f64::from_bits(r.next_u64()),
                    // The magnitudes the files hold.
                    1 => r.range(-1.0..1.0) * 10f64.powi(r.range(-7..17)),
                    // A tie or a short decimal at 0..=7 places, and its
                    // neighbours.
                    2 => {
                        let v =
                            r.range(-(1i64 << 40)..1 << 40) as f64 / (1u64 << r.range(0..9)) as f64;
                        [v.next_down(), v, v.next_up()][r.below(3) as usize]
                    }
                    // What a decimal literal parses to.
                    _ => r.range(-99_999_999i64..100_000_000) as f64 / 10f64.powi(r.range(0..8)),
                };
                assert_is_core_fmt(v);
            }
        });
    }
}
