//! File formats staged between framework tasks.

pub mod mdin;
pub mod mdinfo;
pub mod mdp;
pub mod namdconf;
pub mod restart;

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
