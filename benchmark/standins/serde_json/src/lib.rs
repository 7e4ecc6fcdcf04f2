//! Stand-in for `serde_json` that compiles the repository's call sites and
//! refuses to do the work: every (de)serialiser returns `Err`, and `json!`
//! yields an opaque [`Value`]. A benchmark path that reaches JSON therefore
//! fails its correctness check instead of silently measuring nothing.

use std::fmt;

/// The one error every entry point returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(&'static str);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json stand-in: {} is unavailable in benchmark builds", self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Opaque placeholder for a JSON document; it holds no data.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Unavailable,
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("null")
    }
}

/// Accepts any `json!` body without evaluating it.
#[macro_export]
macro_rules! json {
    ($($body:tt)*) => {
        $crate::Value::Unavailable
    };
}

pub fn from_str<T>(_text: &str) -> Result<T> {
    Err(Error("from_str"))
}

pub fn from_value<T>(_value: Value) -> Result<T> {
    Err(Error("from_value"))
}

pub fn to_string<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error("to_string"))
}

pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String> {
    Err(Error("to_string_pretty"))
}

pub fn to_value<T>(_value: T) -> Result<Value> {
    Err(Error("to_value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_point_fails_loudly() {
        assert!(from_str::<u32>("1").is_err());
        assert!(from_value::<u32>(Value::default()).is_err());
        assert!(to_string(&1u32).is_err());
        assert!(to_string_pretty("x").is_err());
        assert!(to_value(1u32).is_err());
        let msg = to_string(&1u32).unwrap_err().to_string();
        assert!(msg.contains("to_string") && msg.contains("stand-in"), "{msg}");
    }

    #[test]
    fn json_macro_swallows_any_body() {
        let v = json!({ "a": not_even_a_name, "b": [1, 2, { "c": null }] });
        assert_eq!(v, Value::Unavailable);
    }
}
