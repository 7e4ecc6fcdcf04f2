//! The typed half of [`crate::json`]: what a persisted type writes
//! ([`Encode`]) and reads back ([`Decode`]), for the scalars and containers
//! here and, beside their definitions, for every type that reaches a file or
//! the wire.

use super::{locate, parse, Error, Value, NULL};
use std::fmt;

pub trait Encode {
    fn encode(&self) -> Value;
}

/// Errors name the offending value by a pointer relative to `v`.
pub trait Decode: Sized {
    fn decode(v: &Value) -> Result<Self, Error>;
}

/// `obj! { "key" => value, .. }`: an object in the order written; a value is
/// anything [`Encode`].
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Value::Obj(vec![
            $(($key.to_string(), $crate::json::Encode::encode(&$value))),*
        ])
    };
}

/// `json_fields!(self; a, b)`: `obj! { "a" => self.a, "b" => self.b }`, for
/// a struct whose keys are its field names.
#[macro_export]
macro_rules! json_fields {
    ($s:expr; $($field:ident),* $(,)?) => {
        $crate::obj! { $(stringify!($field) => $s.$field),* }
    };
}

/// `json_struct!(Type { field: "key", other: "other-key" = default })`:
/// [`Encode`] and [`Decode`] for a struct as an object with the keys in the
/// order written. A key with a default may be absent; so may an `Option`.
#[macro_export]
macro_rules! json_struct {
    ($t:ident { $($field:ident: $key:literal $(= $default:expr)?),* $(,)? }) => {
        impl $crate::json::Encode for $t {
            fn encode(&self) -> $crate::json::Value {
                $crate::obj! { $($key => self.$field),* }
            }
        }
        impl $crate::json::Decode for $t {
            fn decode(v: &$crate::json::Value) -> Result<Self, $crate::json::Error> {
                Ok($t { $($field: v.field($key, None $(.or(Some($default)))?)?),* })
            }
        }
    };
}

/// `json_enum!(Type { Unit: "name", Struct { field: "key" }: "other" })`, or
/// `json_enum!(Type tagged by "tag" { .. })`: `Type::name`, [`Encode`] and
/// [`Decode`] for an enum of unit and struct variants. Untagged, a unit
/// variant is its name and a struct variant `{"name": {"key": ..}}`; tagged,
/// every variant is one object holding `"tag": "name"` beside its fields. An
/// unknown name is answered with the accepted ones.
#[macro_export]
macro_rules! json_enum {
    ($t:ident $(tagged by $tag:literal)? {
        $($variant:ident $({ $($field:ident: $key:literal),* $(,)? })?: $name:literal),* $(,)?
    }) => {
        impl $t {
            /// The variant's name on the wire and in messages.
            pub fn name(&self) -> &'static str {
                match self { $($t::$variant $({ $($field: _),* })? => $name),* }
            }
        }
        impl $crate::json::Encode for $t {
            fn encode(&self) -> $crate::json::Value {
                let fields: Vec<(&str, $crate::json::Value)> = match self {
                    $($t::$variant $({ $($field),* })? => {
                        vec![$($(($key, $crate::json::Encode::encode($field))),*)?]
                    })*
                };
                $crate::json::Variant::encode(None $(.or(Some($tag)))?, self.name(), fields)
            }
        }
        impl $crate::json::Decode for $t {
            fn decode(v: &$crate::json::Value) -> Result<Self, $crate::json::Error> {
                let variant = $crate::json::Variant::of(v, None $(.or(Some($tag)))?)?;
                match variant.name {
                    $($name => Ok($t::$variant $({ $($field: variant.field($key)?),* })?),)*
                    _ => Err(variant.unknown(&[$($name),*])),
                }
            }
        }
    };
}

/// Parse and decode; a shape error gets the line and column its pointer
/// resolves to.
pub fn from_str<T: Decode>(text: &str) -> Result<T, Error> {
    T::decode(&parse(text)?).map_err(|mut e| {
        e.position = locate(text, &e.pointer);
        e
    })
}

impl Error {
    /// A shape error about the value being decoded; whoever decodes the
    /// enclosing value adds the way there with [`Error::under`].
    pub fn shape(message: impl Into<String>) -> Error {
        Error { pointer: String::new(), position: None, message: message.into() }
    }

    /// The same error seen from one level up.
    pub fn under(mut self, segment: impl fmt::Display) -> Error {
        self.pointer = format!("/{segment}{}", self.pointer);
        self
    }
}

fn expected(what: &str, got: &Value) -> Error {
    let got = match got {
        Value::Str(_) => "a string".to_string(),
        Value::Arr(_) => "an array".to_string(),
        Value::Obj(_) => "an object".to_string(),
        scalar => scalar.compact(),
    };
    Error::shape(format!("expected {what}, got {got}"))
}

fn missing(key: &str) -> Error {
    Error::shape(format!("missing field `{key}`"))
}

impl Value {
    /// The value under `key` of an object being decoded, if the key is there.
    fn member(&self, key: &str) -> Result<Option<&Value>, Error> {
        self.as_object().map(|_| self.get(key)).ok_or_else(|| expected("an object", self))
    }

    /// Decode the field `key` of an object; its other keys are nobody's
    /// business (what keeps an old checkpoint with since-dropped fields
    /// loading). An absent key takes `default`; without one it is an error
    /// unless `T` decodes from null (a missing `Option` is `None`).
    pub fn field<T: Decode>(&self, key: &str, default: Option<T>) -> Result<T, Error> {
        match (self.member(key)?, default) {
            (Some(v), _) => T::decode(v).map_err(|e| e.under(key)),
            (None, Some(default)) => Ok(default),
            (None, None) => T::decode(&NULL).map_err(|_| missing(key)),
        }
    }

    /// The object with `key` set to `value`, last (anything else is returned
    /// as it is).
    pub fn with(mut self, key: &str, value: impl Encode) -> Value {
        if let Value::Obj(fields) = &mut self {
            fields.retain(|(k, _)| k != key);
            fields.push((key.to_string(), value.encode()));
        }
        self
    }

    /// The object without its null members: how a type leaves an absent
    /// `Option` out instead of writing null.
    pub fn without_nulls(mut self) -> Value {
        if let Value::Obj(fields) = &mut self {
            fields.retain(|(_, v)| !v.is_null());
        }
        self
    }
}

/// An enum value on the wire, as [`json_enum!`](crate::json_enum) and
/// hand-written decoders see it: which variant, and the value its fields
/// are in.
pub struct Variant<'a> {
    pub name: &'a str,
    /// The object holding the variant's fields; null after a bare name.
    pub body: &'a Value,
    tag: Option<&'a str>,
}

impl<'a> Variant<'a> {
    /// Tagged by `tag`: an object with `tag: "name"` beside the fields.
    /// Untagged: `"name"` or `{"name": body}`.
    pub fn of(v: &'a Value, tag: Option<&'a str>) -> Result<Self, Error> {
        let (name, body) = match (tag, v) {
            (Some(key), _) => {
                let name = v.member(key)?.ok_or_else(|| missing(key))?;
                (name.as_str().ok_or_else(|| expected("a variant name", name).under(key))?, v)
            }
            (None, Value::Str(name)) => (name.as_str(), &NULL),
            (None, Value::Obj(one)) if one.len() == 1 => (one[0].0.as_str(), &one[0].1),
            (None, _) => return Err(expected("a variant name or a single-key object", v)),
        };
        Ok(Variant { name, body, tag })
    }

    /// A field of the variant. Untagged, its pointer goes through the name.
    pub fn field<T: Decode>(&self, key: &str) -> Result<T, Error> {
        if self.body.is_null() {
            return Err(Error::shape(format!("`{}` needs an object with `{key}`", self.name)));
        }
        let found = self.body.field(key, None);
        found.map_err(|e| if self.tag.is_some() { e } else { e.under(self.name) })
    }

    /// The answer to a name no variant has: the accepted ones.
    pub fn unknown(&self, accepted: &[&str]) -> Error {
        let names = accepted.join(", ");
        let e = Error::shape(format!("unknown variant `{}`, expected one of: {names}", self.name));
        self.tag.into_iter().fold(e, |e, tag| e.under(tag))
    }

    /// Write the variant `name` with `fields` the way [`Variant::of`] reads it.
    pub fn encode(tag: Option<&str>, name: &str, fields: Vec<(&str, Value)>) -> Value {
        let bare = fields.is_empty();
        let fields = fields.into_iter().map(|(key, v)| (key.to_string(), v));
        match tag {
            Some(tag) => {
                Value::Obj([(tag.to_string(), name.encode())].into_iter().chain(fields).collect())
            }
            None if bare => name.encode(),
            None => Value::Obj(vec![(name.to_string(), Value::Obj(fields.collect()))]),
        }
    }
}

macro_rules! integers {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        /// Refuses a fraction, an exponent and anything out of the type's range.
        impl Decode for $t {
            fn decode(v: &Value) -> Result<Self, Error> {
                let what = if <$t>::MIN == 0 { "an unsigned integer" } else { "an integer" };
                match v {
                    Value::Int(i) => <$t>::try_from(*i).map_err(|_| {
                        Error::shape(format!("{i} is out of range for {what} of {} bits", <$t>::BITS))
                    }),
                    _ => Err(expected(what, v)),
                }
            }
        }
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                *self == other.encode()
            }
        }
    )*};
}
integers!(u8, u32, u64, usize, i8, i32, i64);

impl Encode for f64 {
    fn encode(&self) -> Value {
        Value::Num(*self)
    }
}

/// An integer token is a number too (`"min-k": 273`).
impl Decode for f64 {
    fn decode(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Num(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            _ => Err(expected("a number", v)),
        }
    }
}

impl Encode for bool {
    fn encode(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Decode for bool {
    fn decode(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(expected("true or false", v)),
        }
    }
}

impl Encode for str {
    fn encode(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Encode for String {
    fn encode(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Decode for String {
    fn decode(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_string).ok_or_else(|| expected("a string", v))
    }
}

/// A one-character string.
impl Encode for char {
    fn encode(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Decode for char {
    fn decode(v: &Value) -> Result<Self, Error> {
        let mut chars = v.as_str().map(str::chars);
        match chars.as_mut().map(|c| (c.next(), c.next())) {
            Some((Some(c), None)) => Ok(c),
            _ => Err(expected("a one-character string", v)),
        }
    }
}

impl Encode for Value {
    fn encode(&self) -> Value {
        self.clone()
    }
}

impl Decode for Value {
    fn decode(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self) -> Value {
        (**self).encode()
    }
}

/// `None` is null.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self) -> Value {
        self.as_ref().map_or(Value::Null, Encode::encode)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(v: &Value) -> Result<Self, Error> {
        if v.is_null() {
            Ok(None)
        } else {
            T::decode(v).map(Some)
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self) -> Value {
        Value::Arr(self.iter().map(Encode::encode).collect())
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(v: &Value) -> Result<Self, Error> {
        let items = v.as_array().ok_or_else(|| expected("an array", v))?;
        items.iter().enumerate().map(|(i, item)| T::decode(item).map_err(|e| e.under(i))).collect()
    }
}

/// A pair is a two-element array.
impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self) -> Value {
        Value::Arr(vec![self.0.encode(), self.1.encode()])
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(v: &Value) -> Result<Self, Error> {
        let Some([a, b]) = v.as_array() else { return Err(expected("an array of two", v)) };
        Ok((A::decode(a).map_err(|e| e.under(0))?, B::decode(b).map_err(|e| e.under(1))?))
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}
