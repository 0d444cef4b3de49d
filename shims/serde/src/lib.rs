//! Offline stand-in for `serde`.
//!
//! The build environment has no network access, so the workspace vendors a
//! minimal serde: serialization goes through an owned [`Value`] tree
//! (`Serialize::to_value` / `Deserialize::from_value`) instead of the
//! visitor machinery, and `serde_derive` is a small hand-written proc macro.
//! `serde_json` (also shimmed) renders/parses the `Value` tree. The derive
//! covers exactly the shapes this workspace uses: named structs, tuple and
//! unit structs, and enums with unit/tuple/struct variants — no generics,
//! no `#[serde(...)]` attributes.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON-like data tree: the intermediate form between Rust values
/// and text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (negative JSON integers).
    I64(i64),
    /// Unsigned integer (non-negative JSON integers).
    U64(u64),
    /// Floating point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion order preserved so output is deterministic.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrow as an object's key/value pairs.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(p) => Some(p),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Serialization/deserialization failure.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl Error {
    /// "Expected X while reading Y" constructor used by generated code.
    pub fn expected(what: &str, context: &str) -> Error {
        Error(format!("expected {what} while deserializing {context}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Look up a required field in an object (helper for generated code).
pub fn field<'a>(obj: &'a [(String, Value)], name: &str) -> Result<&'a Value, Error> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| Error(format!("missing field `{name}`")))
}

/// Types convertible to a [`Value`] tree.
pub trait Serialize {
    /// Convert to a `Value`.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstruct from a `Value`.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::expected("bool", "bool")),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::U64(n) => *n,
                    Value::I64(n) if *n >= 0 => *n as u64,
                    _ => return Err(Error::expected("unsigned integer", stringify!($t))),
                };
                <$t>::try_from(n).map_err(|_| Error(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| Error(format!("{n} out of range for {}", stringify!($t))))?,
                    _ => return Err(Error::expected("integer", stringify!($t))),
                };
                <$t>::try_from(n).map_err(|_| Error(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::I64(n) => Ok(*n as f64),
            Value::U64(n) => Ok(*n as f64),
            _ => Err(Error::expected("number", "f64")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::expected("string", "String")),
        }
    }
}

impl Serialize for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(a) => a.iter().map(T::from_value).collect(),
            _ => Err(Error::expected("array", "Vec")),
        }
    }
}

impl<T: Serialize> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

// A `Value` serializes to itself — this is what lets pre-assembled JSON
// trees (e.g. hchol-obs artifact envelopes) pass through the generic
// `serde_json::to_string*` entry points.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

/// Map keys must serialize to `Value::Str` (strings or unit-variant enums);
/// anything else is a programming error in this workspace.
fn key_to_string<K: Serialize>(k: &K) -> String {
    match k.to_value() {
        Value::Str(s) => s,
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        other => panic!("unsupported map key type: {other:?}"),
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (key_to_string(k), v.to_value()))
            .collect();
        // HashMap iteration order is unstable; sort for deterministic output.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(pairs)
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, H: BuildHasher + Default> Deserialize
    for HashMap<K, V, H>
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| Error::expected("object", "HashMap"))?;
        pairs
            .iter()
            .map(|(k, val)| {
                let key = K::from_value(&Value::Str(k.clone()))?;
                Ok((key, V::from_value(val)?))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Vec::<u32>::from_value(&vec![1u32, 2, 3].to_value()).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn map_keys_sorted() {
        let mut m = HashMap::new();
        m.insert("b".to_string(), 1u64);
        m.insert("a".to_string(), 2u64);
        match m.to_value() {
            Value::Object(pairs) => {
                assert_eq!(pairs[0].0, "a");
                assert_eq!(pairs[1].0, "b");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }
}
