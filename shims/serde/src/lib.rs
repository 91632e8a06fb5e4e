//! Offline stand-in for `serde` (+ re-exported derive macros).
//!
//! The build container has no crates.io access, so this shim provides a
//! value-model serde: `Serialize` lowers a type to a [`Value`] tree and
//! `Deserialize` rebuilds it. The companion `serde_json` shim renders and
//! parses `Value` as JSON, and the `serde_derive` shim derives both
//! traits for plain structs and enums. The wire format is self-consistent
//! within this workspace (maps serialize as arrays of `[key, value]`
//! pairs; enums are externally tagged like real serde).
//!
//! Printing borrows: `serde_json` renders from [`Serialize::as_value`],
//! which a [`Value`] answers with itself, so a tree built by hand (the
//! flight-recorder document) is printed without being copied. Every
//! other type lowers through its one `to_value` call.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::time::Duration;

pub use serde_derive::{Deserialize, Serialize};

/// The serialized value tree (also re-exported as `serde_json::Value`).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (f64 carries every integer the workspace serializes).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object, insertion-ordered.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Field of an object (`Null` when missing or not an object).
    pub fn get_field(&self, name: &str) -> &Value {
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// Element of an array (`Null` when out of range or not an array).
    pub fn get_index(&self, i: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

macro_rules! impl_value_eq_num {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                matches!(self, Value::Num(n) if *n == *other as f64)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

impl_value_eq_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Value::Str(s) if s == other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        matches!(self, Value::Str(s) if s == other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, name: &str) -> &Value {
        self.get_field(name)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        self.get_index(i)
    }
}

/// Serialization/deserialization failure.
#[derive(Clone, Debug)]
pub struct Error(pub String);

impl Error {
    /// An error with the given message.
    pub fn msg(m: impl Into<String>) -> Self {
        Self(m.into())
    }

    /// Prepends a location (e.g. `Struct.field`) to the message, so a
    /// deserialization failure deep in a document names the offending
    /// field path (`Spec.sim.cycle: expected u64 in range, got Null`).
    /// An array index already in front binds to the location without a
    /// separator: `Spec.cells` before `[1]: …` reads `Spec.cells[1]: …`.
    pub fn context(self, path: &str) -> Self {
        let sep = if self.0.starts_with('[') { "" } else { ": " };
        Self(format!("{path}{sep}{}", self.0))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Lowers a type to a [`Value`] tree.
pub trait Serialize {
    /// The value-tree form of `self`.
    fn to_value(&self) -> Value;

    /// The value-tree form of `self`, borrowed where it already is one:
    /// a [`Value`] lends itself, every other type lowers through
    /// [`Serialize::to_value`]. Printers read this, so printing a
    /// `Value` never copies it.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Rebuilds a type from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses the value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    // Reject fractional and out-of-range numbers instead
                    // of letting `as` saturate/truncate silently (real
                    // serde_json errors here too).
                    Value::Num(n)
                        if n.fract() == 0.0
                            && *n >= <$t>::MIN as f64
                            && *n <= <$t>::MAX as f64 =>
                    {
                        Ok(*n as $t)
                    }
                    other => Err(Error::msg(format!(
                        "expected {} in range, got {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Num(n) => Ok(*n as $t),
                    other => Err(Error::msg(format!(
                        "expected number for {}, got {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::msg(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, Error> {
        // Static-str fields (cell profile names) deserialize by leaking a
        // copy — these are a handful of short, long-lived labels.
        String::from_value(v).map(|s| &*Box::leak(s.into_boxed_str()))
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::msg(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::from_value(item).map_err(|e| e.context(&format!("[{i}]"))))
                .collect(),
            other => Err(Error::msg(format!("expected array, got {other:?}"))),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+)),+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                Ok(($($t::from_value(v.get_index($n))?,)+))
            }
        }
    )+};
}

impl_tuple!((0 A), (0 A, 1 B), (0 A, 1 B, 2 C), (0 A, 1 B, 2 C, 3 D));

/// Maps serialize as arrays of `[key, value]` pairs — uniform for any
/// serializable key type (real serde_json restricts keys to strings; the
/// workspace has integer- and tuple-keyed maps).
macro_rules! impl_map {
    ($map:ident, $($bound:path),+) => {
        impl<K: Serialize, V: Serialize> Serialize for $map<K, V> {
            fn to_value(&self) -> Value {
                Value::Array(
                    self.iter()
                        .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                        .collect(),
                )
            }
        }
        impl<K: Deserialize $(+ $bound)+, V: Deserialize> Deserialize for $map<K, V> {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) => items
                        .iter()
                        .map(|pair| {
                            Ok((K::from_value(pair.get_index(0))?, V::from_value(pair.get_index(1))?))
                        })
                        .collect(),
                    other => Err(Error::msg(format!("expected map array, got {other:?}"))),
                }
            }
        }
    };
}

impl_map!(BTreeMap, Ord);
impl_map!(HashMap, std::hash::Hash, Eq);

macro_rules! impl_set {
    ($set:ident, $($bound:path),+) => {
        impl<T: Serialize> Serialize for $set<T> {
            fn to_value(&self) -> Value {
                Value::Array(self.iter().map(Serialize::to_value).collect())
            }
        }
        impl<T: Deserialize $(+ $bound)+> Deserialize for $set<T> {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) => items.iter().map(T::from_value).collect(),
                    other => Err(Error::msg(format!("expected set array, got {other:?}"))),
                }
            }
        }
    };
}

impl_set!(BTreeSet, Ord);
impl_set!(HashSet, std::hash::Hash, Eq);

impl Serialize for Duration {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), Value::Num(self.as_secs() as f64)),
            ("nanos".to_string(), Value::Num(self.subsec_nanos() as f64)),
        ])
    }
}

impl Deserialize for Duration {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let secs = u64::from_value(v.get_field("secs"))?;
        let nanos = u32::from_value(v.get_field("nanos"))?;
        Ok(Duration::new(secs, nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(i64::from_value(&(-42i64).to_value()).unwrap(), -42);
        assert_eq!(f32::from_value(&0.1f32.to_value()).unwrap(), 0.1f32);
        assert_eq!(String::from_value(&"hi".to_value()).unwrap(), "hi");
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn containers_roundtrip() {
        let m: BTreeMap<(u32, String), Vec<f32>> =
            [((1, "a".into()), vec![0.5, -1.5])].into_iter().collect();
        let back: BTreeMap<(u32, String), Vec<f32>> =
            Deserialize::from_value(&m.to_value()).unwrap();
        assert_eq!(m, back);
        let d = Duration::new(3, 450);
        assert_eq!(Duration::from_value(&d.to_value()).unwrap(), d);
    }

    #[test]
    fn indexing_missing_fields_yields_null() {
        let v = Value::Object(vec![("a".into(), Value::Num(1.0))]);
        assert_eq!(v["a"], Value::Num(1.0));
        assert_eq!(v["b"], Value::Null);
        assert_eq!(v[3], Value::Null);
    }
}
