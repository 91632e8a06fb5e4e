//! Node attributes.
//!
//! GCD machines carry an opaque attribute map (obfuscated key/value pairs).
//! Constraint operators reference those attributes, and the CO-VV encoding
//! enumerates every *value* an attribute has ever taken — so attribute
//! identity and value identity are the core currencies of the whole system.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Index of an attribute name in the [`AttrCatalog`].
pub type AttrId = u32;

/// A single attribute value. GCD constraint operators support integer and
/// string values only (the paper notes “the GCD traces support only integer
/// numbers in constraint operators”), so those are the two variants.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttrValue {
    /// Numeric attribute value.
    Int(i64),
    /// Non-numeric (string) attribute value.
    Str(String),
}

impl AttrValue {
    /// Numeric view; `None` for strings.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(v) => Some(*v),
            AttrValue::Str(_) => None,
        }
    }

    /// True for the numeric variant.
    #[cfg(test)]
    pub fn is_numeric(&self) -> bool {
        matches!(self, AttrValue::Int(_))
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

/// Registry of attribute names, mapping between human-readable names and
/// dense [`AttrId`]s. Append-only: ids are stable for the lifetime of a
/// trace, which the dataset encodings rely on.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AttrCatalog {
    names: Vec<String>,
    by_name: BTreeMap<String, AttrId>,
}

impl AttrCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, registering it if new.
    pub fn intern(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as AttrId;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing attribute id.
    pub fn get(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// The name for an id.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn name(&self, id: AttrId) -> &str {
        &self.names[id as usize]
    }

    /// Number of registered attributes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no attribute has been registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as AttrId, n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut c = AttrCatalog::new();
        let a = c.intern("platform");
        let b = c.intern("platform");
        assert_eq!(a, b);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut c = AttrCatalog::new();
        let a = c.intern("a");
        let b = c.intern("b");
        assert_eq!((a, b), (0, 1));
        assert_eq!(c.name(0), "a");
        assert_eq!(c.name(1), "b");
        assert_eq!(c.get("b"), Some(1));
        assert_eq!(c.get("zzz"), None);
    }

    #[test]
    fn attr_value_numeric_helpers() {
        assert_eq!(AttrValue::Int(5).as_int(), Some(5));
        assert_eq!(AttrValue::from("x").as_int(), None);
        assert!(AttrValue::Int(0).is_numeric());
        assert!(!AttrValue::from("x").is_numeric());
    }

    #[test]
    fn display_formats_like_the_paper_tables() {
        assert_eq!(AttrValue::Int(3).to_string(), "3");
        assert_eq!(AttrValue::from("c").to_string(), "'c'");
    }
}
