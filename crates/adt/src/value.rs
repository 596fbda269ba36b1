//! The dynamic [`Value`] type used for operation parameters, return values
//! and object contents.
//!
//! Keeping parameters and results in a small dynamic type lets the
//! concurrency-control kernel treat every atomic data type uniformly (the
//! erased [`crate::SemanticObject`] interface) while the typed operation
//! enums ([`crate::StackOp`], [`crate::TableOp`], …) stay ergonomic for
//! application code.

use std::fmt;

/// A dynamically typed value.
///
/// `Value` is intentionally small: the paper's examples only ever move
/// integers, strings and booleans through operations, and the simulation
/// model does not inspect values at all.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Value {
    /// Absence of a value (e.g. `pop` on an empty stack returns `Null`).
    Null,
    /// A boolean, e.g. the result of `member`.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A UTF-8 string.
    Str(String),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(7i32), Value::Int(7));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x".to_owned()));
        assert_eq!(Value::from(String::from("y")), Value::Str("y".to_owned()));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Bool(true).as_int(), None);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn ordering_is_total_within_variants() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
    }
}
