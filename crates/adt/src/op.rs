//! Operation representations.
//!
//! The paper models an operation as a total function `S -> S x V`: applied
//! in a state it produces a new state and a return value (Section 3.1, and
//! footnote 1: "every operation returns a value, at least a status or
//! condition code").
//!
//! Two representations coexist:
//!
//! * **Typed operations** — each atomic data type defines an enum
//!   (e.g. [`crate::StackOp`]) implementing [`AdtOp`]. Typed operations are
//!   what application code builds and what the definition-level semantics
//!   checkers consume.
//! * **Erased operations** — [`OpCall`] carries the operation *kind* (an
//!   index into the data type's compatibility tables) plus its parameters as
//!   [`Value`]s. The concurrency-control kernel and the simulator only ever
//!   see `OpCall`s, so they are completely generic over data types.

use crate::value::Value;
use std::fmt;

/// The return value of an operation, as observed by the invoking
/// transaction.
///
/// The variants mirror the vocabulary used throughout the paper's examples:
/// `ok` for unconditional mutators (push, set-insert, write), `Success` /
/// `Failure` for keyed mutators, and a payload-carrying `Value` for
/// observers (read, lookup, top, member, size, …). `Null` models
/// "not found" / "empty" results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum OpResult {
    /// The operation completed and has no interesting payload ("ok").
    Ok,
    /// The operation succeeded (e.g. `delete` of a present key).
    Success,
    /// The operation failed (e.g. `insert` of a duplicate key).
    Failure,
    /// The operation returned a value.
    Value(Value),
    /// The operation returned "nothing" (empty stack, missing key, …).
    Null,
}

impl OpResult {
    /// Convenience constructor wrapping a [`Value`].
    pub fn value(v: impl Into<Value>) -> Self {
        OpResult::Value(v.into())
    }
}

impl fmt::Display for OpResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpResult::Ok => write!(f, "ok"),
            OpResult::Success => write!(f, "success"),
            OpResult::Failure => write!(f, "failure"),
            OpResult::Value(v) => write!(f, "{v}"),
            OpResult::Null => write!(f, "null"),
        }
    }
}

/// An erased operation invocation: a kind index plus parameters.
///
/// The `kind` indexes the rows/columns of the owning data type's
/// compatibility tables; `params` carries the arguments. Only the
/// *distinguishing* parameter (by convention, the first one) participates in
/// the `Yes-SP` / `Yes-DP` parameter-dependent classification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OpCall {
    /// Operation kind: an index into the data type's compatibility tables.
    pub kind: usize,
    /// Operation parameters.
    pub params: Vec<Value>,
}

impl OpCall {
    /// Build an operation call with no parameters.
    pub fn nullary(kind: usize) -> Self {
        OpCall {
            kind,
            params: Vec::new(),
        }
    }

    /// Build an operation call with a single parameter.
    pub fn unary(kind: usize, p: impl Into<Value>) -> Self {
        OpCall {
            kind,
            params: vec![p.into()],
        }
    }

    /// Build an operation call with two parameters.
    pub fn binary(kind: usize, p0: impl Into<Value>, p1: impl Into<Value>) -> Self {
        OpCall {
            kind,
            params: vec![p0.into(), p1.into()],
        }
    }

    /// The distinguishing parameter used for `Yes-SP` / `Yes-DP`
    /// classification (the first parameter, if any).
    pub fn distinguishing_param(&self) -> Option<&Value> {
        self.params.first()
    }

    /// Returns `true` when both calls have a distinguishing parameter and
    /// the parameters are equal.
    pub fn same_param(&self, other: &OpCall) -> bool {
        match (self.distinguishing_param(), other.distinguishing_param()) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for OpCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}(", self.kind)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

/// A typed operation belonging to some atomic data type.
///
/// Implementations provide a bidirectional mapping to [`OpCall`] so the
/// same operation value can be used with the typed API, the erased kernel
/// interface and the semantics checkers.
pub trait AdtOp: Clone + fmt::Debug + Send + Sync + 'static {
    /// Number of distinct operation kinds for this data type.
    const KINDS: usize;

    /// The kind index of this operation (row/column in the tables).
    fn kind(&self) -> usize;

    /// The human-readable name of this operation's kind.
    fn kind_name(&self) -> &'static str;

    /// Names of all kinds, indexed by kind.
    fn kind_names() -> &'static [&'static str];

    /// Convert to the erased representation.
    fn to_call(&self) -> OpCall;

    /// Convert back from the erased representation.
    ///
    /// Returns `None` if the call does not describe a valid operation of
    /// this data type (wrong kind index or malformed parameters).
    fn from_call(call: &OpCall) -> Option<Self>;

    /// The distinguishing parameter for parameter-dependent classification.
    fn distinguishing_param(&self) -> Option<Value> {
        self.to_call().distinguishing_param().cloned()
    }

    /// `true` when the operation is a pure observer: applying it never
    /// changes the object state (top, front, read, member, lookup, size).
    ///
    /// Read-only operations are what the multi-version snapshot-read path
    /// may answer from a historical version instead of the classified,
    /// blockable execution path, so a wrong `true` here is a
    /// serializability bug. The default is the safe `false` — every
    /// operation is assumed to mutate unless its data type says otherwise.
    fn is_readonly(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_result_helpers() {
        assert_eq!(
            OpResult::value(3),
            OpResult::Value(Value::Int(3)),
            "value() wraps into Value"
        );
    }

    #[test]
    fn op_result_display() {
        assert_eq!(OpResult::Ok.to_string(), "ok");
        assert_eq!(OpResult::Success.to_string(), "success");
        assert_eq!(OpResult::Failure.to_string(), "failure");
        assert_eq!(OpResult::Null.to_string(), "null");
        assert_eq!(OpResult::value(9).to_string(), "9");
    }

    #[test]
    fn op_call_constructors() {
        let c = OpCall::nullary(2);
        assert_eq!(c.kind, 2);
        assert!(c.params.is_empty());
        assert_eq!(c.distinguishing_param(), None);

        let c = OpCall::unary(0, 5);
        assert_eq!(c.distinguishing_param(), Some(&Value::Int(5)));

        let c = OpCall::binary(1, "k", 10);
        assert_eq!(c.params.len(), 2);
        assert_eq!(c.distinguishing_param(), Some(&Value::str("k")));
    }

    #[test]
    fn same_param_compares_first_parameter_only() {
        let a = OpCall::binary(0, "k", 1);
        let b = OpCall::binary(1, "k", 2);
        let c = OpCall::binary(0, "j", 1);
        let d = OpCall::nullary(0);
        assert!(a.same_param(&b));
        assert!(!a.same_param(&c));
        assert!(!a.same_param(&d), "nullary ops never share a parameter");
        assert!(!d.same_param(&d));
    }

    #[test]
    fn op_call_display() {
        assert_eq!(OpCall::nullary(3).to_string(), "op#3()");
        assert_eq!(OpCall::binary(0, 1, 2).to_string(), "op#0(1, 2)");
    }
}
