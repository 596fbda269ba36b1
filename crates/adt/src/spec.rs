//! The typed [`AdtSpec`] trait, the erased [`SemanticObject`] interface and
//! the [`AdtObject`] adapter between them.
//!
//! The concurrency-control kernel (crate `sbcc-core`) is completely generic
//! over data types: it only needs to *classify* a requested operation
//! against executed, uncommitted operations and to *apply* operations to
//! object state. Those two capabilities are captured by [`SemanticObject`],
//! which is object safe so heterogeneous objects can live in one database.
//!
//! Application code and the semantics checkers prefer the fully typed
//! [`AdtSpec`] view; [`AdtObject`] lifts any `AdtSpec` into a
//! `SemanticObject`.

use crate::compat::{classify_with_tables, Compatibility, CompatibilityTable};
use crate::op::{AdtOp, OpCall, OpResult};
use std::any::Any;
use std::fmt;

/// A typed atomic data type: a state plus a set of operations with full
/// semantics (`state` and `return` components of the paper's specification
/// function `S -> S x V`).
pub trait AdtSpec: Clone + fmt::Debug + PartialEq + Send + Sync + 'static {
    /// The typed operation enum of this data type.
    type Op: AdtOp;

    /// Human-readable type name ("stack", "set", …).
    const TYPE_NAME: &'static str;

    /// Apply an operation: mutate the state and produce the return value.
    fn apply(&mut self, op: &Self::Op) -> OpResult;

    /// The commutativity table (paper Tables I, III, V, VII …).
    fn commutativity_table() -> &'static CompatibilityTable;

    /// The recoverability table (paper Tables II, IV, VI, VIII …).
    fn recoverability_table() -> &'static CompatibilityTable;

    /// Classify a requested operation against an executed, uncommitted one:
    /// commutativity is checked first, then recoverability, otherwise the
    /// pair conflicts. This is exactly the lookup the paper's object
    /// managers perform against the compatibility tables.
    fn classify(requested: &Self::Op, executed: &Self::Op) -> Compatibility {
        classify_with_tables(
            Self::commutativity_table(),
            Self::recoverability_table(),
            &requested.to_call(),
            &executed.to_call(),
        )
    }

    /// Apply a whole sequence of operations, returning the results.
    fn apply_all(&mut self, ops: &[Self::Op]) -> Vec<OpResult> {
        ops.iter().map(|o| self.apply(o)).collect()
    }
}

/// Object-safe view of an atomic data type, as consumed by the
/// concurrency-control kernel and the simulator.
pub trait SemanticObject: Send + fmt::Debug {
    /// Classify a requested operation against an executed, uncommitted one.
    ///
    /// # Contract
    ///
    /// The verdict must be **state-independent** (it may not read the
    /// object's current state) and **parameter-relational**: it may depend
    /// only on the two operation kinds and on whether the distinguishing
    /// parameters are equal, different, or not comparable (one side
    /// lacking a parameter). This mirrors the paper's restriction to
    /// "state-independent, but parameter-dependent" notions (the
    /// `Yes` / `Yes-SP` / `Yes-DP` / `No` table entries) and is what allows
    /// the kernel to memoise verdicts per `(kind, kind, relation)` cell
    /// instead of re-classifying every log entry. Every implementation in
    /// this workspace (table-driven ADTs and [`crate::AbstractObject`])
    /// satisfies it by construction.
    fn classify(&self, requested: &OpCall, executed: &OpCall) -> Compatibility;

    /// Apply an operation to the object state and return its result.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `op` does not describe a valid operation
    /// of this data type (this is a programming error: operation calls are
    /// always produced by the typed API or by the workload generator that
    /// owns the object).
    fn apply(&mut self, op: &OpCall) -> OpResult;

    /// Clone the object (state snapshot) behind a box.
    fn boxed_clone(&self) -> Box<dyn SemanticObject>;

    /// The data type's name.
    fn type_name(&self) -> &'static str;

    /// The operation-kind names, indexed by kind.
    fn op_names(&self) -> &'static [&'static str];

    /// A single-line rendering of the current state (diagnostics only).
    fn debug_state(&self) -> String;

    /// Upcast helper for state comparison in checkers.
    fn as_any(&self) -> &dyn Any;

    /// Structural equality of object states (used by the serializability
    /// checker to compare a replayed state against the observed one).
    fn state_eq(&self, other: &dyn SemanticObject) -> bool;

    /// `true` when `call` is a pure observer of this data type: applying it
    /// never changes the object state. The snapshot-read path answers such
    /// calls from a historical version without classification, so a wrong
    /// `true` is a serializability bug; the default is the safe `false`.
    fn is_readonly(&self, call: &OpCall) -> bool {
        let _ = call;
        false
    }
}

impl Clone for Box<dyn SemanticObject> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Adapter lifting a typed [`AdtSpec`] into the erased [`SemanticObject`]
/// interface.
#[derive(Debug, Clone, PartialEq)]
pub struct AdtObject<A: AdtSpec> {
    inner: A,
}

impl<A: AdtSpec> AdtObject<A> {
    /// Wrap a typed data type instance.
    pub fn new(inner: A) -> Self {
        AdtObject { inner }
    }

    /// Borrow the typed state.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: AdtSpec> From<A> for AdtObject<A> {
    fn from(inner: A) -> Self {
        AdtObject::new(inner)
    }
}

impl<A: AdtSpec> SemanticObject for AdtObject<A> {
    fn classify(&self, requested: &OpCall, executed: &OpCall) -> Compatibility {
        classify_with_tables(
            A::commutativity_table(),
            A::recoverability_table(),
            requested,
            executed,
        )
    }

    fn apply(&mut self, op: &OpCall) -> OpResult {
        let typed = A::Op::from_call(op).unwrap_or_else(|| {
            panic!(
                "operation call {op} does not belong to data type {}",
                A::TYPE_NAME
            )
        });
        self.inner.apply(&typed)
    }

    fn boxed_clone(&self) -> Box<dyn SemanticObject> {
        Box::new(self.clone())
    }

    fn type_name(&self) -> &'static str {
        A::TYPE_NAME
    }

    fn op_names(&self) -> &'static [&'static str] {
        A::Op::kind_names()
    }

    fn debug_state(&self) -> String {
        format!("{:?}", self.inner)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn state_eq(&self, other: &dyn SemanticObject) -> bool {
        other
            .as_any()
            .downcast_ref::<AdtObject<A>>()
            .map(|o| o.inner == self.inner)
            .unwrap_or(false)
    }

    fn is_readonly(&self, call: &OpCall) -> bool {
        A::Op::from_call(call)
            .map(|op| op.is_readonly())
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{Stack, StackOp};
    use crate::value::Value;

    #[test]
    fn adt_object_wraps_and_unwraps() {
        let mut obj = AdtObject::new(Stack::new());
        assert_eq!(obj.type_name(), "stack");
        assert_eq!(obj.op_names(), &["push", "pop", "top"]);
        assert!(obj.inner().is_empty());
        obj.apply(&StackOp::Push(Value::Int(1)).to_call());
        assert_eq!(obj.inner().len(), 1);
        let from: AdtObject<Stack> = Stack::new().into();
        assert!(from.inner().is_empty());
    }

    #[test]
    fn erased_apply_matches_typed_apply() {
        let mut typed = Stack::new();
        let mut erased: Box<dyn SemanticObject> = Box::new(AdtObject::new(Stack::new()));
        for op in [
            StackOp::Push(Value::Int(4)),
            StackOp::Push(Value::Int(2)),
            StackOp::Top,
            StackOp::Pop,
            StackOp::Pop,
            StackOp::Pop,
        ] {
            let r1 = typed.apply(&op);
            let r2 = erased.apply(&op.to_call());
            assert_eq!(r1, r2, "typed and erased results must agree for {op:?}");
        }
        assert!(erased.debug_state().contains("Stack"));
    }

    #[test]
    fn erased_classification_matches_typed_classification() {
        let erased: Box<dyn SemanticObject> = Box::new(AdtObject::new(Stack::new()));
        let push = StackOp::Push(Value::Int(1));
        let pop = StackOp::Pop;
        assert_eq!(
            erased.classify(&push.to_call(), &pop.to_call()),
            Stack::classify(&push, &pop)
        );
        assert_eq!(
            erased.classify(&pop.to_call(), &push.to_call()),
            Stack::classify(&pop, &push)
        );
    }

    #[test]
    fn state_eq_distinguishes_states_and_types() {
        let mut a = AdtObject::new(Stack::new());
        let b = AdtObject::new(Stack::new());
        assert!(a.state_eq(&b));
        a.apply(&StackOp::Push(Value::Int(9)).to_call());
        assert!(!a.state_eq(&b));

        let set = AdtObject::new(crate::set::Set::new());
        assert!(
            !a.state_eq(&set),
            "different data types never compare equal"
        );
    }

    #[test]
    fn boxed_clone_is_deep() {
        let mut a: Box<dyn SemanticObject> = Box::new(AdtObject::new(Stack::new()));
        let b = a.clone();
        a.apply(&StackOp::Push(Value::Int(1)).to_call());
        assert!(!a.state_eq(b.as_ref()), "clone must not share state");
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn erased_apply_rejects_foreign_calls() {
        let mut erased: Box<dyn SemanticObject> = Box::new(AdtObject::new(Stack::new()));
        // kind 17 is not a stack operation
        erased.apply(&OpCall::nullary(17));
    }

    #[test]
    fn readonly_ops_are_flagged_and_never_mutate() {
        use crate::counter::{Counter, CounterOp};
        use crate::page::{Page, PageOp};
        use crate::queue::{FifoQueue, QueueOp};
        use crate::set::{Set, SetOp};
        use crate::table::{TableObject, TableOp};

        // The snapshot-read path relies on this contract: a call flagged
        // readonly may be applied to a shared historical version without
        // changing it. Each case seeds some state, then checks the flag and
        // re-applies every readonly op, asserting state_eq before/after.
        fn check(
            mut obj: Box<dyn SemanticObject>,
            setup: &[OpCall],
            readonly: &[OpCall],
            mutator: &OpCall,
        ) {
            for c in setup {
                obj.apply(c);
            }
            assert!(
                !obj.is_readonly(mutator),
                "{mutator} must not be readonly on {}",
                obj.type_name()
            );
            for c in readonly {
                assert!(
                    obj.is_readonly(c),
                    "{c} must be readonly on {}",
                    obj.type_name()
                );
                let before = obj.boxed_clone();
                obj.apply(c);
                assert!(
                    obj.state_eq(before.as_ref()),
                    "readonly {c} mutated {}",
                    obj.type_name()
                );
            }
        }

        check(
            Box::new(AdtObject::new(Counter::new())),
            &[CounterOp::Increment(5).to_call()],
            &[CounterOp::Read.to_call()],
            &CounterOp::Increment(1).to_call(),
        );
        check(
            Box::new(AdtObject::new(Page::new())),
            &[PageOp::Write(Value::Int(9)).to_call()],
            &[PageOp::Read.to_call()],
            &PageOp::Write(Value::Int(1)).to_call(),
        );
        check(
            Box::new(AdtObject::new(FifoQueue::new())),
            &[QueueOp::Enqueue(Value::Int(1)).to_call()],
            &[QueueOp::Front.to_call()],
            &QueueOp::Dequeue.to_call(),
        );
        check(
            Box::new(AdtObject::new(Set::new())),
            &[SetOp::Insert(Value::Int(3)).to_call()],
            &[
                SetOp::Member(Value::Int(3)).to_call(),
                SetOp::Member(Value::Int(4)).to_call(),
            ],
            &SetOp::Insert(Value::Int(4)).to_call(),
        );
        check(
            Box::new(AdtObject::new(Stack::new())),
            &[StackOp::Push(Value::Int(2)).to_call()],
            &[StackOp::Top.to_call()],
            &StackOp::Pop.to_call(),
        );
        check(
            Box::new(AdtObject::new(TableObject::new())),
            &[TableOp::Insert(Value::str("k"), Value::Int(1)).to_call()],
            &[
                TableOp::Lookup(Value::str("k")).to_call(),
                TableOp::Size.to_call(),
            ],
            &TableOp::Delete(Value::str("k")).to_call(),
        );
        // Unknown calls are conservatively not readonly.
        let stack: Box<dyn SemanticObject> = Box::new(AdtObject::new(Stack::new()));
        assert!(!stack.is_readonly(&OpCall::nullary(17)));
    }

    #[test]
    fn apply_all_runs_in_order() {
        let mut s = Stack::new();
        let results = s.apply_all(&[
            StackOp::Push(Value::Int(1)),
            StackOp::Push(Value::Int(2)),
            StackOp::Pop,
        ]);
        assert_eq!(
            results,
            vec![OpResult::Ok, OpResult::Ok, OpResult::Value(Value::Int(2))]
        );
    }
}
