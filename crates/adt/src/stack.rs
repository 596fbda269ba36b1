//! The `Stack` data type: push / pop / top (paper Section 3.2.2,
//! Tables III and IV).
//!
//! Two pushes do not commute — the final stack differs with the order — but
//! a push is **recoverable** relative to another push (and relative to pop
//! and top): a push always returns `ok`, so its observable semantics do not
//! depend on earlier uncommitted operations. This is the paper's motivating
//! example: under commutativity-based protocols two pushes serialize, under
//! recoverability they run in parallel with only a commit-order constraint.

use crate::compat::{CompatibilityTable, TableEntry};
use crate::op::{AdtOp, OpCall, OpResult};
use crate::spec::AdtSpec;
use crate::value::Value;
use std::sync::OnceLock;

/// A LIFO stack of [`Value`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stack {
    items: Vec<Value>,
}

impl Stack {
    /// An empty stack.
    pub fn new() -> Self {
        Stack { items: Vec::new() }
    }

    /// Build a stack from bottom-to-top values.
    pub fn from_values(items: Vec<Value>) -> Self {
        Stack { items }
    }

    /// Number of elements currently on the stack.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the stack holds no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The stack contents, bottom to top.
    pub fn items(&self) -> &[Value] {
        &self.items
    }
}

/// Operations on a [`Stack`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackOp {
    /// Push an element; returns `ok`.
    Push(Value),
    /// Remove and return the top element; returns `null` on an empty stack.
    Pop,
    /// Return the top element without removing it; `null` when empty.
    Top,
}

/// Kind index of `push`.
pub const STACK_PUSH: usize = 0;
/// Kind index of `pop`.
pub const STACK_POP: usize = 1;
/// Kind index of `top`.
pub const STACK_TOP: usize = 2;

const STACK_OP_NAMES: &[&str] = &["push", "pop", "top"];

impl AdtOp for StackOp {
    const KINDS: usize = 3;

    fn kind(&self) -> usize {
        match self {
            StackOp::Push(_) => STACK_PUSH,
            StackOp::Pop => STACK_POP,
            StackOp::Top => STACK_TOP,
        }
    }

    fn kind_name(&self) -> &'static str {
        STACK_OP_NAMES[self.kind()]
    }

    fn kind_names() -> &'static [&'static str] {
        STACK_OP_NAMES
    }

    fn to_call(&self) -> OpCall {
        match self {
            StackOp::Push(v) => OpCall::unary(STACK_PUSH, v.clone()),
            StackOp::Pop => OpCall::nullary(STACK_POP),
            StackOp::Top => OpCall::nullary(STACK_TOP),
        }
    }

    fn from_call(call: &OpCall) -> Option<Self> {
        match call.kind {
            STACK_PUSH => Some(StackOp::Push(call.params.first()?.clone())),
            STACK_POP => Some(StackOp::Pop),
            STACK_TOP => Some(StackOp::Top),
            _ => None,
        }
    }

    fn is_readonly(&self) -> bool {
        matches!(self, StackOp::Top)
    }
}

impl AdtSpec for Stack {
    type Op = StackOp;
    const TYPE_NAME: &'static str = "stack";

    fn apply(&mut self, op: &Self::Op) -> OpResult {
        match op {
            StackOp::Push(v) => {
                self.items.push(v.clone());
                OpResult::Ok
            }
            StackOp::Pop => match self.items.pop() {
                Some(v) => OpResult::Value(v),
                None => OpResult::Null,
            },
            StackOp::Top => match self.items.last() {
                Some(v) => OpResult::Value(v.clone()),
                None => OpResult::Null,
            },
        }
    }

    /// Table III — commutativity for Stack.
    ///
    /// | requested \ executed | push | pop | top |
    /// |---|---|---|---|
    /// | push | Yes-SP | No | No |
    /// | pop  | No | No | No |
    /// | top  | No | No | Yes |
    fn commutativity_table() -> &'static CompatibilityTable {
        static TABLE: OnceLock<CompatibilityTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            use TableEntry::*;
            CompatibilityTable::from_rows(
                "Stack commutativity (Table III)",
                STACK_OP_NAMES,
                &[&[YesSameParam, No, No], &[No, No, No], &[No, No, Yes]],
            )
        })
    }

    /// Table IV — recoverability for Stack.
    ///
    /// | requested \ executed | push | pop | top |
    /// |---|---|---|---|
    /// | push | Yes | Yes | Yes |
    /// | pop  | No | No | Yes |
    /// | top  | No | No | Yes |
    fn recoverability_table() -> &'static CompatibilityTable {
        static TABLE: OnceLock<CompatibilityTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            use TableEntry::*;
            CompatibilityTable::from_rows(
                "Stack recoverability (Table IV)",
                STACK_OP_NAMES,
                &[&[Yes, Yes, Yes], &[No, No, Yes], &[No, No, Yes]],
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{check_commutative, check_recoverable, verify_tables};
    use crate::Compatibility;
    use proptest::prelude::*;

    fn probe_states() -> Vec<Stack> {
        vec![
            Stack::new(),
            Stack::from_values(vec![Value::Int(1)]),
            Stack::from_values(vec![Value::Int(1), Value::Int(2)]),
            Stack::from_values(vec![Value::Int(3), Value::Int(3)]),
            Stack::from_values(vec![Value::str("a"), Value::Int(5), Value::Int(7)]),
        ]
    }

    fn probe_ops() -> Vec<StackOp> {
        vec![
            StackOp::Push(Value::Int(1)),
            StackOp::Push(Value::Int(2)),
            StackOp::Push(Value::str("a")),
            StackOp::Pop,
            StackOp::Top,
        ]
    }

    #[test]
    fn stack_semantics() {
        let mut s = Stack::new();
        assert!(s.is_empty());
        assert_eq!(s.apply(&StackOp::Pop), OpResult::Null);
        assert_eq!(s.apply(&StackOp::Top), OpResult::Null);
        assert_eq!(s.apply(&StackOp::Push(Value::Int(4))), OpResult::Ok);
        assert_eq!(s.apply(&StackOp::Push(Value::Int(2))), OpResult::Ok);
        assert_eq!(s.len(), 2);
        assert_eq!(s.items(), &[Value::Int(4), Value::Int(2)]);
        assert_eq!(s.apply(&StackOp::Top), OpResult::Value(Value::Int(2)));
        assert_eq!(s.apply(&StackOp::Pop), OpResult::Value(Value::Int(2)));
        assert_eq!(s.apply(&StackOp::Pop), OpResult::Value(Value::Int(4)));
        assert!(s.items().is_empty());
    }

    #[test]
    fn table_iii_commutativity_entries() {
        let t = Stack::commutativity_table();
        assert_eq!(t.entry(STACK_PUSH, STACK_PUSH), TableEntry::YesSameParam);
        assert_eq!(t.entry(STACK_PUSH, STACK_POP), TableEntry::No);
        assert_eq!(t.entry(STACK_POP, STACK_PUSH), TableEntry::No);
        assert_eq!(t.entry(STACK_POP, STACK_POP), TableEntry::No);
        assert_eq!(t.entry(STACK_TOP, STACK_TOP), TableEntry::Yes);
        assert_eq!(t.entry(STACK_TOP, STACK_PUSH), TableEntry::No);
    }

    #[test]
    fn table_iv_recoverability_entries() {
        let t = Stack::recoverability_table();
        // push is recoverable relative to everything
        assert_eq!(t.entry(STACK_PUSH, STACK_PUSH), TableEntry::Yes);
        assert_eq!(t.entry(STACK_PUSH, STACK_POP), TableEntry::Yes);
        assert_eq!(t.entry(STACK_PUSH, STACK_TOP), TableEntry::Yes);
        // pop / top are only recoverable relative to top
        assert_eq!(t.entry(STACK_POP, STACK_PUSH), TableEntry::No);
        assert_eq!(t.entry(STACK_POP, STACK_POP), TableEntry::No);
        assert_eq!(t.entry(STACK_POP, STACK_TOP), TableEntry::Yes);
        assert_eq!(t.entry(STACK_TOP, STACK_PUSH), TableEntry::No);
        assert_eq!(t.entry(STACK_TOP, STACK_POP), TableEntry::No);
        assert_eq!(t.entry(STACK_TOP, STACK_TOP), TableEntry::Yes);
    }

    #[test]
    fn two_pushes_are_recoverable_but_do_not_commute() {
        let p1 = StackOp::Push(Value::Int(4));
        let p2 = StackOp::Push(Value::Int(2));
        assert_eq!(Stack::classify(&p2, &p1), Compatibility::Recoverable);
        assert_eq!(Stack::classify(&p1, &p2), Compatibility::Recoverable);
        assert_eq!(
            Stack::classify(&p1, &p1),
            Compatibility::Commutative,
            "pushes of the same element commute (Yes-SP)"
        );
        assert_eq!(
            Stack::classify(&StackOp::Pop, &p1),
            Compatibility::NonRecoverable
        );
        assert_eq!(
            Stack::classify(&StackOp::Top, &p1),
            Compatibility::NonRecoverable
        );
        assert_eq!(
            Stack::classify(&p1, &StackOp::Top),
            Compatibility::Recoverable,
            "push is recoverable relative to top"
        );
        assert_eq!(
            Stack::classify(&StackOp::Pop, &StackOp::Top),
            Compatibility::Recoverable,
            "pop requested after an uncommitted top is recoverable"
        );
        assert_eq!(
            Stack::classify(&StackOp::Top, &StackOp::Top),
            Compatibility::Commutative
        );
    }

    #[test]
    fn tables_are_sound_wrt_definitions() {
        let violations = verify_tables::<Stack>(&probe_states(), &probe_ops());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn pop_after_pop_really_is_unrecoverable() {
        // Sanity-check the conservative entries against the definitions on a
        // state where they matter.
        let states = vec![Stack::from_values(vec![Value::Int(1), Value::Int(2)])];
        assert!(!check_recoverable(&states, &StackOp::Pop, &StackOp::Pop));
        assert!(!check_commutative(&states, &StackOp::Pop, &StackOp::Top));
    }

    #[test]
    fn op_call_round_trip() {
        for op in probe_ops() {
            let call = op.to_call();
            assert_eq!(StackOp::from_call(&call), Some(op.clone()));
            assert_eq!(call.kind, op.kind());
            assert_eq!(StackOp::kind_names()[op.kind()], op.kind_name());
        }
        assert_eq!(StackOp::from_call(&OpCall::nullary(77)), None);
        assert_eq!(StackOp::from_call(&OpCall::nullary(STACK_PUSH)), None);
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (-20i64..20).prop_map(Value::Int),
            proptest::bool::ANY.prop_map(Value::Bool),
        ]
    }

    fn arb_stack() -> impl Strategy<Value = Stack> {
        proptest::collection::vec(arb_value(), 0..6).prop_map(Stack::from_values)
    }

    fn arb_op() -> impl Strategy<Value = StackOp> {
        prop_oneof![
            arb_value().prop_map(StackOp::Push),
            Just(StackOp::Pop),
            Just(StackOp::Top),
        ]
    }

    proptest! {
        #[test]
        fn prop_push_recoverable_relative_to_anything(s in arb_stack(), earlier in arb_op(), v in arb_value()) {
            let states = vec![s];
            prop_assert!(check_recoverable(&states, &StackOp::Push(v), &earlier));
        }

        #[test]
        fn prop_tables_sound_on_random_states(
            states in proptest::collection::vec(arb_stack(), 1..5),
            ops in proptest::collection::vec(arb_op(), 1..6),
        ) {
            let violations = verify_tables::<Stack>(&states, &ops);
            prop_assert!(violations.is_empty(), "{violations:?}");
        }

        #[test]
        fn prop_push_pop_is_identity(s in arb_stack(), v in arb_value()) {
            let mut s2 = s.clone();
            s2.apply(&StackOp::Push(v.clone()));
            let popped = s2.apply(&StackOp::Pop);
            prop_assert_eq!(popped, OpResult::Value(v));
            prop_assert_eq!(s2, s);
        }
    }
}
