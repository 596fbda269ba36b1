//! The `Set` data type: insert / delete / member (paper Section 3.2.3,
//! Tables V and VI).
//!
//! `insert` adds an item and returns `ok`; `delete` removes an item and
//! reports `Success` / `Failure` depending on presence; `member` tests
//! membership. Most pairs are compatible when their parameters differ
//! (`Yes-DP`); under recoverability, `insert` becomes compatible with
//! *everything* because its return value is unconditionally `ok`.

use crate::compat::{CompatibilityTable, TableEntry};
use crate::op::{AdtOp, OpCall, OpResult};
use crate::spec::AdtSpec;
use crate::value::Value;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// A set of [`Value`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Set {
    items: BTreeSet<Value>,
}

impl Set {
    /// An empty set.
    pub fn new() -> Self {
        Set {
            items: BTreeSet::new(),
        }
    }

    /// Build a set from the given values.
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Self {
        Set {
            items: values.into_iter().collect(),
        }
    }

    /// Membership test (direct state accessor, not the transactional op).
    pub fn contains(&self, v: &Value) -> bool {
        self.items.contains(v)
    }
}

/// Operations on a [`Set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetOp {
    /// Add an item; returns `ok` (idempotent).
    Insert(Value),
    /// Remove an item; returns `Success` if it was present, else `Failure`.
    Delete(Value),
    /// Test membership; returns a boolean value.
    Member(Value),
}

/// Kind index of `insert`.
pub const SET_INSERT: usize = 0;
/// Kind index of `delete`.
pub const SET_DELETE: usize = 1;
/// Kind index of `member`.
pub const SET_MEMBER: usize = 2;

const SET_OP_NAMES: &[&str] = &["insert", "delete", "member"];

impl AdtOp for SetOp {
    const KINDS: usize = 3;

    fn kind(&self) -> usize {
        match self {
            SetOp::Insert(_) => SET_INSERT,
            SetOp::Delete(_) => SET_DELETE,
            SetOp::Member(_) => SET_MEMBER,
        }
    }

    fn kind_name(&self) -> &'static str {
        SET_OP_NAMES[self.kind()]
    }

    fn kind_names() -> &'static [&'static str] {
        SET_OP_NAMES
    }

    fn to_call(&self) -> OpCall {
        match self {
            SetOp::Insert(v) => OpCall::unary(SET_INSERT, v.clone()),
            SetOp::Delete(v) => OpCall::unary(SET_DELETE, v.clone()),
            SetOp::Member(v) => OpCall::unary(SET_MEMBER, v.clone()),
        }
    }

    fn from_call(call: &OpCall) -> Option<Self> {
        let param = call.params.first()?.clone();
        match call.kind {
            SET_INSERT => Some(SetOp::Insert(param)),
            SET_DELETE => Some(SetOp::Delete(param)),
            SET_MEMBER => Some(SetOp::Member(param)),
            _ => None,
        }
    }

    fn is_readonly(&self) -> bool {
        matches!(self, SetOp::Member(_))
    }
}

impl AdtSpec for Set {
    type Op = SetOp;
    const TYPE_NAME: &'static str = "set";

    fn apply(&mut self, op: &Self::Op) -> OpResult {
        match op {
            SetOp::Insert(v) => {
                self.items.insert(v.clone());
                OpResult::Ok
            }
            SetOp::Delete(v) => {
                if self.items.remove(v) {
                    OpResult::Success
                } else {
                    OpResult::Failure
                }
            }
            SetOp::Member(v) => OpResult::Value(Value::Bool(self.items.contains(v))),
        }
    }

    /// Table V — commutativity for Set.
    ///
    /// | requested \ executed | insert | delete | member |
    /// |---|---|---|---|
    /// | insert | Yes | Yes-DP | Yes-DP |
    /// | delete | Yes-DP | Yes-DP | Yes-DP |
    /// | member | Yes-DP | Yes-DP | Yes |
    fn commutativity_table() -> &'static CompatibilityTable {
        static TABLE: OnceLock<CompatibilityTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            use TableEntry::*;
            CompatibilityTable::from_rows(
                "Set commutativity (Table V)",
                SET_OP_NAMES,
                &[
                    &[Yes, YesDifferentParam, YesDifferentParam],
                    &[YesDifferentParam, YesDifferentParam, YesDifferentParam],
                    &[YesDifferentParam, YesDifferentParam, Yes],
                ],
            )
        })
    }

    /// Table VI — recoverability for Set.
    ///
    /// | requested \ executed | insert | delete | member |
    /// |---|---|---|---|
    /// | insert | Yes | Yes | Yes |
    /// | delete | Yes-DP | Yes-DP | Yes |
    /// | member | Yes-DP | Yes-DP | Yes |
    fn recoverability_table() -> &'static CompatibilityTable {
        static TABLE: OnceLock<CompatibilityTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            use TableEntry::*;
            CompatibilityTable::from_rows(
                "Set recoverability (Table VI)",
                SET_OP_NAMES,
                &[
                    &[Yes, Yes, Yes],
                    &[YesDifferentParam, YesDifferentParam, Yes],
                    &[YesDifferentParam, YesDifferentParam, Yes],
                ],
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

    fn probe_states() -> Vec<Set> {
        vec![
            Set::new(),
            Set::from_values([Value::Int(3)]),
            Set::from_values([Value::Int(3), Value::Int(7)]),
            Set::from_values([Value::Int(1), Value::Int(2), Value::Int(3)]),
        ]
    }

    fn probe_ops() -> Vec<SetOp> {
        vec![
            SetOp::Insert(Value::Int(3)),
            SetOp::Insert(Value::Int(7)),
            SetOp::Delete(Value::Int(3)),
            SetOp::Delete(Value::Int(9)),
            SetOp::Member(Value::Int(3)),
            SetOp::Member(Value::Int(9)),
        ]
    }

    #[test]
    fn set_semantics() {
        let mut s = Set::new();
        assert_eq!(
            s.apply(&SetOp::Member(Value::Int(3))),
            OpResult::Value(Value::Bool(false))
        );
        assert_eq!(s.apply(&SetOp::Insert(Value::Int(3))), OpResult::Ok);
        assert_eq!(s.apply(&SetOp::Insert(Value::Int(3))), OpResult::Ok);
        assert_eq!(s, Set::from_values([Value::Int(3)]));
        assert!(s.contains(&Value::Int(3)));
        assert_eq!(
            s.apply(&SetOp::Member(Value::Int(3))),
            OpResult::Value(Value::Bool(true))
        );
        assert_eq!(s.apply(&SetOp::Delete(Value::Int(3))), OpResult::Success);
        assert_eq!(s.apply(&SetOp::Delete(Value::Int(3))), OpResult::Failure);
        assert_eq!(s, Set::new());
    }

    #[test]
    fn table_v_commutativity_entries() {
        let t = Set::commutativity_table();
        assert_eq!(t.entry(SET_INSERT, SET_INSERT), TableEntry::Yes);
        assert_eq!(
            t.entry(SET_INSERT, SET_DELETE),
            TableEntry::YesDifferentParam
        );
        assert_eq!(
            t.entry(SET_INSERT, SET_MEMBER),
            TableEntry::YesDifferentParam
        );
        assert_eq!(
            t.entry(SET_DELETE, SET_DELETE),
            TableEntry::YesDifferentParam
        );
        assert_eq!(t.entry(SET_MEMBER, SET_MEMBER), TableEntry::Yes);
    }

    #[test]
    fn table_vi_recoverability_entries() {
        let t = Set::recoverability_table();
        // insert is recoverable relative to everything (returns "ok")
        assert_eq!(t.entry(SET_INSERT, SET_INSERT), TableEntry::Yes);
        assert_eq!(t.entry(SET_INSERT, SET_DELETE), TableEntry::Yes);
        assert_eq!(t.entry(SET_INSERT, SET_MEMBER), TableEntry::Yes);
        assert_eq!(
            t.entry(SET_DELETE, SET_INSERT),
            TableEntry::YesDifferentParam
        );
        assert_eq!(
            t.entry(SET_MEMBER, SET_INSERT),
            TableEntry::YesDifferentParam
        );
        assert_eq!(t.entry(SET_MEMBER, SET_MEMBER), TableEntry::Yes);
    }

    #[test]
    fn paper_example_insert_recoverable_relative_to_member() {
        // "insert is recoverable relative to member, as indicated by the Yes
        // entry (Table VI)"
        assert_eq!(
            Set::classify(&SetOp::Insert(Value::Int(3)), &SetOp::Member(Value::Int(3))),
            Compatibility::Recoverable
        );
        // ... while member after an uncommitted insert of the same element
        // conflicts (it would observe the insert's effect).
        assert_eq!(
            Set::classify(&SetOp::Member(Value::Int(3)), &SetOp::Insert(Value::Int(3))),
            Compatibility::NonRecoverable
        );
        // with different elements the two commute
        assert_eq!(
            Set::classify(&SetOp::Member(Value::Int(9)), &SetOp::Insert(Value::Int(3))),
            Compatibility::Commutative
        );
    }

    #[test]
    fn tables_are_sound_wrt_definitions() {
        let violations = verify_tables::<Set>(&probe_states(), &probe_ops());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn conservative_entries_are_justified() {
        let states = probe_states();
        // delete after insert of the same element is genuinely unrecoverable
        assert!(!check_recoverable(
            &states,
            &SetOp::Delete(Value::Int(9)),
            &SetOp::Insert(Value::Int(9))
        ));
        // delete/delete of the same element genuinely fails to commute
        assert!(!check_commutative(
            &states,
            &SetOp::Delete(Value::Int(3)),
            &SetOp::Delete(Value::Int(3))
        ));
    }

    #[test]
    fn op_call_round_trip() {
        for op in probe_ops() {
            let call = op.to_call();
            assert_eq!(SetOp::from_call(&call), Some(op.clone()));
        }
        assert_eq!(SetOp::from_call(&OpCall::nullary(5)), None);
        assert_eq!(SetOp::from_call(&OpCall::nullary(SET_INSERT)), None);
        assert_eq!(SetOp::Insert(Value::Null).kind_name(), "insert");
        assert_eq!(SetOp::Delete(Value::Null).kind_name(), "delete");
        assert_eq!(SetOp::Member(Value::Null).kind_name(), "member");
    }

    fn arb_elem() -> impl Strategy<Value = Value> {
        (0i64..8).prop_map(Value::Int)
    }

    fn arb_set() -> impl Strategy<Value = Set> {
        proptest::collection::btree_set(arb_elem(), 0..6).prop_map(|s| Set { items: s })
    }

    fn arb_op() -> impl Strategy<Value = SetOp> {
        prop_oneof![
            arb_elem().prop_map(SetOp::Insert),
            arb_elem().prop_map(SetOp::Delete),
            arb_elem().prop_map(SetOp::Member),
        ]
    }

    proptest! {
        #[test]
        fn prop_tables_sound_on_random_states(
            states in proptest::collection::vec(arb_set(), 1..5),
            ops in proptest::collection::vec(arb_op(), 1..7),
        ) {
            let violations = verify_tables::<Set>(&states, &ops);
            prop_assert!(violations.is_empty(), "{violations:?}");
        }

        #[test]
        fn prop_insert_recoverable_relative_to_anything(s in arb_set(), earlier in arb_op(), v in arb_elem()) {
            prop_assert!(check_recoverable(&[s], &SetOp::Insert(v), &earlier));
        }

        #[test]
        fn prop_insert_then_member_is_true(s in arb_set(), v in arb_elem()) {
            let mut s = s;
            s.apply(&SetOp::Insert(v.clone()));
            prop_assert_eq!(s.apply(&SetOp::Member(v)), OpResult::Value(Value::Bool(true)));
        }
    }
}
