//! The `Table` data type: a keyed store with insert / delete / lookup /
//! size / modify (paper Section 3.2.4, Tables VII and VIII).
//!
//! `size` is the interesting operation: it does not commute with `insert`
//! or `delete` (they change the count it reports), yet `insert` and `delete`
//! **are recoverable relative to `size`** — their return values depend only
//! on key presence, which `size` never changes. The converse does not hold:
//! a `size` requested while an uncommitted `insert`/`delete` is in the log
//! would observe their effects, so it must wait.

use crate::compat::{CompatibilityTable, TableEntry};
use crate::op::{AdtOp, OpCall, OpResult};
use crate::spec::AdtSpec;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A keyed table of `(key, item)` pairs with unique keys.
///
/// Named `TableObject` to avoid clashing with the ubiquitous "table" noun in
/// database code.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableObject {
    entries: BTreeMap<Value, Value>,
}

impl TableObject {
    /// An empty table.
    pub fn new() -> Self {
        TableObject {
            entries: BTreeMap::new(),
        }
    }

    /// Build a table from `(key, item)` pairs (later duplicates win).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Value, Value)>) -> Self {
        TableObject {
            entries: pairs.into_iter().collect(),
        }
    }

    /// Direct state accessor (not the transactional `lookup`).
    pub fn get(&self, key: &Value) -> Option<&Value> {
        self.entries.get(key)
    }
}

/// Operations on a [`TableObject`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableOp {
    /// Insert a new `(key, item)` pair. Fails if the key is already present.
    Insert(Value, Value),
    /// Delete the pair with the given key. Fails if the key is absent.
    Delete(Value),
    /// Return the item associated with the key, or `null` if absent.
    Lookup(Value),
    /// Return the number of entries.
    Size,
    /// Replace the item associated with the key. Fails if the key is absent.
    Modify(Value, Value),
}

/// Kind index of `insert`.
pub const TABLE_INSERT: usize = 0;
/// Kind index of `delete`.
pub const TABLE_DELETE: usize = 1;
/// Kind index of `lookup`.
pub const TABLE_LOOKUP: usize = 2;
/// Kind index of `size`.
pub const TABLE_SIZE: usize = 3;
/// Kind index of `modify`.
pub const TABLE_MODIFY: usize = 4;

const TABLE_OP_NAMES: &[&str] = &["insert", "delete", "lookup", "size", "modify"];

impl AdtOp for TableOp {
    const KINDS: usize = 5;

    fn kind(&self) -> usize {
        match self {
            TableOp::Insert(_, _) => TABLE_INSERT,
            TableOp::Delete(_) => TABLE_DELETE,
            TableOp::Lookup(_) => TABLE_LOOKUP,
            TableOp::Size => TABLE_SIZE,
            TableOp::Modify(_, _) => TABLE_MODIFY,
        }
    }

    fn kind_name(&self) -> &'static str {
        TABLE_OP_NAMES[self.kind()]
    }

    fn kind_names() -> &'static [&'static str] {
        TABLE_OP_NAMES
    }

    fn to_call(&self) -> OpCall {
        match self {
            TableOp::Insert(k, v) => OpCall::binary(TABLE_INSERT, k.clone(), v.clone()),
            TableOp::Delete(k) => OpCall::unary(TABLE_DELETE, k.clone()),
            TableOp::Lookup(k) => OpCall::unary(TABLE_LOOKUP, k.clone()),
            TableOp::Size => OpCall::nullary(TABLE_SIZE),
            TableOp::Modify(k, v) => OpCall::binary(TABLE_MODIFY, k.clone(), v.clone()),
        }
    }

    fn from_call(call: &OpCall) -> Option<Self> {
        match call.kind {
            TABLE_INSERT => Some(TableOp::Insert(
                call.params.first()?.clone(),
                call.params.get(1)?.clone(),
            )),
            TABLE_DELETE => Some(TableOp::Delete(call.params.first()?.clone())),
            TABLE_LOOKUP => Some(TableOp::Lookup(call.params.first()?.clone())),
            TABLE_SIZE => Some(TableOp::Size),
            TABLE_MODIFY => Some(TableOp::Modify(
                call.params.first()?.clone(),
                call.params.get(1)?.clone(),
            )),
            _ => None,
        }
    }

    fn is_readonly(&self) -> bool {
        matches!(self, TableOp::Lookup(_) | TableOp::Size)
    }
}

impl AdtSpec for TableObject {
    type Op = TableOp;
    const TYPE_NAME: &'static str = "table";

    fn apply(&mut self, op: &Self::Op) -> OpResult {
        match op {
            TableOp::Insert(k, v) => {
                if self.entries.contains_key(k) {
                    OpResult::Failure
                } else {
                    self.entries.insert(k.clone(), v.clone());
                    OpResult::Success
                }
            }
            TableOp::Delete(k) => {
                if self.entries.remove(k).is_some() {
                    OpResult::Success
                } else {
                    OpResult::Failure
                }
            }
            TableOp::Lookup(k) => match self.entries.get(k) {
                Some(v) => OpResult::Value(v.clone()),
                None => OpResult::Null,
            },
            TableOp::Size => OpResult::Value(Value::Int(self.entries.len() as i64)),
            TableOp::Modify(k, v) => {
                if let Some(slot) = self.entries.get_mut(k) {
                    *slot = v.clone();
                    OpResult::Success
                } else {
                    OpResult::Failure
                }
            }
        }
    }

    /// Table VII — commutativity for Table.
    ///
    /// | requested \ executed | insert | delete | lookup | size | modify |
    /// |---|---|---|---|---|---|
    /// | insert | Yes-DP | Yes-DP | Yes-DP | No | Yes-DP |
    /// | delete | Yes-DP | Yes-DP | Yes-DP | No | Yes-DP |
    /// | lookup | Yes-DP | Yes-DP | Yes | Yes | Yes-DP |
    /// | size   | No | No | Yes | Yes | Yes |
    /// | modify | Yes-DP | Yes-DP | Yes-DP | Yes | Yes-DP |
    fn commutativity_table() -> &'static CompatibilityTable {
        static TABLE: OnceLock<CompatibilityTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            use TableEntry::*;
            CompatibilityTable::from_rows(
                "Table commutativity (Table VII)",
                TABLE_OP_NAMES,
                &[
                    &[
                        YesDifferentParam,
                        YesDifferentParam,
                        YesDifferentParam,
                        No,
                        YesDifferentParam,
                    ],
                    &[
                        YesDifferentParam,
                        YesDifferentParam,
                        YesDifferentParam,
                        No,
                        YesDifferentParam,
                    ],
                    &[
                        YesDifferentParam,
                        YesDifferentParam,
                        Yes,
                        Yes,
                        YesDifferentParam,
                    ],
                    &[No, No, Yes, Yes, Yes],
                    &[
                        YesDifferentParam,
                        YesDifferentParam,
                        YesDifferentParam,
                        Yes,
                        YesDifferentParam,
                    ],
                ],
            )
        })
    }

    /// Table VIII — recoverability for Table.
    ///
    /// | requested \ executed | insert | delete | lookup | size | modify |
    /// |---|---|---|---|---|---|
    /// | insert | Yes-DP | Yes-DP | Yes | Yes | Yes |
    /// | delete | Yes-DP | Yes-DP | Yes | Yes | Yes |
    /// | lookup | Yes-DP | Yes-DP | Yes | Yes | Yes-DP |
    /// | size   | No | No | Yes | Yes | Yes |
    /// | modify | Yes-DP | Yes-DP | Yes | Yes | Yes |
    fn recoverability_table() -> &'static CompatibilityTable {
        static TABLE: OnceLock<CompatibilityTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            use TableEntry::*;
            CompatibilityTable::from_rows(
                "Table recoverability (Table VIII)",
                TABLE_OP_NAMES,
                &[
                    &[YesDifferentParam, YesDifferentParam, Yes, Yes, Yes],
                    &[YesDifferentParam, YesDifferentParam, Yes, Yes, Yes],
                    &[
                        YesDifferentParam,
                        YesDifferentParam,
                        Yes,
                        Yes,
                        YesDifferentParam,
                    ],
                    &[No, No, Yes, Yes, Yes],
                    &[YesDifferentParam, YesDifferentParam, Yes, Yes, Yes],
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

    fn probe_states() -> Vec<TableObject> {
        vec![
            TableObject::new(),
            TableObject::from_pairs([(Value::Int(1), Value::Int(10))]),
            TableObject::from_pairs([
                (Value::Int(1), Value::Int(10)),
                (Value::Int(2), Value::Int(20)),
            ]),
            TableObject::from_pairs([
                (Value::str("a"), Value::Int(1)),
                (Value::str("b"), Value::Int(2)),
                (Value::Int(3), Value::Int(30)),
            ]),
        ]
    }

    fn probe_ops() -> Vec<TableOp> {
        vec![
            TableOp::Insert(Value::Int(1), Value::Int(100)),
            TableOp::Insert(Value::Int(5), Value::Int(500)),
            TableOp::Delete(Value::Int(1)),
            TableOp::Delete(Value::Int(9)),
            TableOp::Lookup(Value::Int(1)),
            TableOp::Lookup(Value::Int(9)),
            TableOp::Size,
            TableOp::Modify(Value::Int(1), Value::Int(111)),
            TableOp::Modify(Value::Int(9), Value::Int(999)),
        ]
    }

    #[test]
    fn table_semantics() {
        let mut t = TableObject::new();
        assert_eq!(t.apply(&TableOp::Size), OpResult::Value(Value::Int(0)));
        assert_eq!(
            t.apply(&TableOp::Insert(Value::Int(1), Value::Int(10))),
            OpResult::Success
        );
        assert_eq!(
            t.apply(&TableOp::Insert(Value::Int(1), Value::Int(99))),
            OpResult::Failure,
            "duplicate key insert fails"
        );
        assert_eq!(
            t.apply(&TableOp::Lookup(Value::Int(1))),
            OpResult::Value(Value::Int(10))
        );
        assert_eq!(t.apply(&TableOp::Lookup(Value::Int(2))), OpResult::Null);
        assert_eq!(
            t.apply(&TableOp::Modify(Value::Int(1), Value::Int(11))),
            OpResult::Success
        );
        assert_eq!(t.get(&Value::Int(1)), Some(&Value::Int(11)));
        assert_eq!(
            t.apply(&TableOp::Modify(Value::Int(2), Value::Int(22))),
            OpResult::Failure
        );
        assert_eq!(t.apply(&TableOp::Size), OpResult::Value(Value::Int(1)));
        assert_eq!(t.apply(&TableOp::Delete(Value::Int(1))), OpResult::Success);
        assert_eq!(t.apply(&TableOp::Delete(Value::Int(1))), OpResult::Failure);
        assert_eq!(t, TableObject::new());
    }

    #[test]
    fn table_vii_commutativity_entries() {
        let t = TableObject::commutativity_table();
        assert_eq!(t.entry(TABLE_INSERT, TABLE_SIZE), TableEntry::No);
        assert_eq!(t.entry(TABLE_SIZE, TABLE_INSERT), TableEntry::No);
        assert_eq!(t.entry(TABLE_SIZE, TABLE_DELETE), TableEntry::No);
        assert_eq!(t.entry(TABLE_SIZE, TABLE_LOOKUP), TableEntry::Yes);
        assert_eq!(t.entry(TABLE_SIZE, TABLE_MODIFY), TableEntry::Yes);
        assert_eq!(t.entry(TABLE_LOOKUP, TABLE_LOOKUP), TableEntry::Yes);
        assert_eq!(
            t.entry(TABLE_INSERT, TABLE_INSERT),
            TableEntry::YesDifferentParam
        );
        assert_eq!(t.entry(TABLE_MODIFY, TABLE_SIZE), TableEntry::Yes);
    }

    #[test]
    fn table_viii_recoverability_entries() {
        let t = TableObject::recoverability_table();
        // The paper's headline asymmetry: insert/delete are recoverable
        // relative to size, size is not recoverable relative to them.
        assert_eq!(t.entry(TABLE_INSERT, TABLE_SIZE), TableEntry::Yes);
        assert_eq!(t.entry(TABLE_DELETE, TABLE_SIZE), TableEntry::Yes);
        assert_eq!(t.entry(TABLE_SIZE, TABLE_INSERT), TableEntry::No);
        assert_eq!(t.entry(TABLE_SIZE, TABLE_DELETE), TableEntry::No);
        assert_eq!(t.entry(TABLE_INSERT, TABLE_MODIFY), TableEntry::Yes);
        assert_eq!(t.entry(TABLE_MODIFY, TABLE_MODIFY), TableEntry::Yes);
        assert_eq!(
            t.entry(TABLE_LOOKUP, TABLE_MODIFY),
            TableEntry::YesDifferentParam
        );
    }

    #[test]
    fn size_asymmetry_is_captured_by_classification() {
        let insert = TableOp::Insert(Value::Int(7), Value::Int(70));
        let delete = TableOp::Delete(Value::Int(7));
        assert_eq!(
            TableObject::classify(&insert, &TableOp::Size),
            Compatibility::Recoverable
        );
        assert_eq!(
            TableObject::classify(&delete, &TableOp::Size),
            Compatibility::Recoverable
        );
        assert_eq!(
            TableObject::classify(&TableOp::Size, &insert),
            Compatibility::NonRecoverable
        );
        assert_eq!(
            TableObject::classify(&TableOp::Size, &delete),
            Compatibility::NonRecoverable
        );
        assert_eq!(
            TableObject::classify(&TableOp::Size, &TableOp::Size),
            Compatibility::Commutative
        );
    }

    #[test]
    fn tables_are_sound_wrt_definitions() {
        let violations = verify_tables::<TableObject>(&probe_states(), &probe_ops());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn conservative_entries_are_justified() {
        let states = probe_states();
        // size really is unrecoverable relative to insert
        assert!(!check_recoverable(
            &states,
            &TableOp::Size,
            &TableOp::Insert(Value::Int(42), Value::Int(0))
        ));
        // insert of the same key is genuinely non-commutative
        assert!(!check_commutative(
            &states,
            &TableOp::Insert(Value::Int(5), Value::Int(1)),
            &TableOp::Insert(Value::Int(5), Value::Int(2))
        ));
    }

    #[test]
    fn op_call_round_trip() {
        for op in probe_ops() {
            let call = op.to_call();
            assert_eq!(TableOp::from_call(&call), Some(op.clone()));
            assert_eq!(call.kind, op.kind());
        }
        assert_eq!(TableOp::from_call(&OpCall::nullary(11)), None);
        assert_eq!(TableOp::from_call(&OpCall::unary(TABLE_INSERT, 1)), None);
        assert_eq!(TableOp::Size.kind_name(), "size");
    }

    fn arb_key() -> impl Strategy<Value = Value> {
        (0i64..6).prop_map(Value::Int)
    }

    fn arb_table() -> impl Strategy<Value = TableObject> {
        proptest::collection::btree_map(arb_key(), (0i64..100).prop_map(Value::Int), 0..5)
            .prop_map(|m| TableObject { entries: m })
    }

    fn arb_op() -> impl Strategy<Value = TableOp> {
        prop_oneof![
            (arb_key(), 0i64..100).prop_map(|(k, v)| TableOp::Insert(k, Value::Int(v))),
            arb_key().prop_map(TableOp::Delete),
            arb_key().prop_map(TableOp::Lookup),
            Just(TableOp::Size),
            (arb_key(), 0i64..100).prop_map(|(k, v)| TableOp::Modify(k, Value::Int(v))),
        ]
    }

    proptest! {
        #[test]
        fn prop_tables_sound_on_random_states(
            states in proptest::collection::vec(arb_table(), 1..4),
            ops in proptest::collection::vec(arb_op(), 1..7),
        ) {
            let violations = verify_tables::<TableObject>(&states, &ops);
            prop_assert!(violations.is_empty(), "{violations:?}");
        }

        #[test]
        fn prop_size_counts_inserts(table in arb_table(), k in 10i64..20) {
            let mut t = table;
            let before = match t.apply(&TableOp::Size) {
                OpResult::Value(Value::Int(n)) => n,
                other => panic!("unexpected size result {other:?}"),
            };
            t.apply(&TableOp::Insert(Value::Int(k), Value::Int(0)));
            prop_assert_eq!(t.apply(&TableOp::Size), OpResult::Value(Value::Int(before + 1)));
        }
    }
}
