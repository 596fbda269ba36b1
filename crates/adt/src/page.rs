//! The `Page` data type: the traditional read/write object (paper
//! Section 3.2.1, Tables I and II).
//!
//! Under a commutativity-only conflict definition, two operations conflict
//! whenever one of them is a write — three of the four pairs conflict. With
//! recoverability, only `(read, write)` — a read requested while an
//! uncommitted write is in the log — remains a conflict: a write requested
//! after a read or after another write returns `ok` regardless, so it is
//! recoverable. "Even for the read/write model of transactions, the
//! potential for parallelism increases under recoverability semantics."

use crate::compat::{CompatibilityTable, TableEntry};
use crate::op::{AdtOp, OpCall, OpResult};
use crate::spec::AdtSpec;
use crate::value::Value;
use std::sync::OnceLock;

/// A single read/write object holding one [`Value`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    value: Value,
}

impl Page {
    /// A fresh page holding [`Value::Null`].
    pub fn new() -> Self {
        Page { value: Value::Null }
    }

    /// A page initialised with the given value.
    pub fn with_value(value: Value) -> Self {
        Page { value }
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

/// Operations on a [`Page`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageOp {
    /// Return the page contents.
    Read,
    /// Replace the page contents; returns `ok`.
    Write(Value),
}

/// Kind index of `read`.
pub const PAGE_READ: usize = 0;
/// Kind index of `write`.
pub const PAGE_WRITE: usize = 1;

const PAGE_OP_NAMES: &[&str] = &["read", "write"];

impl AdtOp for PageOp {
    const KINDS: usize = 2;

    fn kind(&self) -> usize {
        match self {
            PageOp::Read => PAGE_READ,
            PageOp::Write(_) => PAGE_WRITE,
        }
    }

    fn kind_name(&self) -> &'static str {
        PAGE_OP_NAMES[self.kind()]
    }

    fn kind_names() -> &'static [&'static str] {
        PAGE_OP_NAMES
    }

    fn to_call(&self) -> OpCall {
        match self {
            PageOp::Read => OpCall::nullary(PAGE_READ),
            PageOp::Write(v) => OpCall::unary(PAGE_WRITE, v.clone()),
        }
    }

    fn from_call(call: &OpCall) -> Option<Self> {
        match call.kind {
            PAGE_READ => Some(PageOp::Read),
            PAGE_WRITE => Some(PageOp::Write(call.params.first()?.clone())),
            _ => None,
        }
    }

    fn is_readonly(&self) -> bool {
        matches!(self, PageOp::Read)
    }
}

impl AdtSpec for Page {
    type Op = PageOp;
    const TYPE_NAME: &'static str = "page";

    fn apply(&mut self, op: &Self::Op) -> OpResult {
        match op {
            PageOp::Read => OpResult::Value(self.value.clone()),
            PageOp::Write(v) => {
                self.value = v.clone();
                OpResult::Ok
            }
        }
    }

    /// Table I — commutativity for Page.
    ///
    /// | requested \ executed | read | write |
    /// |---|---|---|
    /// | read  | Yes | No |
    /// | write | No  | Yes-SP |
    fn commutativity_table() -> &'static CompatibilityTable {
        static TABLE: OnceLock<CompatibilityTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            use TableEntry::*;
            CompatibilityTable::from_rows(
                "Page commutativity (Table I)",
                PAGE_OP_NAMES,
                &[&[Yes, No], &[No, YesSameParam]],
            )
        })
    }

    /// Table II — recoverability for Page.
    ///
    /// | requested \ executed | read | write |
    /// |---|---|---|
    /// | read  | Yes | No |
    /// | write | Yes | Yes |
    fn recoverability_table() -> &'static CompatibilityTable {
        static TABLE: OnceLock<CompatibilityTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            use TableEntry::*;
            CompatibilityTable::from_rows(
                "Page recoverability (Table II)",
                PAGE_OP_NAMES,
                &[&[Yes, No], &[Yes, Yes]],
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

    fn probe_states() -> Vec<Page> {
        vec![
            Page::new(),
            Page::with_value(Value::Int(0)),
            Page::with_value(Value::Int(42)),
            Page::with_value(Value::str("payload")),
        ]
    }

    #[test]
    fn read_and_write_semantics() {
        let mut p = Page::default();
        assert_eq!(p.apply(&PageOp::Read), OpResult::Value(Value::Null));
        assert_eq!(p.apply(&PageOp::Write(Value::Int(7))), OpResult::Ok);
        assert_eq!(p.apply(&PageOp::Read), OpResult::Value(Value::Int(7)));
        assert_eq!(p, Page::with_value(Value::Int(7)));
    }

    #[test]
    fn table_i_commutativity_entries() {
        let t = Page::commutativity_table();
        assert_eq!(t.entry(PAGE_READ, PAGE_READ), TableEntry::Yes);
        assert_eq!(t.entry(PAGE_READ, PAGE_WRITE), TableEntry::No);
        assert_eq!(t.entry(PAGE_WRITE, PAGE_READ), TableEntry::No);
        assert_eq!(t.entry(PAGE_WRITE, PAGE_WRITE), TableEntry::YesSameParam);
    }

    #[test]
    fn table_ii_recoverability_entries() {
        let t = Page::recoverability_table();
        assert_eq!(t.entry(PAGE_READ, PAGE_READ), TableEntry::Yes);
        assert_eq!(t.entry(PAGE_READ, PAGE_WRITE), TableEntry::No);
        assert_eq!(t.entry(PAGE_WRITE, PAGE_READ), TableEntry::Yes);
        assert_eq!(t.entry(PAGE_WRITE, PAGE_WRITE), TableEntry::Yes);
    }

    #[test]
    fn only_read_after_write_conflicts_under_recoverability() {
        // The paper: "with recoverability ... the only pair of operations
        // considered conflicting is (read, write)".
        let read = PageOp::Read;
        let write = PageOp::Write(Value::Int(1));
        let write2 = PageOp::Write(Value::Int(2));
        assert_eq!(Page::classify(&read, &read), Compatibility::Commutative);
        assert_eq!(Page::classify(&read, &write), Compatibility::NonRecoverable);
        assert_eq!(Page::classify(&write, &read), Compatibility::Recoverable);
        assert_eq!(Page::classify(&write, &write2), Compatibility::Recoverable);
        assert_eq!(
            Page::classify(&write, &write),
            Compatibility::Commutative,
            "identical writes commute (Yes-SP)"
        );
    }

    #[test]
    fn tables_are_sound_wrt_definitions() {
        let states = probe_states();
        let ops = vec![
            PageOp::Read,
            PageOp::Write(Value::Int(1)),
            PageOp::Write(Value::Int(2)),
            PageOp::Write(Value::str("x")),
        ];
        let violations = verify_tables::<Page>(&states, &ops);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn definition_checks_match_expectations() {
        let states = probe_states();
        let w1 = PageOp::Write(Value::Int(1));
        let w2 = PageOp::Write(Value::Int(2));
        assert!(check_recoverable(&states, &w1, &w2));
        assert!(check_recoverable(&states, &w2, &w1));
        assert!(!check_commutative(&states, &w1, &w2));
        assert!(check_commutative(&states, &PageOp::Read, &PageOp::Read));
        assert!(!check_recoverable(&states, &PageOp::Read, &w1));
    }

    #[test]
    fn op_call_round_trip() {
        for op in [PageOp::Read, PageOp::Write(Value::Int(3))] {
            let call = op.to_call();
            assert_eq!(PageOp::from_call(&call), Some(op.clone()));
            assert_eq!(call.kind, op.kind());
        }
        assert_eq!(PageOp::from_call(&OpCall::nullary(9)), None);
        assert_eq!(
            PageOp::from_call(&OpCall::nullary(PAGE_WRITE)),
            None,
            "write requires a parameter"
        );
        assert_eq!(PageOp::Read.kind_name(), "read");
        assert_eq!(PageOp::Write(Value::Null).kind_name(), "write");
    }

    proptest! {
        #[test]
        fn prop_write_then_read_returns_written(v in -1000i64..1000) {
            let mut p = Page::new();
            p.apply(&PageOp::Write(Value::Int(v)));
            prop_assert_eq!(p.apply(&PageOp::Read), OpResult::Value(Value::Int(v)));
        }

        #[test]
        fn prop_write_recoverable_wrt_any_page_op(
            initial in -50i64..50,
            earlier_is_write in proptest::bool::ANY,
            earlier_val in -50i64..50,
            later_val in -50i64..50,
        ) {
            let states = vec![Page::with_value(Value::Int(initial))];
            let earlier = if earlier_is_write {
                PageOp::Write(Value::Int(earlier_val))
            } else {
                PageOp::Read
            };
            let later = PageOp::Write(Value::Int(later_val));
            prop_assert!(check_recoverable(&states, &later, &earlier));
        }

        #[test]
        fn prop_read_not_recoverable_after_changing_write(
            initial in -50i64..50,
            written in -50i64..50,
        ) {
            prop_assume!(initial != written);
            let states = vec![Page::with_value(Value::Int(initial))];
            prop_assert!(!check_recoverable(
                &states,
                &PageOp::Read,
                &PageOp::Write(Value::Int(written))
            ));
        }
    }
}
