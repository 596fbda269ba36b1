//! The abstract object used by the simulation's abstract-data-type model
//! (paper Section 5.5.2).
//!
//! In that model "the properties of the operations are defined by
//! compatibility tables, and the operations on the objects can be
//! arbitrary": only the *conflict behaviour* matters, not actual state. An
//! [`AbstractObject`] therefore carries a [`ConflictTable`] (generated from
//! the `P_c` / `P_r` parameters) and applies every operation as a no-op
//! returning `ok`.

use crate::compat::{Compatibility, ConflictTable};
use crate::op::{OpCall, OpResult};
use crate::spec::SemanticObject;
use rand::Rng;
use std::any::Any;

/// Operation-kind names exposed for abstract objects (the simulation model
/// uses four operations per object).
const ABSTRACT_OP_NAMES: &[&str] = &["op0", "op1", "op2", "op3", "op4", "op5", "op6", "op7"];

/// A stateless object whose conflict behaviour is given by an explicit
/// [`ConflictTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct AbstractObject {
    table: ConflictTable,
}

impl AbstractObject {
    /// Wrap an explicit conflict table.
    ///
    /// # Panics
    ///
    /// Panics if the table covers more than 8 operations (only because the
    /// static operation-name array is bounded; the simulation model uses 4).
    pub fn new(table: ConflictTable) -> Self {
        assert!(
            table.arity() <= ABSTRACT_OP_NAMES.len(),
            "abstract objects support at most {} operations",
            ABSTRACT_OP_NAMES.len()
        );
        AbstractObject { table }
    }

    /// Generate an abstract object with a random conflict table following
    /// the paper's `P_c` / `P_r` procedure.
    pub fn random<R: Rng + ?Sized>(n_ops: usize, p_c: usize, p_r: usize, rng: &mut R) -> Self {
        AbstractObject::new(ConflictTable::random(n_ops, p_c, p_r, rng))
    }

    /// An abstract read/write object: two operations (`op0` = read,
    /// `op1` = write) with the Page compatibility semantics. Useful in tests
    /// that want the read/write model without real page state.
    pub fn read_write() -> Self {
        use Compatibility::*;
        AbstractObject::new(ConflictTable::from_entries(
            2,
            vec![
                Commutative,    // (read, read)
                NonRecoverable, // (read, write)
                Recoverable,    // (write, read)
                Recoverable,    // (write, write)
            ],
        ))
    }
}

impl SemanticObject for AbstractObject {
    fn classify(&self, requested: &OpCall, executed: &OpCall) -> Compatibility {
        self.table.get(requested.kind, executed.kind)
    }

    fn apply(&mut self, op: &OpCall) -> OpResult {
        assert!(
            op.kind < self.table.arity(),
            "operation kind {} out of range for abstract object with {} operations",
            op.kind,
            self.table.arity()
        );
        OpResult::Ok
    }

    fn boxed_clone(&self) -> Box<dyn SemanticObject> {
        Box::new(self.clone())
    }

    fn type_name(&self) -> &'static str {
        "abstract"
    }

    fn op_names(&self) -> &'static [&'static str] {
        &ABSTRACT_OP_NAMES[..self.table.arity()]
    }

    fn debug_state(&self) -> String {
        format!("abstract object with {} operations", self.table.arity())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn state_eq(&self, other: &dyn SemanticObject) -> bool {
        other
            .as_any()
            .downcast_ref::<AbstractObject>()
            .map(|o| o.table == self.table)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classification_follows_the_table() {
        let mut rng = StdRng::seed_from_u64(3);
        let obj = AbstractObject::random(4, 4, 4, &mut rng);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    obj.classify(&OpCall::nullary(i), &OpCall::nullary(j)),
                    obj.table.get(i, j)
                );
            }
        }
    }

    #[test]
    fn apply_is_a_no_op_returning_ok() {
        let mut obj = AbstractObject::read_write();
        assert_eq!(obj.apply(&OpCall::nullary(0)), OpResult::Ok);
        assert_eq!(obj.apply(&OpCall::nullary(1)), OpResult::Ok);
        assert_eq!(obj.op_names(), &["op0", "op1"]);
        assert_eq!(obj.type_name(), "abstract");
        assert!(obj.debug_state().contains("2 operations"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_rejects_unknown_kinds() {
        let mut obj = AbstractObject::read_write();
        obj.apply(&OpCall::nullary(5));
    }

    #[test]
    fn read_write_object_matches_page_semantics() {
        let obj = AbstractObject::read_write();
        let read = OpCall::nullary(0);
        let write = OpCall::nullary(1);
        assert_eq!(obj.classify(&read, &read), Compatibility::Commutative);
        assert_eq!(obj.classify(&read, &write), Compatibility::NonRecoverable);
        assert_eq!(obj.classify(&write, &read), Compatibility::Recoverable);
        assert_eq!(obj.classify(&write, &write), Compatibility::Recoverable);
    }

    #[test]
    fn state_eq_and_clone() {
        let a = AbstractObject::read_write();
        let b: Box<dyn SemanticObject> = a.boxed_clone();
        assert!(a.state_eq(b.as_ref()));
        let mut rng = StdRng::seed_from_u64(0);
        let c = AbstractObject::random(4, 2, 2, &mut rng);
        assert!(!a.state_eq(&c));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn rejects_oversized_tables() {
        AbstractObject::new(ConflictTable::all_commutative(9));
    }
}
