//! Compatibility tables.
//!
//! The paper specifies conflicts "via an operation compatibility table"
//! derived from the semantics of the operations (Section 3.1). Two tables
//! exist per data type: a **commutativity** table and a **recoverability**
//! table. Entries are `Yes`, `No`, or the parameter-qualified `Yes-SP`
//! (compatible only with the *Same* input Parameter) and `Yes-DP`
//! (compatible only with *Different* input Parameters).
//!
//! Rows are indexed by the **requested** operation, columns by the already
//! **executed** operation — i.e. entry `(a, b)` answers "may operation `a`
//! be invoked while an uncommitted `b` is in the log?".
//!
//! For the simulation's abstract-data-type model the two tables are merged
//! into a single [`ConflictTable`] whose entries are a three-valued
//! [`Compatibility`]; [`ConflictTable::random`] implements the paper's
//! `P_c` / `P_r` generation procedure (Section 5.5.2).

use crate::op::OpCall;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// The three-way classification of a requested operation against an
/// executed, uncommitted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Compatibility {
    /// The operations commute (Definition 2): both may proceed and no
    /// commit ordering is implied.
    Commutative,
    /// The requested operation is recoverable relative to the executed one
    /// (Definitions 1 and 3) but they do not commute: the requested
    /// operation may proceed, at the price of a commit dependency on the
    /// transaction that executed the earlier operation.
    Recoverable,
    /// Neither commutative nor recoverable: the requesting transaction must
    /// wait until the earlier transaction terminates.
    NonRecoverable,
}

impl Compatibility {}

impl fmt::Display for Compatibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Compatibility::Commutative => write!(f, "commutative"),
            Compatibility::Recoverable => write!(f, "recoverable"),
            Compatibility::NonRecoverable => write!(f, "non-recoverable"),
        }
    }
}

/// One entry of a commutativity or recoverability table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum TableEntry {
    /// The pair is never compatible (under this table's relation).
    No,
    /// The pair is always compatible, independent of parameters.
    Yes,
    /// Compatible only when both operations have the **same** distinguishing
    /// parameter (the paper's `Yes-SP`).
    YesSameParam,
    /// Compatible only when the operations have **different** distinguishing
    /// parameters (the paper's `Yes-DP`).
    YesDifferentParam,
}

impl TableEntry {
    /// Resolve the entry against the distinguishing parameters of the
    /// requested and executed operations.
    pub fn holds(self, requested: &OpCall, executed: &OpCall) -> bool {
        match self {
            TableEntry::No => false,
            TableEntry::Yes => true,
            TableEntry::YesSameParam => requested.same_param(executed),
            TableEntry::YesDifferentParam => {
                // Two operations with *no* distinguishing parameter cannot
                // have "different" parameters; entries that need this case
                // use `Yes` instead.
                match (
                    requested.distinguishing_param(),
                    executed.distinguishing_param(),
                ) {
                    (Some(a), Some(b)) => a != b,
                    _ => false,
                }
            }
        }
    }

    /// The label used when rendering the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            TableEntry::No => "No",
            TableEntry::Yes => "Yes",
            TableEntry::YesSameParam => "Yes-SP",
            TableEntry::YesDifferentParam => "Yes-DP",
        }
    }
}

impl fmt::Display for TableEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A (commutativity or recoverability) table for one data type.
///
/// Entry `(requested, executed)` is stored row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompatibilityTable {
    name: String,
    op_names: Vec<&'static str>,
    entries: Vec<TableEntry>,
}

impl CompatibilityTable {
    /// Build a table from rows. `rows[i][j]` is the entry for requested
    /// operation `i` against executed operation `j`.
    ///
    /// # Panics
    ///
    /// Panics if the row/column counts do not match `op_names`.
    pub fn from_rows(
        name: impl Into<String>,
        op_names: &[&'static str],
        rows: &[&[TableEntry]],
    ) -> Self {
        let n = op_names.len();
        assert_eq!(rows.len(), n, "row count must equal operation count");
        let mut entries = Vec::with_capacity(n * n);
        for row in rows {
            assert_eq!(row.len(), n, "column count must equal operation count");
            entries.extend_from_slice(row);
        }
        CompatibilityTable {
            name: name.into(),
            op_names: op_names.to_vec(),
            entries,
        }
    }

    /// Number of operation kinds covered by the table.
    pub fn arity(&self) -> usize {
        self.op_names.len()
    }

    /// Raw entry for a `(requested, executed)` pair of operation kinds.
    pub fn entry(&self, requested_kind: usize, executed_kind: usize) -> TableEntry {
        let n = self.arity();
        assert!(
            requested_kind < n,
            "requested kind {requested_kind} out of range"
        );
        assert!(
            executed_kind < n,
            "executed kind {executed_kind} out of range"
        );
        self.entries[requested_kind * n + executed_kind]
    }

    /// Resolve the table for two concrete operation calls: does the relation
    /// (commutativity or recoverability, depending on which table this is)
    /// hold between `requested` and `executed`?
    pub fn holds(&self, requested: &OpCall, executed: &OpCall) -> bool {
        self.entry(requested.kind, executed.kind)
            .holds(requested, executed)
    }

    /// Render the table in the style of the paper (rows = requested
    /// operation, columns = executed operation).
    pub fn render(&self) -> String {
        let mut width = 10usize;
        for n in &self.op_names {
            width = width.max(n.len() + 2);
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{} (rows: requested, columns: executed)\n",
            self.name
        ));
        out.push_str(&format!("{:width$}", "", width = width));
        for n in &self.op_names {
            out.push_str(&format!("{:width$}", n, width = width));
        }
        out.push('\n');
        for (i, row_name) in self.op_names.iter().enumerate() {
            out.push_str(&format!("{:width$}", row_name, width = width));
            for j in 0..self.arity() {
                out.push_str(&format!(
                    "{:width$}",
                    self.entry(i, j).label(),
                    width = width
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// A merged conflict table mapping `(requested, executed)` directly to a
/// [`Compatibility`].
///
/// This is the representation used by [`crate::AbstractObject`] for the
/// simulation's abstract-data-type model, and is also what
/// [`classify_with_tables`] produces when combining a commutativity and a
/// recoverability table for concrete data types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictTable {
    n_ops: usize,
    entries: Vec<Compatibility>,
}

impl ConflictTable {
    /// Build a table with every entry set to `NonRecoverable`.
    pub fn all_conflicting(n_ops: usize) -> Self {
        ConflictTable {
            n_ops,
            entries: vec![Compatibility::NonRecoverable; n_ops * n_ops],
        }
    }

    /// Build a table with every entry set to `Commutative`.
    pub fn all_commutative(n_ops: usize) -> Self {
        ConflictTable {
            n_ops,
            entries: vec![Compatibility::Commutative; n_ops * n_ops],
        }
    }

    /// Build a table from explicit entries (row-major, rows = requested).
    ///
    /// # Panics
    ///
    /// Panics if `entries.len() != n_ops * n_ops`.
    pub fn from_entries(n_ops: usize, entries: Vec<Compatibility>) -> Self {
        assert_eq!(entries.len(), n_ops * n_ops, "entry count must be n_ops^2");
        ConflictTable { n_ops, entries }
    }

    /// The number of operation kinds.
    pub fn arity(&self) -> usize {
        self.n_ops
    }

    /// Entry lookup.
    pub fn get(&self, requested_kind: usize, executed_kind: usize) -> Compatibility {
        assert!(requested_kind < self.n_ops && executed_kind < self.n_ops);
        self.entries[requested_kind * self.n_ops + executed_kind]
    }

    /// Set one entry.
    pub fn set(&mut self, requested_kind: usize, executed_kind: usize, c: Compatibility) {
        assert!(requested_kind < self.n_ops && executed_kind < self.n_ops);
        self.entries[requested_kind * self.n_ops + executed_kind] = c;
    }

    /// Number of entries with the given classification.
    pub fn count(&self, c: Compatibility) -> usize {
        self.entries.iter().filter(|e| **e == c).count()
    }

    /// Generate a random table following the paper's procedure
    /// (Section 5.5.2):
    ///
    /// * `p_c / 2` non-diagonal entries are chosen at random and set to
    ///   commutative, together with their symmetric mates;
    /// * `p_r` of the remaining entries are chosen at random (uniformly)
    ///   and set to recoverable;
    /// * every other entry is non-recoverable.
    ///
    /// With `p_r = 0` the table degenerates to the commutativity-only
    /// baseline workload.
    ///
    /// # Panics
    ///
    /// Panics if `p_c` is odd, or if `p_c + p_r > n_ops^2`.
    pub fn random<R: Rng + ?Sized>(n_ops: usize, p_c: usize, p_r: usize, rng: &mut R) -> Self {
        assert!(
            p_c.is_multiple_of(2),
            "p_c must be even (entries are symmetric pairs)"
        );
        assert!(
            p_c + p_r <= n_ops * n_ops,
            "p_c + p_r must not exceed the number of table entries"
        );
        let mut table = ConflictTable::all_conflicting(n_ops);

        // Phase 1: commutative pairs among non-diagonal entries.
        let mut off_diag_pairs: Vec<(usize, usize)> = Vec::new();
        for i in 0..n_ops {
            for j in (i + 1)..n_ops {
                off_diag_pairs.push((i, j));
            }
        }
        off_diag_pairs.shuffle(rng);
        let want_pairs = p_c / 2;
        let chosen = off_diag_pairs.len().min(want_pairs);
        for &(i, j) in off_diag_pairs.iter().take(chosen) {
            table.set(i, j, Compatibility::Commutative);
            table.set(j, i, Compatibility::Commutative);
        }

        // Phase 2: recoverable entries among everything still non-recoverable.
        let mut remaining: Vec<(usize, usize)> = Vec::new();
        for i in 0..n_ops {
            for j in 0..n_ops {
                if table.get(i, j) == Compatibility::NonRecoverable {
                    remaining.push((i, j));
                }
            }
        }
        remaining.shuffle(rng);
        for &(i, j) in remaining.iter().take(p_r.min(remaining.len())) {
            table.set(i, j, Compatibility::Recoverable);
        }
        table
    }
}

/// Combine a commutativity table and a recoverability table into a single
/// classification, exactly as the paper's object managers do: commutativity
/// is checked first, then recoverability, otherwise the pair conflicts.
pub fn classify_with_tables(
    commutativity: &CompatibilityTable,
    recoverability: &CompatibilityTable,
    requested: &OpCall,
    executed: &OpCall,
) -> Compatibility {
    if commutativity.holds(requested, executed) {
        Compatibility::Commutative
    } else if recoverability.holds(requested, executed) {
        Compatibility::Recoverable
    } else {
        Compatibility::NonRecoverable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn call(kind: usize, param: Option<i64>) -> OpCall {
        match param {
            Some(p) => OpCall::unary(kind, p),
            None => OpCall::nullary(kind),
        }
    }

    #[test]
    fn compatibility_labels_and_display() {
        assert_eq!(Compatibility::Recoverable.to_string(), "recoverable");
    }

    #[test]
    fn table_entry_resolution() {
        let a5 = call(0, Some(5));
        let b5 = call(1, Some(5));
        let b7 = call(1, Some(7));
        let n = call(2, None);

        assert!(!TableEntry::No.holds(&a5, &b5));
        assert!(TableEntry::Yes.holds(&a5, &b5));
        assert!(TableEntry::YesSameParam.holds(&a5, &b5));
        assert!(!TableEntry::YesSameParam.holds(&a5, &b7));
        assert!(!TableEntry::YesSameParam.holds(&a5, &n));
        assert!(TableEntry::YesDifferentParam.holds(&a5, &b7));
        assert!(!TableEntry::YesDifferentParam.holds(&a5, &b5));
        assert!(
            !TableEntry::YesDifferentParam.holds(&a5, &n),
            "a nullary operation has no parameter to differ from"
        );
    }

    #[test]
    fn table_entry_labels() {
        assert_eq!(TableEntry::No.label(), "No");
        assert_eq!(TableEntry::Yes.label(), "Yes");
        assert_eq!(TableEntry::YesSameParam.to_string(), "Yes-SP");
        assert_eq!(TableEntry::YesDifferentParam.to_string(), "Yes-DP");
    }

    fn tiny_table() -> CompatibilityTable {
        CompatibilityTable::from_rows(
            "tiny",
            &["a", "b"],
            &[
                &[TableEntry::Yes, TableEntry::No],
                &[TableEntry::YesDifferentParam, TableEntry::YesSameParam],
            ],
        )
    }

    #[test]
    fn compatibility_table_lookup() {
        let t = tiny_table();
        assert_eq!(t.arity(), 2);
        assert!(t.render().starts_with("tiny "));
        assert_eq!(t.entry(0, 0), TableEntry::Yes);
        assert_eq!(t.entry(0, 1), TableEntry::No);
        assert_eq!(t.entry(1, 0), TableEntry::YesDifferentParam);
        assert_eq!(t.entry(1, 1), TableEntry::YesSameParam);

        assert!(t.holds(&call(0, Some(1)), &call(0, Some(2))));
        assert!(!t.holds(&call(0, Some(1)), &call(1, Some(1))));
        assert!(t.holds(&call(1, Some(1)), &call(0, Some(2))));
        assert!(!t.holds(&call(1, Some(1)), &call(0, Some(1))));
        assert!(t.holds(&call(1, Some(3)), &call(1, Some(3))));
    }

    #[test]
    #[should_panic(expected = "row count")]
    fn compatibility_table_rejects_bad_row_count() {
        CompatibilityTable::from_rows("bad", &["a", "b"], &[&[TableEntry::Yes, TableEntry::No]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn compatibility_table_rejects_out_of_range_kind() {
        tiny_table().entry(2, 0);
    }

    #[test]
    fn render_contains_all_labels() {
        let rendered = tiny_table().render();
        assert!(rendered.contains("tiny"));
        assert!(rendered.contains("Yes-DP"));
        assert!(rendered.contains("Yes-SP"));
        assert!(rendered.contains("No"));
    }

    #[test]
    fn conflict_table_basics() {
        let mut t = ConflictTable::all_conflicting(3);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.count(Compatibility::NonRecoverable), 9);
        t.set(0, 1, Compatibility::Commutative);
        t.set(1, 0, Compatibility::Recoverable);
        assert_eq!(t.get(0, 1), Compatibility::Commutative);
        assert_eq!(t.get(1, 0), Compatibility::Recoverable);
        assert_eq!(t.count(Compatibility::NonRecoverable), 7);

        let c = ConflictTable::all_commutative(2);
        assert_eq!(c.count(Compatibility::Commutative), 4);

        let e = ConflictTable::from_entries(1, vec![Compatibility::Recoverable]);
        assert_eq!(e.get(0, 0), Compatibility::Recoverable);
    }

    #[test]
    #[should_panic(expected = "entry count")]
    fn conflict_table_from_entries_validates_len() {
        ConflictTable::from_entries(2, vec![Compatibility::Commutative]);
    }

    #[test]
    fn random_table_respects_counts() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(pc, pr) in &[(0usize, 0usize), (2, 0), (4, 4), (2, 8), (4, 8), (0, 16)] {
            let t = ConflictTable::random(4, pc, pr, &mut rng);
            assert_eq!(
                t.count(Compatibility::Commutative),
                pc,
                "pc={pc} pr={pr}: commutative count"
            );
            assert_eq!(
                t.count(Compatibility::Recoverable),
                pr,
                "pc={pc} pr={pr}: recoverable count"
            );
            assert_eq!(
                t.count(Compatibility::NonRecoverable),
                16 - pc - pr,
                "pc={pc} pr={pr}: non-recoverable count"
            );
        }
    }

    #[test]
    fn random_table_commutative_entries_are_symmetric_and_off_diagonal() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let t = ConflictTable::random(4, 4, 4, &mut rng);
            for i in 0..4 {
                for j in 0..4 {
                    if t.get(i, j) == Compatibility::Commutative {
                        assert_ne!(i, j, "diagonal entries are never marked commutative");
                        assert_eq!(
                            t.get(j, i),
                            Compatibility::Commutative,
                            "commutativity must be symmetric"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn random_table_is_deterministic_for_a_seed() {
        let a = ConflictTable::random(4, 4, 4, &mut StdRng::seed_from_u64(99));
        let b = ConflictTable::random(4, 4, 4, &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "p_c must be even")]
    fn random_table_rejects_odd_pc() {
        ConflictTable::random(4, 3, 0, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn random_table_rejects_overfull() {
        ConflictTable::random(2, 2, 4, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    fn classify_with_tables_precedence() {
        // commutativity wins over recoverability; otherwise recoverable; else conflict
        let comm = CompatibilityTable::from_rows(
            "c",
            &["a", "b"],
            &[
                &[TableEntry::Yes, TableEntry::No],
                &[TableEntry::No, TableEntry::No],
            ],
        );
        let rec = CompatibilityTable::from_rows(
            "r",
            &["a", "b"],
            &[
                &[TableEntry::Yes, TableEntry::Yes],
                &[TableEntry::No, TableEntry::No],
            ],
        );
        let a = call(0, None);
        let b = call(1, None);
        assert_eq!(
            classify_with_tables(&comm, &rec, &a, &a),
            Compatibility::Commutative
        );
        assert_eq!(
            classify_with_tables(&comm, &rec, &a, &b),
            Compatibility::Recoverable
        );
        assert_eq!(
            classify_with_tables(&comm, &rec, &b, &a),
            Compatibility::NonRecoverable
        );
    }
}
