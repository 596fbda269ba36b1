//! Transaction identifiers, states and per-transaction bookkeeping.

use crate::object::ObjectId;
use sbcc_adt::{OpCall, OpResult};
use std::collections::HashSet;
use std::fmt;

/// A transaction identifier. Ids are assigned in `begin` order and are never
/// reused, so a smaller id always denotes an older transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// The life cycle of a transaction under the protocol.
///
/// ```text
/// Active ⇄ Blocked
///   │  \
///   │   └──────────► Aborted
///   ▼
/// PseudoCommitted ──► Committed
///   (never aborts)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnState {
    /// Executing operations.
    Active,
    /// Waiting for a conflicting transaction to terminate; has exactly one
    /// pending operation request.
    Blocked,
    /// Finished from the user's perspective; durable results; waiting for
    /// the transactions it has commit dependencies on to terminate
    /// (Section 4.3). A pseudo-committed transaction will definitely commit.
    PseudoCommitted,
    /// Actually committed; removed from all logs and from the dependency
    /// graph.
    Committed,
    /// Aborted; all effects undone.
    Aborted,
}

impl TxnState {
    /// `true` while the transaction still participates in conflict
    /// determination (its operations remain in the execution logs).
    pub fn is_live(self) -> bool {
        matches!(
            self,
            TxnState::Active | TxnState::Blocked | TxnState::PseudoCommitted
        )
    }
}

impl fmt::Display for TxnState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxnState::Active => "active",
            TxnState::Blocked => "blocked",
            TxnState::PseudoCommitted => "pseudo-committed",
            TxnState::Committed => "committed",
            TxnState::Aborted => "aborted",
        };
        f.write_str(s)
    }
}

/// One operation executed by a transaction (recorded for intentions-list
/// commit processing, undo and history checking).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutedOp {
    /// Object the operation ran against.
    pub object: ObjectId,
    /// The operation call.
    pub call: OpCall,
    /// The result returned to the transaction.
    pub result: OpResult,
    /// Global execution sequence number (total order of executions).
    pub seq: u64,
}

/// A transaction's pending (blocked) operation request.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingRequest {
    /// Object the request targets.
    pub object: ObjectId,
    /// The operation call.
    pub call: OpCall,
}

/// One element of a grouped submission: an operation call aimed at a
/// specific object. A batch is an ordered `Vec<BatchCall>` handed to
/// [`crate::SchedulerKernel::request_batch`] (or built through the
/// [`crate::db::Batch`] session builder).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCall {
    /// Object the call targets.
    pub object: ObjectId,
    /// The operation call.
    pub call: OpCall,
}

impl BatchCall {
    /// Convenience constructor.
    pub fn new(object: ObjectId, call: OpCall) -> Self {
        BatchCall { object, call }
    }
}

/// Internal per-transaction record kept by the kernel.
#[derive(Debug, Clone)]
pub struct TxnRecord {
    /// The transaction's id.
    pub id: TxnId,
    /// Current state.
    pub state: TxnState,
    /// Operations executed so far, in execution order.
    pub ops: Vec<ExecutedOp>,
    /// Objects visited (at least one operation executed or pending).
    pub touched: HashSet<ObjectId>,
    /// The pending request, when blocked.
    pub pending: Option<PendingRequest>,
    /// Number of times this transaction has been blocked.
    pub times_blocked: u64,
    /// Commit order index, assigned at actual commit.
    pub commit_index: Option<u64>,
    /// `true` when the transaction's termination is driven by an external
    /// cross-shard coordinator (see [`crate::shard`]): the kernel must not
    /// cascade-commit it on its own (its commit dependencies may span other
    /// shards).
    pub coordinated: bool,
    /// `true` once the cross-shard coordinator has written this
    /// transaction's operations to the write-ahead log (the durability
    /// step of a multi-shard commit runs *before* the per-shard in-memory
    /// applications); tells the kernel's commit path not to log it again.
    pub wal_logged: bool,
}

impl TxnRecord {
    /// A fresh, active transaction record.
    pub fn new(id: TxnId) -> Self {
        TxnRecord {
            id,
            state: TxnState::Active,
            ops: Vec::new(),
            touched: HashSet::new(),
            pending: None,
            times_blocked: 0,
            commit_index: None,
            coordinated: false,
            wal_logged: false,
        }
    }

    /// Number of operations executed so far.
    pub fn executed_ops(&self) -> usize {
        self.ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_display_and_order() {
        assert_eq!(TxnId(7).to_string(), "T7");
        assert!(TxnId(1) < TxnId(2));
    }

    #[test]
    fn state_predicates() {
        assert!(TxnState::Active.is_live());
        assert!(TxnState::Blocked.is_live());
        assert!(TxnState::PseudoCommitted.is_live());
        assert!(!TxnState::Committed.is_live());
        assert!(!TxnState::Aborted.is_live());
    }

    #[test]
    fn state_display() {
        assert_eq!(TxnState::PseudoCommitted.to_string(), "pseudo-committed");
        assert_eq!(TxnState::Active.to_string(), "active");
        assert_eq!(TxnState::Blocked.to_string(), "blocked");
        assert_eq!(TxnState::Committed.to_string(), "committed");
        assert_eq!(TxnState::Aborted.to_string(), "aborted");
    }

    #[test]
    fn record_starts_active_and_empty() {
        let r = TxnRecord::new(TxnId(1));
        assert_eq!(r.state, TxnState::Active);
        assert_eq!(r.executed_ops(), 0);
        assert!(r.pending.is_none());
        assert!(r.touched.is_empty());
        assert_eq!(r.times_blocked, 0);
        assert_eq!(r.commit_index, None);
    }
}
