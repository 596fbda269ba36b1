//! Transaction identifiers, states and per-transaction bookkeeping.

use crate::object::ObjectId;
use sbcc_adt::{OpCall, OpResult};
use std::collections::{HashMap, HashSet};
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
    /// Commit order index, assigned at actual commit.
    pub commit_index: Option<u64>,
    /// `true` when the transaction's termination is driven by an external
    /// cross-shard coordinator (see [`crate::shard`]): the kernel must not
    /// commit or abort it on its own, since it must leave every shard it
    /// is enrolled in, and the dependency graph, in one pass.
    pub coordinated: bool,
    /// `true` once the cross-shard coordinator has written this
    /// transaction's operations to the write-ahead log (the durability
    /// step of a multi-shard commit runs *before* the per-shard in-memory
    /// applications); tells the kernel's commit path not to log it again.
    pub wal_logged: bool,
    /// `true` once this kernel added a dependency edge into or out of the
    /// transaction. The graph creates a node at its first edge, so a
    /// transaction without the flag in any shard has no node, and its
    /// kernel skips the graph lock for it.
    pub in_graph: bool,
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
            commit_index: None,
            coordinated: false,
            wal_logged: false,
            in_graph: false,
        }
    }
}

/// How many of the most recent terminations a [`RecentFates`] is
/// guaranteed to remember.
pub(crate) const RECENT_FATES: usize = 1024;

/// The fates of recently terminated transactions.
///
/// Nothing in the protocol consults a terminated transaction again (it has
/// left every log and the dependency graph), so the fates are kept only to
/// answer state queries and to turn a late call into an exact
/// `InvalidState` error. Two generations bound the memory: when the current
/// one reaches [`RECENT_FATES`] entries it becomes the previous one and the
/// oldest generation is dropped. The last `RECENT_FATES` terminations are
/// always remembered, and never more than twice that.
#[derive(Debug, Default)]
pub(crate) struct RecentFates {
    current: HashMap<TxnId, TxnState>,
    previous: HashMap<TxnId, TxnState>,
}

impl RecentFates {
    /// Record a terminated transaction's fate.
    pub(crate) fn insert(&mut self, txn: TxnId, state: TxnState) {
        if self.current.len() >= RECENT_FATES {
            std::mem::swap(&mut self.current, &mut self.previous);
            // `clear` keeps the capacity: the steady state allocates nothing.
            self.current.clear();
        }
        self.current.insert(txn, state);
    }

    /// The fate of `txn`, if it terminated recently.
    pub(crate) fn get(&self, txn: TxnId) -> Option<TxnState> {
        self.current
            .get(&txn)
            .or_else(|| self.previous.get(&txn))
            .copied()
    }

    /// Number of fates held (between `RECENT_FATES` and twice that once
    /// that many transactions terminated).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.current.len() + self.previous.len()
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
        assert!(r.ops.is_empty());
        assert!(r.pending.is_none());
        assert!(r.touched.is_empty());
        assert_eq!(r.commit_index, None);
    }
}
