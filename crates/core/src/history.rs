//! History recording and the off-line correctness checkers.
//!
//! The paper's correctness requirement (Definition 7) is that an execution
//! log be *serializable* and *free from cascading aborts*. The kernel
//! enforces this on-line; the [`HistoryRecorder`] keeps enough information
//! to validate it after the fact:
//!
//! * [`verify_commit_order_serializable`] replays the committed
//!   transactions **serially, in commit order**, against the objects'
//!   initial states and checks that every recorded return value is
//!   reproduced and that the final state matches the kernel's committed
//!   state. This is the strongest notion available for semantic operations:
//!   the concurrent execution is observationally equivalent to the serial
//!   one.
//! * [`verify_commit_order_respects_dependencies`] checks that whenever two
//!   committed transactions executed non-commuting (recoverable) operations,
//!   the one that executed first also committed first.

use crate::events::AbortReason;
use crate::kernel::SchedulerKernel;
use crate::object::ObjectId;
use crate::txn::{ExecutedOp, TxnId};
use sbcc_adt::{Compatibility, SemanticObject};
use std::collections::HashMap;

/// Everything recorded about one transaction.
#[derive(Debug, Clone)]
pub struct TxnHistory {
    /// The transaction id.
    pub id: TxnId,
    /// Operations in execution order (empty until the transaction
    /// terminates).
    pub ops: Vec<ExecutedOp>,
    /// Whether the transaction pseudo-committed before committing.
    pub pseudo_committed: bool,
    /// Final fate.
    pub fate: Option<TxnFate>,
    /// Commit order index (only for committed transactions).
    pub commit_index: Option<u64>,
}

/// The final fate of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnFate {
    /// Actually committed.
    Committed,
    /// Aborted, with the reason.
    Aborted(AbortReason),
}

/// Recorder attached to a kernel when `record_history` is enabled.
#[derive(Debug, Clone, Default)]
pub struct HistoryRecorder {
    txns: HashMap<TxnId, TxnHistory>,
    commit_sequence: Vec<TxnId>,
}

impl HistoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        HistoryRecorder::default()
    }

    pub(crate) fn record_begin(&mut self, txn: TxnId) {
        self.txns.insert(
            txn,
            TxnHistory {
                id: txn,
                ops: Vec::new(),
                pseudo_committed: false,
                fate: None,
                commit_index: None,
            },
        );
    }

    pub(crate) fn record_pseudo_commit(&mut self, txn: TxnId) {
        if let Some(h) = self.txns.get_mut(&txn) {
            h.pseudo_committed = true;
        }
    }

    /// `ops` is the terminated transaction's own operation list, moved
    /// out of its record: the recorder holds no per-operation copy while a
    /// transaction is live.
    pub(crate) fn record_committed(&mut self, txn: TxnId, commit_index: u64, ops: Vec<ExecutedOp>) {
        if let Some(h) = self.txns.get_mut(&txn) {
            h.ops = ops;
            h.fate = Some(TxnFate::Committed);
            h.commit_index = Some(commit_index);
        }
        self.commit_sequence.push(txn);
    }

    pub(crate) fn record_aborted(&mut self, txn: TxnId, reason: AbortReason, ops: Vec<ExecutedOp>) {
        if let Some(h) = self.txns.get_mut(&txn) {
            h.ops = ops;
            h.fate = Some(TxnFate::Aborted(reason));
        }
    }

    /// The history of one transaction.
    pub fn txn(&self, txn: TxnId) -> Option<&TxnHistory> {
        self.txns.get(&txn)
    }

    /// All recorded transactions.
    pub fn transactions(&self) -> impl Iterator<Item = &TxnHistory> {
        self.txns.values()
    }

    /// Committed transactions in commit order.
    pub fn commit_sequence(&self) -> &[TxnId] {
        &self.commit_sequence
    }
}

/// Replay the committed transactions serially in commit order and verify
/// that every recorded return value is reproduced and that the replayed
/// final state of every object equals the kernel's committed state.
///
/// Requires the kernel to have been built with `record_history = true`.
pub fn verify_commit_order_serializable(kernel: &SchedulerKernel) -> Result<(), String> {
    let history = kernel
        .history()
        .ok_or_else(|| "history recording is disabled".to_owned())?;

    // Per-object replay states, starting from the registered initial states.
    let mut replay: HashMap<ObjectId, Box<dyn SemanticObject>> = HashMap::new();
    for id in kernel.object_ids() {
        let initial = kernel
            .object_initial_state(id)
            .ok_or_else(|| format!("object {id} has no initial state"))?;
        replay.insert(id, initial.boxed_clone());
    }

    for txn in history.commit_sequence() {
        let th = history
            .txn(*txn)
            .ok_or_else(|| format!("committed transaction {txn} has no history"))?;
        for op in &th.ops {
            let state = replay
                .get_mut(&op.object)
                .ok_or_else(|| format!("operation on unknown object {}", op.object))?;
            let replayed = state.apply(&op.call);
            if replayed != op.result {
                return Err(format!(
                    "serializability violation: replaying {} of {} on {} in commit order returned {replayed} but the execution observed {}",
                    op.call, txn, op.object, op.result
                ));
            }
        }
    }

    for id in kernel.object_ids() {
        let committed = kernel
            .object_committed_state(id)
            .ok_or_else(|| format!("object {id} has no committed state"))?;
        let replayed = replay.get(&id).expect("replay state exists");
        if !replayed.state_eq(committed) {
            return Err(format!(
                "serializability violation: replayed state of {} ({}) differs from the committed state ({})",
                kernel.object_name(id).unwrap_or("?"),
                replayed.debug_state(),
                committed.debug_state()
            ));
        }
    }
    Ok(())
}

/// Verify that the commit order respects the dynamic commit dependencies:
/// for every pair of committed transactions with non-commuting operations on
/// the same object, the one whose operation executed first also committed
/// first.
pub fn verify_commit_order_respects_dependencies(kernel: &SchedulerKernel) -> Result<(), String> {
    let history = kernel
        .history()
        .ok_or_else(|| "history recording is disabled".to_owned())?;

    // Gather committed transactions and their commit indices.
    let mut commit_index: HashMap<TxnId, u64> = HashMap::new();
    for th in history.transactions() {
        if let (Some(TxnFate::Committed), Some(idx)) = (th.fate, th.commit_index) {
            commit_index.insert(th.id, idx);
        }
    }

    // For every object, look at all pairs of operations by distinct
    // committed transactions and check ordering when they do not commute.
    let mut per_object: HashMap<ObjectId, Vec<(&TxnHistory, &ExecutedOp)>> = HashMap::new();
    for th in history.transactions() {
        if !commit_index.contains_key(&th.id) {
            continue;
        }
        for op in &th.ops {
            per_object.entry(op.object).or_default().push((th, op));
        }
    }

    for (object, ops) in per_object {
        let initial = kernel
            .object_initial_state(object)
            .ok_or_else(|| format!("object {object} has no initial state"))?;
        for (ta, oa) in &ops {
            for (tb, ob) in &ops {
                if ta.id == tb.id || oa.seq >= ob.seq {
                    continue;
                }
                // oa executed before ob.
                let class = initial.classify(&ob.call, &oa.call);
                if class == Compatibility::Commutative {
                    continue;
                }
                let ia = commit_index[&ta.id];
                let ib = commit_index[&tb.id];
                if ia > ib {
                    return Err(format!(
                        "commit order violation on {object}: {} executed {} before {} executed {} (non-commuting, {class}), but {} committed after {}",
                        ta.id, oa.call, tb.id, ob.call, ta.id, tb.id
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbcc_adt::{OpCall, OpResult};

    #[test]
    fn recorder_tracks_lifecycle() {
        let mut r = HistoryRecorder::new();
        assert_eq!(r.transactions().count(), 0);
        r.record_begin(TxnId(1));
        r.record_begin(TxnId(2));
        assert_eq!(r.transactions().count(), 2);
        let op = ExecutedOp {
            object: ObjectId(0),
            call: OpCall::nullary(0),
            result: OpResult::Ok,
            seq: 1,
        };
        r.record_pseudo_commit(TxnId(1));
        r.record_committed(TxnId(1), 1, vec![op.clone()]);
        r.record_aborted(TxnId(2), AbortReason::Explicit, Vec::new());
        // Records for unknown transactions are ignored rather than panicking.
        r.record_pseudo_commit(TxnId(9));
        r.record_aborted(TxnId(9), AbortReason::Explicit, vec![op]);

        let t1 = r.txn(TxnId(1)).expect("recorded");
        assert_eq!(t1.ops.len(), 1);
        assert!(t1.pseudo_committed);
        assert_eq!(t1.fate, Some(TxnFate::Committed));
        assert_eq!(t1.commit_index, Some(1));
        let t2 = r.txn(TxnId(2)).expect("recorded");
        assert_eq!(t2.fate, Some(TxnFate::Aborted(AbortReason::Explicit)));
        assert_eq!(r.commit_sequence(), &[TxnId(1)]);
        assert_eq!(r.transactions().count(), 2);
    }
}
