//! Outcomes and events reported by the kernel.
//!
//! The kernel is a synchronous state machine: every call returns the outcome
//! for the *calling* transaction, while side effects on **other**
//! transactions (a blocked request that became executable, a cascaded
//! commit of a pseudo-committed transaction, an abort of a retried request
//! that closed a cycle) are queued as [`KernelEvent`]s, drained by the
//! caller with [`crate::SchedulerKernel::drain_events`]. The scheduler never
//! aborts a running transaction on another's behalf: a cycle aborts the
//! transaction whose request (or retried request) would close it.

use crate::txn::{BatchCall, TxnId};
use sbcc_adt::OpResult;
use std::fmt;

/// Why a transaction was aborted. Every scheduler-initiated reason names
/// a check on the aborted transaction's *own* request or commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Blocking the transaction would have closed a cycle in the dependency
    /// graph (a deadlock, possibly involving commit-dependency edges).
    DeadlockCycle,
    /// Executing the recoverable operation would have closed a cycle of
    /// commit dependencies, violating serializability (Lemma 4).
    CommitDependencyCycle,
    /// A snapshot transaction completed a dangerous structure in the SSI
    /// rw-antidependency graph (both an incoming and an outgoing
    /// rw-antidependency to concurrent transactions — Cahill's pivot test)
    /// and was aborted to preserve serializability.
    SsiConflict,
    /// The application explicitly aborted the transaction.
    Explicit,
}

impl AbortReason {
    /// `true` for aborts the scheduler decided on its own (deadlock,
    /// commit-dependency cycle, SSI conflict) — the cases a retry loop
    /// such as [`crate::Database::run`] should transparently restart —
    /// `false` for application-requested aborts.
    pub fn is_scheduler_initiated(self) -> bool {
        !matches!(self, AbortReason::Explicit)
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::DeadlockCycle => write!(f, "deadlock cycle"),
            AbortReason::CommitDependencyCycle => write!(f, "commit-dependency cycle"),
            AbortReason::SsiConflict => write!(f, "ssi rw-antidependency conflict"),
            AbortReason::Explicit => write!(f, "explicit abort"),
        }
    }
}

/// Outcome of an operation request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// The operation executed immediately.
    Executed {
        /// The operation's return value.
        result: OpResult,
        /// Transactions this transaction now has a commit dependency on
        /// (empty when the operation commuted with everything).
        commit_deps: Vec<TxnId>,
    },
    /// The operation conflicts with uncommitted operations; the transaction
    /// is blocked until the holders terminate (the request is retried
    /// automatically and reported via [`KernelEvent::Unblocked`]).
    Blocked {
        /// The transactions being waited on.
        waiting_on: Vec<TxnId>,
    },
    /// The transaction was aborted instead (the request would have closed a
    /// cycle).
    Aborted {
        /// Why the transaction was aborted.
        reason: AbortReason,
    },
}

impl RequestOutcome {
    /// `true` when the operation executed.
    pub fn is_executed(&self) -> bool {
        matches!(self, RequestOutcome::Executed { .. })
    }

    /// `true` when the transaction is now blocked.
    pub fn is_blocked(&self) -> bool {
        matches!(self, RequestOutcome::Blocked { .. })
    }

    /// `true` when the transaction was aborted.
    pub fn is_aborted(&self) -> bool {
        matches!(self, RequestOutcome::Aborted { .. })
    }

    /// The result, if the operation executed.
    pub fn result(&self) -> Option<&OpResult> {
        match self {
            RequestOutcome::Executed { result, .. } => Some(result),
            _ => None,
        }
    }

    /// Convert a **settled** outcome into the session-level result: the
    /// one mapping every sync and async exec/settle path shares.
    ///
    /// # Panics
    ///
    /// Panics on [`RequestOutcome::Blocked`] — blocked outcomes are never
    /// delivered to a session (the rendezvous only ever fills with the
    /// settled retry), so reaching one here is a front-end bug.
    pub(crate) fn into_result(self, txn: TxnId) -> Result<OpResult, crate::errors::CoreError> {
        match self {
            RequestOutcome::Executed { result, .. } => Ok(result),
            RequestOutcome::Aborted { reason } => {
                Err(crate::errors::CoreError::Aborted { txn, reason })
            }
            RequestOutcome::Blocked { .. } => {
                unreachable!("blocked outcomes are never delivered")
            }
        }
    }
}

/// Outcome of a commit request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The transaction actually committed (its effects are folded into the
    /// committed object states and it has left the dependency graph).
    Committed,
    /// The transaction pseudo-committed: complete from the user's point of
    /// view, guaranteed to commit, but the actual commit waits for the
    /// listed transactions to terminate (Section 4.3).
    PseudoCommitted {
        /// Live transactions this transaction still has commit dependencies
        /// on.
        waiting_on: Vec<TxnId>,
    },
}

impl CommitOutcome {
    /// `true` for an actual commit.
    pub fn is_full_commit(&self) -> bool {
        matches!(self, CommitOutcome::Committed)
    }

    /// `true` for a pseudo-commit.
    pub fn is_pseudo_commit(&self) -> bool {
        matches!(self, CommitOutcome::PseudoCommitted { .. })
    }
}

/// Outcome of a grouped submission
/// ([`crate::SchedulerKernel::request_batch`]).
///
/// # Partial-admission semantics
///
/// A batch is processed strictly in submission order and is **equivalent to
/// submitting the same calls one by one** (a property enforced by the
/// batched-vs-sequential differential test suite). The kernel admits and
/// executes a *prefix* of the batch; the first call that cannot execute
/// terminates processing:
///
/// * if it **blocks**, the executed prefix stays executed (operations are
///   never rolled back on a block — exactly as in per-call submission), the
///   blocking call becomes the transaction's pending request inside the
///   kernel (retried automatically, reported via
///   [`KernelEvent::Unblocked`]), and the unprocessed suffix is handed back
///   in [`BatchStop::Blocked::rest`] for resubmission once the pending call
///   settles;
/// * if it **aborts** the transaction (a would-be cycle), the whole
///   transaction's effects — including the just-executed prefix — are
///   undone; the prefix *results* are still returned (per-call submission
///   would already have handed them to the caller before the abort) but
///   are void, and the unprocessed suffix is returned in
///   [`BatchStop::Aborted::rest`] for diagnostics.
///
/// There is no all-or-nothing admission at batch granularity: atomicity is
/// provided by the *transaction* (commit/abort), not by the batch, which is
/// purely a submission-granularity optimisation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Results of the executed prefix, in submission order.
    pub executed: Vec<OpResult>,
    /// Union of the commit dependencies acquired by the executed prefix
    /// (sorted, deduplicated).
    pub commit_deps: Vec<TxnId>,
    /// Why processing stopped before the end of the batch, if it did.
    /// `None` means every call executed.
    pub stopped: Option<BatchStop>,
}

impl BatchOutcome {
    /// `true` when every call of the batch executed.
    pub fn is_complete(&self) -> bool {
        self.stopped.is_none()
    }
}

/// The terminator of a partially admitted batch (see [`BatchOutcome`]).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchStop {
    /// The call at `index` conflicts and is now the transaction's pending
    /// request inside the kernel.
    Blocked {
        /// Position (in the submitted batch) of the call that blocked.
        index: usize,
        /// The transactions being waited on.
        waiting_on: Vec<TxnId>,
        /// The calls after `index`, unprocessed, for resubmission.
        rest: Vec<BatchCall>,
    },
    /// The call at `index` would have closed a cycle and the transaction
    /// was aborted.
    Aborted {
        /// Position (in the submitted batch) of the call that aborted.
        index: usize,
        /// Why the transaction was aborted.
        reason: AbortReason,
        /// The calls after `index`, unprocessed.
        rest: Vec<BatchCall>,
    },
}

/// Side effects on transactions other than the caller's, produced while the
/// kernel processed a request, commit or abort.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelEvent {
    /// A previously blocked transaction's pending request was retried; the
    /// outcome is attached (it may have executed, re-blocked, or been
    /// aborted because the retry would close a cycle).
    Unblocked {
        /// The transaction whose pending request was retried.
        txn: TxnId,
        /// The outcome of the retry.
        outcome: RequestOutcome,
    },
    /// A pseudo-committed transaction's last commit dependency terminated
    /// and it has now actually committed.
    Committed {
        /// The transaction that actually committed.
        txn: TxnId,
    },
}

impl KernelEvent {
    /// The transaction this event concerns.
    pub fn txn(&self) -> TxnId {
        match self {
            KernelEvent::Unblocked { txn, .. } | KernelEvent::Committed { txn } => *txn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbcc_adt::OpResult;

    #[test]
    fn abort_reason_display() {
        assert_eq!(AbortReason::DeadlockCycle.to_string(), "deadlock cycle");
        assert_eq!(
            AbortReason::CommitDependencyCycle.to_string(),
            "commit-dependency cycle"
        );
        assert_eq!(AbortReason::Explicit.to_string(), "explicit abort");
        assert_eq!(
            AbortReason::SsiConflict.to_string(),
            "ssi rw-antidependency conflict"
        );
        assert!(AbortReason::SsiConflict.is_scheduler_initiated());
        assert!(!AbortReason::Explicit.is_scheduler_initiated());
    }

    #[test]
    fn request_outcome_predicates() {
        let e = RequestOutcome::Executed {
            result: OpResult::Ok,
            commit_deps: vec![],
        };
        let b = RequestOutcome::Blocked {
            waiting_on: vec![TxnId(1)],
        };
        let a = RequestOutcome::Aborted {
            reason: AbortReason::DeadlockCycle,
        };
        assert!(e.is_executed() && !e.is_blocked() && !e.is_aborted());
        assert!(b.is_blocked() && !b.is_executed());
        assert!(a.is_aborted() && !a.is_executed());
        assert_eq!(e.result(), Some(&OpResult::Ok));
        assert_eq!(b.result(), None);
    }

    #[test]
    fn commit_outcome_predicates() {
        assert!(CommitOutcome::Committed.is_full_commit());
        assert!(!CommitOutcome::Committed.is_pseudo_commit());
        let p = CommitOutcome::PseudoCommitted {
            waiting_on: vec![TxnId(1)],
        };
        assert!(p.is_pseudo_commit());
        assert!(!p.is_full_commit());
    }

    #[test]
    fn kernel_event_txn_accessor() {
        assert_eq!(KernelEvent::Committed { txn: TxnId(4) }.txn(), TxnId(4));
        assert_eq!(
            KernelEvent::Unblocked {
                txn: TxnId(6),
                outcome: RequestOutcome::Aborted {
                    reason: AbortReason::DeadlockCycle
                }
            }
            .txn(),
            TxnId(6)
        );
    }
}
