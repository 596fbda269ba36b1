//! Error types for the concurrency-control kernel and the [`crate::Database`]
//! front-end.

use crate::events::AbortReason;
use crate::txn::{TxnId, TxnState};
use std::fmt;

/// Errors returned by kernel and database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The transaction id is unknown (never begun in this kernel).
    UnknownTransaction(TxnId),
    /// The object id or name is unknown.
    UnknownObject(String),
    /// The transaction is not in a state that allows the attempted action
    /// (e.g. committing a blocked transaction, invoking an operation from a
    /// terminated transaction).
    InvalidState {
        /// The transaction concerned.
        txn: TxnId,
        /// Its current state.
        state: TxnState,
        /// The action that was attempted.
        action: &'static str,
    },
    /// The transaction was aborted by the scheduler (deadlock or
    /// commit-dependency cycle) or by an explicit abort.
    Aborted {
        /// The transaction concerned.
        txn: TxnId,
        /// Why it was aborted.
        reason: AbortReason,
    },
    /// An object with this name is already registered.
    DuplicateObject(String),
    /// [`crate::db::Transaction::settle_pending`] was called while the
    /// transaction had no blocked operation in flight and no settled outcome
    /// waiting to be claimed.
    NoPendingOperation(TxnId),
    /// A retry runner ([`crate::Database::run`] /
    /// [`crate::aio::AsyncDatabase::run`]) exhausted its
    /// [`crate::SchedulerConfig::max_retries`] budget: every attempt ended
    /// in a scheduler abort. The livelock guardrail for adversarial
    /// schedules and fault-injection harnesses.
    RetriesExhausted {
        /// The last attempt's transaction.
        txn: TxnId,
        /// Total attempts made (the configured budget plus the initial
        /// attempt).
        attempts: usize,
    },
    /// A durability (write-ahead log) failure: the log directory could not
    /// be opened or repaired, replay diverged from the logged results, or a
    /// registration is incompatible with semantic logging (a type outside
    /// the [`sbcc_adt::AdtType`] catalogue, or a non-empty initial state
    /// the log would not capture).
    Durability(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownTransaction(t) => write!(f, "unknown transaction {t}"),
            CoreError::UnknownObject(name) => write!(f, "unknown object {name:?}"),
            CoreError::InvalidState { txn, state, action } => {
                write!(f, "cannot {action}: transaction {txn} is {state}")
            }
            CoreError::Aborted { txn, reason } => {
                write!(f, "transaction {txn} aborted: {reason}")
            }
            CoreError::DuplicateObject(name) => {
                write!(f, "an object named {name:?} is already registered")
            }
            CoreError::NoPendingOperation(txn) => {
                write!(f, "transaction {txn} has no pending operation to settle")
            }
            CoreError::RetriesExhausted { txn, attempts } => {
                write!(
                    f,
                    "retry budget exhausted after {attempts} attempts (last transaction {txn})"
                )
            }
            CoreError::Durability(msg) => write!(f, "durability failure: {msg}"),
        }
    }
}

impl CoreError {
    /// `true` when the error reports a scheduler-initiated abort (deadlock,
    /// commit-dependency cycle or SSI conflict) of the given
    /// transaction — the errors a retry loop such as
    /// [`crate::Database::run`] transparently restarts on.
    pub fn is_scheduler_abort_of(&self, txn: TxnId) -> bool {
        matches!(
            self,
            CoreError::Aborted { txn: t, reason } if *t == txn && reason.is_scheduler_initiated()
        )
    }

    /// `true` when a closure runner whose current attempt drives `txn`
    /// restarts the attempt on this error: a scheduler abort of `txn`, or
    /// `txn` found already `Aborted` (a cancellation abort terminated it
    /// out from under the attempt — the guard API gives the body no way to
    /// do so itself). The retry-classes table on [`crate::Database::run`] is the
    /// contract.
    pub fn is_retryable_for(&self, txn: TxnId) -> bool {
        self.is_scheduler_abort_of(txn)
            || matches!(
                self,
                CoreError::InvalidState { txn: t, state: TxnState::Aborted, .. } if *t == txn
            )
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let t = TxnId(3);
        assert!(CoreError::UnknownTransaction(t).to_string().contains("T3"));
        assert!(CoreError::UnknownObject("acct".into())
            .to_string()
            .contains("acct"));
        let e = CoreError::InvalidState {
            txn: t,
            state: TxnState::Blocked,
            action: "commit",
        };
        assert!(e.to_string().contains("commit"));
        assert!(e.to_string().contains("blocked"));
        let e = CoreError::Aborted {
            txn: t,
            reason: AbortReason::DeadlockCycle,
        };
        assert!(e.to_string().contains("aborted"));
        assert!(CoreError::DuplicateObject("x".into()).to_string().contains("x"));
        assert!(CoreError::NoPendingOperation(t).to_string().contains("T3"));
        let e = CoreError::RetriesExhausted { txn: t, attempts: 11 };
        assert!(e.to_string().contains("11 attempts"));
        assert!(e.to_string().contains("T3"));
    }

    #[test]
    fn scheduler_abort_predicate() {
        let t = TxnId(7);
        let scheduler = CoreError::Aborted {
            txn: t,
            reason: AbortReason::DeadlockCycle,
        };
        assert!(scheduler.is_scheduler_abort_of(t));
        assert!(!scheduler.is_scheduler_abort_of(TxnId(8)), "different txn");
        let explicit = CoreError::Aborted {
            txn: t,
            reason: AbortReason::Explicit,
        };
        assert!(!explicit.is_scheduler_abort_of(t), "explicit aborts are not retried");
        assert!(!CoreError::UnknownTransaction(t).is_scheduler_abort_of(t));

        // The retry rule adds exactly one class: the attempt's own
        // transaction found already aborted.
        assert!(scheduler.is_retryable_for(t));
        assert!(!explicit.is_retryable_for(t));
        let raced = |txn, state| CoreError::InvalidState {
            txn,
            state,
            action: "commit",
        };
        assert!(raced(t, TxnState::Aborted).is_retryable_for(t));
        assert!(!raced(TxnId(8), TxnState::Aborted).is_retryable_for(t));
        assert!(!raced(t, TxnState::Blocked).is_retryable_for(t));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&CoreError::UnknownTransaction(TxnId(1)));
    }
}
