//! # sbcc-core — the recoverability-based concurrency-control kernel
//!
//! This crate implements the concurrency control and commit protocol of
//! *Semantics-Based Concurrency Control: Beyond Commutativity*
//! (Badrinath & Ramamritham, ICDE 1987 / ACM TODS 1992):
//!
//! * [`SchedulerKernel`] — the deterministic, synchronous scheduler:
//!   object managers with execution logs, conflict classification based on
//!   commutativity **and recoverability**, blocking with deadlock detection,
//!   commit-dependency tracking, pseudo-commit and the cascading actual
//!   commit protocol, plus recovery by intentions lists.
//! * [`ShardedKernel`] — N scheduler kernels, each owning a disjoint
//!   (name-hashed) set of objects behind its own lock, sharing one
//!   dependency graph, plus a cross-shard coordinator for transaction
//!   liveness and commit votes (see the [`shard`] module docs for the
//!   invariants and the protocol).
//! * [`Database`] — the thread-safe, session-based front-end over the
//!   sharded kernel: typed [`Handle`]s, [`Transaction`] guards that
//!   auto-abort on drop, one kernel request per operation, and the
//!   [`Database::run`] retry runner (see the [`db`] module docs for the
//!   full session model).
//! * [`aio::AsyncDatabase`] — the **async** session front-end over the
//!   same database: operations are futures that suspend instead of
//!   parking OS threads, so one executor thread multiplexes thousands of
//!   in-flight transactions. Ships an executor-agnostic API plus a
//!   minimal [`aio::block_on`] / [`aio::LocalExecutor`] harness (see the
//!   [`aio`] module docs for the sync-vs-async migration table).
//! * [`HistoryRecorder`] and the `verify_*` checkers — off-line validation
//!   that executions are serializable in commit order and respect the
//!   dynamic commit dependencies.
//! * [`ConflictPolicy::CommutativityOnly`] — the baseline scheduler the
//!   paper compares against, sharing every other mechanism so performance
//!   comparisons isolate exactly the conflict predicate.
//!
//! A map of how these layers fit together — graph substrate, kernel,
//! shard coordinator, the two session front-ends, simulator and
//! experiments — lives in `ARCHITECTURE.md` at the repository root,
//! together with the life of one transaction through
//! admission/blocking/commit.
//!
//! ## Example
//!
//! ```
//! use sbcc_core::{SchedulerKernel, SchedulerConfig, RequestOutcome, CommitOutcome};
//! use sbcc_adt::{Stack, StackOp, AdtOp, Value};
//!
//! let mut kernel = SchedulerKernel::new(SchedulerConfig::default());
//! let stack = kernel.register("jobs", Stack::new()).unwrap();
//!
//! let t1 = kernel.begin();
//! let t2 = kernel.begin();
//!
//! // Two pushes do not commute, but the second is recoverable relative to
//! // the first: both execute immediately, and T2 picks up a commit
//! // dependency on T1.
//! let r1 = kernel.request(t1, stack, StackOp::Push(Value::Int(4)).to_call()).unwrap();
//! assert!(r1.is_executed());
//! let r2 = kernel.request(t2, stack, StackOp::Push(Value::Int(2)).to_call()).unwrap();
//! match r2 {
//!     RequestOutcome::Executed { commit_deps, .. } => assert_eq!(commit_deps, vec![t1]),
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//!
//! // T2 finishes first: it pseudo-commits (complete from the user's view),
//! // and actually commits as soon as T1 terminates.
//! let c2 = kernel.commit(t2).unwrap();
//! assert!(c2.is_pseudo_commit());
//! let c1 = kernel.commit(t1).unwrap();
//! assert_eq!(c1, CommitOutcome::Committed);
//! assert!(kernel.drain_events().iter().any(|e| e.txn() == t2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aio;
pub mod chaos;
pub mod db;
pub mod errors;
pub mod events;
pub mod history;
pub mod kernel;
pub mod object;
pub mod policy;
pub mod shard;
pub mod stats;
pub mod txn;

pub use aio::{race, AsyncDatabase, AsyncTransaction, LocalExecutor, RaceWinner};
pub use chaos::{ChaosHook, ChaosPoint, ClockHook, TimeoutPoint};
pub use db::{Database, Handle, ObjectHandle, Transaction};
pub use errors::CoreError;
pub use events::{
    AbortReason, BatchOutcome, BatchStop, CommitOutcome, KernelEvent, RequestOutcome,
};
pub use history::{
    verify_commit_order_respects_dependencies, verify_commit_order_serializable, HistoryRecorder,
    TxnFate, TxnHistory,
};
pub use kernel::SchedulerKernel;
pub use object::{BlockedRequest, Classification, LogEntry, ManagedObject, ObjectId};
pub use policy::{ConflictPolicy, RecoveryStrategy, SchedulerConfig};
/// The write-ahead-log crate, re-exported for crash-image surgery in
/// tests and tools (log-file paths, record codec).
pub use sbcc_wal as wal;
pub use sbcc_wal::{FsyncPolicy, WalConfig};
pub use shard::{shard_of_name, DatabaseConfig, ObjectLoc, ShardCount, ShardedKernel};
pub use stats::{KernelStats, NetStats, OrderTelemetry, ShardStats, StatsSnapshot};
pub use txn::{BatchCall, ExecutedOp, PendingRequest, TxnId, TxnRecord, TxnState};
