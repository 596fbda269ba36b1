//! # SBCC — Semantics-Based Concurrency Control: Beyond Commutativity
//!
//! A production-quality reproduction of Badrinath & Ramamritham's
//! recoverability-based concurrency control (ICDE 1987 / ACM TODS 1992).
//!
//! This facade crate re-exports the workspace crates so applications can use
//! a single dependency:
//!
//! * [`adt`] — abstract data types, operation semantics, commutativity and
//!   recoverability compatibility tables (paper Tables I–VIII).
//! * [`graph`] — the dependency-graph substrate (wait-for + commit-dependency
//!   edges, cycle and deadlock detection).
//! * [`core`] — the concurrency-control kernel: object managers, the
//!   Figure-2 scheduling algorithm, pseudo-commit / commit protocol,
//!   intentions-list recovery, a thread-safe [`core::Database`] front-end, and
//!   the async session front-end [`core::aio`] (futures instead of parked
//!   threads: one runtime thread multiplexes thousands of in-flight
//!   transactions — see `examples/async_front_end.rs`).
//! * [`sim`] — the closed-queuing-network simulator and workload generators
//!   used to reproduce the paper's evaluation (Figures 4–18).
//! * [`net`] — the wire-protocol TCP front-end: a [`net::Server`]
//!   multiplexing client connections onto async sessions, and a
//!   blocking/pipelined [`net::NetClient`] (see
//!   `examples/net_client.rs`).
//!
//! `ARCHITECTURE.md` at the repository root maps how these layers fit
//! together (graph → kernel → shard coordinator → sync/async front-ends →
//! sim/experiments) and walks one transaction through
//! admission/blocking/commit, including the one dependency graph all
//! shards share and the pseudo-commit votes.
//!
//! ## Quickstart
//!
//! ```
//! use sbcc::core::{Database, SchedulerConfig, ConflictPolicy};
//! use sbcc::adt::{Stack, StackOp, Value};
//!
//! let db = Database::new(SchedulerConfig::default().with_policy(ConflictPolicy::Recoverability));
//! let s = db.register("jobs", Stack::new());
//!
//! let t1 = db.begin();
//! let t2 = db.begin();
//! let id2 = t2.id();
//! // Two pushes do not commute, but push is recoverable relative to push:
//! // both execute immediately; t2 merely acquires a commit dependency on t1.
//! t1.exec(&s, StackOp::Push(Value::Int(4))).unwrap();
//! t2.exec(&s, StackOp::Push(Value::Int(2))).unwrap();
//! let o2 = t2.commit().unwrap();
//! assert!(o2.is_pseudo_commit()); // t2 must wait for t1 to terminate
//! let o1 = t1.commit().unwrap();
//! assert!(o1.is_full_commit());
//! assert!(db.outcome_of(id2).unwrap().is_full_commit()); // cascaded
//!
//! // Or let the database drive the session: `run` begins a transaction,
//! // commits on success and retries on scheduler-initiated aborts.
//! let top = db.run(|txn| txn.exec(&s, StackOp::Top)).unwrap();
//! assert_eq!(top, sbcc::adt::OpResult::Value(Value::Int(2)));
//! ```

pub use sbcc_adt as adt;
pub use sbcc_core as core;
pub use sbcc_graph as graph;
pub use sbcc_net as net;
pub use sbcc_sim as sim;

/// Version of the SBCC workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Convenience prelude bringing the most commonly used items into scope.
pub mod prelude {
    pub use crate::adt::{
        AbstractObject, AdtObject, AdtOp, AdtSpec, Compatibility, CompatibilityTable,
        ConflictTable, Counter, CounterOp, FifoQueue, OpCall, OpResult, Page, PageOp, QueueOp, Set,
        SetOp, Stack, StackOp, TableEntry, TableObject, TableOp, Value,
    };
    pub use crate::core::{
        AbortReason, AsyncDatabase, AsyncTransaction, BatchCall, BatchOutcome, BatchStop,
        CommitOutcome, ConflictPolicy, CoreError, Database, DatabaseConfig, Handle, KernelEvent,
        KernelStats, LocalExecutor, ObjectHandle, ObjectId, RecoveryStrategy, RequestOutcome,
        SchedulerConfig, SchedulerKernel, ShardCount, ShardedKernel, StatsSnapshot, Transaction,
        TxnId, TxnState,
    };
    pub use crate::graph::{DependencyGraph, EdgeKind};
    pub use crate::sim::{DataModel, ResourceMode, SimParams, SimulationResult, Simulator};
}
