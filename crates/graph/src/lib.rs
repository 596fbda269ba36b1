//! # sbcc-graph — the dependency-graph substrate
//!
//! The concurrency-control protocol of *Semantics-Based Concurrency
//! Control: Beyond Commutativity* maintains a single graph per system that
//! mixes two kinds of edges (Section 4.2):
//!
//! * **wait-for** edges — a blocked transaction points at the transactions
//!   whose uncommitted, non-recoverable operations it is waiting on
//!   (classic deadlock detection), and
//! * **commit-dependency** edges — a transaction that executed a
//!   *recoverable* (but non-commuting) operation points at the transactions
//!   whose earlier uncommitted operations it is recoverable relative to;
//!   if both commit, the pointee must commit first.
//!
//! Serializability requires the combined graph to stay acyclic (Lemma 4);
//! a request that would close a cycle causes the requesting transaction to
//! abort. "The detection of commit dependency cycles is combined with the
//! deadlock detection scheme that uses wait-for graphs", which is exactly
//! what [`DependencyGraph`] provides: one structure, typed edges, and
//! would-close-cycle checks that consider both edge kinds (or a filtered
//! subset, for analyses that only want the wait-for sub-graph).
//!
//! The crate is generic over the node identifier type so it can be reused
//! for transaction ids, object ids, or test scaffolding.
//!
//! # Algorithm notes: the maintained topological order
//!
//! The scheduler calls [`DependencyGraph::would_close_cycle`] on every
//! blocking or recoverable request, so the graph maintains an incremental
//! topological order (Pearce–Kelly) that prunes each check to a small
//! label window. Since the gap-label rework the order lives in sparse
//! `u64` labels: fresh nodes are placed one large gap (2³² by default)
//! above everything, and an order-violating insert is repaired by
//! relabeling **only the forward affected region** into the gap below the
//! source's label — in fixed inline scratch buffers, without heap
//! allocation, whenever the region holds at most 32 nodes. The
//! [`graph::OrderTelemetry`] counters prove the claim at runtime, and
//! [`graph::ReorderStrategy::DenseRedistribute`] keeps the pre-gap repair
//! alive as the reference the differential tests compare against.
//!
//! | operation | dense redistribute (pre-gap) | gap-labeled |
//! |---|---|---|
//! | fresh node | O(1) | O(1) |
//! | in-order edge insert | O(1) | O(1) |
//! | violating insert, forward region *F*, backward region *B* | discover *F* **and** *B*, sort both, re-pack the union into its sorted position pool — Θ((\|F\|+\|B\|) log(\|F\|+\|B\|)) and ≥ 4 heap allocations per violation | discover and relabel *F* only — Θ(\|F\| log \|F\|), **0 allocations** for \|F\| ≤ 32 |
//! | gap exhaustion | n/a (positions stay dense) | amortised spread renumbering, O(V + E) but exponentially rare per gap |
//! | cycle check, target labeled at or below requester | O(1) dismissal | O(1) dismissal |
//! | node / edge removal | O(degree) | O(degree) |
//!
//! Soundness of the forward-only relabel: labels strictly decrease along
//! every edge, so the region's external *dependencies* all sit at or below
//! the tracked `floor` label and its external *dependants* all sit at or
//! above the violated bound — placing the region strictly between the two,
//! preserving its internal order, re-establishes the invariant without
//! touching any other node. The differential proptests in
//! `tests/incremental_oracle.rs` pin the maintained order against the
//! from-scratch SCC oracle (and the dense repair) across arbitrary
//! edge-insert/remove sequences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycle;
pub mod graph;

pub use graph::{DependencyGraph, EdgeKind, NodeId, OrderTelemetry, ReorderStrategy};
