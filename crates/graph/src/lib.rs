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
//! for transaction ids, object ids, or test scaffolding. `sbcc-core` keeps
//! exactly one graph of transaction ids per database, shared by all its
//! shards; a transaction's node appears with its first edge.
//!
//! # Cycle checks
//!
//! [`DependencyGraph::would_close_cycle`] is a plain depth-first search
//! from the targets, answered in O(1) when nothing depends on the
//! requester; `tests/cycle_oracle.rs` pins it, and
//! [`DependencyGraph::has_cycle`], against the from-scratch Tarjan SCC
//! oracle in [`cycle`] across arbitrary edge-insert/remove sequences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycle;
pub mod graph;

pub use graph::{DependencyGraph, EdgeKind, NodeId};
