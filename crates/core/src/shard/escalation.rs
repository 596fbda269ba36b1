//! The cross-shard escalation graph (sharding invariant 4 in the
//! [module documentation](super)).

use crate::chaos::sync::Mutex;
use crate::txn::TxnId;
use sbcc_graph::{DependencyGraph, EdgeKind};

/// The cross-shard escalation graph: the union of every entangled shard's
/// dependency edges, behind its own small lock. Consulted only by cycle
/// checks in entangled shards; isolated shards never touch it.
#[derive(Debug, Default)]
pub struct GlobalGraph {
    graph: Mutex<DependencyGraph<TxnId>>,
}

impl GlobalGraph {
    /// An empty escalation graph.
    pub fn new() -> Self {
        GlobalGraph::default()
    }

    pub(crate) fn remove_node(&self, txn: TxnId) {
        self.graph.lock().remove_node(txn);
    }

    /// Remove one `from -> target` edge of `kind` per target, in one
    /// critical section (a waiter dropping the holders it no longer waits
    /// for).
    pub(crate) fn remove_edges(&self, from: TxnId, targets: &[TxnId], kind: EdgeKind) {
        let mut graph = self.graph.lock();
        for target in targets {
            graph.remove_edge(from, *target, kind);
        }
    }

    /// Escalated check **and reservation** in one critical section: if the
    /// hypothetical edges close no cycle, insert them immediately so that
    /// a concurrent escalated check from another shard sees them.
    ///
    /// The reservation is the edges' **only** mirror: the kernel adds them
    /// to its local graph afterwards without touching this graph again, so
    /// an admitted edge set costs one global critical section. Were the
    /// check and the mirror two sections, two requests racing in two
    /// entangled shards could each pass the check before either inserted
    /// its edge — admitting exactly the undetected cross-shard cycle the
    /// escalation path exists to refuse. A passed check is always followed
    /// by the kernel adding those edges (the Figure-2 branches never
    /// abandon them), so reserved edges are never phantom. A recoverable
    /// request may reserve a commit dependency the local graph already
    /// holds (the kernel deduplicates it locally); the extra multiplicity
    /// is harmless because a commit dependency leaves this graph only with
    /// its node. Wait-for edges are the one thing removed pair by pair
    /// (`remove_edges`, when a waiter stops waiting for a holder),
    /// and a waiter reserves each of those exactly once: a retried
    /// request never re-reserves a holder it already waits for.
    pub fn check_and_reserve(&self, from: TxnId, targets: &[TxnId], kind: EdgeKind) -> bool {
        let mut graph = self.graph.lock();
        if graph.would_close_cycle(from, targets) {
            return true;
        }
        for target in targets {
            graph.add_edge(from, *target, kind);
        }
        false
    }

    /// Bulk-mirror every edge of a shard's local graph (entanglement
    /// upload). Returns the number of logical edges mirrored.
    pub(crate) fn mirror_all(&self, local: &DependencyGraph<TxnId>) -> u64 {
        let mut g = self.graph.lock();
        let mut mirrored = 0u64;
        local.for_each_edge(|from, to, kind, multiplicity| {
            for _ in 0..multiplicity {
                g.add_edge(from, to, kind);
            }
            mirrored += u64::from(multiplicity);
        });
        mirrored
    }

    /// Multiplicity of `from -> to` edges of the given kind (invariant
    /// validation: every edge of an entangled shard must be present here).
    pub(crate) fn edge_multiplicity(&self, from: TxnId, to: TxnId, kind: EdgeKind) -> u32 {
        self.graph.lock().edge_multiplicity(from, to, kind)
    }

    /// Cycle checks performed on this graph so far.
    pub fn cycle_checks(&self) -> u64 {
        self.graph.lock().cycle_checks()
    }

    /// Reorder telemetry of the escalation graph. Mirrored edges arrive in
    /// per-shard admission order, which can violate the global graph's own
    /// maintained order, so entangled workloads repair here too.
    pub fn reorder_telemetry(&self) -> sbcc_graph::OrderTelemetry {
        self.graph.lock().order_telemetry()
    }

    /// Full-graph acyclicity check (invariant validation).
    pub fn has_cycle(&self) -> bool {
        self.graph.lock().has_cycle()
    }
}
