//! The [`DependencyGraph`]: transactions as nodes, typed directed edges.
//!
//! Edges always point **from the dependent transaction to the transaction it
//! depends on**: a blocked transaction points at the holders it waits for,
//! and a transaction that executed a recoverable operation points at the
//! transactions that must commit before it. With that orientation the
//! commit protocol of Section 4.3 becomes: "when a node's commit-dependency
//! out-degree (to live nodes) drops to zero, a pseudo-committed transaction
//! may actually commit".
//!
//! # Cycle checks
//!
//! The scheduler runs a cycle check on *every* blocking or recoverable
//! request — the paper reports this "cycle check ratio" as the price of
//! going beyond commutativity. [`DependencyGraph::would_close_cycle`] is a
//! plain depth-first search from the targets over out-edges with a visited
//! set: O(nodes reachable from the targets), and O(1) when no edge points
//! at the requester, since then nothing can lead back to it. The graph
//! holds live transactions only, so the search stays small.
//!
//! [`crate::cycle::has_cycle_scc`] (a from-scratch Tarjan SCC pass) is the
//! property-test oracle, and [`DependencyGraph::would_close_cycle_oracle`]
//! exposes an oracle-backed check so differential tests can run both side
//! by side.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// Trait bound bundle for node identifiers.
pub trait NodeId: Copy + Eq + Hash + Ord + fmt::Debug {}
impl<T: Copy + Eq + Hash + Ord + fmt::Debug> NodeId for T {}

/// The two kinds of dependency edges the protocol maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeKind {
    /// The source transaction is blocked waiting for the target to
    /// terminate (classic wait-for edge).
    WaitFor,
    /// The source transaction executed an operation that is recoverable
    /// relative to an uncommitted operation of the target; if both commit,
    /// the target must commit first.
    CommitDep,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKind::WaitFor => write!(f, "wait-for"),
            EdgeKind::CommitDep => write!(f, "commit-dep"),
        }
    }
}

/// Per-target edge bookkeeping: how many wait-for and commit-dependency
/// edges currently point from a source to this target.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EdgeCounts {
    wait_for: u32,
    commit_dep: u32,
}

impl EdgeCounts {
    fn get(&self, kind: EdgeKind) -> u32 {
        match kind {
            EdgeKind::WaitFor => self.wait_for,
            EdgeKind::CommitDep => self.commit_dep,
        }
    }

    fn get_mut(&mut self, kind: EdgeKind) -> &mut u32 {
        match kind {
            EdgeKind::WaitFor => &mut self.wait_for,
            EdgeKind::CommitDep => &mut self.commit_dep,
        }
    }

    fn is_empty(&self) -> bool {
        self.wait_for == 0 && self.commit_dep == 0
    }
}

/// A node's adjacency: outgoing and incoming edge multisets.
#[derive(Debug, Clone)]
struct Adjacency<N: NodeId> {
    out: HashMap<N, EdgeCounts>,
    incoming: HashSet<N>,
}

impl<N: NodeId> Default for Adjacency<N> {
    fn default() -> Self {
        Adjacency {
            out: HashMap::new(),
            incoming: HashSet::new(),
        }
    }
}

/// The combined wait-for / commit-dependency graph.
///
/// Multiple logical edges between the same ordered pair (e.g. several
/// recoverable operations against the same holder) are reference counted,
/// so removing one logical edge does not prematurely drop the dependency.
///
/// # Example
///
/// The scheduler's admission loop in miniature — vet an edge with
/// [`Self::would_close_cycle`] and insert it only on a negative answer:
///
/// ```
/// use sbcc_graph::{DependencyGraph, EdgeKind};
///
/// let mut g: DependencyGraph<u32> = DependencyGraph::new();
/// // T2 executed a recoverable op against T1; T3 waits for T2.
/// g.add_edge(2, 1, EdgeKind::CommitDep);
/// g.add_edge(3, 2, EdgeKind::WaitFor);
///
/// // Would blocking T1 behind T3 close a cycle? (Yes: 3 → 2 → 1.)
/// assert!(g.would_close_cycle(1, &[3]));
/// // Nothing depends on T3, so nothing can lead back to it: T3 may wait
/// // for T1, and the check answers without a search.
/// assert!(!g.would_close_cycle(3, &[1]));
/// g.add_edge(3, 1, EdgeKind::WaitFor);
///
/// // Every check counts once towards the paper's cycle check ratio.
/// assert_eq!(g.cycle_checks(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DependencyGraph<N: NodeId> {
    nodes: HashMap<N, Adjacency<N>>,
    cycle_checks: u64,
}

impl<N: NodeId> Default for DependencyGraph<N> {
    fn default() -> Self {
        DependencyGraph::new()
    }
}

impl<N: NodeId> DependencyGraph<N> {
    /// An empty graph.
    pub fn new() -> Self {
        DependencyGraph {
            nodes: HashMap::new(),
            cycle_checks: 0,
        }
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = N> + '_ {
        self.nodes.keys().copied()
    }

    /// Insert a node with no edges; a no-op if already present.
    pub fn add_node(&mut self, n: N) {
        self.nodes.entry(n).or_default();
    }

    /// Remove a node together with all incident edges (both directions).
    ///
    /// This is what happens when a transaction terminates: "the node that
    /// corresponds to the terminating transaction together with the edges
    /// associated with the node is removed from the dependency graph".
    ///
    /// Returns `true` if the node was present.
    pub fn remove_node(&mut self, n: N) -> bool {
        let Some(adj) = self.nodes.remove(&n) else {
            return false;
        };
        for target in adj.out.keys() {
            if let Some(t) = self.nodes.get_mut(target) {
                t.incoming.remove(&n);
            }
        }
        for source in adj.incoming {
            if let Some(s) = self.nodes.get_mut(&source) {
                s.out.remove(&n);
            }
        }
        true
    }

    /// Add one logical edge `from -> to` of the given kind. Both endpoints
    /// are created if missing. Self-loops are ignored (a transaction never
    /// depends on itself) and return `false`.
    ///
    /// The edge goes in even if it closes a cycle; the scheduler asks
    /// [`Self::would_close_cycle`] first.
    pub fn add_edge(&mut self, from: N, to: N, kind: EdgeKind) -> bool {
        if from == to {
            return false;
        }
        self.nodes.entry(to).or_default().incoming.insert(from);
        let counts = self.nodes.entry(from).or_default().out.entry(to).or_default();
        *counts.get_mut(kind) += 1;
        true
    }

    /// Export the graph as a plain adjacency map over distinct `(from, to)`
    /// pairs — the input shape of the [`crate::cycle`] oracle algorithms.
    pub fn to_adjacency(&self) -> HashMap<N, Vec<N>> {
        self.nodes
            .iter()
            .map(|(n, adj)| (*n, adj.out.keys().copied().collect()))
            .collect()
    }

    /// Remove one logical edge `from -> to` of the given kind (decrement the
    /// multiplicity). Returns `true` if such an edge existed.
    pub fn remove_edge(&mut self, from: N, to: N, kind: EdgeKind) -> bool {
        let Some(from_adj) = self.nodes.get_mut(&from) else {
            return false;
        };
        let Some(counts) = from_adj.out.get_mut(&to) else {
            return false;
        };
        let slot = counts.get_mut(kind);
        if *slot == 0 {
            return false;
        }
        *slot -= 1;
        if counts.is_empty() {
            from_adj.out.remove(&to);
            if let Some(to_adj) = self.nodes.get_mut(&to) {
                to_adj.incoming.remove(&from);
            }
        }
        true
    }

    /// Multiplicity of `from -> to` edges of the given kind.
    pub fn edge_multiplicity(&self, from: N, to: N, kind: EdgeKind) -> u32 {
        self.nodes
            .get(&from)
            .and_then(|a| a.out.get(&to))
            .map(|c| c.get(kind))
            .unwrap_or(0)
    }

    /// `true` if there is at least one `from -> to` edge of the given kind.
    pub fn has_edge(&self, from: N, to: N, kind: EdgeKind) -> bool {
        self.edge_multiplicity(from, to, kind) > 0
    }

    /// Outgoing neighbours connected by at least one edge of the given kind.
    pub fn out_neighbors_kind(&self, n: N, kind: EdgeKind) -> Vec<N> {
        self.nodes
            .get(&n)
            .map(|a| {
                a.out
                    .iter()
                    .filter(|(_, c)| c.get(kind) > 0)
                    .map(|(t, _)| *t)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of distinct targets `n` has an edge of either kind to (0 for
    /// an absent node). A pseudo-committed transaction may actually commit
    /// once this drops to zero.
    pub fn out_degree(&self, n: N) -> usize {
        self.nodes.get(&n).map_or(0, |a| a.out.len())
    }

    /// How many times a cycle check (`would_close_cycle*`, `has_cycle`)
    /// has been invoked on this graph. The simulation
    /// study reports this as the *cycle check ratio*.
    pub fn cycle_checks(&self) -> u64 {
        self.cycle_checks
    }

    /// Would adding edges `from -> t` (for every `t` in `targets`) close a
    /// cycle? Equivalently: is `from` reachable from any target over edges
    /// of either kind?
    ///
    /// The check is performed **without** mutating the graph, so the caller
    /// can decide to abort the requester instead of inserting the edges.
    /// A path back to `from` must end in an edge pointing at `from`, so a
    /// requester nothing depends on is answered in O(1); otherwise a
    /// depth-first search runs from the targets over out-edges.
    pub fn would_close_cycle(&mut self, from: N, targets: &[N]) -> bool {
        self.cycle_checks += 1;
        if self.nodes.get(&from).map_or(true, |adj| adj.incoming.is_empty()) {
            return false;
        }
        let mut stack: Vec<N> = Vec::new();
        let mut visited: HashSet<N> = HashSet::new();
        // A target equal to `from` would be a self-edge, which is never
        // inserted and therefore cannot close a cycle.
        for t in targets {
            if *t != from && self.nodes.contains_key(t) && visited.insert(*t) {
                stack.push(*t);
            }
        }
        while let Some(n) = stack.pop() {
            for next in self.nodes[&n].out.keys() {
                if *next == from {
                    return true;
                }
                if visited.insert(*next) {
                    stack.push(*next);
                }
            }
        }
        false
    }

    /// Oracle-backed equivalent of [`Self::would_close_cycle`]: copy the
    /// graph into a plain adjacency map, add the hypothetical edges and run
    /// a from-scratch Tarjan SCC pass. The insert closes a cycle *through
    /// the new edges* exactly when `from` ends up in the same strongly
    /// connected component as one of the targets. Retained for
    /// differential tests; it must always agree with the search.
    pub fn would_close_cycle_oracle(&mut self, from: N, targets: &[N]) -> bool {
        self.cycle_checks += 1;
        let mut adj = self.to_adjacency();
        let entry = adj.entry(from).or_default();
        for t in targets {
            if *t != from {
                entry.push(*t);
            }
        }
        for t in targets {
            adj.entry(*t).or_default();
        }
        let components = crate::cycle::strongly_connected_components(&adj);
        components.iter().any(|component| {
            component.contains(&from) && targets.iter().any(|t| *t != from && component.contains(t))
        })
    }

    /// Full-graph acyclicity check over both edge kinds (used by tests and
    /// invariant assertions rather than the hot path): a three-colour
    /// depth-first search, O(nodes + edges).
    pub fn has_cycle(&mut self) -> bool {
        self.cycle_checks += 1;
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: HashMap<N, Color> = self.nodes.keys().map(|n| (*n, Color::White)).collect();

        // Iterative DFS with explicit stack to avoid recursion depth limits.
        let node_list: Vec<N> = self.nodes.keys().copied().collect();
        for root in node_list {
            if color[&root] != Color::White {
                continue;
            }
            let mut stack = vec![(root, false)];
            while let Some((n, processed)) = stack.pop() {
                if processed {
                    color.insert(n, Color::Black);
                    continue;
                }
                if color[&n] == Color::Black {
                    continue;
                }
                color.insert(n, Color::Gray);
                stack.push((n, true));
                let Some(adj) = self.nodes.get(&n) else {
                    continue;
                };
                for next in adj.out.keys() {
                    match color[next] {
                        Color::White => stack.push((*next, false)),
                        // A back edge n -> next closes a cycle.
                        Color::Gray => return true,
                        Color::Black => {}
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type G = DependencyGraph<u64>;

    #[test]
    fn add_and_remove_nodes() {
        let mut g = G::new();
        assert_eq!(g.nodes().count(), 0);
        g.add_node(1);
        g.add_node(1);
        g.add_node(2);
        assert_eq!(g.nodes().count(), 2);
        assert!(g.nodes().any(|n| n == 1));
        assert!(g.remove_node(1));
        assert!(!g.remove_node(1));
        assert_eq!(g.nodes().count(), 1);
        let nodes: Vec<u64> = g.nodes().collect();
        assert_eq!(nodes, vec![2]);
    }

    #[test]
    fn edges_are_reference_counted() {
        let mut g = G::new();
        assert!(g.add_edge(1, 2, EdgeKind::CommitDep));
        assert!(g.add_edge(1, 2, EdgeKind::CommitDep));
        assert!(g.add_edge(1, 2, EdgeKind::WaitFor));
        assert_eq!(g.edge_multiplicity(1, 2, EdgeKind::CommitDep), 2);
        assert_eq!(g.edge_multiplicity(1, 2, EdgeKind::WaitFor), 1);
        assert_eq!(g.to_adjacency()[&1], vec![2], "one (from, to) pair");

        assert!(g.remove_edge(1, 2, EdgeKind::CommitDep));
        assert!(g.has_edge(1, 2, EdgeKind::CommitDep), "one edge remains");
        assert!(g.remove_edge(1, 2, EdgeKind::CommitDep));
        assert!(!g.has_edge(1, 2, EdgeKind::CommitDep));
        assert!(!g.remove_edge(1, 2, EdgeKind::CommitDep));
        assert!(g.has_edge(1, 2, EdgeKind::WaitFor), "wait-for edge still present");
        assert!(g.remove_edge(1, 2, EdgeKind::WaitFor));
        assert!(!g.has_edge(1, 2, EdgeKind::WaitFor));
        assert!(g.to_adjacency()[&1].is_empty());
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = G::new();
        assert!(!g.add_edge(5, 5, EdgeKind::WaitFor));
        assert!(g.to_adjacency().values().all(|targets| targets.is_empty()));
    }

    #[test]
    fn removing_a_node_removes_incident_edges() {
        let mut g = G::new();
        g.add_edge(1, 2, EdgeKind::WaitFor);
        g.add_edge(2, 3, EdgeKind::CommitDep);
        g.add_edge(3, 1, EdgeKind::CommitDep);
        assert!(g.remove_node(2));
        assert!(g.has_edge(3, 1, EdgeKind::CommitDep));
        let adj = g.to_adjacency();
        assert_eq!(adj.len(), 2, "node 2 is gone");
        assert!(adj[&1].is_empty(), "1 -> 2 went with it");
        assert_eq!(adj[&3], vec![1]);
    }

    #[test]
    fn out_and_in_neighbors() {
        let mut g = G::new();
        g.add_edge(1, 2, EdgeKind::WaitFor);
        g.add_edge(1, 3, EdgeKind::CommitDep);
        g.add_edge(4, 1, EdgeKind::CommitDep);
        assert_eq!(g.out_neighbors_kind(1, EdgeKind::WaitFor), vec![2]);
        assert_eq!(g.out_neighbors_kind(1, EdgeKind::CommitDep), vec![3]);
        assert!(g.out_neighbors_kind(99, EdgeKind::WaitFor).is_empty());
    }

    #[test]
    fn out_degree_counts_distinct_targets_of_either_kind() {
        let mut g = G::new();
        g.add_edge(3, 1, EdgeKind::CommitDep);
        g.add_edge(3, 1, EdgeKind::WaitFor);
        g.add_edge(3, 2, EdgeKind::CommitDep);
        assert_eq!([1, 3, 99].map(|n| g.out_degree(n)), [0, 2, 0]);
        g.remove_node(1);
        assert_eq!(g.out_degree(3), 1);
    }

    #[test]
    fn would_close_cycle_detects_exactly_the_cycles() {
        let mut g = G::new();
        g.add_edge(2, 1, EdgeKind::CommitDep); // T2 depends on T1
        assert!(
            !g.would_close_cycle(3, &[1]),
            "3 -> 1 creates no cycle"
        );
        assert!(
            g.would_close_cycle(1, &[2]),
            "1 -> 2 plus existing 2 -> 1 closes a cycle"
        );
        g.add_edge(3, 2, EdgeKind::WaitFor);
        assert!(
            g.would_close_cycle(1, &[3]),
            "mixed-kind cycles (wait-for + commit-dep) are detected"
        );
        assert!(!g.would_close_cycle(1, &[]), "no targets, no cycle");
        assert!(g.cycle_checks() >= 4);
    }

    #[test]
    fn requester_without_in_edges_is_answered_without_a_search() {
        // A 1 000-node chain hangs below 999; nothing depends on 5 000, so
        // no target can lead back to it however far the target reaches.
        let mut g = G::new();
        for i in 1..1_000u64 {
            g.add_edge(i, i - 1, EdgeKind::CommitDep);
        }
        g.add_node(5_000);
        assert!(!g.would_close_cycle(5_000, &[999]));
        assert_eq!(g.cycle_checks(), 1, "the early answer still counts once");
        assert!(!g.would_close_cycle(7_000, &[999]), "absent requester");
        assert_eq!(g.cycle_checks(), 2);
        // 0 has an in-edge, so the same target is searched and reaches it.
        assert!(g.would_close_cycle(0, &[999]));
        assert_eq!(g.cycle_checks(), 3);
    }

    #[test]
    fn has_cycle_and_find_cycle() {
        let mut g = G::new();
        g.add_edge(1, 2, EdgeKind::WaitFor);
        g.add_edge(2, 3, EdgeKind::CommitDep);
        assert!(!g.has_cycle());
        g.add_edge(3, 1, EdgeKind::WaitFor);
        assert!(g.has_cycle());
    }

    #[test]
    fn cycle_check_counter_counts_every_check() {
        let mut g = G::new();
        g.add_edge(1, 2, EdgeKind::WaitFor);
        let _ = g.has_cycle();
        let _ = g.would_close_cycle(2, &[1]);
        let _ = g.would_close_cycle_oracle(2, &[1]);
        assert_eq!(g.cycle_checks(), 3);
        g.add_edge(2, 3, EdgeKind::WaitFor);
        g.remove_node(3);
        assert_eq!(g.cycle_checks(), 3, "maintenance is not a check");
    }

    #[test]
    fn render_mentions_both_edge_kinds() {
        assert_eq!(EdgeKind::WaitFor.to_string(), "wait-for");
        assert_eq!(EdgeKind::CommitDep.to_string(), "commit-dep");
    }

    #[test]
    fn long_chains_do_not_overflow_the_stack() {
        // Both searches are iterative; a 100k-node chain plus a closing
        // edge must be handled without recursion issues.
        let mut g = G::new();
        let n = 100_000u64;
        for i in (0..n).rev() {
            g.add_edge(i, i + 1, EdgeKind::CommitDep);
        }
        assert!(!g.has_cycle());
        g.add_edge(n, 0, EdgeKind::WaitFor);
        assert!(g.has_cycle());
        assert!(g.would_close_cycle(0, &[n]));
    }

    #[test]
    fn adversarial_insert_order_stays_correct() {
        // Every edge points at a node created after its source — the
        // scheduler never produces that shape (a transaction depends on
        // *older* transactions), but the checks must not depend on it.
        let mut g = G::new();
        let n = 1_500u64;
        for i in 0..n {
            g.add_edge(i, i + 1, EdgeKind::CommitDep);
        }
        assert!(!g.has_cycle());
        assert!(g.would_close_cycle(n, &[0]));
        assert!(!g.would_close_cycle(0, &[n]), "0 already reaches n");
        g.add_edge(n, 0, EdgeKind::WaitFor);
        assert!(g.has_cycle());
    }

    #[test]
    fn in_order_and_reversed_inserts_give_the_same_reachability() {
        // The same chain `i -> i - 1`, inserted oldest-first and
        // newest-first: every node reaches exactly the older ones.
        let mut oldest_first = G::new();
        for i in 1..50u64 {
            oldest_first.add_edge(i, i - 1, EdgeKind::CommitDep);
        }
        let mut newest_first = G::new();
        for i in (1..50u64).rev() {
            newest_first.add_edge(i, i - 1, EdgeKind::WaitFor);
        }
        for g in [&mut oldest_first, &mut newest_first] {
            assert!(!g.has_cycle());
            for i in 1..50u64 {
                assert!(g.would_close_cycle(i - 1, &[i]));
                assert!(!g.would_close_cycle(i, &[i - 1]));
            }
        }
    }

    #[test]
    fn a_cycle_lasts_until_one_of_its_edges_or_nodes_goes() {
        let mut g = G::new();
        g.add_edge(1, 2, EdgeKind::WaitFor);
        g.add_edge(2, 3, EdgeKind::WaitFor);
        assert!(!g.has_cycle());
        g.add_edge(3, 1, EdgeKind::CommitDep); // closes a cycle
        assert!(g.has_cycle());
        assert!(g.would_close_cycle(3, &[1]));
        assert!(g.remove_edge(3, 1, EdgeKind::CommitDep));
        assert!(!g.has_cycle());

        // Same via node removal.
        g.add_edge(3, 1, EdgeKind::CommitDep);
        assert!(g.has_cycle());
        g.remove_node(3);
        assert!(!g.has_cycle());
    }

    #[test]
    fn search_and_oracle_checks_agree() {
        let mut g = G::new();
        g.add_edge(2, 1, EdgeKind::CommitDep);
        g.add_edge(3, 2, EdgeKind::WaitFor);
        g.add_edge(4, 2, EdgeKind::CommitDep);
        for from in 1..=5u64 {
            for target in 1..=5u64 {
                let search = g.would_close_cycle(from, &[target]);
                let oracle = g.would_close_cycle_oracle(from, &[target]);
                assert_eq!(search, oracle, "from={from} target={target} disagree");
            }
        }
    }

    #[test]
    fn a_backward_join_of_two_chains_keeps_reachability() {
        let mut g = G::new();
        for i in 1..10u64 {
            g.add_edge(i, i - 1, EdgeKind::CommitDep);
        }
        for i in 101..110u64 {
            g.add_edge(i, i - 1, EdgeKind::CommitDep);
        }
        // 0 (the oldest of chain A) now depends on 109 (the newest of B).
        g.add_edge(0, 109, EdgeKind::WaitFor);
        assert!(!g.has_cycle());
        assert!(!g.would_close_cycle(109, &[100]));
        assert!(g.would_close_cycle(109, &[0]));
        assert!(g.would_close_cycle(100, &[9]), "9 reaches B through 0");
    }

    #[test]
    fn to_adjacency_exports_all_pairs_and_isolated_nodes() {
        let mut g = G::new();
        g.add_edge(1, 2, EdgeKind::WaitFor);
        g.add_edge(1, 2, EdgeKind::CommitDep);
        g.add_node(9);
        let adj = g.to_adjacency();
        assert_eq!(adj[&1], vec![2]);
        assert!(adj[&2].is_empty());
        assert!(adj[&9].is_empty());
        assert!(!crate::cycle::has_cycle_scc(&adj));
    }
}
