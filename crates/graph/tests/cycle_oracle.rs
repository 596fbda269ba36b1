//! Property tests pinning the graph's cycle checks to the from-scratch
//! Tarjan SCC oracle (`has_cycle_scc`, `would_close_cycle_oracle`):
//!
//! * `would_close_cycle` and `has_cycle` agree with the oracle after
//!   arbitrary edge-insert/remove sequences, including while the graph is
//!   cyclic, at `embedded_contended`'s live population (32 transactions)
//!   with up to 8 targets per check;
//! * every check counts exactly once towards the cycle check ratio, and
//!   graph maintenance never counts;
//! * a requester's own out-edges never change a would-close-cycle
//!   verdict, which is what lets the kernel re-block a retried request
//!   without re-checking the holders it already waits for.

use proptest::prelude::*;
use sbcc_graph::cycle::has_cycle_scc;
use sbcc_graph::{DependencyGraph, EdgeKind};

#[derive(Debug, Clone)]
enum Op {
    AddEdge(u32, u32, EdgeKind),
    RemoveEdge(u32, u32, EdgeKind),
    RemoveNode(u32),
    Query(u32, Vec<u32>),
}

fn arb_kind() -> impl Strategy<Value = EdgeKind> {
    prop_oneof![Just(EdgeKind::WaitFor), Just(EdgeKind::CommitDep)]
}

/// Ops over `n_nodes` nodes, queries with up to `max_targets` targets.
/// Edge inserts are drawn twice as often as the other ops so the graph
/// grows dense enough to close cycles.
fn arb_op(n_nodes: u32, max_targets: usize) -> impl Strategy<Value = Op> {
    let add = || (0..n_nodes, 0..n_nodes, arb_kind()).prop_map(|(a, b, k)| Op::AddEdge(a, b, k));
    prop_oneof![
        add(),
        add(),
        (0..n_nodes, 0..n_nodes, arb_kind()).prop_map(|(a, b, k)| Op::RemoveEdge(a, b, k)),
        (0..n_nodes).prop_map(Op::RemoveNode),
        (0..n_nodes, proptest::collection::vec(0..n_nodes, 0..max_targets + 1))
            .prop_map(|(from, targets)| Op::Query(from, targets)),
    ]
}

fn apply(g: &mut DependencyGraph<u32>, op: &Op) {
    match op {
        Op::AddEdge(a, b, k) => {
            g.add_edge(*a, *b, *k);
        }
        Op::RemoveEdge(a, b, k) => {
            g.remove_edge(*a, *b, *k);
        }
        Op::RemoveNode(n) => {
            g.remove_node(*n);
        }
        Op::Query(..) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn would_close_cycle_and_has_cycle_agree_with_scc_oracle(
        ops in proptest::collection::vec(arb_op(32, 8), 1..160)
    ) {
        let mut g: DependencyGraph<u32> = DependencyGraph::new();
        for op in &ops {
            apply(&mut g, op);
            if let Op::Query(from, targets) = op {
                let search = g.would_close_cycle(*from, targets);
                let oracle = g.would_close_cycle_oracle(*from, targets);
                prop_assert_eq!(
                    search, oracle,
                    "would_close_cycle({:?}, {:?}) diverged after {:?}",
                    from, targets, ops
                );
            }
            prop_assert_eq!(g.has_cycle(), has_cycle_scc(&g.to_adjacency()));
        }
    }

    #[test]
    fn cycle_check_counter_is_monotone_and_counts_every_check(
        ops in proptest::collection::vec(arb_op(8, 3), 1..40)
    ) {
        let mut g: DependencyGraph<u32> = DependencyGraph::new();
        prop_assert_eq!(g.cycle_checks(), 0);
        for op in &ops {
            let before = g.cycle_checks();
            apply(&mut g, op);
            // Maintenance never counts as a scheduler cycle check.
            prop_assert_eq!(g.cycle_checks(), before);
            if let Op::Query(from, targets) = op {
                let _ = g.would_close_cycle(*from, targets);
                prop_assert_eq!(g.cycle_checks(), before + 1, "each check counts once");
                let _ = g.would_close_cycle_oracle(*from, targets);
                prop_assert_eq!(g.cycle_checks(), before + 2, "oracle checks count too");
            }
            let checks_before_has_cycle = g.cycle_checks();
            let _ = g.has_cycle();
            prop_assert_eq!(g.cycle_checks(), checks_before_has_cycle + 1);
        }
    }

    /// On an acyclic graph where `from` already points at `held`, a check
    /// of `targets` gives the same verdict with the held targets dropped,
    /// and the same verdict once `from`'s out-edges are removed — all
    /// three agreeing with the SCC oracle. A cycle closed by `from -> t`
    /// is a path from `t` back to `from`; no such path leaves through
    /// `from`'s own out-edges, and none starts at a held target.
    #[test]
    fn requesters_own_out_edges_never_change_the_verdict(
        edges in proptest::collection::vec((0..10u32, 0..10u32, arb_kind()), 0..40),
        from in 0..10u32,
        held in proptest::collection::vec((0..10u32, arb_kind()), 1..4),
        targets in proptest::collection::vec(0..10u32, 0..5),
    ) {
        let mut g: DependencyGraph<u32> = DependencyGraph::new();
        for n in 0..10u32 {
            g.add_node(n);
        }
        // Keep the graph acyclic, the way admission does: an edge goes in
        // only if it closes no cycle.
        let add_acyclic = |g: &mut DependencyGraph<u32>, a: u32, b: u32, k: EdgeKind| {
            if a != b && !g.would_close_cycle(a, &[b]) {
                g.add_edge(a, b, k);
            }
        };
        for (a, b, k) in &edges {
            add_acyclic(&mut g, *a, *b, *k);
        }
        for (h, k) in &held {
            add_acyclic(&mut g, from, *h, *k);
        }
        prop_assert!(!g.has_cycle());
        let out: Vec<u32> = [EdgeKind::WaitFor, EdgeKind::CommitDep]
            .iter()
            .flat_map(|k| g.out_neighbors_kind(from, *k))
            .collect();
        let fresh: Vec<u32> = targets.iter().copied().filter(|t| !out.contains(t)).collect();

        let oracle = g.would_close_cycle_oracle(from, &targets);
        let full = g.would_close_cycle(from, &targets);
        let without_held = g.would_close_cycle(from, &fresh);
        let mut cleared = g.clone();
        for kind in [EdgeKind::WaitFor, EdgeKind::CommitDep] {
            for t in cleared.out_neighbors_kind(from, kind) {
                while cleared.remove_edge(from, t, kind) {}
            }
        }
        let after_clear = cleared.would_close_cycle(from, &targets);
        let after_clear_oracle = cleared.would_close_cycle_oracle(from, &targets);

        prop_assert_eq!(full, oracle, "full target set vs oracle");
        prop_assert_eq!(without_held, oracle, "held targets dropped vs oracle");
        prop_assert_eq!(after_clear, oracle, "after removing from's out-edges");
        prop_assert_eq!(after_clear_oracle, oracle, "oracle after removing");
        // A held target alone never closes a cycle.
        let held_only: Vec<u32> = targets.iter().copied().filter(|t| out.contains(t)).collect();
        prop_assert!(!g.would_close_cycle(from, &held_only));
    }
}
