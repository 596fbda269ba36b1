//! Property tests proving the incremental cycle detector behaviourally
//! equivalent to the from-scratch SCC oracle (`has_cycle_scc`) across
//! random edge-insert/remove sequences, and that the cycle-check counter's
//! semantics stay monotone.
//!
//! Since the gap-label rework the suite additionally pins:
//!
//! * gap-labeled and dense-redistribute repairs agree with each other and
//!   with the SCC oracle on every query;
//! * the maintained labels are a genuine topological order after arbitrary
//!   edge/remove sequences (every edge's target labeled strictly below its
//!   source, i.e. sorting by label is a topological sort);
//! * forced gap exhaustion (label spacing 1) stays correct and actually
//!   takes the spread-renumbering path;
//! * the small-violation repair allocates nothing (regression for the
//!   allocation-free hot-path claim);
//! * a requester's own out-edges never change a would-close-cycle
//!   verdict, which is what lets the kernel re-block a retried request
//!   without re-checking the holders it already waits for.

use proptest::prelude::*;
use sbcc_graph::cycle::has_cycle_scc;
use sbcc_graph::{DependencyGraph, EdgeKind, ReorderStrategy};

#[derive(Debug, Clone)]
enum Op {
    AddEdge(u32, u32, EdgeKind),
    RemoveEdge(u32, u32, EdgeKind),
    RemoveNode(u32),
    ClearOut(u32, EdgeKind),
    Query(u32, Vec<u32>),
}

fn arb_kind() -> impl Strategy<Value = EdgeKind> {
    prop_oneof![Just(EdgeKind::WaitFor), Just(EdgeKind::CommitDep)]
}

fn arb_op(n_nodes: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n_nodes, 0..n_nodes, arb_kind()).prop_map(|(a, b, k)| Op::AddEdge(a, b, k)),
        (0..n_nodes, 0..n_nodes, arb_kind()).prop_map(|(a, b, k)| Op::RemoveEdge(a, b, k)),
        (0..n_nodes).prop_map(Op::RemoveNode),
        (0..n_nodes, arb_kind()).prop_map(|(a, k)| Op::ClearOut(a, k)),
        (0..n_nodes, proptest::collection::vec(0..n_nodes, 0..4))
            .prop_map(|(from, targets)| Op::Query(from, targets)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn incremental_detector_agrees_with_scc_oracle(
        ops in proptest::collection::vec(arb_op(10), 1..60)
    ) {
        let mut g: DependencyGraph<u32> = DependencyGraph::new();
        for op in &ops {
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
                Op::ClearOut(n, k) => {
                    g.clear_out_edges(*n, *k);
                }
                Op::Query(from, targets) => {
                    let incremental = g.would_close_cycle(*from, targets);
                    let oracle = g.would_close_cycle_oracle(*from, targets);
                    prop_assert_eq!(
                        incremental, oracle,
                        "would_close_cycle({:?}, {:?}) diverged after {:?}",
                        from, targets, ops
                    );
                }
            }
            // After every mutation: the maintained order must be internally
            // consistent, and the O(1)/fallback acyclicity answer must match
            // the from-scratch Tarjan SCC pass over the exported adjacency.
            prop_assert!(g.debug_check_order().is_ok(), "{:?}", g.debug_check_order());
            let oracle_cyclic = has_cycle_scc(&g.to_adjacency());
            prop_assert_eq!(g.has_cycle(), oracle_cyclic);
            if g.order_is_valid() {
                prop_assert!(!oracle_cyclic, "valid order implies acyclic");
            } else {
                prop_assert!(oracle_cyclic, "order is only invalidated by real cycles");
            }
        }
    }

    #[test]
    fn cycle_check_counter_is_monotone_and_counts_every_check(
        ops in proptest::collection::vec(arb_op(8), 1..40)
    ) {
        let mut g: DependencyGraph<u32> = DependencyGraph::new();
        let mut last = g.cycle_checks();
        prop_assert_eq!(last, 0);
        for op in &ops {
            let before = g.cycle_checks();
            prop_assert!(before >= last, "counter never decreases");
            last = before;
            match op {
                Op::AddEdge(a, b, k) => {
                    g.add_edge(*a, *b, *k);
                    // Maintenance never counts as a scheduler cycle check.
                    prop_assert_eq!(g.cycle_checks(), before);
                }
                Op::RemoveEdge(a, b, k) => {
                    g.remove_edge(*a, *b, *k);
                    prop_assert_eq!(g.cycle_checks(), before);
                }
                Op::RemoveNode(n) => {
                    g.remove_node(*n);
                    prop_assert_eq!(g.cycle_checks(), before);
                }
                Op::ClearOut(n, k) => {
                    g.clear_out_edges(*n, *k);
                    prop_assert_eq!(g.cycle_checks(), before);
                }
                Op::Query(from, targets) => {
                    let _ = g.would_close_cycle(*from, targets);
                    prop_assert_eq!(g.cycle_checks(), before + 1, "each check counts once");
                    let _ = g.would_close_cycle_oracle(*from, targets);
                    prop_assert_eq!(g.cycle_checks(), before + 2, "oracle checks count too");
                }
            }
            let checks_before_has_cycle = g.cycle_checks();
            let _ = g.has_cycle();
            prop_assert_eq!(g.cycle_checks(), checks_before_has_cycle + 1);
        }
        g.reset_cycle_checks();
        prop_assert_eq!(g.cycle_checks(), 0);
    }

    #[test]
    fn gap_and_dense_repairs_agree_with_each_other_and_the_oracle(
        ops in proptest::collection::vec(arb_op(10), 1..60)
    ) {
        let mut gap: DependencyGraph<u32> = DependencyGraph::new();
        let mut dense: DependencyGraph<u32> = DependencyGraph::new();
        dense.set_reorder_strategy(ReorderStrategy::DenseRedistribute);
        for op in &ops {
            match op {
                Op::AddEdge(a, b, k) => {
                    gap.add_edge(*a, *b, *k);
                    dense.add_edge(*a, *b, *k);
                }
                Op::RemoveEdge(a, b, k) => {
                    gap.remove_edge(*a, *b, *k);
                    dense.remove_edge(*a, *b, *k);
                }
                Op::RemoveNode(n) => {
                    gap.remove_node(*n);
                    dense.remove_node(*n);
                }
                Op::ClearOut(n, k) => {
                    gap.clear_out_edges(*n, *k);
                    dense.clear_out_edges(*n, *k);
                }
                Op::Query(from, targets) => {
                    let via_gap = gap.would_close_cycle(*from, targets);
                    let via_dense = dense.would_close_cycle(*from, targets);
                    let oracle = gap.would_close_cycle_oracle(*from, targets);
                    prop_assert_eq!(via_gap, oracle, "gap vs oracle after {:?}", ops);
                    prop_assert_eq!(via_dense, oracle, "dense vs oracle after {:?}", ops);
                }
            }
            prop_assert!(gap.debug_check_order().is_ok(), "{:?}", gap.debug_check_order());
            prop_assert!(dense.debug_check_order().is_ok(), "{:?}", dense.debug_check_order());
            prop_assert_eq!(gap.order_is_valid(), dense.order_is_valid());
        }
        // The dense repair allocates on every violation it sees.
        let dt = dense.order_telemetry();
        prop_assert_eq!(dt.slow_path_allocs, dt.violations);
    }

    #[test]
    fn labels_are_a_topological_order_after_arbitrary_mutations(
        ops in proptest::collection::vec(arb_op(12), 1..80)
    ) {
        let mut g: DependencyGraph<u32> = DependencyGraph::new();
        for op in &ops {
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
                Op::ClearOut(n, k) => {
                    g.clear_out_edges(*n, *k);
                }
                Op::Query(from, targets) => {
                    let _ = g.would_close_cycle(*from, targets);
                }
            }
            if !g.order_is_valid() {
                continue;
            }
            // Label order ≡ topological order: every edge's target sits
            // strictly below its source, so sorting nodes by label yields a
            // topological sort of the exported adjacency.
            let adj = g.to_adjacency();
            for (a, targets) in &adj {
                let a_ord = g.order_position(*a).expect("source labeled");
                for b in targets {
                    let b_ord = g.order_position(*b).expect("target labeled");
                    prop_assert!(
                        b_ord < a_ord,
                        "edge {:?} -> {:?} violates label order ({} >= {}) after {:?}",
                        a, b, b_ord, a_ord, ops
                    );
                }
            }
            let mut by_label: Vec<u32> = adj.keys().copied().collect();
            by_label.sort_unstable_by_key(|n| g.order_position(*n).expect("labeled"));
            let rank: std::collections::HashMap<u32, usize> =
                by_label.iter().enumerate().map(|(i, n)| (*n, i)).collect();
            for (a, targets) in &adj {
                for b in targets {
                    prop_assert!(rank[b] < rank[a], "label sort is not topological");
                }
            }
        }
    }

    #[test]
    fn forced_gap_exhaustion_stays_correct(
        ops in proptest::collection::vec(arb_op(8), 1..50)
    ) {
        // Spacing 1 leaves no gap anywhere: every repair that needs room
        // must renumber, exercising the slow path on arbitrary inputs.
        let mut g: DependencyGraph<u32> = DependencyGraph::new();
        g.set_label_spacing(1);
        for op in &ops {
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
                Op::ClearOut(n, k) => {
                    g.clear_out_edges(*n, *k);
                }
                Op::Query(from, targets) => {
                    let incremental = g.would_close_cycle(*from, targets);
                    let oracle = g.would_close_cycle_oracle(*from, targets);
                    prop_assert_eq!(incremental, oracle, "diverged after {:?}", ops);
                }
            }
            prop_assert!(g.debug_check_order().is_ok(), "{:?}", g.debug_check_order());
            prop_assert_eq!(g.has_cycle(), has_cycle_scc(&g.to_adjacency()));
        }
        let t = g.order_telemetry();
        prop_assert!(
            t.window_renumber_events <= t.violations,
            "windowed renumbering only happens while repairing a violation"
        );
        prop_assert_eq!(
            t.renumber_events, 0,
            "repair-time exhaustion must take the windowed pass, not the full spread"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// On an acyclic graph where `from` already points at `held`, a check
    /// of `targets` gives the same verdict with the held targets dropped,
    /// and the same verdict once `from`'s out-edges are cleared — all
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
        cleared.clear_out_edges(from, EdgeKind::WaitFor);
        cleared.clear_out_edges(from, EdgeKind::CommitDep);
        let after_clear = cleared.would_close_cycle(from, &targets);
        let after_clear_oracle = cleared.would_close_cycle_oracle(from, &targets);

        prop_assert_eq!(full, oracle, "full target set vs oracle");
        prop_assert_eq!(without_held, oracle, "held targets dropped vs oracle");
        prop_assert_eq!(after_clear, oracle, "after clearing from's out-edges");
        prop_assert_eq!(after_clear_oracle, oracle, "oracle after clearing");
        // A held target alone never closes a cycle.
        let held_only: Vec<u32> = targets.iter().copied().filter(|t| out.contains(t)).collect();
        prop_assert!(!g.would_close_cycle(from, &held_only));
    }
}

/// Regression: the small-violation repair — the hot path the gap labels
/// exist for — must report **zero** allocating slow paths, while the dense
/// baseline on the same workload allocates every time.
#[test]
fn small_violation_path_reports_zero_allocating_slow_paths() {
    for strategy in [ReorderStrategy::GapLabel, ReorderStrategy::DenseRedistribute] {
        let mut g: DependencyGraph<u32> = DependencyGraph::new();
        g.set_reorder_strategy(strategy);
        let mut expected_violations = 0u64;
        // 64 disjoint 8-node clusters: a 7-node dependency chain plus one
        // violating edge from the cluster's oldest node into the chain's
        // top. Every forward region holds exactly 7 nodes — comfortably
        // inside the 32-slot inline scratch.
        for cluster in 0..64u32 {
            let base = cluster * 8;
            for n in base..base + 8 {
                g.add_node(n);
            }
            for i in base + 2..base + 8 {
                g.add_edge(i, i - 1, EdgeKind::CommitDep);
            }
            g.add_edge(base, base + 7, EdgeKind::WaitFor);
            expected_violations += 1;
            g.debug_check_order().unwrap();
        }
        let t = g.order_telemetry();
        assert_eq!(t.violations, expected_violations, "{strategy}");
        assert_eq!(t.renumber_events, 0, "{strategy}: default gaps never exhaust here");
        assert_eq!(t.window_renumber_events, 0, "{strategy}: no windowed pass either");
        match strategy {
            ReorderStrategy::GapLabel => {
                assert_eq!(t.slow_path_allocs, 0, "small violations must not allocate");
                assert_eq!(t.nodes_relabeled, expected_violations * 7);
            }
            ReorderStrategy::DenseRedistribute => {
                assert_eq!(
                    t.slow_path_allocs, expected_violations,
                    "the dense baseline allocates per violation"
                );
            }
        }
    }
}

/// Forced exhaustion, deterministically: dense (spacing-1) labels make an
/// ascending chain renumber on every insert, and the graph stays correct.
#[test]
fn forced_exhaustion_renumbers_and_preserves_reachability() {
    let mut g: DependencyGraph<u32> = DependencyGraph::new();
    g.set_label_spacing(1);
    let n = 200u32;
    for i in 0..n {
        g.add_edge(i, i + 1, EdgeKind::CommitDep);
    }
    g.debug_check_order().unwrap();
    assert!(g.order_is_valid());
    let t = g.order_telemetry();
    assert!(t.window_renumber_events > 0, "spacing 1 must exhaust");
    assert_eq!(t.renumber_events, 0, "exhaustion takes the windowed pass");
    assert!(g.would_close_cycle(n, &[0]));
    assert!(!g.would_close_cycle(0, &[n]));
    assert_eq!(
        g.would_close_cycle(n / 2, &[n / 2 + 1]),
        g.would_close_cycle_oracle(n / 2, &[n / 2 + 1])
    );
}
