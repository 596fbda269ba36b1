//! From-scratch strongly-connected-component search: the oracle the
//! search-based checks on [`crate::DependencyGraph`] are compared against.
//! It operates on a plain adjacency map
//! ([`crate::DependencyGraph::to_adjacency`]).

use std::collections::HashMap;

use crate::graph::NodeId;

/// Compute the strongly connected components of a directed graph given as
/// an adjacency map. Components are returned in reverse topological order
/// (Tarjan's algorithm, implemented iteratively).
pub fn strongly_connected_components<N: NodeId>(adj: &HashMap<N, Vec<N>>) -> Vec<Vec<N>> {
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }

    let mut states: HashMap<N, NodeState> = HashMap::with_capacity(adj.len());
    for n in adj.keys() {
        states.insert(*n, NodeState::default());
    }
    // Nodes that only appear as targets.
    for targets in adj.values() {
        for t in targets {
            states.entry(*t).or_default();
        }
    }

    let mut next_index = 0usize;
    let mut stack: Vec<N> = Vec::new();
    let mut components: Vec<Vec<N>> = Vec::new();

    let all_nodes: Vec<N> = states.keys().copied().collect();
    let empty: Vec<N> = Vec::new();

    for root in all_nodes {
        if states[&root].index.is_some() {
            continue;
        }
        // Explicit DFS frame: (node, next child position).
        let mut frames: Vec<(N, usize)> = vec![(root, 0)];
        while let Some((node, child_pos)) = frames.pop() {
            if child_pos == 0 {
                let st = states.get_mut(&node).expect("state exists");
                st.index = Some(next_index);
                st.lowlink = next_index;
                st.on_stack = true;
                next_index += 1;
                stack.push(node);
            }
            let children = adj.get(&node).unwrap_or(&empty);
            let mut advanced = false;
            let mut pos = child_pos;
            while pos < children.len() {
                let child = children[pos];
                pos += 1;
                match states[&child].index {
                    None => {
                        // Recurse into child: re-push current frame first.
                        frames.push((node, pos));
                        frames.push((child, 0));
                        advanced = true;
                        break;
                    }
                    Some(child_index) => {
                        if states[&child].on_stack {
                            let low = states[&node].lowlink.min(child_index);
                            states.get_mut(&node).expect("state exists").lowlink = low;
                        }
                    }
                }
            }
            if advanced {
                continue;
            }
            // Node is finished: pop SCC if it is a root, then propagate
            // lowlink to the parent frame.
            let (node_index, node_lowlink) = {
                let st = &states[&node];
                (st.index.expect("indexed"), st.lowlink)
            };
            if node_lowlink == node_index {
                let mut component = Vec::new();
                while let Some(top) = stack.pop() {
                    states.get_mut(&top).expect("state exists").on_stack = false;
                    component.push(top);
                    if top == node {
                        break;
                    }
                }
                components.push(component);
            }
            if let Some((parent, _)) = frames.last() {
                let parent_low = states[parent].lowlink.min(node_lowlink);
                states.get_mut(parent).expect("state exists").lowlink = parent_low;
            }
        }
    }
    components
}

/// `true` if the graph (adjacency map) contains a cycle, i.e. some strongly
/// connected component has more than one node or a node with a self-loop.
pub fn has_cycle_scc<N: NodeId>(adj: &HashMap<N, Vec<N>>) -> bool {
    if adj
        .iter()
        .any(|(n, targets)| targets.iter().any(|t| t == n))
    {
        return true;
    }
    strongly_connected_components(adj)
        .iter()
        .any(|c| c.len() > 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DependencyGraph, EdgeKind};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn adj(edges: &[(u32, u32)]) -> HashMap<u32, Vec<u32>> {
        let mut m: HashMap<u32, Vec<u32>> = HashMap::new();
        for (a, b) in edges {
            m.entry(*a).or_default().push(*b);
            m.entry(*b).or_default();
        }
        m
    }

    /// The same edges in the on-line graph (which never stores a
    /// self-loop).
    fn online(edges: &[(u32, u32)]) -> DependencyGraph<u32> {
        let mut graph = DependencyGraph::new();
        for (a, b) in edges {
            graph.add_edge(*a, *b, EdgeKind::CommitDep);
        }
        graph
    }

    #[test]
    fn scc_of_a_dag_is_all_singletons() {
        let g = adj(&[(1, 2), (2, 3), (1, 3)]);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 3);
        assert!(sccs.iter().all(|c| c.len() == 1));
        assert!(!has_cycle_scc(&g));
    }

    #[test]
    fn scc_finds_the_cycle_component() {
        let g = adj(&[(1, 2), (2, 3), (3, 1), (3, 4)]);
        let sccs = strongly_connected_components(&g);
        let big: Vec<_> = sccs.into_iter().filter(|c| c.len() > 1).collect();
        assert_eq!(big.len(), 1);
        let mut comp = big[0].clone();
        comp.sort_unstable();
        assert_eq!(comp, vec![1, 2, 3]);
        assert!(has_cycle_scc(&g));
    }

    #[test]
    fn self_loop_counts_as_cycle() {
        let g = adj(&[(7, 7)]);
        assert!(has_cycle_scc(&g));
    }

    #[test]
    fn two_disjoint_cycles() {
        let g = adj(&[(1, 2), (2, 1), (3, 4), (4, 5), (5, 3)]);
        let sccs = strongly_connected_components(&g);
        let mut sizes: Vec<usize> = sccs.iter().map(|c| c.len()).filter(|s| *s > 1).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
    }

    proptest! {
        #[test]
        fn prop_scc_agrees_with_naive_reachability(
            edges in proptest::collection::vec((0u32..12, 0u32..12), 0..40)
        ) {
            let g = adj(&edges);
            // Plain BFS over the adjacency map: is `b` reachable from `a`?
            let reachable = |a: u32, b: u32| {
                let mut seen = vec![a];
                let mut queue = std::collections::VecDeque::from([a]);
                while let Some(n) = queue.pop_front() {
                    if n == b {
                        return true;
                    }
                    for next in &g[&n] {
                        if !seen.contains(next) {
                            seen.push(*next);
                            queue.push_back(*next);
                        }
                    }
                }
                false
            };
            // Two distinct nodes are in the same SCC iff mutually reachable.
            let sccs = strongly_connected_components(&g);
            let mut comp_of: HashMap<u32, usize> = HashMap::new();
            for (i, c) in sccs.iter().enumerate() {
                for n in c {
                    comp_of.insert(*n, i);
                }
            }
            let nodes: Vec<u32> = g.keys().copied().collect();
            for &a in &nodes {
                for &b in &nodes {
                    if a == b { continue; }
                    let same = comp_of[&a] == comp_of[&b];
                    let mutual = reachable(a, b) && reachable(b, a);
                    prop_assert_eq!(same, mutual, "nodes {} and {}", a, b);
                }
            }
        }

        #[test]
        fn prop_has_cycle_matches_scc(edges in proptest::collection::vec((0u32..10, 0u32..10), 0..30)) {
            // Compared on the loop-free edges.
            let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
            prop_assert_eq!(online(&edges).has_cycle(), has_cycle_scc(&adj(&edges)));
        }
    }
}
