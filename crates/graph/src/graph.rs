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
//! # Incremental cycle detection
//!
//! The scheduler runs a cycle check on *every* blocking or recoverable
//! request — the paper reports this "cycle check ratio" as the dominant cost
//! of going beyond commutativity. To make the check sub-linear the graph
//! maintains an **incremental topological order** (Pearce–Kelly style) over
//! sparse **gap-numbered `u64` labels**:
//!
//! * Every node carries a label `ord(n)`; the maintained invariant is
//!   that for every edge `a -> b` (of either kind), `ord(b) < ord(a)` —
//!   dependencies always sit *below* their dependants. Labels are handed
//!   out with large gaps between them (2³² apart by default), so almost
//!   every repair finds room without touching anything else.
//! * [`DependencyGraph::add_edge`] checks the invariant. Inserting
//!   `from -> to` with `ord(to) < ord(from)` already satisfies it and costs
//!   O(1). Otherwise only the **forward affected region** — the nodes `to`
//!   transitively depends on whose label is at or above `ord(from)` — is
//!   discovered by a pruned search and relabeled *into the gap below
//!   `ord(from)`*, preserving its internal order. The backward region is
//!   never touched (its labels stay valid), and regions of up to 32 nodes
//!   are repaired entirely in fixed inline scratch buffers — **no heap
//!   allocation** on the common small-violation path. When the gap below
//!   `ord(from)` is too narrow to hold the region (labels locally
//!   exhausted), a **windowed renumbering** respaces only a bounded run of
//!   labels just above the violation — the rest of the graph keeps its
//!   labels, and the restored gaps make the next local exhaustion far
//!   away. [`OrderTelemetry`] counts violations, relabeled nodes,
//!   allocating slow paths and both renumber flavours so benchmarks can
//!   verify the allocation-free claim. The pre-gap dense redistribution (which
//!   re-packed the union of both regions into their existing positions,
//!   allocating on every violation) is retained behind
//!   [`ReorderStrategy::DenseRedistribute`] as the differential-test reference.
//! * [`DependencyGraph::would_close_cycle`] exploits the same invariant:
//!   a path from a target `t` back to `from` can only run through nodes
//!   with `ord > ord(from)` (labels strictly decrease along every edge),
//!   so targets positioned at or below `from` are dismissed in O(1) and
//!   the search for the rest is pruned to the `(ord(from), ord(t)]` label
//!   window instead of walking the whole graph.
//! * Node and edge *removals* never violate the invariant, so transaction
//!   termination costs nothing extra.
//!
//! If a caller inserts an edge that genuinely closes a cycle (the scheduler
//! never does — it asks [`DependencyGraph::would_close_cycle`] first), the
//! order is marked invalid and every check transparently falls back to a
//! full search until a removal makes the graph acyclic again, at which
//! point the order is rebuilt.
//!
//! [`crate::cycle::has_cycle_scc`] (a from-scratch Tarjan SCC pass) is kept
//! as the property-test oracle, and
//! [`DependencyGraph::would_close_cycle_oracle`] exposes an oracle-backed
//! check so differential tests can run the old and new paths side by side.

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

/// How [`DependencyGraph::add_edge`] repairs an order violation (an edge
/// inserted from a lower-labeled node to a higher-labeled one).
///
/// The scheduler always runs the default [`ReorderStrategy::GapLabel`];
/// the dense path is retained — exactly like the SCC oracle next to the
/// incremental cycle check — so benchmarks and differential tests can run
/// the old and new reorder side by side.
///
/// Set the strategy on a fresh graph (before any edge is inserted): the two
/// repairs maintain the same invariant but assume their own label layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ReorderStrategy {
    /// Sparse gap-numbered labels: relabel only the forward region into the
    /// gap below `ord(from)`; allocation-free for regions of up to 32
    /// nodes; amortised spread-renumbering on gap exhaustion.
    #[default]
    GapLabel,
    /// The pre-gap dense reorder: discover forward *and* backward regions
    /// and re-pack the union into its own sorted position pool. Allocates
    /// on every violation.
    DenseRedistribute,
}

impl fmt::Display for ReorderStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReorderStrategy::GapLabel => write!(f, "gaplabel"),
            ReorderStrategy::DenseRedistribute => write!(f, "densereorder"),
        }
    }
}

/// Counters describing the topological-order maintenance work a
/// [`DependencyGraph`] has performed (the reorder telemetry surfaced
/// through the kernel's stats snapshot).
///
/// The headline claim these counters exist to verify: with
/// [`ReorderStrategy::GapLabel`], the common small-violation repair is
/// **allocation-free** — a bench run over small regions must report
/// `slow_path_allocs == 0` while `violations` keeps counting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrderTelemetry {
    /// Order violations seen: edge inserts whose target label was at or
    /// above the source label, requiring a repair (or proving a cycle).
    pub violations: u64,
    /// Nodes whose label was rewritten by violation repairs (excludes
    /// full renumberings, which are counted in `renumber_events`).
    pub nodes_relabeled: u64,
    /// Repairs that took an allocating slow path: the affected region
    /// outgrew the fixed inline scratch buffers, a gap exhaustion forced a
    /// renumbering, or the dense strategy (which always allocates) ran.
    pub slow_path_allocs: u64,
    /// Full spread renumberings: every label reassigned with fresh gaps.
    /// Since the windowed pass landed this is only reachable from the
    /// `add_node` top-of-label-space overflow (and a defensive fallback);
    /// gap exhaustion inside a repair takes the windowed pass instead.
    pub renumber_events: u64,
    /// Windowed gap-exhaustion renumberings: the gap below `ord(from)`
    /// could not hold the relabeled region, so a bounded window of labels
    /// just above the violation was respaced — without touching the rest
    /// of the graph or walking its edges.
    pub window_renumber_events: u64,
}

impl OrderTelemetry {
    /// Add every counter of `other` into `self` (used to aggregate the
    /// per-shard graphs plus the escalation graph into one view).
    pub fn accumulate(&mut self, other: &OrderTelemetry) {
        self.violations += other.violations;
        self.nodes_relabeled += other.nodes_relabeled;
        self.slow_path_allocs += other.slow_path_allocs;
        self.renumber_events += other.renumber_events;
        self.window_renumber_events += other.window_renumber_events;
    }
}

/// Default spacing between freshly assigned labels: 2³² leaves room for
/// 32 levels of midpoint halving between any two neighbours before a
/// renumbering is needed, while still admitting ~2³² appended nodes.
const DEFAULT_LABEL_SPACING: u64 = 1 << 32;

/// Capacity of the fixed inline scratch buffers used by the gap-label
/// repair: regions up to this size are repaired without heap allocation.
const INLINE_REGION: usize = 32;

/// Gap the windowed renumbering aims to restore between neighbouring
/// labels. Deliberately smaller than [`DEFAULT_LABEL_SPACING`]: the window
/// only needs enough room for the next several repairs in this
/// neighbourhood, and a modest target keeps the window (and therefore the
/// number of rewritten labels) small.
const WINDOW_TARGET_STRIDE: u64 = 1 << 16;

/// A fixed-capacity scratch buffer that spills to the heap only when the
/// region outgrows [`INLINE_REGION`]; `spilled` reports whether that
/// happened so the telemetry can count allocating slow paths.
enum Scratch<T: Copy, const CAP: usize> {
    Inline { buf: [T; CAP], len: usize },
    Heap(Vec<T>),
}

impl<T: Copy, const CAP: usize> Scratch<T, CAP> {
    fn new(fill: T) -> Self {
        Scratch::Inline {
            buf: [fill; CAP],
            len: 0,
        }
    }

    fn push(&mut self, value: T) {
        match self {
            Scratch::Inline { buf, len } => {
                if *len < CAP {
                    buf[*len] = value;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(CAP * 2);
                    heap.extend_from_slice(&buf[..*len]);
                    heap.push(value);
                    *self = Scratch::Heap(heap);
                }
            }
            Scratch::Heap(heap) => heap.push(value),
        }
    }

    fn pop(&mut self) -> Option<T> {
        match self {
            Scratch::Inline { buf, len } => {
                if *len == 0 {
                    None
                } else {
                    *len -= 1;
                    Some(buf[*len])
                }
            }
            Scratch::Heap(heap) => heap.pop(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Scratch::Inline { len, .. } => *len,
            Scratch::Heap(heap) => heap.len(),
        }
    }

    fn as_slice(&self) -> &[T] {
        match self {
            Scratch::Inline { buf, len } => &buf[..*len],
            Scratch::Heap(heap) => heap,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Scratch::Inline { buf, len } => &mut buf[..*len],
            Scratch::Heap(heap) => heap,
        }
    }

    fn spilled(&self) -> bool {
        matches!(self, Scratch::Heap(_))
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
/// [`Self::would_close_cycle`], insert it only on a negative answer, and
/// watch the maintained order absorb an order-violating insert without
/// allocating:
///
/// ```
/// use sbcc_graph::{DependencyGraph, EdgeKind};
///
/// let mut g: DependencyGraph<u32> = DependencyGraph::new();
/// // Transactions begin in id order, so their labels ascend with age.
/// for txn in 1..=3 {
///     g.add_node(txn);
/// }
/// // T2 executed a recoverable op against T1; T3 waits for T2.
/// g.add_edge(2, 1, EdgeKind::CommitDep);
/// g.add_edge(3, 2, EdgeKind::WaitFor);
///
/// // Would blocking T1 behind T3 close a cycle? (Yes: 3 → 2 → 1.)
/// assert!(g.would_close_cycle(1, &[3]));
/// // The reverse direction is fine, and dismissed in O(1) by label.
/// assert!(!g.would_close_cycle(3, &[1]));
///
/// // Dependencies sit below their dependants in the maintained order.
/// assert!(g.order_position(1).unwrap() < g.order_position(2).unwrap());
/// assert!(g.order_position(2).unwrap() < g.order_position(3).unwrap());
///
/// // `4 -> 5` violates the order (5 is fresher, so labeled higher); the
/// // gap-label repair relabels just one node and allocates nothing.
/// g.add_edge(4, 5, EdgeKind::CommitDep);
/// assert!(g.order_is_valid());
/// let t = g.order_telemetry();
/// assert_eq!((t.violations, t.nodes_relabeled, t.slow_path_allocs), (1, 1, 0));
/// ```
#[derive(Debug, Clone)]
pub struct DependencyGraph<N: NodeId> {
    nodes: HashMap<N, Adjacency<N>>,
    cycle_checks: u64,
    /// Topological label of every node. Invariant (while `order_valid`):
    /// `ord[b] < ord[a]` for every edge `a -> b`. Labels are sparse
    /// (gap-numbered); unrelated nodes may share a label, which the strict
    /// per-edge invariant tolerates.
    ord: HashMap<N, u64>,
    /// The highest label handed out so far; fresh nodes take
    /// `next_ord + spacing`.
    next_ord: u64,
    /// Gap between freshly assigned labels (configurable for tests that
    /// force gap exhaustion; [`DEFAULT_LABEL_SPACING`] otherwise).
    spacing: u64,
    /// How order violations are repaired.
    reorder: ReorderStrategy,
    /// Reorder telemetry (violations, relabels, allocs, renumbers).
    telemetry: OrderTelemetry,
    /// `false` once a cycle-closing edge has been inserted; checks fall
    /// back to full searches until the order is rebuilt.
    order_valid: bool,
}

impl<N: NodeId> Default for DependencyGraph<N> {
    fn default() -> Self {
        DependencyGraph::new()
    }
}

impl<N: NodeId> DependencyGraph<N> {
    /// An empty graph using the default [`ReorderStrategy::GapLabel`].
    pub fn new() -> Self {
        DependencyGraph {
            nodes: HashMap::new(),
            cycle_checks: 0,
            ord: HashMap::new(),
            next_ord: 0,
            spacing: DEFAULT_LABEL_SPACING,
            reorder: ReorderStrategy::default(),
            telemetry: OrderTelemetry::default(),
            order_valid: true,
        }
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = N> + '_ {
        self.nodes.keys().copied()
    }

    /// Insert a node with no edges; a no-op if already present.
    ///
    /// A fresh node receives a label one gap above every existing one — a
    /// new transaction initially depends on nothing, so placing it last in
    /// the topological order is always invariant-preserving, and the gap
    /// leaves room for later violation repairs to slot nodes in between.
    pub fn add_node(&mut self, n: N) {
        if self.nodes.contains_key(&n) {
            return;
        }
        if self.next_ord > u64::MAX - self.spacing {
            // Label space exhausted at the top (only reachable after ~2³²
            // appends, or with a tiny test spacing): spread all labels
            // back out before placing the newcomer.
            self.renumber_spread();
        }
        self.nodes.insert(n, Adjacency::default());
        self.next_ord = self.next_ord.saturating_add(self.spacing);
        self.ord.insert(n, self.next_ord);
    }

    /// Remove a node together with all incident edges (both directions).
    ///
    /// This is what happens when a transaction terminates: "the node that
    /// corresponds to the terminating transaction together with the edges
    /// associated with the node is removed from the dependency graph".
    ///
    /// Removal never violates the topological-order invariant, so the hot
    /// path pays nothing here; if the order had been invalidated by a
    /// cycle-closing insert, removal is the natural point to try rebuilding
    /// it.
    ///
    /// Returns `true` if the node was present.
    pub fn remove_node(&mut self, n: N) -> bool {
        let Some(adj) = self.nodes.remove(&n) else {
            return false;
        };
        self.ord.remove(&n);
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
        if !self.order_valid {
            self.try_rebuild_order();
        }
        true
    }

    /// Add one logical edge `from -> to` of the given kind. Both endpoints
    /// are created if missing. Self-loops are ignored (a transaction never
    /// depends on itself) and return `false`.
    ///
    /// If the edge violates the maintained topological order, the affected
    /// region is re-numbered (Pearce–Kelly); if it genuinely closes a cycle
    /// the edge is still inserted and the order is marked invalid.
    pub fn add_edge(&mut self, from: N, to: N, kind: EdgeKind) -> bool {
        if from == to {
            return false;
        }
        self.add_node(from);
        self.add_node(to);
        let from_adj = self.nodes.get_mut(&from).expect("just inserted");
        let counts = from_adj.out.entry(to).or_default();
        let was_new_pair = counts.is_empty();
        *counts.get_mut(kind) += 1;
        let to_adj = self.nodes.get_mut(&to).expect("just inserted");
        to_adj.incoming.insert(from);
        // `>=` rather than `>`: gap relabeling may let *unrelated* nodes
        // share a label (harmless — the invariant is per edge), so an edge
        // between two equally labeled nodes is a violation too.
        if was_new_pair && self.order_valid && self.ord[&to] >= self.ord[&from] {
            let restored = match self.reorder {
                ReorderStrategy::GapLabel => self.restore_order_gap(from, to),
                ReorderStrategy::DenseRedistribute => self.restore_order_dense(from, to),
            };
            if !restored {
                self.order_valid = false;
            }
        }
        true
    }

    /// Re-establish `ord[b] < ord[a]` after inserting `from -> to` with
    /// `ord(to) >= ord(from)`, by relabeling **only the forward region**
    /// into the label gap below `ord(from)`. Returns `false` when the edge
    /// closed a cycle (labels are left untouched).
    ///
    /// The forward region F is everything `to` transitively depends on with
    /// a label at or above `lb = ord(from)` (labels strictly decrease along
    /// edges, so any path back to `from` stays inside that window — the
    /// same pruning [`Self::would_close_cycle`] uses). Relabeling F to
    /// fresh labels strictly between `floor` (the highest label among F's
    /// pruned-out dependencies) and `lb`, preserving F's internal order, is
    /// sufficient:
    ///
    /// * F's external dependencies all sit at or below `floor` — still
    ///   strictly below every new label;
    /// * every external dependant of an F node had a label above the node's
    ///   old label `>= lb` — still strictly above every new label;
    /// * the backward region needs no move at all, so it is never searched.
    ///
    /// Regions of up to [`INLINE_REGION`] nodes are discovered and
    /// relabeled entirely in fixed stack buffers — no heap allocation. If
    /// the gap holds fewer than `|F|` fresh labels, a bounded window of
    /// labels just above the violation is respaced
    /// ([`Self::renumber_window`]) — the rest of the graph keeps its
    /// labels.
    fn restore_order_gap(&mut self, from: N, to: N) -> bool {
        self.telemetry.violations += 1;
        let lb = self.ord[&from];
        // Discovered region in visit order, with old labels; doubles as the
        // visited set (linear scan while inline, hash set once spilled).
        let mut region: Scratch<(N, u64), INLINE_REGION> = Scratch::new((to, 0));
        let mut stack: Scratch<N, INLINE_REGION> = Scratch::new(to);
        let mut visited_spill: Option<HashSet<N>> = None;
        let mut floor: u64 = 0;
        region.push((to, self.ord[&to]));
        stack.push(to);
        while let Some(n) = stack.pop() {
            let Some(adj) = self.nodes.get(&n) else {
                continue;
            };
            for next in adj.out.keys() {
                if *next == from {
                    // `to` transitively depends on `from`: the new edge
                    // closes a cycle. Labels untouched; caller falls back.
                    if region.spilled() {
                        self.telemetry.slow_path_allocs += 1;
                    }
                    return false;
                }
                let next_ord = self.ord[next];
                if next_ord < lb {
                    // Pruned external dependency: the region must stay
                    // strictly above it.
                    floor = floor.max(next_ord);
                    continue;
                }
                let seen = match &visited_spill {
                    Some(set) => set.contains(next),
                    None => region.as_slice().iter().any(|(m, _)| m == next),
                };
                if !seen {
                    region.push((*next, next_ord));
                    stack.push(*next);
                    if let Some(set) = &mut visited_spill {
                        set.insert(*next);
                    } else if region.spilled() {
                        // The linear-scan membership check would now be
                        // quadratic; switch to a hash set.
                        visited_spill =
                            Some(region.as_slice().iter().map(|(m, _)| *m).collect());
                    }
                }
            }
        }

        let count = region.len() as u64;
        debug_assert!(floor < lb, "pruning keeps external deps below ord(from)");
        let stride = (lb - floor) / (count + 1);
        if stride == 0 {
            // Gap exhausted: the region no longer fits between its external
            // dependencies and `ord(from)`. Respace a bounded window of
            // labels just above the violation (the search above proved the
            // graph acyclic below `from`, so the windowed relabeling yields
            // a valid order that includes the already-inserted edge).
            self.telemetry.slow_path_allocs += 1;
            self.renumber_window(from, region.as_slice(), floor);
            return true;
        }
        // Relabel the region into the gap, preserving its internal order.
        // (Equal old labels can only belong to edge-unrelated nodes, so
        // their tie-break order is irrelevant.)
        region.as_mut_slice().sort_unstable_by_key(|(_, o)| *o);
        for (i, (n, _)) in region.as_slice().iter().enumerate() {
            self.ord.insert(*n, floor + stride * (i as u64 + 1));
        }
        self.telemetry.nodes_relabeled += count;
        if region.spilled() {
            self.telemetry.slow_path_allocs += 1;
        }
        true
    }

    /// Windowed gap-exhaustion renumbering: the gap `(floor, ord(from))`
    /// cannot hold the forward region `region`, so instead of spreading
    /// every label in the graph, respace only a **bounded window** of the
    /// lowest labels above `floor` — just enough of them that the span up
    /// to the first *retained* label fits the window at a healthy stride.
    ///
    /// Within the window, region nodes are placed as if labeled
    /// `ord(from)` (keeping their internal order), immediately *before*
    /// `from` itself; every other window node keeps its relative position.
    /// This is invariant-preserving because
    ///
    /// * all region out-edges either stay inside the region or lead to
    ///   labels at or below `floor` (that is what the pruned search
    ///   established), so moving the region down to `ord(from)` crosses no
    ///   dependency of its own;
    /// * an edge from a window node into the region implied the source's
    ///   old label was above the region node's (≥ `ord(from)`), and the
    ///   composite sort keeps every such source after the region block;
    /// * new labels all sit strictly between `floor` and the first
    ///   retained label, so edges across the window boundary (which always
    ///   point from above to below in label order) are undisturbed.
    ///
    /// The full [`Self::renumber_spread`] remains only as the `add_node`
    /// top-of-space overflow path and a defensive fallback here.
    fn renumber_window(&mut self, from: N, region: &[(N, u64)], floor: u64) {
        self.telemetry.window_renumber_events += 1;
        let lb = self.ord[&from];
        let target = self.effective_spacing().min(WINDOW_TARGET_STRIDE);
        // Everything labeled above `floor`, ascending. Collecting is O(V),
        // but only the window prefix is rewritten.
        let mut above: Vec<(N, u64)> = self
            .ord
            .iter()
            .filter(|(_, o)| **o > floor)
            .map(|(n, o)| (*n, *o))
            .collect();
        above.sort_unstable_by_key(|(_, o)| *o);
        // The window must cover the region and `from` (all labeled in
        // `(floor, region_max]`); grow it until the span up to the first
        // retained label admits the target stride.
        let region_max = region.iter().map(|(_, o)| *o).fold(lb, u64::max);
        let mut k = above.partition_point(|(_, o)| *o <= region_max);
        loop {
            // Never split a run of equal labels across the boundary: keep
            // the reasoning simple even though equal labels only belong to
            // edge-unrelated nodes.
            while k < above.len() && above[k].1 == above[k - 1].1 {
                k += 1;
            }
            if k == above.len() {
                break;
            }
            if (above[k].1 - floor) / (k as u64 + 1) >= target {
                break;
            }
            k += 1;
        }
        let next = if k < above.len() { above[k].1 } else { u64::MAX };
        let stride = ((next - floor) / (k as u64 + 1)).min(self.effective_spacing());
        if stride == 0 {
            // Pathological (label space truly saturated in this span):
            // fall back to the full spread.
            self.renumber_spread();
            return;
        }
        // Composite key: region nodes act as if labeled `lb` and sort
        // before `from` (flag 0 vs 1); everyone else keeps position by old
        // label. The old label tie-breaks region-internal order.
        let in_region: HashSet<N> = region.iter().map(|(n, _)| *n).collect();
        let window = &mut above[..k];
        window.sort_unstable_by_key(|(n, o)| {
            if in_region.contains(n) {
                (lb, 0u8, *o)
            } else {
                (*o, 1u8, *o)
            }
        });
        for (i, (n, _)) in window.iter().enumerate() {
            self.ord.insert(*n, floor + stride * (i as u64 + 1));
        }
        self.telemetry.nodes_relabeled += k as u64;
        if k == above.len() {
            // The window reached the top of the order: the next appended
            // node must land above the respaced labels.
            self.next_ord = floor + stride * (k as u64);
        }
    }

    /// The pre-gap dense Pearce–Kelly repair, retained as the test
    /// reference behind [`ReorderStrategy::DenseRedistribute`]: discover the
    /// forward region (transitive dependencies of `to` at or above
    /// `ord(from)`) and the backward region (transitive dependants of
    /// `from` at or below `ord(to)`), then redistribute the union's
    /// existing labels — forward region first (it must end up below),
    /// backward region second — preserving each region's relative order.
    /// Returns `false` when the edge closed a cycle. Allocates its region
    /// vectors, visited set and label pool on every violation.
    fn restore_order_dense(&mut self, from: N, to: N) -> bool {
        self.telemetry.violations += 1;
        self.telemetry.slow_path_allocs += 1;
        let lb = self.ord[&from];
        let ub = self.ord[&to];
        debug_assert!(lb < ub, "dense labels are distinct");

        // Forward region: everything `to` depends on, pruned below `lb`.
        let mut fwd: Vec<(N, u64)> = Vec::new();
        let mut visited: HashSet<N> = HashSet::new();
        let mut stack = vec![to];
        visited.insert(to);
        while let Some(n) = stack.pop() {
            if n == from {
                // `to` transitively depends on `from`: the new edge closes
                // a cycle.
                return false;
            }
            fwd.push((n, self.ord[&n]));
            if let Some(adj) = self.nodes.get(&n) {
                for next in adj.out.keys() {
                    if self.ord[next] >= lb && visited.insert(*next) {
                        stack.push(*next);
                    }
                }
            }
        }

        // Backward region: everything depending on `from`, pruned above `ub`.
        let mut bwd: Vec<(N, u64)> = Vec::new();
        let mut stack = vec![from];
        visited.clear();
        visited.insert(from);
        while let Some(n) = stack.pop() {
            bwd.push((n, self.ord[&n]));
            if let Some(adj) = self.nodes.get(&n) {
                for prev in &adj.incoming {
                    if self.ord[prev] <= ub && visited.insert(*prev) {
                        stack.push(*prev);
                    }
                }
            }
        }

        // Redistribute the union's positions: dependencies low, dependants
        // high, relative order within each region preserved.
        fwd.sort_unstable_by_key(|(_, o)| *o);
        bwd.sort_unstable_by_key(|(_, o)| *o);
        let mut pool: Vec<u64> = fwd.iter().chain(bwd.iter()).map(|(_, o)| *o).collect();
        pool.sort_unstable();
        self.telemetry.nodes_relabeled += pool.len() as u64;
        for ((n, _), slot) in fwd.iter().chain(bwd.iter()).zip(pool) {
            self.ord.insert(*n, slot);
        }
        true
    }

    /// Kahn's algorithm over the current graph: gap-spaced labels for every
    /// node, or `None` if the graph is cyclic. `a -> b` makes `a` depend on
    /// `b`, so a node becomes ready (and gets the next-lowest label) once
    /// all its dependencies are placed.
    fn kahn_assign(&self, spacing: u64) -> Option<(HashMap<N, u64>, u64)> {
        let mut in_degree: HashMap<N, usize> = self
            .nodes
            .iter()
            .map(|(n, adj)| (*n, adj.out.len()))
            .collect();
        // Nodes with no outgoing dependencies come first (lowest labels).
        let mut ready: Vec<N> = in_degree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(n, _)| *n)
            .collect();
        let mut label = 0u64;
        let mut assigned: HashMap<N, u64> = HashMap::with_capacity(self.nodes.len());
        while let Some(n) = ready.pop() {
            label += spacing;
            assigned.insert(n, label);
            if let Some(adj) = self.nodes.get(&n) {
                for dependant in &adj.incoming {
                    let d = in_degree.get_mut(dependant).expect("node exists");
                    *d -= 1;
                    if *d == 0 {
                        ready.push(*dependant);
                    }
                }
            }
        }
        (assigned.len() == self.nodes.len()).then_some((assigned, label))
    }

    /// The label spacing that keeps `node_count` gap-spaced labels inside
    /// `u64` with room to spare.
    fn effective_spacing(&self) -> u64 {
        let denom = self.nodes.len() as u64 + 2;
        self.spacing.min(u64::MAX / denom).max(1)
    }

    /// Attempt to rebuild the topological order from scratch. Succeeds —
    /// restoring the fast pruned checks — exactly when the graph is
    /// currently acyclic.
    fn try_rebuild_order(&mut self) {
        if let Some((assigned, top)) = self.kahn_assign(self.effective_spacing()) {
            self.ord = assigned;
            self.next_ord = top;
            self.order_valid = true;
        }
    }

    /// Full spread renumbering: reassign every label with fresh gaps.
    /// Reached when `add_node` runs out of label space at the top, or as
    /// the defensive fallback when even [`Self::renumber_window`] finds a
    /// saturated span. (Repair-time gap exhaustion takes the windowed pass
    /// instead.)
    fn renumber_spread(&mut self) {
        self.telemetry.renumber_events += 1;
        match self.kahn_assign(self.effective_spacing()) {
            Some((assigned, top)) => {
                self.ord = assigned;
                self.next_ord = top;
                self.order_valid = true;
            }
            None => {
                // Cyclic (only reachable from the `add_node` overflow path
                // while the order is already invalid): labels are unused
                // until a removal makes the graph acyclic and rebuilds, so
                // any distinct assignment will do.
                let spacing = self.effective_spacing();
                let keys: Vec<N> = self.nodes.keys().copied().collect();
                let mut label = 0u64;
                for n in keys {
                    label += spacing;
                    self.ord.insert(n, label);
                }
                self.next_ord = label;
            }
        }
    }

    /// `true` while the maintained topological order is intact (it is for
    /// every graph whose edges were vetted through
    /// [`Self::would_close_cycle`], i.e. always on the scheduler's path).
    pub fn order_is_valid(&self) -> bool {
        self.order_valid
    }

    /// The maintained topological label of a node (diagnostics/tests).
    /// Labels are sparse: only their relative order is meaningful.
    pub fn order_position(&self, n: N) -> Option<u64> {
        self.ord.get(&n).copied()
    }

    /// The reorder telemetry accumulated so far (see [`OrderTelemetry`]).
    pub fn order_telemetry(&self) -> OrderTelemetry {
        self.telemetry
    }

    /// Select the violation-repair strategy. Call on a fresh graph (before
    /// any edge insert): each repair assumes its own label layout.
    pub fn set_reorder_strategy(&mut self, strategy: ReorderStrategy) {
        self.reorder = strategy;
    }

    /// Override the gap between freshly assigned labels (clamped to at
    /// least 1). Meant for tests and benchmarks that force gap exhaustion;
    /// production graphs keep the default 2³² spacing. Affects labels
    /// assigned from now on only.
    pub fn set_label_spacing(&mut self, spacing: u64) {
        self.spacing = spacing.max(1);
    }

    /// Export the graph as a plain adjacency map over distinct `(from, to)`
    /// pairs — the input shape of the [`crate::cycle`] oracle algorithms.
    pub fn to_adjacency(&self) -> HashMap<N, Vec<N>> {
        self.nodes
            .iter()
            .map(|(n, adj)| (*n, adj.out.keys().copied().collect()))
            .collect()
    }

    /// Visit every distinct `(from, to, kind)` edge together with its
    /// multiplicity. Used by the sharding layer to bulk-mirror a shard's
    /// local graph into the cross-shard escalation graph when the shard
    /// becomes entangled. Iteration order is unspecified.
    pub fn for_each_edge(&self, mut f: impl FnMut(N, N, EdgeKind, u32)) {
        for (from, adj) in &self.nodes {
            for (to, counts) in &adj.out {
                if counts.wait_for > 0 {
                    f(*from, *to, EdgeKind::WaitFor, counts.wait_for);
                }
                if counts.commit_dep > 0 {
                    f(*from, *to, EdgeKind::CommitDep, counts.commit_dep);
                }
            }
        }
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
            if !self.order_valid {
                self.try_rebuild_order();
            }
        }
        true
    }

    /// Remove **all** outgoing edges of the given kind from a node
    /// (regardless of multiplicity). Used when a blocked transaction's
    /// pending request is retried: its old wait-for edges are dropped before
    /// the request is re-classified.
    pub fn clear_out_edges(&mut self, from: N, kind: EdgeKind) {
        let Some(from_adj) = self.nodes.get_mut(&from) else {
            return;
        };
        let mut emptied = Vec::new();
        for (to, counts) in from_adj.out.iter_mut() {
            *counts.get_mut(kind) = 0;
            if counts.is_empty() {
                emptied.push(*to);
            }
        }
        for to in &emptied {
            from_adj.out.remove(to);
        }
        let removed_pairs = !emptied.is_empty();
        for to in emptied {
            if let Some(to_adj) = self.nodes.get_mut(&to) {
                to_adj.incoming.remove(&from);
            }
        }
        if removed_pairs && !self.order_valid {
            self.try_rebuild_order();
        }
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

    /// Nodes whose out-degree (any kind) is zero, in ascending node order.
    /// The commit protocol commits pseudo-committed transactions exactly
    /// when they appear here; the deterministic order keeps cascade-commit
    /// sequences (and everything downstream of their events) reproducible.
    pub fn zero_out_degree_nodes(&self) -> Vec<N> {
        let mut nodes: Vec<N> = self
            .nodes
            .iter()
            .filter(|(_, a)| a.out.is_empty())
            .map(|(n, _)| *n)
            .collect();
        nodes.sort_unstable();
        nodes
    }

    /// How many times a cycle check (`would_close_cycle*`, `has_cycle`)
    /// has been invoked on this graph. The simulation
    /// study reports this as the *cycle check ratio*.
    pub fn cycle_checks(&self) -> u64 {
        self.cycle_checks
    }

    /// Reset the cycle-check counter.
    pub fn reset_cycle_checks(&mut self) {
        self.cycle_checks = 0;
    }

    /// Would adding edges `from -> t` (for every `t` in `targets`) close a
    /// cycle? Equivalently: is `from` reachable from any target over edges
    /// of either kind?
    ///
    /// The check is performed **without** mutating the graph, so the caller
    /// can decide to abort the requester instead of inserting the edges.
    ///
    /// While the topological order is intact the search is pruned by it:
    /// labels strictly decrease along every edge, so a path back to `from`
    /// can only pass through nodes labeled strictly above `ord(from)`.
    /// Targets at or below `from`'s label — the common case, since requests
    /// usually point at *older* transactions — are dismissed without any
    /// traversal (nodes other than `from` *sharing* its label cannot reach
    /// it either, which is why the dismissal is `<=` rather than `<`), and
    /// the rest of the search never leaves the affected label window.
    pub fn would_close_cycle(&mut self, from: N, targets: &[N]) -> bool {
        self.cycle_checks += 1;
        let Some(&from_ord) = self.ord.get(&from) else {
            // `from` is not in the graph, so nothing can reach it.
            return false;
        };
        let mut stack: Vec<N> = Vec::new();
        let mut visited: HashSet<N> = HashSet::new();
        // Note: a target equal to `from` would be a self-edge, which is
        // never inserted and therefore cannot close a cycle.
        for t in targets {
            if *t == from || !self.nodes.contains_key(t) {
                continue;
            }
            if self.order_valid && self.ord[t] <= from_ord {
                // `t` sits at or below `from`'s label: every node reachable
                // from `t` sits strictly below `t`, so `from` is
                // unreachable (`t != from` was checked above).
                continue;
            }
            if visited.insert(*t) {
                stack.push(*t);
            }
        }
        while let Some(n) = stack.pop() {
            if n == from {
                return true;
            }
            let Some(adj) = self.nodes.get(&n) else {
                continue;
            };
            for (next, counts) in &adj.out {
                if counts.is_empty() {
                    continue;
                }
                if *next == from {
                    return true;
                }
                if self.order_valid && self.ord[next] <= from_ord {
                    continue;
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
    /// connected component as one of the targets. This is the
    /// pre-incremental "old path", retained for differential tests; it
    /// must always agree with the incremental check.
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
    /// invariant assertions rather than the hot path). While the maintained
    /// order is intact the graph is acyclic by construction and this is
    /// O(1).
    pub fn has_cycle(&mut self) -> bool {
        self.cycle_checks += 1;
        if self.order_valid {
            return false;
        }
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

    /// Check the topological-order invariant (tests/debugging): while the
    /// order is valid, every edge `a -> b` must satisfy `ord[b] < ord[a]`,
    /// and every node must carry a position.
    pub fn debug_check_order(&self) -> Result<(), String> {
        for n in self.nodes.keys() {
            if !self.ord.contains_key(n) {
                return Err(format!("node {n:?} has no order position"));
            }
        }
        if !self.order_valid {
            return Ok(());
        }
        for (a, adj) in &self.nodes {
            for b in adj.out.keys() {
                if self.ord[b] >= self.ord[a] {
                    return Err(format!(
                        "edge {a:?} -> {b:?} violates the order ({} >= {})",
                        self.ord[b], self.ord[a]
                    ));
                }
            }
        }
        Ok(())
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
    fn clear_out_edges_only_clears_one_kind() {
        let mut g = G::new();
        g.add_edge(1, 2, EdgeKind::WaitFor);
        g.add_edge(1, 2, EdgeKind::CommitDep);
        g.add_edge(1, 3, EdgeKind::WaitFor);
        g.clear_out_edges(1, EdgeKind::WaitFor);
        assert!(!g.has_edge(1, 2, EdgeKind::WaitFor));
        assert!(g.has_edge(1, 2, EdgeKind::CommitDep));
        assert_eq!(g.to_adjacency()[&1], vec![2], "the 1 -> 3 pair is gone");
        assert!(g.out_neighbors_kind(1, EdgeKind::WaitFor).is_empty());
        assert_eq!(g.out_neighbors_kind(1, EdgeKind::CommitDep), vec![2]);
        // no-op on a missing node
        g.clear_out_edges(42, EdgeKind::WaitFor);
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
    fn zero_out_degree_nodes_reflects_commit_candidates() {
        let mut g = G::new();
        g.add_edge(2, 1, EdgeKind::CommitDep);
        g.add_edge(3, 1, EdgeKind::CommitDep);
        g.add_edge(3, 2, EdgeKind::CommitDep);
        let mut zeros = g.zero_out_degree_nodes();
        zeros.sort_unstable();
        assert_eq!(zeros, vec![1]);
        g.remove_node(1);
        let mut zeros = g.zero_out_degree_nodes();
        zeros.sort_unstable();
        assert_eq!(zeros, vec![2]);
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
    fn has_cycle_and_find_cycle() {
        let mut g = G::new();
        g.add_edge(1, 2, EdgeKind::WaitFor);
        g.add_edge(2, 3, EdgeKind::CommitDep);
        assert!(!g.has_cycle());
        g.add_edge(3, 1, EdgeKind::WaitFor);
        assert!(g.has_cycle());
    }

    #[test]
    fn cycle_check_counter_resets() {
        let mut g = G::new();
        g.add_edge(1, 2, EdgeKind::WaitFor);
        let _ = g.has_cycle();
        let _ = g.would_close_cycle(2, &[1]);
        assert_eq!(g.cycle_checks(), 2);
        g.reset_cycle_checks();
        assert_eq!(g.cycle_checks(), 0);
    }

    #[test]
    fn render_mentions_both_edge_kinds() {
        assert_eq!(EdgeKind::WaitFor.to_string(), "wait-for");
        assert_eq!(EdgeKind::CommitDep.to_string(), "commit-dep");
    }

    #[test]
    fn long_chains_do_not_overflow_the_stack() {
        // The DFS is iterative; a 100k-node chain plus a closing edge must
        // be handled without recursion issues. The chain is built tail
        // first so each insert's target already sits below its source —
        // the shape the scheduler produces (a transaction depends on
        // *older* transactions), which the incremental order handles in
        // O(1) per edge.
        let mut g = G::new();
        let n = 100_000u64;
        for i in (0..n).rev() {
            g.add_edge(i, i + 1, EdgeKind::CommitDep);
        }
        assert!(!g.has_cycle());
        g.debug_check_order().unwrap();
        g.add_edge(n, 0, EdgeKind::WaitFor);
        assert!(g.has_cycle());
        assert!(g.would_close_cycle(0, &[n]));
    }

    #[test]
    fn adversarial_insert_order_stays_correct() {
        // Inserting every edge in the order-violating direction (each
        // target fresher than its source) forces a reorder per insert.
        // That is the incremental order's worst case — quadratic in the
        // worst adversarial pattern, which never arises from the scheduler
        // because the dependency graph only ever holds live transactions —
        // but it must stay *correct*.
        let mut g = G::new();
        let n = 1_500u64;
        for i in 0..n {
            g.add_edge(i, i + 1, EdgeKind::CommitDep);
            debug_assert!(g.debug_check_order().is_ok());
        }
        assert!(g.order_is_valid());
        g.debug_check_order().unwrap();
        assert!(!g.has_cycle());
        assert!(g.would_close_cycle(n, &[0]));
        assert!(!g.would_close_cycle(0, &[n]), "edge n -> 0 already ordered");
        g.add_edge(n, 0, EdgeKind::WaitFor);
        assert!(g.has_cycle());
    }

    // ------------------------------------------------------------------
    // Incremental-order specific tests
    // ------------------------------------------------------------------

    #[test]
    fn order_invariant_holds_under_in_order_and_reversed_inserts() {
        // Dependencies inserted "new depends on old" never trigger a
        // reorder; the reversed direction triggers one per edge.
        let mut g = G::new();
        for i in 1..50u64 {
            g.add_edge(i, i - 1, EdgeKind::CommitDep);
            g.debug_check_order().unwrap();
        }
        assert!(g.order_is_valid());

        let mut g = G::new();
        for i in (1..50u64).rev() {
            g.add_edge(i, i - 1, EdgeKind::WaitFor);
            g.debug_check_order().unwrap();
        }
        assert!(g.order_is_valid());
        // The chain's order is fully determined: position increases with id.
        for i in 1..50u64 {
            assert!(g.order_position(i - 1).unwrap() < g.order_position(i).unwrap());
        }
    }

    #[test]
    fn cycle_closing_insert_invalidates_and_removal_rebuilds() {
        let mut g = G::new();
        g.add_edge(1, 2, EdgeKind::WaitFor);
        g.add_edge(2, 3, EdgeKind::WaitFor);
        assert!(g.order_is_valid());
        g.add_edge(3, 1, EdgeKind::CommitDep); // closes a cycle
        assert!(!g.order_is_valid());
        assert!(g.has_cycle());
        // Checks still work (full-search fallback).
        assert!(g.would_close_cycle(3, &[1]) || g.has_cycle());
        // Removing the cycle edge rebuilds the order.
        assert!(g.remove_edge(3, 1, EdgeKind::CommitDep));
        assert!(g.order_is_valid());
        g.debug_check_order().unwrap();
        assert!(!g.has_cycle());

        // Same via node removal.
        g.add_edge(3, 1, EdgeKind::CommitDep);
        assert!(!g.order_is_valid());
        g.remove_node(3);
        assert!(g.order_is_valid());
        g.debug_check_order().unwrap();

        // And via clear_out_edges.
        g.add_edge(2, 3, EdgeKind::WaitFor);
        g.add_edge(3, 1, EdgeKind::WaitFor);
        assert!(!g.order_is_valid());
        g.clear_out_edges(3, EdgeKind::WaitFor);
        assert!(g.order_is_valid());
        g.debug_check_order().unwrap();
    }

    #[test]
    fn incremental_and_oracle_checks_agree() {
        let mut g = G::new();
        g.add_edge(2, 1, EdgeKind::CommitDep);
        g.add_edge(3, 2, EdgeKind::WaitFor);
        g.add_edge(4, 2, EdgeKind::CommitDep);
        for from in 1..=5u64 {
            for target in 1..=5u64 {
                let incremental = g.would_close_cycle(from, &[target]);
                let oracle = g.would_close_cycle_oracle(from, &[target]);
                assert_eq!(
                    incremental, oracle,
                    "from={from} target={target} disagree"
                );
            }
        }
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

    // ------------------------------------------------------------------
    // Gap-label specific tests
    // ------------------------------------------------------------------

    #[test]
    fn small_violation_repair_is_allocation_free() {
        let mut g = G::new();
        // A 7-node chain hanging off node 1..=7, then a violating edge from
        // the older node 0 into its top: the forward region (7 nodes) fits
        // the inline scratch and the gap below ord(0) is huge. Nodes are
        // created in ascending order first so the chain edges themselves
        // (new depends on old) never violate.
        for n in 0..=7u64 {
            g.add_node(n);
        }
        for i in 2..=7u64 {
            g.add_edge(i, i - 1, EdgeKind::CommitDep);
        }
        let before = g.order_telemetry();
        assert_eq!(before.slow_path_allocs, 0);
        g.add_edge(0, 7, EdgeKind::WaitFor);
        g.debug_check_order().unwrap();
        let t = g.order_telemetry();
        assert_eq!(t.violations, before.violations + 1);
        assert_eq!(t.nodes_relabeled, before.nodes_relabeled + 7);
        assert_eq!(t.slow_path_allocs, 0, "small regions must not allocate");
        assert_eq!(t.renumber_events, 0);
        assert_eq!(t.window_renumber_events, 0);
    }

    #[test]
    fn oversized_region_takes_the_counted_slow_path() {
        let mut g = G::new();
        // A 40-node chain: the forward region spills the 32-slot scratch.
        for n in 0..=40u64 {
            g.add_node(n);
        }
        for i in 2..=40u64 {
            g.add_edge(i, i - 1, EdgeKind::CommitDep);
        }
        g.add_edge(0, 40, EdgeKind::WaitFor);
        g.debug_check_order().unwrap();
        let t = g.order_telemetry();
        assert_eq!(t.nodes_relabeled, 40);
        assert_eq!(t.slow_path_allocs, 1, "spilled region counts one alloc");
    }

    #[test]
    fn gap_exhaustion_triggers_windowed_renumbering() {
        let mut g = G::new();
        g.set_label_spacing(1);
        // Dense labels leave no gaps: ascending chain inserts violate the
        // order every time and immediately exhaust the gap below.
        for i in 0..40u64 {
            g.add_edge(i, i + 1, EdgeKind::CommitDep);
            g.debug_check_order().unwrap();
        }
        assert!(g.order_is_valid());
        let t = g.order_telemetry();
        assert_eq!(t.violations, 40);
        assert!(
            t.window_renumber_events > 0,
            "dense labels must force windowed renumbering"
        );
        assert_eq!(
            t.renumber_events, 0,
            "repair-time exhaustion must never fall back to the full spread"
        );
        assert!(!g.would_close_cycle(0, &[40]));
        assert!(g.would_close_cycle(40, &[0]));
    }

    #[test]
    fn windowed_renumbering_leaves_labels_below_the_floor_untouched() {
        let mut g = G::new();
        g.set_label_spacing(1);
        // A low cluster 0..=5 (ascending creation, edges new -> old: no
        // violations), then a second cluster whose violation repairs are
        // floored *above* the low cluster by a pruned dependency on node 5.
        for n in 0..=5u64 {
            g.add_node(n);
        }
        for i in 0..5u64 {
            g.add_edge(i + 1, i, EdgeKind::CommitDep);
        }
        for n in 100..=140u64 {
            g.add_node(n);
        }
        let low_labels: Vec<_> = (0..=5u64).map(|n| g.order_position(n).unwrap()).collect();
        for i in 100..140u64 {
            g.add_edge(i + 1, 5, EdgeKind::CommitDep); // in order: no violation
            g.add_edge(i, i + 1, EdgeKind::CommitDep); // violates every time
            g.debug_check_order().unwrap();
        }
        assert!(g.order_telemetry().window_renumber_events > 0);
        assert_eq!(g.order_telemetry().renumber_events, 0);
        let after: Vec<_> = (0..=5u64).map(|n| g.order_position(n).unwrap()).collect();
        assert_eq!(
            low_labels, after,
            "the window is floored above the pruned dependency; \
             labels below it must not move"
        );
    }

    #[test]
    fn label_space_overflow_on_append_renumbers() {
        let mut g = G::new();
        g.set_label_spacing(u64::MAX / 4);
        for i in 0..16u64 {
            g.add_node(i);
        }
        assert!(g.order_telemetry().renumber_events > 0);
        // Every node still carries a distinct-by-need, consistent label.
        g.add_edge(7, 3, EdgeKind::WaitFor);
        g.debug_check_order().unwrap();
    }

    #[test]
    fn dense_strategy_still_repairs_and_counts_allocs() {
        let mut g = G::new();
        g.set_reorder_strategy(ReorderStrategy::DenseRedistribute);
        for i in 0..30u64 {
            g.add_edge(i, i + 1, EdgeKind::CommitDep);
            g.debug_check_order().unwrap();
        }
        let t = g.order_telemetry();
        assert_eq!(t.violations, 30);
        assert_eq!(t.slow_path_allocs, 30, "the dense repair always allocates");
        assert!(g.would_close_cycle(30, &[0]));
        assert!(!g.would_close_cycle(0, &[30]));
        // Cycle detection still leaves labels untouched and flags the order.
        g.add_edge(30, 0, EdgeKind::WaitFor);
        assert!(!g.order_is_valid());
        assert!(g.has_cycle());
    }

    #[test]
    fn telemetry_accumulates_and_strategy_displays() {
        let mut a = OrderTelemetry {
            violations: 1,
            nodes_relabeled: 2,
            slow_path_allocs: 3,
            renumber_events: 4,
            window_renumber_events: 5,
        };
        let b = OrderTelemetry {
            violations: 10,
            nodes_relabeled: 20,
            slow_path_allocs: 30,
            renumber_events: 40,
            window_renumber_events: 50,
        };
        a.accumulate(&b);
        assert_eq!(a.violations, 11);
        assert_eq!(a.nodes_relabeled, 22);
        assert_eq!(a.slow_path_allocs, 33);
        assert_eq!(a.renumber_events, 44);
        assert_eq!(a.window_renumber_events, 55);
        assert_eq!(ReorderStrategy::GapLabel.to_string(), "gaplabel");
        assert_eq!(ReorderStrategy::DenseRedistribute.to_string(), "densereorder");
        assert_eq!(ReorderStrategy::default(), ReorderStrategy::GapLabel);
    }

    #[test]
    fn cycle_closing_insert_leaves_labels_untouched() {
        let mut g = G::new();
        g.add_edge(2, 1, EdgeKind::CommitDep);
        g.add_edge(3, 2, EdgeKind::CommitDep);
        let labels: Vec<_> = (1..=3).map(|n| g.order_position(n)).collect();
        g.add_edge(1, 3, EdgeKind::WaitFor); // closes 1 -> 3 -> 2 -> 1
        assert!(!g.order_is_valid());
        let after: Vec<_> = (1..=3).map(|n| g.order_position(n)).collect();
        assert_eq!(labels, after, "failed repairs must not move labels");
    }

    #[test]
    fn reorder_preserves_unrelated_positions() {
        let mut g = G::new();
        // Build two disjoint chains, then connect them "backwards" so a
        // reorder is forced; the untouched chain must stay consistent.
        for i in 1..10u64 {
            g.add_edge(i, i - 1, EdgeKind::CommitDep);
        }
        for i in 101..110u64 {
            g.add_edge(i, i - 1, EdgeKind::CommitDep);
        }
        // 0 (the oldest of chain A) now depends on 109 (the newest of B).
        g.add_edge(0, 109, EdgeKind::WaitFor);
        assert!(g.order_is_valid());
        g.debug_check_order().unwrap();
        assert!(!g.would_close_cycle(109, &[100]));
        assert!(g.would_close_cycle(109, &[0]));
    }
}
