//! Kernel-level counters.
//!
//! These are the raw counts the simulation study turns into its performance
//! metrics (blocking ratio, restart ratio, cycle-check ratio, …); they are
//! also handy for applications that want visibility into how much extra
//! concurrency recoverability is buying them.

/// Monotonically increasing counters maintained by the kernel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Transactions begun.
    pub transactions_begun: u64,
    /// Operation requests received (excluding internal retries of blocked
    /// requests). Each call of a batch counts as one request, so this
    /// counter is directly comparable between per-call and batched
    /// submission.
    pub requests: u64,
    /// Grouped submission passes ([`crate::SchedulerKernel::request_batch`]).
    /// Kernel-only: no session submits a batch, so on a database this and
    /// `batched_calls` stay 0.
    pub batches: u64,
    /// Calls *processed* by batch passes: each counts one request, so this
    /// is always a subset of `requests` (a blocked batch's unprocessed
    /// suffix is not counted until its resumption pass processes it).
    pub batched_calls: u64,
    /// Calls of the kernel's declared-batch entry point — residue kept for
    /// the frozen `bench/` probes; nothing above the kernel submits
    /// declarations, so on a database this and the three counters below
    /// stay 0.
    /// `declared_batches = declared_admitted + declared_fallbacks + declared_escalations`.
    pub declared_batches: u64,
    /// Declared batch passes admitted wholesale by the group-admission fast
    /// path: the declared footprint was disjoint from every live
    /// transaction, so every call executed with **zero per-op
    /// classification**.
    pub declared_admitted: u64,
    /// Declared batch passes that fell back to the per-op semantic
    /// classifier because the declared footprint overlapped live
    /// transactions (a correct declaration, just not a disjoint one).
    pub declared_fallbacks: u64,
    /// Declared batch passes whose calls escaped the declared footprint
    /// and were escalated to the per-op classifier (mis-declarations
    /// detected and demoted, never trusted).
    pub declared_escalations: u64,
    /// Operations actually executed (including executions that happen when a
    /// blocked request is finally admitted).
    pub operations_executed: u64,
    /// Times a transaction transitioned to the blocked state because a new
    /// request conflicted (retries that remain blocked are not re-counted).
    pub blocks: u64,
    /// Times a blocked transaction's pending request was admitted.
    pub unblocks: u64,
    /// Commit-dependency edges created (one per (requester, holder) pair per
    /// admitted recoverable request).
    pub commit_dependencies: u64,
    /// Actual commits.
    pub commits: u64,
    /// Pseudo-commits (every pseudo-committed transaction later also counts
    /// one actual commit).
    pub pseudo_commits: u64,
    /// Aborts because blocking would have closed a (deadlock) cycle.
    pub aborts_deadlock: u64,
    /// Aborts because a recoverable execution would have closed a
    /// commit-dependency cycle.
    pub aborts_commit_cycle: u64,
    /// Always 0 (a cycle aborts only the requester); read by `bench/`,
    /// leaves with it.
    pub aborts_victim: u64,
    /// Aborts of snapshot transactions that completed a dangerous SSI
    /// structure (both in- and out-rw-antidependencies; see
    /// [`crate::AbortReason::SsiConflict`]).
    pub aborts_ssi: u64,
    /// Always 0; read by `bench/`, leaves with it.
    pub aborts_undeclared: u64,
    /// Explicit, application-requested aborts.
    pub aborts_explicit: u64,
    /// Operations answered by the multi-version snapshot-read path (no
    /// classification, no blocking, no dependency-graph edges).
    pub snapshot_reads: u64,
    /// Historical object versions discarded because they became older than
    /// the oldest live snapshot (multi-version GC).
    pub versions_pruned: u64,
    /// Dependency-graph edges this kernel added (wait-for and
    /// commit-dependency combined, post-deduplication). A sharded kernel's
    /// shards share one graph, so their sum is the edges that graph got.
    pub graph_edges: u64,
    /// Always 0: one dependency graph serves every shard, so no edge is
    /// escalated. Read by `bench/`; leaves with it.
    pub escalated_edges: u64,
    /// Always 0 (see `escalated_edges`); read by `bench/`, leaves with it.
    pub escalated_checks: u64,
}

impl KernelStats {
    /// Add every counter of `other` into `self` (used to aggregate
    /// per-shard kernels into one database-wide view; the sharding layer
    /// afterwards overwrites the transaction-lifecycle counters with its
    /// own globally deduplicated counts).
    pub fn accumulate(&mut self, other: &KernelStats) {
        self.transactions_begun += other.transactions_begun;
        self.requests += other.requests;
        self.batches += other.batches;
        self.batched_calls += other.batched_calls;
        self.declared_batches += other.declared_batches;
        self.declared_admitted += other.declared_admitted;
        self.declared_fallbacks += other.declared_fallbacks;
        self.declared_escalations += other.declared_escalations;
        self.operations_executed += other.operations_executed;
        self.blocks += other.blocks;
        self.unblocks += other.unblocks;
        self.commit_dependencies += other.commit_dependencies;
        self.commits += other.commits;
        self.pseudo_commits += other.pseudo_commits;
        self.aborts_deadlock += other.aborts_deadlock;
        self.aborts_commit_cycle += other.aborts_commit_cycle;
        self.aborts_ssi += other.aborts_ssi;
        self.aborts_explicit += other.aborts_explicit;
        self.snapshot_reads += other.snapshot_reads;
        self.versions_pruned += other.versions_pruned;
        self.graph_edges += other.graph_edges;
    }

    /// Total aborts of every kind.
    pub fn total_aborts(&self) -> u64 {
        self.aborts_deadlock + self.aborts_commit_cycle + self.aborts_ssi + self.aborts_explicit
    }

    /// Aborts caused by the scheduler (everything except explicit aborts).
    pub fn scheduler_aborts(&self) -> u64 {
        self.aborts_deadlock + self.aborts_commit_cycle + self.aborts_ssi
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "txns={} requests={} batches={}/{} declared(batches={}, admitted={}, fallbacks={}, escalations={}) executed={} snapshot-reads={} blocks={} unblocks={} commit-deps={} commits={} pseudo={} aborts(deadlock={}, cycle={}, ssi={}, explicit={}) versions-pruned={}",
            self.transactions_begun,
            self.requests,
            self.batches,
            self.batched_calls,
            self.declared_batches,
            self.declared_admitted,
            self.declared_fallbacks,
            self.declared_escalations,
            self.operations_executed,
            self.snapshot_reads,
            self.blocks,
            self.unblocks,
            self.commit_dependencies,
            self.commits,
            self.pseudo_commits,
            self.aborts_deadlock,
            self.aborts_commit_cycle,
            self.aborts_ssi,
            self.aborts_explicit,
            self.versions_pruned,
        )
    }
}

/// One shard's contribution to a [`StatsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Times this shard's kernel lock was acquired by the request,
    /// batching, termination or coordination paths.
    pub lock_acquisitions: u64,
    /// The shard kernel's raw counters. Transaction-lifecycle counters
    /// (`transactions_begun`, `commits`, aborts, …) count **local
    /// applications**: a transaction enrolled in several shards contributes
    /// to each of them, so their per-shard sum can exceed the aggregate.
    pub stats: KernelStats,
}

/// Database-wide counters with a per-shard breakdown, produced by
/// [`crate::shard::ShardedKernel::stats_snapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Globally deduplicated counters: operation-level counters are summed
    /// across shards, transaction-lifecycle counters come from the
    /// cross-shard coordinator (each transaction counted exactly once, no
    /// matter how many shards it touched).
    pub aggregate: KernelStats,
    /// The **resolved** shard count of the topology that produced this
    /// snapshot. Equals `shards.len()`, but recorded explicitly so a
    /// database configured with [`crate::ShardCount::Auto`] reports the
    /// concrete count it resolved to — deterministic-simulation runs and
    /// bug reports need the actual topology, not the configuration.
    pub shard_count: usize,
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Always 0: the shards share one dependency graph, whose checks
    /// [`crate::ShardedKernel::cycle_checks`] counts. Read by `bench/`;
    /// leaves with it.
    pub global_cycle_checks: u64,
    /// Always zero (see [`OrderTelemetry`]); read by `bench/`, leaves with
    /// it.
    pub reorder: OrderTelemetry,
}

/// Always zero: the dependency graph keeps no topological order, so there
/// is nothing to reorder. Read by `bench/` through
/// [`StatsSnapshot::reorder`]; leaves with it (ROADMAP item 1(f)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrderTelemetry {
    /// Always 0.
    pub violations: u64,
    /// Always 0.
    pub nodes_relabeled: u64,
}

impl StatsSnapshot {
    /// One-line human-readable summary of the sharding behaviour: each
    /// shard's lock acquisitions and the dependency edges it added.
    pub fn shard_summary(&self) -> String {
        let per_shard = |f: fn(&ShardStats) -> u64| {
            let values: Vec<String> = self.shards.iter().map(|s| f(s).to_string()).collect();
            values.join(",")
        };
        format!(
            "shards={} locks=[{}] edges=[{}]",
            self.shard_count,
            per_shard(|s| s.lock_acquisitions),
            per_shard(|s| s.stats.graph_edges),
        )
    }
}

/// Counters maintained by a network front-end (the `sbcc-net` server).
///
/// Defined here, next to the kernel counters, so every front-end — and the
/// benches and tests that assert on them — shares one vocabulary. The
/// kernel itself never touches these; the server snapshots them alongside
/// [`StatsSnapshot`] so a single read answers "is anything leaked?"
/// (`connections_open == 0 && transactions_in_flight == 0` after
/// shutdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Connections currently open (a gauge, not a monotone counter).
    pub connections_open: u64,
    /// Transactions currently in flight across all connections (a gauge).
    pub transactions_in_flight: u64,
    /// Requests refused with a `Busy` shed-load error frame because the
    /// per-connection in-flight transaction cap was reached.
    pub shed_busy: u64,
    /// Connections torn down by the per-connection read timeout while they
    /// held live transactions.
    pub read_timeouts: u64,
    /// Server-side sessions aborted because their connection disconnected
    /// or timed out mid-transaction (each one also unblocked any waiters).
    pub sessions_auto_aborted: u64,
}

impl NetStats {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "conns(accepted={}, open={}) in-flight={} shed-busy={} read-timeouts={} auto-aborted={}",
            self.connections_accepted,
            self.connections_open,
            self.transactions_in_flight,
            self.shed_busy,
            self.read_timeouts,
            self.sessions_auto_aborted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_stats_summary_mentions_every_counter() {
        let s = NetStats {
            connections_accepted: 9,
            connections_open: 2,
            transactions_in_flight: 3,
            shed_busy: 4,
            read_timeouts: 5,
            sessions_auto_aborted: 6,
        };
        let text = s.summary();
        assert!(text.contains("accepted=9"));
        assert!(text.contains("open=2"));
        assert!(text.contains("in-flight=3"));
        assert!(text.contains("shed-busy=4"));
        assert!(text.contains("read-timeouts=5"));
        assert!(text.contains("auto-aborted=6"));
    }

    #[test]
    fn accumulate_sums_every_counter() {
        let mut a = KernelStats::default();
        let mut b = KernelStats::default();
        a.requests = 3;
        a.graph_edges = 2;
        b.requests = 4;
        b.commits = 1;
        b.declared_batches = 6;
        b.declared_admitted = 4;
        b.declared_fallbacks = 1;
        b.declared_escalations = 1;
        a.accumulate(&b);
        assert_eq!(a.requests, 7);
        assert_eq!(a.commits, 1);
        assert_eq!(a.graph_edges, 2);
        assert_eq!(a.declared_batches, 6);
        assert_eq!(a.declared_admitted, 4);
        assert_eq!(a.declared_fallbacks, 1);
        assert_eq!(a.declared_escalations, 1);
    }

    #[test]
    fn snapshot_summary_and_local_edges() {
        let mut snap = StatsSnapshot {
            aggregate: KernelStats::default(),
            shard_count: 2,
            shards: vec![
                ShardStats {
                    shard: 0,
                    lock_acquisitions: 7,
                    stats: KernelStats::default(),
                },
                ShardStats {
                    shard: 1,
                    lock_acquisitions: 9,
                    stats: KernelStats::default(),
                },
            ],
            global_cycle_checks: 0,
            reorder: OrderTelemetry::default(),
        };
        for (shard, edges) in snap.shards.iter_mut().zip([4, 6]) {
            shard.stats.graph_edges = edges;
        }
        assert_eq!(snap.shard_summary(), "shards=2 locks=[7,9] edges=[4,6]");
    }

    #[test]
    fn totals_and_ratios() {
        let mut s = KernelStats::default();
        assert_eq!(s.total_aborts(), 0);

        s.blocks = 10;
        s.commits = 4;
        s.aborts_deadlock = 1;
        s.aborts_commit_cycle = 2;
        s.aborts_ssi = 8;
        s.aborts_explicit = 5;
        assert_eq!(s.total_aborts(), 16);
        assert_eq!(s.scheduler_aborts(), 11);
    }

    #[test]
    fn summary_mentions_key_counters() {
        let s = KernelStats {
            commits: 3,
            pseudo_commits: 2,
            snapshot_reads: 7,
            aborts_ssi: 1,
            declared_batches: 9,
            declared_admitted: 8,
            versions_pruned: 4,
            ..KernelStats::default()
        };
        let text = s.summary();
        assert!(text.contains("commits=3"));
        assert!(text.contains("pseudo=2"));
        assert!(text.contains("snapshot-reads=7"));
        assert!(text.contains("ssi=1"));
        assert!(text.contains("declared(batches=9, admitted=8"));
        assert!(text.contains("versions-pruned=4"));
    }
}
