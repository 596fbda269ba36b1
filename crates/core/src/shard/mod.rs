//! The sharded scheduler kernel: N [`SchedulerKernel`]s sharing one
//! dependency graph, plus a lightweight cross-shard coordinator.
//!
//! # Why sharding works for this protocol
//!
//! The paper's semantic relations (commutativity / recoverability per ADT
//! operation pair) are **per object**: classification of a request only ever
//! reads the execution log and blocked queue of the one object it targets.
//! The only truly global state is transaction-level — liveness, the
//! dependency graph, and the commit order. A [`ShardedKernel`] therefore
//! partitions the *objects* across `shards` kernels (hash of the
//! registration name, see [`shard_of_name`]), each with its own lock and
//! its own log index. All of them run Figure 2 against **one**
//! [`sbcc_graph::DependencyGraph`] behind one small lock, and a small
//! coordinator keeps the other transaction-level pieces.
//!
//! # Sharding invariants
//!
//! 1. **Object ownership is static**: an object registered under a name
//!    lives in `shard_of_name(name, shards)` forever. Every request for it
//!    is processed under that shard's lock only.
//! 2. **Transaction ids are global**: [`ShardedKernel::begin`] assigns ids
//!    from one atomic counter; a shard *adopts* the id the first time the
//!    transaction touches one of its objects (lazy enrollment).
//!
//! # The one dependency graph
//!
//! A cycle check is one search over the edges of every live transaction
//! and, when it passes, the insertion of the checked edges, in one
//! critical section of the graph lock. So a cycle through several shards
//! is refused by the check that would close it, like any other, and a
//! concurrent check in another shard sees all of the inserted edges or
//! none. Four rules keep the graph cheap and the commit order right:
//!
//! 1. **A node is created by its first edge.** `begin` and `adopt` add
//!    none. Each shard flags the transactions it added an edge into or out
//!    of ([`crate::TxnRecord::in_graph`]). Both ends of an edge are
//!    enrolled in the shard that adds it, so a transaction flagged in none
//!    of its shards has no node, and it never takes the graph lock: not to
//!    look up its commit dependencies, not to remove its node, not in
//!    `settle`.
//! 2. **A shard cascades only its own transactions.** Its candidates are
//!    its own pseudo-committed transactions with no out-edge, in ascending
//!    order, and a shard with no pseudo-committed transaction takes no
//!    graph lock to find them. A candidate enrolled in other shards too is
//!    not committed but reported to the coordinator, which re-votes.
//! 3. **A multi-shard transaction leaves the graph only after every
//!    shard applied its termination.** To commit or abort a transaction X
//!    enrolled in several shards, the coordinator applies the termination
//!    in each shard in turn (a commit folds X's operations), one shard
//!    lock at a time. A shard that added no edge of X settles at once;
//!    the last shard removes X's node and settles; then the shards that
//!    added an edge settle. A kernel never terminates such a transaction by
//!    itself: a request of X that would close a cycle is only refused
//!    there, and the coordinator aborts X in the pass. Were X's node
//!    removed at the first shard's application, a shard S that has not
//!    applied it yet could (a) cascade-commit a transaction T that
//!    commit-depends on X, so T's operations would enter S's committed
//!    state ahead of X's, against Section 4.3's order; or (b) retry a
//!    request W queued behind X whose edge to X is gone: W would re-run
//!    Figure 2 against X's still-logged operations, block, and re-create
//!    X's node after X terminated. A shard that applied the termination
//!    and has not settled yet is safe: X has left its logs, its dependants
//!    on X stay pseudo-committed until the removal, and a retried waiter
//!    drops its edge to X.
//! 4. **Lock order:** the termination lock, then shard locks in ascending
//!    order, then the graph lock. No code takes a shard lock while holding
//!    the graph lock, and only `check_invariants` holds several shard
//!    locks at once.
//!
//! # Cross-shard termination protocol
//!
//! * **Commit** of a transaction enrolled in one shard is the unsharded
//!   fast path: the shard's own [`SchedulerKernel::commit`] decides
//!   between actual and pseudo-commit locally.
//! * **Commit** of a multi-shard transaction runs a vote under the
//!   coordinator's termination lock: the transaction must be active in
//!   every shard, and its commit dependencies are read from the graph
//!   once. With none, the rule-3 pass commits it. Otherwise it
//!   pseudo-commits in every shard, and a settle that finds it without
//!   out-edges reports it ([`SchedulerKernel::drain_coordination_ready`])
//!   for a re-vote.
//! * **Aborts** of a multi-shard transaction always take the rule-3 pass:
//!   explicit and SSI aborts under the termination lock, a refused request
//!   when the coordinator absorbs the refusal. A cycle only ever aborts
//!   the transaction whose request (or retried blocked request) would
//!   close it, so a scheduler-initiated abort never hits a transaction
//!   that is running or committing — there is no race against a concurrent
//!   commit vote for the same transaction.
//!
//! With `shards = 1` every transaction is single-shard, and the subsystem
//! degenerates to the unsharded kernel's behaviour (the sharded-vs-single
//! differential test suite pins this).

mod commit;
mod config;
mod ssi;

pub use config::{shard_of_name, DatabaseConfig, ObjectLoc, ShardCount, SHARDS_ENV};

use crate::chaos::{self, sync::Mutex, sync::MutexGuard, ChaosPoint};
use crate::errors::CoreError;
use crate::events::{KernelEvent, RequestOutcome};
use crate::kernel::{check_shared_invariants, SchedulerKernel, SharedGraph};
use crate::object::ObjectId;
use crate::stats::{KernelStats, OrderTelemetry, ShardStats, StatsSnapshot};
use crate::txn::{RecentFates, TxnId, TxnState};
use sbcc_adt::{AdtObject, AdtSpec, AdtType, OpCall, SemanticObject};
use sbcc_graph::EdgeKind;
use ssi::SsiTable;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One shard: a kernel behind its own lock, plus observability counters.
struct ShardCell {
    kernel: Mutex<SchedulerKernel>,
    lock_acquisitions: AtomicU64,
}

/// Coordinator-side record of a live transaction.
#[derive(Debug, Clone, Default)]
struct EnrollRec {
    /// Shards the transaction is enrolled in, in enrollment order.
    shards: Vec<u32>,
    /// `true` once the transaction pseudo-committed (coordinator-level
    /// flag; the per-shard states agree).
    pseudo: bool,
}

#[derive(Debug, Default)]
struct Enrollments {
    live: HashMap<TxnId, EnrollRec>,
    /// Coordinator-side fates of the most recent terminations.
    finished: RecentFates,
}

/// Globally deduplicated transaction-lifecycle counters (one count per
/// transaction regardless of how many shards it touched).
#[derive(Debug, Default)]
struct Lifecycle {
    begun: AtomicU64,
    commits: AtomicU64,
    pseudo_commits: AtomicU64,
    aborts_deadlock: AtomicU64,
    aborts_commit_cycle: AtomicU64,
    aborts_ssi: AtomicU64,
    aborts_explicit: AtomicU64,
}

/// Side effects drained from one shard pass.
#[derive(Default)]
struct ShardFx {
    events: Vec<KernelEvent>,
    ready: Vec<TxnId>,
}

fn drain_fx(kernel: &mut SchedulerKernel) -> ShardFx {
    ShardFx {
        events: kernel.drain_events(),
        ready: kernel.drain_coordination_ready(),
    }
}

#[derive(Debug, Default)]
struct Registry {
    names: HashMap<String, ObjectId>,
    directory: Vec<ObjectLoc>,
}

/// N independent scheduler kernels plus the cross-shard coordinator. The
/// thread-safe, internally locked counterpart of [`SchedulerKernel`]; the
/// module documentation describes the protocol.
pub struct ShardedKernel {
    config: DatabaseConfig,
    shards: Vec<ShardCell>,
    /// The dependency graph every shard kernel runs Figure 2 against.
    graph: Arc<SharedGraph>,
    registry: Mutex<Registry>,
    enroll: Mutex<Enrollments>,
    /// Serializes multi-shard terminations (commit votes, coordinated
    /// commits and explicit multi-shard aborts) so per-shard commit orders
    /// stay mutually consistent.
    termination: Mutex<()>,
    /// Side-effect events collected across shards, drained by the caller
    /// exactly like [`SchedulerKernel::drain_events`].
    events: Mutex<Vec<KernelEvent>>,
    /// Lock-free emptiness hint for `events`: the request fast path (no
    /// side effects, the overwhelmingly common case) must not pay a mutex
    /// acquisition per call just to find the buffer empty.
    events_pending: AtomicU64,
    next_txn: AtomicU64,
    lifecycle: Lifecycle,
    /// The global commit clock, shared with every shard kernel
    /// ([`SchedulerKernel::attach_stamps`]): each actual commit draws one
    /// stamp, and multi-shard commits draw a *single* stamp under the
    /// termination lock so cross-shard snapshots never observe a
    /// half-applied multi-shard commit.
    commit_clock: Arc<AtomicU64>,
    /// The SSI guard: rw-antidependency bookkeeping, its lock-free gate
    /// and the version-GC floor the shard kernels prune against.
    ssi: SsiTable,
    /// The write-ahead log, attached once by [`crate::Database`] after
    /// replay (see [`Self::attach_wal`]). Registrations and multi-shard
    /// commits log through this handle; single-shard commits log through
    /// the per-shard kernels' own handles on the same log, and
    /// [`Self::commit`] turns the ticket they return into a
    /// [`sbcc_wal::Durable`] through it.
    wal: std::sync::OnceLock<Arc<sbcc_wal::Wal>>,
}

impl std::fmt::Debug for ShardedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKernel")
            .field("shards", &self.shards.len())
            .field("objects", &self.registry.lock().directory.len())
            .finish()
    }
}

impl ShardedKernel {
    /// Build a sharded kernel: `config.shards` kernels sharing one
    /// dependency graph ([`ShardCount::Auto`] resolves to the available
    /// parallelism here).
    pub fn new(config: DatabaseConfig) -> Self {
        let shard_count = config.shards.resolve();
        assert!(shard_count >= 1, "at least one shard is required");
        let graph = Arc::new(SharedGraph::default());
        let commit_clock = Arc::new(AtomicU64::new(0));
        let ssi = SsiTable::new(commit_clock.clone());
        let shards = (0..shard_count)
            .map(|_| {
                let mut kernel = SchedulerKernel::new(config.scheduler.clone());
                kernel.attach_graph(graph.clone());
                kernel.attach_stamps(commit_clock.clone(), ssi.floor_handle());
                ShardCell {
                    kernel: Mutex::new(kernel),
                    lock_acquisitions: AtomicU64::new(0),
                }
            })
            .collect();
        ShardedKernel {
            config,
            shards,
            graph,
            registry: Mutex::new(Registry::default()),
            enroll: Mutex::new(Enrollments::default()),
            termination: Mutex::new(()),
            events: Mutex::new(Vec::new()),
            events_pending: AtomicU64::new(0),
            next_txn: AtomicU64::new(0),
            lifecycle: Lifecycle::default(),
            commit_clock,
            ssi,
            wal: std::sync::OnceLock::new(),
        }
    }

    /// Attach the write-ahead log to the coordinator and to every shard
    /// kernel. Call **after** replaying the records [`sbcc_wal::Wal::open`]
    /// returned — from here on every registration and actual commit is
    /// appended, so attaching before replay would re-log the recovery.
    ///
    /// # Panics
    ///
    /// Panics if a log is already attached.
    pub fn attach_wal(&self, wal: Arc<sbcc_wal::Wal>) {
        for (i, _) in self.shards.iter().enumerate() {
            self.peek_shard(i as u32).attach_wal(wal.clone());
        }
        assert!(
            self.wal.set(wal).is_ok(),
            "a write-ahead log is already attached"
        );
    }

    /// The configuration.
    pub fn config(&self) -> &DatabaseConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn lock_shard(&self, shard: u32) -> MutexGuard<'_, SchedulerKernel> {
        let cell = &self.shards[shard as usize];
        cell.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        cell.kernel.lock()
    }

    /// Lock a shard for inspection without perturbing the lock counter.
    fn peek_shard(&self, shard: u32) -> MutexGuard<'_, SchedulerKernel> {
        self.shards[shard as usize].kernel.lock()
    }

    // ------------------------------------------------------------------
    // Object registration and inspection
    // ------------------------------------------------------------------

    /// Register an erased semantic object; its shard is
    /// `shard_of_name(name, shards)`. Returns the **global** object id
    /// (dense, in registration order) and its location.
    pub fn register_object(
        &self,
        name: impl Into<String>,
        object: Box<dyn SemanticObject>,
    ) -> Result<(ObjectId, ObjectLoc), CoreError> {
        let name = name.into();
        let mut registry = self.registry.lock();
        if registry.names.contains_key(&name) {
            return Err(CoreError::DuplicateObject(name));
        }
        // Semantic logging can only recover objects it can reconstruct:
        // the type must be in the `sbcc_adt` catalogue and the initial state
        // must be the catalogue's empty state (the log records operations,
        // never a starting state).
        let type_name = object.type_name();
        if self.wal.get().is_some() {
            match AdtType::from_name(type_name).map(AdtType::instantiate) {
                None => {
                    return Err(CoreError::Durability(format!(
                        "object {name:?} has type {type_name:?}, which is not in the \
                         recovery catalogue; durable databases accept only \
                         the built-in table-driven types"
                    )))
                }
                Some(fresh) if !object.state_eq(fresh.as_ref()) => {
                    return Err(CoreError::Durability(format!(
                        "object {name:?} starts with a non-empty state; the log \
                         records operations only, so a durable database cannot \
                         recover a pre-populated object"
                    )))
                }
                Some(_) => {}
            }
        }
        let shard = shard_of_name(&name, self.shards.len());
        let local = self
            .peek_shard(shard)
            .register_object(name.clone(), object)?;
        if let Some(wal) = self.wal.get() {
            // Flushed at append: the registration is durable before any
            // commit can name the object.
            wal.append_register(&name, type_name);
        }
        let global = ObjectId(registry.directory.len() as u32);
        let loc = ObjectLoc { shard, local };
        registry.directory.push(loc);
        registry.names.insert(name, global);
        Ok((global, loc))
    }

    /// Register a typed atomic data type instance.
    pub fn register<A: AdtSpec>(
        &self,
        name: impl Into<String>,
        adt: A,
    ) -> Result<(ObjectId, ObjectLoc), CoreError> {
        self.register_object(name, Box::new(AdtObject::new(adt)))
    }

    /// Number of registered objects (across all shards).
    pub fn object_count(&self) -> usize {
        self.registry.lock().directory.len()
    }

    /// Resolve an object name to its global id.
    pub fn object_id(&self, name: &str) -> Option<ObjectId> {
        self.registry.lock().names.get(name).copied()
    }

    /// The location of a global object id.
    pub fn object_loc(&self, object: ObjectId) -> Option<ObjectLoc> {
        self.registry
            .lock()
            .directory
            .get(object.0 as usize)
            .copied()
    }

    /// Run a closure against an object's committed state (under its
    /// shard's lock).
    pub fn with_object_committed<R>(
        &self,
        object: ObjectId,
        f: impl FnOnce(&dyn SemanticObject) -> R,
    ) -> Option<R> {
        let loc = self.object_loc(object)?;
        let kernel = self.peek_shard(loc.shard);
        kernel.object_committed_state(loc.local).map(f)
    }

    // ------------------------------------------------------------------
    // Transaction life cycle
    // ------------------------------------------------------------------

    /// Begin a transaction. The id is assigned globally; shards adopt it
    /// lazily on first touch.
    pub fn begin(&self) -> TxnId {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed) + 1);
        self.enroll.lock().live.insert(id, EnrollRec::default());
        self.lifecycle.begun.fetch_add(1, Ordering::Relaxed);
        self.ssi.begin(id);
        id
    }

    /// Begin a **snapshot** transaction: its read-only operations observe
    /// the newest committed version at or below the returned begin stamp,
    /// without classification or blocking, and serializability is guarded
    /// by SSI rw-antidependency tracking (a dangerous structure aborts the
    /// pivot with [`crate::AbortReason::SsiConflict`]). Non-read-only operations
    /// still go through the ordinary classified path.
    ///
    /// The stamp is acquired under the termination lock: a multi-shard
    /// commit draws its single stamp and applies every per-shard fold
    /// under that same lock, so no snapshot can begin between the folds —
    /// cross-shard snapshots never see a half-applied multi-shard commit.
    pub fn begin_snapshot(&self) -> (TxnId, u64) {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed) + 1);
        self.lifecycle.begun.fetch_add(1, Ordering::Relaxed);
        let _termination = self.termination.lock();
        self.enroll.lock().live.insert(id, EnrollRec::default());
        chaos::reach(ChaosPoint::SnapshotStamp, Some(id));
        let begin = self.ssi.begin_snapshot(id);
        (id, begin)
    }

    fn missing_txn_error(enroll: &Enrollments, txn: TxnId, action: &'static str) -> CoreError {
        match enroll.finished.get(txn) {
            Some(state) => CoreError::InvalidState { txn, state, action },
            None => CoreError::UnknownTransaction(txn),
        }
    }

    /// Enroll `txn` into `shard` if it is not enrolled yet, marking it
    /// coordinated in both shards when it becomes multi-shard. Returns
    /// `true` when this call performed the enrollment (the session layer
    /// caches this to skip the coordinator on repeat touches).
    pub fn ensure_enrolled(
        &self,
        txn: TxnId,
        shard: u32,
        action: &'static str,
    ) -> Result<bool, CoreError> {
        let mut enroll = self.enroll.lock();
        let Some(rec) = enroll.live.get_mut(&txn) else {
            return Err(Self::missing_txn_error(&enroll, txn, action));
        };
        if rec.shards.contains(&shard) {
            return Ok(false);
        }
        let first = rec.shards.first().copied();
        let coordinated = first.is_some();
        rec.shards.push(shard);
        if rec.shards.len() == 2 {
            // The transaction spans shards from now on: its terminations
            // go through the coordinator in every shard.
            self.lock_shard(first.expect("two shards"))
                .mark_coordinated(txn);
        }
        self.lock_shard(shard).adopt(txn, coordinated);
        Ok(true)
    }

    /// The current state of a transaction. `Blocked` wins over `Active`
    /// across shards (a transaction blocks in at most one shard — it has
    /// at most one in-flight request).
    ///
    /// A terminated transaction's fate is remembered only among the
    /// coordinator's last 1 024 terminations (`RECENT_FATES`); an older one
    /// reads `None`, and later calls on it fail with
    /// [`CoreError::UnknownTransaction`] instead of `InvalidState`.
    pub fn txn_state(&self, txn: TxnId) -> Option<TxnState> {
        let shards = {
            let enroll = self.enroll.lock();
            if let Some(state) = enroll.finished.get(txn) {
                return Some(state);
            }
            let rec = enroll.live.get(&txn)?;
            if rec.shards.is_empty() {
                return Some(TxnState::Active);
            }
            rec.shards.clone()
        };
        let mut state = TxnState::Active;
        for s in shards {
            match self.peek_shard(s).txn_state(txn) {
                Some(TxnState::Blocked) => return Some(TxnState::Blocked),
                Some(TxnState::PseudoCommitted) => state = TxnState::PseudoCommitted,
                _ => {}
            }
        }
        Some(state)
    }

    /// The live transactions `txn` has commit dependencies on, whichever
    /// shard added them, sorted.
    pub fn commit_dependencies_of(&self, txn: TxnId) -> Vec<TxnId> {
        let graph = self.graph.lock();
        let mut deps = graph.out_neighbors_kind(txn, EdgeKind::CommitDep);
        deps.sort_unstable();
        deps
    }

    /// Drain the side-effect events collected across shards (same
    /// semantics as [`SchedulerKernel::drain_events`]).
    ///
    /// A thread that published events always drains after publishing, so
    /// the lock-free empty fast path cannot strand an event: at worst a
    /// *concurrent* caller misses events another thread is about to drain
    /// anyway.
    pub fn drain_events(&self) -> Vec<KernelEvent> {
        if self.events_pending.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let mut events = self.events.lock();
        self.events_pending.store(0, Ordering::Release);
        std::mem::take(&mut *events)
    }

    /// Publish side-effect events for [`Self::drain_events`].
    fn publish_events(&self, events: Vec<KernelEvent>) {
        if events.is_empty() {
            return;
        }
        let mut buf = self.events.lock();
        buf.extend(events);
        self.events_pending
            .store(buf.len() as u64, Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Requests
    // ------------------------------------------------------------------

    /// Request an operation by global object id: resolves the shard
    /// through the directory and enrolls on first touch. Sessions, which
    /// cache both, call [`Self::request_enrolled`] instead.
    pub fn request(
        &self,
        txn: TxnId,
        object: ObjectId,
        call: OpCall,
    ) -> Result<RequestOutcome, CoreError> {
        let loc = self
            .object_loc(object)
            .ok_or_else(|| CoreError::UnknownObject(format!("{object}")))?;
        self.ensure_enrolled(txn, loc.shard, "request an operation")?;
        self.request_enrolled(txn, loc, call)
    }

    /// Request an operation for a transaction known to be enrolled in the
    /// target shard (the session layer's cached fast path: no coordinator
    /// lock, one shard lock).
    pub fn request_enrolled(
        &self,
        txn: TxnId,
        loc: ObjectLoc,
        call: OpCall,
    ) -> Result<RequestOutcome, CoreError> {
        let ssi_on = self.ssi.enabled();
        let (result, fx, object_stamp) = {
            let mut kernel = self.lock_shard(loc.shard);
            let result = kernel.request(txn, loc.local, call);
            // Read the object's committed stamp under the same lock hold:
            // the late concurrent-write check in `SsiTable::note_classified`
            // compares it against the snapshot's begin stamp.
            let object_stamp = if ssi_on {
                kernel.object_commit_stamp(loc.local)
            } else {
                None
            };
            let fx = drain_fx(&mut kernel);
            (result, fx, object_stamp)
        };
        if let (Some(stamp), Ok(outcome)) = (object_stamp, &result) {
            self.ssi.note_classified(txn, outcome, stamp);
        }
        let requester = match &result {
            Ok(RequestOutcome::Aborted { reason }) => Some((txn, *reason)),
            _ => None,
        };
        self.absorb(loc.shard, requester, fx);
        result
    }

    // ------------------------------------------------------------------
    // Observability and validation
    // ------------------------------------------------------------------

    /// Overwrite the summed transaction-lifecycle counters with the
    /// coordinator's globally deduplicated counts.
    fn apply_lifecycle(&self, aggregate: &mut KernelStats) {
        aggregate.transactions_begun = self.lifecycle.begun.load(Ordering::Relaxed);
        aggregate.commits = self.lifecycle.commits.load(Ordering::Relaxed);
        aggregate.pseudo_commits = self.lifecycle.pseudo_commits.load(Ordering::Relaxed);
        aggregate.aborts_deadlock = self.lifecycle.aborts_deadlock.load(Ordering::Relaxed);
        aggregate.aborts_commit_cycle = self.lifecycle.aborts_commit_cycle.load(Ordering::Relaxed);
        aggregate.aborts_ssi = self.lifecycle.aborts_ssi.load(Ordering::Relaxed);
        aggregate.aborts_explicit = self.lifecycle.aborts_explicit.load(Ordering::Relaxed);
    }

    /// Globally deduplicated counters: operation-level counters summed
    /// across shards, transaction-lifecycle counters from the coordinator.
    pub fn stats(&self) -> KernelStats {
        let mut aggregate = KernelStats::default();
        for cell in &self.shards {
            aggregate.accumulate(cell.kernel.lock().stats());
        }
        self.apply_lifecycle(&mut aggregate);
        aggregate
    }

    /// The aggregate plus the per-shard breakdown. The aggregate's
    /// operation-level counters are computed from the very per-shard
    /// readings reported alongside (one lock pass), so the breakdown
    /// always sums to the aggregate even while workers are running.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let shards: Vec<ShardStats> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let kernel = cell.kernel.lock();
                ShardStats {
                    shard: i,
                    lock_acquisitions: cell.lock_acquisitions.load(Ordering::Relaxed),
                    stats: kernel.stats().clone(),
                }
            })
            .collect();
        let mut aggregate = KernelStats::default();
        for shard in &shards {
            aggregate.accumulate(&shard.stats);
        }
        self.apply_lifecycle(&mut aggregate);
        StatsSnapshot {
            aggregate,
            // The *resolved* topology: even under `ShardCount::Auto` this
            // records the concrete shard count the database is running
            // with, so simulation runs and bug reports capture it.
            shard_count: self.shards.len(),
            shards,
            global_cycle_checks: 0,
            reorder: OrderTelemetry::default(),
        }
    }

    /// Cycle checks on the one dependency graph.
    pub fn cycle_checks(&self) -> u64 {
        self.graph.lock().cycle_checks()
    }

    /// Check the invariants of the one graph and of every shard, as
    /// [`SchedulerKernel::check_invariants`] does for a standalone kernel.
    /// Takes every shard lock, in ascending order, then the graph lock.
    pub fn check_invariants(&self) -> Result<(), String> {
        let guards: Vec<_> = (0..self.shards.len() as u32)
            .map(|s| self.peek_shard(s))
            .collect();
        let kernels: Vec<&SchedulerKernel> = guards.iter().map(|k| &**k).collect();
        check_shared_invariants(&mut self.graph.lock(), &kernels)
    }

    /// Run the commit-order serializability checker on every shard
    /// (requires history recording).
    pub fn verify_serializable(&self) -> Result<(), String> {
        for (i, cell) in self.shards.iter().enumerate() {
            let kernel = cell.kernel.lock();
            crate::history::verify_commit_order_serializable(&kernel)
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }

    /// Run the commit-order dependency checker on every shard.
    pub fn verify_commit_dependencies(&self) -> Result<(), String> {
        for (i, cell) in self.shards.iter().enumerate() {
            let kernel = cell.kernel.lock();
            crate::history::verify_commit_order_respects_dependencies(&kernel)
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CommitOutcome;
    use crate::policy::SchedulerConfig;
    use sbcc_adt::{AdtOp, Counter, CounterOp};

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 7, 8] {
            for name in ["a", "jobs", "obj123", ""] {
                let s = shard_of_name(name, shards);
                assert_eq!(s, shard_of_name(name, shards), "deterministic");
                assert!((s as usize) < shards);
            }
        }
        // With one shard everything routes to shard 0.
        assert_eq!(shard_of_name("anything", 1), 0);
    }

    #[test]
    fn auto_shards_build_one_kernel_per_core() {
        let kernel = ShardedKernel::new(
            DatabaseConfig::new(SchedulerConfig::default()).with_shards(ShardCount::Auto),
        );
        assert_eq!(kernel.shard_count(), ShardCount::Auto.resolve());
        // The resolved topology is recorded in the snapshot, so harness
        // reports and bug reports capture what `auto` actually meant.
        assert_eq!(
            kernel.stats_snapshot().shard_count,
            ShardCount::Auto.resolve()
        );
    }

    #[test]
    fn registration_routes_by_name_hash_and_ids_stay_dense() {
        let kernel =
            ShardedKernel::new(DatabaseConfig::new(SchedulerConfig::default()).with_shards(4));
        for i in 0..16 {
            let name = format!("obj{i}");
            let (id, loc) = kernel.register(name.clone(), Counter::new()).unwrap();
            assert_eq!(id, ObjectId(i as u32), "global ids are dense");
            assert_eq!(loc.shard, shard_of_name(&name, 4));
            assert_eq!(kernel.object_id(&name), Some(id));
            assert_eq!(kernel.object_loc(id), Some(loc));
        }
        assert_eq!(kernel.object_count(), 16);
        assert!(
            kernel.register("obj0", Counter::new()).is_err(),
            "duplicate name"
        );
        assert!(kernel.object_loc(ObjectId(99)).is_none());
    }

    #[test]
    fn opless_transaction_commits_and_counts_once() {
        let kernel = ShardedKernel::new(DatabaseConfig::default());
        let t = kernel.begin();
        assert_eq!(kernel.txn_state(t), Some(TxnState::Active));
        assert_eq!(kernel.commit(t).unwrap().0, CommitOutcome::Committed);
        assert_eq!(kernel.txn_state(t), Some(TxnState::Committed));
        let stats = kernel.stats();
        assert_eq!(stats.transactions_begun, 1);
        assert_eq!(stats.commits, 1);
        // Terminated transactions reject further actions with the same
        // errors the unsharded kernel produces.
        assert!(matches!(
            kernel.commit(t),
            Err(CoreError::InvalidState {
                state: TxnState::Committed,
                ..
            })
        ));
        assert!(matches!(
            kernel.abort(t),
            Err(CoreError::InvalidState { .. })
        ));
        assert!(matches!(
            kernel.commit(TxnId(42)),
            Err(CoreError::UnknownTransaction(_))
        ));
    }

    /// Rule 1: a transaction with no edge has no node and never takes the
    /// graph lock, whether it stays in one shard or spans several, and
    /// whether it commits or aborts.
    #[test]
    fn edge_free_transactions_never_touch_the_graph() {
        let kernel =
            ShardedKernel::new(DatabaseConfig::new(SchedulerConfig::default()).with_shards(4));
        let counters: Vec<ObjectId> = one_name_per_shard(4)
            .into_iter()
            .map(|name| kernel.register(name, Counter::new()).unwrap().0)
            .collect();
        let inc = || CounterOp::Increment(1).to_call();
        for round in 0..4 {
            let single = kernel.begin();
            let multi = kernel.begin();
            assert!(kernel
                .request(single, counters[round], inc())
                .unwrap()
                .is_executed());
            for &c in &counters {
                assert!(kernel.request(multi, c, inc()).unwrap().is_executed());
            }
            assert!(kernel.graph.is_empty(), "mid-transaction");
            if round % 2 == 0 {
                assert_eq!(kernel.commit(single).unwrap().0, CommitOutcome::Committed);
                assert_eq!(kernel.commit(multi).unwrap().0, CommitOutcome::Committed);
            } else {
                kernel.abort(single).unwrap();
                kernel.abort(multi).unwrap();
            }
        }
        assert_eq!(kernel.graph.acquisitions(), 0);
        let snapshot = kernel.stats_snapshot();
        assert_eq!(snapshot.aggregate.graph_edges, 0);
        assert_eq!(snapshot.shards.len(), 4);
        kernel.check_invariants().unwrap();
        assert!(format!("{kernel:?}").contains("ShardedKernel"));
    }

    #[test]
    fn stats_snapshot_reports_per_shard_lock_traffic() {
        let kernel =
            ShardedKernel::new(DatabaseConfig::new(SchedulerConfig::default()).with_shards(2));
        let names = one_name_per_shard(2);
        let (a, loc_a) = kernel.register(names[0].clone(), Counter::new()).unwrap();
        let (b, loc_b) = kernel.register(names[1].clone(), Counter::new()).unwrap();
        assert_ne!(loc_a.shard, loc_b.shard);
        let t = kernel.begin();
        assert!(kernel
            .request(t, a, CounterOp::Increment(1).to_call())
            .unwrap()
            .is_executed());
        assert!(kernel
            .request(t, b, CounterOp::Increment(1).to_call())
            .unwrap()
            .is_executed());
        let _ = kernel.commit(t).unwrap();
        let snapshot = kernel.stats_snapshot();
        assert!(snapshot.shards[0].lock_acquisitions >= 1);
        assert!(snapshot.shards[1].lock_acquisitions >= 1);
        assert_eq!(snapshot.aggregate.operations_executed, 2);
        assert_eq!(snapshot.aggregate.commits, 1);
        // Per-shard lifecycle counters count local applications: the
        // multi-shard commit shows up in both kernels.
        let per_shard_commits: u64 = snapshot.shards.iter().map(|s| s.stats.commits).sum();
        assert_eq!(per_shard_commits, 2);
        assert!(!snapshot.shard_summary().is_empty());
    }

    /// Names of one object per shard, in shard order.
    fn one_name_per_shard(shards: usize) -> Vec<String> {
        let mut names: Vec<Option<String>> = vec![None; shards];
        let mut i = 0;
        while names.iter().any(Option::is_none) {
            let candidate = format!("n{i}");
            let shard = shard_of_name(&candidate, shards) as usize;
            if names[shard].is_none() {
                names[shard] = Some(candidate);
            }
            i += 1;
        }
        names.into_iter().map(Option::unwrap).collect()
    }

    /// The coordinator votes (reading the dependencies) and marks the
    /// pseudo-commit in separate critical sections; the last dependency
    /// can terminate in between. A pseudo-commit whose out-degree is
    /// *already* zero must be reported as
    /// coordination-ready immediately — no later edge removal will ever
    /// re-report it. (Found as a cross-session hang by DST seed 133.)
    #[test]
    fn pseudo_commit_with_no_remaining_deps_is_immediately_coordination_ready() {
        let mut kernel = SchedulerKernel::new(SchedulerConfig::default());
        let txn = TxnId(1);
        kernel.adopt(txn, true);
        assert!(kernel.pseudo_commit_coordinated(txn));
        assert_eq!(
            kernel.drain_coordination_ready(),
            vec![txn],
            "dependency-free pseudo-commit must queue its re-vote at once"
        );
        assert_eq!(kernel.txn_state(txn), Some(TxnState::PseudoCommitted));
    }

    /// The coordinator and every shard kernel remember the fates of only
    /// the most recent terminations: exact inside the window, unknown
    /// beyond it, and never more than `2 × RECENT_FATES` entries.
    #[test]
    fn fate_maps_keep_only_recent_terminations() {
        use crate::txn::RECENT_FATES;
        let kernel =
            ShardedKernel::new(DatabaseConfig::new(SchedulerConfig::default()).with_shards(4));
        let counters: Vec<ObjectId> = one_name_per_shard(4)
            .into_iter()
            .map(|name| kernel.register(name, Counter::new()).unwrap().0)
            .collect();
        let inc = || CounterOp::Increment(1).to_call();
        // Every transaction touches shard 0; three in four also touch a
        // second shard, so both commit paths and every shard see traffic.
        // Every third one aborts explicitly.
        let mut fates = Vec::new();
        for i in 0..5 * RECENT_FATES {
            let t = kernel.begin();
            kernel.request(t, counters[0], inc()).unwrap();
            kernel.request(t, counters[i % 4], inc()).unwrap();
            let fate = if i % 3 == 0 {
                kernel.abort(t).unwrap();
                TxnState::Aborted
            } else {
                assert_eq!(kernel.commit(t).unwrap().0, CommitOutcome::Committed);
                TxnState::Committed
            };
            fates.push((t, fate, i % 4));
        }
        assert!(kernel.enroll.lock().finished.len() <= 2 * RECENT_FATES);
        for s in 0..4 {
            assert!(kernel.peek_shard(s).recent_fates().len() <= 2 * RECENT_FATES);
        }
        for &(t, fate, other) in &fates[fates.len() - RECENT_FATES..] {
            assert_eq!(kernel.txn_state(t), Some(fate));
            for s in [0, other as u32] {
                assert_eq!(kernel.peek_shard(s).txn_state(t), Some(fate));
            }
            assert!(matches!(
                kernel.commit(t),
                Err(CoreError::InvalidState { txn, state, .. }) if txn == t && state == fate
            ));
        }
        let (first, _, _) = fates[0];
        assert_eq!(kernel.txn_state(first), None);
        assert_eq!(kernel.peek_shard(0).txn_state(first), None);
        assert!(matches!(
            kernel.commit(first),
            Err(CoreError::UnknownTransaction(t)) if t == first
        ));
        kernel.check_invariants().unwrap();
    }
}
