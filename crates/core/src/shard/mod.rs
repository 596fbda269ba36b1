//! The sharded scheduler kernel: N independent [`SchedulerKernel`]s plus a
//! lightweight cross-shard coordinator.
//!
//! # Why sharding works for this protocol
//!
//! The paper's semantic relations (commutativity / recoverability per ADT
//! operation pair) are **per object**: classification of a request only ever
//! reads the execution log and blocked queue of the one object it targets.
//! The only truly global state is transaction-level — liveness, the
//! dependency graph, and the commit order. A [`ShardedKernel`] therefore
//! partitions the *objects* across `shards` independent kernels (hash of
//! the registration name, see [`shard_of_name`]), each with its own lock,
//! its own log index and its own local [`sbcc_graph::DependencyGraph`],
//! and keeps a small coordinator for the transaction-level pieces.
//!
//! # Sharding invariants
//!
//! 1. **Object ownership is static**: an object registered under a name
//!    lives in `shard_of_name(name, shards)` forever. Every request for it
//!    is processed under that shard's lock only.
//! 2. **Transaction ids are global**: [`ShardedKernel::begin`] assigns ids
//!    from one atomic counter; a shard *adopts* the id the first time the
//!    transaction touches one of its objects (lazy enrollment).
//! 3. **Local graphs are authoritative for intra-shard cycles**: a
//!    transaction enrolled in exactly one shard has all of its edges in
//!    that shard's graph, so the ordinary local cycle check is complete
//!    for it — **intra-shard admission takes no global lock**.
//! 4. **Cross-shard edges escalate**: the moment a transaction enrolls in
//!    a second shard, every shard it is enrolled in becomes *entangled* —
//!    its local graph is bulk-mirrored into the [`GlobalGraph`] (see
//!    [`SchedulerKernel::entangle`]). A cycle check that finds no local
//!    cycle in an entangled shard is re-run against the global graph,
//!    which holds the union of all entangled shards' edges; a passing
//!    re-check inserts the checked edges there in the same critical
//!    section ([`GlobalGraph::check_and_reserve`]), and that reservation
//!    is their only mirror — the shard then adds them locally. Edge
//!    removals (node removal, wait-for clears) are mirrored as they
//!    happen, so every local edge of an entangled shard is present in the
//!    global graph ([`ShardedKernel::check_invariants`] checks this). An
//!    entangled shard returns to the local-only fast path once it
//!    quiesces (no live transactions).
//!
//! ## Why the escalation rule is sound
//!
//! A cycle in the union of the local graphs either lies inside one shard
//! (caught by that shard's local check) or spans shards. A spanning cycle
//! enters and leaves each contributing shard through transactions enrolled
//! in two shards; those boundary transactions entangled every contributing
//! shard *before* the cycle's last edge could be inserted (their dual
//! enrollment precedes their edges), so by insertion time every other edge
//! of the cycle is present in the global graph and the escalated check
//! refuses the request.
//!
//! # Cross-shard termination protocol
//!
//! * **Commit** of a transaction enrolled in one shard is the unsharded
//!   fast path: the shard's own [`SchedulerKernel::commit`] decides
//!   between actual and pseudo-commit locally.
//! * **Commit** of a multi-shard transaction collects per-shard votes (the
//!   local commit-dependency out-neighbours) under the coordinator's
//!   termination lock. An empty union applies
//!   [`SchedulerKernel::commit_coordinated`] shard by shard; otherwise the
//!   transaction pseudo-commits in every shard and each shard reports
//!   (via [`SchedulerKernel::drain_coordination_ready`]) when its local
//!   out-degree drops to zero, triggering a re-vote.
//! * **Aborts** apply shard by shard. A cycle only ever aborts the
//!   transaction whose request (or retried blocked request) would close
//!   it, so a scheduler-initiated abort never hits a transaction that is
//!   running or committing — there is no race against a concurrent commit
//!   vote for the same transaction.
//!
//! With `shards = 1` nothing ever entangles, every transaction is
//! single-shard, and the subsystem degenerates to the unsharded kernel's
//! behaviour (the sharded-vs-single differential test suite pins this).

mod commit;
mod config;
mod escalation;
mod ssi;

pub use config::{shard_of_name, DatabaseConfig, ObjectLoc, ShardCount, SHARDS_ENV};
pub use escalation::GlobalGraph;

use crate::chaos::{self, sync::Mutex, sync::MutexGuard, ChaosPoint};
use crate::errors::CoreError;
use crate::events::{BatchOutcome, BatchStop, KernelEvent, RequestOutcome};
use crate::kernel::SchedulerKernel;
use crate::object::ObjectId;
use crate::stats::{KernelStats, OrderTelemetry, ShardStats, StatsSnapshot};
use crate::txn::{BatchCall, TxnId, TxnState};
use sbcc_adt::{AdtObject, AdtSpec, AdtType, OpCall, SemanticObject};
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
    finished: HashMap<TxnId, TxnState>,
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
    global: Arc<GlobalGraph>,
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
    /// the per-shard kernels' own copies, and [`Self::commit`] turns the
    /// ticket they return into a [`sbcc_wal::Durable`] through it.
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
    /// escalation graph ([`ShardCount::Auto`] resolves to the available
    /// parallelism here).
    pub fn new(config: DatabaseConfig) -> Self {
        let shard_count = config.shards.resolve();
        assert!(shard_count >= 1, "at least one shard is required");
        let global = Arc::new(GlobalGraph::new());
        let commit_clock = Arc::new(AtomicU64::new(0));
        let ssi = SsiTable::new(commit_clock.clone());
        let shards = (0..shard_count)
            .map(|_| {
                let mut kernel = SchedulerKernel::new(config.scheduler.clone());
                kernel.attach_escalation(global.clone());
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
            global,
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
            self.peek_shard(i as u32).attach_wal(wal.clone(), i as u32);
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
        let local = self.peek_shard(shard).register_object(name.clone(), object)?;
        if let Some(wal) = self.wal.get() {
            // Flushed at append: no commit record referencing this object
            // may become durable before the registration.
            wal.append_register(shard, &name, type_name);
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
        self.registry.lock().directory.get(object.0 as usize).copied()
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

    fn missing_txn_error(
        enroll: &Enrollments,
        txn: TxnId,
        action: &'static str,
    ) -> CoreError {
        match enroll.finished.get(&txn) {
            Some(state) => CoreError::InvalidState {
                txn,
                state: *state,
                action,
            },
            None => CoreError::UnknownTransaction(txn),
        }
    }

    /// Enroll `txn` into `shard` if it is not enrolled yet, entangling the
    /// affected shards when the transaction becomes multi-shard. Returns
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
        let becoming_multi = rec.shards.len() == 1;
        let already_multi = rec.shards.len() >= 2;
        let first = rec.shards.first().copied();
        rec.shards.push(shard);
        if becoming_multi {
            // The transaction spans shards from now on: mark it coordinated
            // where it already lives, and entangle both shards so their
            // edges are visible to escalated cycle checks.
            let first = first.expect("becoming multi implies a first shard");
            {
                let mut kernel = self.lock_shard(first);
                kernel.mark_coordinated(txn);
                kernel.entangle();
            }
            let mut kernel = self.lock_shard(shard);
            kernel.adopt(txn, true);
            kernel.entangle();
        } else if already_multi {
            let mut kernel = self.lock_shard(shard);
            kernel.adopt(txn, true);
            kernel.entangle();
        } else {
            self.lock_shard(shard).adopt(txn, false);
        }
        Ok(true)
    }

    /// The current state of a transaction. `Blocked` wins over `Active`
    /// across shards (a transaction blocks in at most one shard — it has
    /// at most one in-flight request).
    pub fn txn_state(&self, txn: TxnId) -> Option<TxnState> {
        let shards = {
            let enroll = self.enroll.lock();
            if let Some(state) = enroll.finished.get(&txn) {
                return Some(*state);
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

    /// The union of the transaction's commit dependencies across shards.
    pub fn commit_dependencies_of(&self, txn: TxnId) -> Vec<TxnId> {
        let shards = {
            let enroll = self.enroll.lock();
            enroll.live.get(&txn).map(|r| r.shards.clone()).unwrap_or_default()
        };
        let mut deps: Vec<TxnId> = Vec::new();
        for s in shards {
            deps.extend(self.peek_shard(s).commit_dependencies_of(txn));
        }
        deps.sort_unstable();
        deps.dedup();
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

    /// Grouped submission by global object id: resolves every call's shard
    /// through the directory, enrolls in each touched shard, then runs
    /// [`Self::request_batch_enrolled`].
    pub fn request_batch(
        &self,
        txn: TxnId,
        calls: Vec<BatchCall>,
    ) -> Result<BatchOutcome, CoreError> {
        let locs = calls
            .iter()
            .map(|bc| {
                self.object_loc(bc.object)
                    .ok_or_else(|| CoreError::UnknownObject(format!("{}", bc.object)))
            })
            .collect::<Result<Vec<ObjectLoc>, CoreError>>()?;
        for run in locs.chunk_by(|a, b| a.shard == b.shard) {
            self.ensure_enrolled(txn, run[0].shard, "submit a batch")?;
        }
        self.request_batch_enrolled(txn, calls, locs)
    }

    /// Grouped submission across shards for a transaction the caller has
    /// already enrolled in every touched shard (`locs[i]` must locate
    /// `calls[i].object`). The batch is split into maximal same-shard
    /// runs, each classified by its shard in one pass
    /// ([`SchedulerKernel::request_batch`]), strictly in submission order.
    /// The documented partial-admission semantics of [`BatchOutcome`] are
    /// preserved: indices in the outcome refer to the submitted batch, and
    /// a blocking or aborting terminator hands back the unprocessed suffix
    /// (including the untouched later runs).
    pub fn request_batch_enrolled(
        &self,
        txn: TxnId,
        mut calls: Vec<BatchCall>,
        locs: Vec<ObjectLoc>,
    ) -> Result<BatchOutcome, CoreError> {
        assert_eq!(calls.len(), locs.len(), "one location per call");
        if calls.is_empty() {
            // Mirror the kernel's validation without enrolling anywhere.
            let enroll = self.enroll.lock();
            if !enroll.live.contains_key(&txn) {
                return Err(Self::missing_txn_error(&enroll, txn, "submit a batch"));
            }
            return Ok(BatchOutcome {
                executed: Vec::new(),
                commit_deps: Vec::new(),
                stopped: None,
            });
        }
        self.ssi.note_batch(txn);
        let total = calls.len();
        let mut executed = Vec::with_capacity(total);
        let mut all_deps: Vec<TxnId> = Vec::new();
        let mut start = 0usize;
        while start < total {
            let shard = locs[start].shard;
            let mut end = start + 1;
            while end < total && locs[end].shard == shard {
                end += 1;
            }
            // Localize the run by moving the payloads out of the original
            // slots (the suffix after a stop is reconstructed below).
            let run: Vec<BatchCall> = (start..end)
                .map(|i| {
                    BatchCall::new(
                        locs[i].local,
                        std::mem::replace(&mut calls[i].call, OpCall::nullary(0)),
                    )
                })
                .collect();
            let (result, fx) = {
                let mut kernel = self.lock_shard(shard);
                let result = kernel.request_batch(txn, run);
                let fx = drain_fx(&mut kernel);
                (result, fx)
            };
            let outcome = match result {
                Ok(o) => o,
                Err(e) => {
                    self.absorb(shard, None, fx);
                    return Err(e);
                }
            };
            executed.extend(outcome.executed);
            all_deps.extend(outcome.commit_deps);
            let stopped = match outcome.stopped {
                None => {
                    self.absorb(shard, None, fx);
                    start = end;
                    continue;
                }
                Some(s) => s,
            };
            all_deps.sort_unstable();
            all_deps.dedup();
            let (index, rest_local, requester, stop) = match stopped {
                BatchStop::Blocked {
                    index,
                    waiting_on,
                    rest,
                } => {
                    let g = start + index;
                    (g, rest, None, BatchStop::Blocked {
                        index: g,
                        waiting_on,
                        rest: Vec::new(),
                    })
                }
                BatchStop::Aborted { index, reason, rest } => {
                    let g = start + index;
                    (g, rest, Some((txn, reason)), BatchStop::Aborted {
                        index: g,
                        reason,
                        rest: Vec::new(),
                    })
                }
            };
            // Re-globalize the run's unprocessed suffix, then append the
            // untouched later runs.
            let mut rest_out: Vec<BatchCall> = rest_local
                .into_iter()
                .enumerate()
                .map(|(i, bc)| BatchCall::new(calls[index + 1 + i].object, bc.call))
                .collect();
            rest_out.extend(calls.drain(end..));
            self.absorb(shard, requester, fx);
            let stop = match stop {
                BatchStop::Blocked { index, waiting_on, .. } => BatchStop::Blocked {
                    index,
                    waiting_on,
                    rest: rest_out,
                },
                BatchStop::Aborted { index, reason, .. } => BatchStop::Aborted {
                    index,
                    reason,
                    rest: rest_out,
                },
            };
            return Ok(BatchOutcome {
                executed,
                commit_deps: all_deps,
                stopped: Some(stop),
            });
        }
        all_deps.sort_unstable();
        all_deps.dedup();
        Ok(BatchOutcome {
            executed,
            commit_deps: all_deps,
            stopped: None,
        })
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
        aggregate.aborts_commit_cycle =
            self.lifecycle.aborts_commit_cycle.load(Ordering::Relaxed);
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
            global_cycle_checks: self.global.cycle_checks(),
            reorder: OrderTelemetry::default(),
        }
    }

    /// Cycle checks across all local graphs plus the escalation graph.
    pub fn cycle_checks(&self) -> u64 {
        let local: u64 = self
            .shards
            .iter()
            .map(|cell| cell.kernel.lock().cycle_checks())
            .sum();
        local + self.global.cycle_checks()
    }

    /// Check every shard's internal invariants, that each entangled
    /// shard's edges are all present in the escalation graph (invariant
    /// 4), and the escalation graph's acyclicity.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, cell) in self.shards.iter().enumerate() {
            let mut kernel = cell.kernel.lock();
            kernel
                .check_invariants()
                .and_then(|()| kernel.check_mirrored())
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        if self.global.has_cycle() {
            return Err("cross-shard escalation graph contains a cycle".to_owned());
        }
        Ok(())
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
    use sbcc_adt::{AdtOp, Counter, CounterOp, Stack, StackOp, Value};
    use sbcc_graph::EdgeKind;

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
        assert_eq!(kernel.stats_snapshot().shard_count, ShardCount::Auto.resolve());
    }

    #[test]
    fn registration_routes_by_name_hash_and_ids_stay_dense() {
        let kernel = ShardedKernel::new(
            DatabaseConfig::new(SchedulerConfig::default()).with_shards(4),
        );
        for i in 0..16 {
            let name = format!("obj{i}");
            let (id, loc) = kernel.register(name.clone(), Counter::new()).unwrap();
            assert_eq!(id, ObjectId(i as u32), "global ids are dense");
            assert_eq!(loc.shard, shard_of_name(&name, 4));
            assert_eq!(kernel.object_id(&name), Some(id));
            assert_eq!(kernel.object_loc(id), Some(loc));
        }
        assert_eq!(kernel.object_count(), 16);
        assert!(kernel.register("obj0", Counter::new()).is_err(), "duplicate name");
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
            Err(CoreError::InvalidState { state: TxnState::Committed, .. })
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

    #[test]
    fn single_shard_requests_never_touch_the_escalation_graph() {
        let kernel = ShardedKernel::new(
            DatabaseConfig::new(SchedulerConfig::default()).with_shards(4),
        );
        let (a, _) = kernel.register("a", Stack::new()).unwrap();
        let t1 = kernel.begin();
        let t2 = kernel.begin();
        assert!(kernel
            .request(t1, a, StackOp::Push(Value::Int(1)).to_call())
            .unwrap()
            .is_executed());
        // Recoverable push: a commit-dep edge, entirely intra-shard.
        assert!(kernel
            .request(t2, a, StackOp::Push(Value::Int(2)).to_call())
            .unwrap()
            .is_executed());
        let snapshot = kernel.stats_snapshot();
        assert_eq!(snapshot.aggregate.escalated_edges, 0);
        assert_eq!(snapshot.aggregate.escalated_checks, 0);
        assert_eq!(snapshot.global_cycle_checks, 0);
        assert!(snapshot.aggregate.graph_edges >= 1);
        assert_eq!(snapshot.shards.len(), 4);
        let _ = kernel.commit(t1).unwrap();
        let _ = kernel.commit(t2).unwrap();
        kernel.check_invariants().unwrap();
        assert!(format!("{kernel:?}").contains("ShardedKernel"));
    }

    #[test]
    fn stats_snapshot_reports_per_shard_lock_traffic() {
        let kernel = ShardedKernel::new(
            DatabaseConfig::new(SchedulerConfig::default()).with_shards(2),
        );
        let names = one_name_per_shard(2);
        let (a, loc_a) = kernel.register(names[0].clone(), Counter::new()).unwrap();
        let (b, loc_b) = kernel.register(names[1].clone(), Counter::new()).unwrap();
        assert_ne!(loc_a.shard, loc_b.shard);
        let t = kernel.begin();
        assert!(kernel.request(t, a, CounterOp::Increment(1).to_call()).unwrap().is_executed());
        assert!(kernel.request(t, b, CounterOp::Increment(1).to_call()).unwrap().is_executed());
        let _ = kernel.commit(t).unwrap();
        let snapshot = kernel.stats_snapshot();
        assert!(snapshot.shards[0].lock_acquisitions >= 1);
        assert!(snapshot.shards[1].lock_acquisitions >= 1);
        assert_eq!(snapshot.aggregate.operations_executed, 2);
        assert_eq!(snapshot.aggregate.commits, 1);
        // Per-shard lifecycle counters count local applications: the
        // multi-shard commit shows up in both kernels.
        let per_shard_commits: u64 =
            snapshot.shards.iter().map(|s| s.stats.commits).sum();
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

    /// An admitted edge in an entangled shard takes one global critical
    /// section — the check that reserves it — and is never mirrored a
    /// second time, so the escalation graph holds it exactly once.
    #[test]
    fn entangled_admission_takes_one_global_critical_section_per_edge_set() {
        let kernel = ShardedKernel::new(
            DatabaseConfig::new(SchedulerConfig::default()).with_shards(2),
        );
        let names = one_name_per_shard(2);
        let (a, _) = kernel.register(names[0].clone(), Stack::new()).unwrap();
        let (b, _) = kernel.register(names[1].clone(), Stack::new()).unwrap();
        // A multi-shard holder entangles both shards.
        let holder = kernel.begin();
        let push = |v| StackOp::Push(Value::Int(v)).to_call();
        assert!(kernel.request(holder, a, push(1)).unwrap().is_executed());
        assert!(kernel.request(holder, b, push(1)).unwrap().is_executed());

        let waiter = kernel.begin();
        let before = kernel.stats_snapshot();
        assert!(kernel
            .request(waiter, a, StackOp::Pop.to_call())
            .unwrap()
            .is_blocked());
        let after = kernel.stats_snapshot();
        assert_eq!(after.global_cycle_checks, before.global_cycle_checks + 1);
        assert_eq!(after.aggregate.escalated_checks, before.aggregate.escalated_checks + 1);
        assert_eq!(after.aggregate.escalated_edges, before.aggregate.escalated_edges + 1);
        assert_eq!(
            kernel.global.edge_multiplicity(waiter, holder, EdgeKind::WaitFor),
            1,
            "the edge was inserted once, by its reservation"
        );
        kernel.check_invariants().unwrap();
        kernel.abort(waiter).unwrap();
        let _ = kernel.commit(holder).unwrap();
        kernel.check_invariants().unwrap();
    }

    /// The coordinator votes (collecting per-shard dependencies) and marks
    /// the pseudo-commit in two separate critical sections per shard; the
    /// last dependency can terminate in between. A pseudo-commit whose
    /// local out-degree is *already* zero must be reported as
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
}
