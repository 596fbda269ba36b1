//! The concurrency-control kernel: the paper's object managers plus
//! transaction manager in one deterministic, synchronous state machine.
//!
//! The kernel implements:
//!
//! * the **Figure 2 algorithm** for executing operations — classify the
//!   request against every uncommitted operation, block behind
//!   non-recoverable holders (with deadlock detection), or execute with
//!   commit-dependency edges after checking that no dependency cycle is
//!   created;
//! * the **commit protocol of Section 4.3** — a transaction with outstanding
//!   commit dependencies *pseudo-commits*; when a transaction terminates,
//!   pseudo-committed transactions whose out-degree drops to zero actually
//!   commit (cascading through chains of dependencies);
//! * **recovery** (Section 4.4) via intentions lists;
//! * **fair scheduling** (Section 5.2): an incoming request that conflicts
//!   with a blocked request waits behind it. So a blocked request's
//!   conflicts can only shrink while it waits, and a termination re-runs
//!   Figure 2 only for the queued requests it can release (see
//!   `retry_blocked`).
//!
//! The kernel is single-threaded by design (the simulator drives it
//! directly); [`crate::Database`] adds a thread-safe, blocking front-end.

use crate::chaos::sync::{Mutex, MutexGuard};
use crate::errors::CoreError;
use crate::events::{
    AbortReason, BatchOutcome, BatchStop, CommitOutcome, KernelEvent, RequestOutcome,
};
use crate::history::HistoryRecorder;
use crate::object::{Classification, ManagedObject, ObjectId};
use crate::policy::{RecoveryStrategy, SchedulerConfig};
use crate::stats::KernelStats;
use crate::txn::{BatchCall, ExecutedOp, PendingRequest, RecentFates, TxnId, TxnRecord, TxnState};
use sbcc_adt::{AccessSet, AdtObject, AdtSpec, Compatibility, OpCall, OpResult, SemanticObject};
use sbcc_graph::{DependencyGraph, EdgeKind};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The dependency graph behind its lock. A standalone kernel owns one;
/// every shard of a [`crate::shard::ShardedKernel`] shares one (see the
/// lock order in the [`crate::shard`] module docs).
#[derive(Debug, Default)]
pub(crate) struct SharedGraph {
    graph: Mutex<DependencyGraph<TxnId>>,
    /// Lock acquisitions, for the tests that pin which paths take it.
    #[cfg(test)]
    acquisitions: AtomicU64,
}

impl SharedGraph {
    pub(crate) fn lock(&self) -> MutexGuard<'_, DependencyGraph<TxnId>> {
        #[cfg(test)]
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        self.graph.lock()
    }

    #[cfg(test)]
    pub(crate) fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Whether the graph holds no node, read without counting an
    /// acquisition.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.graph.lock().nodes().next().is_none()
    }
}

/// The scheduler kernel. See the module documentation for an overview.
pub struct SchedulerKernel {
    config: SchedulerConfig,
    objects: Vec<ManagedObject>,
    object_names: HashMap<String, ObjectId>,
    txns: HashMap<TxnId, TxnRecord>,
    /// Fates of the most recent terminations (see [`RecentFates`]).
    finished: RecentFates,
    graph: Arc<SharedGraph>,
    /// This kernel's pseudo-committed transactions: the only candidates
    /// its cascade looks at, in ascending order.
    pseudo: BTreeSet<TxnId>,
    next_txn_id: u64,
    next_seq: u64,
    next_commit_index: u64,
    stats: KernelStats,
    history: Option<HistoryRecorder>,
    events: Vec<KernelEvent>,
    pending_dirty: Vec<ObjectId>,
    /// Bumped whenever a transaction terminates (commit or abort) — i.e.
    /// whenever execution logs, blocked queues or the dependency graph may
    /// have changed *underneath* a caller. Used to (a) skip the settle scan
    /// when nothing terminated, and (b) invalidate the pre-computed group
    /// classification of an in-flight batch.
    termination_epoch: u64,
    /// Coordinated (multi-shard) pseudo-committed transactions whose
    /// commit-dependency out-degree dropped to zero; drained by the
    /// cross-shard coordinator, which re-runs the commit vote and applies
    /// the commit in every shard the transaction is enrolled in.
    coordination_ready: Vec<TxnId>,
    /// The write-ahead log this kernel appends committed operations to.
    /// `None` when durability is off (the default) — every logging site
    /// is a no-op then.
    wal: Option<Arc<sbcc_wal::Wal>>,
    /// The global commit-stamp clock: every actual commit draws the next
    /// stamp from it and folds its effects into the version store under
    /// that stamp. Shared across every shard of a [`crate::shard::ShardedKernel`]
    /// (see [`Self::attach_stamps`]); a standalone kernel owns its own.
    commit_clock: Arc<AtomicU64>,
    /// Begin stamp of the oldest live snapshot (`u64::MAX` when none):
    /// the multi-version GC watermark. Written by the snapshot lifecycle
    /// in the sharding layer, read (`SeqCst`) by every fold.
    version_floor: Arc<AtomicU64>,
    /// Queued requests a retry pass ran Figure 2 for. Counted for the unit
    /// tests only: an entry re-queued without one leaves no other trace.
    #[cfg(test)]
    figure2_retries: u64,
}

/// Check the invariants of the kernels that share `graph` (a standalone
/// kernel alone, or every shard of a sharded kernel): the graph is acyclic,
/// each node belongs to a live transaction that has wait-for edges only
/// while blocked somewhere, and each kernel's own state is consistent.
/// Returns a description of the first violation found.
pub(crate) fn check_shared_invariants(
    graph: &mut DependencyGraph<TxnId>,
    kernels: &[&SchedulerKernel],
) -> Result<(), String> {
    if graph.has_cycle() {
        return Err("dependency graph contains a cycle".to_owned());
    }
    for node in graph.nodes() {
        let records = kernels.iter().filter_map(|k| k.txns.get(&node));
        let states: Vec<TxnState> = records.map(|r| r.state).collect();
        if states.is_empty() {
            return Err(format!("graph node {node} belongs to no live transaction"));
        }
        if !states.contains(&TxnState::Blocked)
            && !graph.out_neighbors_kind(node, EdgeKind::WaitFor).is_empty()
        {
            return Err(format!("{node} is not blocked but has wait-for edges"));
        }
    }
    for (i, kernel) in kernels.iter().enumerate() {
        let checked = kernel.check_local_invariants(graph);
        checked.map_err(|e| match kernels.len() {
            1 => e,
            _ => format!("shard {i}: {e}"),
        })?;
    }
    Ok(())
}

impl std::fmt::Debug for SchedulerKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerKernel")
            .field("objects", &self.objects.len())
            .field("transactions", &self.txns.len())
            .field("policy", &self.config.policy)
            .finish()
    }
}

impl SchedulerKernel {
    /// Build a kernel with the given configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        let history = if config.record_history {
            Some(HistoryRecorder::new())
        } else {
            None
        };
        SchedulerKernel {
            config,
            objects: Vec::new(),
            object_names: HashMap::new(),
            txns: HashMap::new(),
            finished: RecentFates::default(),
            graph: Arc::default(),
            pseudo: BTreeSet::new(),
            next_txn_id: 0,
            next_seq: 0,
            next_commit_index: 0,
            stats: KernelStats::default(),
            history,
            events: Vec::new(),
            pending_dirty: Vec::new(),
            termination_epoch: 0,
            coordination_ready: Vec::new(),
            wal: None,
            commit_clock: Arc::new(AtomicU64::new(0)),
            version_floor: Arc::new(AtomicU64::new(u64::MAX)),
            #[cfg(test)]
            figure2_retries: 0,
        }
    }

    /// Replace this kernel's commit-stamp clock and version-GC watermark
    /// with shared handles. Called once per shard at
    /// [`crate::shard::ShardedKernel`] construction (before any request), so
    /// all shards stamp their folds from one global commit sequence.
    pub fn attach_stamps(&mut self, clock: Arc<AtomicU64>, floor: Arc<AtomicU64>) {
        self.commit_clock = clock;
        self.version_floor = floor;
    }

    /// Replace this kernel's dependency graph with the one every shard of
    /// a [`crate::shard::ShardedKernel`] shares. Called once per shard at
    /// construction, before any request.
    pub(crate) fn attach_graph(&mut self, graph: Arc<SharedGraph>) {
        self.graph = graph;
    }

    /// Attach a write-ahead log: from here on, every actual commit of a
    /// transaction with operations appends a commit record (unless the
    /// coordinator already logged it — see
    /// [`Self::mark_wal_logged`]). Attach **after** replaying recovered
    /// records, or replay would be re-logged. Only the sharding layer
    /// attaches a log: it is the one caller of [`Self::commit_logged`],
    /// which hands out the record's durability ticket.
    pub(crate) fn attach_wal(&mut self, wal: Arc<sbcc_wal::Wal>) {
        self.wal = Some(wal);
    }

    /// Raw counters.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Number of cycle-detection invocations so far (wait-for *and*
    /// commit-dependency checks combined, as in the paper's cycle check
    /// ratio), on the graph this kernel uses.
    pub fn cycle_checks(&self) -> u64 {
        self.graph.lock().cycle_checks()
    }

    /// The recorded history, when `record_history` is enabled.
    pub fn history(&self) -> Option<&HistoryRecorder> {
        self.history.as_ref()
    }

    // ------------------------------------------------------------------
    // Object registration and inspection
    // ------------------------------------------------------------------

    /// Register an erased semantic object under a unique name.
    pub fn register_object(
        &mut self,
        name: impl Into<String>,
        object: Box<dyn SemanticObject>,
    ) -> Result<ObjectId, CoreError> {
        let name = name.into();
        if self.object_names.contains_key(&name) {
            return Err(CoreError::DuplicateObject(name));
        }
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(ManagedObject::new(
            id,
            name.clone(),
            object,
            RecoveryStrategy::IntentionsList,
        ));
        self.object_names.insert(name, id);
        Ok(id)
    }

    /// Register a typed atomic data type instance under a unique name.
    pub fn register<A: AdtSpec>(
        &mut self,
        name: impl Into<String>,
        adt: A,
    ) -> Result<ObjectId, CoreError> {
        self.register_object(name, Box::new(AdtObject::new(adt)))
    }

    /// All object ids, in registration order.
    pub fn object_ids(&self) -> Vec<ObjectId> {
        (0..self.objects.len() as u32).map(ObjectId).collect()
    }

    /// The registration name of an object.
    pub fn object_name(&self, id: ObjectId) -> Option<&str> {
        self.objects.get(id.0 as usize).map(|o| o.name())
    }

    /// The object state reflecting exactly the committed transactions.
    pub fn object_committed_state(&self, id: ObjectId) -> Option<&dyn SemanticObject> {
        self.objects.get(id.0 as usize).map(|o| o.committed_state())
    }

    /// The object state as registered.
    pub fn object_initial_state(&self, id: ObjectId) -> Option<&dyn SemanticObject> {
        self.objects.get(id.0 as usize).map(|o| o.initial_state())
    }

    // ------------------------------------------------------------------
    // Transaction life cycle
    // ------------------------------------------------------------------

    /// Begin a new transaction.
    pub fn begin(&mut self) -> TxnId {
        self.next_txn_id += 1;
        let id = TxnId(self.next_txn_id);
        self.txns.insert(id, TxnRecord::new(id));
        self.stats.transactions_begun += 1;
        if let Some(h) = &mut self.history {
            h.record_begin(id);
        }
        id
    }

    // ------------------------------------------------------------------
    // Sharding hooks (see `crate::shard`)
    //
    // A `ShardedKernel` runs N of these kernels side by side, each owning a
    // disjoint set of objects. Transaction ids are then assigned by the
    // coordinator and *adopted* into a shard on first touch; terminations
    // of multi-shard transactions are applied by the coordinator through
    // the `*_coordinated` methods. A standalone kernel never uses any of
    // this.
    // ------------------------------------------------------------------

    /// Adopt an externally assigned transaction id (cross-shard enrollment:
    /// the coordinator begot the transaction; this shard sees it for the
    /// first time). `coordinated` marks it as enrolled in more than one
    /// shard from the start.
    ///
    /// # Panics
    ///
    /// Panics if the id is already known to this kernel — the coordinator
    /// enrolls each transaction into a shard at most once.
    pub fn adopt(&mut self, id: TxnId, coordinated: bool) {
        assert!(
            !self.txns.contains_key(&id) && self.finished.get(id).is_none(),
            "transaction {id} already enrolled in this shard"
        );
        let mut rec = TxnRecord::new(id);
        rec.coordinated = coordinated;
        self.txns.insert(id, rec);
        self.next_txn_id = self.next_txn_id.max(id.0);
        self.stats.transactions_begun += 1;
        if let Some(h) = &mut self.history {
            h.record_begin(id);
        }
    }

    /// Promote a live transaction to coordinated (it just enrolled in a
    /// second shard).
    pub fn mark_coordinated(&mut self, txn: TxnId) {
        if let Some(rec) = self.txns.get_mut(&txn) {
            rec.coordinated = true;
        }
    }

    /// Record a coordinator-decided pseudo-commit of a coordinated
    /// transaction (it had commit dependencies when the coordinator
    /// voted). Unlike [`Self::commit`] this performs no dependency check.
    /// Returns `false` if the transaction is not live and active in this
    /// shard.
    pub fn pseudo_commit_coordinated(&mut self, txn: TxnId) -> bool {
        match self.txns.get_mut(&txn) {
            Some(rec) if rec.state == TxnState::Active => {
                debug_assert!(rec.coordinated, "only coordinated transactions");
                rec.state = TxnState::PseudoCommitted;
                self.pseudo.insert(txn);
                self.stats.pseudo_commits += 1;
                if let Some(h) = &mut self.history {
                    h.record_pseudo_commit(txn);
                }
                // The coordinator read the dependencies in its vote; the
                // last of them may have terminated in the window since.
                // `settle` looks at every pseudo-commit again, so one that
                // *starts* dependency-free is queued for its re-vote
                // immediately — otherwise no future edge removal would
                // ever report it and the transaction would stay
                // pseudo-committed forever (found by DST seed replay).
                self.settle();
                true
            }
            _ => false,
        }
    }

    /// Fold this shard's share of a coordinator-decided **actual commit**
    /// of a coordinated transaction into the committed states. The
    /// coordinator calls this for every shard the transaction is enrolled
    /// in, holding all their locks, and only then removes the graph node
    /// and settles each shard (rule 3 in the [`crate::shard`] docs).
    /// `stamp` is the global commit stamp the coordinator drew for the
    /// whole multi-shard transaction, so every shard's version store
    /// records the commit under one stamp and a cross-shard snapshot can
    /// never observe it half-applied. Returns whether this shard added an
    /// edge of the transaction.
    pub(crate) fn commit_coordinated(&mut self, txn: TxnId, stamp: u64) -> bool {
        self.coordination_ready.retain(|t| *t != txn);
        let (_, in_graph) = self.actually_commit_stamped(txn, Some(stamp));
        in_graph
    }

    /// Undo this shard's share of a coordinator-driven **abort** of a
    /// coordinated transaction, in the same kind of pass as
    /// [`Self::commit_coordinated`]. Returns whether this shard added an
    /// edge of it; a transaction not active or blocked here (already
    /// aborted) is left alone and reads `false`.
    pub(crate) fn abort_coordinated(&mut self, txn: TxnId, reason: AbortReason) -> bool {
        match self.txns.get(&txn).map(|rec| rec.state) {
            Some(TxnState::Active) => self.abort_internal(txn, reason),
            Some(TxnState::Blocked) => {
                // Its node outlives this shard's abort; its request does not.
                self.graph_drop_wait_edges(txn, &self.waits_for(txn));
                self.abort_internal(txn, reason)
            }
            _ => false,
        }
    }

    /// Drain the coordinated pseudo-committed transactions whose
    /// commit-dependency out-degree dropped to zero since the last drain
    /// (a cross-shard commit vote should be re-run for each).
    pub fn drain_coordination_ready(&mut self) -> Vec<TxnId> {
        std::mem::take(&mut self.coordination_ready)
    }

    /// The current state of a transaction.
    ///
    /// Exact for a live transaction and for one among this kernel's last
    /// 1 024 terminations (`RECENT_FATES`); an older terminated transaction
    /// reads `None`, and later calls on it fail with
    /// [`CoreError::UnknownTransaction`] instead of `InvalidState`.
    pub fn txn_state(&self, txn: TxnId) -> Option<TxnState> {
        self.txns
            .get(&txn)
            .map(|r| r.state)
            .or_else(|| self.finished.get(txn))
    }

    /// The fates this kernel still remembers (for the window tests).
    #[cfg(test)]
    pub(crate) fn recent_fates(&self) -> &RecentFates {
        &self.finished
    }

    /// Transactions that are still live (active, blocked or
    /// pseudo-committed).
    pub fn live_transactions(&self) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .txns
            .values()
            .filter(|r| r.state.is_live())
            .map(|r| r.id)
            .collect();
        out.sort_unstable();
        out
    }

    /// The operations a *live* transaction has executed so far. Terminated
    /// transactions return an empty list (their detailed records are
    /// dropped; enable history recording to keep full per-operation data).
    pub fn ops_of(&self, txn: TxnId) -> Vec<ExecutedOp> {
        self.txns
            .get(&txn)
            .map(|r| r.ops.clone())
            .unwrap_or_default()
    }

    /// The write-ahead-log payload of a *live* transaction: its executed
    /// operations with object names resolved, in execution order. Used by
    /// the cross-shard coordinator to log a multi-shard commit before
    /// applying it in-memory.
    pub fn wal_payload(&self, txn: TxnId) -> Vec<sbcc_wal::LoggedOp> {
        self.txns
            .get(&txn)
            .map_or_else(Vec::new, |rec| self.logged_ops(&rec.ops))
    }

    /// `ops` as the write-ahead log records them.
    fn logged_ops(&self, ops: &[ExecutedOp]) -> Vec<sbcc_wal::LoggedOp> {
        ops.iter()
            .map(|op| sbcc_wal::LoggedOp {
                object: self.objects[op.object.0 as usize].name().to_owned(),
                call: op.call.clone(),
                result: op.result.clone(),
            })
            .collect()
    }

    /// Record that the coordinator has already appended this transaction's
    /// operations to the write-ahead log, so the local commit path must
    /// not log it a second time.
    pub fn mark_wal_logged(&mut self, txn: TxnId) {
        if let Some(rec) = self.txns.get_mut(&txn) {
            rec.wal_logged = true;
        }
    }

    /// The live transactions `txn` currently has commit dependencies on,
    /// sorted.
    pub fn commit_dependencies_of(&self, txn: TxnId) -> Vec<TxnId> {
        let graph = self.graph.lock();
        let mut deps = graph.out_neighbors_kind(txn, EdgeKind::CommitDep);
        deps.sort_unstable();
        deps
    }

    /// The holders `txn` has wait-for edges to.
    fn waits_for(&self, txn: TxnId) -> Vec<TxnId> {
        self.graph.lock().out_neighbors_kind(txn, EdgeKind::WaitFor)
    }

    /// The holders a queued request of `txn` still waits for here. A
    /// multi-shard holder that already terminated here keeps its node until
    /// it left every shard (rule 3), but blocks no one here: its edge goes.
    fn waits_for_here(&self, txn: TxnId) -> Vec<TxnId> {
        let (held, gone): (Vec<TxnId>, Vec<TxnId>) = self
            .waits_for(txn)
            .into_iter()
            .partition(|h| self.txns.contains_key(h));
        self.graph_drop_wait_edges(txn, &gone);
        held
    }

    /// Whether this kernel added an edge into or out of `txn` (see
    /// [`TxnRecord::in_graph`]); `false` for a transaction not live here.
    pub(crate) fn in_graph(&self, txn: TxnId) -> bool {
        self.txns.get(&txn).is_some_and(|rec| rec.in_graph)
    }

    /// Drain the queued side-effect events (unblocks and cascaded commits)
    /// produced since the last drain.
    pub fn drain_events(&mut self) -> Vec<KernelEvent> {
        std::mem::take(&mut self.events)
    }

    /// Request execution of an operation on behalf of a transaction.
    pub fn request(
        &mut self,
        txn: TxnId,
        object: ObjectId,
        call: OpCall,
    ) -> Result<RequestOutcome, CoreError> {
        self.ensure_object(object)?;
        self.ensure_active(txn, "request an operation")?;
        self.stats.requests += 1;
        let epoch = self.termination_epoch;
        let outcome = self.process_request(txn, object, call, false, None);
        self.settle_if_terminated(epoch);
        Ok(outcome)
    }

    /// Request execution of a whole **group** of operations on behalf of a
    /// transaction, classified against the `(transaction, kind,
    /// parameter-relation)` log index in **one pass** per touched object
    /// (see [`ManagedObject::classify_many`]) instead of one pass per call.
    ///
    /// Admission is strictly in submission order and behaviourally
    /// equivalent to submitting the same calls one by one through
    /// [`Self::request`]; see [`BatchOutcome`] for the partial-admission
    /// semantics (executed prefix, blocking/aborting terminator, returned
    /// suffix). Every counter in [`KernelStats`] advances exactly as it
    /// would under per-call submission (plus the `batches`/`batched_calls`
    /// bookkeeping), which is what the differential test suite asserts.
    ///
    /// The group classification is computed once, up front: no other
    /// transaction can terminate mid-batch (a cycle aborts only the
    /// requester, which ends the batch), so the logs it was computed
    /// against only change by the batch's own executions.
    ///
    /// Kernel-only: no session above the kernel submits a batch. The
    /// frozen `bench/` probes `core.kernel.batch_ns_per_call` and
    /// `pair.batched_over_percall` call it.
    pub fn request_batch(
        &mut self,
        txn: TxnId,
        calls: Vec<BatchCall>,
    ) -> Result<BatchOutcome, CoreError> {
        // Fail-fast validation: a malformed batch is rejected before any of
        // its calls executes (per-call submission would execute the prefix
        // first; rejecting the group whole is the one place the two modes
        // deliberately differ, and only for programming errors).
        for bc in &calls {
            self.ensure_object(bc.object)?;
        }
        self.ensure_active(txn, "submit a batch")?;
        self.stats.batches += 1;

        let mut calls = calls;
        let mut executed: Vec<OpResult> = Vec::with_capacity(calls.len());
        let mut all_deps: Vec<TxnId> = Vec::new();
        let mut plans = self.plan_batch(txn, &calls);
        let plan_epoch = self.termination_epoch;
        for index in 0..calls.len() {
            debug_assert_eq!(self.termination_epoch, plan_epoch, "stale batch plan");
            self.stats.requests += 1;
            self.stats.batched_calls += 1;
            let precomputed = std::mem::take(&mut plans[index]);
            let object = calls[index].object;
            // Take the payload out of the prefix slot (never read again);
            // `rest` below only ever covers the untouched suffix.
            let call = std::mem::replace(&mut calls[index].call, OpCall::nullary(0));
            let epoch = self.termination_epoch;
            let outcome = self.process_request(txn, object, call, false, Some(precomputed));
            self.settle_if_terminated(epoch);
            match outcome {
                RequestOutcome::Executed {
                    result,
                    commit_deps,
                } => {
                    executed.push(result);
                    all_deps.extend(commit_deps);
                }
                RequestOutcome::Blocked { waiting_on } => {
                    all_deps.sort_unstable();
                    all_deps.dedup();
                    return Ok(BatchOutcome {
                        executed,
                        commit_deps: all_deps,
                        stopped: Some(BatchStop::Blocked {
                            index,
                            waiting_on,
                            rest: calls.split_off(index + 1),
                        }),
                    });
                }
                RequestOutcome::Aborted { reason } => {
                    // The prefix results are returned exactly as per-call
                    // submission would already have returned them — but the
                    // abort has undone their effects, so they are void.
                    all_deps.sort_unstable();
                    all_deps.dedup();
                    return Ok(BatchOutcome {
                        executed,
                        commit_deps: all_deps,
                        stopped: Some(BatchStop::Aborted {
                            index,
                            reason,
                            rest: calls.split_off(index + 1),
                        }),
                    });
                }
            }
        }
        all_deps.sort_unstable();
        all_deps.dedup();
        Ok(BatchOutcome {
            executed,
            commit_deps: all_deps,
            stopped: None,
        })
    }

    /// Request a group of operations under a caller-declared read/write
    /// footprint ([`sbcc_adt::AccessSet`]).
    ///
    /// **Residue.** Nothing above the kernel submits declarations any
    /// more; this entry point, `AccessSet` and the four `declared_*`
    /// counters stay only because the frozen `bench/` probes compile
    /// against them, and leave with those probes.
    ///
    /// The declaration is a promise, never a proof. A call outside it (a
    /// write declaration covers any call, a read declaration only
    /// `is_readonly` ones) *escalates* the batch to [`Self::request_batch`];
    /// a declared object with other transactions' uncommitted operations or
    /// blocked requests makes it *fall back* to [`Self::request_batch`]
    /// too. Only a covered, quiescent footprint is group-admitted: every
    /// call executes with no classification, graph edge or cycle check —
    /// the answer the classifier would have computed per call on that
    /// state (pinned by `tests/declared_vs_classified.rs`).
    pub fn request_batch_declared(
        &mut self,
        txn: TxnId,
        calls: Vec<BatchCall>,
        declared: &AccessSet<ObjectId>,
    ) -> Result<BatchOutcome, CoreError> {
        for bc in &calls {
            self.ensure_object(bc.object)?;
        }
        for obj in declared.objects() {
            self.ensure_object(*obj)?;
        }
        self.ensure_active(txn, "submit a batch")?;
        self.stats.declared_batches += 1;

        let covered = calls.iter().all(|bc| {
            declared.covers_write(&bc.object)
                || (declared.covers_read(&bc.object)
                    && self
                        .object_ref(bc.object)
                        .committed_state()
                        .is_readonly(&bc.call))
        });
        if !covered {
            self.stats.declared_escalations += 1;
            return self.request_batch(txn, calls);
        }

        // The transaction's own earlier operations do not disqualify an
        // object — classification ignores them too.
        let disjoint = declared.objects().all(|obj| {
            let o = self.object_ref(*obj);
            o.blocked_len() == 0 && !o.log().iter().any(|e| e.txn != txn)
        });
        if !disjoint {
            self.stats.declared_fallbacks += 1;
            return self.request_batch(txn, calls);
        }

        // Group admission. Counters advance exactly as the classified path
        // would on this (conflict-free) state.
        self.stats.declared_admitted += 1;
        self.stats.batches += 1;
        let mut executed: Vec<OpResult> = Vec::with_capacity(calls.len());
        for bc in calls {
            self.stats.requests += 1;
            self.stats.batched_calls += 1;
            executed.push(self.execute_op(txn, bc.object, bc.call));
        }
        Ok(BatchOutcome {
            executed,
            commit_deps: Vec::new(),
            stopped: None,
        })
    }

    /// Request an operation using a typed operation value.
    pub fn request_op<O: sbcc_adt::AdtOp>(
        &mut self,
        txn: TxnId,
        object: ObjectId,
        op: &O,
    ) -> Result<RequestOutcome, CoreError> {
        self.request(txn, object, op.to_call())
    }

    /// Commit a transaction. Depending on outstanding commit dependencies
    /// this is an actual commit or a pseudo-commit.
    pub fn commit(&mut self, txn: TxnId) -> Result<CommitOutcome, CoreError> {
        self.commit_logged(txn).map(|(outcome, _)| outcome)
    }

    /// [`Self::commit`], also returning the write-ahead-log ticket of the
    /// commit record an actual commit appended (`None` without a log, for
    /// a pseudo-commit, or when there was nothing to log). The caller
    /// must not acknowledge `Committed` before that ticket is durable.
    pub(crate) fn commit_logged(
        &mut self,
        txn: TxnId,
    ) -> Result<(CommitOutcome, Option<u64>), CoreError> {
        self.ensure_active(txn, "commit")?;
        debug_assert!(
            !self.txns.get(&txn).map(|r| r.coordinated).unwrap_or(false),
            "multi-shard transactions commit through the coordinator, not Self::commit"
        );
        // A single-shard transaction's edges were all added here, so
        // without the flag it has none.
        let deps = self.in_graph(txn).then(|| self.commit_dependencies_of(txn));
        let deps = deps.unwrap_or_default();
        if deps.is_empty() {
            let ticket = self.actually_commit(txn);
            self.settle();
            Ok((CommitOutcome::Committed, ticket))
        } else {
            let rec = self.txns.get_mut(&txn).expect("checked above");
            rec.state = TxnState::PseudoCommitted;
            self.pseudo.insert(txn);
            self.stats.pseudo_commits += 1;
            if let Some(h) = &mut self.history {
                h.record_pseudo_commit(txn);
            }
            Ok((CommitOutcome::PseudoCommitted { waiting_on: deps }, None))
        }
    }

    /// Explicitly abort an active or blocked transaction.
    ///
    /// A pseudo-committed transaction cannot be aborted — by construction it
    /// will definitely commit.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), CoreError> {
        self.abort_with(txn, AbortReason::Explicit)
    }

    /// Abort an active or blocked transaction for the given reason (the
    /// SSI guard uses this with [`AbortReason::SsiConflict`]; the event and
    /// error plumbing is identical to an explicit abort).
    pub fn abort_with(&mut self, txn: TxnId, reason: AbortReason) -> Result<(), CoreError> {
        let state = self
            .txn_state(txn)
            .ok_or(CoreError::UnknownTransaction(txn))?;
        if !matches!(state, TxnState::Active | TxnState::Blocked) {
            return Err(CoreError::InvalidState {
                txn,
                state,
                action: "abort",
            });
        }
        let in_graph = self.abort_internal(txn, reason);
        self.remove_node(txn, in_graph);
        self.settle();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Multi-version snapshot reads (see `crate::shard` for the SSI guard)
    // ------------------------------------------------------------------

    /// Answer a read from the multi-version store: the result of `call`
    /// against the committed version current at begin stamp `stamp`.
    ///
    /// Returns `None` — caller falls back to the classified path — when the
    /// call is not a pure observer of the object's data type, or when `txn`
    /// itself holds uncommitted operations on the object (its own writes
    /// are only visible through the classified intentions view).
    pub fn snapshot_read(
        &mut self,
        txn: TxnId,
        object: ObjectId,
        stamp: u64,
        call: &OpCall,
    ) -> Result<Option<OpResult>, CoreError> {
        self.ensure_object(object)?;
        let obj = &mut self.objects[object.0 as usize];
        if !obj.committed_state().is_readonly(call) || obj.has_ops_of(txn) {
            return Ok(None);
        }
        let result = obj.read_at(stamp, call);
        self.stats.snapshot_reads += 1;
        Ok(Some(result))
    }

    /// Stamp of the last commit that folded operations into `object`
    /// (0 before any commit). Used by the SSI guard: a classified read by a
    /// snapshot transaction observing `committed_stamp > begin` has an
    /// incoming rw-antidependency from the committing writer.
    pub fn object_commit_stamp(&self, object: ObjectId) -> Option<u64> {
        self.objects
            .get(object.0 as usize)
            .map(|o| o.committed_stamp())
    }

    /// Number of historical versions retained across all objects.
    pub fn version_depth(&self) -> usize {
        self.objects.iter().map(|o| o.version_depth()).sum()
    }

    /// Drop every historical version unreachable from `watermark` (the
    /// begin stamp of the oldest live snapshot; `u64::MAX` when none),
    /// returning how many were pruned. The commit path prunes lazily
    /// per-object; this is the sweep the snapshot lifecycle runs when the
    /// watermark rises.
    pub fn prune_versions(&mut self, watermark: u64) -> u64 {
        let mut pruned = 0;
        for obj in &mut self.objects {
            pruned += obj.prune_versions(watermark);
        }
        self.stats.versions_pruned += pruned;
        pruned
    }

    /// The objects a live transaction has executed at least one
    /// **mutating** (non-readonly) operation on, sorted. This is the write
    /// set the SSI guard scans SIREAD marks against at commit entry.
    pub fn write_set(&self, txn: TxnId) -> Vec<ObjectId> {
        let Some(rec) = self.txns.get(&txn) else {
            return Vec::new();
        };
        let mut out: Vec<ObjectId> = rec
            .ops
            .iter()
            .filter(|op| {
                !self.objects[op.object.0 as usize]
                    .committed_state()
                    .is_readonly(&op.call)
            })
            .map(|op| op.object)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    // ------------------------------------------------------------------
    // Invariant checking (used by tests)
    // ------------------------------------------------------------------

    /// Check internal invariants; returns a description of the first
    /// violation found.
    pub fn check_invariants(&mut self) -> Result<(), String> {
        let graph = Arc::clone(&self.graph);
        let mut graph = graph.lock();
        check_shared_invariants(&mut graph, &[self])
    }

    /// The invariants of this kernel's own state, read against the
    /// dependency graph it uses.
    fn check_local_invariants(&self, graph: &DependencyGraph<TxnId>) -> Result<(), String> {
        for obj in &self.objects {
            for entry in obj.log() {
                match self.txns.get(&entry.txn) {
                    Some(r) if r.state.is_live() => {}
                    _ => {
                        return Err(format!(
                            "object {} holds a log entry for non-live transaction {}",
                            obj.name(),
                            entry.txn
                        ))
                    }
                }
            }
            for blocked in obj.blocked_queue() {
                match self.txns.get(&blocked.txn) {
                    Some(r) if r.state == TxnState::Blocked => {}
                    _ => {
                        return Err(format!(
                            "object {} queues a blocked request for a transaction that is not blocked ({})",
                            obj.name(),
                            blocked.txn
                        ))
                    }
                }
            }
        }
        let nodes: std::collections::HashSet<TxnId> = graph.nodes().collect();
        for rec in self.txns.values() {
            if rec.state == TxnState::Blocked && rec.pending.is_none() {
                return Err(format!(
                    "blocked transaction {} has no pending request",
                    rec.id
                ));
            }
            if rec.state != TxnState::Blocked && rec.pending.is_some() {
                return Err(format!(
                    "transaction {} has a pending request but is {}",
                    rec.id, rec.state
                ));
            }
            // A node lives from the first edge to the termination, and a
            // single-shard transaction's edges are all added here.
            let (id, in_graph, has_node) = (rec.id, rec.in_graph, nodes.contains(&rec.id));
            if in_graph != has_node && (in_graph || !rec.coordinated) {
                return Err(format!("{id} has in_graph {in_graph} but node {has_node}"));
            }
        }
        let pseudo = self
            .txns
            .values()
            .filter(|r| r.state == TxnState::PseudoCommitted);
        if pseudo.map(|r| r.id).collect::<BTreeSet<_>>() != self.pseudo {
            return Err("the pseudo-committed set disagrees with the records".to_owned());
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Figure 2's cycle check for the edges `from -> t` (one per target)
    /// and, when it passes, their insertion, in one critical section of
    /// the graph lock: a check in another shard sees none or all of them.
    /// A commit dependency already present is not added again. Returns
    /// `false`, inserting nothing, when the edges would close a cycle.
    fn try_add_edges(&mut self, from: TxnId, targets: &[TxnId], kind: EdgeKind) -> bool {
        let added = {
            let mut graph = self.graph.lock();
            if graph.would_close_cycle(from, targets) {
                return false;
            }
            let mut added = 0;
            for t in targets {
                if kind == EdgeKind::WaitFor || !graph.has_edge(from, *t, kind) {
                    graph.add_edge(from, *t, kind);
                    added += 1;
                }
            }
            added
        };
        self.stats.graph_edges += added;
        // Every target holds an operation or a queued request here, so it
        // is live in this kernel.
        for t in std::iter::once(&from).chain(targets) {
            if let Some(rec) = self.txns.get_mut(t) {
                rec.in_graph = true;
            }
        }
        true
    }

    /// Remove a terminated single-shard transaction's node, if it has one.
    fn remove_node(&self, txn: TxnId, in_graph: bool) {
        if in_graph {
            self.graph.lock().remove_node(txn);
        }
    }

    /// Drop a waiter's wait-for edges to `holders` (all of them when its
    /// retried request stops waiting, or the ones it stopped conflicting
    /// with). Each pair carries exactly one wait-for edge: a waiter adds
    /// only holders it does not already wait for.
    fn graph_drop_wait_edges(&self, txn: TxnId, holders: &[TxnId]) {
        if holders.is_empty() {
            return;
        }
        let mut graph = self.graph.lock();
        for holder in holders {
            graph.remove_edge(txn, *holder, EdgeKind::WaitFor);
        }
    }

    /// The prologue of every submission and of commit: the transaction
    /// exists and is `Active`.
    #[inline]
    fn ensure_active(&self, txn: TxnId, action: &'static str) -> Result<(), CoreError> {
        match self.txn_state(txn) {
            Some(TxnState::Active) => Ok(()),
            Some(state) => Err(CoreError::InvalidState { txn, state, action }),
            None => Err(CoreError::UnknownTransaction(txn)),
        }
    }

    fn ensure_object(&self, object: ObjectId) -> Result<(), CoreError> {
        if (object.0 as usize) < self.objects.len() {
            Ok(())
        } else {
            Err(CoreError::UnknownObject(format!("{object}")))
        }
    }

    fn object_mut(&mut self, object: ObjectId) -> &mut ManagedObject {
        &mut self.objects[object.0 as usize]
    }

    fn object_ref(&self, object: ObjectId) -> &ManagedObject {
        &self.objects[object.0 as usize]
    }

    /// Compute the classification of every call of a batch in one pass over
    /// each touched object's log index (and fairness set), in submission
    /// order. Sound because nothing observable by the classification can
    /// change between the pass and the calls' admission other than the
    /// batch transaction's own executions (which classification ignores):
    /// a batch ends at its first block or abort, and only the requester
    /// is ever aborted.
    fn plan_batch(&self, txn: TxnId, calls: &[BatchCall]) -> Vec<Classification> {
        // Fast path for the common batch shape (the ROADMAP's motivating
        // case): every call targets the same object — classify the group
        // directly, skipping the per-object scatter machinery.
        if let [first, rest @ ..] = calls {
            if rest.iter().all(|bc| bc.object == first.object) {
                let group: Vec<&OpCall> = calls.iter().map(|bc| &bc.call).collect();
                let obj = self.object_ref(first.object);
                let fairness = if self.config.fair_scheduling {
                    obj.blocked_pairs()
                } else {
                    Vec::new()
                };
                return obj.classify_many(self.config.policy, txn, &group, &fairness);
            }
        }
        let mut plans: Vec<Option<Classification>> = vec![None; calls.len()];
        let mut objects: Vec<ObjectId> = calls.iter().map(|bc| bc.object).collect();
        objects.sort_unstable();
        objects.dedup();
        for object in objects {
            let members: Vec<usize> = (0..calls.len())
                .filter(|i| calls[*i].object == object)
                .collect();
            let group: Vec<&OpCall> = members.iter().map(|i| &calls[*i].call).collect();
            let obj = self.object_ref(object);
            let fairness = if self.config.fair_scheduling {
                obj.blocked_pairs()
            } else {
                Vec::new()
            };
            let classified = obj.classify_many(self.config.policy, txn, &group, &fairness);
            for (i, c) in members.into_iter().zip(classified) {
                plans[i] = Some(c);
            }
        }
        plans
            .into_iter()
            .map(|p| p.expect("every call planned"))
            .collect()
    }

    /// Run [`Self::settle`] only if a transaction terminated since `epoch`
    /// was sampled. When nothing terminated, settle is a pure no-op scan
    /// (no pseudo-commit can have lost its last dependency, no object log
    /// changed), so skipping it is behaviour-preserving — and saves an
    /// O(live transactions) walk on every admitted request.
    fn settle_if_terminated(&mut self, epoch: u64) {
        if self.termination_epoch != epoch || !self.pending_dirty.is_empty() {
            self.settle();
        }
    }

    /// The Figure-2 algorithm for a single request. `is_retry` marks
    /// automatic retries of previously blocked requests (they do not count
    /// as new blocking events in the statistics). `precomputed` supplies a
    /// still-valid classification from a batch plan. A request that would
    /// close a cycle aborts its own transaction, never another one.
    ///
    /// A retried request arrives still holding its wait-for edges, each to
    /// a holder it still conflicts with, unless it is about to stop waiting
    /// (see [`Self::retry_blocked`]). If it blocks again, which only a
    /// kernel without fair scheduling lets happen, only holders it does
    /// not already wait for are checked and added: a cycle closed by
    /// `txn -> t` is a path from `t` back to `txn`, which never leaves
    /// through `txn`'s own out-edges, and the graph is acyclic, so a held
    /// edge can neither close a cycle nor change the verdict on the
    /// others. The held edges are dropped when the request stops waiting.
    fn process_request(
        &mut self,
        txn: TxnId,
        object: ObjectId,
        call: OpCall,
        is_retry: bool,
        precomputed: Option<Classification>,
    ) -> RequestOutcome {
        // A supplied plan is trusted as-is: the batched-vs-sequential
        // differential suite proves plans match fresh classifications.
        let Classification {
            conflicts,
            commit_deps,
        } = precomputed.unwrap_or_else(|| self.classify_for(txn, object, &call));

        let held = if is_retry {
            self.waits_for_here(txn)
        } else {
            Vec::new()
        };

        if !conflicts.is_empty() {
            // Step 1: the request conflicts; it must wait unless waiting
            // would close a cycle.
            debug_assert!(
                held.iter().all(|h| conflicts.contains(h)),
                "{txn} still waits for a holder it no longer conflicts with"
            );
            let fresh: Vec<TxnId> = conflicts
                .iter()
                .copied()
                .filter(|h| !held.contains(h))
                .collect();
            if !fresh.is_empty() && !self.try_add_edges(txn, &fresh, EdgeKind::WaitFor) {
                return self.refuse(txn, AbortReason::DeadlockCycle, &held);
            }
            self.object_mut(object).push_blocked(txn, call.clone());
            let rec = self.txns.get_mut(&txn).expect("transaction exists");
            rec.state = TxnState::Blocked;
            rec.pending = Some(PendingRequest { object, call });
            rec.touched.insert(object);
            if !is_retry {
                self.stats.blocks += 1;
            }
            return RequestOutcome::Blocked {
                waiting_on: conflicts,
            };
        }

        // From here the request executes or aborts: it waits for no one.
        self.graph_drop_wait_edges(txn, &held);

        // Step 3 (recoverable): check the commit-dependency relation stays
        // acyclic, then add the commit-dependency edges. With no
        // dependencies this is step 2: everything commutes.
        if !commit_deps.is_empty() {
            if !self.try_add_edges(txn, &commit_deps, EdgeKind::CommitDep) {
                return self.refuse(txn, AbortReason::CommitDependencyCycle, &[]);
            }
            // The stat counts one dependency per (requester, holder) pair
            // per admitted recoverable request, but the edge is
            // deduplicated: repeated recoverable operations against the
            // same holder would otherwise pile up edge multiplicity the
            // graph has to carry until termination.
            self.stats.commit_dependencies += commit_deps.len() as u64;
        }
        let result = self.execute_op(txn, object, call);
        if is_retry {
            self.stats.unblocks += 1;
        }
        RequestOutcome::Executed {
            result,
            commit_deps,
        }
    }

    /// A request that would close a cycle aborts its transaction: here, if
    /// it is single-shard; otherwise the coordinator aborts it in all its
    /// shards (rule 3 in the [`crate::shard`] docs), and here it only
    /// loses the wait-for edges `held` of the request it no longer makes.
    fn refuse(&mut self, txn: TxnId, reason: AbortReason, held: &[TxnId]) -> RequestOutcome {
        if self.txns[&txn].coordinated {
            self.graph_drop_wait_edges(txn, held);
        } else {
            let in_graph = self.abort_internal(txn, reason);
            self.remove_node(txn, in_graph);
        }
        RequestOutcome::Aborted { reason }
    }

    fn classify_for(&self, txn: TxnId, object: ObjectId, call: &OpCall) -> Classification {
        let obj = self.object_ref(object);
        let fairness = if self.config.fair_scheduling {
            obj.blocked_pairs()
        } else {
            Vec::new()
        };
        obj.classify(self.config.policy, txn, call, &fairness)
    }

    fn execute_op(&mut self, txn: TxnId, object: ObjectId, call: OpCall) -> OpResult {
        self.next_seq += 1;
        let seq = self.next_seq;
        let result = self.objects[object.0 as usize].execute(txn, seq, call.clone());
        let rec = self.txns.get_mut(&txn).expect("transaction exists");
        rec.ops.push(ExecutedOp {
            object,
            call,
            result: result.clone(),
            seq,
        });
        rec.touched.insert(object);
        self.stats.operations_executed += 1;
        result
    }

    /// Commit a single-shard transaction, node removal included.
    fn actually_commit(&mut self, txn: TxnId) -> Option<u64> {
        let (ticket, in_graph) = self.actually_commit_stamped(txn, None);
        self.remove_node(txn, in_graph);
        ticket
    }

    /// Fold a transaction's effects under a global commit stamp: the
    /// coordinator-drawn one for multi-shard commits, or the next clock
    /// value otherwise. The stamp is drawn **before** the version-GC
    /// watermark is loaded — the order the snapshot-visibility argument in
    /// ARCHITECTURE.md relies on (a fold whose stamp exceeds a live
    /// snapshot's begin stamp is guaranteed to observe that snapshot's
    /// watermark and preserve the version it still needs).
    ///
    /// Returns the durability ticket of the commit record this call
    /// appended to the write-ahead log, if it appended one, and whether
    /// this kernel added an edge of the transaction: its node, if any, is
    /// the caller's to remove.
    fn actually_commit_stamped(&mut self, txn: TxnId, stamp: Option<u64>) -> (Option<u64>, bool) {
        self.termination_epoch += 1;
        let rec = self.txns.remove(&txn).expect("transaction exists");
        debug_assert!(matches!(
            rec.state,
            TxnState::Active | TxnState::PseudoCommitted
        ));
        // Durability: append the commit record while still holding the
        // shard lock, so the log's record order is the shard's actual
        // commit order (replay re-applies in that order). The coordinator
        // logs multi-shard transactions itself, before their per-shard
        // in-memory applications, and marks them `wal_logged`.
        let wal_ticket = match &self.wal {
            Some(wal) if !rec.wal_logged && !rec.ops.is_empty() => {
                Some(wal.append_commit(0, None, &self.logged_ops(&rec.ops)))
            }
            _ => None,
        };
        self.next_commit_index += 1;
        let stamp = stamp.unwrap_or_else(|| self.commit_clock.fetch_add(1, Ordering::SeqCst) + 1);
        let watermark = self.version_floor.load(Ordering::SeqCst);
        let touched: Vec<ObjectId> = rec.touched.iter().copied().collect();
        for obj in &touched {
            self.stats.versions_pruned +=
                self.objects[obj.0 as usize].commit_txn(txn, stamp, watermark);
        }
        self.pseudo.remove(&txn);
        self.pending_dirty.extend(touched);
        self.stats.commits += 1;
        self.finished.insert(txn, TxnState::Committed);
        if let Some(h) = &mut self.history {
            h.record_committed(txn, self.next_commit_index, rec.ops);
        }
        (wal_ticket, rec.in_graph)
    }

    /// Undo an active or blocked transaction. Returns whether this kernel
    /// added an edge of it: its node, if any, is the caller's to remove.
    fn abort_internal(&mut self, txn: TxnId, reason: AbortReason) -> bool {
        self.termination_epoch += 1;
        let mut rec = self.txns.remove(&txn).expect("transaction exists");
        debug_assert!(
            matches!(rec.state, TxnState::Active | TxnState::Blocked),
            "only active or blocked transactions can abort (got {})",
            rec.state
        );
        let pending_object = rec.pending.take().map(|p| p.object);
        let touched: Vec<ObjectId> = rec.touched.iter().copied().collect();
        if let Some(obj) = pending_object {
            self.objects[obj.0 as usize].remove_blocked(txn);
        }
        for obj in &touched {
            self.objects[obj.0 as usize].abort_txn(txn);
        }
        self.pending_dirty.extend(touched);
        match reason {
            AbortReason::DeadlockCycle => self.stats.aborts_deadlock += 1,
            AbortReason::CommitDependencyCycle => self.stats.aborts_commit_cycle += 1,
            AbortReason::SsiConflict => self.stats.aborts_ssi += 1,
            AbortReason::Explicit => self.stats.aborts_explicit += 1,
        }
        self.finished.insert(txn, TxnState::Aborted);
        if let Some(h) = &mut self.history {
            h.record_aborted(txn, reason, rec.ops);
        }
        rec.in_graph
    }

    /// Propagate the consequences of terminations: cascade actual commits of
    /// pseudo-committed transactions whose dependencies are gone, and retry
    /// blocked requests on objects whose logs changed. Runs to fixpoint.
    /// The coordinator also runs it for the shards of a multi-shard
    /// termination (see `ShardedKernel::terminate_in_shards`).
    pub(crate) fn settle(&mut self) {
        loop {
            // Cascade commits of this kernel's pseudo-committed
            // transactions with no out-edge left, in ascending order. A
            // *coordinated* transaction is never committed locally: it is
            // reported to the coordinator, which applies its commit in
            // every shard it is enrolled in.
            let mut cascaded = false;
            loop {
                let mut candidates: Vec<TxnId> = Vec::new();
                for t in self.pseudo_without_out_edges() {
                    if self.txns[&t].coordinated {
                        if !self.coordination_ready.contains(&t) {
                            self.coordination_ready.push(t);
                        }
                    } else {
                        candidates.push(t);
                    }
                }
                if candidates.is_empty() {
                    break;
                }
                for txn in candidates {
                    // A cascade commit has no session waiting on it (its
                    // pseudo-commit ack made no durability promise), so its
                    // ticket is dropped.
                    let _ = self.actually_commit(txn);
                    self.events.push(KernelEvent::Committed { txn });
                    cascaded = true;
                }
            }

            if self.pending_dirty.is_empty() {
                if !cascaded {
                    break;
                }
                continue;
            }

            // Retry blocked requests on the dirty objects.
            let mut dirty = std::mem::take(&mut self.pending_dirty);
            dirty.sort_unstable();
            dirty.dedup();
            for obj in dirty {
                self.retry_blocked(obj);
            }
        }
    }

    /// This kernel's pseudo-committed transactions with no out-edge, in
    /// ascending order. Takes the graph lock only when there is one.
    fn pseudo_without_out_edges(&self) -> Vec<TxnId> {
        if self.pseudo.is_empty() {
            return Vec::new();
        }
        let graph = self.graph.lock();
        self.pseudo
            .iter()
            .copied()
            .filter(|t| graph.out_degree(*t) == 0)
            .collect()
    }

    /// Retry the requests queued on `object` after a termination touched
    /// it, in FIFO order. Each entry is either re-queued in place or runs
    /// Figure 2 again ([`Self::process_request`]), so the fairness set a
    /// retried request is classified against is exactly the entries ahead
    /// of it that are still queued.
    ///
    /// Under fair scheduling a queued request `R` runs Figure 2 again only
    /// when that can release it. Its wait-for out-neighbours `held` always
    /// cover its conflicts: the symmetric fairness test queues behind `R`
    /// every new request `R` conflicts with in either order, and entries
    /// ahead of `R` can only leave the queue, so no operation `R`
    /// conflicts with is admitted past it. A held holder stops conflicting
    /// in three ways: it terminates (its node and the edge go with it),
    /// its own queued request on this object executes, or that request's
    /// retry is refused because it would close a cycle. A refused
    /// multi-shard transaction stays active here, with its node, until the
    /// coordinator aborts it in all its shards ([`Self::refuse`]). The
    /// pass keeps the last two as `released`; a released holder whose
    /// logged operations `R` no longer conflicts with is *stale* (a
    /// refused one has none on this object). While `held`
    /// keeps a member that is not stale, `R` is still blocked by exactly
    /// those members, so the stale edges are dropped and `R` is re-queued
    /// with no classification, cycle check or event (the debug build
    /// re-classifies it as the oracle). Otherwise its conflict set is
    /// empty, and the retry executes or aborts.
    ///
    /// Without fair scheduling an operation `R` conflicts with may have
    /// been admitted past it, so every entry is retried.
    fn retry_blocked(&mut self, object: ObjectId) {
        let queue = self.objects[object.0 as usize].take_blocked();
        let fair = self.config.fair_scheduling;
        let mut released: Vec<TxnId> = Vec::new();
        for request in queue {
            // Every entry still waits here: an abort removes its own entry,
            // and retrying one entry can abort no other transaction.
            debug_assert!(
                self.txns
                    .get(&request.txn)
                    .is_some_and(|rec| rec.state == TxnState::Blocked
                        && rec
                            .pending
                            .as_ref()
                            .is_some_and(|p| p.object == object && p.call == request.call)),
                "stale blocked entry for {}",
                request.txn
            );
            if fair {
                let held = self.waits_for_here(request.txn);
                let obj = self.object_ref(object);
                let stale: Vec<TxnId> = held
                    .iter()
                    .copied()
                    .filter(|h| {
                        released.contains(h)
                            && obj.severity_against(self.config.policy, &request.call, *h)
                                != Compatibility::NonRecoverable
                    })
                    .collect();
                if stale.len() < held.len() {
                    self.graph_drop_wait_edges(request.txn, &stale);
                    debug_assert_eq!(
                        self.classify_for(request.txn, object, &request.call)
                            .conflicts,
                        {
                            let mut kept = self.waits_for(request.txn);
                            kept.sort_unstable();
                            kept
                        },
                        "the skipped retry of {} would wait for other holders",
                        request.txn
                    );
                    self.object_mut(object)
                        .push_blocked(request.txn, request.call);
                    continue;
                }
            }
            let rec = self.txns.get_mut(&request.txn).expect("transaction exists");
            rec.state = TxnState::Active;
            rec.pending = None;
            #[cfg(test)]
            {
                self.figure2_retries += 1;
            }
            let outcome = self.process_request(request.txn, object, request.call, true, None);
            if outcome.is_blocked() {
                // Still blocked; it was re-queued by process_request.
                debug_assert!(!fair, "a fair retry that runs Figure 2 never re-blocks");
                continue;
            }
            // Executed or refused: either way it left the queue.
            released.push(request.txn);
            self.events.push(KernelEvent::Unblocked {
                txn: request.txn,
                outcome,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbcc_adt::{AdtOp, Stack, StackOp, Value};

    fn push(v: i64) -> OpCall {
        StackOp::Push(Value::Int(v)).to_call()
    }

    fn pop() -> OpCall {
        StackOp::Pop.to_call()
    }

    /// A kernel with one stack.
    fn kernel(fair: bool) -> (SchedulerKernel, ObjectId) {
        let mut k = SchedulerKernel::new(SchedulerConfig::default().with_fair_scheduling(fair));
        let s = k.register("s", Stack::new()).unwrap();
        (k, s)
    }

    /// `(graph_edges, cycle checks)`.
    fn graph_work(k: &SchedulerKernel) -> (u64, u64) {
        (k.stats().graph_edges, k.cycle_checks())
    }

    fn multiplicity(k: &SchedulerKernel, from: TxnId, to: TxnId, kind: EdgeKind) -> u32 {
        k.graph.lock().edge_multiplicity(from, to, kind)
    }

    /// Terminate a transaction whose push commutes with everything on the
    /// stack: the abort marks the object dirty, so every blocked request
    /// on it is retried.
    fn retry_waiters(k: &mut SchedulerKernel, s: ObjectId) {
        let x = k.begin();
        assert!(k.request(x, s, push(1)).unwrap().is_executed());
        k.abort(x).unwrap();
    }

    #[test]
    fn re_block_behind_unchanged_holders_adds_and_checks_nothing() {
        let (mut k, s) = kernel(false);
        let holder = k.begin();
        let waiter = k.begin();
        assert!(k.request(holder, s, push(1)).unwrap().is_executed());
        assert!(k.request(waiter, s, pop()).unwrap().is_blocked());
        assert_eq!(k.stats().graph_edges, 1, "one wait-for edge");
        for _ in 0..5 {
            // Sampled per round: `check_invariants` counts a cycle check.
            let before = graph_work(&k);
            retry_waiters(&mut k, s);
            assert_eq!(k.txn_state(waiter), Some(TxnState::Blocked));
            assert_eq!(graph_work(&k), before, "re-block added or checked an edge");
            assert_eq!(multiplicity(&k, waiter, holder, EdgeKind::WaitFor), 1);
            k.check_invariants().unwrap();
        }
    }

    #[test]
    fn re_block_behind_one_new_holder_checks_and_adds_only_that_edge() {
        let (mut k, s) = kernel(false);
        let holder = k.begin();
        let waiter = k.begin();
        let newcomer = k.begin();
        assert!(k.request(holder, s, push(1)).unwrap().is_executed());
        assert!(k.request(waiter, s, pop()).unwrap().is_blocked());
        // Without fairness the push overtakes the blocked pop (recoverable
        // relative to the holder's push), so the pop now conflicts twice.
        assert!(k.request(newcomer, s, push(2)).unwrap().is_executed());
        let x = k.begin();
        assert!(k.request(x, s, push(1)).unwrap().is_executed());
        let before = graph_work(&k);
        k.abort(x).unwrap();
        assert_eq!(k.txn_state(waiter), Some(TxnState::Blocked));
        let after = graph_work(&k);
        assert_eq!(after.0, before.0 + 1, "exactly one new edge");
        assert_eq!(after.1, before.1 + 1, "one check");
        // Only the new holder was added: the held edge was not re-added.
        assert_eq!(multiplicity(&k, waiter, holder, EdgeKind::WaitFor), 1);
        assert_eq!(multiplicity(&k, waiter, newcomer, EdgeKind::WaitFor), 1);
        k.check_invariants().unwrap();
    }

    #[test]
    fn retry_that_executes_leaves_no_wait_for_edge() {
        let (mut k, s) = kernel(true);
        let holder = k.begin();
        let first = k.begin();
        let second = k.begin();
        assert!(k.request(holder, s, push(1)).unwrap().is_executed());
        assert!(k.request(first, s, pop()).unwrap().is_blocked());
        // Fairness: the push waits behind the blocked pop, not the holder.
        match k.request(second, s, push(1)).unwrap() {
            RequestOutcome::Blocked { waiting_on } => assert_eq!(waiting_on, vec![first]),
            other => panic!("expected the push to wait behind the pop, got {other:?}"),
        }
        // The holder's abort lets the pop execute; the retried push is then
        // recoverable relative to it and executes with a commit dependency
        // on the very transaction it used to wait for.
        k.abort(holder).unwrap();
        assert_eq!(k.txn_state(first), Some(TxnState::Active));
        assert_eq!(k.txn_state(second), Some(TxnState::Active));
        assert!(k.waits_for(second).is_empty());
        assert_eq!(multiplicity(&k, second, first, EdgeKind::WaitFor), 0);
        assert_eq!(k.commit_dependencies_of(second), vec![first]);
        assert_eq!(multiplicity(&k, second, first, EdgeKind::CommitDep), 1);
        k.check_invariants().unwrap();
    }

    #[test]
    fn re_block_after_a_held_holder_stops_conflicting_drops_only_the_stale_edge() {
        let (mut k, s) = kernel(true);
        let holder = k.begin();
        let first = k.begin();
        let second = k.begin();
        let pusher = k.begin();
        assert!(k.request(holder, s, push(1)).unwrap().is_executed());
        assert!(k.request(first, s, pop()).unwrap().is_blocked());
        assert!(k.request(second, s, pop()).unwrap().is_blocked());
        // Fairness: the push waits behind both blocked pops.
        match k.request(pusher, s, push(1)).unwrap() {
            RequestOutcome::Blocked { waiting_on } => assert_eq!(waiting_on, vec![first, second]),
            other => panic!("expected the push to wait behind both pops, got {other:?}"),
        }
        let before = graph_work(&k);
        // The first pop executes on retry; the second stays behind it; the
        // push is now recoverable relative to the first pop but still
        // waits behind the second, so its held edge to the first is stale.
        k.abort(holder).unwrap();
        assert_eq!(k.txn_state(first), Some(TxnState::Active));
        assert_eq!(k.txn_state(second), Some(TxnState::Blocked));
        assert_eq!(k.txn_state(pusher), Some(TxnState::Blocked));
        assert_eq!(k.waits_for(pusher), vec![second]);
        assert_eq!(multiplicity(&k, pusher, first, EdgeKind::WaitFor), 0);
        assert_eq!(multiplicity(&k, pusher, second, EdgeKind::WaitFor), 1);
        assert_eq!(
            graph_work(&k),
            before,
            "the stale edge went without an add or a check"
        );
        assert_eq!(k.figure2_retries, 1, "only the first pop ran Figure 2");
        k.check_invariants().unwrap();
    }

    #[test]
    fn releasing_one_of_two_holders_re_queues_without_figure_2() {
        let (mut k, s) = kernel(true);
        let first = k.begin();
        let second = k.begin();
        let waiter = k.begin();
        assert!(k.request(first, s, push(1)).unwrap().is_executed());
        assert!(k.request(second, s, push(2)).unwrap().is_executed());
        match k.request(waiter, s, pop()).unwrap() {
            RequestOutcome::Blocked { waiting_on } => assert_eq!(waiting_on, vec![first, second]),
            other => panic!("expected the pop to wait behind both pushes, got {other:?}"),
        }
        let before = graph_work(&k);
        assert_eq!(k.commit(first).unwrap(), CommitOutcome::Committed);
        assert_eq!(k.txn_state(waiter), Some(TxnState::Blocked));
        assert_eq!(k.waits_for(waiter), vec![second]);
        assert_eq!(multiplicity(&k, waiter, second, EdgeKind::WaitFor), 1);
        assert_eq!(graph_work(&k), before, "no edge added or checked");
        assert_eq!(k.figure2_retries, 0, "the pop was not classified again");
        assert!(
            k.drain_events().is_empty(),
            "a re-queued request raises no event"
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn a_re_queued_entry_keeps_its_place_in_a_later_entrys_fairness_set() {
        let (mut k, s) = kernel(true);
        let first = k.begin();
        let second = k.begin();
        let popper = k.begin();
        let pusher = k.begin();
        assert!(k.request(first, s, push(1)).unwrap().is_executed());
        assert!(k.request(second, s, push(2)).unwrap().is_executed());
        assert!(k.request(popper, s, pop()).unwrap().is_blocked());
        // Fairness: the push is recoverable relative to both holders but
        // waits behind the blocked pop.
        match k.request(pusher, s, push(3)).unwrap() {
            RequestOutcome::Blocked { waiting_on } => assert_eq!(waiting_on, vec![popper]),
            other => panic!("expected the push to wait behind the pop, got {other:?}"),
        }
        k.abort(first).unwrap();
        let queued: Vec<TxnId> = k
            .object_ref(s)
            .blocked_queue()
            .iter()
            .map(|r| r.txn)
            .collect();
        assert_eq!(queued, vec![popper, pusher], "both re-queued in FIFO order");
        assert_eq!(k.figure2_retries, 0);
        // A fresh classification of the push still sees the pop ahead of it.
        assert_eq!(k.classify_for(pusher, s, &push(3)).conflicts, vec![popper]);
        assert_eq!(k.waits_for(pusher), vec![popper]);
        k.check_invariants().unwrap();
    }

    #[test]
    fn invariants_reject_wait_for_edges_of_a_transaction_that_is_not_blocked() {
        let mut k = SchedulerKernel::new(SchedulerConfig::default());
        let a = k.begin();
        let b = k.begin();
        k.check_invariants().unwrap();
        k.graph.lock().add_edge(a, b, EdgeKind::WaitFor);
        for t in [a, b] {
            k.txns.get_mut(&t).unwrap().in_graph = true;
        }
        let err = k.check_invariants().unwrap_err();
        assert!(err.contains("wait-for"), "{err}");
    }

    #[test]
    fn an_admitted_edge_set_is_checked_and_inserted_once_in_one_critical_section() {
        let (mut k, s) = kernel(true);
        let holder = k.begin();
        let pusher = k.begin();
        let waiter = k.begin();
        assert!(k.request(holder, s, push(1)).unwrap().is_executed());
        assert_eq!(k.graph.acquisitions(), 0, "nothing to depend on yet");
        // Recoverable push: one commit dependency, one critical section.
        assert!(k.request(pusher, s, push(2)).unwrap().is_executed());
        assert_eq!(k.graph.acquisitions(), 1);
        // A blocked pop: both wait-for edges in one critical section.
        assert!(k.request(waiter, s, pop()).unwrap().is_blocked());
        assert_eq!(k.graph.acquisitions(), 2);
        assert_eq!(multiplicity(&k, pusher, holder, EdgeKind::CommitDep), 1);
        assert_eq!(multiplicity(&k, waiter, holder, EdgeKind::WaitFor), 1);
        assert_eq!(multiplicity(&k, waiter, pusher, EdgeKind::WaitFor), 1);
        assert_eq!(k.stats().graph_edges, 3);
        k.check_invariants().unwrap();
    }
}
