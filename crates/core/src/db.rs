//! The session-based, thread-safe front-end over the sharded scheduler
//! kernel ([`ShardedKernel`]): typed [`Handle`]s, [`Transaction`] guards,
//! grouped submission through [`Batch`], and the [`Database::run`] retry
//! runner.
//!
//! # Sessions, not bare transaction ids
//!
//! The kernel itself is transaction-centric but *identifier*-based: every
//! call names a raw [`TxnId`]. Applications instead program against a
//! first-class session object: [`Database::begin`] returns a
//! [`Transaction`] guard that
//!
//! * executes typed operations ([`Transaction::exec`]) against typed
//!   [`Handle<A>`]s — `txn.exec(&stack, StackOp::Push(..))` is statically
//!   checked to be a stack operation — while [`Transaction::exec_call`]
//!   remains for erased callers;
//! * submits *groups* of operations in one kernel pass under one lock
//!   acquisition ([`Transaction::batch`]);
//! * consumes itself on [`Transaction::commit`] / [`Transaction::abort`],
//!   so a terminated session cannot be used again by construction; and
//! * **auto-aborts on drop** when neither was called — an early return or
//!   a panic cannot leak a live transaction that would block others
//!   forever.
//!
//! [`Database::run`] wraps the begin/exec/commit cycle in a closure and
//! transparently restarts it when the scheduler aborts the transaction
//! (deadlock or commit-dependency cycle), which is what most applications
//! want.
//!
//! # Sharding
//!
//! The database runs [`crate::shard::ShardedKernel`] underneath: objects
//! are partitioned across `shards` independent scheduler kernels by a hash
//! of their registration name, so sessions whose footprints live in
//! different shards never contend on a lock. [`Database::new`] takes the
//! shard count from the `SBCC_SHARDS` environment variable (default 1;
//! `SBCC_SHARDS=auto` resolves to one shard per core, see
//! [`crate::ShardCount`]); [`Database::with_config`] sets it explicitly:
//!
//! ```
//! use sbcc_core::{Database, DatabaseConfig, SchedulerConfig};
//! let db = Database::with_config(
//!     DatabaseConfig::new(SchedulerConfig::default()).with_shards(4),
//! );
//! assert_eq!(db.shard_count(), 4);
//! ```
//!
//! With one shard the behaviour is exactly that of a single
//! [`crate::SchedulerKernel`]. With several, everything session-visible
//! stays the same — handles, blocking, batches, retry semantics, aggregate
//! [`KernelStats`] — and [`Database::stats_snapshot`] additionally exposes
//! the per-shard breakdown. See the [`crate::shard`] module docs for the sharding
//! invariants and the cross-shard commit protocol.
//!
//! # Blocking and wakeups
//!
//! A blocked request parks the calling OS thread until a conflicting
//! transaction terminates. Wakeups are **per transaction**: each parked
//! invocation registers a private waiter slot, and the kernel's event
//! stream delivers an outcome directly into the slot of exactly the
//! transaction it concerns. A commit therefore wakes only the threads
//! whose transactions it actually unblocked — there is no global
//! broadcast that stampedes every parked thread on every termination.
//!
//! The slot is **two-variant**: a sync session sleeps on its condvar,
//! while an async session ([`crate::aio`]) registers a
//! [`std::task::Waker`] in the same slot and suspends its future. The
//! fill path serves both, so the kernel, batching and event-delivery
//! layers are completely agnostic to how a waiter sleeps — if parking a
//! thread per blocked transaction is your bottleneck, switch to
//! [`crate::aio::AsyncDatabase`] (migration table in the [`crate::aio`]
//! module docs) and multiplex thousands of sessions on one thread.
//!
//! An outcome that settles while no thread is parked (possible after a
//! non-blocking [`Transaction::try_exec_call`], or when the kernel's
//! internal retry settles a request before the caller parks) is kept in a
//! `delivered` map and claimed by the next [`Transaction::settle_pending`]
//! call.
//!
//! The [`Database`] handle is cheaply cloneable and can be shared across
//! threads; each [`Transaction`] is owned by (and intended for) one thread
//! at a time.
//!
//! # Example
//!
//! ```
//! use sbcc_core::{Database, SchedulerConfig};
//! use sbcc_adt::{Counter, CounterOp, OpResult, Stack, StackOp, Value};
//!
//! let db = Database::new(SchedulerConfig::default());
//! let jobs = db.register("jobs", Stack::new());
//! let hits = db.register("hits", Counter::new());
//!
//! // A grouped submission: both operations admitted in one kernel pass.
//! let txn = db.begin();
//! let results = txn
//!     .batch()
//!     .op(&jobs, StackOp::Push(Value::Int(42)))
//!     .op(&hits, CounterOp::Increment(1))
//!     .submit()
//!     .unwrap();
//! assert_eq!(results, vec![OpResult::Ok, OpResult::Ok]);
//! txn.commit().unwrap();
//!
//! // The closure runner retries on scheduler aborts and commits on Ok.
//! let top = db
//!     .run(|txn| txn.exec(&jobs, StackOp::Top))
//!     .unwrap();
//! assert_eq!(top, OpResult::Value(Value::Int(42)));
//! ```

use crate::chaos::{self, sync::Condvar, sync::Mutex, ChaosPoint};
use crate::errors::CoreError;
use crate::events::{BatchStop, CommitOutcome, KernelEvent, RequestOutcome};
use crate::object::ObjectId;
use crate::policy::SchedulerConfig;
use crate::shard::{DatabaseConfig, ObjectLoc, ShardedKernel};
use crate::stats::{KernelStats, StatsSnapshot};
use crate::txn::{BatchCall, TxnId, TxnState};
use sbcc_adt::{AdtOp, AdtSpec, AdtType, OpCall, OpResult, SemanticObject};
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// A handle to an object registered with a [`Database`].
///
/// Handles are cheap to clone (the registration name is shared behind an
/// [`Arc`]) and can be freely copied into worker threads. A handle carries
/// the object's shard location, so the session hot path routes straight to
/// the owning shard without any directory lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectHandle {
    id: ObjectId,
    loc: ObjectLoc,
    name: Arc<str>,
}

impl ObjectHandle {
    /// The (database-global) object id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The object's shard location.
    pub fn loc(&self) -> ObjectLoc {
        self.loc
    }

    /// The registration name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A typed handle: an [`ObjectHandle`] plus a compile-time tag naming the
/// [`AdtSpec`] registered under it, so [`Transaction::exec`] only accepts
/// operations of that data type.
///
/// Dereferences to the underlying [`ObjectHandle`], so a typed handle can
/// be passed anywhere an erased one is expected (including
/// [`Transaction::exec_call`]).
#[derive(Debug)]
pub struct Handle<A: AdtSpec> {
    raw: ObjectHandle,
    _adt: PhantomData<fn() -> A>,
}

// Manual impls: `A` itself is only a tag and never stored, so the derives'
// `A: Clone` / `A: PartialEq` bounds would be spurious.
impl<A: AdtSpec> Clone for Handle<A> {
    fn clone(&self) -> Self {
        Handle {
            raw: self.raw.clone(),
            _adt: PhantomData,
        }
    }
}

impl<A: AdtSpec> PartialEq for Handle<A> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}

impl<A: AdtSpec> Eq for Handle<A> {}

impl<A: AdtSpec> std::ops::Deref for Handle<A> {
    type Target = ObjectHandle;

    fn deref(&self) -> &ObjectHandle {
        &self.raw
    }
}

impl<A: AdtSpec> Handle<A> {
    /// Borrow the erased handle.
    pub fn erased(&self) -> &ObjectHandle {
        &self.raw
    }

    /// Discard the type tag.
    pub fn into_erased(self) -> ObjectHandle {
        self.raw
    }
}

/// One waiting invocation's private rendezvous: the delivering thread
/// stores the outcome and wakes the owner — *however the owner sleeps*.
///
/// The slot is the two-variant waiter the async front-end rides on:
///
/// * a **sync** session parks its OS thread on the condvar
///   ([`WaiterSlot::await_outcome`]);
/// * an **async** session stores a [`Waker`] and suspends its future
///   ([`WaiterSlot::poll_outcome`]).
///
/// [`WaiterSlot::fill`] serves both at once (it signals the condvar *and*
/// wakes a registered waker), so every shard wakeup path stays completely
/// agnostic to which front-end is waiting. A slot has exactly one owner;
/// only the delivery side is shared.
#[derive(Default)]
pub(crate) struct WaiterSlot {
    state: Mutex<SlotState>,
    cond: Condvar,
}

#[derive(Default)]
struct SlotState {
    outcome: Option<RequestOutcome>,
    /// The waker of the async task awaiting this slot, when the owner is a
    /// future rather than a parked thread. Re-registered on every poll, so
    /// a task that migrates executors between polls still wakes correctly.
    waker: Option<std::task::Waker>,
}

impl WaiterSlot {
    /// Deliver an outcome and wake the (single) owner, whether it is a
    /// parked thread or a suspended future.
    fn fill(&self, outcome: RequestOutcome) {
        let waker = {
            let mut state = self.state.lock();
            state.outcome = Some(outcome);
            state.waker.take()
        };
        self.cond.notify_one();
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Park the calling OS thread until an outcome is delivered (the sync
    /// variant).
    fn await_outcome(&self) -> RequestOutcome {
        let mut state = self.state.lock();
        loop {
            if let Some(outcome) = state.outcome.take() {
                return outcome;
            }
            self.cond.wait(&mut state);
        }
    }

    /// The async variant: return the outcome if it has been delivered,
    /// otherwise register `cx`'s waker and suspend.
    ///
    /// The outcome check and the waker registration happen under the same
    /// lock [`WaiterSlot::fill`] takes, so the wake-before-poll race is
    /// closed: a fill that ran before this poll left the outcome behind
    /// (returned now), and a fill racing this poll either sees the freshly
    /// stored waker or lost the lock to us and its outcome is already
    /// visible.
    pub(crate) fn poll_outcome(&self, cx: &mut std::task::Context<'_>) -> std::task::Poll<RequestOutcome> {
        let mut state = self.state.lock();
        match state.outcome.take() {
            Some(outcome) => std::task::Poll::Ready(outcome),
            None => {
                state.waker = Some(cx.waker().clone());
                std::task::Poll::Pending
            }
        }
    }

    /// Take the outcome if one has been delivered (used when a cancelled
    /// async waiter unregisters itself).
    pub(crate) fn try_take(&self) -> Option<RequestOutcome> {
        self.state.lock().outcome.take()
    }
}

/// The rendezvous state: one map of settled-but-unclaimed outcomes, one map
/// of parked invocations. Guarded by its own small mutex, separate from the
/// shard kernels — delivering a wakeup never holds a kernel lock.
#[derive(Default)]
struct SessionState {
    /// Outcomes delivered to transactions whose pending request completed
    /// while no thread was parked waiting for it (e.g. after a
    /// non-blocking [`Transaction::try_exec_call`]); claimed by
    /// [`Transaction::settle_pending`] or discarded by the transaction's
    /// next submission or termination.
    delivered: HashMap<TxnId, RequestOutcome>,
    /// The waiter slot of every currently waiting invocation (parked
    /// thread or suspended future), by transaction.
    waiters: HashMap<TxnId, Arc<WaiterSlot>>,
}

/// The session-local bookkeeping shared by the sync [`Transaction`] guard
/// and the async [`crate::aio::AsyncTransaction`]: the transaction id, the
/// enrollment cache and the pending-request flag. Both front-ends drive
/// the same [`Database`] internals through this one core, so the kernel,
/// batching and event-delivery paths never know which of the two is
/// calling.
pub(crate) struct SessionCore {
    id: TxnId,
    /// Session-local cache of the shards this transaction is enrolled in.
    /// Lets the steady-state exec path skip the cross-shard coordinator
    /// (the cache is sound because enrollment only ever grows while the
    /// transaction is live). A `RefCell` suffices: sessions are `!Sync`.
    enrolled: RefCell<Vec<u32>>,
    /// `true` while a non-blocking submission is blocked inside a shard
    /// kernel with its outcome unclaimed. The session layer uses it to
    /// enforce the single-kernel contract across shards (no further
    /// submissions while blocked — another shard's kernel would not know)
    /// and to settle without racing the outcome delivery.
    pending: std::cell::Cell<bool>,
    /// `Some(begin stamp)` for sessions opened through
    /// [`Database::begin_snapshot`] / `AsyncDatabase::begin_snapshot`:
    /// read-only operations route to the multi-version snapshot path
    /// (reading the newest committed version at or below the stamp);
    /// everything else takes the ordinary classified path.
    snapshot: Option<u64>,
}

impl std::fmt::Debug for SessionCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCore")
            .field("id", &self.id)
            .field("pending", &self.pending.get())
            .finish_non_exhaustive()
    }
}

impl SessionCore {
    fn new(id: TxnId) -> Self {
        SessionCore {
            id,
            enrolled: RefCell::new(Vec::new()),
            pending: std::cell::Cell::new(false),
            snapshot: None,
        }
    }

    fn new_snapshot(id: TxnId, begin: u64) -> Self {
        SessionCore {
            snapshot: Some(begin),
            ..SessionCore::new(id)
        }
    }

    /// The transaction this session drives.
    pub(crate) fn id(&self) -> TxnId {
        self.id
    }

    /// The snapshot begin stamp, for sessions opened through
    /// `begin_snapshot`.
    pub(crate) fn snapshot(&self) -> Option<u64> {
        self.snapshot
    }

    /// Whether a blocked submission's outcome is still unclaimed.
    pub(crate) fn pending(&self) -> bool {
        self.pending.get()
    }

    /// Set or clear the pending flag.
    pub(crate) fn set_pending(&self, pending: bool) {
        self.pending.set(pending);
    }
}

struct Shared {
    /// The sharded kernel (internally locked per shard; see
    /// [`crate::shard`]).
    kernel: ShardedKernel,
    sessions: Mutex<SessionState>,
    /// Lock-free count of entries in `sessions.delivered`, so the exec
    /// fast path (nothing ever delivered — the overwhelmingly common
    /// case) skips the sessions mutex entirely. Only advisory: a zero
    /// reading is sound because a delivery for transaction `T` can only
    /// exist while `T` has a parked/pending request, and `T`'s own session
    /// thread — the only reader of `T`'s entries — is not submitting then.
    delivered_count: std::sync::atomic::AtomicUsize,
}

impl Shared {
    /// Remove and return `txn`'s delivered outcome, skipping the lock when
    /// the map is known empty.
    fn take_delivered(&self, txn: TxnId) -> Option<RequestOutcome> {
        use std::sync::atomic::Ordering;
        if self.delivered_count.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut sessions = self.sessions.lock();
        let outcome = sessions.delivered.remove(&txn);
        if outcome.is_some() {
            self.delivered_count.fetch_sub(1, Ordering::Release);
        }
        outcome
    }
}

/// A thread-safe transactional object store implementing the paper's
/// protocol. See the [module documentation](self) for the session model.
#[derive(Clone)]
pub struct Database {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database").finish_non_exhaustive()
    }
}

impl Database {
    /// Create a database with the given scheduler configuration. The shard
    /// count is taken from the `SBCC_SHARDS` environment variable
    /// (default 1, `auto` = one shard per core); use
    /// [`Database::with_config`] to set it explicitly.
    pub fn new(config: SchedulerConfig) -> Self {
        Database::with_config(DatabaseConfig::new(config))
    }

    /// Create a database with an explicit [`DatabaseConfig`] (scheduler
    /// configuration, shard count, durability).
    ///
    /// # Panics
    ///
    /// Panics when the configuration enables the write-ahead log and
    /// opening or replaying it fails — a database that silently dropped
    /// its durable state would be worse than no database. Use
    /// [`Database::try_with_config`] to handle recovery failures.
    pub fn with_config(config: DatabaseConfig) -> Self {
        Database::try_with_config(config)
            .unwrap_or_else(|e| panic!("opening the database failed: {e}"))
    }

    /// Create a database with an explicit [`DatabaseConfig`], surfacing
    /// write-ahead-log open/replay failures instead of panicking.
    ///
    /// With `config.wal` set, this opens the log file in its directory
    /// (repairing any torn tail — see [`sbcc_wal::Wal::open`]),
    /// **replays** the surviving records through the ordinary session API
    /// in one pass over the file — re-registering each object via the
    /// [`AdtType`] catalogue, re-executing each committed transaction's
    /// operations, one record per transaction, and checking every replayed
    /// result against the logged one — and only then attaches the log, so
    /// replay itself is not re-logged. A directory in the per-shard layout
    /// of earlier versions is refused, as is every other open failure,
    /// with [`CoreError::Durability`] naming the file. The group-commit
    /// flush point is routed through
    /// [`chaos::TimeoutPoint::GroupCommit`], so a DST clock hook can hold
    /// and release each flush.
    pub fn try_with_config(config: DatabaseConfig) -> Result<Self, CoreError> {
        let wal_config = config.wal.clone();
        let db = Database {
            shared: Arc::new(Shared {
                kernel: ShardedKernel::new(config),
                sessions: Mutex::new(SessionState::default()),
                delivered_count: std::sync::atomic::AtomicUsize::new(0),
            }),
        };
        if let Some(wal_config) = wal_config {
            let clock: sbcc_wal::GroupClock =
                Arc::new(|| chaos::timeout_fires(chaos::TimeoutPoint::GroupCommit));
            let (wal, records) = sbcc_wal::Wal::open(&wal_config, 1, Some(clock))
                .map_err(|e| CoreError::Durability(e.to_string()))?;
            db.replay(&records)?;
            db.shared.kernel.attach_wal(Arc::new(wal));
        }
        Ok(db)
    }

    /// Re-apply recovered log records through the session API. Sequential
    /// and single-threaded, so every commit must be an actual commit (a
    /// pseudo-commit would mean a dependency on a live transaction — there
    /// are none) and every replayed result must equal the logged one (the
    /// log replays deterministically from the empty state).
    fn replay(&self, records: &[sbcc_wal::SequencedRecord]) -> Result<(), CoreError> {
        let mut handles: HashMap<&str, ObjectHandle> = HashMap::new();
        for rec in records {
            match &rec.record {
                sbcc_wal::WalRecord::Register { name, type_name } => {
                    let adt = AdtType::from_name(type_name).ok_or_else(|| {
                        CoreError::Durability(format!(
                            "log registers object {name:?} with type {type_name:?}, \
                             which is not in the recovery catalogue"
                        ))
                    })?;
                    let handle = self.register_object(name.clone(), adt.instantiate())?;
                    handles.insert(name, handle);
                }
                sbcc_wal::WalRecord::Commit { ops, .. } => {
                    // Replay the whole commit as one batch; the per-op
                    // result comparison below validates every call
                    // against the log.
                    let txn = self.begin();
                    let mut batch = txn.batch();
                    for op in ops {
                        let handle = handles.get(op.object.as_str()).ok_or_else(|| {
                            CoreError::Durability(format!(
                                "log commit references unregistered object {:?}",
                                op.object
                            ))
                        })?;
                        batch.add_call(handle, op.call.clone());
                    }
                    let results = batch.submit()?;
                    debug_assert_eq!(results.len(), ops.len());
                    for (result, op) in results.iter().zip(ops) {
                        if *result != op.result {
                            return Err(CoreError::Durability(format!(
                                "replay diverged on object {:?} op {}: logged result \
                                 {}, replayed {}",
                                op.object, op.call, op.result, result
                            )));
                        }
                    }
                    match txn.commit()? {
                        CommitOutcome::Committed => {}
                        CommitOutcome::PseudoCommitted { .. } => {
                            return Err(CoreError::Durability(
                                "sequential replay produced a pseudo-commit".to_owned(),
                            ))
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of scheduler-kernel shards behind this database.
    pub fn shard_count(&self) -> usize {
        self.shared.kernel.shard_count()
    }

    /// Register a typed atomic data type instance and get a typed handle.
    ///
    /// # Panics
    ///
    /// Panics if an object with the same name is already registered; use
    /// [`Database::try_register`] for a fallible variant.
    pub fn register<A: AdtSpec>(&self, name: impl Into<String>, adt: A) -> Handle<A> {
        self.try_register(name, adt)
            .expect("object name already registered")
    }

    /// Register a typed atomic data type instance, failing on duplicate
    /// names.
    pub fn try_register<A: AdtSpec>(
        &self,
        name: impl Into<String>,
        adt: A,
    ) -> Result<Handle<A>, CoreError> {
        let name = name.into();
        let (id, loc) = self.shared.kernel.register(name.clone(), adt)?;
        Ok(Handle {
            raw: ObjectHandle {
                id,
                loc,
                name: name.into(),
            },
            _adt: PhantomData,
        })
    }

    /// Register an erased semantic object.
    pub fn register_object(
        &self,
        name: impl Into<String>,
        object: Box<dyn SemanticObject>,
    ) -> Result<ObjectHandle, CoreError> {
        let name = name.into();
        let (id, loc) = self.shared.kernel.register_object(name.clone(), object)?;
        Ok(ObjectHandle {
            id,
            loc,
            name: name.into(),
        })
    }

    /// Look up an existing registration by name, yielding an erased handle.
    ///
    /// This matters for durable databases: reopening a write-ahead-logged
    /// directory re-registers every logged object during replay, so a
    /// session needs handles to objects this process never registered.
    pub fn object_handle(&self, name: &str) -> Option<ObjectHandle> {
        let id = self.shared.kernel.object_id(name)?;
        let loc = self.shared.kernel.object_loc(id)?;
        Some(ObjectHandle {
            id,
            loc,
            name: name.into(),
        })
    }

    /// Typed variant of [`Database::object_handle`]: the registered
    /// object's type is checked against `A` before a typed handle is
    /// handed out, so [`Transaction::exec`] stays type-safe across
    /// recovery boundaries.
    pub fn handle<A: AdtSpec>(&self, name: &str) -> Option<Handle<A>> {
        let raw = self.object_handle(name)?;
        let matches = self
            .shared
            .kernel
            .with_object_committed(raw.id(), |o| o.type_name() == A::TYPE_NAME)?;
        matches.then_some(Handle {
            raw,
            _adt: PhantomData,
        })
    }

    /// Begin a transaction session.
    ///
    /// The returned guard aborts the transaction when dropped without an
    /// explicit [`Transaction::commit`] or [`Transaction::abort`].
    pub fn begin(&self) -> Transaction {
        Transaction {
            core: self.begin_session(),
            db: self.clone(),
            finished: false,
            _not_sync: PhantomData,
        }
    }

    /// Begin a transaction and hand back the bare session core (shared
    /// entry point of the sync and async front-ends).
    pub(crate) fn begin_session(&self) -> SessionCore {
        SessionCore::new(self.shared.kernel.begin())
    }

    /// Begin a **snapshot** transaction session: read-only operations
    /// observe the newest committed version at or below the begin stamp —
    /// no classification, no blocking, no dependency-graph edges — while
    /// writes (and reads of objects this transaction has written) still
    /// take the classified path. Serializability is preserved by SSI
    /// rw-antidependency tracking: a transaction completing a dangerous
    /// structure is aborted with
    /// [`AbortReason::SsiConflict`](crate::AbortReason::SsiConflict)
    /// (a scheduler-initiated abort, so [`Database::run`]-style retry
    /// loops restart it transparently).
    ///
    /// The stamp is acquired under the coordinator's termination lock, so
    /// a snapshot never observes a half-applied multi-shard commit.
    ///
    /// ```
    /// use sbcc_core::{Database, SchedulerConfig};
    /// use sbcc_adt::{Counter, CounterOp, OpResult, Value};
    ///
    /// let db = Database::new(SchedulerConfig::default());
    /// let c = db.register("c", Counter::new());
    /// let w = db.begin();
    /// w.exec(&c, CounterOp::Increment(5)).unwrap();
    /// w.commit().unwrap();
    ///
    /// let snap = db.begin_snapshot();
    /// // A writer committing *after* the snapshot began is invisible:
    /// let w = db.begin();
    /// w.exec(&c, CounterOp::Increment(100)).unwrap();
    /// w.commit().unwrap();
    /// assert_eq!(
    ///     snap.exec(&c, CounterOp::Read).unwrap(),
    ///     OpResult::Value(Value::Int(5)),
    /// );
    /// snap.commit().unwrap();
    /// ```
    pub fn begin_snapshot(&self) -> Transaction {
        Transaction {
            core: self.begin_snapshot_session(),
            db: self.clone(),
            finished: false,
            _not_sync: PhantomData,
        }
    }

    /// [`Database::begin_snapshot`] returning the bare session core
    /// (shared entry point of the sync and async front-ends).
    pub(crate) fn begin_snapshot_session(&self) -> SessionCore {
        let (id, begin) = self.shared.kernel.begin_snapshot();
        SessionCore::new_snapshot(id, begin)
    }

    /// Run a transaction body, committing on success and transparently
    /// **retrying from scratch** when the scheduler aborts the transaction
    /// (deadlock cycle or commit-dependency cycle).
    ///
    /// The closure receives a fresh [`Transaction`] per attempt; any other
    /// error — including an [`CoreError::Aborted`] of a *different*
    /// transaction the closure chose to propagate — is returned as-is, and
    /// the attempt's transaction is aborted by its guard.
    ///
    /// # Retry classes
    ///
    /// This table is the retry contract, shared verbatim by the async
    /// front-end ([`crate::aio::AsyncDatabase::run`]): exactly these
    /// errors, observed for **the current attempt's own transaction**,
    /// restart the body with a fresh transaction; everything else is
    /// returned to the caller as-is.
    ///
    /// | Class | Surfaced as | Retried? |
    /// |---|---|---|
    /// | Deadlock refusal: blocking would close a wait-for cycle | [`CoreError::Aborted`] with [`AbortReason::DeadlockCycle`](crate::AbortReason::DeadlockCycle) from a body operation | yes |
    /// | Commit-dependency refusal: a recoverable execution would close a commit-dependency cycle (the paper's Lemma-4 guard) | [`CoreError::Aborted`] with [`AbortReason::CommitDependencyCycle`](crate::AbortReason::CommitDependencyCycle) | yes |
    /// | Terminated out from under the attempt: in the async runner, a dropped operation future's cancellation abort | [`CoreError::InvalidState`] with `state:` [`TxnState::Aborted`] for the attempt's own transaction, from a body operation **or** from the final commit | yes |
    /// | Explicit aborts, validation errors, aborts of *other* transactions the body propagates | any other [`CoreError`] | no — returned as-is |
    /// | Retry budget exhausted: a retryable class above recurred more than [`SchedulerConfig::max_retries`] times | [`CoreError::RetriesExhausted`] | no — the livelock guardrail |
    ///
    /// The `InvalidState { state: Aborted }` row is safe to retry because
    /// the guard API gives the closure no way to abort its own transaction
    /// and keep running: only a cancellation abort can have terminated it
    /// out from under a live attempt. The scheduler never produces it — a
    /// cycle aborts only the transaction whose request closes it, and that
    /// request returns the reason.
    ///
    /// Like an aborted-and-restarted terminal in the paper's model, the
    /// retry loop runs until the body either succeeds or fails for a
    /// non-scheduler reason; every cycle abort removes the requester's
    /// operations, so some participant of each cycle always makes
    /// progress. As a guardrail against adversarial schedules (and
    /// against fault-injection harnesses deliberately aborting every
    /// attempt), the loop gives up after
    /// [`SchedulerConfig::max_retries`] retries with
    /// [`CoreError::RetriesExhausted`]; the default budget (10 000) is far
    /// beyond anything a healthy workload reaches.
    ///
    /// # Example
    ///
    /// A commit-dependency cycle refused on the first attempt and gone on
    /// the second — single-threaded, so the retry is fully deterministic:
    ///
    /// ```
    /// use sbcc_core::{ConflictPolicy, Database, SchedulerConfig};
    /// use sbcc_adt::{Stack, StackOp, Value};
    ///
    /// let db = Database::new(
    ///     SchedulerConfig::default().with_policy(ConflictPolicy::Recoverability),
    /// );
    /// let a = db.register("a", Stack::new());
    /// let b = db.register("b", Stack::new());
    ///
    /// // T1 holds an uncommitted push on `a`.
    /// let t1 = db.begin();
    /// t1.exec(&a, StackOp::Push(Value::Int(1))).unwrap();
    ///
    /// let mut attempts = 0;
    /// db.run(|txn| {
    ///     attempts += 1;
    ///     txn.exec(&b, StackOp::Push(Value::Int(2)))?;
    ///     if attempts == 1 {
    ///         // T1 pushes `b` too: T1 now commit-depends on this attempt…
    ///         t1.exec(&b, StackOp::Push(Value::Int(3)))?;
    ///         // …so pushing `a` would close a commit-dependency cycle:
    ///         // the scheduler aborts this attempt, and `run` retries.
    ///         txn.exec(&a, StackOp::Push(Value::Int(4)))?;
    ///     }
    ///     Ok(())
    /// })
    /// .unwrap();
    /// assert_eq!(attempts, 2, "one scheduler abort, one clean attempt");
    /// assert_eq!(db.stats().aborts_commit_cycle, 1);
    /// t1.commit().unwrap();
    /// ```
    pub fn run<R>(
        &self,
        mut body: impl FnMut(&Transaction) -> Result<R, CoreError>,
    ) -> Result<R, CoreError> {
        let max_retries = self.max_retries();
        let mut attempts: usize = 0;
        loop {
            attempts += 1;
            let txn = self.begin();
            let id = txn.id();
            let err = match body(&txn) {
                Ok(value) => match txn.commit() {
                    Ok(_) => return Ok(value),
                    Err(e) => e,
                },
                Err(e) => e,
            };
            if !err.is_retryable_for(id) {
                return Err(err);
            }
            if attempts > max_retries {
                return Err(CoreError::RetriesExhausted { txn: id, attempts });
            }
        }
    }

    /// The configured retry budget shared by both closure runners.
    pub(crate) fn max_retries(&self) -> usize {
        self.shared.kernel.config().scheduler.max_retries
    }

    /// The current state of a transaction.
    ///
    /// The database remembers a terminated transaction's fate only among
    /// its last 1 024 terminations (`RECENT_FATES`). An older one reads
    /// `None`, as an unknown id does, and a late call on it fails with
    /// [`CoreError::UnknownTransaction`] instead of `InvalidState`.
    pub fn txn_state(&self, txn: TxnId) -> Option<TxnState> {
        self.shared.kernel.txn_state(txn)
    }

    /// The commit outcome of a transaction that has (pseudo-)committed:
    /// `Committed` once the actual commit happened, `PseudoCommitted` while
    /// it is still waiting on its commit dependencies, `None` otherwise.
    /// An actual commit reads `Committed` only while it is among the last
    /// 1 024 terminations (see [`Database::txn_state`]); after that, `None`.
    pub fn outcome_of(&self, txn: TxnId) -> Option<CommitOutcome> {
        match self.shared.kernel.txn_state(txn)? {
            TxnState::Committed => Some(CommitOutcome::Committed),
            TxnState::PseudoCommitted => Some(CommitOutcome::PseudoCommitted {
                waiting_on: self.shared.kernel.commit_dependencies_of(txn),
            }),
            _ => None,
        }
    }

    /// Snapshot of the aggregate kernel counters (summed across shards;
    /// transaction-lifecycle counters deduplicated by the coordinator).
    pub fn stats(&self) -> KernelStats {
        self.shared.kernel.stats()
    }

    /// The aggregate counters plus the per-shard breakdown (lock
    /// acquisitions and each shard kernel's own counters).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.shared.kernel.stats_snapshot()
    }

    /// Number of cycle-detection invocations so far, on the one dependency
    /// graph all shards share.
    pub fn cycle_checks(&self) -> u64 {
        self.shared.kernel.cycle_checks()
    }

    /// The smallest begin stamp over live snapshot transactions, or `None`
    /// when no snapshot is live (committing transactions then drop
    /// superseded versions immediately).
    pub fn oldest_snapshot_stamp(&self) -> Option<u64> {
        self.shared.kernel.oldest_snapshot_stamp()
    }

    /// Total number of retained historical object versions across all
    /// shards (versions still needed by live snapshots).
    pub fn version_depth(&self) -> usize {
        self.shared.kernel.version_depth()
    }

    /// Sweep every shard, pruning historical versions no live snapshot can
    /// reach. Returns the number of versions dropped; the cumulative count
    /// (including the pruning commits perform themselves) is
    /// [`KernelStats::versions_pruned`](crate::KernelStats::versions_pruned).
    pub fn prune_versions(&self) -> u64 {
        self.shared.kernel.prune_versions()
    }

    /// Run the commit-order serializability checker on every shard
    /// (requires history recording, which [`SchedulerConfig::default`]
    /// enables).
    pub fn verify_serializable(&self) -> Result<(), String> {
        self.shared.kernel.verify_serializable()
    }

    /// Run the commit-order dependency checker on every shard.
    pub fn verify_commit_dependencies(&self) -> Result<(), String> {
        self.shared.kernel.verify_commit_dependencies()
    }

    /// Check kernel invariants: an acyclic dependency graph whose nodes
    /// all belong to live transactions, and consistent logs and queues on
    /// every shard.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.shared.kernel.check_invariants()
    }

    /// Run a closure against the sharded kernel (advanced / test use).
    pub fn with_sharded_kernel<R>(&self, f: impl FnOnce(&ShardedKernel) -> R) -> R {
        let result = f(&self.shared.kernel);
        self.deliver_events();
        result
    }

    // ------------------------------------------------------------------
    // Session internals (reached through `Transaction`)
    // ------------------------------------------------------------------

    /// Gate a new submission on the session's previous one.
    ///
    /// A `delivered` entry exists when an earlier request settled while no
    /// thread was parked and the caller never claimed it with
    /// [`Transaction::settle_pending`]. A stale *abort* makes the whole
    /// transaction dead and is surfaced now; a stale *result* was
    /// deliberately left unclaimed and is discarded so it cannot be
    /// mistaken for the outcome of the submission that follows.
    ///
    /// While a non-blocking submission is still **pending** (blocked
    /// inside a shard kernel, no outcome delivered yet), the submission is
    /// rejected with the same `InvalidState { state: Blocked }` error the
    /// unsharded kernel returns — without this gate, a request routed to a
    /// *different* shard would be admitted there, because only the shard
    /// holding the pending request knows the transaction is blocked.
    pub(crate) fn admit_submission(
        &self,
        txn: &SessionCore,
        action: &'static str,
    ) -> Result<(), CoreError> {
        let id = txn.id;
        let delivered = self.shared.take_delivered(id);
        if txn.pending.get() {
            return match delivered {
                Some(RequestOutcome::Executed { .. }) => {
                    // Settled while unclaimed: the stale result is
                    // discarded and the session is submittable again.
                    txn.pending.set(false);
                    Ok(())
                }
                Some(RequestOutcome::Aborted { reason }) => {
                    txn.pending.set(false);
                    Err(CoreError::Aborted { txn: id, reason })
                }
                Some(RequestOutcome::Blocked { .. }) => {
                    unreachable!("blocked outcomes are never delivered")
                }
                None => Err(CoreError::InvalidState {
                    txn: id,
                    state: TxnState::Blocked,
                    action,
                }),
            };
        }
        match delivered {
            Some(RequestOutcome::Aborted { reason }) => {
                Err(CoreError::Aborted { txn: id, reason })
            }
            _ => Ok(()),
        }
    }

    /// Enroll the session's transaction into a shard if its session-local
    /// cache has not seen the shard yet. Steady state (every shard already
    /// touched) skips the coordinator entirely: the only lock an exec
    /// takes is the owning shard's.
    fn ensure_session_enrolled(
        &self,
        txn: &SessionCore,
        shard: u32,
        action: &'static str,
    ) -> Result<(), CoreError> {
        if txn.enrolled.borrow().contains(&shard) {
            return Ok(());
        }
        self.shared.kernel.ensure_enrolled(txn.id, shard, action)?;
        txn.enrolled.borrow_mut().push(shard);
        Ok(())
    }

    pub(crate) fn check_loc(&self, loc: ObjectLoc) -> Result<(), CoreError> {
        if (loc.shard as usize) < self.shared.kernel.shard_count() {
            Ok(())
        } else {
            Err(CoreError::UnknownObject(format!(
                "object of shard {} in a {}-shard database",
                loc.shard,
                self.shared.kernel.shard_count()
            )))
        }
    }

    /// Snapshot-path routing shared by the sync and async exec paths: for
    /// a snapshot session, try the multi-version read first. `Ok(Some)` is
    /// the settled result; `Ok(None)` (not a snapshot session, not a pure
    /// observer, or an object this transaction has written) falls through
    /// to the classified path.
    fn snapshot_read_raw(
        &self,
        txn: &SessionCore,
        loc: ObjectLoc,
        call: &OpCall,
    ) -> Result<Option<OpResult>, CoreError> {
        if txn.snapshot.is_none() {
            return Ok(None);
        }
        let result = self.shared.kernel.snapshot_read(txn.id, loc, call);
        // Deliver before `?`: an SSI abort inside the read releases the
        // transaction's claims, and the resulting grants to blocked
        // sessions sit in the event queue.
        self.deliver_events();
        result
    }

    fn exec_call_raw(
        &self,
        txn: &SessionCore,
        loc: ObjectLoc,
        call: OpCall,
    ) -> Result<OpResult, CoreError> {
        let outcome = match self.try_exec_call_raw(txn, loc, call)? {
            RequestOutcome::Blocked { .. } => {
                let settled = self.park_for_outcome(txn.id);
                txn.pending.set(false);
                settled
            }
            settled => settled,
        };
        outcome.into_result(txn.id)
    }

    /// Claim the settled outcome for `txn`'s pending request if it has
    /// already been delivered, or register a fresh [`WaiterSlot`] to wait
    /// on.
    ///
    /// This is the database's **single rendezvous seam**: every waiting
    /// path — per-call exec, grouped submission, `settle_pending`, their
    /// async counterparts, and every shard-originated wakeup — funnels
    /// through this one claim/register pair. The sync front-end parks the
    /// OS thread on the returned slot ([`Database::park_for_outcome`]);
    /// the async front-end polls it ([`WaiterSlot::poll_outcome`]).
    pub(crate) fn claim_or_wait(&self, txn: TxnId) -> Result<RequestOutcome, Arc<WaiterSlot>> {
        // The claim half of the rendezvous: a fill by a concurrent
        // deliverer may land just before or just after this window.
        chaos::reach(ChaosPoint::RendezvousClaim, Some(txn));
        let mut sessions = self.shared.sessions.lock();
        // The request may already have been settled by side effects of
        // the submission itself (the kernel retries blocked requests
        // to fixpoint before returning) or by another thread's
        // termination racing this claim.
        match sessions.delivered.remove(&txn) {
            Some(outcome) => {
                self.shared
                    .delivered_count
                    .fetch_sub(1, std::sync::atomic::Ordering::Release);
                Ok(outcome)
            }
            None => {
                // Wait on a private slot: whichever thread later drains
                // the kernel event that settles this transaction fills
                // the slot and wakes only this session. One slot per
                // transaction — the sync session is `!Sync` and the async
                // session's `waiting` flag rejects a second awaiter, so an
                // existing entry here would be a front-end bug that
                // orphans the first waiter.
                let slot = Arc::new(WaiterSlot::default());
                let previous = sessions.waiters.insert(txn, slot.clone());
                debug_assert!(
                    previous.is_none(),
                    "second waiter slot registered for {txn}"
                );
                Err(slot)
            }
        }
    }

    /// Unregister an async waiter that is being cancelled (its future was
    /// dropped before the outcome arrived). Returns the outcome if the
    /// delivery raced the cancellation and already filled the slot.
    pub(crate) fn cancel_wait(
        &self,
        txn: TxnId,
        slot: &Arc<WaiterSlot>,
    ) -> Option<RequestOutcome> {
        {
            let mut sessions = self.shared.sessions.lock();
            if let Some(registered) = sessions.waiters.get(&txn) {
                // Only remove *our* slot: the session may already have
                // registered a new waiter for a later submission.
                if Arc::ptr_eq(registered, slot) {
                    sessions.waiters.remove(&txn);
                    return None;
                }
            }
        }
        // The deliverer removed the slot from the map before the lock was
        // acquired; the outcome (if any) is inside the slot itself.
        slot.try_take()
    }

    /// Take the settled outcome for `txn`'s pending request, parking the
    /// calling OS thread if it has not settled yet (the sync half of the
    /// rendezvous seam; [`crate::aio`] awaits the same slot instead).
    fn park_for_outcome(&self, txn: TxnId) -> RequestOutcome {
        match self.claim_or_wait(txn) {
            Ok(outcome) => outcome,
            Err(slot) => slot.await_outcome(),
        }
    }

    pub(crate) fn try_exec_call_raw(
        &self,
        txn: &SessionCore,
        loc: ObjectLoc,
        call: OpCall,
    ) -> Result<RequestOutcome, CoreError> {
        let id = txn.id;
        self.check_loc(loc)?;
        self.admit_submission(txn, "request an operation")?;
        if let Some(result) = self.snapshot_read_raw(txn, loc, &call)? {
            return Ok(RequestOutcome::Executed {
                result,
                commit_deps: Vec::new(),
            });
        }
        self.ensure_session_enrolled(txn, loc.shard, "request an operation")?;
        // Deliver before `?`: a rejected request can still have mutated the
        // kernel (a `Requester`-policy conflict aborts the requester, which
        // releases its claims and settles other sessions' waiters), so the
        // generated events must be drained on the error path too. Skipping
        // delivery here strands those waiters until the *next* kernel entry
        // — which never comes if this thread was the last one in.
        let outcome = self.shared.kernel.request_enrolled(id, loc, call);
        self.deliver_events();
        let outcome = outcome?;
        if outcome.is_blocked() {
            txn.pending.set(true);
        }
        Ok(outcome)
    }

    fn settle_pending_raw(&self, txn: &SessionCore) -> Result<OpResult, CoreError> {
        let id = txn.id;
        if !txn.pending.get() {
            return Err(CoreError::NoPendingOperation(id));
        }
        // There IS an operation in flight, so an outcome is guaranteed to
        // be delivered (the thread that settles the request always runs
        // `deliver_events` after publishing): parking cannot be lost, and
        // no kernel-state check is needed — querying it here would race
        // the delivery (settled-but-not-yet-delivered would look like
        // "nothing pending").
        let outcome = match self.shared.take_delivered(id) {
            Some(outcome) => outcome,
            None => self.park_for_outcome(id),
        };
        txn.pending.set(false);
        outcome.into_result(id)
    }

    /// One kernel pass over a grouped submission's remaining calls:
    /// admit, enroll, classify in one index walk per touched shard (see
    /// [`ShardedKernel::request_batch_enrolled`] and
    /// [`crate::SchedulerKernel::request_batch`]).
    ///
    /// On [`BatchPass::MustWait`] the blocking terminator is the
    /// transaction's pending request inside the kernel; the caller waits
    /// for it to settle (parking or awaiting) and feeds the outcome back
    /// through [`Database::batch_resume`]. This split is what lets the
    /// sync and async batch loops share every line of batch logic and
    /// differ only in *how* they sleep.
    pub(crate) fn batch_pass(
        &self,
        txn: &SessionCore,
        run: &mut BatchRun,
    ) -> Result<BatchPass, CoreError> {
        let id = txn.id;
        self.admit_submission(txn, "submit a batch")?;
        // Enrollment through the session cache: steady state takes no
        // coordinator lock, exactly like the per-call exec path.
        for loc in &run.locs {
            self.check_loc(*loc)?;
            self.ensure_session_enrolled(txn, loc.shard, "submit a batch")?;
        }
        let locs_kept = run.locs.clone();
        // Deliver before `?` (see `try_exec_call_raw`): a rejected batch may
        // still have settled other sessions' waiters.
        let outcome = self.shared.kernel.request_batch_enrolled(
            id,
            std::mem::take(&mut run.calls),
            std::mem::take(&mut run.locs),
        );
        self.deliver_events();
        let outcome = outcome?;
        run.results.extend(outcome.executed);
        match outcome.stopped {
            None => Ok(BatchPass::Complete),
            Some(BatchStop::Aborted { reason, .. }) => {
                Err(CoreError::Aborted { txn: id, reason })
            }
            Some(BatchStop::Blocked { rest, index, .. }) => {
                // The unprocessed suffix keeps its original locations
                // (`rest` is always a suffix of the submitted batch).
                run.locs = locs_kept[index + 1..].to_vec();
                debug_assert_eq!(run.locs.len(), rest.len());
                run.calls = rest;
                Ok(BatchPass::MustWait)
            }
        }
    }

    /// Feed the settled outcome of a batch's blocking terminator back into
    /// the run. Returns `Ok(true)` when the batch is complete, `Ok(false)`
    /// when the remaining suffix needs another [`Database::batch_pass`].
    pub(crate) fn batch_resume(
        &self,
        txn: &SessionCore,
        run: &mut BatchRun,
        outcome: RequestOutcome,
    ) -> Result<bool, CoreError> {
        match outcome {
            RequestOutcome::Executed { result, .. } => {
                run.results.push(result);
                Ok(run.calls.is_empty())
            }
            RequestOutcome::Aborted { reason } => {
                Err(CoreError::Aborted { txn: txn.id, reason })
            }
            RequestOutcome::Blocked { .. } => {
                unreachable!("blocked outcomes are never delivered")
            }
        }
    }

    /// Commit in the kernel and deliver the grants the commit released.
    /// The returned [`sbcc_wal::Durable`], when present, is the commit
    /// record's flush: the front-end awaits (or blocks on) it before it
    /// acknowledges `Committed`.
    pub(crate) fn commit_raw(
        &self,
        txn: TxnId,
    ) -> Result<(CommitOutcome, Option<sbcc_wal::Durable>), CoreError> {
        let _ = self.shared.take_delivered(txn);
        // Deliver before `?`: a commit whose vote aborts the *committer*
        // (`Err(Aborted)`) has released the transaction's claims, and the
        // resulting grants to blocked sessions are sitting in the event
        // queue. They must be drained even though commit itself failed —
        // found by the DST harness as a cross-session liveness hang when
        // the aborted committer's session was the last thread to enter the
        // kernel (seed 133's endless `poll T19` tail). Deliver before the
        // durable wait too: the sessions this commit unblocked run while
        // its record waits for the flush.
        let outcome = self.shared.kernel.commit(txn);
        self.deliver_events();
        outcome
    }

    pub(crate) fn abort_raw(&self, txn: TxnId) -> Result<(), CoreError> {
        let _ = self.shared.take_delivered(txn);
        let result = self.shared.kernel.abort(txn);
        self.deliver_events();
        result
    }

    fn deliver_events(&self) {
        let events = self.shared.kernel.drain_events();
        if events.is_empty() {
            return;
        }
        // A drained non-empty batch is owned exclusively by this thread;
        // between here and the sessions lock another session can submit,
        // terminate, or cancel. A chaos hook may also permute the delivery
        // order across transactions (per-transaction order preserved) —
        // cross-transaction delivery order is unordered by contract.
        chaos::reach(ChaosPoint::DeliverDrain, None);
        // `chaos::active()` is a compile-time `false` without the feature,
        // so the reordering branch (and its `Vec<TxnId>`) is statically
        // dead in release builds.
        let events = if chaos::active() {
            let txns: Vec<TxnId> = events.iter().map(|e| e.txn()).collect();
            match chaos::reorder_events(&txns) {
                Some(perm) => {
                    debug_assert_eq!(perm.len(), events.len());
                    let mut slots: Vec<Option<KernelEvent>> =
                        events.into_iter().map(Some).collect();
                    perm.into_iter()
                        .map(|i| slots[i].take().expect("permutation visits each index once"))
                        .collect()
                }
                None => events,
            }
        } else {
            events
        };
        // Claim the waiter slots under the sessions lock, but *fill* them
        // (which signals condvars and runs arbitrary `Waker::wake` code of
        // whatever executor the async front-end sits on) only after the
        // lock is released — a waker that takes its own scheduling lock
        // must never be invoked under the database-wide sessions mutex,
        // or an executor polling into `claim_or_wait` on another thread
        // deadlocks ABBA-style. A claimed slot is owned exclusively by
        // this delivery (a cancelled waiter that misses the map falls
        // back to `WaiterSlot::try_take` and discards), so the deferred
        // fill loses no outcome.
        let mut fills: Vec<(TxnId, Arc<WaiterSlot>, RequestOutcome)> = Vec::new();
        {
            let mut sessions = self.shared.sessions.lock();
            for event in events {
                let (txn, outcome) = match event {
                    KernelEvent::Unblocked { txn, outcome } => (txn, outcome),
                    KernelEvent::Committed { .. } => {
                        // Cascaded commits are observable through
                        // `outcome_of`.
                        continue;
                    }
                };
                match sessions.waiters.remove(&txn) {
                    Some(slot) => fills.push((txn, slot, outcome)),
                    None => {
                        if sessions.delivered.insert(txn, outcome).is_none() {
                            self.shared
                                .delivered_count
                                .fetch_add(1, std::sync::atomic::Ordering::Release);
                        }
                    }
                }
            }
        }
        // Exactly the waiters blocked on these transactions wake; every
        // other parked invocation stays asleep. The claimed-but-unfilled
        // window (and each gap between two fills) is where a cancellation
        // or a second delivery can interleave — both chaos points sit in
        // exactly those gaps.
        chaos::reach(ChaosPoint::DeliverClaimed, None);
        for (txn, slot, outcome) in fills {
            chaos::reach(ChaosPoint::DeliverFill, Some(txn));
            slot.fill(outcome);
        }
    }
}

/// A transaction session: the unit applications program against.
///
/// Obtained from [`Database::begin`] (or per attempt inside
/// [`Database::run`]). Operations block the calling thread while they
/// conflict with uncommitted operations of other transactions. The guard
/// **aborts the transaction on drop** unless [`Transaction::commit`] or
/// [`Transaction::abort`] consumed it first.
///
/// A `Transaction` is driven by one thread at a time: it is `Send` (it may
/// move between threads) but deliberately **not `Sync`** — two threads
/// blocking on the same session would race for its single wakeup slot, so
/// sharing `&Transaction` across threads is a compile error. Start one
/// session per thread instead; that is what the scheduler is for.
#[derive(Debug)]
pub struct Transaction {
    db: Database,
    /// The session bookkeeping shared with the async front-end (id,
    /// enrollment cache, pending-request flag); see [`SessionCore`].
    core: SessionCore,
    finished: bool,
    /// Suppresses `Sync` (a `Cell` is `Send + !Sync`) without affecting
    /// `Send`; see the type-level docs.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl Transaction {
    /// The raw transaction id (for diagnostics and the inspection APIs on
    /// [`Database`]).
    pub fn id(&self) -> TxnId {
        self.core.id()
    }

    /// The snapshot begin stamp for sessions opened through
    /// [`Database::begin_snapshot`], `None` for ordinary sessions.
    pub fn snapshot_stamp(&self) -> Option<u64> {
        self.core.snapshot()
    }

    /// Execute a typed operation, blocking while it conflicts with
    /// uncommitted operations of other transactions.
    pub fn exec<A: AdtSpec>(
        &self,
        object: &Handle<A>,
        op: A::Op,
    ) -> Result<OpResult, CoreError> {
        self.exec_call(object, op.to_call())
    }

    /// Execute an erased operation call, blocking while in conflict.
    ///
    /// Typed [`Handle`]s coerce to [`ObjectHandle`], so this accepts both.
    pub fn exec_call(&self, object: &ObjectHandle, call: OpCall) -> Result<OpResult, CoreError> {
        self.db.exec_call_raw(&self.core, object.loc(), call)
    }

    /// Submit an operation without blocking: returns the raw kernel
    /// outcome. On [`RequestOutcome::Blocked`] the request stays pending
    /// inside the kernel and its eventual outcome is claimed with
    /// [`Transaction::settle_pending`] (an unclaimed executed result is
    /// discarded by the next submission). Intended for tests and tools
    /// that want to observe the scheduler's decisions directly.
    pub fn try_exec_call(
        &self,
        object: &ObjectHandle,
        call: OpCall,
    ) -> Result<RequestOutcome, CoreError> {
        self.db.try_exec_call_raw(&self.core, object.loc(), call)
    }

    /// Claim the outcome of a previously blocked submission
    /// ([`Transaction::try_exec_call`] returning
    /// [`RequestOutcome::Blocked`]), parking the calling thread until it
    /// settles if it has not yet. Returns
    /// [`CoreError::NoPendingOperation`] when there is nothing in flight.
    pub fn settle_pending(&self) -> Result<OpResult, CoreError> {
        self.db.settle_pending_raw(&self.core)
    }

    /// Start building a grouped submission. See [`Batch`].
    pub fn batch(&self) -> Batch<&Transaction> {
        Batch::new(self)
    }

    /// Commit the transaction (actual or pseudo-commit, per the protocol).
    /// Consumes the session; on success the guard will not abort on drop.
    ///
    /// A commit can fail while the transaction is still live — e.g. a
    /// [`Transaction::try_exec_call`] left a blocked request pending — and
    /// in that case the guard still aborts on drop, so the failed session
    /// cannot leak a live transaction that would block others forever.
    ///
    /// On a durable database an actual commit parks the calling thread
    /// until the flush covering its log record has returned; sessions this
    /// commit unblocked are woken before that wait.
    pub fn commit(mut self) -> Result<CommitOutcome, CoreError> {
        let result = self.db.commit_raw(self.id());
        self.finished = result.is_ok();
        let (outcome, durable) = result?;
        if let Some(durable) = durable {
            durable.wait();
        }
        Ok(outcome)
    }

    /// Explicitly abort the transaction. Consumes the session.
    pub fn abort(mut self) -> Result<(), CoreError> {
        self.finished = true;
        self.db.abort_raw(self.id())
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.finished {
            // Best effort: the transaction may already be terminated (e.g.
            // aborted by the scheduler, or pseudo-committed, which by
            // construction cannot abort) — those errors are ignored.
            let _ = self.db.abort_raw(self.id());
        }
    }
}

/// The state of a grouped submission, shared by the sync and async batch
/// loops ([`Database::batch_pass`] / [`Database::batch_resume`]): the
/// calls still to run with their shard locations and the results
/// accumulated so far.
#[derive(Debug, Default)]
pub(crate) struct BatchRun {
    calls: Vec<BatchCall>,
    /// Shard locations, parallel to `calls` (handles carry them, so a
    /// batch never consults the object directory).
    locs: Vec<ObjectLoc>,
    /// One result per executed call, in submission order.
    pub(crate) results: Vec<OpResult>,
}

/// What a [`Database::batch_pass`] left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchPass {
    /// Every remaining call executed; the run is complete.
    Complete,
    /// A call blocked and is now the transaction's pending request; wait
    /// for it to settle, then feed the outcome to
    /// [`Database::batch_resume`].
    MustWait,
}

/// Builder for a grouped submission: several operation calls — often
/// multiple operations on the same object — admitted by the kernel in
/// **one classification pass under one lock acquisition** instead of one
/// kernel round-trip per call.
///
/// Calls execute in the order they were added. Admission is *partial* in
/// exactly the way per-call submission is: a call that conflicts parks the
/// session until the conflict clears, the already-executed prefix stays
/// executed, and [`Batch::submit`] resumes the remainder afterwards — the
/// returned results always cover every call, in order, unless the
/// transaction is aborted (see
/// [`crate::BatchOutcome`] for the precise kernel-level
/// semantics).
///
/// `S` is the session handle the batch submits through: `&Transaction`
/// for the sync front-end ([`Transaction::batch`]), an
/// [`crate::aio::AsyncTransaction`] for the async one
/// ([`crate::aio::AsyncBatch`]). Everything but `submit` is shared.
#[derive(Debug)]
pub struct Batch<S> {
    pub(crate) txn: S,
    pub(crate) run: BatchRun,
}

impl<S> Batch<S> {
    pub(crate) fn new(txn: S) -> Self {
        Batch {
            txn,
            run: BatchRun::default(),
        }
    }

    /// Append a typed operation (chaining form).
    pub fn op<A: AdtSpec>(mut self, object: &Handle<A>, op: A::Op) -> Self {
        self.add_op(object, op);
        self
    }

    /// Append a typed operation (mutating form, for loops).
    pub fn add_op<A: AdtSpec>(&mut self, object: &Handle<A>, op: A::Op) {
        self.add_call(object, op.to_call());
    }

    /// Append an erased call (mutating form, for loops).
    pub fn add_call(&mut self, object: &ObjectHandle, call: OpCall) {
        self.run.calls.push(BatchCall::new(object.id(), call));
        self.run.locs.push(object.loc());
    }

    /// Number of calls queued so far.
    pub fn len(&self) -> usize {
        self.run.calls.len()
    }

    /// `true` when no calls are queued.
    pub fn is_empty(&self) -> bool {
        self.run.calls.is_empty()
    }
}

impl Batch<&Transaction> {
    /// Submit the group, blocking until **every** call has executed.
    /// Returns one result per call, in submission order, or the abort
    /// error if the scheduler aborts the transaction along the way.
    pub fn submit(self) -> Result<Vec<OpResult>, CoreError> {
        if self.is_empty() {
            return Ok(Vec::new());
        }
        let Batch { txn, mut run } = self;
        loop {
            match txn.db.batch_pass(&txn.core, &mut run)? {
                BatchPass::Complete => return Ok(run.results),
                BatchPass::MustWait => {
                    let outcome = txn.db.park_for_outcome(txn.id());
                    if txn.db.batch_resume(&txn.core, &mut run, outcome)? {
                        return Ok(run.results);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ConflictPolicy;
    use sbcc_adt::{Stack, StackOp, TableObject, TableOp, Value};
    use std::time::Duration;

    fn db() -> Database {
        Database::new(SchedulerConfig::default())
    }

    #[test]
    fn register_and_handle_accessors() {
        let db = db();
        let h = db.register("jobs", Stack::new());
        assert_eq!(h.name(), "jobs");
        assert_eq!(h.id(), ObjectId(0));
        assert_eq!(h.erased().name(), "jobs");
        assert_eq!(h.clone(), h, "typed handles are cheap clones");
        assert_eq!(h.clone().into_erased().id(), ObjectId(0));
        assert!(db.try_register("jobs", Stack::new()).is_err());
        let h2 = db
            .register_object("jobs2", Box::new(sbcc_adt::AdtObject::new(Stack::new())))
            .unwrap();
        assert_eq!(h2.id(), ObjectId(1));
        assert_eq!(h2.clone(), h2);
        assert!(format!("{db:?}").contains("Database"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn register_panics_on_duplicate() {
        let db = db();
        db.register("x", Stack::new());
        db.register("x", Stack::new());
    }

    #[test]
    fn pseudo_commit_then_cascaded_commit() {
        let db = db();
        let s = db.register("jobs", Stack::new());
        let t1 = db.begin();
        let t2 = db.begin();
        let (id1, id2) = (t1.id(), t2.id());
        t1.exec(&s, StackOp::Push(Value::Int(4))).unwrap();
        t2.exec(&s, StackOp::Push(Value::Int(2))).unwrap();
        assert_eq!(db.txn_state(t2.id()), Some(TxnState::Active));

        let o2 = t2.commit().unwrap();
        assert!(o2.is_pseudo_commit());
        assert_eq!(db.txn_state(id2), Some(TxnState::PseudoCommitted));
        assert_eq!(db.outcome_of(id2), Some(o2));

        let o1 = t1.commit().unwrap();
        assert!(o1.is_full_commit());
        assert_eq!(db.outcome_of(id2), Some(CommitOutcome::Committed));
        assert_eq!(db.outcome_of(id1), Some(CommitOutcome::Committed));

        db.verify_serializable().unwrap();
        db.verify_commit_dependencies().unwrap();
        db.check_invariants().unwrap();
        let stats = db.stats();
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.pseudo_commits, 1);
        assert!(db.cycle_checks() >= 1);
    }

    #[test]
    fn blocked_exec_wakes_up_when_holder_commits() {
        let db = db();
        let s = db.register("jobs", Stack::new());
        let t1 = db.begin();
        t1.exec(&s, StackOp::Push(Value::Int(7))).unwrap();

        let db2 = db.clone();
        let s2 = s.clone();
        let handle = std::thread::spawn(move || {
            let t2 = db2.begin();
            // pop conflicts with the uncommitted push: this blocks until T1
            // commits, then returns the pushed value.
            let popped = t2.exec(&s2, StackOp::Pop).unwrap();
            t2.commit().unwrap();
            popped
        });

        // Give the other thread time to block, then commit.
        std::thread::sleep(Duration::from_millis(50));
        t1.commit().unwrap();
        let popped = handle.join().expect("worker thread");
        assert_eq!(popped, OpResult::Value(Value::Int(7)));
        db.verify_serializable().unwrap();
        let stats = db.stats();
        assert_eq!(stats.blocks, 1);
        assert_eq!(stats.unblocks, 1);
    }

    #[test]
    fn abort_releases_waiters_without_cascading_aborts() {
        let db = db();
        let table = db.register("accounts", TableObject::new());
        let t1 = db.begin();
        // T1 inserts key 1 but will abort.
        t1.exec(&table, TableOp::Insert(Value::Int(1), Value::Int(100)))
            .unwrap();

        // T2 inserts a *different* key: inserts with distinct keys commute
        // (Yes-DP), so T2 neither blocks behind T1 nor acquires a commit
        // dependency on it, and its commit is a full commit even while T1
        // is still live. The point of the scenario: T1's subsequent abort
        // must not touch T2 in any way (no cascading aborts — exactly what
        // the protocol's recoverability discipline guarantees) and must
        // leave the committed state containing T2's key only.
        let t2 = db.begin();
        t2.exec(&table, TableOp::Insert(Value::Int(2), Value::Int(200)))
            .unwrap();
        assert!(t2.commit().unwrap().is_full_commit());

        let id1 = t1.id();
        t1.abort().unwrap();
        assert_eq!(db.txn_state(id1), Some(TxnState::Aborted));
        db.verify_serializable().unwrap();

        // The committed state contains key 2 only.
        let t3 = db.begin();
        let r = t3.exec(&table, TableOp::Lookup(Value::Int(2))).unwrap();
        assert_eq!(r, OpResult::Value(Value::Int(200)));
        let r = t3.exec(&table, TableOp::Lookup(Value::Int(1))).unwrap();
        assert_eq!(r, OpResult::Null);
        t3.commit().unwrap();
    }

    #[test]
    fn exec_after_scheduler_abort_returns_error() {
        let db = Database::new(
            SchedulerConfig::default().with_policy(ConflictPolicy::CommutativityOnly),
        );
        let s = db.register("s", Stack::new());
        let t1 = db.begin();
        let t2 = db.begin();
        t1.exec(&s, StackOp::Push(Value::Int(1))).unwrap();
        // Under commutativity-only, T2's push conflicts and blocks; force a
        // deadlock by making T1 also wait on T2 through a second object.
        let s2 = db.register("s2", Stack::new());
        t2.exec(&s2, StackOp::Push(Value::Int(2))).unwrap();

        let s_clone = s.clone();
        let blocker =
            std::thread::spawn(move || {
                let r = t2.exec(&s_clone, StackOp::Push(Value::Int(3)));
                (t2, r)
            });
        std::thread::sleep(Duration::from_millis(50));
        // T1 now requests a push on s2 -> wait-for cycle -> T1 is aborted.
        let result = t1.exec(&s2, StackOp::Push(Value::Int(4)));
        assert!(matches!(result, Err(CoreError::Aborted { .. })));
        // T2 unblocks once T1's abort removes its operations.
        let (t2, blocked_result) = blocker.join().unwrap();
        assert!(blocked_result.is_ok());
        t2.commit().unwrap();
        drop(t1); // already aborted; the guard's abort attempt is a no-op
        db.verify_serializable().unwrap();
    }

    #[test]
    fn dropping_a_session_aborts_it() {
        let db = db();
        let s = db.register("s", Stack::new());
        let id = {
            let t = db.begin();
            t.exec(&s, StackOp::Push(Value::Int(1))).unwrap();
            t.id()
            // dropped here without commit
        };
        assert_eq!(db.txn_state(id), Some(TxnState::Aborted));
        assert_eq!(db.stats().aborts_explicit, 1);
        // The dropped transaction's push is gone.
        let t = db.begin();
        assert_eq!(t.exec(&s, StackOp::Top).unwrap(), OpResult::Null);
        t.commit().unwrap();
        db.verify_serializable().unwrap();
    }

    #[test]
    fn run_commits_on_success_and_retries_scheduler_aborts() {
        let db = Database::new(
            SchedulerConfig::default().with_policy(ConflictPolicy::CommutativityOnly),
        );
        let a = db.register("a", Stack::new());
        let b = db.register("b", Stack::new());

        // Plain success path.
        let r = db
            .run(|txn| txn.exec(&a, StackOp::Push(Value::Int(1))))
            .unwrap();
        assert_eq!(r, OpResult::Ok);
        assert_eq!(db.stats().commits, 1);

        // Deadlock path: the holder session owns `b` and (from a worker
        // thread) blocks on `a` once the closure's first attempt holds it;
        // the attempt then requests `b`, closes the cycle, and is aborted
        // as the requester. The retry succeeds after the holder commits.
        let holder = db.begin();
        holder.exec(&b, StackOp::Push(Value::Int(9))).unwrap();
        let mut holder = Some(holder);
        let mut blocker = None;

        let mut attempts = 0;
        let r = db.run(|txn| {
            attempts += 1;
            txn.exec(&a, StackOp::Push(Value::Int(2)))?;
            if attempts == 1 {
                // Only now — with `a` held by this attempt — let the holder
                // block on it, and give it time to do so.
                let holder = holder.take().expect("first attempt only");
                let a2 = a.clone();
                blocker = Some(std::thread::spawn(move || {
                    holder.exec(&a2, StackOp::Push(Value::Int(8))).unwrap();
                    holder.commit().unwrap();
                }));
                std::thread::sleep(Duration::from_millis(50));
            }
            txn.exec(&b, StackOp::Push(Value::Int(3)))
        });
        blocker.take().expect("spawned").join().unwrap();
        assert_eq!(r.unwrap(), OpResult::Ok);
        assert!(attempts >= 2, "first attempt must have been retried");
        assert!(db.stats().scheduler_aborts() >= 1);
        db.verify_serializable().unwrap();
    }

    #[test]
    fn run_retry_budget_surfaces_retries_exhausted() {
        // Every attempt's transaction is aborted out from under the runner
        // (as a cancellation abort would do it each time): with
        // `max_retries = 2` the runner gives up on the third attempt and
        // reports the budget, not the underlying per-attempt error.
        let db = Database::with_config(DatabaseConfig::new(
            SchedulerConfig::default().with_max_retries(2),
        ));
        let s = db.register("c", Stack::new());
        let mut attempts = 0usize;
        let err = db
            .run(|txn| {
                attempts += 1;
                txn.exec(&s, StackOp::Push(Value::Int(1)))?;
                let id = txn.id();
                db.with_sharded_kernel(|k| k.abort(id)).unwrap();
                Ok(())
            })
            .unwrap_err();
        match err {
            CoreError::RetriesExhausted { attempts: a, .. } => {
                assert_eq!(a, 3, "budget of 2 retries = 3 attempts");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(attempts, 3);
        // A zero budget fails on the very first retryable error.
        let db0 = Database::with_config(DatabaseConfig::new(
            SchedulerConfig::default().with_max_retries(0),
        ));
        let s0 = db0.register("c", Stack::new());
        let err = db0
            .run(|txn| {
                txn.exec(&s0, StackOp::Push(Value::Int(1)))?;
                let id = txn.id();
                db0.with_sharded_kernel(|k| k.abort(id)).unwrap();
                Ok(())
            })
            .unwrap_err();
        assert!(
            matches!(err, CoreError::RetriesExhausted { attempts: 1, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn run_propagates_non_scheduler_errors() {
        let db = db();
        let s = db.register("s", Stack::new());
        let mut calls = 0;
        let err = db.run(|_txn| -> Result<(), CoreError> {
            calls += 1;
            Err(CoreError::UnknownObject("nope".into()))
        });
        assert!(matches!(err, Err(CoreError::UnknownObject(_))));
        assert_eq!(calls, 1, "non-scheduler errors are not retried");
        // The failed attempt's transaction was aborted by its guard.
        assert_eq!(db.stats().aborts_explicit, 1);
        let t = db.begin();
        assert_eq!(t.exec(&s, StackOp::Top).unwrap(), OpResult::Null);
        t.commit().unwrap();
    }

    #[test]
    fn batch_executes_all_calls_under_one_submission() {
        let db = db();
        let s = db.register("s", Stack::new());
        let t = db.begin();
        let results = t
            .batch()
            .op(&s, StackOp::Push(Value::Int(1)))
            .op(&s, StackOp::Push(Value::Int(2)))
            .op(&s, StackOp::Top)
            .submit()
            .unwrap();
        assert_eq!(
            results,
            vec![
                OpResult::Ok,
                OpResult::Ok,
                OpResult::Value(Value::Int(2))
            ]
        );
        t.commit().unwrap();
        let stats = db.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_calls, 3);
        assert_eq!(stats.requests, 3, "each batched call counts as a request");
        db.verify_serializable().unwrap();
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let db = db();
        let s = db.register("s", Stack::new());
        let t = db.begin();
        let b = t.batch();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.submit().unwrap(), vec![]);
        assert_eq!(db.stats().batches, 0, "empty batches never reach the kernel");
        let _ = t.exec(&s, StackOp::Top).unwrap();
        t.commit().unwrap();
    }

    #[test]
    fn blocked_batch_resumes_and_returns_every_result() {
        let db = db();
        let s = db.register("s", Stack::new());
        let c = db.register("c", sbcc_adt::Counter::new());
        let t1 = db.begin();
        t1.exec(&s, StackOp::Push(Value::Int(7))).unwrap();

        let db2 = db.clone();
        let (s2, c2) = (s.clone(), c.clone());
        let worker = std::thread::spawn(move || {
            let t2 = db2.begin();
            // Increment commutes (executes immediately); the pop conflicts
            // with T1's uncommitted push and parks the batch; the final
            // increment is resumed after T1 commits.
            let results = t2
                .batch()
                .op(&c2, sbcc_adt::CounterOp::Increment(1))
                .op(&s2, StackOp::Pop)
                .op(&c2, sbcc_adt::CounterOp::Increment(1))
                .submit()
                .unwrap();
            t2.commit().unwrap();
            results
        });

        std::thread::sleep(Duration::from_millis(50));
        t1.commit().unwrap();
        let results = worker.join().expect("worker thread");
        assert_eq!(
            results,
            vec![
                OpResult::Ok,
                OpResult::Value(Value::Int(7)),
                OpResult::Ok
            ]
        );
        assert_eq!(db.stats().blocks, 1);
        assert_eq!(db.stats().unblocks, 1);
        db.verify_serializable().unwrap();
    }

    #[test]
    fn delivered_outcome_is_claimed_by_settle_pending() {
        // The `delivered` map path: a request settles while *no* thread is
        // parked waiting for it, and the outcome is picked up by a later
        // blocking call.
        let db = db();
        let s = db.register("s", Stack::new());
        let t1 = db.begin();
        t1.exec(&s, StackOp::Push(Value::Int(7))).unwrap();

        let t2 = db.begin();
        // Non-blocking submission: the pop conflicts and stays pending
        // inside the kernel; this thread does NOT park.
        let outcome = t2.try_exec_call(&s, StackOp::Pop.to_call()).unwrap();
        assert!(outcome.is_blocked());

        // The holder commits on this same thread: the retried pop executes
        // and its outcome is delivered with no waiter registered, so it
        // lands in the `delivered` map.
        t1.commit().unwrap();

        // ... and is claimed by the later blocking call.
        assert_eq!(
            t2.settle_pending().unwrap(),
            OpResult::Value(Value::Int(7))
        );
        t2.commit().unwrap();
        db.verify_serializable().unwrap();
    }

    #[test]
    fn settle_pending_parks_until_the_outcome_arrives() {
        // Same scenario, but the waiter parks *before* the holder commits:
        // settle_pending must block and be woken by the delivery.
        let db = db();
        let s = db.register("s", Stack::new());
        let t1 = db.begin();
        t1.exec(&s, StackOp::Push(Value::Int(3))).unwrap();

        let t2 = db.begin();
        assert!(t2
            .try_exec_call(&s, StackOp::Pop.to_call())
            .unwrap()
            .is_blocked());

        let worker = std::thread::spawn(move || {
            let popped = t2.settle_pending().unwrap();
            t2.commit().unwrap();
            popped
        });
        std::thread::sleep(Duration::from_millis(50));
        t1.commit().unwrap();
        assert_eq!(
            worker.join().expect("worker"),
            OpResult::Value(Value::Int(3))
        );
        db.verify_serializable().unwrap();
    }

    #[test]
    fn settle_pending_without_a_pending_operation_errors() {
        let db = db();
        let s = db.register("s", Stack::new());
        let t = db.begin();
        assert!(matches!(
            t.settle_pending(),
            Err(CoreError::NoPendingOperation(_))
        ));
        t.exec(&s, StackOp::Push(Value::Int(1))).unwrap();
        assert!(matches!(
            t.settle_pending(),
            Err(CoreError::NoPendingOperation(_)),
        ), "an executed operation leaves nothing pending");
        t.commit().unwrap();
    }

    #[test]
    fn blocked_session_cannot_submit_elsewhere() {
        // The single-kernel contract: a transaction with a pending blocked
        // request rejects every further submission with
        // InvalidState{Blocked}. Across shards only the shard holding the
        // pending request knows, so the session layer enforces it — this
        // must behave identically at every shard count (exercised under
        // both SBCC_SHARDS CI configurations, and pinned here at 4 shards
        // with objects spread wide).
        let db = Database::with_config(
            crate::shard::DatabaseConfig::new(SchedulerConfig::default()).with_shards(4),
        );
        let handles: Vec<_> = (0..8).map(|i| db.register(format!("s{i}"), Stack::new())).collect();
        let t1 = db.begin();
        t1.exec(&handles[0], StackOp::Push(Value::Int(7))).unwrap();

        let t2 = db.begin();
        assert!(t2
            .try_exec_call(&handles[0], StackOp::Pop.to_call())
            .unwrap()
            .is_blocked());
        // Every other object — wherever it lives — must reject t2 now.
        for h in &handles[1..] {
            assert!(
                matches!(
                    t2.exec_call(h, StackOp::Push(Value::Int(1)).to_call()),
                    Err(CoreError::InvalidState {
                        state: TxnState::Blocked,
                        ..
                    })
                ),
                "blocked session must not execute on {}",
                h.name()
            );
        }
        assert!(matches!(
            t2.batch().op(&handles[1], StackOp::Top).submit(),
            Err(CoreError::InvalidState {
                state: TxnState::Blocked,
                ..
            })
        ));
        // Once the conflict clears, the pending pop settles and the
        // session is usable again.
        t1.commit().unwrap();
        assert_eq!(t2.settle_pending().unwrap(), OpResult::Value(Value::Int(7)));
        t2.exec(&handles[3], StackOp::Push(Value::Int(2))).unwrap();
        t2.commit().unwrap();
        db.verify_serializable().unwrap();
        db.check_invariants().unwrap();
    }

    #[test]
    fn stale_delivered_result_is_discarded_by_the_next_submission() {
        let db = db();
        let s = db.register("s", Stack::new());
        let t1 = db.begin();
        t1.exec(&s, StackOp::Push(Value::Int(7))).unwrap();

        let t2 = db.begin();
        assert!(t2
            .try_exec_call(&s, StackOp::Pop.to_call())
            .unwrap()
            .is_blocked());
        t1.commit().unwrap(); // settles T2's pop into the delivered map

        // T2 never claims the pop's result and submits something new: the
        // stale result must not be mistaken for the new call's outcome.
        assert_eq!(
            t2.exec(&s, StackOp::Push(Value::Int(9))).unwrap(),
            OpResult::Ok
        );
        t2.commit().unwrap();
        db.verify_serializable().unwrap();
    }

    #[test]
    fn failed_commit_still_aborts_the_session_on_drop() {
        let db = db();
        let s = db.register("s", Stack::new());
        let t1 = db.begin();
        t1.exec(&s, StackOp::Push(Value::Int(1))).unwrap();
        let t2 = db.begin();
        let id2 = t2.id();
        // A non-blocking conflicting submission leaves T2 blocked inside
        // the kernel...
        assert!(t2
            .try_exec_call(&s, StackOp::Pop.to_call())
            .unwrap()
            .is_blocked());
        // ...so the commit is rejected — and the consumed guard must still
        // abort the transaction instead of leaking it in the blocked state
        // (where it would stall every future conflicting session).
        assert!(matches!(
            t2.commit(),
            Err(CoreError::InvalidState {
                state: TxnState::Blocked,
                ..
            })
        ));
        assert_eq!(db.txn_state(id2), Some(TxnState::Aborted));
        t1.commit().unwrap();
        db.verify_serializable().unwrap();
        db.check_invariants().unwrap();
    }

    #[test]
    fn with_sharded_kernel_exposes_the_kernel() {
        let db = db();
        db.register("s", Stack::new());
        let count = db.with_sharded_kernel(|k| k.object_count());
        assert_eq!(count, 1);
        assert!(db.shard_count() >= 1);
    }

    #[test]
    fn abort_reason_is_surfaced_after_unparked_abort() {
        // A transaction aborted while its outcome sits in the delivered map
        // reports the abort on its next submission.
        let db = Database::new(
            SchedulerConfig::default().with_policy(ConflictPolicy::CommutativityOnly),
        );
        let s = db.register("s", Stack::new());
        let t1 = db.begin();
        t1.exec(&s, StackOp::Push(Value::Int(1))).unwrap();
        let t2 = db.begin();
        assert!(t2
            .try_exec_call(&s, StackOp::Push(Value::Int(2)).to_call())
            .unwrap()
            .is_blocked());
        // T1 aborts; T2's pending push is retried and executes.
        t1.abort().unwrap();
        assert_eq!(t2.settle_pending().unwrap(), OpResult::Ok);
        t2.commit().unwrap();
        assert_eq!(db.stats().aborts_explicit, 1);
    }

    #[test]
    fn stale_delivered_abort_is_reported_by_the_next_submission() {
        let db = Database::new(
            SchedulerConfig::default().with_policy(ConflictPolicy::CommutativityOnly),
        );
        let s = db.register("s", Stack::new());
        let s2 = db.register("s2", Stack::new());
        let t1 = db.begin();
        let t2 = db.begin();
        t1.exec(&s, StackOp::Push(Value::Int(1))).unwrap();
        t2.exec(&s2, StackOp::Push(Value::Int(2))).unwrap();
        // T2 parks a conflicting push inside the kernel (non-blocking).
        assert!(t2
            .try_exec_call(&s, StackOp::Push(Value::Int(3)).to_call())
            .unwrap()
            .is_blocked());
        // T1 requests a push on s2 -> wait-for cycle -> T1 (the requester)
        // is aborted; T2's pending push then executes and is delivered with
        // no waiter parked.
        assert!(t1.exec(&s2, StackOp::Push(Value::Int(4))).is_err());
        drop(t1);
        assert_eq!(t2.settle_pending().unwrap(), OpResult::Ok);
        t2.commit().unwrap();
        db.verify_serializable().unwrap();
    }
}
