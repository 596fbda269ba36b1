//! The asynchronous session front-end: futures instead of parked threads,
//! so **one runtime thread multiplexes thousands of in-flight
//! transactions**.
//!
//! # Why this exists
//!
//! The paper's scheduler admits far more interleavings than
//! commutativity-based locking, but the sync front-end
//! ([`crate::Database`]) parks one OS thread per blocked transaction, so
//! the concurrency the semantics buy is capped by thread count. This
//! module removes that cap: an [`AsyncTransaction`] operation that
//! conflicts with uncommitted work *suspends its future* instead of the
//! thread, and the executor runs other sessions — including the very
//! holder whose commit will unblock it. (With the sync API, a single
//! thread driving two conflicting sessions would deadlock itself; with
//! the async API it cannot.)
//!
//! # How it works
//!
//! There is **no new kernel, batching or event-delivery code** here. Both
//! front-ends drive the same [`Database`] internals through the same
//! per-transaction rendezvous: a blocked request registers a private
//! waiter slot, and whichever thread drains the kernel event that settles
//! the transaction fills exactly that slot. The slot is two-variant — a
//! condvar for a parked thread, a [`std::task::Waker`] for a suspended
//! future — and the fill path serves both, so every scheduling decision,
//! admission, blocking and wakeup is *identical* between the two APIs
//! (pinned by the async-vs-sync differential proptest suite in
//! `crates/core/tests/async_differential.rs`).
//!
//! # Executor-agnostic
//!
//! The futures returned here are plain [`std::future::Future`]s with
//! thread-safe wakers: any executor can drive them, including multiple
//! sync threads delivering wakeups from outside the runtime. No tokio (or
//! any other runtime) dependency is taken; this module ships a minimal
//! current-thread [`block_on`] and a [`LocalExecutor`] that are entirely
//! sufficient to multiplex thousands of sessions on one thread (see
//! `examples/async_front_end.rs` for 10 000 concurrent transactions).
//!
//! [`AsyncTransaction`] is intentionally `!Send` (it is an [`Rc`]-shared
//! handle): a session is driven by one thread, exactly like the sync
//! guard. The [`Database`] underneath is shared freely — sync and async
//! sessions interleave on the same objects (see
//! [`AsyncDatabase::from_database`]).
//!
//! # Migration from the sync session API
//!
//! | sync session ([`crate::db`])         | async session (this module)                     |
//! |--------------------------------------|-------------------------------------------------|
//! | `Database::new(cfg)`                 | `AsyncDatabase::new(cfg)`                       |
//! | `db.register(name, adt)`             | `db.register(name, adt)` (unchanged)            |
//! | `db.begin() -> Transaction`          | `db.begin() -> AsyncTransaction`                |
//! | `txn.exec(&h, op)?`                  | `txn.exec(&h, op).await?`                       |
//! | `txn.exec_call(&h, call)?`           | `txn.exec_call(&h, call).await?`                |
//! | `txn.try_exec_call(&h, call)?`       | `txn.try_exec_call(&h, call)?` (still sync)     |
//! | `txn.settle_pending()?`              | `txn.settle_pending().await?`                   |
//! | `txn.batch().op(…).submit()?`        | `txn.batch().op(…).submit().await?`             |
//! | `txn.commit()?` / `txn.abort()?`     | `txn.commit().await?` / `txn.abort().await?`    |
//! | `db.run(\|txn\| …)?`                 | `db.run(\|txn\| async move { … }).await?`       |
//! | blocked ⇒ the OS thread parks        | blocked ⇒ the future suspends                   |
//! | dropping the guard aborts            | dropping the last handle aborts                 |
//!
//! Two deliberate differences:
//!
//! * [`AsyncTransaction`] is a cheaply **cloneable handle** (the clones
//!   share one session), because `run` moves it into the body's `async
//!   move` block while the runner keeps a clone for the commit. All
//!   clones name the same transaction; the auto-abort fires when the last
//!   clone drops without a commit/abort.
//! * **Cancellation aborts.** Dropping an `exec`/`submit`/`settle`
//!   future *before it resolves* while the operation is blocked inside
//!   the kernel aborts the transaction (there is no one left to claim the
//!   outcome, and a forever-blocked transaction would stall every
//!   conflicting session). Transactions whose futures you may cancel
//!   should be wrapped in [`AsyncDatabase::run`], which treats the abort
//!   like any other scheduler abort. The one exception is `commit`: it
//!   suspends only after the transaction has committed in memory
//!   (waiting for a durable log flush), so dropping it gives up the
//!   acknowledgement, not the commit.
//!
//! # Example
//!
//! ```
//! use sbcc_core::aio::{block_on, AsyncDatabase};
//! use sbcc_core::SchedulerConfig;
//! use sbcc_adt::{Counter, CounterOp, OpResult, Stack, StackOp, Value};
//!
//! let db = AsyncDatabase::new(SchedulerConfig::default());
//! let jobs = db.register("jobs", Stack::new());
//! let hits = db.register("hits", Counter::new());
//!
//! let top = block_on(async {
//!     // A grouped submission: both operations admitted in one kernel
//!     // pass, exactly like the sync `Batch`.
//!     let txn = db.begin();
//!     let results = txn
//!         .batch()
//!         .op(&jobs, StackOp::Push(Value::Int(42)))
//!         .op(&hits, CounterOp::Increment(1))
//!         .submit()
//!         .await?;
//!     assert_eq!(results, vec![OpResult::Ok, OpResult::Ok]);
//!     txn.commit().await?;
//!
//!     // The closure runner retries on scheduler aborts and commits on Ok.
//!     db.run(|txn| {
//!         let jobs = jobs.clone();
//!         async move { txn.exec(&jobs, StackOp::Top).await }
//!     })
//!     .await
//! })
//! .unwrap();
//! assert_eq!(top, OpResult::Value(Value::Int(42)));
//! ```

use crate::db::{Batch, BatchPass, Database, Handle, ObjectHandle, SessionCore, WaiterSlot};
use crate::errors::CoreError;
use crate::events::{CommitOutcome, RequestOutcome};
use crate::policy::SchedulerConfig;
use crate::shard::DatabaseConfig;
use crate::stats::{KernelStats, StatsSnapshot};
use crate::txn::{TxnId, TxnState};
use crate::chaos::sync::{Condvar, Mutex};
use sbcc_adt::{AdtOp, AdtSpec, OpCall, OpResult, SemanticObject};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

// ---------------------------------------------------------------------
// AsyncDatabase
// ---------------------------------------------------------------------

/// The async counterpart of [`Database`]: same kernel, same objects, same
/// scheduling decisions — sessions are futures instead of thread-blocking
/// guards. See the [module documentation](self) for the model and the
/// migration table.
///
/// Cheaply cloneable and shareable across threads (each clone is a handle
/// to the same database). The [`AsyncTransaction`]s it hands out are
/// single-threaded (`!Send`).
#[derive(Clone, Debug)]
pub struct AsyncDatabase {
    db: Database,
}

impl AsyncDatabase {
    /// Create an async database with the given scheduler configuration
    /// (shard count from `SBCC_SHARDS`, like [`Database::new`]).
    pub fn new(config: SchedulerConfig) -> Self {
        AsyncDatabase {
            db: Database::new(config),
        }
    }

    /// Create an async database with an explicit [`DatabaseConfig`].
    pub fn with_config(config: DatabaseConfig) -> Self {
        AsyncDatabase {
            db: Database::with_config(config),
        }
    }

    /// Wrap an existing [`Database`]: async sessions begun here interleave
    /// with sync sessions begun on `db` against the same objects — the
    /// kernel (and the differential test suite) cannot tell them apart.
    pub fn from_database(db: Database) -> Self {
        AsyncDatabase { db }
    }

    /// The underlying sync-API database (registration, inspection and
    /// sync sessions all remain available).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Register a typed atomic data type instance (see
    /// [`Database::register`]).
    ///
    /// # Panics
    ///
    /// Panics if an object with the same name is already registered.
    pub fn register<A: AdtSpec>(&self, name: impl Into<String>, adt: A) -> Handle<A> {
        self.db.register(name, adt)
    }

    /// Register an erased semantic object.
    pub fn register_object(
        &self,
        name: impl Into<String>,
        object: Box<dyn SemanticObject>,
    ) -> Result<ObjectHandle, CoreError> {
        self.db.register_object(name, object)
    }

    /// Begin an async transaction session.
    ///
    /// Beginning never blocks, so this is an ordinary method; every
    /// operation on the returned session is a future. The transaction
    /// aborts when the last clone of the handle is dropped without an
    /// explicit [`AsyncTransaction::commit`] / [`AsyncTransaction::abort`].
    pub fn begin(&self) -> AsyncTransaction {
        AsyncTransaction {
            inner: Rc::new(TxnInner {
                core: self.db.begin_session(),
                db: self.db.clone(),
                finished: Cell::new(false),
                waiting: Cell::new(false),
            }),
        }
    }

    /// Begin an async **snapshot** transaction session: read-only
    /// operations observe the newest committed version at or below the
    /// session's begin stamp without classification or blocking, guarded
    /// by SSI rw-antidependency tracking — the async counterpart of
    /// [`Database::begin_snapshot`], which documents the semantics.
    pub fn begin_snapshot(&self) -> AsyncTransaction {
        AsyncTransaction {
            inner: Rc::new(TxnInner {
                core: self.db.begin_snapshot_session(),
                db: self.db.clone(),
                finished: Cell::new(false),
                waiting: Cell::new(false),
            }),
        }
    }

    /// Run a transaction body, committing on success and transparently
    /// **retrying from scratch** when the scheduler aborts the transaction
    /// (deadlock cycle or commit-dependency cycle) —
    /// the async analogue of [`Database::run`], which documents the exact
    /// retry classes both front-ends share in one table (see *Retry
    /// classes* there; this runner adds no class of its own).
    ///
    /// The closure receives a fresh [`AsyncTransaction`] per attempt and
    /// should move it into an `async move` block; the runner keeps a
    /// clone and commits once the body returns `Ok` (the body must not
    /// commit or abort itself). A cancellation abort (a dropped operation
    /// future, see the [module docs](self)) surfaces as the
    /// `InvalidState { state: Aborted }` row of that table and is retried
    /// like any other scheduler abort. The same
    /// [`SchedulerConfig::max_retries`] budget applies: once exhausted the
    /// runner returns [`CoreError::RetriesExhausted`] instead of looping.
    ///
    /// ```
    /// use sbcc_core::aio::{block_on, AsyncDatabase};
    /// use sbcc_core::SchedulerConfig;
    /// use sbcc_adt::{Counter, CounterOp, OpResult, Value};
    ///
    /// let db = AsyncDatabase::new(SchedulerConfig::default());
    /// let hits = db.register("hits", Counter::new());
    /// let result = block_on(db.run(|txn| {
    ///     let hits = hits.clone();
    ///     async move { txn.exec(&hits, CounterOp::Increment(1)).await }
    /// }))
    /// .unwrap();
    /// assert_eq!(result, OpResult::Ok);
    /// assert_eq!(db.stats().commits, 1);
    /// ```
    pub async fn run<R, Fut>(
        &self,
        mut body: impl FnMut(AsyncTransaction) -> Fut,
    ) -> Result<R, CoreError>
    where
        Fut: Future<Output = Result<R, CoreError>>,
    {
        let max_retries = self.db.max_retries();
        let mut attempts: usize = 0;
        loop {
            attempts += 1;
            let txn = self.begin();
            let keeper = txn.clone();
            let id = keeper.id();
            let err = match body(txn).await {
                Ok(value) => match keeper.commit().await {
                    Ok(_) => return Ok(value),
                    Err(e) => e,
                },
                Err(e) => e,
            };
            // `InvalidState { state: Aborted }` here is a cancellation
            // abort of one of this attempt's own operation futures.
            if !err.is_retryable_for(id) {
                return Err(err);
            }
            if attempts > max_retries {
                return Err(CoreError::RetriesExhausted { txn: id, attempts });
            }
        }
    }

    /// The current state of a transaction.
    pub fn txn_state(&self, txn: TxnId) -> Option<TxnState> {
        self.db.txn_state(txn)
    }

    /// Number of scheduler-kernel shards behind this database.
    pub fn shard_count(&self) -> usize {
        self.db.shard_count()
    }

    /// Snapshot of the aggregate kernel counters.
    pub fn stats(&self) -> KernelStats {
        self.db.stats()
    }

    /// The aggregate counters plus the per-shard breakdown.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.db.stats_snapshot()
    }

    /// Run the commit-order serializability checker on every shard.
    pub fn verify_serializable(&self) -> Result<(), String> {
        self.db.verify_serializable()
    }

    /// Check kernel invariants on every shard.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.db.check_invariants()
    }
}

// ---------------------------------------------------------------------
// AsyncTransaction
// ---------------------------------------------------------------------

/// The session state behind every clone of one [`AsyncTransaction`].
#[derive(Debug)]
struct TxnInner {
    db: Database,
    core: SessionCore,
    finished: Cell<bool>,
    /// `true` while a [`Settled`] future of this session holds the
    /// registered waiter slot. A session has **one** waiter slot, so a
    /// second clone trying to await concurrently (e.g. two
    /// `settle_pending` calls racing) is rejected instead of silently
    /// overwriting the first waiter's slot — which would strand the first
    /// future forever.
    waiting: Cell<bool>,
}

impl Drop for TxnInner {
    fn drop(&mut self) {
        if !self.finished.get() {
            // Best effort, exactly like the sync guard: the transaction
            // may already be terminated (scheduler abort, pseudo-commit).
            let _ = self.db.abort_raw(self.core.id());
        }
    }
}

/// An async transaction session: the futures-based counterpart of
/// [`crate::Transaction`].
///
/// Obtained from [`AsyncDatabase::begin`] (or per attempt inside
/// [`AsyncDatabase::run`]). Operations whose requests conflict with
/// uncommitted operations of other transactions return futures that stay
/// pending until the conflict clears — the driving thread is never
/// parked, so one executor thread can hold thousands of sessions
/// mid-conflict at once.
///
/// Cloning is cheap and yields another handle to the *same* session
/// (needed so [`AsyncDatabase::run`] can move the handle into the body's
/// future while retaining one for the commit). The transaction aborts
/// when the last clone drops without [`AsyncTransaction::commit`] /
/// [`AsyncTransaction::abort`]. The handle is deliberately `!Send`: a
/// session is driven by one thread, like the sync guard (the `Database`
/// and its wakeups remain fully thread-safe underneath).
#[derive(Clone, Debug)]
pub struct AsyncTransaction {
    inner: Rc<TxnInner>,
}

impl AsyncTransaction {
    /// The raw transaction id (for diagnostics and the inspection APIs on
    /// [`AsyncDatabase`]).
    pub fn id(&self) -> TxnId {
        self.inner.core.id()
    }

    /// The transaction's current scheduler state.
    pub fn state(&self) -> Option<TxnState> {
        self.inner.db.txn_state(self.id())
    }

    /// Execute a typed operation; the future resolves once the operation
    /// has executed (suspending while it conflicts with uncommitted
    /// operations of other transactions).
    pub async fn exec<A: AdtSpec>(
        &self,
        object: &Handle<A>,
        op: A::Op,
    ) -> Result<OpResult, CoreError> {
        self.exec_call(object, op.to_call()).await
    }

    /// Execute an erased operation call, suspending while in conflict.
    ///
    /// Typed [`Handle`]s coerce to [`ObjectHandle`], so this accepts both.
    pub async fn exec_call(
        &self,
        object: &ObjectHandle,
        call: OpCall,
    ) -> Result<OpResult, CoreError> {
        let inner = &self.inner;
        let id = inner.core.id();
        let outcome = inner.db.try_exec_call_raw(&inner.core, object.loc(), call)?;
        let outcome = if outcome.is_blocked() {
            self.settled()?.await
        } else {
            outcome
        };
        inner.core.set_pending(false);
        outcome.into_result(id)
    }

    /// Submit an operation without suspending: returns the raw kernel
    /// outcome, exactly like [`crate::Transaction::try_exec_call`]. On
    /// [`RequestOutcome::Blocked`] the request stays pending inside the
    /// kernel; claim its eventual outcome with
    /// [`AsyncTransaction::settle_pending`].
    pub fn try_exec_call(
        &self,
        object: &ObjectHandle,
        call: OpCall,
    ) -> Result<RequestOutcome, CoreError> {
        self.inner
            .db
            .try_exec_call_raw(&self.inner.core, object.loc(), call)
    }

    /// Claim the outcome of a previously blocked submission
    /// ([`AsyncTransaction::try_exec_call`] returning
    /// [`RequestOutcome::Blocked`]), suspending until it settles. The
    /// async counterpart of [`crate::Transaction::settle_pending`]: a
    /// result that settled while nothing awaited it (kept in the
    /// database's `delivered` map) is claimed without suspending at all.
    pub async fn settle_pending(&self) -> Result<OpResult, CoreError> {
        let inner = &self.inner;
        let id = inner.core.id();
        if !inner.core.pending() {
            return Err(CoreError::NoPendingOperation(id));
        }
        let outcome = self.settled()?.await;
        inner.core.set_pending(false);
        outcome.into_result(id)
    }

    /// Start building a grouped submission. See [`AsyncBatch`] (and
    /// [`crate::Batch`] for the shared partial-admission semantics).
    pub fn batch(&self) -> AsyncBatch {
        Batch::new(self.clone())
    }

    /// Commit the transaction (actual or pseudo-commit, per the
    /// protocol). A commit never waits for another transaction — one whose
    /// commit dependencies are still live **pseudo-commits** and the
    /// kernel finishes the commit later. It suspends only on a durable
    /// database, for an actual commit: the future resolves once the
    /// group-commit flush covering its log record has returned, and the
    /// executor runs other sessions meanwhile. Sessions this commit
    /// unblocked are woken before it suspends.
    ///
    /// On success no clone of the handle will abort on drop. A failed
    /// commit (e.g. a pending blocked request) leaves the auto-abort
    /// armed, exactly like the sync guard.
    ///
    /// **Cancelling the durable wait does not abort.** The transaction is
    /// committed in memory before the future first suspends, so dropping
    /// the future mid-wait only gives up the acknowledgement: the
    /// transaction stays committed, its record is flushed with the next
    /// group, and reopening the log replays it.
    pub async fn commit(self) -> Result<CommitOutcome, CoreError> {
        let result = self.inner.db.commit_raw(self.id());
        if result.is_ok() {
            self.inner.finished.set(true);
        }
        let (outcome, durable) = result?;
        if let Some(durable) = durable {
            durable.await;
        }
        Ok(outcome)
    }

    /// Explicitly abort the transaction. Never suspends; a future for API
    /// symmetry only.
    pub async fn abort(self) -> Result<(), CoreError> {
        self.inner.finished.set(true);
        self.inner.db.abort_raw(self.id())
    }

    /// A future resolving to the settled outcome of this session's
    /// pending request: either claims an already-delivered outcome or
    /// registers this session's waiter slot **now** (before first poll),
    /// so a wakeup can never slip between submission and registration.
    ///
    /// Errors when another clone of this session is already awaiting the
    /// outcome: a session has exactly one waiter slot, and a second
    /// registration would orphan the first waiter.
    fn settled(&self) -> Result<Settled, CoreError> {
        if self.inner.waiting.get() {
            return Err(CoreError::InvalidState {
                txn: self.id(),
                state: TxnState::Blocked,
                action: "await an outcome another clone is already awaiting",
            });
        }
        self.inner.waiting.set(true);
        Ok(match self.inner.db.claim_or_wait(self.id()) {
            Ok(outcome) => Settled {
                inner: self.inner.clone(),
                slot: None,
                ready: Some(outcome),
                completed: false,
            },
            Err(slot) => Settled {
                inner: self.inner.clone(),
                slot: Some(slot),
                ready: None,
                completed: false,
            },
        })
    }
}

/// Future for the settled outcome of a session's pending request.
///
/// **Cancellation aborts**: dropping this future before it resolves
/// leaves nobody to claim the outcome of a request that may stay blocked
/// inside a shard kernel indefinitely — so the drop glue unregisters the
/// waiter slot and aborts the transaction, which also unblocks every
/// session waiting *on* this transaction. See the [module docs](self).
struct Settled {
    inner: Rc<TxnInner>,
    slot: Option<Arc<WaiterSlot>>,
    ready: Option<RequestOutcome>,
    completed: bool,
}

impl Future for Settled {
    type Output = RequestOutcome;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<RequestOutcome> {
        let this = self.get_mut();
        if let Some(outcome) = this.ready.take() {
            this.completed = true;
            this.inner.waiting.set(false);
            return Poll::Ready(outcome);
        }
        let slot = this.slot.as_ref().expect("Settled polled after completion");
        match slot.poll_outcome(cx) {
            Poll::Ready(outcome) => {
                this.completed = true;
                this.inner.waiting.set(false);
                this.slot = None;
                Poll::Ready(outcome)
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

impl Drop for Settled {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        self.inner.waiting.set(false);
        // Cancelled mid-wait. Unregister the slot first so the abort's own
        // event delivery does not fill a waiter nobody owns anymore; an
        // outcome that raced in is deliberately discarded — the caller
        // abandoned it.
        if let Some(slot) = self.slot.take() {
            let _ = self.inner.db.cancel_wait(self.inner.core.id(), &slot);
        }
        self.inner.core.set_pending(false);
        if !self.inner.finished.get() {
            self.inner.finished.set(true);
            let _ = self.inner.db.abort_raw(self.inner.core.id());
        }
    }
}

// ---------------------------------------------------------------------
// AsyncBatch
// ---------------------------------------------------------------------

/// Builder for an async grouped submission: [`crate::Batch`] over an
/// [`AsyncTransaction`], with identical builder methods and
/// partial-admission semantics (the two share the batch state machine;
/// only the waiting differs). Calls execute in the order they were added;
/// `submit` resolves once every call has executed, suspending as often as
/// needed.
pub type AsyncBatch = Batch<AsyncTransaction>;

impl Batch<AsyncTransaction> {
    /// Submit the group; the future resolves once **every** call has
    /// executed, with one result per call in submission order, or with
    /// the abort error if the scheduler aborts the transaction along the
    /// way.
    pub async fn submit(self) -> Result<Vec<OpResult>, CoreError> {
        if self.is_empty() {
            return Ok(Vec::new());
        }
        let Batch { txn, mut run } = self;
        let inner = &txn.inner;
        loop {
            match inner.db.batch_pass(&inner.core, &mut run)? {
                BatchPass::Complete => return Ok(run.results),
                BatchPass::MustWait => {
                    // Guard the session against concurrent submissions
                    // from other clones while the terminator is pending,
                    // exactly like a blocked `try_exec_call`.
                    inner.core.set_pending(true);
                    let outcome = txn.settled()?.await;
                    inner.core.set_pending(false);
                    if inner.db.batch_resume(&inner.core, &mut run, outcome)? {
                        return Ok(run.results);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Minimal executor harness
// ---------------------------------------------------------------------

/// A block_on / cross-thread wakeup signal (condvar-backed).
struct Signal {
    notified: Mutex<bool>,
    cond: Condvar,
}

impl Signal {
    fn new() -> Arc<Self> {
        Arc::new(Signal {
            notified: Mutex::new(false),
            cond: Condvar::new(),
        })
    }

    fn wait(&self) {
        let mut notified = self.notified.lock();
        while !*notified {
            self.cond.wait(&mut notified);
        }
        *notified = false;
    }
}

impl Wake for Signal {
    fn wake(self: Arc<Self>) {
        *self.notified.lock() = true;
        self.cond.notify_one();
    }
}

/// Drive a single future to completion on the calling thread, parking the
/// thread between polls.
///
/// This is the minimal current-thread entry point the module's futures
/// need — no runtime crate involved. Wakeups may come from any thread
/// (e.g. a sync session's commit delivering an outcome), so the waker is
/// a thread-safe condvar signal. For *many* concurrent sessions, spawn
/// them on a [`LocalExecutor`] (or any other executor) instead of
/// chaining `block_on` calls.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let signal = Signal::new();
    let waker = Waker::from(signal.clone());
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => signal.wait(),
        }
    }
}

/// The cross-thread half of [`LocalExecutor`]: the ready queue wakers
/// push task ids into. `Send + Sync` so outcomes delivered by *other* OS
/// threads (sync sessions, other executors) can wake tasks here.
struct ReadyQueue {
    ready: Mutex<VecDeque<usize>>,
    cond: Condvar,
}

impl ReadyQueue {
    fn push(&self, id: usize) {
        self.ready.lock().push_back(id);
        self.cond.notify_one();
    }

    fn pop_or_wait(&self) -> usize {
        let mut ready = self.ready.lock();
        loop {
            if let Some(id) = ready.pop_front() {
                return id;
            }
            self.cond.wait(&mut ready);
        }
    }

    fn try_pop(&self) -> Option<usize> {
        self.ready.lock().pop_front()
    }
}

/// Wakes one [`LocalExecutor`] task: pushes its id back onto the ready
/// queue (and unparks the executor thread if it is sleeping).
struct TaskWaker {
    id: usize,
    queue: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.queue.push(self.id);
    }
}

/// A minimal single-threaded executor: spawn any number of `!Send`
/// futures (async transactions included) and multiplex them on the
/// calling thread.
///
/// Scheduling is deterministic FIFO: tasks are polled in spawn order, and
/// a woken task re-queues behind already-ready ones. Wakers are
/// thread-safe, so sessions blocked in the kernel are woken by whichever
/// thread (this one or any sync session's) delivers their outcome.
///
/// This is a demonstration-grade harness, deliberately tiny; the async
/// front-end itself is executor-agnostic and runs unchanged under any
/// future executor.
///
/// ```
/// use sbcc_core::aio::{AsyncDatabase, LocalExecutor};
/// use sbcc_core::SchedulerConfig;
/// use sbcc_adt::{Counter, CounterOp};
///
/// let db = AsyncDatabase::new(SchedulerConfig::default());
/// let hits = db.register("hits", Counter::new());
/// let executor = LocalExecutor::new();
/// for _ in 0..100 {
///     let db = db.clone();
///     let hits = hits.clone();
///     executor.spawn(async move {
///         db.run(|txn| {
///             let hits = hits.clone();
///             async move { txn.exec(&hits, CounterOp::Increment(1)).await }
///         })
///         .await
///         .unwrap();
///     });
/// }
/// executor.run();
/// assert_eq!(db.stats().commits, 100);
/// ```
pub struct LocalExecutor {
    queue: Arc<ReadyQueue>,
    /// The spawned tasks, by id. A task is temporarily removed from the
    /// map while it is being polled (which also makes re-entrant spawns
    /// from inside a poll safe).
    tasks: RefCell<HashMap<usize, Pin<Box<dyn Future<Output = ()>>>>>,
    next_id: Cell<usize>,
    live: Cell<usize>,
}

impl Default for LocalExecutor {
    fn default() -> Self {
        LocalExecutor::new()
    }
}

impl LocalExecutor {
    /// An executor with no tasks.
    pub fn new() -> Self {
        LocalExecutor {
            queue: Arc::new(ReadyQueue {
                ready: Mutex::new(VecDeque::new()),
                cond: Condvar::new(),
            }),
            tasks: RefCell::new(HashMap::new()),
            next_id: Cell::new(0),
            live: Cell::new(0),
        }
    }

    /// Queue a future for execution (it is first polled inside
    /// [`LocalExecutor::run`] / [`LocalExecutor::run_until_stalled`], in
    /// spawn order). Futures need not be `Send`; they never leave this
    /// thread.
    pub fn spawn(&self, future: impl Future<Output = ()> + 'static) {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        self.tasks.borrow_mut().insert(id, Box::pin(future));
        self.live.set(self.live.get() + 1);
        self.queue.push(id);
    }

    /// Number of spawned tasks that have not completed yet.
    pub fn pending_tasks(&self) -> usize {
        self.live.get()
    }

    /// Drive every spawned task to completion, sleeping when all pending
    /// tasks wait on wakeups from other threads.
    ///
    /// Termination relies on every pending task having a wakeup in
    /// flight; the database guarantees this for blocked sessions (an
    /// outcome is always delivered), so `run` returns once all sessions
    /// settle.
    pub fn run(&self) {
        while self.live.get() > 0 {
            let id = self.queue.pop_or_wait();
            self.poll_task(id);
        }
    }

    /// Poll every ready task (including ones that become ready during the
    /// call) without ever sleeping, then return — useful for tests that
    /// interleave executor progress with sync-session activity on the
    /// same thread.
    pub fn run_until_stalled(&self) {
        while let Some(id) = self.queue.try_pop() {
            self.poll_task(id);
        }
    }

    fn poll_task(&self, id: usize) {
        // A task can be woken more than once (or complete before a stale
        // wake drains); a missing entry is simply skipped.
        let Some(mut task) = self.tasks.borrow_mut().remove(&id) else {
            return;
        };
        let waker = Waker::from(Arc::new(TaskWaker {
            id,
            queue: self.queue.clone(),
        }));
        let mut cx = Context::from_waker(&waker);
        match task.as_mut().poll(&mut cx) {
            Poll::Ready(()) => self.live.set(self.live.get() - 1),
            Poll::Pending => {
                self.tasks.borrow_mut().insert(id, task);
            }
        }
    }
}

/// Cooperatively yield to the executor once: pending on first poll (after
/// scheduling an immediate wake), ready on the next. Lets long chains of
/// non-blocking operations share a [`LocalExecutor`] thread fairly — the
/// async sessions only suspend on their own when an operation actually
/// conflicts.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.yielded {
            Poll::Ready(())
        } else {
            this.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// The winner of a [`race`] between two futures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceWinner<A, B> {
    /// The left future resolved first (ties go left).
    Left(A),
    /// The right future resolved first.
    Right(B),
}

/// Race two futures; the loser is **dropped** when the winner resolves.
/// Polls left-biased, so a tie resolves `Left`.
///
/// This is the session-teardown primitive for connection-oriented
/// front-ends: race a session's operation future (left) against a
/// disconnect notification (right). When the notification wins, dropping
/// the in-flight operation future triggers this module's cancellation
/// contract — the waiter slot is unregistered and the transaction aborts,
/// which also unblocks every session waiting *on* it (see the [module
/// docs](self) on cancellation). No orphaned session outlives its
/// connection, and no waiter is left stranded behind one.
pub fn race<A: Future, B: Future>(left: A, right: B) -> Race<A, B> {
    Race {
        left: Some(Box::pin(left)),
        right: Some(Box::pin(right)),
    }
}

/// Future returned by [`race`].
#[derive(Debug)]
pub struct Race<A: Future, B: Future> {
    // Boxed so the combinator needs no unsafe pin projection; the races a
    // front-end runs wrap socket-bound operations, where one small
    // allocation per operation is noise.
    left: Option<Pin<Box<A>>>,
    right: Option<Pin<Box<B>>>,
}

impl<A: Future, B: Future> Future for Race<A, B> {
    type Output = RaceWinner<A::Output, B::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let left = this.left.as_mut().expect("Race polled after completion");
        if let Poll::Ready(value) = left.as_mut().poll(cx) {
            this.left = None;
            this.right = None; // drop the loser now, not at Race's drop
            return Poll::Ready(RaceWinner::Left(value));
        }
        let right = this.right.as_mut().expect("Race polled after completion");
        if let Poll::Ready(value) = right.as_mut().poll(cx) {
            this.left = None; // drop the loser: cancellation contract fires
            this.right = None;
            return Poll::Ready(RaceWinner::Right(value));
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::AbortReason;
    use crate::policy::ConflictPolicy;
    use sbcc_adt::{Stack, StackOp, Value};

    fn db() -> AsyncDatabase {
        AsyncDatabase::new(SchedulerConfig::default())
    }

    #[test]
    fn block_on_plain_and_yielding_futures() {
        assert_eq!(block_on(async { 40 + 2 }), 42);
        assert_eq!(
            block_on(async {
                yield_now().await;
                yield_now().await;
                7
            }),
            7
        );
    }

    #[test]
    fn race_is_left_biased_and_drops_the_loser() {
        // Tie: both sides are immediately ready, the left wins.
        assert_eq!(
            block_on(race(async { 1 }, async { 2 })),
            RaceWinner::Left(1)
        );
        // Left pending, right ready: the right wins.
        assert_eq!(
            block_on(race(
                async {
                    yield_now().await;
                    1
                },
                async { 2 }
            )),
            RaceWinner::Right(2)
        );
    }

    #[test]
    fn race_loss_cancels_a_blocked_operation() {
        // The disconnect-teardown seam: a blocked exec future loses a race
        // and is dropped, which must abort its transaction and unblock the
        // session waiting behind it.
        let db = db();
        let s = db.register("jobs", Stack::new());
        let executor = LocalExecutor::new();
        let popped: Rc<RefCell<Option<OpResult>>> = Rc::new(RefCell::new(None));

        let holder = db.begin();
        block_on(holder.exec(&s, StackOp::Push(Value::Int(7)))).unwrap();
        let blocked_id = Rc::new(Cell::new(None));

        let db2 = db.clone();
        let s2 = s.clone();
        let blocked_id2 = blocked_id.clone();
        executor.spawn(async move {
            let t = db2.begin();
            blocked_id2.set(Some(t.id()));
            // Conflicts with the holder's uncommitted push, so the exec
            // suspends; the ready right-hand side then wins the race and
            // the exec future is dropped mid-wait.
            let won = race(t.exec(&s2, StackOp::Pop), yield_now()).await;
            assert!(matches!(won, RaceWinner::Right(())));
        });
        let db3 = db.clone();
        let s3 = s.clone();
        let popped2 = popped.clone();
        executor.spawn(async move {
            let t = db3.begin();
            // Also blocks behind the holder; must not be stranded behind
            // the cancelled session once the holder commits.
            let r = t.exec(&s3, StackOp::Pop).await.unwrap();
            t.commit().await.unwrap();
            *popped2.borrow_mut() = Some(r);
        });
        executor.spawn(async move {
            // One tick so the race's right side resolves (and the exec is
            // cancelled) before the holder releases the conflict.
            yield_now().await;
            holder.commit().await.unwrap();
        });
        executor.run();
        assert_eq!(
            db.txn_state(blocked_id.get().unwrap()),
            Some(TxnState::Aborted),
            "losing the race aborts the cancelled session"
        );
        assert_eq!(*popped.borrow(), Some(OpResult::Value(Value::Int(7))));
        db.verify_serializable().unwrap();
    }

    #[test]
    fn executor_drives_spawned_tasks_fifo() {
        let executor = LocalExecutor::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let order = order.clone();
            executor.spawn(async move {
                order.borrow_mut().push(i);
                yield_now().await;
                order.borrow_mut().push(i + 10);
            });
        }
        assert_eq!(executor.pending_tasks(), 4);
        executor.run();
        assert_eq!(executor.pending_tasks(), 0);
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 10, 11, 12, 13]);
    }

    #[test]
    fn exec_commit_and_auto_abort() {
        let db = db();
        let s = db.register("jobs", Stack::new());
        block_on(async {
            let t = db.begin();
            assert_eq!(t.state(), Some(TxnState::Active));
            assert_eq!(
                t.exec(&s, StackOp::Push(Value::Int(4))).await.unwrap(),
                OpResult::Ok
            );
            t.commit().await.unwrap();

            // Dropping the last handle of an uncommitted session aborts it.
            let t2 = db.begin();
            let id2 = t2.id();
            t2.exec(&s, StackOp::Push(Value::Int(9))).await.unwrap();
            drop(t2);
            assert_eq!(db.txn_state(id2), Some(TxnState::Aborted));

            let t3 = db.begin();
            assert_eq!(
                t3.exec(&s, StackOp::Top).await.unwrap(),
                OpResult::Value(Value::Int(4))
            );
            t3.abort().await.unwrap();
        });
        assert_eq!(db.stats().commits, 1);
        assert_eq!(db.stats().aborts_explicit, 2);
        db.verify_serializable().unwrap();
    }

    #[test]
    fn one_thread_multiplexes_conflicting_sessions() {
        // The capability the sync API cannot offer: a single thread holds
        // the blocking holder AND the blocked waiter, and the executor
        // interleaves them to completion.
        let db = db();
        let s = db.register("jobs", Stack::new());
        let executor = LocalExecutor::new();
        let popped: Rc<RefCell<Option<OpResult>>> = Rc::new(RefCell::new(None));

        let holder = db.begin();
        block_on(holder.exec(&s, StackOp::Push(Value::Int(7)))).unwrap();

        let db2 = db.clone();
        let s2 = s.clone();
        let popped2 = popped.clone();
        executor.spawn(async move {
            let t = db2.begin();
            // Conflicts with the holder's uncommitted push: suspends.
            let r = t.exec(&s2, StackOp::Pop).await.unwrap();
            t.commit().await.unwrap();
            *popped2.borrow_mut() = Some(r);
        });
        executor.spawn(async move {
            // Runs while the first task is suspended, on the same thread.
            holder.commit().await.unwrap();
        });
        executor.run();
        assert_eq!(*popped.borrow(), Some(OpResult::Value(Value::Int(7))));
        assert_eq!(db.stats().blocks, 1);
        assert_eq!(db.stats().unblocks, 1);
        db.verify_serializable().unwrap();
    }

    #[test]
    fn wakeup_from_a_sync_thread_resumes_the_future() {
        // Mixed mode: the async session blocks, and a *sync* session on
        // another OS thread delivers the wakeup through the same slot.
        let db = db();
        let s = db.register("jobs", Stack::new());
        let sync_db = db.database().clone();
        let t1 = sync_db.begin();
        t1.exec(&s, StackOp::Push(Value::Int(3))).unwrap();

        let committer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            t1.commit().unwrap();
        });
        let r = block_on(async {
            let t2 = db.begin();
            let r = t2.exec(&s, StackOp::Pop).await.unwrap();
            t2.commit().await.unwrap();
            r
        });
        committer.join().unwrap();
        assert_eq!(r, OpResult::Value(Value::Int(3)));
        db.verify_serializable().unwrap();
    }

    #[test]
    fn wake_before_poll_is_not_lost() {
        // The delivery fires while the exec future is suspended but
        // before its next poll: manual polling pins the order — poll
        // (registers the slot + waker), fill from outside, poll again.
        let db = db();
        let s = db.register("jobs", Stack::new());
        let t1 = db.database().begin();
        t1.exec(&s, StackOp::Push(Value::Int(5))).unwrap();

        let t2 = db.begin();
        let fut = t2.exec_call(&s, StackOp::Pop.to_call());
        let mut fut = Box::pin(fut);
        let mut cx = Context::from_waker(Waker::noop());
        // First poll submits the request; it conflicts and suspends.
        assert!(fut.as_mut().poll(&mut cx).is_pending());
        // The outcome is delivered (and the stored waker woken) with no
        // poll in progress...
        t1.commit().unwrap();
        // ...and the next poll must find it in the slot.
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(Ok(r)) => assert_eq!(r, OpResult::Value(Value::Int(5))),
            other => panic!("expected ready pop result, got {other:?}"),
        }
        drop(fut);
        block_on(t2.commit()).unwrap();
        db.verify_serializable().unwrap();
    }

    #[test]
    fn cancelled_exec_future_aborts_and_unblocks_waiters() {
        // T1 holds the stack; T2 (async) executes one op, then blocks and
        // its exec future is dropped mid-wait; T3 is blocked *behind* T2.
        // The cancellation must abort T2 and thereby unblock T3.
        let db = db();
        let s = db.register("jobs", Stack::new());
        let s2 = db.register("other", Stack::new());
        let t1 = db.database().begin();
        t1.exec(&s, StackOp::Push(Value::Int(1))).unwrap();

        let t2 = db.begin();
        let id2 = t2.id();
        block_on(t2.exec(&s2, StackOp::Push(Value::Int(2)))).unwrap();
        {
            let fut = t2.exec_call(&s, StackOp::Pop.to_call());
            let mut fut = Box::pin(fut);
            let mut cx = Context::from_waker(Waker::noop());
            assert!(fut.as_mut().poll(&mut cx).is_pending());
            // Dropped while blocked inside the kernel.
        }
        assert_eq!(db.txn_state(id2), Some(TxnState::Aborted));

        // T3 would have waited on T2's uncommitted push on `other`; after
        // the cancellation abort it executes immediately.
        let t3 = db.database().begin();
        let r = t3.exec(&s2, StackOp::Pop).unwrap();
        assert_eq!(r, OpResult::Null, "t2's cancelled push was undone");
        t3.commit().unwrap();
        t1.commit().unwrap();
        // Later use of the cancelled session reports the terminated state.
        assert!(matches!(
            block_on(t2.exec(&s, StackOp::Top)),
            Err(CoreError::InvalidState {
                state: TxnState::Aborted,
                ..
            })
        ));
        db.verify_serializable().unwrap();
        db.check_invariants().unwrap();
    }

    #[test]
    fn cancelled_settle_discards_a_raced_outcome() {
        // The outcome settles concurrently with the cancellation: the
        // filled slot is discarded and the transaction still aborts.
        let db = db();
        let s = db.register("jobs", Stack::new());
        let t1 = db.database().begin();
        t1.exec(&s, StackOp::Push(Value::Int(4))).unwrap();

        let t2 = db.begin();
        let id2 = t2.id();
        assert!(t2
            .try_exec_call(&s, StackOp::Pop.to_call())
            .unwrap()
            .is_blocked());
        {
            let fut = t2.settle_pending();
            let mut fut = Box::pin(fut);
            let mut cx = Context::from_waker(Waker::noop());
            assert!(fut.as_mut().poll(&mut cx).is_pending());
            // The holder commits: T2's pop executes and fills the slot...
            t1.commit().unwrap();
            // ...but the future is dropped without being polled again.
        }
        assert_eq!(db.txn_state(id2), Some(TxnState::Aborted));
        // The abort undid the pop: the pushed value is still there.
        let t3 = db.database().begin();
        assert_eq!(
            t3.exec(&s, StackOp::Top).unwrap(),
            OpResult::Value(Value::Int(4))
        );
        t3.commit().unwrap();
        db.verify_serializable().unwrap();
    }

    #[test]
    fn second_concurrent_awaiter_is_rejected_not_orphaned() {
        // Two clones of one session must not both register waiter slots:
        // the second awaiter errors instead of silently replacing the
        // first one's slot (which would strand the first future forever).
        let db = db();
        let s = db.register("jobs", Stack::new());
        let t1 = db.database().begin();
        t1.exec(&s, StackOp::Push(Value::Int(9))).unwrap();

        let t2 = db.begin();
        let t2b = t2.clone();
        assert!(t2
            .try_exec_call(&s, StackOp::Pop.to_call())
            .unwrap()
            .is_blocked());
        let first = t2.settle_pending();
        let mut first = Box::pin(first);
        let mut cx = Context::from_waker(Waker::noop());
        assert!(first.as_mut().poll(&mut cx).is_pending());
        // The clone's competing await is rejected up front...
        assert!(matches!(
            block_on(t2b.settle_pending()),
            Err(CoreError::InvalidState {
                state: TxnState::Blocked,
                ..
            })
        ));
        // ...and the original waiter still receives its outcome.
        t1.commit().unwrap();
        match first.as_mut().poll(&mut cx) {
            Poll::Ready(Ok(r)) => assert_eq!(r, OpResult::Value(Value::Int(9))),
            other => panic!("first awaiter must win, got {other:?}"),
        }
        drop(first);
        block_on(t2.commit()).unwrap();
        db.verify_serializable().unwrap();
    }

    #[test]
    fn settle_pending_claims_a_delivered_outcome() {
        // The `delivered`-map path for an async session: the request
        // settles while nothing awaits it, and `settle_pending` claims it
        // without suspending.
        let db = db();
        let s = db.register("jobs", Stack::new());
        let t1 = db.database().begin();
        t1.exec(&s, StackOp::Push(Value::Int(7))).unwrap();

        let t2 = db.begin();
        assert!(t2
            .try_exec_call(&s, StackOp::Pop.to_call())
            .unwrap()
            .is_blocked());
        // Settles with no waiter registered -> delivered map.
        t1.commit().unwrap();
        block_on(async {
            assert_eq!(
                t2.settle_pending().await.unwrap(),
                OpResult::Value(Value::Int(7))
            );
            t2.commit().await.unwrap();
        });
        assert!(matches!(
            block_on(db.begin().settle_pending()),
            Err(CoreError::NoPendingOperation(_))
        ));
        db.verify_serializable().unwrap();
    }

    #[test]
    fn async_batch_resumes_across_conflicts() {
        let db = db();
        let s = db.register("jobs", Stack::new());
        let c = db.register("hits", sbcc_adt::Counter::new());
        let t1 = db.database().begin();
        t1.exec(&s, StackOp::Push(Value::Int(7))).unwrap();

        let executor = LocalExecutor::new();
        let results = Rc::new(RefCell::new(Vec::new()));
        let (db2, s2, c2, results2) = (db.clone(), s.clone(), c.clone(), results.clone());
        executor.spawn(async move {
            let t2 = db2.begin();
            // Increment commutes; the pop conflicts and suspends the
            // batch; the final increment resumes after T1 commits.
            let r = t2
                .batch()
                .op(&c2, sbcc_adt::CounterOp::Increment(1))
                .op(&s2, StackOp::Pop)
                .op(&c2, sbcc_adt::CounterOp::Increment(1))
                .submit()
                .await
                .unwrap();
            t2.commit().await.unwrap();
            *results2.borrow_mut() = r;
        });
        executor.run_until_stalled();
        assert!(results.borrow().is_empty(), "batch is parked mid-group");
        t1.commit().unwrap();
        executor.run();
        assert_eq!(
            *results.borrow(),
            vec![
                OpResult::Ok,
                OpResult::Value(Value::Int(7)),
                OpResult::Ok
            ]
        );
        let stats = db.stats();
        assert_eq!(stats.blocks, 1);
        assert_eq!(stats.unblocks, 1);
        // At least the initial pass and the post-block resumption pass
        // (under SBCC_SHARDS > 1 the group additionally splits into
        // per-shard runs, each a pass of its own).
        assert!(stats.batches >= 2, "initial + resumption passes");
        db.verify_serializable().unwrap();

        // Empty async batches never reach the kernel.
        let batches_before = db.stats().batches;
        block_on(async {
            let t = db.begin();
            let b = t.batch();
            assert!(b.is_empty());
            assert_eq!(b.len(), 0);
            assert_eq!(b.submit().await.unwrap(), vec![]);
            t.commit().await.unwrap();
        });
        assert_eq!(db.stats().batches, batches_before);
    }

    #[test]
    fn run_retries_scheduler_aborts_across_tasks() {
        // Two `run` bodies deadlock each other on one executor thread; the
        // requester that closes the cycle is aborted and retried, and both
        // eventually commit.
        let db = AsyncDatabase::new(
            SchedulerConfig::default().with_policy(ConflictPolicy::CommutativityOnly),
        );
        let a = db.register("a", Stack::new());
        let b = db.register("b", Stack::new());
        let executor = LocalExecutor::new();
        for (first, second) in [(a.clone(), b.clone()), (b.clone(), a.clone())] {
            let db = db.clone();
            executor.spawn(async move {
                db.run(|txn| {
                    let (first, second) = (first.clone(), second.clone());
                    async move {
                        txn.exec(&first, StackOp::Push(Value::Int(1))).await?;
                        // Let the other task take its first object before
                        // requesting the second: guarantees the cycle.
                        yield_now().await;
                        yield_now().await;
                        txn.exec(&second, StackOp::Push(Value::Int(2))).await
                    }
                })
                .await
                .unwrap();
            });
        }
        executor.run();
        assert_eq!(db.stats().commits, 2);
        assert!(
            db.stats().scheduler_aborts() >= 1,
            "the cycle must have cost at least one abort"
        );
        db.verify_serializable().unwrap();
        db.check_invariants().unwrap();
    }

    #[test]
    fn run_propagates_non_scheduler_errors() {
        let db = db();
        let mut calls = 0;
        let err = block_on(db.run(|_txn| {
            calls += 1;
            async { Err::<(), _>(CoreError::UnknownObject("nope".into())) }
        }));
        assert!(matches!(err, Err(CoreError::UnknownObject(_))));
        assert_eq!(calls, 1, "non-scheduler errors are not retried");
        assert_eq!(db.stats().aborts_explicit, 1, "attempt aborted by its handle");
    }

    #[test]
    fn run_retries_a_cancellation_abort() {
        // A body whose first attempt cancels its own blocked exec mid-wait
        // surfaces InvalidState{Aborted}; `run` restarts it.
        let db = db();
        let s = db.register("jobs", Stack::new());
        let holder = db.database().begin();
        holder.exec(&s, StackOp::Push(Value::Int(1))).unwrap();

        let mut attempts = 0;
        let mut holder = Some(holder);
        let r = block_on(db.run(|txn| {
            attempts += 1;
            let s = s.clone();
            let first = attempts == 1;
            if first {
                // Cancel a blocked pop by polling it once and dropping it.
                let fut = txn.exec_call(&s, StackOp::Pop.to_call());
                let mut fut = Box::pin(fut);
                let mut cx = Context::from_waker(Waker::noop());
                assert!(fut.as_mut().poll(&mut cx).is_pending());
                drop(fut);
                // The attempt now reports its own aborted state.
                if let Some(h) = holder.take() {
                    h.commit().unwrap();
                }
            }
            async move {
                txn.exec(&s, StackOp::Push(Value::Int(3))).await
            }
        }));
        assert_eq!(r.unwrap(), OpResult::Ok);
        assert!(attempts >= 2, "cancellation abort must be retried");
        db.verify_serializable().unwrap();
    }

    #[test]
    fn aborted_reason_surfaces_from_exec() {
        let db = AsyncDatabase::new(
            SchedulerConfig::default().with_policy(ConflictPolicy::CommutativityOnly),
        );
        let s = db.register("s", Stack::new());
        let s2 = db.register("s2", Stack::new());
        let executor = LocalExecutor::new();
        let seen = Rc::new(Cell::new(false));
        let (db1, sa, sb) = (db.clone(), s.clone(), s2.clone());
        let seen1 = seen.clone();
        executor.spawn(async move {
            let t1 = db1.begin();
            t1.exec(&sa, StackOp::Push(Value::Int(1))).await.unwrap();
            yield_now().await;
            yield_now().await;
            // Closes the cycle: t1 is the requester and is aborted.
            let err = t1.exec(&sb, StackOp::Push(Value::Int(2))).await;
            assert!(matches!(
                err,
                Err(CoreError::Aborted {
                    reason: AbortReason::DeadlockCycle,
                    ..
                })
            ));
            seen1.set(true);
        });
        let (db2, sa, sb) = (db.clone(), s.clone(), s2.clone());
        executor.spawn(async move {
            let t2 = db2.begin();
            t2.exec(&sb, StackOp::Push(Value::Int(3))).await.unwrap();
            yield_now().await;
            // Blocks behind t1's push; resumes when t1 is aborted.
            t2.exec(&sa, StackOp::Push(Value::Int(4))).await.unwrap();
            t2.commit().await.unwrap();
        });
        executor.run();
        assert!(seen.get());
        assert_eq!(db.stats().commits, 1);
        db.verify_serializable().unwrap();
    }

    /// A 4-shard database plus `n` object names probed (via
    /// [`crate::shard::shard_of_name`]) to land on `n` distinct shards, so
    /// the waiter-race tests below exercise the sharded claim/fill path
    /// with genuinely cross-shard sessions.
    fn sharded_db_with_names(n: usize) -> (AsyncDatabase, Vec<String>) {
        const SHARDS: usize = 4;
        let db = AsyncDatabase::with_config(
            DatabaseConfig::new(SchedulerConfig::default()).with_shards(SHARDS),
        );
        let mut names = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0.. {
            let name = format!("obj{i}");
            if seen.insert(crate::shard::shard_of_name(&name, SHARDS)) {
                names.push(name);
                if names.len() == n {
                    break;
                }
            }
        }
        (db, names)
    }

    #[test]
    fn sharded_cancelled_settle_discards_a_raced_outcome() {
        // The PR-4 cancellation/delivery race, re-run on the sharded path:
        // the pending request lives in one shard while the session is also
        // enrolled in another, so the cancellation abort must fan out
        // through the coordinator and undo both shards' effects.
        let (db, names) = sharded_db_with_names(2);
        let contested = db.register(&names[0], Stack::new());
        let other = db.register(&names[1], Stack::new());
        let t1 = db.database().begin();
        t1.exec(&contested, StackOp::Push(Value::Int(4))).unwrap();

        let t2 = db.begin();
        let id2 = t2.id();
        // Enroll in a second shard before blocking in the first.
        block_on(t2.exec(&other, StackOp::Push(Value::Int(8)))).unwrap();
        assert!(t2
            .try_exec_call(&contested, StackOp::Pop.to_call())
            .unwrap()
            .is_blocked());
        {
            let fut = t2.settle_pending();
            let mut fut = Box::pin(fut);
            let mut cx = Context::from_waker(Waker::noop());
            assert!(fut.as_mut().poll(&mut cx).is_pending());
            // The holder commits: T2's pop executes and fills the slot...
            t1.commit().unwrap();
            // ...but the future is dropped without being polled again.
        }
        assert_eq!(db.txn_state(id2), Some(TxnState::Aborted));
        // The cancellation abort undid the work in *both* shards.
        let t3 = db.database().begin();
        assert_eq!(
            t3.exec(&contested, StackOp::Top).unwrap(),
            OpResult::Value(Value::Int(4)),
            "cancelled pop undone in the contested shard"
        );
        assert_eq!(
            t3.exec(&other, StackOp::Top).unwrap(),
            OpResult::Null,
            "cancelled push undone in the other shard"
        );
        t3.commit().unwrap();
        db.verify_serializable().unwrap();
        db.check_invariants().unwrap();
    }

    #[test]
    fn sharded_second_concurrent_awaiter_is_rejected_not_orphaned() {
        // Second-awaiter rejection at 4 shards: the pending-request gate
        // lives in the session layer, so a clone awaiting from the same
        // session must be rejected even when the pending request is parked
        // in a different shard than the clone last touched.
        let (db, names) = sharded_db_with_names(2);
        let contested = db.register(&names[0], Stack::new());
        let other = db.register(&names[1], Stack::new());
        let t1 = db.database().begin();
        t1.exec(&contested, StackOp::Push(Value::Int(9))).unwrap();

        let t2 = db.begin();
        let t2b = t2.clone();
        block_on(t2.exec(&other, StackOp::Push(Value::Int(1)))).unwrap();
        assert!(t2
            .try_exec_call(&contested, StackOp::Pop.to_call())
            .unwrap()
            .is_blocked());
        let first = t2.settle_pending();
        let mut first = Box::pin(first);
        let mut cx = Context::from_waker(Waker::noop());
        assert!(first.as_mut().poll(&mut cx).is_pending());
        // The clone's competing await is rejected up front...
        assert!(matches!(
            block_on(t2b.settle_pending()),
            Err(CoreError::InvalidState {
                state: TxnState::Blocked,
                ..
            })
        ));
        // ...and the original waiter still receives its outcome.
        t1.commit().unwrap();
        match first.as_mut().poll(&mut cx) {
            Poll::Ready(Ok(r)) => assert_eq!(r, OpResult::Value(Value::Int(9))),
            other => panic!("first awaiter must win, got {other:?}"),
        }
        drop(first);
        block_on(t2.commit()).unwrap();
        db.verify_serializable().unwrap();
        db.check_invariants().unwrap();
    }
}
