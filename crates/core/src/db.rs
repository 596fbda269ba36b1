//! The session-based, thread-safe front-end over the sharded scheduler
//! kernel ([`ShardedKernel`]): typed [`Handle`]s, [`Transaction`] guards
//! and the [`Database::run`] retry runner.
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
//!   remains for erased callers, one operation per kernel request;
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
//! stays the same — handles, blocking, retry semantics, aggregate
//! [`KernelStats`] — and [`Database::stats_snapshot`] additionally exposes
//! the per-shard breakdown. See the [`crate::shard`] module docs for the sharding
//! invariants and the cross-shard commit protocol.
//!
//! # Blocking and wakeups
//!
//! A blocked request waits until a conflicting transaction terminates.
//! Wakeups are **per transaction**: each waiting invocation registers a
//! private waiter slot, and the kernel's event stream delivers an outcome
//! directly into the slot of exactly the transaction it concerns. A
//! commit therefore wakes only the sessions it actually unblocked — there
//! is no global broadcast that stampedes every waiter on every
//! termination.
//!
//! There is **one session implementation**, and it is async: a waiting
//! request is a future that stores its [`std::task::Waker`] in the slot,
//! and the fill wakes that waker. Every [`Transaction`] method that can
//! wait is [`crate::aio::block_on`] of the same future an
//! [`crate::aio::AsyncTransaction`] awaits, so the blocking API parks the
//! calling OS thread in `block_on` and takes exactly the async session's
//! scheduling decisions. If parking a thread per blocked transaction is
//! your bottleneck, switch to [`crate::aio::AsyncDatabase`] (migration
//! table in the [`crate::aio`] module docs) and multiplex thousands of
//! sessions on one thread.
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
//! // Each operation is one request, admitted (or blocked) on its own.
//! let txn = db.begin();
//! assert_eq!(txn.exec(&jobs, StackOp::Push(Value::Int(42))).unwrap(), OpResult::Ok);
//! assert_eq!(txn.exec(&hits, CounterOp::Increment(1)).unwrap(), OpResult::Ok);
//! txn.commit().unwrap();
//!
//! // The closure runner retries on scheduler aborts and commits on Ok.
//! let top = db
//!     .run(|txn| txn.exec(&jobs, StackOp::Top))
//!     .unwrap();
//! assert_eq!(top, OpResult::Value(Value::Int(42)));
//! ```

use crate::aio::block_on;
use crate::chaos::{self, sync::Mutex, ChaosPoint};
use crate::errors::CoreError;
use crate::events::{CommitOutcome, KernelEvent, RequestOutcome};
use crate::object::ObjectId;
use crate::policy::SchedulerConfig;
use crate::shard::{DatabaseConfig, ObjectLoc, ShardedKernel};
use crate::stats::{KernelStats, StatsSnapshot};
use crate::txn::{TxnId, TxnState};
use sbcc_adt::{AdtOp, AdtSpec, AdtType, OpCall, OpResult, SemanticObject};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// Retries the closure runners allow before [`CoreError::RetriesExhausted`]
/// (see *Retry classes* on [`Database::run`]).
const MAX_RETRIES: usize = 10_000;

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
/// stores the outcome and wakes the owner's [`Waker`].
///
/// Every waiter is a [`Settled`] future: an async session's, polled by
/// its executor, or a blocking call's, polled by
/// [`crate::aio::block_on`], whose waker unparks the calling thread. So
/// the slot holds a waker and nothing else, and every shard wakeup path
/// wakes sync and async sessions alike. A slot has exactly one owner;
/// only the delivery side is shared.
#[derive(Default)]
struct WaiterSlot {
    state: Mutex<SlotState>,
}

#[derive(Default)]
struct SlotState {
    outcome: Option<RequestOutcome>,
    /// The waker of the future awaiting this slot. Re-registered on every
    /// poll, so a task that migrates executors between polls (or a
    /// `block_on` that swapped its first no-op waker for a real one)
    /// still wakes correctly.
    waker: Option<Waker>,
}

impl WaiterSlot {
    /// Deliver an outcome and wake the (single) owner.
    fn fill(&self, outcome: RequestOutcome) {
        let waker = {
            let mut state = self.state.lock();
            state.outcome = Some(outcome);
            state.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Return the outcome if it has been delivered, otherwise register
    /// `cx`'s waker and suspend.
    ///
    /// The outcome check and the waker registration happen under the same
    /// lock [`WaiterSlot::fill`] takes, so the wake-before-poll race is
    /// closed: a fill that ran before this poll left the outcome behind
    /// (returned now), and a fill racing this poll either sees the freshly
    /// stored waker or lost the lock to us and its outcome is already
    /// visible.
    fn poll_outcome(&self, cx: &mut Context<'_>) -> Poll<RequestOutcome> {
        let mut state = self.state.lock();
        match state.outcome.take() {
            Some(outcome) => Poll::Ready(outcome),
            None => {
                state.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// The rendezvous state: one map of settled-but-unclaimed outcomes, one map
/// of waiting invocations. Guarded by its own small mutex, separate from the
/// shard kernels — delivering a wakeup never holds a kernel lock.
#[derive(Default)]
struct SessionState {
    /// Outcomes of blocked submissions that settled before their session
    /// registered a waiter slot (another thread's termination raced the
    /// window between the kernel call and [`Database::claim_or_wait`]);
    /// claimed by the `claim_or_wait` that follows.
    delivered: HashMap<TxnId, RequestOutcome>,
    /// The waiter slot of every currently waiting invocation, by
    /// transaction, and of every cancelled one whose outcome is still on
    /// its way (see [`Database::cancel_wait`]).
    waiters: HashMap<TxnId, Arc<WaiterSlot>>,
}

/// One transaction session: the state behind a blocking [`Transaction`]
/// (which owns it) and behind an [`crate::aio::AsyncTransaction`] (which
/// holds it in an `Rc`, so `AsyncDatabase::run` can keep a second handle
/// for its commit).
///
/// Every session operation is implemented once, here, and the waiting
/// ones are async: a blocked request awaits [`Settled`]. The blocking API
/// drives the same futures through [`block_on`], so both entry points take
/// the same scheduling decisions by construction. `Cell`s suffice because
/// a session is `!Sync`: one thread drives it at a time.
#[derive(Debug)]
pub(crate) struct Session {
    db: Database,
    id: TxnId,
    /// Session-local cache of the shards this transaction is enrolled in.
    /// Lets the steady-state exec path skip the cross-shard coordinator
    /// (the cache is sound because enrollment only ever grows while the
    /// transaction is live).
    enrolled: RefCell<Vec<u32>>,
    /// `Some(begin stamp)` for sessions opened through
    /// [`Database::begin_snapshot`] / `AsyncDatabase::begin_snapshot`:
    /// read-only operations route to the multi-version snapshot path
    /// (reading the newest committed version at or below the stamp);
    /// everything else takes the ordinary classified path.
    snapshot: Option<u64>,
    /// The fate this session gave its transaction: set by a successful
    /// commit, by an explicit abort and by the cancellation abort in
    /// [`Settled`]'s drop glue. Once set, the session answers later calls
    /// itself instead of asking the database, which remembers only recent
    /// terminations; while unset, dropping the session aborts.
    fate: Cell<Option<TxnState>>,
    /// `true` while a [`Settled`] future of this session awaits the outcome
    /// of a blocked submission: the one in-flight gate. While it is set,
    /// every other submission or commit (from a second operation future
    /// borrowing the same [`crate::aio::AsyncTransaction`]) is refused with
    /// `InvalidState { state: Blocked }`, the error the unsharded kernel
    /// gives. Without it, a request routed to a *different* shard would be
    /// admitted there, because only the shard holding the blocked request
    /// knows the transaction is blocked; and a second waiter would
    /// overwrite the session's one waiter slot and strand the first.
    waiting: Cell<bool>,
    /// Whether this session's last abort took the transaction's blocked
    /// request out of its queue ([`ShardedKernel::abort_dequeuing`]). A
    /// cancelled waiter reads it to learn whether an outcome is still on
    /// its way to the slot.
    dequeued: Cell<bool>,
}

impl Session {
    /// The transaction this session drives.
    pub(crate) fn id(&self) -> TxnId {
        self.id
    }

    /// The transaction's current scheduler state, as the database knows it.
    pub(crate) fn state(&self) -> Option<TxnState> {
        self.db.txn_state(self.id)
    }

    /// The prologue of every call that would reach the database: once this
    /// session committed or aborted its transaction, it reports that fate
    /// itself. The database's own answer would degrade to
    /// [`CoreError::UnknownTransaction`] once the transaction falls out of
    /// its window of recent terminations, and the retry loop retries only
    /// `InvalidState { state: Aborted }`.
    fn ensure_no_fate(&self, action: &'static str) -> Result<(), CoreError> {
        match self.fate.get() {
            Some(state) => Err(CoreError::InvalidState {
                txn: self.id,
                state,
                action,
            }),
            None => Ok(()),
        }
    }

    /// The prologue of a submission or commit: no fate yet, and no other
    /// future of this session awaiting a blocked submission (see
    /// `waiting`).
    fn ensure_idle(&self, action: &'static str) -> Result<(), CoreError> {
        self.ensure_no_fate(action)?;
        if self.waiting.get() {
            return Err(CoreError::InvalidState {
                txn: self.id,
                state: TxnState::Blocked,
                action,
            });
        }
        Ok(())
    }

    /// Enroll the transaction into a shard if the session-local cache has
    /// not seen the shard yet. Steady state (every shard already touched)
    /// skips the coordinator entirely: the only lock an exec takes is the
    /// owning shard's.
    fn ensure_enrolled(&self, shard: u32, action: &'static str) -> Result<(), CoreError> {
        if self.enrolled.borrow().contains(&shard) {
            return Ok(());
        }
        self.db
            .shared
            .kernel
            .ensure_enrolled(self.id, shard, action)?;
        self.enrolled.borrow_mut().push(shard);
        Ok(())
    }

    /// Execute an operation, waiting while it conflicts with uncommitted
    /// operations of other transactions.
    pub(crate) async fn exec_call(
        &self,
        loc: ObjectLoc,
        call: OpCall,
    ) -> Result<OpResult, CoreError> {
        const ACTION: &str = "request an operation";
        self.ensure_idle(ACTION)?;
        let db = &self.db;
        db.check_loc(loc)?;
        if self.snapshot.is_some() {
            // A snapshot session tries the multi-version read first;
            // `None` (not a pure observer, or an object this transaction
            // has written) falls through to the classified path. Deliver
            // before `?`: an SSI abort inside the read releases the
            // transaction's claims, and the resulting grants to blocked
            // sessions sit in the event queue.
            let read = db.shared.kernel.snapshot_read(self.id, loc, &call);
            db.deliver_events();
            if let Some(result) = read? {
                return Ok(result);
            }
        }
        self.ensure_enrolled(loc.shard, ACTION)?;
        // Deliver before `?`: a rejected request can still have mutated the
        // kernel (a `Requester`-policy conflict aborts the requester, which
        // releases its claims and settles other sessions' waiters), so the
        // generated events must be drained on the error path too. Skipping
        // delivery here strands those waiters until the *next* kernel entry
        // — which never comes if this thread was the last one in.
        let outcome = db.shared.kernel.request_enrolled(self.id, loc, call);
        db.deliver_events();
        let outcome = match outcome? {
            RequestOutcome::Blocked { .. } => self.settled().await,
            outcome => outcome,
        };
        outcome.into_result(self.id)
    }

    /// Commit in the kernel, deliver the grants the commit released, and
    /// wait for the commit record's flush on a durable database. A commit
    /// never waits for another transaction: one whose commit dependencies
    /// are still live pseudo-commits.
    pub(crate) async fn commit(&self) -> Result<CommitOutcome, CoreError> {
        self.ensure_idle("commit")?;
        // Deliver before `?`: a commit whose vote aborts the *committer*
        // (`Err(Aborted)`) has released the transaction's claims, and the
        // resulting grants to blocked sessions are sitting in the event
        // queue. They must be drained even though commit itself failed —
        // found by the DST harness as a cross-session liveness hang when
        // the aborted committer's session was the last thread to enter the
        // kernel (seed 133's endless `poll T19` tail). Deliver before the
        // durable wait too: the sessions this commit unblocked run while
        // its record waits for the flush.
        let result = self.db.shared.kernel.commit(self.id);
        self.db.deliver_events();
        let (outcome, durable) = result?;
        // Committed in memory: from here on, cancelling the wait gives up
        // only the acknowledgement, never the commit.
        self.fate.set(Some(if outcome.is_full_commit() {
            TxnState::Committed
        } else {
            TxnState::PseudoCommitted
        }));
        if let Some(durable) = durable {
            durable.await;
        }
        Ok(outcome)
    }

    /// Explicitly abort the transaction.
    pub(crate) fn abort(&self) -> Result<(), CoreError> {
        self.ensure_no_fate("abort")?;
        self.fate.set(Some(TxnState::Aborted));
        self.abort_in_kernel()
    }

    fn abort_in_kernel(&self) -> Result<(), CoreError> {
        let result = self.db.shared.kernel.abort_dequeuing(self.id);
        self.db.deliver_events();
        self.dequeued.set(matches!(result, Ok(true)));
        result.map(drop)
    }

    /// A future resolving to the settled outcome of the submission that
    /// just blocked: either claims an already-delivered outcome or
    /// registers this session's waiter slot **now** (before first poll),
    /// so a wakeup can never slip between submission and registration.
    /// No other future of this session is waiting: the caller passed
    /// [`Session::ensure_idle`], or finished its own previous wait, with
    /// no await since.
    fn settled(&self) -> Settled<'_> {
        debug_assert!(!self.waiting.get(), "second waiter on {}", self.id);
        self.waiting.set(true);
        Settled {
            session: self,
            wait: Some(self.db.claim_or_wait(self.id)),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.fate.get().is_none() {
            // Best effort: the transaction may already be terminated (e.g.
            // aborted by the scheduler, or pseudo-committed, which by
            // construction cannot abort) — those errors are ignored.
            let _ = self.abort_in_kernel();
        }
    }
}

/// Future for the settled outcome of a session's blocked submission.
///
/// **Cancellation aborts**: dropping this future before it resolves
/// leaves nobody to claim the outcome of a request that may stay blocked
/// inside a shard kernel indefinitely — so the drop glue aborts the
/// transaction, which also unblocks every session waiting *on* it, and
/// releases the waiter slot (see [`Database::cancel_wait`]). See the
/// [`crate::aio`] module docs. A blocking call never drops it
/// unresolved: `block_on` polls it to completion.
struct Settled<'a> {
    session: &'a Session,
    /// The claimed outcome, or the slot to poll for it; `None` once the
    /// future has resolved.
    wait: Option<Result<RequestOutcome, Arc<WaiterSlot>>>,
}

impl Future for Settled<'_> {
    type Output = RequestOutcome;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<RequestOutcome> {
        let this = self.get_mut();
        let outcome = match this.wait.take().expect("Settled polled after completion") {
            Ok(outcome) => outcome,
            Err(slot) => match slot.poll_outcome(cx) {
                Poll::Ready(outcome) => outcome,
                Poll::Pending => {
                    this.wait = Some(Err(slot));
                    return Poll::Pending;
                }
            },
        };
        this.session.waiting.set(false);
        Poll::Ready(outcome)
    }
}

impl Drop for Settled<'_> {
    fn drop(&mut self) {
        let Some(wait) = self.wait.take() else {
            return;
        };
        let session = self.session;
        session.waiting.set(false);
        // Cancelled mid-wait: abort (unless the session already ended)
        // with the slot still registered, then settle the slot by what the
        // abort found. An outcome that reaches the slot is discarded with
        // it — the caller abandoned it.
        if session.fate.get().is_none() {
            session.fate.set(Some(TxnState::Aborted));
            let _ = session.abort_in_kernel();
        }
        if let Err(slot) = wait {
            session
                .db
                .cancel_wait(session.id, &slot, session.dequeued.get());
        }
    }
}

struct Shared {
    /// The sharded kernel (internally locked per shard; see
    /// [`crate::shard`]).
    kernel: ShardedKernel,
    sessions: Mutex<SessionState>,
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

    /// Re-apply recovered log records through the session API, one
    /// transaction per commit record and one [`Transaction::exec_call`]
    /// per logged operation. Sequential and single-threaded, so every
    /// commit must be an actual commit (a pseudo-commit would mean a
    /// dependency on a live transaction — there are none) and every
    /// replayed result must equal the logged one (the log replays
    /// deterministically from the empty state).
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
                    let txn = self.begin();
                    for op in ops {
                        let handle = handles.get(op.object.as_str()).ok_or_else(|| {
                            CoreError::Durability(format!(
                                "log commit references unregistered object {:?}",
                                op.object
                            ))
                        })?;
                        let result = txn.exec_call(handle, op.call.clone())?;
                        if result != op.result {
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
            session: self.begin_session(),
        }
    }

    /// Begin a transaction and hand back the bare session (shared entry
    /// point of [`Transaction`] and [`crate::aio::AsyncTransaction`]).
    pub(crate) fn begin_session(&self) -> Session {
        self.session(self.shared.kernel.begin(), None)
    }

    fn session(&self, id: TxnId, snapshot: Option<u64>) -> Session {
        Session {
            db: self.clone(),
            id,
            enrolled: RefCell::new(Vec::new()),
            snapshot,
            fate: Cell::new(None),
            waiting: Cell::new(false),
            dequeued: Cell::new(false),
        }
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
            session: self.begin_snapshot_session(),
        }
    }

    /// [`Database::begin_snapshot`] returning the bare session.
    pub(crate) fn begin_snapshot_session(&self) -> Session {
        let (id, begin) = self.shared.kernel.begin_snapshot();
        self.session(id, Some(begin))
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
    /// This table is the retry contract of the one retry loop, which
    /// [`crate::aio::AsyncDatabase::run`] drives too: exactly these
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
    /// | Retry budget exhausted: a retryable class above recurred more than 10 000 times | [`CoreError::RetriesExhausted`] | no — the livelock guardrail |
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
    /// attempt), the loop gives up after 10 000 retries with
    /// [`CoreError::RetriesExhausted`], a budget far beyond anything a
    /// healthy workload reaches.
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
        block_on(self.run_attempts(|session| {
            let txn = Transaction { session };
            let result = body(&txn);
            async move {
                let value = result?;
                txn.session.commit().await?;
                Ok(value)
            }
        }))
    }

    /// The one retry loop behind [`Database::run`] and
    /// [`crate::aio::AsyncDatabase::run`]: begin a session, run one
    /// attempt on it (the body, then the commit), and restart with a fresh
    /// session while the attempt fails with an error of a retry class
    /// (the table on [`Database::run`]) for its own transaction, up to
    /// `MAX_RETRIES` retries. A failed attempt's
    /// session is dropped, and so aborted, before the next one begins.
    pub(crate) async fn run_attempts<R, Fut>(
        &self,
        mut attempt: impl FnMut(Session) -> Fut,
    ) -> Result<R, CoreError>
    where
        Fut: Future<Output = Result<R, CoreError>>,
    {
        let mut attempts: usize = 0;
        loop {
            attempts += 1;
            let session = self.begin_session();
            let id = session.id();
            let err = match attempt(session).await {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            if !err.is_retryable_for(id) {
                return Err(err);
            }
            if attempts > MAX_RETRIES {
                return Err(CoreError::RetriesExhausted { txn: id, attempts });
            }
        }
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
    // Session internals (reached through `Session`)
    // ------------------------------------------------------------------

    fn check_loc(&self, loc: ObjectLoc) -> Result<(), CoreError> {
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

    /// Claim the settled outcome for `txn`'s blocked request if it has
    /// already been delivered, or register a fresh [`WaiterSlot`] to wait
    /// on.
    ///
    /// This is the database's **single rendezvous seam**: every waiting
    /// exec, through either entry point, and every shard-originated wakeup
    /// funnels through this one claim/register pair, and [`Settled`] polls
    /// the returned slot.
    fn claim_or_wait(&self, txn: TxnId) -> Result<RequestOutcome, Arc<WaiterSlot>> {
        // The claim half of the rendezvous: a fill by a concurrent
        // deliverer may land just before or just after this window.
        chaos::reach(ChaosPoint::RendezvousClaim, Some(txn));
        let mut sessions = self.shared.sessions.lock();
        // The request may already have been settled by side effects of
        // the submission itself (the kernel retries blocked requests
        // to fixpoint before returning) or by another thread's
        // termination racing this claim.
        match sessions.delivered.remove(&txn) {
            Some(outcome) => Ok(outcome),
            None => {
                // Wait on a private slot: whichever thread later drains
                // the kernel event that settles this transaction fills
                // the slot and wakes only this session. One slot per
                // transaction — the session's `waiting` flag rejects a
                // second awaiter, so an existing entry here would be a
                // session bug that orphans the first waiter.
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

    /// Settle the slot of a cancelled waiter whose transaction is now
    /// aborted. If the abort `dequeued` the blocked request, no outcome
    /// will ever come, and the slot is unregistered. Otherwise the request
    /// had settled first, and its outcome is on its way: in the kernel's
    /// event queue, or drained by a deliverer that has not routed it yet
    /// (or already in the slot). The slot then stays registered, so the
    /// late deliverer takes it, fills it and drops it. Unregistered, the
    /// outcome would land in `delivered`, where nothing ever claims it.
    /// The session's own abort is the only one that can dequeue its
    /// request: the kernel refuses a cycle by aborting the requester, and
    /// the SSI guard aborts only the transaction in hand.
    fn cancel_wait(&self, txn: TxnId, slot: &Arc<WaiterSlot>, dequeued: bool) {
        if dequeued {
            let removed = self.shared.sessions.lock().waiters.remove(&txn);
            debug_assert!(
                removed.is_some_and(|r| Arc::ptr_eq(&r, slot)),
                "a dequeued request's slot is still registered for {txn}"
            );
        }
    }

    fn deliver_events(&self) {
        self.route_events(self.shared.kernel.drain_events());
    }

    /// The second half of [`Database::deliver_events`]: route drained
    /// events to the waiter slots of their transactions.
    fn route_events(&self, events: Vec<KernelEvent>) {
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
        // (which runs arbitrary `Waker::wake` code of
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
                        sessions.delivered.insert(txn, outcome);
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
/// Each method that can wait is [`crate::aio::block_on`] of the
/// [`crate::aio::AsyncTransaction`] method of the same name: one session
/// implementation serves both entry points.
///
/// A `Transaction` is driven by one thread at a time: it is `Send` (it may
/// move between threads) but deliberately **not `Sync`** — two threads
/// blocking on the same session would race for its single wakeup slot, so
/// sharing `&Transaction` across threads is a compile error. Start one
/// session per thread instead; that is what the scheduler is for.
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<sbcc_core::Transaction>();
/// ```
#[derive(Debug)]
pub struct Transaction {
    session: Session,
}

impl Transaction {
    /// The raw transaction id (for diagnostics and the inspection APIs on
    /// [`Database`]).
    pub fn id(&self) -> TxnId {
        self.session.id()
    }

    /// The snapshot begin stamp for sessions opened through
    /// [`Database::begin_snapshot`], `None` for ordinary sessions.
    pub fn snapshot_stamp(&self) -> Option<u64> {
        self.session.snapshot
    }

    /// Execute a typed operation, blocking while it conflicts with
    /// uncommitted operations of other transactions.
    pub fn exec<A: AdtSpec>(&self, object: &Handle<A>, op: A::Op) -> Result<OpResult, CoreError> {
        self.exec_call(object, op.to_call())
    }

    /// Execute an erased operation call, blocking while in conflict.
    ///
    /// Typed [`Handle`]s coerce to [`ObjectHandle`], so this accepts both.
    pub fn exec_call(&self, object: &ObjectHandle, call: OpCall) -> Result<OpResult, CoreError> {
        block_on(self.session.exec_call(object.loc(), call))
    }

    /// Commit the transaction (actual or pseudo-commit, per the protocol).
    /// Consumes the session; on success the guard will not abort on drop.
    ///
    /// A commit that fails without terminating the transaction still
    /// leaves the drop-abort armed, so a failed session cannot leak a live
    /// transaction that would block others forever.
    ///
    /// On a durable database an actual commit parks the calling thread
    /// until the flush covering its log record has returned; sessions this
    /// commit unblocked are woken before that wait.
    pub fn commit(self) -> Result<CommitOutcome, CoreError> {
        block_on(self.session.commit())
    }

    /// Explicitly abort the transaction. Consumes the session.
    pub fn abort(self) -> Result<(), CoreError> {
        self.session.abort()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aio::AsyncDatabase;
    use crate::policy::ConflictPolicy;
    use sbcc_adt::{Stack, StackOp, TableObject, TableOp, Value};
    use std::time::Duration;

    fn db() -> Database {
        Database::new(SchedulerConfig::default())
    }

    /// Poll a session future once, as an executor's first turn would.
    fn poll_once<F: Future + ?Sized>(fut: Pin<&mut F>) -> Poll<F::Output> {
        fut.poll(&mut Context::from_waker(Waker::noop()))
    }

    #[test]
    fn a_transaction_may_move_between_threads() {
        // `Send` but not `Sync` (the `compile_fail` example on
        // `Transaction` pins the second half).
        fn send<T: Send>() {}
        send::<Transaction>();
        let db = db();
        let s = db.register("s", Stack::new());
        let t = db.begin();
        t.exec(&s, StackOp::Push(Value::Int(1))).unwrap();
        let outcome = std::thread::spawn(move || t.commit().unwrap())
            .join()
            .unwrap();
        assert!(outcome.is_full_commit());
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
        let blocker = std::thread::spawn(move || {
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
        // (as a cancellation abort would do it each time): after
        // `MAX_RETRIES` retries the runner gives up and reports the
        // budget, not the underlying per-attempt error.
        let db = Database::with_config(DatabaseConfig::new(
            SchedulerConfig::default().with_history(false),
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
                assert_eq!(a, MAX_RETRIES + 1, "the budget plus the first attempt");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(attempts, 10_001);
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
    fn blocked_session_cannot_submit_elsewhere() {
        // The single-kernel contract: while one future of a session awaits
        // a blocked request, every further submission and the commit are
        // refused with InvalidState{Blocked}. Across shards only the shard
        // holding the blocked request knows, so the session's `waiting`
        // gate enforces it — pinned here at 4 shards with objects spread
        // wide. The session is driven directly: a public handle's
        // consuming `commit` cannot run while an operation borrows it.
        let db = AsyncDatabase::with_config(
            DatabaseConfig::new(SchedulerConfig::default()).with_shards(4),
        );
        let handles: Vec<_> = (0..8)
            .map(|i| db.register(format!("s{i}"), Stack::new()))
            .collect();
        let t1 = db.database().begin();
        t1.exec(&handles[0], StackOp::Push(Value::Int(7))).unwrap();

        let t2 = db.database().begin_session();
        let push = |v| StackOp::Push(Value::Int(v)).to_call();
        let mut pop = Box::pin(t2.exec_call(handles[0].loc(), StackOp::Pop.to_call()));
        assert!(poll_once(pop.as_mut()).is_pending());
        let refused = |r: Result<(), CoreError>| {
            matches!(
                r,
                Err(CoreError::InvalidState {
                    state: TxnState::Blocked,
                    ..
                })
            )
        };
        // Every object — wherever it lives — must refuse a second
        // submission now.
        for h in &handles {
            assert!(
                refused(block_on(t2.exec_call(h.loc(), push(1))).map(drop)),
                "blocked session must not execute on {}",
                h.name()
            );
        }
        assert!(refused(block_on(t2.commit()).map(drop)));
        // Once the conflict clears, the awaited pop settles and the
        // session is usable again.
        t1.commit().unwrap();
        assert_eq!(
            poll_once(pop.as_mut()),
            Poll::Ready(Ok(OpResult::Value(Value::Int(7))))
        );
        drop(pop);
        block_on(t2.exec_call(handles[3].loc(), push(2))).unwrap();
        block_on(t2.commit()).unwrap();
        db.verify_serializable().unwrap();
        db.check_invariants().unwrap();
    }

    #[test]
    fn failed_commit_still_aborts_the_session_on_drop() {
        let db = AsyncDatabase::new(SchedulerConfig::default());
        let s = db.register("s", Stack::new());
        let t1 = db.database().begin();
        t1.exec(&s, StackOp::Push(Value::Int(1))).unwrap();
        // Driven as a session: a public handle's consuming `commit` cannot
        // run while an operation borrows it.
        let t2 = db.database().begin_session();
        let id2 = t2.id();
        // One future awaits a conflicting pop...
        let mut pop = Box::pin(t2.exec_call(s.loc(), StackOp::Pop.to_call()));
        assert!(poll_once(pop.as_mut()).is_pending());
        // ...so the commit is rejected, and the transaction stays live.
        assert!(matches!(
            block_on(t2.commit()),
            Err(CoreError::InvalidState {
                state: TxnState::Blocked,
                ..
            })
        ));
        t1.commit().unwrap();
        assert_eq!(
            poll_once(pop.as_mut()),
            Poll::Ready(Ok(OpResult::Value(Value::Int(1))))
        );
        drop(pop);
        assert_eq!(db.txn_state(id2), Some(TxnState::Active));
        // The session still aborts on drop instead of leaking the
        // transaction (where it would stall every conflicting session).
        drop(t2);
        assert_eq!(db.txn_state(id2), Some(TxnState::Aborted));
        db.verify_serializable().unwrap();
        db.check_invariants().unwrap();
    }

    #[test]
    fn an_outcome_drained_before_its_waiter_is_cancelled_is_not_stranded() {
        // A deliverer drains the outcome of T2's blocked pop; before it
        // routes it, T2's waiter is cancelled (its future dropped, which
        // aborts T2). The late routing must leave nothing behind: no
        // session will ever claim an outcome of T2.
        for shards in [1, 4] {
            let db = AsyncDatabase::with_config(
                DatabaseConfig::new(SchedulerConfig::default()).with_shards(shards),
            );
            let s = db.register("s", Stack::new());
            let t1 = db.database().begin();
            t1.exec(&s, StackOp::Push(Value::Int(7))).unwrap();
            let t2 = db.begin();
            let mut pop = Box::pin(t2.exec(&s, StackOp::Pop));
            assert!(poll_once(pop.as_mut()).is_pending());

            let inner = db.database();
            inner.shared.kernel.commit(t1.id()).unwrap();
            let drained = inner.shared.kernel.drain_events();
            assert_eq!(drained.len(), 1, "T1's commit settles T2's pop");
            drop(pop);
            inner.route_events(drained);

            let sessions = inner.shared.sessions.lock();
            assert!(
                sessions.delivered.is_empty(),
                "{shards} shard(s): stranded outcome"
            );
            assert!(
                sessions.waiters.is_empty(),
                "{shards} shard(s): stranded slot"
            );
            drop(sessions);
            assert_eq!(db.txn_state(t2.id()), Some(TxnState::Aborted));
        }
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
        // The holder's abort unparks the waiter: its push is retried and
        // executes.
        let db = AsyncDatabase::new(
            SchedulerConfig::default().with_policy(ConflictPolicy::CommutativityOnly),
        );
        let s = db.register("s", Stack::new());
        let t1 = db.database().begin();
        t1.exec(&s, StackOp::Push(Value::Int(1))).unwrap();
        let t2 = db.begin();
        let mut push = Box::pin(t2.exec(&s, StackOp::Push(Value::Int(2))));
        assert!(poll_once(push.as_mut()).is_pending());
        t1.abort().unwrap();
        assert_eq!(poll_once(push.as_mut()), Poll::Ready(Ok(OpResult::Ok)));
        drop(push);
        block_on(t2.commit()).unwrap();
        assert_eq!(db.stats().aborts_explicit, 1);
    }
}
