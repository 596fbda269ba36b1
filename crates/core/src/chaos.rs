//! Chaos hooks: the deterministic-testing seam of the concurrency layer.
//!
//! The sharded kernel's interesting bugs live in *interleavings* — an
//! explicit abort racing a commit vote, a cancellation racing an outcome
//! delivery, a fill racing a claim. Wall-clock stress tests can hit those windows but
//! cannot reproduce them; this module makes the windows **schedulable**: the
//! concurrency seams of [`crate::db`], [`crate::shard`] and [`crate::aio`]
//! announce themselves through a per-thread [`ChaosHook`], and a harness
//! (the `sbcc-dst` crate) turns each announcement into a controlled context
//! switch drawn from a seeded RNG, so every interleaving is a pure function
//! of a `u64` seed.
//!
//! # The three layers
//!
//! 1. **Yield points** ([`ChaosPoint`]): named positions in the protocol
//!    where a hook may suspend the calling thread and run another session
//!    instead — before/after the sessions-lock window of
//!    `Database::deliver_events`, between the per-shard votes of a
//!    multi-shard commit and its `drain_coordination_ready` re-votes, and
//!    at the claim/fill halves of the waiter rendezvous.
//! 2. **Cooperative primitives** ([`sync`]): drop-in `Mutex`/`Condvar`
//!    wrappers the concurrency layer uses instead of `parking_lot`'s.
//!    When a hook is installed they convert blocking into cooperative
//!    spinning (`try_lock` + yield, condvar waits become scheduler-timed
//!    spurious wakeups), so a simulation harness that runs exactly one
//!    thread at a time can never be deadlocked by a yield point placed
//!    inside a critical section.
//! 3. **Fault injection**: hooks may also *perturb* the execution where the
//!    protocol leaves freedom — [`reorder_events`] lets a hook permute the
//!    delivery order of a drained event batch (per-transaction order is
//!    preserved by the harness; cross-transaction delivery order is
//!    unordered by contract).
//! 4. **Virtual clock** ([`ClockHook`]): time-dependent features (the
//!    network front-end's per-connection read timeout) consult
//!    [`timeout_fires`] before trusting the real clock. A harness installs
//!    a process-global clock hook to *decide* deterministically whether a
//!    timeout has elapsed — firing timeouts that wall-clock would take
//!    seconds to reach, or holding them off forever — so the
//!    timeout/auto-abort paths become schedulable like everything else.
//!    This hook is process-global (unlike the per-thread [`ChaosHook`])
//!    because the threads that wait on timeouts are spawned internally by
//!    the feature under test, where a harness cannot reach them.
//!
//! # Zero cost when disabled
//!
//! Everything here is gated behind the `chaos` cargo feature (off by
//! default). Without it, [`reach`] is an empty `#[inline(always)]`
//! function and the [`sync`] wrappers are re-exports of the plain
//! `parking_lot` types — release builds compile the hooks to no-ops.
//! With the feature on but no hook installed, each seam costs one
//! thread-local read.
//!
//! Hooks are **thread-local**: a harness installs a hook on the session
//! threads it spawns (`install_thread_hook`) and every other thread in
//! the process — including other tests running concurrently — passes
//! through untouched.

use crate::txn::TxnId;
use std::fmt;

/// A named yield point in the concurrency layer. The variants are the
/// yield-point catalog documented in `ARCHITECTURE.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ChaosPoint {
    /// `Database::deliver_events` drained a non-empty event batch from the
    /// sharded kernel and is about to acquire the sessions lock.
    DeliverDrain,
    /// `deliver_events` released the sessions lock with the claimed waiter
    /// slots in hand, before any of them is filled.
    DeliverClaimed,
    /// About to fill one claimed waiter slot (per-slot, so other sessions
    /// can interleave between two fills of the same batch).
    DeliverFill,
    /// `Database::claim_or_wait` entry: a session is about to either claim
    /// its delivered outcome or register its waiter slot (the claim half
    /// of the rendezvous; [`ChaosPoint::DeliverFill`] is the fill half).
    RendezvousClaim,
    /// Between per-shard dependency collections in phase 1 of a
    /// multi-shard commit vote.
    VotePeek,
    /// Between per-shard applications in phase 2a of a multi-shard commit
    /// (unanimous vote, `commit_coordinated` per shard).
    VoteApply,
    /// A `drain_coordination_ready` re-vote is starting for a
    /// pseudo-committed coordinated transaction.
    ReVote,
    /// `begin_snapshot` is about to draw the snapshot's begin stamp under
    /// the termination lock (before the version floor is published).
    SnapshotStamp,
    /// A snapshot session is about to answer a read from the multi-version
    /// store (after the readonly check, before the version-chain lookup).
    SnapshotRead,
    /// The SSI guard is about to install or inspect rw-antidependency
    /// conflict flags (read-time writer scan, commit-time SIREAD scan, or
    /// classified-op in-flag check).
    SsiEdge,
    /// A cooperative [`sync::Mutex`] found the lock held and yields before
    /// retrying.
    LockContended,
    /// A cooperative [`sync::Condvar`] wait: the guard has been released
    /// and the thread yields; the wait returns as a spurious wakeup.
    CondvarWait,
}

impl fmt::Display for ChaosPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChaosPoint::DeliverDrain => "deliver-drain",
            ChaosPoint::DeliverClaimed => "deliver-claimed",
            ChaosPoint::DeliverFill => "deliver-fill",
            ChaosPoint::RendezvousClaim => "rendezvous-claim",
            ChaosPoint::VotePeek => "vote-peek",
            ChaosPoint::VoteApply => "vote-apply",
            ChaosPoint::ReVote => "re-vote",
            ChaosPoint::SnapshotStamp => "snapshot-stamp",
            ChaosPoint::SnapshotRead => "snapshot-read",
            ChaosPoint::SsiEdge => "ssi-edge",
            ChaosPoint::LockContended => "lock-contended",
            ChaosPoint::CondvarWait => "condvar-wait",
        })
    }
}

/// A per-thread interleaving/fault controller. Implemented by the DST
/// harness; every method is called from the instrumented thread itself.
pub trait ChaosHook: Send + Sync {
    /// The thread reached a yield point. The hook may block the thread
    /// (handing the turn to another session) and return when it is this
    /// thread's turn again. `txn` is the transaction the point concerns,
    /// when the seam knows it.
    fn reach(&self, point: ChaosPoint, txn: Option<TxnId>);

    /// While the scheduler drives threads one at a time ([`ChaosHook::reach`]
    /// blocks), cooperative mode must stay on. A hook switches this to
    /// `false` to *free-run*: every seam reverts to plain blocking behaviour
    /// so in-flight sessions can drain on real OS scheduling (used after a
    /// liveness-deadline verdict).
    fn cooperative(&self) -> bool {
        true
    }

    /// Offered a drained event batch (`txns[i]` is the transaction of the
    /// `i`-th event) before delivery. Return a permutation of
    /// `0..txns.len()` to reorder the deliveries, or `None` to keep the
    /// kernel's order. Implementations must preserve the relative order of
    /// events belonging to the same transaction.
    fn reorder_events(&self, txns: &[TxnId]) -> Option<Vec<usize>> {
        let _ = txns;
        None
    }
}

/// A named timeout site that consults the virtual clock (see
/// [`ClockHook`]). The catalog grows with each time-dependent feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TimeoutPoint {
    /// The network server's per-connection read deadline: the reader saw
    /// no frame for one poll interval and asks whether the connection's
    /// read timeout has elapsed (firing tears the connection down and
    /// auto-aborts its live sessions).
    NetRead,
    /// The write-ahead log's group-commit flush point: a commit append
    /// kicked the flusher thread, and it asks whether it may flush now.
    /// Firing writes and fsyncs the log's buffered records, then wakes
    /// every committer whose `sbcc_wal::Durable` the flush covered; not
    /// firing holds the flush, and the flusher asks again a millisecond
    /// later. With no hook the flush runs at once.
    GroupCommit,
}

impl fmt::Display for TimeoutPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TimeoutPoint::NetRead => "net-read",
            TimeoutPoint::GroupCommit => "group-commit",
        })
    }
}

/// A **process-global** virtual-clock controller, installed by a
/// deterministic-simulation harness via `install_clock_hook` (present
/// only with the `chaos` feature, like the thread-hook installers).
///
/// Every time-dependent seam polls [`timeout_fires`] each time it would
/// otherwise consult the real clock. The hook answers:
///
/// * `Some(true)` — the virtual deadline has elapsed; fire the timeout
///   now, regardless of how little wall time has passed.
/// * `Some(false)` — the virtual deadline has *not* elapsed; keep
///   waiting, regardless of how much wall time has passed.
/// * `None` — this site is not under virtual control; use the real clock.
pub trait ClockHook: Send + Sync {
    /// Should the timeout at `point` fire? Called from whichever thread
    /// owns the deadline (often one spawned by the feature under test),
    /// potentially many times per deadline — implementations must be
    /// cheap and reentrant.
    fn timeout_fires(&self, point: TimeoutPoint) -> Option<bool>;
}

#[cfg(feature = "chaos")]
mod enabled {
    use super::{ChaosHook, ChaosPoint};
    use crate::txn::TxnId;
    use std::cell::RefCell;
    use std::sync::Arc;

    thread_local! {
        static HOOK: RefCell<Option<Arc<dyn ChaosHook>>> = const { RefCell::new(None) };
    }

    /// Install a chaos hook for the **calling thread**. Replaces any
    /// previously installed hook.
    pub fn install_thread_hook(hook: Arc<dyn ChaosHook>) {
        HOOK.with(|h| *h.borrow_mut() = Some(hook));
    }

    /// Remove the calling thread's chaos hook (no-op when none is
    /// installed).
    pub fn clear_thread_hook() {
        HOOK.with(|h| *h.borrow_mut() = None);
    }

    /// Whether the calling thread currently has a hook installed **and**
    /// that hook asks for cooperative scheduling.
    #[inline]
    pub fn active() -> bool {
        HOOK.with(|h| match &*h.borrow() {
            Some(hook) => hook.cooperative(),
            None => false,
        })
    }

    /// Announce a yield point to the calling thread's hook, if any.
    #[inline]
    pub fn reach(point: ChaosPoint, txn: Option<TxnId>) {
        let hook = HOOK.with(|h| h.borrow().clone());
        if let Some(hook) = hook {
            hook.reach(point, txn);
        }
    }

    /// Offer an event batch to the calling thread's hook for reordering.
    #[inline]
    pub fn reorder_events(txns: &[TxnId]) -> Option<Vec<usize>> {
        let hook = HOOK.with(|h| h.borrow().clone());
        hook.and_then(|hook| hook.reorder_events(txns))
    }

    use super::{ClockHook, TimeoutPoint};
    use std::sync::Mutex as StdMutex;

    static CLOCK: StdMutex<Option<Arc<dyn ClockHook>>> = StdMutex::new(None);

    /// Install the **process-global** clock hook (see [`ClockHook`]).
    /// Replaces any previously installed hook.
    pub fn install_clock_hook(hook: Arc<dyn ClockHook>) {
        *CLOCK.lock().expect("clock hook lock") = Some(hook);
    }

    /// Remove the process-global clock hook (no-op when none is
    /// installed).
    pub fn clear_clock_hook() {
        *CLOCK.lock().expect("clock hook lock") = None;
    }

    /// Ask the process-global clock hook whether the timeout at `point`
    /// should fire; `None` (also returned when no hook is installed)
    /// defers to the real clock.
    #[inline]
    pub fn timeout_fires(point: TimeoutPoint) -> Option<bool> {
        let hook = CLOCK.lock().expect("clock hook lock").clone();
        hook.and_then(|hook| hook.timeout_fires(point))
    }
}

#[cfg(feature = "chaos")]
pub use enabled::{
    active, clear_clock_hook, clear_thread_hook, install_clock_hook, install_thread_hook, reach,
    reorder_events, timeout_fires,
};

#[cfg(not(feature = "chaos"))]
mod disabled {
    use super::ChaosPoint;
    use crate::txn::TxnId;

    /// No-op: the `chaos` feature is disabled.
    #[inline(always)]
    pub fn active() -> bool {
        false
    }

    /// No-op: the `chaos` feature is disabled.
    #[inline(always)]
    pub fn reach(_point: ChaosPoint, _txn: Option<TxnId>) {}

    /// No-op: the `chaos` feature is disabled.
    #[inline(always)]
    pub fn reorder_events(_txns: &[TxnId]) -> Option<Vec<usize>> {
        None
    }

    /// Always defers to the real clock: the `chaos` feature is disabled.
    #[inline(always)]
    pub fn timeout_fires(_point: super::TimeoutPoint) -> Option<bool> {
        None
    }
}

#[cfg(not(feature = "chaos"))]
pub use disabled::{active, reach, reorder_events, timeout_fires};

/// The synchronisation primitives of the concurrency layer.
///
/// Without the `chaos` feature these are **re-exports** of the
/// `parking_lot` types — zero wrapper cost. With the feature they become
/// cooperative: when the calling thread has an active [`ChaosHook`],
/// `Mutex::lock` spins through `try_lock` + [`reach`] instead of parking,
/// and `Condvar::wait` releases the lock, yields once, re-acquires and
/// returns (a scheduler-timed spurious wakeup — every waiter in this
/// codebase re-checks its predicate in a loop). A simulation scheduler
/// that runs one thread at a time therefore never wedges on a lock held
/// by a suspended thread: the holder is always runnable and the contender
/// burns scheduler turns, not OS blocking.
pub mod sync {
    #[cfg(not(feature = "chaos"))]
    pub use parking_lot::{Condvar, Mutex, MutexGuard};

    #[cfg(feature = "chaos")]
    pub use cooperative::{Condvar, Mutex, MutexGuard};

    #[cfg(feature = "chaos")]
    mod cooperative {
        use super::super::{active, reach, ChaosPoint};
        use std::ops::{Deref, DerefMut};

        /// Chaos-aware mutex (see [the module docs](self)).
        #[derive(Debug, Default)]
        pub struct Mutex<T: ?Sized> {
            inner: parking_lot::Mutex<T>,
        }

        impl<T> Mutex<T> {
            /// Create a mutex.
            pub const fn new(value: T) -> Self {
                Mutex {
                    inner: parking_lot::Mutex::new(value),
                }
            }
        }

        impl<T: ?Sized> Mutex<T> {
            /// Acquire the lock. Under an active hook, contention yields
            /// through the hook instead of parking the OS thread.
            pub fn lock(&self) -> MutexGuard<'_, T> {
                if active() {
                    loop {
                        if let Some(g) = self.inner.try_lock() {
                            return MutexGuard {
                                mutex: self,
                                inner: Some(g),
                            };
                        }
                        reach(ChaosPoint::LockContended, None);
                    }
                }
                MutexGuard {
                    mutex: self,
                    inner: Some(self.inner.lock()),
                }
            }
        }

        /// RAII guard returned by [`Mutex::lock`]. Holds a back-reference
        /// to its mutex so [`Condvar::wait`] can release and cooperatively
        /// re-acquire it.
        #[derive(Debug)]
        pub struct MutexGuard<'a, T: ?Sized> {
            mutex: &'a Mutex<T>,
            /// `None` only transiently inside [`Condvar::wait`].
            inner: Option<parking_lot::MutexGuard<'a, T>>,
        }

        impl<T: ?Sized> Deref for MutexGuard<'_, T> {
            type Target = T;

            fn deref(&self) -> &T {
                self.inner.as_ref().expect("guard present outside wait")
            }
        }

        impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
            fn deref_mut(&mut self) -> &mut T {
                self.inner.as_mut().expect("guard present outside wait")
            }
        }

        /// Chaos-aware condition variable (see [the module docs](self)).
        #[derive(Debug, Default)]
        pub struct Condvar {
            inner: parking_lot::Condvar,
        }

        impl Condvar {
            /// Create a condition variable.
            pub const fn new() -> Self {
                Condvar {
                    inner: parking_lot::Condvar::new(),
                }
            }

            /// Release the guarded lock and block until notified (or, under
            /// an active hook, until the scheduler grants the next turn —
            /// returning as a spurious wakeup). Re-acquires before
            /// returning.
            pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
                if active() {
                    let mutex = guard.mutex;
                    guard.inner = None; // release
                    reach(ChaosPoint::CondvarWait, None);
                    *guard = mutex.lock();
                    return;
                }
                self.inner
                    .wait(guard.inner.as_mut().expect("guard present outside wait"));
            }

            /// Wake one waiting thread.
            pub fn notify_one(&self) {
                self.inner.notify_one();
            }
        }
    }
}

#[cfg(all(test, feature = "chaos"))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct CountingHook {
        reached: AtomicUsize,
    }

    impl ChaosHook for CountingHook {
        fn reach(&self, _point: ChaosPoint, _txn: Option<TxnId>) {
            self.reached.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn hook_is_thread_local_and_removable() {
        assert!(!active(), "no hook installed yet");
        let hook = Arc::new(CountingHook {
            reached: AtomicUsize::new(0),
        });
        install_thread_hook(hook.clone());
        assert!(active());
        reach(ChaosPoint::DeliverDrain, None);
        assert_eq!(hook.reached.load(Ordering::Relaxed), 1);

        // Another thread sees no hook.
        std::thread::spawn(|| assert!(!active())).join().unwrap();

        clear_thread_hook();
        assert!(!active());
        reach(ChaosPoint::DeliverDrain, None);
        assert_eq!(
            hook.reached.load(Ordering::Relaxed),
            1,
            "cleared hook not called"
        );
    }

    struct FixedClock(Option<bool>);

    impl ClockHook for FixedClock {
        fn timeout_fires(&self, _point: TimeoutPoint) -> Option<bool> {
            self.0
        }
    }

    #[test]
    fn clock_hook_is_process_global_and_removable() {
        assert_eq!(timeout_fires(TimeoutPoint::NetRead), None, "no hook yet");
        install_clock_hook(Arc::new(FixedClock(Some(true))));
        assert_eq!(timeout_fires(TimeoutPoint::NetRead), Some(true));
        // Unlike the interleaving hook, the clock is process-global: a
        // freshly spawned thread (as the server's reader threads are) sees
        // the same virtual clock.
        std::thread::spawn(|| {
            assert_eq!(timeout_fires(TimeoutPoint::NetRead), Some(true));
        })
        .join()
        .unwrap();
        clear_clock_hook();
        assert_eq!(timeout_fires(TimeoutPoint::NetRead), None);
        assert_eq!(TimeoutPoint::NetRead.to_string(), "net-read");
    }

    #[test]
    fn cooperative_condvar_wait_is_spurious_under_hook() {
        let hook = Arc::new(CountingHook {
            reached: AtomicUsize::new(0),
        });
        install_thread_hook(hook.clone());
        let mutex = sync::Mutex::new(0);
        let cond = sync::Condvar::new();
        let mut guard = mutex.lock();
        // Returns immediately (spurious) instead of blocking forever.
        cond.wait(&mut guard);
        assert_eq!(*guard, 0);
        drop(guard);
        assert!(hook.reached.load(Ordering::Relaxed) >= 1, "wait yielded");
        clear_thread_hook();
    }
}
