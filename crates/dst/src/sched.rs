//! The virtual-thread scheduler: real OS threads, one baton.
//!
//! Each simulated session runs on its own OS thread, but **exactly one
//! session thread executes at a time**: every other thread is parked
//! inside [`Scheduler::yield_turn`] waiting for the baton. At each yield
//! point the running thread appends a trace event, rejoins the ready set,
//! and the seeded RNG (or a replay script) picks who runs next. Because
//! the sole source of cross-thread interleaving is this pick, the whole
//! run — trace, kernel decisions, verdict — is a pure function of the
//! seed.
//!
//! The scheduler itself uses `std::sync` primitives, *not* the
//! chaos-aware wrappers of `sbcc_core::chaos::sync` — the harness's own
//! locks must never re-enter the hook layer they implement.
//!
//! # Liveness and free-run
//!
//! Virtual time is the step counter: one yield = one tick. A run that
//! exceeds its step budget is declared **hung** (the liveness verdict)
//! and the scheduler switches to *free-run*: every wait returns
//! immediately, the per-thread hooks report `cooperative() == false` so
//! the chaos primitives fall back to real blocking, and whatever sessions
//! can still finish do so on ordinary OS scheduling while the main thread
//! stops waiting for the rest. Determinism is already forfeit at that
//! point — the run failed.

use sbcc_core::{ChaosPoint, TxnId};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::rng::SplitMix64;

/// What a virtual thread was doing when it yielded; one trace line each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A `sbcc_core::chaos` yield point was reached.
    Chaos {
        /// The yield point.
        point: ChaosPoint,
        /// The transaction the point concerns, when the seam knows it.
        txn: Option<TxnId>,
    },
    /// An async session is about to poll an operation future again.
    Poll {
        /// The future's transaction.
        txn: TxnId,
        /// How many polls this future has seen so far.
        polls: u32,
    },
    /// An async session cancels (drops) an in-flight operation future.
    Cancel {
        /// The cancelled future's transaction.
        txn: TxnId,
    },
    /// An injected workload fault (explicit abort of a live transaction).
    FaultAbort {
        /// The aborted transaction.
        txn: TxnId,
    },
    /// The session's script completed and its thread is about to exit.
    End,
}

/// One entry of the yield/fault trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time (yields so far) when the event was recorded.
    pub step: usize,
    /// The virtual thread that recorded it.
    pub vt: usize,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    fn render(&self, out: &mut String) {
        let _ = write!(out, "step={:<6} vt={} ", self.step, self.vt);
        match &self.kind {
            TraceKind::Chaos {
                point,
                txn: Some(t),
            } => {
                let _ = writeln!(out, "{point} {t}");
            }
            TraceKind::Chaos { point, txn: None } => {
                let _ = writeln!(out, "{point}");
            }
            TraceKind::Poll { txn, polls } => {
                let _ = writeln!(out, "poll {txn} #{polls}");
            }
            TraceKind::Cancel { txn } => {
                let _ = writeln!(out, "cancel {txn}");
            }
            TraceKind::FaultAbort { txn } => {
                let _ = writeln!(out, "fault-abort {txn}");
            }
            TraceKind::End => {
                let _ = writeln!(out, "end");
            }
        }
    }
}

struct SchedState {
    /// Threads that have called [`Scheduler::register`] so far.
    registered: usize,
    /// The thread currently holding the baton (`None` before start and in
    /// the instants between a hand-off).
    current: Option<usize>,
    /// Ready set: registered, not current, not finished. A `BTreeSet` so
    /// the choice index enumerates it in a canonical (sorted) order.
    runnable: BTreeSet<usize>,
    finished: usize,
    rng: SplitMix64,
    /// Replay script: forced choice indices, consumed in decision order.
    script: Option<Vec<u32>>,
    /// Every choice actually made (script or RNG), for shrinking.
    decisions: Vec<u32>,
    trace: Vec<TraceEvent>,
    steps: usize,
}

/// The baton scheduler shared by a run's session threads (see the
/// [module docs](self)).
pub struct Scheduler {
    expected: usize,
    max_steps: usize,
    state: Mutex<SchedState>,
    turn: Condvar,
    /// Set when the step budget is exhausted (or the real-time guard
    /// fired): the run's liveness verdict.
    hung: AtomicBool,
    /// Set together with `hung`: waits stop blocking, hooks stop being
    /// cooperative. Read on every chaos seam, hence atomic.
    free_run: AtomicBool,
}

impl Scheduler {
    /// A scheduler for `expected` virtual threads, budgeted to
    /// `max_steps` yields, drawing picks from `seed` (or from `script`
    /// while it lasts — past its end the pick is the canonical index 0).
    pub fn new(expected: usize, max_steps: usize, seed: u64, script: Option<Vec<u32>>) -> Self {
        Scheduler {
            expected,
            max_steps,
            state: Mutex::new(SchedState {
                registered: 0,
                current: None,
                runnable: BTreeSet::new(),
                finished: 0,
                rng: SplitMix64::new(seed ^ 0x5C4E_D01E_D57A_7051),
                script,
                decisions: Vec::new(),
                trace: Vec::new(),
                steps: 0,
            }),
            turn: Condvar::new(),
            hung: AtomicBool::new(false),
            free_run: AtomicBool::new(false),
        }
    }

    /// Whether the scheduler is in free-run (liveness verdict reached).
    pub fn free_running(&self) -> bool {
        self.free_run.load(Ordering::Acquire)
    }

    /// Whether the run exhausted its step budget.
    pub fn hung(&self) -> bool {
        self.hung.load(Ordering::Acquire)
    }

    fn enter_free_run(&self) {
        self.free_run.store(true, Ordering::Release);
        self.turn.notify_all();
    }

    /// Pick the next thread to run. Caller holds the state lock and has
    /// ensured `current` is `None`.
    fn pick_next(&self, s: &mut SchedState) {
        debug_assert!(s.current.is_none());
        let len = s.runnable.len();
        if len == 0 {
            return; // everyone finished (or none registered yet)
        }
        let idx = match &s.script {
            Some(script) => match script.get(s.decisions.len()) {
                Some(&i) => (i as usize).min(len - 1),
                // Past the script's end: the canonical choice, so a
                // shrunk prefix still describes a complete run.
                None => 0,
            },
            None => s.rng.below(len),
        };
        s.decisions.push(idx as u32);
        let chosen = *s.runnable.iter().nth(idx).expect("idx < len");
        s.runnable.remove(&chosen);
        s.current = Some(chosen);
    }

    /// Announce virtual thread `vt` and block until it is granted the
    /// first turn. Scheduling starts once all `expected` threads are
    /// registered; registration *order* (which is OS-dependent) is
    /// irrelevant because no pick happens before the set is complete.
    pub fn register(&self, vt: usize) {
        let mut s = self.state.lock().expect("scheduler state");
        s.runnable.insert(vt);
        s.registered += 1;
        if s.registered == self.expected {
            self.pick_next(&mut s);
            self.turn.notify_all();
        }
        while s.current != Some(vt) && !self.free_running() {
            s = self.turn.wait(s).expect("scheduler state");
        }
    }

    /// Record `kind`, hand the baton back, and block until it returns to
    /// `vt`. The core of every yield point.
    pub fn yield_turn(&self, vt: usize, kind: TraceKind) {
        if self.free_running() {
            return;
        }
        let mut s = self.state.lock().expect("scheduler state");
        if s.current != Some(vt) {
            // Only possible when free-run flipped between the check above
            // and the lock: we no longer own the baton, just keep going.
            return;
        }
        s.steps += 1;
        let step = s.steps;
        s.trace.push(TraceEvent { step, vt, kind });
        if s.steps >= self.max_steps {
            self.hung.store(true, Ordering::Release);
            drop(s);
            self.enter_free_run();
            return;
        }
        s.runnable.insert(vt);
        s.current = None;
        self.pick_next(&mut s);
        if s.current == Some(vt) {
            return; // the pick chose us again; keep running
        }
        self.turn.notify_all();
        while s.current != Some(vt) && !self.free_running() {
            s = self.turn.wait(s).expect("scheduler state");
        }
    }

    /// Virtual thread `vt` finished its session script: record the end,
    /// release the baton for good and wake whoever is next (or the main
    /// thread, when this was the last one).
    pub fn finish(&self, vt: usize) {
        let mut s = self.state.lock().expect("scheduler state");
        s.finished += 1;
        let step = s.steps;
        s.trace.push(TraceEvent {
            step,
            vt,
            kind: TraceKind::End,
        });
        if s.current == Some(vt) {
            s.current = None;
            self.pick_next(&mut s);
        }
        self.turn.notify_all();
    }

    /// Block the main thread until every session finished, the run hung
    /// (step budget), or `real_time_guard` of wall-clock time passed
    /// without completion (a non-yielding livelock — also a hang).
    /// Returns `true` when all sessions finished cleanly.
    pub fn wait_all_finished(&self, real_time_guard: Duration) -> bool {
        let deadline = std::time::Instant::now() + real_time_guard;
        let mut s = self.state.lock().expect("scheduler state");
        loop {
            // Hung wins over finished: free-run may let the remaining
            // sessions drain, but the budget already expired — the run is
            // a liveness failure regardless.
            if self.hung() {
                return false;
            }
            if s.finished == self.expected {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                self.hung.store(true, Ordering::Release);
                drop(s);
                self.enter_free_run();
                return false;
            }
            let (guard, _timeout) = self
                .turn
                .wait_timeout(s, deadline - now)
                .expect("scheduler state");
            s = guard;
        }
    }

    /// The rendered trace and the decision list (choice indices in pick
    /// order). Call only after [`Scheduler::wait_all_finished`].
    pub fn into_outcome(&self) -> (String, Vec<u32>, usize) {
        let s = self.state.lock().expect("scheduler state");
        let mut text = String::new();
        for ev in &s.trace {
            ev.render(&mut text);
        }
        (text, s.decisions.clone(), s.steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Three threads, each yielding a few times: every thread gets turns,
    /// all finish, and the same seed produces the same decisions.
    fn run_once(seed: u64) -> (String, Vec<u32>) {
        let sched = Arc::new(Scheduler::new(3, 10_000, seed, None));
        let mut handles = Vec::new();
        for vt in 0..3 {
            let sched = sched.clone();
            handles.push(std::thread::spawn(move || {
                sched.register(vt);
                for _ in 0..5 {
                    sched.yield_turn(
                        vt,
                        TraceKind::Chaos {
                            point: ChaosPoint::LockContended,
                            txn: None,
                        },
                    );
                }
                sched.finish(vt);
            }));
        }
        assert!(sched.wait_all_finished(Duration::from_secs(10)));
        for h in handles {
            h.join().unwrap();
        }
        let (trace, decisions, _steps) = sched.into_outcome();
        (trace, decisions)
    }

    #[test]
    fn same_seed_same_schedule() {
        let (t1, d1) = run_once(99);
        let (t2, d2) = run_once(99);
        assert_eq!(t1, t2, "byte-identical trace");
        assert_eq!(d1, d2);
        let (t3, _) = run_once(100);
        assert_ne!(t1, t3, "different seed, different interleaving");
    }

    #[test]
    fn step_budget_declares_a_hang() {
        let sched = Arc::new(Scheduler::new(1, 10, 1, None));
        let s2 = sched.clone();
        let h = std::thread::spawn(move || {
            s2.register(0);
            // Spin forever: only the budget stops us.
            loop {
                if s2.free_running() {
                    break;
                }
                s2.yield_turn(
                    0,
                    TraceKind::Chaos {
                        point: ChaosPoint::CondvarWait,
                        txn: None,
                    },
                );
            }
            s2.finish(0);
        });
        assert!(
            !sched.wait_all_finished(Duration::from_secs(10)),
            "hang detected"
        );
        assert!(sched.hung());
        h.join().unwrap();
    }

    #[test]
    fn script_forces_the_schedule() {
        // With 2 threads the first pick has 2 candidates; force vt 1
        // first, then drain canonically.
        let sched = Arc::new(Scheduler::new(2, 1000, 7, Some(vec![1])));
        let mut handles = Vec::new();
        for vt in 0..2 {
            let sched = sched.clone();
            handles.push(std::thread::spawn(move || {
                sched.register(vt);
                sched.yield_turn(
                    vt,
                    TraceKind::Chaos {
                        point: ChaosPoint::DeliverDrain,
                        txn: None,
                    },
                );
                sched.finish(vt);
            }));
        }
        assert!(sched.wait_all_finished(Duration::from_secs(10)));
        for h in handles {
            h.join().unwrap();
        }
        let (trace, decisions, _) = sched.into_outcome();
        let first = trace.lines().next().unwrap();
        assert!(first.contains("vt=1"), "scripted first turn, got:\n{trace}");
        assert_eq!(decisions[0], 1, "the scripted choice was recorded");
    }
}
