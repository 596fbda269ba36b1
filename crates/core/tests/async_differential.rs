//! Sessions against the bare kernel. [`sbcc_core::aio::AsyncDatabase`]
//! sessions (and so the blocking [`sbcc_core::Database`], which is
//! `block_on` over the same futures) must add no scheduling semantics of
//! their own: the same randomized transaction scripts, driven once
//! through async sessions and once by calling
//! [`sbcc_core::ShardedKernel::request`] and
//! [`sbcc_core::ShardedKernel::drain_events`] directly, must give the
//! same per-operation results, blocking decisions, transaction fates,
//! final committed object states and [`sbcc_core::KernelStats`], at one
//! shard and at four. A divergence means the session dropped, added or
//! reordered a kernel call: its submission, its wait for a blocked
//! request's outcome, its commit, or its drop-abort.
//!
//! Both drivers impose the *same deterministic interleaving*: sessions
//! take turns in index order, a session runs until its next operation
//! blocks (or its script ends in a commit), and a blocked session resumes
//! the moment its turn comes around after the conflict cleared. The
//! async driver realises this by polling each session's future
//! round-robin — a poll runs the session exactly until its next
//! suspension point, which is one "turn". The kernel driver realises it
//! by hand: after every kernel call it drains the event queue and keeps
//! each blocked transaction's delivered outcome until that
//! transaction's turn.

mod common;

use common::{arb_call_for, register_objects, N_OBJECTS};
use proptest::prelude::*;
use sbcc_adt::{AdtOp, CounterOp, OpCall, OpResult, StackOp, Value};
use sbcc_core::aio::AsyncDatabase;
use sbcc_core::{
    CoreError, DatabaseConfig, KernelEvent, KernelStats, ObjectId, RequestOutcome, SchedulerConfig,
    ShardedKernel, TxnId,
};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

fn config(policy_choice: bool, shards: usize) -> DatabaseConfig {
    let policy = if policy_choice {
        sbcc_core::ConflictPolicy::Recoverability
    } else {
        sbcc_core::ConflictPolicy::CommutativityOnly
    };
    DatabaseConfig::new(SchedulerConfig::default().with_policy(policy)).with_shards(shards)
}

/// One scripted operation: target object, call, and whether the session
/// cooperatively yields its turn afterwards. Yields are what make the
/// interleaving interesting: without them every session would run its
/// whole script (and commit) in its first turn and no two live
/// transactions would ever conflict.
type ScriptOp = (usize, OpCall, bool);

/// Per-transaction scripts: each transaction runs its ops in order, then
/// commits.
fn arb_scripts() -> impl Strategy<Value = Vec<Vec<ScriptOp>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0..N_OBJECTS).prop_flat_map(|o| {
                (arb_call_for(o, false), any::<bool>()).prop_map(move |(c, y)| (o, c, y))
            }),
            1..8,
        ),
        2..5,
    )
}

/// Everything observable about one execution.
#[derive(Debug, PartialEq)]
struct Trace {
    /// Per transaction: the result of every completed operation, in order.
    results: Vec<Vec<String>>,
    /// Per transaction: the indices of the operations that blocked.
    blocked: Vec<BTreeSet<usize>>,
    /// Per transaction: how it ended.
    fates: Vec<String>,
    /// Final committed state of every object.
    states: Vec<String>,
    /// The kernel counters.
    stats: KernelStats,
}

/// Validate the finished kernel and read its committed states and
/// counters.
fn finish(kernel: &ShardedKernel, objects: &[ObjectId]) -> (Vec<String>, KernelStats) {
    kernel.verify_serializable().unwrap();
    kernel.verify_commit_dependencies().unwrap();
    kernel.check_invariants().unwrap();
    let states = objects
        .iter()
        .map(|id| {
            kernel
                .with_object_committed(*id, |o| o.debug_state())
                .expect("registered object")
        })
        .collect();
    (states, kernel.stats())
}

fn aborted(reason: impl std::fmt::Display) -> String {
    format!("aborted: {reason}")
}

#[derive(Clone, Copy, PartialEq)]
enum DriverState {
    Running,
    Waiting,
    Done,
}

/// The bare kernel: every request, commit and drop-abort a session would
/// make, called directly, and every event drained right after the call
/// that produced it.
struct KernelDriver<'a> {
    kernel: &'a ShardedKernel,
    /// Delivered outcomes of blocked requests, by transaction, until that
    /// transaction's turn claims them.
    delivered: HashMap<TxnId, RequestOutcome>,
}

impl KernelDriver<'_> {
    fn drain(&mut self) {
        for event in self.kernel.drain_events() {
            if let KernelEvent::Unblocked { txn, outcome } = event {
                self.delivered.insert(txn, outcome);
            }
        }
    }

    fn request(&mut self, txn: TxnId, object: ObjectId, call: OpCall) -> RequestOutcome {
        let outcome = self.kernel.request(txn, object, call);
        self.drain();
        match outcome {
            Ok(outcome) => outcome,
            Err(CoreError::Aborted { reason, .. }) => RequestOutcome::Aborted { reason },
            Err(e) => panic!("unexpected kernel request error for {txn}: {e}"),
        }
    }

    /// What a session's drop does to a transaction it did not commit.
    fn drop_abort(&mut self, txn: TxnId) {
        let _ = self.kernel.abort(txn);
        self.drain();
    }
}

/// The kernel driver: deterministic round-robin over bare transaction ids.
fn run_kernel(scripts: &[Vec<ScriptOp>], policy_choice: bool, shards: usize) -> Trace {
    let kernel = ShardedKernel::new(config(policy_choice, shards));
    let objects = register_objects(|name, object| kernel.register_object(name, object).unwrap().0);
    let mut driver = KernelDriver {
        kernel: &kernel,
        delivered: HashMap::new(),
    };
    let n = scripts.len();
    let txns: Vec<TxnId> = (0..n).map(|_| kernel.begin()).collect();
    let mut state = vec![DriverState::Running; n];
    let mut next = vec![0usize; n];
    let mut results: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut blocked: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut fates: Vec<String> = vec![String::new(); n];

    let mut safety = 0usize;
    loop {
        safety += 1;
        assert!(safety < 100_000, "kernel driver failed to make progress");
        let mut all_done = true;
        for i in 0..n {
            let txn = txns[i];
            let script = &scripts[i];
            // The outcome of the operation at `next[i]`: a settled blocked
            // request on a waiting turn, a fresh request otherwise.
            let mut settled = match state[i] {
                DriverState::Done => continue,
                DriverState::Waiting => match driver.delivered.remove(&txn) {
                    Some(outcome) => Some(outcome),
                    None => {
                        all_done = false;
                        continue;
                    }
                },
                DriverState::Running => None,
            };
            state[i] = loop {
                if settled.is_none() && next[i] == script.len() {
                    let (commit, _) = kernel.commit(txn).unwrap();
                    driver.drain();
                    fates[i] = format!("commit pseudo={}", commit.is_pseudo_commit());
                    break DriverState::Done;
                }
                let (object, call, yield_after) = &script[next[i]];
                let outcome = settled
                    .take()
                    .unwrap_or_else(|| driver.request(txn, objects[*object], call.clone()));
                match outcome {
                    RequestOutcome::Executed { result, .. } => {
                        results[i].push(format!("{result}"));
                        next[i] += 1;
                        if *yield_after {
                            // Hand the turn to the next session; resume
                            // here on the next round.
                            break DriverState::Running;
                        }
                    }
                    RequestOutcome::Blocked { .. } => {
                        // A session claims an outcome its own submission's
                        // drain already delivered, without suspending.
                        settled = driver.delivered.remove(&txn);
                        if settled.is_some() {
                            continue;
                        }
                        blocked[i].insert(next[i]);
                        break DriverState::Waiting;
                    }
                    RequestOutcome::Aborted { reason } => {
                        fates[i] = aborted(reason);
                        driver.drop_abort(txn);
                        break DriverState::Done;
                    }
                }
            };
            all_done &= state[i] == DriverState::Done;
        }
        if all_done {
            break;
        }
    }

    let (states, stats) = finish(&kernel, &objects);
    Trace {
        results,
        blocked,
        fates,
        states,
        stats,
    }
}

/// The async sessions: one future per transaction, polled round-robin in
/// index order. A poll advances the session until its next conflict
/// suspends it, which mirrors the kernel driver's "turn" exactly.
fn run_async(scripts: &[Vec<ScriptOp>], policy_choice: bool, shards: usize) -> Trace {
    let db = AsyncDatabase::with_config(config(policy_choice, shards));
    let handles = register_objects(|name, object| db.register_object(name, object).unwrap());
    let n = scripts.len();

    #[derive(Default)]
    struct SharedTrace {
        results: Vec<Vec<String>>,
        fates: Vec<String>,
    }
    let shared = Rc::new(RefCell::new(SharedTrace {
        results: vec![Vec::new(); n],
        fates: vec![String::new(); n],
    }));

    // Distinguishes a cooperative-yield suspension from a blocked-in-
    // the-kernel suspension when a poll returns `Pending`.
    let yielding: Vec<Rc<std::cell::Cell<bool>>> = (0..n)
        .map(|_| Rc::new(std::cell::Cell::new(false)))
        .collect();
    let mut futures: Vec<Option<Pin<Box<dyn Future<Output = ()>>>>> = scripts
        .iter()
        .enumerate()
        .map(|(i, script)| {
            let txn = db.begin();
            let script = script.clone();
            let handles = handles.clone();
            let shared = shared.clone();
            let yielding = yielding[i].clone();
            let fut: Pin<Box<dyn Future<Output = ()>>> = Box::pin(async move {
                for (object, call, yield_after) in script {
                    match txn.exec_call(&handles[object], call).await {
                        Ok(result) => {
                            shared.borrow_mut().results[i].push(format!("{result}"));
                        }
                        Err(CoreError::Aborted { reason, .. }) => {
                            shared.borrow_mut().fates[i] = aborted(reason);
                            return;
                        }
                        Err(e) => panic!("unexpected async exec error for T{i}: {e}"),
                    }
                    if yield_after {
                        yielding.set(true);
                        sbcc_core::aio::yield_now().await;
                        yielding.set(false);
                    }
                }
                let outcome = txn.commit().await.unwrap();
                shared.borrow_mut().fates[i] =
                    format!("commit pseudo={}", outcome.is_pseudo_commit());
            });
            Some(fut)
        })
        .collect();

    let mut blocked: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut cx = Context::from_waker(Waker::noop());
    let mut safety = 0usize;
    loop {
        safety += 1;
        assert!(safety < 100_000, "async driver failed to make progress");
        let mut all_done = true;
        for (i, slot) in futures.iter_mut().enumerate() {
            let Some(fut) = slot.as_mut() else { continue };
            all_done = false;
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(()) => *slot = None,
                Poll::Pending => {
                    if yielding[i].get() {
                        // Cooperative yield, not a conflict.
                        continue;
                    }
                    // The session suspends exactly at a blocked operation:
                    // the next unrecorded op is the one that blocked.
                    let index = shared.borrow().results[i].len();
                    blocked[i].insert(index);
                }
            }
        }
        if all_done {
            break;
        }
    }

    let ids: Vec<ObjectId> = handles.iter().map(|h| h.id()).collect();
    let (states, stats) = db
        .database()
        .with_sharded_kernel(|kernel| finish(kernel, &ids));
    let shared = Rc::try_unwrap(shared)
        .ok()
        .expect("all futures dropped")
        .into_inner();
    Trace {
        results: shared.results,
        blocked,
        fates: shared.fates,
        states,
        stats,
    }
}

fn assert_equivalent(scripts: &[Vec<ScriptOp>], policy_choice: bool, shards: usize) -> Trace {
    let kernel_trace = run_kernel(scripts, policy_choice, shards);
    let session_trace = run_async(scripts, policy_choice, shards);
    assert_eq!(
        kernel_trace, session_trace,
        "the sessions and the bare kernel diverged at {shards} shard(s)"
    );
    kernel_trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: sessions are observationally equivalent to
    /// the kernel calls they make under a deterministic interleaving —
    /// per-op results, blocking decisions, fates, final committed states
    /// and kernel counters all match — both unsharded and sharded.
    #[test]
    fn sessions_equal_kernel(
        scripts in arb_scripts(),
        policy_choice in any::<bool>(),
    ) {
        for shards in [1usize, 4] {
            assert_equivalent(&scripts, policy_choice, shards);
        }
    }
}

/// A deterministic pin of the classic conflict shape (push held, pop
/// blocked, resumed by the commit) through both drivers, so a break is
/// debuggable without shrinking a random case.
#[test]
fn pinned_conflict_scenario_matches() {
    let scripts: Vec<Vec<ScriptOp>> = vec![
        // T0: holds the stack with a push, yields its turn, increments,
        // then commits — the push stays uncommitted across one round.
        vec![
            (0, StackOp::Push(Value::Int(7)).to_call(), true),
            (2, CounterOp::Increment(1).to_call(), false),
        ],
        // T1: pop conflicts with the uncommitted push and must block.
        vec![(0, StackOp::Pop.to_call(), false)],
        // T2: pure counter traffic, never blocks.
        vec![
            (2, CounterOp::Increment(2).to_call(), true),
            (2, CounterOp::Read.to_call(), false),
        ],
    ];
    for policy_choice in [false, true] {
        for shards in [1usize, 4] {
            let t = assert_equivalent(&scripts, policy_choice, shards);
            // Under recoverability the pop still blocks (pop does not
            // commute with and is not recoverable relative to push).
            assert!(
                t.blocked[1].contains(&0),
                "T1's pop must block (policy_choice={policy_choice})"
            );
            assert_eq!(
                t.results[1],
                vec![OpResult::Value(Value::Int(7)).to_string()]
            );
            assert_eq!(t.stats.blocks, 1);
            assert_eq!(t.stats.unblocks, 1);
        }
    }
}
