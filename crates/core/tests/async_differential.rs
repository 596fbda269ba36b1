//! Async-vs-sync differential tests: the same randomized transaction
//! scripts driven through the blocking session front-end
//! ([`sbcc_core::Database`]) and through the async front-end
//! ([`sbcc_core::aio::AsyncDatabase`]) must be **behaviourally
//! identical** — same per-operation results, same blocking decisions,
//! same transaction fates, same final committed object states and same
//! kernel statistics — at one shard and at several.
//!
//! Both drivers impose the *same deterministic interleaving*: sessions
//! take turns in index order, a session runs until its next operation
//! blocks (or its script ends in a commit), and a blocked session resumes
//! the moment its turn comes around after the conflict cleared. The sync
//! driver realises this with `try_exec_call` + `settle_pending` (never
//! parking the test thread); the async driver realises it by polling each
//! session's future round-robin — a poll runs the session exactly until
//! its next suspension point, which is the same "turn". Any divergence in
//! scheduling decisions between the two front-ends therefore shows up as
//! a trace mismatch.

mod common;

use common::{arb_call_for, register_objects, N_OBJECTS};
use proptest::prelude::*;
use sbcc_adt::{AdtOp, CounterOp, OpCall, StackOp, Value};
use sbcc_core::aio::AsyncDatabase;
use sbcc_core::{
    CoreError, Database, DatabaseConfig, ObjectHandle, SchedulerConfig, TxnState,
};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

fn config(policy_choice: bool) -> SchedulerConfig {
    let policy = if policy_choice {
        sbcc_core::ConflictPolicy::Recoverability
    } else {
        sbcc_core::ConflictPolicy::CommutativityOnly
    };
    SchedulerConfig::default().with_policy(policy)
}

fn register_all(db: &Database) -> Vec<ObjectHandle> {
    register_objects(|name, object| db.register_object(name, object).unwrap())
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
    /// The comparable subset of the kernel counters.
    stats: String,
}

fn stats_line(db: &Database) -> String {
    let s = db.stats();
    format!(
        "requests={} executed={} blocks={} unblocks={} commit_deps={} commits={} pseudo={} \
         ab_dead={} ab_ccycle={} ab_explicit={}",
        s.requests,
        s.operations_executed,
        s.blocks,
        s.unblocks,
        s.commit_dependencies,
        s.commits,
        s.pseudo_commits,
        s.aborts_deadlock,
        s.aborts_commit_cycle,
        s.aborts_explicit
    )
}

fn committed_states(db: &Database, handles: &[ObjectHandle]) -> Vec<String> {
    handles
        .iter()
        .map(|h| {
            db.with_sharded_kernel(|k| {
                k.with_object_committed(h.id(), |o| o.debug_state())
                    .expect("registered object")
            })
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq)]
enum DriverState {
    Running,
    Waiting,
    Done,
}

/// The sync reference: deterministic single-threaded round-robin over
/// blocking sessions, using the non-parking submission API.
fn run_sync(scripts: &[Vec<ScriptOp>], policy_choice: bool, shards: usize) -> Trace {
    let db = Database::with_config(
        DatabaseConfig::new(config(policy_choice)).with_shards(shards),
    );
    let handles = register_all(&db);
    let n = scripts.len();
    let mut txns: Vec<Option<sbcc_core::Transaction>> =
        (0..n).map(|_| Some(db.begin())).collect();
    let mut state = vec![DriverState::Running; n];
    let mut next = vec![0usize; n];
    let mut results: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut blocked: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut fates: Vec<String> = vec![String::new(); n];

    // Runs session `i` until it blocks, yields or finishes; called on
    // its turn. Returns the new driver state.
    fn turn(
        i: usize,
        script: &[ScriptOp],
        txn: &mut Option<sbcc_core::Transaction>,
        handles: &[ObjectHandle],
        next: &mut usize,
        results: &mut Vec<String>,
        blocked: &mut BTreeSet<usize>,
        fate: &mut String,
    ) -> DriverState {
        let t = txn.as_ref().expect("live session");
        while *next < script.len() {
            let (object, call, yield_after) = &script[*next];
            match t.try_exec_call(&handles[*object], call.clone()) {
                Ok(outcome) => match outcome {
                    sbcc_core::RequestOutcome::Executed { result, .. } => {
                        results.push(format!("{result}"));
                        *next += 1;
                        if *yield_after {
                            // Hand the turn to the next session; resume
                            // here on the next round (still Running).
                            return DriverState::Running;
                        }
                    }
                    sbcc_core::RequestOutcome::Blocked { .. } => {
                        blocked.insert(*next);
                        return DriverState::Waiting;
                    }
                    sbcc_core::RequestOutcome::Aborted { reason } => {
                        *fate = format!("aborted: {reason}");
                        drop(txn.take());
                        return DriverState::Done;
                    }
                },
                Err(CoreError::Aborted { reason, .. }) => {
                    *fate = format!("aborted: {reason}");
                    drop(txn.take());
                    return DriverState::Done;
                }
                Err(e) => panic!("unexpected sync submission error for T{i}: {e}"),
            }
        }
        let outcome = txn.take().expect("live session").commit().unwrap();
        *fate = format!("commit pseudo={}", outcome.is_pseudo_commit());
        DriverState::Done
    }

    let mut safety = 0usize;
    loop {
        safety += 1;
        assert!(safety < 100_000, "sync driver failed to make progress");
        let mut all_done = true;
        for i in 0..n {
            match state[i] {
                DriverState::Done => continue,
                DriverState::Running => {}
                DriverState::Waiting => {
                    let t = txns[i].as_ref().expect("waiting session");
                    if db.txn_state(t.id()) == Some(TxnState::Blocked) {
                        all_done = false;
                        continue;
                    }
                    // The pending request settled (executed or aborted).
                    match t.settle_pending() {
                        Ok(result) => {
                            let yield_after = scripts[i][next[i]].2;
                            results[i].push(format!("{result}"));
                            next[i] += 1;
                            state[i] = DriverState::Running;
                            if yield_after {
                                // The settled op carries a yield: the turn
                                // ends here, exactly like the async future
                                // suspending on `yield_now` right after
                                // its resumed exec.
                                all_done = false;
                                continue;
                            }
                        }
                        Err(CoreError::Aborted { reason, .. }) => {
                            fates[i] = format!("aborted: {reason}");
                            drop(txns[i].take());
                            state[i] = DriverState::Done;
                            continue;
                        }
                        Err(e) => panic!("unexpected settle error for T{i}: {e}"),
                    }
                }
            }
            state[i] = turn(
                i,
                &scripts[i],
                &mut txns[i],
                &handles,
                &mut next[i],
                &mut results[i],
                &mut blocked[i],
                &mut fates[i],
            );
            all_done &= state[i] == DriverState::Done;
        }
        if all_done {
            break;
        }
    }

    db.verify_serializable().unwrap();
    db.verify_commit_dependencies().unwrap();
    db.check_invariants().unwrap();
    let states = committed_states(&db, &handles);
    let stats = stats_line(&db);
    Trace {
        results,
        blocked,
        fates,
        states,
        stats,
    }
}

/// The async driver: one future per transaction, polled round-robin in
/// index order. A poll advances the session until its next conflict
/// suspends it, which mirrors the sync driver's "turn" exactly.
fn run_async(scripts: &[Vec<ScriptOp>], policy_choice: bool, shards: usize) -> Trace {
    let db = AsyncDatabase::with_config(
        DatabaseConfig::new(config(policy_choice)).with_shards(shards),
    );
    let handles = register_all(db.database());
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
    let yielding: Vec<Rc<std::cell::Cell<bool>>> =
        (0..n).map(|_| Rc::new(std::cell::Cell::new(false))).collect();
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
                            shared.borrow_mut().fates[i] = format!("aborted: {reason}");
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

    db.verify_serializable().unwrap();
    db.database().verify_commit_dependencies().unwrap();
    db.check_invariants().unwrap();
    let states = committed_states(db.database(), &handles);
    let stats = stats_line(db.database());
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

fn assert_equivalent(scripts: &[Vec<ScriptOp>], policy_choice: bool, shards: usize) {
    let sync_trace = run_sync(scripts, policy_choice, shards);
    let async_trace = run_async(scripts, policy_choice, shards);
    assert_eq!(
        sync_trace, async_trace,
        "sync and async executions diverged at {shards} shard(s)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: the async front-end is observationally
    /// equivalent to the sync front-end under a deterministic
    /// interleaving — per-op results, blocking decisions, fates, final
    /// committed states and kernel counters all match — both unsharded
    /// and sharded.
    #[test]
    fn async_equals_sync(
        scripts in arb_scripts(),
        policy_choice in any::<bool>(),
    ) {
        for shards in [1usize, 4] {
            assert_equivalent(&scripts, policy_choice, shards);
        }
    }
}

/// A deterministic pin of the classic conflict shape (push held, pop
/// blocked, resumed by the commit) so a differential break is debuggable
/// without shrinking a random case.
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
            let t = run_sync(&scripts, policy_choice, shards);
            assert_eq!(
                t,
                run_async(&scripts, policy_choice, shards),
                "pinned scenario diverged (policy_choice={policy_choice}, {shards} shards)"
            );
            // Under recoverability the pop still blocks (pop does not
            // commute with and is not recoverable relative to push).
            assert!(
                t.blocked[1].contains(&0),
                "T1's pop must block (policy_choice={policy_choice})"
            );
            assert_eq!(t.fates.len(), 3);
        }
    }
}
