//! Differential tests for grouped (batched) submission: a kernel driven
//! with [`SchedulerKernel::request_batch`] must be **behaviourally
//! identical** to one driven by submitting the same calls one at a time
//! through [`SchedulerKernel::request`] — same per-operation results, same
//! blocking decisions, same transaction fates, same final committed object
//! states, same statistics (batch bookkeeping aside), and serializable
//! executions in both cases.
//!
//! The drivers share one skeleton: each transaction's script is cut into
//! random chunks; transactions take turns round-robin, and on its turn a
//! transaction submits its next chunk — call by call in sequential mode,
//! as one `request_batch` group in batched mode. A blocked chunk parks the
//! transaction; once the kernel unblocks the pending call, the remainder
//! of the chunk resumes on the next turn (which is exactly what
//! `Database`'s session batch does with the returned `rest`).

mod common;

use common::{arb_call_for, register_objects, N_OBJECTS};
use proptest::prelude::*;
use sbcc_adt::{AdtOp, Counter, CounterOp, OpCall, Stack, StackOp, Value};
use sbcc_core::{
    verify_commit_order_respects_dependencies, verify_commit_order_serializable, BatchCall,
    BatchStop, ConflictPolicy, KernelEvent, KernelStats, ObjectId, RequestOutcome, SchedulerConfig,
    SchedulerKernel, TxnId, TxnState,
};
use std::collections::{HashMap, VecDeque};

fn arb_chunk() -> impl Strategy<Value = Vec<(usize, OpCall)>> {
    proptest::collection::vec(
        (0..N_OBJECTS).prop_flat_map(|o| arb_call_for(o, true).prop_map(move |c| (o, c))),
        1..6,
    )
}

/// Per-transaction scripts, pre-cut into submission chunks.
fn arb_chunked_scripts() -> impl Strategy<Value = Vec<Vec<Vec<(usize, OpCall)>>>> {
    proptest::collection::vec(proptest::collection::vec(arb_chunk(), 1..4), 2..5)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SubmissionMode {
    PerCall,
    Batched,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum DriverState {
    Running,
    Waiting,
    Done,
}

/// What [`run_chunked`] returns: per-operation results (keyed by
/// transaction index and operation index), the blocking decisions
/// observed, the final fates and the kernel.
type ChunkedRun = (
    HashMap<(usize, usize), String>,
    Vec<String>,
    Vec<TxnState>,
    SchedulerKernel,
);

/// Drive the kernel with the given chunked scripts (see [`ChunkedRun`]).
fn run_chunked(
    scripts: &[Vec<Vec<(usize, OpCall)>>],
    config: SchedulerConfig,
    mode: SubmissionMode,
) -> ChunkedRun {
    let mut kernel = SchedulerKernel::new(config);
    let objects = register_objects(|name, object| kernel.register_object(name, object).unwrap());

    let txns: Vec<TxnId> = scripts.iter().map(|_| kernel.begin()).collect();
    let index_of: HashMap<TxnId, usize> = txns.iter().enumerate().map(|(i, t)| (*t, i)).collect();

    // Per-transaction driver state.
    let mut chunks: Vec<VecDeque<Vec<(usize, OpCall)>>> = scripts
        .iter()
        .map(|s| s.iter().cloned().collect())
        .collect();
    let mut current: Vec<Vec<(usize, OpCall)>> = vec![Vec::new(); scripts.len()];
    let mut state = vec![DriverState::Running; scripts.len()];
    let mut next_op = vec![0usize; scripts.len()];
    let mut results: HashMap<(usize, usize), String> = HashMap::new();
    let mut decisions: Vec<String> = Vec::new();

    // Shared event pump: settles blocked transactions, records their
    // resumed results.
    macro_rules! pump_events {
        () => {
            for event in kernel.drain_events() {
                match event {
                    KernelEvent::Unblocked { txn, outcome } => {
                        let i = index_of[&txn];
                        match outcome {
                            RequestOutcome::Executed { result, .. } => {
                                results.insert((i, next_op[i]), format!("{result}"));
                                next_op[i] += 1;
                                state[i] = DriverState::Running;
                                decisions.push(format!("unblocked {i}"));
                            }
                            RequestOutcome::Aborted { reason } => {
                                state[i] = DriverState::Done;
                                decisions.push(format!("retry-aborted {i}: {reason}"));
                            }
                            RequestOutcome::Blocked { .. } => unreachable!(),
                        }
                    }
                    KernelEvent::Committed { txn } => {
                        decisions.push(format!("cascade-committed {}", index_of[&txn]));
                    }
                }
            }
        };
    }

    let mut safety = 0usize;
    loop {
        safety += 1;
        assert!(safety < 100_000, "driver failed to make progress");
        let mut any_running = false;
        for i in 0..scripts.len() {
            if state[i] != DriverState::Running {
                continue;
            }
            any_running = true;
            if current[i].is_empty() {
                match chunks[i].pop_front() {
                    Some(chunk) => current[i] = chunk,
                    None => {
                        let outcome = kernel.commit(txns[i]).unwrap();
                        decisions
                            .push(format!("commit {i}: pseudo={}", outcome.is_pseudo_commit()));
                        state[i] = DriverState::Done;
                        pump_events!();
                        continue;
                    }
                }
            }
            match mode {
                SubmissionMode::PerCall => {
                    // Submit the chunk call by call until it is exhausted
                    // or the transaction blocks/aborts.
                    while !current[i].is_empty() {
                        let (object, call) = current[i].remove(0);
                        let outcome = kernel.request(txns[i], objects[object], call).unwrap();
                        pump_events!();
                        match outcome {
                            RequestOutcome::Executed { result, .. } => {
                                results.insert((i, next_op[i]), format!("{result}"));
                                next_op[i] += 1;
                            }
                            RequestOutcome::Blocked { waiting_on } => {
                                decisions.push(format!("blocked {i} on {waiting_on:?}"));
                                state[i] = DriverState::Waiting;
                                break;
                            }
                            RequestOutcome::Aborted { reason } => {
                                decisions.push(format!("aborted {i}: {reason}"));
                                state[i] = DriverState::Done;
                                current[i].clear();
                                break;
                            }
                        }
                    }
                }
                SubmissionMode::Batched => {
                    let calls: Vec<BatchCall> = current[i]
                        .drain(..)
                        .map(|(object, call)| BatchCall::new(objects[object], call))
                        .collect();
                    let outcome = kernel.request_batch(txns[i], calls).unwrap();
                    pump_events!();
                    for result in &outcome.executed {
                        results.insert((i, next_op[i]), format!("{result}"));
                        next_op[i] += 1;
                    }
                    match outcome.stopped {
                        None => {}
                        Some(BatchStop::Blocked {
                            waiting_on, rest, ..
                        }) => {
                            decisions.push(format!("blocked {i} on {waiting_on:?}"));
                            state[i] = DriverState::Waiting;
                            current[i] = rest
                                .into_iter()
                                .map(|bc| {
                                    let object = objects
                                        .iter()
                                        .position(|o| *o == bc.object)
                                        .expect("known object");
                                    (object, bc.call)
                                })
                                .collect();
                        }
                        Some(BatchStop::Aborted { reason, .. }) => {
                            decisions.push(format!("aborted {i}: {reason}"));
                            state[i] = DriverState::Done;
                        }
                    }
                }
            }
        }
        if !any_running {
            break;
        }
    }

    let fates: Vec<TxnState> = txns
        .iter()
        .map(|t| kernel.txn_state(*t).expect("transaction recorded"))
        .collect();
    (results, decisions, fates, kernel)
}

/// Strip the batch bookkeeping counters (the only counters allowed to
/// differ between the two submission modes).
fn comparable(stats: &KernelStats) -> KernelStats {
    KernelStats {
        batches: 0,
        batched_calls: 0,
        ..stats.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: batched submission is observationally
    /// equivalent to per-call submission on randomized multi-object
    /// scripts — results, decisions, fates, counters and final committed
    /// states all match, and both executions pass the serializability and
    /// commit-dependency checkers.
    #[test]
    fn batched_equals_sequential(
        scripts in arb_chunked_scripts(),
        fair in any::<bool>(),
        policy_choice in any::<bool>(),
    ) {
        let policy = if policy_choice {
            ConflictPolicy::Recoverability
        } else {
            ConflictPolicy::CommutativityOnly
        };
        let config = SchedulerConfig::default()
            .with_policy(policy)
            .with_fair_scheduling(fair);

        let (r_seq, d_seq, f_seq, mut k_seq) =
            run_chunked(&scripts, config.clone(), SubmissionMode::PerCall);
        let (r_bat, d_bat, f_bat, mut k_bat) =
            run_chunked(&scripts, config, SubmissionMode::Batched);

        prop_assert_eq!(r_seq, r_bat, "per-operation results diverge");
        prop_assert_eq!(d_seq, d_bat, "scheduling decisions diverge");
        prop_assert_eq!(f_seq, f_bat, "transaction fates diverge");
        prop_assert_eq!(
            comparable(k_seq.stats()),
            comparable(k_bat.stats()),
            "kernel statistics diverge"
        );
        prop_assert_eq!(
            k_seq.cycle_checks(),
            k_bat.cycle_checks(),
            "cycle-check counts diverge"
        );
        for id in k_seq.object_ids() {
            let a = k_seq.object_committed_state(id).unwrap();
            let b = k_bat.object_committed_state(id).unwrap();
            prop_assert!(
                a.state_eq(b),
                "final committed state of {} differs: {} vs {}",
                id,
                a.debug_state(),
                b.debug_state()
            );
        }
        for kernel in [&mut k_seq, &mut k_bat] {
            kernel.check_invariants().map_err(TestCaseError::fail)?;
            verify_commit_order_serializable(kernel).map_err(TestCaseError::fail)?;
            verify_commit_order_respects_dependencies(kernel).map_err(TestCaseError::fail)?;
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic partial-admission scenarios
// ---------------------------------------------------------------------

fn kernel() -> SchedulerKernel {
    SchedulerKernel::new(SchedulerConfig::default())
}

#[test]
fn batch_executes_across_objects_in_one_submission() {
    let mut k = kernel();
    let s = k.register("stack", Stack::new()).unwrap();
    let c = k.register("counter", Counter::new()).unwrap();
    let t = k.begin();
    let outcome = k
        .request_batch(
            t,
            vec![
                BatchCall::new(s, StackOp::Push(Value::Int(1)).to_call()),
                BatchCall::new(c, CounterOp::Increment(2).to_call()),
                BatchCall::new(s, StackOp::Top.to_call()),
                BatchCall::new(c, CounterOp::Read.to_call()),
            ],
        )
        .unwrap();
    assert!(outcome.is_complete());
    assert_eq!(outcome.executed.len(), 4);
    assert_eq!(
        outcome.executed[2],
        sbcc_adt::OpResult::Value(Value::Int(1))
    );
    assert_eq!(
        outcome.executed[3],
        sbcc_adt::OpResult::Value(Value::Int(2))
    );
    assert!(outcome.commit_deps.is_empty());
    assert_eq!(k.stats().batches, 1);
    assert_eq!(k.stats().batched_calls, 4);
    assert_eq!(k.stats().requests, 4);
    assert!(k.commit(t).unwrap().is_full_commit());
}

#[test]
fn blocked_batch_reports_prefix_terminator_and_rest() {
    let mut k = kernel();
    let s = k.register("stack", Stack::new()).unwrap();
    let c = k.register("counter", Counter::new()).unwrap();
    let holder = k.begin();
    assert!(k
        .request(holder, s, StackOp::Push(Value::Int(7)).to_call())
        .unwrap()
        .is_executed());

    let t = k.begin();
    let outcome = k
        .request_batch(
            t,
            vec![
                BatchCall::new(c, CounterOp::Increment(1).to_call()),
                BatchCall::new(s, StackOp::Pop.to_call()), // conflicts with the push
                BatchCall::new(c, CounterOp::Increment(1).to_call()),
            ],
        )
        .unwrap();
    // Partial admission: the increment executed, the pop blocked, the
    // suffix came back unprocessed.
    assert_eq!(outcome.executed, vec![sbcc_adt::OpResult::Ok]);
    match outcome.stopped {
        Some(BatchStop::Blocked {
            index,
            ref waiting_on,
            ref rest,
        }) => {
            assert_eq!(index, 1);
            assert_eq!(waiting_on, &vec![holder]);
            assert_eq!(rest.len(), 1);
            assert_eq!(rest[0].object, c);
        }
        ref other => panic!("expected a blocked terminator, got {other:?}"),
    }
    assert_eq!(k.txn_state(t), Some(TxnState::Blocked));
    assert_eq!(k.stats().blocks, 1);

    // The holder commits; the pending pop is retried and executes.
    assert!(k.commit(holder).unwrap().is_full_commit());
    let events = k.drain_events();
    assert!(events.iter().any(|e| matches!(
        e,
        KernelEvent::Unblocked { txn, outcome: RequestOutcome::Executed { .. } } if *txn == t
    )));
    // The caller then resubmits the rest (what `Database` does).
    let resumed = k
        .request_batch(
            t,
            vec![BatchCall::new(c, CounterOp::Increment(1).to_call())],
        )
        .unwrap();
    assert!(resumed.is_complete());
    assert!(k.commit(t).unwrap().is_full_commit());
    let _ = k.drain_events();
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn batch_union_of_commit_deps_is_deduplicated() {
    let mut k = kernel();
    let s = k.register("stack", Stack::new()).unwrap();
    let holder = k.begin();
    assert!(k
        .request(holder, s, StackOp::Push(Value::Int(9)).to_call())
        .unwrap()
        .is_executed());
    let t = k.begin();
    let outcome = k
        .request_batch(
            t,
            vec![
                BatchCall::new(s, StackOp::Push(Value::Int(1)).to_call()),
                BatchCall::new(s, StackOp::Push(Value::Int(2)).to_call()),
                BatchCall::new(s, StackOp::Push(Value::Int(3)).to_call()),
            ],
        )
        .unwrap();
    assert!(outcome.is_complete());
    assert_eq!(
        outcome.commit_deps,
        vec![holder],
        "three recoverable pushes against one holder collapse to one dependency"
    );
    // The stats still count one dependency per admitted recoverable call.
    assert_eq!(k.stats().commit_dependencies, 3);
    assert_eq!(k.commit_dependencies_of(t), vec![holder]);
    assert!(k.commit(t).unwrap().is_pseudo_commit());
    assert!(k.commit(holder).unwrap().is_full_commit());
    let _ = k.drain_events();
    assert_eq!(k.txn_state(t), Some(TxnState::Committed));
}

#[test]
fn aborted_batch_reports_void_prefix_results_and_the_rest() {
    // A commit-dependency cycle mid-batch: T2's batch call would make the
    // dependency relation cyclic, so T2 (the requester) is aborted and the
    // executed prefix is undone with it.
    let mut k = kernel();
    let s1 = k.register("s1", Stack::new()).unwrap();
    let s2 = k.register("s2", Stack::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();
    // T1 depends on T2 (recoverable push behind T2's push on s1)...
    assert!(k
        .request(t2, s1, StackOp::Push(Value::Int(1)).to_call())
        .unwrap()
        .is_executed());
    assert!(k
        .request(t1, s1, StackOp::Push(Value::Int(2)).to_call())
        .unwrap()
        .is_executed());
    assert!(k
        .request(t1, s2, StackOp::Push(Value::Int(3)).to_call())
        .unwrap()
        .is_executed());
    // ... so T2's batch — an unrelated counter-free push prefix plus a push
    // on s2 that would make T2 depend on T1 — closes the cycle at index 1.
    let c = k.register("c", Counter::new()).unwrap();
    let outcome = k
        .request_batch(
            t2,
            vec![
                BatchCall::new(c, CounterOp::Increment(1).to_call()),
                BatchCall::new(s2, StackOp::Push(Value::Int(4)).to_call()),
                BatchCall::new(c, CounterOp::Increment(1).to_call()),
            ],
        )
        .unwrap();
    // The prefix result is reported (per-call submission would already
    // have returned it) but the abort has undone its effects.
    assert_eq!(outcome.executed, vec![sbcc_adt::OpResult::Ok]);
    match outcome.stopped {
        Some(BatchStop::Aborted {
            index, ref rest, ..
        }) => {
            assert_eq!(index, 1);
            assert_eq!(rest.len(), 1);
        }
        ref other => panic!("expected an aborted terminator, got {other:?}"),
    }
    assert_eq!(k.txn_state(t2), Some(TxnState::Aborted));
    // T1 survives (no cascading aborts) and commits.
    let _ = k.drain_events();
    assert!(k.commit(t1).unwrap().is_full_commit());
    k.check_invariants().unwrap();
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn empty_and_invalid_batches_are_rejected_cleanly() {
    let mut k = kernel();
    let s = k.register("s", Stack::new()).unwrap();
    let t = k.begin();
    // Empty batch: trivially complete.
    let outcome = k.request_batch(t, Vec::new()).unwrap();
    assert!(outcome.is_complete());
    assert!(outcome.executed.is_empty());
    // Unknown object: rejected before anything executes.
    let err = k.request_batch(
        t,
        vec![
            BatchCall::new(s, StackOp::Push(Value::Int(1)).to_call()),
            BatchCall::new(ObjectId(99), StackOp::Pop.to_call()),
        ],
    );
    assert!(err.is_err());
    assert_eq!(k.stats().operations_executed, 0, "fail-fast: nothing ran");
    // Terminated transaction: rejected.
    k.abort(t).unwrap();
    assert!(k
        .request_batch(t, vec![BatchCall::new(s, StackOp::Pop.to_call())])
        .is_err());
}
