//! Scenario tests for the concurrency-control and commit protocol,
//! mirroring the examples and claims of the paper section by section.

use sbcc_adt::{
    AdtOp, Counter, CounterOp, Page, PageOp, Set, SetOp, Stack, StackOp, TableObject, TableOp,
    Value,
};
use sbcc_core::{
    verify_commit_order_respects_dependencies, verify_commit_order_serializable, AbortReason,
    CommitOutcome, ConflictPolicy, CoreError, KernelEvent, RequestOutcome, SchedulerConfig,
    SchedulerKernel, TxnState,
};

fn kernel(policy: ConflictPolicy) -> SchedulerKernel {
    SchedulerKernel::new(SchedulerConfig::default().with_policy(policy))
}

fn executed(outcome: &RequestOutcome) -> bool {
    outcome.is_executed()
}

#[test]
fn paper_example_two_pushes_run_in_parallel_with_commit_dependency() {
    // Section 1: "two push operations are recoverable and hence can be
    // executed in parallel", with the commit order fixed to invocation order.
    let mut k = kernel(ConflictPolicy::Recoverability);
    let s = k.register("stack", Stack::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();

    let r1 = k.request_op(t1, s, &StackOp::Push(Value::Int(4))).unwrap();
    assert!(executed(&r1));
    let r2 = k.request_op(t2, s, &StackOp::Push(Value::Int(2))).unwrap();
    match &r2 {
        RequestOutcome::Executed { commit_deps, .. } => assert_eq!(commit_deps, &vec![t1]),
        other => panic!("expected execution with a commit dependency, got {other:?}"),
    }

    // T2 commits first from the user's perspective (pseudo-commit) ...
    assert!(k.commit(t2).unwrap().is_pseudo_commit());
    assert_eq!(k.txn_state(t2), Some(TxnState::PseudoCommitted));
    // ... and actually commits only after T1 terminates.
    assert_eq!(k.commit(t1).unwrap(), CommitOutcome::Committed);
    let events = k.drain_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, KernelEvent::Committed { txn } if *txn == t2)));
    assert_eq!(k.txn_state(t2), Some(TxnState::Committed));

    verify_commit_order_serializable(&k).unwrap();
    verify_commit_order_respects_dependencies(&k).unwrap();
    k.check_invariants().unwrap();
}

#[test]
fn under_commutativity_only_the_second_push_waits() {
    let mut k = kernel(ConflictPolicy::CommutativityOnly);
    let s = k.register("stack", Stack::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();

    assert!(executed(
        &k.request_op(t1, s, &StackOp::Push(Value::Int(4))).unwrap()
    ));
    let r2 = k.request_op(t2, s, &StackOp::Push(Value::Int(2))).unwrap();
    match &r2 {
        RequestOutcome::Blocked { waiting_on } => assert_eq!(waiting_on, &vec![t1]),
        other => panic!("expected blocking under the baseline, got {other:?}"),
    }
    assert_eq!(k.txn_state(t2), Some(TxnState::Blocked));

    // When T1 commits, T2's push is retried and executes.
    assert_eq!(k.commit(t1).unwrap(), CommitOutcome::Committed);
    let events = k.drain_events();
    assert!(events.iter().any(|e| matches!(
        e,
        KernelEvent::Unblocked { txn, outcome } if *txn == t2 && outcome.is_executed()
    )));
    assert_eq!(k.txn_state(t2), Some(TxnState::Active));
    assert_eq!(k.commit(t2).unwrap(), CommitOutcome::Committed);
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn paper_sequence_1_member_after_insert_must_wait() {
    // Sequence (1) of Section 3.2: T2's member(3) observes T1's uncommitted
    // insert(3); allowing it would expose T2 to a cascading abort, so the
    // protocol blocks it.
    let mut k = kernel(ConflictPolicy::Recoverability);
    let x = k.register("X", Set::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();

    assert!(executed(
        &k.request_op(t1, x, &SetOp::Insert(Value::Int(3))).unwrap()
    ));
    let r = k.request_op(t2, x, &SetOp::Member(Value::Int(3))).unwrap();
    assert!(r.is_blocked(), "member(3) must wait for the insert(3)");

    // Once T1 aborts, the member executes and does NOT see the insert.
    k.abort(t1).unwrap();
    let events = k.drain_events();
    let unblocked = events
        .iter()
        .find_map(|e| match e {
            KernelEvent::Unblocked { txn, outcome } if *txn == t2 => Some(outcome.clone()),
            _ => None,
        })
        .expect("member must be retried after the abort");
    assert_eq!(
        unblocked.result(),
        Some(&sbcc_adt::OpResult::Value(Value::Bool(false)))
    );
    k.commit(t2).unwrap();
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn paper_sequence_3_recoverable_operations_do_not_wait() {
    // Sequence (3): T1 pushes on stack S and checks membership on set X;
    // T2 pushes on S and inserts into X. T2's operations are recoverable,
    // so they execute without waiting; the commit order is fixed.
    let mut k = kernel(ConflictPolicy::Recoverability);
    let s = k.register("S", Stack::new()).unwrap();
    let x = k.register("X", Set::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();

    assert!(executed(
        &k.request_op(t1, s, &StackOp::Push(Value::Int(4))).unwrap()
    ));
    let member = k.request_op(t1, x, &SetOp::Member(Value::Int(3))).unwrap();
    assert_eq!(
        member.result(),
        Some(&sbcc_adt::OpResult::Value(Value::Bool(false)))
    );
    assert!(executed(
        &k.request_op(t2, s, &StackOp::Push(Value::Int(2))).unwrap()
    ));
    assert!(executed(
        &k.request_op(t2, x, &SetOp::Insert(Value::Int(3))).unwrap()
    ));

    // T2 can only pseudo-commit while T1 is live.
    assert!(k.commit(t2).unwrap().is_pseudo_commit());
    assert_eq!(k.commit(t1).unwrap(), CommitOutcome::Committed);
    assert_eq!(k.txn_state(t2), Some(TxnState::Committed));
    verify_commit_order_serializable(&k).unwrap();
    verify_commit_order_respects_dependencies(&k).unwrap();
}

#[test]
fn read_write_model_only_read_after_write_conflicts() {
    let mut k = kernel(ConflictPolicy::Recoverability);
    let p = k.register("page", Page::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();
    let t3 = k.begin();

    assert!(executed(&k.request_op(t1, p, &PageOp::Read).unwrap()));
    // write after read: recoverable
    let w = k.request_op(t2, p, &PageOp::Write(Value::Int(5))).unwrap();
    match &w {
        RequestOutcome::Executed { commit_deps, .. } => assert_eq!(commit_deps, &vec![t1]),
        other => panic!("write after read should be recoverable, got {other:?}"),
    }
    // read after (uncommitted) write: blocked
    let r = k.request_op(t3, p, &PageOp::Read).unwrap();
    assert!(r.is_blocked());

    assert!(k.commit(t2).unwrap().is_pseudo_commit());
    assert_eq!(k.commit(t1).unwrap(), CommitOutcome::Committed);
    // T2's cascade commit also releases T3's read, which must now see 5.
    let events = k.drain_events();
    let unblocked = events
        .iter()
        .find_map(|e| match e {
            KernelEvent::Unblocked { txn, outcome } if *txn == t3 => Some(outcome.clone()),
            _ => None,
        })
        .expect("read retried after writers terminate");
    assert_eq!(
        unblocked.result(),
        Some(&sbcc_adt::OpResult::Value(Value::Int(5)))
    );
    k.commit(t3).unwrap();
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn commit_dependency_cycle_aborts_the_requester() {
    // T1 and T2 push on two stacks in opposite orders: the second push of T2
    // would create commit dependencies T1 -> T2 and T2 -> T1, so the
    // requester is aborted to preserve serializability.
    let mut k = kernel(ConflictPolicy::Recoverability);
    let a = k.register("A", Stack::new()).unwrap();
    let b = k.register("B", Stack::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();

    assert!(executed(
        &k.request_op(t1, a, &StackOp::Push(Value::Int(1))).unwrap()
    ));
    assert!(executed(
        &k.request_op(t2, b, &StackOp::Push(Value::Int(2))).unwrap()
    ));
    assert!(executed(
        &k.request_op(t1, b, &StackOp::Push(Value::Int(3))).unwrap()
    ));
    let r = k.request_op(t2, a, &StackOp::Push(Value::Int(4))).unwrap();
    assert_eq!(
        r,
        RequestOutcome::Aborted {
            reason: AbortReason::CommitDependencyCycle
        }
    );
    assert_eq!(k.txn_state(t2), Some(TxnState::Aborted));
    assert_eq!(k.stats().aborts_commit_cycle, 1);

    assert_eq!(k.commit(t1).unwrap(), CommitOutcome::Committed);
    verify_commit_order_serializable(&k).unwrap();
    k.check_invariants().unwrap();
}

#[test]
fn wait_for_deadlock_aborts_the_requester() {
    // Classic two-object deadlock under the commutativity-only baseline.
    let mut k = kernel(ConflictPolicy::CommutativityOnly);
    let a = k.register("A", Stack::new()).unwrap();
    let b = k.register("B", Stack::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();

    assert!(executed(
        &k.request_op(t1, a, &StackOp::Push(Value::Int(1))).unwrap()
    ));
    assert!(executed(
        &k.request_op(t2, b, &StackOp::Push(Value::Int(2))).unwrap()
    ));
    assert!(k
        .request_op(t1, b, &StackOp::Push(Value::Int(3)))
        .unwrap()
        .is_blocked());
    let r = k.request_op(t2, a, &StackOp::Push(Value::Int(4))).unwrap();
    assert_eq!(
        r,
        RequestOutcome::Aborted {
            reason: AbortReason::DeadlockCycle
        }
    );
    assert_eq!(k.stats().aborts_deadlock, 1);

    // T2's abort releases T1's blocked push.
    let events = k.drain_events();
    assert!(events.iter().any(|e| matches!(
        e,
        KernelEvent::Unblocked { txn, outcome } if *txn == t1 && outcome.is_executed()
    )));
    assert_eq!(k.commit(t1).unwrap(), CommitOutcome::Committed);
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn mixed_wait_for_and_commit_dependency_cycles_are_detected() {
    // T1 pushes on A (T2 will depend on it), T2 pushes on A (commit-dep
    // T2 -> T1), then T1 issues a pop on A which must wait for T2 ... the
    // wait-for edge T1 -> T2 plus the commit-dep edge T2 -> T1 closes a
    // mixed cycle, so T1 is aborted.
    let mut k = kernel(ConflictPolicy::Recoverability);
    let a = k.register("A", Stack::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();

    assert!(executed(
        &k.request_op(t1, a, &StackOp::Push(Value::Int(1))).unwrap()
    ));
    assert!(executed(
        &k.request_op(t2, a, &StackOp::Push(Value::Int(2))).unwrap()
    ));
    let r = k.request_op(t1, a, &StackOp::Pop).unwrap();
    assert_eq!(
        r,
        RequestOutcome::Aborted {
            reason: AbortReason::DeadlockCycle
        }
    );
    // T2 survives and can commit (no cascading abort).
    assert_eq!(k.txn_state(t2), Some(TxnState::Active));
    assert_eq!(k.commit(t2).unwrap(), CommitOutcome::Committed);
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn pseudo_commit_chain_cascades_in_dependency_order() {
    let mut k = kernel(ConflictPolicy::Recoverability);
    let s = k.register("S", Stack::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();
    let t3 = k.begin();

    for (t, v) in [(t1, 1), (t2, 2), (t3, 3)] {
        assert!(executed(
            &k.request_op(t, s, &StackOp::Push(Value::Int(v))).unwrap()
        ));
    }
    // Commit in reverse order: T3 and T2 pseudo-commit, T1 commits and the
    // whole chain cascades.
    assert!(k.commit(t3).unwrap().is_pseudo_commit());
    assert!(k.commit(t2).unwrap().is_pseudo_commit());
    assert_eq!(k.commit(t1).unwrap(), CommitOutcome::Committed);
    assert_eq!(k.txn_state(t2), Some(TxnState::Committed));
    assert_eq!(k.txn_state(t3), Some(TxnState::Committed));

    // The committed stack must reflect invocation order 1, 2, 3.
    let state = k.object_committed_state(s).unwrap();
    let stack = state
        .as_any()
        .downcast_ref::<sbcc_adt::AdtObject<Stack>>()
        .unwrap();
    assert_eq!(
        stack.inner().items(),
        &[Value::Int(1), Value::Int(2), Value::Int(3)]
    );
    verify_commit_order_respects_dependencies(&k).unwrap();
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn abort_of_dependency_target_does_not_cascade() {
    // The headline property: even if the transaction a pseudo-committed
    // transaction depends on aborts, the pseudo-committed one still commits.
    let mut k = kernel(ConflictPolicy::Recoverability);
    let s = k.register("S", Stack::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();

    assert!(executed(
        &k.request_op(t1, s, &StackOp::Push(Value::Int(1))).unwrap()
    ));
    assert!(executed(
        &k.request_op(t2, s, &StackOp::Push(Value::Int(2))).unwrap()
    ));
    assert!(k.commit(t2).unwrap().is_pseudo_commit());

    k.abort(t1).unwrap();
    assert_eq!(k.txn_state(t1), Some(TxnState::Aborted));
    assert_eq!(
        k.txn_state(t2),
        Some(TxnState::Committed),
        "no cascading abort: T2 commits despite T1 aborting"
    );

    let state = k.object_committed_state(s).unwrap();
    let stack = state
        .as_any()
        .downcast_ref::<sbcc_adt::AdtObject<Stack>>()
        .unwrap();
    assert_eq!(stack.inner().items(), &[Value::Int(2)]);
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn fair_scheduling_blocks_behind_blocked_requests() {
    // Recoverability policy: T1 modify(1) active, T2 lookup(1) blocked
    // (lookup cannot observe the uncommitted modify), T3 modify(1) is
    // recoverable relative to the active modify but conflicts with the
    // blocked lookup -> blocked under fair scheduling, executed (with a
    // commit dependency) without it.
    for fair in [true, false] {
        let mut k = SchedulerKernel::new(
            SchedulerConfig::default()
                .with_policy(ConflictPolicy::Recoverability)
                .with_fair_scheduling(fair),
        );
        let tbl = k.register("T", TableObject::new()).unwrap();
        let t1 = k.begin();
        let t2 = k.begin();
        let t3 = k.begin();

        assert!(executed(
            &k.request_op(t1, tbl, &TableOp::Modify(Value::Int(1), Value::Int(10)))
                .unwrap()
        ));
        assert!(k
            .request_op(t2, tbl, &TableOp::Lookup(Value::Int(1)))
            .unwrap()
            .is_blocked());
        let r3 = k
            .request_op(t3, tbl, &TableOp::Modify(Value::Int(1), Value::Int(99)))
            .unwrap();
        if fair {
            assert!(
                r3.is_blocked(),
                "fair scheduling must queue the modify behind the blocked lookup"
            );
        } else {
            match &r3 {
                RequestOutcome::Executed { commit_deps, .. } => {
                    assert_eq!(commit_deps, &vec![t1]);
                }
                other => panic!("without fair scheduling the modify executes, got {other:?}"),
            }
        }
    }
}

#[test]
fn fair_scheduling_read_write_starvation_example() {
    // The read/write shape the paper mentions ("prevent starvation of
    // writers by readers"), under the commutativity-only baseline:
    // an active reader, a blocked writer, and a newly arriving reader.
    for fair in [true, false] {
        let mut k = SchedulerKernel::new(
            SchedulerConfig::default()
                .with_policy(ConflictPolicy::CommutativityOnly)
                .with_fair_scheduling(fair),
        );
        let p = k.register("page", Page::new()).unwrap();
        let t1 = k.begin();
        let t2 = k.begin();
        let t3 = k.begin();

        assert!(executed(&k.request_op(t1, p, &PageOp::Read).unwrap()));
        assert!(k
            .request_op(t2, p, &PageOp::Write(Value::Int(9)))
            .unwrap()
            .is_blocked());
        let r3 = k.request_op(t3, p, &PageOp::Read).unwrap();
        if fair {
            assert!(r3.is_blocked(), "the new reader queues behind the writer");
        } else {
            assert!(r3.is_executed(), "readers overtake the blocked writer");
        }
    }
}

#[test]
fn commit_cycle_aborts_the_requester_not_the_younger_participant() {
    let mut k = kernel(ConflictPolicy::Recoverability);
    let a = k.register("A", Stack::new()).unwrap();
    let b = k.register("B", Stack::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();

    assert!(executed(
        &k.request_op(t1, a, &StackOp::Push(Value::Int(1))).unwrap()
    ));
    assert!(executed(
        &k.request_op(t2, b, &StackOp::Push(Value::Int(2))).unwrap()
    ));
    assert!(executed(
        &k.request_op(t2, a, &StackOp::Push(Value::Int(3))).unwrap()
    ));
    // T1 now requests a push on B: commit-dep T1 -> T2 plus T2 -> T1 closes
    // a cycle. The requester T1 is aborted, even though T2 is younger, and
    // no event reports an abort of anyone else.
    let r = k.request_op(t1, b, &StackOp::Push(Value::Int(4))).unwrap();
    assert_eq!(
        r,
        RequestOutcome::Aborted {
            reason: AbortReason::CommitDependencyCycle
        }
    );
    assert_eq!(k.txn_state(t1), Some(TxnState::Aborted));
    assert_eq!(k.txn_state(t2), Some(TxnState::Active));
    assert_eq!(k.stats().aborts_commit_cycle, 1);
    assert_eq!(k.stats().aborts_victim, 0);
    assert!(k.drain_events().is_empty());
    assert_eq!(k.commit(t2).unwrap(), CommitOutcome::Committed);
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn pseudo_commit_abort_and_cascade_leave_the_serial_state() {
    // Scripted workload exercising recoverable and commutative operations on
    // several data types.
    let mut k = kernel(ConflictPolicy::Recoverability);
    let s = k.register("stack", Stack::new()).unwrap();
    let c = k.register("counter", Counter::new()).unwrap();
    let tbl = k.register("table", TableObject::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();
    let t3 = k.begin();

    for (t, o, call) in [
        (t1, s, StackOp::Push(Value::Int(1)).to_call()),
        (t2, s, StackOp::Push(Value::Int(2)).to_call()),
        (t1, c, CounterOp::Increment(5).to_call()),
        (t2, c, CounterOp::Decrement(2).to_call()),
        (
            t3,
            tbl,
            TableOp::Insert(Value::Int(1), Value::Int(10)).to_call(),
        ),
        (t3, c, CounterOp::Increment(7).to_call()),
        (
            t1,
            tbl,
            TableOp::Insert(Value::Int(2), Value::Int(20)).to_call(),
        ),
    ] {
        assert!(executed(&k.request(t, o, call).unwrap()));
    }

    // T2 pseudo-commits, T3 aborts, T1 commits -> cascade.
    assert_eq!(
        k.commit(t2).unwrap(),
        CommitOutcome::PseudoCommitted {
            waiting_on: vec![t1]
        }
    );
    k.abort(t3).unwrap();
    assert_eq!(k.commit(t1).unwrap(), CommitOutcome::Committed);
    let _ = k.drain_events();

    verify_commit_order_serializable(&k).unwrap();
    let counter_state = k
        .object_committed_state(c)
        .unwrap()
        .as_any()
        .downcast_ref::<sbcc_adt::AdtObject<Counter>>()
        .unwrap()
        .inner()
        .value();
    let stack_items = k
        .object_committed_state(s)
        .unwrap()
        .as_any()
        .downcast_ref::<sbcc_adt::AdtObject<Stack>>()
        .unwrap()
        .inner()
        .items()
        .to_vec();
    assert_eq!(
        counter_state, 3,
        "committed counter value is +5 -2 (T3's +7 aborted)"
    );
    assert_eq!(stack_items, vec![Value::Int(1), Value::Int(2)]);
}

#[test]
fn error_paths_are_reported() {
    let mut k = kernel(ConflictPolicy::Recoverability);
    let s = k.register("S", Stack::new()).unwrap();
    assert!(matches!(
        k.register("S", Stack::new()),
        Err(CoreError::DuplicateObject(_))
    ));

    let bogus_txn = sbcc_core::TxnId(999);
    assert!(matches!(
        k.request_op(bogus_txn, s, &StackOp::Top),
        Err(CoreError::UnknownTransaction(_))
    ));
    assert!(matches!(
        k.commit(bogus_txn),
        Err(CoreError::UnknownTransaction(_))
    ));
    assert!(matches!(
        k.abort(bogus_txn),
        Err(CoreError::UnknownTransaction(_))
    ));

    let t1 = k.begin();
    assert!(matches!(
        k.request(t1, sbcc_core::ObjectId(42), StackOp::Top.to_call()),
        Err(CoreError::UnknownObject(_))
    ));

    // A blocked transaction cannot issue another request or commit.
    let t2 = k.begin();
    assert!(executed(
        &k.request_op(t1, s, &StackOp::Push(Value::Int(1))).unwrap()
    ));
    assert!(k.request_op(t2, s, &StackOp::Pop).unwrap().is_blocked());
    assert!(matches!(
        k.request_op(t2, s, &StackOp::Top),
        Err(CoreError::InvalidState { .. })
    ));
    assert!(matches!(k.commit(t2), Err(CoreError::InvalidState { .. })));

    // A pseudo-committed transaction can neither abort nor commit again.
    // (Use a second stack: on the first one T3's push would queue behind
    // T2's blocked pop under fair scheduling.)
    let s2 = k.register("S2", Stack::new()).unwrap();
    let t3 = k.begin();
    assert!(executed(
        &k.request_op(t1, s2, &StackOp::Push(Value::Int(5))).unwrap()
    ));
    assert!(executed(
        &k.request_op(t3, s2, &StackOp::Push(Value::Int(9))).unwrap()
    ));
    assert!(k.commit(t3).unwrap().is_pseudo_commit());
    assert!(matches!(k.abort(t3), Err(CoreError::InvalidState { .. })));
    assert!(matches!(k.commit(t3), Err(CoreError::InvalidState { .. })));

    // Terminated transactions cannot do anything.
    k.commit(t1).unwrap();
    assert!(matches!(
        k.request_op(t1, s, &StackOp::Top),
        Err(CoreError::InvalidState { .. })
    ));
}

#[test]
fn own_operations_never_conflict() {
    let mut k = kernel(ConflictPolicy::Recoverability);
    let s = k.register("S", Stack::new()).unwrap();
    let t1 = k.begin();
    // push, pop, top, push again: all within one transaction, all immediate.
    for op in [
        StackOp::Push(Value::Int(1)),
        StackOp::Top,
        StackOp::Pop,
        StackOp::Push(Value::Int(2)),
        StackOp::Pop,
        StackOp::Pop,
    ] {
        assert!(k.request_op(t1, s, &op).unwrap().is_executed());
    }
    assert_eq!(k.commit(t1).unwrap(), CommitOutcome::Committed);
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn empty_transactions_commit_immediately() {
    let mut k = kernel(ConflictPolicy::Recoverability);
    let t = k.begin();
    assert_eq!(k.commit(t).unwrap(), CommitOutcome::Committed);
    assert_eq!(k.stats().commits, 1);
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn stats_track_the_protocol() {
    let mut k = kernel(ConflictPolicy::Recoverability);
    let s = k.register("S", Stack::new()).unwrap();
    let t1 = k.begin();
    let t2 = k.begin();
    let t3 = k.begin();
    k.request_op(t1, s, &StackOp::Push(Value::Int(1))).unwrap();
    k.request_op(t2, s, &StackOp::Push(Value::Int(2))).unwrap();
    k.request_op(t3, s, &StackOp::Pop).unwrap(); // blocks
    assert_eq!(k.stats().transactions_begun, 3);
    assert_eq!(k.stats().requests, 3);
    assert_eq!(k.stats().operations_executed, 2);
    assert_eq!(k.stats().blocks, 1);
    assert_eq!(k.stats().commit_dependencies, 1);
    assert!(k.cycle_checks() >= 2);

    k.commit(t2).unwrap(); // pseudo
    k.commit(t1).unwrap(); // commits, cascades T2, unblocks T3
    let _ = k.drain_events();
    assert_eq!(k.stats().commits, 2);
    assert_eq!(k.stats().pseudo_commits, 1);
    assert_eq!(k.stats().unblocks, 1);
    k.commit(t3).unwrap();
    assert_eq!(k.stats().commits, 3);
    assert_eq!(k.live_transactions().len(), 0);
    assert!(
        k.ops_of(t3).is_empty(),
        "detailed per-operation records are dropped once a transaction terminates"
    );
}

#[test]
fn counter_hotspot_scales_without_blocking() {
    // Many concurrent increments on a single counter: under recoverability
    // none of them blocks; every transaction pseudo-commits at worst and the
    // final value is the sum.
    let mut k = kernel(ConflictPolicy::Recoverability);
    let c = k.register("hits", Counter::new()).unwrap();
    let txns: Vec<_> = (0..20).map(|_| k.begin()).collect();
    for (i, t) in txns.iter().enumerate() {
        let r = k
            .request_op(*t, c, &CounterOp::Increment(i as i64 + 1))
            .unwrap();
        assert!(r.is_executed(), "increment {i} must not block");
    }
    assert_eq!(k.stats().blocks, 0);
    // Commit in reverse order to maximise pseudo-commits ... increments
    // commute, so there are no commit dependencies and all commits are full.
    for t in txns.iter().rev() {
        assert!(k.commit(*t).unwrap().is_full_commit());
    }
    let value = k
        .object_committed_state(c)
        .unwrap()
        .as_any()
        .downcast_ref::<sbcc_adt::AdtObject<Counter>>()
        .unwrap()
        .inner()
        .value();
    assert_eq!(value, (1..=20).sum::<i64>());
    verify_commit_order_serializable(&k).unwrap();
}

#[test]
fn table_audit_scenario_insert_recoverable_relative_to_size() {
    // A long-running "audit" transaction reads the table size; subsequent
    // inserts by other transactions are recoverable relative to it and do
    // not wait, but they commit after the audit.
    let mut k = kernel(ConflictPolicy::Recoverability);
    let tbl = k.register("accounts", TableObject::new()).unwrap();
    let audit = k.begin();
    let r = k.request_op(audit, tbl, &TableOp::Size).unwrap();
    assert_eq!(r.result(), Some(&sbcc_adt::OpResult::Value(Value::Int(0))));

    let writer = k.begin();
    let r = k
        .request_op(
            writer,
            tbl,
            &TableOp::Insert(Value::Int(1), Value::Int(100)),
        )
        .unwrap();
    match &r {
        RequestOutcome::Executed { commit_deps, .. } => assert_eq!(commit_deps, &vec![audit]),
        other => panic!("insert should be recoverable relative to size, got {other:?}"),
    }
    // The reverse is not allowed: another auditor's size must wait for the
    // writer now.
    let audit2 = k.begin();
    assert!(k
        .request_op(audit2, tbl, &TableOp::Size)
        .unwrap()
        .is_blocked());

    assert!(k.commit(writer).unwrap().is_pseudo_commit());
    assert_eq!(k.commit(audit).unwrap(), CommitOutcome::Committed);
    let _ = k.drain_events();
    assert_eq!(k.txn_state(writer), Some(TxnState::Committed));
    // audit2 saw the table only after the writer committed: size = 1.
    let events_ok = k.txn_state(audit2) == Some(TxnState::Active);
    assert!(events_ok, "audit2 should have been unblocked");
    k.commit(audit2).unwrap();
    verify_commit_order_serializable(&k).unwrap();
    verify_commit_order_respects_dependencies(&k).unwrap();
}
