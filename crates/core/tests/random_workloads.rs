//! Property-based tests: random interleaved workloads over mixed data types
//! must always produce serializable, cascade-free executions.

mod common;

use common::{arb_call_for, register_objects, N_OBJECTS};
use proptest::prelude::*;
use sbcc_adt::{AdtOp, Counter, OpCall, Page, Set, Stack, StackOp, TableObject, Value};
use sbcc_core::{
    verify_commit_order_respects_dependencies, verify_commit_order_serializable, ConflictPolicy,
    KernelEvent, RequestOutcome, SchedulerConfig, SchedulerKernel, TxnId, TxnState,
};
use std::collections::HashMap;

/// One scripted operation: which object (by index) and which call.
#[derive(Debug, Clone)]
struct ScriptOp {
    object: usize,
    call: OpCall,
}

fn arb_script_op() -> impl Strategy<Value = ScriptOp> {
    (0..N_OBJECTS).prop_flat_map(|object| {
        arb_call_for(object, true).prop_map(move |call| ScriptOp { object, call })
    })
}

fn arb_scripts() -> impl Strategy<Value = Vec<Vec<ScriptOp>>> {
    proptest::collection::vec(proptest::collection::vec(arb_script_op(), 1..7), 2..6)
}

/// Drive the kernel with the given per-transaction scripts, interleaving
/// round-robin. Returns (per-op results by (txn index, op index), final fate
/// by txn index, kernel).
fn run_scripts(
    scripts: &[Vec<ScriptOp>],
    config: SchedulerConfig,
) -> (
    HashMap<(usize, usize), String>,
    Vec<TxnState>,
    SchedulerKernel,
) {
    let mut kernel = SchedulerKernel::new(config);
    let objects = register_objects(|name, object| kernel.register_object(name, object).unwrap());

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum DriverState {
        Running,
        Waiting, // blocked inside the kernel
        Done,    // committed, pseudo-committed or aborted
    }

    let txns: Vec<TxnId> = scripts.iter().map(|_| kernel.begin()).collect();
    let mut next_op: Vec<usize> = vec![0; scripts.len()];
    let mut state: Vec<DriverState> = vec![DriverState::Running; scripts.len()];
    let mut results: HashMap<(usize, usize), String> = HashMap::new();
    let index_of: HashMap<TxnId, usize> = txns.iter().enumerate().map(|(i, t)| (*t, i)).collect();

    let process_events = |kernel: &mut SchedulerKernel,
                          state: &mut Vec<DriverState>,
                          next_op: &mut Vec<usize>,
                          results: &mut HashMap<(usize, usize), String>| {
        for event in kernel.drain_events() {
            match event {
                KernelEvent::Unblocked { txn, outcome } => {
                    let i = index_of[&txn];
                    assert_eq!(
                        state[i],
                        DriverState::Waiting,
                        "only a blocked transaction's retry is reported"
                    );
                    match outcome {
                        RequestOutcome::Executed { result, .. } => {
                            results.insert((i, next_op[i]), format!("{result}"));
                            next_op[i] += 1;
                            state[i] = DriverState::Running;
                        }
                        RequestOutcome::Aborted { .. } => {
                            state[i] = DriverState::Done;
                        }
                        RequestOutcome::Blocked { .. } => unreachable!(),
                    }
                }
                KernelEvent::Committed { .. } => {}
            }
        }
    };

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
            if next_op[i] >= scripts[i].len() {
                // Script finished: commit (pseudo or full).
                let _ = kernel.commit(txns[i]).unwrap();
                state[i] = DriverState::Done;
                process_events(&mut kernel, &mut state, &mut next_op, &mut results);
                continue;
            }
            let op = &scripts[i][next_op[i]];
            let outcome = kernel
                .request(txns[i], objects[op.object], op.call.clone())
                .unwrap();
            match outcome {
                RequestOutcome::Executed { result, .. } => {
                    results.insert((i, next_op[i]), format!("{result}"));
                    next_op[i] += 1;
                }
                RequestOutcome::Blocked { .. } => {
                    state[i] = DriverState::Waiting;
                }
                RequestOutcome::Aborted { .. } => {
                    state[i] = DriverState::Done;
                }
            }
            process_events(&mut kernel, &mut state, &mut next_op, &mut results);
        }
        if !any_running {
            // Everything is Waiting or Done. Waiting transactions can only be
            // waiting on live transactions; since no transaction is Running,
            // the only live ones are Waiting or PseudoCommitted, and a cycle
            // would have been detected — so no one can be Waiting here.
            break;
        }
    }

    let fates: Vec<TxnState> = txns
        .iter()
        .map(|t| kernel.txn_state(*t).expect("transaction recorded"))
        .collect();
    (results, fates, kernel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every random execution is serializable in commit order, respects the
    /// dynamic commit dependencies, leaves the kernel in a consistent state
    /// and never leaves a pseudo-committed transaction behind — with fair
    /// scheduling (a retry pass re-queues a request that cannot be
    /// released without re-running Figure 2) and without it (every queued
    /// request is retried).
    #[test]
    fn random_workloads_are_serializable(scripts in arb_scripts()) {
        for fair in [true, false] {
            let config = SchedulerConfig::default()
                .with_policy(ConflictPolicy::Recoverability)
                .with_fair_scheduling(fair);
            let (_results, fates, mut kernel) = run_scripts(&scripts, config);

            for (i, fate) in fates.iter().enumerate() {
                prop_assert!(
                    matches!(fate, TxnState::Committed | TxnState::Aborted),
                    "transaction {i} ended in state {fate:?} (fair: {fair})"
                );
            }
            prop_assert!(kernel.live_transactions().is_empty());
            kernel.check_invariants().map_err(TestCaseError::fail)?;
            verify_commit_order_serializable(&kernel).map_err(TestCaseError::fail)?;
            verify_commit_order_respects_dependencies(&kernel).map_err(TestCaseError::fail)?;
        }
    }

    /// The commutativity-only baseline is also correct (it is the same
    /// machinery with a stricter conflict predicate).
    #[test]
    fn baseline_workloads_are_serializable(scripts in arb_scripts()) {
        let config = SchedulerConfig::default().with_policy(ConflictPolicy::CommutativityOnly);
        let (_results, _fates, mut kernel) = run_scripts(&scripts, config);
        kernel.check_invariants().map_err(TestCaseError::fail)?;
        verify_commit_order_serializable(&kernel).map_err(TestCaseError::fail)?;
    }

    /// The recoverability conflict predicate is strictly weaker than the
    /// commutativity-only one: against the same execution log, every
    /// transaction the recoverability classification reports as a conflict
    /// is also reported as a conflict by the baseline (the converse does not
    /// hold — that is exactly the extra concurrency).
    ///
    /// Note that comparing *global* blocking counts of two complete runs is
    /// not a theorem: once a schedule diverges (a transaction that would
    /// have been blocked proceeds and issues further operations), later
    /// conflicts can differ in either direction. The containment below is
    /// the per-decision property the paper relies on.
    #[test]
    fn recoverability_conflicts_are_a_subset_of_commutativity_conflicts(
        log_ops in proptest::collection::vec(arb_script_op(), 0..10),
        requested in arb_script_op(),
    ) {
        use sbcc_core::{ManagedObject, ObjectId, RecoveryStrategy, TxnId};

        // Build one managed object per data type and install the random log
        // (each logged operation owned by a distinct transaction).
        let mut kernel_objects: Vec<ManagedObject> = vec![
            ManagedObject::new(ObjectId(0), "stack", Box::new(sbcc_adt::AdtObject::new(Stack::new())), RecoveryStrategy::IntentionsList),
            ManagedObject::new(ObjectId(1), "set", Box::new(sbcc_adt::AdtObject::new(Set::new())), RecoveryStrategy::IntentionsList),
            ManagedObject::new(ObjectId(2), "counter", Box::new(sbcc_adt::AdtObject::new(Counter::new())), RecoveryStrategy::IntentionsList),
            ManagedObject::new(ObjectId(3), "table", Box::new(sbcc_adt::AdtObject::new(TableObject::new())), RecoveryStrategy::IntentionsList),
            ManagedObject::new(ObjectId(4), "page", Box::new(sbcc_adt::AdtObject::new(Page::new())), RecoveryStrategy::IntentionsList),
        ];
        for (i, op) in log_ops.iter().enumerate() {
            kernel_objects[op.object].execute(TxnId(i as u64 + 10), i as u64, op.call.clone());
        }
        let requester = TxnId(1);
        let target = &kernel_objects[requested.object];
        let rec = target.classify(ConflictPolicy::Recoverability, requester, &requested.call, &[]);
        let base = target.classify(ConflictPolicy::CommutativityOnly, requester, &requested.call, &[]);
        for holder in &rec.conflicts {
            prop_assert!(
                base.conflicts.contains(holder),
                "recoverability conflicts with {holder} but the baseline does not"
            );
        }
        // And every holder the baseline lets through is also let through by
        // recoverability (either commuting or via a commit dependency).
        for holder in base
            .conflicts
            .iter()
            .chain(base.commit_deps.iter())
        {
            let admitted_by_rec = !rec.conflicts.contains(holder);
            let admitted_by_base = !base.conflicts.contains(holder);
            if admitted_by_base {
                prop_assert!(admitted_by_rec);
            }
        }
    }
}

#[test]
fn pseudo_committed_transactions_always_commit() {
    // Deterministic stress: a chain of transactions each depending on the
    // previous one through recoverable pushes; abort every third dependency
    // target and verify every pseudo-committed transaction still commits.
    let mut kernel = SchedulerKernel::new(SchedulerConfig::default());
    let s = kernel.register("stack", Stack::new()).unwrap();
    let txns: Vec<TxnId> = (0..12).map(|_| kernel.begin()).collect();
    for (i, t) in txns.iter().enumerate() {
        let r = kernel
            .request(*t, s, StackOp::Push(Value::Int(i as i64)).to_call())
            .unwrap();
        assert!(r.is_executed());
    }
    // Commit all but the first in reverse order: all pseudo-commit.
    for t in txns.iter().skip(1).rev() {
        assert!(kernel.commit(*t).unwrap().is_pseudo_commit());
    }
    // Abort the first: the whole chain must cascade to committed.
    kernel.abort(txns[0]).unwrap();
    for t in txns.iter().skip(1) {
        assert_eq!(kernel.txn_state(*t), Some(TxnState::Committed));
    }
    verify_commit_order_serializable(&kernel).unwrap();
    verify_commit_order_respects_dependencies(&kernel).unwrap();
}
