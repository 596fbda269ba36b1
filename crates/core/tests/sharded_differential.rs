//! Differential tests for the sharded kernel: a [`ShardedKernel`] driven
//! with any shard count must be **behaviourally equivalent** to a single
//! [`SchedulerKernel`] fed the same schedule — same per-operation results,
//! same blocking/abort decisions, same transaction fates, same final
//! committed object states, matching statistics (sharding bookkeeping
//! aside), and serializable executions on every shard.
//!
//! Both systems assign dense transaction ids in `begin` order and dense
//! (global) object ids in registration order, so traces are directly
//! comparable. The driver mirrors `batch_differential.rs`: chunked
//! scripts, round-robin turns, blocked transactions parked until the
//! kernel settles them.

mod common;

use common::{arb_call_for, register_objects, N_OBJECTS};
use proptest::prelude::*;
use sbcc_adt::{AdtOp, Counter, CounterOp, OpCall, Stack, StackOp, Value};
use sbcc_core::{
    shard_of_name, ConflictPolicy, DatabaseConfig, KernelEvent, KernelStats, ObjectId,
    RequestOutcome, SchedulerConfig, SchedulerKernel, ShardedKernel, TxnId, TxnState,
};
use std::collections::{HashMap, VecDeque};

/// Either kernel behind one driver interface.
enum Driver {
    Single(SchedulerKernel),
    Sharded(ShardedKernel),
}

impl Driver {
    fn new(config: SchedulerConfig, shards: Option<usize>) -> Self {
        match shards {
            None => Driver::Single(SchedulerKernel::new(config)),
            Some(n) => Driver::Sharded(ShardedKernel::new(DatabaseConfig {
                scheduler: config,
                shards: n.into(),
                wal: None,
            })),
        }
    }

    fn register_objects(&mut self) -> Vec<ObjectId> {
        register_objects(|name, object| match self {
            Driver::Single(k) => k.register_object(name, object).unwrap(),
            Driver::Sharded(k) => k.register_object(name, object).unwrap().0,
        })
    }

    fn begin(&mut self) -> TxnId {
        match self {
            Driver::Single(k) => k.begin(),
            Driver::Sharded(k) => k.begin(),
        }
    }

    fn request(&mut self, txn: TxnId, object: ObjectId, call: OpCall) -> RequestOutcome {
        match self {
            Driver::Single(k) => k.request(txn, object, call).unwrap(),
            Driver::Sharded(k) => k.request(txn, object, call).unwrap(),
        }
    }

    fn commit(&mut self, txn: TxnId) -> sbcc_core::CommitOutcome {
        match self {
            Driver::Single(k) => k.commit(txn).unwrap(),
            Driver::Sharded(k) => k.commit(txn).unwrap().0,
        }
    }

    fn drain_events(&mut self) -> Vec<KernelEvent> {
        match self {
            Driver::Single(k) => k.drain_events(),
            Driver::Sharded(k) => k.drain_events(),
        }
    }

    fn txn_state(&self, txn: TxnId) -> Option<TxnState> {
        match self {
            Driver::Single(k) => k.txn_state(txn),
            Driver::Sharded(k) => k.txn_state(txn),
        }
    }

    fn stats(&self) -> KernelStats {
        match self {
            Driver::Single(k) => k.stats().clone(),
            Driver::Sharded(k) => k.stats(),
        }
    }

    fn cycle_checks(&self) -> u64 {
        match self {
            Driver::Single(k) => k.cycle_checks(),
            Driver::Sharded(k) => k.cycle_checks(),
        }
    }

    fn committed_state_eq(&self, object: ObjectId, other: &Driver) -> bool {
        let Driver::Single(single) = other else {
            panic!("comparison baseline must be the single kernel");
        };
        let baseline = single
            .object_committed_state(object)
            .expect("object registered");
        match self {
            Driver::Single(k) => k
                .object_committed_state(object)
                .expect("object registered")
                .state_eq(baseline),
            Driver::Sharded(k) => k
                .with_object_committed(object, |state| state.state_eq(baseline))
                .expect("object registered"),
        }
    }

    fn validate(&mut self) -> Result<(), String> {
        match self {
            Driver::Single(k) => {
                k.check_invariants()?;
                sbcc_core::verify_commit_order_serializable(k)?;
                sbcc_core::verify_commit_order_respects_dependencies(k)
            }
            Driver::Sharded(k) => {
                k.check_invariants()?;
                k.verify_serializable()?;
                k.verify_commit_dependencies()
            }
        }
    }
}

fn arb_chunk() -> impl Strategy<Value = Vec<(usize, OpCall)>> {
    proptest::collection::vec(
        (0..N_OBJECTS).prop_flat_map(|o| arb_call_for(o, false).prop_map(move |c| (o, c))),
        1..6,
    )
}

fn arb_chunked_scripts() -> impl Strategy<Value = Vec<Vec<Vec<(usize, OpCall)>>>> {
    proptest::collection::vec(proptest::collection::vec(arb_chunk(), 1..4), 2..5)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum DriverState {
    Running,
    Waiting,
    Done,
}

/// What [`run_chunked`] returns: per-operation results, blocking
/// decisions, final fates and the driver.
type ChunkedRun = (
    HashMap<(usize, usize), String>,
    Vec<String>,
    Vec<TxnState>,
    Driver,
);

/// Drive a kernel with the chunked scripts, call by call.
fn run_chunked(
    scripts: &[Vec<Vec<(usize, OpCall)>>],
    config: SchedulerConfig,
    shards: Option<usize>,
) -> ChunkedRun {
    let mut driver = Driver::new(config, shards);
    let objects = driver.register_objects();

    let txns: Vec<TxnId> = scripts.iter().map(|_| driver.begin()).collect();
    let index_of: HashMap<TxnId, usize> = txns.iter().enumerate().map(|(i, t)| (*t, i)).collect();

    let mut chunks: Vec<VecDeque<Vec<(usize, OpCall)>>> = scripts
        .iter()
        .map(|s| s.iter().cloned().collect())
        .collect();
    let mut current: Vec<Vec<(usize, OpCall)>> = vec![Vec::new(); scripts.len()];
    let mut state = vec![DriverState::Running; scripts.len()];
    let mut next_op = vec![0usize; scripts.len()];
    let mut results: HashMap<(usize, usize), String> = HashMap::new();
    let mut decisions: Vec<String> = Vec::new();

    macro_rules! pump_events {
        () => {
            for event in driver.drain_events() {
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
                        let outcome = driver.commit(txns[i]);
                        decisions
                            .push(format!("commit {i}: pseudo={}", outcome.is_pseudo_commit()));
                        state[i] = DriverState::Done;
                        pump_events!();
                        continue;
                    }
                }
            }
            while !current[i].is_empty() {
                let (object, call) = current[i].remove(0);
                let outcome = driver.request(txns[i], objects[object], call);
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
        if !any_running {
            break;
        }
    }

    let fates: Vec<TxnState> = txns
        .iter()
        .map(|t| driver.txn_state(*t).expect("transaction recorded"))
        .collect();
    (results, decisions, fates, driver)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: for every shard count, the sharded kernel
    /// admits, blocks and aborts exactly like the single kernel on the
    /// same schedule, produces the same results and final states, and
    /// every shard's execution is commit-order serializable.
    #[test]
    fn sharded_equals_single_kernel(
        scripts in arb_chunked_scripts(),
        shards in 2usize..5,
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

        let (r_one, d_one, f_one, mut one) =
            run_chunked(&scripts, config.clone(), None);
        let (r_sh, d_sh, f_sh, mut sh) =
            run_chunked(&scripts, config, Some(shards));

        prop_assert_eq!(r_one, r_sh, "per-operation results diverge");
        prop_assert_eq!(d_one, d_sh, "scheduling decisions diverge");
        prop_assert_eq!(f_one, f_sh, "transaction fates diverge");
        prop_assert_eq!(one.stats(), sh.stats(), "kernel statistics diverge");
        prop_assert_eq!(one.cycle_checks(), sh.cycle_checks(), "cycle checks diverge");
        for object in (0..N_OBJECTS as u32).map(ObjectId) {
            prop_assert!(
                sh.committed_state_eq(object, &one),
                "final committed state of {} differs",
                object
            );
        }
        one.validate().map_err(TestCaseError::fail)?;
        sh.validate().map_err(TestCaseError::fail)?;
    }
}

/// A known divergence, pinned: case #127 of `sharded_equals_single_kernel`
/// at `PROPTEST_CASES=1024` (3 shards, commutativity only, unfair, call by
/// call). T2's commit releases T0 (blocked on the table) and T3 (blocked on
/// the stack) in one drain. The single kernel retries its waiters object by
/// object, the stack first; the sharded kernel retries them shard by shard,
/// and the table's shard comes first. So the two `unblocked` events of that
/// drain come out swapped. Every other observable agrees.
#[test]
fn retry_order_within_a_drain_is_the_only_divergence_of_case_127() {
    use sbcc_adt::{PageOp, SetOp, TableOp};
    let int = Value::Int;
    let scripts: Vec<Vec<Vec<(usize, OpCall)>>> = vec![
        vec![
            vec![
                (2, CounterOp::Decrement(2).to_call()),
                (4, PageOp::Read.to_call()),
                (3, TableOp::Delete(int(2)).to_call()),
            ],
            vec![
                (1, SetOp::Member(int(1)).to_call()),
                (3, TableOp::Lookup(int(0)).to_call()),
                (0, StackOp::Pop.to_call()),
            ],
            vec![
                (1, SetOp::Member(int(1)).to_call()),
                (1, SetOp::Delete(int(0)).to_call()),
            ],
        ],
        vec![
            vec![
                (4, PageOp::Read.to_call()),
                (1, SetOp::Delete(int(3)).to_call()),
                (2, CounterOp::Decrement(1).to_call()),
                (2, CounterOp::Decrement(3).to_call()),
            ],
            vec![
                (3, TableOp::Lookup(int(2)).to_call()),
                (3, TableOp::Delete(int(0)).to_call()),
            ],
        ],
        vec![
            vec![
                (3, TableOp::Lookup(int(1)).to_call()),
                (3, TableOp::Delete(int(0)).to_call()),
            ],
            vec![
                (3, TableOp::Insert(int(1), int(13)).to_call()),
                (0, StackOp::Push(int(3)).to_call()),
            ],
        ],
        vec![
            vec![(3, TableOp::Insert(int(3), int(35)).to_call())],
            vec![
                (0, StackOp::Pop.to_call()),
                (4, PageOp::Write(int(0)).to_call()),
            ],
        ],
    ];
    let config = SchedulerConfig::default()
        .with_policy(ConflictPolicy::CommutativityOnly)
        .with_fair_scheduling(false);

    let (r_one, d_one, f_one, mut one) = run_chunked(&scripts, config.clone(), None);
    let (r_sh, d_sh, f_sh, mut sh) = run_chunked(&scripts, config, Some(3));

    let released = d_one
        .iter()
        .position(|d| d == "commit 2: pseudo=false")
        .expect("T2 commits")
        + 1;
    assert_eq!(
        d_one[released..released + 2],
        ["unblocked 3", "unblocked 0"]
    );
    let mut expected = d_one.clone();
    expected.swap(released, released + 1);
    assert_eq!(d_sh, expected, "only the drain's retry order may differ");

    assert_eq!(r_one, r_sh, "per-operation results diverge");
    assert_eq!(f_one, f_sh, "transaction fates diverge");
    assert_eq!(one.stats(), sh.stats());
    for object in (0..N_OBJECTS as u32).map(ObjectId) {
        assert!(
            sh.committed_state_eq(object, &one),
            "final state of {object} differs"
        );
    }
    one.validate().unwrap();
    sh.validate().unwrap();
}

// ---------------------------------------------------------------------
// Cross-shard regression scenarios (deterministic)
// ---------------------------------------------------------------------

/// Two object names guaranteed to land on distinct shards of a
/// `shards`-way kernel.
fn names_on_distinct_shards(shards: usize) -> (String, String) {
    let a = "a0".to_string();
    let sa = shard_of_name(&a, shards);
    let mut i = 1;
    loop {
        let b = format!("a{i}");
        if shard_of_name(&b, shards) != sa {
            return (a, b);
        }
        i += 1;
    }
}

fn sharded(shards: usize) -> ShardedKernel {
    ShardedKernel::new(DatabaseConfig::new(SchedulerConfig::default()).with_shards(shards))
}

/// A wait-for cycle whose two edges are added by two *different* shards
/// must still be refused: both go into the one dependency graph.
#[test]
fn cross_shard_cycle_is_refused() {
    let kernel = sharded(2);
    let (name_a, name_b) = names_on_distinct_shards(2);
    let (a, loc_a) = kernel.register(&name_a, Stack::new()).unwrap();
    let (b, loc_b) = kernel.register(&name_b, Stack::new()).unwrap();
    assert_ne!(loc_a.shard, loc_b.shard);

    let t1 = kernel.begin();
    let t2 = kernel.begin();
    // T1 holds an uncommitted push on A (shard x); T2 on B (shard y).
    assert!(kernel
        .request(t1, a, StackOp::Push(Value::Int(1)).to_call())
        .unwrap()
        .is_executed());
    assert!(kernel
        .request(t2, b, StackOp::Push(Value::Int(2)).to_call())
        .unwrap()
        .is_executed());
    // T2's pop on A conflicts with T1's push: edge T2 -> T1 in shard x.
    assert!(kernel
        .request(t2, a, StackOp::Pop.to_call())
        .unwrap()
        .is_blocked());
    // T1's pop on B would add T1 -> T2 in shard y, closing a cycle with
    // the edge shard x added; the check must refuse it by aborting the
    // requester.
    let outcome = kernel.request(t1, b, StackOp::Pop.to_call()).unwrap();
    assert!(
        outcome.is_aborted(),
        "cross-shard wait-for cycle must abort the requester, got {outcome:?}"
    );

    // T1's abort releases T2's blocked pop, which now executes.
    let events = kernel.drain_events();
    assert!(events.iter().any(|e| matches!(
        e,
        KernelEvent::Unblocked { txn, outcome: RequestOutcome::Executed { .. } } if *txn == t2
    )));
    assert!(kernel.commit(t2).unwrap().0.is_full_commit());
    kernel.check_invariants().unwrap();
    kernel.verify_serializable().unwrap();
}

/// Cross-shard commit-dependency cycles (the recoverable analogue of the
/// wait-for case) are refused too.
#[test]
fn cross_shard_commit_dependency_cycle_is_refused() {
    let kernel = sharded(2);
    let (name_a, name_b) = names_on_distinct_shards(2);
    let (a, _) = kernel.register(&name_a, Stack::new()).unwrap();
    let (b, _) = kernel.register(&name_b, Stack::new()).unwrap();

    let t1 = kernel.begin();
    let t2 = kernel.begin();
    assert!(kernel
        .request(t1, a, StackOp::Push(Value::Int(1)).to_call())
        .unwrap()
        .is_executed());
    assert!(kernel
        .request(t2, b, StackOp::Push(Value::Int(2)).to_call())
        .unwrap()
        .is_executed());
    // T2's push on A is recoverable after T1's: commit-dep T2 -> T1 in
    // shard x.
    match kernel
        .request(t2, a, StackOp::Push(Value::Int(3)).to_call())
        .unwrap()
    {
        RequestOutcome::Executed { commit_deps, .. } => assert_eq!(commit_deps, vec![t1]),
        other => panic!("expected recoverable execution, got {other:?}"),
    }
    // T1's push on B would create commit-dep T1 -> T2 in shard y, closing
    // a dependency cycle that only the union sees.
    let outcome = kernel
        .request(t1, b, StackOp::Push(Value::Int(4)).to_call())
        .unwrap();
    assert!(
        matches!(
            &outcome,
            RequestOutcome::Aborted {
                reason: sbcc_core::AbortReason::CommitDependencyCycle
            }
        ),
        "expected a commit-dependency-cycle abort, got {outcome:?}"
    );
    assert!(kernel.commit(t2).unwrap().0.is_full_commit());
    kernel.check_invariants().unwrap();
    kernel.verify_serializable().unwrap();
}

/// The cross-shard commit protocol: a transaction with commit
/// dependencies in two different shards pseudo-commits, and actually
/// commits only once the *union* of its per-shard votes clears — not when
/// the first shard's local dependencies are gone.
#[test]
fn cross_shard_pseudo_commit_waits_for_every_shard() {
    let kernel = sharded(2);
    let (name_a, name_b) = names_on_distinct_shards(2);
    let (a, _) = kernel.register(&name_a, Stack::new()).unwrap();
    let (b, _) = kernel.register(&name_b, Stack::new()).unwrap();

    let h1 = kernel.begin(); // holder in shard x
    let h2 = kernel.begin(); // holder in shard y
    let t = kernel.begin(); // spans both
    assert!(kernel
        .request(h1, a, StackOp::Push(Value::Int(1)).to_call())
        .unwrap()
        .is_executed());
    assert!(kernel
        .request(h2, b, StackOp::Push(Value::Int(2)).to_call())
        .unwrap()
        .is_executed());
    // T pushes behind both holders: recoverable, one commit dep per shard.
    assert!(kernel
        .request(t, a, StackOp::Push(Value::Int(3)).to_call())
        .unwrap()
        .is_executed());
    assert!(kernel
        .request(t, b, StackOp::Push(Value::Int(4)).to_call())
        .unwrap()
        .is_executed());

    match kernel.commit(t).unwrap().0 {
        sbcc_core::CommitOutcome::PseudoCommitted { waiting_on } => {
            assert_eq!(waiting_on, vec![h1, h2], "the union of per-shard votes");
        }
        other => panic!("expected a pseudo-commit, got {other:?}"),
    }
    assert_eq!(kernel.txn_state(t), Some(TxnState::PseudoCommitted));

    // First holder commits: T's shard-x vote clears, but shard y still
    // holds a dependency — T must stay pseudo-committed.
    assert!(kernel.commit(h1).unwrap().0.is_full_commit());
    assert_eq!(kernel.txn_state(t), Some(TxnState::PseudoCommitted));

    // Second holder commits: the re-vote is unanimous and T commits.
    assert!(kernel.commit(h2).unwrap().0.is_full_commit());
    assert_eq!(kernel.txn_state(t), Some(TxnState::Committed));
    let events = kernel.drain_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, KernelEvent::Committed { txn } if *txn == t)));
    kernel.check_invariants().unwrap();
    kernel.verify_serializable().unwrap();
    kernel.verify_commit_dependencies().unwrap();
}

/// An abort of a multi-shard transaction undoes its operations in every
/// shard.
#[test]
fn cross_shard_abort_undoes_everything() {
    let kernel = sharded(3);
    let (name_a, name_b) = names_on_distinct_shards(3);
    let (a, _) = kernel.register(&name_a, Counter::new()).unwrap();
    let (b, _) = kernel.register(&name_b, Counter::new()).unwrap();

    let t = kernel.begin();
    assert!(kernel
        .request(t, a, CounterOp::Increment(5).to_call())
        .unwrap()
        .is_executed());
    assert!(kernel
        .request(t, b, CounterOp::Increment(7).to_call())
        .unwrap()
        .is_executed());
    kernel.abort(t).unwrap();
    assert_eq!(kernel.txn_state(t), Some(TxnState::Aborted));

    let reader = kernel.begin();
    for obj in [a, b] {
        match kernel
            .request(reader, obj, CounterOp::Read.to_call())
            .unwrap()
        {
            RequestOutcome::Executed { result, .. } => {
                assert_eq!(result, sbcc_adt::OpResult::Value(Value::Int(0)));
            }
            other => panic!("read should execute, got {other:?}"),
        }
    }
    assert!(kernel.commit(reader).unwrap().0.is_full_commit());
    kernel.check_invariants().unwrap();
}
