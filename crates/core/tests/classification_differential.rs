//! Differential test for the classification hot path: the **indexed**
//! `classify` must return identical [`Classification`]s (conflicts, commit
//! dependencies) to the retained naive reference implementation
//! (`classify_naive`) on randomized logs over every data type. (The cycle
//! detector's incremental ≡ SCC-oracle equivalence is pinned at the graph
//! level by `crates/graph/tests/incremental_oracle.rs`.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbcc_adt::{
    AbstractObject, AdtObject, AdtOp, Counter, CounterOp, OpCall, Page, PageOp, Set, SetOp, Stack,
    StackOp, TableObject, TableOp, Value,
};
use sbcc_core::{
    Classification, ConflictPolicy, ManagedObject, ObjectId, RecoveryStrategy, RequestOutcome,
    SchedulerConfig, SchedulerKernel, TxnId,
};

/// Number of object archetypes in the universe (five typed ADTs plus one
/// table-driven abstract object).
const N_OBJECTS: usize = 6;

fn make_object(archetype: usize) -> ManagedObject {
    let boxed: Box<dyn sbcc_adt::SemanticObject> = match archetype {
        0 => Box::new(AdtObject::new(Stack::new())),
        1 => Box::new(AdtObject::new(Set::new())),
        2 => Box::new(AdtObject::new(Counter::new())),
        3 => Box::new(AdtObject::new(TableObject::new())),
        4 => Box::new(AdtObject::new(Page::new())),
        _ => {
            // Deterministic random conflict table: 4 ops, Pc=4, Pr=4.
            let mut rng = StdRng::seed_from_u64(2024);
            Box::new(AbstractObject::random(4, 4, 4, &mut rng))
        }
    };
    ManagedObject::new(
        ObjectId(archetype as u32),
        format!("obj{archetype}"),
        boxed,
        RecoveryStrategy::IntentionsList,
    )
}

fn arb_call_for(archetype: usize) -> BoxedStrategy<OpCall> {
    match archetype {
        0 => prop_oneof![
            (0i64..4).prop_map(|v| StackOp::Push(Value::Int(v)).to_call()),
            Just(StackOp::Pop.to_call()),
            Just(StackOp::Top.to_call()),
        ]
        .boxed(),
        1 => prop_oneof![
            (0i64..4).prop_map(|v| SetOp::Insert(Value::Int(v)).to_call()),
            (0i64..4).prop_map(|v| SetOp::Delete(Value::Int(v)).to_call()),
            (0i64..4).prop_map(|v| SetOp::Member(Value::Int(v)).to_call()),
        ]
        .boxed(),
        2 => prop_oneof![
            (1i64..4).prop_map(|v| CounterOp::Increment(v).to_call()),
            (1i64..4).prop_map(|v| CounterOp::Decrement(v).to_call()),
            Just(CounterOp::Read.to_call()),
        ]
        .boxed(),
        3 => prop_oneof![
            (0i64..4, 0i64..9)
                .prop_map(|(k, v)| TableOp::Insert(Value::Int(k), Value::Int(v)).to_call()),
            (0i64..4).prop_map(|k| TableOp::Delete(Value::Int(k)).to_call()),
            (0i64..4).prop_map(|k| TableOp::Lookup(Value::Int(k)).to_call()),
            Just(TableOp::Size.to_call()),
            (0i64..4, 0i64..9)
                .prop_map(|(k, v)| TableOp::Modify(Value::Int(k), Value::Int(v)).to_call()),
        ]
        .boxed(),
        4 => prop_oneof![
            Just(PageOp::Read.to_call()),
            (0i64..4).prop_map(|v| PageOp::Write(Value::Int(v)).to_call()),
        ]
        .boxed(),
        _ => (0usize..4).prop_map(OpCall::nullary).boxed(),
    }
}

/// A random log: `(transaction index, call)` pairs, installed in order.
fn arb_log(archetype: usize) -> impl Strategy<Value = Vec<(u64, OpCall)>> {
    proptest::collection::vec((1u64..6, arb_call_for(archetype)), 0..24)
}

fn arb_fairness(archetype: usize) -> impl Strategy<Value = Vec<(u64, OpCall)>> {
    proptest::collection::vec((1u64..8, arb_call_for(archetype)), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The indexed classify and the naive reference agree exactly —
    /// conflicts, commit dependencies, ordering — for random logs, random
    /// fairness sets, both policies and every object archetype.
    #[test]
    fn indexed_classify_matches_naive_reference(
        // Draw the archetype first so the log, fairness set and request are
        // all generated from that archetype's operation space.
        (archetype, log, fairness, request, requester) in (0usize..N_OBJECTS).prop_flat_map(|a| (
            Just(a),
            arb_log(a),
            arb_fairness(a),
            arb_call_for(a),
            1u64..8,
        )),
    ) {
        let mut obj = make_object(archetype);
        let mut seq = 0u64;
        for (txn, call) in &log {
            seq += 1;
            obj.execute(TxnId(*txn), seq, call.clone());
        }
        let fairness: Vec<(TxnId, OpCall)> = fairness
            .iter()
            .map(|(t, c)| (TxnId(*t), c.clone()))
            .collect();
        for policy in [ConflictPolicy::Recoverability, ConflictPolicy::CommutativityOnly] {
            let fast = obj.classify(policy, TxnId(requester), &request, &fairness);
            let slow = obj.classify_naive(policy, TxnId(requester), &request, &fairness);
            prop_assert_eq!(
                &fast, &slow,
                "archetype {} policy {:?} request {} by T{}",
                archetype, policy, &request, requester
            );
            assert_classification_sorted(&fast);
        }
    }
}

fn assert_classification_sorted(c: &Classification) {
    assert!(c.conflicts.windows(2).all(|w| w[0] < w[1]));
    assert!(c.commit_deps.windows(2).all(|w| w[0] < w[1]));
    assert!(c.commit_deps.iter().all(|t| !c.conflicts.contains(t)));
}

/// A focused regression: repeated recoverable operations against the same
/// holder must not pile up commit-dependency edge multiplicity (the kernel
/// deduplicates them before they reach the graph), while the statistics
/// keep counting one dependency per admitted recoverable request.
#[test]
fn commit_dependency_edges_are_deduplicated() {
    let mut kernel = SchedulerKernel::new(SchedulerConfig::default());
    let s = kernel.register("stack", Stack::new()).unwrap();
    let t1 = kernel.begin();
    let t2 = kernel.begin();
    assert!(kernel
        .request(t1, s, StackOp::Push(Value::Int(99)).to_call())
        .unwrap()
        .is_executed());
    for i in 0..5 {
        // Distinct values: pushes of the *same* value are Yes-SP
        // commutative and would not create a dependency at all.
        let outcome = kernel
            .request(t2, s, StackOp::Push(Value::Int(i)).to_call())
            .unwrap();
        match outcome {
            RequestOutcome::Executed { commit_deps, .. } => assert_eq!(commit_deps, vec![t1]),
            other => panic!("push should be recoverable, got {other:?}"),
        }
    }
    // Five recoverable requests, one graph edge.
    assert_eq!(kernel.stats().commit_dependencies, 5);
    assert_eq!(kernel.commit_dependencies_of(t2), vec![t1]);
    assert!(kernel.commit(t2).unwrap().is_pseudo_commit());
    assert!(kernel.commit(t1).unwrap().is_full_commit());
    let _ = kernel.drain_events();
    assert_eq!(
        kernel.txn_state(t2),
        Some(sbcc_core::TxnState::Committed),
        "dedup must not break the cascade"
    );
}
