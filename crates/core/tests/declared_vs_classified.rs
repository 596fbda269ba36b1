//! Kernel-level differential: `SchedulerKernel::request_batch_declared`
//! ≡ `SchedulerKernel::request_batch`.
//!
//! The declared entry point is kernel residue kept for the frozen `bench/`
//! probes (nothing above the kernel calls it). While it exists it must be
//! behaviourally identical to the classifier: the same generated schedule
//! — several live transactions, so footprints are busy as well as
//! quiescent, and declarations that are exact, over-approximate or
//! **lying** (a touched object missing) — must produce the same per-batch
//! outcomes, transaction fates, committed states and counters (the four
//! `declared_*` ones aside) on both entry points.

use proptest::prelude::*;
use sbcc_adt::{
    AccessSet, AdtOp, Counter, CounterOp, OpCall, OpResult, Page, PageOp, Set, SetOp, Stack,
    StackOp, TableObject, TableOp, Value,
};
use sbcc_core::{
    BatchCall, CommitOutcome, KernelStats, ObjectId, SchedulerConfig, SchedulerKernel, TxnId,
    TxnState,
};

const N_OBJECTS: usize = 5;
const SLOTS: usize = 3;

/// A kernel with one object of each data type; `ObjectId(i)` is object `i`.
fn kernel() -> SchedulerKernel {
    let mut k = SchedulerKernel::new(SchedulerConfig::default());
    k.register("stack", Stack::new()).unwrap();
    k.register("set", Set::new()).unwrap();
    k.register("counter", Counter::new()).unwrap();
    k.register("table", TableObject::new()).unwrap();
    k.register("page", Page::new()).unwrap();
    k
}

const STACK: ObjectId = ObjectId(0);
const COUNTER: ObjectId = ObjectId(2);
const PAGE: ObjectId = ObjectId(4);

fn writes(objects: &[ObjectId]) -> AccessSet<ObjectId> {
    AccessSet::from_parts(Vec::new(), objects.to_vec())
}

/// How a batch declares its footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Decl {
    /// Every touched object declared written — always correct.
    WriteAll,
    /// Objects the batch only reads declared read, the rest written.
    Precise,
    /// One touched object dropped from the footprint — a lie the coverage
    /// scan must catch.
    DropOne,
}

/// One generated call: object index, the call, and whether it mutates.
type SpecOp = (usize, OpCall, bool);

#[derive(Debug, Clone)]
enum Step {
    Batch {
        slot: usize,
        ops: Vec<SpecOp>,
        decl: Decl,
    },
    Commit {
        slot: usize,
    },
    Abort {
        slot: usize,
    },
}

fn declaration(ops: &[SpecOp], decl: Decl) -> AccessSet<ObjectId> {
    let mut touched: Vec<usize> = ops.iter().map(|(o, _, _)| *o).collect();
    touched.sort_unstable();
    touched.dedup();
    if decl == Decl::DropOne {
        touched.pop();
    }
    let mut set = AccessSet::new();
    for o in touched {
        let mutated = ops.iter().any(|(obj, _, is_write)| *obj == o && *is_write);
        if decl == Decl::Precise && !mutated {
            set.declare_read(ObjectId(o as u32));
        } else {
            set.declare_write(ObjectId(o as u32));
        }
    }
    set
}

/// What one run leaves behind: per-step outcomes, every transaction's
/// fate, the committed state of every object, the counters.
type Observed = (Vec<String>, Vec<Option<TxnState>>, Vec<String>, KernelStats);

/// Drive one schedule through a fresh kernel, submitting batches through
/// the declared entry point or the classifier. A slot whose transaction is
/// no longer active (blocked, aborted by the scheduler, terminated) gets
/// it aborted if need be and a fresh one begun, so every step is legal.
fn run(steps: &[Step], declared: bool) -> Observed {
    let mut k = kernel();
    let mut begun: Vec<TxnId> = Vec::new();
    let mut slots: Vec<TxnId> = Vec::new();
    for _ in 0..SLOTS {
        let t = k.begin();
        begun.push(t);
        slots.push(t);
    }
    let mut trace = Vec::new();
    for step in steps {
        let slot = match step {
            Step::Batch { slot, .. } | Step::Commit { slot } | Step::Abort { slot } => *slot,
        };
        if k.txn_state(slots[slot]) != Some(TxnState::Active) {
            if k.txn_state(slots[slot]) == Some(TxnState::Blocked) {
                k.abort(slots[slot]).unwrap();
            }
            slots[slot] = k.begin();
            begun.push(slots[slot]);
        }
        let txn = slots[slot];
        trace.push(match step {
            Step::Batch { ops, decl, .. } => {
                let calls: Vec<BatchCall> = ops
                    .iter()
                    .map(|(o, call, _)| BatchCall::new(ObjectId(*o as u32), call.clone()))
                    .collect();
                let outcome = if declared {
                    k.request_batch_declared(txn, calls, &declaration(ops, *decl))
                } else {
                    k.request_batch(txn, calls)
                };
                format!("{outcome:?}")
            }
            Step::Commit { .. } => format!("{:?}", k.commit(txn)),
            Step::Abort { .. } => format!("{:?}", k.abort(txn)),
        });
    }
    for txn in slots {
        if matches!(k.txn_state(txn), Some(TxnState::Active | TxnState::Blocked)) {
            k.abort(txn).unwrap();
        }
    }
    k.check_invariants().unwrap();
    let fates = begun.iter().map(|t| k.txn_state(*t)).collect();
    let states = (0..N_OBJECTS)
        .map(|o| {
            k.object_committed_state(ObjectId(o as u32))
                .unwrap()
                .debug_state()
        })
        .collect();
    (trace, fates, states, k.stats().clone())
}

fn without_declared_counters(stats: &KernelStats) -> KernelStats {
    KernelStats {
        declared_batches: 0,
        declared_admitted: 0,
        declared_fallbacks: 0,
        declared_escalations: 0,
        ..stats.clone()
    }
}

fn arb_spec_op(object: usize) -> BoxedStrategy<SpecOp> {
    match object {
        0 => prop_oneof![
            (0i64..5).prop_map(|v| (0, StackOp::Push(Value::Int(v)).to_call(), true)),
            Just((0, StackOp::Pop.to_call(), true)),
            Just((0, StackOp::Top.to_call(), false)),
        ]
        .boxed(),
        1 => prop_oneof![
            (0i64..4).prop_map(|v| (1, SetOp::Insert(Value::Int(v)).to_call(), true)),
            (0i64..4).prop_map(|v| (1, SetOp::Delete(Value::Int(v)).to_call(), true)),
            (0i64..4).prop_map(|v| (1, SetOp::Member(Value::Int(v)).to_call(), false)),
        ]
        .boxed(),
        2 => prop_oneof![
            (1i64..5).prop_map(|v| (2, CounterOp::Increment(v).to_call(), true)),
            (1i64..5).prop_map(|v| (2, CounterOp::Decrement(v).to_call(), true)),
            Just((2, CounterOp::Read.to_call(), false)),
        ]
        .boxed(),
        3 => prop_oneof![
            (0i64..4, 0i64..50).prop_map(|(k, v)| (
                3,
                TableOp::Insert(Value::Int(k), Value::Int(v)).to_call(),
                true
            )),
            (0i64..4).prop_map(|k| (3, TableOp::Delete(Value::Int(k)).to_call(), true)),
            (0i64..4).prop_map(|k| (3, TableOp::Lookup(Value::Int(k)).to_call(), false)),
        ]
        .boxed(),
        _ => prop_oneof![
            Just((4, PageOp::Read.to_call(), false)),
            (0i64..10).prop_map(|v| (4, PageOp::Write(Value::Int(v)).to_call(), true)),
        ]
        .boxed(),
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    let ops = proptest::collection::vec((0..N_OBJECTS).prop_flat_map(arb_spec_op), 1..5);
    let decl = prop_oneof![
        Just(Decl::WriteAll),
        Just(Decl::Precise),
        Just(Decl::DropOne)
    ];
    // Four batches to two commits to one abort.
    (0u8..7, 0..SLOTS, ops, decl).prop_map(|(kind, slot, ops, decl)| match kind {
        0..=3 => Step::Batch { slot, ops, decl },
        4 | 5 => Step::Commit { slot },
        _ => Step::Abort { slot },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn declared_equals_classified(steps in proptest::collection::vec(arb_step(), 1..24)) {
        let (tr_d, f_d, st_d, stats_d) = run(&steps, true);
        let (tr_c, f_c, st_c, stats_c) = run(&steps, false);
        prop_assert_eq!(&tr_d, &tr_c, "per-step outcomes diverge");
        prop_assert_eq!(&f_d, &f_c, "transaction fates diverge");
        prop_assert_eq!(&st_d, &st_c, "committed states diverge");
        prop_assert_eq!(
            without_declared_counters(&stats_d), stats_c.clone(),
            "counters diverge"
        );
        let batches = steps.iter().filter(|s| matches!(s, Step::Batch { .. })).count() as u64;
        prop_assert_eq!(stats_d.declared_batches, batches);
        prop_assert_eq!(
            stats_d.declared_batches,
            stats_d.declared_admitted + stats_d.declared_fallbacks + stats_d.declared_escalations,
            "declared batches must partition across the outcomes"
        );
        prop_assert_eq!(stats_d.aborts_undeclared, 0);
    }
}

// ---------------------------------------------------------------------
// Pinned scenarios: each of the three outcomes actually happens.
// ---------------------------------------------------------------------

#[test]
fn quiescent_declared_batch_group_admits() {
    let mut k = kernel();
    let txn = k.begin();
    let outcome = k
        .request_batch_declared(
            txn,
            vec![
                BatchCall::new(STACK, StackOp::Push(Value::Int(7)).to_call()),
                BatchCall::new(COUNTER, CounterOp::Increment(3).to_call()),
                BatchCall::new(COUNTER, CounterOp::Read.to_call()),
            ],
            &writes(&[STACK, COUNTER]),
        )
        .unwrap();
    assert!(outcome.is_complete());
    assert_eq!(
        outcome.executed,
        vec![OpResult::Ok, OpResult::Ok, OpResult::Value(Value::Int(3))]
    );
    assert_eq!(k.commit(txn).unwrap(), CommitOutcome::Committed);
    let stats = k.stats();
    assert_eq!(
        (
            stats.declared_batches,
            stats.declared_admitted,
            stats.graph_edges
        ),
        (1, 1, 0)
    );
}

#[test]
fn read_declarations_cover_readonly_calls() {
    let mut k = kernel();
    let txn = k.begin();
    let outcome = k
        .request_batch_declared(
            txn,
            vec![
                BatchCall::new(COUNTER, CounterOp::Read.to_call()),
                BatchCall::new(PAGE, PageOp::Write(Value::Int(1)).to_call()),
            ],
            &AccessSet::from_parts(vec![COUNTER], vec![PAGE]),
        )
        .unwrap();
    assert_eq!(outcome.executed[0], OpResult::Value(Value::Int(0)));
    assert_eq!(k.stats().declared_admitted, 1);
}

/// A mutating call on a read-declared object is outside the declaration.
#[test]
fn write_through_read_declaration_escalates() {
    let mut k = kernel();
    let txn = k.begin();
    let outcome = k
        .request_batch_declared(
            txn,
            vec![
                BatchCall::new(COUNTER, CounterOp::Increment(5).to_call()),
                BatchCall::new(COUNTER, CounterOp::Read.to_call()),
            ],
            &AccessSet::from_parts(vec![COUNTER], Vec::new()),
        )
        .unwrap();
    assert_eq!(outcome.executed[1], OpResult::Value(Value::Int(5)));
    let stats = k.stats();
    assert_eq!(
        (
            stats.declared_batches,
            stats.declared_admitted,
            stats.declared_escalations
        ),
        (1, 0, 1)
    );
}

/// Another live transaction's uncommitted operation on a declared object
/// sends the batch to the classifier, where the increments commute.
#[test]
fn busy_footprint_falls_back_to_classifier() {
    let mut k = kernel();
    let pinner = k.begin();
    k.request(pinner, COUNTER, CounterOp::Increment(1).to_call())
        .unwrap();

    let txn = k.begin();
    let outcome = k
        .request_batch_declared(
            txn,
            vec![
                BatchCall::new(COUNTER, CounterOp::Increment(2).to_call()),
                BatchCall::new(PAGE, PageOp::Write(Value::Int(9)).to_call()),
            ],
            &writes(&[COUNTER, PAGE]),
        )
        .unwrap();
    assert_eq!(outcome.executed, vec![OpResult::Ok, OpResult::Ok]);
    assert_eq!(k.commit(pinner).unwrap(), CommitOutcome::Committed);
    assert_eq!(k.commit(txn).unwrap(), CommitOutcome::Committed);
    let stats = k.stats();
    assert_eq!(
        (
            stats.declared_batches,
            stats.declared_admitted,
            stats.declared_fallbacks
        ),
        (1, 0, 1)
    );
    let reader = k.begin();
    assert_eq!(
        k.request(reader, COUNTER, CounterOp::Read.to_call())
            .unwrap()
            .result(),
        Some(&OpResult::Value(Value::Int(3))),
        "both increments survive the fallback"
    );
}
