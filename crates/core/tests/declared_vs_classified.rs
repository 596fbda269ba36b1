//! Differential tests for declared access sets and group admission.
//!
//! House-style oracle: **declared ≡ classified**. A batch submitted with
//! its read/write footprint declared up front must be behaviourally
//! identical to the same batch submitted through the per-op classifier —
//! same per-operation results, same transaction fates, same final
//! committed object states, same lifecycle counters (declared
//! bookkeeping aside) — at shard counts 1 and 4, under both
//! [`UndeclaredPolicy`] arms. The scripts deliberately include **wrong
//! declarations** (an accessed object missing from the footprint): under
//! `Escalate` the kernel must detect the lie and fall back to the
//! classifier with no observable difference; under `Abort` the
//! transaction must die with [`AbortReason::UndeclaredAccess`] before
//! any call of the offending batch executes, which the classified
//! reference mirrors with an explicit abort at the same point.

use proptest::prelude::*;
use sbcc_adt::{
    AdtObject, AdtOp, Counter, CounterOp, OpCall, Page, PageOp, Set, SetOp, Stack, StackOp,
    TableObject, TableOp, Value,
};
use sbcc_core::{
    AbortReason, CommitOutcome, CoreError, Database, DatabaseConfig, KernelStats, ObjectHandle,
    SchedulerConfig, ShardCount, UndeclaredPolicy,
};

const N_OBJECTS: usize = 5;

fn config(shards: usize, undeclared: UndeclaredPolicy) -> DatabaseConfig {
    DatabaseConfig {
        scheduler: SchedulerConfig::default().with_undeclared(undeclared),
        shards: ShardCount::Fixed(shards),
        wal: None,
    }
}

fn object_names() -> Vec<String> {
    vec![
        "stack".to_owned(),
        "set".to_owned(),
        "counter".to_owned(),
        "table".to_owned(),
        "page".to_owned(),
    ]
}

fn register_all(db: &Database) -> Vec<ObjectHandle> {
    vec![
        db.register_object("stack", Box::new(AdtObject::new(Stack::new()))).unwrap(),
        db.register_object("set", Box::new(AdtObject::new(Set::new()))).unwrap(),
        db.register_object("counter", Box::new(AdtObject::new(Counter::new()))).unwrap(),
        db.register_object("table", Box::new(AdtObject::new(TableObject::new()))).unwrap(),
        db.register_object("page", Box::new(AdtObject::new(Page::new()))).unwrap(),
    ]
}

/// One committed-state digest per object.
fn digests(db: &Database) -> Vec<Option<String>> {
    object_names()
        .iter()
        .map(|name| {
            db.with_sharded_kernel(|k| {
                k.object_id(name)
                    .and_then(|id| k.with_object_committed(id, |o| o.debug_state()))
            })
        })
        .collect()
}

/// How a batch declares its footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Decl {
    /// Every touched object declared written — always a correct
    /// (over-approximate) declaration.
    WriteAll,
    /// Objects the batch only reads declared read, the rest written. A
    /// mis-predicted read-only flag harmlessly escalates — the
    /// declaration is a promise, never trusted.
    Precise,
    /// One touched object silently dropped from the footprint — a
    /// deliberate lie. Only effective when the batch touches ≥ 2
    /// distinct objects (dropping the sole object would leave no
    /// declaration at all and thus the plain classified path).
    DropOne,
}

/// One generated call: object index, the call, and whether the strategy
/// considers it a write (used to build `Precise` declarations).
type SpecOp = (usize, OpCall, bool);

#[derive(Debug, Clone)]
struct BatchSpec {
    ops: Vec<SpecOp>,
    decl: Decl,
}

impl BatchSpec {
    /// Distinct touched objects, ascending.
    fn footprint(&self) -> Vec<usize> {
        let mut objs: Vec<usize> = self.ops.iter().map(|(o, _, _)| *o).collect();
        objs.sort_unstable();
        objs.dedup();
        objs
    }

    /// Whether this batch's declaration really lies (a `DropOne` with a
    /// droppable object). Shared by both drivers so the classified
    /// reference mirrors the abort at exactly the admissions that lie.
    fn lies(&self) -> bool {
        self.decl == Decl::DropOne && self.footprint().len() >= 2
    }
}

/// The outcome trace of one batch submission, comparable across runs.
fn trace_results(results: Result<Vec<sbcc_adt::OpResult>, String>) -> String {
    match results {
        Ok(rs) => rs.iter().map(|r| format!("{r};")).collect(),
        Err(e) => format!("error:{e}"),
    }
}

/// Run one scripted workload. `declared` picks the submission mode: with
/// declarations (group admission) or the plain classified batch path.
/// The schedule is sequential — one live transaction at a time — so no
/// call can block and both modes are driven identically.
fn run(
    scripts: &[Vec<BatchSpec>],
    shards: usize,
    policy: UndeclaredPolicy,
    declared: bool,
) -> (Vec<String>, Vec<String>, Vec<Option<String>>, KernelStats) {
    let db = Database::with_config(config(shards, policy));
    let handles = register_all(&db);
    let mut traces = Vec::new();
    let mut fates = Vec::new();
    for script in scripts {
        // Option-wrapped: the classified reference's explicit abort
        // consumes the transaction mid-script.
        let mut txn = Some(db.begin());
        let mut dead = false;
        for spec in script {
            if dead {
                traces.push("skipped".to_owned());
                continue;
            }
            if declared {
                let mut batch = txn.as_ref().unwrap().batch();
                let footprint = spec.footprint();
                match spec.decl {
                    Decl::WriteAll => {
                        for o in &footprint {
                            batch.add_declare_write(&handles[*o]);
                        }
                    }
                    Decl::Precise => {
                        for o in &footprint {
                            let all_reads = spec
                                .ops
                                .iter()
                                .filter(|(obj, _, _)| obj == o)
                                .all(|(_, _, is_write)| !is_write);
                            if all_reads {
                                batch.add_declare_read(&handles[*o]);
                            } else {
                                batch.add_declare_write(&handles[*o]);
                            }
                        }
                    }
                    Decl::DropOne => {
                        let keep = if spec.lies() {
                            &footprint[..footprint.len() - 1]
                        } else {
                            &footprint[..]
                        };
                        for o in keep {
                            batch.add_declare_write(&handles[*o]);
                        }
                    }
                }
                for (o, call, _) in &spec.ops {
                    batch.add_call(&handles[*o], call.clone());
                }
                match batch.submit() {
                    Ok(rs) => traces.push(trace_results(Ok(rs))),
                    Err(CoreError::Aborted {
                        reason: AbortReason::UndeclaredAccess,
                        ..
                    }) => {
                        assert_eq!(
                            policy,
                            UndeclaredPolicy::Abort,
                            "escalate policy must never abort on a lie"
                        );
                        assert!(spec.lies(), "only lying declarations may abort");
                        traces.push("aborted".to_owned());
                        dead = true;
                    }
                    Err(other) => panic!("unexpected batch error: {other}"),
                }
            } else if spec.lies() && policy == UndeclaredPolicy::Abort {
                // The classified reference for an aborting lie: the whole
                // batch is refused before any call executes, killing the
                // transaction at the same point.
                txn.take().unwrap().abort().unwrap();
                traces.push("aborted".to_owned());
                dead = true;
            } else {
                let mut batch = txn.as_ref().unwrap().batch();
                for (o, call, _) in &spec.ops {
                    batch.add_call(&handles[*o], call.clone());
                }
                traces.push(trace_results(batch.submit().map_err(|e| e.to_string())));
            }
        }
        if dead {
            fates.push("aborted".to_owned());
            drop(txn);
        } else {
            assert_eq!(
                txn.take().unwrap().commit().unwrap(),
                CommitOutcome::Committed
            );
            fates.push("committed".to_owned());
        }
    }
    db.verify_serializable().unwrap();
    (traces, fates, digests(&db), db.stats())
}

/// Strip the counters the two submission modes may legitimately differ
/// on, keeping the full transaction lifecycle comparable:
///
/// * the declared-admission bookkeeping itself;
/// * the execution-volume counters (`requests`, `batches`,
///   `batched_calls`, `operations_executed`) — a multi-shard batch is
///   admitted shard-run by shard-run, so an aborting lie may execute a
///   rolled-back prefix on the shards before the lying one, which the
///   classified reference (refusing before any call) never runs;
/// * the abort attribution a mirrored refusal splits across kinds
///   (`UndeclaredAccess` on the declared side, explicit on the
///   reference), merged rather than dropped.
fn comparable(stats: &KernelStats) -> KernelStats {
    let mut s = stats.clone();
    s.declared_batches = 0;
    s.declared_admitted = 0;
    s.declared_fallbacks = 0;
    s.declared_escalations = 0;
    s.requests = 0;
    s.batches = 0;
    s.batched_calls = 0;
    s.operations_executed = 0;
    s.aborts_explicit += s.aborts_undeclared;
    s.aborts_undeclared = 0;
    s
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
            (0i64..4, 0i64..50)
                .prop_map(|(k, v)| (3, TableOp::Insert(Value::Int(k), Value::Int(v)).to_call(), true)),
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

fn arb_batch() -> impl Strategy<Value = BatchSpec> {
    let ops = proptest::collection::vec(
        (0..N_OBJECTS).prop_flat_map(arb_spec_op),
        1..6,
    );
    let decl = prop_oneof![
        Just(Decl::WriteAll),
        Just(Decl::Precise),
        Just(Decl::DropOne),
    ];
    (ops, decl).prop_map(|(ops, decl)| BatchSpec { ops, decl })
}

fn arb_scripts() -> impl Strategy<Value = Vec<Vec<BatchSpec>>> {
    proptest::collection::vec(proptest::collection::vec(arb_batch(), 1..4), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property, at 1 **and** 4 shards, under both
    /// undeclared-access policies: declared submission produces exactly
    /// the classified path's results, fates, final committed states and
    /// lifecycle counters.
    #[test]
    fn declared_equals_classified(scripts in arb_scripts()) {
        for shards in [1usize, 4] {
            for policy in [UndeclaredPolicy::Escalate, UndeclaredPolicy::Abort] {
                let (tr_d, f_d, dg_d, st_d) = run(&scripts, shards, policy, true);
                let (tr_c, f_c, dg_c, st_c) = run(&scripts, shards, policy, false);
                prop_assert_eq!(
                    &tr_d, &tr_c,
                    "per-batch results diverge at {} shard(s) under {}", shards, policy
                );
                prop_assert_eq!(
                    &f_d, &f_c,
                    "transaction fates diverge at {} shard(s) under {}", shards, policy
                );
                prop_assert_eq!(
                    &dg_d, &dg_c,
                    "final committed states diverge at {} shard(s) under {}", shards, policy
                );
                prop_assert_eq!(
                    comparable(&st_d), comparable(&st_c),
                    "lifecycle counters diverge at {} shard(s) under {}", shards, policy
                );
                // Bookkeeping sanity on the declared side: every batch
                // with a declaration was counted, and each one either
                // group-admitted, fell back, or escalated.
                prop_assert_eq!(
                    st_d.declared_batches,
                    st_d.declared_admitted + st_d.declared_fallbacks
                        + st_d.declared_escalations + st_d.aborts_undeclared,
                    "declared batches must partition across the outcomes"
                );
                prop_assert_eq!(st_c.declared_batches, 0, "reference run declares nothing");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pinned scenarios (deterministic)
// ---------------------------------------------------------------------

/// A quiescent, correctly declared batch takes the zero-classification
/// fast path: the whole group admits in one footprint scan.
#[test]
fn quiescent_declared_batch_group_admits() {
    let db = Database::with_config(config(1, UndeclaredPolicy::Escalate));
    let handles = register_all(&db);

    let txn = db.begin();
    let results = txn
        .batch()
        .declare_write(&handles[0])
        .declare_write(&handles[2])
        .call(&handles[0], StackOp::Push(Value::Int(7)).to_call())
        .call(&handles[2], CounterOp::Increment(3).to_call())
        .call(&handles[2], CounterOp::Read.to_call())
        .submit()
        .unwrap();
    assert_eq!(
        results,
        vec![
            sbcc_adt::OpResult::Ok,
            sbcc_adt::OpResult::Ok,
            sbcc_adt::OpResult::Value(Value::Int(3)),
        ]
    );
    assert_eq!(txn.commit().unwrap(), CommitOutcome::Committed);

    let stats = db.stats();
    assert_eq!(stats.declared_batches, 1);
    assert_eq!(stats.declared_admitted, 1);
    assert_eq!(stats.declared_fallbacks, 0);
    assert_eq!(stats.declared_escalations, 0);
    db.verify_serializable().unwrap();
}

/// A read-only declaration is honoured for read-only calls and the
/// group still admits without classification.
#[test]
fn read_declarations_cover_readonly_calls() {
    let db = Database::with_config(config(1, UndeclaredPolicy::Escalate));
    let handles = register_all(&db);

    let w = db.begin();
    w.exec_call(&handles[2], CounterOp::Increment(9).to_call()).unwrap();
    w.commit().unwrap();

    let txn = db.begin();
    let results = txn
        .batch()
        .declare_read(&handles[2])
        .declare_write(&handles[4])
        .call(&handles[2], CounterOp::Read.to_call())
        .call(&handles[4], PageOp::Write(Value::Int(1)).to_call())
        .submit()
        .unwrap();
    assert_eq!(results[0], sbcc_adt::OpResult::Value(Value::Int(9)));
    txn.commit().unwrap();
    assert_eq!(db.stats().declared_admitted, 1);
}

/// A mutating call on a read-declared object is outside the declaration:
/// the batch escalates to the classifier (same results) instead of
/// trusting the lie.
#[test]
fn write_through_read_declaration_escalates() {
    let db = Database::with_config(config(1, UndeclaredPolicy::Escalate));
    let handles = register_all(&db);

    let txn = db.begin();
    let results = txn
        .batch()
        .declare_read(&handles[2])
        .call(&handles[2], CounterOp::Increment(5).to_call())
        .call(&handles[2], CounterOp::Read.to_call())
        .submit()
        .unwrap();
    assert_eq!(results[1], sbcc_adt::OpResult::Value(Value::Int(5)));
    txn.commit().unwrap();

    let stats = db.stats();
    assert_eq!(stats.declared_batches, 1);
    assert_eq!(stats.declared_admitted, 0);
    assert_eq!(stats.declared_escalations, 1);
    db.verify_serializable().unwrap();
}

/// Under [`UndeclaredPolicy::Abort`], the same lie kills the transaction
/// with a retryable [`AbortReason::UndeclaredAccess`] before any call of
/// the batch executes.
#[test]
fn undeclared_access_aborts_under_abort_policy() {
    let db = Database::with_config(config(1, UndeclaredPolicy::Abort));
    let handles = register_all(&db);

    let txn = db.begin();
    let err = txn
        .batch()
        .declare_write(&handles[0])
        .call(&handles[0], StackOp::Push(Value::Int(1)).to_call())
        .call(&handles[2], CounterOp::Increment(5).to_call())
        .submit()
        .expect_err("undeclared counter access must abort");
    match err {
        CoreError::Aborted { reason, .. } => {
            assert_eq!(reason, AbortReason::UndeclaredAccess);
            assert!(
                reason.is_scheduler_initiated(),
                "undeclared-access aborts must be retryable"
            );
        }
        other => panic!("expected abort, got {other}"),
    }

    // Nothing executed — not even the correctly declared prefix — so the
    // committed state is untouched.
    let probe = db.begin();
    assert_eq!(
        probe.exec_call(&handles[0], StackOp::Top.to_call()).unwrap(),
        sbcc_adt::OpResult::Null,
        "aborted batch must not have pushed"
    );
    assert_eq!(
        probe.exec_call(&handles[2], CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(0))
    );
    probe.commit().unwrap();

    let stats = db.stats();
    assert_eq!(stats.aborts_undeclared, 1);
    assert_eq!(stats.declared_admitted, 0);
    db.verify_serializable().unwrap();
}

/// A *busy* declared footprint (another live transaction holds log
/// entries on a declared object) falls back to the classifier — the
/// declaration is only a fast path, never an exclusivity claim. The
/// overlap uses commuting counter increments so the sequential driver
/// cannot block.
#[test]
fn busy_footprint_falls_back_to_classifier() {
    let db = Database::with_config(config(1, UndeclaredPolicy::Escalate));
    let handles = register_all(&db);

    let pinner = db.begin();
    pinner.exec_call(&handles[2], CounterOp::Increment(1).to_call()).unwrap();

    // Declares the busy counter (and the idle page): the footprint scan
    // sees the pinner's uncommitted log entry and hands the whole batch
    // to the classifier, where the increment commutes and executes.
    let txn = db.begin();
    let results = txn
        .batch()
        .declare_write(&handles[2])
        .declare_write(&handles[4])
        .call(&handles[2], CounterOp::Increment(2).to_call())
        .call(&handles[4], PageOp::Write(Value::Int(9)).to_call())
        .submit()
        .unwrap();
    assert_eq!(results, vec![sbcc_adt::OpResult::Ok, sbcc_adt::OpResult::Ok]);

    assert_eq!(pinner.commit().unwrap(), CommitOutcome::Committed);
    txn.commit().unwrap();

    let stats = db.stats();
    assert_eq!(stats.declared_batches, 1);
    assert_eq!(stats.declared_fallbacks, 1);
    assert_eq!(stats.declared_admitted, 0);

    let final_read = db.begin();
    assert_eq!(
        final_read.exec_call(&handles[2], CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(3)),
        "both increments must survive the fallback"
    );
    final_read.commit().unwrap();
    db.verify_serializable().unwrap();
}
