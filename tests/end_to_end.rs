//! Cross-crate integration: the facade crate, the typed data types, the
//! kernel/database session API and the simulator working together.

use sbcc::prelude::*;
use sbcc::sim::run_averaged;

#[test]
fn prelude_exposes_the_public_api() {
    // Compatibility layer: classification straight from the prelude types.
    let push = StackOp::Push(Value::Int(1));
    let pop = StackOp::Pop;
    assert_eq!(Stack::classify(&push, &pop), Compatibility::Recoverable);
    assert_eq!(Stack::classify(&pop, &push), Compatibility::NonRecoverable);
    assert_eq!(
        TableObject::classify(&TableOp::Size, &TableOp::Size),
        Compatibility::Commutative
    );
    assert!(!sbcc::VERSION.is_empty());
}

#[test]
fn database_round_trip_across_all_data_types() {
    let db = Database::new(SchedulerConfig::default());
    let stack = db.register("stack", Stack::new());
    let set = db.register("set", Set::new());
    let counter = db.register("counter", Counter::new());
    let table = db.register("table", TableObject::new());
    let page = db.register("page", Page::new());
    let queue = db.register("queue", FifoQueue::new());

    // One typed session writing every data type.
    let t = db.begin();
    let results = [
        t.exec(&stack, StackOp::Push(Value::Int(1))),
        t.exec(&set, SetOp::Insert(Value::Int(2))),
        t.exec(&counter, CounterOp::Increment(3)),
        t.exec(&table, TableOp::Insert(Value::Int(4), Value::str("four"))),
        t.exec(&page, PageOp::Write(Value::Int(5))),
        t.exec(&queue, QueueOp::Enqueue(Value::Int(6))),
    ];
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    assert!(t.commit().unwrap().is_full_commit());

    let t2 = db.begin();
    assert_eq!(
        t2.exec(&set, SetOp::Member(Value::Int(2))).unwrap(),
        OpResult::Value(Value::Bool(true))
    );
    assert_eq!(
        t2.exec(&counter, CounterOp::Read).unwrap(),
        OpResult::Value(Value::Int(3))
    );
    assert_eq!(
        t2.exec(&table, TableOp::Lookup(Value::Int(4))).unwrap(),
        OpResult::Value(Value::str("four"))
    );
    assert_eq!(
        t2.exec(&page, PageOp::Read).unwrap(),
        OpResult::Value(Value::Int(5))
    );
    assert_eq!(
        t2.exec(&queue, QueueOp::Front).unwrap(),
        OpResult::Value(Value::Int(6))
    );
    assert_eq!(
        t2.exec(&stack, StackOp::Top).unwrap(),
        OpResult::Value(Value::Int(1))
    );
    t2.commit().unwrap();

    db.verify_serializable().unwrap();
    db.verify_commit_dependencies().unwrap();
    db.check_invariants().unwrap();
    let stats = db.stats();
    // Six writes and six reads, one kernel request each, at any shard
    // count.
    assert_eq!(stats.requests, 12);
    assert_eq!(stats.batches, 0);
    assert_eq!(stats.commits, 2);
}

#[test]
fn kernel_and_dependency_graph_work_through_the_facade() {
    use sbcc::graph::{DependencyGraph, EdgeKind};

    let mut g: DependencyGraph<u32> = DependencyGraph::new();
    g.add_edge(2, 1, EdgeKind::CommitDep);
    assert!(g.would_close_cycle(1, &[2]));

    let mut kernel = SchedulerKernel::new(SchedulerConfig::default());
    let s = kernel.register("s", Stack::new()).unwrap();
    let t1 = kernel.begin();
    let r = kernel
        .request(t1, s, StackOp::Push(Value::Int(1)).to_call())
        .unwrap();
    assert!(r.is_executed());
    // The batch entry point is part of the kernel surface too.
    let t2 = kernel.begin();
    let b = kernel
        .request_batch(
            t2,
            vec![
                BatchCall::new(s, StackOp::Push(Value::Int(2)).to_call()),
                BatchCall::new(s, StackOp::Push(Value::Int(3)).to_call()),
            ],
        )
        .unwrap();
    assert!(b.is_complete());
    assert_eq!(b.commit_deps, vec![t1]);
    assert!(kernel.commit(t2).unwrap().is_pseudo_commit());
    assert!(kernel.commit(t1).unwrap().is_full_commit());
}

#[test]
fn simulator_is_reachable_from_the_facade() {
    let params = SimParams {
        db_size: 60,
        num_terminals: 20,
        mpl_level: 10,
        target_completions: 200,
        seed: 3,
        policy: ConflictPolicy::Recoverability,
        ..SimParams::default()
    };
    let mut sim = Simulator::new(params.clone());
    let result = sim.run();
    assert!(result.completed >= 200);
    assert!(result.throughput > 0.0);

    let agg = run_averaged(&params, 2);
    assert!(agg.throughput.mean > 0.0);
    assert_eq!(agg.runs, 2);
}

#[test]
fn abstract_objects_and_conflict_tables_compose_with_the_database() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(5);
    let table = ConflictTable::random(4, 4, 8, &mut rng);
    assert_eq!(table.count(Compatibility::Commutative), 4);
    assert_eq!(table.count(Compatibility::Recoverable), 8);

    let db = Database::new(SchedulerConfig::default().with_history(false));
    let obj = db
        .register_object("abstract", Box::new(AbstractObject::new(table)))
        .unwrap();
    // Erased objects are driven through `exec_call` on an `ObjectHandle`.
    let t = db.begin();
    let r = t.exec_call(&obj, OpCall::nullary(0)).unwrap();
    assert_eq!(r, OpResult::Ok);
    t.commit().unwrap();
}
