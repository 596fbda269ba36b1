//! Differential tests for the multi-version snapshot-read path.
//!
//! House-style oracle: **snapshot-blocking equivalence**. A read served
//! by [`Database::begin_snapshot`]'s versioned, non-blocking path must
//! return exactly what the classified blocking path returns on the same
//! committed state — same per-operation results, same transaction fates,
//! same final committed object states, same transaction-lifecycle
//! counters — at shard counts 1 and 4. On top of the equivalence, a
//! snapshot held open across later commits must keep reading its begin
//! stamp (stability), the version store must drain once the last
//! snapshot closes (GC), and the pinned write-skew schedule — invisible
//! to each snapshot alone, non-serializable in combination — must be
//! refused by the SSI rw-antidependency guard.

mod common;

use common::{arb_call_for, register_objects, N_OBJECTS};
use proptest::prelude::*;
use sbcc_adt::{
    AdtObject, AdtOp, Counter, CounterOp, OpCall, PageOp, SetOp, StackOp, TableOp, Value,
};
use sbcc_core::{
    shard_of_name, AbortReason, CommitOutcome, CoreError, Database, DatabaseConfig,
    KernelStats, ObjectHandle, SchedulerConfig, ShardCount, Transaction,
};

fn config(shards: usize) -> DatabaseConfig {
    DatabaseConfig {
        scheduler: SchedulerConfig::default(),
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
    register_objects(|name, object| db.register_object(name, object).unwrap())
}

/// The fixed read-only probe both read paths answer at every read point.
fn probe_calls() -> Vec<(usize, OpCall)> {
    vec![
        (0, StackOp::Top.to_call()),
        (1, SetOp::Member(Value::Int(0)).to_call()),
        (1, SetOp::Member(Value::Int(2)).to_call()),
        (2, CounterOp::Read.to_call()),
        (3, TableOp::Lookup(Value::Int(1)).to_call()),
        (3, TableOp::Size.to_call()),
        (4, PageOp::Read.to_call()),
    ]
}

/// Run the probe inside an already-open transaction (snapshot or
/// classified — `exec_call` routes each read to the right path).
fn probe_with(txn: &Transaction, handles: &[ObjectHandle]) -> Vec<String> {
    probe_calls()
        .into_iter()
        .map(|(o, call)| format!("{}", txn.exec_call(&handles[o], call).unwrap()))
        .collect()
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

/// Commit one writer script as a single transaction. The driver is
/// sequential (one live writer at a time), so every call executes
/// immediately and every commit is an actual commit.
fn run_writer(db: &Database, handles: &[ObjectHandle], script: &[(usize, OpCall)]) {
    let txn = db.begin();
    for (o, call) in script {
        txn.exec_call(&handles[*o], call.clone()).unwrap();
    }
    assert_eq!(txn.commit().unwrap(), CommitOutcome::Committed);
}

/// The transaction-lifecycle counters both read paths must agree on.
/// Operation-level counters legitimately differ: classified probes count
/// `requests`/`operations_executed`, snapshot probes count
/// `snapshot_reads` instead.
fn lifecycle(stats: &KernelStats) -> [u64; 7] {
    [
        stats.transactions_begun,
        stats.commits,
        stats.pseudo_commits,
        stats.commit_dependencies,
        stats.aborts_deadlock,
        stats.aborts_commit_cycle,
        stats.aborts_explicit,
    ]
}

/// Drive the workload with **classified blocking** read points.
fn run_blocking(
    scripts: &[Vec<(usize, OpCall)>],
    shards: usize,
) -> (Vec<Vec<String>>, Vec<Option<String>>, KernelStats) {
    let db = Database::with_config(config(shards));
    let handles = register_all(&db);
    let mut probes = Vec::new();
    for script in scripts {
        let reader = db.begin();
        probes.push(probe_with(&reader, &handles));
        assert_eq!(reader.commit().unwrap(), CommitOutcome::Committed);
        run_writer(&db, &handles, script);
    }
    let reader = db.begin();
    probes.push(probe_with(&reader, &handles));
    assert_eq!(reader.commit().unwrap(), CommitOutcome::Committed);
    db.verify_serializable().unwrap();
    (probes, digests(&db), db.stats())
}

/// Drive the same workload with **snapshot** read points, holding every
/// snapshot open until the end so later commits stack versions on top of
/// each begin stamp.
fn run_snapshot(
    scripts: &[Vec<(usize, OpCall)>],
    shards: usize,
) -> (Vec<Vec<String>>, Vec<Option<String>>, KernelStats) {
    let db = Database::with_config(config(shards));
    let handles = register_all(&db);
    let mut probes = Vec::new();
    let mut open: Vec<(Transaction, Vec<String>)> = Vec::new();
    for script in scripts {
        let snap = db.begin_snapshot();
        assert!(snap.snapshot_stamp().is_some());
        let seen = probe_with(&snap, &handles);
        probes.push(seen.clone());
        open.push((snap, seen));
        run_writer(&db, &handles, script);
    }
    let snap = db.begin_snapshot();
    probes.push(probe_with(&snap, &handles));
    assert_eq!(snap.commit().unwrap(), CommitOutcome::Committed);

    // Stability: every held snapshot still reads its begin stamp, no
    // matter how many commits have landed since, and — being read-only —
    // commits without tripping the SSI guard.
    for (snap, seen) in open {
        assert_eq!(probe_with(&snap, &handles), seen, "snapshot reads drifted");
        assert_eq!(snap.commit().unwrap(), CommitOutcome::Committed);
    }

    // GC: with the last snapshot closed nothing can need old versions;
    // a sweep drains the version store completely.
    assert_eq!(db.oldest_snapshot_stamp(), None);
    db.prune_versions();
    assert_eq!(db.version_depth(), 0, "version store must drain after GC");
    db.verify_serializable().unwrap();
    (probes, digests(&db), db.stats())
}

fn arb_scripts() -> impl Strategy<Value = Vec<Vec<(usize, OpCall)>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0..N_OBJECTS).prop_flat_map(|o| arb_call_for(o, false).prop_map(move |c| (o, c))),
            1..6,
        ),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline property, at 1 **and** 4 shards: snapshot read
    /// points produce exactly the blocking path's results, the same
    /// final committed states, and the same transaction lifecycle.
    #[test]
    fn snapshot_reads_equal_blocking_reads(scripts in arb_scripts()) {
        let mut per_shard = Vec::new();
        for shards in [1usize, 4] {
            let (probes_b, digests_b, stats_b) = run_blocking(&scripts, shards);
            let (probes_s, digests_s, stats_s) = run_snapshot(&scripts, shards);
            prop_assert_eq!(
                &probes_b, &probes_s,
                "per-operation read results diverge at {} shard(s)", shards
            );
            prop_assert_eq!(
                &digests_b, &digests_s,
                "final committed states diverge at {} shard(s)", shards
            );
            prop_assert_eq!(
                lifecycle(&stats_b), lifecycle(&stats_s),
                "transaction lifecycles diverge at {} shard(s)", shards
            );
            // Read-only snapshots over a sequential writer schedule can
            // never complete a dangerous structure.
            prop_assert_eq!(stats_s.aborts_ssi, 0);
            prop_assert_eq!(stats_b.snapshot_reads, 0, "blocking run uses no snapshots");
            // Every probe answered by the versioned path: initial pass
            // plus the stability re-probe of each held snapshot.
            let expected = (probe_calls().len() * (2 * scripts.len() + 1)) as u64;
            prop_assert_eq!(stats_s.snapshot_reads, expected);
            per_shard.push((probes_s, digests_s));
        }
        // Sharding is invisible to a sequential schedule on both paths.
        let (p1, d1) = &per_shard[0];
        let (p4, d4) = &per_shard[1];
        prop_assert_eq!(p1, p4, "results diverge between 1 and 4 shards");
        prop_assert_eq!(d1, d4, "states diverge between 1 and 4 shards");
    }
}

// ---------------------------------------------------------------------
// Pinned scenarios (deterministic)
// ---------------------------------------------------------------------

/// Two counter names guaranteed to land on distinct shards of a
/// `shards`-way kernel (any names work at 1 shard).
fn names_on_distinct_shards(shards: usize) -> (String, String) {
    let a = "x0".to_string();
    let sa = shard_of_name(&a, shards);
    let mut i = 1;
    loop {
        let b = format!("x{i}");
        if shards == 1 || shard_of_name(&b, shards) != sa {
            return (a, b);
        }
        i += 1;
    }
}

/// The SSI litmus test: classic write skew. T1 snapshot-reads `x` and
/// writes `y`; T2 snapshot-reads `y` and writes `x`. Each snapshot alone
/// is consistent, but the pair is not serializable (each read misses the
/// other's write), completing the dangerous in+out rw-antidependency
/// structure. The first committer wins; the second must be refused with
/// [`AbortReason::SsiConflict`].
fn write_skew_is_refused(shards: usize) {
    let db = Database::with_config(config(shards));
    let (name_x, name_y) = names_on_distinct_shards(shards);
    let x = db.register_object(&name_x, Box::new(AdtObject::new(Counter::new()))).unwrap();
    let y = db.register_object(&name_y, Box::new(AdtObject::new(Counter::new()))).unwrap();

    let t1 = db.begin_snapshot();
    let t2 = db.begin_snapshot();

    // Both reads are served by the versioned path and see the initial
    // state — neither observes the other's pending write.
    assert_eq!(
        t1.exec_call(&x, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(0))
    );
    t1.exec_call(&y, CounterOp::Increment(1).to_call()).unwrap();
    assert_eq!(
        t2.exec_call(&y, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(0)),
        "t2's snapshot read must not see t1's uncommitted increment"
    );
    t2.exec_call(&x, CounterOp::Increment(1).to_call()).unwrap();

    // First committer wins.
    assert_eq!(t1.commit().unwrap(), CommitOutcome::Committed);
    // The second commit completes the dangerous structure against the
    // already-committed (unabortable) t1 and must be refused.
    match t2.commit() {
        Err(CoreError::Aborted {
            reason: AbortReason::SsiConflict,
            ..
        }) => {}
        other => panic!("write skew must be refused with SsiConflict, got {other:?}"),
    }

    let stats = db.stats();
    assert_eq!(stats.aborts_ssi, 1, "exactly one SSI abort");
    assert_eq!(stats.commits, 1, "only the first committer survives");
    db.verify_serializable().unwrap();
}

#[test]
fn write_skew_is_refused_single_shard() {
    write_skew_is_refused(1);
}

#[test]
fn write_skew_is_refused_across_shards() {
    write_skew_is_refused(4);
}

/// The non-dangerous half of the guard: a single rw-antidependency (one
/// snapshot reading under a concurrent writer) is *not* a dangerous
/// structure and both transactions must survive — the guard aborts only
/// on the full in+out structure, never on plain reader/writer overlap.
#[test]
fn single_antidependency_commits_on_both_sides() {
    let db = Database::with_config(config(2));
    let c = db.register_object("c", Box::new(AdtObject::new(Counter::new()))).unwrap();

    let snap = db.begin_snapshot();
    let writer = db.begin();
    writer.exec_call(&c, CounterOp::Increment(7).to_call()).unwrap();
    assert_eq!(writer.commit().unwrap(), CommitOutcome::Committed);

    // The snapshot read now carries an rw-antidependency out-edge to the
    // committed writer — harmless on its own.
    assert_eq!(
        snap.exec_call(&c, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(0)),
        "snapshot still reads its begin stamp"
    );
    assert_eq!(snap.commit().unwrap(), CommitOutcome::Committed);
    assert_eq!(db.stats().aborts_ssi, 0);
}

/// Read-your-writes: a snapshot transaction that has itself written an
/// object must fall back to the classified path for reads of that
/// object, observing its own uncommitted operations.
#[test]
fn snapshot_transactions_read_their_own_writes() {
    let db = Database::with_config(config(1));
    let c = db.register_object("c", Box::new(AdtObject::new(Counter::new()))).unwrap();

    let w = db.begin();
    w.exec_call(&c, CounterOp::Increment(10).to_call()).unwrap();
    w.commit().unwrap();

    let snap = db.begin_snapshot();
    assert_eq!(
        snap.exec_call(&c, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(10))
    );
    snap.exec_call(&c, CounterOp::Increment(5).to_call()).unwrap();
    assert_eq!(
        snap.exec_call(&c, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(15)),
        "own uncommitted write must be visible"
    );
    snap.commit().unwrap();
    db.verify_serializable().unwrap();
}

/// GC telemetry: versions stack up under a live snapshot, survive until
/// it closes, and the sweep both drains them and counts them.
#[test]
fn gc_prunes_only_after_the_oldest_snapshot_closes() {
    let db = Database::with_config(config(1));
    let c = db.register_object("c", Box::new(AdtObject::new(Counter::new()))).unwrap();

    let w = db.begin();
    w.exec_call(&c, CounterOp::Increment(1).to_call()).unwrap();
    w.commit().unwrap();

    let snap = db.begin_snapshot();
    let stamp = snap.snapshot_stamp().unwrap();
    assert_eq!(db.oldest_snapshot_stamp(), Some(stamp));
    for _ in 0..3 {
        let w = db.begin();
        w.exec_call(&c, CounterOp::Increment(1).to_call()).unwrap();
        w.commit().unwrap();
    }
    assert!(db.version_depth() > 0, "live snapshot retains versions");
    // The sweep must not prune what the snapshot still needs.
    db.prune_versions();
    assert_eq!(
        snap.exec_call(&c, CounterOp::Read.to_call()).unwrap(),
        sbcc_adt::OpResult::Value(Value::Int(1)),
        "snapshot still reads its begin stamp after a sweep"
    );
    snap.commit().unwrap();

    assert_eq!(db.oldest_snapshot_stamp(), None);
    let pruned = db.prune_versions();
    assert!(pruned > 0, "closing the snapshot frees its versions");
    assert_eq!(db.version_depth(), 0);
    assert!(db.stats().versions_pruned >= pruned);
}
