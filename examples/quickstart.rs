//! Quickstart: recoverability beyond commutativity on a stack, through the
//! session API.
//!
//! Two `push` operations do not commute — the final stack depends on their
//! order — so a commutativity-based scheduler serialises them. But a push
//! always returns `ok`, so it is *recoverable* relative to an uncommitted
//! push: both transactions proceed immediately and only their commit order
//! is constrained. If either aborts, the other still commits — no cascading
//! aborts.
//!
//! Run with: `cargo run --example quickstart`

use sbcc::prelude::*;

fn main() {
    // A database using the paper's recoverability-based scheduler.
    let db = Database::new(SchedulerConfig::default().with_policy(ConflictPolicy::Recoverability));
    // `register` returns a *typed* handle: `jobs` only accepts `StackOp`s.
    let jobs = db.register("jobs", Stack::new());

    // `begin` returns a transaction session that would auto-abort on drop.
    let t1 = db.begin();
    let t2 = db.begin();
    let t2_id = t2.id();

    // Both pushes execute immediately, even though they do not commute.
    t1.exec(&jobs, StackOp::Push(Value::Int(4))).unwrap();
    t2.exec(&jobs, StackOp::Push(Value::Int(2))).unwrap();
    println!("both pushes executed without waiting");

    // T2 finishes first. Because its push is recoverable relative to T1's,
    // it picked up a commit dependency: it *pseudo-commits* — complete from
    // the user's perspective, guaranteed to commit — and actually commits
    // once T1 terminates.
    let outcome2 = t2.commit().unwrap();
    println!(
        "T2 commit outcome: pseudo-commit = {}",
        outcome2.is_pseudo_commit()
    );

    // A third transaction that wants to *observe* the stack must wait: a pop
    // is not recoverable relative to uncommitted pushes. Run it on its own
    // thread so it can block; `db.run` begins the session, commits on
    // success and would retry on a scheduler-initiated abort.
    let observer = {
        let db = db.clone();
        let jobs = jobs.clone();
        std::thread::spawn(move || db.run(|txn| txn.exec(&jobs, StackOp::Pop)).unwrap())
    };

    // T1 commits; the commit cascades to T2 (commit order = invocation
    // order: first T1's push, then T2's) and the blocked pop wakes up.
    std::thread::sleep(std::time::Duration::from_millis(20));
    t1.commit().unwrap();
    println!(
        "T1 committed; T2 cascaded to a full commit: {:?}",
        db.outcome_of(t2_id)
    );

    let popped = observer.join().expect("observer thread");
    println!("observer popped the top of the stack: {popped}");
    assert_eq!(popped, OpResult::Value(Value::Int(2)));

    // The execution is serializable in commit order.
    db.verify_serializable()
        .expect("execution must be serializable");
    let stats = db.stats();
    println!(
        "stats: {} commits, {} pseudo-commits, {} blocks, {} commit dependencies",
        stats.commits, stats.pseudo_commits, stats.blocks, stats.commit_dependencies
    );
}
