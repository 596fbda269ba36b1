//! Multithreaded stress tests against the blocking session front-end:
//! many threads, conflicting workloads, scheduler-initiated aborts — the
//! final execution must be serializable and the data-type invariants must
//! hold.

use sbcc::prelude::*;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

#[test]
fn concurrent_counter_increments_never_lose_updates() {
    let db = Database::new(SchedulerConfig::default());
    let counter = db.register("hits", Counter::new());
    let threads = 8;
    let per_thread = 50i64;

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let db = db.clone();
            let counter = counter.clone();
            scope.spawn(move || {
                for _ in 0..per_thread {
                    let t = db.begin();
                    t.exec(&counter, CounterOp::Increment(1)).unwrap();
                    t.commit().unwrap();
                }
            });
        }
    });

    let t = db.begin();
    let value = t.exec(&counter, CounterOp::Read).unwrap();
    t.commit().unwrap();
    assert_eq!(
        value,
        OpResult::Value(Value::Int(threads as i64 * per_thread))
    );
    db.verify_serializable().unwrap();
    assert_eq!(db.stats().blocks, 0, "increments commute and never block");
}

#[test]
fn concurrent_bank_transfers_preserve_the_total_balance() {
    // Accounts live in a Table; transfers modify two accounts. Modifies of
    // the same key conflict (Yes-DP), so the scheduler blocks or aborts as
    // needed; the application retries aborted transfers.
    let db = Database::new(SchedulerConfig::default());
    let accounts = db.register("accounts", TableObject::new());
    let n_accounts = 6i64;
    let initial_balance = 100i64;

    // Seed through a setup session.
    let setup = db.begin();
    for a in 0..n_accounts {
        setup
            .exec(
                &accounts,
                TableOp::Insert(Value::Int(a), Value::Int(initial_balance)),
            )
            .unwrap();
    }
    setup.commit().unwrap();

    let retries = Arc::new(AtomicI64::new(0));
    std::thread::scope(|scope| {
        for worker in 0..6 {
            let db = db.clone();
            let accounts = accounts.clone();
            let retries = retries.clone();
            scope.spawn(move || {
                let mut transferred = 0;
                let mut attempt = 0u64;
                while transferred < 20 {
                    attempt += 1;
                    assert!(attempt < 10_000, "worker {worker} is livelocked");
                    let from = (worker as i64 + transferred) % n_accounts;
                    let to = (from + 1 + worker as i64) % n_accounts;
                    if from == to {
                        transferred += 1;
                        continue;
                    }
                    match try_transfer(&db, &accounts, from, to, 1) {
                        Ok(()) => transferred += 1,
                        Err(_) => {
                            retries.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Total balance is conserved.
    let t = db.begin();
    let mut total = 0i64;
    for a in 0..n_accounts {
        match t.exec(&accounts, TableOp::Lookup(Value::Int(a))).unwrap() {
            OpResult::Value(Value::Int(v)) => total += v,
            other => panic!("unexpected lookup result {other:?}"),
        }
    }
    t.commit().unwrap();
    assert_eq!(total, n_accounts * initial_balance);

    db.verify_serializable().unwrap();
    db.verify_commit_dependencies().unwrap();
    db.check_invariants().unwrap();
}

fn try_transfer(
    db: &Database,
    accounts: &Handle<TableObject>,
    from: i64,
    to: i64,
    amount: i64,
) -> Result<(), CoreError> {
    // The session guard replaces the old abort dance: any `?` below drops
    // the transaction, which aborts it (a no-op if the scheduler already
    // aborted it).
    let txn = db.begin();
    let from_balance = match txn.exec(accounts, TableOp::Lookup(Value::Int(from)))? {
        OpResult::Value(Value::Int(v)) => v,
        other => panic!("unexpected lookup result {other:?}"),
    };
    let to_balance = match txn.exec(accounts, TableOp::Lookup(Value::Int(to)))? {
        OpResult::Value(Value::Int(v)) => v,
        other => panic!("unexpected lookup result {other:?}"),
    };
    txn.exec(
        accounts,
        TableOp::Modify(Value::Int(from), Value::Int(from_balance - amount)),
    )?;
    txn.exec(
        accounts,
        TableOp::Modify(Value::Int(to), Value::Int(to_balance + amount)),
    )?;
    txn.commit()?;
    Ok(())
}

#[test]
fn concurrent_transfers_through_the_run_helper_always_complete() {
    // The same transfer workload, but written against `db.run`: scheduler
    // aborts are retried inside the closure runner, so every worker
    // completes its quota without an application-level retry loop.
    let db = Database::new(SchedulerConfig::default());
    let accounts = db.register("accounts", TableObject::new());
    let n_accounts = 5i64;
    let initial_balance = 100i64;

    let setup = db.begin();
    for a in 0..n_accounts {
        setup
            .exec(
                &accounts,
                TableOp::Insert(Value::Int(a), Value::Int(initial_balance)),
            )
            .unwrap();
    }
    setup.commit().unwrap();

    std::thread::scope(|scope| {
        for worker in 0..4i64 {
            let db = db.clone();
            let accounts = accounts.clone();
            scope.spawn(move || {
                for round in 0..10i64 {
                    let from = (worker + round) % n_accounts;
                    let to = (from + 1) % n_accounts;
                    db.run(|txn| {
                        let balance = |key: i64| -> Result<i64, CoreError> {
                            match txn.exec(&accounts, TableOp::Lookup(Value::Int(key)))? {
                                OpResult::Value(Value::Int(v)) => Ok(v),
                                other => panic!("unexpected lookup result {other:?}"),
                            }
                        };
                        let from_balance = balance(from)?;
                        let to_balance = balance(to)?;
                        txn.exec(
                            &accounts,
                            TableOp::Modify(Value::Int(from), Value::Int(from_balance - 1)),
                        )?;
                        txn.exec(
                            &accounts,
                            TableOp::Modify(Value::Int(to), Value::Int(to_balance + 1)),
                        )?;
                        Ok(())
                    })
                    .expect("run retries scheduler aborts until the transfer commits");
                }
            });
        }
    });

    let total = db
        .run(|txn| {
            let mut total = 0i64;
            for a in 0..n_accounts {
                match txn.exec(&accounts, TableOp::Lookup(Value::Int(a)))? {
                    OpResult::Value(Value::Int(v)) => total += v,
                    other => panic!("unexpected lookup result {other:?}"),
                }
            }
            Ok(total)
        })
        .unwrap();
    assert_eq!(total, n_accounts * initial_balance);
    db.verify_serializable().unwrap();
    db.verify_commit_dependencies().unwrap();
    db.check_invariants().unwrap();
}

#[test]
fn mixed_producers_and_auditors_on_sets_and_stacks() {
    let db = Database::new(SchedulerConfig::default());
    let log = db.register("log", Stack::new());
    let seen = db.register("seen", Set::new());

    std::thread::scope(|scope| {
        // Producers push log entries and insert into the set — all
        // recoverable or commutative, so they never block each other.
        for p in 0..4i64 {
            let db = db.clone();
            let log = log.clone();
            let seen = seen.clone();
            scope.spawn(move || {
                for i in 0..30 {
                    let t = db.begin();
                    let id = p * 1_000 + i;
                    t.exec(&log, StackOp::Push(Value::Int(id))).unwrap();
                    t.exec(&seen, SetOp::Insert(Value::Int(id))).unwrap();
                    t.commit().unwrap();
                }
            });
        }
        // An auditor occasionally reads the top of the log (this blocks
        // while producers are uncommitted, and may be aborted if it closes a
        // cycle — both are acceptable, it simply retries).
        let db_a = db.clone();
        let log_a = log.clone();
        scope.spawn(move || {
            let mut reads = 0;
            let mut attempts = 0;
            while reads < 5 && attempts < 1_000 {
                attempts += 1;
                let t = db_a.begin();
                match t.exec(&log_a, StackOp::Top) {
                    Ok(_) => {
                        let _ = t.commit();
                        reads += 1;
                    }
                    Err(_) => {
                        // Dropping the session aborts it (no-op when the
                        // scheduler already did).
                    }
                }
            }
        });
    });

    // Every produced id is visible exactly once.
    let t = db.begin();
    let mut count = 0;
    loop {
        match t.exec(&log, StackOp::Pop).unwrap() {
            OpResult::Value(Value::Int(id)) => {
                count += 1;
                assert_eq!(
                    t.exec(&seen, SetOp::Member(Value::Int(id))).unwrap(),
                    OpResult::Value(Value::Bool(true))
                );
            }
            OpResult::Null => break,
            other => panic!("unexpected pop result {other:?}"),
        }
    }
    t.commit().unwrap();
    assert_eq!(count, 4 * 30);

    db.verify_serializable().unwrap();
    db.check_invariants().unwrap();
}
