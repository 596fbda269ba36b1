//! A keyed account store with a long-running audit.
//!
//! The scenario that motivates the paper's `Table` example (Section 3.2.4):
//! an **audit** transaction reads the number of accounts (`size`) and then
//! inspects balances, while tellers keep opening accounts and adjusting
//! balances.
//!
//! * Under commutativity, `insert`/`delete` conflict with the audit's
//!   `size`, so tellers stall behind a long audit.
//! * Under recoverability, `insert` and `delete` are recoverable relative to
//!   `size`: tellers proceed immediately and merely commit after the audit.
//!
//! Run with: `cargo run --example banking_audit`

use sbcc::prelude::*;
use std::time::Duration;

fn run(policy: ConflictPolicy) -> (u64, u64) {
    let db = Database::new(
        SchedulerConfig::default()
            .with_policy(policy)
            .with_history(true),
    );
    let accounts = db.register("accounts", TableObject::new());

    // Seed a few accounts with one setup transaction.
    let setup = db.begin();
    for i in 0..4 {
        setup
            .exec(
                &accounts,
                TableOp::Insert(Value::Int(i), Value::Int(1_000 + i)),
            )
            .unwrap();
    }
    setup.commit().unwrap();

    // The long-running audit: count the accounts, then look at some balances.
    let audit = db.begin();
    let size = audit.exec(&accounts, TableOp::Size).unwrap();
    let balance = audit
        .exec(&accounts, TableOp::Lookup(Value::Int(1)))
        .unwrap();

    // Tellers run on their own threads while the audit is still open.
    let mut tellers = Vec::new();
    for teller in 0..3i64 {
        let db = db.clone();
        let accounts = accounts.clone();
        tellers.push(std::thread::spawn(move || {
            let t = db.begin();
            // Open a new account (recoverable relative to the audit's size).
            t.exec(
                &accounts,
                TableOp::Insert(Value::Int(100 + teller), Value::Int(500)),
            )
            .unwrap();
            // Adjust an untouched balance (commutes with the audit's lookup
            // of account 1 because the keys differ).
            t.exec(
                &accounts,
                TableOp::Modify(Value::Int(2), Value::Int(2_000 + teller)),
            )
            .unwrap();
            let outcome = t.commit().unwrap();
            outcome.is_pseudo_commit()
        }));
    }

    // Give the tellers a moment; under recoverability they are already done
    // (pseudo-committed) before the audit finishes.
    std::thread::sleep(Duration::from_millis(50));
    let pseudo_before_audit_end = db.stats().pseudo_commits;

    // The audit finishes.
    let _ = audit
        .exec(&accounts, TableOp::Lookup(Value::Int(3)))
        .unwrap();
    audit.commit().unwrap();

    for teller in tellers {
        teller.join().expect("teller thread");
    }

    db.verify_serializable().expect("serializable execution");
    db.verify_commit_dependencies()
        .expect("commit order respects dependencies");

    println!(
        "  audit saw {size} accounts, account 1 balance {balance}; \
         tellers pseudo-committed before the audit ended: {pseudo_before_audit_end}"
    );
    let stats = db.stats();
    (stats.blocks, stats.pseudo_commits)
}

fn main() {
    println!("running the banking audit under both conflict policies\n");

    println!("commutativity-only baseline:");
    let (blocks_comm, pseudo_comm) = run(ConflictPolicy::CommutativityOnly);
    println!("  -> teller blocks: {blocks_comm}, pseudo-commits: {pseudo_comm}\n");

    println!("recoverability (this paper):");
    let (blocks_rec, pseudo_rec) = run(ConflictPolicy::Recoverability);
    println!("  -> teller blocks: {blocks_rec}, pseudo-commits: {pseudo_rec}\n");

    println!(
        "recoverability removed {} blocking events: tellers never wait behind the audit.",
        blocks_comm.saturating_sub(blocks_rec)
    );
    assert!(blocks_rec < blocks_comm);
}
