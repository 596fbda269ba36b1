//! The crash-recovery smoke workload behind `repro --crash-workload` /
//! `repro --crash-recover`.
//!
//! The workload process runs a fixed, deterministic transaction sequence
//! against a write-ahead-logged database, prints `workload-done`, and
//! lingers so a driver can `kill -9` it — either mid-run or after the
//! done line. The recover process reopens the same directory and checks
//! the recovered state against the workload's own definition: whatever
//! number of commits survived, the object states must equal an
//! uncrashed run of exactly that prefix (computed in-process on a
//! non-durable database). It prints `recovered prefix=N/40` so a driver
//! can additionally assert *which* prefix survived (40/40 after a
//! post-done kill).
//!
//! Every acknowledged commit is durable (under group commit, a session's
//! `commit` returns only after the flush covering its record), and the
//! sequence is committed from one session, so the survivors are always a
//! prefix — any other shape is a recovery bug and exits nonzero.

use sbcc_adt::{Counter, CounterOp, Stack, StackOp, Value};
use sbcc_core::{Database, DatabaseConfig, FsyncPolicy, SchedulerConfig, WalConfig};
use std::path::Path;

/// Total transactions in the fixed sequence.
pub const CRASH_WORKLOAD_TXNS: u64 = 40;

struct Objects {
    journal: sbcc_core::Handle<Stack>,
    left: sbcc_core::Handle<Counter>,
    right: sbcc_core::Handle<Counter>,
}

fn register_all(db: &Database) -> Objects {
    Objects {
        journal: db.register("journal", Stack::new()),
        left: db.register("left", Counter::new()),
        right: db.register("right", Counter::new()),
    }
}

/// Transaction `k` of the sequence: every fourth commit touches all
/// three objects (multi-shard whenever their names hash to different
/// shards), the rest push onto the journal alone.
fn run_txn(db: &Database, objects: &Objects, k: u64) {
    let txn = db.begin();
    txn.exec(&objects.journal, StackOp::Push(Value::Int(k as i64)))
        .expect("push");
    if k % 4 == 3 {
        txn.exec(&objects.left, CounterOp::Increment(k as i64))
            .expect("left");
        txn.exec(&objects.right, CounterOp::Increment(1)).expect("right");
    }
    txn.commit().expect("commit");
}

fn durable_config(dir: &Path) -> DatabaseConfig {
    DatabaseConfig::new(SchedulerConfig::default())
        .with_wal(WalConfig::new(dir).with_fsync(FsyncPolicy::GroupCommit))
}

/// Run the fixed sequence against `dir`, printing one progress line per
/// commit and `workload-done` at the end (flushed, so a driver can wait
/// for it before killing the process).
pub fn run_workload(dir: &Path) {
    use std::io::Write;
    let db = Database::with_config(durable_config(dir));
    assert_eq!(
        db.stats().commits,
        0,
        "--crash-workload needs an empty log directory"
    );
    let objects = register_all(&db);
    for k in 0..CRASH_WORKLOAD_TXNS {
        run_txn(&db, &objects, k);
        println!("committed {}/{CRASH_WORKLOAD_TXNS}", k + 1);
        let _ = std::io::stdout().flush();
    }
    println!("workload-done");
    let _ = std::io::stdout().flush();
}

/// Snapshot every workload object's committed debug state.
fn digests(db: &Database) -> Vec<Option<String>> {
    ["journal", "left", "right"]
        .iter()
        .map(|name| {
            db.with_sharded_kernel(|k| {
                k.object_id(name)
                    .and_then(|id| k.with_object_committed(id, |o| o.debug_state()))
            })
        })
        .collect()
}

/// Reopen `dir`, recover, and self-check: the survivors must be exactly
/// the first `N` transactions for the recovered commit count `N`.
/// Returns the recovered prefix length, or an error describing the
/// divergence.
pub fn run_recover(dir: &Path) -> Result<u64, String> {
    let recovered = Database::with_config(durable_config(dir));
    let prefix = recovered.stats().commits;
    if prefix > CRASH_WORKLOAD_TXNS {
        return Err(format!(
            "recovered {prefix} commits, but the workload only runs {CRASH_WORKLOAD_TXNS}"
        ));
    }
    if prefix > 0 {
        // An uncrashed reference run of exactly the surviving prefix.
        let reference = Database::with_config(DatabaseConfig::new(SchedulerConfig::default()));
        let objects = register_all(&reference);
        for k in 0..prefix {
            run_txn(&reference, &objects, k);
        }
        let got = digests(&recovered);
        let want = digests(&reference);
        if got != want {
            return Err(format!(
                "recovered state is not the {prefix}-commit prefix:\n  recovered: {got:?}\n  expected:  {want:?}"
            ));
        }
    }
    Ok(prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "sbcc-crash-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        path
    }

    #[test]
    fn full_run_recovers_the_whole_sequence() {
        let dir = scratch("full");
        run_workload(&dir);
        assert_eq!(run_recover(&dir), Ok(CRASH_WORKLOAD_TXNS));
        // Recovery is idempotent: a second reopen sees the same prefix.
        assert_eq!(run_recover(&dir), Ok(CRASH_WORKLOAD_TXNS));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_log_recovers_a_strict_prefix() {
        // Every cut of the one log file is a crash image a flush can
        // leave, at any shard count.
        let dir = scratch("cut");
        run_workload(&dir);
        // Chop the tail off the log: a crash image mid-flush.
        let path = sbcc_core::wal::log_path(&dir);
        let len = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len / 2).unwrap();
        drop(file);
        let prefix = run_recover(&dir).expect("a truncated image is still a valid prefix");
        assert!(prefix < CRASH_WORKLOAD_TXNS);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
