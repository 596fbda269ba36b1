//! Engine-level torn-tail recovery tests.
//!
//! These drive [`Wal::open`]'s repair path with crafted crash images:
//! copies of a real log directory with the one log file truncated at
//! chosen offsets. A flush writes the buffer in append order, so every
//! cut of the file is a crash image some interleaving of flushes and
//! power loss could produce, and recovery must return exactly the
//! records wholly before the cut.

use proptest::prelude::*;
use sbcc_adt::{OpCall, OpResult};
use sbcc_wal::{
    log_path, FsyncPolicy, LoggedOp, SequencedRecord, Wal, WalConfig, WalError, WalRecord,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "sbcc-wal-torn-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        ScratchDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(src: &Path, dst: &Path) {
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn truncate(path: &Path, len: u64) {
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    file.set_len(len).unwrap();
}

fn push(i: i64) -> OpCall {
    OpCall::unary(0, i)
}

fn op(name: &str, i: i64) -> LoggedOp {
    LoggedOp {
        object: name.to_owned(),
        call: push(i),
        result: OpResult::Ok,
    }
}

fn config(dir: &Path) -> WalConfig {
    WalConfig::new(dir).with_fsync(FsyncPolicy::Always)
}

fn reopen(dir: &Path) -> Vec<SequencedRecord> {
    let (_wal, records) = Wal::open(&config(dir), 1, None).unwrap();
    records
}

/// Build a log of two registrations and `n` commits on two objects, every
/// third of which touches both (a multi-shard transaction is one record
/// of all its ops); return the canonical record list.
fn build_log(dir: &Path, n: i64) -> Vec<SequencedRecord> {
    let (wal, existing) = Wal::open(&config(dir), 1, None).unwrap();
    assert!(existing.is_empty());
    wal.append_register("stack-a", "stack");
    wal.append_register("stack-b", "stack");
    for i in 0..n {
        let ops = match i % 3 {
            0 => vec![op("stack-a", i)],
            1 => vec![op("stack-b", i)],
            _ => vec![op("stack-a", i), op("stack-b", i)],
        };
        wal.append_commit(0, None, &ops);
    }
    drop(wal);
    reopen(dir)
}

#[test]
fn clean_reopen_returns_every_record_in_seq_order() {
    let dir = ScratchDir::new("clean");
    let records = build_log(dir.path(), 10);
    // 2 registrations + 10 commits, seq-sorted.
    assert_eq!(records.len(), 12);
    for pair in records.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
    assert!(matches!(records[0].record, WalRecord::Register { .. }));
    let commits = records
        .iter()
        .filter(|r| matches!(r.record, WalRecord::Commit { .. }))
        .count();
    assert_eq!(commits, 10);
    // Reopening repeatedly is idempotent.
    assert_eq!(reopen(dir.path()), records);
}

/// Open a directory that also holds `name`, a file of the per-shard
/// layout, and expect the refusal to name it.
fn refuses_old_layout_file(name: &str) {
    let dir = ScratchDir::new("old-layout");
    build_log(dir.path(), 3);
    let old = dir.path().join(name);
    std::fs::write(&old, b"").unwrap();
    match Wal::open(&config(dir.path()), 1, None) {
        Err(WalError::OldLayout { path }) => assert_eq!(path, old),
        other => panic!("expected the old layout to be refused, got {other:?}"),
    }
    let message = Wal::open(&config(dir.path()), 1, None).unwrap_err().to_string();
    assert!(message.contains(name), "{message}");
    // Nothing was converted or repaired: the log is as it was.
    std::fs::remove_file(&old).unwrap();
    assert_eq!(reopen(dir.path()).len(), 5);
}

#[test]
fn a_per_shard_log_file_is_refused_by_name() {
    refuses_old_layout_file("shard-0.log");
}

#[test]
fn a_markers_file_is_refused_by_name() {
    refuses_old_layout_file("commit-markers.log");
}

#[test]
fn seq_counter_resumes_past_every_recovered_record() {
    let dir = ScratchDir::new("seqresume");
    let records = build_log(dir.path(), 6);
    let max_seq = records.iter().map(|r| r.seq).max().unwrap();
    let (wal, _) = Wal::open(&config(dir.path()), 1, None).unwrap();
    wal.append_commit(0, None, &[op("stack-a", 99)]);
    drop(wal);
    let after = reopen(dir.path());
    let new_seq = after.iter().map(|r| r.seq).max().unwrap();
    assert!(new_seq > max_seq, "fresh appends must sort after recovery");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating the log at ANY byte offset recovers the records wholly
    /// before the cut: a prefix of the whole log, so of each object's
    /// records too, and a record that spans both objects survives whole
    /// or not at all. The torn file is repaired in place, so a second
    /// open parses it without loss.
    #[test]
    fn random_truncation_recovers_a_per_shard_prefix(cut_permille in 0u64..1000) {
        let dir = ScratchDir::new("prop");
        let full = build_log(dir.path(), 16);
        let full_len = std::fs::metadata(log_path(dir.path())).unwrap().len();
        let cut = full_len * cut_permille / 1000;

        let crashed = ScratchDir::new("prop-crash");
        copy_dir(dir.path(), crashed.path());
        truncate(&log_path(crashed.path()), cut);

        let recovered = reopen(crashed.path());
        prop_assert!(recovered.len() <= full.len());
        prop_assert_eq!(&full[..recovered.len()], &recovered[..]);
        // The recovered prefix ends exactly where the next record would
        // have started: every whole record before the cut survives.
        let kept: u64 = recovered
            .iter()
            .map(|r| sbcc_wal::record::encode_record(r.seq, &r.record).len() as u64)
            .sum();
        prop_assert!(kept <= cut);
        if let Some(next) = full.get(recovered.len()) {
            let next_len = sbcc_wal::record::encode_record(next.seq, &next.record).len() as u64;
            prop_assert!(kept + next_len > cut);
        }
        // Repair is stable: the truncated file now ends on a record
        // boundary and a fresh open sees the identical record set.
        prop_assert_eq!(std::fs::metadata(log_path(crashed.path())).unwrap().len(), kept);
        prop_assert_eq!(reopen(crashed.path()), recovered);
    }
}
