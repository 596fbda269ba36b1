//! Crash-restart differential tests for the write-ahead log.
//!
//! House-style oracle: **crash-restart equivalence**. A crash image is a
//! byte-copy of the log directory taken at a chosen point (with
//! `FsyncPolicy::Always` every acknowledged commit is fully on disk, so a
//! copy *is* the disk state a `kill -9` would leave); recovering the image
//! must reproduce exactly the state an uncrashed database shows after the
//! same prefix of the workload, at `SBCC_SHARDS`-style shard counts 1
//! and 4. Truncating the one log file emulates the crash points a clean
//! copy cannot reach: a flush torn mid-record, inside a multi-shard
//! commit's record too. A flush writes a prefix of the log, so every cut
//! is a reachable crash image.

use sbcc_adt::{
    AbstractObject, AdtObject, AdtOp, AdtSpec, Counter, CounterOp, Stack, StackOp, Value,
};
use sbcc_core::{
    shard_of_name, CommitOutcome, CoreError, Database, DatabaseConfig, FsyncPolicy, Handle,
    SchedulerConfig, ShardCount, WalConfig,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "sbcc-wal-recovery-{tag}-{}-{n}",
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
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn truncate(path: &Path, len: u64) {
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    file.set_len(len).unwrap();
}

fn config(shards: usize, wal: Option<WalConfig>) -> DatabaseConfig {
    DatabaseConfig {
        scheduler: SchedulerConfig::default(),
        shards: ShardCount::Fixed(shards),
        wal,
    }
}

fn wal_always(dir: &Path) -> WalConfig {
    WalConfig::new(dir).with_fsync(FsyncPolicy::Always)
}

// ---------------------------------------------------------------------
// The deterministic workload shared by the differential tests.
// ---------------------------------------------------------------------

const STACKS: usize = 4;
const TXNS: usize = 12;

struct Objects {
    stacks: Vec<Handle<Stack>>,
    hits: Handle<Counter>,
}

fn object_names() -> Vec<String> {
    let mut names: Vec<String> = (0..STACKS).map(|i| format!("stack-{i}")).collect();
    names.push("hits".to_owned());
    names
}

fn register_all(db: &Database) -> Objects {
    Objects {
        stacks: (0..STACKS)
            .map(|i| db.register(format!("stack-{i}"), Stack::new()))
            .collect(),
        hits: db.register("hits", Counter::new()),
    }
}

/// Run transaction `k` of the workload: every third transaction spans two
/// stacks plus the counter (multi-shard at 4 shards), the rest touch one
/// stack. All commits are actual commits (one sequential session).
fn run_txn(db: &Database, objects: &Objects, k: usize) {
    let txn = db.begin();
    let v = Value::Int(k as i64);
    if k % 3 == 2 {
        txn.exec(&objects.stacks[k % STACKS], StackOp::Push(v.clone()))
            .unwrap();
        txn.exec(&objects.stacks[(k + 1) % STACKS], StackOp::Push(v))
            .unwrap();
        txn.exec(&objects.hits, CounterOp::Increment(1)).unwrap();
    } else {
        txn.exec(&objects.stacks[k % STACKS], StackOp::Push(v))
            .unwrap();
        // An observer too, so replay checks a value-carrying result.
        txn.exec(&objects.stacks[k % STACKS], StackOp::Top).unwrap();
    }
    assert_eq!(txn.commit().unwrap(), CommitOutcome::Committed);
}

/// One committed-state digest per workload object (`None` = unregistered).
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

/// What one snapshot transaction observes of the workload objects: the
/// top of every stack plus the counter, read through the multi-version
/// path. Handles are looked up by name so this works on recovered
/// databases (whose registrations replayed from the log).
fn snapshot_probe(db: &Database, txn: &sbcc_core::Transaction) -> Vec<String> {
    let mut seen = Vec::new();
    for i in 0..STACKS {
        let stack = db.handle::<Stack>(&format!("stack-{i}")).unwrap();
        seen.push(format!("{:?}", txn.exec(&stack, StackOp::Top).unwrap()));
    }
    let hits = db.handle::<Counter>("hits").unwrap();
    seen.push(format!("{:?}", txn.exec(&hits, CounterOp::Read).unwrap()));
    seen
}

/// Recover a crash image (copied first — recovery repairs files in place)
/// and return the recovered database.
fn recover(image: &Path, shards: usize) -> (ScratchDir, Database) {
    let scratch = ScratchDir::new("recover");
    copy_dir(image, scratch.path());
    let db = Database::try_with_config(config(shards, Some(wal_always(scratch.path())))).unwrap();
    (scratch, db)
}

// ---------------------------------------------------------------------
// The tentpole oracle: crash-restart equivalence at every commit boundary.
// ---------------------------------------------------------------------

fn crash_restart_equivalence(shards: usize) {
    let dir = ScratchDir::new("diff");
    let db = Database::with_config(config(shards, Some(wal_always(dir.path()))));
    let objects = register_all(&db);

    // Crash images: one after registration, one after each commit.
    let mut images: Vec<ScratchDir> = Vec::new();
    let snap = |images: &mut Vec<ScratchDir>| {
        let image = ScratchDir::new("image");
        copy_dir(dir.path(), image.path());
        images.push(image);
    };
    snap(&mut images);
    for k in 0..TXNS {
        run_txn(&db, &objects, k);
        snap(&mut images);
    }

    for (prefix, image) in images.iter().enumerate() {
        // The uncrashed reference: a fresh, non-durable database running
        // the same workload prefix.
        let reference = Database::with_config(config(shards, None));
        let ref_objects = register_all(&reference);
        for k in 0..prefix {
            run_txn(&reference, &ref_objects, k);
        }

        let (_scratch, recovered) = recover(image.path(), shards);
        assert_eq!(
            digests(&recovered),
            digests(&reference),
            "kill after commit {prefix}/{TXNS} at {shards} shard(s): \
             recovered state must equal the uncrashed prefix run"
        );
        assert_eq!(
            recovered.stats().commits,
            prefix as u64,
            "transaction fates: exactly the {prefix} logged commits replay"
        );

        // Replay rebuilds the version chain too: a snapshot begun at the
        // recovered head must observe exactly what a snapshot at the
        // uncrashed head observes, through the multi-version read path.
        let snap_rec = recovered.begin_snapshot();
        let snap_ref = reference.begin_snapshot();
        assert_eq!(
            snapshot_probe(&recovered, &snap_rec),
            snapshot_probe(&reference, &snap_ref),
            "kill after commit {prefix}/{TXNS} at {shards} shard(s): \
             post-recovery snapshot diverges from the uncrashed snapshot"
        );
        snap_rec.commit().unwrap();
        snap_ref.commit().unwrap();
        assert!(
            recovered.stats().snapshot_reads >= (STACKS + 1) as u64,
            "the probe must be served by the snapshot path"
        );
    }
}

#[test]
fn crash_restart_equivalence_single_shard() {
    crash_restart_equivalence(1);
}

#[test]
fn crash_restart_equivalence_four_shards() {
    crash_restart_equivalence(4);
}

// ---------------------------------------------------------------------
// Version chains after recovery: snapshots pin history, GC reclaims it.
// ---------------------------------------------------------------------

/// A snapshot opened on a recovered database keeps reading the recovered
/// head while later commits stack new versions on top; closing it lets
/// `prune_versions` reclaim every retained version.
#[test]
fn recovered_version_chains_serve_snapshots_and_prune() {
    let dir = ScratchDir::new("versions");
    {
        let db = Database::with_config(config(4, Some(wal_always(dir.path()))));
        let objects = register_all(&db);
        for k in 0..TXNS {
            run_txn(&db, &objects, k);
        }
    }
    let image = ScratchDir::new("versions-image");
    copy_dir(dir.path(), image.path());
    let (_scratch, recovered) = recover(image.path(), 4);

    let reference = Database::with_config(config(4, None));
    let ref_objects = register_all(&reference);
    for k in 0..TXNS {
        run_txn(&reference, &ref_objects, k);
    }

    // Pin the recovered head with a snapshot, then keep committing: the
    // overwritten versions must be retained for the snapshot...
    let pinned = recovered.begin_snapshot();
    let head = snapshot_probe(&recovered, &pinned);
    assert_eq!(
        head,
        {
            let r = reference.begin_snapshot();
            let probe = snapshot_probe(&reference, &r);
            r.commit().unwrap();
            probe
        },
        "recovered snapshot head diverges from the uncrashed reference"
    );
    let objects = Objects {
        stacks: (0..STACKS)
            .map(|i| recovered.handle::<Stack>(&format!("stack-{i}")).unwrap())
            .collect(),
        hits: recovered.handle::<Counter>("hits").unwrap(),
    };
    for k in TXNS..TXNS + 6 {
        run_txn(&recovered, &objects, k);
    }
    assert!(
        recovered.version_depth() > 0,
        "commits over a live snapshot must retain the overwritten versions"
    );
    // ...a mid-life sweep may only prune below the snapshot's stamp...
    recovered.prune_versions();
    assert_eq!(
        snapshot_probe(&recovered, &pinned),
        head,
        "the pinned snapshot must still read the recovered head"
    );
    pinned.commit().unwrap();

    // ...and once the oldest (only) snapshot closes, everything goes.
    assert_eq!(recovered.oldest_snapshot_stamp(), None);
    assert!(
        recovered.prune_versions() > 0,
        "retained versions reclaimed"
    );
    assert_eq!(recovered.version_depth(), 0);
    assert!(recovered.stats().versions_pruned > 0);
}

// ---------------------------------------------------------------------
// Ordering: pseudo-commits must not reach the log before their
// dependency union clears.
// ---------------------------------------------------------------------

#[test]
fn pseudo_committed_transaction_is_not_durable() {
    let dir = ScratchDir::new("pseudo");
    let db = Database::with_config(config(1, Some(wal_always(dir.path()))));
    let stack = db.register("s", Stack::new());

    let a = db.begin();
    a.exec(&stack, StackOp::Push(Value::Int(1))).unwrap();
    let b = db.begin();
    // push/push: non-commuting but recoverable, so B executes with a
    // commit dependency on A and can only pseudo-commit.
    b.exec(&stack, StackOp::Push(Value::Int(2))).unwrap();
    let outcome = b.commit().unwrap();
    assert!(
        matches!(outcome, CommitOutcome::PseudoCommitted { .. }),
        "expected a pseudo-commit, got {outcome:?}"
    );

    // Crash now: B is pseudo-committed, A still live. Neither may be in
    // the log — recovery must show an empty stack.
    let image = ScratchDir::new("pseudo-image");
    copy_dir(dir.path(), image.path());
    let (_s, recovered) = recover(image.path(), 1);
    assert_eq!(
        recovered.stats().commits,
        0,
        "no commit may have been logged"
    );

    // A commits; the cascade actually-commits B, and both become durable
    // in dependency order (A's record precedes B's).
    assert_eq!(a.commit().unwrap(), CommitOutcome::Committed);
    let image2 = ScratchDir::new("pseudo-image2");
    copy_dir(dir.path(), image2.path());
    let (_s2, recovered2) = recover(image2.path(), 1);
    assert_eq!(recovered2.stats().commits, 2);
    let state = digests(&recovered2);
    let top = recovered2.with_sharded_kernel(|k| {
        let id = k.object_id("s").unwrap();
        k.with_object_committed(id, |o| o.debug_state()).unwrap()
    });
    assert!(
        top.contains('1') && top.contains('2'),
        "both pushes recovered: {state:?}"
    );
}

// ---------------------------------------------------------------------
// Group commit: a Committed acknowledgement is a durability promise.
// ---------------------------------------------------------------------

#[test]
fn group_commit_acknowledged_commits_survive_a_crash() {
    let dir = ScratchDir::new("group");
    let wal = WalConfig::new(dir.path()).with_fsync(FsyncPolicy::GroupCommit);
    let db = Database::with_config(config(1, Some(wal)));
    let objects = register_all(&db);
    for k in 0..6 {
        run_txn(&db, &objects, k);
    }
    // The database is still alive (flusher running, buffers possibly
    // non-empty for anything unacknowledged — but every `run_txn` commit
    // was acknowledged, so every record is flushed). A copy taken NOW is
    // the kill -9 image.
    let image = ScratchDir::new("group-image");
    copy_dir(dir.path(), image.path());
    let (_s, recovered) = recover(image.path(), 1);
    assert_eq!(recovered.stats().commits, 6);

    let reference = Database::with_config(config(1, None));
    let ref_objects = register_all(&reference);
    for k in 0..6 {
        run_txn(&reference, &ref_objects, k);
    }
    assert_eq!(digests(&recovered), digests(&reference));
    drop(db);
}

// ---------------------------------------------------------------------
// Multi-shard commits: all-or-nothing under a torn record.
// ---------------------------------------------------------------------

/// Two workload stacks guaranteed to live in different shards at 4 shards.
fn cross_shard_pair() -> (usize, usize) {
    for i in 0..STACKS {
        for j in (i + 1)..STACKS {
            if shard_of_name(&format!("stack-{i}"), 4) != shard_of_name(&format!("stack-{j}"), 4) {
                return (i, j);
            }
        }
    }
    panic!("no cross-shard stack pair at 4 shards");
}

#[test]
fn multi_shard_commit_is_all_or_nothing_at_recovery() {
    let (i, j) = cross_shard_pair();
    let dir = ScratchDir::new("multi");
    let db = Database::with_config(config(4, Some(wal_always(dir.path()))));
    let objects = register_all(&db);

    // A durable single-shard commit first, as the survivor control.
    let txn = db.begin();
    txn.exec(&objects.stacks[i], StackOp::Push(Value::Int(100)))
        .unwrap();
    txn.commit().unwrap();

    let log_file = sbcc_wal::log_path(dir.path());
    let len_before = std::fs::metadata(&log_file).unwrap().len();

    // The multi-shard transaction.
    let txn = db.begin();
    txn.exec(&objects.stacks[i], StackOp::Push(Value::Int(7)))
        .unwrap();
    txn.exec(&objects.stacks[j], StackOp::Push(Value::Int(7)))
        .unwrap();
    assert_eq!(txn.commit().unwrap(), CommitOutcome::Committed);

    // Sanity: a clean image recovers the whole transaction.
    let clean = ScratchDir::new("multi-clean");
    copy_dir(dir.path(), clean.path());
    let (_s0, full) = recover(clean.path(), 4);
    assert_eq!(full.stats().commits, 2);

    let len_after = std::fs::metadata(&log_file).unwrap().len();
    assert!(
        len_after > len_before,
        "the multi-shard commit wrote a record"
    );

    // A crash that tore the multi-shard record, at every byte offset
    // inside it: recovery loses the transaction in BOTH shards and keeps
    // the earlier single-shard commit.
    for cut in len_before..len_after {
        let image = ScratchDir::new("multi-cut");
        copy_dir(dir.path(), image.path());
        truncate(&sbcc_wal::log_path(image.path()), cut);
        let (_s, recovered) = recover(image.path(), 4);
        assert_eq!(
            recovered.stats().commits,
            1,
            "cut at {cut}: a torn multi-shard record must not replay"
        );
        let di = digests(&recovered);
        assert!(
            di[i].as_ref().unwrap().contains("100"),
            "control commit survives"
        );
        assert!(
            !di[i].as_ref().unwrap().contains('7'),
            "cut at {cut}: half a txn: {di:?}"
        );
        assert!(
            !di[j].as_ref().unwrap().contains('7'),
            "cut at {cut}: half a txn: {di:?}"
        );
    }
}

/// A log dominated by multi-shard commits, interleaved with single-shard
/// ones, recovers in one pass over the file to exactly the uncrashed
/// state.
#[test]
fn hundreds_of_multi_shard_commits_recover_to_the_uncrashed_state() {
    const MULTIS: usize = 300;
    let (i, j) = cross_shard_pair();
    let workload = |db: &Database| {
        let objects = register_all(db);
        for k in 0..MULTIS {
            let txn = db.begin();
            let v = Value::Int(k as i64);
            txn.exec(&objects.stacks[i], StackOp::Push(v.clone()))
                .unwrap();
            txn.exec(&objects.stacks[j], StackOp::Push(v)).unwrap();
            assert_eq!(txn.commit().unwrap(), CommitOutcome::Committed);
            if k % 4 == 0 {
                run_txn(db, &objects, k);
            }
        }
    };
    let dir = ScratchDir::new("many-multi");
    let never = WalConfig::new(dir.path()).with_fsync(FsyncPolicy::Never);
    workload(&Database::with_config(config(4, Some(never))));
    let reference = Database::with_config(config(4, None));
    workload(&reference);

    let (_scratch, recovered) = recover(dir.path(), 4);
    assert_eq!(digests(&recovered), digests(&reference));
    assert_eq!(recovered.stats().commits, reference.stats().commits);
    assert_eq!(
        recovered.stats().commits,
        (MULTIS + MULTIS.div_ceil(4)) as u64
    );
}

// ---------------------------------------------------------------------
// Continuity: recover, append, recover again.
// ---------------------------------------------------------------------

#[test]
fn recovery_chains_across_generations() {
    let dir = ScratchDir::new("chain");
    {
        let db = Database::with_config(config(4, Some(wal_always(dir.path()))));
        let objects = register_all(&db);
        for k in 0..5 {
            run_txn(&db, &objects, k);
        }
    }
    {
        // Second generation: recovers 5 commits, adds 4 more. Handles are
        // re-created by name (registration is in the log, not re-run).
        let db = Database::with_config(config(4, Some(wal_always(dir.path()))));
        assert_eq!(db.stats().commits, 5);
        // Re-registering must fail: replay already registered the objects.
        match db.try_register("stack-0", Stack::new()) {
            Err(CoreError::DuplicateObject(_)) => {}
            other => panic!("expected DuplicateObject, got {other:?}"),
        }
        // A typed lookup with the wrong type is refused.
        assert!(db.handle::<Counter>("stack-0").is_none());
        let objects = Objects {
            stacks: (0..STACKS)
                .map(|i| db.handle::<Stack>(&format!("stack-{i}")).unwrap())
                .collect(),
            hits: db.handle::<Counter>("hits").unwrap(),
        };
        for k in 5..9 {
            run_txn(&db, &objects, k);
        }
    }
    // Third generation equals an uncrashed run of the first 9 transactions,
    // even at a DIFFERENT shard count (one log serves every shard count).
    let db = Database::with_config(config(1, Some(wal_always(dir.path()))));
    let reference = Database::with_config(config(1, None));
    let ref_objects = register_all(&reference);
    for k in 0..9 {
        run_txn(&reference, &ref_objects, k);
    }
    assert_eq!(digests(&db), digests(&reference));
}

// ---------------------------------------------------------------------
// Registration validation on durable databases.
// ---------------------------------------------------------------------

#[test]
fn durable_databases_refuse_unreconstructible_registrations() {
    let dir = ScratchDir::new("validate");
    let db = Database::with_config(config(1, Some(wal_always(dir.path()))));

    // An abstract object's conflict table is not captured by the log.
    match db.register_object("abstract", Box::new(AbstractObject::read_write())) {
        Err(CoreError::Durability(msg)) => assert!(msg.contains("abstract")),
        other => panic!("expected Durability error, got {other:?}"),
    }

    // A pre-populated object cannot be rebuilt from an operation log.
    let mut populated = Stack::new();
    populated.apply(&StackOp::Push(Value::Int(9)));
    match db.register_object("full", Box::new(AdtObject::new(populated))) {
        Err(CoreError::Durability(msg)) => assert!(msg.contains("non-empty")),
        other => panic!("expected Durability error, got {other:?}"),
    }

    // Both register fine without a WAL.
    let plain = Database::with_config(config(1, None));
    plain
        .register_object("abstract", Box::new(AbstractObject::read_write()))
        .unwrap();
    let mut populated = Stack::new();
    populated.apply(&StackOp::Push(Value::Int(9)));
    plain
        .register_object("full", Box::new(AdtObject::new(populated)))
        .unwrap();
}

// ---------------------------------------------------------------------
// Replay refuses a log it cannot reproduce.
// ---------------------------------------------------------------------

/// Write a log holding a `hits` counter registration and one commit of
/// `ops`, through the log crate itself, so the records can say what no
/// database would have written.
fn write_log(dir: &Path, ops: Vec<sbcc_wal::LoggedOp>) {
    let (wal, records) = sbcc_wal::Wal::open(&wal_always(dir), 1, None).unwrap();
    assert!(records.is_empty());
    wal.append_register("hits", Counter::TYPE_NAME);
    wal.append_commit(0, None, &ops);
}

/// Opening `dir` must fail with a durability error whose message names
/// `object` and contains `reason`.
fn assert_refused(dir: &Path, object: &str, reason: &str) {
    for shards in [1, 4] {
        match Database::try_with_config(config(shards, Some(wal_always(dir)))) {
            Err(CoreError::Durability(msg)) => {
                assert!(msg.contains(&format!("{object:?}")), "{msg}");
                assert!(msg.contains(reason), "{msg}");
            }
            Err(other) => panic!("expected a Durability error, got {other:?}"),
            Ok(_) => panic!("a log naming {object:?} replayed at {shards} shard(s)"),
        }
    }
}

#[test]
fn replay_refuses_a_commit_whose_logged_result_differs() {
    let dir = ScratchDir::new("diverged");
    write_log(
        dir.path(),
        vec![
            sbcc_wal::LoggedOp {
                object: "hits".to_owned(),
                call: CounterOp::Increment(2).to_call(),
                result: sbcc_adt::OpResult::Ok,
            },
            // The counter reads 2 here; the record claims 3.
            sbcc_wal::LoggedOp {
                object: "hits".to_owned(),
                call: CounterOp::Read.to_call(),
                result: sbcc_adt::OpResult::Value(Value::Int(3)),
            },
        ],
    );
    assert_refused(dir.path(), "hits", "replay diverged");
}

#[test]
fn replay_refuses_a_commit_naming_an_unregistered_object() {
    let dir = ScratchDir::new("unregistered");
    write_log(
        dir.path(),
        vec![
            sbcc_wal::LoggedOp {
                object: "hits".to_owned(),
                call: CounterOp::Increment(1).to_call(),
                result: sbcc_adt::OpResult::Ok,
            },
            sbcc_wal::LoggedOp {
                object: "ghost".to_owned(),
                call: StackOp::Top.to_call(),
                result: sbcc_adt::OpResult::Null,
            },
        ],
    );
    assert_refused(dir.path(), "ghost", "unregistered object");
}

// ---------------------------------------------------------------------
// The per-shard layout of earlier versions is refused, not converted.
// ---------------------------------------------------------------------

#[test]
fn a_directory_in_the_per_shard_layout_is_refused_naming_its_file() {
    for name in ["shard-0.log", "commit-markers.log"] {
        let dir = ScratchDir::new("old-layout");
        std::fs::write(dir.path().join(name), b"").unwrap();
        match Database::try_with_config(config(4, Some(wal_always(dir.path())))) {
            Err(CoreError::Durability(msg)) => assert!(msg.contains(name), "{msg}"),
            Err(other) => panic!("expected a Durability error, got {other:?}"),
            Ok(_) => panic!("a directory holding {name} opened"),
        }
        assert!(
            !sbcc_wal::log_path(dir.path()).exists(),
            "a refused directory gains no log file"
        );
    }
}
