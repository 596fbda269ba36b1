//! WAL fault injection under the virtual clock and seeded crash images.
//!
//! Two fault families, both deterministic:
//!
//! * the **group-commit window** is driven from a
//!   [`sbcc_core::chaos::ClockHook`] instead of the wall clock — with a
//!   one-hour real window, a commit can only be acknowledged if the
//!   virtual clock fired the flush, so the tests prove the durability
//!   wait is gated on the flusher and not on a hidden inline fsync, for
//!   blocking sessions and for async sessions that share one executor
//!   thread (which keeps running other sessions while a commit waits),
//!   including a wire commit whose connection drops while it waits;
//! * **seeded truncation sweep** — crash images derived from a pinned
//!   seed cut one shard's log at arbitrary byte offsets (including
//!   mid-record, the torn tail a crash during a group-commit flush
//!   leaves), and every image must recover to a per-shard prefix,
//!   identically at 1 and 4 shards.

use sbcc_adt::{AdtOp, Counter, CounterOp, OpResult, Stack, StackOp, Value};
use sbcc_core::aio::{yield_now, AsyncDatabase, LocalExecutor};
use sbcc_core::chaos::{clear_clock_hook, install_clock_hook, ClockHook, TimeoutPoint};
use sbcc_core::{
    CommitOutcome, Database, DatabaseConfig, FsyncPolicy, SchedulerConfig, ShardCount, TxnId,
    TxnState, WalConfig,
};
use sbcc_net::{AdtType, NetClient, Request, Server, ServerConfig};
use std::cell::Cell;
use std::net::Shutdown;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Pinned seed for the flush countdown and the truncation offsets
/// (SplitMix64 chain). Bump only with a comment explaining what the old
/// schedule stopped covering.
const PINNED_WAL_SEED: u64 = 0x5bcc_3a1d;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "sbcc-dst-wal-{tag}-{}-{n}",
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

fn config(shards: usize, wal: WalConfig) -> DatabaseConfig {
    DatabaseConfig {
        scheduler: SchedulerConfig::default(),
        shards: ShardCount::Fixed(shards),
        wal: Some(wal),
    }
}

// ---------------------------------------------------------------------
// Virtual clock drives the group-commit flush.
// ---------------------------------------------------------------------

/// Answers only the group-commit point: "window not elapsed" `fire_at`
/// times, then fires on every later poll (the flusher needs repeated
/// fires to drain commits that arrive after the first flush).
struct GroupCommitClock {
    fire_at: u64,
    consulted: AtomicU64,
}

impl ClockHook for GroupCommitClock {
    fn timeout_fires(&self, point: TimeoutPoint) -> Option<bool> {
        if point != TimeoutPoint::GroupCommit {
            return None;
        }
        let n = self.consulted.fetch_add(1, Ordering::Relaxed);
        Some(n >= self.fire_at)
    }
}

/// Answers only the group-commit point: "window not elapsed" until
/// released, then fires on every poll.
#[derive(Default)]
struct HeldFlush {
    released: AtomicBool,
}

impl HeldFlush {
    fn release(&self) {
        self.released.store(true, Ordering::Release);
    }
}

impl ClockHook for HeldFlush {
    fn timeout_fires(&self, point: TimeoutPoint) -> Option<bool> {
        (point == TimeoutPoint::GroupCommit).then(|| self.released.load(Ordering::Acquire))
    }
}

/// The clock hook is process-global, so the tests that install one run
/// one at a time.
static CLOCK_TESTS: Mutex<()> = Mutex::new(());

/// Owns the clock for one test: installs `hook` and clears it on drop,
/// even if an assertion fails. Declare it before the database, so the
/// database (and its flusher) is dropped while the hook still answers —
/// without it the flusher would sleep the one-hour real window.
struct HookGuard {
    _serial: MutexGuard<'static, ()>,
}

impl HookGuard {
    fn install(hook: Arc<dyn ClockHook>) -> HookGuard {
        let serial = CLOCK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        install_clock_hook(hook);
        HookGuard { _serial: serial }
    }
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        clear_clock_hook();
    }
}

/// Group commit with an hour of real window: if a commit is ever
/// acknowledged, the virtual clock flushed it.
fn hour_window(dir: &Path) -> WalConfig {
    WalConfig::new(dir)
        .with_fsync(FsyncPolicy::GroupCommit)
        .with_window(Duration::from_secs(3600))
}

/// Commits a crash image copied from `dir` now recovers, and the
/// recovered value of the counter registered as `name`.
fn recover_counter(dir: &Path, name: &str) -> (u64, OpResult) {
    let image = ScratchDir::new("image");
    copy_dir(dir, image.path());
    let recovered = Database::with_config(config(
        1,
        WalConfig::new(image.path()).with_fsync(FsyncPolicy::Never),
    ));
    let read = recovered.begin();
    let counter = recovered.handle::<Counter>(name).unwrap();
    let value = read.exec(&counter, CounterOp::Read).unwrap();
    (recovered.stats().commits, value)
}

#[test]
fn virtual_clock_drives_the_group_commit_flush() {
    let fire_at = 3 + splitmix64(PINNED_WAL_SEED) % 8;
    let clock = Arc::new(GroupCommitClock {
        fire_at,
        consulted: AtomicU64::new(0),
    });
    let _guard = HookGuard::install(clock.clone());

    let dir = ScratchDir::new("clock");
    let db = Database::with_config(config(1, hour_window(dir.path())));
    let hits = db.register("hits", Counter::new());

    for k in 0..4 {
        let txn = db.begin();
        txn.exec(&hits, CounterOp::Increment(k)).unwrap();
        // This `commit` parks on the durability ticket until the flusher
        // thread — paced purely by the countdown — fsyncs the batch.
        assert_eq!(txn.commit().unwrap(), CommitOutcome::Committed);
    }

    assert!(
        clock.consulted.load(Ordering::Relaxed) > fire_at,
        "the flusher must have consulted the virtual clock past its fire step"
    );

    // Every acknowledged commit is on disk: a crash image taken while the
    // database is still alive recovers all four.
    assert_eq!(
        recover_counter(dir.path(), "hits"),
        (4, OpResult::Value(Value::Int(6)))
    );
}

/// The async twin: sixteen sessions on one executor thread. A commit
/// suspends its session, not the thread, so every session commits in
/// memory while the flush is held; none is acknowledged and none is on
/// disk until the one flush that covers all sixteen.
#[test]
fn async_acknowledgements_wait_for_the_flush_without_stalling_the_executor() {
    let clock = Arc::new(HeldFlush::default());
    let _guard = HookGuard::install(clock.clone());
    let dir = ScratchDir::new("async-clock");
    let db = AsyncDatabase::with_config(config(1, hour_window(dir.path())));
    let hits = db.register("hits", Counter::new());
    let acknowledged = Rc::new(Cell::new(0));
    let executor = LocalExecutor::new();
    for k in 0..16 {
        let (db, hits, acknowledged) = (db.clone(), hits.clone(), acknowledged.clone());
        executor.spawn(async move {
            let txn = db.begin();
            txn.exec(&hits, CounterOp::Increment(k)).await.unwrap();
            assert_eq!(txn.commit().await.unwrap(), CommitOutcome::Committed);
            acknowledged.set(acknowledged.get() + 1);
        });
    }

    executor.run_until_stalled();
    assert_eq!(db.stats().commits, 16, "every session committed in memory");
    assert_eq!(acknowledged.get(), 0, "no ack before the flush");
    assert_eq!(executor.pending_tasks(), 16);
    assert_eq!(recover_counter(dir.path(), "hits"), (0, OpResult::Value(Value::Int(0))));

    clock.release();
    executor.run();
    assert_eq!(acknowledged.get(), 16);
    assert_eq!(
        recover_counter(dir.path(), "hits"),
        (16, OpResult::Value(Value::Int(120)))
    );
}

/// A durable commit delivers the grants it released before it waits for
/// its flush: the session blocked on the committer runs on while the
/// committer's acknowledgement is still held.
#[test]
fn a_durable_commit_wakes_the_sessions_it_unblocked_before_its_flush() {
    let clock = Arc::new(HeldFlush::default());
    let _guard = HookGuard::install(clock.clone());
    let dir = ScratchDir::new("grants");
    let db = AsyncDatabase::with_config(config(1, hour_window(dir.path())));
    let hits = db.register("hits", Counter::new());
    let executor = LocalExecutor::new();

    let t1 = db.begin();
    let t1_id = t1.id();
    let t1_acknowledged = Rc::new(Cell::new(false));
    {
        let (hits, acknowledged) = (hits.clone(), t1_acknowledged.clone());
        executor.spawn(async move {
            t1.exec(&hits, CounterOp::Increment(7)).await.unwrap();
            // Hand the thread to T2 while the increment is uncommitted.
            yield_now().await;
            assert_eq!(t1.commit().await.unwrap(), CommitOutcome::Committed);
            acknowledged.set(true);
        });
    }
    let t2_read = Rc::new(Cell::new(None));
    {
        let (db, read) = (db.clone(), t2_read.clone());
        executor.spawn(async move {
            let t2 = db.begin();
            // A read after an uncommitted increment is not recoverable:
            // T2 blocks until T1 commits.
            read.set(Some(t2.exec(&hits, CounterOp::Read).await.unwrap()));
            t2.commit().await.unwrap();
        });
    }

    executor.run_until_stalled();
    assert_eq!(t2_read.take(), Some(OpResult::Value(Value::Int(7))));
    assert_eq!(db.txn_state(t1_id), Some(TxnState::Committed));
    assert!(!t1_acknowledged.get(), "T1 acknowledged before its flush");
    // The flusher keeps consulting the held clock; nothing else may
    // acknowledge T1.
    std::thread::sleep(Duration::from_millis(20));
    executor.run_until_stalled();
    assert!(!t1_acknowledged.get(), "T1 acknowledged before its flush");

    clock.release();
    executor.run();
    assert!(t1_acknowledged.get());
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A wire `Commit` suspends its server task on the flush after the
/// router has already forgotten the transaction. A disconnect in that
/// window gives up the acknowledgement only: the commit is not aborted,
/// its task is not stranded, and the flush still makes it durable.
#[test]
fn a_wire_commit_waiting_on_the_flush_survives_a_disconnect() {
    let clock = Arc::new(HeldFlush::default());
    let _guard = HookGuard::install(clock.clone());
    let dir = ScratchDir::new("wire-commit");
    let server = Server::start(
        AsyncDatabase::with_config(config(1, hour_window(dir.path()))),
        ServerConfig::default().with_workers(1),
    )
    .expect("bind loopback server");

    let mut client = NetClient::connect(server.local_addr(), "t").expect("connect");
    client.register("hits", AdtType::Counter).unwrap();
    let txn = client.begin().unwrap();
    client
        .exec(txn, "hits", CounterOp::Increment(5).to_call())
        .unwrap();
    client.send(&Request::Commit { txn }).unwrap();
    wait_until("the commit in memory", || {
        server.db().txn_state(TxnId(txn)) == Some(TxnState::Committed)
    });
    assert_eq!(
        recover_counter(dir.path(), "t/hits"),
        (0, OpResult::Value(Value::Int(0)))
    );

    client.stream().shutdown(Shutdown::Both).unwrap();
    drop(client);
    wait_until("connection teardown", || {
        server.net_stats().connections_open == 0
    });
    assert_eq!(
        server.net_stats().transactions_in_flight,
        1,
        "the commit still waits on its flush"
    );

    clock.release();
    wait_until("the commit task to finish", || {
        server.net_stats().transactions_in_flight == 0
    });
    assert_eq!(
        recover_counter(dir.path(), "t/hits"),
        (1, OpResult::Value(Value::Int(5)))
    );
    let stats = server.shutdown();
    assert_eq!(stats.sessions_auto_aborted, 0);
    assert_eq!(stats.transactions_in_flight, 0);
}

// ---------------------------------------------------------------------
// Seeded truncation sweep over crash images.
// ---------------------------------------------------------------------

/// Deterministic workload: single-shard commits only, so *any* byte
/// truncation of one shard's log is a crash image some interleaving of
/// flush and power loss could have produced.
fn build_log(dir: &Path, shards: usize) -> usize {
    let db = Database::with_config(config(
        shards,
        WalConfig::new(dir).with_fsync(FsyncPolicy::Always),
    ));
    let stack = db.register("journal", Stack::new());
    let hits = db.register("hits", Counter::new());
    let txns = 16;
    for k in 0..txns {
        let txn = db.begin();
        if k % 2 == 0 {
            txn.exec(&stack, StackOp::Push(Value::Int(k as i64))).unwrap();
        } else {
            txn.exec(&hits, CounterOp::Increment(k as i64)).unwrap();
        }
        txn.commit().unwrap();
    }
    txns
}

/// Recover an image at `shards` shards and digest every object's
/// committed state plus the commit count.
fn recover_digest(image: &Path, shards: usize) -> (u64, Vec<Option<String>>) {
    let scratch = ScratchDir::new("sweep-recover");
    copy_dir(image, scratch.path());
    let db = Database::with_config(config(
        shards,
        WalConfig::new(scratch.path()).with_fsync(FsyncPolicy::Never),
    ));
    let digests = ["journal", "hits"]
        .iter()
        .map(|name| {
            db.with_sharded_kernel(|k| {
                k.object_id(name)
                    .and_then(|id| k.with_object_committed(id, |o| o.debug_state()))
            })
        })
        .collect();
    (db.stats().commits, digests)
}

#[test]
fn seeded_truncation_sweep_recovers_identically_at_1_and_4_shards() {
    let dir = ScratchDir::new("sweep");
    let total = build_log(dir.path(), 2) as u64;

    let victim = sbcc_core::wal::shard_log_path(dir.path(), 0);
    let full_len = std::fs::metadata(&victim).unwrap().len();
    assert!(full_len > 0, "shard 0 must own part of the workload");

    let mut z = PINNED_WAL_SEED;
    let mut commit_counts = Vec::new();
    for _ in 0..24 {
        z = splitmix64(z);
        let cut = z % (full_len + 1);

        let image = ScratchDir::new("sweep-image");
        copy_dir(dir.path(), image.path());
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(image.path().join("shard-0.log"))
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let (commits_1, digest_1) = recover_digest(image.path(), 1);
        let (commits_4, digest_4) = recover_digest(image.path(), 4);
        assert_eq!(
            commits_1, commits_4,
            "cut at {cut}: shard count must not change what recovers"
        );
        assert_eq!(digest_1, digest_4, "cut at {cut}: recovered state differs");
        assert!(commits_1 <= total, "cut at {cut}: more commits than were run");
        // Recovery must be stable: re-recovering the (repaired) image
        // reproduces the same state byte-for-byte.
        let (commits_again, digest_again) = recover_digest(image.path(), 1);
        assert_eq!((commits_again, digest_again), (commits_1, digest_1));
        commit_counts.push(commits_1);
    }

    // The sweep must actually exercise partial images, not just the
    // trivial endpoints.
    assert!(commit_counts.iter().any(|&c| c > 0 && c < total));
    assert!(commit_counts.iter().any(|&c| c < total));
}
