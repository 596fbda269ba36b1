//! WAL fault injection under the virtual clock and seeded crash images.
//!
//! Two fault families, both deterministic:
//!
//! * the **group-commit flush point** is driven from a
//!   [`sbcc_core::chaos::ClockHook`]. While a hook is installed, only the
//!   hook releases a flush: a kicked flusher holds until the hook answers
//!   `Some(true)`. So a commit can only be acknowledged if the virtual
//!   clock released the flush, and the tests prove the durability wait is
//!   gated on the flusher and not on a hidden inline fsync, for blocking
//!   sessions and for async sessions that share one executor thread
//!   (which keeps running other sessions while a commit waits), including
//!   a wire commit whose connection drops while it waits and an async
//!   commit cancelled while it waits;
//! * **seeded truncation sweep** — crash images derived from a pinned
//!   seed cut the log file at arbitrary byte offsets (including
//!   mid-record, the torn tail a crash during a group-commit flush
//!   leaves, and inside multi-shard records), and every image must
//!   recover, at 1 and 4 shards, to exactly an uncrashed run of the
//!   recovered prefix.
//!
//! One hook-free oracle rides along: blocking committers on four shards
//! under the on-demand flusher, whose every acknowledged commit a live
//! crash image must recover.

use sbcc_adt::{AdtOp, Counter, CounterOp, OpResult, Stack, StackOp, Value};
use sbcc_core::aio::{block_on, yield_now, AsyncDatabase, LocalExecutor};
use sbcc_core::chaos::{clear_clock_hook, install_clock_hook, ClockHook, TimeoutPoint};
use sbcc_core::{
    shard_of_name, CommitOutcome, Database, DatabaseConfig, FsyncPolicy, SchedulerConfig,
    ShardCount, TxnId, TxnState, WalConfig,
};
use sbcc_net::{AdtType, NetClient, Request, Server, ServerConfig};
use std::cell::Cell;
use std::future::Future;
use std::net::Shutdown;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Waker};
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
        let path =
            std::env::temp_dir().join(format!("sbcc-dst-wal-{tag}-{}-{n}", std::process::id()));
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

/// Answers only the group-commit point: "hold" `fire_at` times, then
/// releases on every later poll (the flusher asks again for each flush
/// that commits arriving after the first one need).
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

/// Answers only the group-commit point: "hold" until released, then
/// releases on every poll.
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

/// Answers only the group-commit point: "hold", except for one flush per
/// [`FlushPermits::release`].
#[derive(Default)]
struct FlushPermits {
    permits: AtomicU64,
}

impl FlushPermits {
    fn release(&self) {
        self.permits.fetch_add(1, Ordering::AcqRel);
    }
}

impl ClockHook for FlushPermits {
    fn timeout_fires(&self, point: TimeoutPoint) -> Option<bool> {
        (point == TimeoutPoint::GroupCommit).then(|| {
            self.permits
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .is_ok()
        })
    }
}

/// The clock hook is process-global, so the tests that install one, and
/// the one that must run with none, run one at a time.
static CLOCK_TESTS: Mutex<()> = Mutex::new(());

/// Owns the clock for one test: installs `hook` and clears it on drop,
/// even if an assertion fails. While it is installed, only the hook
/// releases a group-commit flush. Declare it before the database, so the
/// database is dropped while the hook still answers.
struct HookGuard {
    _serial: MutexGuard<'static, ()>,
}

impl HookGuard {
    fn install(hook: Arc<dyn ClockHook>) -> HookGuard {
        let serial = CLOCK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        install_clock_hook(hook);
        HookGuard { _serial: serial }
    }

    /// Holds the clock with no hook installed: flushes follow kicks alone.
    fn none() -> HookGuard {
        HookGuard {
            _serial: CLOCK_TESTS.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        clear_clock_hook();
    }
}

/// Group commit: with a hook installed, if a commit is ever
/// acknowledged, the virtual clock released its flush.
fn group_commit(dir: &Path) -> WalConfig {
    WalConfig::new(dir).with_fsync(FsyncPolicy::GroupCommit)
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
    let db = Database::with_config(config(1, group_commit(dir.path())));
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
    let db = AsyncDatabase::with_config(config(1, group_commit(dir.path())));
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
    assert_eq!(
        recover_counter(dir.path(), "hits"),
        (0, OpResult::Value(Value::Int(0)))
    );

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
    let db = AsyncDatabase::with_config(config(1, group_commit(dir.path())));
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

/// Two held flushes, each released once: a release acknowledges exactly
/// the commits appended before it, and the commits that land after it
/// wait for the next one.
#[test]
fn each_release_acknowledges_exactly_the_commits_appended_before_it() {
    let clock = Arc::new(FlushPermits::default());
    let _guard = HookGuard::install(clock.clone());
    let dir = ScratchDir::new("permits");
    let db = AsyncDatabase::with_config(config(1, group_commit(dir.path())));
    let hits = db.register("hits", Counter::new());
    let acknowledged = Rc::new(Cell::new(0));
    let executor = LocalExecutor::new();
    let spawn_commits = |increments: std::ops::RangeInclusive<i64>| {
        for k in increments {
            let (db, hits, acknowledged) = (db.clone(), hits.clone(), acknowledged.clone());
            executor.spawn(async move {
                let txn = db.begin();
                txn.exec(&hits, CounterOp::Increment(k)).await.unwrap();
                assert_eq!(txn.commit().await.unwrap(), CommitOutcome::Committed);
                acknowledged.set(acknowledged.get() + 1);
            });
        }
    };

    spawn_commits(1..=8);
    executor.run_until_stalled();
    assert_eq!(db.stats().commits, 8, "the first batch committed in memory");
    assert_eq!(acknowledged.get(), 0, "no ack before the first release");
    assert_eq!(
        recover_counter(dir.path(), "hits"),
        (0, OpResult::Value(Value::Int(0)))
    );

    clock.release();
    executor.run();
    assert_eq!(acknowledged.get(), 8);
    assert_eq!(
        recover_counter(dir.path(), "hits"),
        (8, OpResult::Value(Value::Int(36)))
    );

    spawn_commits(9..=16);
    executor.run_until_stalled();
    assert_eq!(
        db.stats().commits,
        16,
        "the second batch committed in memory"
    );
    // The first release is spent: the flusher keeps holding.
    std::thread::sleep(Duration::from_millis(20));
    executor.run_until_stalled();
    assert_eq!(acknowledged.get(), 8, "the second batch acknowledged early");
    assert_eq!(
        recover_counter(dir.path(), "hits"),
        (8, OpResult::Value(Value::Int(36)))
    );

    clock.release();
    executor.run();
    assert_eq!(acknowledged.get(), 16);
    assert_eq!(
        recover_counter(dir.path(), "hits"),
        (16, OpResult::Value(Value::Int(136)))
    );
}

/// Dropping an async commit while it waits for its flush gives up the
/// acknowledgement, not the commit: the transaction stays committed, and
/// the log replays it on reopen. The held flush makes every commit's
/// first poll pending.
#[test]
fn cancelled_async_commit_stays_committed_and_replays() {
    let _guard = HookGuard::install(Arc::new(HeldFlush::default()));
    let dir = ScratchDir::new("cancel");
    let db = AsyncDatabase::with_config(config(1, group_commit(dir.path())));
    let hits = db.register("hits", Counter::new());
    let committed = 3;
    for k in 1..=committed {
        let txn = db.begin();
        let id = txn.id();
        block_on(txn.exec(&hits, CounterOp::Increment(k))).unwrap();
        let mut commit = Box::pin(txn.commit());
        let first = commit
            .as_mut()
            .poll(&mut Context::from_waker(Waker::noop()));
        drop(commit);
        assert_eq!(db.txn_state(id), Some(TxnState::Committed), "not aborted");
        assert!(
            first.is_pending(),
            "the commit was not waiting for its flush"
        );
    }
    assert_eq!(db.stats().commits, committed as u64);
    drop(db);

    let sum = committed * (committed + 1) / 2;
    assert_eq!(
        recover_counter(dir.path(), "hits"),
        (committed as u64, OpResult::Value(Value::Int(sum)))
    );
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
        AsyncDatabase::with_config(config(1, group_commit(dir.path()))),
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
// No hook: the on-demand flusher under concurrent blocking committers.
// ---------------------------------------------------------------------

/// Four threads, one counter each on its own shard of four, 250 blocking
/// commits apiece, flushed by kicks alone. Crash images copied while the
/// threads run must hold every commit acknowledged before the copy; the
/// image copied after they finish, with the database still live, holds
/// all of them.
#[test]
fn acknowledged_commits_on_four_shards_survive_a_live_crash_image() {
    const THREADS: usize = 4;
    const COMMITS: u64 = 250;
    let _guard = HookGuard::none();
    let dir = ScratchDir::new("oracle");
    let db = Database::with_config(config(THREADS, group_commit(dir.path())));
    let names: Vec<String> = (0..THREADS)
        .map(|shard| {
            (0..)
                .map(|i| format!("hits-{shard}-{i}"))
                .find(|name| shard_of_name(name, THREADS) as usize == shard)
                .unwrap()
        })
        .collect();
    let counters: Vec<_> = names
        .iter()
        .map(|name| db.register(name, Counter::new()))
        .collect();
    let acknowledged: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();

    // Every counter's value in an image of `dir` copied now, at 4 shards.
    let image_values = || -> Vec<u64> {
        let image = ScratchDir::new("oracle-image");
        copy_dir(dir.path(), image.path());
        let recovered = Database::with_config(config(
            THREADS,
            WalConfig::new(image.path()).with_fsync(FsyncPolicy::Never),
        ));
        let read = recovered.begin();
        names
            .iter()
            .map(|name| {
                let counter = recovered.handle::<Counter>(name).unwrap();
                match read.exec(&counter, CounterOp::Read).unwrap() {
                    OpResult::Value(Value::Int(n)) => n as u64,
                    other => panic!("{name} read {other:?}"),
                }
            })
            .collect()
    };

    std::thread::scope(|scope| {
        let workers: Vec<_> = counters
            .iter()
            .zip(&acknowledged)
            .map(|(counter, acked)| {
                let db = &db;
                scope.spawn(move || {
                    for _ in 0..COMMITS {
                        let txn = db.begin();
                        txn.exec(counter, CounterOp::Increment(1)).unwrap();
                        assert_eq!(txn.commit().unwrap(), CommitOutcome::Committed);
                        acked.fetch_add(1, Ordering::Release);
                    }
                })
            })
            .collect();
        while !workers.iter().all(|w| w.is_finished()) {
            let before: Vec<u64> = acknowledged
                .iter()
                .map(|a| a.load(Ordering::Acquire))
                .collect();
            let values = image_values();
            for (k, (&value, &acked)) in values.iter().zip(&before).enumerate() {
                assert!(
                    (acked..=COMMITS).contains(&value),
                    "{}: image holds {value} commits, {acked} were acknowledged",
                    names[k]
                );
            }
        }
    });

    assert_eq!(image_values(), vec![COMMITS; THREADS]);
    assert_eq!(db.stats().commits, THREADS as u64 * COMMITS);
}

// ---------------------------------------------------------------------
// Seeded truncation sweep over crash images.
// ---------------------------------------------------------------------

const SWEEP_TXNS: u64 = 18;

/// Register the sweep's two objects and run its first `txns`
/// transactions: every third touches both objects (a multi-shard commit
/// at 4 shards), the rest one of them.
fn sweep_workload(db: &Database, txns: u64) {
    let stack = db.register("journal", Stack::new());
    let hits = db.register("hits", Counter::new());
    for k in 0..txns {
        let txn = db.begin();
        if k % 3 != 1 {
            txn.exec(&stack, StackOp::Push(Value::Int(k as i64)))
                .unwrap();
        }
        if k % 3 != 0 {
            txn.exec(&hits, CounterOp::Increment(k as i64)).unwrap();
        }
        assert_eq!(txn.commit().unwrap(), CommitOutcome::Committed);
    }
}

/// Every workload object's committed state.
fn digest(db: &Database) -> Vec<Option<String>> {
    ["journal", "hits"]
        .iter()
        .map(|name| {
            db.with_sharded_kernel(|k| {
                k.object_id(name)
                    .and_then(|id| k.with_object_committed(id, |o| o.debug_state()))
            })
        })
        .collect()
}

/// Recover an image at `shards` shards: the commit count and digest.
fn recover_digest(image: &Path, shards: usize) -> (u64, Vec<Option<String>>) {
    let scratch = ScratchDir::new("sweep-recover");
    copy_dir(image, scratch.path());
    let db = Database::with_config(config(
        shards,
        WalConfig::new(scratch.path()).with_fsync(FsyncPolicy::Never),
    ));
    (db.stats().commits, digest(&db))
}

/// The digest of an uncrashed, non-durable run of the first `txns`
/// transactions at `shards` shards.
fn reference_digest(txns: u64, shards: usize) -> Vec<Option<String>> {
    let db = Database::with_config(DatabaseConfig {
        scheduler: SchedulerConfig::default(),
        shards: ShardCount::Fixed(shards),
        wal: None,
    });
    sweep_workload(&db, txns);
    digest(&db)
}

#[test]
fn seeded_truncation_sweep_recovers_identically_at_1_and_4_shards() {
    assert_ne!(
        shard_of_name("journal", 4),
        shard_of_name("hits", 4),
        "the sweep needs multi-shard commits at 4 shards"
    );
    let dir = ScratchDir::new("sweep");
    let db = Database::with_config(config(
        4,
        WalConfig::new(dir.path()).with_fsync(FsyncPolicy::Always),
    ));
    sweep_workload(&db, SWEEP_TXNS);
    drop(db);

    let log = sbcc_core::wal::log_path(dir.path());
    let full_len = std::fs::metadata(&log).unwrap().len();
    let mut z = PINNED_WAL_SEED;
    let mut commit_counts = Vec::new();
    for _ in 0..24 {
        z = splitmix64(z);
        let cut = z % (full_len + 1);

        let image = ScratchDir::new("sweep-image");
        copy_dir(dir.path(), image.path());
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(sbcc_core::wal::log_path(image.path()))
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let (commits, _) = recover_digest(image.path(), 1);
        assert!(
            commits <= SWEEP_TXNS,
            "cut at {cut}: more commits than were run"
        );
        for shards in [1, 4] {
            let (got_commits, got) = recover_digest(image.path(), shards);
            let want = reference_digest(commits, shards);
            assert_eq!(got_commits, commits, "cut at {cut}, {shards} shard(s)");
            // A cut among the registrations leaves an object unregistered,
            // which only the empty prefix can.
            let matches = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g == w || (commits == 0 && g.is_none()));
            assert!(
                matches,
                "cut at {cut}, {shards} shard(s): recovery {got:?} is not the \
                 uncrashed run of the {commits}-commit prefix {want:?}"
            );
        }
        commit_counts.push(commits);
    }

    // The sweep must actually exercise partial images, not just the
    // trivial endpoints.
    assert!(commit_counts.iter().any(|&c| c > 0 && c < SWEEP_TXNS));
}
