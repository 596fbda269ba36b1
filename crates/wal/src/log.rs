//! The append engine: per-shard log files, fsync policies, group commit.
//!
//! One [`Wal`] owns one append-only file per shard (`shard-{k}.log`) plus a
//! shared marker file (`commit-markers.log`) for cross-shard commit markers.
//! Every record carries a global sequence number drawn from a shared counter
//! **inside the per-file mutex**, so each file is individually seq-sorted
//! and recovery can merge files by `seq` alone.
//!
//! ## Fsync policies
//!
//! * [`FsyncPolicy::Never`] — records are written straight to the file but
//!   never fsynced. Fast, survives process kill (the OS page cache keeps
//!   written bytes) but not power loss. A [`Durable`] future is ready at
//!   once.
//! * [`FsyncPolicy::GroupCommit`] — records are buffered in memory; a
//!   flusher thread writes + fsyncs all shards once per window, amortising
//!   the fsync across every commit that landed in the window. A committer
//!   awaits its record's [`Durable`] future, which the flush covering the
//!   record wakes; the thread that appended is free meanwhile.
//! * [`FsyncPolicy::Always`] — write + fsync inline on every append.
//!
//! ## Waiting for a flush
//!
//! Each shard log keeps the highest durable ticket beside a registry of
//! wakers keyed by `(ticket, slot)`. A pending [`Durable`] holds one slot,
//! overwritten when it is polled again and removed when it is dropped, so
//! the registry holds at most one entry per waiting future. A flush
//! publishes its ticket and wakes every entry at or below it. Blocking
//! callers ([`Durable::wait`]) park the thread behind the same registry;
//! there is no second waiting mechanism.
//!
//! Registrations and cross-shard markers are always flushed at append,
//! whatever the policy (fsynced unless the policy is `Never`): a commit
//! record must never become durable before the registration it references,
//! and a marker is the multi-shard commit's durability point.
//!
//! ## Clock seam
//!
//! The flusher's window timer sits behind an injected [`GroupClock`]
//! closure so `sbcc-core` (which sits *above* this crate) can route it
//! through `chaos::TimeoutPoint::GroupCommit`: `Some(true)` means "the
//! window elapsed, flush now", `Some(false)` means "not yet", `None` means
//! "no virtual clock installed, use the real timer".
//!
//! ## Errors
//!
//! I/O errors on the hot append/flush path **panic**: once a write to the
//! log fails the process can no longer promise durability for anything it
//! acknowledges, and the deterministic-simulation harness exercises crash
//! recovery far more honestly than an in-process error path would.
//! Recovery-time errors (in [`Wal::open`]) are returned as [`WalError`].

use crate::record::{encode_record, parse_log, LoggedOp, SequencedRecord, WalRecord};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::future::Future;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

/// When (and whether) appended records are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Write without fsync; survives `kill -9`, not power loss.
    Never,
    /// Buffer appends; one flush + fsync per group-commit window.
    GroupCommit,
    /// Write + fsync inline on every append.
    Always,
}

/// Durability configuration carried by `DatabaseConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct WalConfig {
    /// Directory holding `shard-{k}.log` files and `commit-markers.log`.
    pub dir: PathBuf,
    /// Fsync policy (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Flush window for [`FsyncPolicy::GroupCommit`]; ignored otherwise.
    pub group_commit_window: Duration,
}

impl WalConfig {
    /// Group-commit config with the default 2 ms window.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::GroupCommit,
            group_commit_window: Duration::from_millis(2),
        }
    }

    /// Builder: set the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Builder: set the group-commit window.
    pub fn with_window(mut self, window: Duration) -> Self {
        self.group_commit_window = window;
        self
    }
}

/// Virtual-clock seam for the group-commit flusher. Consulted once per
/// flusher iteration: `Some(true)` = window elapsed (flush now),
/// `Some(false)` = window still open (poll again shortly), `None` = no
/// virtual clock (sleep the real window, then flush).
pub type GroupClock = Arc<dyn Fn() -> Option<bool> + Send + Sync>;

/// Recovery-time WAL failure (I/O on open/scan/truncate).
#[derive(Debug)]
pub enum WalError {
    /// An I/O operation on `path` failed while opening or repairing a log.
    Io {
        /// File or directory involved.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { path, source } => {
                write!(f, "wal i/o error on {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for WalError {}

/// Path of shard `k`'s log file inside `dir`.
pub fn shard_log_path(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard}.log"))
}

/// Path of the cross-shard commit-marker file inside `dir`.
pub fn marker_path(dir: &Path) -> PathBuf {
    dir.join("commit-markers.log")
}

struct LogState {
    file: File,
    /// Pending bytes not yet written to the file (GroupCommit only).
    buf: Vec<u8>,
    /// Ticket counter: number of records appended to this log so far.
    appended: u64,
}

/// What a flush publishes, and who waits for the next one.
#[derive(Default)]
struct DurableState {
    /// Highest ticket whose record is written (and fsynced, unless the
    /// policy is `Never`).
    through: u64,
    /// Wakers of pending [`Durable`] futures, keyed by `(ticket, slot)`.
    waiters: BTreeMap<(u64, u64), Waker>,
    /// Last slot handed to a [`Durable`] future.
    next_slot: u64,
}

struct ShardLog {
    path: PathBuf,
    state: Mutex<LogState>,
    /// Guarded separately from `state` so waiters never contend with
    /// appenders.
    durable: Mutex<DurableState>,
}

impl ShardLog {
    fn open_append(path: PathBuf) -> Result<ShardLog, WalError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|source| WalError::Io {
                path: path.clone(),
                source,
            })?;
        Ok(ShardLog {
            path,
            state: Mutex::new(LogState {
                file,
                buf: Vec::new(),
                appended: 0,
            }),
            durable: Mutex::new(DurableState::default()),
        })
    }
}

struct WalInner {
    policy: FsyncPolicy,
    window: Duration,
    clock: Option<GroupClock>,
    /// Global record sequence; fetched inside each log's state mutex so
    /// every file is individually seq-sorted.
    global_seq: AtomicU64,
    logs: Vec<ShardLog>,
    marker: ShardLog,
    shutdown: AtomicBool,
}

impl WalInner {
    fn log(&self, shard: u32) -> &ShardLog {
        &self.logs[shard as usize]
    }

    /// Append one record to `log`; returns `(seq, ticket)`.
    fn append(&self, log: &ShardLog, record: &WalRecord) -> (u64, u64) {
        let mut state = log.state.lock().unwrap();
        let seq = self.global_seq.fetch_add(1, Ordering::Relaxed);
        let bytes = encode_record(seq, record);
        state.appended += 1;
        let ticket = state.appended;
        match self.policy {
            FsyncPolicy::GroupCommit => state.buf.extend_from_slice(&bytes),
            FsyncPolicy::Never | FsyncPolicy::Always => {
                state
                    .file
                    .write_all(&bytes)
                    .unwrap_or_else(|e| panic!("wal append to {}: {e}", log.path.display()));
                if self.policy == FsyncPolicy::Always {
                    state
                        .file
                        .sync_data()
                        .unwrap_or_else(|e| panic!("wal fsync of {}: {e}", log.path.display()));
                }
                drop(state);
                Self::advance_durable(log, ticket);
            }
        }
        (seq, ticket)
    }

    /// Write out any buffered records and (policy permitting) fsync, then
    /// publish the covered tickets as durable.
    fn flush(&self, log: &ShardLog) {
        let mut state = log.state.lock().unwrap();
        let covered = state.appended;
        if covered <= log.durable.lock().unwrap().through {
            return; // nothing appended since the last flush
        }
        if !state.buf.is_empty() {
            let buf = std::mem::take(&mut state.buf);
            state
                .file
                .write_all(&buf)
                .unwrap_or_else(|e| panic!("wal flush to {}: {e}", log.path.display()));
        }
        if self.policy != FsyncPolicy::Never {
            state
                .file
                .sync_data()
                .unwrap_or_else(|e| panic!("wal fsync of {}: {e}", log.path.display()));
        }
        drop(state);
        Self::advance_durable(log, covered);
    }

    /// Publish `ticket` as durable and wake every waiter it covers. The
    /// wakers run after the lock is released: waking runs executor code.
    fn advance_durable(log: &ShardLog, ticket: u64) {
        let covered = {
            let mut durable = log.durable.lock().unwrap();
            if durable.through >= ticket {
                return;
            }
            durable.through = ticket;
            let later = durable.waiters.split_off(&(ticket + 1, 0));
            std::mem::replace(&mut durable.waiters, later)
        };
        for waker in covered.into_values() {
            waker.wake();
        }
    }

    fn flush_all(&self) {
        for log in &self.logs {
            self.flush(log);
        }
        self.flush(&self.marker);
    }

    /// Group-commit flusher body. Consults the virtual clock each
    /// iteration; with no clock installed, sleeps the real window.
    fn flusher_loop(&self) {
        let poll = Duration::from_millis(1);
        while !self.shutdown.load(Ordering::Acquire) {
            let fire = match &self.clock {
                Some(clock) => clock(),
                None => None,
            };
            match fire {
                Some(true) => {
                    self.flush_all();
                    std::thread::sleep(poll);
                }
                Some(false) => std::thread::sleep(poll),
                None => {
                    std::thread::sleep(self.window);
                    self.flush_all();
                }
            }
        }
    }
}

/// A live write-ahead log: one append-only file per shard plus the
/// cross-shard marker file. Construct with [`Wal::open`], which also
/// performs torn-tail repair and returns the surviving records for replay.
pub struct Wal {
    inner: Arc<WalInner>,
    flusher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("policy", &self.inner.policy)
            .field("shards", &self.inner.logs.len())
            .finish()
    }
}

impl Wal {
    /// Open (or create) the log directory for `shards` shards.
    ///
    /// Recovery steps, in order:
    ///
    /// 1. Parse **every** `shard-*.log` in the directory — including files
    ///    from a previous run with a different shard count — stopping each
    ///    at its first torn or corrupt frame and truncating the file there.
    /// 2. Parse (and likewise repair) the marker file, collecting the set
    ///    of durable cross-shard commit group ids.
    /// 3. Drop commit records whose `multi_gid` has no durable marker: the
    ///    crash hit between the per-shard flushes of a multi-shard commit,
    ///    so the transaction never became durable anywhere. Later records
    ///    are kept — anything appended after an unmarked multi-shard record
    ///    was classified against that transaction's then-uncommitted
    ///    operations, so its presence proves state-commutativity.
    /// 4. Merge the survivors by global sequence number (each file is
    ///    individually sorted, so a stable sort suffices) and return them
    ///    for the caller to replay.
    ///
    /// The returned `Wal` appends to `shard-{0..shards}.log`; the caller
    /// replays the returned records **before** routing new commits here.
    pub fn open(
        config: &WalConfig,
        shards: usize,
        clock: Option<GroupClock>,
    ) -> Result<(Wal, Vec<SequencedRecord>), WalError> {
        std::fs::create_dir_all(&config.dir).map_err(|source| WalError::Io {
            path: config.dir.clone(),
            source,
        })?;

        // 1. Scan + repair every shard log present, whatever its index.
        let mut shard_files: Vec<(u32, PathBuf)> = Vec::new();
        let entries = std::fs::read_dir(&config.dir).map_err(|source| WalError::Io {
            path: config.dir.clone(),
            source,
        })?;
        for entry in entries {
            let entry = entry.map_err(|source| WalError::Io {
                path: config.dir.clone(),
                source,
            })?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(idx) = name
                .strip_prefix("shard-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                shard_files.push((idx, entry.path()));
            }
        }
        shard_files.sort_unstable();

        let mut max_seq: Option<u64> = None;
        let note_seq = |records: &[SequencedRecord], max_seq: &mut Option<u64>| {
            for r in records {
                *max_seq = Some(max_seq.map_or(r.seq, |m| m.max(r.seq)));
            }
        };

        let mut data: Vec<SequencedRecord> = Vec::new();
        for (_, path) in &shard_files {
            let parsed = read_and_repair(path)?;
            note_seq(&parsed, &mut max_seq);
            data.extend(parsed);
        }

        // 2. Marker file → durable multi-shard commit groups.
        let marker_file = marker_path(&config.dir);
        let markers = if marker_file.exists() {
            read_and_repair(&marker_file)?
        } else {
            Vec::new()
        };
        note_seq(&markers, &mut max_seq);
        let marked: std::collections::HashSet<u64> = markers
            .iter()
            .filter_map(|r| match r.record {
                WalRecord::Marker { gid } => Some(gid),
                _ => None,
            })
            .collect();

        // 3. Drop multi-shard commits that never reached their marker.
        data.retain(|r| match &r.record {
            WalRecord::Commit {
                multi_gid: Some(gid),
                ..
            } => marked.contains(gid),
            _ => true,
        });

        // 4. Merge by seq (stable: files are individually sorted).
        data.sort_by_key(|r| r.seq);

        let mut logs = Vec::with_capacity(shards);
        for k in 0..shards {
            logs.push(ShardLog::open_append(shard_log_path(&config.dir, k as u32))?);
        }
        let marker = ShardLog::open_append(marker_file)?;

        let inner = Arc::new(WalInner {
            policy: config.fsync,
            window: config.group_commit_window,
            clock,
            global_seq: AtomicU64::new(max_seq.map_or(0, |m| m + 1)),
            logs,
            marker,
            shutdown: AtomicBool::new(false),
        });
        let flusher = if config.fsync == FsyncPolicy::GroupCommit {
            let inner2 = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("sbcc-wal-flusher".into())
                    .spawn(move || inner2.flusher_loop())
                    .expect("spawn wal flusher"),
            )
        } else {
            None
        };
        Ok((Wal { inner, flusher }, data))
    }

    /// Append a registration record and flush it immediately: no commit
    /// record referencing `name` may become durable before this does.
    pub fn append_register(&self, shard: u32, name: &str, type_name: &str) {
        let log = self.inner.log(shard);
        self.inner.append(
            log,
            &WalRecord::Register {
                name: name.to_owned(),
                type_name: type_name.to_owned(),
            },
        );
        self.inner.flush(log);
    }

    /// Append a commit record; returns the durability ticket to pass to
    /// [`Wal::durable`]. `multi_gid` is `Some` for the per-shard
    /// fragments of a cross-shard commit (which only become recoverable
    /// once [`Wal::commit_marker`] runs for that gid).
    pub fn append_commit(&self, shard: u32, multi_gid: Option<u64>, ops: &[LoggedOp]) -> u64 {
        let record = WalRecord::Commit {
            multi_gid,
            ops: ops.to_vec(),
        };
        self.inner.append(self.inner.log(shard), &record).1
    }

    /// Draw a fresh cross-shard commit group id (from the same counter as
    /// record sequence numbers, so ids are unique across restarts).
    pub fn next_gid(&self) -> u64 {
        self.inner.global_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Flush one shard's log now (write + fsync unless the policy is
    /// `Never`), regardless of the group-commit window.
    pub fn flush_shard(&self, shard: u32) {
        self.inner.flush(self.inner.log(shard));
    }

    /// Append + flush the durability marker for cross-shard commit `gid`.
    /// Must be called only after every member shard's fragment is flushed:
    /// the marker's presence asserts the whole transaction is durable.
    pub fn commit_marker(&self, gid: u64) {
        self.inner.append(&self.inner.marker, &WalRecord::Marker { gid });
        self.inner.flush(&self.inner.marker);
    }

    /// A future that resolves once shard `shard`'s record with this
    /// ticket is durable. Ready at once unless the policy is `GroupCommit`
    /// (the other policies settle durability inline at append).
    pub fn durable(&self, shard: u32, ticket: u64) -> Durable {
        Durable {
            inner: Arc::clone(&self.inner),
            shard,
            ticket,
            slot: None,
        }
    }

    /// Block the calling thread until shard `shard`'s record with this
    /// ticket is durable: [`Wal::durable`] followed by [`Durable::wait`].
    /// The `wal.wait_durable_group_us` probe in `bench/` calls it.
    pub fn wait_durable(&self, shard: u32, ticket: u64) {
        self.durable(shard, ticket).wait();
    }

    /// The fsync policy this log was opened with.
    pub fn policy(&self) -> FsyncPolicy {
        self.inner.policy
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
        self.inner.flush_all();
    }
}

/// The durability of one commit record, as a future: resolves once the
/// flush covering the record's ticket has returned. Built by
/// [`Wal::durable`]; owns a handle on the log, so it may outlive the
/// borrow it was made from.
///
/// Dropping a pending `Durable` only stops waiting: the record stays
/// appended and the next flush writes it regardless.
pub struct Durable {
    inner: Arc<WalInner>,
    shard: u32,
    ticket: u64,
    /// This future's registry key while a waker is registered.
    slot: Option<u64>,
}

impl std::fmt::Debug for Durable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durable")
            .field("shard", &self.shard)
            .field("ticket", &self.ticket)
            .finish()
    }
}

impl Durable {
    /// Block the calling thread until the record is durable: the future
    /// polled with a waker that unparks this thread.
    pub fn wait(mut self) {
        let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        while Pin::new(&mut self).poll(&mut cx).is_pending() {
            std::thread::park();
        }
    }
}

impl Future for Durable {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.inner.policy != FsyncPolicy::GroupCommit {
            return Poll::Ready(());
        }
        let log = this.inner.log(this.shard);
        let mut durable = log.durable.lock().expect("wal durable state poisoned by a panic");
        if durable.through >= this.ticket {
            // The flush that covered the ticket removed any entry.
            this.slot = None;
            return Poll::Ready(());
        }
        let slot = *this.slot.get_or_insert_with(|| {
            durable.next_slot += 1;
            durable.next_slot
        });
        durable
            .waiters
            .insert((this.ticket, slot), cx.waker().clone());
        Poll::Pending
    }
}

impl Drop for Durable {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            // A poisoned lock only means another thread panicked; leave
            // the entry to the next flush rather than panic in drop.
            if let Ok(mut durable) = self.inner.log(self.shard).durable.lock() {
                durable.waiters.remove(&(self.ticket, slot));
            }
        }
    }
}

/// Wakes a thread parked in [`Durable::wait`].
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Read `path`, parse it, and truncate any torn tail in place. Returns the
/// valid record prefix.
fn read_and_repair(path: &Path) -> Result<Vec<SequencedRecord>, WalError> {
    let io = |source| WalError::Io {
        path: path.to_path_buf(),
        source,
    };
    let bytes = std::fs::read(path).map_err(io)?;
    let parsed = parse_log(&bytes);
    if parsed.valid_len < bytes.len() {
        let file = OpenOptions::new().write(true).open(path).map_err(io)?;
        file.set_len(parsed.valid_len as u64).map_err(io)?;
        file.sync_data().map_err(io)?;
    }
    Ok(parsed.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct CountWakes(AtomicUsize);

    impl Wake for CountWakes {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A one-shard log in a fresh directory; the directory is removed on
    /// drop, after the log.
    struct TestLog {
        wal: Option<Wal>,
        dir: PathBuf,
    }

    impl TestLog {
        /// Under `GroupCommit` the virtual clock never fires, so only an
        /// explicit `flush_shard` makes a record durable.
        fn open(tag: &str, fsync: FsyncPolicy) -> TestLog {
            let dir = std::env::temp_dir()
                .join(format!("sbcc-wal-unit-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let never_fires: GroupClock = Arc::new(|| Some(false));
            let config = WalConfig::new(&dir).with_fsync(fsync);
            let (wal, _) = Wal::open(&config, 1, Some(never_fires)).unwrap();
            TestLog {
                wal: Some(wal),
                dir,
            }
        }

        fn wal(&self) -> &Wal {
            self.wal.as_ref().unwrap()
        }

        /// The tickets with a registered waker, in key order.
        fn waiting(&self) -> Vec<u64> {
            let durable = self.wal().inner.log(0).durable.lock().unwrap();
            durable.waiters.keys().map(|&(ticket, _)| ticket).collect()
        }
    }

    impl Drop for TestLog {
        fn drop(&mut self) {
            drop(self.wal.take());
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn poll_with(future: &mut Durable, wakes: &Arc<CountWakes>) -> Poll<()> {
        let waker = Waker::from(wakes.clone());
        Pin::new(future).poll(&mut Context::from_waker(&waker))
    }

    fn counter() -> Arc<CountWakes> {
        Arc::new(CountWakes(AtomicUsize::new(0)))
    }

    #[test]
    fn repolling_a_ticket_keeps_one_registry_entry_and_drop_removes_it() {
        let log = TestLog::open("repoll", FsyncPolicy::GroupCommit);
        let ticket = log.wal().append_commit(0, None, &[]);
        let mut waiting = log.wal().durable(0, ticket);
        // A fresh waker on every poll, as an executor that re-wraps its
        // task would pass: each one replaces the last.
        for _ in 0..1_000 {
            assert!(poll_with(&mut waiting, &counter()).is_pending());
        }
        assert_eq!(log.waiting(), vec![ticket]);
        let mut second = log.wal().durable(0, ticket);
        assert!(poll_with(&mut second, &counter()).is_pending());
        assert_eq!(log.waiting(), vec![ticket, ticket], "one entry per future");
        drop(second);
        drop(waiting);
        assert!(log.waiting().is_empty(), "a dropped future leaves no entry");
    }

    #[test]
    fn a_flush_wakes_and_removes_exactly_the_covered_entries() {
        let log = TestLog::open("flush", FsyncPolicy::GroupCommit);
        let first = log.wal().append_commit(0, None, &[]);
        let second = log.wal().append_commit(0, None, &[]);
        let (covered, later) = (counter(), counter());
        let mut a = log.wal().durable(0, first);
        let mut b = log.wal().durable(0, second);
        let mut c = log.wal().durable(0, second + 1);
        assert!(poll_with(&mut a, &covered).is_pending());
        assert!(poll_with(&mut b, &covered).is_pending());
        assert!(poll_with(&mut c, &later).is_pending());

        log.wal().flush_shard(0);
        assert_eq!(covered.0.load(Ordering::Relaxed), 2);
        assert_eq!(later.0.load(Ordering::Relaxed), 0);
        assert_eq!(log.waiting(), vec![second + 1], "no covered entry is left");
        assert!(poll_with(&mut a, &covered).is_ready());
        assert!(poll_with(&mut b, &covered).is_ready());
        assert_eq!(log.waiting(), vec![second + 1]);

        assert_eq!(log.wal().append_commit(0, None, &[]), second + 1);
        log.wal().flush_shard(0);
        assert_eq!(later.0.load(Ordering::Relaxed), 1);
        assert!(poll_with(&mut c, &later).is_ready());
        assert!(log.waiting().is_empty());
    }

    #[test]
    fn a_blocking_wait_parks_until_a_flush_on_another_thread() {
        let log = TestLog::open("park", FsyncPolicy::GroupCommit);
        let ticket = log.wal().append_commit(0, None, &[]);
        let flushed = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                flushed.store(true, Ordering::Release);
                log.wal().flush_shard(0);
            });
            log.wal().wait_durable(0, ticket);
            assert!(flushed.load(Ordering::Acquire), "returned before the flush");
        });
        assert!(log.waiting().is_empty());
    }

    #[test]
    fn inline_policies_are_durable_at_append() {
        for fsync in [FsyncPolicy::Never, FsyncPolicy::Always] {
            let log = TestLog::open(&format!("{fsync:?}"), fsync);
            let ticket = log.wal().append_commit(0, None, &[]);
            let mut durable = log.wal().durable(0, ticket);
            assert!(poll_with(&mut durable, &counter()).is_ready());
            assert!(log.waiting().is_empty());
        }
    }
}
