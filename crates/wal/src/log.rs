//! The append engine: one log file, fsync policies, group commit.
//!
//! One [`Wal`] owns one append-only file, `wal.log`, for every shard.
//! Each record carries a sequence number drawn **inside the log's `state`
//! mutex**, so the file is in sequence order, and every transaction,
//! single- or multi-shard, is one `Commit` record. A flush writes the
//! buffer in append order, so what is on disk is always a prefix of what
//! was appended: no record is durable unless every earlier one is.
//!
//! ## Fsync policies
//!
//! * [`FsyncPolicy::Never`] — records are written straight to the file but
//!   never fsynced. Fast, survives process kill (the OS page cache keeps
//!   written bytes) but not power loss. A [`Durable`] future is ready at
//!   once.
//! * [`FsyncPolicy::GroupCommit`] — records are buffered in memory; a
//!   flusher thread writes + fsyncs the buffer on demand. A commit append
//!   kicks it, and commits that land while a flush is in progress kick
//!   the next one, which starts as soon as the previous fsync returns:
//!   one fsync covers every commit that arrived while the last one ran. A
//!   committer awaits its record's [`Durable`] future, which the flush
//!   covering the record wakes; the thread that appended is free
//!   meanwhile.
//! * [`FsyncPolicy::Always`] — write + fsync inline on every append.
//!
//! ## Locks
//!
//! The log has two locks on its append path. `state` guards the buffer
//! and the ticket counter; a group-commit append takes it alone, so an
//! append never waits for the device. The I/O lock owns the file and
//! serialises writes and fsyncs. Lock order: the I/O lock, then `state`.
//! A flush takes the I/O lock, then briefly `state` to take the buffer
//! and the ticket it covers, and writes and fsyncs with `state`
//! released. Flushes run one at a time and take buffers in append order,
//! so the file stays in sequence order.
//!
//! ## Waiting for a flush
//!
//! The log keeps the highest durable ticket beside a registry of wakers
//! keyed by `(ticket, slot)`. A pending [`Durable`] holds one slot,
//! overwritten when it is polled again and removed when it is dropped, so
//! the registry holds at most one entry per waiting future. A flush
//! publishes its ticket and wakes every entry at or below it. Blocking
//! callers ([`Durable::wait`]) park the thread behind the same registry;
//! there is no second waiting mechanism.
//!
//! Registrations are always flushed at append, whatever the policy
//! (fsynced unless the policy is `Never`), so a registration is durable
//! once it returns. They do not kick the flusher.
//!
//! ## Clock seam
//!
//! Once kicked, the flusher asks an injected [`GroupClock`] closure
//! whether it may flush, so `sbcc-core` (which sits *above* this crate)
//! can route the flush point through `chaos::TimeoutPoint::GroupCommit`:
//! `Some(false)` means "hold", and the flusher asks again every
//! millisecond; `Some(true)` or `None` (no virtual clock installed) means
//! "flush now". There is no timer: with no hook, only a kick starts a
//! flush.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

/// When (and whether) appended records are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Write without fsync; survives `kill -9`, not power loss.
    Never,
    /// Buffer appends; a flusher thread writes + fsyncs them on demand,
    /// one pass as soon as the previous one returns, so one fsync covers
    /// every commit appended while the last one ran.
    GroupCommit,
    /// Write + fsync inline on every append.
    Always,
}

/// Durability configuration carried by `DatabaseConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct WalConfig {
    /// Directory holding the log file, `wal.log`.
    pub dir: PathBuf,
    /// Fsync policy (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
}

impl WalConfig {
    /// Group-commit config.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::GroupCommit,
        }
    }

    /// Builder: set the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Ignored: group commit has no window, a flush starts when the
    /// previous one returns. Kept only while the benchmark crate
    /// (`bench/`) still calls it.
    pub fn with_window(self, _window: Duration) -> Self {
        self
    }
}

/// Virtual-clock seam for the group-commit flusher, consulted each time
/// a kick wakes it: `Some(false)` = hold the flush (ask again in a
/// millisecond), `Some(true)` = flush now, `None` = no virtual clock
/// (flush now).
pub type GroupClock = Arc<dyn Fn() -> Option<bool> + Send + Sync>;

/// Recovery-time WAL failure (I/O on open/scan/truncate, or a directory
/// this version cannot read).
#[derive(Debug)]
pub enum WalError {
    /// An I/O operation on `path` failed while opening or repairing a log.
    Io {
        /// File or directory involved.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// The directory holds `path`, a file of the per-shard layout that
    /// earlier versions wrote (`shard-*.log`, `commit-markers.log`).
    OldLayout {
        /// The offending file.
        path: PathBuf,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { path, source } => {
                write!(f, "wal i/o error on {}: {source}", path.display())
            }
            WalError::OldLayout { path } => write!(
                f,
                "{} belongs to the per-shard log layout, which this version \
                 neither reads nor converts",
                path.display()
            ),
        }
    }
}

impl std::error::Error for WalError {}

/// Path of the log file inside `dir`.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

/// The file side of the log, behind its I/O lock.
struct LogFile {
    file: File,
    /// Highest ticket written (and fsynced, unless the policy is `Never`).
    synced: u64,
}

struct LogState {
    /// Pending bytes not yet written to the file (GroupCommit only).
    buf: Vec<u8>,
    /// Ticket counter: the sequence number of the next record. A record's
    /// ticket is its sequence number plus one, so this is also the ticket
    /// of the last record appended.
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

struct WalInner {
    policy: FsyncPolicy,
    clock: Option<GroupClock>,
    path: PathBuf,
    /// Serialises writes and fsyncs. Taken before `state`, never after.
    io: Mutex<LogFile>,
    state: Mutex<LogState>,
    /// Guarded separately from `state` so waiters never contend with
    /// appenders.
    durable: Mutex<DurableState>,
    /// Set by a commit append, cleared by the flusher as a pass starts.
    kicked: AtomicBool,
    shutdown: AtomicBool,
    /// The flusher sleeps on `wake` (with `wake_lock`) until kicked or
    /// shut down.
    wake_lock: Mutex<()>,
    wake: Condvar,
}

impl WalInner {
    /// Append one record; returns its ticket. Under `GroupCommit` this
    /// only buffers the record, under `state` alone.
    fn append(&self, record: &WalRecord) -> u64 {
        let next = |state: &mut LogState| {
            let seq = state.appended;
            state.appended += 1;
            (seq, state.appended)
        };
        if self.policy == FsyncPolicy::GroupCommit {
            let mut state = self.state.lock().unwrap();
            let (seq, ticket) = next(&mut state);
            state.buf.extend_from_slice(&encode_record(seq, record));
            return ticket;
        }
        let mut io = self.io.lock().unwrap();
        let (seq, ticket) = next(&mut self.state.lock().unwrap());
        io.file
            .write_all(&encode_record(seq, record))
            .unwrap_or_else(|e| panic!("wal append to {}: {e}", self.path.display()));
        if self.policy == FsyncPolicy::Always {
            io.file
                .sync_data()
                .unwrap_or_else(|e| panic!("wal fsync of {}: {e}", self.path.display()));
        }
        io.synced = ticket;
        drop(io);
        self.advance_durable(ticket);
        ticket
    }

    /// Write out any buffered records and (policy permitting) fsync, then
    /// publish the covered tickets as durable. Holds `state` only to take
    /// the buffer, so appends go on while the device works.
    fn flush(&self) {
        let mut io = self.io.lock().unwrap();
        let (buf, covered) = {
            let mut state = self.state.lock().unwrap();
            if state.appended <= io.synced {
                return; // nothing appended since the last flush
            }
            (std::mem::take(&mut state.buf), state.appended)
        };
        if !buf.is_empty() {
            io.file
                .write_all(&buf)
                .unwrap_or_else(|e| panic!("wal flush to {}: {e}", self.path.display()));
        }
        if self.policy != FsyncPolicy::Never {
            io.file
                .sync_data()
                .unwrap_or_else(|e| panic!("wal fsync of {}: {e}", self.path.display()));
        }
        io.synced = covered;
        drop(io);
        self.advance_durable(covered);
    }

    /// Publish `ticket` as durable and wake every waiter it covers. The
    /// wakers run after the lock is released: waking runs executor code.
    fn advance_durable(&self, ticket: u64) {
        let covered = {
            let mut durable = self.durable.lock().unwrap();
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

    /// Ask the flusher for a pass. Only the append that sets the flag
    /// notifies, so a burst of commits costs one wake-up.
    fn kick(&self) {
        if !self.kicked.swap(true, Ordering::AcqRel) {
            self.wake_flusher();
        }
    }

    /// Wake the flusher after setting `kicked` or `shutdown`. Taking
    /// `wake_lock` first means the flusher is either before its check of
    /// the flags or already waiting, so the notification is not lost.
    fn wake_flusher(&self) {
        let _lock = self.wake_lock.lock();
        self.wake.notify_one();
    }

    /// Group-commit flusher body: sleep until kicked, hold while the
    /// clock says so, then flush. A kick that lands during the pass starts
    /// the next one as soon as this one returns.
    fn flusher_loop(&self) {
        let poll = Duration::from_millis(1);
        loop {
            let idle = |_: &mut ()| {
                !self.kicked.load(Ordering::Acquire) && !self.shutdown.load(Ordering::Acquire)
            };
            let lock = self.wake_lock.lock().unwrap();
            // Release `wake_lock` at once: a kicker takes it to notify.
            drop(self.wake.wait_while(lock, idle).unwrap());
            while !self.shutdown.load(Ordering::Acquire)
                && self.clock.as_ref().and_then(|clock| clock()) == Some(false)
            {
                std::thread::sleep(poll);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return; // `Wal::drop` flushes what is left
            }
            self.kicked.store(false, Ordering::Release);
            self.flush();
        }
    }
}

/// A live write-ahead log: one append-only file, `wal.log`. Construct
/// with [`Wal::open`], which also performs torn-tail repair and returns
/// the surviving records for replay.
pub struct Wal {
    inner: Arc<WalInner>,
    flusher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("policy", &self.inner.policy)
            .field("path", &self.inner.path)
            .finish()
    }
}

impl Wal {
    /// Open (or create) the log in `config.dir`: parse `wal.log`, stop at
    /// its first torn or corrupt frame and truncate the file there, and
    /// return the surviving records, in file (= sequence) order, for the
    /// caller to replay **before** it routes new commits here.
    ///
    /// A directory in the per-shard layout of earlier versions (any
    /// `shard-*.log` or `commit-markers.log`) is refused with
    /// [`WalError::OldLayout`]; it is never converted.
    ///
    /// `shards` is ignored: every shard count shares the one file. It is
    /// kept only while the benchmark crate (`bench/`) still passes it.
    pub fn open(
        config: &WalConfig,
        _shards: usize,
        clock: Option<GroupClock>,
    ) -> Result<(Wal, Vec<SequencedRecord>), WalError> {
        let dir_error = |source| WalError::Io {
            path: config.dir.clone(),
            source,
        };
        std::fs::create_dir_all(&config.dir).map_err(dir_error)?;
        for entry in std::fs::read_dir(&config.dir).map_err(dir_error)? {
            let entry = entry.map_err(dir_error)?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let per_shard = name.starts_with("shard-") && name.ends_with(".log");
            if per_shard || name == "commit-markers.log" {
                return Err(WalError::OldLayout { path: entry.path() });
            }
        }

        let path = log_path(&config.dir);
        let records = if path.exists() {
            read_and_repair(&path)?
        } else {
            Vec::new()
        };
        let appended = records.last().map_or(0, |r| r.seq + 1);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|source| WalError::Io {
                path: path.clone(),
                source,
            })?;

        let inner = Arc::new(WalInner {
            policy: config.fsync,
            clock,
            path,
            io: Mutex::new(LogFile {
                file,
                synced: appended,
            }),
            state: Mutex::new(LogState {
                buf: Vec::new(),
                appended,
            }),
            durable: Mutex::new(DurableState {
                through: appended,
                ..DurableState::default()
            }),
            kicked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            wake_lock: Mutex::new(()),
            wake: Condvar::new(),
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
        Ok((Wal { inner, flusher }, records))
    }

    /// Append a registration record and flush it immediately, so the
    /// registration is durable when this returns. Every commit naming the
    /// object is appended after it, so none can be durable without it.
    pub fn append_register(&self, name: &str, type_name: &str) {
        self.inner.append(&WalRecord::Register {
            name: name.to_owned(),
            type_name: type_name.to_owned(),
        });
        self.inner.flush();
    }

    /// Append a commit record of every operation of one transaction,
    /// whatever the number of shards it touched; returns the durability
    /// ticket to pass to [`Wal::durable`]. Under `GroupCommit` the record
    /// is buffered and the flusher kicked.
    ///
    /// `shard` and `multi_gid` are ignored. They are kept only while the
    /// benchmark crate (`bench/`) still passes them.
    pub fn append_commit(&self, _shard: u32, _multi_gid: Option<u64>, ops: &[LoggedOp]) -> u64 {
        let record = WalRecord::Commit {
            multi_gid: None,
            ops: ops.to_vec(),
        };
        let ticket = self.inner.append(&record);
        if self.inner.policy == FsyncPolicy::GroupCommit {
            self.inner.kick();
        }
        ticket
    }

    /// A future that resolves once the record with this ticket is
    /// durable. Ready at once unless the policy is `GroupCommit` (the
    /// other policies settle durability inline at append).
    pub fn durable(&self, ticket: u64) -> Durable {
        Durable {
            inner: Arc::clone(&self.inner),
            ticket,
            slot: None,
        }
    }

    /// Block the calling thread until the record with this ticket is
    /// durable: [`Wal::durable`] followed by [`Durable::wait`]. The
    /// `wal.wait_durable_group_us` probe in `bench/` calls it; `shard` is
    /// ignored and kept only for that caller.
    pub fn wait_durable(&self, _shard: u32, ticket: u64) {
        self.durable(ticket).wait();
    }

    /// The fsync policy this log was opened with.
    pub fn policy(&self) -> FsyncPolicy {
        self.inner.policy
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.wake_flusher();
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
        self.inner.flush();
    }
}

/// The durability of one log record, as a future: resolves once the
/// flush covering the record's ticket has returned. Built by
/// [`Wal::durable`]; owns a handle on the log, so it may outlive the
/// borrow it was made from.
///
/// Dropping a pending `Durable` only stops waiting: the record stays
/// appended and the next flush writes it regardless.
pub struct Durable {
    inner: Arc<WalInner>,
    ticket: u64,
    /// This future's registry key while a waker is registered.
    slot: Option<u64>,
}

impl std::fmt::Debug for Durable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durable")
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
        let mut durable = this
            .inner
            .durable
            .lock()
            .expect("wal durable state poisoned by a panic");
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
            if let Ok(mut durable) = self.inner.durable.lock() {
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

    /// A log in a fresh directory; the directory is removed on drop,
    /// after the log.
    struct TestLog {
        wal: Option<Wal>,
        dir: PathBuf,
    }

    impl TestLog {
        /// Under `GroupCommit` the virtual clock never fires, so only an
        /// explicit [`TestLog::flush`] makes a record durable.
        fn open(tag: &str, fsync: FsyncPolicy) -> TestLog {
            let never_fires: GroupClock = Arc::new(|| Some(false));
            TestLog::with_clock(tag, fsync, Some(never_fires))
        }

        fn with_clock(tag: &str, fsync: FsyncPolicy, clock: Option<GroupClock>) -> TestLog {
            let dir =
                std::env::temp_dir().join(format!("sbcc-wal-unit-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let config = WalConfig::new(&dir).with_fsync(fsync);
            let (wal, _) = Wal::open(&config, 1, clock).unwrap();
            TestLog {
                wal: Some(wal),
                dir,
            }
        }

        fn wal(&self) -> &Wal {
            self.wal.as_ref().unwrap()
        }

        /// Flush now, without waiting for the flusher.
        fn flush(&self) {
            self.wal().inner.flush();
        }

        /// The highest ticket published as durable.
        fn durable_through(&self) -> u64 {
            self.wal().inner.durable.lock().unwrap().through
        }

        fn file_len(&self) -> u64 {
            std::fs::metadata(log_path(&self.dir)).unwrap().len()
        }

        /// The tickets with a registered waker, in key order.
        fn waiting(&self) -> Vec<u64> {
            let durable = self.wal().inner.durable.lock().unwrap();
            durable.waiters.keys().map(|&(ticket, _)| ticket).collect()
        }
    }

    impl Drop for TestLog {
        /// Dropping the log joins its flusher; a drop that hangs fails the
        /// test instead of stalling the run.
        fn drop(&mut self) {
            if let Some(wal) = self.wal.take() {
                if std::thread::panicking() {
                    drop(wal);
                } else {
                    returns_promptly("dropping the log", move || drop(wal));
                }
            }
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

    /// Runs `f` on its own thread and fails unless it returns within ten
    /// seconds (a hung thread is left behind).
    fn returns_promptly(what: &str, f: impl FnOnce() + Send + 'static) {
        let (done, returned) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        returned
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{what} did not return"));
    }

    #[test]
    fn with_no_clock_a_commit_append_kicks_the_flusher() {
        let log = TestLog::with_clock("kick", FsyncPolicy::GroupCommit, None);
        for _ in 0..3 {
            let ticket = log.wal().append_commit(0, None, &[]);
            let durable = log.wal().durable(ticket);
            returns_promptly("a durable wait with no explicit flush", move || {
                durable.wait()
            });
            assert!(log.durable_through() >= ticket);
        }
        assert!(log.file_len() > 0);
    }

    #[test]
    fn dropping_an_idle_group_commit_log_returns_promptly() {
        let log = TestLog::with_clock("idle-drop", FsyncPolicy::GroupCommit, None);
        // The flusher sleeps until kicked; only the drop's wake ends it.
        drop(log);
    }

    #[test]
    fn a_held_clock_keeps_commits_buffered_until_it_fires() {
        let released = Arc::new(AtomicBool::new(false));
        let clock: GroupClock = {
            let released = released.clone();
            Arc::new(move || Some(released.load(Ordering::Acquire)))
        };
        let log = TestLog::with_clock("held", FsyncPolicy::GroupCommit, Some(clock));
        let tickets: Vec<u64> = (0..4)
            .map(|_| log.wal().append_commit(0, None, &[]))
            .collect();
        // The first append kicked the flusher; it is polling the clock.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(log.durable_through(), 0, "flushed while the clock held");
        assert_eq!(log.file_len(), 0, "written while the clock held");

        released.store(true, Ordering::Release);
        let last = log.wal().durable(*tickets.last().unwrap());
        returns_promptly("the wait after the clock fired", move || last.wait());
        assert_eq!(log.durable_through(), 4);
        assert!(log.file_len() > 0);
    }

    #[test]
    fn repolling_a_ticket_keeps_one_registry_entry_and_drop_removes_it() {
        let log = TestLog::open("repoll", FsyncPolicy::GroupCommit);
        let ticket = log.wal().append_commit(0, None, &[]);
        let mut waiting = log.wal().durable(ticket);
        // A fresh waker on every poll, as an executor that re-wraps its
        // task would pass: each one replaces the last.
        for _ in 0..1_000 {
            assert!(poll_with(&mut waiting, &counter()).is_pending());
        }
        assert_eq!(log.waiting(), vec![ticket]);
        let mut second = log.wal().durable(ticket);
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
        let mut a = log.wal().durable(first);
        let mut b = log.wal().durable(second);
        let mut c = log.wal().durable(second + 1);
        assert!(poll_with(&mut a, &covered).is_pending());
        assert!(poll_with(&mut b, &covered).is_pending());
        assert!(poll_with(&mut c, &later).is_pending());

        log.flush();
        assert_eq!(covered.0.load(Ordering::Relaxed), 2);
        assert_eq!(later.0.load(Ordering::Relaxed), 0);
        assert_eq!(log.waiting(), vec![second + 1], "no covered entry is left");
        assert!(poll_with(&mut a, &covered).is_ready());
        assert!(poll_with(&mut b, &covered).is_ready());
        assert_eq!(log.waiting(), vec![second + 1]);

        assert_eq!(log.wal().append_commit(0, None, &[]), second + 1);
        log.flush();
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
                log.flush();
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
            let mut durable = log.wal().durable(ticket);
            assert!(poll_with(&mut durable, &counter()).is_ready());
            assert!(log.waiting().is_empty());
        }
    }
}
