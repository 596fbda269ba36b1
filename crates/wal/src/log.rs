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
//!   written bytes) but not power loss. `wait_durable` never blocks.
//! * [`FsyncPolicy::GroupCommit`] — records are buffered in memory; a
//!   flusher thread writes + fsyncs all shards once per window, amortising
//!   the fsync across every commit that landed in the window. Committers
//!   block in `wait_durable` until the flush covering their record runs.
//! * [`FsyncPolicy::Always`] — write + fsync inline on every append.
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
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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

struct ShardLog {
    path: PathBuf,
    state: Mutex<LogState>,
    /// Highest ticket whose record is written (and fsynced, unless the
    /// policy is `Never`). Guarded separately so waiters never contend
    /// with appenders.
    durable: Mutex<u64>,
    cv: Condvar,
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
            durable: Mutex::new(0),
            cv: Condvar::new(),
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
        if covered <= *log.durable.lock().unwrap() {
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

    fn advance_durable(log: &ShardLog, ticket: u64) {
        let mut durable = log.durable.lock().unwrap();
        if *durable < ticket {
            *durable = ticket;
            log.cv.notify_all();
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
    /// [`Wal::wait_durable`]. `multi_gid` is `Some` for the per-shard
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

    /// Block until shard `shard`'s record with this ticket is durable.
    /// No-op unless the policy is `GroupCommit` (the other policies settle
    /// durability inline at append).
    pub fn wait_durable(&self, shard: u32, ticket: u64) {
        if self.inner.policy != FsyncPolicy::GroupCommit {
            return;
        }
        let log = self.inner.log(shard);
        let mut durable = log.durable.lock().unwrap();
        while *durable < ticket {
            durable = log.cv.wait(durable).unwrap();
        }
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
