//! # sbcc-wal — per-shard semantic write-ahead log
//!
//! Durability for the sharded SBCC kernel, built on **semantic logging**:
//! the log records the *operations* of committed transactions (`OpCall` +
//! object name + result), never materialized object state. This is the
//! natural durability story for a semantics-based scheduler — the same
//! insight that lets the kernel admit non-commuting-but-recoverable
//! operation interleavings lets recovery rebuild state by re-running the
//! committed operation sequence through ordinary ADT dispatch.
//!
//! The crate is deliberately **below** `sbcc-core` in the layering: it
//! knows about operations and object names (`sbcc-adt`) but nothing about
//! transactions, shard routing, or the dependency graph. `sbcc-core`
//! decides *what* to log and *when* (only transactions whose dependency
//! union has cleared — a pseudo-committed transaction never reaches the
//! log) and routes the group-commit flush window through its `chaos`
//! virtual-clock seam via the injected [`GroupClock`] closure.
//!
//! Pieces:
//!
//! * [`record`] — the on-disk record codec: length-prefixed, checksummed
//!   frames carrying `Register` / `Commit` / `Marker` records, with
//!   torn-tail detection ([`record::parse_log`]).
//! * [`log`] — the append engine: per-shard files, [`FsyncPolicy`], the
//!   group-commit flusher thread, the [`Durable`] future a committer
//!   awaits, and [`Wal::open`] recovery (torn-tail repair, cross-shard
//!   marker filtering, merge-by-seq).
//!
//! Rebuilding an empty object from a logged type name is the
//! [`sbcc_adt::AdtType`] catalogue's job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod record;

pub use log::{
    marker_path, shard_log_path, Durable, FsyncPolicy, GroupClock, Wal, WalConfig, WalError,
};
pub use record::{LoggedOp, ParsedLog, SequencedRecord, WalRecord};
