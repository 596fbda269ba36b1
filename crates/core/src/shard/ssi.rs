//! The coordinator's SSI guard: Cahill-style rw-antidependency tracking
//! between snapshot readers and concurrent writers, plus the snapshot
//! read path and the version-GC floor it maintains.

use super::commit::TermFate;
use super::{ObjectLoc, ShardedKernel};
use crate::chaos::{self, ChaosPoint};
use crate::errors::CoreError;
use crate::events::RequestOutcome;
use crate::txn::TxnId;
use sbcc_adt::OpCall;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// Coordinator-side SSI record of one transaction (Cahill-style
/// serializable snapshot isolation, tracking rw-antidependencies between
/// snapshot readers and concurrent writers).
///
/// The flags are **sticky**: once a transaction acquires an in- or
/// out-conflict it keeps it for life. A transaction with *both* flags is
/// the pivot of a dangerous structure and must not commit; the check runs
/// at snapshot-read time and at commit entry (never later — a
/// pseudo-commit is a promise to commit, so everything is decided before
/// it).
#[derive(Debug, Default)]
pub(super) struct SsiTxn {
    /// Begin stamp: the value of the global commit clock when the
    /// transaction began. Classified transactions are stamped too (while
    /// SSI is enabled) so the committed-reader skip test at commit entry
    /// can tell a reader that finished *before* this transaction existed
    /// from a truly concurrent one; `0` (transaction begun while SSI was
    /// dormant) keeps the test fully conservative.
    pub(super) begin: u64,
    /// `true` for transactions begun through
    /// [`ShardedKernel::begin_snapshot`].
    pub(super) snapshot: bool,
    /// Someone holds an rw-antidependency *into* this transaction (a
    /// concurrent reader read a version this transaction overwrote), or a
    /// conservative approximation of one.
    pub(super) in_conflict: bool,
    /// This transaction holds an rw-antidependency *out of* itself (it
    /// snapshot-read a version a concurrent transaction overwrote).
    pub(super) out_conflict: bool,
    /// A dangerous structure formed around this live transaction while it
    /// was not in hand; it aborts itself at its next SSI interaction.
    pub(super) doomed: bool,
    /// Commit stamp, set at claim time (a clock over-estimate, which can
    /// only flag more readers than strictly necessary — never fewer).
    pub(super) committed: Option<u64>,
    /// The transaction pseudo-committed: it is guaranteed to commit and
    /// can no longer be chosen as the dangerous-structure victim.
    pub(super) pseudo: bool,
    /// Objects this transaction snapshot-read (SIREAD cleanup list).
    pub(super) reads: Vec<ObjectLoc>,
    /// Objects this transaction's commit writes (writer-entry cleanup
    /// list).
    pub(super) writes: Vec<ObjectLoc>,
}

/// Coordinator-side SSI bookkeeping: SIREAD marks, writer entries and
/// per-transaction conflict flags, all behind one small mutex that is only
/// ever touched while at least one snapshot transaction is (or recently
/// was) live — [`ShardedKernel::ssi_enabled`] gates every entry point with
/// a single atomic load. The whole state clears at quiescence (no live
/// transactions at all), so purely classified workloads pay nothing.
///
/// Lock order: the enrollment lock may be held when taking this lock
/// (claim-time finalize); shard locks and this lock are **never** held
/// together.
#[derive(Debug, Default)]
pub(super) struct SsiState {
    pub(super) txns: HashMap<TxnId, SsiTxn>,
    /// SIREAD marks: per object, the snapshot transactions that read it.
    pub(super) sireads: HashMap<ObjectLoc, Vec<TxnId>>,
    /// Writer entries: per object, transactions whose commit writes it.
    /// `None` = pending (commit entered but the fold's stamp is not final
    /// yet — readers must conservatively treat it as concurrent);
    /// `Some(stamp)` = committed at (at most) `stamp`.
    pub(super) writers: HashMap<ObjectLoc, Vec<(TxnId, Option<u64>)>>,
}

impl ShardedKernel {
    // ------------------------------------------------------------------
    // Snapshot reads and SSI
    // ------------------------------------------------------------------

    /// Execute a read-only operation for a snapshot transaction against
    /// the newest committed version at or below its begin stamp — no
    /// classification, no blocking, no dependency-graph edges.
    ///
    /// Returns `Ok(None)` when the call is **not** a pure observer, or
    /// when the transaction has its own uncommitted operations on the
    /// object: the caller falls back to the classified path (which
    /// provides read-your-writes).
    pub fn snapshot_read(
        &self,
        txn: TxnId,
        loc: ObjectLoc,
        call: &OpCall,
    ) -> Result<Option<sbcc_adt::OpResult>, CoreError> {
        let (begin, danger) = {
            let ssi = self.ssi.lock();
            match ssi.txns.get(&txn) {
                Some(r) if r.snapshot => {
                    (r.begin, r.doomed || (r.in_conflict && r.out_conflict))
                }
                _ => {
                    drop(ssi);
                    let enroll = self.enroll.lock();
                    return Err(Self::missing_txn_error(&enroll, txn, "snapshot-read"));
                }
            }
        };
        if danger {
            // A dangerous structure formed around this transaction while
            // it was away (another pivot doomed it, or its own sticky
            // flags closed): abort before handing out another read.
            return Err(self.ssi_abort(txn));
        }
        chaos::reach(ChaosPoint::SnapshotRead, Some(txn));
        let result = {
            let mut kernel = self.lock_shard(loc.shard);
            kernel.snapshot_read(txn, loc.local, begin, call)?
        };
        let Some(result) = result else {
            return Ok(None);
        };
        // Install the SIREAD mark and the rw-antidependency out-edges:
        // every writer entry that is pending, or stamped above the begin,
        // wrote a version this read did not see.
        chaos::reach(ChaosPoint::SsiEdge, Some(txn));
        let mut doom_self = false;
        {
            let mut ssi = self.ssi.lock();
            if !ssi.txns.contains_key(&txn) {
                // Aborted concurrently (e.g. victim selection in a shard
                // it writes in); surface the terminated-transaction error
                // the classified path would produce.
                drop(ssi);
                let enroll = self.enroll.lock();
                return Err(Self::missing_txn_error(&enroll, txn, "snapshot-read"));
            }
            let flagged: Vec<TxnId> = ssi
                .writers
                .get(&loc)
                .map(|entries| {
                    entries
                        .iter()
                        .filter(|(w, stamp)| {
                            *w != txn && stamp.map_or(true, |s| s > begin)
                        })
                        .map(|(w, _)| *w)
                        .collect()
                })
                .unwrap_or_default();
            {
                let rec = ssi.txns.get_mut(&txn).expect("checked above");
                if !rec.reads.contains(&loc) {
                    rec.reads.push(loc);
                }
                if !flagged.is_empty() {
                    rec.out_conflict = true;
                    if rec.in_conflict {
                        doom_self = true;
                    }
                }
            }
            for w in flagged {
                let Some(wrec) = ssi.txns.get_mut(&w) else { continue };
                wrec.in_conflict = true;
                if wrec.out_conflict {
                    // Dangerous structure pivoting at the writer: a live
                    // writer aborts itself at its next SSI interaction;
                    // an unabortable one (pseudo- or fully committed)
                    // forces this reader out instead.
                    if wrec.committed.is_none() && !wrec.pseudo {
                        wrec.doomed = true;
                    } else {
                        doom_self = true;
                    }
                }
            }
            let readers = ssi.sireads.entry(loc).or_default();
            if !readers.contains(&txn) {
                readers.push(txn);
            }
        }
        if doom_self {
            return Err(self.ssi_abort(txn));
        }
        Ok(Some(result))
    }

    /// The begin stamp of a live snapshot transaction.
    pub fn snapshot_begin_stamp(&self, txn: TxnId) -> Option<u64> {
        let ssi = self.ssi.lock();
        ssi.txns.get(&txn).filter(|r| r.snapshot).map(|r| r.begin)
    }

    /// The current value of the global commit clock.
    pub fn current_stamp(&self) -> u64 {
        self.commit_clock.load(Ordering::SeqCst)
    }

    /// The current version-GC floor: the smallest begin stamp of a live
    /// snapshot transaction, or `None` when none is live (commits then
    /// drop superseded versions immediately).
    pub fn oldest_snapshot_stamp(&self) -> Option<u64> {
        let floor = self.version_floor.load(Ordering::SeqCst);
        (floor != u64::MAX).then_some(floor)
    }

    /// Total number of retained historical versions across all shards.
    pub fn version_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|cell| cell.kernel.lock().version_depth())
            .sum()
    }

    /// Sweep every shard, pruning historical versions below the current
    /// GC floor. Returns the number of versions dropped. Commits prune
    /// their own objects as they fold, so this is only needed to reclaim
    /// versions of *cold* objects after the oldest snapshot finishes.
    pub fn prune_versions(&self) -> u64 {
        let watermark = self.version_floor.load(Ordering::SeqCst);
        self.shards
            .iter()
            .map(|cell| cell.kernel.lock().prune_versions(watermark))
            .sum()
    }

    /// SSI bookkeeping for a classified operation while snapshots are
    /// live: a snapshot transaction that blocks, picks up commit
    /// dependencies, or classifies against an object some transaction
    /// committed into after the snapshot began is conservatively marked
    /// in-conflict (a concurrent transaction may have observed state this
    /// one is about to overwrite). Flags are sticky; enforcement happens
    /// at the next snapshot read or at commit entry.
    pub(super) fn ssi_note_classified(&self, txn: TxnId, outcome: &RequestOutcome, object_stamp: u64) {
        let mut ssi = self.ssi.lock();
        let Some(rec) = ssi.txns.get_mut(&txn) else { return };
        if !rec.snapshot {
            return;
        }
        let flag = match outcome {
            RequestOutcome::Blocked { .. } => true,
            RequestOutcome::Executed { commit_deps, .. } => {
                !commit_deps.is_empty() || object_stamp > rec.begin
            }
            RequestOutcome::Aborted { .. } => false,
        };
        if flag {
            rec.in_conflict = true;
        }
    }

    /// Batched classified submission by a snapshot transaction: marked
    /// in-conflict unconditionally (a documented simplification — the
    /// per-call outcomes inside a batch are not individually re-derived
    /// here, so the conservative flag stands in for all of them).
    pub(super) fn ssi_note_batch(&self, txn: TxnId) {
        let mut ssi = self.ssi.lock();
        if let Some(rec) = ssi.txns.get_mut(&txn) {
            if rec.snapshot {
                rec.in_conflict = true;
            }
        }
    }

    /// Record that `txn` pseudo-committed: from here on it can no longer
    /// be chosen as a dangerous-structure victim (the in-hand transaction
    /// aborts instead).
    pub(super) fn ssi_mark_pseudo(&self, txn: TxnId) {
        if self.ssi_enabled.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut ssi = self.ssi.lock();
        if let Some(rec) = ssi.txns.get_mut(&txn) {
            rec.pseudo = true;
        }
    }

    /// SSI commit-entry gate, run **before** any shard applies the commit:
    /// publish pending writer entries for the transaction's write set,
    /// scan the SIREAD marks of every written object for
    /// rw-antidependency in-edges, and abort the pivot of any dangerous
    /// structure this closes. Aborts `txn` (returning the error) when the
    /// pivot is `txn` itself or is unabortable.
    pub(super) fn ssi_commit_entry(&self, txn: TxnId, enrolled: &[u32]) -> Result<(), CoreError> {
        // Collect the write set first: shard locks and the SSI lock are
        // never held together.
        let mut writes: Vec<ObjectLoc> = Vec::new();
        for &s in enrolled {
            for local in self.peek_shard(s).write_set(txn) {
                writes.push(ObjectLoc { shard: s, local });
            }
        }
        chaos::reach(ChaosPoint::SsiEdge, Some(txn));
        let mut doom_self = false;
        {
            let mut ssi = self.ssi.lock();
            let (snapshot, begin) = match ssi.txns.get(&txn) {
                Some(r) => {
                    if r.snapshot && (r.doomed || (r.in_conflict && r.out_conflict)) {
                        doom_self = true;
                    }
                    (r.snapshot, r.begin)
                }
                None => (false, 0),
            };
            if !doom_self && !(writes.is_empty() && !snapshot) {
                // Publish the writer entries *before* any fold: a
                // concurrent snapshot read between the fold and a later
                // publication would miss the rw-antidependency entirely.
                // Entries stay pending until claim time stamps them.
                for loc in &writes {
                    let entries = ssi.writers.entry(*loc).or_default();
                    if !entries.iter().any(|(w, _)| *w == txn) {
                        entries.push((txn, None));
                    }
                }
                let mut flagged: Vec<TxnId> = Vec::new();
                for loc in &writes {
                    if let Some(readers) = ssi.sireads.get(loc) {
                        for &r in readers {
                            if r != txn && !flagged.contains(&r) {
                                flagged.push(r);
                            }
                        }
                    }
                }
                let mut in_edge = false;
                for r in flagged {
                    let Some(rrec) = ssi.txns.get_mut(&r) else { continue };
                    // Skip only readers that committed before this writer
                    // began — a reader that committed *while* the writer
                    // was live is still concurrent (write skew hides
                    // exactly there). Writers begun while SSI was dormant
                    // have begin 0 and never skip (conservative).
                    if let Some(c) = rrec.committed {
                        if c <= begin {
                            continue;
                        }
                    }
                    rrec.out_conflict = true;
                    in_edge = true;
                    if rrec.in_conflict {
                        // Dangerous structure pivoting at the reader.
                        if rrec.committed.is_none() && !rrec.pseudo {
                            rrec.doomed = true;
                        } else {
                            doom_self = true;
                        }
                    }
                }
                if in_edge {
                    let rec = ssi.txns.entry(txn).or_default();
                    rec.in_conflict = true;
                    if rec.out_conflict {
                        doom_self = true;
                    }
                    if rec.writes.is_empty() {
                        rec.writes = writes.clone();
                    }
                } else if !writes.is_empty() {
                    let rec = ssi.txns.entry(txn).or_default();
                    for loc in &writes {
                        if !rec.writes.contains(loc) {
                            rec.writes.push(*loc);
                        }
                    }
                }
            }
        }
        if doom_self {
            return Err(self.ssi_abort(txn));
        }
        Ok(())
    }

    /// Claim-time SSI finalize (runs under the enrollment lock): stamp a
    /// committer's pending writer entries, retract an aborter's whole
    /// footprint, re-derive the GC floor, and clear everything once the
    /// database quiesces.
    pub(super) fn ssi_finalize(&self, txn: TxnId, fate: TermFate, quiesced: bool) {
        let mut ssi = self.ssi.lock();
        match fate {
            TermFate::Committed => {
                // `clock.load()` over-estimates the transaction's actual
                // fold stamp, which can only make readers flag it as
                // concurrent when it was not — conservative, never unsafe.
                let now = self.commit_clock.load(Ordering::SeqCst);
                let writes = match ssi.txns.get_mut(&txn) {
                    Some(rec)
                        if !rec.snapshot
                            && rec.writes.is_empty()
                            && rec.reads.is_empty()
                            && !rec.in_conflict
                            && !rec.out_conflict =>
                    {
                        // A classified transaction that committed without
                        // touching any SSI state (its record exists only
                        // for the begin stamp) carries no conflict
                        // information — drop it instead of letting one
                        // record per transaction pile up until quiescence.
                        ssi.txns.remove(&txn);
                        Vec::new()
                    }
                    Some(rec) => {
                        rec.committed = Some(now);
                        rec.writes.clone()
                    }
                    None => Vec::new(),
                };
                for loc in writes {
                    if let Some(entries) = ssi.writers.get_mut(&loc) {
                        for entry in entries.iter_mut() {
                            if entry.0 == txn && entry.1.is_none() {
                                entry.1 = Some(now);
                            }
                        }
                    }
                }
            }
            TermFate::Aborted(_) => {
                if let Some(rec) = ssi.txns.remove(&txn) {
                    for loc in rec.writes {
                        if let Some(entries) = ssi.writers.get_mut(&loc) {
                            entries.retain(|(w, _)| *w != txn);
                        }
                    }
                    for loc in rec.reads {
                        if let Some(readers) = ssi.sireads.get_mut(&loc) {
                            readers.retain(|r| *r != txn);
                        }
                    }
                }
            }
        }
        let floor = ssi
            .txns
            .values()
            .filter(|t| t.snapshot && t.committed.is_none())
            .map(|t| t.begin)
            .min();
        if quiesced && floor.is_none() {
            // Full quiescence: no live transactions at all. Drop every
            // record and close the gate — the next `begin_snapshot`
            // reopens it.
            ssi.txns.clear();
            ssi.sireads.clear();
            ssi.writers.clear();
            self.version_floor.store(u64::MAX, Ordering::SeqCst);
            self.ssi_enabled.store(0, Ordering::SeqCst);
        } else {
            // Raising the floor outside the termination lock is safe:
            // the new value is at or below every live snapshot's begin
            // stamp, so any fold that reads it preserves what they need.
            self.version_floor
                .store(floor.unwrap_or(u64::MAX), Ordering::SeqCst);
        }
    }
}
