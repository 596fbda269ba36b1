//! The coordinator's SSI guard: Cahill-style rw-antidependency tracking
//! between snapshot readers and concurrent writers, the snapshot read
//! path that feeds it and the version-GC floor it maintains.
//!
//! Everything the guard knows lives in one [`SsiTable`]; the rest of the
//! coordinator reaches it only through the table's entry points and the
//! two pieces of glue at the bottom of this file
//! ([`ShardedKernel::snapshot_read`], [`ShardedKernel::ssi_commit_entry`]),
//! which add the shard-lock passes the table itself must never make.

use super::commit::TermFate;
use super::{ObjectLoc, ShardedKernel};
use crate::chaos::{self, sync::Mutex, ChaosPoint};
use crate::errors::CoreError;
use crate::events::{AbortReason, RequestOutcome};
use crate::txn::TxnId;
use sbcc_adt::OpCall;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// SSI record of one transaction.
///
/// The flags are **sticky**: once a transaction acquires an in- or
/// out-conflict it keeps it for life. A transaction with *both* flags is
/// the pivot of a dangerous structure and must not commit; the check runs
/// at snapshot-read time and at commit entry (never later — a
/// pseudo-commit is a promise to commit, so everything is decided before
/// it).
#[derive(Debug, Default)]
struct SsiTxn {
    /// Begin stamp: the value of the global commit clock when the
    /// transaction began. Classified transactions are stamped too (while
    /// SSI is enabled) so the committed-reader skip test at commit entry
    /// can tell a reader that finished *before* this transaction existed
    /// from a truly concurrent one; `0` (transaction begun while SSI was
    /// dormant) keeps the test fully conservative.
    begin: u64,
    /// `true` for transactions begun through
    /// [`ShardedKernel::begin_snapshot`].
    snapshot: bool,
    /// Someone holds an rw-antidependency *into* this transaction (a
    /// concurrent reader read a version this transaction overwrote), or a
    /// conservative approximation of one.
    in_conflict: bool,
    /// This transaction holds an rw-antidependency *out of* itself (it
    /// snapshot-read a version a concurrent transaction overwrote).
    out_conflict: bool,
    /// A dangerous structure formed around this live transaction while it
    /// was not in hand; it aborts itself at its next SSI interaction.
    doomed: bool,
    /// Commit stamp, set at claim time (a clock over-estimate, which can
    /// only flag more readers than strictly necessary — never fewer).
    committed: Option<u64>,
    /// The transaction pseudo-committed: it is guaranteed to commit and
    /// can no longer be chosen as the dangerous-structure victim.
    pseudo: bool,
    /// Objects this transaction snapshot-read (SIREAD cleanup list).
    reads: Vec<ObjectLoc>,
    /// Objects this transaction's commit writes (writer-entry cleanup
    /// list).
    writes: Vec<ObjectLoc>,
}

#[derive(Debug, Default)]
struct SsiState {
    txns: HashMap<TxnId, SsiTxn>,
    /// SIREAD marks: per object, the snapshot transactions that read it.
    sireads: HashMap<ObjectLoc, Vec<TxnId>>,
    /// Writer entries: per object, transactions whose commit writes it.
    /// `None` = pending (commit entered but the fold's stamp is not final
    /// yet — readers must conservatively treat it as concurrent);
    /// `Some(stamp)` = committed at (at most) `stamp`.
    writers: HashMap<ObjectLoc, Vec<(TxnId, Option<u64>)>>,
}

impl SsiState {
    /// The smallest begin stamp over live snapshot transactions.
    fn oldest_live_snapshot(&self) -> Option<u64> {
        self.txns
            .values()
            .filter(|t| t.snapshot && t.committed.is_none())
            .map(|t| t.begin)
            .min()
    }
}

/// Why the table turned an SSI interaction down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SsiRefusal {
    /// The transaction has no (snapshot) record: it terminated
    /// concurrently, or never was a snapshot transaction.
    Unknown,
    /// The transaction is the pivot of a dangerous structure (or the only
    /// abortable participant of one); the caller aborts it with
    /// [`AbortReason::SsiConflict`].
    Doomed,
}

/// The SSI bookkeeping: SIREAD marks, writer entries and per-transaction
/// conflict flags behind one small mutex, the lock-free gate in front of
/// it, and the version-GC floor derived from it.
///
/// The mutex is only ever touched while at least one snapshot transaction
/// is (or recently was) live: every entry point except
/// [`SsiTable::begin_snapshot`] checks the gate with a single atomic load
/// first, and the whole state clears — closing the gate — at quiescence
/// (no live transactions at all), so purely classified workloads pay one
/// load per call and nothing else.
///
/// **Lock order:** the enrollment lock may be held when calling
/// [`SsiTable::finalize`] (claim time); shard locks and the table's mutex
/// are **never** held together — callers read what they need from a shard
/// (write sets, object stamps), release it, and only then come here.
#[derive(Debug)]
pub(super) struct SsiTable {
    /// Non-zero while snapshot transactions may be live.
    enabled: AtomicU64,
    state: Mutex<SsiState>,
    /// The global commit clock (shared with the coordinator and every
    /// shard kernel); only ever read here.
    clock: Arc<AtomicU64>,
    /// The version-GC floor, shared with every shard kernel: the minimum
    /// begin stamp over live snapshot transactions (`u64::MAX` when none
    /// are live, letting commits drop superseded versions immediately).
    /// Only this table stores to it.
    floor: Arc<AtomicU64>,
}

impl SsiTable {
    pub(super) fn new(clock: Arc<AtomicU64>) -> Self {
        SsiTable {
            enabled: AtomicU64::new(0),
            state: Mutex::new(SsiState::default()),
            clock,
            floor: Arc::new(AtomicU64::new(u64::MAX)),
        }
    }

    /// The floor cell, for [`crate::SchedulerKernel::attach_stamps`].
    pub(super) fn floor_handle(&self) -> Arc<AtomicU64> {
        self.floor.clone()
    }

    /// The current version-GC floor (`u64::MAX` when no snapshot is live).
    pub(super) fn floor(&self) -> u64 {
        self.floor.load(Ordering::SeqCst)
    }

    /// The gate: `true` while snapshot transactions may be live.
    #[inline]
    pub(super) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst) != 0
    }

    /// A classified transaction begins. The caller has already inserted it
    /// into the live enrollment set, so the quiescence sweep (which
    /// requires an empty live set) can never clear this record out from
    /// under it.
    #[inline]
    pub(super) fn begin(&self, id: TxnId) {
        if !self.enabled() {
            return;
        }
        // Stamp the begin while snapshots are live: the SIREAD scan at
        // commit entry skips readers that committed at or below this
        // stamp (they finished before this transaction did anything, so
        // no rw-antidependency between concurrent transactions can
        // involve them). Without the stamp a committed-but-flagged
        // reader's marks would doom every later writer that touches its
        // read set until full quiescence — retried transactions would
        // starve in an abort storm.
        let begin = self.clock.load(Ordering::SeqCst);
        self.state.lock().txns.insert(
            id,
            SsiTxn {
                begin,
                ..SsiTxn::default()
            },
        );
    }

    /// A snapshot transaction begins: record it, publish the floor, open
    /// the gate and return the begin stamp. The caller holds the
    /// termination lock (see [`ShardedKernel::begin_snapshot`]).
    pub(super) fn begin_snapshot(&self, id: TxnId) -> u64 {
        let provisional = self.clock.load(Ordering::SeqCst);
        {
            let mut ssi = self.state.lock();
            ssi.txns.insert(
                id,
                SsiTxn {
                    begin: provisional,
                    snapshot: true,
                    ..SsiTxn::default()
                },
            );
            let floor = ssi.oldest_live_snapshot().unwrap_or(provisional);
            self.floor.store(floor, Ordering::SeqCst);
            self.enabled.store(1, Ordering::SeqCst);
        }
        // Re-read the clock *after* publishing the floor: every commit
        // folds by first drawing its stamp (`fetch_add`) and then loading
        // the floor, so in the SeqCst total order any fold stamped above
        // this begin loads the floor after the store above and prunes at
        // or below it — the version this snapshot needs can never be
        // dropped out from under it. (A fold stamped at or below the
        // begin may see the old floor, which is harmless: its result is
        // part of the snapshot.)
        let begin = self.clock.load(Ordering::SeqCst);
        if begin != provisional {
            self.state
                .lock()
                .txns
                .get_mut(&id)
                .expect("snapshot record was just inserted")
                .begin = begin;
        }
        begin
    }

    /// Gate a snapshot read: the transaction's begin stamp, or the reason
    /// it may not read (a dangerous structure formed around it while it
    /// was away — another pivot doomed it, or its own sticky flags
    /// closed).
    fn read_gate(&self, txn: TxnId) -> Result<u64, SsiRefusal> {
        let ssi = self.state.lock();
        match ssi.txns.get(&txn) {
            Some(r) if r.snapshot && (r.doomed || (r.in_conflict && r.out_conflict)) => {
                Err(SsiRefusal::Doomed)
            }
            Some(r) if r.snapshot => Ok(r.begin),
            _ => Err(SsiRefusal::Unknown),
        }
    }

    /// Install the SIREAD mark of a completed snapshot read and its
    /// rw-antidependency out-edges: every writer entry that is pending, or
    /// stamped above the begin, wrote a version this read did not see.
    fn mark_read(&self, txn: TxnId, loc: ObjectLoc, begin: u64) -> Result<(), SsiRefusal> {
        let mut doom_self = false;
        let mut ssi = self.state.lock();
        if !ssi.txns.contains_key(&txn) {
            // Terminated concurrently by an abort issued from another
            // thread.
            return Err(SsiRefusal::Unknown);
        }
        let flagged: Vec<TxnId> = ssi
            .writers
            .get(&loc)
            .map(|entries| {
                entries
                    .iter()
                    .filter(|(w, stamp)| *w != txn && stamp.is_none_or(|s| s > begin))
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
            let Some(wrec) = ssi.txns.get_mut(&w) else {
                continue;
            };
            wrec.in_conflict = true;
            if wrec.out_conflict {
                // Dangerous structure pivoting at the writer: a live
                // writer aborts itself at its next SSI interaction; an
                // unabortable one (pseudo- or fully committed) forces
                // this reader out instead.
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
        if doom_self {
            Err(SsiRefusal::Doomed)
        } else {
            Ok(())
        }
    }

    /// A classified operation of `txn` settled while the gate was open
    /// (`object_stamp` is the target's committed stamp, read under the
    /// same shard-lock hold as the request): a snapshot transaction that
    /// blocks, picks up commit dependencies, or classifies against an
    /// object some transaction committed into after the snapshot began is
    /// conservatively marked in-conflict (a concurrent transaction may
    /// have observed state this one is about to overwrite). Flags are
    /// sticky; enforcement happens at the next snapshot read or at commit
    /// entry.
    pub(super) fn note_classified(&self, txn: TxnId, outcome: &RequestOutcome, object_stamp: u64) {
        let mut ssi = self.state.lock();
        let Some(rec) = ssi.txns.get_mut(&txn) else {
            return;
        };
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

    /// Record that `txn` pseudo-committed: from here on it can no longer
    /// be chosen as a dangerous-structure victim (the in-hand transaction
    /// aborts instead).
    #[inline]
    pub(super) fn mark_pseudo(&self, txn: TxnId) {
        if !self.enabled() {
            return;
        }
        let mut ssi = self.state.lock();
        if let Some(rec) = ssi.txns.get_mut(&txn) {
            rec.pseudo = true;
        }
    }

    /// The commit-entry decision for a transaction about to commit
    /// `writes`: publish pending writer entries for the write set, scan
    /// the SIREAD marks of every written object for rw-antidependency
    /// in-edges, and doom the pivot of any dangerous structure this
    /// closes. `Err(Doomed)` when the pivot is `txn` itself or is
    /// unabortable.
    fn commit_entry(&self, txn: TxnId, writes: &[ObjectLoc]) -> Result<(), SsiRefusal> {
        let mut doom_self = false;
        let mut ssi = self.state.lock();
        let (snapshot, begin) = match ssi.txns.get(&txn) {
            Some(r) => {
                if r.snapshot && (r.doomed || (r.in_conflict && r.out_conflict)) {
                    doom_self = true;
                }
                (r.snapshot, r.begin)
            }
            None => (false, 0),
        };
        if !doom_self && (!writes.is_empty() || snapshot) {
            // Publish the writer entries *before* any fold: a concurrent
            // snapshot read between the fold and a later publication
            // would miss the rw-antidependency entirely. Entries stay
            // pending until claim time stamps them.
            for loc in writes {
                let entries = ssi.writers.entry(*loc).or_default();
                if !entries.iter().any(|(w, _)| *w == txn) {
                    entries.push((txn, None));
                }
            }
            let mut flagged: Vec<TxnId> = Vec::new();
            for loc in writes {
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
                let Some(rrec) = ssi.txns.get_mut(&r) else {
                    continue;
                };
                // Skip only readers that committed before this writer
                // began — a reader that committed *while* the writer was
                // live is still concurrent (write skew hides exactly
                // there). Writers begun while SSI was dormant have begin
                // 0 and never skip (conservative).
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
                    rec.writes = writes.to_vec();
                }
            } else if !writes.is_empty() {
                let rec = ssi.txns.entry(txn).or_default();
                for loc in writes {
                    if !rec.writes.contains(loc) {
                        rec.writes.push(*loc);
                    }
                }
            }
        }
        if doom_self {
            Err(SsiRefusal::Doomed)
        } else {
            Ok(())
        }
    }

    /// Claim-time finalize (the caller holds the enrollment lock): stamp a
    /// committer's pending writer entries, retract an aborter's whole
    /// footprint, re-derive the GC floor, and — when `quiesced` (no live
    /// transactions at all) — clear everything and close the gate.
    #[inline]
    pub(super) fn finalize(&self, txn: TxnId, fate: TermFate, quiesced: bool) {
        if !self.enabled() {
            return;
        }
        let mut ssi = self.state.lock();
        match fate {
            TermFate::Committed => {
                // `clock.load()` over-estimates the transaction's actual
                // fold stamp, which can only make readers flag it as
                // concurrent when it was not — conservative, never unsafe.
                let now = self.clock.load(Ordering::SeqCst);
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
        let floor = ssi.oldest_live_snapshot();
        if quiesced && floor.is_none() {
            // Full quiescence: drop every record and close the gate — the
            // next `begin_snapshot` reopens it.
            ssi.txns.clear();
            ssi.sireads.clear();
            ssi.writers.clear();
            self.floor.store(u64::MAX, Ordering::SeqCst);
            self.enabled.store(0, Ordering::SeqCst);
        } else {
            // Raising the floor outside the termination lock is safe:
            // the new value is at or below every live snapshot's begin
            // stamp, so any fold that reads it preserves what they need.
            self.floor
                .store(floor.unwrap_or(u64::MAX), Ordering::SeqCst);
        }
    }
}

impl ShardedKernel {
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
        let begin = self
            .ssi
            .read_gate(txn)
            .map_err(|refusal| self.ssi_refused(txn, refusal))?;
        chaos::reach(ChaosPoint::SnapshotRead, Some(txn));
        let result = {
            let mut kernel = self.lock_shard(loc.shard);
            kernel.snapshot_read(txn, loc.local, begin, call)?
        };
        let Some(result) = result else {
            return Ok(None);
        };
        chaos::reach(ChaosPoint::SsiEdge, Some(txn));
        self.ssi
            .mark_read(txn, loc, begin)
            .map_err(|refusal| self.ssi_refused(txn, refusal))?;
        Ok(Some(result))
    }

    /// SSI commit-entry gate, run **before** any shard applies the commit
    /// (a pseudo-commit is a promise, so nothing may be vetoed after it).
    /// Aborts `txn` (returning the error) when it pivots a dangerous
    /// structure or the pivot is unabortable.
    pub(super) fn ssi_commit_entry(&self, txn: TxnId, enrolled: &[u32]) -> Result<(), CoreError> {
        if !self.ssi.enabled() {
            return Ok(());
        }
        // Collect the write set first: shard locks and the table's lock
        // are never held together.
        let mut writes: Vec<ObjectLoc> = Vec::new();
        for &s in enrolled {
            for local in self.peek_shard(s).write_set(txn) {
                writes.push(ObjectLoc { shard: s, local });
            }
        }
        chaos::reach(ChaosPoint::SsiEdge, Some(txn));
        self.ssi
            .commit_entry(txn, &writes)
            .map_err(|refusal| self.ssi_refused(txn, refusal))
    }

    /// Turn a table refusal into the session-facing error: a doomed
    /// transaction is aborted in every shard it is enrolled in, a missing
    /// one surfaces the terminated-transaction error the classified path
    /// would produce.
    fn ssi_refused(&self, txn: TxnId, refusal: SsiRefusal) -> CoreError {
        match refusal {
            SsiRefusal::Doomed => {
                // Mirrors an explicit abort: dangerous structures are
                // decided strictly before commit entry, so the transaction
                // is live and not pseudo-committed.
                let reason = AbortReason::SsiConflict;
                if let Ok(enrolled) = self.live_shards(txn, "abort") {
                    let _ = self.abort_enrolled(txn, &enrolled, reason);
                }
                CoreError::Aborted { txn, reason }
            }
            SsiRefusal::Unknown => {
                let enroll = self.enroll.lock();
                Self::missing_txn_error(&enroll, txn, "snapshot-read")
            }
        }
    }

    /// The current version-GC floor: the smallest begin stamp of a live
    /// snapshot transaction, or `None` when none is live (commits then
    /// drop superseded versions immediately).
    pub fn oldest_snapshot_stamp(&self) -> Option<u64> {
        let floor = self.ssi.floor();
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
        let watermark = self.ssi.floor();
        self.shards
            .iter()
            .map(|cell| cell.kernel.lock().prune_versions(watermark))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectId;

    /// The gate opens with the first snapshot and closes — dropping every
    /// record and resetting the GC floor — only when the last live
    /// transaction of *any* kind terminates.
    #[test]
    fn table_self_disables_and_clears_at_quiescence() {
        let clock = Arc::new(AtomicU64::new(7));
        let table = SsiTable::new(clock.clone());
        let loc = ObjectLoc {
            shard: 0,
            local: ObjectId(0),
        };
        assert!(!table.enabled());
        // Dormant: a classified begin leaves no record behind.
        table.begin(TxnId(1));
        assert!(table.state.lock().txns.is_empty());
        table.finalize(TxnId(1), TermFate::Committed, true);

        let begin = table.begin_snapshot(TxnId(2));
        assert_eq!(begin, 7);
        assert!(table.enabled());
        assert_eq!(table.floor(), 7);
        // While enabled, classified transactions are stamped — but only
        // snapshot transactions may read through the gate.
        table.begin(TxnId(3));
        assert_eq!(table.read_gate(TxnId(3)), Err(SsiRefusal::Unknown));

        // T2 reads `loc`, T3 then commits a write to it: an rw edge
        // T2 → T3, recorded as a SIREAD mark and a writer entry.
        assert_eq!(table.read_gate(TxnId(2)), Ok(7));
        assert_eq!(table.mark_read(TxnId(2), loc, begin), Ok(()));
        assert_eq!(table.commit_entry(TxnId(3), &[loc]), Ok(()));
        clock.store(8, Ordering::SeqCst);
        table.finalize(TxnId(3), TermFate::Committed, false);
        {
            let state = table.state.lock();
            assert_eq!(state.sireads[&loc], vec![TxnId(2)]);
            assert_eq!(state.writers[&loc], vec![(TxnId(3), Some(8))]);
            assert!(state.txns[&TxnId(2)].out_conflict);
            assert!(state.txns[&TxnId(3)].in_conflict);
        }
        // A snapshot is still live: the gate and the floor hold.
        assert!(table.enabled());
        assert_eq!(table.floor(), 7);

        // The last live transaction leaves: everything clears.
        table.finalize(TxnId(2), TermFate::Committed, true);
        assert!(!table.enabled());
        assert_eq!(table.floor(), u64::MAX);
        assert_eq!(table.read_gate(TxnId(2)), Err(SsiRefusal::Unknown));
        let state = table.state.lock();
        assert!(state.txns.is_empty() && state.sireads.is_empty() && state.writers.is_empty());
    }
}
