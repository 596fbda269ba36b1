//! Managed objects: the per-object state the paper's *object managers* keep.
//!
//! Each object manager maintains an execution log of uncommitted operations
//! on its object (Section 4) plus a queue of blocked requests. Conflict
//! classification happens against that log using the object's compatibility
//! tables (through the erased [`SemanticObject`] interface). Recovery is the
//! intentions list of Section 4.4: results are computed against the
//! committed state plus the requester's own logged operations, a commit
//! folds them into the committed state and an abort discards them.
//!
//! # Indexed classification
//!
//! The paper's Figure-2 algorithm classifies every incoming operation
//! against *every* uncommitted operation in the log. The naive
//! implementation (retained as [`ManagedObject::classify_naive`], the
//! reference for differential tests) walks the whole log per request. The
//! production path instead maintains:
//!
//! * a **log index** keyed by `(transaction, operation kind)`, holding for
//!   each bucket the count of parameterless entries and the multiset of
//!   distinct distinguishing parameters — so a request touches each
//!   distinct `(transaction, kind, parameter-relation)` class once instead
//!   of each log entry; and
//! * a **classification memo**: a dense `[kind × kind × relation]` matrix
//!   caching the [`SemanticObject::classify`] verdicts, filled lazily. The
//!   memo is sound because classification is state-independent and
//!   *parameter-relational* (the `Yes-SP` / `Yes-DP` refinement only
//!   inspects whether the distinguishing parameters are equal, different,
//!   or not comparable — exactly the paper's "state-independent, but
//!   parameter-dependent" restriction; see [`SemanticObject::classify`]).
//!
//! With `T` live transactions on the object, `K` operation kinds and `L`
//! log entries, a classification costs `O(T·K)` table lookups instead of
//! `O(L)` full semantic classifications — and `L` grows with transaction
//! length and contention while `T·K` stays small and bounded.

use crate::policy::{ConflictPolicy, RecoveryStrategy};
use crate::txn::TxnId;
use sbcc_adt::{Compatibility, OpCall, OpResult, SemanticObject, Value};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Identifier of a registered object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

/// One uncommitted operation in an object's execution log.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// The transaction that executed the operation.
    pub txn: TxnId,
    /// Global execution sequence number.
    pub seq: u64,
    /// The operation.
    pub call: OpCall,
    /// The result that was returned to the transaction.
    pub result: OpResult,
}

/// A blocked operation request waiting in an object's queue.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedRequest {
    /// The blocked transaction.
    pub txn: TxnId,
    /// The operation it wants to execute.
    pub call: OpCall,
}

/// Summary of classifying a requested operation against an object's log
/// (and, under fair scheduling, its blocked queue).
///
/// Both lists are sorted by transaction id and free of duplicates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Classification {
    /// Transactions holding at least one uncommitted operation the request
    /// is neither commutative with nor recoverable relative to. Non-empty
    /// means the requester must wait (or abort on a cycle).
    pub conflicts: Vec<TxnId>,
    /// Transactions holding at least one uncommitted operation the request
    /// is recoverable relative to (but does not commute with). Executing the
    /// request creates commit-dependency edges to these transactions.
    pub commit_deps: Vec<TxnId>,
}

impl Classification {
    /// `true` when the request can execute immediately with no commit
    /// dependencies (everything commutes).
    pub fn is_free(&self) -> bool {
        self.conflicts.is_empty() && self.commit_deps.is_empty()
    }
}

/// How the distinguishing parameters of a requested and an executed call
/// relate — the only parameter information a (parameter-relational)
/// classification may depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParamRelation {
    /// At least one side has no distinguishing parameter.
    Incomparable = 0,
    /// Both present and equal.
    Equal = 1,
    /// Both present and different.
    Different = 2,
}

fn param_relation(requested: &OpCall, executed: &OpCall) -> ParamRelation {
    match (
        requested.distinguishing_param(),
        executed.distinguishing_param(),
    ) {
        (Some(a), Some(b)) if a == b => ParamRelation::Equal,
        (Some(_), Some(_)) => ParamRelation::Different,
        _ => ParamRelation::Incomparable,
    }
}

/// Lazily filled `[kind × kind × relation]` cache of raw
/// [`SemanticObject::classify`] verdicts.
#[derive(Debug, Clone)]
struct ClassifyMemo {
    arity: usize,
    cells: Vec<[Option<Compatibility>; 3]>,
}

impl ClassifyMemo {
    fn new(arity: usize) -> Self {
        ClassifyMemo {
            arity,
            cells: vec![[None; 3]; arity * arity],
        }
    }

    fn classify(
        &mut self,
        object: &dyn SemanticObject,
        requested: &OpCall,
        executed: &OpCall,
    ) -> Compatibility {
        let rel = param_relation(requested, executed);
        debug_assert!(
            requested.kind < self.arity && executed.kind < self.arity,
            "operation kind out of range for {} ({} kinds)",
            object.type_name(),
            self.arity
        );
        let idx = requested.kind * self.arity + executed.kind;
        let slot = &mut self.cells[idx][rel as usize];
        if let Some(c) = *slot {
            return c;
        }
        let c = object.classify(requested, executed);
        *slot = Some(c);
        c
    }

    /// Look up the verdict for `(requested.kind, executed_kind, rel)`
    /// directly. The representative executed call is only materialised on
    /// a memo **miss** — on a hit (the overwhelming majority once the
    /// table is warm) this is a pure array lookup with no `OpCall`
    /// construction or parameter clone.
    fn classify_rel(
        &mut self,
        object: &dyn SemanticObject,
        requested: &OpCall,
        executed_kind: usize,
        rel: ParamRelation,
        executed_rep: impl FnOnce() -> OpCall,
    ) -> Compatibility {
        debug_assert!(
            requested.kind < self.arity && executed_kind < self.arity,
            "operation kind out of range for {} ({} kinds)",
            object.type_name(),
            self.arity
        );
        let idx = requested.kind * self.arity + executed_kind;
        let slot = &mut self.cells[idx][rel as usize];
        if let Some(c) = *slot {
            return c;
        }
        let rep = executed_rep();
        debug_assert_eq!(
            param_relation(requested, &rep),
            rel,
            "representative call must realise the claimed parameter relation"
        );
        let c = object.classify(requested, &rep);
        *slot = Some(c);
        c
    }
}

/// Per-`(transaction, kind)` summary of the uncommitted log: how many
/// entries lack a distinguishing parameter, and the distinct parameters
/// (with multiplicities) of those that have one.
#[derive(Debug, Clone, Default)]
struct KindBucket {
    nullary: u32,
    params: HashMap<Value, u32>,
}

impl KindBucket {
    fn is_empty(&self) -> bool {
        self.nullary == 0 && self.params.is_empty()
    }

    /// Any parameter different from `p`, if one exists.
    fn param_other_than(&self, p: &Value) -> Option<&Value> {
        self.params.keys().find(|q| *q != p)
    }

    /// Any parameter at all, if one exists.
    fn any_param(&self) -> Option<&Value> {
        self.params.keys().next()
    }
}

/// The per-object state maintained by the kernel.
pub struct ManagedObject {
    id: ObjectId,
    name: String,
    /// Snapshot of the state at registration time (used by the history
    /// checker to replay committed transactions from scratch).
    initial: Box<dyn SemanticObject>,
    /// State reflecting exactly the committed transactions.
    committed: Box<dyn SemanticObject>,
    /// Commit stamp of the last fold that changed `committed` (0 before any
    /// commit). Snapshot reads with a begin stamp at or above this value are
    /// answered from `committed` directly.
    committed_stamp: u64,
    /// Historical committed states, ascending by stamp: entry `(s, state)`
    /// is the committed state that became current at stamp `s` (and was
    /// superseded by the next entry's stamp, or by `committed_stamp`).
    /// Maintained **lazily**: empty while no snapshot is live (the commit
    /// path passes `u64::MAX` as the watermark, which clears it), so the
    /// multi-version store costs nothing on snapshot-free workloads.
    history: Vec<(u64, Box<dyn SemanticObject>)>,
    /// Uncommitted operations, in execution order.
    log: Vec<LogEntry>,
    /// The log indexed by `(transaction, operation kind)`.
    index: HashMap<TxnId, HashMap<usize, KindBucket>>,
    /// Memoised classification verdicts (interior mutability: filling the
    /// cache is logically a read).
    memo: RefCell<ClassifyMemo>,
    /// Blocked requests, FIFO.
    blocked: VecDeque<BlockedRequest>,
}

impl fmt::Debug for ManagedObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ManagedObject")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("type", &self.committed.type_name())
            .field("log_len", &self.log.len())
            .field("blocked_len", &self.blocked.len())
            .finish()
    }
}

impl ManagedObject {
    /// Wrap a semantic object for management by the kernel.
    ///
    /// The fourth argument is ignored: the frozen `bench/` passes
    /// `RecoveryStrategy::IntentionsList` there (see [`RecoveryStrategy`]).
    pub fn new(
        id: ObjectId,
        name: impl Into<String>,
        object: Box<dyn SemanticObject>,
        _strategy: RecoveryStrategy,
    ) -> Self {
        let arity = object.op_names().len();
        ManagedObject {
            id,
            name: name.into(),
            initial: object.boxed_clone(),
            committed: object,
            committed_stamp: 0,
            history: Vec::new(),
            log: Vec::new(),
            index: HashMap::new(),
            memo: RefCell::new(ClassifyMemo::new(arity)),
            blocked: VecDeque::new(),
        }
    }

    /// The object's registration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The state at registration time.
    pub fn initial_state(&self) -> &dyn SemanticObject {
        self.initial.as_ref()
    }

    /// The state reflecting exactly the committed transactions.
    pub fn committed_state(&self) -> &dyn SemanticObject {
        self.committed.as_ref()
    }

    /// The uncommitted log entries (execution order).
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// Number of blocked requests queued on this object.
    pub fn blocked_len(&self) -> usize {
        self.blocked.len()
    }

    /// The blocked requests (FIFO order).
    pub fn blocked_queue(&self) -> &VecDeque<BlockedRequest> {
        &self.blocked
    }

    /// Raw memoised classification of `requested` against `executed`,
    /// before any policy demotion.
    fn raw_classify(&self, requested: &OpCall, executed: &OpCall) -> Compatibility {
        self.memo
            .borrow_mut()
            .classify(self.committed.as_ref(), requested, executed)
    }

    fn demote(policy: ConflictPolicy, c: Compatibility) -> Compatibility {
        match (policy, c) {
            (ConflictPolicy::CommutativityOnly, Compatibility::Recoverable) => {
                Compatibility::NonRecoverable
            }
            (_, c) => c,
        }
    }

    fn effective(
        &self,
        policy: ConflictPolicy,
        requested: &OpCall,
        executed: &OpCall,
    ) -> Compatibility {
        Self::demote(policy, self.raw_classify(requested, executed))
    }

    /// Policy-demoted verdict of `call` against one parameter-relation
    /// class of executed kind `kind`; the representative call is built
    /// only when the memo misses.
    fn rel_severity(
        &self,
        policy: ConflictPolicy,
        call: &OpCall,
        kind: usize,
        rel: ParamRelation,
        rep: impl FnOnce() -> OpCall,
    ) -> Compatibility {
        Self::demote(
            policy,
            self.memo
                .borrow_mut()
                .classify_rel(self.committed.as_ref(), call, kind, rel, rep),
        )
    }

    /// Worst-case (most restrictive) classification of `call` against one
    /// `(transaction, kind)` bucket, touching each parameter-relation class
    /// at most once (and, on a warm memo, performing no allocation at all).
    fn bucket_severity(
        &self,
        policy: ConflictPolicy,
        call: &OpCall,
        kind: usize,
        bucket: &KindBucket,
    ) -> Compatibility {
        let mut severity = Compatibility::Commutative;
        match call.distinguishing_param() {
            None => {
                // Every entry of the bucket is in the Incomparable class
                // (SP/DP can never hold without a parameter on both sides).
                if !bucket.is_empty() {
                    severity =
                        self.rel_severity(policy, call, kind, ParamRelation::Incomparable, || {
                            if bucket.nullary > 0 {
                                OpCall::nullary(kind)
                            } else {
                                OpCall::unary(kind, bucket.any_param().expect("non-empty").clone())
                            }
                        });
                }
            }
            Some(p) => {
                if bucket.nullary > 0 {
                    severity = severity.max(self.rel_severity(
                        policy,
                        call,
                        kind,
                        ParamRelation::Incomparable,
                        || OpCall::nullary(kind),
                    ));
                }
                if severity < Compatibility::NonRecoverable && bucket.params.contains_key(p) {
                    severity = severity.max(self.rel_severity(
                        policy,
                        call,
                        kind,
                        ParamRelation::Equal,
                        || OpCall::unary(kind, p.clone()),
                    ));
                }
                if severity < Compatibility::NonRecoverable {
                    if let Some(q) = bucket.param_other_than(p) {
                        severity = severity.max(self.rel_severity(
                            policy,
                            call,
                            kind,
                            ParamRelation::Different,
                            || OpCall::unary(kind, q.clone()),
                        ));
                    }
                }
            }
        }
        severity
    }

    /// Worst-case classification of `call` against every bucket of one
    /// transaction's index entry, stopping at the first conflict.
    fn kinds_severity(
        &self,
        policy: ConflictPolicy,
        call: &OpCall,
        kinds: &HashMap<usize, KindBucket>,
    ) -> Compatibility {
        let mut severity = Compatibility::Commutative;
        for (kind, bucket) in kinds {
            if bucket.is_empty() {
                continue;
            }
            severity = severity.max(self.bucket_severity(policy, call, *kind, bucket));
            if severity == Compatibility::NonRecoverable {
                break;
            }
        }
        severity
    }

    /// Worst-case classification of `call` against the uncommitted
    /// operations `holder` logged on this object (`Commutative` when it
    /// logged none): the verdict [`Self::classify`] reaches for `holder`
    /// from the log alone.
    pub(crate) fn severity_against(
        &self,
        policy: ConflictPolicy,
        call: &OpCall,
        holder: TxnId,
    ) -> Compatibility {
        self.index
            .get(&holder)
            .map_or(Compatibility::Commutative, |kinds| {
                self.kinds_severity(policy, call, kinds)
            })
    }

    /// The fair-scheduling rule of Section 5.2: add to `conflicts` every
    /// other transaction in `fairness_extra` whose pending call conflicts
    /// with `call` under `verdict(requested, executed)`.
    ///
    /// Fairness is a *symmetric* conflict test between two pending
    /// requests: the incoming request waits if either order of the two
    /// operations would be non-recoverable. This is what stops an incoming
    /// operation from overtaking (and thereby starving) a blocked request
    /// it conflicts with — e.g. a new reader behind a blocked writer under
    /// commutativity, or a new writer behind a blocked reader under
    /// recoverability.
    fn add_fairness_conflicts(
        txn: TxnId,
        call: &OpCall,
        fairness_extra: &[(TxnId, OpCall)],
        conflicts: &mut Vec<TxnId>,
        verdict: impl Fn(&OpCall, &OpCall) -> Compatibility,
    ) {
        for (other, other_call) in fairness_extra {
            if *other == txn {
                continue;
            }
            let incoming_after_blocked = verdict(call, other_call);
            let blocked_after_incoming = verdict(other_call, call);
            if (incoming_after_blocked == Compatibility::NonRecoverable
                || blocked_after_incoming == Compatibility::NonRecoverable)
                && !conflicts.contains(other)
            {
                conflicts.push(*other);
            }
        }
    }

    /// Sort both lists and drop from `commit_deps` every transaction that
    /// must be waited on anyway.
    fn finish(mut conflicts: Vec<TxnId>, mut commit_deps: Vec<TxnId>) -> Classification {
        conflicts.sort_unstable();
        commit_deps.retain(|t| conflicts.binary_search(t).is_err());
        commit_deps.sort_unstable();
        Classification {
            conflicts,
            commit_deps,
        }
    }

    /// Classify `call`, requested by `txn`, against the uncommitted
    /// operations of **other** transactions in the log.
    ///
    /// Under [`ConflictPolicy::CommutativityOnly`] a `Recoverable`
    /// classification is demoted to a conflict, which is exactly how the
    /// baseline protocol behaves.
    ///
    /// If `fairness_extra` is non-empty those `(transaction, call)` pairs
    /// (typically the object's blocked queue) are also checked: a conflict
    /// with any of them blocks the request even though they have not
    /// executed (the fair-scheduling rule of Section 5.2).
    ///
    /// This is the indexed hot path; it is differentially tested against
    /// [`Self::classify_naive`]. It is the single-call specialisation of
    /// [`Self::classify_many`] — kept as a direct implementation (no
    /// group-shaped intermediate vectors) because every kernel request
    /// runs through it; `classify_many_matches_per_call_classification`
    /// pins the two to identical verdicts.
    pub fn classify(
        &self,
        policy: ConflictPolicy,
        txn: TxnId,
        call: &OpCall,
        fairness_extra: &[(TxnId, OpCall)],
    ) -> Classification {
        let mut conflicts: Vec<TxnId> = Vec::new();
        let mut commit_deps: Vec<TxnId> = Vec::new();

        for (other, kinds) in &self.index {
            if *other == txn {
                continue;
            }
            match self.kinds_severity(policy, call, kinds) {
                Compatibility::NonRecoverable => conflicts.push(*other),
                Compatibility::Recoverable => commit_deps.push(*other),
                Compatibility::Commutative => {}
            }
        }
        Self::add_fairness_conflicts(txn, call, fairness_extra, &mut conflicts, |a, b| {
            self.effective(policy, a, b)
        });
        Self::finish(conflicts, commit_deps)
    }

    /// Classify a whole *group* of calls, all requested by `txn`, against
    /// the uncommitted operations of other transactions — in **one pass**
    /// over the `(transaction, kind, parameter-relation)` log index.
    ///
    /// Per-call classification walks the index once per call; a
    /// transaction's batch of `B` calls therefore traverses it `B` times.
    /// This method traverses each `(transaction, kind)` bucket exactly once
    /// and scores every call of the group against it, so a batch pays one
    /// index walk (plus one walk of the fairness set) regardless of its
    /// size. Calls are taken by reference so batch planning never clones
    /// operation payloads. The verdict for each call is identical to what
    /// [`Self::classify`] would return on it.
    pub fn classify_many(
        &self,
        policy: ConflictPolicy,
        txn: TxnId,
        calls: &[&OpCall],
        fairness_extra: &[(TxnId, OpCall)],
    ) -> Vec<Classification> {
        let mut conflicts: Vec<Vec<TxnId>> = vec![Vec::new(); calls.len()];
        let mut commit_deps: Vec<Vec<TxnId>> = vec![Vec::new(); calls.len()];

        // Buckets are the outer loop: each `(transaction, kind)` bucket is
        // visited exactly once and every call of the group is scored
        // against it while it is hot. Per-call severities accumulate in a
        // reused scratch vector; a call that has already reached
        // `NonRecoverable` against this transaction skips further buckets
        // (mirroring the early exit of the single-call path — `max` is
        // order-insensitive, so the verdicts are identical).
        let mut severities: Vec<Compatibility> = Vec::with_capacity(calls.len());
        for (other, kinds) in &self.index {
            if *other == txn {
                continue;
            }
            severities.clear();
            severities.resize(calls.len(), Compatibility::Commutative);
            for (kind, bucket) in kinds {
                if bucket.is_empty() {
                    continue;
                }
                for (ci, call) in calls.iter().enumerate() {
                    if severities[ci] == Compatibility::NonRecoverable {
                        continue;
                    }
                    severities[ci] =
                        severities[ci].max(self.bucket_severity(policy, call, *kind, bucket));
                }
            }
            for (ci, severity) in severities.iter().enumerate() {
                match severity {
                    Compatibility::NonRecoverable => conflicts[ci].push(*other),
                    Compatibility::Recoverable => commit_deps[ci].push(*other),
                    Compatibility::Commutative => {}
                }
            }
        }
        for (call, conflicts) in calls.iter().zip(&mut conflicts) {
            Self::add_fairness_conflicts(txn, call, fairness_extra, conflicts, |a, b| {
                self.effective(policy, a, b)
            });
        }
        conflicts
            .into_iter()
            .zip(commit_deps)
            .map(|(conflicts, commit_deps)| Self::finish(conflicts, commit_deps))
            .collect()
    }

    /// The pre-index reference implementation of [`Self::classify`]: a
    /// linear walk of the whole log, calling the semantic classification
    /// for every entry. Retained (and kept behaviourally identical) as the
    /// oracle for differential tests; not used on the hot path.
    pub fn classify_naive(
        &self,
        policy: ConflictPolicy,
        txn: TxnId,
        call: &OpCall,
        fairness_extra: &[(TxnId, OpCall)],
    ) -> Classification {
        let mut conflicts: Vec<TxnId> = Vec::new();
        let mut commit_deps: Vec<TxnId> = Vec::new();

        for entry in &self.log {
            if entry.txn == txn {
                continue;
            }
            match Self::demote(policy, self.committed.classify(call, &entry.call)) {
                Compatibility::Commutative => {}
                Compatibility::Recoverable => {
                    if !commit_deps.contains(&entry.txn) {
                        commit_deps.push(entry.txn);
                    }
                }
                Compatibility::NonRecoverable => {
                    if !conflicts.contains(&entry.txn) {
                        conflicts.push(entry.txn);
                    }
                }
            }
        }
        Self::add_fairness_conflicts(txn, call, fairness_extra, &mut conflicts, |a, b| {
            Self::demote(policy, self.committed.classify(a, b))
        });
        Self::finish(conflicts, commit_deps)
    }

    fn index_insert(&mut self, txn: TxnId, call: &OpCall) {
        let bucket = self
            .index
            .entry(txn)
            .or_default()
            .entry(call.kind)
            .or_default();
        match call.distinguishing_param() {
            Some(p) => *bucket.params.entry(p.clone()).or_insert(0) += 1,
            None => bucket.nullary += 1,
        }
    }

    /// Execute an admitted operation for `txn`: compute its result against
    /// the committed state plus `txn`'s own earlier operations on this
    /// object, and append it to the log (and the log index).
    pub fn execute(&mut self, txn: TxnId, seq: u64, call: OpCall) -> OpResult {
        let mut probe = self.committed.boxed_clone();
        for entry in self.log.iter().filter(|e| e.txn == txn) {
            let _ = probe.apply(&entry.call);
        }
        let result = probe.apply(&call);
        self.index_insert(txn, &call);
        self.log.push(LogEntry {
            txn,
            seq,
            call,
            result: result.clone(),
        });
        result
    }

    /// Fold all of `txn`'s logged operations into the committed state (in
    /// execution order) and drop them from the log. Called at *actual*
    /// commit, which the commit protocol guarantees happens in
    /// commit-dependency order.
    ///
    /// `stamp` is the transaction's global commit stamp; `watermark` is the
    /// begin stamp of the oldest live snapshot (`u64::MAX` when none is
    /// live). When a snapshot is live the superseded committed state is
    /// preserved in the version history before folding; versions no
    /// snapshot can still reach are pruned and counted in the return value.
    pub fn commit_txn(&mut self, txn: TxnId, stamp: u64, watermark: u64) -> u64 {
        if !self.index.contains_key(&txn) {
            // No operations on this object (the transaction only ever
            // blocked here): the committed state does not change, so no
            // version is created.
            return 0;
        }
        let mut pruned = 0u64;
        if watermark == u64::MAX {
            // No live snapshot can reach any historical version.
            pruned = self.history.len() as u64;
            self.history.clear();
        } else if stamp > self.committed_stamp {
            self.history
                .push((self.committed_stamp, self.committed.boxed_clone()));
            // Keep the newest entry at or below the watermark (the floor
            // version every live snapshot ≥ watermark may still read) plus
            // everything newer; drop the rest.
            if let Some(pos) = self.history.iter().rposition(|(s, _)| *s <= watermark) {
                pruned = pos as u64;
                self.history.drain(..pos);
            }
        }
        // An out-of-order fold (stamp ≤ committed_stamp — a coordinated
        // commit whose stamp was drawn before a later single-shard commit
        // folded first) skips the push: begin stamps are serialized against
        // coordinated commits by the termination lock, so no live or future
        // snapshot stamp can fall between the two folds and distinguish the
        // superseded state.
        let mut remaining = Vec::with_capacity(self.log.len());
        for entry in self.log.drain(..) {
            if entry.txn == txn {
                let folded = self.committed.apply(&entry.call);
                debug_assert_eq!(
                    folded, entry.result,
                    "soundness violation: folding {} for {} produced a different result",
                    entry.call, entry.txn
                );
            } else {
                remaining.push(entry);
            }
        }
        self.log = remaining;
        self.index.remove(&txn);
        self.committed_stamp = self.committed_stamp.max(stamp);
        // The classification memo stays valid: classification is
        // state-independent by contract.
        pruned
    }

    /// Stamp of the last commit that folded operations into this object
    /// (0 before any commit).
    pub fn committed_stamp(&self) -> u64 {
        self.committed_stamp
    }

    /// Number of historical versions currently retained (excluding
    /// `committed` itself).
    pub fn version_depth(&self) -> usize {
        self.history.len()
    }

    /// Drop every historical version no snapshot at or above `watermark`
    /// can still reach, returning how many were pruned. `u64::MAX` clears
    /// the whole history (no live snapshots).
    pub fn prune_versions(&mut self, watermark: u64) -> u64 {
        if watermark == u64::MAX {
            let pruned = self.history.len() as u64;
            self.history.clear();
            return pruned;
        }
        match self.history.iter().rposition(|(s, _)| *s <= watermark) {
            Some(pos) => {
                self.history.drain(..pos);
                pos as u64
            }
            None => 0,
        }
    }

    /// Apply a **readonly** call to the version current at `stamp` and
    /// return its result. Readonly calls never mutate by the
    /// [`SemanticObject::is_readonly`] contract (pinned by the ADT test
    /// suite), so the stored version is applied to in place without a
    /// defensive clone.
    pub fn read_at(&mut self, stamp: u64, call: &OpCall) -> OpResult {
        debug_assert!(
            self.committed.is_readonly(call),
            "snapshot read of non-readonly call {call}"
        );
        if stamp >= self.committed_stamp {
            return self.committed.apply(call);
        }
        match self.history.iter_mut().rev().find(|(s, _)| *s <= stamp) {
            Some((_, state)) => state.apply(call),
            None => self.initial.apply(call),
        }
    }

    /// Remove all of `txn`'s logged operations (abort): discarding the
    /// intentions is the whole undo, and it never touches the effects of
    /// later, recoverable operations of other transactions.
    pub fn abort_txn(&mut self, txn: TxnId) {
        if self.index.remove(&txn).is_some() {
            self.log.retain(|e| e.txn != txn);
        }
    }

    /// Append a blocked request to the FIFO queue.
    pub fn push_blocked(&mut self, txn: TxnId, call: OpCall) {
        self.blocked.push_back(BlockedRequest { txn, call });
    }

    /// Remove the blocked request belonging to `txn`, if any.
    pub fn remove_blocked(&mut self, txn: TxnId) -> Option<BlockedRequest> {
        let idx = self.blocked.iter().position(|r| r.txn == txn)?;
        self.blocked.remove(idx)
    }

    /// Drain the blocked queue (used by the kernel's retry loop).
    pub fn take_blocked(&mut self) -> Vec<BlockedRequest> {
        self.blocked.drain(..).collect()
    }

    /// The `(transaction, call)` pairs of the current blocked queue, used as
    /// the fairness set for new incoming requests.
    pub fn blocked_pairs(&self) -> Vec<(TxnId, OpCall)> {
        self.blocked
            .iter()
            .map(|r| (r.txn, r.call.clone()))
            .collect()
    }

    /// `true` when `txn` holds at least one uncommitted operation in this
    /// object's log.
    pub fn has_ops_of(&self, txn: TxnId) -> bool {
        self.index.contains_key(&txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbcc_adt::{AdtObject, AdtOp, Stack, StackOp, Value};

    fn stack_object() -> ManagedObject {
        ManagedObject::new(
            ObjectId(0),
            "s",
            Box::new(AdtObject::new(Stack::new())),
            RecoveryStrategy::IntentionsList,
        )
    }

    fn push(v: i64) -> OpCall {
        StackOp::Push(Value::Int(v)).to_call()
    }

    fn pop() -> OpCall {
        StackOp::Pop.to_call()
    }

    fn top() -> OpCall {
        StackOp::Top.to_call()
    }

    #[test]
    fn object_id_display() {
        assert_eq!(ObjectId(3).to_string(), "O3");
    }

    #[test]
    fn classification_distinguishes_conflicts_and_commit_deps() {
        let mut obj = stack_object();
        obj.execute(TxnId(1), 1, push(4));
        // Requested by T2: another push is recoverable -> commit dep on T1.
        let c = obj.classify(ConflictPolicy::Recoverability, TxnId(2), &push(2), &[]);
        assert_eq!(c.conflicts, vec![]);
        assert_eq!(c.commit_deps, vec![TxnId(1)]);
        assert!(!c.is_free());
        // A pop requested by T2 conflicts with T1's uncommitted push.
        let c = obj.classify(ConflictPolicy::Recoverability, TxnId(2), &pop(), &[]);
        assert_eq!(c.conflicts, vec![TxnId(1)]);
        assert!(c.commit_deps.is_empty());
        // T1's own operations never conflict with its next request.
        let c = obj.classify(ConflictPolicy::Recoverability, TxnId(1), &pop(), &[]);
        assert!(c.is_free());
    }

    #[test]
    fn commutativity_only_policy_demotes_recoverable_to_conflict() {
        let mut obj = stack_object();
        obj.execute(TxnId(1), 1, push(4));
        let c = obj.classify(ConflictPolicy::CommutativityOnly, TxnId(2), &push(2), &[]);
        assert_eq!(c.conflicts, vec![TxnId(1)]);
        assert!(c.commit_deps.is_empty());
    }

    #[test]
    fn conflicting_holder_is_not_also_a_commit_dependency() {
        let mut obj = stack_object();
        // T1 executes a top (recoverable target for pushes) and a push.
        obj.execute(TxnId(1), 1, top());
        obj.execute(TxnId(1), 2, push(1));
        // A pop by T2 conflicts with T1's push and is recoverable relative
        // to T1's top; T1 must appear only in `conflicts`.
        let c = obj.classify(ConflictPolicy::Recoverability, TxnId(2), &pop(), &[]);
        assert_eq!(c.conflicts, vec![TxnId(1)]);
        assert!(c.commit_deps.is_empty());
    }

    #[test]
    fn fairness_extra_requests_can_block() {
        let obj = stack_object();
        // Empty log, but a blocked pop by T1 is ahead; an incoming pop by T2
        // conflicts with it.
        let fairness = vec![(TxnId(1), pop())];
        let c = obj.classify(ConflictPolicy::Recoverability, TxnId(2), &pop(), &fairness);
        assert_eq!(c.conflicts, vec![TxnId(1)]);
        // An incoming push also waits: executing it would further delay the
        // blocked pop (the fairness test is symmetric).
        let c = obj.classify(
            ConflictPolicy::Recoverability,
            TxnId(2),
            &push(5),
            &fairness,
        );
        assert_eq!(c.conflicts, vec![TxnId(1)]);
        // ... while a blocked top does not hold up an incoming top.
        let c = obj.classify(
            ConflictPolicy::Recoverability,
            TxnId(2),
            &top(),
            &[(TxnId(1), top())],
        );
        assert!(c.conflicts.is_empty());
        // a transaction is never blocked behind its own queued request
        let c = obj.classify(ConflictPolicy::Recoverability, TxnId(1), &pop(), &fairness);
        assert!(c.conflicts.is_empty());
    }

    #[test]
    fn indexed_and_naive_classification_agree_on_scripted_logs() {
        for policy in [
            ConflictPolicy::Recoverability,
            ConflictPolicy::CommutativityOnly,
        ] {
            let mut obj = stack_object();
            obj.execute(TxnId(1), 1, push(1));
            obj.execute(TxnId(1), 2, top());
            obj.execute(TxnId(2), 3, push(2));
            obj.execute(TxnId(3), 4, pop());
            obj.execute(TxnId(3), 5, push(3));
            let fairness = vec![(TxnId(4), pop()), (TxnId(5), top())];
            for call in [push(1), push(9), pop(), top()] {
                for requester in [TxnId(1), TxnId(2), TxnId(6)] {
                    let fast = obj.classify(policy, requester, &call, &fairness);
                    let slow = obj.classify_naive(policy, requester, &call, &fairness);
                    assert_eq!(fast, slow, "policy {policy:?} call {call} by {requester}");
                }
            }
        }
    }

    #[test]
    fn severity_against_one_holder_matches_its_classification() {
        let mut obj = stack_object();
        obj.execute(TxnId(1), 1, push(1));
        obj.execute(TxnId(1), 2, top());
        obj.execute(TxnId(2), 3, top());
        obj.execute(TxnId(3), 4, pop());
        for policy in [
            ConflictPolicy::Recoverability,
            ConflictPolicy::CommutativityOnly,
        ] {
            for call in [push(1), push(9), pop(), top()] {
                let c = obj.classify(policy, TxnId(9), &call, &[]);
                for holder in [TxnId(1), TxnId(2), TxnId(3), TxnId(4)] {
                    let expected = if c.conflicts.contains(&holder) {
                        Compatibility::NonRecoverable
                    } else if c.commit_deps.contains(&holder) {
                        Compatibility::Recoverable
                    } else {
                        Compatibility::Commutative
                    };
                    assert_eq!(
                        obj.severity_against(policy, &call, holder),
                        expected,
                        "policy {policy:?} call {call} against {holder}"
                    );
                }
            }
        }
    }

    #[test]
    fn classify_many_matches_per_call_classification() {
        let mut obj = stack_object();
        obj.execute(TxnId(1), 1, push(1));
        obj.execute(TxnId(1), 2, top());
        obj.execute(TxnId(2), 3, push(2));
        obj.execute(TxnId(3), 4, pop());
        let fairness = vec![(TxnId(4), pop()), (TxnId(5), top())];
        let group = [push(1), push(9), pop(), top()];
        let group_refs: Vec<&OpCall> = group.iter().collect();
        for policy in [
            ConflictPolicy::Recoverability,
            ConflictPolicy::CommutativityOnly,
        ] {
            for requester in [TxnId(1), TxnId(2), TxnId(6)] {
                let grouped = obj.classify_many(policy, requester, &group_refs, &fairness);
                assert_eq!(grouped.len(), group.len());
                for (call, grouped) in group.iter().zip(&grouped) {
                    let single = obj.classify(policy, requester, call, &fairness);
                    assert_eq!(
                        grouped, &single,
                        "policy {policy:?} call {call} by {requester}"
                    );
                }
            }
        }
        assert!(obj
            .classify_many(ConflictPolicy::Recoverability, TxnId(9), &[], &fairness)
            .is_empty());
    }

    #[test]
    fn intentions_list_results_ignore_other_transactions() {
        let mut obj = stack_object();
        // T1 pushes 4; T2 pushes 2; both see "ok", and the committed state
        // stays empty until commit.
        assert_eq!(obj.execute(TxnId(1), 1, push(4)), OpResult::Ok);
        assert_eq!(obj.execute(TxnId(2), 2, push(2)), OpResult::Ok);
        assert_eq!(obj.log().len(), 2);
        // T1's own pop (intentions view) sees its own push only.
        assert_eq!(
            obj.execute(TxnId(1), 3, pop()),
            OpResult::Value(Value::Int(4))
        );
        // committed state still empty
        assert!(obj.committed_state().state_eq(obj.initial_state()));
    }

    #[test]
    fn abort_discards_only_the_aborting_transactions_effects() {
        let mut obj = stack_object();
        obj.execute(TxnId(1), 1, push(4));
        obj.execute(TxnId(2), 2, push(2));
        obj.abort_txn(TxnId(1));
        assert_eq!(obj.log().len(), 1);
        obj.commit_txn(TxnId(2), 1, u64::MAX);
        let committed = obj
            .committed_state()
            .as_any()
            .downcast_ref::<AdtObject<Stack>>()
            .expect("stack object");
        assert_eq!(
            committed.inner().items(),
            &[Value::Int(2)],
            "only T2's push survives"
        );
        // aborting a transaction with no operations is a no-op
        obj.abort_txn(TxnId(9));
    }

    #[test]
    fn blocked_queue_operations() {
        let mut obj = stack_object();
        assert_eq!(obj.blocked_len(), 0);
        obj.push_blocked(TxnId(1), pop());
        obj.push_blocked(TxnId(2), top());
        assert_eq!(obj.blocked_len(), 2);
        assert_eq!(obj.blocked_pairs().len(), 2);
        assert_eq!(obj.blocked_queue().len(), 2);
        let removed = obj.remove_blocked(TxnId(1)).expect("present");
        assert_eq!(removed.txn, TxnId(1));
        assert_eq!(obj.remove_blocked(TxnId(1)), None);
        let drained = obj.take_blocked();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].txn, TxnId(2));
        assert_eq!(obj.blocked_len(), 0);
    }

    #[test]
    fn holders_lists_each_transaction_once() {
        let mut obj = stack_object();
        obj.execute(TxnId(1), 1, push(1));
        obj.execute(TxnId(1), 2, push(2));
        obj.execute(TxnId(2), 3, push(3));
        assert!(obj.has_ops_of(TxnId(1)) && obj.has_ops_of(TxnId(2)));
        assert_eq!(obj.log().len(), 3);
        assert!(format!("{obj:?}").contains("log_len"));
        assert_eq!(obj.name(), "s");
    }

    fn counter_object() -> ManagedObject {
        ManagedObject::new(
            ObjectId(1),
            "c",
            Box::new(AdtObject::new(sbcc_adt::Counter::new())),
            RecoveryStrategy::IntentionsList,
        )
    }

    fn inc(n: i64) -> OpCall {
        sbcc_adt::CounterOp::Increment(n).to_call()
    }

    fn read() -> OpCall {
        sbcc_adt::CounterOp::Read.to_call()
    }

    #[test]
    fn version_chain_reads_each_stamp() {
        let mut obj = counter_object();
        // Three commits at stamps 2, 5, 9 with a snapshot watermark of 0
        // (everything retained).
        for (txn, stamp, amount) in [(1u64, 2u64, 10i64), (2, 5, 100), (3, 9, 1000)] {
            obj.execute(TxnId(txn), stamp, inc(amount));
            obj.commit_txn(TxnId(txn), stamp, 0);
        }
        assert_eq!(obj.committed_stamp(), 9);
        assert_eq!(obj.version_depth(), 3);
        // Every begin stamp sees exactly the commits at or below it.
        for (stamp, expected) in [
            (0u64, 0i64),
            (1, 0),
            (2, 10),
            (4, 10),
            (5, 110),
            (8, 110),
            (9, 1110),
            (100, 1110),
        ] {
            assert_eq!(
                obj.read_at(stamp, &read()),
                OpResult::Value(Value::Int(expected)),
                "read at stamp {stamp}"
            );
        }
    }

    #[test]
    fn commit_prunes_versions_below_the_watermark() {
        let mut obj = counter_object();
        for (txn, stamp) in [(1u64, 1u64), (2, 2), (3, 3)] {
            obj.execute(TxnId(txn), stamp, inc(1));
            obj.commit_txn(TxnId(txn), stamp, 0);
        }
        assert_eq!(obj.version_depth(), 3);
        // Oldest live snapshot now at 2: the floor version (stamp 2's
        // predecessor... the newest entry ≤ 2) must survive, older ones go.
        obj.execute(TxnId(4), 4, inc(1));
        let pruned = obj.commit_txn(TxnId(4), 4, 2);
        assert_eq!(pruned, 2, "entries at stamps 0 and 1 are unreachable");
        assert_eq!(obj.version_depth(), 2);
        // A snapshot at the watermark still reads correctly.
        assert_eq!(obj.read_at(2, &read()), OpResult::Value(Value::Int(2)));
        assert_eq!(obj.read_at(3, &read()), OpResult::Value(Value::Int(3)));
        // No live snapshots: the next commit clears the whole history.
        obj.execute(TxnId(5), 5, inc(1));
        assert_eq!(obj.commit_txn(TxnId(5), 5, u64::MAX), 2);
        assert_eq!(obj.version_depth(), 0);
    }

    #[test]
    fn explicit_prune_and_stampless_commit() {
        let mut obj = counter_object();
        for (txn, stamp) in [(1u64, 1u64), (2, 2)] {
            obj.execute(TxnId(txn), stamp, inc(1));
            obj.commit_txn(TxnId(txn), stamp, 0);
        }
        assert_eq!(obj.version_depth(), 2);
        assert_eq!(obj.prune_versions(1), 1);
        assert_eq!(obj.prune_versions(1), 0, "idempotent");
        assert_eq!(obj.read_at(1, &read()), OpResult::Value(Value::Int(1)));
        assert_eq!(obj.prune_versions(u64::MAX), 1);
        assert_eq!(obj.version_depth(), 0);
        // Committing a transaction with no operations on the object neither
        // bumps the stamp nor creates a version.
        assert_eq!(obj.commit_txn(TxnId(9), 50, 0), 0);
        assert_eq!(obj.committed_stamp(), 2);
    }

    #[test]
    fn out_of_order_fold_skips_the_push_and_keeps_the_stamp() {
        let mut obj = counter_object();
        // A single-shard commit folds at stamp 5 first...
        obj.execute(TxnId(1), 1, inc(10));
        obj.commit_txn(TxnId(1), 5, 0);
        // ... then a coordinated commit whose stamp 3 was drawn earlier.
        obj.execute(TxnId(2), 2, inc(100));
        obj.commit_txn(TxnId(2), 3, 0);
        assert_eq!(obj.committed_stamp(), 5, "stamp never goes backwards");
        assert_eq!(obj.version_depth(), 1, "out-of-order fold pushes nothing");
        // Reachable begin stamps (b < 3 and b ≥ 5) read correctly.
        assert_eq!(obj.read_at(2, &read()), OpResult::Value(Value::Int(0)));
        assert_eq!(obj.read_at(5, &read()), OpResult::Value(Value::Int(110)));
    }

    #[test]
    fn index_tracks_commits_and_aborts() {
        let mut obj = stack_object();
        obj.execute(TxnId(1), 1, push(1));
        obj.execute(TxnId(2), 2, push(2));
        obj.commit_txn(TxnId(1), 1, u64::MAX);
        assert!(!obj.has_ops_of(TxnId(1)) && obj.has_ops_of(TxnId(2)));
        // After T1 committed, a pop by T3 depends only on T2.
        let c = obj.classify(ConflictPolicy::Recoverability, TxnId(3), &pop(), &[]);
        assert_eq!(c.conflicts, vec![TxnId(2)]);
        obj.abort_txn(TxnId(2));
        assert!(obj.log().is_empty());
        let c = obj.classify(ConflictPolicy::Recoverability, TxnId(3), &pop(), &[]);
        assert!(c.is_free());
    }
}
