//! The cross-shard termination protocol: commit (single-shard fast path
//! and the multi-shard vote), abort, the claim that makes each termination
//! happen exactly once, the side-effect fixpoint and the WAL hand-off of
//! multi-shard commits. The protocol itself is described in the
//! [module documentation](super).

use super::{drain_fx, ShardFx, ShardedKernel};
use crate::chaos::{self, ChaosPoint};
use crate::errors::CoreError;
use crate::events::{AbortReason, CommitOutcome, KernelEvent, RequestOutcome};
use crate::txn::{TxnId, TxnState};
use std::sync::atomic::Ordering;

/// How a transaction terminated (internal bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TermFate {
    Committed,
    Aborted(AbortReason),
}

impl ShardedKernel {
    // ------------------------------------------------------------------
    // Termination
    // ------------------------------------------------------------------

    /// Commit a transaction. Single-shard transactions take the unsharded
    /// fast path inside their shard; multi-shard transactions run the
    /// cross-shard vote described in the module documentation.
    pub fn commit(&self, txn: TxnId) -> Result<CommitOutcome, CoreError> {
        let enrolled: Vec<u32> = {
            let enroll = self.enroll.lock();
            match enroll.live.get(&txn) {
                Some(rec) => {
                    if rec.pseudo {
                        return Err(CoreError::InvalidState {
                            txn,
                            state: TxnState::PseudoCommitted,
                            action: "commit",
                        });
                    }
                    rec.shards.clone()
                }
                None => return Err(Self::missing_txn_error(&enroll, txn, "commit")),
            }
        };
        // SSI commit-entry gate: decide dangerous structures and publish
        // the writer entries *before* any shard applies the commit (a
        // pseudo-commit is a promise, so nothing may be vetoed after it).
        if self.ssi_enabled.load(Ordering::SeqCst) != 0 {
            self.ssi_commit_entry(txn, &enrolled)?;
        }
        match enrolled.len() {
            0 => {
                // The transaction never touched an object: a trivially
                // empty commit.
                if self.claim(txn, TermFate::Committed).is_some() {
                    self.count_termination(TermFate::Committed);
                }
                Ok(CommitOutcome::Committed)
            }
            1 => {
                let shard = enrolled[0];
                let (result, fx, wal_ticket) = {
                    let mut kernel = self.lock_shard(shard);
                    let result = kernel.commit(txn);
                    // The ticket must be read under the shard lock: it is
                    // assigned inside `actually_commit`.
                    let wal_ticket = kernel.wal_ticket_of(txn);
                    let fx = drain_fx(&mut kernel);
                    (result, fx, wal_ticket)
                };
                match &result {
                    Ok(CommitOutcome::Committed) => {
                        if self.claim(txn, TermFate::Committed).is_some() {
                            self.count_termination(TermFate::Committed);
                        }
                    }
                    Ok(CommitOutcome::PseudoCommitted { .. }) => {
                        if let Some(rec) = self.enroll.lock().live.get_mut(&txn) {
                            rec.pseudo = true;
                        }
                        self.ssi_mark_pseudo(txn);
                        self.lifecycle.pseudo_commits.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {}
                }
                self.absorb(shard, None, fx);
                // Durability gate: a `Committed` acknowledgement promises
                // the commit record is flushed per the fsync policy. Waits
                // only under group commit, after every lock is released —
                // other sessions keep executing while this one waits for
                // the flusher. (A `PseudoCommitted` acknowledgement makes
                // no durability promise: the record is appended later, by
                // whichever thread clears the last dependency.)
                if let (Some(wal), Some(ticket)) = (self.wal.get(), wal_ticket) {
                    wal.wait_durable(shard, ticket);
                }
                result
            }
            _ => self.commit_multi(txn, &enrolled),
        }
    }

    fn commit_multi(&self, txn: TxnId, enrolled: &[u32]) -> Result<CommitOutcome, CoreError> {
        let mut fxs: Vec<(u32, ShardFx)> = Vec::new();
        let outcome = {
            let _termination = self.termination.lock();
            // Phase 1: collect per-shard votes (local commit-dependency
            // out-neighbours). The transaction stays Active throughout —
            // it is coordinated, so it can neither be picked as a cycle
            // victim nor be terminated by anyone but this (its own
            // session's) thread.
            let mut deps: Vec<TxnId> = Vec::new();
            for &s in enrolled {
                // Between two per-shard vote collections: other sessions
                // can still execute/abort inside not-yet-peeked shards.
                chaos::reach(ChaosPoint::VotePeek, Some(txn));
                let kernel = self.peek_shard(s);
                match kernel.txn_state(txn) {
                    Some(TxnState::Active) => deps.extend(kernel.commit_dependencies_of(txn)),
                    Some(state) => {
                        return Err(CoreError::InvalidState {
                            txn,
                            state,
                            action: "commit",
                        })
                    }
                    None => return Err(CoreError::UnknownTransaction(txn)),
                }
            }
            deps.sort_unstable();
            deps.dedup();
            if deps.is_empty() {
                // Durability first: the transaction's fragments and the
                // cross-shard marker must be on disk before any shard
                // applies the commit in-memory, or a crash between the
                // per-shard applications could acknowledge state the log
                // cannot reproduce.
                self.wal_log_multi(txn, enrolled);
                // Phase 2a: unanimous — apply the actual commit shard by
                // shard (the termination lock keeps the per-shard commit
                // orders of concurrent multi-shard commits consistent).
                // One stamp for every shard's fold, drawn under the
                // termination lock: snapshot begins also serialize
                // against this lock, so the multi-shard commit is
                // atomic from every snapshot's point of view.
                let stamp = self.commit_clock.fetch_add(1, Ordering::SeqCst) + 1;
                for &s in enrolled {
                    // Between two per-shard applications the transaction
                    // is committed in a prefix of its shards only.
                    chaos::reach(ChaosPoint::VoteApply, Some(txn));
                    let mut kernel = self.lock_shard(s);
                    kernel.commit_coordinated(txn, stamp);
                    let fx = drain_fx(&mut kernel);
                    drop(kernel);
                    fxs.push((s, fx));
                }
                if self.claim(txn, TermFate::Committed).is_some() {
                    self.count_termination(TermFate::Committed);
                }
                CommitOutcome::Committed
            } else {
                // Phase 2b: outstanding dependencies — pseudo-commit in
                // every shard; re-voted when a shard's local out-degree
                // drops to zero.
                self.ssi_mark_pseudo(txn);
                for &s in enrolled {
                    let mut kernel = self.lock_shard(s);
                    let marked = kernel.pseudo_commit_coordinated(txn);
                    debug_assert!(marked, "coordinated pseudo-commit of a non-active txn");
                    // The dependencies this vote saw may have terminated
                    // while the per-shard locks were being taken; draining
                    // fx here picks up the immediate coordination-ready
                    // signal `pseudo_commit_coordinated` emits in that case
                    // (the re-vote runs in the absorb pass below, after the
                    // termination lock is released).
                    let fx = drain_fx(&mut kernel);
                    drop(kernel);
                    fxs.push((s, fx));
                }
                if let Some(rec) = self.enroll.lock().live.get_mut(&txn) {
                    rec.pseudo = true;
                }
                self.lifecycle.pseudo_commits.fetch_add(1, Ordering::Relaxed);
                CommitOutcome::PseudoCommitted { waiting_on: deps }
            }
        };
        for (shard, fx) in fxs {
            self.absorb(shard, None, fx);
        }
        Ok(outcome)
    }

    /// Explicitly abort an active or blocked transaction (all shards).
    pub fn abort(&self, txn: TxnId) -> Result<(), CoreError> {
        let enrolled: Vec<u32> = {
            let enroll = self.enroll.lock();
            match enroll.live.get(&txn) {
                Some(rec) => {
                    if rec.pseudo {
                        return Err(CoreError::InvalidState {
                            txn,
                            state: TxnState::PseudoCommitted,
                            action: "abort",
                        });
                    }
                    rec.shards.clone()
                }
                None => return Err(Self::missing_txn_error(&enroll, txn, "abort")),
            }
        };
        match enrolled.len() {
            0 => {
                if self.claim(txn, TermFate::Aborted(AbortReason::Explicit)).is_some() {
                    self.count_termination(TermFate::Aborted(AbortReason::Explicit));
                }
                Ok(())
            }
            1 => {
                let shard = enrolled[0];
                let (result, fx) = {
                    let mut kernel = self.lock_shard(shard);
                    let result = kernel.abort(txn);
                    let fx = drain_fx(&mut kernel);
                    (result, fx)
                };
                if result.is_ok()
                    && self.claim(txn, TermFate::Aborted(AbortReason::Explicit)).is_some()
                {
                    self.count_termination(TermFate::Aborted(AbortReason::Explicit));
                }
                self.absorb(shard, None, fx);
                result
            }
            _ => {
                let mut fxs: Vec<(u32, ShardFx)> = Vec::new();
                {
                    let _termination = self.termination.lock();
                    for &s in &enrolled {
                        let mut kernel = self.lock_shard(s);
                        kernel.abort_coordinated(txn, AbortReason::Explicit);
                        let fx = drain_fx(&mut kernel);
                        drop(kernel);
                        fxs.push((s, fx));
                    }
                }
                if self.claim(txn, TermFate::Aborted(AbortReason::Explicit)).is_some() {
                    self.count_termination(TermFate::Aborted(AbortReason::Explicit));
                }
                for (shard, fx) in fxs {
                    self.absorb(shard, None, fx);
                }
                Ok(())
            }
        }
    }

    /// Abort `txn` with [`AbortReason::SsiConflict`] in every shard it is
    /// enrolled in; returns the session-facing error. Mirrors
    /// [`Self::abort`] (the transaction is live and not pseudo-committed:
    /// dangerous structures are decided strictly before commit entry).
    pub(super) fn ssi_abort(&self, txn: TxnId) -> CoreError {
        let reason = AbortReason::SsiConflict;
        let fate = TermFate::Aborted(reason);
        let enrolled: Vec<u32> = self
            .enroll
            .lock()
            .live
            .get(&txn)
            .map(|r| r.shards.clone())
            .unwrap_or_default();
        match enrolled.len() {
            0 => {
                if self.claim(txn, fate).is_some() {
                    self.count_termination(fate);
                }
            }
            1 => {
                let shard = enrolled[0];
                let (result, fx) = {
                    let mut kernel = self.lock_shard(shard);
                    let result = kernel.abort_with(txn, reason);
                    let fx = drain_fx(&mut kernel);
                    (result, fx)
                };
                if result.is_ok() && self.claim(txn, fate).is_some() {
                    self.count_termination(fate);
                }
                self.absorb(shard, None, fx);
            }
            _ => {
                let mut fxs: Vec<(u32, ShardFx)> = Vec::new();
                {
                    let _termination = self.termination.lock();
                    for &s in &enrolled {
                        let mut kernel = self.lock_shard(s);
                        kernel.abort_coordinated(txn, reason);
                        let fx = drain_fx(&mut kernel);
                        drop(kernel);
                        fxs.push((s, fx));
                    }
                }
                if self.claim(txn, fate).is_some() {
                    self.count_termination(fate);
                }
                for (shard, fx) in fxs {
                    self.absorb(shard, None, fx);
                }
            }
        }
        CoreError::Aborted { txn, reason }
    }

    // ------------------------------------------------------------------
    // Coordination internals
    // ------------------------------------------------------------------

    /// Claim a termination: atomically move the transaction from the live
    /// to the finished map. Exactly one caller wins; it is responsible for
    /// the lifecycle counters and for completing the termination in the
    /// transaction's other shards.
    fn claim(&self, txn: TxnId, fate: TermFate) -> Option<Vec<u32>> {
        let mut enroll = self.enroll.lock();
        let rec = enroll.live.remove(&txn)?;
        let state = match fate {
            TermFate::Committed => TxnState::Committed,
            TermFate::Aborted(_) => TxnState::Aborted,
        };
        enroll.finished.insert(txn, state);
        if self.ssi_enabled.load(Ordering::SeqCst) != 0 {
            // Finalize under the enrollment lock (enroll → ssi is the
            // one permitted nesting): stamp or retract the transaction's
            // SSI footprint and clear everything at quiescence.
            self.ssi_finalize(txn, fate, enroll.live.is_empty());
        }
        Some(rec.shards)
    }

    fn count_termination(&self, fate: TermFate) {
        let counter = match fate {
            TermFate::Committed => &self.lifecycle.commits,
            TermFate::Aborted(AbortReason::DeadlockCycle) => &self.lifecycle.aborts_deadlock,
            TermFate::Aborted(AbortReason::CommitDependencyCycle) => {
                &self.lifecycle.aborts_commit_cycle
            }
            TermFate::Aborted(AbortReason::VictimSelected) => &self.lifecycle.aborts_victim,
            TermFate::Aborted(AbortReason::SsiConflict) => &self.lifecycle.aborts_ssi,
            TermFate::Aborted(AbortReason::UndeclaredAccess) => {
                &self.lifecycle.aborts_undeclared
            }
            TermFate::Aborted(AbortReason::Explicit) => &self.lifecycle.aborts_explicit,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Process the side effects of a shard pass to fixpoint: forward the
    /// events, complete cross-shard terminations (a kernel only ever
    /// terminates a transaction locally), and re-run commit votes for
    /// coordinated transactions whose local dependencies cleared.
    pub(super) fn absorb(&self, origin: u32, requester: Option<(TxnId, AbortReason)>, fx: ShardFx) {
        // Fast path: nothing happened (no events, no coordination, no
        // requester abort) — the common case for every commuting request.
        if requester.is_none() && fx.events.is_empty() && fx.ready.is_empty() {
            return;
        }
        let mut pending: Vec<(u32, ShardFx)> = vec![(origin, fx)];
        let mut terminations: Vec<(TxnId, TermFate, u32)> = Vec::new();
        let mut ready: Vec<TxnId> = Vec::new();
        if let Some((txn, reason)) = requester {
            terminations.push((txn, TermFate::Aborted(reason), origin));
        }
        loop {
            while let Some((shard, fx)) = pending.pop() {
                for event in &fx.events {
                    match event {
                        KernelEvent::Aborted { txn, reason } => {
                            terminations.push((*txn, TermFate::Aborted(*reason), shard));
                        }
                        KernelEvent::Committed { txn } => {
                            terminations.push((*txn, TermFate::Committed, shard));
                        }
                        KernelEvent::Unblocked {
                            txn,
                            outcome: RequestOutcome::Aborted { reason },
                        } => {
                            terminations.push((*txn, TermFate::Aborted(*reason), shard));
                        }
                        KernelEvent::Unblocked { .. } => {}
                    }
                }
                ready.extend(fx.ready);
                self.publish_events(fx.events);
            }
            if let Some((txn, fate, origin_shard)) = terminations.pop() {
                let Some(shards) = self.claim(txn, fate) else {
                    continue; // already completed by another path
                };
                self.count_termination(fate);
                if let TermFate::Aborted(reason) = fate {
                    // Aborts of multi-shard transactions originate in one
                    // shard (the requester's own thread, or a retry in the
                    // shard holding its pending request); complete them in
                    // the other shards.
                    for s in shards {
                        if s == origin_shard {
                            continue;
                        }
                        let mut kernel = self.lock_shard(s);
                        if kernel.abort_coordinated(txn, reason) {
                            let fx = drain_fx(&mut kernel);
                            drop(kernel);
                            pending.push((s, fx));
                        }
                    }
                }
                continue;
            }
            if let Some(txn) = ready.pop() {
                pending.extend(self.vote(txn));
                continue;
            }
            break;
        }
    }

    /// Make a decided multi-shard commit durable **before** any shard
    /// applies it in-memory: append each enrolled shard's fragment (tagged
    /// with a shared group id), flush every fragment, then append + flush
    /// the cross-shard marker. Recovery replays a fragment only when its
    /// marker is durable, so a crash anywhere inside this sequence loses
    /// the transaction *atomically* — the marker is written strictly after
    /// every fragment, making "marker without a fragment" unrepresentable
    /// on disk.
    ///
    /// Runs under the termination lock (both callers hold it), so the
    /// fragments' append order against other multi-shard commits matches
    /// their in-memory commit order. Marks the transaction `wal_logged` in
    /// every shard so the per-shard `actually_commit` does not log it
    /// again.
    fn wal_log_multi(&self, txn: TxnId, shards: &[u32]) {
        let Some(wal) = self.wal.get() else { return };
        let mut payloads: Vec<(u32, Vec<sbcc_wal::LoggedOp>)> = Vec::new();
        for &s in shards {
            let mut kernel = self.peek_shard(s);
            let ops = kernel.wal_payload(txn);
            kernel.mark_wal_logged(txn);
            drop(kernel);
            if !ops.is_empty() {
                payloads.push((s, ops));
            }
        }
        if payloads.is_empty() {
            return; // nothing executed anywhere: nothing to make durable
        }
        let gid = wal.next_gid();
        for (s, ops) in &payloads {
            wal.append_commit(*s, Some(gid), ops);
        }
        for (s, _) in &payloads {
            // A crash between two of these flushes leaves a fragment
            // durable without its marker; recovery must drop it.
            chaos::reach(ChaosPoint::WalFlush, Some(txn));
            wal.flush_shard(*s);
        }
        wal.commit_marker(gid);
    }

    /// Re-run the commit vote for a coordinated pseudo-committed
    /// transaction; on a unanimous (empty) dependency union, apply its
    /// actual commit shard by shard. Returns the side effects of the
    /// applications.
    fn vote(&self, txn: TxnId) -> Vec<(u32, ShardFx)> {
        // A `drain_coordination_ready` re-vote is starting: the window
        // between the original pseudo-commit vote and this re-vote is
        // where dependency settles and victim aborts interleave.
        chaos::reach(ChaosPoint::ReVote, Some(txn));
        let _termination = self.termination.lock();
        let shards: Vec<u32> = {
            let enroll = self.enroll.lock();
            match enroll.live.get(&txn) {
                Some(rec) if rec.pseudo => rec.shards.clone(),
                _ => return Vec::new(), // already terminated or not pseudo yet
            }
        };
        for &s in &shards {
            if !self.peek_shard(s).commit_dependencies_of(txn).is_empty() {
                return Vec::new(); // still waiting; a later settle re-votes
            }
        }
        // Same durability-before-visibility step as the direct unanimous
        // vote in `commit_multi` (the session's pseudo-commit ack made no
        // durability promise, so nobody waits on this).
        self.wal_log_multi(txn, &shards);
        // Like the direct unanimous vote: one stamp for every shard's
        // fold, drawn under the termination lock.
        let stamp = self.commit_clock.fetch_add(1, Ordering::SeqCst) + 1;
        let mut fxs = Vec::new();
        for &s in &shards {
            let mut kernel = self.lock_shard(s);
            kernel.commit_coordinated(txn, stamp);
            let fx = drain_fx(&mut kernel);
            drop(kernel);
            fxs.push((s, fx));
        }
        if self.claim(txn, TermFate::Committed).is_some() {
            self.count_termination(TermFate::Committed);
            self.publish_events(vec![KernelEvent::Committed { txn }]);
        }
        fxs
    }
}
