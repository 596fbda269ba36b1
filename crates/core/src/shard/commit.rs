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
    ///
    /// Never waits for the log. A single-shard actual commit that
    /// appended a record returns that record's [`sbcc_wal::Durable`]
    /// beside the outcome, and the caller must not acknowledge
    /// `Committed` before it resolves. Multi-shard commits flush inline
    /// (`wal_log_multi`) and pseudo-commits make no durability promise,
    /// so both return `None`.
    pub fn commit(
        &self,
        txn: TxnId,
    ) -> Result<(CommitOutcome, Option<sbcc_wal::Durable>), CoreError> {
        let enrolled = self.live_shards(txn, "commit")?;
        // SSI commit-entry gate: decide dangerous structures and publish
        // the writer entries *before* any shard applies the commit (a
        // pseudo-commit is a promise, so nothing may be vetoed after it).
        self.ssi_commit_entry(txn, &enrolled)?;
        match enrolled.len() {
            0 => {
                // The transaction never touched an object: a trivially
                // empty commit.
                self.terminate(txn, TermFate::Committed);
                Ok((CommitOutcome::Committed, None))
            }
            1 => {
                let shard = enrolled[0];
                let (result, fx) = {
                    let mut kernel = self.lock_shard(shard);
                    let result = kernel.commit_logged(txn);
                    let fx = drain_fx(&mut kernel);
                    (result, fx)
                };
                match &result {
                    Ok((CommitOutcome::Committed, _)) => {
                        self.terminate(txn, TermFate::Committed);
                    }
                    Ok((CommitOutcome::PseudoCommitted { .. }, _)) => {
                        if let Some(rec) = self.enroll.lock().live.get_mut(&txn) {
                            rec.pseudo = true;
                        }
                        self.ssi.mark_pseudo(txn);
                        self.lifecycle.pseudo_commits.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {}
                }
                self.absorb(shard, None, fx);
                let (outcome, ticket) = result?;
                let durable = self.wal.get().zip(ticket).map(|(wal, t)| wal.durable(shard, t));
                Ok((outcome, durable))
            }
            _ => Ok((self.commit_multi(txn, &enrolled)?, None)),
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
                // Phase 2a: unanimous — apply the actual commit in
                // every shard.
                (fxs, _) = self.apply_coordinated(txn, enrolled, Some(ChaosPoint::VoteApply));
                CommitOutcome::Committed
            } else {
                // Phase 2b: outstanding dependencies — pseudo-commit in
                // every shard; re-voted when a shard's local out-degree
                // drops to zero.
                self.ssi.mark_pseudo(txn);
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
        let enrolled = self.live_shards(txn, "abort")?;
        self.abort_enrolled(txn, &enrolled, AbortReason::Explicit)
    }

    /// The prologue of every session-initiated termination: the shards a
    /// live transaction is enrolled in, or the error naming why `action`
    /// is refused (already pseudo-committed, terminated, or unknown).
    pub(super) fn live_shards(
        &self,
        txn: TxnId,
        action: &'static str,
    ) -> Result<Vec<u32>, CoreError> {
        let enroll = self.enroll.lock();
        match enroll.live.get(&txn) {
            Some(rec) if rec.pseudo => Err(CoreError::InvalidState {
                txn,
                state: TxnState::PseudoCommitted,
                action,
            }),
            Some(rec) => Ok(rec.shards.clone()),
            None => Err(Self::missing_txn_error(&enroll, txn, action)),
        }
    }

    /// Abort a live transaction for `reason` in every shard of `enrolled`
    /// (as returned by [`Self::live_shards`]). Only ever runs on the
    /// transaction's own session thread: an explicit abort, or the SSI
    /// guard refusing the operation in hand.
    pub(super) fn abort_enrolled(
        &self,
        txn: TxnId,
        enrolled: &[u32],
        reason: AbortReason,
    ) -> Result<(), CoreError> {
        let fate = TermFate::Aborted(reason);
        match *enrolled {
            [] => {
                self.terminate(txn, fate);
                Ok(())
            }
            [shard] => {
                let (result, fx) = {
                    let mut kernel = self.lock_shard(shard);
                    let result = kernel.abort_with(txn, reason);
                    let fx = drain_fx(&mut kernel);
                    (result, fx)
                };
                if result.is_ok() {
                    self.terminate(txn, fate);
                }
                self.absorb(shard, None, fx);
                result
            }
            _ => {
                let mut fxs: Vec<(u32, ShardFx)> = Vec::new();
                {
                    let _termination = self.termination.lock();
                    for &s in enrolled {
                        let mut kernel = self.lock_shard(s);
                        kernel.abort_coordinated(txn, reason);
                        let fx = drain_fx(&mut kernel);
                        drop(kernel);
                        fxs.push((s, fx));
                    }
                }
                self.terminate(txn, fate);
                for (shard, fx) in fxs {
                    self.absorb(shard, None, fx);
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Coordination internals
    // ------------------------------------------------------------------

    /// Terminate `txn` at the coordinator: claim the termination and, when
    /// this caller won it, count it. Returns the shards the transaction
    /// was enrolled in (`None`: another path already completed it).
    fn terminate(&self, txn: TxnId, fate: TermFate) -> Option<Vec<u32>> {
        let shards = self.claim(txn, fate)?;
        let counter = match fate {
            TermFate::Committed => &self.lifecycle.commits,
            TermFate::Aborted(AbortReason::DeadlockCycle) => &self.lifecycle.aborts_deadlock,
            TermFate::Aborted(AbortReason::CommitDependencyCycle) => {
                &self.lifecycle.aborts_commit_cycle
            }
            TermFate::Aborted(AbortReason::VictimSelected) => &self.lifecycle.aborts_victim,
            TermFate::Aborted(AbortReason::SsiConflict) => &self.lifecycle.aborts_ssi,
            TermFate::Aborted(AbortReason::Explicit) => &self.lifecycle.aborts_explicit,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(shards)
    }

    /// Claim a termination: atomically move the transaction from the live
    /// to the finished map. Exactly one caller wins; it is responsible for
    /// completing the termination in the transaction's other shards.
    fn claim(&self, txn: TxnId, fate: TermFate) -> Option<Vec<u32>> {
        let mut enroll = self.enroll.lock();
        let rec = enroll.live.remove(&txn)?;
        let state = match fate {
            TermFate::Committed => TxnState::Committed,
            TermFate::Aborted(_) => TxnState::Aborted,
        };
        enroll.finished.insert(txn, state);
        // Finalize under the enrollment lock (enroll → ssi is the one
        // permitted nesting): stamp or retract the transaction's SSI
        // footprint and clear everything at quiescence.
        self.ssi.finalize(txn, fate, enroll.live.is_empty());
        Some(rec.shards)
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
                let Some(shards) = self.terminate(txn, fate) else {
                    continue; // already completed by another path
                };
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

    /// Apply a decided (unanimous) multi-shard commit; the caller holds
    /// the termination lock, which keeps the per-shard commit orders of
    /// concurrent multi-shard commits consistent. Returns the side effects
    /// of the applications and whether this call won the termination.
    ///
    /// Durability first: the transaction's fragments and the cross-shard
    /// marker must be on disk before any shard applies the commit
    /// in-memory, or a crash between the per-shard applications could
    /// acknowledge state the log cannot reproduce. Then **one** stamp for
    /// every shard's fold: snapshot begins also serialize against the
    /// termination lock, so the multi-shard commit is atomic from every
    /// snapshot's point of view.
    ///
    /// `between` is the yield point announced before each per-shard
    /// application (the transaction is then committed in a prefix of its
    /// shards only). The direct vote names one; the re-vote passes `None`
    /// — its pinned DST schedules were recorded without it.
    fn apply_coordinated(
        &self,
        txn: TxnId,
        shards: &[u32],
        between: Option<ChaosPoint>,
    ) -> (Vec<(u32, ShardFx)>, bool) {
        self.wal_log_multi(txn, shards);
        let stamp = self.commit_clock.fetch_add(1, Ordering::SeqCst) + 1;
        let mut fxs = Vec::new();
        for &s in shards {
            if let Some(point) = between {
                chaos::reach(point, Some(txn));
            }
            let mut kernel = self.lock_shard(s);
            kernel.commit_coordinated(txn, stamp);
            let fx = drain_fx(&mut kernel);
            drop(kernel);
            fxs.push((s, fx));
        }
        let won = self.terminate(txn, TermFate::Committed).is_some();
        (fxs, won)
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
        // The session's pseudo-commit ack made no durability promise, so
        // nobody waits on the log here.
        let (fxs, won) = self.apply_coordinated(txn, &shards, None);
        if won {
            self.publish_events(vec![KernelEvent::Committed { txn }]);
        }
        fxs
    }
}
