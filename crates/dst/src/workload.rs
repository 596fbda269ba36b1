//! The simulated workload: N sync + M async counter sessions driven
//! through the baton scheduler, then judged by the house oracles.
//!
//! The workload is chosen to light up every seam the chaos points cover:
//! counters spread across shards make most transactions cross-shard
//! (multi-shard votes, dependency edges between shards), `Read` conflicts with
//! `Increment`/`Decrement` recoverably (commit dependencies →
//! pseudo-commits → `drain_coordination_ready` re-votes), explicit aborts
//! land inside vote windows, and async sessions cancel operation futures
//! mid-rendezvous. Everything a session does — shape, operands, fault
//! draws — comes from a per-session SplitMix64, so the run is a pure
//! function of the seed and the scheduler's pick sequence.

use sbcc_adt::{Counter, CounterOp};
use sbcc_core::chaos;
use sbcc_core::{
    AsyncDatabase, CoreError, Database, DatabaseConfig, Handle, SchedulerConfig, ShardCount,
    TxnId,
};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::hook::{DstHook, FaultPlan};
use crate::rng::SplitMix64;
use crate::sched::{Scheduler, TraceKind};
use crate::{DstConfig, RunReport, Verdict};

// The shape and fault rates of every simulated run. No caller ever varied
// them, and the pinned corpus seeds are byte-identical only at these
// values.

/// Thread-blocking sessions (driving [`Database`]).
const SYNC_SESSIONS: usize = 3;
/// Manually-polled async sessions (driving [`AsyncDatabase`] over the same
/// database).
const ASYNC_SESSIONS: usize = 2;
/// Transactions per session.
const TXNS_PER_SESSION: usize = 4;
/// Maximum operations per transaction (each draws 1..=this many).
const OPS_PER_TXN: usize = 3;
/// Number of registered counters (hashed across shards).
const OBJECTS: usize = 6;
/// Shard count (the resolved topology is also reported from the stats
/// snapshot).
const SHARDS: usize = 4;
/// Permille of manual sync transactions that explicitly abort instead of
/// committing (the mid-vote abort fault).
const ABORT_PERMILLE: u32 = 150;
/// Permille of async transactions that drop an operation future at a
/// seeded poll count (the cancellation-mid-rendezvous fault).
const CANCEL_PERMILLE: u32 = 200;
/// Permille of drained event batches delivered in permuted order.
const REORDER_PERMILLE: u32 = 250;
/// Virtual-time liveness deadline: yields before the run is declared hung.
pub const MAX_STEPS: usize = 50_000;
/// Retry budget handed to [`SchedulerConfig::max_retries`].
const MAX_RETRIES: usize = 10_000;
/// Wall-clock backstop for non-yielding livelocks.
const REAL_TIME_GUARD: Duration = Duration::from_secs(30);

/// Errors a fault-injecting run legitimately produces: scheduler aborts
/// (surfaced raw by the manual session style), the `InvalidState` a
/// cancelled async operation leaves its transaction in, and an exhausted
/// retry budget. Anything else — unknown transactions, unknown objects,
/// duplicate registrations — is a harness or kernel bug and fails the run.
fn tolerated(err: &CoreError) -> bool {
    matches!(
        err,
        CoreError::Aborted { .. }
            | CoreError::InvalidState { .. }
            | CoreError::RetriesExhausted { .. }
    )
}

struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

/// The op mix: reads conflict recoverably with increments, which is what
/// creates commit dependencies and pseudo-commits.
fn draw_op(rng: &mut SplitMix64) -> CounterOp {
    match rng.below(4) {
        0 => CounterOp::Read,
        1 => CounterOp::Decrement(1 + rng.below(3) as i64),
        _ => CounterOp::Increment(1 + rng.below(5) as i64),
    }
}

/// One planned transaction: which objects, which ops, and the faults to
/// fire. Drawn up-front so `Database::run` retries replay identical ops.
struct TxnPlan {
    ops: Vec<(usize, CounterOp)>,
    /// Sync style: `true` → the `db.run` closure runner, `false` → manual
    /// begin/exec/commit with explicit abort faults.
    via_runner: bool,
    /// Manual style only: explicitly abort instead of committing.
    abort: bool,
    /// Async only: cancel (drop) the op future at this 1-based poll count.
    cancel_at_poll: Option<(usize, u32)>,
}

fn plan_txn(rng: &mut SplitMix64, is_async: bool) -> TxnPlan {
    let n_ops = 1 + rng.below(OPS_PER_TXN);
    let ops: Vec<(usize, CounterOp)> = (0..n_ops)
        .map(|_| (rng.below(OBJECTS), draw_op(rng)))
        .collect();
    let via_runner = !is_async && rng.below(2) == 0;
    let abort = !via_runner && rng.permille(ABORT_PERMILLE);
    let cancel_at_poll = if is_async && rng.permille(CANCEL_PERMILLE) {
        Some((rng.below(n_ops), 1 + rng.below(3) as u32))
    } else {
        None
    };
    TxnPlan {
        ops,
        via_runner,
        abort,
        cancel_at_poll,
    }
}

/// A sync session: [`TXNS_PER_SESSION`] transactions, alternating between
/// the retrying closure runner and manual begin/exec/commit (the latter
/// fires explicit aborts into other transactions' vote windows).
fn sync_session(
    vt: usize,
    seed: u64,
    db: &Database,
    objects: &[Handle<Counter>],
    sched: &Scheduler,
    errors: &Mutex<Vec<String>>,
) {
    let mut rng = SplitMix64::new(seed ^ (vt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for _ in 0..TXNS_PER_SESSION {
        if sched.free_running() {
            return;
        }
        let plan = plan_txn(&mut rng, false);
        if plan.via_runner {
            let result = db.run(|txn| {
                for (obj, op) in &plan.ops {
                    txn.exec(&objects[*obj], op.clone())?;
                }
                Ok(())
            });
            if let Err(e) = result {
                if !tolerated(&e) {
                    errors.lock().unwrap().push(format!("vt{vt} runner: {e}"));
                }
            }
        } else {
            let txn = db.begin();
            let id = txn.id();
            let mut alive = true;
            for (obj, op) in &plan.ops {
                if let Err(e) = txn.exec(&objects[*obj], op.clone()) {
                    if !tolerated(&e) {
                        errors.lock().unwrap().push(format!("vt{vt} exec: {e}"));
                    }
                    alive = false;
                    break;
                }
            }
            if alive && plan.abort {
                // An injected fault: abort a healthy transaction, right
                // here — which, thanks to the vote-window yield points,
                // can land between another session's per-shard votes.
                sched.yield_turn(vt, TraceKind::FaultAbort { txn: id });
                let _ = txn.abort();
            } else if alive {
                if let Err(e) = txn.commit() {
                    if !tolerated(&e) {
                        errors.lock().unwrap().push(format!("vt{vt} commit: {e}"));
                    }
                }
            } else {
                drop(txn); // guard aborts whatever the scheduler left alive
            }
        }
    }
}

/// Drive `fut` to completion by manual polling, yielding a scheduler turn
/// between polls; optionally cancel (drop) it at poll `cancel_at`.
/// Returns `None` when cancelled or when the run went into free-run.
fn drive<F: std::future::Future>(
    fut: F,
    vt: usize,
    txn: TxnId,
    cancel_at: Option<u32>,
    sched: &Scheduler,
) -> Option<F::Output> {
    let waker = Waker::from(Arc::new(NoopWake));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    let mut polls: u32 = 0;
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return Some(out),
            Poll::Pending => {
                polls += 1;
                if cancel_at == Some(polls) {
                    // Cancellation mid-rendezvous: dropping the future
                    // unregisters the waiter (or discards a raced
                    // outcome) and aborts the unfinished transaction.
                    sched.yield_turn(vt, TraceKind::Cancel { txn });
                    return None;
                }
                if sched.free_running() {
                    return None; // abandon; the run already failed
                }
                sched.yield_turn(vt, TraceKind::Poll { txn, polls });
            }
        }
    }
}

/// An async session: same transaction shapes, driven as manually polled
/// futures with seeded cancellation faults.
fn async_session(
    vt: usize,
    seed: u64,
    db: &Database,
    objects: &[Handle<Counter>],
    sched: &Scheduler,
    errors: &Mutex<Vec<String>>,
) {
    let adb = AsyncDatabase::from_database(db.clone());
    let mut rng = SplitMix64::new(seed ^ (vt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for _ in 0..TXNS_PER_SESSION {
        if sched.free_running() {
            return;
        }
        let plan = plan_txn(&mut rng, true);
        let txn = adb.begin();
        let id = txn.id();
        let mut alive = true;
        for (i, (obj, op)) in plan.ops.iter().enumerate() {
            let cancel_at = match plan.cancel_at_poll {
                Some((op_idx, polls)) if op_idx == i => Some(polls),
                _ => None,
            };
            match drive(txn.exec(&objects[*obj], op.clone()), vt, id, cancel_at, sched) {
                Some(Ok(_)) => {}
                Some(Err(e)) => {
                    if !tolerated(&e) {
                        errors.lock().unwrap().push(format!("vt{vt} async exec: {e}"));
                    }
                    alive = false;
                    break;
                }
                None => {
                    // Cancelled (the drop glue aborted the transaction)
                    // or free-running; either way this transaction is
                    // done.
                    alive = false;
                    break;
                }
            }
        }
        if alive {
            match drive(txn.commit(), vt, id, None, sched) {
                Some(Err(e)) if !tolerated(&e) => {
                    errors.lock().unwrap().push(format!("vt{vt} async commit: {e}"));
                }
                _ => {}
            }
        } else {
            drop(txn);
        }
    }
}

/// A snapshot session: mostly-read transactions opened with
/// [`Database::begin_snapshot`]. Reads are served by the multi-version
/// path (yielding at stamp acquisition and every version-chain read);
/// the occasional classified write installs SSI rw-antidependency edges
/// (yielding at `ssi-edge`), so dangerous structures form and
/// `SsiConflict` aborts fire under arbitrary interleavings. The hazard
/// classes this hunts: a snapshot aborted by the guard while another
/// session waits on its claims (stranded waiter), and version-floor
/// races between stamp acquisition and concurrent commit folds.
fn snapshot_session(
    vt: usize,
    seed: u64,
    db: &Database,
    objects: &[Handle<Counter>],
    sched: &Scheduler,
    errors: &Mutex<Vec<String>>,
) {
    let mut rng = SplitMix64::new(seed ^ (vt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for _ in 0..TXNS_PER_SESSION {
        if sched.free_running() {
            return;
        }
        let n_ops = 1 + rng.below(OPS_PER_TXN);
        let txn = db.begin_snapshot();
        let mut alive = true;
        for _ in 0..n_ops {
            let obj = rng.below(OBJECTS);
            // Three quarters snapshot reads, one quarter classified
            // writes — the writes are what completes in+out structures.
            let op = if rng.below(4) == 0 {
                CounterOp::Increment(1 + rng.below(3) as i64)
            } else {
                CounterOp::Read
            };
            if let Err(e) = txn.exec(&objects[obj], op) {
                if !tolerated(&e) {
                    errors.lock().unwrap().push(format!("vt{vt} snapshot exec: {e}"));
                }
                alive = false;
                break;
            }
        }
        if alive {
            if let Err(e) = txn.commit() {
                if !tolerated(&e) {
                    errors.lock().unwrap().push(format!("vt{vt} snapshot commit: {e}"));
                }
            }
        } else {
            drop(txn);
        }
    }
}

/// Execute one full simulation: build the database, run every session to
/// completion (or to the liveness deadline) under the baton scheduler,
/// then run the differential oracle. `script` forces the scheduler's
/// choice sequence for replay/shrinking.
pub fn execute(seed: u64, cfg: &DstConfig, script: Option<Vec<u32>>) -> RunReport {
    let total = SYNC_SESSIONS + ASYNC_SESSIONS + cfg.snapshot_sessions;
    let sched = Arc::new(Scheduler::new(total, MAX_STEPS, seed, script));
    let faults = Arc::new(FaultPlan::new(seed, REORDER_PERMILLE));

    let scheduler_cfg = SchedulerConfig::default().with_max_retries(MAX_RETRIES);
    let db = Database::with_config(
        DatabaseConfig::new(scheduler_cfg).with_shards(ShardCount::Fixed(SHARDS)),
    );
    let objects: Arc<Vec<Handle<Counter>>> = Arc::new(
        (0..OBJECTS)
            .map(|i| db.register(format!("c{i}"), Counter::new()))
            .collect(),
    );
    let errors = Arc::new(Mutex::new(Vec::new()));

    let mut joins = Vec::new();
    for vt in 0..total {
        let sched = sched.clone();
        let faults = faults.clone();
        let db = db.clone();
        let objects = objects.clone();
        let errors = errors.clone();
        joins.push(std::thread::spawn(move || {
            chaos::install_thread_hook(Arc::new(DstHook::new(vt, sched.clone(), faults)));
            sched.register(vt);
            if vt < SYNC_SESSIONS {
                sync_session(vt, seed, &db, &objects, &sched, &errors);
            } else if vt < SYNC_SESSIONS + ASYNC_SESSIONS {
                async_session(vt, seed, &db, &objects, &sched, &errors);
            } else {
                snapshot_session(vt, seed, &db, &objects, &sched, &errors);
            }
            sched.finish(vt);
            chaos::clear_thread_hook();
        }));
    }

    let finished = sched.wait_all_finished(REAL_TIME_GUARD);
    let verdict = if finished {
        for j in joins {
            let _ = j.join();
        }
        let errors = errors.lock().unwrap();
        if !errors.is_empty() {
            Verdict::UnexpectedError(errors.join("; "))
        } else if let Err(e) = db.check_invariants() {
            Verdict::OracleDivergence(format!("invariants: {e}"))
        } else if let Err(e) = db.verify_serializable() {
            // The differential oracle: replay the committed transactions'
            // operations serially in commit order and compare both every
            // recorded return value and the surviving state.
            Verdict::OracleDivergence(format!("serial replay: {e}"))
        } else if let Err(e) = db.verify_commit_dependencies() {
            Verdict::OracleDivergence(format!("commit deps: {e}"))
        } else {
            Verdict::Pass
        }
    } else {
        // Hung: session threads may still hold kernel locks (that is what
        // a liveness bug looks like), so skip the oracle — it could block
        // — and leak the detached threads; free-run lets whatever can
        // still finish do so at zero cost.
        drop(joins);
        Verdict::Hang
    };

    let (trace, decisions, steps) = sched.into_outcome();
    let (commits, shard_count) = if finished {
        let snapshot = db.stats_snapshot();
        (snapshot.aggregate.commits, snapshot.shard_count)
    } else {
        (0, SHARDS)
    };
    RunReport {
        seed,
        verdict,
        steps,
        trace,
        decisions,
        commits,
        shard_count,
    }
}
