//! Pinned-seed regressions: each test replays one seed whose schedule
//! provably walks a hazard window that once broke (or could break) the
//! kernel, and asserts both the walk and the clean verdict. The trace is
//! deterministic, so the assertions are exact.

use sbcc_dst::{run_seed, DstConfig, Verdict};

/// One parsed trace line: `step=N vt=V <description>`.
struct Line<'a> {
    vt: usize,
    desc: &'a str,
}

fn parse(trace: &str) -> Vec<Line<'_>> {
    trace
        .lines()
        .map(|l| {
            let rest = l.split_once("vt=").expect("trace line without vt=").1;
            let (vt, desc) = rest.split_once(' ').expect("trace line without description");
            Line {
                vt: vt.parse().expect("non-numeric vt"),
                desc: desc.trim(),
            }
        })
        .collect()
}

/// **Stranded pseudo-commit** (the vote-window TOCTOU).
///
/// `commit_multi` collects per-shard commit dependencies with only the
/// termination lock held, yielding between per-shard peeks. Seed 133
/// schedules another session to *commit the last dependency* inside that
/// window, so the coordinator pseudo-commits a transaction whose
/// out-degree is already zero. Until `pseudo_commit_coordinated` learned
/// to run `settle()` (re-queuing the immediate re-vote), no future edge
/// removal could ever report the transaction as coordination-ready: its
/// session had already returned, no thread re-entered the kernel, and the
/// one session still waiting on its claims polled forever — this exact
/// seed hung at the step budget.
#[test]
fn seed_133_pseudo_commit_whose_deps_died_in_the_vote_window_is_re_voted() {
    let report = run_seed(133, &DstConfig::default());
    let lines = parse(&report.trace);

    // The hazard walk: some transaction is vote-peeked at least twice
    // (multi-shard vote) and then re-voted (pseudo-commit resolved via
    // drain_coordination_ready) rather than vote-applied directly.
    let mut walked = false;
    for l in &lines {
        if let Some(txn) = l.desc.strip_prefix("re-vote ") {
            let peeks = lines
                .iter()
                .filter(|m| m.desc.strip_prefix("vote-peek ") == Some(txn))
                .count();
            let applies = lines
                .iter()
                .filter(|m| m.desc.strip_prefix("vote-apply ") == Some(txn))
                .count();
            // Pseudo-commit first (peeks without applies), finalized by
            // the re-vote machinery.
            if peeks >= 2 && applies == 0 {
                walked = true;
            }
        }
    }
    assert!(
        walked,
        "seed 133 no longer walks the pseudo-commit re-vote window; \
         pick a new pinned seed for this hazard class\n{}",
        report.trace
    );
    assert_eq!(
        report.verdict,
        Verdict::Pass,
        "stranded-pseudo-commit hang regressed (seed 133): {}",
        report.verdict
    );
    assert!(
        report.steps < sbcc_dst::workload::MAX_STEPS,
        "seed 133 ran into the step budget again"
    );
}

/// **Cross-thread rendezvous fill** (the PR-4 claim/fill seam).
///
/// A waiter registers its slot (`rendezvous-claim`) on one thread while a
/// different session's `deliver_events` pass claims and fills that slot
/// (`deliver-fill`) — the window where a misordered fill-under-lock once
/// risked an ABBA deadlock against a polling executor. Seed 133's
/// schedule crosses the seam with distinct threads on each half.
#[test]
fn seed_133_fills_a_waiter_slot_from_a_different_thread_than_claimed_it() {
    let report = run_seed(133, &DstConfig::default());
    let lines = parse(&report.trace);

    let crossed = lines.iter().any(|claim| {
        claim
            .desc
            .strip_prefix("rendezvous-claim ")
            .map(|txn| {
                lines.iter().any(|fill| {
                    fill.desc.strip_prefix("deliver-fill ") == Some(txn) && fill.vt != claim.vt
                })
            })
            .unwrap_or(false)
    });
    assert!(
        crossed,
        "seed 133 no longer crosses the claim/fill seam on distinct threads; \
         pick a new pinned seed for this hazard class\n{}",
        report.trace
    );
    assert_eq!(report.verdict, Verdict::Pass);
}

/// **SSI abort storm** (the unstamped-writer retry livelock).
///
/// A snapshot reader that commits with its in-conflict flag set leaves
/// its SIREAD marks installed until quiescence. Every later classified
/// writer touching that read set closes a dangerous structure whose pivot
/// already committed, so the writer is doomed — correctly, *if* they were
/// concurrent. Before classified transactions carried a begin stamp, the
/// committed-reader skip test (`reader.committed <= writer.begin`) never
/// fired for them: each doomed writer's retry began a fresh, still
/// unstamped transaction that was doomed again by the same stale marks.
/// Seed 234 drove that loop for ~55k virtual steps — 28 logical
/// transactions ballooned past 12k begun ids — and blew the liveness
/// budget. With begins stamped at `ShardedKernel::begin` while SSI is
/// enabled, the first retry postdates the reader's commit, skips it, and
/// commits.
#[test]
fn seed_234_ssi_doomed_writers_retry_once_instead_of_storming() {
    let cfg = DstConfig {
        snapshot_sessions: 2,
    };
    let report = run_seed(234, &cfg);
    let lines = parse(&report.trace);

    // The schedule still walks every snapshot yield point…
    for point in ["snapshot-stamp", "snapshot-read", "ssi-edge"] {
        assert!(
            lines.iter().any(|l| l.desc.starts_with(point)),
            "seed 234 no longer reaches {point}; \
             pick a new pinned seed for this hazard class\n{}",
            report.trace
        );
    }
    // …and still provokes at least one SSI abort + retry: the workload
    // begins 28 logical transactions (7 sessions x 4), so any higher
    // transaction id in the trace is a retry of an aborted one.
    let max_txn = lines
        .iter()
        .filter_map(|l| l.desc.rsplit_once(" T")?.1.parse::<u64>().ok())
        .max()
        .unwrap_or(0);
    assert!(
        max_txn > 28,
        "seed 234 no longer retries any transaction (max id {max_txn}); \
         pick a new pinned seed for this hazard class\n{}",
        report.trace
    );
    // The storm is the regression: bounded retries, not budget exhaustion.
    assert_eq!(
        report.verdict,
        Verdict::Pass,
        "SSI abort storm regressed (seed 234): {}",
        report.verdict
    );
    assert!(
        report.steps < 5_000,
        "seed 234 took {} steps — the doomed-writer retry loop is back",
        report.steps
    );
}

/// **Re-blocking across shards** (held wait-for edges and the reservation
/// mirror).
///
/// A retried request that still conflicts keeps the wait-for edges it
/// holds and checks only new holders; it clears them when it executes or
/// when a held holder stops conflicting. In an entangled shard, an edge
/// reaches the escalation graph only through the check that reserved it.
/// This session drives both on four shards: multi-shard transactions on
/// two hot stacks and a counter block, re-block behind changed and
/// unchanged holders, execute on retry, abort explicitly and as deadlock
/// victims. Every choice comes from the seed (one thread, so the run is
/// deterministic), and `check_invariants` — which fails on a wait-for
/// edge out of a transaction that is not blocked, and on a local edge of
/// an entangled shard missing from the escalation graph — runs after
/// every step.
#[test]
fn multi_shard_re_blocking_keeps_every_invariant_at_every_step() {
    use sbcc_adt::{AdtOp, Counter, CounterOp, OpCall, Stack, StackOp, Value};
    use sbcc_core::{
        shard_of_name, DatabaseConfig, ObjectId, RequestOutcome, SchedulerConfig,
        ShardedKernel, TxnId, TxnState, VictimPolicy,
    };
    use sbcc_dst::rng::SplitMix64;
    use std::collections::{HashMap, HashSet};

    const SHARDS: usize = 4;
    const LIVE: usize = 6;
    const STEPS: usize = 600;

    /// First name with the prefix that lands on a shard not yet taken.
    fn name_on_fresh_shard(prefix: &str, taken: &mut Vec<u32>) -> String {
        let name = (0..)
            .map(|i| format!("{prefix}{i}"))
            .find(|n| !taken.contains(&shard_of_name(n, SHARDS)))
            .unwrap();
        taken.push(shard_of_name(&name, SHARDS));
        name
    }

    let (mut re_blocks, mut unblocks, mut cycle_aborts, mut explicit_aborts) = (0, 0, 0, 0);
    for (seed, victim) in [
        (28u64, VictimPolicy::Requester),
        (29, VictimPolicy::Youngest),
        (30, VictimPolicy::Requester),
        (31, VictimPolicy::Youngest),
    ] {
        let kernel = ShardedKernel::new(
            DatabaseConfig::new(SchedulerConfig::default().with_victim(victim)).with_shards(SHARDS),
        );
        let mut taken = Vec::new();
        let stacks = [
            kernel.register(name_on_fresh_shard("stack", &mut taken), Stack::new()).unwrap().0,
            kernel.register(name_on_fresh_shard("stack", &mut taken), Stack::new()).unwrap().0,
        ];
        let counter = kernel
            .register(name_on_fresh_shard("counter", &mut taken), Counter::new())
            .unwrap()
            .0;
        let mut rng = SplitMix64::new(seed);
        let draw = |rng: &mut SplitMix64| -> (ObjectId, OpCall) {
            let stack = stacks[rng.below(2)];
            match rng.below(6) {
                0 | 1 => (stack, StackOp::Push(Value::Int(rng.below(3) as i64)).to_call()),
                2 | 3 => (stack, StackOp::Pop.to_call()),
                4 => (counter, CounterOp::Increment(1).to_call()),
                _ => (counter, CounterOp::Read.to_call()),
            }
        };

        // Per live transaction: the objects a termination of it marks
        // dirty (executed on, or blocked on).
        let mut live: HashMap<TxnId, HashSet<ObjectId>> = HashMap::new();
        let mut blocked_on: HashMap<TxnId, ObjectId> = HashMap::new();
        for step in 0..STEPS {
            let mut ids: Vec<TxnId> = live.keys().copied().collect();
            ids.sort_unstable();
            let active: Vec<TxnId> = ids
                .iter()
                .copied()
                .filter(|t| kernel.txn_state(*t) == Some(TxnState::Active))
                .collect();
            let before_blocked: Vec<(TxnId, ObjectId)> =
                blocked_on.iter().map(|(t, o)| (*t, *o)).collect();
            let mut terminated: Option<TxnId> = None;
            match rng.below(10) {
                _ if live.len() < LIVE && (active.is_empty() || rng.below(3) == 0) => {
                    live.insert(kernel.begin(), HashSet::new());
                }
                0..=5 if !active.is_empty() => {
                    let txn = active[rng.below(active.len())];
                    let (object, call) = draw(&mut rng);
                    live.get_mut(&txn).unwrap().insert(object);
                    match kernel.request(txn, object, call).unwrap() {
                        RequestOutcome::Blocked { .. } => {
                            blocked_on.insert(txn, object);
                        }
                        RequestOutcome::Aborted { .. } => terminated = Some(txn),
                        RequestOutcome::Executed { .. } => {}
                    }
                }
                6 | 7 if !active.is_empty() => {
                    let txn = active[rng.below(active.len())];
                    kernel.commit(txn).unwrap();
                    terminated = Some(txn);
                }
                _ if !ids.is_empty() => {
                    let txn = ids[rng.below(ids.len())];
                    if kernel.abort(txn).is_ok() {
                        explicit_aborts += 1;
                        terminated = Some(txn);
                    }
                }
                _ => {}
            }
            let _ = kernel.drain_events();
            kernel
                .check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));

            // A waiter on an object the terminated transaction touched was
            // retried; if it is still blocked there, it re-blocked.
            if let Some(gone) = terminated {
                let dirty = live.get(&gone).cloned().unwrap_or_default();
                for (t, o) in &before_blocked {
                    if *t != gone
                        && dirty.contains(o)
                        && kernel.txn_state(*t) == Some(TxnState::Blocked)
                    {
                        re_blocks += 1;
                    }
                }
            }
            // Refresh bookkeeping from the kernel.
            for t in &ids {
                match kernel.txn_state(*t) {
                    Some(TxnState::Blocked) => {}
                    Some(TxnState::Active) => {
                        if blocked_on.remove(t).is_some() {
                            unblocks += 1;
                        }
                    }
                    _ => {
                        blocked_on.remove(t);
                        live.remove(t);
                    }
                }
            }
        }
        let stats = kernel.stats();
        cycle_aborts += stats.aborts_deadlock + stats.aborts_commit_cycle + stats.aborts_victim;
        assert!(
            stats.escalated_checks > 0,
            "seed {seed}: no escalated check — the session never entangled"
        );
        kernel.verify_serializable().unwrap();
        kernel.verify_commit_dependencies().unwrap();
    }
    assert!(re_blocks > 0, "no retried request re-blocked");
    assert!(unblocks > 0, "no retried request executed");
    assert!(cycle_aborts > 0, "no deadlock or victim abort");
    assert!(explicit_aborts > 0, "no explicit abort");
}
