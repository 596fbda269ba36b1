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
            let (vt, desc) = rest
                .split_once(' ')
                .expect("trace line without description");
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

/// **Re-blocking across shards** (held wait-for edges in the one
/// dependency graph).
///
/// A retried request that still conflicts keeps the wait-for edges it
/// holds and checks only new holders; it clears them when it executes or
/// when a held holder stops conflicting. This session drives that on four
/// shards: multi-shard transactions on two hot stacks and a counter
/// block, with edges into and out of them, re-block behind changed and
/// unchanged holders, execute on retry, abort explicitly and on a
/// would-be cycle. Every choice comes from the seed (one thread, so the
/// run is deterministic), and `check_invariants` — which fails on a
/// wait-for edge out of a transaction that is not blocked, and on a graph
/// node no live transaction owns — runs after every step.
#[test]
fn multi_shard_re_blocking_keeps_every_invariant_at_every_step() {
    use sbcc_adt::{AdtOp, Counter, CounterOp, OpCall, Stack, StackOp, Value};
    use sbcc_core::{
        shard_of_name, DatabaseConfig, ObjectId, RequestOutcome, SchedulerConfig, ShardedKernel,
        TxnId, TxnState,
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
    for seed in [28u64, 30] {
        let kernel =
            ShardedKernel::new(DatabaseConfig::new(SchedulerConfig::default()).with_shards(SHARDS));
        let mut taken = Vec::new();
        let stacks = [
            kernel
                .register(name_on_fresh_shard("stack", &mut taken), Stack::new())
                .unwrap()
                .0,
            kernel
                .register(name_on_fresh_shard("stack", &mut taken), Stack::new())
                .unwrap()
                .0,
        ];
        let counter = kernel
            .register(name_on_fresh_shard("counter", &mut taken), Counter::new())
            .unwrap()
            .0;
        let mut rng = SplitMix64::new(seed);
        let mut multi_shard_edges = 0;
        let draw = |rng: &mut SplitMix64| -> (ObjectId, OpCall) {
            let stack = stacks[rng.below(2)];
            match rng.below(6) {
                0 | 1 => (
                    stack,
                    StackOp::Push(Value::Int(rng.below(3) as i64)).to_call(),
                ),
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
                    let outcome = kernel.request(txn, object, call).unwrap();
                    // Each object has a shard of its own.
                    let spans = |t: &TxnId| live.get(t).is_some_and(|objects| objects.len() > 1);
                    let to = match &outcome {
                        RequestOutcome::Blocked { waiting_on } => waiting_on.as_slice(),
                        RequestOutcome::Executed { commit_deps, .. } => commit_deps,
                        RequestOutcome::Aborted { .. } => &[],
                    };
                    if !to.is_empty() && std::iter::once(&txn).chain(to).any(spans) {
                        multi_shard_edges += 1;
                    }
                    match outcome {
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
        cycle_aborts += stats.aborts_deadlock + stats.aborts_commit_cycle;
        assert!(
            multi_shard_edges > 0,
            "seed {seed}: no edge into or out of a multi-shard transaction"
        );
        kernel.verify_serializable().unwrap();
        kernel.verify_commit_dependencies().unwrap();
    }
    assert!(re_blocks > 0, "no retried request re-blocked");
    assert!(unblocks > 0, "no retried request executed");
    assert!(cycle_aborts > 0, "no cycle abort");
    assert!(explicit_aborts > 0, "no explicit abort");
}

/// **A multi-shard commit leaves the graph only after every shard folded
/// it** (rule 3 of the `sbcc_core::shard` docs).
///
/// X holds operations in shards A and B. In B, T is pseudo-committed
/// behind X (a recoverable push), U holds a commuting increment, and W's
/// read waits for X and U. Between X's folds into A and into B (its
/// second `VoteApply` yield), U commits in B and so retries W. Had X's
/// node left at A's fold, B would cascade-commit T ahead of X and re-block
/// W behind X, whose node would then outlive X. Every step checks the
/// invariants and the commit-dependency order.
#[test]
fn multi_shard_commit_leaves_the_graph_only_after_every_shard_folded() {
    use sbcc_adt::{AdtOp, Counter, CounterOp, Stack, StackOp, Value};
    use sbcc_core::chaos::{self, ChaosHook, ChaosPoint};
    use sbcc_core::{
        shard_of_name, DatabaseConfig, RequestOutcome, SchedulerConfig, ShardedKernel, TxnId,
        TxnState,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn check(kernel: &ShardedKernel, step: &str) {
        let invariants = kernel.check_invariants();
        for checked in [invariants, kernel.verify_commit_dependencies()] {
            checked.unwrap_or_else(|e| panic!("{step}: {e}"));
        }
    }

    let kernel = Arc::new(ShardedKernel::new(
        DatabaseConfig::new(SchedulerConfig::default()).with_shards(2),
    ));
    let register = |prefix: &str, shard: u32, object: Box<dyn sbcc_adt::SemanticObject>| {
        let mut names = (0..).map(|i| format!("{prefix}{i}"));
        let name = names.find(|n| shard_of_name(n, 2) == shard).unwrap();
        kernel.register_object(name, object).unwrap().0
    };
    let a = register("a", 0, Box::new(sbcc_adt::AdtObject::new(Stack::new())));
    let b = register("b", 1, Box::new(sbcc_adt::AdtObject::new(Stack::new())));
    let c = register("c", 1, Box::new(sbcc_adt::AdtObject::new(Counter::new())));
    let push = |v| StackOp::Push(Value::Int(v)).to_call();
    let inc = || CounterOp::Increment(1).to_call();

    let x = kernel.begin();
    for (object, call) in [(a, push(1)), (b, push(1)), (c, inc())] {
        assert!(kernel.request(x, object, call).unwrap().is_executed());
    }
    let t = kernel.begin();
    assert!(kernel.request(t, b, push(2)).unwrap().is_executed());
    assert!(kernel.commit(t).unwrap().0.is_pseudo_commit());
    let u = kernel.begin();
    assert!(kernel.request(u, c, inc()).unwrap().is_executed());
    let w = kernel.begin();
    match kernel.request(w, c, CounterOp::Read.to_call()).unwrap() {
        RequestOutcome::Blocked { waiting_on } => assert_eq!(waiting_on, vec![x, u]),
        other => panic!("W must wait for X and U, got {other:?}"),
    }
    check(&kernel, "set-up");

    /// Commits U at X's last `VoteApply` yield, then checks everything.
    struct CommitUInTheWindow {
        kernel: Arc<ShardedKernel>,
        txns: [TxnId; 3], // X, U, W
        applies: AtomicUsize,
    }
    impl ChaosHook for CommitUInTheWindow {
        fn reach(&self, point: ChaosPoint, txn: Option<TxnId>) {
            let [x, u, w] = self.txns;
            if point != ChaosPoint::VoteApply || txn != Some(x) {
                return;
            }
            if self.applies.fetch_add(1, Ordering::SeqCst) == 1 {
                assert!(self.kernel.commit(u).unwrap().0.is_full_commit());
                let state = self.kernel.txn_state(w);
                assert_eq!(state, Some(TxnState::Blocked), "X is live");
                check(&self.kernel, "U committed inside X's commit");
            }
        }
    }
    let hook = Arc::new(CommitUInTheWindow {
        kernel: kernel.clone(),
        txns: [x, u, w],
        applies: AtomicUsize::new(0),
    });
    chaos::install_thread_hook(hook.clone());
    let outcome = kernel.commit(x);
    chaos::clear_thread_hook();
    assert!(outcome.unwrap().0.is_full_commit());
    let applies = hook.applies.load(Ordering::SeqCst);
    assert_eq!(applies, 2, "one yield per enrolled shard");
    check(&kernel, "X committed");
    let states = (kernel.txn_state(t), kernel.txn_state(w));
    let expected = (Some(TxnState::Committed), Some(TxnState::Active));
    assert_eq!(states, expected, "T cascades after X, W runs after X");
}

/// **A refused retry leaves the queue** (the fair retry path's third
/// exit).
///
/// On one table in shard 0, G holds `insert(k)`, and J then H queue
/// `modify(k)` behind it. The two modifies are mutually recoverable, so H
/// does not queue behind J; R's `lookup(k)` queues behind all three. J and
/// H are multi-shard: J's push on a stack in shard 1 commit-depends on
/// H's. When G aborts, J's retry executes, and H's retry, now ordered
/// behind J's modify, would close the cycle H → J → H: the kernel refuses
/// it and the coordinator aborts H. H leaves the queue with no operation
/// on the table, so R's edge to H is stale. Before the retry pass counted
/// a refused entry as gone, R kept that edge and the debug build's
/// re-classification oracle fired.
#[test]
fn a_refused_multi_shard_retry_leaves_no_edge_behind() {
    use sbcc_adt::{AdtOp, Stack, StackOp, TableObject, TableOp, Value};
    use sbcc_core::{
        shard_of_name, DatabaseConfig, RequestOutcome, SchedulerConfig, ShardedKernel, TxnState,
    };

    let kernel = ShardedKernel::new(DatabaseConfig::new(SchedulerConfig::default()).with_shards(2));
    let name_in = |prefix: &str, shard: u32| {
        (0..)
            .map(|i| format!("{prefix}{i}"))
            .find(|n| shard_of_name(n, 2) == shard)
            .unwrap()
    };
    let table = kernel
        .register(name_in("table", 0), TableObject::new())
        .unwrap()
        .0;
    let stack = kernel
        .register(name_in("stack", 1), Stack::new())
        .unwrap()
        .0;
    let key = || Value::Int(1);
    let check = |step: &str| {
        kernel
            .check_invariants()
            .unwrap_or_else(|e| panic!("{step}: {e}"));
    };

    let (g, j, h, r) = (
        kernel.begin(),
        kernel.begin(),
        kernel.begin(),
        kernel.begin(),
    );
    let push = |v: i64| StackOp::Push(Value::Int(v)).to_call();
    assert!(kernel.request(h, stack, push(1)).unwrap().is_executed());
    match kernel.request(j, stack, push(2)).unwrap() {
        RequestOutcome::Executed { commit_deps, .. } => assert_eq!(commit_deps, vec![h]),
        other => panic!("J's push must be ordered behind H's, got {other:?}"),
    }
    let insert = TableOp::Insert(key(), Value::Int(0)).to_call();
    assert!(kernel.request(g, table, insert).unwrap().is_executed());
    let modify = |v: i64| TableOp::Modify(key(), Value::Int(v)).to_call();
    let waits = |txn, call| match kernel.request(txn, table, call).unwrap() {
        RequestOutcome::Blocked { waiting_on } => waiting_on,
        other => panic!("{txn} must queue, got {other:?}"),
    };
    assert_eq!(waits(j, modify(1)), vec![g]);
    assert_eq!(waits(h, modify(2)), vec![g], "H does not queue behind J");
    assert_eq!(waits(r, TableOp::Lookup(key()).to_call()), vec![g, j, h]);
    let _ = kernel.drain_events();
    check("set-up");

    kernel.abort(g).unwrap();
    let _ = kernel.drain_events();
    check("G aborted");
    let states = [j, h, r].map(|t| kernel.txn_state(t));
    let expected = [TxnState::Active, TxnState::Aborted, TxnState::Blocked].map(Some);
    assert_eq!(states, expected, "J executed, H was refused, R waits for J");
    assert_eq!(kernel.stats().aborts_commit_cycle, 1);

    // Once J commits, R's lookup runs.
    assert!(kernel.commit(j).unwrap().0.is_full_commit());
    let _ = kernel.drain_events();
    check("J committed");
    assert_eq!(kernel.txn_state(r), Some(TxnState::Active));
    kernel.verify_serializable().unwrap();
}
