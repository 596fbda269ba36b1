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
