//! The harness's core guarantee: a seed is a complete description of a
//! run. Same seed ⇒ byte-identical yield/fault trace, identical decision
//! script, identical verdict — across runs, and across the scripted
//! replay path the shrinker depends on.

use sbcc_dst::{run_scripted, run_seed, DstConfig, Verdict};

#[test]
fn same_seed_twice_is_byte_identical() {
    let cfg = DstConfig::default();
    for seed in [7u64, 42, 133] {
        let a = run_seed(seed, &cfg);
        let b = run_seed(seed, &cfg);
        assert_eq!(a.verdict, b.verdict, "seed {seed}: verdict diverged");
        assert_eq!(a.trace, b.trace, "seed {seed}: trace diverged");
        assert_eq!(a.decisions, b.decisions, "seed {seed}: decisions diverged");
        assert_eq!(a.steps, b.steps, "seed {seed}: step count diverged");
        assert_eq!(a.commits, b.commits, "seed {seed}: commit count diverged");
    }
}

#[test]
fn scripted_replay_of_recorded_decisions_reproduces_the_run() {
    let cfg = DstConfig::default();
    for seed in [9u64, 58] {
        let live = run_seed(seed, &cfg);
        assert_eq!(live.verdict, Verdict::Pass, "seed {seed} must be clean");
        let replay = run_scripted(seed, &cfg, live.decisions.clone());
        assert_eq!(
            replay.trace, live.trace,
            "seed {seed}: replay trace diverged"
        );
        assert_eq!(replay.verdict, live.verdict);
        assert_eq!(replay.decisions, live.decisions);
    }
}

#[test]
fn different_seeds_explore_different_interleavings() {
    // Not a determinism property per se, but the harness is worthless if
    // the seed does not actually steer the schedule.
    let cfg = DstConfig::default();
    let a = run_seed(1, &cfg);
    let b = run_seed(2, &cfg);
    assert_ne!(a.trace, b.trace, "seeds 1 and 2 produced the same schedule");
}

#[test]
fn shard_topology_is_observable_in_the_report() {
    let cfg = DstConfig::default();
    let report = run_seed(3, &cfg);
    assert_eq!(report.verdict, Verdict::Pass);
    assert_eq!(
        report.shard_count, 4,
        "resolved shard count from stats_snapshot() must match the workload's fixed topology"
    );
}
