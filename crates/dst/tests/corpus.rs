//! Replay the pinned seed corpus (`tests/dst_corpus.txt` at the repo
//! root). Every corpus seed must pass: these are schedules chosen to
//! cover the fault space (cancellations, injected aborts, re-votes,
//! cross-thread rendezvous, snapshot/SSI interleavings) plus pinned
//! regressions. A failure here means a kernel change broke an
//! interleaving the corpus deliberately covers — replay it with
//! `repro --dst-replay <seed>` (built with `--features dst`).
//!
//! Two line formats: a bare seed runs the default mixed sync/async
//! workload; `snapshot:SEED` runs the same workload with two snapshot
//! sessions added (multi-version reads + SSI guard under the baton
//! scheduler).

use sbcc_dst::{run_seed, DstConfig, Verdict};

/// Which session mix a corpus line opts into.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mix {
    Default,
    Snapshot,
}

/// `(seed, session mix)` per corpus line.
fn corpus_seeds() -> Vec<(u64, Mix)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/dst_corpus.txt");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read corpus at {path}: {e}"));
    let seeds: Vec<(u64, Mix)> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (rest, mix) = if let Some(rest) = l.strip_prefix("snapshot:") {
                (rest, Mix::Snapshot)
            } else {
                (l, Mix::Default)
            };
            (
                rest.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad corpus line {l:?}")),
                mix,
            )
        })
        .collect();
    assert!(!seeds.is_empty(), "empty corpus");
    seeds
}

/// The corpus config for `snapshot:`-tagged lines (must match the sweep
/// that picked them — see `repro --dst --dst-snapshots`).
pub fn snapshot_cfg() -> DstConfig {
    DstConfig {
        snapshot_sessions: 2,
    }
}

#[test]
fn every_corpus_seed_passes() {
    let default_cfg = DstConfig::default();
    let snap_cfg = snapshot_cfg();
    let mut failures = Vec::new();
    for (seed, mix) in corpus_seeds() {
        let cfg = match mix {
            Mix::Default => &default_cfg,
            Mix::Snapshot => &snap_cfg,
        };
        let report = run_seed(seed, cfg);
        if report.verdict != Verdict::Pass {
            failures.push(format!(
                "seed {seed}: {} ({})",
                report.verdict,
                report.repro_command()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus failures:\n{}",
        failures.join("\n")
    );
}
