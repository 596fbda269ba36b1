//! # sbcc-dst — deterministic-simulation testing for the sharded kernel
//!
//! Wall-clock stress tests can *hit* an interleaving bug but cannot
//! reproduce it. This crate makes the kernel's interleavings a pure
//! function of a `u64` seed: every sync and async session runs on its own
//! OS thread, but a baton scheduler ([`sched::Scheduler`]) lets exactly
//! one run at a time and hands the baton over only at the named yield
//! points `sbcc_core::chaos` plants in the concurrency seams —
//! `deliver_events`' lock window, the claim/fill halves of the waiter
//! rendezvous, the per-shard vote loops of a multi-shard commit, and the
//! `drain_coordination_ready` re-votes. On top of pure interleaving the
//! harness injects faults drawn from the same seed: explicit aborts fired
//! into vote windows, async operation futures cancelled at a chosen poll,
//! and permuted event-delivery order.
//!
//! Whatever the seed produces, the **differential oracle** must hold: the
//! surviving committed state equals a serial replay of the committed
//! transactions' operations in commit order (the house
//! `verify_serializable` checker), the recorded commit dependencies are
//! respected, per-object invariants hold — and no session may hang (a
//! virtual-time step budget is the liveness deadline).
//!
//! ```
//! use sbcc_dst::{run_seed, DstConfig, Verdict};
//!
//! let report = run_seed(42, &DstConfig::default());
//! assert_eq!(report.verdict, Verdict::Pass);
//! // Same seed ⇒ byte-identical yield/fault trace.
//! assert_eq!(report.trace, run_seed(42, &DstConfig::default()).trace);
//! ```
//!
//! The `repro` binary (in `sbcc-experiments`, behind its `dst` feature)
//! fronts this crate: `repro --dst --seeds 10000` explores, and
//! `repro --dst-replay <seed>` replays one schedule, shrinking it first
//! when it fails.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hook;
pub mod rng;
pub mod sched;
pub mod shrink;
pub mod workload;

pub use sched::{TraceEvent, TraceKind};

/// What a caller may vary about a simulated run. Everything else — the
/// mixed sync/async cross-shard workload the CI legs explore, its fault
/// rates and its deadlines — is fixed in [`workload`].
#[derive(Debug, Clone, Default)]
pub struct DstConfig {
    /// Snapshot sessions (driving [`sbcc_core::Database::begin_snapshot`]):
    /// mostly-read transactions served by the multi-version path, with
    /// occasional classified writes so SSI rw-antidependency edges — and
    /// dangerous-structure aborts — actually form. Yields at the
    /// snapshot-stamp, snapshot-read and ssi-edge chaos points. Default 0:
    /// the pinned corpus seeds predate snapshot sessions and stay
    /// byte-identical; `snapshot:`-tagged corpus lines opt in.
    pub snapshot_sessions: usize,
}

/// The outcome of one simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// All sessions finished and every oracle held.
    Pass,
    /// The step budget (or the wall-clock backstop) expired with sessions
    /// still in flight: a liveness failure.
    Hang,
    /// An oracle rejected the surviving state (serial-replay divergence,
    /// violated invariant, or unrespected commit dependency).
    OracleDivergence(String),
    /// A session hit an error class the workload never produces on a
    /// correct kernel (unknown transaction, unknown object, …).
    UnexpectedError(String),
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Pass => f.write_str("pass"),
            Verdict::Hang => f.write_str("hang (liveness deadline)"),
            Verdict::OracleDivergence(why) => write!(f, "oracle divergence: {why}"),
            Verdict::UnexpectedError(why) => write!(f, "unexpected error: {why}"),
        }
    }
}

/// Everything one run produced: the verdict plus the full yield/fault
/// trace and the decision script that reproduces it.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Pass/fail classification.
    pub verdict: Verdict,
    /// Virtual time consumed (total yields).
    pub steps: usize,
    /// The rendered yield/fault trace, one line per event. Byte-identical
    /// across runs of the same seed and script.
    pub trace: String,
    /// Every scheduler pick, as a choice index into the sorted ready set;
    /// replaying this script reproduces the interleaving exactly.
    pub decisions: Vec<u32>,
    /// Transactions that actually committed.
    pub commits: u64,
    /// The resolved shard topology (from the stats snapshot).
    pub shard_count: usize,
}

impl RunReport {
    /// `true` for any verdict other than [`Verdict::Pass`].
    pub fn failed(&self) -> bool {
        self.verdict != Verdict::Pass
    }

    /// The one-line command that reproduces this run.
    pub fn repro_command(&self) -> String {
        format!(
            "cargo run --release -p sbcc-experiments --features dst -- --dst-replay {}",
            self.seed
        )
    }
}

/// Run the seed's schedule from scratch (no script).
pub fn run_seed(seed: u64, cfg: &DstConfig) -> RunReport {
    workload::execute(seed, cfg, None)
}

/// Run the seed with the scheduler's picks forced to `script` (indices
/// clamped to the ready set; past the script's end the canonical choice 0
/// is taken). Used by replay and shrinking.
pub fn run_scripted(seed: u64, cfg: &DstConfig, script: Vec<u32>) -> RunReport {
    workload::execute(seed, cfg, Some(script))
}

/// Shrink a failing run: minimize its decision script (re-running each
/// candidate) and return the final, verified-failing run under the
/// shortest script found. `budget` caps the number of re-executions.
pub fn shrink_failure(failing: &RunReport, cfg: &DstConfig, budget: usize) -> RunReport {
    debug_assert!(failing.failed());
    let seed = failing.seed;
    let script = shrink::minimize(&failing.decisions, budget, |candidate| {
        run_scripted(seed, cfg, candidate.to_vec()).failed()
    });
    run_scripted(seed, cfg, script)
}

/// Summary of a seed sweep.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Seeds executed.
    pub runs: u64,
    /// Total virtual time across all runs.
    pub total_steps: u64,
    /// Every failing run, in seed order.
    pub failures: Vec<RunReport>,
}

/// Explore `count` consecutive seeds starting at `start`, invoking
/// `progress` after each run (for live logging).
pub fn explore(
    start: u64,
    count: u64,
    cfg: &DstConfig,
    mut progress: impl FnMut(&RunReport),
) -> ExploreReport {
    let mut report = ExploreReport::default();
    for seed in start..start.saturating_add(count) {
        let run = run_seed(seed, cfg);
        report.runs += 1;
        report.total_steps += run.steps as u64;
        progress(&run);
        if run.failed() {
            report.failures.push(run);
        }
    }
    report
}
