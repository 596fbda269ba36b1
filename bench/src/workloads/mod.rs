//! The five closed-loop workloads and the runner they share.
//!
//! A run is: set up (several times, timed), warm up, one measured window
//! (or, with tracing, an untraced reference window and a traced one), the
//! correctness gate. Generator threads never exceed two; larger live
//! populations are async sessions multiplexed on those two threads.

pub mod contended;
pub mod disjoint;
pub mod durable;
pub mod gate;
pub mod readmostly;
pub mod wire;

use crate::json::Json;
use crate::measure::{self, ClassSummary, Plan, Sampler};
use crate::spec;
use crate::stats;
use crate::trace::{self, Tracer};
use sbcc_core::{DatabaseConfig, NetStats, SchedulerConfig, ShardCount, StatsSnapshot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator threads (and connections) of every workload.
pub const GENERATORS: usize = 2;
/// Async sessions multiplexed on one generator thread.
pub const SESSIONS_PER_THREAD: usize = 16;
pub const SHARDS: usize = 4;

/// The database configuration every workload starts from: defaults, four
/// shards, no history recording, and no durability unless the workload
/// pins one — never the `SBCC_*` environment.
pub fn db_config(wal: Option<sbcc_core::WalConfig>) -> DatabaseConfig {
    DatabaseConfig {
        scheduler: SchedulerConfig::default().with_history(false),
        shards: ShardCount::Fixed(SHARDS),
        wal,
    }
}

/// Which reported class a sampler's transactions belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Snapshot (read-only) transactions.
    Read,
    /// Classified transactions.
    Write,
}

/// What one generator thread hands back after a window.
pub struct ThreadOut {
    pub class: Class,
    /// Operations in one committed transaction of this thread.
    pub ops_per_txn: u64,
    pub sampler: Sampler,
    pub tracer: Tracer,
}

/// Counters read from outside at the edges of a window.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub stats: StatsSnapshot,
    pub net: Option<NetStats>,
    pub wal_bytes: u64,
}

/// What the correctness gate adds to a run's numbers.
#[derive(Debug, Default)]
pub struct Verified {
    /// Checks that ran, for the human report.
    pub checks: Vec<String>,
    /// Per-layer metrics only the gate can measure (recovery speed).
    pub metrics: Vec<(&'static str, f64)>,
}

pub trait Workload: Send + Sync + Sized + 'static {
    const NAME: &'static str;
    /// One traced transaction in this many (chosen so a traced window
    /// stays inside the span budget).
    const TRACE_EVERY: u64;
    /// Transactions a generator thread commits before `peak_rss_mb` is
    /// read: about half a second's worth, so memory is compared after a
    /// fixed amount of work, not after however much a faster or slower
    /// program fits into the window.
    const RSS_AFTER_TXNS: u64;

    /// Construct, register, connect, open the log, pre-populate. `scratch`
    /// is an unused path inside the checkout.
    fn setup(seed: u64, scratch: &Path) -> Self;

    /// Run one generator thread until the plan's window has closed.
    fn drive(this: &Arc<Self>, thread: usize, plan: Plan, trace_every: u64) -> ThreadOut;

    fn snapshot(&self) -> Snapshot;

    /// Static per-layer metrics of the workload's shape (wire bytes).
    fn shape_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// The correctness gate; consumes the environment (shuts servers down,
    /// reopens logs).
    fn verify(self) -> Result<Verified, String>;

    /// Tear down an environment that was only set up for timing.
    fn discard(self) {}
}

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    pub slices: usize,
    /// Run an untraced reference window and then a traced one.
    pub trace: bool,
    /// Set-ups to time, at least one (the last is the one measured on).
    pub min_setups: usize,
    /// Keep repeating the set-up until the repeats total this long, so
    /// that the median of a microsecond set-up is steady.
    pub setup_budget: Duration,
}

impl RunOpts {
    pub fn measured(seed: u64, seconds: f64) -> RunOpts {
        RunOpts {
            seed,
            warmup: Duration::from_secs(2),
            window: Duration::from_secs_f64(seconds),
            slices: 15,
            trace: false,
            min_setups: 5,
            setup_budget: Duration::from_millis(500),
        }
    }

    /// The traced run: the issue's 6 s windows at the default 15 s, scaled
    /// with `--seconds`.
    pub fn traced(seed: u64, seconds: f64) -> RunOpts {
        RunOpts {
            warmup: Duration::from_secs(1),
            window: Duration::from_secs_f64(seconds * 0.4),
            slices: 6,
            trace: true,
            min_setups: 1,
            setup_budget: Duration::ZERO,
            ..RunOpts::measured(seed, seconds)
        }
    }

    pub fn smoke(seed: u64, trace: bool) -> RunOpts {
        RunOpts {
            seed,
            warmup: Duration::from_millis(100),
            window: Duration::from_millis(500),
            slices: 5,
            trace,
            min_setups: 2,
            setup_budget: Duration::ZERO,
        }
    }
}

/// One window's reduced numbers.
pub struct WindowReport {
    pub all: ClassSummary,
    pub write: ClassSummary,
    /// The class whose latency is reported (reads where there are any).
    pub latency: ClassSummary,
    pub read: Option<ClassSummary>,
    /// Operations executed by the transactions that committed in the window.
    pub committed_ops: u64,
    /// `VmHWM` when the generator threads reached their fixed transaction
    /// count (the larger reading), if they did.
    pub rss_mb: Option<f64>,
    pub window_secs: f64,
    pub before: Snapshot,
    pub after: Snapshot,
}

/// Everything one run of one workload produced.
pub struct RunReport {
    pub workload: &'static str,
    pub opts: RunOpts,
    pub setup_secs: Vec<f64>,
    pub measured: WindowReport,
    /// The traced window and its spans, when tracing.
    pub traced: Option<(WindowReport, trace::TraceSummary)>,
    pub verified: Verified,
    pub shape: Vec<(&'static str, f64)>,
    /// `VmHWM` at exit, fixed-count reading or not.
    pub exit_rss_mb: f64,
}

/// A path under `bench/out/` no other set-up uses. Not created: only the
/// durable workload needs it, and `Wal::open` creates its directory.
fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    crate::sys::out_dir().join(format!(
        "scratch-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn run_window<W: Workload>(
    env: &Arc<W>,
    plan: Plan,
    trace_every: u64,
) -> (WindowReport, Vec<Tracer>) {
    let (outs, before, after) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..GENERATORS)
            .map(|t| {
                let env = Arc::clone(env);
                std::thread::Builder::new()
                    .name(format!("bench-gen-{t}"))
                    .spawn_scoped(s, move || W::drive(&env, t, plan, trace_every))
                    .expect("spawn generator thread")
            })
            .collect();
        measure::sleep_until(plan.window_start);
        let before = env.snapshot();
        measure::sleep_until(plan.window_end());
        let after = env.snapshot();
        let outs: Vec<ThreadOut> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (outs, before, after)
    });
    let mut all = Vec::new();
    let mut write = Vec::new();
    let mut read = Vec::new();
    let mut tracers = Vec::new();
    let mut committed_ops = 0;
    let mut rss_mb: Option<f64> = None;
    for out in outs {
        rss_mb = rss_mb
            .into_iter()
            .chain(out.sampler.rss_mb)
            .reduce(f64::max);
        committed_ops += out.ops_per_txn * out.sampler.committed();
        tracers.push(out.tracer);
        match out.class {
            Class::Read => read.push(out.sampler),
            Class::Write => write.push(out.sampler),
        }
    }
    let write_sum = measure::summarise(&write);
    let read_sum = (!read.is_empty()).then(|| measure::summarise(&read));
    all.extend(read);
    all.extend(write);
    let all_sum = measure::summarise(&all);
    let report = WindowReport {
        latency: read_sum.clone().unwrap_or_else(|| all_sum.clone()),
        all: all_sum,
        write: write_sum,
        read: read_sum,
        committed_ops,
        rss_mb,
        window_secs: plan.window.as_secs_f64(),
        before,
        after,
    };
    (report, tracers)
}

/// Run one workload end to end in this process.
pub fn run<W: Workload>(opts: &RunOpts) -> Result<RunReport, String> {
    let mut setup_secs = Vec::new();
    let mut scratch_dirs = Vec::new();
    let mut env = None;
    let mut spent = 0.0;
    while setup_secs.len() < opts.min_setups
        || (spent < opts.setup_budget.as_secs_f64() && setup_secs.len() < 3000)
    {
        if let Some(old) = env.take() {
            W::discard(old);
        }
        let scratch = scratch_dir(W::NAME);
        scratch_dirs.push(scratch.clone());
        let started = Instant::now();
        let fresh = W::setup(opts.seed, &scratch);
        let took = started.elapsed().as_secs_f64();
        setup_secs.push(took);
        spent += took;
        env = Some(fresh);
    }
    let env = Arc::new(env.expect("at least one set-up"));

    let plan = Plan::starting_in(opts.warmup, opts.window, opts.slices, W::RSS_AFTER_TXNS);
    let (measured, _) = run_window(&env, plan, 0);
    let traced = opts.trace.then(|| {
        // Already warm: a short settle, then the traced window.
        let plan = Plan::starting_in(opts.warmup / 4, opts.window, opts.slices, 0);
        let (report, tracers) = run_window(&env, plan, W::TRACE_EVERY);
        let path = crate::sys::out_dir().join(format!("trace-{}.jsonl", W::NAME));
        if let Err(e) = trace::write_jsonl(&path, &tracers) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        (report, trace::summarise(&tracers))
    });

    let shape = env.shape_metrics();
    let env = Arc::try_unwrap(env)
        .map_err(|_| "generator threads still hold the environment".to_owned())?;
    // A failed gate leaves its scratch directory behind for inspection.
    let verified = env
        .verify()
        .map_err(|e| format!("{}: correctness gate failed: {e}", W::NAME))?;
    for dir in scratch_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(RunReport {
        workload: W::NAME,
        opts: opts.clone(),
        setup_secs,
        measured,
        traced,
        verified,
        shape,
        exit_rss_mb: crate::sys::peak_rss_mb(),
    })
}

pub fn run_by_name(name: &str, opts: &RunOpts) -> Result<RunReport, String> {
    match name {
        spec::EMBEDDED_DISJOINT => run::<disjoint::Disjoint>(opts),
        spec::EMBEDDED_CONTENDED => run::<contended::Contended>(opts),
        spec::EMBEDDED_READMOSTLY => run::<readmostly::ReadMostly>(opts),
        spec::WIRE_DISJOINT => run::<wire::Wire>(opts),
        spec::DURABLE_COMMIT => run::<durable::Durable>(opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl WindowReport {
    /// The per-layer metrics read from counters over this window.
    fn counter_metrics(&self) -> Vec<(&'static str, f64)> {
        let a = &self.before.stats.aggregate;
        let b = &self.after.stats.aggregate;
        let d = |f: fn(&sbcc_core::KernelStats) -> u64| f(b).saturating_sub(f(a));
        let requests = d(|s| s.requests);
        let executed = d(|s| s.operations_executed);
        let snapshot_reads = d(|s| s.snapshot_reads);
        let ops = executed + snapshot_reads;
        let commits = d(|s| s.commits);
        let begun = d(|s| s.transactions_begun);
        let edges = d(|s| s.graph_edges);
        let locks = |s: &Snapshot| {
            s.stats
                .shards
                .iter()
                .map(|sh| sh.lock_acquisitions)
                .sum::<u64>()
        };
        let reorder = |s: &Snapshot| s.stats.reorder;
        let violations = reorder(&self.after).violations - reorder(&self.before).violations;
        let relabeled =
            reorder(&self.after).nodes_relabeled - reorder(&self.before).nodes_relabeled;
        let global_checks =
            self.after.stats.global_cycle_checks - self.before.stats.global_cycle_checks;
        let mut out = vec![
            (
                "failed_share",
                ratio(self.all.failed_attempts, self.all.attempts),
            ),
            ("txn_p99_us", self.latency.tail_us),
            ("core.kernel.block_share", ratio(d(|s| s.blocks), requests)),
            (
                "core.kernel.commit_dep_share",
                ratio(d(|s| s.commit_dependencies), requests),
            ),
            (
                "core.kernel.pseudo_commit_share",
                ratio(d(|s| s.pseudo_commits), commits),
            ),
            // Executed operations per operation of a transaction that went
            // on to commit: above 1 is work thrown away by aborts.
            ("core.kernel.ops_per_commit", ratio(ops, self.committed_ops)),
            (
                "core.kernel.abort_share.deadlock",
                ratio(d(|s| s.aborts_deadlock), begun),
            ),
            (
                "core.kernel.abort_share.commit_cycle",
                ratio(d(|s| s.aborts_commit_cycle), begun),
            ),
            (
                "core.kernel.abort_share.victim",
                ratio(d(|s| s.aborts_victim), begun),
            ),
            (
                "core.kernel.abort_share.ssi",
                ratio(d(|s| s.aborts_ssi), begun),
            ),
            (
                "core.kernel.abort_share.undeclared",
                ratio(d(|s| s.aborts_undeclared), begun),
            ),
            ("graph.edges_per_op", ratio(edges, ops)),
            (
                "graph.reorder_violations_per_kop",
                ratio(violations * 1000, ops),
            ),
            (
                "graph.relabeled_per_violation",
                ratio(relabeled, violations),
            ),
            (
                "core.shard.escalated_edge_share",
                ratio(d(|s| s.escalated_edges), edges),
            ),
            (
                "core.shard.global_cycle_checks_per_op",
                ratio(global_checks, ops),
            ),
            (
                "core.shard.lock_acq_per_op",
                ratio(locks(&self.after) - locks(&self.before), ops),
            ),
            (
                "core.mvcc.snapshot_reads_per_s",
                snapshot_reads as f64 / self.window_secs,
            ),
            (
                "core.mvcc.versions_pruned_per_commit",
                ratio(d(|s| s.versions_pruned), commits),
            ),
        ];
        if let Some(read) = &self.read {
            out.push(("read_txn_per_s", read.rate));
            out.push(("write_txn_p50_us", self.write.p50_us));
        }
        if let (Some(n0), Some(n1)) = (self.before.net, self.after.net) {
            out.push(("net.server.shed_busy", (n1.shed_busy - n0.shed_busy) as f64));
            out.push((
                "net.server.sessions_auto_aborted",
                (n1.sessions_auto_aborted - n0.sessions_auto_aborted) as f64,
            ));
        }
        let wal_bytes = self.after.wal_bytes.saturating_sub(self.before.wal_bytes);
        if self.after.wal_bytes > 0 {
            out.push(("wal.bytes_per_op", ratio(wal_bytes, executed)));
            out.push(("wal.bytes_per_commit", ratio(wal_bytes, commits)));
        }
        out
    }
}

impl RunReport {
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup_secs)
    }

    /// The end-to-end metrics, from the untraced window only.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let m = &self.measured;
        vec![
            ("txn_per_s", m.all.rate),
            ("write_txn_per_s", m.write.rate),
            ("txn_p50_us", m.latency.p50_us),
            // Falls back to the reading at exit when a run was too short
            // to reach the fixed transaction count.
            ("peak_rss_mb", m.rss_mb.unwrap_or(self.exit_rss_mb)),
            ("setup_s", self.setup_s()),
        ]
    }

    /// The per-layer metrics this run measured itself: counters over the
    /// untraced window, gate metrics, shape metrics and, from the traced
    /// window, span medians and the tracing overhead.
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        out.extend(self.measured.counter_metrics());
        out.insert("proc.rss_at_exit_mb", self.exit_rss_mb);
        out.extend(self.shape.iter().copied());
        out.extend(self.verified.metrics.iter().copied());
        if let Some((window, spans)) = &self.traced {
            // A span named `x` feeds the metric `x_ns` or `x_us`, whichever
            // is declared.
            for (span, ns) in &spans.p50_ns {
                let declared =
                    [("_ns", 1.0), ("_us", 1e-3)]
                        .into_iter()
                        .find_map(|(suffix, scale)| {
                            spec::per_layer(&format!("{span}{suffix}"))
                                .map(|m| (m.name, ns * scale))
                        });
                out.extend(declared);
            }
            out.insert("bench.txn_self_ns", spans.txn_self_p50_ns);
            out.insert(
                "trace.overhead_share",
                1.0 - window.all.rate / self.measured.all.rate,
            );
        }
        out.retain(|name, _| spec::per_layer(name).is_some_and(|m| m.applies_to(self.workload)));
        out
    }

    pub fn to_json(&self) -> Json {
        let m = &self.measured;
        let metric = |name: &str, value: f64| {
            let unit = Json::str(spec::unit_of(name));
            (
                name.to_owned(),
                Json::obj([("value", Json::Num(value)), ("unit", unit)]),
            )
        };
        let e2e = self
            .end_to_end()
            .into_iter()
            .map(|(name, value)| metric(name, value))
            .collect();
        let layers = self
            .per_layer()
            .into_iter()
            .map(|(name, value)| metric(name, value))
            .collect();
        Json::obj([
            ("name", Json::str(self.workload)),
            ("valid", Json::Bool(true)),
            ("seed", Json::Num(self.opts.seed as f64)),
            ("warmup_s", Json::Num(self.opts.warmup.as_secs_f64())),
            ("window_s", Json::Num(self.opts.window.as_secs_f64())),
            ("slices", Json::Num(self.opts.slices as f64)),
            ("traced", Json::Bool(self.opts.trace)),
            ("generator_threads", Json::Num(GENERATORS as f64)),
            ("attempted", Json::Num(m.all.committed as f64)),
            ("failed", Json::Num(0.0)),
            (
                "samples",
                Json::obj([
                    ("committed", Json::Num(m.latency.committed as f64)),
                    ("latency_kept", Json::Num(m.latency.samples as f64)),
                    (
                        "latency_min_slice",
                        Json::Num(m.latency.min_slice_samples as f64),
                    ),
                    ("tail_percentile", Json::Num(m.latency.tail_percentile)),
                    ("tail_pooled", Json::Bool(m.latency.tail_pooled)),
                    ("setups", Json::Num(self.setup_secs.len() as f64)),
                    (
                        "spans",
                        Json::Num(self.traced.as_ref().map_or(0.0, |(_, s)| s.spans as f64)),
                    ),
                ]),
            ),
            ("txn_per_s_slices", Json::nums(&m.all.rate_slices)),
            ("end_to_end", Json::Obj(e2e)),
            ("per_layer", Json::Obj(layers)),
            (
                "checks",
                Json::Arr(self.verified.checks.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// The human report: every metric by name with its unit, and the
    /// sample count behind each percentile.
    pub fn print(&self) {
        let m = &self.measured;
        println!(
            "== {}  seed {}  warm-up {:.1}s  window {:.1}s in {} slices  {} set-ups  {} generator threads  nproc {}",
            self.workload,
            self.opts.seed,
            self.opts.warmup.as_secs_f64(),
            self.opts.window.as_secs_f64(),
            self.opts.slices,
            self.setup_secs.len(),
            GENERATORS,
            crate::sys::nproc()
        );
        // The sample counts behind the throughput and each percentile.
        let note = |name: &str| match name {
            "txn_per_s" => format!(
                "  [{} committed; slices min {:.0} max {:.0}]",
                m.all.committed,
                m.all
                    .rate_slices
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min),
                m.all.rate_slices.iter().copied().fold(0.0, f64::max)
            ),
            "txn_p50_us" => format!(
                "  [median of slices; {} samples kept, smallest slice {}]",
                m.latency.samples, m.latency.min_slice_samples
            ),
            "txn_p99_us" => format!(
                "  [p{} {}; {} samples kept, smallest slice {}]",
                m.latency.tail_percentile,
                if m.latency.tail_pooled {
                    "pooled window"
                } else {
                    "median of slices"
                },
                m.latency.samples,
                m.latency.min_slice_samples
            ),
            _ => String::new(),
        };
        for (name, value) in self.end_to_end().into_iter().chain(self.per_layer()) {
            let unit = spec::unit_of(name);
            println!("  {name:<44} {value:>16.4} {unit:<6}{}", note(name));
        }
        if let Some((_, spans)) = &self.traced {
            let mut counts: Vec<_> = spans.counts.iter().collect();
            counts.sort();
            let counts: Vec<String> = counts.iter().map(|(k, n)| format!("{k}={n}")).collect();
            println!("  spans: {} ({})", spans.spans, counts.join(", "));
        }
        for check in &self.verified.checks {
            println!("  ok: {check}");
        }
    }
}
