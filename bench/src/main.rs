//! `sbcc-bench`: the repository's benchmark.
//!
//! ```text
//! sbcc-bench --workload W --seed N --seconds S --trace 0|1   one run, contract output
//! sbcc-bench run [--all | --workload W] [--seed N] [--seconds S] [--repeat K] [--smoke] [--out DIR]
//! sbcc-bench trace [--seed N] [--seconds S] [--smoke]        traced runs, ladder, probes
//! sbcc-bench ladder [--seed N] | probes | spec
//! sbcc-bench compare A B
//! ```
//!
//! See `bench/README.md` for what each number means.

use sbcc_bench_harness::json::{self, Json};
use sbcc_bench_harness::workloads::{self, RunOpts};
use sbcc_bench_harness::{compare, ladder, probes, spec, sys};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 11;

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    all: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
    /// Internal: where a child run writes its full report for the parent.
    report: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        repeat: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--report" => args.report = Some(PathBuf::from(value("--report")?)),
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_none() => args.command = Some(word.to_owned()),
            word => args.positional.push(word.to_owned()),
        }
    }
    Ok(args)
}

fn run_opts(args: &Args, seed: u64) -> RunOpts {
    let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS as f64);
    match (args.smoke, args.trace) {
        (true, trace) => RunOpts::smoke(seed, trace),
        (false, true) => RunOpts::traced(seed, seconds),
        (false, false) => RunOpts::measured(seed, seconds),
    }
}

/// Run `f` with an empty directory under `bench/out/`, removed afterwards
/// (the ladder's and the probes' logs live there).
fn with_scratch<R>(f: impl FnOnce(&Path) -> R) -> R {
    let dir = sys::out_dir().join(format!("scratch-layers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory under bench/out");
    let result = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn ladder_and_probes(seed: u64, sizes: ladder::Sizes) -> (Vec<ladder::Rung>, Vec<probes::Probe>) {
    with_scratch(|dir| (ladder::run(seed, sizes, dir), probes::run(dir)))
}

/// The ladder at the issue's size (or a token size for `--smoke`).
fn full_sizes(args: &Args) -> ladder::Sizes {
    if args.smoke {
        ladder::Sizes::scaled(200)
    } else {
        ladder::Sizes::FULL
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// One workload, in this process: the contract's entry point (and what
/// `run` spawns per workload, so that `peak_rss_mb` is per workload).
fn single(args: &Args, workload: &str) -> Result<(), String> {
    if sys::profile() == "debug" && !args.smoke {
        return Err(
            "this is a debug build; measure release builds only (or pass --smoke)".to_owned(),
        );
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let opts = run_opts(args, seed);
    let report = workloads::run_by_name(workload, &opts)?;
    report.print();
    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    if args.trace && args.report.is_none() {
        // Every per-layer metric: this workload's own, the ladder and the
        // probes. One that belongs to another workload reads 0 here. (A
        // child of `trace` skips this: its parent runs the layers once.)
        metrics.extend(spec::PER_LAYER.iter().map(|m| (m.name, 0.0)));
        metrics.extend(report.per_layer());
        let sizes = ladder::Sizes::scaled(if args.smoke { 200 } else { 2 });
        let (rungs, probed) = ladder_and_probes(seed, sizes);
        ladder::print(&rungs);
        probes::print(&probed);
        metrics.extend(rungs.iter().map(|r| (r.metric, r.ns_per_op)));
        metrics.extend(probed.iter().map(|p| (p.metric, p.value)));
    } else if !args.trace {
        metrics.extend(report.end_to_end());
    }
    if let Some(path) = &args.report {
        std::fs::write(path, report.to_json().render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let contract = Json::obj([
        ("correct", Json::Bool(true)),
        (
            "attempted",
            Json::Num(report.measured.all.committed.max(1) as f64),
        ),
        ("failed", Json::Num(0.0)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value)| (name.to_owned(), metric_json(value, spec::unit_of(name))))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", contract.render());
    Ok(())
}

/// Run one workload in a child process and read its report back.
fn spawn_workload(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let report_path = sys::out_dir().join(format!("report-{}-{workload}.json", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    cmd.arg("--report").arg(&report_path);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    if !status.success() {
        return Err(format!("the {workload} run is invalid ({status})"));
    }
    let text = std::fs::read_to_string(&report_path)
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    let _ = std::fs::remove_file(&report_path);
    json::parse(&text)
}

fn selected_workloads(args: &Args) -> Result<Vec<&'static str>, String> {
    match &args.workload {
        Some(name) if !args.all => spec::workload(name)
            .map(|w| vec![w.name])
            .ok_or_else(|| format!("unknown workload {name:?}")),
        _ => Ok(spec::WORKLOADS.iter().map(|w| w.name).collect()),
    }
}

fn result_doc(
    kind: &str,
    seed: u64,
    opts: &RunOpts,
    workloads: Vec<Json>,
    extra: Vec<(&str, Json)>,
) -> Json {
    let mut env = match sys::env_json() {
        Json::Obj(pairs) => pairs,
        _ => Vec::new(),
    };
    env.push(("seed".to_owned(), Json::Num(seed as f64)));
    env.push(("warmup_s".to_owned(), Json::Num(opts.warmup.as_secs_f64())));
    env.push(("window_s".to_owned(), Json::Num(opts.window.as_secs_f64())));
    env.push(("slices".to_owned(), Json::Num(opts.slices as f64)));
    env.push((
        "generator_threads".to_owned(),
        Json::Num(workloads::GENERATORS as f64),
    ));
    let mut doc = vec![
        ("schema".to_owned(), Json::Num(1.0)),
        ("kind".to_owned(), Json::str(kind)),
        ("env".to_owned(), Json::Obj(env)),
        ("workloads".to_owned(), Json::Arr(workloads)),
    ];
    doc.extend(extra.into_iter().map(|(k, v)| (k.to_owned(), v)));
    // This tool measures; it never claims a gain.
    doc.push(("claim".to_owned(), Json::Null));
    Json::Obj(doc)
}

fn write_result(dir: &Path, name: &str, doc: &Json) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let out = args.out.clone().unwrap_or_else(sys::out_dir);
    let base_seed = args.seed.unwrap_or(DEFAULT_SEED);
    for k in 0..args.repeat.max(1) as u64 {
        let seed = base_seed + k;
        let opts = run_opts(args, seed);
        let mut reports = Vec::new();
        for workload in selected_workloads(args)? {
            reports.push(spawn_workload(args, workload, seed, false)?);
        }
        let doc = result_doc("run", seed, &opts, reports, Vec::new());
        let path = write_result(&out, &format!("run-seed{seed}.json"), &doc)?;
        println!("wrote {}", path.display());
    }
    println!("\"claim\": null");
    Ok(())
}

fn layers_json(rungs: &[ladder::Rung], probed: &[probes::Probe]) -> (Json, Json) {
    let ladder = Json::Arr(
        rungs
            .iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::str(r.metric)),
                    ("value", Json::Num(r.ns_per_op)),
                    ("unit", Json::str("ns")),
                    ("txns", Json::Num(r.txns as f64)),
                    ("entry_point", Json::str(r.entry_point)),
                    ("self_over", r.above.map_or(Json::Null, Json::str)),
                ])
            })
            .collect(),
    );
    let probes = Json::Arr(
        probed
            .iter()
            .map(|p| {
                let mut pairs = vec![
                    ("name", Json::str(p.metric)),
                    ("value", Json::Num(p.value)),
                    ("unit", Json::str(spec::unit_of(p.metric))),
                ];
                if let Some((a, b)) = p.bases {
                    pairs.push(("bases_per_s", Json::nums(&[a, b])));
                }
                Json::obj(pairs)
            })
            .collect(),
    );
    (ladder, probes)
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let opts = if args.smoke {
        RunOpts::smoke(seed, true)
    } else {
        RunOpts::traced(seed, args.seconds.unwrap_or(spec::RUN_SECONDS as f64))
    };
    let mut reports = Vec::new();
    for workload in selected_workloads(args)? {
        reports.push(spawn_workload(args, workload, seed, true)?);
    }
    let (rungs, probed) = ladder_and_probes(seed, full_sizes(args));
    ladder::print(&rungs);
    probes::print(&probed);
    let (ladder, probes) = layers_json(&rungs, &probed);
    let doc = result_doc(
        "trace",
        seed,
        &opts,
        reports,
        vec![("ladder", ladder), ("probes", probes)],
    );
    let out = args.out.clone().unwrap_or_else(sys::out_dir);
    let path = write_result(&out, &format!("trace-seed{seed}.json"), &doc)?;
    println!(
        "wrote {} and {}/trace-<workload>.jsonl",
        path.display(),
        sys::out_dir().display()
    );
    println!("\"claim\": null");
    Ok(())
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    match args.command.as_deref() {
        None => match &args.workload {
            Some(workload) => single(args, workload).map(|()| ExitCode::SUCCESS),
            None => Err("nothing to do; see bench/README.md".to_owned()),
        },
        Some("run") => cmd_run(args).map(|()| ExitCode::SUCCESS),
        Some("trace") => cmd_trace(args).map(|()| ExitCode::SUCCESS),
        Some("ladder") => {
            let seed = args.seed.unwrap_or(DEFAULT_SEED);
            ladder::print(&with_scratch(|dir| {
                ladder::run(seed, full_sizes(args), dir)
            }));
            Ok(ExitCode::SUCCESS)
        }
        Some("probes") => {
            probes::print(&with_scratch(probes::run));
            Ok(ExitCode::SUCCESS)
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match args.positional.as_slice() {
            [a, b] => {
                let (regressed, _) = compare::run(Path::new(a), Path::new(b))?;
                Ok(if regressed == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                })
            }
            _ => Err("compare takes two result files or directories".to_owned()),
        },
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    // The program under test reads these; the benchmark pins every one of
    // the settings they would override.
    for var in ["SBCC_SHARDS", "SBCC_WAL", "SBCC_WAL_FSYNC", "SBCC_DECLARED"] {
        std::env::remove_var(var);
    }
    match parse_args().and_then(|args| dispatch(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sbcc-bench: {e}");
            ExitCode::from(2)
        }
    }
}
