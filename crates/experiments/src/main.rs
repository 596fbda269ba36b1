//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro --table N            print Table N (1–10)
//! repro --figure N           reproduce Figure N (4–18)
//! repro --figures            reproduce every figure
//! repro --summary            recompute the Section 5.6 headline claims
//! repro --all                tables + figures + summary
//! repro --serve              run the wire-protocol TCP server
//! repro --bench-net          closed-loop network benchmark (multi-process capable)
//! repro --dst                explore seeds in the deterministic-simulation harness
//! repro --dst-replay SEED    replay one seed, shrinking the schedule on failure
//! repro --dst-snapshots      add two snapshot/SSI sessions to the DST workload
//! repro --crash-workload     run the durable smoke workload (pair with kill -9)
//! repro --crash-recover      recover the workload's log and self-check the prefix
//!
//! scale options:
//!   --quick                  2 000 completions, 1 run, mpl ∈ {10,25,50,100}
//!   --full                   50 000 completions, 10 runs (the paper's scale)
//!   --runs R                 override the number of runs per point
//!   --completions C          override the completions per run
//!   --mpl a,b,c              override the multiprogramming levels
//!   --csv                    emit CSV instead of aligned text
//! ```

use sbcc_experiments::bench_net;
use sbcc_experiments::figures::{FigureId, FigureRunner, Scale};
use sbcc_experiments::summary::compute_summary;
use sbcc_experiments::tables::render_table;
use std::process::ExitCode;

#[derive(Debug, Default)]
struct Args {
    tables: Vec<usize>,
    figures: Vec<usize>,
    all_figures: bool,
    summary: bool,
    all: bool,
    quick: bool,
    full: bool,
    runs: Option<usize>,
    completions: Option<u64>,
    mpl: Option<Vec<usize>>,
    csv: bool,
    serve: bool,
    bench_net: bool,
    addr: Option<String>,
    serve_for_ms: Option<u64>,
    conns: Option<usize>,
    duration_ms: Option<u64>,
    dst: bool,
    dst_seeds: u64,
    dst_seed_start: u64,
    dst_replay: Option<u64>,
    dst_snapshots: bool,
    wal: Option<String>,
    crash_workload: bool,
    crash_recover: bool,
    wal_dir: Option<String>,
    linger_ms: Option<u64>,
    help: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].as_str();
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {arg}"))
        };
        match arg {
            "--table" | "-t" => {
                let v = take_value(&mut i)?;
                args.tables.push(
                    v.parse()
                        .map_err(|_| format!("invalid table number {v:?}"))?,
                );
            }
            "--figure" | "-f" => {
                let v = take_value(&mut i)?;
                args.figures.push(
                    v.parse()
                        .map_err(|_| format!("invalid figure number {v:?}"))?,
                );
            }
            "--figures" => args.all_figures = true,
            "--summary" => args.summary = true,
            "--all" => args.all = true,
            "--serve" => args.serve = true,
            "--bench-net" => args.bench_net = true,
            "--addr" => {
                args.addr = Some(take_value(&mut i)?);
            }
            "--serve-for-ms" => {
                let v = take_value(&mut i)?;
                args.serve_for_ms = Some(
                    v.parse()
                        .map_err(|_| format!("invalid serve budget {v:?}"))?,
                );
            }
            "--conns" => {
                let v = take_value(&mut i)?;
                args.conns = Some(
                    v.parse()
                        .map_err(|_| format!("invalid connection count {v:?}"))?,
                );
            }
            "--duration-ms" => {
                let v = take_value(&mut i)?;
                args.duration_ms = Some(v.parse().map_err(|_| format!("invalid duration {v:?}"))?);
            }
            "--dst" => args.dst = true,
            "--dst-snapshots" => args.dst_snapshots = true,
            "--seeds" => {
                let v = take_value(&mut i)?;
                args.dst_seeds = v.parse().map_err(|_| format!("invalid seed count {v:?}"))?;
            }
            "--seed-start" => {
                let v = take_value(&mut i)?;
                args.dst_seed_start = v.parse().map_err(|_| format!("invalid start seed {v:?}"))?;
            }
            "--dst-replay" => {
                let v = take_value(&mut i)?;
                args.dst_replay = Some(
                    v.parse()
                        .map_err(|_| format!("invalid replay seed {v:?}"))?,
                );
            }
            "--wal" => {
                args.wal = Some(take_value(&mut i)?);
            }
            "--crash-workload" => args.crash_workload = true,
            "--crash-recover" => args.crash_recover = true,
            "--wal-dir" => {
                args.wal_dir = Some(take_value(&mut i)?);
            }
            "--linger-ms" => {
                let v = take_value(&mut i)?;
                args.linger_ms = Some(
                    v.parse()
                        .map_err(|_| format!("invalid linger budget {v:?}"))?,
                );
            }
            "--quick" => args.quick = true,
            "--full" => args.full = true,
            "--csv" => args.csv = true,
            "--runs" => {
                let v = take_value(&mut i)?;
                args.runs = Some(v.parse().map_err(|_| format!("invalid run count {v:?}"))?);
            }
            "--completions" => {
                let v = take_value(&mut i)?;
                args.completions = Some(
                    v.parse()
                        .map_err(|_| format!("invalid completion count {v:?}"))?,
                );
            }
            "--mpl" => {
                let v = take_value(&mut i)?;
                let levels: Result<Vec<usize>, _> =
                    v.split(',').map(|s| s.trim().parse()).collect();
                args.mpl = Some(levels.map_err(|_| format!("invalid mpl list {v:?}"))?);
            }
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

fn usage() -> &'static str {
    "repro — reproduce the tables and figures of \"Semantics-Based Concurrency Control: Beyond Commutativity\"\n\
     \n\
     usage:\n\
       repro --table N [--table M ...]      print Table N (1-10)\n\
       repro --figure N [--figure M ...]    reproduce Figure N (4-18)\n\
       repro --figures                      reproduce every figure\n\
       repro --summary                      recompute the Section 5.6 claims\n\
       repro --all                          tables + figures + summary\n\
       repro --serve                        run the wire-protocol TCP server over a fresh\n\
         [--addr A]                         database; bind A (default 127.0.0.1:0; the\n\
         [--serve-for-ms N]                 chosen port is printed), exit after N ms\n\
         [--wal DIR]                        write-ahead log to DIR (recover on start)\n\
       repro --crash-workload --wal-dir D   run the fixed 40-txn durable workload against\n\
         [--linger-ms N]                    D, print `workload-done`, linger N ms (default\n\
                                            forever) for a kill -9 driver\n\
       repro --crash-recover --wal-dir D    recover D and self-check the surviving state\n\
                                            against the workload prefix; prints\n\
                                            `recovered prefix=N/40`\n\
       repro --bench-net                    closed-loop network benchmark: clients commit\n\
         [--addr A]                         increment bursts over real sockets; target a\n\
         [--conns N]                        `repro --serve` at A or an in-process server,\n\
         [--duration-ms D]                  N connections (4) for D ms (2000)\n\
       repro --dst                          explore seeds in the deterministic-simulation\n\
         [--seeds N]                        harness (default 1000 seeds; prints failing\n\
         [--seed-start S]                   seeds and their repro commands)\n\
       repro --dst-replay SEED              replay one seed; on failure, shrink the\n\
                                            schedule and print the minimized trace\n\
       repro --dst-snapshots                add two snapshot/SSI sessions to the workload\n\
         (all need a build with --features dst)\n\
     \n\
     scale options:\n\
       --quick             2000 completions, 1 run, mpl in {10,25,50,100}\n\
       --full              50000 completions, 10 runs per point (paper scale)\n\
       --runs R            override runs per point\n\
       --completions C     override completions per run\n\
       --mpl a,b,c         override the multiprogramming levels\n\
       --csv               emit CSV instead of aligned text\n"
}

fn scale_from(args: &Args) -> Scale {
    let mut scale = if args.quick {
        Scale::quick()
    } else if args.full {
        Scale::full()
    } else {
        Scale::default_scale()
    };
    if let Some(runs) = args.runs {
        scale.runs = runs.max(1);
    }
    if let Some(completions) = args.completions {
        scale.completions = completions.max(1);
    }
    if let Some(mpl) = &args.mpl {
        if !mpl.is_empty() {
            scale.mpl_levels = mpl.clone();
        }
    }
    scale
}

/// The deterministic-simulation explorer. Exploration failures and
/// replay failures exit nonzero so CI legs fail loudly, printing each
/// failing seed plus its one-line repro command into the job log.
#[cfg(feature = "dst")]
fn run_dst(args: &Args) -> Result<(), ExitCode> {
    use sbcc_dst::{explore, run_seed, shrink_failure, DstConfig};

    let cfg = DstConfig {
        snapshot_sessions: if args.dst_snapshots { 2 } else { 0 },
    };
    if let Some(seed) = args.dst_replay {
        eprintln!("# replaying DST seed {seed}");
        let report = run_seed(seed, &cfg);
        println!(
            "seed={seed} verdict={} steps={} commits={} shards={}",
            report.verdict, report.steps, report.commits, report.shard_count
        );
        if report.failed() {
            eprintln!(
                "# shrinking the failing schedule ({} decisions)",
                report.decisions.len()
            );
            let shrunk = shrink_failure(&report, &cfg, 400);
            println!(
                "shrunk: {} of {} decisions, verdict={}",
                shrunk.decisions.len(),
                report.decisions.len(),
                shrunk.verdict
            );
            println!("--- minimized yield/fault trace ---");
            print!("{}", shrunk.trace);
            println!("--- repro: {} ---", report.repro_command());
            return Err(ExitCode::FAILURE);
        }
        print!("{}", report.trace);
    }
    if args.dst {
        let count = if args.dst_seeds == 0 {
            1000
        } else {
            args.dst_seeds
        };
        let start = args.dst_seed_start;
        eprintln!("# exploring DST seeds {start}..{}", start + count);
        let mut done: u64 = 0;
        let summary = explore(start, count, &cfg, |r| {
            done += 1;
            if r.failed() {
                eprintln!(
                    "FAILING SEED {}: {} ({})",
                    r.seed,
                    r.verdict,
                    r.repro_command()
                );
            } else if done % 500 == 0 {
                eprintln!("# {done}/{count} seeds, all passing so far");
            }
        });
        println!(
            "explored {} seeds: {} failing, {} total virtual steps",
            summary.runs,
            summary.failures.len(),
            summary.total_steps
        );
        if !summary.failures.is_empty() {
            for f in &summary.failures {
                println!("  seed {}: {}  # {}", f.seed, f.verdict, f.repro_command());
            }
            return Err(ExitCode::FAILURE);
        }
    }
    Ok(())
}

/// `repro --serve`: run the wire-protocol server over a fresh database,
/// forever or for `--serve-for-ms`. The bound address goes to stdout
/// first (and is flushed) so a driving process can scrape the port. A
/// bounded run exits nonzero if shutdown finds leaked connections or
/// sessions — the CI smoke leg's zero-leak assertion.
fn run_serve(args: &Args) -> ExitCode {
    use sbcc_core::aio::AsyncDatabase;
    use sbcc_net::{Server, ServerConfig};
    use std::io::Write;

    let addr = args
        .addr
        .clone()
        .unwrap_or_else(|| "127.0.0.1:0".to_owned());
    // `--wal DIR` layers durability under the served database (recovery
    // runs before the listener binds); without the flag nothing is logged.
    // Nothing reads a served database's history, and the recorder keeps
    // every operation for the life of the process.
    let mut config =
        sbcc_core::DatabaseConfig::new(sbcc_core::SchedulerConfig::default().with_history(false));
    if let Some(dir) = &args.wal {
        config = config.with_wal(sbcc_core::WalConfig::new(dir));
    }
    let server = match Server::start(
        AsyncDatabase::with_config(config),
        ServerConfig::default().with_addr(addr),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    match args.serve_for_ms {
        Some(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    let stats = server.shutdown();
    eprintln!("# {}", stats.summary());
    if stats.connections_open != 0 || stats.transactions_in_flight != 0 {
        eprintln!("error: shutdown leaked sessions or connections");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `repro --crash-workload`: the kill-9 half of the crash-recovery
/// smoke. Runs the fixed durable workload, prints `workload-done`, then
/// lingers (default: forever) so the driving process chooses the crash
/// point — mid-run or after completion.
fn run_crash_workload(args: &Args) -> ExitCode {
    let Some(dir) = &args.wal_dir else {
        eprintln!("error: --crash-workload needs --wal-dir DIR");
        return ExitCode::FAILURE;
    };
    sbcc_experiments::crash::run_workload(std::path::Path::new(dir));
    match args.linger_ms {
        Some(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    ExitCode::SUCCESS
}

/// `repro --crash-recover`: reopen the workload's log directory and
/// self-check that exactly a prefix of the sequence survived.
fn run_crash_recover(args: &Args) -> ExitCode {
    let Some(dir) = &args.wal_dir else {
        eprintln!("error: --crash-recover needs --wal-dir DIR");
        return ExitCode::FAILURE;
    };
    match sbcc_experiments::crash::run_recover(std::path::Path::new(dir)) {
        Ok(prefix) => {
            println!(
                "recovered prefix={prefix}/{}",
                sbcc_experiments::crash::CRASH_WORKLOAD_TXNS
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro --bench-net`: the closed-loop client side. With `--addr` it
/// drives a separately launched `repro --serve` (multi-process); without
/// it, an in-process server.
fn run_bench_net(args: &Args) -> ExitCode {
    use sbcc_core::aio::AsyncDatabase;
    use sbcc_net::{Server, ServerConfig};
    use std::net::ToSocketAddrs;

    let conns = args.conns.unwrap_or(4).max(1);
    let budget = std::time::Duration::from_millis(args.duration_ms.unwrap_or(2000));
    let ops_per_txn = 6;
    let report = match &args.addr {
        Some(addr) => {
            let target = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
                Some(t) => t,
                None => {
                    eprintln!("error: cannot resolve {addr:?}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("# driving {conns} closed-loop conns against {target} for {budget:?}");
            bench_net::closed_loop_timed(target, conns, ops_per_txn, budget)
        }
        None => {
            eprintln!(
                "# driving {conns} closed-loop conns against an in-process server for {budget:?}"
            );
            let server = match Server::start(
                AsyncDatabase::new(sbcc_core::SchedulerConfig::default().with_history(false)),
                ServerConfig::default(),
            ) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot bind in-process server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let report =
                bench_net::closed_loop_timed(server.local_addr(), conns, ops_per_txn, budget);
            let stats = server.shutdown();
            eprintln!("# {}", stats.summary());
            if stats.connections_open != 0 || stats.transactions_in_flight != 0 {
                eprintln!("error: bench leaked sessions or connections");
                return ExitCode::FAILURE;
            }
            report
        }
    };
    println!("{}", report.render_text());
    if report.txns_committed == 0 {
        eprintln!("error: the closed loop committed nothing");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(not(feature = "dst"))]
fn run_dst(_args: &Args) -> Result<(), ExitCode> {
    eprintln!(
        "error: this repro binary was built without the deterministic-simulation harness;\n\
         rebuild with `cargo run --release -p sbcc-experiments --features dst -- ...`"
    );
    Err(ExitCode::FAILURE)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if args.help
        || (args.tables.is_empty()
            && args.figures.is_empty()
            && !args.all_figures
            && !args.summary
            && !args.serve
            && !args.bench_net
            && !args.dst
            && args.dst_replay.is_none()
            && !args.crash_workload
            && !args.crash_recover
            && !args.all)
    {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }

    if args.crash_workload {
        return run_crash_workload(&args);
    }
    if args.crash_recover {
        return run_crash_recover(&args);
    }
    if args.serve {
        return run_serve(&args);
    }
    if args.bench_net {
        return run_bench_net(&args);
    }

    if args.dst || args.dst_replay.is_some() {
        match run_dst(&args) {
            Ok(()) => {}
            Err(code) => return code,
        }
    }

    // Tables.
    let mut tables = args.tables.clone();
    if args.all {
        tables = (1..=10).collect();
    }
    for n in tables {
        match render_table(n) {
            Some(text) => println!("{text}"),
            None => {
                eprintln!("error: no such table {n} (valid: 1-10)");
                return ExitCode::FAILURE;
            }
        }
    }

    // Figures and summary share a memoising runner.
    let wants_figures = args.all || args.all_figures || !args.figures.is_empty();
    let wants_summary = args.all || args.summary;
    if !wants_figures && !wants_summary {
        return ExitCode::SUCCESS;
    }
    let scale = scale_from(&args);
    eprintln!(
        "# scale: {} completions x {} run(s) per point, mpl levels {:?}",
        scale.completions, scale.runs, scale.mpl_levels
    );
    let mut runner = FigureRunner::new(scale);

    let figure_ids: Vec<FigureId> = if args.all || args.all_figures {
        FigureId::all()
    } else {
        let mut ids = Vec::new();
        for n in &args.figures {
            match FigureId::from_number(*n) {
                Some(id) => ids.push(id),
                None => {
                    eprintln!("error: no such figure {n} (valid: 4-18)");
                    return ExitCode::FAILURE;
                }
            }
        }
        ids
    };

    for id in figure_ids {
        eprintln!("# running {}", id.title());
        let figure = id.build(&mut runner);
        if args.csv {
            println!("{}", figure.render_csv());
        } else {
            println!("{}\n", figure.render_text());
        }
    }

    if wants_summary {
        eprintln!("# computing the Section 5.6 summary claims");
        let summary = compute_summary(&mut runner);
        println!("{}", summary.render_text());
    }

    ExitCode::SUCCESS
}
