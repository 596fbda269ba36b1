//! Facts about the machine and the build, recorded in every result file.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `VmHWM` of this process in MB: the high-water mark of resident memory.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// The benchmark's own directory (`bench/` of the checkout the binary was
/// built from), where `out/` lives.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `bench/out/`, created on first use: the only place a run writes to.
pub fn out_dir() -> PathBuf {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).expect("create bench/out");
    dir
}

/// Machine and build metadata. The driver's checkout is not a git
/// repository, so the commit may be unknown.
pub fn env_json() -> Json {
    let dir = bench_dir();
    let unknown = || "unknown".to_owned();
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"], &dir).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"], &dir).unwrap_or_else(unknown)),
        ),
        ("profile", Json::str(profile())),
    ])
}
