//! `sbcc-bench compare A B`: is set B within the bounds of set A?
//!
//! A set is a result file written by `run`, or a directory of them (one
//! per seed). For every workload and guarded metric the verdict is
//! `unresolved` when either set's own spread (interquartile distance over
//! median) is wider than the bound, `regressed` when B's median is worse
//! than A's by more than the bound, and `within` otherwise. Every ratio is
//! printed with its base.

use crate::json::{self, Json};
use crate::spec::{self, Better};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// A guarded metric: where it lives in a result file and what it may do.
struct Guard {
    name: &'static str,
    section: &'static str,
    better: Better,
    bound: f64,
    /// The bound is an absolute difference, not a share of A's median.
    absolute: bool,
}

/// The end-to-end metrics under the issue's bounds (`compare_bound`), plus
/// the four the issue wanted end to end that the contract could not hold
/// there (zero or absent on some workload, or too unsteady).
fn guards() -> Vec<Guard> {
    let mut all: Vec<Guard> = spec::END_TO_END
        .iter()
        .map(|m| Guard {
            name: m.name,
            section: "end_to_end",
            better: m.better,
            bound: m.compare_bound,
            absolute: false,
        })
        .collect();
    let layer = |name, better, bound, absolute| Guard {
        name,
        section: "per_layer",
        better,
        bound,
        absolute,
    };
    all.push(layer("txn_p99_us", Better::Lower, 0.20, false));
    all.push(layer("failed_share", Better::Lower, 0.01, true));
    all.push(layer("read_txn_per_s", Better::Higher, 0.10, false));
    all.push(layer("recovery_kops_per_s", Better::Higher, 0.10, false));
    all
}

/// workload -> metric -> one value per run of the set.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_file(path: &Path, into: &mut Set) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no \"workloads\" array", path.display()))?;
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        for section in ["end_to_end", "per_layer"] {
            for (metric, entry) in w.get(section).and_then(Json::as_obj).unwrap_or(&[]) {
                if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                    into.entry(name.clone())
                        .or_default()
                        .entry(format!("{section}/{metric}"))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok(())
}

fn load(path: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        for file in files {
            load_file(&file, &mut set)?;
        }
    } else {
        load_file(path, &mut set)?;
    }
    if set.is_empty() {
        return Err(format!("{}: no results", path.display()));
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Unresolved,
}

/// The verdict for one metric on one workload, from the two sets' values.
fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
    absolute: bool,
) -> (Verdict, f64, Option<f64>, Option<f64>) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // How much worse B is than A, in the unit the bound is stated in.
    let worse = match (better, absolute) {
        (Better::Lower, true) => mb - ma,
        (Better::Higher, true) => ma - mb,
        (Better::Lower, false) => (mb - ma) / ma.abs(),
        (Better::Higher, false) => (ma - mb) / ma.abs(),
    };
    let width = |v: &[f64], m: f64| {
        stats::quartiles(v).map(|(q1, q3)| {
            if absolute {
                q3 - q1
            } else {
                (q3 - q1) / m.abs()
            }
        })
    };
    let (sa, sb) = (width(a, ma), width(b, mb));
    let too_wide = sa.into_iter().chain(sb).any(|s| s > bound);
    let verdict = if too_wide {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (verdict, worse, sa, sb)
}

/// Compare two sets; prints the table and returns how many pairs
/// regressed and how many are unresolved.
pub fn run(a_path: &Path, b_path: &Path) -> Result<(usize, usize), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A = {}   B = {}", a_path.display(), b_path.display());
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    let fmt_spread = |s: Option<f64>, absolute: bool| match s {
        Some(s) if absolute => format!("{s:.4}"),
        Some(s) => format!("{:.1}%", s * 100.0),
        None => "n/a".to_owned(),
    };
    for w in &spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        for g in guards() {
            let key = format!("{}/{}", g.section, g.name);
            let (Some(va), Some(vb)) = (wa.get(&key), wb.get(&key)) else {
                continue;
            };
            let (verdict, worse, sa, sb) = judge(va, vb, g.better, g.bound, g.absolute);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Within => {}
            }
            let (worse, bound) = if g.absolute {
                (format!("{worse:+.4}"), format!("{:.2}", g.bound))
            } else {
                (
                    format!("{:+.1}%", worse * 100.0),
                    format!("{:.0}%", g.bound * 100.0),
                )
            };
            println!(
                "{:<20} {:<20} {:>14.4} {:>14.4} {:>9} {:>8} {:>8} {:>7}  {}  (n={}/{})",
                w.name,
                g.name,
                stats::median(va),
                stats::median(vb),
                worse,
                fmt_spread(sa, g.absolute),
                fmt_spread(sb, g.absolute),
                bound,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                },
                va.len(),
                vb.len(),
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved; \"B worse\" is relative to median A");
    Ok((regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [88.0, 89.0, 87.0, 88.5, 87.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        let v = |a: &[f64], b: &[f64], better| judge(a, b, better, 0.10, false).0;
        assert_eq!(v(&steady, &steady, Better::Higher), Verdict::Within);
        assert_eq!(v(&steady, &slower, Better::Higher), Verdict::Regressed);
        // The same drop is an improvement for a lower-is-better metric.
        assert_eq!(v(&steady, &slower, Better::Lower), Verdict::Within);
        assert_eq!(v(&slower, &steady, Better::Lower), Verdict::Regressed);
        assert_eq!(v(&steady, &noisy, Better::Higher), Verdict::Unresolved);
        // One run per set: no spread to hold against the bound.
        assert_eq!(v(&[100.0], &[95.0], Better::Higher), Verdict::Within);
        // Absolute bound: failed_share may rise by 0.01, whatever its base.
        assert_eq!(
            judge(&[0.0], &[0.005], Better::Lower, 0.01, true).0,
            Verdict::Within
        );
        assert_eq!(
            judge(&[0.0], &[0.02], Better::Lower, 0.01, true).0,
            Verdict::Regressed
        );
    }
}
