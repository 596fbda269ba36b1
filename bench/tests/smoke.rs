//! End-to-end self-test: a `--smoke` pass (0.5 s windows) of all five
//! workloads, the ladder and the probes, through the real binary, checking
//! that every output parses and names every declared metric exactly once.

use sbcc_bench_harness::json::{self, Json};
use sbcc_bench_harness::spec;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sbcc-bench"))
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn sbcc-bench");
    assert!(
        out.status.success(),
        "{cmd:?} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The keys of a JSON object, asserting that none repeats.
fn unique_keys(obj: &Json, what: &str) -> BTreeSet<String> {
    let pairs = obj
        .as_obj()
        .unwrap_or_else(|| panic!("{what} is not an object"));
    let keys: BTreeSet<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(keys.len(), pairs.len(), "{what} repeats a key");
    keys
}

fn names<'a>(names: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
    names.into_iter().map(str::to_owned).collect()
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, and each metric a `{value, unit}` with a finite value.
fn contract_metrics(stdout: &str) -> BTreeSet<String> {
    let last = stdout.lines().last().expect("some output");
    let doc = json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    assert_eq!(
        unique_keys(&doc, "result"),
        names(["correct", "attempted", "failed", "metrics"])
    );
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = doc.get("metrics").unwrap();
    for (name, entry) in metrics.as_obj().unwrap() {
        assert_eq!(unique_keys(entry, name), names(["value", "unit"]));
        assert!(
            entry
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
    }
    unique_keys(metrics, "metrics")
}

#[test]
fn every_workload_smokes_and_reports_every_end_to_end_metric() {
    for w in &spec::WORKLOADS {
        let stdout = run_ok(bench().args([
            "--workload",
            w.name,
            "--seed",
            "3",
            "--trace",
            "0",
            "--smoke",
        ]));
        assert_eq!(
            contract_metrics(&stdout),
            names(spec::END_TO_END.iter().map(|m| m.name)),
            "{}",
            w.name
        );
        // Every metric is also printed by name for a human.
        for m in &spec::END_TO_END {
            assert!(
                stdout.contains(m.name),
                "{} does not print {}",
                w.name,
                m.name
            );
        }
    }
}

#[test]
fn a_traced_smoke_reports_every_per_layer_metric_with_ladder_and_probes() {
    let stdout = run_ok(bench().args([
        "--workload",
        spec::WIRE_DISJOINT,
        "--seed",
        "3",
        "--trace",
        "1",
        "--smoke",
    ]));
    assert_eq!(
        contract_metrics(&stdout),
        names(spec::PER_LAYER.iter().map(|m| m.name))
    );
    assert!(stdout.contains("== ladder") && stdout.contains("== probes"));
    let spans = sbcc_bench_harness::sys::out_dir().join("trace-wire_disjoint.jsonl");
    let text = std::fs::read_to_string(&spans).expect("span file");
    let first = json::parse(text.lines().next().expect("at least one span")).unwrap();
    for key in ["name", "start", "end", "parent", "txn"] {
        assert!(first.get(key).is_some(), "span lacks {key}");
    }
}

#[test]
fn run_all_writes_a_result_file_that_compare_accepts() {
    let out: PathBuf =
        sbcc_bench_harness::sys::out_dir().join(format!("selftest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let stdout = run_ok(
        bench()
            .args(["run", "--all", "--smoke", "--seed", "5", "--out"])
            .arg(&out),
    );
    assert!(stdout.trim_end().ends_with("\"claim\": null"));
    let file = out.join("run-seed5.json");
    let doc = json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
    assert_eq!(doc.get("claim"), Some(&Json::Null));
    let env = doc.get("env").unwrap();
    for key in [
        "nproc", "commit", "rustc", "profile", "seed", "warmup_s", "window_s", "slices",
    ] {
        assert!(env.get(key).is_some(), "env lacks {key}");
    }
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (w, declared) in workloads.iter().zip(&spec::WORKLOADS) {
        assert_eq!(w.get("name").and_then(Json::as_str), Some(declared.name));
        assert!(w.get("generator_threads").and_then(Json::as_f64).unwrap() <= 2.0);
        assert!(w
            .get("samples")
            .and_then(|s| s.get("latency_kept"))
            .is_some());
        assert_eq!(
            unique_keys(w.get("end_to_end").unwrap(), "end_to_end"),
            names(spec::END_TO_END.iter().map(|m| m.name))
        );
        // Untraced: exactly the window-sourced metrics that apply here.
        let expected = spec::PER_LAYER
            .iter()
            .filter(|m| m.source == spec::Source::Window && m.applies_to(declared.name))
            .map(|m| m.name);
        assert_eq!(
            unique_keys(w.get("per_layer").unwrap(), "per_layer"),
            names(expected),
            "{}",
            declared.name
        );
    }
    // A set compared with itself is within every bound.
    let verdicts = run_ok(bench().arg("compare").arg(&file).arg(&file));
    assert!(
        verdicts.contains("within") && verdicts.contains("0 regressed, 0 unresolved"),
        "{verdicts}"
    );
    let _ = std::fs::remove_dir_all(&out);
}
