//! What the benchmark declares: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` is generated
//! from this file and `bench/README.md` says, for each per-layer metric,
//! which end-to-end metric it should move; the self-tests hold all three
//! together.

use crate::json::Json;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const EMBEDDED_DISJOINT: &str = "embedded_disjoint";
pub const EMBEDDED_CONTENDED: &str = "embedded_contended";
pub const EMBEDDED_READMOSTLY: &str = "embedded_readmostly";
pub const WIRE_DISJOINT: &str = "wire_disjoint";
pub const DURABLE_COMMIT: &str = "durable_commit";

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: EMBEDDED_DISJOINT,
        why: "No conflicts, socket or log: core.db sessions, shard locks and the commit protocol do the work. Base of the tax ratios; bypass workload for classifier, net and WAL changes.",
    },
    WorkloadSpec {
        name: EMBEDDED_CONTENDED,
        why: "The paper's workload: 32 live txns on 8 hot objects, so classification, commit-dependency edges, cycle checks, blocking, wake-up, pseudo-commit and aborts dominate.",
    },
    WorkloadSpec {
        name: EMBEDDED_READMOSTLY,
        why: "MVCC/SSI snapshot reads beside classified writers on 256 zipf objects: a read-path gain that taxes writers shows as a drop in write_txn_per_s.",
    },
    WorkloadSpec {
        name: WIRE_DISJOINT,
        why: "The embedded_disjoint transaction over loopback TCP: net does most of the work, the kernel almost none; the ratio to embedded_disjoint is the socket tax.",
    },
    WorkloadSpec {
        name: DURABLE_COMMIT,
        why: "The same transaction with GroupCommit 2 ms WAL on executor threads: wal append and the durable wait dominate; the ratio to embedded_disjoint is the durability tax.",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The contract's bound: the share of the baseline median by which the
    /// metric may get worse. One number for all five workloads, so it is
    /// what the noisiest of them can hold on this machine.
    pub bound: f64,
    /// The issue's bound, which `sbcc-bench compare` applies per workload:
    /// a steady workload is held to it, a noisy one reads `unresolved`.
    pub compare_bound: f64,
    pub about: &'static str,
}

/// Every workload reports every one of these, and none is ever zero.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        compare_bound: 0.10,
        about: "committed transactions per second; median over the window's 15 slices",
    },
    EndToEnd {
        name: "write_txn_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        compare_bound: 0.10,
        about: "committed classified (non-snapshot) transactions per second; equals txn_per_s except on embedded_readmostly, where it is the writer thread alone",
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        compare_bound: 0.10,
        about: "first begin to commit acknowledgement, retries included; median over slices of the slice median (read transactions on embedded_readmostly)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        compare_bound: 0.10,
        about: "VmHWM of the workload's own process once each generator thread has committed a fixed number of transactions (about 0.5 s of work)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        compare_bound: 0.25,
        about: "construct, register, connect, open WAL, pre-populate; median of the repeated set-ups in one process",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Counters and times read over the measured window of a run.
    Window,
    /// Spans recorded by the traced run.
    Trace,
    /// The layer ladder.
    Ladder,
    /// Fixed-input micro probes.
    Probe,
    /// ROADMAP's pinned pairs.
    Pair,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Workloads that produce the metric; empty means workload-independent
    /// (ladder, probes, pairs).
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &[
    EMBEDDED_DISJOINT,
    EMBEDDED_CONTENDED,
    EMBEDDED_READMOSTLY,
    WIRE_DISJOINT,
    DURABLE_COMMIT,
];
const DISJOINT: &[&str] = &[EMBEDDED_DISJOINT];
const CONTENDED: &[&str] = &[EMBEDDED_CONTENDED];
const READMOSTLY: &[&str] = &[EMBEDDED_READMOSTLY];
const WIRE: &[&str] = &[WIRE_DISJOINT];
const DURABLE: &[&str] = &[DURABLE_COMMIT];
const NONE: &[&str] = &[];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        on,
    }
}

use Better::{Higher, Lower};
use Source::{Ladder, Pair, Probe, Trace, Window};

pub const PER_LAYER: [PerLayer; 76] = [
    // Demoted from the issue's end-to-end list: zero on some workload,
    // reported by one workload only, or (p99) too unsteady on this machine
    // to hold any bound the contract allows (see bench/README.md).
    layer("failed_share", "share", Lower, Window, ALL),
    layer("txn_p99_us", "us", Lower, Window, ALL),
    layer("read_txn_per_s", "1/s", Higher, Window, READMOSTLY),
    layer("write_txn_p50_us", "us", Lower, Window, READMOSTLY),
    layer("recovery_kops_per_s", "kop/s", Higher, Window, DURABLE),
    layer("proc.rss_at_exit_mb", "MB", Lower, Window, ALL),
    // Counters over the measured window.
    layer("core.kernel.block_share", "share", Lower, Window, ALL),
    layer("core.kernel.commit_dep_share", "share", Higher, Window, ALL),
    layer(
        "core.kernel.pseudo_commit_share",
        "share",
        Lower,
        Window,
        ALL,
    ),
    layer("core.kernel.ops_per_commit", "ratio", Lower, Window, ALL),
    layer(
        "core.kernel.abort_share.deadlock",
        "share",
        Lower,
        Window,
        ALL,
    ),
    layer(
        "core.kernel.abort_share.commit_cycle",
        "share",
        Lower,
        Window,
        ALL,
    ),
    layer(
        "core.kernel.abort_share.victim",
        "share",
        Lower,
        Window,
        ALL,
    ),
    layer("core.kernel.abort_share.ssi", "share", Lower, Window, ALL),
    layer(
        "core.kernel.abort_share.undeclared",
        "share",
        Lower,
        Window,
        ALL,
    ),
    layer("graph.edges_per_op", "ratio", Lower, Window, ALL),
    layer(
        "graph.reorder_violations_per_kop",
        "ratio",
        Lower,
        Window,
        ALL,
    ),
    layer("graph.relabeled_per_violation", "ratio", Lower, Window, ALL),
    layer(
        "core.shard.escalated_edge_share",
        "share",
        Lower,
        Window,
        ALL,
    ),
    layer(
        "core.shard.global_cycle_checks_per_op",
        "ratio",
        Lower,
        Window,
        ALL,
    ),
    layer("core.shard.lock_acq_per_op", "ratio", Lower, Window, ALL),
    layer(
        "core.mvcc.snapshot_reads_per_s",
        "1/s",
        Higher,
        Window,
        READMOSTLY,
    ),
    layer(
        "core.mvcc.versions_pruned_per_commit",
        "ratio",
        Lower,
        Window,
        READMOSTLY,
    ),
    layer("net.wire.bytes_per_op", "B", Lower, Window, WIRE),
    layer("net.server.shed_busy", "count", Lower, Window, WIRE),
    layer(
        "net.server.sessions_auto_aborted",
        "count",
        Lower,
        Window,
        WIRE,
    ),
    layer("wal.bytes_per_op", "B", Lower, Window, DURABLE),
    layer("wal.bytes_per_commit", "B", Lower, Window, DURABLE),
    // Traced run: median span length per name.
    layer("core.db.begin_ns", "ns", Lower, Trace, DISJOINT),
    layer("core.db.exec_ns", "ns", Lower, Trace, DISJOINT),
    layer("core.db.commit_ns", "ns", Lower, Trace, DISJOINT),
    layer("core.aio.exec_ns", "ns", Lower, Trace, CONTENDED),
    layer("core.aio.commit_ns", "ns", Lower, Trace, CONTENDED),
    layer(
        "core.mvcc.snapshot_begin_ns",
        "ns",
        Lower,
        Trace,
        READMOSTLY,
    ),
    layer("core.mvcc.snapshot_read_ns", "ns", Lower, Trace, READMOSTLY),
    layer("net.client.encode_ns", "ns", Lower, Trace, WIRE),
    layer("net.client.rtt_us", "us", Lower, Trace, WIRE),
    layer("net.client.decode_ns", "ns", Lower, Trace, WIRE),
    layer("wal.commit_ack_us", "us", Lower, Trace, DURABLE),
    layer("trace.overhead_share", "share", Lower, Trace, ALL),
    // Ladder: one T8 stream through successively deeper entry points.
    layer("ladder.adt_ns_per_op", "ns", Lower, Ladder, NONE),
    layer("ladder.object_ns_per_op", "ns", Lower, Ladder, NONE),
    layer("ladder.kernel_ns_per_op", "ns", Lower, Ladder, NONE),
    layer("ladder.db_ns_per_op", "ns", Lower, Ladder, NONE),
    layer("ladder.aio_ns_per_op", "ns", Lower, Ladder, NONE),
    layer("ladder.wire_ns_per_op", "ns", Lower, Ladder, NONE),
    layer("ladder.wal_never_ns_per_op", "ns", Lower, Ladder, NONE),
    layer("ladder.wal_group_ns_per_op", "ns", Lower, Ladder, NONE),
    // Probes: fixed inputs, median of five batches.
    layer("adt.table_holds_ns", "ns", Lower, Probe, NONE),
    layer("adt.apply_ns", "ns", Lower, Probe, NONE),
    layer("core.object.classify_ns.log8", "ns", Lower, Probe, NONE),
    layer("core.object.classify_ns.log64", "ns", Lower, Probe, NONE),
    layer(
        "core.object.classify_many_ns_per_call.log64",
        "ns",
        Lower,
        Probe,
        NONE,
    ),
    layer("graph.add_edge_ns", "ns", Lower, Probe, NONE),
    layer("graph.cycle_check_ns.n1000", "ns", Lower, Probe, NONE),
    layer("graph.remove_node_ns", "ns", Lower, Probe, NONE),
    layer("core.kernel.request_ns.free", "ns", Lower, Probe, NONE),
    layer(
        "core.kernel.request_ns.recoverable",
        "ns",
        Lower,
        Probe,
        NONE,
    ),
    layer("core.kernel.commit_ns", "ns", Lower, Probe, NONE),
    layer("core.kernel.batch_ns_per_call", "ns", Lower, Probe, NONE),
    layer("core.kernel.declared_ns_per_call", "ns", Lower, Probe, NONE),
    layer("net.protocol.encode_exec_ns", "ns", Lower, Probe, NONE),
    layer("net.protocol.decode_exec_ns", "ns", Lower, Probe, NONE),
    layer("net.protocol.frame_next_ns", "ns", Lower, Probe, NONE),
    layer("net.protocol.encode_batch16_ns", "ns", Lower, Probe, NONE),
    layer("wal.encode_record_ns", "ns", Lower, Probe, NONE),
    layer("wal.append_never_ns", "ns", Lower, Probe, NONE),
    layer("wal.append_always_us", "us", Lower, Probe, NONE),
    layer("wal.wait_durable_group_us", "us", Lower, Probe, NONE),
    layer("wal.parse_mb_per_s", "MB/s", Higher, Probe, NONE),
    // ROADMAP's pinned pairs: ratio of two throughputs, both bases printed.
    layer("pair.declared_over_classified", "ratio", Higher, Pair, NONE),
    layer("pair.batched_over_percall", "ratio", Higher, Pair, NONE),
    layer(
        "pair.snapshot_over_blocking.1shard",
        "ratio",
        Higher,
        Pair,
        NONE,
    ),
    layer(
        "pair.snapshot_over_blocking.4shard",
        "ratio",
        Higher,
        Pair,
        NONE,
    ),
    layer("pair.group_over_always", "ratio", Higher, Pair, NONE),
    layer("bench.txn_self_ns", "ns", Lower, Trace, ALL),
];

/// The declared unit of any metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
        .unwrap_or("")
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

impl PerLayer {
    /// Whether a run of `workload` measures this metric itself.
    pub fn applies_to(&self, workload: &str) -> bool {
        self.on.is_empty() || self.on.contains(&workload)
    }
}

/// Seconds of measured window the driver asks for.
pub const RUN_SECONDS: u64 = 15;

/// The contract file, generated from the declarations above.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("bench/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("bench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declarations_meet_the_contract_limits() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.on.iter().all(|w| workload(w).is_some()), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().render_pretty().len() < 64 * 1024);
    }

    #[test]
    fn readme_names_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        // `a.{b,c}_ns` in the README stands for `a.b_ns` and `a.c_ns`.
        let mut expanded = String::new();
        for token in readme.split('`') {
            match (token.find('{'), token.find('}')) {
                (Some(open), Some(close)) if open < close => {
                    for alt in token[open + 1..close].split(',') {
                        expanded.push_str(&format!(
                            "`{}{}{}` ",
                            &token[..open],
                            alt,
                            &token[close + 1..]
                        ));
                    }
                }
                _ => expanded.push_str(&format!("`{token}` ")),
            }
        }
        let named = |name: &str| expanded.contains(&format!("`{name}`"));
        for w in &WORKLOADS {
            assert!(named(w.name), "README lacks workload {}", w.name);
        }
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(named(name), "README lacks metric {name}");
        }
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(crate::json::parse(&text).unwrap(), benchmark_json());
    }
}
