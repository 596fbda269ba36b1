//! Probes: fixed inputs, one public function each, ns per call as the
//! median of five batches — and ROADMAP's pinned pairs, each a ratio of two
//! throughputs with both bases printed.
//!
//! A probe times a whole batch with one pair of clock reads, so the clock
//! is never part of a per-call figure. Set-up a call needs (an object with a
//! long uncommitted log, a graph of a thousand nodes) is built outside the
//! timed region of every batch.

use crate::stats;
use crate::workloads::{db_config, durable};
use sbcc_adt::{
    AccessSet, AdtObject, AdtOp, AdtSpec, Counter, CounterOp, OpResult, SemanticObject, Stack,
    StackOp, Value,
};
use sbcc_core::{
    BatchCall, ConflictPolicy, Database, FsyncPolicy, ManagedObject, ObjectId, RecoveryStrategy,
    SchedulerConfig, SchedulerKernel, TxnId,
};
use sbcc_graph::{DependencyGraph, EdgeKind};
use sbcc_net::{FrameBuffer, Request, MAX_FRAME_LEN};
use sbcc_wal::record::{encode_record, parse_log};
use sbcc_wal::{LoggedOp, Wal, WalRecord};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;

pub struct Probe {
    pub metric: &'static str,
    pub value: f64,
    /// For pairs: the two throughputs the ratio was formed from.
    pub bases: Option<(f64, f64)>,
}

/// Median over batches of (timed duration / calls), in ns.
fn ns_per_call(mut batch: impl FnMut() -> (Duration, usize)) -> f64 {
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (took, calls) = batch();
            took.as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&per)
}

/// Time `calls` repetitions of `f` as one batch.
fn repeat(calls: usize, mut f: impl FnMut()) -> (Duration, usize) {
    let started = Instant::now();
    for _ in 0..calls {
        f();
    }
    (started.elapsed(), calls)
}

fn kernel() -> SchedulerKernel {
    SchedulerKernel::new(SchedulerConfig::default().with_history(false))
}

fn increment() -> sbcc_adt::OpCall {
    CounterOp::Increment(1).to_call()
}

fn adt_probes(out: &mut Vec<Probe>) {
    let table = Stack::commutativity_table();
    let (a, b) = (
        StackOp::Push(Value::Int(1)).to_call(),
        StackOp::Push(Value::Int(2)).to_call(),
    );
    push(
        out,
        "adt.table_holds_ns",
        ns_per_call(|| {
            repeat(200_000, || {
                black_box(table.holds(black_box(&a), black_box(&b)));
            })
        }),
    );
    let mut counter: Box<dyn SemanticObject> = Box::new(AdtObject::new(Counter::new()));
    let call = increment();
    push(
        out,
        "adt.apply_ns",
        ns_per_call(|| {
            repeat(200_000, || {
                black_box(counter.apply(black_box(&call)));
            })
        }),
    );
}

/// A stack whose log holds one uncommitted push from each of `n`
/// transactions.
fn stack_with_log(n: usize) -> ManagedObject {
    let mut object = ManagedObject::new(
        ObjectId(0),
        "stack",
        Box::new(AdtObject::new(Stack::new())),
        RecoveryStrategy::IntentionsList,
    );
    for t in 0..n {
        object.execute(
            TxnId(t as u64 + 1),
            t as u64,
            StackOp::Push(Value::Int(t as i64)).to_call(),
        );
    }
    object
}

fn object_probes(out: &mut Vec<Probe>) {
    let policy = ConflictPolicy::Recoverability;
    // A value no logged push carries: equal pushes commute (Yes-SP).
    let push_call = StackOp::Push(Value::Int(-1)).to_call();
    let newcomer = TxnId(10_000);
    for (metric, n) in [
        ("core.object.classify_ns.log8", 8),
        ("core.object.classify_ns.log64", 64),
    ] {
        let object = stack_with_log(n);
        assert_eq!(
            object
                .classify(policy, newcomer, &push_call, &[])
                .commit_deps
                .len(),
            n
        );
        push(
            out,
            metric,
            ns_per_call(|| {
                repeat(20_000, || {
                    black_box(object.classify(policy, newcomer, black_box(&push_call), &[]));
                })
            }),
        );
    }
    let object = stack_with_log(64);
    let group: Vec<&sbcc_adt::OpCall> = vec![&push_call; 8];
    push(
        out,
        "core.object.classify_many_ns_per_call.log64",
        ns_per_call(|| {
            let (took, calls) = repeat(4_000, || {
                black_box(object.classify_many(policy, newcomer, black_box(&group), &[]));
            });
            (took, calls * group.len())
        }),
    );
}

fn graph_probes(out: &mut Vec<Probe>) {
    // Scheduler-shaped inserts: a new transaction depends on an older one,
    // so no insert violates the maintained order.
    let n = 2_000u64;
    let chain = || {
        let mut g: DependencyGraph<u64> = DependencyGraph::new();
        let started = Instant::now();
        for i in 1..n {
            g.add_edge(i, i - 1, EdgeKind::CommitDep);
        }
        (g, started.elapsed())
    };
    push(
        out,
        "graph.add_edge_ns",
        ns_per_call(|| (chain().1, n as usize - 1)),
    );
    push(
        out,
        "graph.remove_node_ns",
        ns_per_call(|| {
            // Terminations in commit order: the removed node has no out-edges.
            let (mut g, _) = chain();
            let started = Instant::now();
            for i in 0..n {
                g.remove_node(i);
            }
            (started.elapsed(), n as usize)
        }),
    );
    // The dense 1000-node graph `repro --bench-kernel` checks against.
    let mut g: DependencyGraph<u64> = DependencyGraph::new();
    let nodes = 1000u64;
    for i in 1..nodes {
        g.add_edge(i, i - 1, EdgeKind::CommitDep);
        if i % 7 == 0 {
            g.add_edge(i, i / 2, EdgeKind::WaitFor);
        }
    }
    let queries: [(u64, Vec<u64>); 4] = [
        (nodes - 1, vec![0, nodes / 2]),
        (nodes / 2 + 1, vec![nodes / 2, 1]),
        (nodes / 2, vec![nodes / 2 + 2]),
        (nodes - 2, vec![nodes - 1]),
    ];
    push(
        out,
        "graph.cycle_check_ns.n1000",
        ns_per_call(|| {
            let (took, reps) = repeat(200, || {
                for (from, targets) in &queries {
                    black_box(g.would_close_cycle(*from, targets));
                }
            });
            (took, reps * queries.len())
        }),
    );
}

fn kernel_probes(out: &mut Vec<Probe>) {
    const TXNS: usize = 512;
    const GROUP: usize = 8;
    // A standing population of transactions, each with a private counter.
    let population = || {
        let mut k = kernel();
        let objects: Vec<ObjectId> = (0..TXNS)
            .map(|i| k.register(format!("c{i}"), Counter::new()).unwrap())
            .collect();
        let txns: Vec<TxnId> = (0..TXNS).map(|_| k.begin()).collect();
        (k, objects, txns)
    };
    push(
        out,
        "core.kernel.request_ns.free",
        ns_per_call(|| {
            let (mut k, objects, txns) = population();
            let call = increment();
            let started = Instant::now();
            for (t, o) in txns.iter().zip(&objects) {
                black_box(k.request(*t, *o, call.clone()).unwrap());
            }
            (started.elapsed(), TXNS)
        }),
    );
    push(
        out,
        "core.kernel.request_ns.recoverable",
        ns_per_call(|| {
            // 64 stacks, each behind the uncommitted pushes of the same 32
            // holders; then 64 newcomers push one stack each.
            let mut k = kernel();
            let stacks: Vec<ObjectId> = (0..64)
                .map(|i| k.register(format!("s{i}"), Stack::new()).unwrap())
                .collect();
            // Distinct values throughout: equal pushes commute (Yes-SP).
            for h in 0..32 {
                let holder = k.begin();
                let held = StackOp::Push(Value::Int(h)).to_call();
                for s in &stacks {
                    assert!(k.request(holder, *s, held.clone()).unwrap().is_executed());
                }
            }
            let push_call = StackOp::Push(Value::Int(-1)).to_call();
            let newcomers: Vec<TxnId> = stacks.iter().map(|_| k.begin()).collect();
            let started = Instant::now();
            for (t, s) in newcomers.iter().zip(&stacks) {
                black_box(k.request(*t, *s, push_call.clone()).unwrap());
            }
            let took = started.elapsed();
            assert_eq!(k.commit_dependencies_of(newcomers[0]).len(), 32);
            (took, stacks.len())
        }),
    );
    push(
        out,
        "core.kernel.commit_ns",
        ns_per_call(|| {
            let (mut k, objects, txns) = population();
            for (t, o) in txns.iter().zip(&objects) {
                for _ in 0..GROUP {
                    k.request(*t, *o, increment()).unwrap();
                }
            }
            let started = Instant::now();
            for t in &txns {
                black_box(k.commit(*t).unwrap());
            }
            black_box(k.drain_events());
            (started.elapsed(), TXNS)
        }),
    );
    let group = |o: ObjectId| -> Vec<BatchCall> {
        (0..GROUP).map(|_| BatchCall::new(o, increment())).collect()
    };
    push(
        out,
        "core.kernel.batch_ns_per_call",
        ns_per_call(|| {
            let (mut k, objects, txns) = population();
            let groups: Vec<_> = objects.iter().map(|o| group(*o)).collect();
            let started = Instant::now();
            for (t, calls) in txns.iter().zip(groups) {
                black_box(k.request_batch(*t, calls).unwrap());
            }
            (started.elapsed(), TXNS * GROUP)
        }),
    );
    push(
        out,
        "core.kernel.declared_ns_per_call",
        ns_per_call(|| {
            let (mut k, objects, txns) = population();
            let groups: Vec<_> = objects
                .iter()
                .map(|o| {
                    let mut access = AccessSet::new();
                    access.declare_write(*o);
                    (group(*o), access)
                })
                .collect();
            let started = Instant::now();
            for (t, (calls, access)) in txns.iter().zip(groups) {
                black_box(k.request_batch_declared(*t, calls, &access).unwrap());
            }
            let took = started.elapsed();
            assert_eq!(k.stats().declared_admitted, TXNS as u64);
            (took, TXNS * GROUP)
        }),
    );
}

fn protocol_probes(out: &mut Vec<Probe>) {
    let exec = Request::Exec {
        txn: 42,
        object: "t0_c07".to_owned(),
        call: increment(),
    };
    push(
        out,
        "net.protocol.encode_exec_ns",
        ns_per_call(|| {
            repeat(100_000, || {
                black_box(black_box(&exec).encode(9));
            })
        }),
    );
    let frame = exec.encode(9);
    push(
        out,
        "net.protocol.decode_exec_ns",
        ns_per_call(|| {
            repeat(100_000, || {
                black_box(Request::decode(black_box(&frame[4..])).unwrap());
            })
        }),
    );
    let burst: Vec<u8> = frame
        .iter()
        .copied()
        .cycle()
        .take(frame.len() * 64)
        .collect();
    push(
        out,
        "net.protocol.frame_next_ns",
        ns_per_call(|| {
            let (took, reps) = repeat(1_000, || {
                let mut frames = FrameBuffer::new();
                frames.extend(&burst);
                while let Some(body) = frames.next_frame(MAX_FRAME_LEN).unwrap() {
                    black_box(body);
                }
            });
            (took, reps * 64)
        }),
    );
    let batch = Request::ExecBatch {
        txn: 42,
        ops: (0..16)
            .map(|i| (format!("t0_c{i:02}"), increment()))
            .collect(),
    };
    push(
        out,
        "net.protocol.encode_batch16_ns",
        ns_per_call(|| {
            repeat(20_000, || {
                black_box(black_box(&batch).encode(9));
            })
        }),
    );
}

fn t8_logged_ops() -> Vec<LoggedOp> {
    (0..8)
        .map(|_| LoggedOp {
            object: "t0_c07".to_owned(),
            call: increment(),
            result: OpResult::Ok,
        })
        .collect()
}

fn wal_probes(out: &mut Vec<Probe>, scratch: &Path) {
    let ops = t8_logged_ops();
    let record = WalRecord::Commit {
        multi_gid: None,
        ops: ops.clone(),
    };
    push(
        out,
        "wal.encode_record_ns",
        ns_per_call(|| {
            repeat(50_000, || {
                black_box(encode_record(3, black_box(&record)));
            })
        }),
    );
    let open = |tag: &str, fsync| {
        let dir = scratch.join(tag);
        Wal::open(&durable::wal_config(&dir, fsync), 1, None)
            .expect("open a probe log")
            .0
    };
    let never = open("probe-never", FsyncPolicy::Never);
    push(
        out,
        "wal.append_never_ns",
        ns_per_call(|| {
            repeat(5_000, || {
                black_box(never.append_commit(0, None, &ops));
            })
        }),
    );
    let always = open("probe-always", FsyncPolicy::Always);
    push(
        out,
        "wal.append_always_us",
        ns_per_call(|| {
            repeat(20, || {
                black_box(always.append_commit(0, None, &ops));
            })
        }) / 1000.0,
    );
    let group = open("probe-group", FsyncPolicy::GroupCommit);
    push(
        out,
        "wal.wait_durable_group_us",
        ns_per_call(|| {
            repeat(10, || {
                let ticket = group.append_commit(0, None, &ops);
                group.wait_durable(0, ticket);
            })
        }) / 1000.0,
    );
    let image: Vec<u8> = (0..2_000)
        .flat_map(|seq| encode_record(seq, &record))
        .collect();
    let ns_per_parse = ns_per_call(|| {
        repeat(5, || {
            assert_eq!(parse_log(black_box(&image)).records.len(), 2_000);
        })
    });
    push(
        out,
        "wal.parse_mb_per_s",
        image.len() as f64 / 1e6 / (ns_per_parse / 1e9),
    );
}

fn push(out: &mut Vec<Probe>, metric: &'static str, value: f64) {
    out.push(Probe {
        metric,
        value,
        bases: None,
    });
}

// ---------------------------------------------------------------------
// Pairs
// ---------------------------------------------------------------------

/// Operations per second of `side`, repeated until `budget` has passed.
fn rate(budget: Duration, mut side: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut ops = 0;
    loop {
        ops += side();
        if started.elapsed() >= budget {
            return ops as f64 / started.elapsed().as_secs_f64();
        }
    }
}

/// The ratio `a / b` of two throughputs, each the median of three
/// measurements taken alternately.
fn pair(
    out: &mut Vec<Probe>,
    metric: &'static str,
    budget: Duration,
    mut a: impl FnMut() -> u64,
    mut b: impl FnMut() -> u64,
) {
    let (mut ra, mut rb) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        ra.push(rate(budget, &mut a));
        rb.push(rate(budget, &mut b));
    }
    let (ma, mb) = (stats::median(&ra), stats::median(&rb));
    out.push(Probe {
        metric,
        value: ma / mb,
        bases: Some((ma, mb)),
    });
}

/// A standing population of 96 transactions, each batching 24 increments
/// on its own counter: declared footprint vs per-op classification.
fn declared_side(declared: bool) -> u64 {
    let (txns, ops) = (96usize, 24usize);
    let mut k = kernel();
    let counters: Vec<ObjectId> = (0..txns)
        .map(|t| k.register(format!("c{t}"), Counter::new()).unwrap())
        .collect();
    let ids: Vec<TxnId> = (0..txns).map(|_| k.begin()).collect();
    for (t, c) in ids.iter().zip(&counters) {
        let calls: Vec<BatchCall> = (0..ops).map(|_| BatchCall::new(*c, increment())).collect();
        let outcome = if declared {
            let mut access = AccessSet::new();
            access.declare_write(*c);
            k.request_batch_declared(*t, calls, &access)
        } else {
            k.request_batch(*t, calls)
        };
        assert!(outcome.unwrap().is_complete());
    }
    for t in &ids {
        k.commit(*t).unwrap();
    }
    black_box(k.drain_events());
    (txns * ops) as u64
}

/// 96 live transactions, 8 increments each on one hot counter: grouped
/// submission vs one call at a time.
fn submission_side(batched: bool) -> u64 {
    let (txns, ops) = (96usize, 8usize);
    let mut k = kernel();
    let counter = k.register("hits", Counter::new()).unwrap();
    let ids: Vec<TxnId> = (0..txns).map(|_| k.begin()).collect();
    for t in &ids {
        if batched {
            let calls = (0..ops)
                .map(|_| BatchCall::new(counter, increment()))
                .collect();
            assert!(k.request_batch(*t, calls).unwrap().is_complete());
        } else {
            for _ in 0..ops {
                assert!(k.request(*t, counter, increment()).unwrap().is_executed());
            }
        }
    }
    for t in &ids {
        k.commit(*t).unwrap();
    }
    black_box(k.drain_events());
    (txns * ops) as u64
}

/// Two threads over one pool of 64 counters; every transaction reads nine
/// and increments one, through snapshots or through classified reads.
fn read_mostly_side(shards: usize, snapshot: bool) -> u64 {
    let mut config = db_config(None);
    config.shards = sbcc_core::ShardCount::Fixed(shards);
    let db = Database::with_config(config);
    let counters: Vec<_> = (0..64)
        .map(|i| db.register(format!("ctr{i}"), Counter::new()))
        .collect();
    let txns_per_thread = 100u64;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let (db, counters) = (&db, &counters);
                s.spawn(move || {
                    let mut ops = 0u64;
                    for k in 0..txns_per_thread {
                        let base = t.wrapping_mul(31).wrapping_add(k);
                        loop {
                            let txn = if snapshot {
                                db.begin_snapshot()
                            } else {
                                db.begin()
                            };
                            let done = (0..10u64).all(|i| {
                                let counter = &counters[((base + i) % 64) as usize];
                                let op = if i == 9 {
                                    CounterOp::Increment(1)
                                } else {
                                    CounterOp::Read
                                };
                                txn.exec(counter, op).is_ok()
                            });
                            if done && txn.commit().is_ok() {
                                ops += 10;
                                break;
                            }
                        }
                    }
                    ops
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("pair thread"))
            .sum()
    })
}

/// Two committer threads, `T8` each, against a logged database.
fn durable_side(scratch: &Path, fsync: FsyncPolicy, round: &mut u32) -> u64 {
    *round += 1;
    let dir = scratch.join(format!("pair-{fsync:?}-{round}"));
    let db = Database::with_config(db_config(Some(durable::wal_config(&dir, fsync))));
    let txns_per_thread = 60u64;
    let committed: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let db = &db;
                let counter = db.register(durable::counter_name(t, 0), Counter::new());
                s.spawn(move || {
                    for _ in 0..txns_per_thread {
                        let txn = db.begin();
                        for _ in 0..8 {
                            txn.exec(&counter, CounterOp::Increment(1)).unwrap();
                        }
                        txn.commit().unwrap();
                    }
                    txns_per_thread
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("pair thread"))
            .sum()
    });
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    committed
}

/// Run every probe and pair. `scratch` is an empty directory for the logs.
pub fn run(scratch: &Path) -> Vec<Probe> {
    let mut out = Vec::new();
    adt_probes(&mut out);
    object_probes(&mut out);
    graph_probes(&mut out);
    kernel_probes(&mut out);
    protocol_probes(&mut out);
    wal_probes(&mut out, scratch);
    let budget = Duration::from_millis(60);
    pair(
        &mut out,
        "pair.declared_over_classified",
        budget,
        || declared_side(true),
        || declared_side(false),
    );
    pair(
        &mut out,
        "pair.batched_over_percall",
        budget,
        || submission_side(true),
        || submission_side(false),
    );
    for (metric, shards) in [
        ("pair.snapshot_over_blocking.1shard", 1),
        ("pair.snapshot_over_blocking.4shard", 4),
    ] {
        pair(
            &mut out,
            metric,
            budget,
            || read_mostly_side(shards, true),
            || read_mostly_side(shards, false),
        );
    }
    let (mut ga, mut gb) = (0, 0);
    pair(
        &mut out,
        "pair.group_over_always",
        Duration::ZERO,
        || durable_side(scratch, FsyncPolicy::GroupCommit, &mut ga),
        || durable_side(scratch, FsyncPolicy::Always, &mut gb),
    );
    out
}

pub fn print(probes: &[Probe]) {
    println!(
        "== probes: fixed inputs, median of {BATCHES} batches; pairs: ratio of two medians of 3"
    );
    for p in probes {
        let unit = crate::spec::unit_of(p.metric);
        match p.bases {
            Some((a, b)) => println!(
                "  {:<44} {:>16.4} {unit}  [{a:.0} / {b:.0} per s]",
                p.metric, p.value
            ),
            None => println!("  {:<44} {:>16.4} {unit}", p.metric, p.value),
        }
    }
}
