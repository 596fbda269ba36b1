//! The layer ladder: one `T8` stream, one thread, pushed through
//! successively deeper public entry points. Each rung reports ns per
//! operation; a rung's self time is its value minus the rung above it. This
//! is the outside-in answer to "where does the time between an ADT apply
//! and a wire round trip go".

use crate::gen::{self, COUNTERS_PER_THREAD, T8_OPS};
use crate::workloads::{db_config, durable, wire};
use sbcc_adt::{AdtObject, AdtOp, AdtSpec, Counter, CounterOp};
use sbcc_core::aio::{AsyncDatabase, LocalExecutor};
use sbcc_core::{
    ConflictPolicy, Database, FsyncPolicy, ManagedObject, ObjectId, RecoveryStrategy,
    SchedulerConfig, SchedulerKernel, TxnId,
};
use sbcc_net::{AdtType, NetClient};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Transactions per rung. The issue fixes 200k; the three rungs that wait
/// for a socket or a flush window per transaction would take minutes at
/// that size, so they run proportionally fewer (stated in the output).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub in_memory: usize,
    pub wire: usize,
    pub wal_never: usize,
    pub wal_group: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        in_memory: 200_000,
        wire: 4_000,
        wal_never: 50_000,
        wal_group: 400,
    };

    pub fn scaled(divisor: usize) -> Sizes {
        let d = |n: usize| (n / divisor).max(20);
        Sizes {
            in_memory: d(Self::FULL.in_memory),
            wire: d(Self::FULL.wire),
            wal_never: d(Self::FULL.wal_never),
            wal_group: d(Self::FULL.wal_group),
        }
    }
}

pub struct Rung {
    pub metric: &'static str,
    pub entry_point: &'static str,
    pub txns: usize,
    pub ns_per_op: f64,
    /// The rung this one's self time is measured against.
    pub above: Option<&'static str>,
}

fn ns_per_op(started: Instant, txns: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / (txns * T8_OPS) as f64
}

fn adt(stream: &[u16], txns: usize) -> f64 {
    let mut counters = vec![Counter::new(); COUNTERS_PER_THREAD];
    let op = CounterOp::Increment(1);
    let started = Instant::now();
    for n in 0..txns {
        let counter = &mut counters[stream[n % stream.len()] as usize];
        for _ in 0..T8_OPS {
            black_box(counter.apply(black_box(&op)));
        }
    }
    let took = ns_per_op(started, txns);
    assert_eq!(
        counters.iter().map(Counter::value).sum::<i64>(),
        (txns * T8_OPS) as i64
    );
    took
}

fn object(stream: &[u16], txns: usize) -> f64 {
    let mut objects: Vec<ManagedObject> = (0..COUNTERS_PER_THREAD)
        .map(|i| {
            ManagedObject::new(
                ObjectId(i as u32),
                format!("c{i}"),
                Box::new(AdtObject::new(Counter::new())),
                RecoveryStrategy::IntentionsList,
            )
        })
        .collect();
    let call = CounterOp::Increment(1).to_call();
    let started = Instant::now();
    for n in 0..txns {
        let object = &mut objects[stream[n % stream.len()] as usize];
        let txn = TxnId(n as u64 + 1);
        for k in 0..T8_OPS {
            let verdict = object.classify(ConflictPolicy::Recoverability, txn, &call, &[]);
            assert!(verdict.is_free());
            black_box(object.execute(txn, (n * T8_OPS + k) as u64, call.clone()));
        }
        object.commit_txn(txn, n as u64 + 1, u64::MAX);
    }
    ns_per_op(started, txns)
}

fn kernel(stream: &[u16], txns: usize) -> f64 {
    let mut kernel = SchedulerKernel::new(SchedulerConfig::default().with_history(false));
    let ids: Vec<ObjectId> = (0..COUNTERS_PER_THREAD)
        .map(|i| {
            kernel
                .register(format!("c{i}"), Counter::new())
                .expect("fresh name")
        })
        .collect();
    let call = CounterOp::Increment(1).to_call();
    let started = Instant::now();
    for n in 0..txns {
        let object = ids[stream[n % stream.len()] as usize];
        let txn = kernel.begin();
        for _ in 0..T8_OPS {
            let outcome = kernel.request(txn, object, call.clone()).expect("request");
            assert!(outcome.is_executed());
        }
        kernel.commit(txn).expect("commit");
        black_box(kernel.drain_events());
    }
    let took = ns_per_op(started, txns);
    assert_eq!(kernel.stats().commits, txns as u64);
    took
}

/// The `db` rung and its two WAL side rungs: the sync `Database`.
fn db(stream: &[u16], txns: usize, wal: Option<sbcc_core::WalConfig>) -> f64 {
    let db = Database::with_config(db_config(wal));
    let counters: Vec<_> = (0..COUNTERS_PER_THREAD)
        .map(|i| db.register(durable::counter_name(0, i), Counter::new()))
        .collect();
    let started = Instant::now();
    for n in 0..txns {
        let counter = &counters[stream[n % stream.len()] as usize];
        let txn = db.begin();
        for _ in 0..T8_OPS {
            txn.exec(counter, CounterOp::Increment(1)).expect("exec");
        }
        txn.commit().expect("commit");
    }
    let took = ns_per_op(started, txns);
    assert_eq!(db.stats().commits, txns as u64);
    took
}

fn aio(stream: &[u16], txns: usize) -> f64 {
    let db = AsyncDatabase::with_config(db_config(None));
    let counters: Vec<_> = (0..COUNTERS_PER_THREAD)
        .map(|i| db.register(format!("c{i}"), Counter::new()))
        .collect();
    let executor = LocalExecutor::new();
    let stream = stream.to_vec();
    let session_db = db.clone();
    let started = Instant::now();
    executor.spawn(async move {
        for n in 0..txns {
            let counter = &counters[stream[n % stream.len()] as usize];
            let txn = session_db.begin();
            for _ in 0..T8_OPS {
                txn.exec(counter, CounterOp::Increment(1))
                    .await
                    .expect("exec");
            }
            txn.commit().await.expect("commit");
        }
    });
    executor.run();
    let took = ns_per_op(started, txns);
    assert_eq!(db.stats().commits, txns as u64);
    took
}

fn over_wire(stream: &[u16], txns: usize) -> f64 {
    let server = wire::start_server();
    let mut client =
        NetClient::connect(server.local_addr(), "ladder").expect("connect over loopback");
    let names: Vec<String> = (0..COUNTERS_PER_THREAD)
        .map(|i| format!("t0_c{i:02}"))
        .collect();
    for name in &names {
        client.register(name, AdtType::Counter).expect("register");
    }
    let call = CounterOp::Increment(1).to_call();
    let started = Instant::now();
    for n in 0..txns {
        let name = &names[stream[n % stream.len()] as usize];
        let txn = client.begin().expect("begin");
        for _ in 0..T8_OPS {
            client.exec(txn, name, call.clone()).expect("exec");
        }
        client.commit(txn).expect("commit");
    }
    let took = ns_per_op(started, txns);
    drop(client);
    let net = server.shutdown();
    assert_eq!((net.connections_open, net.transactions_in_flight), (0, 0));
    took
}

/// Run every rung. `scratch` is an empty directory for the WAL rungs.
pub fn run(seed: u64, sizes: Sizes, scratch: &Path) -> Vec<Rung> {
    let stream = gen::t8_stream(seed, 0);
    let wal = |tag: &str, fsync| {
        let dir = scratch.join(tag);
        std::fs::create_dir_all(&dir).expect("create a WAL directory under bench/out");
        Some(durable::wal_config(&dir, fsync))
    };
    let rung = |metric, entry_point, txns, ns_per_op, above| Rung {
        metric,
        entry_point,
        txns,
        ns_per_op,
        above,
    };
    let n = sizes.in_memory;
    vec![
        rung(
            "ladder.adt_ns_per_op",
            "Counter::apply",
            n,
            adt(&stream, n),
            None,
        ),
        rung(
            "ladder.object_ns_per_op",
            "ManagedObject::classify + execute, commit_txn",
            n,
            object(&stream, n),
            Some("ladder.adt_ns_per_op"),
        ),
        rung(
            "ladder.kernel_ns_per_op",
            "SchedulerKernel::begin/request/commit",
            n,
            kernel(&stream, n),
            Some("ladder.object_ns_per_op"),
        ),
        rung(
            "ladder.db_ns_per_op",
            "Database sessions, 4 shards",
            n,
            db(&stream, n, None),
            Some("ladder.kernel_ns_per_op"),
        ),
        rung(
            "ladder.aio_ns_per_op",
            "AsyncDatabase session on a LocalExecutor",
            n,
            aio(&stream, n),
            Some("ladder.db_ns_per_op"),
        ),
        rung(
            "ladder.wire_ns_per_op",
            "NetClient to Server over loopback",
            sizes.wire,
            over_wire(&stream, sizes.wire),
            Some("ladder.aio_ns_per_op"),
        ),
        rung(
            "ladder.wal_never_ns_per_op",
            "Database + WAL, FsyncPolicy::Never",
            sizes.wal_never,
            db(&stream, sizes.wal_never, wal("never", FsyncPolicy::Never)),
            Some("ladder.db_ns_per_op"),
        ),
        rung(
            "ladder.wal_group_ns_per_op",
            "Database + WAL, GroupCommit 2 ms, one committer",
            sizes.wal_group,
            db(
                &stream,
                sizes.wal_group,
                wal("group", FsyncPolicy::GroupCommit),
            ),
            Some("ladder.db_ns_per_op"),
        ),
    ]
}

pub fn print(rungs: &[Rung]) {
    println!("== ladder: ns per operation of the T8 stream, one thread");
    for r in rungs {
        let own = r
            .above
            .and_then(|above| rungs.iter().find(|a| a.metric == above))
            .map_or_else(
                || "      (base)".to_owned(),
                |above| {
                    format!(
                        "self {:>+12.1} over {}",
                        r.ns_per_op - above.ns_per_op,
                        above.metric
                    )
                },
            );
        println!(
            "  {:<44} {:>16.1} ns     {own}  [{} txns; {}]",
            r.metric, r.ns_per_op, r.txns, r.entry_point
        );
    }
}
