//! Async front-end at scale: **one runtime thread multiplexing 10 000
//! concurrent in-flight transactions** over a sharded database.
//!
//! The sync session API parks one OS thread per blocked transaction, so
//! the concurrency the paper's semantics admit is capped by thread count.
//! The async front-end (`sbcc::core::aio`) suspends a *future* instead,
//! so a single `LocalExecutor` thread can hold thousands of live
//! sessions mid-flight. This example demonstrates both halves:
//!
//! 1. **Standing population**: 10 000 transactions each execute an
//!    operation, then wait on a gate that only opens once *every*
//!    transaction is live — so all 10 000 are provably in flight at the
//!    same instant on one thread — then execute a second operation and
//!    commit.
//! 2. **Conflict rendezvous**: producers hold uncommitted pushes on a
//!    set of stacks while consumers pop — every consumer blocks inside
//!    the kernel and is woken through its waiter slot when its producer
//!    commits.
//!
//! Run with: `cargo run --release --example async_front_end`
//! (`SBCC_SHARDS=auto` picks one kernel shard per core.)

use sbcc::core::aio::{yield_now, AsyncDatabase, LocalExecutor};
use sbcc::core::{DatabaseConfig, SchedulerConfig, ShardCount};
use sbcc::prelude::*;
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// A one-shot async gate: every waiter suspends until `open` is called,
/// then all resume. ~20 lines on top of plain `std::task` — no runtime
/// crate needed for this kind of coordination.
#[derive(Default)]
struct Gate {
    open: Cell<bool>,
    waiters: RefCell<Vec<Waker>>,
}

impl Gate {
    fn open(&self) {
        self.open.set(true);
        for waker in self.waiters.borrow_mut().drain(..) {
            waker.wake();
        }
    }

    fn wait(self: &Rc<Self>) -> GateWait {
        GateWait { gate: self.clone() }
    }
}

struct GateWait {
    gate: Rc<Gate>,
}

impl Future for GateWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.gate.open.get() {
            Poll::Ready(())
        } else {
            self.gate.waiters.borrow_mut().push(cx.waker().clone());
            Poll::Pending
        }
    }
}

fn main() {
    let txns: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10_000);
    // One kernel shard per core unless SBCC_SHARDS says otherwise.
    let shards = match std::env::var_os(sbcc::core::shard::SHARDS_ENV) {
        Some(_) => DatabaseConfig::shards_from_env(),
        None => ShardCount::Auto,
    };
    let db = AsyncDatabase::with_config(
        DatabaseConfig::new(SchedulerConfig::default().with_history(false)).with_shards(shards),
    );
    println!(
        "async front-end demo: {txns} transactions, {} kernel shard(s), 1 runtime thread",
        db.shard_count()
    );

    // ------------------------------------------------------------------
    // Phase 1: a standing population of `txns` live transactions.
    // ------------------------------------------------------------------
    let counters: Vec<_> = (0..256)
        .map(|i| db.register(format!("ctr{i}"), Counter::new()))
        .collect();
    let executor = LocalExecutor::new();
    let gate = Rc::new(Gate::default());
    let live = Rc::new(Cell::new(0usize));
    let peak = Rc::new(Cell::new(0usize));

    let start = Instant::now();
    for i in 0..txns {
        let db = db.clone();
        let first = counters[i % counters.len()].clone();
        let second = counters[(i * 7 + 1) % counters.len()].clone();
        let (gate, live, peak) = (gate.clone(), live.clone(), peak.clone());
        executor.spawn(async move {
            let txn = db.begin();
            txn.exec(&first, CounterOp::Increment(1)).await.unwrap();
            live.set(live.get() + 1);
            peak.set(peak.get().max(live.get()));
            if live.get() == txns {
                // Everyone is in flight at once; release the herd.
                gate.open();
            }
            gate.wait().await;
            txn.exec(&second, CounterOp::Increment(1)).await.unwrap();
            txn.commit().await.unwrap();
            live.set(live.get() - 1);
        });
    }
    executor.run();
    let elapsed = start.elapsed();

    let stats = db.stats();
    println!(
        "phase 1: {} commits, peak {} concurrent in-flight transactions, \
         {:.0} txn/s on one thread ({:.2?})",
        stats.commits,
        peak.get(),
        txns as f64 / elapsed.as_secs_f64(),
        elapsed
    );
    assert_eq!(stats.commits as usize, txns);
    assert_eq!(
        peak.get(),
        txns,
        "the gate guarantees every transaction was live simultaneously"
    );
    if txns >= 1_000 {
        assert!(
            peak.get() >= 1_000,
            "at least 1k concurrent in-flight sessions"
        );
    }

    // ------------------------------------------------------------------
    // Phase 2: blocking and wakeups through the waiter slots.
    // ------------------------------------------------------------------
    let pairs = 512usize;
    let stacks: Vec<_> = (0..8)
        .map(|i| db.register(format!("queue{i}"), Stack::new()))
        .collect();
    let blocks_before = db.stats().blocks;
    let start = Instant::now();

    // Producers push (the push stays uncommitted until after the gate)...
    let gate2 = Rc::new(Gate::default());
    let produced = Rc::new(Cell::new(0usize));
    for i in 0..pairs {
        let db = db.clone();
        let stack = stacks[i % stacks.len()].clone();
        let (gate2, produced) = (gate2.clone(), produced.clone());
        executor.spawn(async move {
            let txn = db.begin();
            txn.exec(&stack, StackOp::Push(Value::Int(i as i64)))
                .await
                .unwrap();
            produced.set(produced.get() + 1);
            gate2.wait().await;
            txn.commit().await.unwrap();
        });
    }
    // ...consumers pop: each conflicts with an uncommitted push, suspends
    // inside the kernel, and is woken when the producer's commit settles
    // its request. `run` absorbs any deadlock-cycle aborts the mesh of
    // pops produces.
    let consumed = Rc::new(Cell::new(0usize));
    for i in 0..pairs {
        let db = db.clone();
        let stack = stacks[i % stacks.len()].clone();
        let consumed = consumed.clone();
        executor.spawn(async move {
            db.run(|txn| {
                let stack = stack.clone();
                async move { txn.exec(&stack, StackOp::Pop).await }
            })
            .await
            .unwrap();
            consumed.set(consumed.get() + 1);
        });
    }
    // The controller task opens the gate once all producers hold their
    // pushes and the consumers have had a chance to block behind them
    // (FIFO executor: it was spawned last, so it runs after both waves).
    {
        let (gate2, produced) = (gate2.clone(), produced.clone());
        executor.spawn(async move {
            while produced.get() < pairs {
                yield_now().await;
            }
            gate2.open();
        });
    }
    executor.run();
    let elapsed = start.elapsed();

    let stats = db.stats();
    println!(
        "phase 2: {} producer/consumer pairs, {} kernel blocks -> wakeups, {:.2?}",
        pairs,
        stats.blocks - blocks_before,
        elapsed
    );
    assert_eq!(consumed.get(), pairs, "every consumer completed");
    assert!(
        stats.blocks > blocks_before,
        "consumers must actually have blocked behind uncommitted pushes"
    );
    println!(
        "totals: {} commits, {} blocks, {} unblocks, {} scheduler aborts (all retried)",
        stats.commits,
        stats.blocks,
        stats.unblocks,
        stats.scheduler_aborts()
    );
    db.check_invariants().unwrap();
    println!("invariants hold across {} shards — done", db.shard_count());
}
