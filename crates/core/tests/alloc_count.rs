//! Heap allocations per transaction through the two session entry points.
//!
//! The blocking API is `block_on` over the async session, so its cost on
//! top of that session is exactly what `block_on` adds. A counting global
//! allocator pins that cost at zero for a call that never blocks:
//!
//! * `block_on` of a ready future allocates nothing;
//! * a [`LocalExecutor`] task allocates only when it is spawned: polling
//!   it, and waking it from its own thread, allocate nothing;
//! * a conflict-free `T8` (eight increments of a private counter, then
//!   commit; history off) allocates no more per transaction through
//!   [`Database`] than through [`AsyncDatabase`], and no more than
//!   `BLOCKING_T8_CEILING`, at 1 and at 4 shards.
//!
//! Counts are per thread, because the tests of one binary run in parallel.
//! Counts do not drift with the load of the machine, unlike times.

use sbcc_adt::{Counter, CounterOp};
use sbcc_core::aio::{block_on, yield_now, AsyncDatabase, LocalExecutor};
use sbcc_core::{Database, DatabaseConfig, Handle, SchedulerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are `System`'s and its results are returned
// as they are. The count is a thread-local `Cell` with a `const`
// initialiser: bumping it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Transactions run before counting, so every map and ring buffer the
/// path touches has reached its steady size (the fate window is 1 024
/// terminations).
const WARMUP: usize = 3_000;
/// Transactions counted.
const MEASURED: usize = 1_000;
const T8_OPS: usize = 8;
/// The blocking `T8`'s allocations per transaction. A change that moves
/// this count updates it here and names the move and its cause.
const BLOCKING_T8_CEILING: f64 = 35.0;

fn config(shards: usize) -> DatabaseConfig {
    DatabaseConfig::new(SchedulerConfig::default().with_history(false)).with_shards(shards)
}

fn sync_t8(db: &Database, counter: &Handle<Counter>) {
    let txn = db.begin();
    for _ in 0..T8_OPS {
        txn.exec(counter, CounterOp::Increment(1)).unwrap();
    }
    txn.commit().unwrap();
}

fn async_t8(db: &AsyncDatabase, counter: &Handle<Counter>) {
    block_on(async {
        let txn = db.begin();
        for _ in 0..T8_OPS {
            txn.exec(counter, CounterOp::Increment(1)).await.unwrap();
        }
        txn.commit().await.unwrap();
    });
}

/// Mean allocations per `T8` transaction of `t8` on a fresh database.
fn per_txn<D>(db: D, counter: &Handle<Counter>, t8: impl Fn(&D, &Handle<Counter>)) -> f64 {
    for _ in 0..WARMUP {
        t8(&db, counter);
    }
    let n = allocations_in(|| {
        for _ in 0..MEASURED {
            t8(&db, counter);
        }
    });
    n as f64 / MEASURED as f64
}

#[test]
fn block_on_a_ready_future_allocates_nothing() {
    let mut value = 0;
    let n = allocations_in(|| value = block_on(async { 40 + 2 }));
    assert_eq!(value, 42);
    assert_eq!(n, 0, "block_on of a ready future allocated {n} times");
}

#[test]
fn a_yielding_executor_task_allocates_only_at_spawn() {
    let executor = LocalExecutor::new();
    executor.spawn(async {
        for _ in 0..1_000 {
            yield_now().await;
        }
    });
    let n = allocations_in(|| executor.run());
    assert_eq!(executor.pending_tasks(), 0);
    assert_eq!(n, 0, "1 000 yields of a spawned task allocated {n} times");
}

#[test]
fn blocking_t8_allocates_no_more_than_async_t8() {
    for shards in [1, 4] {
        let db = Database::with_config(config(shards));
        let counter = db.register("c", Counter::new());
        let blocking = per_txn(db, &counter, sync_t8);

        let db = AsyncDatabase::with_config(config(shards));
        let counter = db.register("c", Counter::new());
        let futures = per_txn(db, &counter, async_t8);

        println!("{shards} shard(s): Database {blocking:.2}, AsyncDatabase {futures:.2} allocations per T8");
        assert!(
            blocking <= futures,
            "{shards} shard(s): a blocking T8 makes {blocking:.2} allocations, \
             the async T8 it wraps {futures:.2}"
        );
        assert!(
            blocking <= BLOCKING_T8_CEILING,
            "{shards} shard(s): a blocking T8 makes {blocking:.2} allocations, \
             over the ceiling of {BLOCKING_T8_CEILING}"
        );
    }
}
