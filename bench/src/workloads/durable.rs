//! `durable_commit`: `T8` against a write-ahead-logged `AsyncDatabase`
//! with `GroupCommit` and a 2 ms window pinned explicitly, in the shape
//! server workers use: two executor threads of 16 live sessions. A commit
//! blocks its executor thread in `wait_durable`, stalling the thread's 15
//! other sessions — that is part of what this workload shows. After the
//! window the directory is reopened and the replay is timed.

use super::gate::{check_counters, check_quiescent, committed_counter};
use super::{
    db_config, Class, Snapshot, ThreadOut, Verified, Workload, GENERATORS, SESSIONS_PER_THREAD,
};
use crate::gen::{self, COUNTERS_PER_THREAD, T8_OPS};
use crate::measure::{Plan, Sampler};
use crate::trace::{self, Tracer, NO_PARENT, TXN_SPAN};
use sbcc_adt::{Counter, CounterOp};
use sbcc_core::aio::{yield_now, AsyncDatabase, LocalExecutor};
use sbcc_core::{Database, FsyncPolicy, Handle, WalConfig};
use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The flush policy under measurement, stated rather than defaulted.
pub fn wal_config(dir: &Path, fsync: FsyncPolicy) -> WalConfig {
    WalConfig::new(dir)
        .with_fsync(fsync)
        .with_window(Duration::from_millis(2))
}

pub fn counter_name(thread: usize, index: usize) -> String {
    format!("t{thread}_c{index}")
}

/// Bytes in the shard logs and the marker file.
pub fn log_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub struct Durable {
    db: AsyncDatabase,
    dir: PathBuf,
    counters: Vec<Vec<Handle<Counter>>>,
    seed: u64,
    tallies: Vec<Mutex<Vec<u64>>>,
    epoch: Instant,
}

struct ThreadState {
    /// The thread's `T8` stream; its sessions take transactions in turn.
    stream: Vec<u16>,
    sampler: RefCell<Sampler>,
    tracer: RefCell<Tracer>,
    tally: RefCell<Vec<u64>>,
    next_seq: Cell<u64>,
}

async fn session(env: Arc<Durable>, state: Rc<ThreadState>, thread: usize, plan: Plan) {
    let stream = &state.stream;
    let mut begin = Instant::now();
    loop {
        let seq = state.next_seq.replace(state.next_seq.get() + 1);
        let idx = stream[seq as usize % stream.len()] as usize;
        let counter = &env.counters[thread][idx];
        let traced = state.tracer.borrow().samples(seq);
        let root = if traced {
            state.tracer.borrow_mut().open(TXN_SPAN, NO_PARENT, seq)
        } else {
            NO_PARENT
        };
        let txn = env.db.begin();
        for _ in 0..T8_OPS {
            let exec = txn.exec(counter, CounterOp::Increment(1));
            trace::call_async(&state.tracer, traced, "core.aio.exec", root, seq, exec)
                .await
                .expect("increment of a private counter");
            yield_now().await;
        }
        trace::call_async(
            &state.tracer,
            traced,
            "wal.commit_ack",
            root,
            seq,
            txn.commit(),
        )
        .await
        .expect("durable commit");
        if traced {
            state.tracer.borrow_mut().close(root);
        }
        let end = Instant::now();
        state.sampler.borrow_mut().record(begin, end, 1);
        state.tally.borrow_mut()[idx] += T8_OPS as u64;
        if plan.finished(end) {
            return;
        }
        begin = end;
    }
}

impl Workload for Durable {
    const NAME: &'static str = crate::spec::DURABLE_COMMIT;
    const TRACE_EVERY: u64 = 1;
    const RSS_AFTER_TXNS: u64 = 200;

    fn setup(seed: u64, scratch: &Path) -> Self {
        let dir = scratch.to_path_buf();
        let db =
            AsyncDatabase::with_config(db_config(Some(wal_config(&dir, FsyncPolicy::GroupCommit))));
        let counters = (0..GENERATORS)
            .map(|t| {
                (0..COUNTERS_PER_THREAD)
                    .map(|i| db.register(counter_name(t, i), Counter::new()))
                    .collect()
            })
            .collect();
        Durable {
            db,
            dir,
            counters,
            seed,
            tallies: (0..GENERATORS)
                .map(|_| Mutex::new(vec![0; COUNTERS_PER_THREAD]))
                .collect(),
            epoch: Instant::now(),
        }
    }

    fn drive(this: &Arc<Self>, thread: usize, plan: Plan, trace_every: u64) -> ThreadOut {
        let state = Rc::new(ThreadState {
            stream: gen::t8_stream(this.seed, thread as u64),
            sampler: RefCell::new(Sampler::new(plan, thread as u64)),
            tracer: RefCell::new(Tracer::new(this.epoch, trace_every)),
            tally: RefCell::new(vec![0; COUNTERS_PER_THREAD]),
            next_seq: Cell::new(0),
        });
        let executor = LocalExecutor::new();
        for _ in 0..SESSIONS_PER_THREAD {
            executor.spawn(session(Arc::clone(this), Rc::clone(&state), thread, plan));
        }
        executor.run();
        drop(executor);
        let state = Rc::try_unwrap(state)
            .ok()
            .expect("every session has finished");
        for (sum, add) in this.tallies[thread]
            .lock()
            .unwrap()
            .iter_mut()
            .zip(state.tally.into_inner())
        {
            *sum += add;
        }
        ThreadOut {
            class: Class::Write,
            ops_per_txn: T8_OPS as u64,
            sampler: state.sampler.into_inner(),
            tracer: state.tracer.into_inner(),
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            stats: self.db.stats_snapshot(),
            net: None,
            wal_bytes: log_bytes(&self.dir),
        }
    }

    fn verify(self) -> Result<Verified, String> {
        let Durable {
            db, dir, tallies, ..
        } = self;
        let mut checks = Vec::new();
        check_quiescent(db.database(), &mut checks)?;
        let acknowledged = db.stats().commits;
        // Dropping the last handle closes the log (and flushes what the
        // flusher thread had not yet written).
        drop(db);
        let started = Instant::now();
        let reopened =
            Database::try_with_config(db_config(Some(wal_config(&dir, FsyncPolicy::GroupCommit))))
                .map_err(|e| format!("reopening the log failed: {e}"))?;
        let reopen_secs = started.elapsed().as_secs_f64();
        let replayed = reopened.stats().commits;
        if replayed != acknowledged {
            return Err(format!(
                "{acknowledged} commits were acknowledged, replay recovered {replayed}"
            ));
        }
        check_counters(
            |t, i| {
                let name = counter_name(t, i);
                let handle = reopened
                    .object_handle(&name)
                    .ok_or_else(|| format!("{name} is missing after reopen"))?;
                committed_counter(&reopened, &handle)
            },
            &tallies,
            &mut checks,
        )?;
        checks.push(format!(
            "reopen replayed all {replayed} acknowledged commits in {reopen_secs:.3}s ({} log bytes)",
            log_bytes(&dir)
        ));
        let replayed_ops = replayed * T8_OPS as u64;
        Ok(Verified {
            checks,
            metrics: vec![(
                "recovery_kops_per_s",
                replayed_ops as f64 / reopen_secs / 1000.0,
            )],
        })
    }
}
