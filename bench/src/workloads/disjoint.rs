//! `embedded_disjoint`: two threads of sync `Database` sessions, `T8` on
//! private counters. No conflicts, no socket, no log.

use super::gate::{check_counters, check_quiescent, committed_counter};
use super::{db_config, Class, Snapshot, ThreadOut, Verified, Workload, GENERATORS};
use crate::gen::{self, COUNTERS_PER_THREAD, T8_OPS};
use crate::measure::{Plan, Sampler};
use crate::trace::{Tracer, NO_PARENT, TXN_SPAN};
use sbcc_adt::{Counter, CounterOp};
use sbcc_core::{Database, Handle};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub struct Disjoint {
    db: Database,
    counters: Vec<Vec<Handle<Counter>>>,
    seed: u64,
    /// Committed increments per counter, per thread: the gate's oracle.
    tallies: Vec<Mutex<Vec<u64>>>,
    epoch: Instant,
}

impl Workload for Disjoint {
    const NAME: &'static str = crate::spec::EMBEDDED_DISJOINT;
    const TRACE_EVERY: u64 = 64;
    const RSS_AFTER_TXNS: u64 = 50_000;

    fn setup(seed: u64, _scratch: &Path) -> Self {
        let db = Database::with_config(db_config(None));
        let counters = (0..GENERATORS)
            .map(|t| {
                (0..COUNTERS_PER_THREAD)
                    .map(|i| db.register(format!("t{t}_c{i}"), Counter::new()))
                    .collect()
            })
            .collect();
        Disjoint {
            db,
            counters,
            seed,
            tallies: (0..GENERATORS)
                .map(|_| Mutex::new(vec![0; COUNTERS_PER_THREAD]))
                .collect(),
            epoch: Instant::now(),
        }
    }

    fn drive(this: &Arc<Self>, thread: usize, plan: Plan, trace_every: u64) -> ThreadOut {
        let stream = gen::t8_stream(this.seed, thread as u64);
        let counters = &this.counters[thread];
        let mut tally = this.tallies[thread].lock().unwrap();
        let mut sampler = Sampler::new(plan, thread as u64);
        let mut tracer = Tracer::new(this.epoch, trace_every);
        let mut seq = 0u64;
        let mut begin = Instant::now();
        loop {
            let idx = stream[seq as usize % stream.len()] as usize;
            let counter = &counters[idx];
            let traced = tracer.samples(seq);
            let root = if traced {
                tracer.open(TXN_SPAN, NO_PARENT, seq)
            } else {
                NO_PARENT
            };
            let txn = tracer.call(traced, "core.db.begin", root, seq, || this.db.begin());
            for _ in 0..T8_OPS {
                tracer
                    .call(traced, "core.db.exec", root, seq, || {
                        txn.exec(counter, CounterOp::Increment(1))
                    })
                    .expect("increment of a private counter");
            }
            tracer
                .call(traced, "core.db.commit", root, seq, || txn.commit())
                .expect("commit of a conflict-free transaction");
            if traced {
                tracer.close(root);
            }
            let end = Instant::now();
            sampler.record(begin, end, 1);
            tally[idx] += T8_OPS as u64;
            seq += 1;
            if plan.finished(end) {
                break;
            }
            begin = end;
        }
        ThreadOut {
            class: Class::Write,
            ops_per_txn: T8_OPS as u64,
            sampler,
            tracer,
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            stats: self.db.stats_snapshot(),
            ..Snapshot::default()
        }
    }

    fn verify(self) -> Result<Verified, String> {
        let mut checks = Vec::new();
        check_counters(
            |t, i| committed_counter(&self.db, self.counters[t][i].erased()),
            &self.tallies,
            &mut checks,
        )?;
        check_quiescent(&self.db, &mut checks)?;
        Ok(Verified {
            checks,
            metrics: Vec::new(),
        })
    }
}
