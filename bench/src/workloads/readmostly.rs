//! `embedded_readmostly`: MVCC/SSI reads beside classified writes. Thread 0
//! runs `begin_snapshot` transactions of 16 reads; thread 1 runs classified
//! transactions of 4 updates; both draw objects zipf(0.99) from 128
//! counters and 128 tables.
//!
//! There is one writer thread, so the final state of every object is known
//! exactly, and every snapshot read can be bounded by it.

use super::gate::{check_quiescent, committed, committed_counter};
use super::{db_config, Class, Snapshot, ThreadOut, Verified, Workload};
use crate::gen::{self, Access, RM_COUNTERS, RM_OBJECTS, RM_READS, RM_TABLE_KEYS, RM_WRITES};
use crate::measure::{Plan, Sampler};
use crate::trace::{Tracer, NO_PARENT, TXN_SPAN};
use sbcc_adt::{AdtOp, Counter, CounterOp, OpCall, OpResult, TableObject, TableOp, Value};
use sbcc_core::{CoreError, Database, ObjectHandle, TxnId, TxnState};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Default)]
struct WriterTally {
    /// Committed increments per counter.
    increments: Vec<i64>,
    /// Last committed value per table key (`0`: the pre-populated value).
    last: Vec<[i64; RM_TABLE_KEYS as usize]>,
    /// Stamp for the next table write, so every write is distinguishable.
    next_value: i64,
}

#[derive(Debug, Default)]
struct ReaderTally {
    /// The largest value any snapshot saw in each counter.
    max_seen: Vec<i64>,
    reads: u64,
}

pub struct ReadMostly {
    db: Database,
    objects: Vec<ObjectHandle>,
    seed: u64,
    writer: Mutex<WriterTally>,
    reader: Mutex<ReaderTally>,
    epoch: Instant,
}

fn is_counter(obj: u16) -> bool {
    (obj as usize) < RM_COUNTERS
}

fn read_call(a: &Access) -> OpCall {
    if is_counter(a.obj) {
        CounterOp::Read.to_call()
    } else {
        TableOp::Lookup(Value::Int(a.key)).to_call()
    }
}

/// The retry classes of `Database::run`, for the snapshot loop that cannot
/// use it (`run` begins classified transactions only).
fn retryable(err: &CoreError, id: TxnId) -> bool {
    err.is_scheduler_abort_of(id)
        || matches!(err, CoreError::InvalidState { txn, state: TxnState::Aborted, .. } if *txn == id)
}

impl ReadMostly {
    fn drive_reader(&self, plan: Plan, trace_every: u64) -> ThreadOut {
        let reads: Vec<[Access; RM_READS]> = gen::readmostly_stream(self.seed, 200);
        let mut tally = self.reader.lock().unwrap();
        let mut sampler = Sampler::new(plan, 0);
        let mut tracer = Tracer::new(self.epoch, trace_every);
        let mut seq = 0u64;
        let mut begin = Instant::now();
        loop {
            let spec = &reads[seq as usize % reads.len()];
            let traced = tracer.samples(seq);
            let root = if traced {
                tracer.open(TXN_SPAN, NO_PARENT, seq)
            } else {
                NO_PARENT
            };
            let mut attempts = 0u64;
            'attempt: loop {
                attempts += 1;
                assert!(
                    attempts < 10_000,
                    "snapshot transaction aborted 10000 times"
                );
                let txn = tracer.call(traced, "core.mvcc.snapshot_begin", root, seq, || {
                    self.db.begin_snapshot()
                });
                let id = txn.id();
                let mut seen = [0i64; RM_READS];
                for (slot, access) in seen.iter_mut().zip(spec) {
                    let object = &self.objects[access.obj as usize];
                    let read = tracer.call(traced, "core.mvcc.snapshot_read", root, seq, || {
                        txn.exec_call(object, read_call(access))
                    });
                    match read {
                        Ok(OpResult::Value(Value::Int(v))) => *slot = v,
                        Ok(other) => panic!("read of {} returned {other}", object.name()),
                        Err(e) if retryable(&e, id) => continue 'attempt,
                        Err(e) => panic!("snapshot read failed: {e}"),
                    }
                }
                match txn.commit() {
                    Ok(_) => {
                        for (v, access) in seen.iter().zip(spec) {
                            if is_counter(access.obj) {
                                let max = &mut tally.max_seen[access.obj as usize];
                                *max = (*max).max(*v);
                            }
                        }
                        tally.reads += RM_READS as u64;
                        break;
                    }
                    Err(e) if retryable(&e, id) => {}
                    Err(e) => panic!("snapshot commit failed: {e}"),
                }
            }
            if traced {
                tracer.close(root);
            }
            let end = Instant::now();
            sampler.record(begin, end, attempts);
            seq += 1;
            if plan.finished(end) {
                break;
            }
            begin = end;
        }
        ThreadOut {
            class: Class::Read,
            ops_per_txn: RM_READS as u64,
            sampler,
            tracer,
        }
    }

    fn drive_writer(&self, plan: Plan) -> ThreadOut {
        let writes: Vec<[Access; RM_WRITES]> = gen::readmostly_stream(self.seed, 201);
        let mut tally = self.writer.lock().unwrap();
        let mut sampler = Sampler::new(plan, 1);
        let mut seq = 0usize;
        let mut begin = Instant::now();
        loop {
            let spec = &writes[seq % writes.len()];
            let base = tally.next_value;
            let mut attempts = 0u64;
            self.db
                .run(|txn| {
                    attempts += 1;
                    for (i, access) in spec.iter().enumerate() {
                        let call = if is_counter(access.obj) {
                            CounterOp::Increment(1).to_call()
                        } else {
                            TableOp::Modify(Value::Int(access.key), Value::Int(base + i as i64))
                                .to_call()
                        };
                        txn.exec_call(&self.objects[access.obj as usize], call)?;
                    }
                    Ok(())
                })
                .expect("an update transaction commits within the retry budget");
            let end = Instant::now();
            for (i, access) in spec.iter().enumerate() {
                if is_counter(access.obj) {
                    tally.increments[access.obj as usize] += 1;
                } else {
                    tally.last[access.obj as usize - RM_COUNTERS][access.key as usize] =
                        base + i as i64;
                }
            }
            tally.next_value += RM_WRITES as i64;
            sampler.record(begin, end, attempts);
            seq += 1;
            if plan.finished(end) {
                break;
            }
            begin = end;
        }
        ThreadOut {
            class: Class::Write,
            ops_per_txn: RM_WRITES as u64,
            sampler,
            tracer: Tracer::off(),
        }
    }
}

impl Workload for ReadMostly {
    const NAME: &'static str = crate::spec::EMBEDDED_READMOSTLY;
    const TRACE_EVERY: u64 = 64;
    const RSS_AFTER_TXNS: u64 = 10_000;

    fn setup(seed: u64, _scratch: &Path) -> Self {
        let db = Database::with_config(db_config(None));
        let prepopulated =
            || TableObject::from_pairs((0..RM_TABLE_KEYS).map(|k| (Value::Int(k), Value::Int(0))));
        let objects = (0..RM_OBJECTS)
            .map(|i| {
                if i < RM_COUNTERS {
                    db.register(format!("counter{i}"), Counter::new())
                        .into_erased()
                } else {
                    db.register(format!("table{i}"), prepopulated())
                        .into_erased()
                }
            })
            .collect();
        ReadMostly {
            db,
            objects,
            seed,
            writer: Mutex::new(WriterTally {
                increments: vec![0; RM_COUNTERS],
                last: vec![[0; RM_TABLE_KEYS as usize]; gen::RM_TABLES],
                next_value: 1,
            }),
            reader: Mutex::new(ReaderTally {
                max_seen: vec![0; RM_COUNTERS],
                reads: 0,
            }),
            epoch: Instant::now(),
        }
    }

    fn drive(this: &Arc<Self>, thread: usize, plan: Plan, trace_every: u64) -> ThreadOut {
        if thread == 0 {
            this.drive_reader(plan, trace_every)
        } else {
            this.drive_writer(plan)
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            stats: self.db.stats_snapshot(),
            ..Snapshot::default()
        }
    }

    fn verify(self) -> Result<Verified, String> {
        let writer = self.writer.lock().unwrap();
        let reader = self.reader.lock().unwrap();
        let mut checks = Vec::new();
        for (i, want) in writer.increments.iter().enumerate() {
            let got = committed_counter(&self.db, &self.objects[i])?;
            if got != *want {
                return Err(format!(
                    "counter{i} holds {got}, committed increments say {want}"
                ));
            }
            if reader.max_seen[i] > got {
                return Err(format!(
                    "a snapshot read {} from counter{i}, which only reached {got}",
                    reader.max_seen[i]
                ));
            }
        }
        for (t, want) in writer.last.iter().enumerate() {
            let object = &self.objects[RM_COUNTERS + t];
            let got: Vec<Option<i64>> = committed(&self.db, object, |table: &TableObject| {
                (0..RM_TABLE_KEYS)
                    .map(|key| table.get(&Value::Int(key)).and_then(Value::as_int))
                    .collect()
            })?;
            for (key, (got, want)) in got.iter().zip(want).enumerate() {
                if *got != Some(*want) {
                    return Err(format!(
                        "{} key {key} holds {got:?}, last committed write says {want}",
                        object.name()
                    ));
                }
            }
        }
        checks.push(format!(
            "all {RM_COUNTERS} counters equal committed increments, all {} table cells hold their last committed write, no snapshot read ran ahead of the final state ({} reads)",
            gen::RM_TABLES * RM_TABLE_KEYS as usize,
            reader.reads
        ));
        check_quiescent(&self.db, &mut checks)?;
        Ok(Verified {
            checks,
            metrics: Vec::new(),
        })
    }
}
