//! A multithreaded job pipeline: many producers, one consumer, one metrics
//! counter — all as transactions on atomic data types.
//!
//! Producers append jobs to a FIFO queue and bump a counter in one
//! transaction. Under recoverability the producers never block
//! each other (enqueue is recoverable relative to enqueue, increments
//! commute), while the consumer — whose `dequeue` genuinely observes
//! state — waits only as long as uncommitted producers exist.
//!
//! Run with: `cargo run --example job_queue`

use sbcc::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PRODUCERS: usize = 4;
const JOBS_PER_PRODUCER: i64 = 25;

fn main() {
    let db = Database::new(SchedulerConfig::default());
    let queue = db.register("jobs", FifoQueue::new());
    let submitted = db.register("submitted", Counter::new());

    let blocked_producer_ops = Arc::new(AtomicU64::new(0));

    // Producers: each job is its own transaction (enqueue + increment).
    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let db = db.clone();
        let queue = queue.clone();
        let submitted = submitted.clone();
        let blocked = blocked_producer_ops.clone();
        handles.push(std::thread::spawn(move || {
            for j in 0..JOBS_PER_PRODUCER {
                let job_id = (p as i64) * 1_000 + j;
                let t = db.begin();
                let before = db.stats().blocks;
                t.exec(&queue, QueueOp::Enqueue(Value::Int(job_id)))
                    .unwrap();
                t.exec(&submitted, CounterOp::Increment(1)).unwrap();
                if db.stats().blocks > before {
                    blocked.fetch_add(1, Ordering::Relaxed);
                }
                // Producers never conflict with each other: the commit is at
                // worst a pseudo-commit ordered behind earlier producers.
                t.commit().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().expect("producer thread");
    }

    println!(
        "producers finished; producer operations that blocked: {}",
        blocked_producer_ops.load(Ordering::Relaxed)
    );

    // The consumer drains everything in one transaction.
    let consumer = db.begin();
    let mut drained = 0usize;
    loop {
        match consumer.exec(&queue, QueueOp::Dequeue).unwrap() {
            OpResult::Value(_) => drained += 1,
            OpResult::Null => break,
            other => panic!("unexpected dequeue result {other:?}"),
        }
    }
    let count = consumer.exec(&submitted, CounterOp::Read).unwrap();
    consumer.commit().unwrap();

    println!("consumer drained {drained} jobs; submitted counter reads {count}");
    assert_eq!(drained, PRODUCERS * JOBS_PER_PRODUCER as usize);
    assert_eq!(
        count,
        OpResult::Value(Value::Int((PRODUCERS as i64) * JOBS_PER_PRODUCER))
    );

    db.verify_serializable().expect("serializable execution");
    db.verify_commit_dependencies()
        .expect("commit order respects dependencies");
    let stats = db.stats();
    println!(
        "stats: {} commits, {} pseudo-commits, {} blocks, {} commit dependencies, \
         {} cycle checks",
        stats.commits,
        stats.pseudo_commits,
        stats.blocks,
        stats.commit_dependencies,
        db.cycle_checks()
    );
}
