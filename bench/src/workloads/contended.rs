//! `embedded_contended`: the paper's workload. Two executor threads, each
//! multiplexing 16 `AsyncDatabase` sessions, on eight shared hot objects.
//! Every transaction is six seeded operations, one on each of six of the
//! hot objects, with a yield after each, so the whole population of 32
//! transactions is live at once; it is retried through `AsyncDatabase::run`.

use super::gate::{check_quiescent, committed, committed_counter};
use super::{
    db_config, Class, Snapshot, ThreadOut, Verified, Workload, GENERATORS, SESSIONS_PER_THREAD,
};
use crate::gen::{self, HotOp, CONTENDED_OPS, HOT_PER_TYPE, KEYS};
use crate::measure::{Plan, Sampler};
use crate::trace::{self, Tracer, NO_PARENT, TXN_SPAN};
use sbcc_adt::{
    AdtOp, Counter, CounterOp, OpCall, OpResult, Set, SetOp, Stack, StackOp, TableObject, TableOp,
    Value,
};
use sbcc_core::aio::{yield_now, AsyncDatabase, LocalExecutor};
use sbcc_core::ObjectHandle;
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What committed transactions did to the hot objects, as far as the final
/// state can be predicted without knowing the commit order.
#[derive(Debug, Default, Clone)]
struct Tally {
    increments: [i64; HOT_PER_TYPE],
    pushes: [i64; HOT_PER_TYPE],
    /// Pops that returned a value (a pop of an empty stack removes nothing).
    pops: [i64; HOT_PER_TYPE],
    /// Bit `k` set: some committed transaction inserted / deleted key `k`.
    set_inserted: [u64; HOT_PER_TYPE],
    set_deleted: [u64; HOT_PER_TYPE],
    table_inserted: [u64; HOT_PER_TYPE],
}

impl Tally {
    fn note(&mut self, op: &HotOp, result: &OpResult) {
        match *op {
            HotOp::Incr { obj } => self.increments[obj as usize] += 1,
            HotOp::Push { obj, .. } => self.pushes[obj as usize] += 1,
            HotOp::Pop { obj } if *result != OpResult::Null => self.pops[obj as usize] += 1,
            HotOp::SetInsert { obj, key } => self.set_inserted[obj as usize] |= 1 << key,
            HotOp::SetDelete { obj, key } => self.set_deleted[obj as usize] |= 1 << key,
            HotOp::TableInsert { obj, key, .. } => self.table_inserted[obj as usize] |= 1 << key,
            _ => {}
        }
    }

    fn merge(&mut self, other: &Tally) {
        for i in 0..HOT_PER_TYPE {
            self.increments[i] += other.increments[i];
            self.pushes[i] += other.pushes[i];
            self.pops[i] += other.pops[i];
            self.set_inserted[i] |= other.set_inserted[i];
            self.set_deleted[i] |= other.set_deleted[i];
            self.table_inserted[i] |= other.table_inserted[i];
        }
    }
}

struct Objects {
    stacks: Vec<ObjectHandle>,
    sets: Vec<ObjectHandle>,
    counters: Vec<ObjectHandle>,
    tables: Vec<ObjectHandle>,
}

impl Objects {
    fn target(&self, op: &HotOp) -> (&ObjectHandle, OpCall) {
        let int = Value::Int;
        match *op {
            HotOp::Push { obj, value } => (
                &self.stacks[obj as usize],
                StackOp::Push(int(value)).to_call(),
            ),
            HotOp::Pop { obj } => (&self.stacks[obj as usize], StackOp::Pop.to_call()),
            HotOp::Top { obj } => (&self.stacks[obj as usize], StackOp::Top.to_call()),
            HotOp::SetInsert { obj, key } => {
                (&self.sets[obj as usize], SetOp::Insert(int(key)).to_call())
            }
            HotOp::SetMember { obj, key } => {
                (&self.sets[obj as usize], SetOp::Member(int(key)).to_call())
            }
            HotOp::SetDelete { obj, key } => {
                (&self.sets[obj as usize], SetOp::Delete(int(key)).to_call())
            }
            HotOp::Incr { obj } => (
                &self.counters[obj as usize],
                CounterOp::Increment(1).to_call(),
            ),
            HotOp::Read { obj } => (&self.counters[obj as usize], CounterOp::Read.to_call()),
            HotOp::TableInsert { obj, key, value } => (
                &self.tables[obj as usize],
                TableOp::Insert(int(key), int(value)).to_call(),
            ),
            HotOp::TableLookup { obj, key } => (
                &self.tables[obj as usize],
                TableOp::Lookup(int(key)).to_call(),
            ),
        }
    }
}

pub struct Contended {
    db: AsyncDatabase,
    objects: Objects,
    seed: u64,
    tallies: Vec<Mutex<Tally>>,
    epoch: Instant,
}

/// What the sessions of one executor thread share.
struct ThreadState {
    sampler: RefCell<Sampler>,
    tracer: RefCell<Tracer>,
    tally: RefCell<Tally>,
    next_seq: Cell<u64>,
}

async fn session(env: Arc<Contended>, state: Rc<ThreadState>, lane: usize, plan: Plan) {
    // One stream per session, `GENERATORS * SESSIONS_PER_THREAD` in all.
    let stream = gen::contended_stream(env.seed, 100 + lane as u64);
    let mut cursor = 0usize;
    let mut begin = Instant::now();
    loop {
        let spec = &stream[cursor % stream.len()];
        cursor += 1;
        let seq = state.next_seq.replace(state.next_seq.get() + 1);
        let traced = state.tracer.borrow().samples(seq);
        let root = if traced {
            state.tracer.borrow_mut().open(TXN_SPAN, NO_PARENT, seq)
        } else {
            NO_PARENT
        };
        let attempts = Cell::new(0u64);
        // The commit span: from the successful attempt's last operation to
        // `run` returning, i.e. the commit `run` performs plus its
        // bookkeeping.
        let commit_span = Cell::new(NO_PARENT);
        let (env_ref, state_ref, attempts_ref, commit_ref) =
            (&env, &state, &attempts, &commit_span);
        let effects = env
            .db
            .run(move |txn| async move {
                attempts_ref.set(attempts_ref.get() + 1);
                let mut effects = Tally::default();
                for op in spec {
                    let (object, call) = env_ref.objects.target(op);
                    let exec = txn.exec_call(object, call);
                    let result = trace::call_async(
                        &state_ref.tracer,
                        traced,
                        "core.aio.exec",
                        root,
                        seq,
                        exec,
                    )
                    .await?;
                    effects.note(op, &result);
                    yield_now().await;
                }
                if traced {
                    commit_ref.set(state_ref.tracer.borrow_mut().open(
                        "core.aio.commit",
                        root,
                        seq,
                    ));
                }
                Ok(effects)
            })
            .await
            .expect("a contended transaction commits within the retry budget");
        if traced {
            let mut tracer = state.tracer.borrow_mut();
            tracer.close(commit_span.get());
            tracer.close(root);
        }
        let end = Instant::now();
        state
            .sampler
            .borrow_mut()
            .record(begin, end, attempts.get());
        state.tally.borrow_mut().merge(&effects);
        if plan.finished(end) {
            return;
        }
        begin = end;
    }
}

impl Workload for Contended {
    const NAME: &'static str = crate::spec::EMBEDDED_CONTENDED;
    const TRACE_EVERY: u64 = 8;
    const RSS_AFTER_TXNS: u64 = 800;

    fn setup(seed: u64, _scratch: &Path) -> Self {
        let db = AsyncDatabase::with_config(db_config(None));
        let each = |prefix: &str, make: &dyn Fn(String) -> ObjectHandle| {
            (0..HOT_PER_TYPE)
                .map(|i| make(format!("{prefix}{i}")))
                .collect::<Vec<_>>()
        };
        let objects = Objects {
            stacks: each("stack", &|n| db.register(n, Stack::new()).into_erased()),
            sets: each("set", &|n| db.register(n, Set::new()).into_erased()),
            counters: each("counter", &|n| db.register(n, Counter::new()).into_erased()),
            tables: each("table", &|n| {
                db.register(n, TableObject::new()).into_erased()
            }),
        };
        Contended {
            db,
            objects,
            seed,
            tallies: (0..GENERATORS)
                .map(|_| Mutex::new(Tally::default()))
                .collect(),
            epoch: Instant::now(),
        }
    }

    fn drive(this: &Arc<Self>, thread: usize, plan: Plan, trace_every: u64) -> ThreadOut {
        let state = Rc::new(ThreadState {
            sampler: RefCell::new(Sampler::new(plan, thread as u64)),
            tracer: RefCell::new(Tracer::new(this.epoch, trace_every)),
            tally: RefCell::new(Tally::default()),
            next_seq: Cell::new(0),
        });
        let executor = LocalExecutor::new();
        for s in 0..SESSIONS_PER_THREAD {
            let lane = thread * SESSIONS_PER_THREAD + s;
            executor.spawn(session(Arc::clone(this), Rc::clone(&state), lane, plan));
        }
        executor.run();
        drop(executor);
        let state = Rc::try_unwrap(state)
            .ok()
            .expect("every session has finished");
        this.tallies[thread]
            .lock()
            .unwrap()
            .merge(&state.tally.into_inner());
        ThreadOut {
            class: Class::Write,
            ops_per_txn: CONTENDED_OPS as u64,
            sampler: state.sampler.into_inner(),
            tracer: state.tracer.into_inner(),
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            stats: self.db.stats_snapshot(),
            ..Snapshot::default()
        }
    }

    fn verify(self) -> Result<Verified, String> {
        let db = self.db.database();
        let mut want = Tally::default();
        for t in &self.tallies {
            want.merge(&t.lock().unwrap());
        }
        let mut checks = Vec::new();
        for i in 0..HOT_PER_TYPE {
            let got = committed_counter(db, &self.objects.counters[i])?;
            if got != want.increments[i] {
                return Err(format!(
                    "counter{i} holds {got}, committed increments say {}",
                    want.increments[i]
                ));
            }
            let depth = committed::<Stack, _>(db, &self.objects.stacks[i], Stack::len)? as i64;
            if depth != want.pushes[i] - want.pops[i] {
                return Err(format!(
                    "stack{i} is {depth} deep, committed pushes {} minus non-empty pops {} say {}",
                    want.pushes[i],
                    want.pops[i],
                    want.pushes[i] - want.pops[i]
                ));
            }
            for key in 0..KEYS {
                let bit = 1u64 << key;
                let inserted = want.set_inserted[i] & bit != 0;
                let deleted = want.set_deleted[i] & bit != 0;
                let present = committed::<Set, _>(db, &self.objects.sets[i], |s| {
                    s.contains(&Value::Int(key))
                })?;
                // Inserted and deleted both: the commit order decides.
                if (inserted && !deleted && !present) || (!inserted && present) {
                    return Err(format!("set{i} key {key}: inserted {inserted}, deleted {deleted}, present {present}"));
                }
                let inserted = want.table_inserted[i] & bit != 0;
                let present = committed::<TableObject, _>(db, &self.objects.tables[i], |t| {
                    t.get(&Value::Int(key)).is_some()
                })?;
                if inserted != present {
                    return Err(format!(
                        "table{i} key {key}: inserted {inserted}, present {present}"
                    ));
                }
            }
        }
        checks.push(format!(
            "counters equal committed increments ({:?}); stack depths equal pushes minus non-empty pops ({:?} - {:?}); committed set and table keys present",
            want.increments, want.pushes, want.pops
        ));
        check_quiescent(db, &mut checks)?;
        Ok(Verified {
            checks,
            metrics: Vec::new(),
        })
    }
}
