//! Loopback differential: the same randomized transaction scripts driven
//! **over a real TCP socket** (one [`NetClient`] against a one-worker
//! [`Server`]) and driven **in-process** against a plain
//! [`AsyncDatabase`] must be behaviourally identical — same per-step
//! results, same transaction fates, same final committed object states
//! and same kernel counters — at one shard and at four.
//!
//! Both drivers impose the same deterministic injection order: steps are
//! injected one at a time, and each injection is *fenced* before the
//! next — the wire driver pipelines the step frame followed by a `Ping`
//! and waits for the `Pong` (the router answers in order and yields the
//! executor after every frame, which lets the session task admit the
//! step to the kernel before the `Pong` leaves — see `router_task` for
//! the window that leaves open), while the reference driver
//! pushes the step into the owning session task's queue and runs the
//! executor until it stalls. A step's *result* may arrive many steps
//! later (blocked operations resolve when the conflicting transaction
//! terminates); both sides key results by step index, so late
//! resolutions land in the same slot.

use proptest::prelude::*;
use sbcc_adt::{AdtOp, CounterOp, OpCall, QueueOp, SetOp, StackOp, Value};
use sbcc_core::aio::{AsyncDatabase, AsyncTransaction, LocalExecutor};
use sbcc_core::{CoreError, Database, DatabaseConfig, ObjectHandle, SchedulerConfig, TxnState};
use sbcc_net::{AdtType, ErrorCode, NetClient, Request, Response, Server, ServerConfig};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

const TENANT: &str = "t0";
const OBJECTS: &[(&str, AdtType)] = &[
    ("stack", AdtType::Stack),
    ("counter", AdtType::Counter),
    ("queue", AdtType::FifoQueue),
    ("set", AdtType::Set),
];

fn scheduler_config(policy_choice: bool) -> SchedulerConfig {
    let policy = if policy_choice {
        sbcc_core::ConflictPolicy::Recoverability
    } else {
        sbcc_core::ConflictPolicy::CommutativityOnly
    };
    SchedulerConfig::default().with_policy(policy)
}

fn arb_call_for(object: usize) -> BoxedStrategy<OpCall> {
    match object {
        0 => prop_oneof![
            (0i64..5).prop_map(|v| StackOp::Push(Value::Int(v)).to_call()),
            Just(StackOp::Pop.to_call()),
            Just(StackOp::Top.to_call()),
        ]
        .boxed(),
        1 => prop_oneof![
            (1i64..5).prop_map(|v| CounterOp::Increment(v).to_call()),
            (1i64..5).prop_map(|v| CounterOp::Decrement(v).to_call()),
            Just(CounterOp::Read.to_call()),
        ]
        .boxed(),
        2 => prop_oneof![
            (0i64..5).prop_map(|v| QueueOp::Enqueue(Value::Int(v)).to_call()),
            Just(QueueOp::Dequeue.to_call()),
            Just(QueueOp::Front.to_call()),
        ]
        .boxed(),
        _ => prop_oneof![
            (0i64..4).prop_map(|v| SetOp::Insert(Value::Int(v)).to_call()),
            (0i64..4).prop_map(|v| SetOp::Delete(Value::Int(v)).to_call()),
            (0i64..4).prop_map(|v| SetOp::Member(Value::Int(v)).to_call()),
        ]
        .boxed(),
    }
}

/// Per-transaction operation scripts (object index, call).
fn arb_scripts() -> impl Strategy<Value = Vec<Vec<(usize, OpCall)>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0..OBJECTS.len()).prop_flat_map(|o| arb_call_for(o).prop_map(move |c| (o, c))),
            1..6,
        ),
        2..5,
    )
}

/// One injected step, in a fixed global order both drivers share.
#[derive(Clone, Debug)]
enum Step {
    Begin,
    Exec(usize, usize, OpCall),
    Commit(usize),
}

/// Flatten per-transaction scripts into a deterministic interleaving:
/// begin everything, round-robin one operation per live transaction per
/// round, commit each transaction right after its last operation.
fn interleave(scripts: &[Vec<(usize, OpCall)>]) -> Vec<Step> {
    let mut steps: Vec<Step> = (0..scripts.len()).map(|_| Step::Begin).collect();
    let mut cursor = vec![0usize; scripts.len()];
    loop {
        let mut progressed = false;
        for (i, script) in scripts.iter().enumerate() {
            if cursor[i] > script.len() {
                continue;
            }
            if cursor[i] == script.len() {
                steps.push(Step::Commit(i));
            } else {
                let (object, call) = &script[cursor[i]];
                steps.push(Step::Exec(i, *object, call.clone()));
            }
            cursor[i] += 1;
            progressed = true;
        }
        if !progressed {
            return steps;
        }
    }
}

/// Everything observable about one execution.
#[derive(Debug, PartialEq)]
struct Trace {
    /// Step index → normalized response, for every step that responds.
    results: BTreeMap<usize, String>,
    /// Final committed state of every object.
    states: Vec<String>,
    /// The comparable subset of the kernel counters.
    stats: String,
}

fn stats_line(db: &Database) -> String {
    let s = db.stats();
    format!(
        "requests={} executed={} blocks={} unblocks={} commit_deps={} commits={} pseudo={} \
         ab_dead={} ab_ccycle={} ab_explicit={}",
        s.requests,
        s.operations_executed,
        s.blocks,
        s.unblocks,
        s.commit_dependencies,
        s.commits,
        s.pseudo_commits,
        s.aborts_deadlock,
        s.aborts_commit_cycle,
        s.aborts_explicit
    )
}

fn committed_states(db: &Database, handles: &[ObjectHandle]) -> Vec<String> {
    handles
        .iter()
        .map(|h| {
            db.with_sharded_kernel(|k| {
                k.with_object_committed(h.id(), |o| o.debug_state())
                    .expect("registered object")
            })
        })
        .collect()
}

/// The wire side's normalization of a response frame.
fn normalize_response(resp: &Response) -> String {
    match resp {
        Response::Begun { txn } => format!("begun T{txn}"),
        Response::Result(r) => format!("{r:?}"),
        Response::Committed { pseudo } => format!("commit pseudo={pseudo}"),
        Response::Error { code, detail } => format!("err {code}: {detail}"),
        other => panic!("unexpected response kind in differential: {other:?}"),
    }
}

/// The reference side's normalization of a kernel error — must render
/// exactly like the server's error frame for the same `CoreError`.
fn normalize_core_error(e: &CoreError) -> String {
    let code = match e {
        CoreError::UnknownTransaction(_) => ErrorCode::UnknownTransaction,
        CoreError::UnknownObject(_) => ErrorCode::UnknownObject,
        CoreError::InvalidState { .. } => ErrorCode::InvalidState,
        CoreError::Aborted { .. } => ErrorCode::Aborted,
        CoreError::DuplicateObject(_) => ErrorCode::DuplicateObject,
        CoreError::RetriesExhausted { .. } => ErrorCode::RetriesExhausted,
        CoreError::Durability(_) => ErrorCode::Durability,
    };
    format!("err {code}: {e}")
}

/// Drive the steps through a real server over a real socket.
fn run_wire(steps: &[Step], policy_choice: bool, shards: usize) -> Trace {
    let db = AsyncDatabase::with_config(
        DatabaseConfig::new(scheduler_config(policy_choice)).with_shards(shards),
    );
    let server = Server::start(db, ServerConfig::default().with_workers(1)).expect("bind");
    let mut client = NetClient::connect(server.local_addr(), TENANT).expect("connect");
    for (name, adt) in OBJECTS {
        client.register(name, *adt).unwrap();
    }

    let mut request_of_step: BTreeMap<u64, usize> = BTreeMap::new();
    let mut wire_txn: Vec<u64> = Vec::new();
    let mut results: BTreeMap<usize, String> = BTreeMap::new();
    for (index, step) in steps.iter().enumerate() {
        let request = match step {
            Step::Begin => Request::Begin,
            Step::Exec(txn, object, call) => Request::Exec {
                txn: wire_txn[*txn],
                object: OBJECTS[*object].0.to_owned(),
                call: call.clone(),
            },
            Step::Commit(txn) => Request::Commit {
                txn: wire_txn[*txn],
            },
        };
        let id = client.send(&request).unwrap();
        request_of_step.insert(id, index);
        // Fence: the router has routed this step (and the session task
        // has admitted it to the kernel) once the Pong comes back.
        client.ping().unwrap();
        // A `Begin` answers immediately, and later steps need its wire
        // transaction id.
        if let Step::Begin = step {
            match client.recv_for(id).unwrap() {
                Response::Begun { txn } => {
                    wire_txn.push(txn);
                    results.insert(index, format!("begun T{txn}"));
                    request_of_step.remove(&id);
                }
                other => panic!("begin answered with {other:?}"),
            }
        }
    }
    // Collect every remaining response: all conflicts resolve once every
    // transaction has terminated, so nothing is outstanding forever.
    while !request_of_step.is_empty() {
        let (id, resp) = client.recv().expect("outstanding step response");
        if let Some(index) = request_of_step.remove(&id) {
            results.insert(index, normalize_response(&resp));
        }
    }

    server.db().verify_serializable().unwrap();
    server.db().check_invariants().unwrap();
    let handles: Vec<ObjectHandle> = OBJECTS
        .iter()
        .map(|(name, _)| server.object_handle(TENANT, name).expect("registered"))
        .collect();
    let states = committed_states(server.db().database(), &handles);
    let stats = stats_line(server.db().database());
    drop(client);
    let final_stats = server.shutdown();
    assert_eq!(final_stats.connections_open, 0, "leaked connections");
    assert_eq!(final_stats.transactions_in_flight, 0, "leaked sessions");
    Trace {
        results,
        states,
        stats,
    }
}

/// The reference side's per-session work queue (the same shape the
/// server uses internally: the injector is the producer, the session
/// task the consumer, both on one executor).
#[derive(Default)]
struct WorkQueue {
    work: RefCell<Vec<(usize, Work)>>,
    waker: Cell<Option<Waker>>,
}

enum Work {
    Exec(ObjectHandle, OpCall),
    Commit,
}

impl WorkQueue {
    fn push(&self, index: usize, work: Work) {
        self.work.borrow_mut().push((index, work));
        if let Some(w) = self.waker.take() {
            w.wake();
        }
    }
}

struct NextWork {
    queue: Rc<WorkQueue>,
}

impl Future for NextWork {
    type Output = (usize, Work);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<(usize, Work)> {
        let mut work = self.queue.work.borrow_mut();
        if work.is_empty() {
            self.queue.waker.set(Some(cx.waker().clone()));
            Poll::Pending
        } else {
            Poll::Ready(work.remove(0))
        }
    }
}

/// Mirrors the server's per-transaction task: sequential work, errors
/// forwarded without ending the session, commit ends it.
async fn reference_session(
    txn: AsyncTransaction,
    queue: Rc<WorkQueue>,
    results: Rc<RefCell<BTreeMap<usize, String>>>,
) {
    loop {
        let (index, work) = NextWork {
            queue: queue.clone(),
        }
        .await;
        match work {
            Work::Exec(handle, call) => {
                let entry = match txn.exec_call(&handle, call).await {
                    Ok(r) => format!("{r:?}"),
                    Err(e) => normalize_core_error(&e),
                };
                results.borrow_mut().insert(index, entry);
            }
            Work::Commit => {
                let entry = match txn.commit().await {
                    Ok(outcome) => format!("commit pseudo={}", outcome.is_pseudo_commit()),
                    Err(e) => normalize_core_error(&e),
                };
                results.borrow_mut().insert(index, entry);
                return;
            }
        }
    }
}

/// Drive the same steps against an in-process [`AsyncDatabase`].
fn run_reference(steps: &[Step], policy_choice: bool, shards: usize) -> Trace {
    let db = AsyncDatabase::with_config(
        DatabaseConfig::new(scheduler_config(policy_choice)).with_shards(shards),
    );
    let handles: Vec<ObjectHandle> = OBJECTS
        .iter()
        .map(|(name, adt)| {
            db.register_object(format!("{TENANT}/{name}"), adt.instantiate())
                .expect("fresh registration")
        })
        .collect();
    let exec = LocalExecutor::new();
    let results: Rc<RefCell<BTreeMap<usize, String>>> = Rc::default();
    let mut queues: Vec<Rc<WorkQueue>> = Vec::new();
    for (index, step) in steps.iter().enumerate() {
        match step {
            Step::Begin => {
                let txn = db.begin();
                results
                    .borrow_mut()
                    .insert(index, format!("begun T{}", txn.id().0));
                let queue = Rc::new(WorkQueue::default());
                queues.push(queue.clone());
                let results = results.clone();
                exec.spawn(async move {
                    reference_session(txn, queue, results).await;
                });
            }
            Step::Exec(txn, object, call) => {
                queues[*txn].push(index, Work::Exec(handles[*object].clone(), call.clone()));
            }
            Step::Commit(txn) => {
                queues[*txn].push(index, Work::Commit);
            }
        }
        exec.run_until_stalled();
    }
    exec.run_until_stalled();

    db.verify_serializable().unwrap();
    db.check_invariants().unwrap();
    let states = committed_states(db.database(), &handles);
    let stats = stats_line(db.database());
    drop(queues);
    let results = Rc::try_unwrap(results)
        .expect("all session futures finished")
        .into_inner();
    Trace {
        results,
        states,
        stats,
    }
}

fn assert_equivalent(scripts: &[Vec<(usize, OpCall)>], policy_choice: bool) {
    let steps = interleave(scripts);
    for shards in [1usize, 4] {
        let wire = run_wire(&steps, policy_choice, shards);
        let reference = run_reference(&steps, policy_choice, shards);
        assert_eq!(
            wire, reference,
            "wire and in-process executions diverged at {shards} shard(s) \
             (policy_choice={policy_choice}, steps={steps:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: driving the kernel through the TCP
    /// front-end is observationally equivalent to driving it in-process
    /// — per-step results (including kernel error frames), final
    /// committed states and kernel counters all match, unsharded and
    /// sharded.
    #[test]
    fn wire_equals_in_process(
        scripts in arb_scripts(),
        policy_choice in any::<bool>(),
    ) {
        assert_equivalent(&scripts, policy_choice);
    }
}

/// A deterministic pin of the classic conflict shape (uncommitted push,
/// blocked pop, resolution at commit) so a differential break is
/// debuggable without shrinking.
#[test]
fn pinned_conflict_scenario_matches() {
    let scripts: Vec<Vec<(usize, OpCall)>> = vec![
        vec![
            (0, StackOp::Push(Value::Int(7)).to_call()),
            (1, CounterOp::Increment(1).to_call()),
        ],
        // Round-robin injection puts this pop right after the push,
        // while the push is still uncommitted: it must block, and must
        // block identically on both sides.
        vec![(0, StackOp::Pop.to_call())],
        vec![
            (1, CounterOp::Increment(2).to_call()),
            (1, CounterOp::Read.to_call()),
        ],
    ];
    for policy_choice in [false, true] {
        assert_equivalent(&scripts, policy_choice);
    }
}

/// The blocked pop really blocks on the wire: inject the conflict and
/// observe the kernel state through the served database before the
/// resolution arrives.
#[test]
fn wire_conflicts_block_in_the_kernel() {
    let db = AsyncDatabase::with_config(DatabaseConfig::new(SchedulerConfig::default()));
    let server = Server::start(db, ServerConfig::default().with_workers(1)).expect("bind");
    let mut client = NetClient::connect(server.local_addr(), TENANT).expect("connect");
    client.register("stack", AdtType::Stack).unwrap();

    let t1 = client.begin().unwrap();
    client
        .exec(t1, "stack", StackOp::Push(Value::Int(1)).to_call())
        .unwrap();
    let t2 = client.begin().unwrap();
    let pop = client
        .send(&Request::Exec {
            txn: t2,
            object: "stack".to_owned(),
            call: StackOp::Pop.to_call(),
        })
        .unwrap();
    // The Pong proves the router dispatched the pop; its session task
    // may still be about to run it into the kernel.
    client.ping().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.db().txn_state(sbcc_core::TxnId(t2)) != Some(TxnState::Blocked) {
        assert!(
            Instant::now() < deadline,
            "the pop must be admitted and blocked"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    client.commit(t1).unwrap();
    let resp = client.recv_for(pop).unwrap();
    assert_eq!(normalize_response(&resp), "Value(Int(1))");
    client.commit(t2).unwrap();
    server.shutdown();
}
