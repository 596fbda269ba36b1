//! `wire_disjoint`: the `T8` transaction over loopback TCP. An in-process
//! `Server` (two workers, volatile database) and two `NetClient`
//! connections, one per generator thread; a transaction is ten round trips.

use super::gate::{check_counters, committed_counter};
use super::{db_config, Class, Snapshot, ThreadOut, Verified, Workload, GENERATORS};
use crate::gen::{self, COUNTERS_PER_THREAD, T8_OPS};
use crate::measure::{Plan, Sampler};
use crate::trace::{Tracer, NO_PARENT, TXN_SPAN};
use sbcc_adt::{AdtOp, CounterOp, OpCall};
use sbcc_core::aio::AsyncDatabase;
use sbcc_net::{AdtType, NetClient, NetError, Request, Response, Server, ServerConfig};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TENANT: &str = "bench";

pub struct Wire {
    server: Server,
    clients: Vec<Mutex<NetClient>>,
    names: Vec<Vec<String>>,
    seed: u64,
    tallies: Vec<Mutex<Vec<u64>>>,
    epoch: Instant,
}

/// A server on a free loopback port over a fresh volatile database.
pub fn start_server() -> Server {
    Server::start(
        AsyncDatabase::with_config(db_config(None)),
        ServerConfig::default().with_workers(2),
    )
    .expect("bind a loopback port")
}

/// Begin, absorbing `Busy` sheds with a short back-off; returns the wire
/// transaction id and the number of sheds.
fn begin(client: &mut NetClient) -> (u64, u64) {
    let mut sheds = 0;
    loop {
        match client.begin() {
            Ok(txn) => return (txn, sheds),
            Err(e) if e.is_busy() => {
                sheds += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("begin over the wire failed: {e}"),
        }
    }
}

/// One traced round trip: encode, send + receive, and a replica of the
/// decode (`recv` decodes inside the round trip; decoding the same bytes
/// again is the only way to time that step from outside).
fn traced_call(
    client: &mut NetClient,
    tracer: &mut Tracer,
    root: u32,
    seq: u64,
    request_id: &mut u64,
    request: &Request,
) -> Result<Response, NetError> {
    *request_id += 1;
    let id = *request_id;
    let frame = tracer.call(true, "net.client.encode", root, seq, || request.encode(id));
    let (_, response) = tracer.call(true, "net.client.rtt", root, seq, || {
        client.send_raw(&frame)?;
        client.recv()
    })?;
    let bytes = response.encode(id);
    tracer.call(true, "net.client.decode", root, seq, || {
        Response::decode(&bytes[4..])
    })?;
    Ok(response)
}

/// `T8` through the raw pipelined layer, with spans.
fn traced_t8(
    client: &mut NetClient,
    tracer: &mut Tracer,
    root: u32,
    seq: u64,
    request_id: &mut u64,
    name: &str,
    call: &OpCall,
) {
    let txn = match traced_call(client, tracer, root, seq, request_id, &Request::Begin) {
        Ok(Response::Begun { txn }) => txn,
        other => panic!("traced begin answered {other:?}"),
    };
    let exec = Request::Exec {
        txn,
        object: name.to_owned(),
        call: call.clone(),
    };
    for _ in 0..T8_OPS {
        match traced_call(client, tracer, root, seq, request_id, &exec) {
            Ok(Response::Result(_)) => {}
            other => panic!("traced exec answered {other:?}"),
        }
    }
    match traced_call(
        client,
        tracer,
        root,
        seq,
        request_id,
        &Request::Commit { txn },
    ) {
        Ok(Response::Committed { .. }) => {}
        other => panic!("traced commit answered {other:?}"),
    }
}

/// Frame bytes one `T8` moves in both directions, divided by its eight
/// operations. Computed from the frames themselves, so a protocol change
/// moves it; the byte counts do not depend on the ids used.
fn wire_bytes_per_op(name: &str) -> f64 {
    let call = CounterOp::Increment(1).to_call();
    let exec = Request::Exec {
        txn: 1,
        object: name.to_owned(),
        call,
    };
    let request_bytes = Request::Begin.encode(1).len()
        + T8_OPS * exec.encode(1).len()
        + Request::Commit { txn: 1 }.encode(1).len();
    let response_bytes = Response::Begun { txn: 1 }.encode(1).len()
        + T8_OPS * Response::Result(sbcc_adt::OpResult::Ok).encode(1).len()
        + Response::Committed { pseudo: false }.encode(1).len();
    (request_bytes + response_bytes) as f64 / T8_OPS as f64
}

impl Workload for Wire {
    const NAME: &'static str = crate::spec::WIRE_DISJOINT;
    const TRACE_EVERY: u64 = 4;
    const RSS_AFTER_TXNS: u64 = 2_000;

    fn setup(seed: u64, _scratch: &Path) -> Self {
        let server = start_server();
        let names: Vec<Vec<String>> = (0..GENERATORS)
            .map(|t| {
                (0..COUNTERS_PER_THREAD)
                    .map(|i| format!("t{t}_c{i:02}"))
                    .collect()
            })
            .collect();
        let clients = names
            .iter()
            .map(|mine| {
                let mut client =
                    NetClient::connect(server.local_addr(), TENANT).expect("connect over loopback");
                for name in mine {
                    client
                        .register(name, AdtType::Counter)
                        .expect("register a counter over the wire");
                }
                Mutex::new(client)
            })
            .collect();
        Wire {
            server,
            clients,
            names,
            seed,
            tallies: (0..GENERATORS)
                .map(|_| Mutex::new(vec![0; COUNTERS_PER_THREAD]))
                .collect(),
            epoch: Instant::now(),
        }
    }

    fn drive(this: &Arc<Self>, thread: usize, plan: Plan, trace_every: u64) -> ThreadOut {
        let stream = gen::t8_stream(this.seed, thread as u64);
        let names = &this.names[thread];
        let mut client = this.clients[thread].lock().unwrap();
        let mut tally = this.tallies[thread].lock().unwrap();
        let mut sampler = Sampler::new(plan, thread as u64);
        let mut tracer = Tracer::new(this.epoch, trace_every);
        let call = CounterOp::Increment(1).to_call();
        // Ids for the raw layer, far above the ones `NetClient` hands out.
        let mut request_id = 1u64 << 40;
        let mut seq = 0u64;
        let mut begin_at = Instant::now();
        loop {
            let idx = stream[seq as usize % stream.len()] as usize;
            let name = &names[idx];
            let mut attempts = 1;
            if tracer.samples(seq) {
                let root = tracer.open(TXN_SPAN, NO_PARENT, seq);
                traced_t8(
                    &mut client,
                    &mut tracer,
                    root,
                    seq,
                    &mut request_id,
                    name,
                    &call,
                );
                tracer.close(root);
            } else {
                let (txn, sheds) = begin(&mut client);
                attempts += sheds;
                for _ in 0..T8_OPS {
                    client
                        .exec(txn, name, call.clone())
                        .expect("increment over the wire");
                }
                client.commit(txn).expect("commit over the wire");
            }
            let end = Instant::now();
            sampler.record(begin_at, end, attempts);
            tally[idx] += T8_OPS as u64;
            seq += 1;
            if plan.finished(end) {
                break;
            }
            begin_at = end;
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
            stats: self.server.db().stats_snapshot(),
            net: Some(self.server.net_stats()),
            wal_bytes: 0,
        }
    }

    fn shape_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![(
            "net.wire.bytes_per_op",
            wire_bytes_per_op(&self.names[0][0]),
        )]
    }

    fn verify(self) -> Result<Verified, String> {
        let mut checks = Vec::new();
        let db = self.server.db().database().clone();
        check_counters(
            |t, i| {
                let name = &self.names[t][i];
                let handle = self
                    .server
                    .object_handle(TENANT, name)
                    .ok_or_else(|| format!("the server has no object {TENANT}/{name}"))?;
                committed_counter(&db, &handle)
            },
            &self.tallies,
            &mut checks,
        )?;
        db.check_invariants()?;
        drop(self.clients);
        let net = self.server.shutdown();
        if net.connections_open != 0 || net.transactions_in_flight != 0 {
            return Err(format!("after shutdown: {}", net.summary()));
        }
        checks.push(format!(
            "check_invariants passes; after shutdown: {}",
            net.summary()
        ));
        Ok(Verified {
            checks,
            metrics: Vec::new(),
        })
    }

    fn discard(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}
