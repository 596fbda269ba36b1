//! End-to-end loopback tests: a real [`Server`] on `127.0.0.1`, driven
//! by [`NetClient`]s over real sockets, verified against the served
//! database in-process.

use sbcc_adt::{AdtOp, CounterOp, OpCall, OpResult, StackOp, Value};
use sbcc_core::aio::AsyncDatabase;
use sbcc_core::{SchedulerConfig, TxnId, TxnState};
use sbcc_net::{
    AdtType, ErrorCode, NetClient, NetError, ProtoError, Request, Response, Server, ServerConfig,
    MAX_IN_FLIGHT_PER_CONN,
};
use std::net::Shutdown;
use std::time::{Duration, Instant};

fn start_server(config: ServerConfig) -> Server {
    Server::start(AsyncDatabase::new(SchedulerConfig::default()), config)
        .expect("bind loopback server")
}

/// Poll `cond` until it holds (the server side of a socket event is
/// asynchronous; a few milliseconds of settling is expected).
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn counter_roundtrip_and_clean_shutdown() {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, "acme").expect("connect");
    client.register("hits", AdtType::Counter).unwrap();
    let txn = client.begin().unwrap();
    for _ in 0..3 {
        let r = client
            .exec(txn, "hits", CounterOp::Increment(2).to_call())
            .unwrap();
        assert_eq!(r, OpResult::Ok);
    }
    let r = client.exec(txn, "hits", CounterOp::Read.to_call()).unwrap();
    assert_eq!(r, OpResult::Value(Value::Int(6)));
    let pseudo = client.commit(txn).unwrap();
    assert!(!pseudo, "no concurrent transaction to depend on");

    server.db().verify_serializable().unwrap();
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.connections_open, 0, "no leaked connections");
    assert_eq!(stats.transactions_in_flight, 0, "no leaked sessions");
    assert_eq!(stats.sessions_auto_aborted, 0);
}

#[test]
fn exec_batch_matches_sequential_execs() {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, "t").expect("connect");
    client.register("a", AdtType::Stack).unwrap();
    client.register("b", AdtType::Counter).unwrap();

    let ops = |v: i64| -> Vec<(String, OpCall)> {
        vec![
            ("a".to_owned(), StackOp::Push(Value::Int(v)).to_call()),
            ("b".to_owned(), CounterOp::Increment(v).to_call()),
            ("a".to_owned(), StackOp::Top.to_call()),
            ("b".to_owned(), CounterOp::Read.to_call()),
        ]
    };

    // Abort after collecting results so the second run starts from the
    // same committed state.
    let t1 = client.begin().unwrap();
    let batched = client.exec_batch(t1, ops(5)).unwrap();
    client.abort(t1).unwrap();

    let t2 = client.begin().unwrap();
    let sequential: Vec<OpResult> = ops(5)
        .into_iter()
        .map(|(object, call)| client.exec(t2, &object, call).unwrap())
        .collect();
    client.abort(t2).unwrap();

    assert_eq!(batched, sequential);
    server.shutdown();
}

#[test]
fn snapshot_transactions_read_their_begin_stamp_over_the_wire() {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, "acme").expect("connect");
    client.register("hits", AdtType::Counter).unwrap();

    // Commit 5, then open a snapshot, then commit 100 more from a later
    // transaction: the snapshot keeps seeing 5.
    let w1 = client.begin().unwrap();
    client
        .exec(w1, "hits", CounterOp::Increment(5).to_call())
        .unwrap();
    client.commit(w1).unwrap();

    let snap = client.begin_snapshot().unwrap();
    let w2 = client.begin().unwrap();
    client
        .exec(w2, "hits", CounterOp::Increment(100).to_call())
        .unwrap();
    client.commit(w2).unwrap();

    let r = client
        .exec(snap, "hits", CounterOp::Read.to_call())
        .unwrap();
    assert_eq!(r, OpResult::Value(Value::Int(5)), "snapshot ignores w2");
    let r = client
        .exec(snap, "hits", CounterOp::Read.to_call())
        .unwrap();
    assert_eq!(
        r,
        OpResult::Value(Value::Int(5)),
        "snapshot reads are stable"
    );
    client.commit(snap).unwrap();

    // A fresh classified transaction sees the full committed total.
    let t = client.begin().unwrap();
    let r = client.exec(t, "hits", CounterOp::Read.to_call()).unwrap();
    assert_eq!(r, OpResult::Value(Value::Int(105)));
    client.abort(t).unwrap();

    server.db().verify_serializable().unwrap();
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.transactions_in_flight, 0, "no leaked sessions");
}

#[test]
fn tenants_get_disjoint_namespaces() {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    let mut alice = NetClient::connect(addr, "alice").expect("connect");
    let mut bob = NetClient::connect(addr, "bob").expect("connect");
    alice.register("c", AdtType::Counter).unwrap();
    bob.register("c", AdtType::Counter).unwrap();

    let ta = alice.begin().unwrap();
    alice
        .exec(ta, "c", CounterOp::Increment(10).to_call())
        .unwrap();
    alice.commit(ta).unwrap();

    // Bob's `c` is a different object: his read sees zero, immediately —
    // no conflict with Alice's traffic either.
    let tb = bob.begin().unwrap();
    let r = bob.exec(tb, "c", CounterOp::Read.to_call()).unwrap();
    assert_eq!(r, OpResult::Value(Value::Int(0)));
    bob.commit(tb).unwrap();

    // And an unregistered name is refused per-tenant.
    let mut carol = NetClient::connect(addr, "carol").expect("connect");
    let tc = carol.begin().unwrap();
    let err = carol
        .exec(tc, "c", CounterOp::Read.to_call())
        .expect_err("carol never registered c");
    match err {
        NetError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownObject),
        other => panic!("expected unknown-object, got {other}"),
    }
    carol.abort(tc).unwrap();
    server.shutdown();
}

#[test]
fn hello_is_mandatory_and_checked() {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    // No hello: everything but ping is refused.
    let mut raw = NetClient::connect(addr, "x").expect("connect");
    // (connect already sent hello for this client — use a raw frame to
    // simulate a duplicate, which is a protocol error.)
    let id = raw
        .send(&Request::Hello {
            version: sbcc_net::PROTOCOL_VERSION,
            tenant: "y".to_owned(),
        })
        .unwrap();
    match raw.recv_for(id).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }

    server.shutdown();
}

/// Send one raw frame whose opcode the server does not know: it must
/// answer `ErrorCode::Protocol` under request id 0 and hang up.
fn expect_protocol_error_then_close(frame: &[u8]) {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, "t").expect("connect");
    client.send_raw(frame).unwrap();

    let (id, resp) = client.recv().expect("error frame before close");
    assert_eq!(id, 0, "malformed frames are answered with request id 0");
    match resp {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    // The server hangs up after a protocol violation.
    match client.recv() {
        Err(NetError::Io(_)) => {}
        other => panic!("expected EOF after protocol violation, got {other:?}"),
    }
    wait_until("connection teardown", || {
        server.net_stats().connections_open == 0
    });
    server.shutdown();
}

#[test]
fn unknown_opcode_gets_protocol_error_then_close() {
    // body = request id (8) + unknown opcode 0x7f
    let mut frame = Vec::new();
    frame.extend_from_slice(&9u32.to_le_bytes());
    frame.extend_from_slice(&77u64.to_le_bytes());
    frame.push(0x7f);
    expect_protocol_error_then_close(&frame);
}

/// Opcode `0x0A` (the declared-footprint batch) is retired. This is the
/// frame the last tree that spoke it encoded for request id 77, txn 42,
/// one `("jobs", Push(Int(-7)))` op, no read names, write name `"jobs"`:
/// it is now an unknown opcode to the decoder and to a live server.
#[test]
fn retired_declared_batch_frame_is_refused() {
    let frame: [u8; 66] = [
        0x3e, 0, 0, 0, // body length
        0x4d, 0, 0, 0, 0, 0, 0, 0,    // request id 77
        0x0a, // the retired opcode
        0x2a, 0, 0, 0, 0, 0, 0, 0, // txn 42
        1, 0, 0, 0, // one op
        4, 0, 0, 0, b'j', b'o', b'b', b's', // object
        0, 0, 0, 0, // op kind (Push)
        1, 0, 0, 0, // one parameter
        2, 0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // Int(-7)
        0, 0, 0, 0, // no read names
        1, 0, 0, 0, // one write name
        4, 0, 0, 0, b'j', b'o', b'b', b's',
    ];
    assert_eq!(
        Request::decode(&frame[4..]),
        Err(ProtoError::UnknownOpcode(0x0A))
    );
    expect_protocol_error_then_close(&frame);
}

#[test]
fn oversized_frame_is_refused_without_buffering() {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, "t").expect("connect");
    // Promise a body far beyond MAX_FRAME_LEN; send only the prefix.
    client
        .send_raw(&((sbcc_net::MAX_FRAME_LEN as u32 + 1).to_le_bytes()))
        .unwrap();
    let (id, resp) = client.recv().expect("error frame before close");
    assert_eq!(id, 0);
    match resp {
        Response::Error { code, detail } => {
            assert_eq!(code, ErrorCode::Protocol);
            assert!(detail.contains("oversized"), "detail: {detail}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn truncated_frame_then_close_leaks_nothing() {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, "t").expect("connect");
    // A frame promising 100 bytes, delivering 3, then a half-close.
    client.send_raw(&100u32.to_le_bytes()).unwrap();
    client.send_raw(&[1, 2, 3]).unwrap();
    client.stream().shutdown(Shutdown::Write).unwrap();

    wait_until("connection teardown", || {
        server.net_stats().connections_open == 0
    });
    let stats = server.shutdown();
    assert_eq!(stats.transactions_in_flight, 0);
}

#[test]
fn mid_transaction_disconnect_auto_aborts_and_unblocks_waiters() {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    let mut holder = NetClient::connect(addr, "t").expect("connect");
    holder.register("s", AdtType::Stack).unwrap();
    let t1 = holder.begin().unwrap();
    let r = holder
        .exec(t1, "s", StackOp::Push(Value::Int(7)).to_call())
        .unwrap();
    assert_eq!(r, OpResult::Ok);

    // A second connection pops: pop does not commute with the
    // uncommitted push, so the kernel blocks it.
    let mut waiter = NetClient::connect(addr, "t").expect("connect");
    let t2 = waiter.begin().unwrap();
    let pop_id = waiter
        .send(&Request::Exec {
            txn: t2,
            object: "s".to_owned(),
            call: StackOp::Pop.to_call(),
        })
        .unwrap();
    waiter.ping().unwrap(); // fence: the pop has been admitted
    wait_until("pop to block", || {
        server.db().txn_state(TxnId(t2)) == Some(TxnState::Blocked)
    });

    // Kill the holder's connection mid-transaction. The server must
    // auto-abort its session, which unblocks the waiter.
    holder.stream().shutdown(Shutdown::Both).unwrap();
    drop(holder);

    let resp = waiter.recv_for(pop_id).expect("pop resolves");
    // The push was rolled back with the abort: the pop sees an empty
    // committed stack.
    assert_eq!(resp, Response::Result(OpResult::Null));
    assert_eq!(server.db().txn_state(TxnId(t1)), Some(TxnState::Aborted));
    let pseudo = waiter.commit(t2).unwrap();
    assert!(!pseudo);

    wait_until("holder session teardown", || {
        server.net_stats().sessions_auto_aborted == 1
    });
    server.db().verify_serializable().unwrap();
    drop(waiter);
    let stats = server.shutdown();
    assert_eq!(stats.sessions_auto_aborted, 1);
    assert_eq!(stats.transactions_in_flight, 0, "no stranded sessions");
    assert_eq!(stats.connections_open, 0);
}

/// The router drops a transaction from its table when it dispatches the
/// `Commit`, but the transaction's task may still be blocked on an
/// earlier `Exec`. A disconnect must reach that task too.
#[test]
fn blocked_exec_with_pipelined_commit_is_aborted_on_disconnect() {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    let mut holder = NetClient::connect(addr, "t").expect("connect");
    holder.register("s", AdtType::Stack).unwrap();
    let t1 = holder.begin().unwrap();
    holder
        .exec(t1, "s", StackOp::Push(Value::Int(7)).to_call())
        .unwrap();

    let mut waiter = NetClient::connect(addr, "t").expect("connect");
    let t2 = waiter.begin().unwrap();
    waiter
        .send(&Request::Exec {
            txn: t2,
            object: "s".to_owned(),
            call: StackOp::Pop.to_call(),
        })
        .unwrap();
    waiter.send(&Request::Commit { txn: t2 }).unwrap();
    waiter.ping().unwrap(); // fence: the commit has been dispatched
    wait_until("pop to block", || {
        server.db().txn_state(TxnId(t2)) == Some(TxnState::Blocked)
    });

    waiter.stream().shutdown(Shutdown::Both).unwrap();
    drop(waiter);
    wait_until("waiter session teardown", || {
        server.net_stats().sessions_auto_aborted == 1
    });
    assert_eq!(server.db().txn_state(TxnId(t2)), Some(TxnState::Aborted));

    // The holder never depended on the waiter, so it commits as usual.
    assert!(!holder.commit(t1).unwrap());
    server.db().verify_serializable().unwrap();
    drop(holder);
    let stats = server.shutdown();
    assert_eq!(stats.sessions_auto_aborted, 1);
    assert_eq!(stats.transactions_in_flight, 0, "no stranded sessions");
}

#[test]
fn begin_beyond_in_flight_cap_is_shed_with_busy() {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, "t").expect("connect");
    let mut live: Vec<_> = (0..MAX_IN_FLIGHT_PER_CONN)
        .map(|_| client.begin().unwrap())
        .collect();
    let err = client
        .begin()
        .expect_err("a begin beyond the cap must shed");
    assert!(err.is_busy(), "expected busy shed, got {err}");
    assert!(server.net_stats().shed_busy >= 1);

    // Retiring one admits the next — backpressure, not a hard cap.
    client.abort(live.pop().unwrap()).unwrap();
    wait_until("slot to free", || {
        server.net_stats().transactions_in_flight < MAX_IN_FLIGHT_PER_CONN as u64
    });
    live.push(client.begin().expect("slot freed by abort"));
    for txn in live {
        client.abort(txn).unwrap();
    }

    let stats = server.shutdown();
    assert!(stats.shed_busy >= 1);
    assert_eq!(stats.transactions_in_flight, 0);
}

#[test]
fn read_timeout_fires_only_with_live_transactions() {
    let server = start_server(
        ServerConfig::default()
            .with_workers(1)
            .with_read_timeout(Duration::from_millis(40)),
    );
    let addr = server.local_addr();

    // Idle connection (no live transaction): outlives many timeouts.
    let mut idle = NetClient::connect(addr, "t").expect("connect");
    std::thread::sleep(Duration::from_millis(120));
    idle.ping().expect("idle connections are not reaped");

    // A connection holding a transaction and then going silent is
    // reaped, and its session auto-aborted.
    let mut holder = NetClient::connect(addr, "t").expect("connect");
    holder.register("c", AdtType::Counter).unwrap();
    let t = holder.begin().unwrap();
    holder
        .exec(t, "c", CounterOp::Increment(1).to_call())
        .unwrap();
    wait_until("read timeout to fire", || {
        server.net_stats().read_timeouts >= 1
    });
    wait_until("session auto-abort", || {
        server.net_stats().sessions_auto_aborted >= 1
    });
    assert_eq!(server.db().txn_state(TxnId(t)), Some(TxnState::Aborted));

    idle.ping().expect("idle connection still alive");
    drop(idle);
    drop(holder);
    let stats = server.shutdown();
    assert_eq!(stats.read_timeouts, 1);
    assert_eq!(stats.transactions_in_flight, 0);
    assert_eq!(stats.connections_open, 0);
}

#[test]
fn kernel_errors_cross_the_wire_without_killing_the_session() {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, "t").expect("connect");
    client.register("c", AdtType::Counter).unwrap();

    // Unknown wire transaction ids are refused with the kernel's code.
    let err = client
        .exec(9999, "c", CounterOp::Read.to_call())
        .expect_err("unknown txn");
    match err {
        NetError::Server { code, detail } => {
            assert_eq!(code, ErrorCode::UnknownTransaction);
            assert!(detail.contains("T9999"), "detail: {detail}");
        }
        other => panic!("expected server error, got {other}"),
    }

    // Committing twice: the second commit is an invalid-state error from
    // the kernel — and the connection survives to run a fresh txn.
    let t = client.begin().unwrap();
    client.commit(t).unwrap();
    let id = client.send(&Request::Commit { txn: t }).unwrap();
    match client.recv_for(id).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownTransaction),
        other => panic!("expected error frame, got {other:?}"),
    }

    let t2 = client.begin().unwrap();
    let r = client.exec(t2, "c", CounterOp::Read.to_call()).unwrap();
    assert_eq!(r, OpResult::Value(Value::Int(0)));
    client.commit(t2).unwrap();
    server.shutdown();
}

#[test]
fn reconnect_rejoins_the_same_tenant_namespace() {
    let server = start_server(ServerConfig::default().with_workers(1));
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, "acme").expect("connect");
    client.register("c", AdtType::Counter).unwrap();
    let t = client.begin().unwrap();
    client
        .exec(t, "c", CounterOp::Increment(10).to_call())
        .unwrap();
    client.commit(t).unwrap();

    // An uncommitted transaction rides into the reconnect: the server's
    // disconnect sweep must abort it, not leak it.
    let open = client.begin().unwrap();
    client
        .exec(open, "c", CounterOp::Increment(90).to_call())
        .unwrap();

    client.reconnect().expect("reconnect");

    // Same tenant, same namespace: the committed counter is visible
    // without re-registering (and re-registering stays idempotent).
    wait_until("disconnect sweep to abort the open txn", || {
        server.db().txn_state(TxnId(open)) == Some(TxnState::Aborted)
    });
    client.register("c", AdtType::Counter).unwrap();
    let t2 = client.begin().unwrap();
    let r = client.exec(t2, "c", CounterOp::Read.to_call()).unwrap();
    assert_eq!(
        r,
        OpResult::Value(Value::Int(10)),
        "committed state survives, the swept increment does not"
    );
    client.commit(t2).unwrap();

    // The old wire transaction id is dead on the new connection.
    let err = client
        .exec(open, "c", CounterOp::Read.to_call())
        .expect_err("swept txn");
    match err {
        NetError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownTransaction),
        other => panic!("expected server error, got {other}"),
    }

    drop(client);
    let stats = server.shutdown();
    assert_eq!(
        stats.connections_accepted, 2,
        "one reconnect = one new accept"
    );
    assert_eq!(stats.transactions_in_flight, 0, "no leaked sessions");
}
