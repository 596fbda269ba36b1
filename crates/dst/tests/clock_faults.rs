//! Virtual-clock fault injection against the network front-end: a
//! [`sbcc_core::chaos::ClockHook`] stands in for the wall clock at the
//! server's read-timeout point, so the reaper path — inactivity timeout
//! on a connection holding a live transaction, auto-abort of the
//! orphaned session, unblocking of its waiters — runs deterministically
//! in microseconds instead of after a real timeout.
//!
//! The hook's fire step is derived from a pinned seed, regression-style:
//! the countdown forces a known number of "keep waiting" verdicts before
//! the virtual timeout fires, and the test asserts the hook was actually
//! consulted that many times. With a wall-clock budget of an hour, only
//! the virtual clock can have fired within the test's lifetime.

use sbcc_adt::{AdtOp, OpResult, StackOp, Value};
use sbcc_core::aio::AsyncDatabase;
use sbcc_core::chaos::{clear_clock_hook, install_clock_hook, ClockHook, TimeoutPoint};
use sbcc_core::{SchedulerConfig, TxnId, TxnState};
use sbcc_net::{AdtType, NetClient, Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pinned seed for the countdown schedule (SplitMix64, the harness's
/// mixing function). Bump only with a comment explaining what the old
/// schedule stopped covering.
const PINNED_CLOCK_SEED: u64 = 0x5bcc_c10c;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Virtual clock: answers "keep waiting" `fire_at` times at the net-read
/// timeout point, then fires exactly once.
struct CountdownClock {
    fire_at: u64,
    consulted: AtomicU64,
}

impl ClockHook for CountdownClock {
    fn timeout_fires(&self, point: TimeoutPoint) -> Option<bool> {
        if point != TimeoutPoint::NetRead {
            return None;
        }
        let n = self.consulted.fetch_add(1, Ordering::Relaxed);
        Some(n == self.fire_at)
    }
}

/// Clears the process-global hook even if an assertion fails.
struct HookGuard;

impl Drop for HookGuard {
    fn drop(&mut self) {
        clear_clock_hook();
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn virtual_clock_drives_read_timeout_and_auto_abort() {
    // An hour of real inactivity budget: if the reaper runs, the virtual
    // clock drove it.
    let server = Server::start(
        AsyncDatabase::new(SchedulerConfig::default()),
        ServerConfig::default()
            .with_workers(1)
            .with_read_timeout(Duration::from_secs(3600)),
    )
    .expect("bind loopback server");
    let addr = server.local_addr();

    // The doomed connection holds an uncommitted push and goes silent.
    let mut holder = NetClient::connect(addr, "t").expect("connect");
    holder.register("s", AdtType::Stack).unwrap();
    let t1 = holder.begin().unwrap();
    holder
        .exec(t1, "s", StackOp::Push(Value::Int(9)).to_call())
        .unwrap();

    // A sync session on the served database blocks behind the push —
    // the waiter the auto-abort must release.
    let sync_db = server.db().database().clone();
    let stack = server
        .object_handle("t", "s")
        .expect("registered over the wire");
    let waiter = std::thread::spawn(move || {
        let txn = sync_db.begin();
        let popped = txn.exec_call(&stack, StackOp::Pop.to_call());
        let outcome = txn.commit().expect("waiter commits");
        (popped, outcome.is_pseudo_commit())
    });
    wait_until("the pop to block behind the push", || {
        server.db().database().stats().blocks >= 1
    });

    // Only now arm the virtual clock: every reader poll tick before this
    // saw the real clock (an hour from firing). The countdown length
    // comes from the pinned seed.
    let fire_at = 3 + splitmix64(PINNED_CLOCK_SEED) % 8;
    let clock = Arc::new(CountdownClock {
        fire_at,
        consulted: AtomicU64::new(0),
    });
    let _guard = HookGuard;
    install_clock_hook(clock.clone());

    wait_until("the virtual timeout to fire", || {
        server.net_stats().read_timeouts == 1
    });
    wait_until("the orphaned session to auto-abort", || {
        server.net_stats().sessions_auto_aborted == 1
    });
    assert_eq!(server.db().txn_state(TxnId(t1)), Some(TxnState::Aborted));

    // The waiter is released by the abort and sees the rolled-back
    // stack: an empty pop, committing cleanly with no dependency left.
    let (popped, pseudo) = waiter.join().expect("waiter thread");
    assert_eq!(popped, Ok(OpResult::Null));
    assert!(!pseudo, "nothing left to depend on after the abort");

    // The countdown proves the virtual clock was consulted the pinned
    // number of times before firing.
    assert!(
        clock.consulted.load(Ordering::Relaxed) > fire_at,
        "clock hook must be consulted past its fire step"
    );
    wait_until("the timed-out connection to tear down", || {
        server.net_stats().connections_open == 0
    });

    server.db().verify_serializable().unwrap();
    drop(holder);
    let stats = server.shutdown();
    assert_eq!(stats.read_timeouts, 1);
    assert_eq!(stats.sessions_auto_aborted, 1);
    assert_eq!(stats.transactions_in_flight, 0, "no stranded sessions");
    assert_eq!(stats.connections_open, 0);
}
