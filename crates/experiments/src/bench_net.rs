//! Closed-loop network benchmark: real clients over real loopback
//! sockets against a [`sbcc_net::Server`] (in-process or remote).
//!
//! Each connection runs the classic closed loop — begin, a fixed burst
//! of commuting increments on its own counter, commit, repeat — so the
//! measured number is the wire front-end's end-to-end transaction
//! round-trip cost (framing, reader thread hand-off, router dispatch,
//! session task, write-back) rather than kernel contention. `Busy`
//! sheds are retried with a short backoff and counted, never silently
//! swallowed.
//!
//! One entry point, [`closed_loop_timed`]: a wall-clock budget, used by
//! `repro --bench-net` for multi-process runs against `repro --serve`
//! (CI's network smoke). Performance numbers come from `bench/`, not
//! from here.

use sbcc_adt::{AdtOp, CounterOp};
use sbcc_net::{AdtType, NetClient};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one closed-loop run did.
#[derive(Debug, Clone)]
pub struct NetBenchReport {
    /// Client connections driven in parallel.
    pub conns: usize,
    /// Transactions committed across all connections.
    pub txns_committed: u64,
    /// Operations executed across all connections (excluding commits).
    pub ops_executed: u64,
    /// `Busy` sheds absorbed (each retried after a short backoff).
    pub busy_sheds: u64,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
}

impl NetBenchReport {
    /// Committed transactions per second.
    pub fn txns_per_sec(&self) -> f64 {
        self.txns_committed as f64 / self.elapsed_secs.max(f64::EPSILON)
    }

    /// Executed operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops_executed as f64 / self.elapsed_secs.max(f64::EPSILON)
    }

    /// One human-readable summary line.
    pub fn render_text(&self) -> String {
        format!(
            "{} conn(s): {} txns ({:.1} txn/s), {} ops ({:.1} op/s), {} busy shed(s), {:.2}s",
            self.conns,
            self.txns_committed,
            self.txns_per_sec(),
            self.ops_executed,
            self.ops_per_sec(),
            self.busy_sheds,
            self.elapsed_secs
        )
    }
}

/// Per-connection loop: commit transactions until `keep_going` says
/// stop (checked between transactions).
fn connection_loop(
    addr: SocketAddr,
    conn_index: usize,
    ops_per_txn: u64,
    keep_going: Arc<AtomicBool>,
) -> (u64, u64, u64) {
    let mut client = NetClient::connect(addr, "bench").expect("connect bench client");
    let counter = format!("c{conn_index}");
    client
        .register(&counter, AdtType::Counter)
        .expect("register bench counter");
    let call = CounterOp::Increment(1).to_call();
    let (mut txns, mut ops, mut busy) = (0u64, 0u64, 0u64);
    while keep_going.load(Ordering::Relaxed) {
        let txn = loop {
            match client.begin() {
                Ok(t) => break t,
                Err(e) if e.is_busy() => {
                    busy += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => panic!("bench begin failed: {e}"),
            }
        };
        for _ in 0..ops_per_txn {
            client
                .exec(txn, &counter, call.clone())
                .expect("bench increment");
            ops += 1;
        }
        client.commit(txn).expect("bench commit");
        txns += 1;
    }
    (txns, ops, busy)
}

/// Closed loop with a wall-clock budget — each connection commits as
/// many transactions as it can before the budget expires.
pub fn closed_loop_timed(
    addr: SocketAddr,
    conns: usize,
    ops_per_txn: u64,
    budget: Duration,
) -> NetBenchReport {
    let keep_going = Arc::new(AtomicBool::new(true));
    let start = Instant::now();
    let threads: Vec<_> = (0..conns.max(1))
        .map(|i| {
            let keep_going = keep_going.clone();
            std::thread::spawn(move || connection_loop(addr, i, ops_per_txn, keep_going))
        })
        .collect();
    std::thread::sleep(budget);
    keep_going.store(false, Ordering::Relaxed);
    let (mut txns, mut ops, mut busy) = (0u64, 0u64, 0u64);
    for t in threads {
        let (t_txns, t_ops, t_busy) = t.join().expect("bench connection thread");
        txns += t_txns;
        ops += t_ops;
        busy += t_busy;
    }
    NetBenchReport {
        conns: conns.max(1),
        txns_committed: txns,
        ops_executed: ops,
        busy_sheds: busy,
        elapsed_secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbcc_core::aio::AsyncDatabase;
    use sbcc_core::SchedulerConfig;
    use sbcc_net::{Server, ServerConfig};

    #[test]
    fn timed_loop_stops_and_reports() {
        let server = Server::start(
            AsyncDatabase::new(SchedulerConfig::default()),
            ServerConfig::default().with_workers(1),
        )
        .expect("bind");
        let report = closed_loop_timed(server.local_addr(), 2, 2, Duration::from_millis(50));
        assert!(report.txns_committed > 0, "made progress within the budget");
        assert_eq!(report.ops_executed, report.txns_committed * 2);
        assert!(report.render_text().contains("2 conn(s)"));
        let stats = server.shutdown();
        assert_eq!(stats.transactions_in_flight, 0);
    }
}
