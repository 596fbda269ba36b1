//! # sbcc-net — wire-protocol TCP front-end for the SBCC kernel
//!
//! This crate turns the in-process [`sbcc_core`] scheduler into a
//! network service:
//!
//! * [`protocol`] — the length-prefixed binary wire format shared by
//!   both sides: request/response frames, error codes, and the
//!   incremental [`FrameBuffer`] reassembler.
//! * [`server`] — a TCP server that multiplexes many client
//!   connections onto `AsyncDatabase` sessions driven by `!Send`
//!   `LocalExecutor` worker threads, with admission control
//!   (bounded in-flight transactions per connection, `Busy` sheds),
//!   read timeouts, and auto-abort of sessions orphaned by
//!   disconnects.
//! * [`client`] — a blocking + pipelined [`NetClient`] used by the
//!   closed-loop benches and the loopback differential tests.
//!
//! Every transaction keeps the full semantics-based concurrency
//! control behaviour of the kernel — commutativity/recoverability
//! classification, blocking on conflicts, commit dependencies and
//! pseudo-commits — across the wire. Object names are namespaced per
//! tenant (`"tenant/name"`), so independent tenants can never collide.
//!
//! ```no_run
//! use sbcc_net::{AdtType, NetClient, Server, ServerConfig};
//! use sbcc_adt::{AdtOp, CounterOp};
//! use sbcc_core::{AsyncDatabase, SchedulerConfig};
//!
//! let server = Server::start(
//!     AsyncDatabase::new(SchedulerConfig::default()),
//!     ServerConfig::default(),
//! )?;
//! let addr = server.local_addr();
//!
//! let mut client = NetClient::connect(addr, "tenant-a")?;
//! client.register("hits", AdtType::Counter)?;
//! let txn = client.begin()?;
//! client.exec(txn, "hits", CounterOp::Increment(1).to_call())?;
//! client.commit(txn)?;
//!
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{NetClient, NetError};
pub use protocol::{
    AdtType, ErrorCode, FrameBuffer, ProtoError, Request, Response, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, MAX_IN_FLIGHT_PER_CONN};
