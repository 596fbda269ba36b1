//! The client: a thin blocking + pipelined wrapper over one TCP
//! connection.
//!
//! [`NetClient::connect`] performs the hello handshake; the `exec`/
//! `commit`/… conveniences are blocking request-response calls, while
//! [`NetClient::send`] / [`NetClient::recv`] / [`NetClient::recv_for`]
//! expose the raw pipelined layer: fire any number of requests, then
//! collect responses in whatever order the server settles them
//! (out-of-order arrivals are buffered per request id).

use crate::protocol::*;
use sbcc_adt::{OpCall, OpResult};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (includes the server closing mid-call).
    Io(io::Error),
    /// The server sent bytes this protocol version cannot decode.
    Proto(ProtoError),
    /// The server answered with an error frame.
    Server {
        /// Error category.
        code: ErrorCode,
        /// Server-rendered detail (kernel errors: their `Display`).
        detail: String,
    },
    /// The server answered with a well-formed response of the wrong
    /// kind for the request (names the expected kind).
    Unexpected(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Proto(e) => write!(f, "protocol error: {e}"),
            NetError::Server { code, detail } => write!(f, "server error ({code}): {detail}"),
            NetError::Unexpected(expected) => {
                write!(f, "unexpected response (expected {expected})")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> Self {
        NetError::Proto(e)
    }
}

impl NetError {
    /// `true` for [`ErrorCode::Busy`] sheds — the one server error that
    /// asks for backoff-and-retry rather than a different request.
    pub fn is_busy(&self) -> bool {
        matches!(
            self,
            NetError::Server {
                code: ErrorCode::Busy,
                ..
            }
        )
    }
}

/// One connection to a [`crate::Server`], bound to a tenant namespace.
pub struct NetClient {
    stream: TcpStream,
    frames: FrameBuffer,
    next_id: u64,
    /// Responses that arrived while waiting for a different request id.
    pending: HashMap<u64, Response>,
    /// The address dialed at connect time, kept for [`NetClient::reconnect`].
    peer: std::net::SocketAddr,
    /// The tenant named in the hello handshake, replayed on reconnect.
    tenant: String,
}

impl NetClient {
    /// Connect and run the hello handshake under `tenant`'s namespace.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let peer = stream.peer_addr()?;
        let mut client = NetClient {
            stream,
            frames: FrameBuffer::new(),
            next_id: 1,
            pending: HashMap::new(),
            peer,
            tenant: tenant.to_owned(),
        };
        client.hello()?;
        Ok(client)
    }

    fn hello(&mut self) -> Result<(), NetError> {
        let id = self.send(&Request::Hello {
            version: PROTOCOL_VERSION,
            tenant: self.tenant.clone(),
        })?;
        match self.recv_for(id)? {
            Response::HelloAck { .. } => Ok(()),
            Response::Error { code, detail } => Err(NetError::Server { code, detail }),
            _ => Err(NetError::Unexpected("hello-ack")),
        }
    }

    /// Tear down this connection and dial the same server again,
    /// re-running the hello handshake under the same tenant.
    ///
    /// Everything connection-scoped is gone afterwards: transactions the
    /// server had open for the old connection are aborted by its
    /// disconnect sweep, and any responses still in flight are dropped
    /// (request ids restart at 1). The registered namespace survives —
    /// it belongs to the tenant, not the connection — so the usual
    /// pattern after a server restart on a durable database is
    /// `reconnect()` followed by re-`begin`.
    pub fn reconnect(&mut self) -> Result<(), NetError> {
        let stream = TcpStream::connect(self.peer)?;
        let _ = stream.set_nodelay(true);
        self.stream = stream;
        self.frames = FrameBuffer::new();
        self.pending.clear();
        self.next_id = 1;
        self.hello()
    }

    /// Send one request without waiting; returns its request id. The
    /// pipelined half of the API — pair with [`NetClient::recv`] or
    /// [`NetClient::recv_for`].
    pub fn send(&mut self, request: &Request) -> Result<u64, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&request.encode(id))?;
        Ok(id)
    }

    /// Receive the next response in arrival order (buffered responses
    /// first).
    pub fn recv(&mut self) -> Result<(u64, Response), NetError> {
        if let Some(id) = self.pending.keys().next().copied() {
            let resp = self.pending.remove(&id).unwrap();
            return Ok((id, resp));
        }
        self.recv_from_socket()
    }

    /// Receive the response for a specific request id, buffering any
    /// other responses that arrive first.
    pub fn recv_for(&mut self, id: u64) -> Result<Response, NetError> {
        if let Some(resp) = self.pending.remove(&id) {
            return Ok(resp);
        }
        loop {
            let (got, resp) = self.recv_from_socket()?;
            if got == id {
                return Ok(resp);
            }
            self.pending.insert(got, resp);
        }
    }

    fn recv_from_socket(&mut self) -> Result<(u64, Response), NetError> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(body) = self.frames.next_frame(MAX_FRAME_LEN)? {
                return Ok(Response::decode(&body)?);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            self.frames.extend(&chunk[..n]);
        }
    }

    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        let id = self.send(request)?;
        match self.recv_for(id)? {
            Response::Error { code, detail } => Err(NetError::Server { code, detail }),
            other => Ok(other),
        }
    }

    /// Ensure `name` exists under this connection's tenant (idempotent).
    pub fn register(&mut self, name: &str, adt: AdtType) -> Result<(), NetError> {
        match self.call(&Request::Register {
            name: name.to_owned(),
            adt,
        })? {
            Response::Registered => Ok(()),
            _ => Err(NetError::Unexpected("registered")),
        }
    }

    /// Begin a transaction; returns its wire id.
    pub fn begin(&mut self) -> Result<u64, NetError> {
        match self.call(&Request::Begin)? {
            Response::Begun { txn } => Ok(txn),
            _ => Err(NetError::Unexpected("begun")),
        }
    }

    /// Begin a snapshot transaction; returns its wire id. Reads observe
    /// the committed state as of the begin stamp without blocking,
    /// guarded server-side by SSI rw-antidependency tracking.
    pub fn begin_snapshot(&mut self) -> Result<u64, NetError> {
        match self.call(&Request::BeginSnapshot)? {
            Response::Begun { txn } => Ok(txn),
            _ => Err(NetError::Unexpected("begun")),
        }
    }

    /// Execute one operation and wait for its result. Blocks for as
    /// long as the kernel blocks the operation behind a conflict.
    pub fn exec(&mut self, txn: u64, object: &str, call: OpCall) -> Result<OpResult, NetError> {
        match self.call(&Request::Exec {
            txn,
            object: object.to_owned(),
            call,
        })? {
            Response::Result(r) => Ok(r),
            _ => Err(NetError::Unexpected("result")),
        }
    }

    /// Execute a sequence of operations and wait for all results.
    pub fn exec_batch(
        &mut self,
        txn: u64,
        ops: Vec<(String, OpCall)>,
    ) -> Result<Vec<OpResult>, NetError> {
        match self.call(&Request::ExecBatch { txn, ops })? {
            Response::Results(rs) => Ok(rs),
            _ => Err(NetError::Unexpected("results")),
        }
    }

    /// Commit; returns `true` if the transaction pseudo-committed
    /// (complete and guaranteed to commit, waiting on dependencies).
    pub fn commit(&mut self, txn: u64) -> Result<bool, NetError> {
        match self.call(&Request::Commit { txn })? {
            Response::Committed { pseudo } => Ok(pseudo),
            _ => Err(NetError::Unexpected("committed")),
        }
    }

    /// Abort.
    pub fn abort(&mut self, txn: u64) -> Result<(), NetError> {
        match self.call(&Request::Abort { txn })? {
            Response::Aborted => Ok(()),
            _ => Err(NetError::Unexpected("aborted")),
        }
    }

    /// Round-trip fence: the response proves the server's router has
    /// consumed every frame sent before it on this connection.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(NetError::Unexpected("pong")),
        }
    }

    /// The underlying stream (tests use it to cut the connection or
    /// inject raw bytes).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Send raw bytes on the connection (tests: malformed frames).
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }
}
