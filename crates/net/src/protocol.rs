//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! A frame is `u32` little-endian body length followed by the body; a
//! body is `u64` little-endian **request id**, one opcode byte, then the
//! opcode's payload. Request ids are chosen by the client and echoed on
//! the matching response, so a client may pipeline any number of requests
//! and match responses out of order (operations that block in the kernel
//! respond late; a [`Request::Ping`] fence responds immediately).
//!
//! | Opcode | Request | Payload |
//! |---|---|---|
//! | `0x01` | [`Request::Hello`] | protocol version `u32`, tenant string |
//! | `0x02` | [`Request::Register`] | object name string, [`AdtType`] byte |
//! | `0x03` | [`Request::Begin`] | — |
//! | `0x04` | [`Request::Exec`] | txn `u64`, object name string, [`OpCall`] |
//! | `0x05` | [`Request::ExecBatch`] | txn `u64`, `u32` count × (name, call) |
//! | `0x06` | [`Request::Commit`] | txn `u64` |
//! | `0x07` | [`Request::Abort`] | txn `u64` |
//! | `0x08` | [`Request::Ping`] | — |
//! | `0x09` | [`Request::BeginSnapshot`] | — |
//!
//! `0x0A` (declared-footprint batch, retired) is unassigned and answered
//! like any unknown opcode.
//!
//! | Opcode | Response | Payload |
//! |---|---|---|
//! | `0x81` | [`Response::HelloAck`] | protocol version `u32` |
//! | `0x82` | [`Response::Registered`] | — |
//! | `0x83` | [`Response::Begun`] | txn `u64` |
//! | `0x84` | [`Response::Result`] | [`OpResult`] |
//! | `0x85` | [`Response::Results`] | `u32` count × [`OpResult`] |
//! | `0x86` | [`Response::Committed`] | pseudo-commit flag byte |
//! | `0x87` | [`Response::Aborted`] | — |
//! | `0x88` | [`Response::Pong`] | — |
//! | `0xEE` | [`Response::Error`] | [`ErrorCode`] byte, detail string |
//!
//! Strings, values, [`OpCall`]s and [`OpResult`]s use the layout of
//! [`sbcc_adt::codec`], which the write-ahead log shares: strings are
//! `u32` length + UTF-8 bytes, a value is a tag byte (null / bool / int /
//! str) + payload, a call is `u32` op kind + `u32` param count + params,
//! a result mirrors its five variants.
//!
//! Everything here is pure encoding — no sockets. [`FrameBuffer`] is the
//! incremental reassembler both the server's reader threads and the
//! client use: feed it arbitrary byte chunks, take out whole frame
//! bodies.

use sbcc_adt::codec::{put_call, put_result, put_str, put_u32, put_u64, CodecError, Reader};
pub use sbcc_adt::AdtType;
use sbcc_adt::{OpCall, OpResult};
use std::fmt;

/// Protocol version spoken by this crate; [`Request::Hello`] carries the
/// client's version and the server refuses a mismatch.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default cap on a frame *body* length. A peer announcing a longer
/// frame is refused with [`ProtoError::Oversized`] before any payload is
/// buffered, so a hostile length prefix cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Decoding failure. The server answers with an
/// [`ErrorCode::Protocol`] error frame and closes the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Body ended before the payload its opcode requires.
    Truncated,
    /// Announced frame length exceeds the configured cap.
    Oversized {
        /// Announced body length.
        len: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// Unknown tag byte inside a payload (value, result, ADT type, or
    /// error code); the `&str` names which table was being consulted.
    UnknownTag(&'static str, u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Payload bytes left over after a complete decode.
    TrailingBytes,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame body"),
            ProtoError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes (cap {max})")
            }
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::UnknownTag(what, tag) => write!(f, "unknown {what} tag 0x{tag:02x}"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => ProtoError::Truncated,
            CodecError::BadUtf8 => ProtoError::BadUtf8,
            CodecError::UnknownTag(what, tag) => ProtoError::UnknownTag(what, tag),
            CodecError::TrailingBytes => ProtoError::TrailingBytes,
        }
    }
}

/// The wire tag of the [`AdtType`] a [`Request::Register`] instantiates
/// server-side. Tags are part of the wire protocol.
fn adt_tag(adt: AdtType) -> u8 {
    match adt {
        AdtType::Counter => 1,
        AdtType::Page => 2,
        AdtType::FifoQueue => 3,
        AdtType::Set => 4,
        AdtType::Stack => 5,
        AdtType::Table => 6,
    }
}

fn adt_from_tag(tag: u8) -> Result<AdtType, ProtoError> {
    Ok(match tag {
        1 => AdtType::Counter,
        2 => AdtType::Page,
        3 => AdtType::FifoQueue,
        4 => AdtType::Set,
        5 => AdtType::Stack,
        6 => AdtType::Table,
        other => return Err(ProtoError::UnknownTag("adt type", other)),
    })
}

/// Error category carried by a [`Response::Error`] frame. Codes `1..=5`
/// and `7..=8` mirror [`sbcc_core::CoreError`] variants one-to-one (the
/// detail string is the kernel error's `Display`); code `6` is retired
/// and decodes as an unknown tag; codes `32+` are the server's own
/// refusals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Wire transaction id not live on this connection.
    UnknownTransaction,
    /// Object name not registered under the connection's tenant.
    UnknownObject,
    /// Operation invalid in the transaction's current state.
    InvalidState,
    /// The transaction aborted (scheduler refusal or cascade).
    Aborted,
    /// Registration race against a name the server does not manage.
    DuplicateObject,
    /// The server-side retry budget was exhausted.
    RetriesExhausted,
    /// A durability (write-ahead log) refusal — e.g. registering an
    /// object outside the recovery catalogue on a WAL-backed server.
    Durability,
    /// Admission control shed the request (per-connection in-flight
    /// transaction cap reached). Back off and retry.
    Busy,
    /// Malformed frame, version mismatch, or a request out of protocol
    /// order; the server closes the connection after sending this.
    Protocol,
    /// A request other than [`Request::Hello`] arrived before the
    /// connection announced its tenant.
    TenantRequired,
    /// The server is shutting down.
    Shutdown,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::UnknownTransaction => 1,
            ErrorCode::UnknownObject => 2,
            ErrorCode::InvalidState => 3,
            ErrorCode::Aborted => 4,
            ErrorCode::DuplicateObject => 5,
            ErrorCode::RetriesExhausted => 7,
            ErrorCode::Durability => 8,
            ErrorCode::Busy => 32,
            ErrorCode::Protocol => 33,
            ErrorCode::TenantRequired => 34,
            ErrorCode::Shutdown => 35,
        }
    }

    fn from_u8(tag: u8) -> Result<Self, ProtoError> {
        Ok(match tag {
            1 => ErrorCode::UnknownTransaction,
            2 => ErrorCode::UnknownObject,
            3 => ErrorCode::InvalidState,
            4 => ErrorCode::Aborted,
            5 => ErrorCode::DuplicateObject,
            7 => ErrorCode::RetriesExhausted,
            8 => ErrorCode::Durability,
            32 => ErrorCode::Busy,
            33 => ErrorCode::Protocol,
            34 => ErrorCode::TenantRequired,
            35 => ErrorCode::Shutdown,
            other => return Err(ProtoError::UnknownTag("error code", other)),
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::UnknownTransaction => "unknown-transaction",
            ErrorCode::UnknownObject => "unknown-object",
            ErrorCode::InvalidState => "invalid-state",
            ErrorCode::Aborted => "aborted",
            ErrorCode::DuplicateObject => "duplicate-object",
            ErrorCode::RetriesExhausted => "retries-exhausted",
            ErrorCode::Durability => "durability",
            ErrorCode::Busy => "busy",
            ErrorCode::Protocol => "protocol",
            ErrorCode::TenantRequired => "tenant-required",
            ErrorCode::Shutdown => "shutdown",
        };
        f.write_str(name)
    }
}

/// A client-to-server message (see the module docs for the wire layout).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Mandatory first request: protocol version + tenant namespace.
    /// Every object name on this connection is qualified as
    /// `tenant/name`.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        version: u32,
        /// Tenant namespace for all object names on this connection.
        tenant: String,
    },
    /// Ensure `name` exists under the tenant as an `adt` instance
    /// (idempotent: re-registering an existing name succeeds).
    Register {
        /// Unqualified object name.
        name: String,
        /// ADT to instantiate on first registration.
        adt: AdtType,
    },
    /// Begin a transaction; answered with its wire id.
    Begin,
    /// Execute one operation inside transaction `txn`.
    Exec {
        /// Wire transaction id from [`Response::Begun`].
        txn: u64,
        /// Unqualified object name.
        object: String,
        /// The operation.
        call: OpCall,
    },
    /// Execute a sequence of operations inside `txn`; answered with all
    /// results at once, or the first failure.
    ExecBatch {
        /// Wire transaction id.
        txn: u64,
        /// `(object, call)` pairs, executed in order.
        ops: Vec<(String, OpCall)>,
    },
    /// Commit `txn`.
    Commit {
        /// Wire transaction id.
        txn: u64,
    },
    /// Abort `txn`.
    Abort {
        /// Wire transaction id.
        txn: u64,
    },
    /// Fence: answered immediately and in order by the connection's
    /// router, regardless of operations still blocked in the kernel.
    Ping,
    /// Begin a snapshot transaction: reads observe the committed state
    /// as of the begin stamp without blocking, guarded by SSI
    /// rw-antidependency tracking. Answered with [`Response::Begun`].
    BeginSnapshot,
}

/// A server-to-client message (see the module docs for the wire layout).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Hello accepted; carries the server's protocol version.
    HelloAck {
        /// Server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// The object exists (created now or previously).
    Registered,
    /// Transaction began.
    Begun {
        /// Wire id to use in subsequent [`Request::Exec`] / fate calls.
        txn: u64,
    },
    /// One operation's result.
    Result(OpResult),
    /// All of a batch's results.
    Results(Vec<OpResult>),
    /// Commit succeeded.
    Committed {
        /// `true` if the transaction pseudo-committed (complete and
        /// guaranteed to commit, waiting on its commit dependencies).
        pseudo: bool,
    },
    /// Abort succeeded.
    Aborted,
    /// [`Request::Ping`] echo.
    Pong,
    /// The request failed; mirrors scheduler errors by code + detail.
    Error {
        /// Error category.
        code: ErrorCode,
        /// Human-readable detail (kernel errors: their `Display`).
        detail: String,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Wrap an encoded body (request id + opcode + payload already in
/// `body`) into a full frame with its length prefix.
fn finish_frame(body: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + body.len());
    put_u32(&mut frame, body.len() as u32);
    frame.extend_from_slice(&body);
    frame
}

impl Request {
    /// Encode as one full frame (length prefix included) carrying
    /// request id `id`.
    pub fn encode(&self, id: u64) -> Vec<u8> {
        let mut b = Vec::new();
        put_u64(&mut b, id);
        match self {
            Request::Hello { version, tenant } => {
                b.push(0x01);
                put_u32(&mut b, *version);
                put_str(&mut b, tenant);
            }
            Request::Register { name, adt } => {
                b.push(0x02);
                put_str(&mut b, name);
                b.push(adt_tag(*adt));
            }
            Request::Begin => b.push(0x03),
            Request::Exec { txn, object, call } => {
                b.push(0x04);
                put_u64(&mut b, *txn);
                put_str(&mut b, object);
                put_call(&mut b, call);
            }
            Request::ExecBatch { txn, ops } => {
                b.push(0x05);
                put_u64(&mut b, *txn);
                put_u32(&mut b, ops.len() as u32);
                for (object, call) in ops {
                    put_str(&mut b, object);
                    put_call(&mut b, call);
                }
            }
            Request::Commit { txn } => {
                b.push(0x06);
                put_u64(&mut b, *txn);
            }
            Request::Abort { txn } => {
                b.push(0x07);
                put_u64(&mut b, *txn);
            }
            Request::Ping => b.push(0x08),
            Request::BeginSnapshot => b.push(0x09),
        }
        finish_frame(b)
    }
}

impl Response {
    /// Encode as one full frame (length prefix included) echoing request
    /// id `id`.
    pub fn encode(&self, id: u64) -> Vec<u8> {
        let mut b = Vec::new();
        put_u64(&mut b, id);
        match self {
            Response::HelloAck { version } => {
                b.push(0x81);
                put_u32(&mut b, *version);
            }
            Response::Registered => b.push(0x82),
            Response::Begun { txn } => {
                b.push(0x83);
                put_u64(&mut b, *txn);
            }
            Response::Result(r) => {
                b.push(0x84);
                put_result(&mut b, r);
            }
            Response::Results(rs) => {
                b.push(0x85);
                put_u32(&mut b, rs.len() as u32);
                for r in rs {
                    put_result(&mut b, r);
                }
            }
            Response::Committed { pseudo } => {
                b.push(0x86);
                b.push(u8::from(*pseudo));
            }
            Response::Aborted => b.push(0x87),
            Response::Pong => b.push(0x88),
            Response::Error { code, detail } => {
                b.push(0xEE);
                b.push(code.to_u8());
                put_str(&mut b, detail);
            }
        }
        finish_frame(b)
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

impl Request {
    /// Decode a frame body (length prefix already stripped) into the
    /// request id and request.
    pub fn decode(body: &[u8]) -> Result<(u64, Request), ProtoError> {
        let mut r = Reader::new(body);
        let id = r.u64()?;
        let req = match r.u8()? {
            0x01 => Request::Hello {
                version: r.u32()?,
                tenant: r.string()?,
            },
            0x02 => Request::Register {
                name: r.string()?,
                adt: adt_from_tag(r.u8()?)?,
            },
            0x03 => Request::Begin,
            0x04 => Request::Exec {
                txn: r.u64()?,
                object: r.string()?,
                call: r.call()?,
            },
            0x05 => {
                let txn = r.u64()?;
                let count = r.u32()? as usize;
                let mut ops = Vec::with_capacity(count.min(r.remaining()));
                for _ in 0..count {
                    ops.push((r.string()?, r.call()?));
                }
                Request::ExecBatch { txn, ops }
            }
            0x06 => Request::Commit { txn: r.u64()? },
            0x07 => Request::Abort { txn: r.u64()? },
            0x08 => Request::Ping,
            0x09 => Request::BeginSnapshot,
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok((id, req))
    }
}

impl Response {
    /// Decode a frame body (length prefix already stripped) into the
    /// echoed request id and response.
    pub fn decode(body: &[u8]) -> Result<(u64, Response), ProtoError> {
        let mut r = Reader::new(body);
        let id = r.u64()?;
        let resp = match r.u8()? {
            0x81 => Response::HelloAck { version: r.u32()? },
            0x82 => Response::Registered,
            0x83 => Response::Begun { txn: r.u64()? },
            0x84 => Response::Result(r.result()?),
            0x85 => {
                let count = r.u32()? as usize;
                let mut rs = Vec::with_capacity(count.min(body.len()));
                for _ in 0..count {
                    rs.push(r.result()?);
                }
                Response::Results(rs)
            }
            0x86 => Response::Committed {
                pseudo: r.u8()? != 0,
            },
            0x87 => Response::Aborted,
            0x88 => Response::Pong,
            0xEE => Response::Error {
                code: ErrorCode::from_u8(r.u8()?)?,
                detail: r.string()?,
            },
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok((id, resp))
    }
}

// ---------------------------------------------------------------------
// Frame reassembly
// ---------------------------------------------------------------------

/// Incremental frame reassembler: feed it byte chunks as they arrive
/// ([`FrameBuffer::extend`]), take out complete frame *bodies*
/// ([`FrameBuffer::next_frame`]). Handles frames split across reads and
/// multiple frames per read; refuses oversized length prefixes before
/// buffering their payload.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes already consumed from the front of `buf`; compacted lazily
    /// so a burst of small frames does not memmove per frame.
    consumed: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.consumed > 0 && self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Take the next complete frame body, if one has fully arrived.
    ///
    /// `Ok(None)` means "need more bytes". [`ProtoError::Oversized`] is
    /// fatal for the stream: framing cannot resynchronise past a refused
    /// length prefix.
    pub fn next_frame(&mut self, max_len: usize) -> Result<Option<Vec<u8>>, ProtoError> {
        let pending = &self.buf[self.consumed..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().unwrap()) as usize;
        if len > max_len {
            return Err(ProtoError::Oversized { len, max: max_len });
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let body = pending[4..4 + len].to_vec();
        self.consumed += 4 + len;
        // Compact once the dead prefix dominates the buffer.
        if self.consumed > 4096 && self.consumed * 2 > self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        Ok(Some(body))
    }

    /// Bytes buffered but not yet consumed (diagnostics).
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbcc_adt::{AdtOp, CounterOp, StackOp, Value};

    fn roundtrip_request(req: Request) {
        let frame = req.encode(77);
        let (len, body) = frame.split_at(4);
        assert_eq!(
            u32::from_le_bytes(len.try_into().unwrap()) as usize,
            body.len()
        );
        let (id, decoded) = Request::decode(body).unwrap();
        assert_eq!(id, 77);
        assert_eq!(decoded, req);
    }

    fn roundtrip_response(resp: Response) {
        let frame = resp.encode(u64::MAX);
        let (id, decoded) = Response::decode(&frame[4..]).unwrap();
        assert_eq!(id, u64::MAX);
        assert_eq!(decoded, resp);
    }

    #[test]
    fn every_request_roundtrips() {
        roundtrip_request(Request::Hello {
            version: PROTOCOL_VERSION,
            tenant: "acme".into(),
        });
        roundtrip_request(Request::Register {
            name: "jobs".into(),
            adt: AdtType::Stack,
        });
        roundtrip_request(Request::Begin);
        roundtrip_request(Request::Exec {
            txn: 42,
            object: "jobs".into(),
            call: StackOp::Push(Value::Int(-7)).to_call(),
        });
        roundtrip_request(Request::ExecBatch {
            txn: 42,
            ops: vec![
                ("jobs".into(), StackOp::Pop.to_call()),
                ("hits".into(), CounterOp::Increment(3).to_call()),
            ],
        });
        roundtrip_request(Request::Commit { txn: 42 });
        roundtrip_request(Request::Abort { txn: 42 });
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::BeginSnapshot);
    }

    #[test]
    fn every_response_roundtrips() {
        roundtrip_response(Response::HelloAck {
            version: PROTOCOL_VERSION,
        });
        roundtrip_response(Response::Registered);
        roundtrip_response(Response::Begun { txn: 9 });
        for r in [
            OpResult::Ok,
            OpResult::Success,
            OpResult::Failure,
            OpResult::Value(Value::Str("x".into())),
            OpResult::Value(Value::Bool(true)),
            OpResult::Value(Value::Null),
            OpResult::Null,
        ] {
            roundtrip_response(Response::Result(r));
        }
        roundtrip_response(Response::Results(vec![
            OpResult::Ok,
            OpResult::Value(Value::Int(5)),
        ]));
        roundtrip_response(Response::Committed { pseudo: true });
        roundtrip_response(Response::Committed { pseudo: false });
        roundtrip_response(Response::Aborted);
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Error {
            code: ErrorCode::Busy,
            detail: "32 transactions in flight".into(),
        });
    }

    /// Frame bytes captured before the codec moved into `sbcc_adt::codec`:
    /// the wire format is whatever these say, not whatever `encode` does.
    #[test]
    fn golden_frames_pin_the_wire_format() {
        let exec = Request::Exec {
            txn: 42,
            object: "jobs".into(),
            call: StackOp::Push(Value::Int(-7)).to_call(),
        };
        let exec_frame: [u8; 46] = [
            0x2a, 0, 0, 0, // body length
            0x4d, 0, 0, 0, 0, 0, 0, 0,    // request id 77
            0x04, // Exec
            0x2a, 0, 0, 0, 0, 0, 0, 0, // txn 42
            4, 0, 0, 0, b'j', b'o', b'b', b's', // object
            0, 0, 0, 0, // op kind (Push)
            1, 0, 0, 0, // one parameter
            2, 0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // Int(-7)
        ];
        assert_eq!(exec.encode(77), exec_frame);
        assert_eq!(Request::decode(&exec_frame[4..]), Ok((77, exec)));

        let result = Response::Result(OpResult::Value(Value::Str("x".into())));
        let result_frame: [u8; 20] = [
            0x10, 0, 0, 0, // body length
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // request id
            0x84, // Result
            3,    // OpResult::Value
            3, 1, 0, 0, 0, b'x', // Str("x")
        ];
        assert_eq!(result.encode(u64::MAX), result_frame);
        assert_eq!(Response::decode(&result_frame[4..]), Ok((u64::MAX, result)));
    }

    /// The `(type, wire tag, logged type name)` triples as they stood when
    /// the enum lived in this file and the names in `sbcc_wal`: a
    /// `Register` frame's tag byte and a `Register` log record's type name
    /// are data old peers and old logs still hold.
    #[test]
    fn adt_wire_tags_and_log_type_names_are_pinned() {
        let pinned = [
            (AdtType::Counter, 1u8, "counter"),
            (AdtType::Page, 2, "page"),
            (AdtType::FifoQueue, 3, "queue"),
            (AdtType::Set, 4, "set"),
            (AdtType::Stack, 5, "stack"),
            (AdtType::Table, 6, "table"),
        ];
        assert_eq!(pinned.map(|(adt, ..)| adt), AdtType::ALL);
        for (adt, tag, name) in pinned {
            assert_eq!(adt.name(), name);
            assert_eq!(AdtType::from_name(name), Some(adt));
            let register = Request::Register {
                name: "hits".into(),
                adt,
            };
            let frame = [
                0x12, 0, 0, 0, // body length
                1, 0, 0, 0, 0, 0, 0, 0,    // request id
                0x02, // Register
                4, 0, 0, 0, b'h', b'i', b't', b's', // object name
                tag,
            ];
            assert_eq!(register.encode(1), frame);
            assert_eq!(Request::decode(&frame[4..]), Ok((1, register)));
        }
        for tag in [0u8, 7] {
            assert_eq!(
                adt_from_tag(tag),
                Err(ProtoError::UnknownTag("adt type", tag))
            );
        }
    }

    #[test]
    fn truncated_bodies_are_refused_at_every_cut() {
        let frame = Request::Exec {
            txn: 3,
            object: "jobs".into(),
            call: StackOp::Push(Value::Str("payload".into())).to_call(),
        }
        .encode(1);
        let body = &frame[4..];
        for cut in 0..body.len() {
            assert_eq!(
                Request::decode(&body[..cut]),
                Err(ProtoError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_opcode_and_tags_are_refused() {
        // Unknown opcode.
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        body.push(0x7f);
        assert_eq!(Request::decode(&body), Err(ProtoError::UnknownOpcode(0x7f)));
        // Unknown ADT type tag.
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        body.push(0x02);
        put_str(&mut body, "jobs");
        body.push(99);
        assert_eq!(
            Request::decode(&body),
            Err(ProtoError::UnknownTag("adt type", 99))
        );
        // Error codes keep their bytes; the retired code 6 is unknown.
        let pinned = [
            (ErrorCode::UnknownTransaction, 1u8),
            (ErrorCode::UnknownObject, 2),
            (ErrorCode::InvalidState, 3),
            (ErrorCode::Aborted, 4),
            (ErrorCode::DuplicateObject, 5),
            (ErrorCode::RetriesExhausted, 7),
            (ErrorCode::Durability, 8),
            (ErrorCode::Busy, 32),
            (ErrorCode::Protocol, 33),
            (ErrorCode::TenantRequired, 34),
            (ErrorCode::Shutdown, 35),
        ];
        for (code, byte) in pinned {
            assert_eq!(code.to_u8(), byte);
            assert_eq!(ErrorCode::from_u8(byte), Ok(code));
        }
        assert_eq!(
            ErrorCode::from_u8(6),
            Err(ProtoError::UnknownTag("error code", 6))
        );
        // Trailing garbage after a valid request.
        let mut frame = Request::Ping.encode(1);
        frame.push(0xAB);
        let body_len = frame.len() - 4;
        frame[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
        assert_eq!(Request::decode(&frame[4..]), Err(ProtoError::TrailingBytes));
        // Non-UTF-8 string.
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        body.push(0x01);
        put_u32(&mut body, PROTOCOL_VERSION);
        put_u32(&mut body, 2);
        body.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Request::decode(&body), Err(ProtoError::BadUtf8));
    }

    #[test]
    fn frame_buffer_reassembles_split_and_coalesced_frames() {
        let f1 = Request::Begin.encode(1);
        let f2 = Request::Ping.encode(2);
        let mut fb = FrameBuffer::new();
        // Drip-feed the first frame byte by byte.
        for b in &f1 {
            assert_eq!(fb.next_frame(MAX_FRAME_LEN).unwrap(), None);
            fb.extend(&[*b]);
        }
        let body = fb.next_frame(MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(Request::decode(&body).unwrap(), (1, Request::Begin));
        // Two frames in one chunk.
        let mut chunk = f1.clone();
        chunk.extend_from_slice(&f2);
        fb.extend(&chunk);
        let a = fb.next_frame(MAX_FRAME_LEN).unwrap().unwrap();
        let b = fb.next_frame(MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(Request::decode(&a).unwrap().0, 1);
        assert_eq!(Request::decode(&b).unwrap().0, 2);
        assert_eq!(fb.next_frame(MAX_FRAME_LEN).unwrap(), None);
        assert_eq!(fb.pending_len(), 0);
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_buffering() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(u32::MAX).to_le_bytes());
        assert_eq!(
            fb.next_frame(MAX_FRAME_LEN),
            Err(ProtoError::Oversized {
                len: u32::MAX as usize,
                max: MAX_FRAME_LEN
            })
        );
        // Errors render usefully.
        let e = ProtoError::Oversized { len: 10, max: 5 };
        assert!(e.to_string().contains("oversized"));
        assert!(ProtoError::UnknownOpcode(0x99).to_string().contains("0x99"));
    }
}
