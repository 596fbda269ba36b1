//! The on-disk record codec: length-prefixed, checksummed frames holding
//! **semantic** log records — the operation calls a committed transaction
//! executed, never materialized object state.
//!
//! ## Frame layout
//!
//! ```text
//! [ body_len: u32 LE ][ body ][ fnv1a64(body): u64 LE ]
//! ```
//!
//! ## Body layout
//!
//! ```text
//! seq: u64 LE          — sequence number (the record's place in the log)
//! tag: u8              — 1 Register, 2 Commit
//! Register:  name: str, type_name: str
//! Commit:    n_ops: u32,
//!            n_ops × { object: str, call: OpCall, result: OpResult }
//! ```
//!
//! Strings, calls and results use the layout of [`sbcc_adt::codec`],
//! which the wire protocol shares. A record that cannot be fully
//! decoded (short frame, bad checksum, malformed body) ends the parse:
//! [`parse_log`] returns every record before it plus the byte offset of
//! the valid prefix, which recovery truncates the file to — the torn-tail
//! contract.

use sbcc_adt::codec::{put_call, put_result, put_str, put_u32, put_u64, CodecError, Reader};
use sbcc_adt::{OpCall, OpResult};

/// Upper bound on one record body; anything larger is treated as
/// corruption (a torn length prefix would otherwise ask for gigabytes).
pub const MAX_RECORD_LEN: usize = 1 << 24;

const TAG_REGISTER: u8 = 1;
const TAG_COMMIT: u8 = 2;

/// One logged operation of a committed transaction: the object's
/// registration name plus the executed call and its observed result (the
/// result pins replay equivalence — recovery re-executes the call and
/// verifies it computes the same answer).
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedOp {
    /// Registration name of the object the operation ran against.
    pub object: String,
    /// The executed operation.
    pub call: OpCall,
    /// The result the original execution observed.
    pub result: OpResult,
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An object registration: recovery re-instantiates the type through
    /// the [`sbcc_adt::AdtType`] catalogue and re-registers it under `name`.
    Register {
        /// Registration name.
        name: String,
        /// The ADT's [`sbcc_adt::SemanticObject::type_name`].
        type_name: String,
    },
    /// A committed transaction's operations, in every shard it touched:
    /// one record per transaction, so recovery replays it whole or, when
    /// a crash tore the record, not at all.
    Commit {
        /// Ignored when encoding and always `None` when decoding. Kept only
        /// while the benchmark crate (`bench/`) still names it.
        multi_gid: Option<u64>,
        /// The transaction's operations, shard by shard, each shard's in
        /// execution order.
        ops: Vec<LoggedOp>,
    },
}

/// A record plus its global sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct SequencedRecord {
    /// Sequence number (strictly increasing along the file).
    pub seq: u64,
    /// The decoded record.
    pub record: WalRecord,
}

/// The result of parsing one log file.
#[derive(Debug)]
pub struct ParsedLog {
    /// Every record of the valid prefix, in file order.
    pub records: Vec<SequencedRecord>,
    /// Byte length of the valid prefix (recovery truncates the file here).
    pub valid_len: usize,
    /// Why the parse stopped early, when it did (torn tail / corruption).
    pub torn: Option<String>,
}

// ---------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------

/// FNV-1a over the record body — cheap, allocation-free, and plenty for
/// detecting torn tails (this is not a cryptographic integrity claim).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

/// Encode one record into its framed wire form.
pub fn encode_record(seq: u64, record: &WalRecord) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    put_u64(&mut body, seq);
    match record {
        WalRecord::Register { name, type_name } => {
            body.push(TAG_REGISTER);
            put_str(&mut body, name);
            put_str(&mut body, type_name);
        }
        WalRecord::Commit { ops, .. } => {
            body.push(TAG_COMMIT);
            put_u32(&mut body, ops.len() as u32);
            for op in ops {
                put_str(&mut body, &op.object);
                put_call(&mut body, &op.call);
                put_result(&mut body, &op.result);
            }
        }
    }
    let mut frame = Vec::with_capacity(body.len() + 12);
    put_u32(&mut frame, body.len() as u32);
    let checksum = fnv1a64(&body);
    frame.extend_from_slice(&body);
    put_u64(&mut frame, checksum);
    frame
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

fn decode_body(body: &[u8]) -> Result<SequencedRecord, CodecError> {
    let mut r = Reader::new(body);
    let seq = r.u64()?;
    let record = match r.u8()? {
        TAG_REGISTER => WalRecord::Register {
            name: r.string()?,
            type_name: r.string()?,
        },
        TAG_COMMIT => {
            let n = r.u32()? as usize;
            let mut ops = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                ops.push(LoggedOp {
                    object: r.string()?,
                    call: r.call()?,
                    result: r.result()?,
                });
            }
            WalRecord::Commit {
                multi_gid: None,
                ops,
            }
        }
        tag => return Err(CodecError::UnknownTag("record", tag)),
    };
    r.finish()?;
    Ok(SequencedRecord { seq, record })
}

/// Parse a whole log file, stopping at the first record that cannot be
/// decoded in full. The stop offset is the valid prefix recovery keeps.
pub fn parse_log(bytes: &[u8]) -> ParsedLog {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let torn = loop {
        if bytes.len() - pos < 4 {
            break if pos == bytes.len() {
                None
            } else {
                Some("dangling length prefix".to_owned())
            };
        }
        let body_len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if body_len > MAX_RECORD_LEN {
            break Some(format!("record length {body_len} exceeds the cap"));
        }
        let frame_len = 4 + body_len + 8;
        if bytes.len() - pos < frame_len {
            break Some("record torn mid-frame".to_owned());
        }
        let body = &bytes[pos + 4..pos + 4 + body_len];
        let stored = u64::from_le_bytes(
            bytes[pos + 4 + body_len..pos + frame_len].try_into().unwrap(),
        );
        if fnv1a64(body) != stored {
            break Some("checksum mismatch".to_owned());
        }
        match decode_body(body) {
            Ok(rec) => records.push(rec),
            Err(e) => break Some(e.to_string()),
        }
        pos += frame_len;
    };
    ParsedLog {
        records,
        valid_len: pos,
        torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbcc_adt::Value;

    fn commit(ops: Vec<LoggedOp>) -> WalRecord {
        WalRecord::Commit {
            multi_gid: None,
            ops,
        }
    }

    fn sample_records() -> Vec<SequencedRecord> {
        vec![
            SequencedRecord {
                seq: 1,
                record: WalRecord::Register {
                    name: "journal".to_owned(),
                    type_name: "stack".to_owned(),
                },
            },
            SequencedRecord {
                seq: 2,
                record: commit(vec![LoggedOp {
                    object: "journal".to_owned(),
                    call: OpCall {
                        kind: 0,
                        params: vec![
                            Value::Int(-7),
                            Value::Str("x".to_owned()),
                            Value::Bool(true),
                            Value::Null,
                        ],
                    },
                    result: OpResult::Value(Value::Int(3)),
                }]),
            },
            SequencedRecord {
                seq: 3,
                record: commit(vec![
                    LoggedOp {
                        object: "a".to_owned(),
                        call: OpCall { kind: 2, params: vec![] },
                        result: OpResult::Null,
                    },
                    LoggedOp {
                        object: "b".to_owned(),
                        call: OpCall { kind: 1, params: vec![Value::Bool(false)] },
                        result: OpResult::Failure,
                    },
                ]),
            },
        ]
    }

    fn encode_all(records: &[SequencedRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            out.extend_from_slice(&encode_record(r.seq, &r.record));
        }
        out
    }

    #[test]
    fn roundtrip_every_variant() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let parsed = parse_log(&bytes);
        assert_eq!(parsed.records, records);
        assert_eq!(parsed.valid_len, bytes.len());
        assert!(parsed.torn.is_none());
    }

    /// The on-disk format is whatever these bytes say.
    #[test]
    fn golden_commit_record_pins_the_disk_format() {
        // The one-op commit of `sample_records`, at the same seq.
        let record = sample_records().swap_remove(1).record;
        let golden: [u8; 72] = [
            0x3c, 0, 0, 0, // body length
            2, 0, 0, 0, 0, 0, 0, 0, // seq
            2, // Commit
            1, 0, 0, 0, // one op
            7, 0, 0, 0, b'j', b'o', b'u', b'r', b'n', b'a', b'l', // object
            0, 0, 0, 0, // op kind
            4, 0, 0, 0, // four parameters
            2, 0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // Int(-7)
            3, 1, 0, 0, 0, b'x', // Str("x")
            1, 1, // Bool(true)
            0, // Null
            3, 2, 3, 0, 0, 0, 0, 0, 0, 0, // result Value(Int(3))
            0x48, 0xec, 0xb9, 0x2c, 0x79, 0xda, 0xb4, 0xf1, // fnv1a64(body)
        ];
        assert_eq!(encode_record(2, &record), golden);
        let parsed = parse_log(&golden);
        assert_eq!(parsed.records, vec![SequencedRecord { seq: 2, record }]);
        assert!(parsed.torn.is_none());
    }

    #[test]
    fn truncation_at_every_offset_yields_a_record_prefix() {
        let records = sample_records();
        let bytes = encode_all(&records);
        // Frame boundaries, for checking valid_len lands on one.
        let mut boundaries = vec![0usize];
        for r in &records {
            let len = encode_record(r.seq, &r.record).len();
            boundaries.push(boundaries.last().unwrap() + len);
        }
        for cut in 0..bytes.len() {
            let parsed = parse_log(&bytes[..cut]);
            // The valid prefix is exactly the whole frames before the cut.
            let whole = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(parsed.records.len(), whole, "cut at {cut}");
            assert_eq!(parsed.records[..], records[..whole], "cut at {cut}");
            assert_eq!(parsed.valid_len, boundaries[whole], "cut at {cut}");
            if cut != boundaries[whole] {
                assert!(parsed.torn.is_some(), "cut at {cut} must report a tear");
            }
        }
    }

    #[test]
    fn checksum_flip_ends_the_parse() {
        let records = sample_records();
        let mut bytes = encode_all(&records);
        // Flip one byte inside the second record's body.
        let first_len = encode_record(records[0].seq, &records[0].record).len();
        bytes[first_len + 6] ^= 0xff;
        let parsed = parse_log(&bytes);
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.valid_len, first_len);
        assert!(parsed.torn.unwrap().contains("checksum"));
    }

    #[test]
    fn oversized_length_prefix_is_corruption_not_an_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        let parsed = parse_log(&bytes);
        assert!(parsed.records.is_empty());
        assert_eq!(parsed.valid_len, 0);
        assert!(parsed.torn.unwrap().contains("cap"));
    }
}
