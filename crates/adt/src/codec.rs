//! The byte codec for [`Value`], [`OpCall`] and [`OpResult`], shared by the
//! wire protocol (`sbcc-net`) and the write-ahead log (`sbcc-wal`) so the
//! two formats cannot drift apart.
//!
//! Integers are little-endian. Strings are `u32` length + UTF-8 bytes. A
//! [`Value`] is a tag byte (0 null / 1 bool / 2 int / 3 str) + payload; an
//! [`OpCall`] is `u32` op kind + `u32` param count + params; an
//! [`OpResult`] is a tag byte (0 ok / 1 success / 2 failure / 3 value /
//! 4 null), the value variant followed by its [`Value`].
//!
//! The writers append to a `Vec<u8>`; [`Reader`] is the bounds-checked
//! cursor that decodes the same layout from untrusted bytes.

use crate::{OpCall, OpResult, Value};
use std::fmt;

/// Why a decode stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the field being decoded.
    Truncated,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Unknown tag byte; the `&str` names which table was being consulted.
    UnknownTag(&'static str, u8),
    /// Bytes left over after a complete decode.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "body shorter than its encoding"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::UnknownTag(what, tag) => write!(f, "unknown {what} tag 0x{tag:02x}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append a [`Value`].
#[inline]
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
    }
}

/// Append an [`OpCall`].
#[inline]
pub fn put_call(out: &mut Vec<u8>, call: &OpCall) {
    put_u32(out, call.kind as u32);
    put_u32(out, call.params.len() as u32);
    for p in &call.params {
        put_value(out, p);
    }
}

/// Append an [`OpResult`].
#[inline]
pub fn put_result(out: &mut Vec<u8>, r: &OpResult) {
    match r {
        OpResult::Ok => out.push(0),
        OpResult::Success => out.push(1),
        OpResult::Failure => out.push(2),
        OpResult::Value(v) => {
            out.push(3);
            put_value(out, v);
        }
        OpResult::Null => out.push(4),
    }
}

/// A bounds-checked decoding cursor over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed. Every encoded item takes at least one byte,
    /// so this also bounds how many items an announced count can really
    /// hold — cap pre-allocations by it, never by the count alone.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Decode one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Decode a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Decode a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Decode a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Decode a length-prefixed string.
    #[inline]
    pub fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Decode a [`Value`].
    #[inline]
    pub fn value(&mut self) -> Result<Value, CodecError> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.i64()?),
            3 => Value::Str(self.string()?),
            other => return Err(CodecError::UnknownTag("value", other)),
        })
    }

    /// Decode an [`OpCall`].
    #[inline]
    pub fn call(&mut self) -> Result<OpCall, CodecError> {
        let kind = self.u32()? as usize;
        let count = self.u32()? as usize;
        let mut params = Vec::with_capacity(count.min(self.remaining()));
        for _ in 0..count {
            params.push(self.value()?);
        }
        Ok(OpCall { kind, params })
    }

    /// Decode an [`OpResult`].
    #[inline]
    pub fn result(&mut self) -> Result<OpResult, CodecError> {
        Ok(match self.u8()? {
            0 => OpResult::Ok,
            1 => OpResult::Success,
            2 => OpResult::Failure,
            3 => OpResult::Value(self.value()?),
            4 => OpResult::Null,
            other => return Err(CodecError::UnknownTag("op result", other)),
        })
    }

    /// Require that every byte was consumed.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte layout itself is pinned by the golden vectors beside the
    /// wire and log round-trip tests; this covers what both now share on
    /// the way in: untrusted bytes are refused, never trusted.
    #[test]
    fn hostile_bytes_are_refused() {
        let call = OpCall {
            kind: 2,
            params: vec![
                Value::Int(-7),
                Value::Str("x".to_owned()),
                Value::Bool(true),
                Value::Null,
            ],
        };
        let mut bytes = Vec::new();
        put_call(&mut bytes, &call);
        assert_eq!(Reader::new(&bytes).call(), Ok(call));
        for cut in 0..bytes.len() {
            assert_eq!(
                Reader::new(&bytes[..cut]).call(),
                Err(CodecError::Truncated)
            );
        }
        // A lying parameter count neither allocates nor decodes.
        let mut lying = Vec::new();
        put_u32(&mut lying, 0);
        put_u32(&mut lying, u32::MAX);
        assert_eq!(Reader::new(&lying).call(), Err(CodecError::Truncated));
        // A length that would overflow the cursor is a truncation too.
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.take(usize::MAX), Err(CodecError::Truncated));
        assert_eq!(
            Reader::new(&[9]).value(),
            Err(CodecError::UnknownTag("value", 9))
        );
        assert_eq!(
            Reader::new(&[7]).result(),
            Err(CodecError::UnknownTag("op result", 7))
        );
        assert_eq!(
            Reader::new(&[2, 0, 0, 0, 0xff, 0xfe]).string(),
            Err(CodecError::BadUtf8)
        );
        assert_eq!(Reader::new(&[0]).finish(), Err(CodecError::TrailingBytes));
    }
}
