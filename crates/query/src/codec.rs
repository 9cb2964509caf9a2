//! The snapshot wire codec: bounds-checked little-endian primitives.
//!
//! [`Writer`] appends fixed-width integers, length-prefixed strings and
//! `u32` tables to a buffer, growable or sized up front; [`Reader`] consumes the same layout
//! with every read bounds-checked — a malformed or truncated buffer surfaces
//! as a [`CodecError`], never a panic or an out-of-bounds slice. Count
//! prefixes are validated against the bytes actually remaining
//! ([`Reader::read_count`]) so a corrupted length field cannot trigger an
//! absurd allocation before the decode fails.
//!
//! The checksum sealing a snapshot payload is FNV-1a 64 ([`fnv1a`]) — not
//! cryptographic, but it reliably catches the truncations and bit flips the
//! robustness tests inject, with no dependency.

/// Why a buffer could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// A read ran past the end of the buffer.
    Eof {
        /// Byte offset of the failed read.
        at: usize,
    },
    /// A count prefix promises more items than the remaining bytes can hold.
    Count {
        /// The decoded count.
        count: usize,
        /// Bytes left in the buffer.
        remaining: usize,
    },
    /// A string field is not valid UTF-8.
    Utf8 {
        /// Byte offset of the string payload.
        at: usize,
    },
    /// Decoding finished with unconsumed bytes.
    Trailing {
        /// Number of leftover bytes.
        leftover: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Eof { at } => write!(f, "unexpected end of data at byte {at}"),
            CodecError::Count { count, remaining } => {
                write!(f, "count {count} exceeds the {remaining} remaining bytes")
            }
            CodecError::Utf8 { at } => write!(f, "invalid UTF-8 in string at byte {at}"),
            CodecError::Trailing { leftover } => {
                write!(f, "{leftover} unconsumed bytes after decoding")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends snapshot primitives to a byte buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Creates an empty writer whose buffer holds `bytes` bytes before it
    /// grows: one allocation for an encoding whose size is known.
    pub fn with_capacity(bytes: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` count followed by the raw values, read straight
    /// from `vs` with no intermediate table.
    ///
    /// # Panics
    ///
    /// Panics if `vs` yields more than `u32::MAX` values (snapshot tables
    /// are `u32`-indexed throughout).
    pub fn put_u32s<I>(&mut self, vs: I)
    where
        I: IntoIterator<Item = u32>,
        I::IntoIter: ExactSizeIterator,
    {
        let vs = vs.into_iter();
        self.put_u32(u32::try_from(vs.len()).expect("table too large for snapshot"));
        for v in vs {
            self.put_u32(v);
        }
    }

    /// Appends a `u32` byte-length prefix followed by the UTF-8 bytes.
    ///
    /// # Panics
    ///
    /// Panics if the string is longer than `u32::MAX` bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string too large for snapshot"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a `u32` byte-length prefix followed by the raw bytes
    /// (opaque payloads: an embedded snapshot inside a wire frame).
    ///
    /// # Panics
    ///
    /// Panics if the blob is longer than `u32::MAX` bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(u32::try_from(b.len()).expect("blob too large for snapshot"));
        self.buf.extend_from_slice(b);
    }

    /// The bytes written so far.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Consumes snapshot primitives from a byte slice, bounds-checked.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for reading from the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Eof { at: self.pos });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a count prefix for items of at least `item_bytes` bytes each,
    /// rejecting counts the remaining buffer cannot possibly satisfy (so a
    /// flipped length byte fails fast instead of allocating gigabytes).
    pub fn read_count(&mut self, item_bytes: usize) -> Result<usize, CodecError> {
        let count = self.u32()? as usize;
        let remaining = self.remaining();
        if count.saturating_mul(item_bytes.max(1)) > remaining {
            return Err(CodecError::Count { count, remaining });
        }
        Ok(count)
    }

    /// Reads a `u32`-count-prefixed table of raw `u32`s.
    pub fn u32s(&mut self) -> Result<Vec<u32>, CodecError> {
        let count = self.read_count(4)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed opaque byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.read_count(1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.read_count(1)?;
        let at = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Utf8 { at })
    }

    /// Asserts everything was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::Trailing {
                leftover: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_u32s([1, 2, 3]);
        w.put_str("héllo");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u32s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_at_every_prefix() {
        let mut w = Writer::new();
        w.put_u32s([10, 20, 30]);
        w.put_str("tail");
        let buf = w.finish();
        for len in 0..buf.len() {
            let mut r = Reader::new(&buf[..len]);
            let decoded = r.u32s().and_then(|v| r.str().map(|s| (v, s)));
            assert!(decoded.is_err(), "prefix of {len} bytes decoded");
        }
    }

    #[test]
    fn absurd_counts_fail_before_allocating() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX); // count prefix with no payload behind it
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.u32s(), Err(CodecError::Count { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u8(2);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        let _ = r.u8().unwrap();
        assert_eq!(
            r.finish().unwrap_err(),
            CodecError::Trailing { leftover: 1 }
        );
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut w = Writer::new();
        w.put_u32(2);
        w.put_u8(0xff);
        w.put_u8(0xfe);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.str(), Err(CodecError::Utf8 { .. })));
    }

    #[test]
    fn byte_blobs_roundtrip_and_reject_truncation() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0x00, 0x7f]);
        w.put_bytes(&[]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap(), vec![0xff, 0x00, 0x7f]);
        assert_eq!(r.bytes().unwrap(), Vec::<u8>::new());
        r.finish().unwrap();
        for len in 0..buf.len() - 4 {
            let mut r = Reader::new(&buf[..len]);
            assert!(
                r.bytes().and_then(|_| r.bytes()).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn fnv_discriminates() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
    }
}
