//! Little-endian binary encoding for world snapshots.
//!
//! Deliberately minimal: fixed-width integers, length-prefixed strings, and
//! a running FNV-1a checksum over every byte written/read. No varints, no
//! compression — determinism and auditability beat density here (the format
//! spec in DESIGN.md is readable against this file).

use permadead_url::Fnv1a;
use std::fmt;
use std::io::{self, Read, Write};

/// Errors from decoding a snapshot stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Stream ended mid-value.
    UnexpectedEof { at: usize, wanted: usize },
    /// The leading magic didn't match [`crate::MAGIC`].
    BadMagic([u8; 4]),
    /// Version not understood by this build.
    UnsupportedVersion(u32),
    /// A string wasn't valid UTF-8.
    BadUtf8 { at: usize },
    /// An enum tag was out of range.
    BadTag { at: usize, tag: u8, what: &'static str },
    /// The trailing checksum didn't match the stream contents.
    ChecksumMismatch { expected: u64, found: u64 },
    /// Trailing bytes after the checksum.
    TrailingBytes { at: usize },
    /// An interned-string symbol pointed outside the decoded interner.
    BadSymbol { at: usize, sym: u32 },
    /// A collection count whose elements could not fit in the bytes left.
    CountTooLarge { at: usize, count: usize, remaining: usize },
    /// A decoded value the world model refuses; `rule` names the rule.
    Invalid { at: usize, rule: &'static str },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { at, wanted } => {
                write!(f, "unexpected EOF at byte {at} (wanted {wanted} more)")
            }
            CodecError::BadMagic(m) => write!(f, "bad magic {m:?} (not a world snapshot)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            CodecError::BadUtf8 { at } => write!(f, "invalid UTF-8 in string at byte {at}"),
            CodecError::BadTag { at, tag, what } => {
                write!(f, "invalid {what} tag {tag} at byte {at}")
            }
            CodecError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: stream says {expected:#018x}, contents hash to {found:#018x}"
            ),
            CodecError::TrailingBytes { at } => write!(f, "trailing bytes after checksum at {at}"),
            CodecError::BadSymbol { at, sym } => {
                write!(f, "symbol {sym} at byte {at} not in the interner")
            }
            CodecError::CountTooLarge { at, count, remaining } => {
                write!(f, "count {count} at byte {at} cannot fit in the {remaining} bytes left")
            }
            CodecError::Invalid { at, rule } => {
                write!(f, "value at byte {at} breaks a rule: {rule}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only encoder with a running checksum, over any byte sink: a
/// `Vec` ([`Writer::new`]), or a file through a `BufWriter`
/// ([`Writer::to`]). The first write error is kept and every later write
/// skipped; [`Writer::finish`] returns it.
#[derive(Debug)]
pub struct Writer<W = Vec<u8>> {
    out: W,
    hash: Fnv1a,
    error: Option<io::Error>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::to(Vec::new())
    }
}

impl<W: Write> Writer<W> {
    /// Encode into `out`.
    pub fn to(out: W) -> Self {
        Writer {
            out,
            hash: Fnv1a::new(),
            error: None,
        }
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.hash.write(bytes);
        self.put(bytes);
    }

    /// Write `bytes` unhashed, unless an earlier write failed.
    fn put(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            if let Err(e) = self.out.write_all(bytes) {
                self.error = Some(e);
            }
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.raw(bytes);
    }

    pub fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }

    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.raw(&v.to_le_bytes());
    }

    /// `f64` as its IEEE-754 bit pattern: bit-exact round-trip, no parsing.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string too long"));
        self.raw(s.as_bytes());
    }

    /// Collection length prefix.
    pub fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("collection too long"));
    }

    /// Finish the stream: append the checksum over everything written so far
    /// (the checksum itself is not hashed) and return the sink, or the first
    /// write error.
    pub fn finish(mut self) -> io::Result<W> {
        let h = self.hash.finish();
        self.put(&h.to_le_bytes());
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

/// Decoder mirroring [`Writer`] over any byte stream — a file through a
/// `BufReader`, or a slice — with the same running checksum so
/// [`Reader::verify_checksum`] can close the loop. The stream's total length
/// is known up front (a file's from its metadata), so every count and
/// string length is checked against the bytes left before anything is
/// allocated for it.
#[derive(Debug)]
pub struct Reader<R> {
    inner: R,
    len: usize,
    pos: usize,
    hash: Fnv1a,
    /// The first failed read other than end of stream. The decoder sees it
    /// as [`CodecError::UnexpectedEof`]; [`Reader::take_io_error`] hands
    /// the cause to the caller.
    io_error: Option<io::Error>,
}

impl<'a> Reader<&'a [u8]> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader::from_stream(buf, buf.len() as u64)
    }
}

impl<R: Read> Reader<R> {
    /// Decode `len` bytes from `inner`.
    pub fn from_stream(inner: R, len: u64) -> Self {
        Reader::resume(inner, 0, len, Fnv1a::new().finish())
    }

    /// Decode a stream from its byte `start` to its byte `end`, with `inner`
    /// yielding the bytes from `start` on and the checksum resumed from
    /// `checksum`, what [`Reader::checksum`] read at `start`.
    pub(crate) fn resume(inner: R, start: u64, end: u64, checksum: u64) -> Self {
        let at = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
        Reader { inner, len: at(end), pos: at(start), hash: Fnv1a::resume(checksum), io_error: None }
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    /// The running checksum of the bytes read so far.
    pub(crate) fn checksum(&self) -> u64 {
        self.hash.finish()
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.len.saturating_sub(self.pos)
    }

    /// The read that failed for a reason other than end of stream, if any.
    pub fn take_io_error(&mut self) -> Option<io::Error> {
        self.io_error.take()
    }

    /// Fill `out` from the stream without hashing it.
    fn read_raw(&mut self, out: &mut [u8]) -> Result<(), CodecError> {
        let (at, wanted) = (self.pos, out.len());
        if self.remaining() < wanted {
            return Err(CodecError::UnexpectedEof { at, wanted });
        }
        if let Err(e) = self.inner.read_exact(out) {
            if e.kind() != io::ErrorKind::UnexpectedEof {
                self.io_error.get_or_insert(e);
            }
            return Err(CodecError::UnexpectedEof { at, wanted });
        }
        self.pos += wanted;
        Ok(())
    }

    fn fill(&mut self, out: &mut [u8]) -> Result<(), CodecError> {
        self.read_raw(out)?;
        self.hash.write(out);
        Ok(())
    }

    /// The next `N` bytes, as written by [`Writer::bytes`].
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0; N];
        self.fill(&mut out)?;
        Ok(out)
    }

    fn bytes(&mut self, n: usize) -> Result<Vec<u8>, CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { at: self.pos, wanted: n });
        }
        let mut out = vec![0; n];
        self.fill(&mut out)?;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        let at = self.pos;
        String::from_utf8(self.bytes(n)?).map_err(|_| CodecError::BadUtf8 { at })
    }

    /// Check the next string as [`Reader::str`] reads it, failing with the
    /// same error, without keeping it: its bytes pass through `scratch`, so
    /// a caller that reuses one buffer allocates only when a string is
    /// longer than any before it.
    pub(crate) fn skip_str(&mut self, scratch: &mut Vec<u8>) -> Result<(), CodecError> {
        let n = self.u32()? as usize;
        let at = self.pos;
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { at, wanted: n });
        }
        scratch.clear();
        scratch.resize(n, 0);
        self.fill(scratch)?;
        std::str::from_utf8(scratch).map_err(|_| CodecError::BadUtf8 { at })?;
        Ok(())
    }

    /// Read a collection count (the [`Writer::len`] prefix) whose elements
    /// each encode to at least `min_item_bytes`. A count that many elements
    /// could not fit in the bytes left is an error, so a corrupted prefix
    /// can never make the decoder allocate or loop beyond what the input
    /// holds — and it fails here, before the trailing checksum is reached.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let at = self.pos;
        let count = self.u32()? as usize;
        let remaining = self.remaining();
        if count.saturating_mul(min_item_bytes) > remaining {
            return Err(CodecError::CountTooLarge { at, count, remaining });
        }
        Ok(count)
    }

    /// Read the trailing checksum and compare it against the bytes consumed
    /// so far. Also rejects trailing garbage.
    pub fn verify_checksum(&mut self) -> Result<(), CodecError> {
        let found = self.hash.finish();
        let mut stored = [0; 8];
        self.read_raw(&mut stored)?;
        let expected = u64::from_le_bytes(stored);
        if expected != found {
            return Err(CodecError::ChecksumMismatch { expected, found });
        }
        if self.remaining() > 0 {
            return Err(CodecError::TrailingBytes { at: self.pos });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.f64(0.25);
        w.bool(true);
        w.str("héllo");
        let buf = w.finish().unwrap();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 0.25);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        r.verify_checksum().unwrap();
    }

    #[test]
    fn corruption_is_caught() {
        let mut w = Writer::new();
        w.str("payload");
        let mut buf = w.finish().unwrap();
        buf[5] ^= 0x01;
        let mut r = Reader::new(&buf);
        let _ = r.str();
        assert!(matches!(r.verify_checksum(), Err(CodecError::ChecksumMismatch { .. })));
    }

    #[test]
    fn truncation_is_caught() {
        let mut w = Writer::new();
        w.u64(1);
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf[..7]);
        assert!(matches!(r.u64(), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new();
        w.u8(1);
        let mut buf = w.finish().unwrap();
        buf.push(0);
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert!(matches!(r.verify_checksum(), Err(CodecError::TrailingBytes { .. })));
    }

    #[test]
    fn count_is_bounded_by_the_bytes_left() {
        let mut w = Writer::new();
        w.len(3);
        w.bytes(&[0; 12]);
        let buf = w.finish().unwrap();
        // 12 payload bytes + the 8-byte trailer are left after the prefix
        assert_eq!(Reader::new(&buf).count(4), Ok(3));
        assert_eq!(Reader::new(&buf).count(6), Ok(3));
        assert_eq!(
            Reader::new(&buf).count(7),
            Err(CodecError::CountTooLarge { at: 0, count: 3, remaining: 20 })
        );
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let buf = w.finish().unwrap();
        assert!(matches!(Reader::new(&buf).count(1), Err(CodecError::CountTooLarge { .. })));
    }

    #[test]
    fn a_skipped_string_is_checked_and_hashed_as_a_read_one() {
        let mut w = Writer::new();
        w.str("héllo");
        w.u32(7);
        let buf = w.finish().unwrap();
        let mut scratch = Vec::new();
        let mut r = Reader::new(&buf);
        assert_eq!(r.skip_str(&mut scratch), Ok(()));
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.verify_checksum(), Ok(()));

        let mut bad_utf8 = buf.clone();
        bad_utf8[5] = 0xff;
        let mut too_long = buf.clone();
        too_long[..4].copy_from_slice(&64u32.to_le_bytes());
        for hostile in [bad_utf8, too_long, buf[..6].to_vec()] {
            let read = Reader::new(&hostile).str().map(drop);
            assert!(read.is_err());
            assert_eq!(Reader::new(&hostile).skip_str(&mut scratch), read);
        }
    }

    #[test]
    fn a_resumed_reader_continues_the_stream_and_its_checksum() {
        let mut w = Writer::new();
        w.u32(1);
        w.str("abc");
        w.u64(9);
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        r.u32().unwrap();
        let (start, checksum) = (r.position(), r.checksum());
        let mut resumed = Reader::resume(&buf[start..], start as u64, buf.len() as u64, checksum);
        assert_eq!(resumed.position(), start);
        assert_eq!(resumed.str().as_deref(), Ok("abc"));
        assert_eq!(resumed.u64(), Ok(9));
        assert_eq!(resumed.verify_checksum(), Ok(()));
        // a string past the end the reader was given is refused
        let mut cut = Reader::resume(&buf[start..], start as u64, start as u64 + 5, checksum);
        assert_eq!(cut.str(), Err(CodecError::UnexpectedEof { at: 8, wanted: 3 }));
    }

    /// Hands out one byte per read, as a slow pipe might.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(out.len()).min(1);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_stream_decodes_like_its_slice() {
        let mut w = Writer::new();
        w.u32(0xDEAD_BEEF);
        w.str("héllo");
        w.len(2);
        w.u64(9);
        w.u64(10);
        let buf = w.finish().unwrap();
        let mut r = Reader::from_stream(Trickle(&buf), buf.len() as u64);
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.str().as_deref(), Ok("héllo"));
        assert_eq!(r.count(8), Ok(2));
        assert_eq!((r.u64(), r.u64()), (Ok(9), Ok(10)));
        assert_eq!(r.verify_checksum(), Ok(()));

        // a stream shorter than its stated length ends in EOF, not a hang
        let mut r = Reader::from_stream(Trickle(&buf[..10]), buf.len() as u64);
        r.u32().unwrap();
        assert_eq!(r.str(), Err(CodecError::UnexpectedEof { at: 8, wanted: 6 }));
        assert!(r.take_io_error().is_none(), "end of stream is not an I/O error");
        // a string longer than the stated length is refused before it is read
        let mut r = Reader::from_stream(Trickle(&buf), 10);
        r.u32().unwrap();
        assert_eq!(r.str(), Err(CodecError::UnexpectedEof { at: 8, wanted: 6 }));
    }

    #[test]
    fn read_failures_are_kept_for_the_caller() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("device gone"))
            }
        }
        let mut r = Reader::from_stream(Failing, 64);
        assert_eq!(r.u64(), Err(CodecError::UnexpectedEof { at: 0, wanted: 8 }));
        assert_eq!(r.take_io_error().map(|e| e.to_string()).as_deref(), Some("device gone"));
    }

    #[test]
    fn a_failed_write_is_returned_by_finish() {
        /// Takes `room` bytes, then fails every write.
        struct Full {
            room: usize,
        }
        impl Write for Full {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.room == 0 {
                    return Err(io::Error::other("disk full"));
                }
                let n = buf.len().min(self.room);
                self.room -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writer::to(Full { room: 6 });
        w.u32(1);
        w.str("more than fits");
        w.u64(2);
        assert_eq!(w.finish().map(|_| ()).unwrap_err().to_string(), "disk full");
        // the checksum alone overflows a sink with no room for it
        let w = Writer::to(Full { room: 4 });
        assert!(w.finish().is_err());
    }

    #[test]
    fn a_streamed_encoding_equals_the_buffered_one() {
        fn encode<W: Write>(w: &mut Writer<W>) {
            w.u32(0xDEAD_BEEF);
            w.str("héllo");
            w.f64(-0.5);
        }
        let mut buffered = Writer::new();
        encode(&mut buffered);
        let mut streamed = Writer::to(io::BufWriter::with_capacity(3, Vec::new()));
        encode(&mut streamed);
        let streamed = streamed.finish().unwrap().into_inner().unwrap();
        assert_eq!(streamed, buffered.finish().unwrap());
    }

    #[test]
    fn nan_round_trips_bit_exact() {
        let weird = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut w = Writer::new();
        w.f64(weird);
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        assert_eq!(r.f64().unwrap().to_bits(), weird.to_bits());
    }
}
