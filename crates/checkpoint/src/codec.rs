//! From-scratch little-endian binary codec.
//!
//! Snapshot payloads must round-trip the full JIT runtime state. Rather
//! than pulling in a serde format crate, the codec is ~200 lines of
//! explicit, bounds-checked primitives: fixed-width little-endian integers
//! and floats, length-prefixed byte strings, and composite helpers. Every
//! decode failure is a typed error, never a panic — a corrupted snapshot
//! must surface as a restore error, not abort the platform.

use pronghorn_sim::hash::Fnv1aWide;
use std::fmt;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the requested field.
    UnexpectedEof {
        /// Bytes needed by the read.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A length prefix exceeds the remaining buffer (corrupt or hostile).
    LengthOutOfBounds {
        /// The declared length.
        declared: u64,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A byte string declared as UTF-8 text is not valid UTF-8.
    InvalidUtf8,
    /// A tag byte has no corresponding variant.
    InvalidTag {
        /// The unexpected tag value.
        tag: u8,
        /// What was being decoded.
        context: &'static str,
    },
    /// Decoding finished but bytes remain (format drift detector).
    TrailingBytes {
        /// Count of unread bytes.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected EOF: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::LengthOutOfBounds {
                declared,
                remaining,
            } => {
                write!(
                    f,
                    "length {declared} out of bounds ({remaining} bytes remain)"
                )
            }
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::InvalidTag { tag, context } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only binary encoder with an integrated streaming checksum.
///
/// The checksum ([`Fnv1aWide`]) is folded lazily: bytes are appended
/// freely, and [`Encoder::checksum`] absorbs only the bytes written since
/// the previous call, so checksumming the output costs a single pass that
/// overlaps encoding instead of a second full sweep over the buffer.
///
/// [`Encoder::clear`] drops the contents but keeps the allocation, so a
/// long-lived encoder can be reused: the orchestrator frames every
/// snapshot header it uploads in one. A checkpoint's state payload is
/// handed off as the snapshot's buffer, so it is encoded into a fresh
/// encoder each time.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
    hasher: Fnv1aWide,
    hashed: usize,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Creates an encoder with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(capacity),
            hasher: Fnv1aWide::new(),
            hashed: 0,
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Discards contents and checksum state, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.hasher = Fnv1aWide::new();
        self.hashed = 0;
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Streaming [`Fnv1aWide`] checksum of everything written so far.
    ///
    /// Only bytes appended since the previous `checksum` call are folded
    /// in, so interleaving writes and checksum reads still hashes the
    /// buffer exactly once overall.
    pub fn checksum(&mut self) -> u64 {
        if self.hashed < self.buf.len() {
            self.hasher.write(&self.buf[self.hashed..]);
            self.hashed = self.buf.len();
        }
        self.hasher.finish()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for x in v {
            self.put_f64(*x);
        }
    }

    /// Writes an `Option` as a presence byte plus the value.
    pub fn put_option<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                f(self, x);
            }
        }
    }

    /// Writes a length-prefixed sequence with a per-element closure.
    pub fn put_seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.put_u64(items.len() as u64);
        for item in items {
            f(self, item);
        }
    }
}

/// Bounds-checked binary decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the buffer was fully consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`; any nonzero byte is `true`.
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.take_u8()? != 0)
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a little-endian `f64`.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(f64::from_le_bytes(arr))
    }

    /// Reads a length prefix, validating it against the remaining buffer
    /// assuming each element needs at least `min_element_size` bytes.
    pub fn take_len(&mut self, min_element_size: usize) -> Result<usize, CodecError> {
        let declared = self.take_u64()?;
        let max = (self.remaining() / min_element_size.max(1)) as u64;
        if declared > max {
            return Err(CodecError::LengthOutOfBounds {
                declared,
                remaining: self.remaining(),
            });
        }
        Ok(declared as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.take_len(1)?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.take_bytes()?).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn take_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let len = self.take_len(8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.take_f64()?);
        }
        Ok(out)
    }

    /// Reads an `Option` written by [`Encoder::put_option`].
    pub fn take_option<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            tag => Err(CodecError::InvalidTag {
                tag,
                context: "Option",
            }),
        }
    }

    /// Reads a sequence written by [`Encoder::put_seq`]. Each element must
    /// occupy at least `min_element_size` bytes (for prefix validation).
    pub fn take_seq<T>(
        &mut self,
        min_element_size: usize,
        mut f: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.take_len(min_element_size)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(0xab);
        e.put_bool(true);
        e.put_u16(0x1234);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX - 1);
        e.put_f64(-1234.5678);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 0xab);
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_u16().unwrap(), 0x1234);
        assert_eq!(d.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.take_f64().unwrap(), -1234.5678);
        d.finish().unwrap();
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let mut e = Encoder::new();
        e.put_str("héllo ⚡");
        e.put_bytes(&[0, 1, 2]);
        e.put_str("");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_str().unwrap(), "héllo ⚡");
        assert_eq!(d.take_bytes().unwrap(), &[0, 1, 2]);
        assert_eq!(d.take_str().unwrap(), "");
        d.finish().unwrap();
    }

    #[test]
    fn f64_slice_round_trips() {
        let values = [1.0, f64::NAN, f64::INFINITY, -0.0];
        let mut e = Encoder::new();
        e.put_f64_slice(&values);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let out = d.take_f64_vec().unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], 1.0);
        assert!(out[1].is_nan());
        assert_eq!(out[2], f64::INFINITY);
    }

    #[test]
    fn option_round_trips() {
        let mut e = Encoder::new();
        e.put_option(&Some(42u32), |e, v| e.put_u32(*v));
        e.put_option(&None::<u32>, |e, v| e.put_u32(*v));
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_option(|d| d.take_u32()).unwrap(), Some(42));
        assert_eq!(d.take_option(|d| d.take_u32()).unwrap(), None);
    }

    #[test]
    fn seq_round_trips() {
        let items = vec!["a".to_string(), "bc".to_string()];
        let mut e = Encoder::new();
        e.put_seq(&items, |e, s| e.put_str(s));
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let out = d.take_seq(8, |d| d.take_str().map(str::to_string)).unwrap();
        assert_eq!(out, items);
    }

    #[test]
    fn eof_is_detected() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(
            d.take_u32(),
            Err(CodecError::UnexpectedEof {
                needed: 4,
                remaining: 2
            })
        ));
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // Declares u64::MAX elements — must fail fast, not try to allocate.
        let mut e = Encoder::new();
        e.put_u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.take_bytes(),
            Err(CodecError::LengthOutOfBounds { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xff, 0xfe]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_str(), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn invalid_option_tag_is_rejected() {
        let mut d = Decoder::new(&[7]);
        assert!(matches!(
            d.take_option(|d| d.take_u8()),
            Err(CodecError::InvalidTag { tag: 7, .. })
        ));
    }

    #[test]
    fn streaming_checksum_matches_one_shot() {
        use pronghorn_sim::hash::fnv1a_wide;
        let mut e = Encoder::new();
        e.put_u64(0x1122_3344_5566_7788);
        // Interleave a checksum read mid-stream; the final value must
        // still equal a one-shot hash of the whole buffer.
        let _ = e.checksum();
        e.put_str("interleaved");
        e.put_bytes(&[9, 8, 7]);
        assert_eq!(e.checksum(), fnv1a_wide(e.as_bytes()));
    }

    #[test]
    fn clear_resets_contents_and_checksum() {
        let mut e = Encoder::with_capacity(256);
        e.put_str("first frame");
        let first = e.checksum();
        e.clear();
        assert!(e.is_empty());
        e.put_str("first frame");
        assert_eq!(e.checksum(), first);
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        d.take_u8().unwrap();
        assert_eq!(d.finish(), Err(CodecError::TrailingBytes { remaining: 1 }));
    }
}
