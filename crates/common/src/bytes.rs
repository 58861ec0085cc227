//! The one byte layer under every on-disk and on-wire format: the WAL's
//! segments and checkpoint parts, the checkpoint manifest, the
//! durable-epoch marker, the replication ship cursor and the wire codec.
//! The `put_*` writers append fields; [`Reader`] reads them back, checking
//! every length against the bytes present before allocating and failing
//! with a [`DecodeError`] instead of panicking; [`put_frame`] and
//! [`split_frame`] write and split the one frame; [`crc32`] checksums it.
//!
//! ```text
//! frame  := payload_len:u32 crc32(payload):u32 payload
//! str16  := len:u16 utf8
//! str32  := len:u32 utf8
//! value  := 0 (null) | 1 int:i64 | 2 float:f64-bits | 3 str32 | 4 bool:u8 (0 or 1)
//! ```
//!
//! All integers are little-endian.

use crate::Value;

/// Table-driven CRC-32: `crc32` runs on the commit fast path (one call per
/// logged batch, under the writer mutex) and once per wire frame, so the
/// byte-at-a-time LUT variant matters.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Computes the CRC-32 (IEEE 802.3, reflected) of `data`. Inlinable across
/// crates, as it was beside each of its callers.
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Appends `v` little-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u16`-length-prefixed string.
///
/// # Panics
/// Panics if `s` is longer than `u16::MAX` bytes.
#[inline]
pub fn put_str16(out: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "str16 too long");
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a `u32`-length-prefixed string.
#[inline]
pub fn put_str32(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a tagged [`Value`].
#[inline]
pub fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(0),
        Value::Int(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Float(v) => {
            out.push(2);
            put_u64(out, v.to_bits());
        }
        Value::Str(s) => {
            out.push(3);
            put_str32(out, s);
        }
        Value::Bool(b) => {
            out.push(4);
            out.push(u8::from(*b));
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Why bytes did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the field it announced was complete.
    Truncated,
    /// A tag byte names no known alternative.
    UnknownTag {
        /// Which tagged union was being decoded (for diagnostics).
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A structural constraint was violated (bad UTF-8, a bool byte other
    /// than 0 or 1, bytes left over, ...).
    Malformed(&'static str),
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        self.array().map(i64::from_le_bytes)
    }

    /// `len` bytes of UTF-8, checked present before the copy.
    #[inline]
    fn utf8(&mut self, len: usize) -> Result<String, DecodeError> {
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| DecodeError::Malformed("invalid utf-8"))
    }

    /// A `u16`-length-prefixed string.
    #[inline]
    pub fn str16(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        self.utf8(len)
    }

    /// A `u32`-length-prefixed string.
    #[inline]
    pub fn str32(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        self.utf8(len)
    }

    /// A tagged [`Value`], as [`put_value`] writes it.
    #[inline]
    pub fn value(&mut self) -> Result<Value, DecodeError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            3 => Ok(Value::Str(self.str32()?)),
            4 => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                _ => Err(DecodeError::Malformed("boolean byte not 0 or 1")),
            },
            tag => Err(DecodeError::UnknownTag { what: "value", tag }),
        }
    }

    /// Succeeds only when every byte was read.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(DecodeError::Malformed("trailing bytes")),
        }
    }
}

// ---------------------------------------------------------------------------
// Frame
// ---------------------------------------------------------------------------

/// Frame header size: `u32` payload length plus `u32` CRC.
pub const FRAME_HEADER_LEN: usize = 8;

/// Why the front of a buffer is not a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The header announced a payload longer than the caller's cap.
    TooLarge {
        /// The announced payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The payload's CRC did not match the header.
    BadChecksum {
        /// CRC stored in the header.
        expected: u32,
        /// CRC computed over the payload.
        actual: u32,
    },
}

/// Appends `payload` as one frame: its length, its CRC, then the bytes.
#[inline]
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

/// Splits one frame off the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds less than a whole frame, and
/// `Ok(Some((payload, consumed)))` for a whole checksummed frame, where
/// `consumed` is header plus payload. A header announcing more than
/// `max_len` bytes is refused from the header alone, before the caller
/// buffers any of the payload.
#[inline]
pub fn split_frame(buf: &[u8], max_len: u32) -> Result<Option<(&[u8], usize)>, FrameError> {
    let mut r = Reader::new(buf);
    let (Ok(len), Ok(expected)) = (r.u32(), r.u32()) else {
        return Ok(None);
    };
    if len > max_len {
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    let Ok(payload) = r.take(len as usize) else {
        return Ok(None);
    };
    let actual = crc32(payload);
    if actual != expected {
        return Err(FrameError::BadChecksum { expected, actual });
    }
    Ok(Some((payload, FRAME_HEADER_LEN + payload.len())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts the bytes each test thread allocates, so the property below
    /// can bound what a decode asks the allocator for.
    struct CountingAlloc;

    thread_local! {
        static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    }

    // SAFETY: every call forwards to `System` unchanged; the counter is a
    // const-initialized thread-local `Cell`, which never allocates. The
    // default `realloc` goes through `alloc`, so it is counted too.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    fn allocated() -> usize {
        ALLOCATED.with(Cell::get)
    }

    fn encode(value: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        put_value(&mut out, value);
        out
    }

    fn random_value(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..5u32) {
            0 => Value::Null,
            1 => Value::Int(rng.gen::<u64>() as i64),
            2 => Value::Float(f64::from_bits(rng.gen::<u64>())),
            3 => {
                let len = rng.gen_range(0..40usize);
                let s: String = (0..len)
                    .map(|_| char::from_u32(rng.gen_range(0x20..0x3000u32)).unwrap_or('?'))
                    .collect();
                Value::Str(s)
            }
            _ => Value::Bool(rng.gen::<bool>()),
        }
    }

    /// Decodes one value from `bytes` and checks the contract: never more
    /// heap than the input is long, and a value only if `bytes` is exactly
    /// its encoding (compared as bytes, so NaN floats compare exactly).
    fn decode_checked(bytes: &[u8]) -> Result<Value, DecodeError> {
        let before = allocated();
        let decoded = {
            let mut r = Reader::new(bytes);
            r.value().and_then(|v| r.finish().map(|()| v))
        };
        let spent = allocated() - before;
        assert!(
            spent <= bytes.len(),
            "decoding {bytes:?} allocated {spent} bytes"
        );
        if let Ok(value) = &decoded {
            assert_eq!(encode(value), bytes, "{bytes:?} decoded to {value:?}");
        }
        decoded
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn reader_rejects_what_it_cannot_read() {
        for (bytes, want) in [
            (
                &[4, 2][..],
                DecodeError::Malformed("boolean byte not 0 or 1"),
            ),
            (
                &[9],
                DecodeError::UnknownTag {
                    what: "value",
                    tag: 9,
                },
            ),
            (&[3, 0xFF, 0xFF, 0xFF, 0xFF], DecodeError::Truncated),
            (
                &[3, 1, 0, 0, 0, 0xFF],
                DecodeError::Malformed("invalid utf-8"),
            ),
        ] {
            assert_eq!(Reader::new(bytes).value(), Err(want), "{bytes:?}");
        }
        assert_eq!(
            Reader::new(&[1]).finish(),
            Err(DecodeError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn frames_split_whole_refuse_damage_and_wait_for_the_rest() {
        let mut framed = Vec::new();
        put_frame(&mut framed, b"payload");
        assert_eq!(
            split_frame(&framed, u32::MAX),
            Ok(Some((&b"payload"[..], framed.len())))
        );
        for cut in 0..framed.len() {
            assert_eq!(
                split_frame(&framed[..cut], u32::MAX),
                Ok(None),
                "cut at {cut}"
            );
        }
        assert_eq!(
            split_frame(&framed[..FRAME_HEADER_LEN], 6),
            Err(FrameError::TooLarge { len: 7, max: 6 }),
            "the cap is checked from the header alone"
        );
        let last = framed.len() - 1;
        framed[last] ^= 0x40;
        assert!(matches!(
            split_frame(&framed, u32::MAX),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    /// Reject-or-roundtrip: a random value's encoding decodes to the value,
    /// a cut one is refused, and a byte-flipped one is refused or decodes
    /// to the value it is the exact encoding of. No input panics or
    /// allocates more than its length.
    #[test]
    fn prop_reader_returns_the_value_or_an_error() {
        let mut rng = StdRng::seed_from_u64(0x0062_7974_6573);
        for _ in 0..2_000 {
            let value = random_value(&mut rng);
            let bytes = encode(&value);
            assert!(decode_checked(&bytes).is_ok(), "{value:?} roundtrips");
            let cut = rng.gen_range(0..bytes.len());
            assert!(
                decode_checked(&bytes[..cut]).is_err(),
                "a cut value is refused"
            );
            let mut flipped = bytes.clone();
            let pos = rng.gen_range(0..bytes.len());
            flipped[pos] ^= rng.gen_range(1..=255u8);
            let _ = decode_checked(&flipped);
        }
    }
}
