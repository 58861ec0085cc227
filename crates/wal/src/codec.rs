//! Binary encoding of redo batches.
//!
//! A log segment is a fixed header followed by length-prefixed,
//! checksummed batch frames:
//!
//! ```text
//! segment   := header frame*
//! header    := magic:[u8;8] executor:u32 generation:u32
//! frame     := payload_len:u32 crc32(payload):u32 payload
//! payload   := tid:u64 record_count:u32 record*
//! record    := container:u64 reactor:u64 relation:str16 key body
//! body      := 0                                   (delete tombstone)
//!            | 1 tuple                             (full image)
//!            | 2 delta                             (field-level delta)
//!            | 3 raw_len:varint comp_len:varint rle-bytes   (rle(tuple))
//!            | 4 raw_len:varint comp_len:varint rle-bytes   (rle(delta))
//! delta     := base_tid:u64 arity:varint nchanges:varint change*
//! change    := field:varint len:varint value      (len = encoded value size)
//! key       := 0 bool:u8 | 1 int:i64 | 2 str32 | 3 count:u16 key*
//! value     := 0 (null) | 1 int:i64 | 2 float:f64-bits | 3 str32 | 4 bool:u8
//! tuple     := arity:u32 value*
//! ```
//!
//! All fixed-width integers are little-endian; varints are LEB128. Delta
//! bodies are the field-level redo format: a base version plus
//! `(field offset, value length, value bytes)` runs for exactly the fields
//! the update changed. Body kinds 3/4 are the optional record-level
//! compression (PackBits-style RLE with zero suppression), emitted only
//! when the compressed form is actually smaller.
//!
//! Decoding is defensive: a torn or corrupt tail (short frame, bad
//! checksum, malformed payload) terminates the scan of that segment without
//! failing recovery — exactly the tail a crash in the middle of a flush
//! leaves behind. Malformed *delta* bodies (unsorted or out-of-range field
//! offsets, truncated values, over-long runs) are rejected the same way:
//! a delta is either decoded exactly or not at all, never mis-applied.

use reactdb_common::bytes::crc32;
use reactdb_common::{ContainerId, Key, ReactorId, Value};
use reactdb_storage::{TidWord, Tuple, TupleDelta};
use reactdb_txn::{RedoPayload, RedoRecord, RowDelta};

/// Magic bytes opening every log segment.
pub const SEGMENT_MAGIC: [u8; 8] = *b"RDBWAL1\n";

/// Magic bytes opening every checkpoint data file. Checkpoint files reuse
/// the segment frame format (one checksummed batch frame per captured row,
/// the frame TID carrying the row's commit TID) under a distinct magic, so
/// log scans can never mistake one for a redo segment.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"RDBCKPT1";

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "relation name too long");
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn put_str32(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_key(out: &mut Vec<u8>, key: &Key) {
    match key {
        Key::Bool(b) => {
            out.push(0);
            out.push(*b as u8);
        }
        Key::Int(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Key::Str(s) => {
            out.push(2);
            put_str32(out, s);
        }
        Key::Composite(parts) => {
            out.push(3);
            assert!(parts.len() <= u16::MAX as usize, "composite key too wide");
            put_u16(out, parts.len() as u16);
            for part in parts {
                put_key(out, part);
            }
        }
    }
}

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(0),
        Value::Int(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Float(v) => {
            out.push(2);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            put_str32(out, s);
        }
        Value::Bool(b) => {
            out.push(4);
            out.push(*b as u8);
        }
    }
}

fn put_tuple(out: &mut Vec<u8>, tuple: &Tuple) {
    put_u32(out, tuple.arity() as u32);
    for value in tuple.values() {
        put_value(out, value);
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn varint_len(v: u64) -> usize {
    (1 + (64 - (v | 1).leading_zeros() as usize - 1) / 7).max(1)
}

/// Encoded size of one value under `put_value`.
fn value_encoded_len(value: &Value) -> usize {
    match value {
        Value::Null => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
        Value::Bool(_) => 2,
    }
}

/// Encoded size of a full tuple body (body kind 1, without the kind byte).
/// Used by the log writer to decide whether a delta actually saves bytes
/// and to account `log_bytes_saved` without encoding the image twice.
pub fn encoded_tuple_len(tuple: &Tuple) -> usize {
    4 + tuple.values().iter().map(value_encoded_len).sum::<usize>()
}

/// Encoded size of a delta body (body kind 2, without the kind byte):
/// base TID plus the varint-framed change runs.
pub fn encoded_delta_len(delta: &TupleDelta) -> usize {
    let mut len = 8 + varint_len(delta.arity() as u64) + varint_len(delta.changes().len() as u64);
    for (pos, value) in delta.changes() {
        let value_len = value_encoded_len(value);
        len += varint_len(*pos as u64) + varint_len(value_len as u64) + value_len;
    }
    len
}

fn put_delta_body(out: &mut Vec<u8>, base: TidWord, delta: &TupleDelta) {
    put_u64(out, base.raw());
    put_varint(out, delta.arity() as u64);
    put_varint(out, delta.changes().len() as u64);
    for (pos, value) in delta.changes() {
        put_varint(out, *pos as u64);
        put_varint(out, value_encoded_len(value) as u64);
        put_value(out, value);
    }
}

// ---------------------------------------------------------------------------
// Record-level RLE compression (PackBits-style, zero-suppressing)
// ---------------------------------------------------------------------------

/// Shortest run worth a repeat token (control + byte = 2 bytes replace 3+).
const RLE_MIN_RUN: usize = 3;
/// Longest run one repeat token covers: `(0x7f) + RLE_MIN_RUN`.
const RLE_MAX_RUN: usize = 0x7f + RLE_MIN_RUN;
/// Longest literal stretch one literal token covers.
const RLE_MAX_LITERAL: usize = 0x80;

/// PackBits-style RLE: a control byte with the high bit set introduces a
/// repeat run (`(ctrl & 0x7f) + 3` copies of the following byte); with the
/// high bit clear it introduces `ctrl + 1` literal bytes. Runs of zeros —
/// the dominant filler in fixed-width integer encodings — collapse to two
/// bytes per 130, which is the "zero suppression" the record-compression
/// knob advertises.
pub(crate) fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 8);
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i < data.len() {
        let mut run = 1usize;
        while run < RLE_MAX_RUN && i + run < data.len() && data[i + run] == data[i] {
            run += 1;
        }
        if run >= RLE_MIN_RUN {
            flush_literals(&mut out, &data[literal_start..i]);
            out.push(0x80 | (run - RLE_MIN_RUN) as u8);
            out.push(data[i]);
            i += run;
            literal_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&mut out, &data[literal_start..]);
    out
}

fn flush_literals(out: &mut Vec<u8>, mut literals: &[u8]) {
    while !literals.is_empty() {
        let take = literals.len().min(RLE_MAX_LITERAL);
        out.push((take - 1) as u8);
        out.extend_from_slice(&literals[..take]);
        literals = &literals[take..];
    }
}

/// Inverse of [`rle_compress`]. Returns `None` unless the stream decodes to
/// exactly `expected` bytes — over- and under-runs are corruption, never
/// silently padded or truncated.
pub(crate) fn rle_decompress(data: &[u8], expected: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(expected);
    let mut i = 0usize;
    while i < data.len() {
        let ctrl = data[i];
        i += 1;
        if ctrl & 0x80 != 0 {
            let run = (ctrl & 0x7f) as usize + RLE_MIN_RUN;
            let byte = *data.get(i)?;
            i += 1;
            if out.len() + run > expected {
                return None;
            }
            out.resize(out.len() + run, byte);
        } else {
            let take = ctrl as usize + 1;
            let bytes = data.get(i..i + take)?;
            i += take;
            if out.len() + take > expected {
                return None;
            }
            out.extend_from_slice(bytes);
        }
    }
    if out.len() != expected {
        return None;
    }
    Some(out)
}

/// Writes the segment header for `executor` / `generation`.
pub fn encode_header(out: &mut Vec<u8>, executor: u32, generation: u32) {
    out.extend_from_slice(&SEGMENT_MAGIC);
    put_u32(out, executor);
    put_u32(out, generation);
}

/// Writes the checkpoint-file header for part `part` of checkpoint `seq`,
/// stamped with the stable epoch the checkpoint snapshot began at.
pub fn encode_checkpoint_header(out: &mut Vec<u8>, seq: u64, epoch: u64, part: u32) {
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    put_u64(out, seq);
    put_u64(out, epoch);
    put_u32(out, part);
}

/// Appends one framed batch to `out`. Returns the number of bytes written.
pub fn encode_batch(out: &mut Vec<u8>, tid: TidWord, records: &[RedoRecord]) -> usize {
    encode_batch_opts(out, tid, records, false, |_, _| {})
}

/// Like [`encode_batch`], invoking `account` with every record and its
/// encoded payload size — the hook behind per-table log-space accounting.
/// The frame overhead (length, CRC, TID, record count) is charged to the
/// first record so the per-table totals sum to the segment bytes.
pub fn encode_batch_accounted(
    out: &mut Vec<u8>,
    tid: TidWord,
    records: &[RedoRecord],
    account: impl FnMut(&RedoRecord, u64),
) -> usize {
    encode_batch_opts(out, tid, records, false, account)
}

/// Full-control batch encoder: `compress` additionally runs every record
/// body (full tuple or delta) through the RLE encoder, keeping the
/// compressed form only when it is strictly smaller.
pub fn encode_batch_opts(
    out: &mut Vec<u8>,
    tid: TidWord,
    records: &[RedoRecord],
    compress: bool,
    mut account: impl FnMut(&RedoRecord, u64),
) -> usize {
    let mut payload = Vec::with_capacity(64 * records.len());
    put_u64(&mut payload, tid.raw());
    put_u32(&mut payload, records.len() as u32);
    // frame header (len + crc) + payload header (tid + count)
    let mut overhead = Some(4 + 4 + payload.len() as u64);
    let mut body = Vec::new();
    for record in records {
        let before = payload.len();
        put_u64(&mut payload, record.container.raw());
        put_u64(&mut payload, record.reactor.raw());
        put_str16(&mut payload, &record.relation);
        put_key(&mut payload, &record.key);
        match &record.payload {
            RedoPayload::Delete => payload.push(0),
            RedoPayload::Full(tuple) => {
                body.clear();
                put_tuple(&mut body, tuple);
                put_body(&mut payload, 1, 3, &body, compress);
            }
            RedoPayload::Delta(row_delta) => {
                body.clear();
                put_delta_body(&mut body, row_delta.base, &row_delta.delta);
                put_body(&mut payload, 2, 4, &body, compress);
            }
        }
        let record_bytes = (payload.len() - before) as u64 + overhead.take().unwrap_or(0);
        account(record, record_bytes);
    }
    let before = out.len();
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
    out.len() - before
}

/// Appends one record body, RLE-compressing it (under `compressed_kind`)
/// when requested and strictly smaller than the raw form (`raw_kind`).
fn put_body(out: &mut Vec<u8>, raw_kind: u8, compressed_kind: u8, body: &[u8], compress: bool) {
    if compress {
        let packed = rle_compress(body);
        let framing = varint_len(body.len() as u64) + varint_len(packed.len() as u64);
        if packed.len() + framing < body.len() {
            out.push(compressed_kind);
            put_varint(out, body.len() as u64);
            put_varint(out, packed.len() as u64);
            out.extend_from_slice(&packed);
            return;
        }
    }
    out.push(raw_kind);
    out.extend_from_slice(body);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("len 8")))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|b| i64::from_le_bytes(b.try_into().expect("len 8")))
    }

    fn str16(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn str32(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn key(&mut self) -> Option<Key> {
        match self.u8()? {
            0 => Some(Key::Bool(self.u8()? != 0)),
            1 => Some(Key::Int(self.i64()?)),
            2 => Some(Key::Str(self.str32()?)),
            3 => {
                let count = self.u16()? as usize;
                let mut parts = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    parts.push(self.key()?);
                }
                Some(Key::Composite(parts))
            }
            _ => None,
        }
    }

    fn value(&mut self) -> Option<Value> {
        match self.u8()? {
            0 => Some(Value::Null),
            1 => Some(Value::Int(self.i64()?)),
            2 => Some(Value::Float(f64::from_bits(self.u64()?))),
            3 => Some(Value::Str(self.str32()?)),
            4 => Some(Value::Bool(self.u8()? != 0)),
            _ => None,
        }
    }

    fn tuple(&mut self) -> Option<Tuple> {
        let arity = self.u32()? as usize;
        let mut values = Vec::with_capacity(arity.min(1024));
        for _ in 0..arity {
            values.push(self.value()?);
        }
        Some(Tuple::new(values))
    }

    fn varint(&mut self) -> Option<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return None; // overflows u64
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(value);
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }

    /// Reads a delta body: base TID plus the change runs. `from_parts`
    /// re-validates the structural invariants (ascending, in-range
    /// offsets), so a malformed delta is rejected rather than mis-applied.
    fn delta_body(&mut self) -> Option<RowDelta> {
        let base = TidWord(self.u64()?);
        let arity = self.varint()?;
        let arity = u32::try_from(arity).ok()?;
        let count = self.varint()? as usize;
        if count as u64 > u64::from(arity) {
            return None; // more changes than fields
        }
        let mut changes = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let pos = u32::try_from(self.varint()?).ok()?;
            let len = self.varint()? as usize;
            let bytes = self.take(len)?;
            let mut value_reader = Reader { bytes, pos: 0 };
            let value = value_reader.value()?;
            if value_reader.pos != bytes.len() {
                return None; // the run's length must frame the value exactly
            }
            changes.push((pos, value));
        }
        let delta = TupleDelta::from_parts(arity, changes)?;
        Some(RowDelta {
            base,
            delta,
            image: None,
        })
    }

    /// Reads one record body (kinds 0–4).
    fn body(&mut self) -> Option<RedoPayload> {
        match self.u8()? {
            0 => Some(RedoPayload::Delete),
            1 => Some(RedoPayload::Full(self.tuple()?)),
            2 => Some(RedoPayload::Delta(self.delta_body()?)),
            kind @ (3 | 4) => {
                let raw_len = self.varint()? as usize;
                if raw_len > MAX_BODY_LEN {
                    return None;
                }
                let comp_len = self.varint()? as usize;
                let compressed = self.take(comp_len)?;
                let raw = rle_decompress(compressed, raw_len)?;
                let mut body_reader = Reader {
                    bytes: &raw,
                    pos: 0,
                };
                let payload = if kind == 3 {
                    RedoPayload::Full(body_reader.tuple()?)
                } else {
                    RedoPayload::Delta(body_reader.delta_body()?)
                };
                if body_reader.pos != raw.len() {
                    return None;
                }
                Some(payload)
            }
            _ => None,
        }
    }
}

/// Upper bound on a decompressed record body; anything larger is treated as
/// corruption (no legitimate row in this system approaches it).
const MAX_BODY_LEN: usize = 1 << 26;

/// Decodes one batch payload (without the frame header).
fn decode_payload(payload: &[u8]) -> Option<(TidWord, Vec<RedoRecord>)> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let tid = TidWord(r.u64()?);
    let count = r.u32()? as usize;
    let mut records = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let container = ContainerId(r.u64()?);
        let reactor = ReactorId(r.u64()?);
        let relation = r.str16()?;
        let key = r.key()?;
        let payload = r.body()?;
        records.push(RedoRecord {
            container,
            reactor,
            relation,
            key,
            payload,
        });
    }
    if r.pos != payload.len() {
        return None;
    }
    Some((tid, records))
}

/// Result of scanning one segment.
pub struct SegmentScan {
    /// The decoded batches, in file order.
    pub batches: Vec<(TidWord, Vec<RedoRecord>)>,
    /// True when the segment ended with a torn or corrupt frame (expected
    /// after a crash mid-flush; the tail is discarded).
    pub truncated_tail: bool,
}

/// Decodes a whole segment (header + frames). Returns `None` when the
/// header itself is missing or foreign.
pub fn decode_segment(bytes: &[u8]) -> Option<SegmentScan> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(SEGMENT_MAGIC.len())? != SEGMENT_MAGIC {
        return None;
    }
    let _executor = r.u32()?;
    let _generation = r.u32()?;
    Some(decode_frames(r))
}

/// Decoded checkpoint data file: its identity stamp plus one batch per
/// captured row.
pub struct CheckpointScan {
    /// Checkpoint sequence number from the header.
    pub seq: u64,
    /// Stable epoch the snapshot began at (`E_ckpt`), from the header.
    pub epoch: u64,
    /// Zero-based part index within the checkpoint's part set.
    pub part: u32,
    /// The decoded row frames, in capture order.
    pub scan: SegmentScan,
}

/// Decodes a whole checkpoint data file. Returns `None` when the header is
/// missing or foreign.
pub fn decode_checkpoint(bytes: &[u8]) -> Option<CheckpointScan> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(CHECKPOINT_MAGIC.len())? != CHECKPOINT_MAGIC {
        return None;
    }
    let seq = r.u64()?;
    let epoch = r.u64()?;
    let part = r.u32()?;
    Some(CheckpointScan {
        seq,
        epoch,
        part,
        scan: decode_frames(r),
    })
}

/// Shared frame-stream decoder behind segment and checkpoint scans.
fn decode_frames(mut r: Reader<'_>) -> SegmentScan {
    let mut batches = Vec::new();
    let mut truncated_tail = false;
    while r.pos < r.bytes.len() {
        let frame = (|| {
            let len = r.u32()? as usize;
            let crc = r.u32()?;
            let payload = r.take(len)?;
            if crc32(payload) != crc {
                return None;
            }
            decode_payload(payload)
        })();
        match frame {
            Some(batch) => batches.push(batch),
            None => {
                truncated_tail = true;
                break;
            }
        }
    }
    SegmentScan {
        batches,
        truncated_tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_records() -> Vec<RedoRecord> {
        vec![
            RedoRecord {
                container: ContainerId(1),
                reactor: ReactorId(3),
                relation: "savings".into(),
                key: Key::Int(7),
                payload: RedoPayload::Full(Tuple::of([Value::Int(7), Value::Float(99.5)])),
            },
            RedoRecord {
                container: ContainerId(0),
                reactor: ReactorId(2),
                relation: "account".into(),
                key: Key::composite([Key::Str("a".into()), Key::Bool(true)]),
                payload: RedoPayload::Delete,
            },
        ]
    }

    fn delta_record(base: TidWord, before: &Tuple, after: &Tuple) -> RedoRecord {
        RedoRecord {
            container: ContainerId(0),
            reactor: ReactorId(1),
            relation: "wide".into(),
            key: Key::Int(1),
            payload: RedoPayload::Delta(RowDelta {
                base,
                delta: TupleDelta::diff(before, after).expect("same arity"),
                image: Some(after.clone()),
            }),
        }
    }

    #[test]
    fn batch_roundtrip() {
        let mut out = Vec::new();
        encode_header(&mut out, 4, 2);
        let tid = TidWord::committed(5, 42);
        encode_batch(&mut out, tid, &sample_records());
        let scan = decode_segment(&out).expect("valid segment");
        assert!(!scan.truncated_tail);
        assert_eq!(scan.batches.len(), 1);
        assert_eq!(scan.batches[0].0, tid);
        assert_eq!(scan.batches[0].1, sample_records());
    }

    #[test]
    fn accounted_encoding_attributes_every_frame_byte() {
        let mut out = Vec::new();
        let mut attributed = 0u64;
        let written = encode_batch_accounted(
            &mut out,
            TidWord::committed(2, 3),
            &sample_records(),
            |_, bytes| attributed += bytes,
        );
        assert_eq!(
            attributed, written as u64,
            "per-record sizes sum to the frame size"
        );
        // The accounted variant produces byte-identical output.
        let mut plain = Vec::new();
        encode_batch(&mut plain, TidWord::committed(2, 3), &sample_records());
        assert_eq!(out, plain);
    }

    #[test]
    fn checkpoint_roundtrip_and_foreign_rejection() {
        let mut out = Vec::new();
        encode_checkpoint_header(&mut out, 7, 42, 3);
        for (i, record) in sample_records().into_iter().enumerate() {
            encode_batch(&mut out, TidWord::committed(3, i as u64 + 1), &[record]);
        }
        let scan = decode_checkpoint(&out).expect("valid checkpoint");
        assert_eq!(scan.seq, 7);
        assert_eq!(scan.epoch, 42);
        assert_eq!(scan.part, 3);
        assert!(!scan.scan.truncated_tail);
        assert_eq!(scan.scan.batches.len(), 2);
        assert_eq!(scan.scan.batches[0].0, TidWord::committed(3, 1));
        // A checkpoint file is not a segment and vice versa.
        assert!(decode_segment(&out).is_none());
        let mut seg = Vec::new();
        encode_header(&mut seg, 0, 1);
        assert!(decode_checkpoint(&seg).is_none());
        // A torn checkpoint tail is detected, not fatal.
        let intact = out.len();
        encode_batch(&mut out, TidWord::committed(3, 9), &sample_records());
        out.truncate(intact + 3);
        let scan = decode_checkpoint(&out).expect("header intact");
        assert!(scan.scan.truncated_tail);
        assert_eq!(scan.scan.batches.len(), 2);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let mut out = Vec::new();
        encode_header(&mut out, 0, 1);
        encode_batch(&mut out, TidWord::committed(1, 1), &sample_records());
        let intact = out.len();
        encode_batch(&mut out, TidWord::committed(1, 2), &sample_records());
        // Simulate a crash mid-flush: drop half of the second frame.
        out.truncate(intact + (out.len() - intact) / 2);
        let scan = decode_segment(&out).expect("header intact");
        assert!(scan.truncated_tail);
        assert_eq!(scan.batches.len(), 1);
        assert_eq!(scan.batches[0].0, TidWord::committed(1, 1));
    }

    #[test]
    fn corrupt_payload_is_discarded() {
        let mut out = Vec::new();
        encode_header(&mut out, 0, 1);
        encode_batch(&mut out, TidWord::committed(1, 1), &sample_records());
        let last = out.len() - 1;
        out[last] ^= 0xFF;
        let scan = decode_segment(&out).expect("header intact");
        assert!(scan.truncated_tail);
        assert!(scan.batches.is_empty());
    }

    #[test]
    fn foreign_file_is_rejected() {
        assert!(decode_segment(b"not a wal segment").is_none());
        assert!(decode_segment(b"").is_none());
    }

    #[test]
    fn delta_frame_roundtrip_is_smaller_than_full_image() {
        let before = Tuple::of([
            Value::Int(1),
            Value::Str("x".repeat(200)),
            Value::Str("y".repeat(200)),
            Value::Float(10.0),
        ]);
        let mut after = before.clone();
        after.values_mut()[3] = Value::Float(11.0);
        let record = delta_record(TidWord::committed(3, 9), &before, &after);

        let mut out = Vec::new();
        encode_header(&mut out, 0, 1);
        let header = out.len();
        encode_batch(
            &mut out,
            TidWord::committed(4, 1),
            std::slice::from_ref(&record),
        );
        let delta_bytes = out.len() - header;

        let scan = decode_segment(&out).expect("valid segment");
        assert_eq!(scan.batches.len(), 1);
        let decoded = &scan.batches[0].1[0];
        assert_eq!(decoded, &record, "delta substance roundtrips");
        let RedoPayload::Delta(row_delta) = &decoded.payload else {
            panic!("decoded record must stay a delta");
        };
        assert!(
            row_delta.image.is_none(),
            "the image is commit-path transport"
        );
        assert_eq!(row_delta.base, TidWord::committed(3, 9));
        assert_eq!(row_delta.delta.apply(&before).unwrap(), after);

        // The delta frame is far smaller than the same row logged in full.
        let mut full = Vec::new();
        encode_batch(
            &mut full,
            TidWord::committed(4, 1),
            &[RedoRecord {
                payload: RedoPayload::Full(after.clone()),
                ..record.clone()
            }],
        );
        assert!(
            delta_bytes * 4 < full.len(),
            "delta frame {delta_bytes}B vs full {}B",
            full.len()
        );
        // The analytic size helpers agree with the real encodings.
        assert_eq!(encoded_tuple_len(&after) + 1, {
            let mut t = Vec::new();
            put_tuple(&mut t, &after);
            t.len() + 1
        });
        if let RedoPayload::Delta(d) = &record.payload {
            let mut b = Vec::new();
            put_delta_body(&mut b, d.base, &d.delta);
            assert_eq!(encoded_delta_len(&d.delta), b.len());
        }
    }

    #[test]
    fn compressed_bodies_roundtrip_and_only_shrink() {
        // A zero-heavy wide row compresses well; the frame must roundtrip
        // byte-exactly through the RLE path.
        let row = Tuple::of([
            Value::Int(5),
            Value::Str("a".repeat(300)),
            Value::Int(0),
            Value::Int(0),
        ]);
        let record = RedoRecord {
            container: ContainerId(0),
            reactor: ReactorId(0),
            relation: "t".into(),
            key: Key::Int(5),
            payload: RedoPayload::Full(row.clone()),
        };
        let mut plain = Vec::new();
        encode_header(&mut plain, 0, 1);
        encode_batch(
            &mut plain,
            TidWord::committed(1, 1),
            std::slice::from_ref(&record),
        );
        let mut packed = Vec::new();
        encode_header(&mut packed, 0, 1);
        encode_batch_opts(
            &mut packed,
            TidWord::committed(1, 1),
            std::slice::from_ref(&record),
            true,
            |_, _| {},
        );
        assert!(packed.len() < plain.len(), "repetitive rows compress");
        let scan = decode_segment(&packed).expect("valid segment");
        assert_eq!(scan.batches[0].1[0], record);

        // Incompressible bodies stay raw: compression never grows a frame.
        let noisy: String = (0..300u32)
            .map(|i| char::from((33 + (i * 7 + i / 9) % 90) as u8))
            .collect();
        let noisy_record = RedoRecord {
            payload: RedoPayload::Full(Tuple::of([Value::Int(1), Value::Str(noisy)])),
            ..record.clone()
        };
        let mut raw = Vec::new();
        encode_batch(
            &mut raw,
            TidWord::committed(1, 2),
            std::slice::from_ref(&noisy_record),
        );
        let mut tried = Vec::new();
        encode_batch_opts(
            &mut tried,
            TidWord::committed(1, 2),
            std::slice::from_ref(&noisy_record),
            true,
            |_, _| {},
        );
        assert!(tried.len() <= raw.len());
        let mut header = Vec::new();
        encode_header(&mut header, 0, 1);
        header.extend_from_slice(&tried);
        assert_eq!(
            decode_segment(&header).unwrap().batches[0].1[0],
            noisy_record
        );
    }

    #[test]
    fn rle_roundtrips_and_rejects_length_lies() {
        for data in [
            Vec::new(),
            vec![0u8; 1000],
            vec![1, 2, 3, 4, 5],
            [vec![7u8; 200], vec![1, 2, 3], vec![0u8; 500]].concat(),
        ] {
            let packed = rle_compress(&data);
            assert_eq!(rle_decompress(&packed, data.len()).unwrap(), data);
            // Claiming any other length is rejected.
            if !data.is_empty() {
                assert!(rle_decompress(&packed, data.len() - 1).is_none());
                assert!(rle_decompress(&packed, data.len() + 1).is_none());
            }
        }
        // Truncated streams are rejected.
        let packed = rle_compress(&[9u8; 100]);
        assert!(rle_decompress(&packed[..packed.len() - 1], 100).is_none());
    }

    #[test]
    fn malformed_delta_bodies_are_rejected_not_misapplied() {
        let before = Tuple::of([Value::Int(1), Value::Int(2), Value::Int(3)]);
        let mut after = before.clone();
        after.values_mut()[1] = Value::Int(9);
        let record = delta_record(TidWord::committed(1, 1), &before, &after);
        let mut out = Vec::new();
        encode_header(&mut out, 0, 1);
        encode_batch(
            &mut out,
            TidWord::committed(2, 1),
            std::slice::from_ref(&record),
        );
        // Locate the delta body by layout: segment header (16) + frame
        // len/crc (8) + tid (8) + count (4) + container (8) + reactor (8)
        // + relation str16 "wide" (6) + key Int (9) = kind byte at 67,
        // followed by base (8), then the arity varint.
        let kind_pos = 16 + 8 + 8 + 4 + 8 + 8 + 6 + 9;
        assert_eq!(out[kind_pos], 2, "delta body kind byte");
        let arity_pos = kind_pos + 1 + 8;
        assert_eq!(out[arity_pos], 3, "arity varint");
        let mut corrupt = out.clone();
        corrupt[arity_pos + 2] = 7; // field offset 7 >= arity 3
                                    // Fix the CRC so only the *semantic* validation can reject it.
        let frame_start = 16; // header
        let len = u32::from_le_bytes(corrupt[frame_start..frame_start + 4].try_into().unwrap());
        let payload = corrupt[frame_start + 8..frame_start + 8 + len as usize].to_vec();
        let crc = crc32(&payload).to_le_bytes();
        corrupt[frame_start + 4..frame_start + 8].copy_from_slice(&crc);
        let scan = decode_segment(&corrupt).expect("header intact");
        assert!(scan.truncated_tail, "out-of-range field offset is rejected");
        assert!(scan.batches.is_empty());
    }

    proptest! {
        /// A random base image and a random chain of field changes
        /// roundtrip through encode → decode → apply to the exact final
        /// image, with and without record compression.
        #[test]
        fn prop_delta_chain_roundtrips_to_exact_final_image(
            base_vals in proptest::collection::vec(0i64..1000, 1..8),
            chain in proptest::collection::vec(
                proptest::collection::vec((0usize..8, -500i64..500), 0..4),
                1..6,
            ),
            compress in proptest::bool::ANY,
        ) {
            let base = Tuple::of(base_vals.clone());
            // Build the chain of images by applying random field writes.
            let mut images = vec![base.clone()];
            for step in &chain {
                let mut next = images.last().unwrap().clone();
                for (pos, val) in step {
                    let pos = pos % next.arity();
                    next.values_mut()[pos] = Value::Int(*val);
                }
                images.push(next);
            }
            // Encode every link as a delta frame.
            let mut out = Vec::new();
            encode_header(&mut out, 0, 1);
            for (i, window) in images.windows(2).enumerate() {
                let record = delta_record(
                    TidWord::committed(1, i as u64 + 1),
                    &window[0],
                    &window[1],
                );
                encode_batch_opts(
                    &mut out,
                    TidWord::committed(1, i as u64 + 2),
                    std::slice::from_ref(&record),
                    compress,
                    |_, _| {},
                );
            }
            let scan = decode_segment(&out).expect("valid segment");
            prop_assert!(!scan.truncated_tail);
            prop_assert_eq!(scan.batches.len(), images.len() - 1);
            // Re-apply the decoded chain onto the base image.
            let mut state = base;
            for (i, (_, records)) in scan.batches.iter().enumerate() {
                let RedoPayload::Delta(row_delta) = &records[0].payload else {
                    return Err("expected a delta record".to_string());
                };
                prop_assert_eq!(row_delta.base, TidWord::committed(1, i as u64 + 1));
                state = row_delta.delta.apply(&state).expect("arity preserved");
            }
            prop_assert_eq!(&state, images.last().unwrap());
        }

        /// Truncating a delta frame anywhere, or flipping any byte of it,
        /// never yields a *different* decoded batch: the scan either keeps
        /// the original record or rejects the tail. (CRC catches flips;
        /// the semantic delta validation backstops it.)
        #[test]
        fn prop_corrupted_delta_frames_never_misapply(
            cut in 0usize..200,
            flip in 0usize..200,
        ) {
            let before = Tuple::of([Value::Int(1), Value::Str("abcdef".into()), Value::Int(3)]);
            let mut after = before.clone();
            after.values_mut()[2] = Value::Int(42);
            let record = delta_record(TidWord::committed(1, 1), &before, &after);
            let mut out = Vec::new();
            encode_header(&mut out, 0, 1);
            encode_batch(&mut out, TidWord::committed(1, 2), std::slice::from_ref(&record));

            // Truncation: any prefix decodes to either the full record or
            // a rejected (empty, truncated) scan.
            let cut = 16 + (cut % (out.len() - 16));
            if let Some(scan) = decode_segment(&out[..cut]) {
                if let Some((_, records)) = scan.batches.first() {
                    prop_assert_eq!(&records[0], &record);
                } else {
                    prop_assert!(scan.truncated_tail || scan.batches.is_empty());
                }
            }

            // Byte flip: decode must yield the original record or nothing.
            let mut flipped = out.clone();
            let pos = 16 + (flip % (out.len() - 16));
            flipped[pos] ^= 0x55;
            if let Some(scan) = decode_segment(&flipped) {
                for (_, records) in &scan.batches {
                    prop_assert_eq!(&records[0], &record);
                }
            }
        }
    }
}
