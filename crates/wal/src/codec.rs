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
//! key       := 0 bool:u8 | 1 int:i64 | 2 str32 | 3 count:u16 key*
//! value     := 0 (null) | 1 int:i64 | 2 float:f64-bits | 3 str32 | 4 bool:u8
//! tuple     := arity:u32 value*
//! ```
//!
//! All integers are little-endian.
//!
//! Decoding tells a crash from damage. A short frame or a checksum
//! mismatch ends the scan of that segment as a torn tail: exactly what a
//! crash in the middle of a flush leaves behind. A frame whose checksum
//! matches but whose payload does not decode (an unknown body kind, say)
//! was written whole by something this decoder cannot read; the scan
//! stops there too and reports the frame's offset, so recovery can refuse
//! the file instead of reading it as shorter than it is.

use reactdb_common::bytes::crc32;
use reactdb_common::{ContainerId, Key, ReactorId, Value};
use reactdb_storage::{TidWord, Tuple};
use reactdb_txn::{RedoPayload, RedoRecord};

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
    encode_batch_accounted(out, tid, records, |_, _| {})
}

/// Like [`encode_batch`], invoking `account` with every record and its
/// encoded payload size — the hook behind per-table log-space accounting.
/// The frame overhead (length, CRC, TID, record count) is charged to the
/// first record so the per-table totals sum to the segment bytes.
pub fn encode_batch_accounted(
    out: &mut Vec<u8>,
    tid: TidWord,
    records: &[RedoRecord],
    mut account: impl FnMut(&RedoRecord, u64),
) -> usize {
    let mut payload = Vec::with_capacity(64 * records.len());
    put_u64(&mut payload, tid.raw());
    put_u32(&mut payload, records.len() as u32);
    // frame header (len + crc) + payload header (tid + count)
    let mut overhead = Some(4 + 4 + payload.len() as u64);
    for record in records {
        let before = payload.len();
        put_u64(&mut payload, record.container.raw());
        put_u64(&mut payload, record.reactor.raw());
        put_str16(&mut payload, &record.relation);
        put_key(&mut payload, &record.key);
        match &record.payload {
            RedoPayload::Delete => payload.push(0),
            RedoPayload::Full(tuple) => {
                payload.push(1);
                put_tuple(&mut payload, tuple);
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

    /// Reads one record body (kinds 0 and 1).
    fn body(&mut self) -> Option<RedoPayload> {
        match self.u8()? {
            0 => Some(RedoPayload::Delete),
            1 => Some(RedoPayload::Full(self.tuple()?)),
            _ => None,
        }
    }
}

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
    /// True when the segment ended with a short frame or a checksum
    /// mismatch (expected after a crash mid-flush; the tail is discarded).
    pub truncated_tail: bool,
    /// Byte offset of a frame whose checksum matched but whose payload did
    /// not decode. The scan stopped there. Such a frame is damage or a
    /// format this decoder cannot read, never a crash artifact.
    pub undecodable_at: Option<usize>,
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
    let mut undecodable_at = None;
    while r.pos < r.bytes.len() {
        let start = r.pos;
        let payload = (|| {
            let len = r.u32()? as usize;
            let crc = r.u32()?;
            let payload = r.take(len)?;
            (crc32(payload) == crc).then_some(payload)
        })();
        let Some(payload) = payload else {
            truncated_tail = true;
            break;
        };
        match decode_payload(payload) {
            Some(batch) => batches.push(batch),
            None => {
                undecodable_at = Some(start);
                break;
            }
        }
    }
    SegmentScan {
        batches,
        truncated_tail,
        undecodable_at,
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
    fn a_checksum_valid_frame_that_does_not_decode_is_reported_not_torn() {
        let mut out = Vec::new();
        encode_header(&mut out, 0, 1);
        encode_batch(&mut out, TidWord::committed(1, 1), &sample_records());
        let second = out.len();
        // A whole, checksummed frame whose one record has body kind 2, a
        // kind this decoder does not read.
        let mut frame = Vec::new();
        encode_batch(&mut frame, TidWord::committed(1, 2), &sample_records()[..1]);
        let payload_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        let kind = 8 + 8 + 4 + 8 + 8 + 2 + "savings".len() + 9;
        assert_eq!(frame[kind], 1, "full-image body kind");
        frame[kind] = 2;
        let crc = crc32(&frame[8..8 + payload_len]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&frame);
        encode_batch(&mut out, TidWord::committed(1, 3), &sample_records());

        let scan = decode_segment(&out).expect("header intact");
        assert_eq!(scan.batches.len(), 1, "the scan stops at the frame");
        assert!(!scan.truncated_tail, "a whole frame is no torn tail");
        assert_eq!(scan.undecodable_at, Some(second));
    }

    proptest! {
        /// Truncating a frame anywhere, or flipping any byte of it, never
        /// yields a *different* decoded batch: the scan either keeps the
        /// original records or stops.
        #[test]
        fn prop_corrupted_frames_never_misapply(
            cut in 0usize..200,
            flip in 0usize..200,
        ) {
            let records = sample_records();
            let mut out = Vec::new();
            encode_header(&mut out, 0, 1);
            encode_batch(&mut out, TidWord::committed(1, 2), &records);

            let cut = 16 + (cut % (out.len() - 16));
            let scan = decode_segment(&out[..cut]).expect("header intact");
            prop_assert!(scan.batches.is_empty());
            prop_assert!(scan.truncated_tail || cut == 16);

            let mut flipped = out.clone();
            let pos = 16 + (flip % (out.len() - 16));
            flipped[pos] ^= 0x55;
            let scan = decode_segment(&flipped).expect("header intact");
            for (_, decoded) in &scan.batches {
                prop_assert_eq!(decoded, &records);
            }
        }
    }
}
