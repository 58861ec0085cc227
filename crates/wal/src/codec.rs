//! Binary encoding of redo batches.
//!
//! A log segment is a fixed header followed by batch frames. The frame,
//! the integers, the strings and the [`Value`] tags are the shared byte
//! layer of [`reactdb_common::bytes`]; this module adds what only the WAL
//! knows:
//!
//! ```text
//! segment   := header frame*
//! header    := magic:[u8;8] executor:u32 generation:u32
//! payload   := tid:u64 record_count:u32 record*
//! record    := container:u64 reactor:u64 relation:str16 key body
//! body      := 0                                   (delete tombstone)
//!            | 1 tuple                             (full image)
//! key       := 0 bool:u8 | 1 int:i64 | 2 str32 | 3 count:u16 key*
//! tuple     := arity:u32 value*
//! ```
//!
//! Decoding tells a crash from damage. A short frame or a checksum
//! mismatch ends the scan of that segment as a torn tail: exactly what a
//! crash in the middle of a flush leaves behind. A frame whose checksum
//! matches but whose payload does not decode (an unknown body kind, say)
//! was written whole by something this decoder cannot read; the scan
//! stops there too and reports the frame's offset, so recovery can refuse
//! the file instead of reading it as shorter than it is.

use reactdb_common::bytes::{
    put_frame, put_str16, put_str32, put_u16, put_u32, put_u64, put_value, split_frame,
    DecodeError, Reader,
};
use reactdb_common::{ContainerId, Key, ReactorId};
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

fn put_key(out: &mut Vec<u8>, key: &Key) {
    match key {
        Key::Bool(b) => {
            out.push(0);
            out.push(*b as u8);
        }
        Key::Int(v) => {
            out.push(1);
            put_u64(out, *v as u64);
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
    put_frame(out, &payload);
    out.len() - before
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn key(r: &mut Reader<'_>) -> Result<Key, DecodeError> {
    match r.u8()? {
        0 => Ok(Key::Bool(r.u8()? != 0)),
        1 => Ok(Key::Int(r.i64()?)),
        2 => Ok(Key::Str(r.str32()?)),
        3 => {
            let count = r.u16()? as usize;
            let mut parts = Vec::with_capacity(count.min(64));
            for _ in 0..count {
                parts.push(key(r)?);
            }
            Ok(Key::Composite(parts))
        }
        tag => Err(DecodeError::UnknownTag { what: "key", tag }),
    }
}

fn tuple(r: &mut Reader<'_>) -> Result<Tuple, DecodeError> {
    let arity = r.u32()? as usize;
    let mut values = Vec::with_capacity(arity.min(1024));
    for _ in 0..arity {
        values.push(r.value()?);
    }
    Ok(Tuple::new(values))
}

/// Reads one record body (kinds 0 and 1).
fn body(r: &mut Reader<'_>) -> Result<RedoPayload, DecodeError> {
    match r.u8()? {
        0 => Ok(RedoPayload::Delete),
        1 => Ok(RedoPayload::Full(tuple(r)?)),
        tag => Err(DecodeError::UnknownTag { what: "body", tag }),
    }
}

/// Decodes one batch payload (without the frame header); `None` when it
/// does not decode whole.
fn decode_payload(payload: &[u8]) -> Option<(TidWord, Vec<RedoRecord>)> {
    let decode = || {
        let mut r = Reader::new(payload);
        let tid = TidWord(r.u64()?);
        let count = r.u32()? as usize;
        let mut records = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            records.push(RedoRecord {
                container: ContainerId(r.u64()?),
                reactor: ReactorId(r.u64()?),
                relation: r.str16()?,
                key: key(&mut r)?,
                payload: body(&mut r)?,
            });
        }
        r.finish()?;
        Ok::<_, DecodeError>((tid, records))
    };
    decode().ok()
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

/// The offset of a segment's first frame, past its header; `None` when
/// the header is missing or foreign.
pub fn segment_frames_start(bytes: &[u8]) -> Option<usize> {
    let mut r = Reader::new(bytes);
    let magic = r.take(SEGMENT_MAGIC.len()).ok()?;
    let (_executor, _generation) = (r.u32().ok()?, r.u32().ok()?);
    (magic == SEGMENT_MAGIC).then_some(bytes.len() - r.remaining())
}

/// Decodes a whole segment (header + frames). Returns `None` when the
/// header itself is missing or foreign.
pub fn decode_segment(bytes: &[u8]) -> Option<SegmentScan> {
    Some(decode_frames(bytes, segment_frames_start(bytes)?))
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
    let header = || {
        let mut r = Reader::new(bytes);
        let magic = r.take(CHECKPOINT_MAGIC.len())?;
        let stamps = (r.u64()?, r.u64()?, r.u32()?);
        Ok::<_, DecodeError>((magic == CHECKPOINT_MAGIC).then_some((stamps, r.remaining())))
    };
    let ((seq, epoch, part), rest) = header().ok()??;
    Some(CheckpointScan {
        seq,
        epoch,
        part,
        scan: decode_frames(bytes, bytes.len() - rest),
    })
}

/// Shared frame-stream decoder behind segment and checkpoint scans, from
/// byte `pos` of `bytes`.
fn decode_frames(bytes: &[u8], mut pos: usize) -> SegmentScan {
    let mut batches = Vec::new();
    let mut truncated_tail = false;
    let mut undecodable_at = None;
    while pos < bytes.len() {
        // A short frame or a checksum mismatch is the torn tail.
        let Ok(Some((payload, consumed))) = split_frame(&bytes[pos..], u32::MAX) else {
            truncated_tail = true;
            break;
        };
        match decode_payload(payload) {
            Some(batch) => batches.push(batch),
            None => {
                undecodable_at = Some(pos);
                break;
            }
        }
        pos += consumed;
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
    use reactdb_common::bytes::crc32;
    use reactdb_common::Value;

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
