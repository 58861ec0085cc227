//! Log shipping: the primary-side cursor that turns a live log directory
//! into a replication stream.
//!
//! Replication reuses durability's on-disk artifacts instead of inventing
//! a second commit path: the shipped stream *is* the WAL. A
//! [`ShipCursor`] walks the primary's log directory and yields
//! [`ShipEvent`]s — raw byte ranges of checkpoint files and log segments,
//! interleaved with durable-epoch markers:
//!
//! * On the first poll the installed checkpoint is shipped whole (part
//!   files first, manifest last, so the follower never observes a
//!   manifest referencing parts it does not have). The follower boots
//!   from it through the same parallel loader recovery uses
//!   ([`crate::checkpoint::load_checkpoint`]).
//! * Every poll then tails the `wal-*.log` segments: per segment the
//!   cursor remembers how many bytes it shipped and walks the *new*
//!   complete frames, shipping exactly the prefix whose commit epochs the
//!   on-disk durable-epoch marker covers. Within one segment epochs are
//!   non-decreasing, so stopping at the first too-new frame is exact —
//!   nothing volatile ever leaves the primary, which is what lets a
//!   follower acknowledge an epoch as *replicated* without second-guessing
//!   the primary's group commit.
//! * After the file chunks, a [`ShipEvent::DurableEpoch`] announces every
//!   advance of the durable epoch. The follower applies staged frames up
//!   to that epoch and acknowledges it; epochs are the unit of replication
//!   exactly as they are the unit of group commit.
//!
//! The cursor is deliberately decoupled from the live [`crate::Wal`]: it
//! reads the directory like a second recovery would, so it needs no hooks
//! in the commit path and ships only what an actual crash-recovery of the
//! primary would also see. The one race it cannot hide is checkpoint
//! truncation deleting a segment it has not fully shipped; that surfaces
//! as an error and the follower resubscribes from the (new) checkpoint.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use reactdb_common::bytes::{split_frame, Reader};
use reactdb_storage::TidWord;

use crate::checkpoint::MANIFEST_FILE;
use crate::codec;
use crate::failpoint;

/// One replication stream event produced by [`ShipCursor::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipEvent {
    /// `bytes` of the log-directory file `name`, starting at byte
    /// `offset`. The follower stages the file at the same name and offset;
    /// names are always plain file names (no directories).
    File {
        /// File name inside the log directory.
        name: String,
        /// Byte offset this chunk starts at.
        offset: u64,
        /// The raw bytes.
        bytes: Vec<u8>,
    },
    /// Every frame with a commit epoch `<= epoch` has been shipped; the
    /// follower may apply through `epoch` and acknowledge it.
    DurableEpoch(u64),
}

/// Primary-side shipping cursor over a live log directory.
///
/// Stateful: remembers which checkpoint it shipped and the shipped byte
/// offset of every segment. One cursor serves one follower subscription;
/// it performs no I/O besides reads and holds no locks, so any number may
/// run against the directory of a live [`crate::Wal`].
#[derive(Debug)]
pub struct ShipCursor {
    dir: PathBuf,
    /// The directory's file name, offered as the failpoint scope so tests
    /// can fault one cursor without tripping every other one in the
    /// process (see [`failpoint::fire_scoped`]).
    scope: String,
    /// Upper bound on one [`ShipEvent::File`] chunk.
    chunk_bytes: usize,
    /// Shipped-byte high-water mark per segment file name.
    offsets: HashMap<String, u64>,
    /// The checkpoint is shipped once, on the first poll.
    shipped_checkpoint: bool,
    /// Last durable epoch announced to the follower.
    announced_epoch: u64,
}

impl ShipCursor {
    /// A cursor over `dir` emitting file chunks of at most `chunk_bytes`
    /// (clamped to at least 4 KiB).
    pub fn new(dir: &Path, chunk_bytes: usize) -> Self {
        let scope = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        Self {
            dir: dir.to_path_buf(),
            scope,
            chunk_bytes: chunk_bytes.max(4 * 1024),
            offsets: HashMap::new(),
            shipped_checkpoint: false,
            announced_epoch: 0,
        }
    }

    /// Collects everything newly shippable: checkpoint files on the first
    /// call, then the durable log tail of every segment, then the durable
    /// epoch when it advanced. Returns an empty vector when nothing new is
    /// durable. Errors are fatal to the subscription (the follower
    /// resubscribes with a fresh cursor): a tracked segment shrank or
    /// vanished mid-ship, or the directory itself went away.
    pub fn poll(&mut self) -> io::Result<Vec<ShipEvent>> {
        let mut events = Vec::new();
        let durable = crate::read_marker(&self.dir)?.unwrap_or(0);

        if !self.shipped_checkpoint {
            self.ship_checkpoint(&mut events)?;
            self.shipped_checkpoint = true;
        }

        let segments = crate::list_segments(&self.dir)?;
        // Fault injection: behave exactly as if a checkpoint truncation
        // deleted a tracked segment between the listing and the read.
        if !self.offsets.is_empty() {
            failpoint::check_scoped("truncate-under-cursor", &self.scope).map_err(|e| {
                io::Error::other(format!(
                    "{e}: segment vanished mid-ship (checkpoint truncation?); resubscribe"
                ))
            })?;
        }
        for name in self.offsets.keys() {
            if !segments.iter().any(|p| p.ends_with(name.as_str())) {
                return Err(io::Error::other(format!(
                    "segment {name} vanished mid-ship (checkpoint truncation?); resubscribe"
                )));
            }
        }
        // A durable frame that fails its checksum cannot ship, so no epoch
        // is announced past it: the follower would ack frames it lacks.
        let mut damaged = false;
        for path in segments {
            damaged |= self.ship_segment_tail(&path, durable, &mut events)?;
        }

        if durable > self.announced_epoch && !damaged {
            self.announced_epoch = durable;
            events.push(ShipEvent::DurableEpoch(durable));
        }
        Ok(events)
    }

    /// The last durable epoch announced downstream.
    pub fn announced_epoch(&self) -> u64 {
        self.announced_epoch
    }

    /// Ships the installed checkpoint raw: every `ckpt-*.dat` part
    /// file first, the manifest last. Extra (orphaned) part files are
    /// harmless downstream — the loader reads only manifest-referenced
    /// parts. No checkpoint installed means nothing to ship; the follower
    /// then bootstraps from the log alone.
    fn ship_checkpoint(&mut self, events: &mut Vec<ShipEvent>) -> io::Result<()> {
        let manifest_path = self.dir.join(MANIFEST_FILE);
        if !manifest_path.exists() {
            return Ok(());
        }
        let mut files: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("ckpt-") && name.ends_with(".dat") {
                files.push(path);
            }
        }
        files.sort();
        files.push(manifest_path);
        for path in files {
            self.push_chunks(&file_name(&path)?, 0, &fs::read(&path)?, events);
        }
        Ok(())
    }

    /// Queues `bytes`, which start at byte `start` of file `name`, as
    /// chunks of at most `chunk_bytes`. Empty `bytes` still queue one
    /// chunk, so an empty file materializes downstream.
    fn push_chunks(&self, name: &str, start: u64, bytes: &[u8], events: &mut Vec<ShipEvent>) {
        let mut offset = 0;
        loop {
            let end = (offset + self.chunk_bytes).min(bytes.len());
            events.push(ShipEvent::File {
                name: name.to_owned(),
                offset: start + offset as u64,
                bytes: bytes[offset..end].to_vec(),
            });
            offset = end;
            if offset >= bytes.len() {
                return;
            }
        }
    }

    /// Ships the new durable frames of one segment, from the remembered
    /// offset to the end of the durable prefix. Only the bytes past that
    /// offset are read: an untracked segment is read from 0, so its magic
    /// is checked, and a tracked one from where its last chunk ended.
    /// Returns true when the walk stopped at a whole frame that fails its
    /// checksum.
    fn ship_segment_tail(
        &mut self,
        path: &Path,
        durable: u64,
        events: &mut Vec<ShipEvent>,
    ) -> io::Result<bool> {
        let name = file_name(path)?;
        let shipped = self.offsets.get(&name).copied();
        let mut file = match fs::File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound && shipped.is_none() => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(io::Error::other(format!(
                    "segment {name} vanished mid-ship (checkpoint truncation?); resubscribe"
                )));
            }
            Err(e) => return Err(e),
        };
        let start = shipped.unwrap_or(0);
        if file.metadata()?.len() < start {
            return Err(io::Error::other(format!(
                "segment {name} shrank below the shipped offset; resubscribe"
            )));
        }
        file.seek(SeekFrom::Start(start))?;
        let mut tail = Vec::new();
        file.read_to_end(&mut tail)?;
        let frames_from = match shipped {
            Some(_) => 0,
            None => match codec::segment_frames_start(&tail) {
                Some(at) => at,
                None => return Ok(false), // header not flushed yet, or a foreign file
            },
        };
        let (end, damaged) = durable_prefix_end(&tail, frames_from, durable);
        // The header ships with the first durable frame; a segment with no
        // durable frame yet ships nothing and stays untracked, so its
        // disappearance (e.g. discarded by a compaction) is not an error.
        if end <= frames_from {
            return Ok(damaged);
        }
        self.push_chunks(&name, start, &tail[..end], events);
        // Fault injection: the stream dies with this segment's new chunks
        // queued but unrecorded. The offsets map is not advanced on the
        // error path and the durable-epoch event never goes out, so a
        // resubscribing cursor re-ships the range — the same shape as a
        // connection cut mid-file.
        failpoint::check_scoped("ship-mid-file", &self.scope)
            .map_err(|e| io::Error::other(format!("{e}: stream cut mid-segment; resubscribe")))?;
        self.offsets.insert(name, start + end as u64);
        Ok(damaged)
    }
}

fn file_name(path: &Path) -> io::Result<String> {
    path.file_name()
        .and_then(|n| n.to_str())
        .map(str::to_owned)
        .ok_or_else(|| io::Error::other("segment path has no UTF-8 file name"))
}

/// Walks whole frames from `start`, returning the end offset of the
/// prefix whose commit epochs are `<= durable`, and whether the walk
/// stopped at a whole frame that fails its checksum. Per-segment epochs
/// are non-decreasing (writers buffer per epoch and flush in fence order),
/// so the first too-new frame ends the prefix exactly. An incomplete frame
/// or a payload too short for its TID ends the walk too: it belongs to an
/// unflushed or torn tail that a later poll (or no one) will cover. A
/// damaged frame ends it because the follower's own scan would drop it.
fn durable_prefix_end(bytes: &[u8], start: usize, durable: u64) -> (usize, bool) {
    let mut pos = start;
    loop {
        let (payload, consumed) = match split_frame(&bytes[pos..], u32::MAX) {
            Ok(Some(frame)) => frame,
            Ok(None) => return (pos, false),
            Err(_) => return (pos, true),
        };
        let Ok(tid) = Reader::new(payload).u64() else {
            return (pos, false);
        };
        if TidWord(tid).epoch() > durable {
            return (pos, false);
        }
        pos += consumed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::temp_dir;
    use reactdb_common::{ContainerId, Key, ReactorId, Value};
    use reactdb_storage::Tuple;
    use reactdb_txn::{RedoPayload, RedoRecord};

    fn record(amount: f64) -> RedoRecord {
        RedoRecord {
            container: ContainerId(0),
            reactor: ReactorId(0),
            relation: "balance".into(),
            key: Key::Int(0),
            payload: RedoPayload::Full(Tuple::of([Value::Int(0), Value::Float(amount)])),
        }
    }

    fn write_segment(dir: &Path, executor: u32, batches: &[(TidWord, Vec<RedoRecord>)]) -> String {
        let mut out = Vec::new();
        codec::encode_header(&mut out, executor, 1);
        for (tid, records) in batches {
            codec::encode_batch(&mut out, *tid, records);
        }
        let name = format!("wal-e{executor:04}-g000001.log");
        fs::write(dir.join(&name), out).unwrap();
        name
    }

    fn apply_events(staged: &mut HashMap<String, Vec<u8>>, events: &[ShipEvent]) -> u64 {
        let mut epoch = 0;
        for event in events {
            match event {
                ShipEvent::File {
                    name,
                    offset,
                    bytes,
                } => {
                    let file = staged.entry(name.clone()).or_default();
                    let offset = *offset as usize;
                    assert!(offset <= file.len(), "no gaps in the shipped stream");
                    file.truncate(offset);
                    file.extend_from_slice(bytes);
                }
                ShipEvent::DurableEpoch(e) => epoch = *e,
            }
        }
        epoch
    }

    #[test]
    fn ships_only_the_durable_prefix_and_tracks_growth() {
        let dir = temp_dir("prefix");
        let durable_batch = (TidWord::committed(2, 1), vec![record(1.0)]);
        let volatile_batch = (TidWord::committed(5, 1), vec![record(2.0)]);
        let name = write_segment(&dir, 0, &[durable_batch.clone(), volatile_batch.clone()]);
        crate::write_marker(&dir, 2).unwrap();

        let mut cursor = ShipCursor::new(&dir, 1 << 20);
        let mut staged = HashMap::new();
        let epoch = apply_events(&mut staged, &cursor.poll().unwrap());
        assert_eq!(epoch, 2);
        let scan = codec::decode_segment(&staged[&name]).expect("staged segment decodes");
        assert_eq!(scan.batches, vec![durable_batch.clone()]);

        // The marker advances: the next poll ships exactly the held-back
        // frame, nothing twice.
        crate::write_marker(&dir, 5).unwrap();
        let events = cursor.poll().unwrap();
        assert!(
            events
                .iter()
                .all(|e| !matches!(e, ShipEvent::File { offset: 0, .. })),
            "already-shipped bytes are not re-shipped: {events:?}"
        );
        let epoch = apply_events(&mut staged, &events);
        assert_eq!(epoch, 5);
        let scan = codec::decode_segment(&staged[&name]).unwrap();
        assert_eq!(scan.batches, vec![durable_batch, volatile_batch]);

        // Quiescent directory: polls go quiet.
        assert!(cursor.poll().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_durable_frame_ends_the_shipped_prefix() {
        let dir = temp_dir("damaged");
        let batches: Vec<_> = (1..=3)
            .map(|i| (TidWord::committed(2, i), vec![record(i as f64)]))
            .collect();
        let name = write_segment(&dir, 0, &batches);
        crate::write_marker(&dir, 2).unwrap();
        // Three equal frames follow the header: flip the last payload byte
        // of the second.
        let mut bytes = fs::read(dir.join(&name)).unwrap();
        let header = codec::segment_frames_start(&bytes).unwrap();
        let frame_len = (bytes.len() - header) / 3;
        bytes[header + 2 * frame_len - 1] ^= 0x01;
        fs::write(dir.join(&name), &bytes).unwrap();

        let mut cursor = ShipCursor::new(&dir, 1 << 20);
        let mut staged = HashMap::new();
        let epoch = apply_events(&mut staged, &cursor.poll().unwrap());
        assert_eq!(
            staged[&name],
            bytes[..header + frame_len],
            "the cursor stops before the damaged frame"
        );
        assert_eq!(epoch, 0, "no epoch is announced past a frame not shipped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunking_reassembles_byte_identically() {
        let dir = temp_dir("chunks");
        let batches: Vec<_> = (1..=40)
            .map(|i| (TidWord::committed(3, i), vec![record(i as f64)]))
            .collect();
        let name = write_segment(&dir, 1, &batches);
        crate::write_marker(&dir, 3).unwrap();
        let original = fs::read(dir.join(&name)).unwrap();

        // Chunk size clamps to 4 KiB, far below the segment size here.
        let mut cursor = ShipCursor::new(&dir, 1);
        let events = cursor.poll().unwrap();
        let files = events
            .iter()
            .filter(|e| matches!(e, ShipEvent::File { .. }))
            .count();
        let mut staged = HashMap::new();
        apply_events(&mut staged, &events);
        assert_eq!(staged[&name], original, "chunks reassemble exactly");
        assert!(files >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_poll_ships_checkpoint_parts_before_the_manifest() {
        let dir = temp_dir("ckpt");
        fs::write(dir.join("ckpt-000001-p00.dat"), b"part-bytes").unwrap();
        fs::write(dir.join(MANIFEST_FILE), b"manifest-bytes").unwrap();
        crate::write_marker(&dir, 1).unwrap();

        let mut cursor = ShipCursor::new(&dir, 1 << 20);
        let events = cursor.poll().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                ShipEvent::File { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        let part_pos = names
            .iter()
            .position(|n| n.starts_with("ckpt-"))
            .expect("part shipped");
        let manifest_pos = names
            .iter()
            .position(|n| *n == MANIFEST_FILE)
            .expect("manifest shipped");
        assert!(
            part_pos < manifest_pos,
            "parts precede the manifest so the follower never sees dangling references"
        );
        // Second poll does not re-ship the checkpoint.
        assert!(cursor.poll().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn vanished_tracked_segment_is_a_fatal_stream_error() {
        let dir = temp_dir("vanish");
        let name = write_segment(&dir, 0, &[(TidWord::committed(1, 1), vec![record(1.0)])]);
        crate::write_marker(&dir, 1).unwrap();
        let mut cursor = ShipCursor::new(&dir, 1 << 20);
        cursor.poll().unwrap();
        fs::remove_file(dir.join(&name)).unwrap();
        // An untracked-but-gone segment is fine; a tracked one is fatal.
        assert!(cursor.poll().is_err(), "mid-ship truncation must surface");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_under_cursor_failpoint_faults_a_tracking_cursor_once() {
        let dir = temp_dir("fp-truncate");
        let scope = dir.file_name().unwrap().to_str().unwrap();
        write_segment(&dir, 0, &[(TidWord::committed(1, 1), vec![record(1.0)])]);
        crate::write_marker(&dir, 1).unwrap();

        let mut cursor = ShipCursor::new(&dir, 1 << 20);
        // Armed before the first poll: a cursor tracking nothing yet has
        // nothing a truncation could race, so the point must not fire.
        failpoint::arm(&format!("truncate-under-cursor@{scope}=err:1")).unwrap();
        assert!(cursor.poll().is_ok(), "untracked cursor is not faulted");
        let err = cursor.poll().expect_err("tracked cursor is faulted");
        assert!(err.to_string().contains("resubscribe"), "{err}");
        // Budget spent: the stream heals on resubscribe.
        let mut fresh = ShipCursor::new(&dir, 1 << 20);
        assert!(fresh.poll().is_ok());
        assert_eq!(
            failpoint::hits(&format!("truncate-under-cursor@{scope}")),
            1
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ship_mid_file_failpoint_loses_nothing_across_resubscribe() {
        let dir = temp_dir("fp-midfile");
        let scope = dir.file_name().unwrap().to_str().unwrap().to_string();
        let batches: Vec<_> = (1..=10)
            .map(|i| (TidWord::committed(2, i), vec![record(i as f64)]))
            .collect();
        let name = write_segment(&dir, 0, &batches);
        crate::write_marker(&dir, 2).unwrap();
        let original = fs::read(dir.join(&name)).unwrap();

        failpoint::arm(&format!("ship-mid-file@{scope}=err:1")).unwrap();
        let mut cursor = ShipCursor::new(&dir, 1 << 20);
        assert!(cursor.poll().is_err(), "first poll dies mid-segment");
        // The follower reconnects with a fresh cursor; the stream re-ships
        // the whole range and reassembles byte-identically.
        let mut fresh = ShipCursor::new(&dir, 1 << 20);
        let mut staged = HashMap::new();
        let epoch = apply_events(&mut staged, &fresh.poll().unwrap());
        assert_eq!(epoch, 2);
        assert_eq!(staged[&name], original);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_marker_means_nothing_ships() {
        let dir = temp_dir("nomarker");
        write_segment(&dir, 0, &[(TidWord::committed(1, 1), vec![record(1.0)])]);
        let mut cursor = ShipCursor::new(&dir, 1 << 20);
        assert!(
            cursor.poll().unwrap().is_empty(),
            "without a durable epoch every frame is volatile"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
