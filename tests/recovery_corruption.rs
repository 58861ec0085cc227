//! Recovery refuses what it cannot read; it never reads it as absent.
//!
//! Each test damages a scratch copy of the fixture log directory
//! (`tests/fixtures/logdir`, see `tests/format_fixtures.rs`) and runs
//! `ReactDB::recover` on it. Recovery must either return the clean
//! directory's state digest or fail with an error naming the damaged file,
//! and after a failure the directory must be byte-identical to before: no
//! compaction, no segment retirement, no orphan cleanup.
//!
//! The durable-epoch marker, the checkpoint manifest and its parts are
//! installed only by tmp + fsync + rename, and every byte of them is under
//! a checksum or a stamp the manifest repeats, so each flipped bit below is
//! refused. A segment whose *header* is damaged is a foreign file and is
//! left alone, and a checksum mismatch in a segment frame is the torn tail
//! a crash leaves. Files in formats no longer read
//! (`tests/fixtures/legacy-delta`) are refused the same way as damage.

mod support;

use std::fs;
use std::path::{Path, PathBuf};

use support::fixtures::{self, fixture, LOGDIR_DIGEST};

/// Recovers `dir` and checks the outcome against the clean digest.
/// Returns the error message when recovery refused.
fn recover_clean_or_refuse(dir: &Path, file: &str) -> Option<String> {
    let before = fixtures::snapshot(dir);
    match fixtures::recover(dir) {
        Ok(db) => {
            assert_eq!(
                fixtures::state_digest(&db),
                LOGDIR_DIGEST,
                "damage in {file} recovered to a different state"
            );
            None
        }
        Err(e) => {
            let message = e.to_string();
            assert!(message.contains(file), "{message} should name {file}");
            assert!(
                fixtures::snapshot(dir) == before,
                "a refused recovery changed the directory ({message})"
            );
            Some(message)
        }
    }
}

/// A scratch copy of the fixture log directory with bit `bit` of byte
/// `offset` of `file` flipped.
fn flipped_copy(file: &str, offset: usize, bit: u32) -> PathBuf {
    let dir = fixtures::logdir_copy(&format!("flip-{file}-{offset}-{bit}"));
    let path = dir.join(file);
    let mut bytes = fs::read(&path).unwrap();
    bytes[offset] ^= 1 << bit;
    fs::write(&path, bytes).unwrap();
    dir
}

/// `count` offsets into a file of `len` bytes: its first and last byte
/// plus a fixed pseudo-random sample, the same on every run.
fn seeded_offsets(len: usize, count: usize) -> Vec<usize> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut offsets = vec![0, len - 1];
    while offsets.len() < count {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        offsets.push((state % len as u64) as usize);
    }
    offsets
}

/// The name of the one file in the fixture log directory ending in
/// `suffix`, the first when there are several.
fn fixture_file(suffix: &str) -> String {
    let mut names: Vec<String> = fs::read_dir(fixture("logdir"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(suffix))
        .collect();
    names.sort();
    names.remove(0)
}

fn assert_every_flip_is_refused(file: &str, offsets: &[usize]) {
    for &offset in offsets {
        let bit = (offset % 8) as u32;
        let dir = flipped_copy(file, offset, bit);
        assert!(
            recover_clean_or_refuse(&dir, file).is_some(),
            "bit {bit} of byte {offset} of {file} flipped, yet recovery succeeded"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_undamaged_fixture_recovers_to_its_digest() {
    let dir = fixtures::logdir_copy("clean");
    assert_eq!(recover_clean_or_refuse(&dir, "none"), None);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_bit_at_any_offset_of_the_marker_is_refused() {
    let offsets: Vec<usize> = (0..20).collect();
    assert_every_flip_is_refused("durable_epoch", &offsets);
}

#[test]
fn a_flipped_bit_in_the_manifest_is_refused() {
    let len = fs::read(fixture("logdir/checkpoint-manifest"))
        .unwrap()
        .len();
    assert_every_flip_is_refused("checkpoint-manifest", &seeded_offsets(len, 24));
}

#[test]
fn a_flipped_bit_in_a_checkpoint_part_is_refused() {
    let part = fixture_file(".dat");
    let len = fs::read(fixture("logdir").join(&part)).unwrap().len();
    assert_every_flip_is_refused(&part, &seeded_offsets(len, 24));
}

#[test]
fn a_damaged_segment_header_marks_a_foreign_file_that_is_left_alone() {
    let segment = fixture_file(".log");
    for offset in 0..16 {
        let dir = flipped_copy(&segment, offset, 0);
        let damaged = fs::read(dir.join(&segment)).unwrap();
        let db = fixtures::recover(&dir).expect("a foreign file is no reason to refuse");
        if offset >= 8 {
            // Executor and generation are not read back: the segment still
            // decodes, so nothing is lost.
            assert_eq!(fixtures::state_digest(&db), LOGDIR_DIGEST);
        } else {
            assert_eq!(
                fs::read(dir.join(&segment)).unwrap(),
                damaged,
                "a segment with a foreign magic is neither compacted nor deleted"
            );
        }
        drop(db);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_checksum_mismatch_in_a_segment_frame_is_a_torn_tail() {
    let segment = fixture_file(".log");
    let len = fs::read(fixture("logdir").join(&segment)).unwrap().len();
    let dir = flipped_copy(&segment, len - 1, 0);
    let db = fixtures::recover(&dir).expect("a torn tail is what a crash leaves");
    assert!(db.metrics().counter("recovered_checkpoint_rows").unwrap() > 0);
    drop(db);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_segment_with_delta_or_compressed_frames_is_refused() {
    let name = "wal-e0000-g000099.log";
    let dir = fixtures::logdir_copy("legacy-segment");
    fs::copy(fixture("legacy-delta").join(name), dir.join(name)).unwrap();
    // Debris a clean recovery would sweep stays too: cleanup runs only
    // after every check has passed.
    fs::write(dir.join("ckpt-p00.tmp"), b"torn part").unwrap();
    let message = recover_clean_or_refuse(&dir, name).expect("body kinds 2-4 do not decode");
    assert!(message.contains("does not decode"), "{message}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_two_layer_manifest_is_refused() {
    let name = "checkpoint-manifest";
    let dir = fixtures::logdir_copy("legacy-manifest");
    fs::copy(fixture("legacy-delta").join(name), dir.join(name)).unwrap();
    let message = recover_clean_or_refuse(&dir, name).expect("a layer chain is not read");
    assert!(message.contains("one-layer"), "{message}");
    let _ = fs::remove_dir_all(&dir);
}
