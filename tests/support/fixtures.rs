//! The committed on-disk fixtures under `tests/fixtures/`, and what the
//! tests that read them share: where they live, the deployment the
//! fixture log directory recovers under, a digest of recovered state, and
//! byte-level directory snapshots.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use reactdb::common::{CheckpointConfig, DeploymentConfig, DurabilityConfig};
use reactdb::engine::ReactDB;
use reactdb::workloads::smallbank::{self, customer_name};

/// SmallBank customers in the fixture log directory.
pub const LOGDIR_CUSTOMERS: usize = 3;

/// Digest of the state `tests/fixtures/logdir` recovers to
/// ([`state_digest`]). Printed by the bless run that regenerates the
/// directory.
pub const LOGDIR_DIGEST: u64 = 0x014c_cde6_138a_8183;

/// A file or directory under `tests/fixtures/`.
pub fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A fresh, empty scratch directory for one test.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reactdb-fixture-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deployment the fixture log directory was written by and recovers
/// under: SmallBank on one executor, epoch-sync durability, checkpoints
/// split across two part files.
pub fn logdir_config(dir: &Path) -> DeploymentConfig {
    DeploymentConfig::shared_nothing(1)
        .with_durability(
            DurabilityConfig::epoch_sync(dir.to_string_lossy().into_owned()).with_interval_ms(0),
        )
        .with_checkpoint(CheckpointConfig::manual().with_workers(2))
}

/// Copies every regular file of `src` into `dst` (created if needed).
pub fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
        }
    }
}

/// Every file of `dir` by name, with its bytes.
pub fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&path).unwrap())
        })
        .collect()
}

/// A scratch copy of the fixture log directory, ready for
/// `ReactDB::recover`. The advisory `LOCK` file that recovery creates is
/// created up front, so a snapshot taken now is comparable byte for byte
/// with one taken after a refused recovery.
pub fn logdir_copy(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    copy_dir(&fixture("logdir"), &dir);
    fs::write(dir.join("LOCK"), b"").unwrap();
    dir
}

/// FNV-1a digest of every visible row of every relation of every
/// customer, in key order. Versions are left out, so the digest is what
/// the formats must preserve: the data.
pub fn state_digest(db: &ReactDB) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    for customer in 0..LOGDIR_CUSTOMERS {
        for relation in ["account", "savings", "checking"] {
            let table = db.table(&customer_name(customer), relation).unwrap();
            for (key, record) in table.scan() {
                if !record.is_visible() {
                    continue;
                }
                eat(relation.as_bytes());
                eat(key.to_string().as_bytes());
                eat(format!("{:?}", record.read_unguarded()).as_bytes());
            }
        }
    }
    hash
}

/// Recovers the log directory `dir` under the fixture deployment.
pub fn recover(dir: &Path) -> reactdb::common::Result<ReactDB> {
    ReactDB::recover(smallbank::spec(LOGDIR_CUSTOMERS), logdir_config(dir))
}
