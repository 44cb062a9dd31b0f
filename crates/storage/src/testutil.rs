//! Test support: unique temporary directories without external crates, and the log a
//! standalone durable table needs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::backend::PersistentOptions;
use crate::wal::WalSet;

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Creates a fresh directory under the system temp dir, unique per process and call.
///
/// Intended for tests and benchmarks; the directory is intentionally left behind on
/// failure so a broken run can be inspected (the OS reclaims temp space).
pub fn temp_dir(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gsn-storage-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A [`WalSet`] under `dir` with the default log options: the log of a durable table
/// opened outside a [`crate::StorageManager`].
pub fn wal_set(dir: &Path) -> Arc<WalSet> {
    let defaults = PersistentOptions::default();
    Arc::new(WalSet::new(
        dir,
        defaults.sync,
        defaults.group_commit,
        defaults.wal_checkpoint_bytes,
    ))
}

/// Names of the files in `dir` other than the log: what a destroyed table must
/// not leave behind.
pub fn table_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| !name.starts_with("wal-shard-"))
        .collect()
}
