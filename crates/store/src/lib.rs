//! # nalist-store
//!
//! Crash-safe durability for long-lived reasoners, in the same
//! hand-rolled zero-dependency spirit as `lint::json` — but binary:
//!
//! * [`snapshot`] — a **versioned snapshot** file (`NALSNAP1` magic,
//!   CRC32 over version + length + payload) written via temp file +
//!   fsync + atomic rename, so a crash at any instant leaves either the
//!   old snapshot or the new one, never a torn hybrid;
//! * [`wal`] — an **append-only write-ahead log** of length-prefixed,
//!   CRC32-checksummed records. Recovery truncates a *torn tail* (a
//!   final record the crash cut short) but hard-errors with
//!   [`StoreError::Corrupt`] on mid-log corruption — a bad checksum is
//!   never silently absorbed;
//! * [`crc32`] — the hand-rolled CRC-32 (IEEE) both formats share;
//! * [`binio`] — the little-endian length-prefixed reader/writer the
//!   payload encodings are built from;
//! * [`atomic_write`] — the temp-file + fsync + rename helper, also
//!   used by the CLI for `--metrics` JSON and certificate outputs.
//!
//! Every write, fsync and rename passes through a [`guard::FailPoint`]
//! site ([`site::APPEND`], [`site::SNAPSHOT`], [`site::FSYNC`]) so
//! chaos tests can kill the process mid-write at a named point, and the
//! `wal_appends` / `wal_fsyncs` / `snapshot_writes` counters surface
//! through `nalist-obs`.
//!
//! This crate sits at the bottom of the workspace (deps: `guard`,
//! `obs` only) and knows nothing about dependencies or algebras: it
//! moves opaque payload bytes. The payload encodings live with the
//! types they serialize (`membership::persist`).
//!
//! [`guard::FailPoint`]: nalist_guard::FailPoint

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use nalist_guard::{Budget, ResourceExhausted};

pub mod binio;
pub mod crc32;
pub mod snapshot;
pub mod wal;

pub use binio::{Reader, Writer};
pub use snapshot::{
    decode_snapshot, encode_snapshot, read_snapshot, write_snapshot, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use wal::{
    parse_wal_segment, read_wal, read_wal_range, WalReplay, WalSegment, WalWriter, WAL_MAGIC,
};

/// The named [`FailPoint`](nalist_guard::FailPoint) sites this crate
/// threads through every durability-critical operation.
pub mod site {
    /// Hit before a WAL record is appended.
    pub const APPEND: &str = "store::append";
    /// Hit before a snapshot file is written.
    pub const SNAPSHOT: &str = "store::snapshot";
    /// Hit before every fsync (snapshot temp file and WAL alike).
    pub const FSYNC: &str = "store::fsync";
}

/// Errors from the store layer.
///
/// The variant distinguishes *who is at fault*: [`StoreError::Io`] is
/// the environment (missing file, permissions, full disk),
/// [`StoreError::Corrupt`] is on-disk damage detected by checksum or
/// framing (with the byte offset of the damage), [`StoreError::Format`]
/// is a structurally intact file this build cannot interpret
/// (unsupported version, wrong payload shape), and
/// [`StoreError::Resource`] is an exhausted [`Budget`] (including
/// injected faults).
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure on `path`.
    Io {
        /// The file the operation touched.
        path: PathBuf,
        /// The OS error, rendered.
        message: String,
    },
    /// On-disk corruption: a checksum mismatch or impossible framing at
    /// byte `offset` of the file. Never absorbed — a corrupt store must
    /// fail loudly rather than feed the reasoner wrong state.
    Corrupt {
        /// Byte offset of the first detectably damaged structure.
        offset: u64,
        /// What was wrong there.
        detail: String,
    },
    /// The file is intact but this build cannot interpret it
    /// (unsupported snapshot version, alien payload encoding).
    Format {
        /// Human-readable explanation.
        message: String,
    },
    /// The governing [`Budget`] was exhausted (or a fault was injected
    /// at a `store::*` failpoint site).
    Resource(ResourceExhausted),
}

impl StoreError {
    /// Convenience constructor for OS errors.
    pub fn io(path: &Path, err: &std::io::Error) -> Self {
        StoreError::Io {
            path: path.to_path_buf(),
            message: err.to_string(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "i/o error on {}: {message}", path.display())
            }
            StoreError::Corrupt { offset, detail } => {
                write!(f, "corrupt store file at byte {offset}: {detail}")
            }
            StoreError::Format { message } => write!(f, "unsupported store format: {message}"),
            StoreError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ResourceExhausted> for StoreError {
    fn from(e: ResourceExhausted) -> Self {
        StoreError::Resource(e)
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// temp file first, the temp file is fsynced, then renamed over `path`
/// (a POSIX rename within one directory is atomic), and the parent
/// directory is fsynced best-effort so the rename itself survives a
/// power cut. A crash at any instant leaves either the old file or the
/// complete new one — never a truncated hybrid.
pub fn atomic_write(path: &Path, contents: &[u8]) -> Result<(), StoreError> {
    atomic_write_governed(path, contents, &Budget::unlimited())
}

/// [`atomic_write`] under a [`Budget`]: the fsync passes through the
/// [`site::FSYNC`] failpoint so chaos tests can crash between the data
/// write and the rename.
pub fn atomic_write_governed(
    path: &Path,
    contents: &[u8],
    budget: &Budget,
) -> Result<(), StoreError> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| StoreError::Io {
            path: path.to_path_buf(),
            message: "path has no file name".to_string(),
        })?;
    // Temp file in the *same directory* (rename must not cross a mount)
    // with the pid in the name so concurrent processes never collide.
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
    let write = |tmp: &Path| -> Result<(), StoreError> {
        let mut f = File::create(tmp).map_err(|e| StoreError::io(tmp, &e))?;
        f.write_all(contents).map_err(|e| StoreError::io(tmp, &e))?;
        budget.failpoint(site::FSYNC)?;
        f.sync_all().map_err(|e| StoreError::io(tmp, &e))?;
        std::fs::rename(tmp, path).map_err(|e| StoreError::io(path, &e))?;
        sync_parent_dir(path);
        Ok(())
    };
    let out = write(&tmp);
    if out.is_err() {
        // Best-effort cleanup: never leave the temp file behind on a
        // failed (or fault-injected) write.
        let _ = std::fs::remove_file(&tmp);
    }
    out
}

/// Best-effort fsync of `path`'s parent directory, making the rename
/// that just placed `path` durable. Errors are ignored: directory
/// fsync is not supported on every platform, and the data file itself
/// is already synced.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Opens `path` for appending, creating it if absent.
fn open_append(path: &Path) -> Result<File, StoreError> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| StoreError::io(path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("nalist_store_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_replaces_content() {
        let d = tmp_dir("aw");
        let p = d.join("out.txt");
        atomic_write(&p, b"first").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"first");
        atomic_write(&p, b"second, longer content").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"second, longer content");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn atomic_write_injected_fsync_fault_leaves_old_file_intact() {
        use nalist_guard::{FailAction, FailPoint};
        let d = tmp_dir("aw_fault");
        let p = d.join("out.txt");
        atomic_write(&p, b"old").unwrap();
        let budget = Budget::unlimited()
            .with_failpoint(FailPoint::every(site::FSYNC, FailAction::ExhaustFuel));
        let err = atomic_write_governed(&p, b"new", &budget).expect_err("fault must surface");
        assert!(matches!(err, StoreError::Resource(_)));
        assert_eq!(std::fs::read(&p).unwrap(), b"old", "old file untouched");
        // no temp litter
        assert_eq!(std::fs::read_dir(&d).unwrap().count(), 1);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn atomic_write_rejects_pathless_target() {
        assert!(matches!(
            atomic_write(Path::new("/"), b"x"),
            Err(StoreError::Io { .. })
        ));
    }
}
