//! The versioned snapshot format: one self-checking file holding an
//! opaque payload (the reasoner's serialized state — see
//! `membership::persist` for the payload encoding).
//!
//! ## Layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "NALSNAP1"
//! 8       4     format version, u32 LE
//! 12      4     payload length, u32 LE
//! 16      4     CRC-32 over bytes 8..16 ++ payload
//! 20      n     payload
//! ```
//!
//! The checksum covers the version and length fields as well as the
//! payload, so *any* single flipped byte after the magic fails the CRC
//! and reads back as [`StoreError::Corrupt`]; a damaged magic is
//! `Corrupt { offset: 0 }`. A CRC-valid file with an unknown version is
//! [`StoreError::Format`] — intact, just not ours to read.
//!
//! Snapshots are written through [`crate::atomic_write_governed`]
//! (temp file + fsync + atomic rename), with the [`site::SNAPSHOT`]
//! failpoint before any byte is produced and [`site::FSYNC`] before the
//! sync — a crash at either point leaves the previous snapshot intact.
//!
//! [`site::SNAPSHOT`]: crate::site::SNAPSHOT
//! [`site::FSYNC`]: crate::site::FSYNC

use std::path::Path;

use nalist_guard::Budget;
use nalist_obs::{Counter, Recorder};

use crate::crc32::crc32;
use crate::{site, StoreError};

/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"NALSNAP1";

/// The snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Bytes of header before the payload starts.
const HEADER_LEN: usize = 20;

/// Writes `payload` as a version-[`SNAPSHOT_VERSION`] snapshot at
/// `path`, atomically. Returns the total file size in bytes.
pub fn write_snapshot(path: &Path, payload: &[u8]) -> Result<u64, StoreError> {
    write_snapshot_governed(
        path,
        payload,
        &Budget::unlimited(),
        &nalist_obs::NoopRecorder,
    )
}

/// [`write_snapshot`] under a [`Budget`] and observability recorder
/// (bumps the `snapshot_writes` counter).
pub fn write_snapshot_governed(
    path: &Path,
    payload: &[u8],
    budget: &Budget,
    rec: &dyn Recorder,
) -> Result<u64, StoreError> {
    budget.failpoint(site::SNAPSHOT)?;
    let file = encode_snapshot(payload)?;
    crate::atomic_write_governed(path, &file, budget)?;
    rec.add(Counter::SnapshotWrites, 1);
    Ok(file.len() as u64)
}

/// Serialises `payload` into the self-checking snapshot container (the
/// exact bytes [`write_snapshot`] puts on disk) without touching the
/// filesystem. Replication streams these bytes to followers.
pub fn encode_snapshot(payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    let len = u32::try_from(payload.len()).map_err(|_| StoreError::Format {
        message: format!(
            "snapshot payload of {} bytes exceeds the u32 format limit",
            payload.len()
        ),
    })?;
    let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
    file.extend_from_slice(SNAPSHOT_MAGIC);
    file.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    file.extend_from_slice(&len.to_le_bytes());
    let mut checked = Vec::with_capacity(8 + payload.len());
    checked.extend_from_slice(&file[8..16]);
    checked.extend_from_slice(payload);
    file.extend_from_slice(&crc32(&checked).to_le_bytes());
    file.extend_from_slice(payload);
    Ok(file)
}

/// Reads and verifies the snapshot at `path`, returning its payload.
///
/// Every integrity violation — short file, bad magic, length
/// disagreement, checksum mismatch — is [`StoreError::Corrupt`] with
/// the offset of the damage; an intact file with a version this build
/// does not know is [`StoreError::Format`].
pub fn read_snapshot(path: &Path) -> Result<Vec<u8>, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, &e))?;
    decode_snapshot(&bytes)
}

/// Verifies an in-memory snapshot container ([`encode_snapshot`] /
/// the bytes of a snapshot file) and returns its payload. Same
/// integrity contract as [`read_snapshot`]: any flipped byte after the
/// magic is [`StoreError::Corrupt`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Corrupt {
            offset: bytes.len() as u64,
            detail: format!(
                "snapshot header truncated: {} of {HEADER_LEN} bytes",
                bytes.len()
            ),
        });
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(StoreError::Corrupt {
            offset: 0,
            detail: "bad snapshot magic".to_string(),
        });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let len = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let stored_crc = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != len {
        return Err(StoreError::Corrupt {
            offset: 12,
            detail: format!(
                "declared payload length {len} but {} bytes follow the header",
                payload.len()
            ),
        });
    }
    let mut checked = Vec::with_capacity(8 + payload.len());
    checked.extend_from_slice(&bytes[8..16]);
    checked.extend_from_slice(payload);
    if crc32(&checked) != stored_crc {
        return Err(StoreError::Corrupt {
            offset: 16,
            detail: "snapshot checksum mismatch".to_string(),
        });
    }
    if version != SNAPSHOT_VERSION {
        return Err(StoreError::Format {
            message: format!(
                "snapshot version {version} (this build reads version {SNAPSHOT_VERSION})"
            ),
        });
    }
    Ok(bytes[HEADER_LEN..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("nalist_snap_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join("state.snap")
    }

    #[test]
    fn round_trip() {
        let p = tmp("rt");
        let payload = b"arbitrary payload \x00\x01\x02";
        write_snapshot(&p, payload).unwrap();
        assert_eq!(read_snapshot(&p).unwrap(), payload);
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn in_memory_encode_decode_matches_the_file_format() {
        let p = tmp("mem");
        let payload = b"shipped to a follower";
        write_snapshot(&p, payload).unwrap();
        let file_bytes = std::fs::read(&p).unwrap();
        assert_eq!(encode_snapshot(payload).unwrap(), file_bytes);
        assert_eq!(decode_snapshot(&file_bytes).unwrap(), payload);
        let mut dirty = file_bytes;
        dirty[HEADER_LEN] ^= 0x01;
        assert!(matches!(
            decode_snapshot(&dirty),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn empty_payload_round_trips() {
        let p = tmp("empty");
        write_snapshot(&p, b"").unwrap();
        assert_eq!(read_snapshot(&p).unwrap(), b"");
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let p = tmp("flip");
        write_snapshot(&p, b"sixteen byte pay").unwrap();
        let clean = std::fs::read(&p).unwrap();
        for i in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[i] ^= 0x40;
            std::fs::write(&p, &dirty).unwrap();
            match read_snapshot(&p) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("flip at byte {i}: expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn truncated_header_is_corrupt() {
        let p = tmp("trunc");
        write_snapshot(&p, b"payload").unwrap();
        let clean = std::fs::read(&p).unwrap();
        for keep in [0usize, 1, 7, 8, 19] {
            std::fs::write(&p, &clean[..keep]).unwrap();
            match read_snapshot(&p) {
                Err(StoreError::Corrupt { offset, .. }) => {
                    assert_eq!(offset, keep as u64);
                }
                other => panic!("keep={keep}: expected Corrupt, got {other:?}"),
            }
        }
        // truncated payload: header intact, payload short
        std::fs::write(&p, &clean[..clean.len() - 1]).unwrap();
        assert!(matches!(read_snapshot(&p), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn future_version_is_format_error_not_corrupt() {
        let p = tmp("ver");
        // hand-build files of the next and the previous version with a
        // correct checksum: intact, but not this build's format
        for version in [SNAPSHOT_VERSION + 1, SNAPSHOT_VERSION - 1] {
            let payload = b"from another version";
            let len = payload.len() as u32;
            let mut file = Vec::new();
            file.extend_from_slice(SNAPSHOT_MAGIC);
            file.extend_from_slice(&version.to_le_bytes());
            file.extend_from_slice(&len.to_le_bytes());
            let mut checked = file[8..16].to_vec();
            checked.extend_from_slice(payload);
            file.extend_from_slice(&crc32(&checked).to_le_bytes());
            file.extend_from_slice(payload);
            std::fs::write(&p, &file).unwrap();
            assert!(
                matches!(read_snapshot(&p), Err(StoreError::Format { .. })),
                "version {version}"
            );
        }
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn missing_file_is_io() {
        assert!(matches!(
            read_snapshot(Path::new("/nonexistent/nalist.snap")),
            Err(StoreError::Io { .. })
        ));
    }

    #[test]
    fn injected_snapshot_fault_preserves_previous_snapshot() {
        use nalist_guard::{FailAction, FailPoint};
        let p = tmp("fault");
        write_snapshot(&p, b"generation 1").unwrap();
        let budget = Budget::unlimited()
            .with_failpoint(FailPoint::every(site::SNAPSHOT, FailAction::ExhaustFuel));
        let err = write_snapshot_governed(&p, b"generation 2", &budget, &nalist_obs::NoopRecorder)
            .unwrap_err();
        assert!(matches!(err, StoreError::Resource(_)));
        assert_eq!(read_snapshot(&p).unwrap(), b"generation 1");
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }
}
