//! The append-only write-ahead log: a magic header followed by
//! length-prefixed, CRC-checksummed records.
//!
//! ## Layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic "NALWAL01"
//! --- per record, back to back ---
//! +0      4     payload length, u32 LE
//! +4      4     CRC-32 over length ++ payload
//! +8      n     payload
//! ```
//!
//! ## Recovery policy (torn tail vs corruption)
//!
//! A crash can cut the *final* record short — the writer emits each
//! record with one `write_all`, so the only partial state a crash can
//! leave is a record whose bytes end before its declared length (or a
//! partial length prefix, or a partial magic in a log that died at
//! birth). [`read_wal`] treats exactly that as a **torn tail**: the
//! complete prefix is returned and [`WalReplay::truncated_at`] reports
//! where the tail was cut.
//!
//! Everything else — a checksum mismatch on any *complete* record, a
//! record declaring an absurd length, a damaged magic — cannot be
//! produced by a crash of this writer, only by bit rot or tampering,
//! and is a hard [`StoreError::Corrupt`] with the record's offset.
//! Corruption is never absorbed: a log that fails its checksums must
//! not feed the reasoner.
//!
//! One case is undecidable from the bytes alone: a length prefix
//! damaged *upward* so the record appears to run past EOF looks
//! exactly like a crash that cut a large append short. The reader
//! takes the prefix-consistent reading (truncate there) — recovery
//! then corresponds to a legitimate prefix of the operation history,
//! never to a state no sequence of appends could produce. Any damage
//! that keeps the record inside the file fails its CRC instead.
//!
//! Appends pass the [`site::APPEND`] failpoint before writing and
//! [`site::FSYNC`] before syncing, and bump the `wal_appends` /
//! `wal_fsyncs` counters.
//!
//! [`site::APPEND`]: crate::site::APPEND
//! [`site::FSYNC`]: crate::site::FSYNC

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use nalist_guard::Budget;
use nalist_obs::{Counter, Recorder};

use crate::crc32;
use crate::{site, StoreError};

/// First eight bytes of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"NALWAL01";

/// Per-record framing overhead (length + checksum).
const RECORD_HEADER: usize = 8;

/// Upper bound on a single record's payload. A length prefix beyond
/// this is treated as corruption rather than attempted allocation.
const MAX_RECORD_LEN: usize = 1 << 28;

/// An open write-ahead log, appending records to the end of the file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    fsync: bool,
    /// Offset of the next byte to be written (== current file length).
    end: u64,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path` and writes the magic
    /// header. `fsync` controls whether each append is synced to disk
    /// before returning — durability for the price of a disk flush.
    pub fn create(path: &Path, fsync: bool) -> Result<Self, StoreError> {
        let mut file = File::create(path).map_err(|e| StoreError::io(path, &e))?;
        file.write_all(WAL_MAGIC)
            .map_err(|e| StoreError::io(path, &e))?;
        if fsync {
            file.sync_all().map_err(|e| StoreError::io(path, &e))?;
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            fsync,
            end: WAL_MAGIC.len() as u64,
        })
    }

    /// Opens an existing log for appending. The log is verified first
    /// ([`read_wal`]) so appends never extend a corrupt or torn file:
    /// recovery semantics stay "replay then continue", not "continue
    /// past damage". Returns the writer and the verified replay.
    pub fn open(path: &Path, fsync: bool) -> Result<(Self, WalReplay), StoreError> {
        let replay = read_wal(path)?;
        if let Some(at) = replay.truncated_at {
            return Err(StoreError::Corrupt {
                offset: at,
                detail: "refusing to append to a torn log; recover it first".to_string(),
            });
        }
        let file = crate::open_append(path)?;
        Ok((
            WalWriter {
                file,
                path: path.to_path_buf(),
                fsync,
                end: replay.len,
            },
            replay,
        ))
    }

    /// Appends one record. Returns the file offset the record starts
    /// at. The record bytes are emitted with a single `write_all`, so a
    /// crash leaves at worst a torn tail (see the module docs).
    pub fn append(
        &mut self,
        payload: &[u8],
        budget: &Budget,
        rec: &dyn Recorder,
    ) -> Result<u64, StoreError> {
        budget.failpoint(site::APPEND)?;
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| (l as usize) <= MAX_RECORD_LEN)
            .ok_or_else(|| StoreError::Format {
                message: format!(
                    "WAL record of {} bytes exceeds the format limit",
                    payload.len()
                ),
            })?;
        let len = len.to_le_bytes();
        let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
        record.extend_from_slice(&len);
        record.extend_from_slice(&record_crc(len, payload).to_le_bytes());
        record.extend_from_slice(payload);
        let at = self.end;
        self.file
            .write_all(&record)
            .map_err(|e| StoreError::io(&self.path, &e))?;
        self.end += record.len() as u64;
        rec.add(Counter::WalAppends, 1);
        if self.fsync {
            budget.failpoint(site::FSYNC)?;
            self.file
                .sync_data()
                .map_err(|e| StoreError::io(&self.path, &e))?;
            rec.add(Counter::WalFsyncs, 1);
        }
        Ok(at)
    }

    /// Offset one past the last byte this writer has appended (== the
    /// current file length). Replication tails the log up to here.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The log's path on disk.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// CRC-32 of one record: over its length prefix, then its payload.
fn record_crc(len: [u8; 4], payload: &[u8]) -> u32 {
    !crc32::update(crc32::update(!0, &len), payload)
}

/// A verified slice of the log — complete records cut from an absolute
/// byte offset, as shipped to a replication follower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalSegment<'a> {
    /// `(start_offset, payload)` per record, in append order, with the
    /// payload borrowed from the parsed bytes. Offsets are absolute
    /// file offsets, so `records.last().0 + 8 + len` is the next
    /// offset to tail from.
    pub records: Vec<(u64, &'a [u8])>,
    /// Absolute offset one past the last complete record in the
    /// segment — the follower's next `from`.
    pub end: u64,
}

/// Reads the raw log bytes `[from, to)` for shipping to a follower.
///
/// The caller is expected to bound `to` by [`WalWriter::end`]; a file
/// that turns out shorter than `to` (the log was replaced underneath
/// us — compaction) is [`StoreError::Corrupt`] at the point the bytes
/// ran out, which the replication protocol answers with a
/// re-snapshot handshake.
pub fn read_wal_range(path: &Path, from: u64, to: u64) -> Result<Vec<u8>, StoreError> {
    use std::io::{Read as _, Seek as _, SeekFrom};
    if to < from {
        return Err(StoreError::Format {
            message: format!("bad WAL range: {from}..{to}"),
        });
    }
    let mut file = File::open(path).map_err(|e| StoreError::io(path, &e))?;
    file.seek(SeekFrom::Start(from))
        .map_err(|e| StoreError::io(path, &e))?;
    let want = (to - from) as usize;
    let mut bytes = Vec::with_capacity(want);
    file.take(to - from)
        .read_to_end(&mut bytes)
        .map_err(|e| StoreError::io(path, &e))?;
    if bytes.len() < want {
        return Err(StoreError::Corrupt {
            offset: from + bytes.len() as u64,
            detail: format!(
                "log ends {} byte(s) before the requested range {from}..{to}",
                want - bytes.len()
            ),
        });
    }
    Ok(bytes)
}

/// Parses a byte slice cut from the log at absolute offset `base`
/// (which must be a record boundary at or past the magic header) into
/// its records, verifying every checksum. Payloads are borrowed from
/// `bytes`.
///
/// With `allow_torn` the segment may end mid-record — the complete
/// prefix is returned and [`WalSegment::end`] reports where it stops
/// (the writer side uses this to cut a capped segment at a record
/// boundary). Without it a partial record is [`StoreError::Corrupt`]:
/// a *shipped* segment always ends on a boundary, so a torn one was
/// damaged in flight or cut from a mid-record offset after the log
/// was compacted underneath the reader.
pub fn parse_wal_segment(
    bytes: &[u8],
    base: u64,
    allow_torn: bool,
) -> Result<WalSegment<'_>, StoreError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let torn = loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break None;
        }
        if remaining < RECORD_HEADER {
            break Some(format!(
                "segment ends {remaining} byte(s) into a record header"
            ));
        }
        let len_bytes = [bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]];
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_RECORD_LEN {
            return Err(StoreError::Corrupt {
                offset: base + pos as u64,
                detail: format!("record declares an absurd length of {len} bytes"),
            });
        }
        if len > remaining - RECORD_HEADER {
            break Some(format!(
                "record declares {len} payload byte(s) but the segment ends first"
            ));
        }
        let stored_crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let payload = &bytes[pos + RECORD_HEADER..pos + RECORD_HEADER + len];
        if record_crc(len_bytes, payload) != stored_crc {
            return Err(StoreError::Corrupt {
                offset: base + pos as u64,
                detail: "record checksum mismatch".to_string(),
            });
        }
        records.push((base + pos as u64, payload));
        pos += RECORD_HEADER + len;
    };
    let end = base + pos as u64;
    match torn {
        Some(detail) if !allow_torn => Err(StoreError::Corrupt {
            offset: end,
            detail,
        }),
        _ => Ok(WalSegment { records, end }),
    }
}

/// The verified contents of a WAL: every complete, checksum-valid
/// record, plus where a torn tail (if any) was cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// The log file's bytes; [`WalReplay::records`] borrows from them.
    bytes: Vec<u8>,
    /// `(start_offset, payload length)` per verified record.
    records: Vec<(u64, usize)>,
    /// `Some(offset)` if the file ended mid-record: the crash artifact
    /// starts at `offset` and everything before it is intact.
    pub truncated_at: Option<u64>,
    /// File length up to and including the last complete record —
    /// where a repaired log would end.
    pub len: u64,
}

impl WalReplay {
    /// `(start_offset, payload)` per record, in append order, with the
    /// payload borrowed from the log's bytes.
    pub fn records(&self) -> impl ExactSizeIterator<Item = (u64, &[u8])> {
        self.records.iter().map(|&(at, len)| {
            let start = at as usize + RECORD_HEADER;
            (at, &self.bytes[start..start + len])
        })
    }
}

/// Reads and verifies the log at `path` under the recovery policy in
/// the module docs: torn tail → truncate and report, anything else
/// invalid → [`StoreError::Corrupt`].
///
/// A zero-length file is a valid empty log (created, never written).
pub fn read_wal(path: &Path) -> Result<WalReplay, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, &e))?;
    let magic = WAL_MAGIC.len();
    if bytes.len() < magic && WAL_MAGIC.starts_with(&bytes) {
        // empty, or the crash hit while the header itself was written
        let truncated_at = (!bytes.is_empty()).then_some(0);
        return Ok(WalReplay {
            bytes,
            records: Vec::new(),
            truncated_at,
            len: 0,
        });
    }
    if !bytes.starts_with(WAL_MAGIC) {
        return Err(StoreError::Corrupt {
            offset: 0,
            detail: "bad WAL magic".to_string(),
        });
    }
    // file offsets index `bytes`, so `(offset, length)` locates a payload
    let seg = parse_wal_segment(&bytes[magic..], magic as u64, true)?;
    let records = seg.records.iter().map(|&(at, p)| (at, p.len())).collect();
    let len = seg.end;
    Ok(WalReplay {
        records,
        truncated_at: (len < bytes.len() as u64).then_some(len),
        len,
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("nalist_wal_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join("ops.wal")
    }

    fn noop() -> nalist_obs::NoopRecorder {
        nalist_obs::NoopRecorder
    }

    fn payloads(replay: &WalReplay) -> Vec<&[u8]> {
        replay.records().map(|(_, payload)| payload).collect()
    }

    fn write_log(path: &Path, payloads: &[&[u8]]) {
        let mut w = WalWriter::create(path, false).unwrap();
        for p in payloads {
            w.append(p, &Budget::unlimited(), &noop()).unwrap();
        }
    }

    #[test]
    fn round_trip_preserves_order_and_bytes() {
        let p = tmp("rt");
        write_log(&p, &[b"+ first", b"- second", b"", b"? third \x00\x80"]);
        let replay = read_wal(&p).unwrap();
        assert_eq!(
            payloads(&replay),
            vec![b"+ first".as_slice(), b"- second", b"", b"? third \x00\x80"]
        );
        assert_eq!(replay.truncated_at, None);
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn zero_length_file_is_a_valid_empty_log() {
        let p = tmp("empty");
        std::fs::write(&p, b"").unwrap();
        let replay = read_wal(&p).unwrap();
        assert!(payloads(&replay).is_empty());
        assert_eq!(replay.truncated_at, None);
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_at_every_cut_point_truncates_never_errors() {
        let p = tmp("torn");
        write_log(&p, &[b"alpha", b"beta"]);
        let clean = std::fs::read(&p).unwrap();
        let second_record_at = 8 + 8 + 5; // magic + record("alpha")
                                          // cut anywhere inside the second record: first record survives
        for cut in second_record_at + 1..clean.len() {
            std::fs::write(&p, &clean[..cut]).unwrap();
            let replay = read_wal(&p).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(payloads(&replay), vec![b"alpha"], "cut at {cut}");
            assert_eq!(replay.truncated_at, Some(second_record_at as u64));
            assert_eq!(replay.len, second_record_at as u64);
        }
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_magic_is_truncation_not_corruption() {
        let p = tmp("torn_magic");
        for keep in 0..WAL_MAGIC.len() {
            std::fs::write(&p, &WAL_MAGIC[..keep]).unwrap();
            let replay = read_wal(&p).unwrap();
            assert!(payloads(&replay).is_empty());
            assert_eq!(replay.truncated_at, if keep == 0 { None } else { Some(0) });
        }
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn mid_log_flip_is_corrupt_at_the_damaged_record() {
        let p = tmp("midflip");
        write_log(&p, &[b"alpha", b"beta", b"gamma"]);
        let clean = std::fs::read(&p).unwrap();
        // Flip the first record's body — its checksum, its payload, and
        // the length-prefix byte whose flip keeps the record inside the
        // file: always Corrupt, never a silent truncation, because a
        // crash of this writer cannot produce in-file damage.
        for i in (8..9).chain(12..8 + 8 + 5) {
            let mut dirty = clean.clone();
            dirty[i] ^= 0x01;
            std::fs::write(&p, &dirty).unwrap();
            match read_wal(&p) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("flip at {i}: expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn inflated_length_prefix_reads_as_torn_tail() {
        // A length prefix damaged *upward* past EOF is indistinguishable
        // from a crash that cut a large append short: the reader takes
        // the prefix-consistent reading and truncates there. (In-file
        // damage, by contrast, always fails a checksum — see above.)
        let p = tmp("inflate");
        write_log(&p, &[b"alpha", b"beta"]);
        let clean = std::fs::read(&p).unwrap();
        let mut dirty = clean.clone();
        dirty[8 + 2] ^= 0x01; // len("alpha") = 5 -> 65541, far past EOF
        std::fs::write(&p, &dirty).unwrap();
        let replay = read_wal(&p).unwrap();
        assert!(payloads(&replay).is_empty());
        assert_eq!(replay.truncated_at, Some(8));
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn flipped_byte_in_last_complete_record_is_corrupt() {
        let p = tmp("lastflip");
        write_log(&p, &[b"only record"]);
        let clean = std::fs::read(&p).unwrap();
        // flip in the payload and in the crc of the final record
        for i in [12, 16, clean.len() - 1] {
            let mut dirty = clean.clone();
            dirty[i] ^= 0x10;
            std::fs::write(&p, &dirty).unwrap();
            match read_wal(&p) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("flip at {i}: expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn bad_magic_is_corrupt_at_offset_zero() {
        let p = tmp("magic");
        std::fs::write(&p, b"NOTAWAL0rest").unwrap();
        assert!(matches!(
            read_wal(&p),
            Err(StoreError::Corrupt { offset: 0, .. })
        ));
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn open_resumes_at_the_end_and_refuses_torn_logs() {
        let p = tmp("open");
        write_log(&p, &[b"one"]);
        let (mut w, replay) = WalWriter::open(&p, false).unwrap();
        assert_eq!(replay.records().len(), 1);
        w.append(b"two", &Budget::unlimited(), &noop()).unwrap();
        drop(w);
        assert_eq!(read_wal(&p).unwrap().records().len(), 2);
        // tear the tail; open must refuse
        let clean = std::fs::read(&p).unwrap();
        std::fs::write(&p, &clean[..clean.len() - 1]).unwrap();
        assert!(matches!(
            WalWriter::open(&p, false),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn injected_append_fault_leaves_log_replayable() {
        use nalist_guard::{FailAction, FailPoint};
        let p = tmp("fault");
        let mut w = WalWriter::create(&p, false).unwrap();
        w.append(b"committed", &Budget::unlimited(), &noop())
            .unwrap();
        let budget = Budget::unlimited()
            .with_failpoint(FailPoint::every(site::APPEND, FailAction::ExhaustFuel));
        assert!(matches!(
            w.append(b"never lands", &budget, &noop()),
            Err(StoreError::Resource(_))
        ));
        drop(w);
        let replay = read_wal(&p).unwrap();
        assert_eq!(payloads(&replay), vec![b"committed"]);
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn range_read_and_segment_parse_round_trip_from_any_boundary() {
        let p = tmp("segment");
        let payloads: [&[u8]; 3] = [b"alpha", b"bb", b"gamma rays"];
        let mut w = WalWriter::create(&p, false).unwrap();
        let mut offsets = Vec::new();
        for pl in payloads {
            offsets.push(w.append(pl, &Budget::unlimited(), &noop()).unwrap());
        }
        let end = w.end();
        drop(w);
        for (i, &from) in offsets.iter().enumerate() {
            let bytes = read_wal_range(&p, from, end).unwrap();
            let seg = parse_wal_segment(&bytes, from, false).unwrap();
            assert_eq!(seg.end, end);
            assert_eq!(seg.records.len(), payloads.len() - i);
            for (j, (at, payload)) in seg.records.iter().enumerate() {
                assert_eq!(*at, offsets[i + j]);
                assert_eq!(*payload, payloads[i + j]);
            }
        }
        // an empty tail range parses to an empty segment
        let seg = parse_wal_segment(&[], end, false).unwrap();
        assert!(seg.records.is_empty());
        assert_eq!(seg.end, end);
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn range_past_eof_is_corrupt_for_the_compaction_handshake() {
        let p = tmp("range_eof");
        write_log(&p, &[b"only"]);
        let len = std::fs::metadata(&p).unwrap().len();
        assert!(matches!(
            read_wal_range(&p, len, len + 10),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            read_wal_range(&p, 10, 5),
            Err(StoreError::Format { .. })
        ));
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn shipped_segment_flips_and_cuts_are_typed_rejects() {
        let p = tmp("segment_flip");
        write_log(&p, &[b"alpha", b"beta"]);
        let end = std::fs::metadata(&p).unwrap().len();
        let from = WAL_MAGIC.len() as u64;
        let clean = read_wal_range(&p, from, end).unwrap();
        // every single-byte flip in the shipped bytes is Corrupt under
        // the strict (follower) parse: payload/CRC flips fail the
        // checksum (which covers the length prefix too), and a length
        // inflated past the segment end reads as torn — rejected
        for i in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[i] ^= 0x20;
            match parse_wal_segment(&dirty, from, false) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("flip at {i}: expected Corrupt, got {other:?}"),
            }
        }
        // a mid-record cut is torn-tolerated for the writer, Corrupt
        // for the follower
        let cut = &clean[..clean.len() - 1];
        let seg = parse_wal_segment(cut, from, true).unwrap();
        assert_eq!(seg.records.len(), 1);
        assert!(matches!(
            parse_wal_segment(cut, from, false),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn append_counters_are_reported() {
        let p = tmp("counters");
        let rec = nalist_obs::MetricsRecorder::new();
        let mut w = WalWriter::create(&p, true).unwrap();
        w.append(b"a", &Budget::unlimited(), &rec).unwrap();
        w.append(b"b", &Budget::unlimited(), &rec).unwrap();
        assert_eq!(rec.counter(Counter::WalAppends), 2);
        assert_eq!(rec.counter(Counter::WalFsyncs), 2);
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }
}
