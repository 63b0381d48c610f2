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
//! birth). [`scan_wal`] and [`read_wal`] treat exactly that as a **torn
//! tail**: the complete prefix is read and [`WalScan::truncated_at`]
//! reports where the tail was cut.
//!
//! Everything else — a checksum mismatch on any *complete* record, a
//! record declaring an absurd length, a damaged magic — cannot be
//! produced by a crash of this writer, only by bit rot or tampering,
//! and is a hard [`StoreError::Corrupt`] with the record's offset.
//! Corruption is never absorbed: a log that fails its checksums must
//! not feed the reasoner.
//!
//! Recovery reads the log in one pass ([`scan_wal`]): each record is
//! checked and handed on before the next is read, through one buffer
//! of 64 KiB, so start-up memory does not grow with the log. Damage is
//! therefore found while replaying: the records before it may already
//! have been replayed into the reasoner that recovery then drops, and
//! nothing from that reasoner is returned or counted. The scan keeps
//! verifying after its visitor fails, so a checksum failure anywhere
//! still wins over an earlier record that did not replay. There is no
//! verify-first pass: it would read every log twice, and a verify-only
//! scan of the serve benchmark's read-hot wal-dir (four logs, 1.9 MB)
//! takes 1.29 ms on a 2-vCPU VM, a cost every start would pay for an
//! answer the one pass already gives.
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
use std::io::{ErrorKind, Read, Write as _};
use std::ops::Range;
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

/// The buffer [`scan_wal`] reads a log through. A record larger than
/// this grows it to hold that record, and no buffer grows past the
/// file's length.
const SCAN_BUFFER: usize = 64 << 10;

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
        let (at, rest) = (base + pos as u64, &bytes[pos..]);
        match next_record(rest, rest.len() as u64, at)? {
            Next::End => break None,
            Next::Torn(detail) => break Some(detail),
            Next::Record(payload) => {
                records.push((at, payload));
                pos += RECORD_HEADER + payload.len();
            }
            Next::Short(_) => unreachable!("a segment's bytes are all at hand"),
        }
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

/// What the bytes at a record boundary hold, read by [`next_record`].
enum Next<'a> {
    /// The log ends exactly here.
    End,
    /// A complete record whose checksum matches: its payload.
    Record(&'a [u8]),
    /// The log holds the record, but only part of it is at hand: read
    /// until this many bytes from the boundary are.
    Short(usize),
    /// The log ends inside the record — a torn tail — and why.
    Torn(String),
}

/// The record decoder every reader of the log shares. `bytes` are the
/// bytes at hand from absolute offset `at`, a record boundary, and
/// `remaining` (at least `bytes.len()`) is how many the log holds from
/// there. Torn versus complete is decided from `remaining`, so a length
/// prefix running past the end is a torn tail however little is at
/// hand, and nothing is read or allocated for it.
fn next_record(bytes: &[u8], remaining: u64, at: u64) -> Result<Next<'_>, StoreError> {
    if remaining == 0 {
        return Ok(Next::End);
    }
    if remaining < RECORD_HEADER as u64 {
        return Ok(Next::Torn(format!(
            "segment ends {remaining} byte(s) into a record header"
        )));
    }
    let Some(head) = bytes.get(..RECORD_HEADER) else {
        return Ok(Next::Short(RECORD_HEADER));
    };
    let len_bytes = [head[0], head[1], head[2], head[3]];
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_RECORD_LEN {
        return Err(StoreError::Corrupt {
            offset: at,
            detail: format!("record declares an absurd length of {len} bytes"),
        });
    }
    if len as u64 > remaining - RECORD_HEADER as u64 {
        return Ok(Next::Torn(format!(
            "record declares {len} payload byte(s) but the segment ends first"
        )));
    }
    let Some(payload) = bytes.get(RECORD_HEADER..RECORD_HEADER + len) else {
        return Ok(Next::Short(RECORD_HEADER + len));
    };
    let stored_crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if record_crc(len_bytes, payload) != stored_crc {
        return Err(StoreError::Corrupt {
            offset: at,
            detail: "record checksum mismatch".to_string(),
        });
    }
    Ok(Next::Record(payload))
}

/// What [`scan_wal`] found beside the records it visited.
#[derive(Debug)]
pub struct WalScan<E> {
    /// `Some(offset)` if the file ended mid-record: the crash artifact
    /// starts at `offset` and everything before it is intact.
    pub truncated_at: Option<u64>,
    /// File length up to and including the last complete record —
    /// where a repaired log would end.
    pub len: u64,
    /// The visitor's first error. The records after the one it failed
    /// on were verified but not visited.
    pub visited: Result<(), E>,
    /// The largest size, in bytes, the read buffer reached.
    pub buffer: usize,
}

/// Reads the log at `path` in one pass under the recovery policy in the
/// module docs and hands `visit` each complete record's `(offset,
/// payload)`, in append order, once its checksum has matched. The
/// payload is borrowed from the read buffer for that call only.
///
/// The log is read through one buffer of 64 KiB, grown only to hold a
/// record larger than that, and never past the file's length. Once
/// `visit` fails the scan stops visiting but goes on verifying, so a
/// corrupt log is [`StoreError::Corrupt`] wherever the damage lies.
/// A zero-length file is a valid empty log (created, never written).
pub fn scan_wal<E>(
    path: &Path,
    visit: impl FnMut(u64, &[u8]) -> Result<(), E>,
) -> Result<WalScan<E>, StoreError> {
    let file = File::open(path).map_err(|e| StoreError::io(path, &e))?;
    let len = file.metadata().map_err(|e| StoreError::io(path, &e))?.len();
    scan(file.take(len), len, SCAN_BUFFER, path, visit)
}

/// [`scan_wal`] over `reader`, which holds the `len` bytes of the log at
/// `path`, read through a buffer of `capacity` bytes.
fn scan<E>(
    reader: impl Read,
    len: u64,
    capacity: usize,
    path: &Path,
    mut visit: impl FnMut(u64, &[u8]) -> Result<(), E>,
) -> Result<WalScan<E>, StoreError> {
    let io = |e: std::io::Error| StoreError::io(path, &e);
    let magic = WAL_MAGIC.len();
    let capacity = usize::try_from(len).map_or(capacity, |len| len.min(capacity));
    let mut log = Window {
        reader,
        buf: vec![0; capacity],
        start: 0,
        end: 0,
        at: 0,
        len,
    };
    log.fill(magic).map_err(io)?;
    let head = log.held();
    if head.len() < magic && WAL_MAGIC.starts_with(head) {
        // empty, or the crash hit while the header itself was written
        return Ok(WalScan {
            truncated_at: (!head.is_empty()).then_some(0),
            len: 0,
            visited: Ok(()),
            buffer: log.buf.len(),
        });
    }
    if !head.starts_with(WAL_MAGIC) {
        return Err(StoreError::Corrupt {
            offset: 0,
            detail: "bad WAL magic".to_string(),
        });
    }
    log.consume(magic);
    let mut visited = Ok(());
    let torn = loop {
        match next_record(log.held(), log.len - log.at, log.at)? {
            Next::End => break false,
            Next::Torn(_) => break true,
            Next::Short(need) => log.fill(need).map_err(io)?,
            Next::Record(payload) => {
                let size = RECORD_HEADER + payload.len();
                if visited.is_ok() {
                    visited = visit(log.at, payload);
                }
                log.consume(size);
            }
        }
    };
    Ok(WalScan {
        truncated_at: torn.then_some(log.at),
        len: log.at,
        visited,
        buffer: log.buf.len(),
    })
}

/// A log read through one buffer: `buf[start..end]` holds its bytes
/// from offset `at` on.
struct Window<R> {
    reader: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    at: u64,
    /// The log's length: the file's, until a read finds it ends sooner.
    len: u64,
}

impl<R: Read> Window<R> {
    /// The log's bytes at hand from `at`.
    fn held(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Moves `at` past the first `n` bytes at hand.
    fn consume(&mut self, n: usize) {
        self.start += n;
        self.at += n as u64;
    }

    /// Reads until the first `need` bytes from `at` are at hand, or the
    /// log ends sooner. The bytes at hand move to the buffer's front
    /// when the rest would not fit behind them, and the buffer grows
    /// only when `need` exceeds it; callers ask for no more than the
    /// log holds, so it never grows past the file's length.
    fn fill(&mut self, need: usize) -> std::io::Result<()> {
        let need = usize::try_from(self.len - self.at).map_or(need, |left| need.min(left));
        if self.start + need > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if need > self.buf.len() {
                self.buf.resize(need, 0);
            }
        }
        while self.end - self.start < need {
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    // the file is shorter than its length said: it ends here
                    self.len = self.at + (self.end - self.start) as u64;
                    break;
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The verified contents of a WAL: every complete, checksum-valid
/// record, plus where a torn tail (if any) was cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// Every record's payload, back to back.
    payloads: Vec<u8>,
    /// `(start_offset, range in payloads)` per verified record.
    records: Vec<(u64, Range<usize>)>,
    /// `Some(offset)` if the file ended mid-record: the crash artifact
    /// starts at `offset` and everything before it is intact.
    pub truncated_at: Option<u64>,
    /// File length up to and including the last complete record —
    /// where a repaired log would end.
    pub len: u64,
}

impl WalReplay {
    /// `(start_offset, payload)` per record, in append order.
    pub fn records(&self) -> impl ExactSizeIterator<Item = (u64, &[u8])> {
        self.records
            .iter()
            .map(|(at, range)| (*at, &self.payloads[range.clone()]))
    }
}

/// Reads and verifies the whole log at `path` by [`scan_wal`], keeping
/// every record: torn tail → truncate and report, anything else invalid
/// → [`StoreError::Corrupt`]. Recovery scans instead; this is for
/// tests and tools that want the records at hand.
pub fn read_wal(path: &Path) -> Result<WalReplay, StoreError> {
    let mut payloads = Vec::new();
    let mut records = Vec::new();
    let scan = scan_wal(path, |at, payload| {
        records.push((at, payloads.len()..payloads.len() + payload.len()));
        payloads.extend_from_slice(payload);
        Ok::<(), std::convert::Infallible>(())
    })?;
    Ok(WalReplay {
        payloads,
        records,
        truncated_at: scan.truncated_at,
        len: scan.len,
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

    /// One record as the writer frames it.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let len = u32::try_from(payload.len()).unwrap().to_le_bytes();
        [&len[..], &record_crc(len, payload).to_le_bytes(), payload].concat()
    }

    /// A log of `payloads`, framed.
    fn log_of(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for p in payloads {
            bytes.extend(frame(p));
        }
        bytes
    }

    /// What a reader made of a log: the `(offset, payload)` list, the
    /// torn offset and the repaired length, or the error's `Debug` form.
    type Outcome = Result<(Vec<(u64, Vec<u8>)>, Option<u64>, u64), String>;

    /// The reference reading: the magic check, then `parse_wal_segment`
    /// over the whole rest of the log.
    fn segment_reading(bytes: &[u8]) -> Outcome {
        let magic = WAL_MAGIC.len();
        if bytes.len() < magic && WAL_MAGIC.starts_with(bytes) {
            return Ok((Vec::new(), (!bytes.is_empty()).then_some(0), 0));
        }
        if !bytes.starts_with(WAL_MAGIC) {
            let detail = "bad WAL magic".to_string();
            return Err(format!("{:?}", StoreError::Corrupt { offset: 0, detail }));
        }
        let seg =
            parse_wal_segment(&bytes[magic..], magic as u64, true).map_err(|e| format!("{e:?}"))?;
        let records = seg.records.iter().map(|&(at, p)| (at, p.to_vec()));
        let torn = (seg.end < bytes.len() as u64).then_some(seg.end);
        Ok((records.collect(), torn, seg.end))
    }

    /// A reader handing out at most `chunk` bytes per call, as a file
    /// may.
    struct Trickle<'a> {
        bytes: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.chunk).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The scan of `bytes` through a `capacity`-byte buffer, read in
    /// `chunk`s, and the largest size the buffer reached.
    fn scan_reading(bytes: &[u8], capacity: usize, chunk: usize) -> (Outcome, usize) {
        let mut seen = Vec::new();
        let reader = Trickle { bytes, chunk };
        let len = bytes.len() as u64;
        let scanned = scan(reader, len, capacity, Path::new("log"), |at, p| {
            seen.push((at, p.to_vec()));
            Ok::<(), std::convert::Infallible>(())
        });
        match scanned {
            Ok(s) => (Ok((seen, s.truncated_at, s.len)), s.buffer),
            Err(e) => (Err(format!("{e:?}")), 0),
        }
    }

    /// Scans `bytes` the ways a file can hand them out and requires the
    /// segment parser's reading each time, with the buffer never past
    /// the log's length or `capacity`, unless one record needs more.
    fn scan_agrees(
        bytes: &[u8],
        capacity: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> Result<(), proptest::TestCaseError> {
        use rand::Rng as _;
        let want = segment_reading(bytes);
        let chunk = [1, rng.gen_range(1..=capacity.max(2)), usize::MAX][rng.gen_range(0..3usize)];
        let (got, buffer) = scan_reading(bytes, capacity, chunk);
        proptest::prop_assert_eq!(&got, &want, "capacity {} chunk {}", capacity, chunk);
        if let Ok((records, _, _)) = &want {
            let largest = records.iter().map(|(_, p)| RECORD_HEADER + p.len());
            let bound = capacity.max(RECORD_HEADER).max(largest.max().unwrap_or(0));
            proptest::prop_assert!(buffer <= bytes.len().min(bound));
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 48, ..Default::default() })]

        /// The scan visits exactly the records `parse_wal_segment` cuts,
        /// with the same torn offset and the same `Corrupt` offset and
        /// detail, under every cut, single flipped bit and damaged
        /// length prefix, for records on either side of the buffer's
        /// edge and records larger than the buffer — through tiny
        /// buffers and through the shipped 64 KiB one.
        #[test]
        fn scan_agrees_with_the_segment_parser(seed in proptest::prelude::any::<u64>()) {
            use rand::{Rng as _, SeedableRng as _};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let small = rng.gen_bool(0.75);
            let (capacity, payloads): (usize, Vec<Vec<u8>>) = if small {
                let capacity = rng.gen_range(1..=40);
                let sizes = (0..rng.gen_range(0..8)).map(|_| rng.gen_range(0..3 * capacity));
                (capacity, sizes.map(|n| vec![b'x'; n]).collect())
            } else {
                // small records across several buffer edges, one record
                // just under, at and over the buffer, one well over it
                let mut sizes: Vec<usize> = (0..rng.gen_range(60..200))
                    .map(|_| rng.gen_range(0..3000))
                    .collect();
                for n in [SCAN_BUFFER - RECORD_HEADER - 1, SCAN_BUFFER - RECORD_HEADER,
                    SCAN_BUFFER, SCAN_BUFFER + rng.gen_range(1..40_000usize)]
                {
                    let at = rng.gen_range(0..=sizes.len());
                    sizes.insert(at, n);
                }
                (SCAN_BUFFER, sizes.into_iter().map(|n| vec![b'y'; n]).collect())
            };
            let payloads: Vec<Vec<u8>> = payloads
                .into_iter()
                .map(|mut p| {
                    p.iter_mut().for_each(|b| *b = rng.gen_range(0..=255u8));
                    p
                })
                .collect();
            let clean = log_of(&payloads);
            scan_agrees(&clean, capacity, &mut rng)?;
            // every cut of a small log; for a large one the cuts around
            // each buffer edge and record boundary, and random ones
            let cuts: Vec<usize> = if small {
                (0..clean.len()).collect()
            } else {
                let mut at = WAL_MAGIC.len();
                let mut cuts = Vec::new();
                for p in &payloads {
                    cuts.extend([at, at + 1, at + RECORD_HEADER, at + RECORD_HEADER + 1]);
                    at += RECORD_HEADER + p.len();
                }
                for edge in (SCAN_BUFFER..clean.len()).step_by(SCAN_BUFFER) {
                    cuts.extend(edge.saturating_sub(9)..(edge + 9).min(clean.len()));
                }
                cuts.extend((0..32).map(|_| rng.gen_range(0..clean.len())));
                cuts
            };
            for cut in cuts {
                scan_agrees(&clean[..cut], capacity, &mut rng)?;
            }
            // single flipped bits: every byte of a small log, random
            // bytes of a large one
            let flips = if small { clean.len() } else { 48 };
            for i in 0..flips {
                let at = if small { i } else { rng.gen_range(0..clean.len()) };
                let mut dirty = clean.clone();
                dirty[at] ^= 1 << rng.gen_range(0..8u8);
                scan_agrees(&dirty, capacity, &mut rng)?;
            }
            // a length prefix damaged upward: past the end of the log
            // (torn), to the format's limit (torn unless the log is that
            // long), and past the limit (corrupt)
            if !payloads.is_empty() {
                let k = rng.gen_range(0..payloads.len());
                let at = WAL_MAGIC.len()
                    + payloads[..k].iter().map(|p| RECORD_HEADER + p.len()).sum::<usize>();
                let past_end = clean.len() - at - RECORD_HEADER + rng.gen_range(1..100usize);
                for declared in [past_end, MAX_RECORD_LEN, MAX_RECORD_LEN + 1, u32::MAX as usize] {
                    let mut dirty = clean.clone();
                    let declared = u32::try_from(declared).unwrap().to_le_bytes();
                    dirty[at..at + 4].copy_from_slice(&declared);
                    scan_agrees(&dirty, capacity, &mut rng)?;
                }
            }
        }
    }

    #[test]
    fn a_long_log_of_small_records_scans_through_the_fixed_buffer() {
        let p = tmp("long");
        let payloads: Vec<Vec<u8>> = (0..100_000u32)
            .map(|i| format!("+ L(A{i}) -> L(B)").into_bytes())
            .collect();
        let bytes = log_of(&payloads);
        assert!(bytes.len() > 2 << 20, "a multi-MiB log");
        std::fs::write(&p, &bytes).unwrap();
        let mut seen = 0usize;
        let scan = scan_wal(&p, |_, payload| {
            assert_eq!(payload, payloads[seen]);
            seen += 1;
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(seen, payloads.len());
        assert_eq!((scan.truncated_at, scan.len), (None, bytes.len() as u64));
        assert_eq!(scan.buffer, SCAN_BUFFER, "the buffer never grew");
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_length_claiming_256_mib_past_the_end_is_a_torn_tail_read_from_the_file_length() {
        let p = tmp("claim");
        let mut bytes = log_of(&[b"alpha".to_vec()]);
        let torn_at = bytes.len() as u64;
        // a header declaring the format's largest payload, then 3 bytes
        let declared = u32::try_from(MAX_RECORD_LEN).unwrap().to_le_bytes();
        bytes.extend_from_slice(&declared);
        bytes.extend_from_slice(&[0; 7]);
        std::fs::write(&p, &bytes).unwrap();
        let scan = scan_wal(&p, |_, _| Ok::<(), ()>(())).unwrap();
        assert_eq!(scan.truncated_at, Some(torn_at));
        assert_eq!(scan.len, torn_at);
        assert!(
            scan.buffer <= bytes.len(),
            "no allocation of the declared size: {} bytes",
            scan.buffer
        );
        std::fs::remove_dir_all(p.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_failed_visit_stops_visiting_but_not_verifying() {
        let payloads = [b"one".to_vec(), b"two".to_vec(), b"three".to_vec()];
        let clean = log_of(&payloads);
        let visit = |seen: &mut Vec<u64>, at: u64| {
            seen.push(at);
            if seen.len() == 2 {
                Err(at)
            } else {
                Ok(())
            }
        };
        let (len, path) = (clean.len() as u64, Path::new("log"));
        let mut seen = Vec::new();
        let s = scan(&clean[..], len, 16, path, |at, _| visit(&mut seen, at)).unwrap();
        assert_eq!(seen.len(), 2, "no visit after the failed one");
        assert_eq!(s.visited, Err(seen[1]));
        assert_eq!(s.len, clean.len() as u64, "every record verified");
        // the third record's checksum fails: corruption wins
        let mut dirty = clean.clone();
        *dirty.last_mut().unwrap() ^= 1;
        let mut seen = Vec::new();
        let s = scan(&dirty[..], len, 16, path, |at, _| visit(&mut seen, at));
        assert!(matches!(
            s,
            Err(StoreError::Corrupt { offset, .. }) if offset == len - 8 - 5
        ));
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
