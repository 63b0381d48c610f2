//! The little-endian, length-prefixed binary encoding layer shared by
//! every payload format built on this store. Deliberately tiny: four
//! scalar shapes (`u8`, `u32`, `u64`, length-prefixed bytes/str) are
//! enough for snapshots and WAL records, and a [`Reader`] that tracks
//! its absolute offset turns every decode failure into a
//! [`StoreError::Corrupt`] pointing at the damaged byte.

use crate::StoreError;

/// An append-only byte buffer with the store's scalar encodings.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `bytes` with a `u32` length prefix.
    ///
    /// # Panics
    /// Panics if `bytes` exceeds `u32::MAX` — payloads that size are a
    /// caller bug, not an encodable state.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u32(u32::try_from(bytes.len()).expect("store payload piece exceeds u32::MAX"));
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a string as length-prefixed UTF-8.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// A cursor over encoded bytes. `base` is the absolute file offset of
/// byte 0, so corruption errors report positions in the *file*, not in
/// the slice handed to the reader.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, reporting offsets relative to the slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader::with_base(bytes, 0)
    }

    /// A reader over `bytes` that sits at absolute file offset `base`.
    pub fn with_base(bytes: &'a [u8], base: u64) -> Self {
        Reader {
            bytes,
            pos: 0,
            base,
        }
    }

    /// The absolute offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the reader is exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn corrupt(&self, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            offset: self.offset(),
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(self.corrupt(format!(
                "truncated {what}: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u32`-length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let at = self.offset();
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(StoreError::Corrupt {
                offset: at,
                detail: format!(
                    "length prefix {len} overruns the {} remaining bytes",
                    self.remaining()
                ),
            });
        }
        self.take(len, "length-prefixed bytes")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, StoreError> {
        let at = self.offset();
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|e| StoreError::Corrupt {
            offset: at,
            detail: format!("invalid UTF-8 in string: {e}"),
        })
    }

    /// Asserts the reader consumed everything; trailing garbage is
    /// corruption (the checksum covered it, so it was *written* —
    /// meaning the encoder and decoder disagree).
    pub fn finish(self) -> Result<(), StoreError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(self.corrupt(format!("{} unexpected trailing bytes", self.remaining())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_shapes() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.bytes(b"raw");
        w.str("héllo λ");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.str().unwrap(), "héllo λ");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_reports_the_absolute_offset() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::with_base(&bytes[..5], 100);
        let err = r.u64().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { offset: 100, .. }));
    }

    #[test]
    fn oversized_length_prefix_is_corrupt_not_panic() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // length prefix far past EOF
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.bytes(),
            Err(StoreError::Corrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert!(matches!(
            r.finish(),
            Err(StoreError::Corrupt { offset: 1, .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.str(),
            Err(StoreError::Corrupt { offset: 0, .. })
        ));
    }
}
