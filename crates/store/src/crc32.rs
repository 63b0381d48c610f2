//! Hand-rolled CRC-32 (IEEE 802.3, reflected, polynomial
//! `0xEDB88320`) — the checksum both store formats use. Slicing-by-8:
//! eight lookup tables, built at compile time from the one polynomial,
//! fold eight input bytes per step; no external crate, matching the
//! workspace's zero-dependency policy.

/// `TABLES[0]` is the classic bytewise table for the reflected IEEE
/// polynomial. `TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so one lookup per table advances the state eight bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (init `0xFFFFFFFF`, final xor `0xFFFFFFFF`) —
/// byte-compatible with zlib's `crc32()`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Streaming form: feed chunks through a running state seeded with
/// `!0`, then finish with `!state`. [`crc32`] is the one-shot wrapper.
pub fn update(state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise loop, one table lookup per byte: the reference the
    /// sliced [`update`] must match.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc
    }

    /// `len` bytes from a fixed xorshift stream.
    fn pseudo_random(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // reference values from the zlib crc32() implementation
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn sliced_update_matches_the_bytewise_reference() {
        let data = pseudo_random(72);
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                for state in [!0, 0, 0x1234_5678] {
                    assert_eq!(
                        update(state, bytes),
                        bytewise(state, bytes),
                        "offset {start}, length {len}, state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"abcdefghijklmnopqrstuvwxyz0123456789";
        for split in 0..data.len() {
            let state = update(!0, &data[..split]);
            assert_eq!(!update(state, &data[split..]), crc32(data));
        }
        let big = pseudo_random(64 << 10);
        let whole = !bytewise(!0, &big);
        assert_eq!(crc32(&big), whole);
        let splits = (0..=64)
            .chain((64..big.len()).step_by(1021))
            .chain([big.len()]);
        for split in splits {
            let state = update(!0, &big[..split]);
            assert_eq!(!update(state, &big[split..]), whole, "split at {split}");
        }
        // many uneven chunks, none aligned to eight bytes
        let mut state = !0;
        for chunk in big.chunks(13) {
            state = update(state, chunk);
        }
        assert_eq!(!state, whole);
    }

    #[test]
    fn single_bit_flip_always_changes_the_checksum() {
        let data = b"nalist store integrity probe";
        let base = crc32(data);
        let mut copy = *data;
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at byte {i} bit {bit} undetected");
                copy[i] ^= 1 << bit;
            }
        }
    }
}
