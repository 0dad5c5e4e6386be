//! CRC-64 (ECMA-182 polynomial, as used by XZ) for durable-tier
//! checksums: WAL frames, written-back pages, and pager headers all
//! carry one so recovery can tell a torn or bit-rotted record from a
//! valid one with plain table lookups and no external crates.
//!
//! The update is slice-by-8: eight 256-entry tables, where table `k`
//! advances the register past a byte followed by `k` zero bytes, fold
//! eight input bytes per step with eight independent lookups instead of
//! a chain of eight dependent ones. Only the sub-8-byte tail runs the
//! byte-at-a-time recurrence.

/// Reflected ECMA-182 polynomial (the CRC-64/XZ parameterization).
const POLY: u64 = 0xC96C_5795_D787_0F42;

const TABLES: [[u64; 256]; 8] = build_tables();

const fn build_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
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

/// CRC-64/XZ of `bytes` (init and final XOR are all-ones).
pub fn crc64(bytes: &[u8]) -> u64 {
    crc64_finish(crc64_update(crc64_begin(), bytes))
}

/// Continue a CRC across multiple slices: feed the previous return
/// value back as `seed` (start from [`crc64_begin`]).
pub fn crc64_update(seed: u64, bytes: &[u8]) -> u64 {
    let t = &TABLES;
    let mut crc = seed;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let v = crc ^ u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        crc = t[7][(v & 0xFF) as usize]
            ^ t[6][((v >> 8) & 0xFF) as usize]
            ^ t[5][((v >> 16) & 0xFF) as usize]
            ^ t[4][((v >> 24) & 0xFF) as usize]
            ^ t[3][((v >> 32) & 0xFF) as usize]
            ^ t[2][((v >> 40) & 0xFF) as usize]
            ^ t[1][((v >> 48) & 0xFF) as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Initial accumulator for [`crc64_update`].
pub fn crc64_begin() -> u64 {
    !0u64
}

/// Finalize a [`crc64_update`] accumulator.
pub fn crc64_finish(seed: u64) -> u64 {
    !seed
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpd_testkit::prop::{any_u8, vec_of, Config};
    use cdpd_testkit::props;

    /// The byte-at-a-time definition the sliced update must equal.
    fn reference_update(seed: u64, bytes: &[u8]) -> u64 {
        let mut crc = seed;
        for &b in bytes {
            crc = TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }

    fn reference(bytes: &[u8]) -> u64 {
        !reference_update(!0, bytes)
    }

    #[test]
    fn known_vector() {
        // CRC-64/XZ check value from the catalogue of parametrised CRCs.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let oneshot = crc64(data);
        let mut acc = crc64_begin();
        for chunk in data.chunks(7) {
            acc = crc64_update(acc, chunk);
        }
        assert_eq!(crc64_finish(acc), oneshot);
    }

    #[test]
    fn every_short_length_matches_the_reference() {
        // Each length 0..=64 crosses the word/tail boundary differently,
        // and every start offset 0..8 shifts the slice's alignment.
        let data: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                assert_eq!(crc64(bytes), reference(bytes), "start {start}, len {len}");
                let seed = 0x0123_4567_89AB_CDEF ^ len as u64;
                assert_eq!(
                    crc64_update(seed, bytes),
                    reference_update(seed, bytes),
                    "update from a non-initial seed, start {start}, len {len}"
                );
            }
        }
    }

    props! {
        config: Config::with_cases(64);

        fn split_updates_match_the_reference(
            bytes in vec_of(any_u8(), 0..1200),
            cuts in vec_of(0usize..1200, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut acc = crc64_begin();
            let mut at = 0;
            for &cut in cuts.iter().chain(std::iter::once(&bytes.len())) {
                acc = crc64_update(acc, &bytes[at..cut]);
                at = cut;
            }
            assert_eq!(crc64_finish(acc), reference(bytes));
            assert_eq!(crc64(bytes), reference(bytes));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 256];
        let base = crc64(&data);
        for byte in [0usize, 100, 255] {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_eq!(crc64(&data), reference(&data));
                assert_ne!(crc64(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
