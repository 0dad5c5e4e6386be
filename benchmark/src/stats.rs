//! Small statistics: medians, guarded percentiles, and the FNV-1a hash
//! that fingerprints a generated statement stream.

/// Samples that must lie beyond a reported percentile. Below this the
/// tail estimate is one or two outliers, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples offered.
    pub have: usize,
    /// Samples needed for [`MIN_BEYOND`] to lie beyond the percentile.
    pub need: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples, {} needed for {MIN_BEYOND} beyond the percentile",
            self.have, self.need
        )
    }
}

/// The `q`-quantile (`0 < q < 1`) of `sorted` by nearest rank.
///
/// # Errors
/// Refused unless at least [`MIN_BEYOND`] samples lie strictly beyond
/// the returned rank.
pub fn percentile(sorted: &[u64], q: f64) -> Result<u64, TooFewSamples> {
    assert!(q > 0.0 && q < 1.0, "quantile must be inside (0, 1)");
    let n = sorted.len();
    // The epsilon keeps 0.99 * 1000 = 990.0000000000001 at rank 990.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return Err(TooFewSamples {
            have: n,
            need: (MIN_BEYOND as f64 / (1.0 - q) - 1e-6).ceil() as usize,
        });
    }
    Ok(sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// `values` must not be empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a over a byte stream, fed incrementally.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a 64-bit offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` in, followed by a separator so `["ab","c"]` and
    /// `["a","bc"]` hash apart.
    pub fn line(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert_eq!(percentile(&v, 0.99), Ok(990));
        // One sample fewer leaves 9 beyond.
        let err = percentile(&v[..999], 0.99).unwrap_err();
        assert_eq!((err.have, err.need), (999, 1000));
        assert_eq!(percentile(&v[..20], 0.5), Ok(10));
        assert!(percentile(&v[..19], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fnv_known_answers_and_framing() {
        // FNV-1a("a\n")
        let mut h = Fnv::new();
        h.line(b"a");
        let mut want = 0xcbf2_9ce4_8422_2325u64;
        for b in [b'a', b'\n'] {
            want ^= u64::from(b);
            want = want.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.finish(), want);
        let (mut x, mut y) = (Fnv::new(), Fnv::new());
        x.line(b"ab");
        x.line(b"c");
        y.line(b"a");
        y.line(b"bc");
        assert_ne!(x.finish(), y.finish());
    }
}
