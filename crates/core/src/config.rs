use cdpd_types::{Error, Result};
use std::fmt;
use std::sync::Arc;

/// Largest accepted structure index. Indices at or beyond this panic in
/// every index-taking method — a width-agnostic set still has to treat
/// a wild index (usually a sign mixup or an uninitialized value) as a
/// caller bug rather than allocating gigabytes of mask words for it.
pub const MAX_STRUCTURE_INDEX: usize = 1 << 16;

/// A physical design configuration: a set of candidate structures,
/// represented as a bitmask over the problem's candidate list.
///
/// The paper's design space is the power set of `m` candidate
/// structures. Configurations up to 64 structures are stored inline in
/// one machine word (the overwhelmingly common case, and the paper's
/// own regime — §4: *"unless m is very small, the shortest-path-based
/// algorithms … are probably impractical"*); wider sets spill to a
/// shared heap allocation, so the representation itself no longer caps
/// the vocabulary. Structure indices refer to whatever candidate list
/// the [`crate::CostOracle`] was built over.
///
/// The type is `Clone` but deliberately not `Copy`: cloning is a word
/// copy inline and an `Arc` bump when spilled, so pass `&Config` and
/// clone only to store.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Config(Repr);

/// Normalized storage: `Spilled` only ever holds ≥ 2 words with a
/// nonzero last word. Equal sets therefore always share a variant, and
/// the derived `Eq`/`Hash` are sound.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline(u64),
    Spilled(Arc<[u64]>),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Inline(0)
    }
}

#[inline]
fn check_index(structure: usize) {
    assert!(
        structure < MAX_STRUCTURE_INDEX,
        "structure index out of range"
    );
}

impl Config {
    /// The empty configuration (no auxiliary structures).
    pub const EMPTY: Config = Config(Repr::Inline(0));

    /// A configuration containing exactly `structure`.
    pub fn single(structure: usize) -> Config {
        check_index(structure);
        let (w, bit) = (structure / 64, 1u64 << (structure % 64));
        Config::from_word_fn(w + 1, |i| if i == w { bit } else { 0 })
    }

    /// The configuration containing structures `0..n` — the full mask
    /// over an `n`-structure vocabulary.
    pub fn full(n: usize) -> Config {
        assert!(n <= MAX_STRUCTURE_INDEX, "structure count out of range");
        let (whole, rest) = (n / 64, n % 64);
        Config::from_word_fn(n.div_ceil(64), |i| {
            if i < whole {
                u64::MAX
            } else {
                (1u64 << rest) - 1
            }
        })
    }

    /// From a raw 64-bit mask (structures `0..64` only). Wider
    /// configurations must be built through the set operations or
    /// [`Config::from_words`] — new call sites outside this module and
    /// tests are rejected by CI, because raw-mask arithmetic is exactly
    /// the width assumption this type exists to remove.
    pub const fn from_bits(bits: u64) -> Config {
        Config(Repr::Inline(bits))
    }

    /// The raw bitmask of an inline (≤ 64-structure) configuration.
    ///
    /// Panics if the configuration has spilled past 64 structures; use
    /// [`Config::words`] for a width-agnostic view.
    pub fn bits(&self) -> u64 {
        match &self.0 {
            Repr::Inline(bits) => *bits,
            Repr::Spilled(_) => panic!("configuration is wider than 64 bits"),
        }
    }

    /// The little-endian 64-bit words of the mask (low structures
    /// first). Always at least one word; the last word is nonzero
    /// unless the whole configuration is empty.
    pub fn words(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline(bits) => std::slice::from_ref(bits),
            Repr::Spilled(words) => words,
        }
    }

    /// Rebuild from [`Config::words`] output (the persistence codec).
    /// Trailing zero words are tolerated and normalized away.
    pub fn from_words(words: &[u64]) -> Config {
        Config::from_word_fn(words.len(), |i| words[i])
    }

    /// Normalizing constructor over computed words `word(0..upper)`:
    /// trailing zero words are dropped, one word stays inline, and a
    /// wider result is collected straight into its shared slice — one
    /// allocation per spilled configuration, which is what keeps probes
    /// over a wide vocabulary close to the price of narrow ones.
    fn from_word_fn(upper: usize, word: impl Fn(usize) -> u64) -> Config {
        let mut n = upper;
        while n > 1 && word(n - 1) == 0 {
            n -= 1;
        }
        match n {
            0 => Config::EMPTY,
            1 => Config(Repr::Inline(word(0))),
            _ => Config(Repr::Spilled((0..n).map(word).collect())),
        }
    }

    /// Whether `structure` is in this configuration.
    ///
    /// Panics on `structure >= MAX_STRUCTURE_INDEX`, like every other
    /// index-taking method here — a wild index is a caller bug, and
    /// silently answering `false` would let it masquerade as an absent
    /// structure. Indices beyond the stored width are simply absent.
    pub fn contains(&self, structure: usize) -> bool {
        check_index(structure);
        let words = self.words();
        let w = structure / 64;
        w < words.len() && (words[w] >> (structure % 64)) & 1 == 1
    }

    /// This configuration plus `structure`.
    pub fn with(&self, structure: usize) -> Config {
        check_index(structure);
        match &self.0 {
            Repr::Inline(bits) if structure < 64 => {
                Config(Repr::Inline(bits | (1u64 << structure)))
            }
            _ => {
                let old = self.words();
                let (w, bit) = (structure / 64, 1u64 << (structure % 64));
                Config::from_word_fn(old.len().max(w + 1), |i| {
                    old.get(i).copied().unwrap_or(0) | if i == w { bit } else { 0 }
                })
            }
        }
    }

    /// This configuration minus `structure`.
    pub fn without(&self, structure: usize) -> Config {
        check_index(structure);
        match &self.0 {
            Repr::Inline(bits) => {
                let mask = if structure < 64 {
                    !(1u64 << structure)
                } else {
                    u64::MAX
                };
                Config(Repr::Inline(bits & mask))
            }
            Repr::Spilled(old) => {
                let (w, bit) = (structure / 64, 1u64 << (structure % 64));
                Config::from_word_fn(old.len(), |i| old[i] & if i == w { !bit } else { u64::MAX })
            }
        }
    }

    /// Set union.
    pub fn union(&self, other: &Config) -> Config {
        match (&self.0, &other.0) {
            (Repr::Inline(a), Repr::Inline(b)) => Config(Repr::Inline(a | b)),
            _ => {
                let (a, b) = (self.words(), other.words());
                Config::from_word_fn(a.len().max(b.len()), |i| {
                    a.get(i).copied().unwrap_or(0) | b.get(i).copied().unwrap_or(0)
                })
            }
        }
    }

    /// Set intersection (the projection primitive of the oracle layer:
    /// `exec(i, c)` only depends on `c.intersect(&mask[i])`).
    pub fn intersect(&self, other: &Config) -> Config {
        match (&self.0, &other.0) {
            // Either side inline ⇒ the result fits one word.
            (Repr::Inline(a), _) => Config(Repr::Inline(a & other.words()[0])),
            (_, Repr::Inline(b)) => Config(Repr::Inline(self.words()[0] & b)),
            (Repr::Spilled(a), Repr::Spilled(b)) => {
                Config::from_word_fn(a.len().min(b.len()), |i| a[i] & b[i])
            }
        }
    }

    /// Structures in `self` but not `other` (what must be built to go
    /// from `other` to `self`).
    pub fn minus(&self, other: &Config) -> Config {
        match (&self.0, &other.0) {
            (Repr::Inline(a), _) => Config(Repr::Inline(a & !other.words()[0])),
            _ => {
                let (a, b) = (self.words(), other.words());
                Config::from_word_fn(a.len(), |i| a[i] & !b.get(i).copied().unwrap_or(0))
            }
        }
    }

    /// Number of structures.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no structures are present.
    pub fn is_empty(&self) -> bool {
        // Normalization: a spilled repr always has a nonzero last word.
        matches!(self.0, Repr::Inline(0))
    }

    /// True if every structure of `self` is in `other`.
    pub fn is_subset_of(&self, other: &Config) -> bool {
        let b = other.words();
        self.words()
            .iter()
            .enumerate()
            .all(|(i, w)| w & !b.get(i).copied().unwrap_or(0) == 0)
    }

    /// Number of structures in `self` with index strictly below
    /// `structure` — the local coordinate of `structure` when this
    /// configuration is used as a relevance mask (see
    /// [`crate::decompose`]).
    pub fn rank(&self, structure: usize) -> usize {
        check_index(structure);
        let words = self.words();
        let w = structure / 64;
        let mut r = 0;
        for word in &words[..w.min(words.len())] {
            r += word.count_ones() as usize;
        }
        if w < words.len() {
            let below = (1u64 << (structure % 64)) - 1;
            r += (words[w] & below).count_ones() as usize;
        }
        r
    }

    /// Iterate the structure indices present, ascending.
    pub fn structures(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(w * 64 + i)
                }
            })
        })
    }

    /// A cheap word-fold for shard selection in concurrent memo tables.
    /// Not a general hash — equal configs agree, and inline configs
    /// fold to their raw mask.
    pub fn shard_key(&self) -> u64 {
        self.words()
            .iter()
            .fold(0u64, |acc, w| acc.rotate_left(7) ^ w)
    }
}

impl PartialOrd for Config {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Config {
    /// Big-integer order over the mask value. Restricted to inline
    /// configurations this is exactly the raw-`u64` order the previous
    /// representation derived, so sorted candidate lists stay stable
    /// across the representation change.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (a, b) = (self.words(), other.words());
        // Normalization (nonzero last word) makes more words ⇒ greater.
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "{{}}");
        }
        write!(f, "{{")?;
        for (n, s) in self.structures().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

/// The one enumerate-vs-greedy width threshold: [`enumerate_configs`]
/// refuses vocabularies wider than this, and the candidate policy
/// ([`crate::decompose::candidate_configs`]) enumerates exactly when
/// the active set fits. `2^20` masks is about a million cheap loop
/// iterations — the most a candidate derivation should scan — and with
/// the per-configuration cap the advisors pass (default 2) the list
/// that survives the scan has at most 211 entries (uncapped it is every
/// subset: the cap, not this threshold, is what keeps the list short).
/// Past it, greedy per-stage derivation keeps the list proportional to
/// the stage count.
pub const ENUMERABLE_WIDTH: usize = 20;

/// Enumerate every candidate configuration: all subsets of the oracle's
/// structures that satisfy the space bound and (optionally) a cap on
/// structures per configuration.
///
/// The paper's experiments restrict the design space to "at most one
/// index" — pass `max_structures = Some(1)` for that regime. The walk
/// over all `2^m` masks is refused for `m >` [`ENUMERABLE_WIDTH`] (at
/// that point use [`crate::greedy`] or
/// [`crate::decompose::candidate_configs`], which exist precisely
/// because of this wall).
pub fn enumerate_configs(
    oracle: &dyn crate::CostOracle,
    space_bound: Option<u64>,
    max_structures: Option<usize>,
) -> Result<Vec<Config>> {
    let m = oracle.n_structures();
    if m > ENUMERABLE_WIDTH {
        return Err(Error::InvalidArgument(format!(
            "refusing full 2^{m} configuration enumeration; use greedy candidate selection"
        )));
    }
    let mut out = Vec::new();
    for bits in 0..(1u64 << m) {
        let config = Config::from_bits(bits);
        if let Some(cap) = max_structures {
            if config.len() > cap {
                continue;
            }
        }
        if let Some(b) = space_bound {
            if oracle.size(&config) > b {
                continue;
            }
        }
        out.push(config);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticOracle;
    use cdpd_types::Cost;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn set_operations() {
        let c = Config::EMPTY.with(0).with(3);
        assert!(c.contains(0) && c.contains(3) && !c.contains(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.without(0), Config::single(3));
        assert_eq!(c.union(&Config::single(1)).len(), 3);
        assert_eq!(c.intersect(&Config::single(3)), Config::single(3));
        assert_eq!(c.intersect(&Config::single(1)), Config::EMPTY);
        assert_eq!(c.minus(&Config::single(3)), Config::single(0));
        assert!(Config::single(3).is_subset_of(&c));
        assert!(!c.is_subset_of(&Config::single(3)));
        assert_eq!(c.structures().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn wide_set_operations() {
        // The same algebra across the 64-bit spill boundary.
        let c = Config::EMPTY.with(3).with(64).with(130);
        assert_eq!(c.len(), 3);
        assert!(c.contains(64) && c.contains(130) && !c.contains(65));
        assert_eq!(c.structures().collect::<Vec<_>>(), vec![3, 64, 130]);
        assert_eq!(c.without(130), Config::EMPTY.with(3).with(64));
        assert_eq!(c.intersect(&Config::single(64)), Config::single(64));
        assert_eq!(
            c.minus(&Config::single(3)),
            Config::EMPTY.with(64).with(130)
        );
        assert!(Config::single(130).is_subset_of(&c));
        assert!(!c.is_subset_of(&Config::single(130)));
        let u = c.union(&Config::single(200));
        assert_eq!(u.len(), 4);
        assert!(u.contains(200));
    }

    #[test]
    fn normalization_keeps_eq_and_hash_sound() {
        // Dropping the only high structure must shrink back to the
        // inline representation, and compare/hash equal to a config
        // that never spilled.
        let narrow = Config::EMPTY.with(2);
        let via_wide = Config::EMPTY.with(2).with(100).without(100);
        assert_eq!(narrow, via_wide);
        assert_eq!(narrow.words(), via_wide.words());
        let hash = |c: &Config| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&narrow), hash(&via_wide));
        assert_eq!(narrow.shard_key(), via_wide.shard_key());
        // Intersection with a narrow mask collapses a spilled config.
        let wide = Config::EMPTY.with(1).with(90);
        assert_eq!(wide.intersect(&Config::full(64)), Config::single(1));
        assert_eq!(wide.words().len(), 2);
        // from_words tolerates denormalized input.
        assert_eq!(Config::from_words(&[5, 0, 0]), Config::from_bits(5));
        assert_eq!(Config::from_words(wide.words()), wide);
        assert_eq!(Config::from_words(&[]), Config::EMPTY);
    }

    #[test]
    fn ordering_matches_big_integer_order() {
        let mut configs = vec![
            Config::single(70),
            Config::single(0),
            Config::EMPTY,
            Config::single(65),
            Config::single(63),
            Config::EMPTY.with(0).with(70),
        ];
        configs.sort();
        assert_eq!(
            configs,
            vec![
                Config::EMPTY,
                Config::single(0),
                Config::single(63),
                Config::single(65),
                Config::single(70),
                Config::EMPTY.with(0).with(70),
            ]
        );
        // Inline order is the raw-u64 order.
        assert!(Config::from_bits(3) < Config::from_bits(4));
    }

    #[test]
    fn full_and_rank() {
        assert_eq!(Config::full(0), Config::EMPTY);
        assert_eq!(Config::full(3), Config::from_bits(0b111));
        assert_eq!(Config::full(64), Config::from_bits(u64::MAX));
        assert_eq!(Config::full(65).len(), 65);
        assert!(Config::full(65).contains(64));
        assert_eq!(Config::full(130).len(), 130);
        let mask = Config::EMPTY.with(2).with(5).with(70);
        assert_eq!(mask.rank(2), 0);
        assert_eq!(mask.rank(5), 1);
        assert_eq!(mask.rank(6), 2);
        assert_eq!(mask.rank(70), 2);
        assert_eq!(mask.rank(200), 3);
    }

    #[test]
    fn display() {
        assert_eq!(Config::EMPTY.to_string(), "{}");
        assert_eq!(Config::EMPTY.with(1).with(4).to_string(), "{1,4}");
        assert_eq!(Config::EMPTY.with(1).with(100).to_string(), "{1,100}");
    }

    #[test]
    fn wild_indices_panic() {
        let wild = MAX_STRUCTURE_INDEX;
        for f in [
            Box::new(|| {
                let _ = Config::single(wild);
            }) as Box<dyn FnOnce()>,
            Box::new(|| {
                let _ = Config::EMPTY.contains(wild);
            }),
            Box::new(|| {
                let _ = Config::EMPTY.with(wild);
            }),
            Box::new(|| {
                let _ = Config::EMPTY.without(wild);
            }),
            Box::new(|| {
                let _ = Config::EMPTY.rank(wild);
            }),
        ] {
            assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err());
        }
    }

    fn oracle(m: usize, sizes: Vec<u64>) -> SyntheticOracle {
        SyntheticOracle::from_fn(
            1,
            m,
            |_, _| Cost::from_ios(1),
            vec![Cost::from_ios(10); m],
            Cost::from_ios(1),
            sizes,
        )
    }

    #[test]
    fn enumerate_all_subsets() {
        let o = oracle(3, vec![1, 1, 1]);
        let configs = enumerate_configs(&o, None, None).unwrap();
        assert_eq!(configs.len(), 8);
    }

    #[test]
    fn enumerate_with_structure_cap() {
        // The paper's "at most one index" regime: m singletons + empty.
        let o = oracle(6, vec![1; 6]);
        let configs = enumerate_configs(&o, None, Some(1)).unwrap();
        assert_eq!(configs.len(), 7);
    }

    #[test]
    fn enumerate_with_space_bound() {
        let o = oracle(3, vec![5, 7, 100]);
        let configs = enumerate_configs(&o, Some(12), None).unwrap();
        // {}, {0}, {1}, {0,1} fit; anything with structure 2 does not.
        assert_eq!(configs.len(), 4);
        assert!(configs.iter().all(|c| !c.contains(2)));
    }

    #[test]
    fn enumerate_refuses_huge_m() {
        struct Wide;
        impl crate::CostOracle for Wide {
            fn n_stages(&self) -> usize {
                1
            }
            fn n_structures(&self) -> usize {
                21
            }
            fn exec(&self, _: usize, _: &Config) -> Cost {
                Cost::ZERO
            }
            fn trans(&self, _: &Config, _: &Config) -> Cost {
                Cost::ZERO
            }
            fn size(&self, _: &Config) -> u64 {
                0
            }
        }
        assert!(enumerate_configs(&Wide, None, None).is_err());
    }
}
