//! The unified cost path: every solver probe of `EXEC`/`SIZE` funnels
//! through this module instead of ad-hoc per-caller memo tables.
//!
//! The layer stacks two ideas:
//!
//! 1. **Relevance projection** (CoPhy's observation): a statement's
//!    cost depends only on the candidate structures the planner could
//!    actually use for it. An oracle that knows its per-*part* masks —
//!    a part is a group of statements sharing one mask — lets
//!    [`ProjectedOracle`], the one cache, rewrite `exec(i, c)` as
//!    `Σ_p exec_part(i, p, c ∩ mask[i][p])` and memoize each summand
//!    in sharded hash maps keyed by the projected sub-configuration, so
//!    distinct full configurations share cache entries.
//! 2. **Instrumentation**: one [`OracleStats`] bundle of atomic
//!    counters is threaded from the raw what-if engine through the
//!    cache, so facades can report how many engine cost calls a solve
//!    actually issued versus how many were served projected.
//!
//! Correctness of the rewrite rests on two facts. Costs are saturating
//! non-negative fixed-point integers, so a saturating sum is
//! independent of summand order and grouping (`cdpd-types` proves this
//! in its tests): splitting a stage's statement block into parts cannot
//! change the total. And a structure outside a statement's mask
//! generates no candidate access path and no maintenance charge for it,
//! so adding or removing that structure leaves the statement's plan —
//! hence its cost — untouched; projecting it away is exact, not an
//! approximation. The differential property suite
//! (`tests/oracle_prop.rs`) checks the cache against the raw engine.

use crate::config::Config;
use crate::problem::CostOracle;
use cdpd_types::Cost;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------

/// Shared atomic counters for one oracle pipeline.
///
/// Create one `Arc<OracleStats>`, attach it to the raw engine adapter
/// *and* the caching layer (that is what `into_shared` on
/// `EngineOracle` does), and read a coherent [`OracleStatsSnapshot`] at
/// any point. All counters are monotone; ordering is `Relaxed` because
/// they are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct OracleStats {
    exec_requests: AtomicU64,
    raw_exec_evals: AtomicU64,
    whatif_calls: AtomicU64,
    projected_hits: AtomicU64,
}

impl OracleStats {
    /// A fresh, shareable counter bundle.
    pub fn shared() -> Arc<OracleStats> {
        Arc::new(OracleStats::default())
    }

    /// One solver-visible `exec(stage, config)` request.
    pub fn record_exec_request(&self) {
        self.exec_requests.fetch_add(1, Ordering::Relaxed);
        cdpd_obs::counter!("oracle.exec_requests").inc();
    }

    /// One projected part cost served from the cache.
    pub fn record_projected_hit(&self) {
        self.projected_hits.fetch_add(1, Ordering::Relaxed);
        cdpd_obs::counter!("oracle.projected_hits").inc();
    }

    /// One miss that fell through to the inner oracle's `exec_part`.
    pub fn record_raw_eval(&self) {
        self.raw_exec_evals.fetch_add(1, Ordering::Relaxed);
        cdpd_obs::tracked_counter!("oracle.raw_exec_evals").inc();
    }

    /// `n` underlying what-if engine cost calls (per-statement).
    pub fn record_whatif_calls(&self, n: u64) {
        self.whatif_calls.fetch_add(n, Ordering::Relaxed);
        cdpd_obs::counter!("oracle.whatif_calls").add(n);
    }
}

impl From<&OracleStats> for OracleStatsSnapshot {
    /// A point-in-time copy of every counter in one bundle.
    fn from(stats: &OracleStats) -> OracleStatsSnapshot {
        OracleStatsSnapshot {
            exec_requests: stats.exec_requests.load(Ordering::Relaxed),
            raw_exec_evals: stats.raw_exec_evals.load(Ordering::Relaxed),
            whatif_calls: stats.whatif_calls.load(Ordering::Relaxed),
            projected_hits: stats.projected_hits.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`OracleStats`], safe to store in results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStatsSnapshot {
    /// Solver-visible `exec(stage, config)` requests.
    pub exec_requests: u64,
    /// Projected part evaluations that reached the inner oracle.
    pub raw_exec_evals: u64,
    /// Per-statement what-if engine cost calls issued (zero for
    /// oracles with no engine underneath, e.g. synthetic ones).
    pub whatif_calls: u64,
    /// Projected part costs served from the cache.
    pub projected_hits: u64,
}

impl std::fmt::Display for OracleStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.raw_exec_evals + self.projected_hits;
        let hit_pct = if total == 0 {
            0.0
        } else {
            100.0 * self.projected_hits as f64 / total as f64
        };
        write!(
            f,
            "{} exec requests, {} raw evals, {} projected hits ({:.1}%), {} what-if calls",
            self.exec_requests,
            self.raw_exec_evals,
            self.projected_hits,
            hit_pct,
            self.whatif_calls,
        )
    }
}

// ---------------------------------------------------------------------
// Relevance
// ---------------------------------------------------------------------

/// An oracle that can expose the relevance structure of its stages.
///
/// The default implementation is always sound: one part per stage whose
/// mask covers every structure (projection becomes the identity).
/// Engine-backed oracles override all four methods to split each
/// stage's statement block into *parts* — groups of statements sharing
/// one relevance mask — which is what unlocks cache sharing across
/// distinct full configurations.
///
/// # Contract
///
/// For every stage `i` and config `c`:
///
/// * `exec(i, c) == Σ_p exec_part(i, p, c ∩ part_mask(i, p))` — the
///   part decomposition is exact (saturating sums are grouping-
///   independent, so any partition of the statement block qualifies);
/// * `exec_part(i, p, c)` may assume the caller already projected `c`
///   onto `part_mask(i, p)`, and must depend only on that projection;
/// * `relevance_mask(i)` is the union of the stage's part masks — so a
///   structure outside it leaves `exec(i, ·)` where it was, which is
///   what lets [`ProjectableOracle::singleton_costs`] answer for the
///   whole vocabulary from the mask alone.
pub trait ProjectableOracle: CostOracle {
    /// Structures that can affect `stage`'s cost.
    fn relevance_mask(&self, _stage: usize) -> Config {
        Config::full(self.n_structures())
    }

    /// Number of equal-mask statement groups within `stage`.
    fn n_parts(&self, _stage: usize) -> usize {
        1
    }

    /// Structures that can affect `part`'s statements.
    fn part_mask(&self, stage: usize, _part: usize) -> Config {
        self.relevance_mask(stage)
    }

    /// `EXEC` restricted to one part's statements. `config` is the
    /// caller-projected sub-configuration.
    fn exec_part(&self, stage: usize, _part: usize, config: &Config) -> Cost {
        self.exec(stage, config)
    }

    /// What `stage` costs under no structure and under each single
    /// structure of its relevance mask — the per-stage analysis the
    /// greedy candidate derivation and the design alerter both start
    /// from. Caching layers keep the answer per stage, so a horizon that
    /// grows by one stage prices one stage.
    fn singleton_costs(&self, stage: usize) -> SingletonCosts {
        price_singletons(self, stage)
    }
}

/// A stage's cost under `{}` and under every `{s}` that can move it
/// ([`ProjectableOracle::singleton_costs`]). Sized by the stage's
/// relevance mask, never by the vocabulary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SingletonCosts {
    /// `exec(stage, {})` — also `exec(stage, {s})` for every structure
    /// `s` outside the stage's relevance mask.
    pub empty: Cost,
    /// `(s, exec(stage, {s}))` for each `s` in the relevance mask, in
    /// ascending structure order.
    pub singles: Vec<(usize, Cost)>,
}

impl SingletonCosts {
    /// The cheapest of `empty` and every single: the best the stage can
    /// do with at most one structure from the whole vocabulary.
    pub fn best(&self) -> Cost {
        self.singles
            .iter()
            .fold(self.empty, |best, &(_, cost)| best.min(cost))
    }
}

fn price_singletons<O: ProjectableOracle + ?Sized>(oracle: &O, stage: usize) -> SingletonCosts {
    SingletonCosts {
        empty: oracle.exec(stage, &Config::EMPTY),
        singles: oracle
            .relevance_mask(stage)
            .structures()
            .map(|s| (s, oracle.exec(stage, &Config::single(s))))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Sharded memo
// ---------------------------------------------------------------------

const SHARDS: usize = 16;

/// A fixed-shard concurrent memo table. Values must be cheap to copy;
/// racing computations of the same key are benign because oracles are
/// pure (both writers insert the same value).
struct Sharded<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
}

impl<K: Eq + std::hash::Hash, V: Copy> Sharded<K, V> {
    fn new() -> Sharded<K, V> {
        Sharded {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, h: u64) -> &Mutex<HashMap<K, V>> {
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    fn get(&self, h: u64, key: &K) -> Option<V> {
        self.shard(h)
            .lock()
            .expect("oracle cache lock")
            .get(key)
            .copied()
    }

    fn insert(&self, h: u64, key: K, value: V) {
        self.shard(h)
            .lock()
            .expect("oracle cache lock")
            .insert(key, value);
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("oracle cache lock").len())
            .sum()
    }

    /// Keep only entries whose key satisfies `keep`; returns the number
    /// of evicted entries.
    fn retain(&self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut map = shard.lock().expect("oracle cache lock");
            let before = map.len();
            map.retain(|k, _| keep(k));
            evicted += before - map.len();
        }
        evicted
    }

    /// Drop every entry; returns the number of evicted entries.
    fn clear(&self) -> usize {
        self.retain(|_| false)
    }
}

/// Fibonacci-style mixer choosing a shard from a two-word key. Not a
/// general hash: it only needs to spread (stage, config) pairs evenly.
fn shard_hash(a: u64, b: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    x ^= x >> 32;
    x
}

fn part_key(stage: usize, part: usize) -> u64 {
    ((stage as u64) << 24) | part as u64
}

// ---------------------------------------------------------------------
// ProjectedOracle
// ---------------------------------------------------------------------

/// The sharded-memo caching layer: rewrites `exec(i, c)` to a sum of
/// per-part lookups keyed by the *projected* sub-configuration
/// `c ∩ part_mask`, so distinct full configs that agree on a part's
/// relevant structures share one cache entry. `trans` is not cached
/// (engine transition costs are already a cheap set difference);
/// `size` is memoized per config.
///
/// Over an oracle with no relevance info (the [`ProjectableOracle`]
/// defaults) this is a plain memo: one cache entry per distinct
/// `(stage, config)`.
///
/// The memo also keeps each stage's [`SingletonCosts`] once asked:
/// they are sums of entries it already holds, kept so that re-deriving
/// candidates over a long horizon is a read per stage, not a probe per
/// structure per stage. They live and die with the stage's part
/// entries ([`Self::retain_parts`]).
pub struct ProjectedOracle<O> {
    inner: O,
    stats: Arc<OracleStats>,
    exec_cache: Sharded<(u64, Config), Cost>,
    singleton_cache: Mutex<HashMap<usize, SingletonCosts>>,
    size_cache: Sharded<Config, u64>,
}

impl<O: ProjectableOracle> ProjectedOracle<O> {
    /// Wrap `inner` with a fresh stats bundle.
    pub fn new(inner: O) -> ProjectedOracle<O> {
        ProjectedOracle::with_stats(inner, OracleStats::shared())
    }

    /// Wrap `inner`, recording into an existing `stats` bundle (share
    /// it with the raw engine adapter to also capture what-if calls).
    pub fn with_stats(inner: O, stats: Arc<OracleStats>) -> ProjectedOracle<O> {
        ProjectedOracle {
            inner,
            stats,
            exec_cache: Sharded::new(),
            singleton_cache: Mutex::new(HashMap::new()),
            size_cache: Sharded::new(),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Mutable access to the wrapped oracle, for in-place growth (e.g.
    /// appending stages for a new window). The memo is keyed by
    /// `(stage, part)`, so *appending* stages leaves every cached entry
    /// valid — that is the warm-start contract. Callers that mutate
    /// *existing* stages must follow up with [`Self::retain_parts`] /
    /// [`Self::invalidate_sizes`] to evict what changed.
    pub fn inner_mut(&mut self) -> &mut O {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// The shared stats bundle.
    pub fn stats(&self) -> &Arc<OracleStats> {
        &self.stats
    }

    /// A point-in-time copy of the counters.
    pub fn stats_snapshot(&self) -> OracleStatsSnapshot {
        OracleStatsSnapshot::from(&*self.stats)
    }

    /// Number of distinct projected part evaluations cached so far
    /// (the seed `MemoOracle` reported distinct `(stage, config)`
    /// pairs; with relevance info the unit is finer: `(stage, part,
    /// projected config)`).
    pub fn exec_evaluations(&self) -> usize {
        self.exec_cache.len()
    }

    /// Warm-start invalidation: keep only memo entries for the
    /// `(stage, part)` pairs `keep` accepts, evicting the rest (e.g.
    /// the stages whose statistics a DML batch changed). Returns the
    /// number of evicted entries. Entries for untouched stages stay
    /// warm across the re-solve — the point of the online pipeline. A
    /// stage that loses any entry also loses its singleton answer.
    pub fn retain_parts(&self, mut keep: impl FnMut(usize, usize) -> bool) -> usize {
        let mut stale_stages = std::collections::HashSet::new();
        let evicted = self.exec_cache.retain(|&(sp, _)| {
            let stage = (sp >> 24) as usize;
            let part = (sp & 0x00FF_FFFF) as usize;
            let kept = keep(stage, part);
            if !kept {
                stale_stages.insert(stage);
            }
            kept
        });
        self.singleton_cache
            .lock()
            .expect("oracle cache lock")
            .retain(|stage, _| !stale_stages.contains(stage));
        if evicted > 0 {
            cdpd_obs::counter!("oracle.memo_evictions").add(evicted as u64);
        }
        evicted
    }

    /// Drop every memoized `size(config)` entry. Needed when the
    /// underlying statistics change (structure sizes are derived from
    /// table statistics, not per-stage costs, so `retain_parts` cannot
    /// reach them). Returns the number of evicted entries.
    pub fn invalidate_sizes(&self) -> usize {
        self.size_cache.clear()
    }
}

impl<O: ProjectableOracle> CostOracle for ProjectedOracle<O> {
    fn n_stages(&self) -> usize {
        self.inner.n_stages()
    }

    fn n_structures(&self) -> usize {
        self.inner.n_structures()
    }

    fn exec(&self, stage: usize, config: &Config) -> Cost {
        self.stats.record_exec_request();
        let mut total = Cost::ZERO;
        for part in 0..self.inner.n_parts(stage) {
            let projected = config.intersect(&self.inner.part_mask(stage, part));
            let pk = part_key(stage, part);
            let h = shard_hash(pk, projected.shard_key());
            let key = (pk, projected);
            if let Some(c) = self.exec_cache.get(h, &key) {
                self.stats.record_projected_hit();
                total += c;
                continue;
            }
            let c = self.inner.exec_part(stage, part, &key.1);
            self.stats.record_raw_eval();
            self.exec_cache.insert(h, key, c);
            total += c;
        }
        total
    }

    fn trans(&self, from: &Config, to: &Config) -> Cost {
        self.inner.trans(from, to)
    }

    fn size(&self, config: &Config) -> u64 {
        let h = shard_hash(config.shard_key(), 0x5153);
        if let Some(s) = self.size_cache.get(h, config) {
            return s;
        }
        let s = self.inner.size(config);
        self.size_cache.insert(h, config.clone(), s);
        s
    }
}

/// A `ProjectedOracle` is itself projectable — the partition metadata
/// delegates to the wrapped oracle. This lets decomposition adapters
/// ([`crate::decompose::LocalOracle`]) rename through a *warm* memo:
/// cost probes still funnel through [`ProjectedOracle::exec`]'s cache,
/// while masks come straight from the source oracle.
impl<O: ProjectableOracle> ProjectableOracle for ProjectedOracle<O> {
    fn relevance_mask(&self, stage: usize) -> Config {
        self.inner.relevance_mask(stage)
    }

    fn n_parts(&self, stage: usize) -> usize {
        self.inner.n_parts(stage)
    }

    fn part_mask(&self, stage: usize, part: usize) -> Config {
        self.inner.part_mask(stage, part)
    }

    fn exec_part(&self, stage: usize, part: usize, config: &Config) -> Cost {
        self.inner.exec_part(stage, part, config)
    }

    fn singleton_costs(&self, stage: usize) -> SingletonCosts {
        let cached = self
            .singleton_cache
            .lock()
            .expect("oracle cache lock")
            .get(&stage)
            .cloned();
        cached.unwrap_or_else(|| {
            // Priced outside the lock, through the memo: a racing
            // caller computes the same answer.
            let costs = price_singletons(self, stage);
            self.singleton_cache
                .lock()
                .expect("oracle cache lock")
                .insert(stage, costs.clone());
            costs
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(io: u64) -> Cost {
        Cost::from_ios(io)
    }

    /// A hand-rolled projectable oracle: two parts per stage with masks
    /// {0,1} and {2}, exec = per-part affine functions, so projection
    /// effects are observable.
    struct TwoPart {
        n_stages: usize,
        evals: AtomicU64,
    }

    impl CostOracle for TwoPart {
        fn n_stages(&self) -> usize {
            self.n_stages
        }
        fn n_structures(&self) -> usize {
            4 // structure 3 is relevant to nothing
        }
        fn exec(&self, stage: usize, config: &Config) -> Cost {
            self.exec_part(stage, 0, &config.intersect(&Config::from_bits(0b0011)))
                + self.exec_part(stage, 1, &config.intersect(&Config::from_bits(0b0100)))
        }
        fn trans(&self, from: &Config, to: &Config) -> Cost {
            c(10).scale(to.minus(from).len() as u64)
        }
        fn size(&self, config: &Config) -> u64 {
            config.len() as u64 * 7
        }
    }

    impl ProjectableOracle for TwoPart {
        fn relevance_mask(&self, _stage: usize) -> Config {
            Config::from_bits(0b0111)
        }
        fn n_parts(&self, _stage: usize) -> usize {
            2
        }
        fn part_mask(&self, _stage: usize, part: usize) -> Config {
            [Config::from_bits(0b0011), Config::from_bits(0b0100)][part].clone()
        }
        fn exec_part(&self, stage: usize, part: usize, config: &Config) -> Cost {
            self.evals.fetch_add(1, Ordering::Relaxed);
            c(1000 + 100 * stage as u64 + 10 * part as u64 + config.bits())
        }
    }

    fn two_part() -> TwoPart {
        TwoPart {
            n_stages: 3,
            evals: AtomicU64::new(0),
        }
    }

    #[test]
    fn projected_shares_entries_across_full_configs() {
        let o = ProjectedOracle::new(two_part());
        // Configs 0b1000 and 0b0000 agree on every part mask.
        let a = o.exec(0, &Config::from_bits(0b1000));
        let b = o.exec(0, &Config::EMPTY);
        assert_eq!(a, b);
        assert_eq!(
            o.exec_evaluations(),
            2,
            "two parts, one projected entry each"
        );
        assert_eq!(o.inner().evals.load(Ordering::Relaxed), 2);
        let snap = o.stats_snapshot();
        assert_eq!(snap.exec_requests, 2);
        assert_eq!(snap.raw_exec_evals, 2);
        assert_eq!(snap.projected_hits, 2);
    }

    #[test]
    fn projected_matches_raw() {
        let raw = two_part();
        let o = ProjectedOracle::new(two_part());
        for stage in 0..3 {
            for bits in 0..16u64 {
                let cfg = Config::from_bits(bits);
                assert_eq!(
                    o.exec(stage, &cfg),
                    raw.exec(stage, &cfg),
                    "EXEC({stage},{cfg})"
                );
            }
        }
        for bits in 0..16u64 {
            let cfg = Config::from_bits(bits);
            assert_eq!(o.size(&cfg), raw.size(&cfg));
            assert_eq!(
                o.trans(&Config::EMPTY, &cfg),
                raw.trans(&Config::EMPTY, &cfg)
            );
        }
        // 3 stages × (4 + 2) distinct projected part configs.
        assert_eq!(o.exec_evaluations(), 18);
    }

    #[test]
    fn retain_parts_evicts_only_named_stages() {
        let o = ProjectedOracle::new(two_part());
        for stage in 0..3 {
            o.exec(stage, &Config::from_bits(0b011));
        }
        assert_eq!(o.exec_evaluations(), 6, "3 stages × 2 parts");
        // Invalidate stage 1 only (a DML batch touched its statements).
        let evicted = o.retain_parts(|stage, _part| stage != 1);
        assert_eq!(evicted, 2);
        assert_eq!(o.exec_evaluations(), 4);
        let before = o.inner().evals.load(Ordering::Relaxed);
        // Warm stages re-probe without inner evaluations...
        o.exec(0, &Config::from_bits(0b011));
        o.exec(2, &Config::from_bits(0b011));
        assert_eq!(o.inner().evals.load(Ordering::Relaxed), before);
        // ...the evicted stage goes back to the inner oracle.
        o.exec(1, &Config::from_bits(0b011));
        assert_eq!(o.inner().evals.load(Ordering::Relaxed), before + 2);
    }

    #[test]
    fn size_cache_invalidation() {
        let o = ProjectedOracle::new(two_part());
        assert_eq!(o.size(&Config::from_bits(0b11)), 14);
        assert_eq!(o.invalidate_sizes(), 1);
        assert_eq!(o.invalidate_sizes(), 0, "second clear finds nothing");
        assert_eq!(o.size(&Config::from_bits(0b11)), 14);
    }

    /// 200 structures and no relevance info (the trait defaults: one
    /// full-mask part per stage), so every probed configuration is its
    /// own cache key — including ones spilled past 64 structures.
    struct FullMaskWide {
        evals: AtomicU64,
    }

    impl CostOracle for FullMaskWide {
        fn n_stages(&self) -> usize {
            2
        }
        fn n_structures(&self) -> usize {
            200
        }
        fn exec(&self, stage: usize, config: &Config) -> Cost {
            self.evals.fetch_add(1, Ordering::Relaxed);
            c(1000 + 100 * stage as u64 + config.structures().sum::<usize>() as u64)
        }
        fn trans(&self, from: &Config, to: &Config) -> Cost {
            c(10).scale(to.minus(from).len() as u64)
        }
        fn size(&self, config: &Config) -> u64 {
            config.len() as u64
        }
    }

    impl ProjectableOracle for FullMaskWide {}

    #[test]
    fn projected_caches_spilled_configs() {
        let o = ProjectedOracle::new(FullMaskWide {
            evals: AtomicU64::new(0),
        });
        let wide = Config::EMPTY.with(0).with(64).with(150);
        let a = o.exec(0, &wide);
        assert_eq!(a, c(1214));
        assert_eq!(o.exec(0, &wide), a, "memo hit on a spilled key");
        assert_eq!(o.inner().evals.load(Ordering::Relaxed), 1);
        // Without relevance info nothing is projected away: a config
        // differing in any structure is a distinct cache key.
        o.exec(0, &wide.with(199));
        assert_eq!(o.exec_evaluations(), 2);
        assert_eq!(o.inner().evals.load(Ordering::Relaxed), 2);
        assert_eq!(o.size(&wide), 3);
        o.size(&wide);
        assert_eq!(o.invalidate_sizes(), 1);
    }

    #[test]
    fn stats_display_is_readable() {
        let stats = OracleStats::default();
        stats.record_exec_request();
        stats.record_raw_eval();
        stats.record_projected_hit();
        stats.record_whatif_calls(5);
        let line = OracleStatsSnapshot::from(&stats).to_string();
        assert!(line.contains("1 exec requests"), "{line}");
        assert!(line.contains("(50.0%)"), "{line}");
        assert!(line.contains("5 what-if calls"), "{line}");
    }
}
