//! One-call answer to the paper's §8 open question — "how to choose an
//! appropriate change constraint (k)?" — by cross-validation against
//! perturbed tomorrows.
//!
//! Given a workload *spec* (not just one trace), this generates a
//! training trace plus held-out variants in the spirit of §6.3's
//! W2/W3: fresh literal re-samples (same structure, different noise)
//! and a window-rotated variant (same mixes, out of phase). The k
//! whose constrained-optimal schedule (trained on the training trace)
//! is cheapest *on the holdouts* is the recommended budget.

use crate::candidates::candidate_indexes;
use crate::oracle::EngineOracle;
use cdpd_core::{
    enumerate_configs, kselect, CostOracle, OracleStatsSnapshot, Problem, ProjectedOracle,
};
use cdpd_engine::{Database, IndexSpec, WhatIfEngine};
use cdpd_types::{Error, Result};
use cdpd_workload::{generate, perturb, summarize, WorkloadSpec};

/// Options for [`suggest_k_robust`].
#[derive(Clone, Debug)]
pub struct KAdviceOptions {
    /// Candidate structures; `None` derives them from the training trace.
    pub structures: Option<Vec<IndexSpec>>,
    /// Maximum indexes per configuration (see
    /// [`crate::AdvisorOptions::max_structures_per_config`]).
    pub max_structures_per_config: Option<usize>,
    /// Largest budget to sweep.
    pub k_max: usize,
    /// Base seed for trace generation.
    pub seed: u64,
    /// Number of re-sampled holdout traces (fresh literals). Note:
    /// for pure point-query workloads the literals do not affect
    /// estimated costs, so re-samples are near-copies of the training
    /// trace — they anchor the mean but do not penalize overfitting.
    pub resampled_holdouts: usize,
    /// Window rotations to hold out (out-of-phase drift; e.g. rotating
    /// W1 by 2 windows produces exactly the paper's W3 pattern). These
    /// are the holdouts that punish chasing minor shifts.
    pub rotations: Vec<usize>,
}

impl Default for KAdviceOptions {
    fn default() -> Self {
        KAdviceOptions {
            structures: None,
            max_structures_per_config: Some(1),
            k_max: 10,
            seed: 42,
            resampled_holdouts: 1,
            rotations: vec![1, 2],
        }
    }
}

/// Result of the sweep: the curve and the recommended budget.
#[derive(Clone, Debug)]
pub struct KAdvice {
    /// Per-k training and mean holdout costs.
    pub curve: Vec<kselect::RobustPoint>,
    /// The recommended change budget.
    pub k: usize,
    /// Instrumentation for the *training* oracle across the whole
    /// k-sweep (see [`cdpd_core::OracleStats`]).
    pub oracle_stats: OracleStatsSnapshot,
    /// Process-wide metrics delta over the [`suggest_k_robust`] call.
    pub metrics: cdpd_obs::MetricsSnapshot,
    /// Rendered span-tree profile of the sweep, when tracing is on.
    pub profile: Option<String>,
}

/// Sweep `k` on a trace generated from `spec`, evaluating each budget's
/// schedule on perturbed holdout traces, and return the budget that
/// generalizes best.
pub fn suggest_k_robust(
    db: &Database,
    spec: &WorkloadSpec,
    options: &KAdviceOptions,
) -> Result<KAdvice> {
    if options.resampled_holdouts == 0 && options.rotations.is_empty() {
        return Err(Error::InvalidArgument(
            "need at least one holdout (resampled or rotated)".into(),
        ));
    }
    let metrics_before = cdpd_obs::registry().snapshot();
    let started_ns = cdpd_obs::trace::now_ns();
    let span = cdpd_obs::span!("kadvice.suggest_k_robust", k_max = options.k_max);
    let train_trace = generate(spec, options.seed);
    let train_sum = summarize(&train_trace, spec.window_len)?;
    let structures = match &options.structures {
        Some(s) => s.clone(),
        None => {
            let schema = db.schema(&spec.table)?;
            candidate_indexes(&schema, &train_sum)?.0
        }
    };
    let mk_oracle = |trace: &cdpd_workload::Trace| -> Result<ProjectedOracle<EngineOracle>> {
        let summarized = summarize(trace, spec.window_len)?;
        Ok(EngineOracle::new(
            WhatIfEngine::snapshot(db, &spec.table)?,
            structures.clone(),
            &summarized,
        )?
        .into_shared())
    };
    let train = mk_oracle(&train_trace)?;

    let mut holdouts: Vec<ProjectedOracle<EngineOracle>> = Vec::new();
    for i in 0..options.resampled_holdouts {
        holdouts.push(mk_oracle(&generate(spec, options.seed + 1 + i as u64))?);
    }
    for (i, &n) in options.rotations.iter().enumerate() {
        let rotated = perturb::rotate_windows(spec, n);
        holdouts.push(mk_oracle(&generate(
            &rotated,
            options.seed + 101 + i as u64,
        ))?);
    }
    let holdout_refs: Vec<&dyn CostOracle> =
        holdouts.iter().map(|o| o as &dyn CostOracle).collect();

    let problem = Problem::paper_experiment();
    let candidates = enumerate_configs(&train, None, options.max_structures_per_config)?;
    let curve = kselect::robust_curve(&train, &holdout_refs, &problem, &candidates, options.k_max)?;
    let k = kselect::suggest_robust_k(&curve)
        .ok_or_else(|| Error::Infeasible("empty robustness curve".into()))?;
    drop(span);
    Ok(KAdvice {
        curve,
        k,
        oracle_stats: train.stats_snapshot(),
        metrics: cdpd_obs::registry().snapshot().delta(&metrics_before),
        profile: cdpd_obs::profile_since(started_ns),
    })
}
