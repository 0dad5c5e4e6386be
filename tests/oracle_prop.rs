//! Property tests for the oracle pipeline: the raw [`EngineOracle`]
//! (which evaluates *unprojected* configurations, part by part) and the
//! sharded-memo [`cdpd::core::ProjectedOracle`] must be bit-identical
//! on EXEC, TRANS, and SIZE — over random workloads mixing point,
//! range, projection, aggregate, UPDATE, and DELETE templates, and over
//! random candidate structure subsets. And the advisor's one pipeline
//! (memo, rename to the active set, candidates, solver, globalize) must
//! return exactly the schedule a direct solve over the raw, un-renamed
//! oracle returns.
//!
//! This is the differential argument for the whole layer: projection
//! (`exec(i, c) = exec(i, c ∩ mask)`) and part decomposition
//! (`exec = Σ_p exec_part`) are *claims about the planner*, and here
//! they are checked against the planner itself on every sampled case.

mod common;

use cdpd::core::{
    decompose, enumerate_configs, kaware, Config, CostOracle, Decomposition, Problem,
};
use cdpd::engine::{Database, IndexSpec, WhatIfEngine};
use cdpd::sql::Dml;
use cdpd::workload::{summarize, Trace};
use cdpd::{Advisor, AdvisorOptions, Algorithm, EngineOracle};
use cdpd_testkit::prop::Config as PropConfig;
use cdpd_testkit::{props, Prng};
use common::paper_database;
use std::sync::OnceLock;

const ROWS: i64 = 6_000;
const STAGES: usize = 3;
const STMTS_PER_STAGE: usize = 6;

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| paper_database(ROWS, 77))
}

/// A design-space pool wider than the paper's six, so subsets exercise
/// multi-column prefixes and overlapping leading columns.
fn pool() -> Vec<IndexSpec> {
    vec![
        IndexSpec::new("t", &["a"]),
        IndexSpec::new("t", &["b"]),
        IndexSpec::new("t", &["c"]),
        IndexSpec::new("t", &["d"]),
        IndexSpec::new("t", &["a", "b"]),
        IndexSpec::new("t", &["c", "d"]),
        IndexSpec::new("t", &["b", "c"]),
    ]
}

fn random_stmt(rng: &mut Prng, domain: i64) -> Dml {
    let cols = ["a", "b", "c", "d"];
    let col = cols[rng.gen_range(0..4usize)];
    let col2 = cols[rng.gen_range(0..4usize)];
    let v = rng.gen_range(0..domain);
    let sql = match rng.gen_range(0..8u32) {
        0 | 1 => format!("SELECT * FROM t WHERE {col} = {v}"),
        2 => format!("SELECT {col2} FROM t WHERE {col} = {v}"),
        3 => format!(
            "SELECT * FROM t WHERE {col} BETWEEN {v} AND {}",
            v + domain / 20
        ),
        4 => format!("SELECT COUNT(*) FROM t WHERE {col} = {v}"),
        5 => format!("SELECT MIN({col}) FROM t"),
        6 => format!("UPDATE t SET {col2} = {v} WHERE {col} = {v}"),
        _ => format!("DELETE FROM t WHERE {col} = {v}"),
    };
    dml(&sql)
}

fn dml(sql: &str) -> Dml {
    match cdpd::sql::parse(sql).expect("template is valid SQL") {
        cdpd::sql::Statement::Select(s) => Dml::Select(s),
        cdpd::sql::Statement::Update(u) => Dml::Update(u),
        cdpd::sql::Statement::Delete(d) => Dml::Delete(d),
        _ => unreachable!("templates are DML"),
    }
}

const WIDE_ROWS: i64 = 3_000;
const WIDE_COLS: usize = 8;

fn wide_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| common::wide_database(WIDE_ROWS, WIDE_COLS, 31))
}

/// ≥128 candidate structures over the wide table: every single and
/// ordered pair, plus three-column specs *leading with c4..c7* — the
/// columns the wide workload never touches, so the relevant set stays
/// well under the old 64-structure encoding cap.
fn wide_pool() -> Vec<IndexSpec> {
    let col = |i: usize| format!("c{i}");
    let mut out = Vec::new();
    for a in 0..WIDE_COLS {
        out.push(IndexSpec::new("w", &[col(a).as_str()]));
    }
    for a in 0..WIDE_COLS {
        for b in 0..WIDE_COLS {
            if a != b {
                out.push(IndexSpec::new("w", &[col(a).as_str(), col(b).as_str()]));
            }
        }
    }
    'triples: for a in 4..WIDE_COLS {
        for b in 0..WIDE_COLS {
            for c in 0..WIDE_COLS {
                if a == b || b == c || a == c {
                    continue;
                }
                out.push(IndexSpec::new(
                    "w",
                    &[col(a).as_str(), col(b).as_str(), col(c).as_str()],
                ));
                if out.len() >= 140 {
                    break 'triples;
                }
            }
        }
    }
    out
}

props! {
    config: PropConfig::with_cases(8);

    fn oracle_layers_are_bit_identical(seed in 0u64..1_000_000, subset in 1u64..128) {
        let db = db();
        let mut rng = Prng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ subset);
        let structures: Vec<IndexSpec> = pool()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| subset & (1 << i) != 0)
            .map(|(_, s)| s)
            .collect();
        let m = structures.len();

        let stmts: Vec<Dml> = (0..STAGES * STMTS_PER_STAGE)
            .map(|_| random_stmt(&mut rng, ROWS / 5))
            .collect();
        let workload =
            summarize(&Trace::new("t", stmts), STMTS_PER_STAGE).expect("aligned windows");

        let mk = || {
            EngineOracle::new(
                WhatIfEngine::snapshot(db, "t").expect("analyzed"),
                structures.clone(),
                &workload,
            )
            .expect("valid oracle")
        };
        let raw = mk();
        let shared = mk().into_shared();

        // EXEC: full sweep of every configuration at every stage.
        for stage in 0..STAGES {
            for bits in 0..1u64 << m {
                let cfg = Config::from_bits(bits);
                let want = raw.exec(stage, &cfg);
                assert_eq!(want, shared.exec(stage, &cfg), "EXEC stage {stage} cfg {cfg:?}");
            }
        }
        // TRANS and SIZE: sampled configuration pairs.
        for _ in 0..24 {
            let x = Config::from_bits(rng.gen_range(0..1u64 << m));
            let y = Config::from_bits(rng.gen_range(0..1u64 << m));
            let t = raw.trans(&x, &y);
            assert_eq!(t, shared.trans(&x, &y), "TRANS {x:?} -> {y:?}");
            let s = raw.size(&x);
            assert_eq!(s, shared.size(&x), "SIZE {x:?}");
        }
    }

    /// The CoPhy decomposition claim, checked against the real engine:
    /// a ≥128-candidate instance whose statements only ever use a
    /// narrow (≤64) relevant subset solves bit-identically to the
    /// narrow reference instance built from just that subset — same
    /// costs, same configurations under the rename, same index specs.
    fn wide_vocabulary_solve_matches_projected_narrow_reference(
        seed in 0u64..1_000_000,
        k in 0usize..3,
    ) {
        let db = wide_db();
        let mut rng = Prng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407) | 1);
        let structures = wide_pool();
        assert!(structures.len() >= 128, "pool is the point of this test");

        // SELECT-only statements over c0..c2: the relevant structures
        // are exactly those leading with a touched column.
        let domain = WIDE_ROWS / 5;
        let stmts: Vec<Dml> = (0..STAGES * STMTS_PER_STAGE)
            .map(|_| {
                let j = rng.gen_range(0..3u32);
                let v = rng.gen_range(0..domain);
                dml(&format!("SELECT * FROM w WHERE c{j} = {v}"))
            })
            .collect();
        let workload =
            summarize(&Trace::new("w", stmts), STMTS_PER_STAGE).expect("aligned windows");
        let wide = EngineOracle::new(
            WhatIfEngine::snapshot(db, "w").expect("analyzed"),
            structures.clone(),
            &workload,
        )
        .expect("valid oracle")
        .into_shared();

        let problem = Problem::default();
        let decomp = Decomposition::from_oracle(&wide, &problem, &[]);
        assert!(decomp.n_local() <= 64, "relevant set must fit the old encoding");
        assert!(decomp.n_local() < structures.len(), "decomposition must bite");

        // Reference: the narrow instance over only the relevant
        // structures, in the same relative order — the instance the
        // pre-width-agnostic pipeline could already represent.
        let narrow_structures: Vec<IndexSpec> = decomp
            .members()
            .iter()
            .map(|&g| structures[g].clone())
            .collect();
        let narrow = EngineOracle::new(
            WhatIfEngine::snapshot(db, "w").expect("analyzed"),
            narrow_structures,
            &workload,
        )
        .expect("valid oracle")
        .into_shared();

        let local = decomp.local_oracle(&wide);
        let local_problem = decomp.localize_problem(&problem);
        let cands = decompose::candidate_configs(&local, &local_problem).expect("candidates");
        let narrow_cands = decompose::candidate_configs(&narrow, &problem).expect("candidates");
        assert_eq!(cands, narrow_cands, "candidate derivation must agree");

        let wide_local = kaware::solve(&local, &local_problem, &cands, *k).expect("solvable");
        let narrow_sched = kaware::solve(&narrow, &problem, &narrow_cands, *k).expect("solvable");
        assert_eq!(wide_local.total_cost(), narrow_sched.total_cost());
        assert_eq!(wide_local.configs, narrow_sched.configs, "bit-identical schedules");

        let wide_sched = decomp.globalize_schedule(wide_local);
        for (wc, nc) in wide_sched.configs.iter().zip(&narrow_sched.configs) {
            assert_eq!(
                wide.inner().specs_of(wc),
                narrow.inner().specs_of(nc),
                "renamed configurations must resolve to the same indexes"
            );
        }
    }

    /// The rename must be invisible on narrow instances too: with
    /// m ≤ 12 structures, some on columns no statement touches,
    /// `Advisor::recommend` — memoized, renamed to the active set —
    /// must return the schedule a direct k-aware solve over full
    /// enumeration on the raw, un-renamed, un-memoized `EngineOracle`
    /// returns: same configurations, EXEC, TRANS, and change count.
    fn narrow_recommendation_matches_direct_solve_on_the_raw_oracle(
        seed in 0u64..1_000_000,
        m in 3usize..13,
        k in 0usize..4,
        cap in 1usize..3,
    ) {
        let db = wide_db();
        let mut rng = Prng::seed_from_u64(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ *m as u64);
        // The pool's singles and ordered pairs over all eight columns.
        // The statements below touch only c0..c3, so roughly half of
        // any sample is irrelevant to every stage — and the first pick,
        // drawn from c4..c7 alone, always is.
        let all: Vec<IndexSpec> = wide_pool().into_iter().take(WIDE_COLS * WIDE_COLS).collect();
        let cold = format!("c{}", rng.gen_range(4..WIDE_COLS));
        let mut structures = vec![IndexSpec::new("w", &[cold.as_str()])];
        while structures.len() < *m {
            let spec = all[rng.gen_range(0..all.len())].clone();
            if !structures.contains(&spec) {
                structures.push(spec);
            }
        }

        let domain = WIDE_ROWS / 5;
        let stmts: Vec<Dml> = (0..STAGES * STMTS_PER_STAGE)
            .map(|_| {
                let col = rng.gen_range(0..4u32);
                let col2 = rng.gen_range(0..4u32);
                let v = rng.gen_range(0..domain);
                dml(&match rng.gen_range(0..6u32) {
                    0..=2 => format!("SELECT * FROM w WHERE c{col} = {v}"),
                    3 => format!("SELECT c{col2} FROM w WHERE c{col} = {v}"),
                    4 => format!(
                        "SELECT * FROM w WHERE c{col} BETWEEN {v} AND {}",
                        v + domain / 20
                    ),
                    _ => format!("UPDATE w SET c{col2} = {v} WHERE c{col} = {v}"),
                })
            })
            .collect();
        let trace = Trace::new("w", stmts);

        let rec = Advisor::new(db, "w")
            .options(AdvisorOptions {
                k: Some(*k),
                window_len: STMTS_PER_STAGE,
                structures: Some(structures.clone()),
                max_structures_per_config: Some(*cap),
                algorithm: Algorithm::KAware,
                ..Default::default()
            })
            .recommend(&trace)
            .expect("narrow instance solves");

        let workload = summarize(&trace, STMTS_PER_STAGE).expect("aligned windows");
        let raw = EngineOracle::new(
            WhatIfEngine::snapshot(db, "w").expect("analyzed"),
            structures.clone(),
            &workload,
        )
        .expect("valid oracle");
        let active = Decomposition::from_oracle(&raw, &Problem::default(), &[]).n_local();
        assert!(active < *m, "the cold structure must fall outside the active set");
        let cands = enumerate_configs(&raw, None, Some(*cap)).expect("m <= 12");
        let want = kaware::solve(&raw, &Problem::default(), &cands, *k).expect("solvable");
        assert_eq!(rec.schedule, want, "m={m} active={active} k={k} cap={cap}");
        assert_eq!(rec.structures, structures);
    }
}
