//! Property tests for the oracle pipeline: the raw [`EngineOracle`]
//! (which evaluates *unprojected* configurations, part by part) and the
//! sharded-memo [`cdpd::core::ProjectedOracle`] must be bit-identical
//! on EXEC, TRANS, and SIZE — over random workloads mixing point,
//! range, projection, aggregate, UPDATE, and DELETE templates, and over
//! random candidate structure subsets. And the advisor's one pipeline
//! (memo, rename to the active set, candidates, solver, globalize) must
//! return exactly the schedule a direct solve over the raw, un-renamed
//! oracle returns. And a *warm* oracle — one that has priced stages,
//! kept per-stage singleton answers, resolved its structures — must
//! never serve a price the statistics have since moved: after every
//! kind of refresh it agrees with an oracle built cold.
//!
//! This is the differential argument for the whole layer: projection
//! (`exec(i, c) = exec(i, c ∩ mask)`) and part decomposition
//! (`exec = Σ_p exec_part`) are *claims about the planner*, and here
//! they are checked against the planner itself on every sampled case.

mod common;

use cdpd::core::{
    decompose, enumerate_configs, kaware, Config, CostOracle, Decomposition, Problem,
    ProjectableOracle,
};
use cdpd::engine::{Database, IndexSpec, WhatIfEngine};
use cdpd::sql::Dml;
use cdpd::types::Value;
use cdpd::workload::{summarize, SummarizedWorkload, Trace};
use cdpd::{Advisor, AdvisorOptions, Algorithm, EngineOracle, OnlineAdvisor, OnlineOptions};
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

/// A statement over any of the wide table's eight columns, writes
/// included.
fn random_wide_stmt(rng: &mut Prng, domain: i64) -> Dml {
    let col = rng.gen_range(0..WIDE_COLS);
    let col2 = rng.gen_range(0..WIDE_COLS);
    let v = rng.gen_range(0..domain);
    dml(&match rng.gen_range(0..7u32) {
        0 | 1 => format!("SELECT * FROM w WHERE c{col} = {v}"),
        2 => format!("SELECT c{col2} FROM w WHERE c{col} = {v}"),
        3 => format!(
            "SELECT * FROM w WHERE c{col} BETWEEN {v} AND {}",
            v + domain / 20
        ),
        4 => format!("SELECT * FROM w WHERE c{col} = {v} AND c{col2} = {v}"),
        5 => format!("UPDATE w SET c{col2} = {v} WHERE c{col} = {v}"),
        _ => format!("DELETE FROM w WHERE c{col} = {v}"),
    })
}

/// Configurations to compare two oracles on: nothing, every single
/// structure, and random sets of two to four.
fn sample_configs(rng: &mut Prng, m: usize) -> Vec<Config> {
    let mut out = vec![Config::EMPTY];
    out.extend((0..m).map(Config::single));
    for _ in 0..40 {
        let width = rng.gen_range(2..5usize);
        out.push((0..width).fold(Config::EMPTY, |c, _| c.with(rng.gen_range(0..m))));
    }
    out
}

/// Every price the warm oracle serves over `sample` — `exec`, the
/// per-stage singleton answer, `trans`, `size` — against an oracle
/// built cold, and unmemoized, over the database's current statistics.
fn assert_prices_match_a_cold_oracle<O: ProjectableOracle>(
    when: &str,
    warm: &O,
    db: &Database,
    structures: &[IndexSpec],
    workload: &SummarizedWorkload,
    sample: &[Config],
) {
    let cold = EngineOracle::new(
        WhatIfEngine::snapshot(db, "w").expect("analyzed"),
        structures.to_vec(),
        workload,
    )
    .expect("valid oracle");
    assert_eq!(warm.n_stages(), cold.n_stages(), "{when}");
    for stage in 0..cold.n_stages() {
        for cfg in sample {
            assert_eq!(
                warm.exec(stage, cfg),
                cold.exec(stage, cfg),
                "{when}: EXEC stage {stage} cfg {cfg:?}"
            );
        }
        assert_eq!(
            warm.singleton_costs(stage),
            cold.singleton_costs(stage),
            "{when}: singleton answer, stage {stage}"
        );
    }
    for (i, x) in sample.iter().enumerate() {
        let y = &sample[(i * 7 + 3) % sample.len()];
        assert_eq!(
            warm.trans(x, y),
            cold.trans(x, y),
            "{when}: TRANS {x:?} -> {y:?}"
        );
        assert_eq!(warm.size(x), cold.size(x), "{when}: SIZE {x:?}");
    }
}

/// Ask for every price in `sample`, so a memo that forgets to evict has
/// something stale to serve.
fn warm_up<O: ProjectableOracle>(oracle: &O, sample: &[Config]) {
    for stage in 0..oracle.n_stages() {
        for cfg in sample {
            oracle.exec(stage, cfg);
        }
        oracle.singleton_costs(stage);
    }
    for cfg in sample {
        oracle.size(cfg);
    }
}

fn run_update(db: &Database, rng: &mut Prng, domain: i64) {
    let (set, by) = (rng.gen_range(0..WIDE_COLS), rng.gen_range(0..WIDE_COLS));
    let (to, at) = (rng.gen_range(0..domain), rng.gen_range(0..domain));
    db.execute_dml(&dml(&format!(
        "UPDATE w SET c{set} = {to} WHERE c{by} = {at}"
    )))
    .expect("update runs");
}

fn insert_rows(db: &Database, rng: &mut Prng, rows: i64, domain: i64) {
    for _ in 0..rows {
        let row: Vec<Value> = (0..WIDE_COLS)
            .map(|_| Value::Int(rng.gen_range(0..domain)))
            .collect();
        db.insert("w", &row).expect("row matches schema");
    }
}

props! {
    config: PropConfig::with_cases(4);

    /// No stale price survives a statistics refresh, whichever way it
    /// arrives: through `OnlineAdvisor::note_stats_refresh` when only
    /// column statistics moved (evict the parts predicating on them),
    /// through it when the row count moved (evict everything, sizes
    /// too), or through `EngineOracle::refresh_whatif` driven by hand.
    /// The resolved structure list is refreshed with the snapshot, so
    /// TRANS and SIZE follow the statistics as EXEC does.
    fn no_stale_price_survives_a_stats_refresh(seed in 0u64..1_000_000) {
        const ROWS: i64 = 2_000;
        let db = common::wide_database(ROWS, WIDE_COLS, 1 + *seed);
        let domain = ROWS / 5;
        let mut rng = Prng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut structures: Vec<IndexSpec> = Vec::new();
        let pool = wide_pool();
        while structures.len() < 20 {
            let spec = pool[rng.gen_range(0..pool.len())].clone();
            if !structures.contains(&spec) {
                structures.push(spec);
            }
        }
        let stmts: Vec<Dml> = (0..STAGES * STMTS_PER_STAGE)
            .map(|_| random_wide_stmt(&mut rng, domain))
            .collect();
        let workload =
            summarize(&Trace::new("w", stmts.clone()), STMTS_PER_STAGE).expect("aligned windows");
        let sample = sample_configs(&mut rng, structures.len());

        let mut advisor = OnlineAdvisor::new(
            &db,
            "w",
            OnlineOptions {
                advisor: AdvisorOptions {
                    k: Some(2),
                    window_len: STMTS_PER_STAGE,
                    structures: Some(structures.clone()),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("pool validates");
        let decisions = advisor.ingest_all(&db, &stmts).expect("statements bind");
        assert_eq!(decisions.len(), STAGES);
        let check = |when: &str, advisor: &OnlineAdvisor| {
            let warm = advisor.oracle().expect("windows sealed");
            assert_prices_match_a_cold_oracle(when, warm, &db, &structures, &workload, &sample);
        };
        check("freshly built", &advisor);

        // Column statistics move, row and page counts do not.
        warm_up(advisor.oracle().expect("windows sealed"), &sample);
        for _ in 0..120 {
            run_update(&db, &mut rng, domain);
        }
        let refresh = db.refresh_stats("w").expect("analyzed");
        assert!(
            !refresh.rows_changed && !refresh.changed_columns.is_empty(),
            "updates move column statistics only: {refresh:?}"
        );
        advisor.note_stats_refresh(&db, &refresh).expect("same table");
        check("after a changed-columns refresh", &advisor);

        // The row count moves: every selectivity, shape, build cost and
        // size with it.
        warm_up(advisor.oracle().expect("windows sealed"), &sample);
        insert_rows(&db, &mut rng, ROWS / 4, domain);
        let refresh = db.refresh_stats("w").expect("analyzed");
        assert!(refresh.rows_changed, "{refresh:?}");
        advisor.note_stats_refresh(&db, &refresh).expect("same table");
        check("after a rows-changed refresh", &advisor);

        // The same protocol by hand on a bare memo: refresh the
        // snapshot, evict every part, drop the sizes.
        let mut bare = EngineOracle::new(
            WhatIfEngine::snapshot(&db, "w").expect("analyzed"),
            structures.clone(),
            &workload,
        )
        .expect("valid oracle")
        .into_shared();
        warm_up(&bare, &sample);
        insert_rows(&db, &mut rng, ROWS / 4, domain);
        db.refresh_stats("w").expect("analyzed");
        bare.inner_mut()
            .refresh_whatif(WhatIfEngine::snapshot(&db, "w").expect("analyzed"))
            .expect("same table, same structures");
        bare.retain_parts(|_, _| false);
        bare.invalidate_sizes();
        assert_prices_match_a_cold_oracle(
            "after refresh_whatif",
            &bare,
            &db,
            &structures,
            &workload,
            &sample,
        );
    }

    /// Appending a stage leaves the earlier stages' singleton answers
    /// where they are — served from the memo, no part re-evaluated —
    /// and the relevance masks a stage is grouped by are, statement by
    /// statement, the ones `WhatIfEngine::relevant_structures` answers
    /// over unresolved specs.
    fn appended_stages_keep_earlier_answers_and_masks_match_the_planner(
        seed in 0u64..1_000_000,
    ) {
        let db = wide_db();
        let domain = WIDE_ROWS / 5;
        let mut rng = Prng::seed_from_u64(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1);
        let structures = wide_pool();
        let whatif = WhatIfEngine::snapshot(db, "w").expect("analyzed");
        // One statement per stage: a stage has one part, and its mask
        // is that statement's.
        let stmts: Vec<Dml> = (0..8).map(|_| random_wide_stmt(&mut rng, domain)).collect();
        let workload = summarize(&Trace::new("w", stmts.clone()), 1).expect("aligned windows");
        let head = SummarizedWorkload {
            table: workload.table.clone(),
            blocks: workload.blocks[..4].to_vec(),
        };
        let mut oracle = EngineOracle::new(
            WhatIfEngine::snapshot(db, "w").expect("analyzed"),
            structures.clone(),
            &head,
        )
        .expect("valid oracle")
        .into_shared();
        let before: Vec<_> = (0..4).map(|stage| oracle.singleton_costs(stage)).collect();

        for (i, block) in workload.blocks[4..].iter().enumerate() {
            oracle.inner_mut().append_block(block).expect("statement binds");
            let evals = oracle.stats_snapshot().raw_exec_evals;
            for (stage, want) in before.iter().enumerate() {
                assert_eq!(oracle.singleton_costs(stage), *want, "stage {stage}");
            }
            assert_eq!(
                oracle.stats_snapshot().raw_exec_evals,
                evals,
                "earlier stages are read, not re-priced"
            );
            let fresh = oracle.singleton_costs(4 + i);
            assert!(oracle.stats_snapshot().raw_exec_evals > evals, "the new stage is priced");
            assert_eq!(fresh.singles.len(), oracle.relevance_mask(4 + i).len());
        }

        for (stage, stmt) in stmts.iter().enumerate() {
            let relevant = whatif.relevant_structures(stmt, &structures).expect("binds");
            let mask = relevant
                .iter()
                .enumerate()
                .filter(|(_, &r)| r)
                .fold(Config::EMPTY, |acc, (i, _)| acc.with(i));
            assert_eq!(oracle.n_parts(stage), 1);
            assert_eq!(oracle.part_mask(stage, 0), mask, "statement {stmt}");
            assert_eq!(oracle.relevance_mask(stage), mask, "statement {stmt}");
        }
    }
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
                let cfg = Config::from_words(&[bits]);
                let want = raw.exec(stage, &cfg);
                assert_eq!(want, shared.exec(stage, &cfg), "EXEC stage {stage} cfg {cfg:?}");
            }
        }
        // TRANS and SIZE: sampled configuration pairs.
        for _ in 0..24 {
            let x = Config::from_words(&[rng.gen_range(0..1u64 << m)]);
            let y = Config::from_words(&[rng.gen_range(0..1u64 << m)]);
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
