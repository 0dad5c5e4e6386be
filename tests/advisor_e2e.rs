//! End-to-end advisor behaviour beyond the paper's fixed experiment:
//! derived candidates, space bounds, trace persistence, schedules that
//! start from a non-empty current design, and k-selection.

mod common;

use cdpd::core::kselect;
use cdpd::core::{CostOracle, ProjectableOracle};
use cdpd::engine::{IndexSpec, WhatIfEngine};
use cdpd::workload::{generate, paper, summarize, Trace};
use cdpd::{candidate_indexes, Advisor, AdvisorOptions, Algorithm, EngineOracle};
use common::{paper_database, paper_params, paper_structures};

const ROWS: i64 = 20_000;
const WINDOW: usize = 200;

#[test]
fn derived_candidates_reach_paper_quality() {
    // Without being told the paper's design space, the advisor must
    // discover candidates at least as good for W1 as the hand-picked
    // six (its derived pool includes them, so its optimum can only be
    // equal or better).
    let db = paper_database(ROWS, 21);
    let trace = generate(&paper::w1_with(&paper_params(ROWS, WINDOW)), 2);

    let derived = Advisor::new(&db, "t")
        .options(AdvisorOptions {
            k: Some(2),
            window_len: WINDOW,
            max_structures_per_config: Some(1),
            end_empty: true,
            algorithm: Algorithm::KAware,
            ..Default::default()
        })
        .recommend(&trace)
        .unwrap();

    let handpicked = Advisor::new(&db, "t")
        .options(AdvisorOptions {
            k: Some(2),
            window_len: WINDOW,
            structures: Some(paper_structures()),
            max_structures_per_config: Some(1),
            end_empty: true,
            algorithm: Algorithm::KAware,
            ..Default::default()
        })
        .recommend(&trace)
        .unwrap();

    assert!(
        derived.schedule.total_cost() <= handpicked.schedule.total_cost(),
        "derived {} vs handpicked {}",
        derived.schedule.total_cost(),
        handpicked.schedule.total_cost()
    );
    assert!(derived.schedule.changes <= 2);
}

#[test]
fn space_bound_is_enforced() {
    let db = paper_database(ROWS, 22);
    let trace = generate(&paper::w1_with(&paper_params(ROWS, WINDOW)), 3);
    let whatif = WhatIfEngine::snapshot(&db, "t").unwrap();
    // Bound below any two-column index: only single-column indexes fit.
    let two_col = whatif
        .index_size_pages(&IndexSpec::new("t", &["a", "b"]))
        .unwrap();
    let one_col = whatif
        .index_size_pages(&IndexSpec::new("t", &["a"]))
        .unwrap();
    assert!(one_col < two_col);
    let bound = (one_col + two_col) / 2;

    let rec = Advisor::new(&db, "t")
        .options(AdvisorOptions {
            k: Some(2),
            window_len: WINDOW,
            structures: Some(paper_structures()),
            max_structures_per_config: Some(1),
            space_bound_pages: Some(bound),
            end_empty: true,
            algorithm: Algorithm::KAware,
            ..Default::default()
        })
        .recommend(&trace)
        .unwrap();

    for stage in 0..rec.schedule.len() {
        for spec in rec.specs_at(stage) {
            assert!(
                spec.columns.len() == 1,
                "two-column index {spec} violates the bound"
            );
        }
    }
    // Phase 1 under the bound: I(a,b) is out, so I(a) or I(b) wins.
    let first = rec.specs_at(0);
    assert_eq!(first.len(), 1);
    assert!(["I(a)", "I(b)"].contains(&first[0].display_short().as_str()));
}

#[test]
fn starts_from_current_materialized_design() {
    let db = paper_database(ROWS, 23);
    // The DBA already has I(c) materialized.
    let existing = IndexSpec::new("t", &["c"]);
    db.create_index(&existing).unwrap();
    let trace = generate(&paper::w1_with(&paper_params(ROWS, WINDOW)), 4);
    let rec = Advisor::new(&db, "t")
        .options(AdvisorOptions {
            k: Some(2),
            window_len: WINDOW,
            structures: Some(paper_structures()),
            max_structures_per_config: Some(1),
            algorithm: Algorithm::KAware,
            ..Default::default()
        })
        .recommend(&trace)
        .unwrap();
    // The initial configuration is {I(c)}; the advisor still ends up in
    // a-phase indexes and respects the budget.
    assert!(!rec.problem.initial.is_empty());
    assert!(rec.schedule.changes <= 2);
}

#[test]
fn trace_roundtrip_preserves_recommendation() {
    let db = paper_database(5_000, 24);
    let trace = generate(&paper::w1_with(&paper_params(5_000, 50)), 5);
    let dir = std::env::temp_dir().join("cdpd_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("w1.sql");
    trace.save(&path).unwrap();
    let loaded = Trace::load(&path).unwrap();
    assert_eq!(trace, loaded);

    let opts = AdvisorOptions {
        k: Some(2),
        window_len: 50,
        structures: Some(paper_structures()),
        max_structures_per_config: Some(1),
        algorithm: Algorithm::KAware,
        ..Default::default()
    };
    let a = Advisor::new(&db, "t")
        .options(opts.clone())
        .recommend(&trace)
        .unwrap();
    let b = Advisor::new(&db, "t")
        .options(opts)
        .recommend(&loaded)
        .unwrap();
    assert_eq!(a.schedule, b.schedule);
    std::fs::remove_file(&path).ok();
}

#[test]
fn kselect_suggests_the_major_shift_count() {
    // §8's open question, answered by the cost-curve extension: for W1
    // (two major shifts) the knee of cost-vs-k lands at k = 2.
    let db = paper_database(ROWS, 25);
    let trace = generate(&paper::w1_with(&paper_params(ROWS, WINDOW)), 6);
    let workload = summarize(&trace, WINDOW).unwrap();
    let whatif = WhatIfEngine::snapshot(&db, "t").unwrap();
    let oracle = EngineOracle::new(whatif, paper_structures(), &workload)
        .unwrap()
        .into_shared();
    let problem = cdpd::core::Problem::paper_experiment();
    let candidates = cdpd::core::enumerate_configs(&oracle, None, Some(1)).unwrap();
    let curve = kselect::cost_curve(&oracle, &problem, &candidates, 8).unwrap();
    for w in curve.windows(2) {
        assert!(w[1].cost <= w[0].cost, "curve must be non-increasing");
    }
    let k = kselect::suggest_k_elbow(&curve).unwrap();
    assert_eq!(k, 2, "curve: {curve:?}");
}

#[test]
fn robust_k_picks_2_on_w1_with_w2_w3_holdouts() {
    // §6.3 turned into a selection rule: train on W1, hold out W2 and
    // W3 — the k that minimizes held-out cost is the major-shift count.
    let db = paper_database(ROWS, 28);
    let params = paper_params(ROWS, WINDOW);
    let mk_oracle = |trace: &Trace| {
        let workload = summarize(trace, WINDOW).unwrap();
        EngineOracle::new(
            WhatIfEngine::snapshot(&db, "t").unwrap(),
            paper_structures(),
            &workload,
        )
        .unwrap()
        .into_shared()
    };
    let train = mk_oracle(&generate(&paper::w1_with(&params), 51));
    let h2 = mk_oracle(&generate(&paper::w2_with(&params), 52));
    let h3 = mk_oracle(&generate(&paper::w3_with(&params), 53));
    let problem = cdpd::core::Problem::paper_experiment();
    let candidates = cdpd::core::enumerate_configs(&train, None, Some(1)).unwrap();
    let holdouts: Vec<&dyn CostOracle> = vec![&h2, &h3];
    let curve = kselect::robust_curve(&train, &holdouts, &problem, &candidates, 8).unwrap();
    let k = kselect::suggest_robust_k(&curve).unwrap();
    assert_eq!(k, 2, "{curve:?}");
    // And overfitting (large k) is measurably worse on the holdouts.
    let at2 = curve.iter().find(|p| p.k == 2).unwrap();
    let at8 = curve.iter().find(|p| p.k == 8).unwrap();
    assert!(
        at8.train_cost <= at2.train_cost,
        "train always likes budget"
    );
    assert!(at8.mean_test_cost > at2.mean_test_cost, "holdouts do not");
}

#[test]
fn ddl_script_export_parses_and_matches_segments() {
    let db = paper_database(ROWS, 35);
    let trace = generate(&paper::w1_with(&paper_params(ROWS, WINDOW)), 8);
    let rec = Advisor::new(&db, "t")
        .options(AdvisorOptions {
            k: Some(2),
            window_len: WINDOW,
            structures: Some(paper_structures()),
            max_structures_per_config: Some(1),
            end_empty: true,
            algorithm: Algorithm::KAware,
            ..Default::default()
        })
        .recommend(&trace)
        .unwrap();
    let script = rec.to_ddl_script();
    // Every non-comment statement parses.
    let clean: String = script
        .lines()
        .filter(|l| !l.trim_start().starts_with("--"))
        .collect::<Vec<_>>()
        .join("\n");
    let stmts = cdpd::sql::parse_many(&clean).unwrap();
    // k = 2 with initial+final empty: 1 create + (drop+create) ×2 + final drop.
    assert_eq!(stmts.len(), 6, "{script}");
    assert!(script.contains("before window 0"), "{script}");
    assert!(script.contains("before window 10"), "{script}");
    assert!(script.contains("before window 20"), "{script}");
    assert!(script.contains("after the workload"), "{script}");
    assert!(
        script.contains("CREATE INDEX ix_t_a_b ON t (a, b);"),
        "{script}"
    );
    assert!(
        script.contains("CREATE INDEX ix_t_c_d ON t (c, d);"),
        "{script}"
    );
}

#[test]
fn per_statement_granularity_matches_agrawal_mode() {
    // window_len = 1 is Agrawal et al.'s original formulation: one
    // stage per statement. Finer granularity can only lower the
    // unconstrained optimum (every windowed schedule is expressible
    // per-statement).
    let db = paper_database(8_000, 30);
    let params = paper_params(8_000, 20);
    let spec = paper::w1_with(&paper::PaperParams {
        window_len: 10,
        ..params
    });
    let trace = generate(&spec, 61); // 300 statements
    let opts = |window| AdvisorOptions {
        k: None,
        window_len: window,
        structures: Some(paper_structures()),
        max_structures_per_config: Some(1),
        end_empty: true,
        algorithm: Algorithm::KAware,
        ..Default::default()
    };
    let fine = Advisor::new(&db, "t")
        .options(opts(1))
        .recommend(&trace)
        .unwrap();
    let coarse = Advisor::new(&db, "t")
        .options(opts(30))
        .recommend(&trace)
        .unwrap();
    assert_eq!(fine.schedule.len(), 300);
    assert_eq!(coarse.schedule.len(), 10);
    assert!(
        fine.schedule.total_cost() <= coarse.schedule.total_cost(),
        "fine {} vs coarse {}",
        fine.schedule.total_cost(),
        coarse.schedule.total_cost()
    );
    // Render path works at both granularities.
    let table = fine.render_with(&db, &trace).unwrap();
    assert!(table.contains("total"), "{table}");
}

#[test]
fn candidate_generation_is_schema_checked() {
    let db = paper_database(2_000, 26);
    let trace = Trace::from_selects("t", vec![cdpd::sql::SelectStmt::point("t", "a", 1)]);
    let workload = summarize(&trace, 10).unwrap();
    let (cands, dropped) = candidate_indexes(&db.schema("t").unwrap(), &workload).unwrap();
    assert!(cands.iter().all(|c| c.table == "t"));
    assert_eq!(dropped, 0);
    // Advisor rejects traces for other tables.
    let other = Trace::from_selects("u", vec![cdpd::sql::SelectStmt::point("u", "a", 1)]);
    assert!(Advisor::new(&db, "t").recommend(&other).is_err());
}

#[test]
fn projection_bounds_whatif_calls() {
    let db = paper_database(5_000, 27);
    let trace = generate(&paper::w1_with(&paper_params(5_000, 100)), 7);
    let workload = summarize(&trace, 100).unwrap();
    let whatif = WhatIfEngine::snapshot(&db, "t").unwrap();
    let oracle = EngineOracle::new(whatif, paper_structures(), &workload)
        .unwrap()
        .into_shared();
    let problem = cdpd::core::Problem::paper_experiment();
    let candidates = cdpd::core::enumerate_configs(&oracle, None, Some(1)).unwrap();
    let _ = cdpd::core::kaware::solve(&oracle, &problem, &candidates, 2).unwrap();
    let stats = oracle.stats_snapshot();
    assert!(stats.whatif_calls > 0, "solver never reached the engine");
    // Part-level memoization: distinct part evaluations are bounded by
    // Σ_stage parts(stage) × candidate configs (each part sees at most
    // one entry per distinct projected candidate).
    let max: u64 = (0..oracle.n_stages())
        .map(|s| (oracle.inner().n_parts(s) * candidates.len()) as u64)
        .sum();
    assert!(
        stats.raw_exec_evals <= max,
        "{} raw part evals > Σ parts×configs = {max}",
        stats.raw_exec_evals
    );
    // Solving again at another k hits only the cache: zero new raw
    // evaluations, zero new what-if calls, strictly more hits.
    let _ = cdpd::core::kaware::solve(&oracle, &problem, &candidates, 4).unwrap();
    let again = oracle.stats_snapshot();
    assert_eq!(again.raw_exec_evals, stats.raw_exec_evals);
    assert_eq!(again.whatif_calls, stats.whatif_calls);
    assert!(again.projected_hits > stats.projected_hits);
}
