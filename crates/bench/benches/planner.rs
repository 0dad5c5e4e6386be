//! Criterion microbenchmarks for the predicate-tree access paths: the
//! measured throughput of IN-probe unions (`IndexOr`), cross-column
//! disjunctions, and rowid intersections (`IndexAnd`) against the seq
//! scan each one must beat, plus the planner's *modelled* costs for
//! the same statements as metric records. The cost metrics are
//! deterministic at fixed scale/seed, so `BENCH_planner.json` doubles
//! as a cost-model regression baseline: a drop in the win margins
//! means the multi-index paths got (relatively) more expensive.

use cdpd::engine::IndexSpec;
use cdpd::sql::{parse, SelectStmt, Statement};
use cdpd_bench::{build_database, Scale};
use cdpd_testkit::bench::{Better, Criterion};
use cdpd_testkit::{criterion_group, criterion_main};
use std::hint::black_box;

const ROWS: i64 = 50_000;

fn select(sql: &str) -> SelectStmt {
    match parse(sql).expect("valid sql") {
        Statement::Select(s) => s,
        other => panic!("not a select: {other:?}"),
    }
}

fn bench_planner(criterion: &mut Criterion) {
    let scale = Scale {
        rows: ROWS,
        window_len: 500,
        seed: 5,
    };
    let db = build_database(&scale);
    for spec in [
        IndexSpec::new("t", &["a"]),
        IndexSpec::new("t", &["b"]),
        IndexSpec::new("t", &["c"]),
    ] {
        db.create_index(&spec).expect("builds");
    }

    let in_list =
        select("SELECT a FROM t WHERE a IN (11, 222, 3333, 4444, 5555, 6666, 7777, 8888)");
    let or_pair = select("SELECT a, b FROM t WHERE (a = 101 OR b = 202)");
    let eq_pair = select("SELECT a, b FROM t WHERE a = 101 AND b = 202");
    let scan = select("SELECT d FROM t WHERE d = 777"); // unindexed baseline

    // The benches only mean something if the planner actually takes
    // the multi-index paths at this scale.
    let in_plan = db.query_count(&in_list).expect("runs");
    let or_plan = db.query_count(&or_pair).expect("runs");
    let and_plan = db.query_count(&eq_pair).expect("runs");
    let scan_plan = db.query_count(&scan).expect("runs");
    assert!(in_plan.plan.starts_with("IndexOr"), "{}", in_plan.plan);
    assert!(or_plan.plan.starts_with("IndexOr"), "{}", or_plan.plan);
    assert!(and_plan.plan.starts_with("IndexAnd"), "{}", and_plan.plan);
    assert!(scan_plan.plan.starts_with("SeqScan"), "{}", scan_plan.plan);

    let mut group = criterion.benchmark_group("planner");
    group.sample_size(20);
    group.bench_function("in_probe_union", |b| {
        b.iter(|| db.query_count(black_box(&in_list)).unwrap().count)
    });
    group.bench_function("or_union", |b| {
        b.iter(|| db.query_count(black_box(&or_pair)).unwrap().count)
    });
    group.bench_function("and_intersection", |b| {
        b.iter(|| db.query_count(black_box(&eq_pair)).unwrap().count)
    });
    group.bench_function("seq_scan_baseline", |b| {
        b.iter(|| db.query_count(black_box(&scan)).unwrap().count)
    });

    // Modelled path costs (logical page I/Os) and win margins over the
    // scan each path displaced. Deterministic at fixed scale and seed.
    let scan_ios = scan_plan.est_cost.ios() as f64;
    for (id, result) in [
        ("cost_ios/in_probe_union", &in_plan),
        ("cost_ios/or_union", &or_plan),
        ("cost_ios/and_intersection", &and_plan),
        ("cost_ios/seq_scan", &scan_plan),
    ] {
        group.metric(id, result.est_cost.ios() as f64);
    }
    // Deterministic, so a tight floor catches any cost-model change
    // that erodes the IndexOr/IndexAnd advantage.
    for (id, result) in [
        ("win_margin/in_vs_scan", &in_plan),
        ("win_margin/or_vs_scan", &or_plan),
        ("win_margin/and_vs_scan", &and_plan),
    ] {
        let margin = scan_ios / result.est_cost.ios().max(1) as f64;
        group.gated_metric(id, margin, Better::Higher, 0.90);
    }
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
