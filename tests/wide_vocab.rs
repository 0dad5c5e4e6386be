//! Wide-vocabulary smoke gate: a 128-candidate instance must flow
//! through the whole advisory surface — batch [`Advisor::recommend`]
//! and an [`OnlineAdvisor`] window seal — now that configurations are
//! width-agnostic and the pipeline decomposes CoPhy-style instead of
//! refusing anything past 64 structures.

mod common;

use cdpd::engine::IndexSpec;
use cdpd::sql::{Dml, SelectStmt};
use cdpd::workload::Trace;
use cdpd::{Advisor, AdvisorOptions, OnlineAdvisor, OnlineOptions};

const ROWS: i64 = 4_000;
const COLS: usize = 8;
const WINDOW: usize = 40;

/// ≥128 candidate structures over the 8-column table: all singles and
/// ordered pairs (64), plus three-column specs until the pool passes
/// 128. The workload below touches only c0/c1, so the relevant set
/// stays narrow while the vocabulary is double the old cap.
fn pool() -> Vec<IndexSpec> {
    let col = |i: usize| format!("c{i}");
    let mut out = Vec::new();
    for a in 0..COLS {
        out.push(IndexSpec::new("w", &[col(a).as_str()]));
    }
    for a in 0..COLS {
        for b in 0..COLS {
            if a != b {
                out.push(IndexSpec::new("w", &[col(a).as_str(), col(b).as_str()]));
            }
        }
    }
    'triples: for a in 2..COLS {
        for b in 0..COLS {
            for c in 0..COLS {
                if a == b || b == c || a == c {
                    continue;
                }
                out.push(IndexSpec::new(
                    "w",
                    &[col(a).as_str(), col(b).as_str(), col(c).as_str()],
                ));
                if out.len() >= 128 {
                    break 'triples;
                }
            }
        }
    }
    out
}

fn q(col: &str, v: i64) -> Dml {
    SelectStmt::point("w", col, v).into()
}

fn options() -> AdvisorOptions {
    AdvisorOptions {
        k: Some(2),
        window_len: WINDOW,
        structures: Some(pool()),
        max_structures_per_config: Some(1),
        ..Default::default()
    }
}

#[test]
fn batch_advisor_recommends_over_128_candidates() {
    let db = common::wide_database(ROWS, COLS, 7);
    let domain = ROWS / 5;
    let stmts: Vec<Dml> = (0..2 * WINDOW as i64)
        .map(|i| {
            let col = if i < WINDOW as i64 { "c0" } else { "c1" };
            q(col, i % domain)
        })
        .collect();
    let rec = Advisor::new(&db, "w")
        .options(options())
        .recommend(&Trace::new("w", stmts))
        .expect("128-candidate instance must solve");
    assert!(rec.structures.len() >= 128, "full vocabulary retained");
    assert_eq!(rec.schedule.configs.len(), 2);
    // The recommendation tracks the workload through the wide pool.
    let first = rec.specs_at(0);
    assert!(
        first.iter().any(|s| s.columns[0] == "c0"),
        "window 0 is c0-heavy: {first:?}"
    );
    // With k = 2 and `max_structures_per_config: Some(1)` every stage
    // carries at most one index, drawn from the wide pool.
    for stage in 0..rec.schedule.configs.len() {
        assert!(rec.specs_at(stage).len() <= 1);
    }
}

#[test]
fn online_window_seals_over_128_candidates() {
    let db = common::wide_database(ROWS, COLS, 7);
    let domain = ROWS / 5;
    let mut adv = OnlineAdvisor::new(
        &db,
        "w",
        OnlineOptions {
            advisor: options(),
            ..Default::default()
        },
    )
    .expect("128-candidate session must open");
    assert!(adv.structures().len() >= 128);
    let mut decisions = Vec::new();
    for i in 0..WINDOW as i64 {
        if let Some(d) = adv.ingest(&db, &q("c0", i % domain)).unwrap() {
            decisions.push(d);
        }
    }
    assert_eq!(decisions.len(), 1, "one sealed window, one decision");
    let d = &decisions[0];
    assert!(d.resolved, "first window always re-solves");
    assert!(
        d.specs.iter().any(|s| s.columns[0] == "c0"),
        "the committed design must serve the c0 workload: {:?}",
        d.specs
    );
}

/// Two columns per window, a different pair each window: all 128
/// candidates are relevant, so the active set is far past the
/// enumeration width and candidates come from greedy derivation — which
/// proposes the top-two *pair* for every window, because it helps.
fn two_column_windows(windows: usize) -> Vec<Dml> {
    let domain = ROWS / 5;
    (0..(windows * WINDOW) as i64)
        .map(|i| {
            let window = i as usize / WINDOW;
            let col = format!("c{}", (2 * window + i as usize % 2) % COLS);
            q(&col, i % domain)
        })
        .collect()
}

#[test]
fn structure_cap_holds_past_the_enumeration_width() {
    let db = common::wide_database(ROWS, COLS, 7);
    let stmts = two_column_windows(4);
    let capped = AdvisorOptions {
        k: Some(3),
        ..options()
    };

    // Without the cap the pairs are taken: the instance exercises the
    // path the cap has to hold on.
    let uncapped = Advisor::new(&db, "w")
        .options(AdvisorOptions {
            max_structures_per_config: None,
            ..capped.clone()
        })
        .recommend(&Trace::new("w", stmts.clone()))
        .expect("solves");
    assert!(
        uncapped.schedule.configs.iter().any(|c| c.len() == 2),
        "greedy derivation must want pairs here: {:?}",
        uncapped.schedule.configs
    );

    let rec = Advisor::new(&db, "w")
        .options(capped.clone())
        .recommend(&Trace::new("w", stmts.clone()))
        .expect("solves");
    assert_eq!(rec.schedule.configs.len(), 4);
    for cfg in &rec.schedule.configs {
        assert!(cfg.len() <= 1, "batch: cap 1 violated by {cfg:?}");
    }
    assert!(rec.schedule.configs.iter().any(|c| c.len() == 1));

    let mut adv = OnlineAdvisor::new(
        &db,
        "w",
        OnlineOptions {
            advisor: capped,
            ..Default::default()
        },
    )
    .expect("session opens");
    let decisions = adv.ingest_all(&db, &stmts).expect("ingests");
    assert_eq!(decisions.len(), 4);
    for d in &decisions {
        assert!(d.config.len() <= 1, "online: cap 1 violated by {d:?}");
    }
    assert!(decisions.iter().any(|d| d.config.len() == 1));
}
