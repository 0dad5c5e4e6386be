//! Answering the paper's open question §8 — "how to choose an
//! appropriate change constraint (k)?" — two ways:
//!
//! * the cost-curve knee: sweep k, plot constrained-optimal cost
//!   against it, and take the knee;
//! * cross-validation (§6.3): train on W1, re-cost each budget's
//!   schedule on W2 and W3, and take the budget cheapest on them.
//!
//! For W1 (two major shifts) both land at k = 2 without any domain
//! knowledge about the workload's phase structure.
//!
//! ```sh
//! cargo run --release --example pick_k
//! ```

use cdpd::core::{enumerate_configs, kselect, CostOracle, Problem};
use cdpd::engine::{Database, IndexSpec, WhatIfEngine};
use cdpd::types::{ColumnDef, Schema, Value};
use cdpd::workload::{generate, paper, summarize, Trace};
use cdpd::EngineOracle;
use cdpd_testkit::Prng;

const ROWS: i64 = 30_000;
const WINDOW: usize = 250;

fn main() -> cdpd::types::Result<()> {
    let domain = ROWS / 5;
    let db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            ColumnDef::int("a"),
            ColumnDef::int("b"),
            ColumnDef::int("c"),
            ColumnDef::int("d"),
        ]),
    )?;
    let mut rng = Prng::seed_from_u64(17);
    for _ in 0..ROWS {
        let row: Vec<Value> = (0..4)
            .map(|_| Value::Int(rng.gen_range(0..domain)))
            .collect();
        db.insert("t", &row)?;
    }
    db.analyze("t")?;

    let params = paper::PaperParams {
        table: "t".into(),
        domain,
        window_len: WINDOW,
    };
    let structures: Vec<IndexSpec> = vec![
        IndexSpec::new("t", &["a"]),
        IndexSpec::new("t", &["b"]),
        IndexSpec::new("t", &["c"]),
        IndexSpec::new("t", &["d"]),
        IndexSpec::new("t", &["a", "b"]),
        IndexSpec::new("t", &["c", "d"]),
    ];
    let oracle_for = |trace: &Trace| -> cdpd::types::Result<_> {
        let workload = summarize(trace, WINDOW)?;
        let whatif = WhatIfEngine::snapshot(&db, "t")?;
        Ok(EngineOracle::new(whatif, structures.clone(), &workload)?.into_shared())
    };

    let oracle = oracle_for(&generate(&paper::w1_with(&params), 42))?;
    let problem = Problem::paper_experiment();
    let candidates = enumerate_configs(&oracle, None, Some(1))?;

    let k_max = 10;
    let curve = kselect::cost_curve(&oracle, &problem, &candidates, k_max)?;

    println!("constrained-optimal cost vs change budget k (workload W1):\n");
    let max = curve[0].cost.raw() as f64;
    for p in &curve {
        let bar = "█".repeat((60.0 * p.cost.raw() as f64 / max) as usize);
        println!("k={:<2} {:>12} I/Os  {bar}", p.k, p.cost.to_string());
    }

    let knee = kselect::suggest_k_elbow(&curve).expect("curve is non-empty");
    println!(
        "\nknee of the curve: k = {knee}  \
         (W1 has exactly {knee} major shifts — the §2 rule of thumb, derived from data)"
    );

    // Cross-validation: the W1-trained schedule at each budget, re-costed
    // on W2 (minor shifts twice as often) and W3 (minor shifts out of
    // phase).
    let holdouts = [
        oracle_for(&generate(&paper::w2_with(&params), 43))?,
        oracle_for(&generate(&paper::w3_with(&params), 44))?,
    ];
    let holdout_refs: Vec<&dyn CostOracle> =
        holdouts.iter().map(|h| h as &dyn CostOracle).collect();
    let robust = kselect::robust_curve(&oracle, &holdout_refs, &problem, &candidates, k_max)?;
    let cross = kselect::suggest_robust_k(&robust).expect("curve is non-empty");
    println!("cross-validated (train W1, hold out W2, W3): k = {cross}");
    println!("\n{:>3} {:>14} {:>16}", "k", "train cost", "holdout cost");
    for p in &robust {
        println!(
            "{:>3} {:>14} {:>16}",
            p.k,
            p.train_cost.to_string(),
            p.mean_test_cost.to_string()
        );
    }
    println!("\ncost-curve oracle: {}", oracle.stats_snapshot());
    Ok(())
}
