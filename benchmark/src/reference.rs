//! Reference answers computed from the benchmark's own copy of the
//! generated rows — a brute-force scan that shares no code with the
//! program's planner, executor or indexes.

use crate::gen::Table;
use cdpd_server::RemoteResult;
use cdpd_sql::{AggFunc, Condition, Projection, SelectStmt};
use cdpd_types::Value;

fn term_matches(table: &Table, row: &[i64], cond: &Condition) -> bool {
    match cond {
        Condition::Or(branches) => branches.iter().any(|b| term_matches(table, row, b)),
        simple => simple.matches(&Value::Int(row[table.column(simple.column())])),
    }
}

/// What `stmt` must return over `table`: the matching row count, the
/// projected rows in sorted order (column projections), and the
/// aggregate (`COUNT(*)`, `SUM`).
pub fn answer(table: &Table, stmt: &SelectStmt) -> (u64, Option<Vec<Vec<i64>>>, Option<i64>) {
    let hits: Vec<&Vec<i64>> = table
        .rows
        .iter()
        .filter(|row| stmt.conditions.iter().all(|c| term_matches(table, row, c)))
        .collect();
    let count = hits.len() as u64;
    match &stmt.projection {
        Projection::Columns(cols) => {
            let idx: Vec<usize> = cols.iter().map(|c| table.column(c)).collect();
            let mut rows: Vec<Vec<i64>> = hits
                .iter()
                .map(|r| idx.iter().map(|&i| r[i]).collect())
                .collect();
            rows.sort_unstable();
            (count, Some(rows), None)
        }
        Projection::Star => {
            let mut rows: Vec<Vec<i64>> = hits.into_iter().cloned().collect();
            rows.sort_unstable();
            (count, Some(rows), None)
        }
        // COUNT(*) comes back as the count alone, with no aggregate value.
        Projection::CountStar => (count, None, None),
        Projection::Aggregate(AggFunc::Sum, col) => {
            let i = table.column(col);
            (count, None, Some(hits.iter().map(|r| r[i]).sum()))
        }
        Projection::Aggregate(other, _) => panic!("no reference for {other}"),
    }
}

/// Compare a wire result with the reference answer. `materialized`
/// says whether the request asked for rows (`QUERY`) or counts (`EXEC`).
///
/// # Errors
/// A description of the first difference.
pub fn check(
    table: &Table,
    stmt: &SelectStmt,
    got: &RemoteResult,
    materialized: bool,
) -> Result<(), String> {
    let (count, rows, aggregate) = answer(table, stmt);
    if got.count != count {
        return Err(format!("{stmt}: count {} but reference {count}", got.count));
    }
    if let Some(want) = aggregate {
        if got.aggregate != Some(Value::Int(want)) {
            return Err(format!(
                "{stmt}: aggregate {:?} but reference {want}",
                got.aggregate
            ));
        }
    }
    if let (true, Some(want)) = (materialized, rows) {
        let mut have: Vec<Vec<i64>> = got
            .rows
            .as_ref()
            .ok_or_else(|| format!("{stmt}: no rows came back"))?
            .iter()
            .map(|r| r.iter().map(|v| v.as_int().unwrap_or(i64::MIN)).collect())
            .collect();
        have.sort_unstable();
        if have != want {
            return Err(format!(
                "{stmt}: {} rows differ from the reference's {}",
                have.len(),
                want.len()
            ));
        }
    }
    Ok(())
}
