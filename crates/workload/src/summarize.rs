use crate::trace::Trace;
use cdpd_sql::{Condition, Dml};
use cdpd_types::Result;

/// One statement with a multiplicity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WeightedStatement {
    /// A representative statement (the first seen of its group).
    pub statement: Dml,
    /// How many trace statements this entry stands for.
    pub count: u64,
}

/// One summarized window: the advisor's "statement" `S_i`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// Trace positions `[start, start + len)` this block covers.
    pub start: usize,
    /// Number of raw statements in the block.
    pub len: usize,
    /// Deduplicated weighted statements.
    pub weighted: Vec<WeightedStatement>,
}

/// A trace compressed into fixed-length weighted blocks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SummarizedWorkload {
    /// Target table.
    pub table: String,
    /// The blocks, in trace order.
    pub blocks: Vec<Block>,
}

impl SummarizedWorkload {
    /// Number of blocks (= advisor problem stages).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total raw statements summarized.
    pub fn total_statements(&self) -> u64 {
        self.blocks.iter().map(|b| b.len as u64).sum()
    }
}

/// Group a statement into its *cost-equivalence class*.
///
/// Two point queries that differ only in the compared literal have the
/// same estimated cost under every configuration (equality selectivity
/// is `1/distinct`, independent of the literal), so they can share one
/// what-if call. Queries with range predicates have value-dependent
/// selectivity and stay singleton groups.
pub(crate) fn cost_signature(stmt: &Dml) -> Option<String> {
    let mut sig = format!("{}|", stmt.table());
    match stmt {
        Dml::Select(s) => sig.push_str(&format!("S{:?}|", s.projection)),
        Dml::Update(u) => {
            // Updates with the same SET columns and predicate columns
            // cost the same regardless of literals.
            let mut set: Vec<&str> = u.set.iter().map(|(c, _)| c.as_str()).collect();
            set.sort_unstable();
            sig.push_str(&format!("U{}|", set.join(",")));
        }
        Dml::Delete(_) => sig.push_str("D|"),
    }
    let mut cols: Vec<&str> = Vec::new();
    for c in stmt.conditions() {
        match c {
            Condition::Eq { column, .. } => cols.push(column),
            // Range, IN, and OR selectivities are value-dependent
            // (histogram point/range estimates): singleton groups.
            Condition::Range { .. } | Condition::In { .. } | Condition::Or(_) => return None,
        }
    }
    cols.sort_unstable();
    sig.push_str(&cols.join(","));
    Some(sig)
}

/// Compress `trace` into blocks of `window_len` statements, deduplicating
/// cost-equivalent statements within each block.
///
/// For the paper's workloads this turns 15,000 statements into 30 blocks
/// of ≤ 4 weighted statements each — the granularity at which Table 2
/// reports designs, and the difference between a 15,000-stage and a
/// 30-stage sequence graph.
pub fn summarize(trace: &Trace, window_len: usize) -> Result<SummarizedWorkload> {
    Ok(crate::stream::stream_trace(trace, window_len)?.summarized())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, paper};

    #[test]
    fn paper_workload_compresses_to_30_blocks() {
        let params = paper::PaperParams {
            domain: 1000,
            ..Default::default()
        };
        let trace = generate(&paper::w1_with(&params), 7);
        let sum = summarize(&trace, 500).unwrap();
        assert_eq!(sum.len(), 30);
        assert_eq!(sum.total_statements(), 15_000);
        for block in &sum.blocks {
            assert_eq!(block.len, 500);
            assert!(
                block.weighted.len() <= 4,
                "point queries on 4 columns → ≤ 4 groups, got {}",
                block.weighted.len()
            );
            assert_eq!(block.weighted.iter().map(|w| w.count).sum::<u64>(), 500);
        }
    }

    #[test]
    fn weights_reflect_mix() {
        let params = paper::PaperParams {
            domain: 1000,
            ..Default::default()
        };
        let trace = generate(&paper::w1_with(&params), 7);
        let sum = summarize(&trace, 500).unwrap();
        // First window of W1 is mix A: the dominant group targets `a`.
        let block = &sum.blocks[0];
        let top = block.weighted.iter().max_by_key(|w| w.count).unwrap();
        assert_eq!(top.statement.conditions()[0].column(), "a");
        assert!(top.count > 200, "~55% of 500, got {}", top.count);
    }

    #[test]
    fn ragged_tail_window() {
        let trace = Trace::from_selects(
            "t",
            (0..7)
                .map(|i| cdpd_sql::SelectStmt::point("t", "a", i))
                .collect(),
        );
        let sum = summarize(&trace, 3).unwrap();
        assert_eq!(sum.len(), 3);
        assert_eq!(sum.blocks[2].len, 1);
        assert_eq!(sum.total_statements(), 7);
    }

    #[test]
    fn range_queries_stay_singletons() {
        let mut stmts: Vec<Dml> = vec![
            cdpd_sql::SelectStmt::point("t", "a", 1).into(),
            cdpd_sql::SelectStmt::point("t", "a", 2).into(),
        ];
        let range = match cdpd_sql::parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5").unwrap() {
            cdpd_sql::Statement::Select(s) => Dml::Select(s),
            _ => unreachable!(),
        };
        stmts.push(range.clone());
        stmts.push(range);
        let sum = summarize(&Trace::new("t", stmts), 10).unwrap();
        let block = &sum.blocks[0];
        // 2 point queries merge; 2 identical ranges stay separate.
        assert_eq!(block.weighted.len(), 3);
        assert_eq!(block.weighted[0].count, 2);
    }

    #[test]
    fn updates_group_by_set_and_where_columns() {
        let u = |set: &str, wh: &str, v: i64| -> Dml {
            match cdpd_sql::parse(&format!("UPDATE t SET {set} = {v} WHERE {wh} = {v}")).unwrap() {
                cdpd_sql::Statement::Update(u) => Dml::Update(u),
                _ => unreachable!(),
            }
        };
        let stmts = vec![
            u("a", "b", 1),
            u("a", "b", 2),
            u("c", "b", 3),
            cdpd_sql::SelectStmt::point("t", "b", 4).into(),
        ];
        let sum = summarize(&Trace::new("t", stmts), 10).unwrap();
        let block = &sum.blocks[0];
        // (SET a WHERE b) ×2 groups; (SET c WHERE b) alone; the select
        // never merges with updates.
        assert_eq!(block.weighted.len(), 3);
        assert_eq!(block.weighted[0].count, 2);
    }

    #[test]
    fn zero_window_rejected() {
        let trace = Trace::from_selects("t", vec![cdpd_sql::SelectStmt::point("t", "a", 1)]);
        assert!(summarize(&trace, 0).is_err());
    }
}
