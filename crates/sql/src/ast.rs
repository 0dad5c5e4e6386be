use cdpd_types::{Value, ValueType};
use std::fmt;

/// Aggregate functions over one column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFunc {
    /// `SUM(col)`
    Sum,
    /// `MIN(col)`
    Min,
    /// `MAX(col)`
    Max,
    /// `AVG(col)` (integer average, rounded toward zero)
    Avg,
    /// `COUNT(col)` (no NULLs in this engine, so = `COUNT(*)`)
    Count,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::Sum => write!(f, "SUM"),
            AggFunc::Min => write!(f, "MIN"),
            AggFunc::Max => write!(f, "MAX"),
            AggFunc::Avg => write!(f, "AVG"),
            AggFunc::Count => write!(f, "COUNT"),
        }
    }
}

/// What a `SELECT` returns.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Projection {
    /// `SELECT *`
    Star,
    /// `SELECT COUNT(*)`
    CountStar,
    /// `SELECT a, b, ...`
    Columns(Vec<String>),
    /// `SELECT <func>(col)` — a single-column aggregate.
    Aggregate(AggFunc, String),
}

impl Projection {
    /// Column names this projection reads from the base table
    /// (`None` for `*`, which reads everything).
    pub fn referenced_columns(&self) -> Option<&[String]> {
        match self {
            Projection::Columns(cols) => Some(cols),
            Projection::Star => None,
            Projection::CountStar => Some(&[]),
            Projection::Aggregate(_, col) => Some(std::slice::from_ref(col)),
        }
    }
}

/// One term of the normalized predicate tree.
///
/// The `WHERE` clause is a *conjunction* of terms, where each term is
/// an equality, a range, an `IN` list (all on a single column), or an
/// `OR` of such simple branches. This normal form — no arbitrary
/// nesting, no expressions — matches exactly the access-path decisions
/// a single-table design advisor must cost: equality seeks, range
/// scans, IN-probe/`OR` unions, rowid intersections, and residual
/// filters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Condition {
    /// `col = v`
    Eq {
        /// Column name.
        column: String,
        /// Literal compared against.
        value: Value,
    },
    /// `col BETWEEN lo AND hi` (inclusive), or a one-sided bound with
    /// `lo`/`hi` as `None` (from `<`, `<=`, `>`, `>=`).
    Range {
        /// Column name.
        column: String,
        /// Lower bound, if any.
        lo: Option<Value>,
        /// Whether the lower bound itself matches.
        lo_inclusive: bool,
        /// Upper bound, if any.
        hi: Option<Value>,
        /// Whether the upper bound itself matches.
        hi_inclusive: bool,
    },
    /// `col IN (v1, v2, ...)`. The literal list is kept verbatim
    /// (duplicates and all) for display fidelity; deduplication is a
    /// *planning-time* normalization.
    In {
        /// Column name.
        column: String,
        /// Literal list, in statement order.
        values: Vec<Value>,
    },
    /// A disjunction of *simple* branches (`Eq`, `Range`, or `In`;
    /// never a nested `Or`), possibly across different columns.
    Or(Vec<Condition>),
}

impl Condition {
    /// The column this term constrains — for [`Condition::Or`], the
    /// first branch's column (disjunctions may span several columns;
    /// use [`Condition::for_each_column`] to see them all).
    pub fn column(&self) -> &str {
        match self {
            Condition::Eq { column, .. }
            | Condition::Range { column, .. }
            | Condition::In { column, .. } => column,
            Condition::Or(branches) => branches.first().map_or("", |b| b.column()),
        }
    }

    /// Visit every column this term references (branch columns of an
    /// `Or` included), in syntactic order, possibly with repeats.
    pub fn for_each_column(&self, f: &mut impl FnMut(&str)) {
        match self {
            Condition::Eq { column, .. }
            | Condition::Range { column, .. }
            | Condition::In { column, .. } => f(column),
            Condition::Or(branches) => {
                for b in branches {
                    b.for_each_column(f);
                }
            }
        }
    }

    /// Every column this term references, deduplicated, in syntactic
    /// order.
    pub fn columns(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        match self {
            Condition::Eq { column, .. }
            | Condition::Range { column, .. }
            | Condition::In { column, .. } => out.push(column),
            Condition::Or(branches) => {
                for b in branches {
                    for c in b.columns() {
                        if !out.contains(&c) {
                            out.push(c);
                        }
                    }
                }
            }
        }
        out
    }

    /// True when the term constrains exactly one column (always true
    /// for `Eq`/`Range`/`In`; true for an `Or` whose branches all name
    /// the same column).
    pub fn single_column(&self) -> bool {
        self.columns().len() == 1
    }

    /// True if `v` satisfies this term. For [`Condition::Or`] this is
    /// only meaningful when the disjunction is
    /// [`single_column`](Condition::single_column) — multi-column
    /// disjunctions need a full row, which is the executor's job.
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            Condition::Eq { value, .. } => v == value,
            Condition::Range {
                lo,
                lo_inclusive,
                hi,
                hi_inclusive,
                ..
            } => {
                if let Some(lo) = lo {
                    if v < lo || (v == lo && !lo_inclusive) {
                        return false;
                    }
                }
                if let Some(hi) = hi {
                    if v > hi || (v == hi && !hi_inclusive) {
                        return false;
                    }
                }
                true
            }
            Condition::In { values, .. } => values.contains(v),
            Condition::Or(branches) => branches.iter().any(|b| b.matches(v)),
        }
    }
}

/// `ORDER BY` clause.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OrderBy {
    /// Sort column.
    pub column: String,
    /// True for `DESC`.
    pub desc: bool,
}

/// A parsed `SELECT`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SelectStmt {
    /// Projected columns.
    pub projection: Projection,
    /// Base table name.
    pub table: String,
    /// Conjunctive predicate; empty means no `WHERE` clause.
    pub conditions: Vec<Condition>,
    /// Optional `ORDER BY`.
    pub order_by: Option<OrderBy>,
    /// Optional `LIMIT`.
    pub limit: Option<u64>,
}

impl SelectStmt {
    /// The paper's workload template: `SELECT col FROM table WHERE col = v`.
    pub fn point(table: impl Into<String>, column: impl Into<String>, v: i64) -> SelectStmt {
        let column = column.into();
        SelectStmt {
            projection: Projection::Columns(vec![column.clone()]),
            table: table.into(),
            conditions: vec![Condition::Eq {
                column,
                value: Value::Int(v),
            }],
            order_by: None,
            limit: None,
        }
    }

    /// Every column name the statement touches (projection + predicate),
    /// or `None` if it reads all columns (`SELECT *`).
    pub fn referenced_columns(&self) -> Option<Vec<&str>> {
        let mut cols: Vec<&str> = self
            .projection
            .referenced_columns()?
            .iter()
            .map(String::as_str)
            .collect();
        for c in &self.conditions {
            for col in c.columns() {
                if !cols.contains(&col) {
                    cols.push(col);
                }
            }
        }
        if let Some(ob) = &self.order_by {
            if !cols.contains(&ob.column.as_str()) {
                cols.push(&ob.column);
            }
        }
        Some(cols)
    }
}

/// A parsed `UPDATE`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `SET col = literal` assignments, in statement order.
    pub set: Vec<(String, Value)>,
    /// Conjunctive predicate selecting the rows to update.
    pub conditions: Vec<Condition>,
}

impl UpdateStmt {
    /// Column names written by this update.
    pub fn written_columns(&self) -> Vec<&str> {
        self.set.iter().map(|(c, _)| c.as_str()).collect()
    }
}

/// A parsed `DELETE`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// Conjunctive predicate selecting the rows to delete.
    pub conditions: Vec<Condition>,
}

/// A workload statement: the statement kinds that may appear in a
/// trace handed to the design advisor (Definition 1's *"sequence of
/// queries and updates"*). DDL is excluded — design changes are the
/// advisor's output, not its input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Dml {
    /// A query.
    Select(SelectStmt),
    /// An update (reads via the predicate, then writes).
    Update(UpdateStmt),
    /// A delete.
    Delete(DeleteStmt),
}

impl Dml {
    /// The statement's target table.
    pub fn table(&self) -> &str {
        match self {
            Dml::Select(s) => &s.table,
            Dml::Update(u) => &u.table,
            Dml::Delete(d) => &d.table,
        }
    }

    /// The predicate conjuncts.
    pub fn conditions(&self) -> &[Condition] {
        match self {
            Dml::Select(s) => &s.conditions,
            Dml::Update(u) => &u.conditions,
            Dml::Delete(d) => &d.conditions,
        }
    }

    /// True for statements that modify data (updates and deletes).
    pub fn is_write(&self) -> bool {
        !matches!(self, Dml::Select(_))
    }
}

impl From<SelectStmt> for Dml {
    fn from(s: SelectStmt) -> Dml {
        Dml::Select(s)
    }
}

impl From<UpdateStmt> for Dml {
    fn from(s: UpdateStmt) -> Dml {
        Dml::Update(s)
    }
}

impl From<DeleteStmt> for Dml {
    fn from(s: DeleteStmt) -> Dml {
        Dml::Delete(s)
    }
}

impl fmt::Display for Dml {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dml::Select(s) => write!(f, "{s}"),
            Dml::Update(s) => fmt_update(f, s),
            Dml::Delete(s) => fmt_delete(f, s),
        }
    }
}

fn fmt_where(f: &mut fmt::Formatter<'_>, conditions: &[Condition]) -> fmt::Result {
    for (i, c) in conditions.iter().enumerate() {
        write!(f, " {} {c}", if i == 0 { "WHERE" } else { "AND" })?;
    }
    Ok(())
}

fn fmt_update(f: &mut fmt::Formatter<'_>, u: &UpdateStmt) -> fmt::Result {
    write!(f, "UPDATE {} SET ", u.table)?;
    for (i, (c, v)) in u.set.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{c} = {v}")?;
    }
    fmt_where(f, &u.conditions)
}

fn fmt_delete(f: &mut fmt::Formatter<'_>, d: &DeleteStmt) -> fmt::Result {
    write!(f, "DELETE FROM {}", d.table)?;
    fmt_where(f, &d.conditions)
}

/// Any parsed statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Statement {
    /// A query.
    Select(SelectStmt),
    /// An update.
    Update(UpdateStmt),
    /// A delete.
    Delete(DeleteStmt),
    /// `CREATE TABLE name (col type, ...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column names and types, in order.
        columns: Vec<(String, ValueType)>,
    },
    /// `CREATE INDEX name ON table (col, ...)`.
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Key columns, in key order.
        columns: Vec<String>,
    },
    /// `DROP INDEX name`.
    DropIndex {
        /// Index name.
        name: String,
    },
    /// `INSERT INTO table VALUES (v, ...)`.
    Insert {
        /// Target table.
        table: String,
        /// Row literals.
        values: Vec<Value>,
    },
}

impl Statement {
    /// The workload-statement form of a `SELECT`, `UPDATE` or `DELETE`
    /// (cloned); `None`, without cloning, for any other statement.
    pub fn as_dml(&self) -> Option<Dml> {
        match self {
            Statement::Select(s) => Some(Dml::Select(s.clone())),
            Statement::Update(u) => Some(Dml::Update(u.clone())),
            Statement::Delete(d) => Some(Dml::Delete(d.clone())),
            _ => None,
        }
    }
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Projection::Star => write!(f, "*"),
            Projection::CountStar => write!(f, "COUNT(*)"),
            Projection::Columns(cols) => write!(f, "{}", cols.join(", ")),
            Projection::Aggregate(func, col) => write!(f, "{func}({col})"),
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Eq { column, value } => write!(f, "{column} = {value}"),
            Condition::Range {
                column,
                lo,
                lo_inclusive,
                hi,
                hi_inclusive,
            } => {
                match (lo, hi) {
                    (Some(lo), Some(hi)) if *lo_inclusive && *hi_inclusive => {
                        write!(f, "{column} BETWEEN {lo} AND {hi}")
                    }
                    (Some(lo), Some(hi)) => {
                        // Two-sided non-inclusive ranges print as a
                        // conjunction of two comparisons on the same
                        // column (the parser folds them back together).
                        write!(
                            f,
                            "{column} >{} {lo} AND {column} <{} {hi}",
                            if *lo_inclusive { "=" } else { "" },
                            if *hi_inclusive { "=" } else { "" },
                        )
                    }
                    (Some(lo), None) => {
                        write!(f, "{column} >{} {lo}", if *lo_inclusive { "=" } else { "" })
                    }
                    (None, Some(hi)) => {
                        write!(f, "{column} <{} {hi}", if *hi_inclusive { "=" } else { "" })
                    }
                    (None, None) => write!(f, "{column} IS NOT NULL"),
                }
            }
            Condition::In { column, values } => {
                write!(f, "{column} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            // Always parenthesized so the printed form re-parses as one
            // grouped disjunction even inside an AND-joined WHERE.
            Condition::Or(branches) => {
                write!(f, "(")?;
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT {} FROM {}", self.projection, self.table)?;
        for (i, c) in self.conditions.iter().enumerate() {
            write!(f, " {} {c}", if i == 0 { "WHERE" } else { "AND" })?;
        }
        if let Some(ob) = &self.order_by {
            write!(
                f,
                " ORDER BY {}{}",
                ob.column,
                if ob.desc { " DESC" } else { "" }
            )?;
        }
        if let Some(limit) = self.limit {
            write!(f, " LIMIT {limit}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Update(u) => fmt_update(f, u),
            Statement::Delete(d) => fmt_delete(f, d),
            Statement::CreateTable { name, columns } => {
                write!(f, "CREATE TABLE {name} (")?;
                for (i, (c, t)) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c} {t}")?;
                }
                write!(f, ")")
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
            } => {
                write!(f, "CREATE INDEX {name} ON {table} ({})", columns.join(", "))
            }
            Statement::DropIndex { name } => write!(f, "DROP INDEX {name}"),
            Statement::Insert { table, values } => {
                write!(f, "INSERT INTO {table} VALUES (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_template_matches_paper() {
        let s = SelectStmt::point("t", "a", 42);
        assert_eq!(s.to_string(), "SELECT a FROM t WHERE a = 42");
    }

    #[test]
    fn condition_matches_eq() {
        let c = Condition::Eq {
            column: "a".into(),
            value: Value::Int(5),
        };
        assert!(c.matches(&Value::Int(5)));
        assert!(!c.matches(&Value::Int(6)));
    }

    #[test]
    fn condition_matches_ranges() {
        let between = Condition::Range {
            column: "a".into(),
            lo: Some(Value::Int(2)),
            lo_inclusive: true,
            hi: Some(Value::Int(4)),
            hi_inclusive: true,
        };
        assert!(between.matches(&Value::Int(2)));
        assert!(between.matches(&Value::Int(4)));
        assert!(!between.matches(&Value::Int(5)));

        let lt = Condition::Range {
            column: "a".into(),
            lo: None,
            lo_inclusive: false,
            hi: Some(Value::Int(4)),
            hi_inclusive: false,
        };
        assert!(lt.matches(&Value::Int(3)));
        assert!(!lt.matches(&Value::Int(4)));
    }

    #[test]
    fn condition_matches_in_and_or() {
        let inn = Condition::In {
            column: "a".into(),
            values: vec![Value::Int(1), Value::Int(3), Value::Int(3)],
        };
        assert!(inn.matches(&Value::Int(3)));
        assert!(!inn.matches(&Value::Int(2)));
        assert_eq!(inn.to_string(), "a IN (1, 3, 3)");
        assert_eq!(inn.columns(), vec!["a"]);
        assert!(inn.single_column());

        let empty = Condition::In {
            column: "a".into(),
            values: vec![],
        };
        assert!(!empty.matches(&Value::Int(1)), "empty IN matches nothing");

        let or = Condition::Or(vec![
            Condition::Eq {
                column: "a".into(),
                value: Value::Int(1),
            },
            Condition::Eq {
                column: "b".into(),
                value: Value::Int(2),
            },
        ]);
        assert_eq!(or.to_string(), "(a = 1 OR b = 2)");
        assert_eq!(or.columns(), vec!["a", "b"]);
        assert_eq!(or.column(), "a", "Or reports its first branch column");
        assert!(!or.single_column());

        let same_col = Condition::Or(vec![
            Condition::Eq {
                column: "a".into(),
                value: Value::Int(1),
            },
            Condition::Range {
                column: "a".into(),
                lo: Some(Value::Int(5)),
                lo_inclusive: true,
                hi: None,
                hi_inclusive: false,
            },
        ]);
        assert!(same_col.single_column());
        assert!(same_col.matches(&Value::Int(1)));
        assert!(same_col.matches(&Value::Int(9)));
        assert!(!same_col.matches(&Value::Int(3)));
        assert_eq!(same_col.to_string(), "(a = 1 OR a >= 5)");
    }

    #[test]
    fn referenced_columns_walk_or_branches() {
        let s = SelectStmt {
            projection: Projection::Columns(vec!["a".into()]),
            table: "t".into(),
            conditions: vec![Condition::Or(vec![
                Condition::Eq {
                    column: "b".into(),
                    value: Value::Int(1),
                },
                Condition::In {
                    column: "c".into(),
                    values: vec![Value::Int(2)],
                },
            ])],
            order_by: None,
            limit: None,
        };
        assert_eq!(s.referenced_columns().unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn referenced_columns() {
        let s = SelectStmt {
            projection: Projection::Columns(vec!["a".into()]),
            table: "t".into(),
            conditions: vec![Condition::Eq {
                column: "b".into(),
                value: Value::Int(1),
            }],
            order_by: Some(OrderBy {
                column: "d".into(),
                desc: false,
            }),
            limit: None,
        };
        assert_eq!(s.referenced_columns().unwrap(), vec!["a", "b", "d"]);
        let star = SelectStmt {
            projection: Projection::Star,
            table: "t".into(),
            conditions: vec![],
            order_by: None,
            limit: None,
        };
        assert!(star.referenced_columns().is_none());
        let count = SelectStmt {
            projection: Projection::CountStar,
            table: "t".into(),
            conditions: vec![Condition::Eq {
                column: "c".into(),
                value: Value::Int(9),
            }],
            order_by: None,
            limit: None,
        };
        assert_eq!(count.referenced_columns().unwrap(), vec!["c"]);
    }

    #[test]
    fn dml_wrapper_accessors() {
        let u = UpdateStmt {
            table: "t".into(),
            set: vec![("a".into(), Value::Int(1))],
            conditions: vec![Condition::Eq {
                column: "b".into(),
                value: Value::Int(2),
            }],
        };
        assert_eq!(u.written_columns(), vec!["a"]);
        let dml: Dml = u.clone().into();
        assert_eq!(dml.table(), "t");
        assert_eq!(dml.conditions().len(), 1);
        assert!(dml.is_write());
        assert_eq!(dml.to_string(), "UPDATE t SET a = 1 WHERE b = 2");

        let d: Dml = DeleteStmt {
            table: "t".into(),
            conditions: vec![],
        }
        .into();
        assert_eq!(d.to_string(), "DELETE FROM t");
        assert!(d.is_write());

        let s: Dml = SelectStmt::point("t", "a", 3).into();
        assert!(!s.is_write());
    }

    #[test]
    fn display_ddl() {
        let ci = Statement::CreateIndex {
            name: "i_ab".into(),
            table: "t".into(),
            columns: vec!["a".into(), "b".into()],
        };
        assert_eq!(ci.to_string(), "CREATE INDEX i_ab ON t (a, b)");
        assert_eq!(
            Statement::DropIndex {
                name: "i_ab".into()
            }
            .to_string(),
            "DROP INDEX i_ab"
        );
    }
}
