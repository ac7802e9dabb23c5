//! Join queries: tables, predicates, correlation groups, projections.
//!
//! The model follows Section 3 of the paper: a query is a set of tables to
//! join plus predicates connecting them. Extensions from Section 5 are
//! represented as optional attributes: n-ary predicates (more than two
//! referenced tables), correlated predicate groups (a correction factor on
//! top of the independence assumption), expensive predicates (per-tuple
//! evaluation cost), and output projections.

use std::fmt;

use crate::catalog::{Catalog, ColumnId, TableId};

/// Identifies a predicate within a [`Query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredicateId(pub u32);

impl PredicateId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A join/selection predicate over one or more tables.
#[derive(Debug, Clone)]
pub struct Predicate {
    pub name: String,
    /// Referenced tables; length 2 for ordinary join predicates, 1 for
    /// selections, >= 3 for the n-ary extension (§5.1).
    pub tables: Vec<TableId>,
    /// Selectivity in (0, 1].
    pub selectivity: f64,
    /// Per-tuple evaluation cost; 0 models the paper's base assumption of
    /// free predicates, > 0 enables the expensive-predicate extension
    /// (§5.1).
    pub eval_cost_per_tuple: f64,
    /// Columns the predicate needs (projection extension, §5.2). Empty means
    /// "not tracked".
    pub columns: Vec<ColumnId>,
}

impl Predicate {
    /// An ordinary binary equi-join style predicate.
    pub fn binary(t1: TableId, t2: TableId, selectivity: f64) -> Self {
        Predicate {
            name: format!("p({t1},{t2})"),
            tables: vec![t1, t2],
            selectivity,
            eval_cost_per_tuple: 0.0,
            columns: Vec::new(),
        }
    }

    /// An n-ary predicate over the given tables.
    pub fn nary(tables: Vec<TableId>, selectivity: f64) -> Self {
        let name = format!(
            "p({})",
            tables
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        Predicate {
            name,
            tables,
            selectivity,
            eval_cost_per_tuple: 0.0,
            columns: Vec::new(),
        }
    }

    /// Marks this predicate as expensive.
    pub fn with_eval_cost(mut self, per_tuple: f64) -> Self {
        self.eval_cost_per_tuple = per_tuple;
        self
    }

    pub fn log10_selectivity(&self) -> f64 {
        self.selectivity.log10()
    }
}

/// A correlated predicate group (§5.1): the combined selectivity of the
/// member predicates deviates from their product by `correction`, which is
/// applied once all members are applicable.
#[derive(Debug, Clone)]
pub struct CorrelatedGroup {
    pub members: Vec<PredicateId>,
    /// Multiplicative correction `Sel(g)` such that
    /// `Sel(g) * prod Sel(p)` is the true combined selectivity.
    pub correction: f64,
}

/// A join query.
#[derive(Debug, Clone, Default)]
pub struct Query {
    pub tables: Vec<TableId>,
    pub predicates: Vec<Predicate>,
    pub correlated_groups: Vec<CorrelatedGroup>,
    /// Output columns (projection extension). Empty = project everything /
    /// untracked.
    pub output_columns: Vec<ColumnId>,
}

/// Errors from [`Query::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    NoTables,
    DuplicateTable(TableId),
    UnknownTable(TableId),
    /// Predicate references a table that is not part of the query.
    PredicateTableNotInQuery {
        predicate: String,
        table: TableId,
    },
    InvalidSelectivity {
        predicate: String,
        selectivity: f64,
    },
    /// Evaluation cost per tuple not finite or negative.
    InvalidEvalCost {
        predicate: String,
        cost: f64,
    },
    /// Correlated group references an unknown predicate.
    UnknownPredicate(PredicateId),
    /// Correlated group correction not finite or not positive.
    InvalidCorrection {
        group: usize,
        correction: f64,
    },
    /// A carried column (output or predicate column) lives on a table that
    /// is not part of the query.
    ColumnOutsideQuery(ColumnId),
    /// A carried column names a column its table does not have.
    UnknownColumn(ColumnId),
    /// A carried column's width is not finite or negative.
    InvalidColumnWidth {
        column: ColumnId,
        bytes: f64,
    },
    TooManyTables {
        count: usize,
        max: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NoTables => write!(f, "query has no tables"),
            QueryError::DuplicateTable(t) => write!(f, "table {t} appears twice"),
            QueryError::UnknownTable(t) => write!(f, "table {t} not in catalog"),
            QueryError::PredicateTableNotInQuery { predicate, table } => {
                write!(
                    f,
                    "predicate {predicate} references table {table} outside the query"
                )
            }
            QueryError::InvalidSelectivity {
                predicate,
                selectivity,
            } => {
                write!(
                    f,
                    "predicate {predicate} has selectivity {selectivity} outside (0, 1]"
                )
            }
            QueryError::InvalidEvalCost { predicate, cost } => {
                write!(
                    f,
                    "predicate {predicate} has evaluation cost {cost}, not a finite value >= 0"
                )
            }
            QueryError::UnknownPredicate(p) => write!(f, "unknown predicate #{}", p.0),
            QueryError::InvalidCorrection { group, correction } => {
                write!(
                    f,
                    "correlated group #{group} has correction {correction}, not a finite value > 0"
                )
            }
            QueryError::ColumnOutsideQuery(c) => {
                write!(f, "column {}.{} is outside the query", c.table, c.column)
            }
            QueryError::UnknownColumn(c) => {
                write!(f, "column {}.{} not in catalog", c.table, c.column)
            }
            QueryError::InvalidColumnWidth { column, bytes } => {
                write!(
                    f,
                    "column {}.{} has width {bytes}, not a finite value >= 0",
                    column.table, column.column
                )
            }
            QueryError::TooManyTables { count, max } => {
                write!(f, "query joins {count} tables; at most {max} supported")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Maximum number of tables (the table-set bitmask is 64 bits wide; the
/// paper's evaluation tops out at 60).
pub const MAX_TABLES: usize = 64;

impl Query {
    pub fn new(tables: Vec<TableId>) -> Self {
        Query {
            tables,
            ..Default::default()
        }
    }

    pub fn add_predicate(&mut self, p: Predicate) -> PredicateId {
        let id = PredicateId(self.predicates.len() as u32);
        self.predicates.push(p);
        id
    }

    pub fn add_correlated_group(&mut self, members: Vec<PredicateId>, correction: f64) {
        self.correlated_groups.push(CorrelatedGroup {
            members,
            correction,
        });
    }

    /// Number of tables `n`.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of predicates `m`.
    pub fn num_predicates(&self) -> usize {
        self.predicates.len()
    }

    /// Number of binary joins in any complete plan: `n - 1`.
    pub fn num_joins(&self) -> usize {
        self.tables.len().saturating_sub(1)
    }

    /// Query-local position of a table (`None` if not part of the query).
    pub fn table_position(&self, t: TableId) -> Option<usize> {
        self.tables.iter().position(|&x| x == t)
    }

    /// Query-local position of a table that is known to belong to the
    /// query — the post-[`validate`](Query::validate) form of
    /// [`table_position`](Query::table_position), for code paths that
    /// only ever see validated queries (encoders, cost models,
    /// fingerprinting, plan decoding). Centralizing the lookup keeps the
    /// membership invariant in one audited place instead of an `expect`
    /// at every call site.
    ///
    /// # Panics
    ///
    /// If `t` is not one of the query's tables — by contract a
    /// caller-side validation bug, not a recoverable condition.
    pub fn position_of(&self, t: TableId) -> usize {
        // audit-allow(no-panic): single audited choke point for the
        // validated-query membership invariant; see the doc contract.
        self.table_position(t)
            .expect("table outside the validated query")
    }

    /// Validates the query against a catalog.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), QueryError> {
        if self.tables.is_empty() {
            return Err(QueryError::NoTables);
        }
        if self.tables.len() > MAX_TABLES {
            return Err(QueryError::TooManyTables {
                count: self.tables.len(),
                max: MAX_TABLES,
            });
        }
        for (i, &t) in self.tables.iter().enumerate() {
            if t.index() >= catalog.num_tables() {
                return Err(QueryError::UnknownTable(t));
            }
            if self.tables[..i].contains(&t) {
                return Err(QueryError::DuplicateTable(t));
            }
        }
        for p in &self.predicates {
            if p.selectivity <= 0.0 || p.selectivity > 1.0 || !p.selectivity.is_finite() {
                return Err(QueryError::InvalidSelectivity {
                    predicate: p.name.clone(),
                    selectivity: p.selectivity,
                });
            }
            if !(p.eval_cost_per_tuple.is_finite() && p.eval_cost_per_tuple >= 0.0) {
                return Err(QueryError::InvalidEvalCost {
                    predicate: p.name.clone(),
                    cost: p.eval_cost_per_tuple,
                });
            }
            for &t in &p.tables {
                if self.table_position(t).is_none() {
                    return Err(QueryError::PredicateTableNotInQuery {
                        predicate: p.name.clone(),
                        table: t,
                    });
                }
            }
        }
        for (group, g) in self.correlated_groups.iter().enumerate() {
            for &pid in &g.members {
                if pid.index() >= self.predicates.len() {
                    return Err(QueryError::UnknownPredicate(pid));
                }
            }
            if !(g.correction.is_finite() && g.correction > 0.0) {
                return Err(QueryError::InvalidCorrection {
                    group,
                    correction: g.correction,
                });
            }
        }
        let carried = self.predicates.iter().flat_map(|p| &p.columns);
        for &column in self.output_columns.iter().chain(carried) {
            if self.table_position(column.table).is_none() {
                return Err(QueryError::ColumnOutsideQuery(column));
            }
            let Some(c) = catalog
                .table(column.table)
                .columns
                .get(column.column as usize)
            else {
                return Err(QueryError::UnknownColumn(column));
            };
            if !(c.bytes.is_finite() && c.bytes >= 0.0) {
                return Err(QueryError::InvalidColumnWidth {
                    column,
                    bytes: c.bytes,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Catalog, Query) {
        let mut c = Catalog::new();
        let r = c.add_table("R", 10.0);
        let s = c.add_table("S", 1000.0);
        let t = c.add_table("T", 100.0);
        let mut q = Query::new(vec![r, s, t]);
        q.add_predicate(Predicate::binary(r, s, 0.1));
        (c, q)
    }

    #[test]
    fn basic_query_valid() {
        let (c, q) = setup();
        q.validate(&c).unwrap();
        assert_eq!(q.num_tables(), 3);
        assert_eq!(q.num_joins(), 2);
        assert_eq!(q.num_predicates(), 1);
    }

    #[test]
    fn rejects_duplicate_tables() {
        let mut c = Catalog::new();
        let r = c.add_table("R", 10.0);
        let q = Query::new(vec![r, r]);
        assert_eq!(q.validate(&c), Err(QueryError::DuplicateTable(r)));
    }

    #[test]
    fn rejects_bad_selectivity() {
        let (c, mut q) = setup();
        let (r, s) = (q.tables[0], q.tables[1]);
        q.add_predicate(Predicate::binary(r, s, 0.0));
        assert!(matches!(
            q.validate(&c),
            Err(QueryError::InvalidSelectivity { .. })
        ));
    }

    #[test]
    fn rejects_predicate_on_foreign_table() {
        let (mut c, mut q) = setup();
        let alien = c.add_table("alien", 5.0);
        q.add_predicate(Predicate::binary(q.tables[0], alien, 0.5));
        assert!(matches!(
            q.validate(&c),
            Err(QueryError::PredicateTableNotInQuery { .. })
        ));
    }

    #[test]
    fn nary_and_expensive_predicates() {
        let (c, mut q) = setup();
        let (r, s, t) = (q.tables[0], q.tables[1], q.tables[2]);
        let p = Predicate::nary(vec![r, s, t], 0.25).with_eval_cost(2.5);
        assert_eq!(p.tables.len(), 3);
        assert_eq!(p.eval_cost_per_tuple, 2.5);
        q.add_predicate(p);
        q.validate(&c).unwrap();
    }

    #[test]
    fn correlated_group_validation() {
        let (c, mut q) = setup();
        q.add_correlated_group(vec![PredicateId(0)], 2.0);
        q.validate(&c).unwrap();
        q.add_correlated_group(vec![PredicateId(9)], 2.0);
        assert_eq!(
            q.validate(&c),
            Err(QueryError::UnknownPredicate(PredicateId(9)))
        );
    }

    #[test]
    fn log_selectivity() {
        let p = Predicate::binary(TableId(0), TableId(1), 0.1);
        assert!((p.log10_selectivity() + 1.0).abs() < 1e-12);
    }
}
