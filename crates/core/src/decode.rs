//! MILP solution → validated left-deep plan.
//!
//! The decoder reads the `tii`/`tio` assignment back into a table
//! permutation, the `jos` assignment into per-join operators, and the
//! `pao`/`pco` assignment into a predicate evaluation schedule. Every step
//! validates: a malformed solution (which would indicate a solver bug or a
//! violated tolerance) is reported, never silently accepted.

use milpjoin_milp::Solution;
use milpjoin_qopt::{eager_evaluation_joins, LeftDeepPlan, Query};

use crate::encode::Encoding;

/// A decoded plan plus the extension information the MILP chose.
#[derive(Debug, Clone)]
pub struct DecodedPlan {
    pub plan: LeftDeepPlan,
    /// For each query predicate: the join index during which the MILP
    /// schedules its evaluation. `None` for unary predicates (evaluated at
    /// scan time) or when scheduling is disabled and the predicate is
    /// simply applied as early as possible.
    pub predicate_schedule: Vec<Option<usize>>,
}

impl DecodedPlan {
    /// Decoded view of a plan that did not come from a MILP solution
    /// (heuristic seeds, fallbacks): every multi-table predicate is
    /// scheduled at its earliest applicable join — the shared eager
    /// schedule of [`eager_evaluation_joins`], matching the implicit
    /// schedule [`decode`] produces when explicit scheduling is off.
    pub fn for_plan(query: &Query, plan: LeftDeepPlan) -> Self {
        let eval_joins = eager_evaluation_joins(query, &plan);
        let predicate_schedule = query
            .predicates
            .iter()
            .zip(eval_joins)
            .map(|(p, eval)| {
                if p.tables.len() < 2 {
                    // Unary predicates are evaluated at scan time.
                    return None;
                }
                // Two distinct tables cannot both be the plan's first, so
                // `eval` is Some for any well-formed multi-table predicate;
                // a degenerate predicate listing one table twice (which
                // validation does not reject) falls back to join 0, the
                // earliest schedulable join.
                Some(eval.unwrap_or(0))
            })
            .collect();
        DecodedPlan {
            plan,
            predicate_schedule,
        }
    }
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// Join `j` does not have exactly one inner table.
    AmbiguousInner { join: usize, count: usize },
    /// The first join does not have exactly one outer table.
    AmbiguousOuter { count: usize },
    /// The assignment does not form a permutation of the query tables.
    NotAPermutation,
    /// Join `j` does not have exactly one selected operator.
    AmbiguousOperator { join: usize, count: usize },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::AmbiguousInner { join, count } => {
                write!(f, "join {join} has {count} inner tables (expected 1)")
            }
            DecodeError::AmbiguousOuter { count } => {
                write!(f, "first join has {count} outer tables (expected 1)")
            }
            DecodeError::NotAPermutation => write!(f, "solution is not a table permutation"),
            DecodeError::AmbiguousOperator { join, count } => {
                write!(f, "join {join} has {count} selected operators (expected 1)")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes a MILP solution into a left-deep plan.
pub fn decode(
    encoding: &Encoding,
    query: &Query,
    solution: &Solution,
) -> Result<DecodedPlan, DecodeError> {
    let jn = encoding.num_joins;
    let n = query.num_tables();

    // First outer table.
    let outer0: Vec<usize> = (0..n)
        .filter(|&t| solution.is_one(encoding.vars.tio[0][t]))
        .collect();
    if outer0.len() != 1 {
        return Err(DecodeError::AmbiguousOuter {
            count: outer0.len(),
        });
    }

    let mut order = Vec::with_capacity(n);
    order.push(query.tables[outer0[0]]);

    for j in 0..jn {
        let inner: Vec<usize> = (0..n)
            .filter(|&t| solution.is_one(encoding.vars.tii[j][t]))
            .collect();
        if inner.len() != 1 {
            return Err(DecodeError::AmbiguousInner {
                join: j,
                count: inner.len(),
            });
        }
        order.push(query.tables[inner[0]]);
    }

    // Operators.
    let mut operators = Vec::new();
    if !encoding.vars.jos.is_empty() {
        for j in 0..jn {
            let chosen: Vec<usize> = (0..encoding.vars.op_set.len())
                .filter(|&i| solution.is_one(encoding.vars.jos[j][i]))
                .collect();
            if chosen.len() != 1 {
                return Err(DecodeError::AmbiguousOperator {
                    join: j,
                    count: chosen.len(),
                });
            }
            operators.push(encoding.vars.op_set[chosen[0]].join_op());
        }
    }

    let plan = if operators.is_empty() {
        LeftDeepPlan::from_order(order)
    } else {
        LeftDeepPlan::with_operators(order, operators)
    };
    plan.validate(query)
        .map_err(|_| DecodeError::NotAPermutation)?;

    // Predicate schedule. Without explicit scheduling, predicates are
    // applied eagerly — the shared schedule derived from the decoded plan
    // itself (`eager_evaluation_joins`), which the encoding's `pao`
    // applicability constraints mirror.
    let eager = eager_evaluation_joins(query, &plan);
    let mut schedule = Vec::with_capacity(query.predicates.len());
    for (qi, _) in query.predicates.iter().enumerate() {
        let Some(e) = encoding.vars.pred_index[qi] else {
            schedule.push(None);
            continue;
        };
        if !encoding.vars.pco.is_empty() {
            // Explicit scheduling: the join whose pco flag is set.
            let at = (0..jn).find(|&j| solution.is_one(encoding.vars.pco[e][j]));
            schedule.push(at);
        } else {
            // `None` only for a degenerate repeated-table predicate whose
            // single table leads the plan: schedule it at join 0 (see
            // `DecodedPlan::for_plan`).
            schedule.push(Some(eager[qi].unwrap_or(0)));
        }
    }

    Ok(DecodedPlan {
        plan,
        predicate_schedule: schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use milpjoin_qopt::{Catalog, Predicate, Query};

    /// A predicate listing one table twice passes validation (only
    /// membership is checked) and must not panic the heuristic-plan
    /// decoder when that table leads the plan.
    #[test]
    fn for_plan_handles_repeated_table_predicates() {
        let mut c = Catalog::new();
        let r = c.add_table("R", 10.0);
        let s = c.add_table("S", 20.0);
        let mut q = Query::new(vec![r, s]);
        q.add_predicate(Predicate {
            name: "degenerate".into(),
            tables: vec![r, r],
            selectivity: 0.5,
            eval_cost_per_tuple: 0.0,
            columns: vec![],
        });
        q.validate(&c).unwrap();
        let d = DecodedPlan::for_plan(&q, LeftDeepPlan::from_order(vec![r, s]));
        assert_eq!(d.predicate_schedule, vec![Some(0)]);
    }
}
