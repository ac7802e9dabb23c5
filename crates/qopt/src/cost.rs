//! Cost models for left-deep plans (§4.3 of the paper).
//!
//! Four models are implemented, exactly following the paper's formulas:
//!
//! * **C_out** (Cluet & Moerkotte): the sum of intermediate-result
//!   cardinalities. Join orders minimizing C_out also minimize several
//!   standard operator cost functions.
//! * **Hash join**: `3 * (pages(outer) + pages(inner))`.
//! * **Sort-merge join** (both inputs sorted):
//!   `2*P_o*ceil(log2 P_o) + 2*P_i*ceil(log2 P_i) + P_o + P_i`.
//! * **Block nested loop join** (pipelined):
//!   `ceil(P_o / buffer) * P_i`.
//!
//! Plan cost is the sum of per-join costs plus, when the expensive-predicate
//! extension is active, predicate evaluation costs at the join where each
//! predicate first becomes applicable. [`StepPricer`] holds that per-join
//! rule; [`plan_cost`], the classical DP and the greedy heuristic all price
//! joins through it, so they agree on every plan.

use crate::card::Estimator;
use crate::catalog::{Catalog, TableId};
use crate::plan::{JoinOp, LeftDeepPlan};
use crate::query::Query;
use crate::table_set::TableSet;

/// Storage/runtime parameters shared by the cost models.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Bytes per tuple of every operand (the paper's fixed-width
    /// simplification).
    pub tuple_bytes: f64,
    /// Bytes per disk page.
    pub page_bytes: f64,
    /// Buffer pages dedicated to the outer operand of a BNL join.
    pub buffer_pages: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            tuple_bytes: 64.0,
            page_bytes: 8192.0,
            buffer_pages: 64.0,
        }
    }
}

impl CostParams {
    /// Disk pages for `card` tuples.
    pub fn pages(&self, card: f64) -> f64 {
        (card * self.tuple_bytes / self.page_bytes).ceil().max(1.0)
    }
}

/// Everything a cost model may look at for one join.
#[derive(Debug, Clone, Copy)]
pub struct JoinContext {
    /// Cardinality of the outer operand.
    pub outer_card: f64,
    /// Cardinality of the inner operand (a single table in left-deep plans).
    pub inner_card: f64,
    /// Cardinality of the join result.
    pub output_card: f64,
    /// Join index (0-based); `num_joins - 1` is the final join.
    pub join_index: usize,
    /// Total number of joins in the plan.
    pub num_joins: usize,
}

/// Which single-operator cost model to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostModelKind {
    /// Sum of intermediate result cardinalities.
    Cout,
    Hash,
    SortMerge,
    BlockNestedLoop,
}

impl CostModelKind {
    pub fn name(self) -> &'static str {
        match self {
            CostModelKind::Cout => "Cout",
            CostModelKind::Hash => "hash",
            CostModelKind::SortMerge => "sort-merge",
            CostModelKind::BlockNestedLoop => "block-nested-loop",
        }
    }

    /// The operator this model corresponds to (C_out has none).
    pub fn operator(self) -> Option<JoinOp> {
        match self {
            CostModelKind::Cout => None,
            CostModelKind::Hash => Some(JoinOp::Hash),
            CostModelKind::SortMerge => Some(JoinOp::SortMerge),
            CostModelKind::BlockNestedLoop => Some(JoinOp::BlockNestedLoop),
        }
    }

    /// Cost of one join under this model.
    pub fn join_cost(self, ctx: &JoinContext, params: &CostParams) -> f64 {
        match self {
            CostModelKind::Cout => {
                // Intermediate results only: the final result is identical
                // for every complete plan and is excluded, matching the
                // paper's objective  sum_{j >= 1} co_j.
                if ctx.join_index + 1 == ctx.num_joins {
                    0.0
                } else {
                    ctx.output_card
                }
            }
            CostModelKind::Hash => operator_cost(JoinOp::Hash, ctx, params),
            CostModelKind::SortMerge => operator_cost(JoinOp::SortMerge, ctx, params),
            CostModelKind::BlockNestedLoop => operator_cost(JoinOp::BlockNestedLoop, ctx, params),
        }
    }
}

/// Cost of one join executed with a specific physical operator.
pub fn operator_cost(op: JoinOp, ctx: &JoinContext, params: &CostParams) -> f64 {
    let po = params.pages(ctx.outer_card);
    let pi = params.pages(ctx.inner_card);
    match op {
        JoinOp::Hash => 3.0 * (po + pi),
        JoinOp::SortMerge => {
            2.0 * po * po.log2().ceil().max(0.0) + 2.0 * pi * pi.log2().ceil().max(0.0) + po + pi
        }
        JoinOp::BlockNestedLoop => (po / params.buffer_pages).ceil().max(1.0) * pi,
    }
}

/// Prices the join steps of left-deep plans over one query. A step joins
/// an outer operand (a set of query-local positions) with one base table,
/// the inner operand, and costs two parts:
///
/// * the join itself, under the cost model (or the step's operator), for
///   the outer's estimated cardinality, the inner table's raw catalog
///   cardinality and the result's estimated cardinality;
/// * the evaluation charge `eval_cost_per_tuple × outer cardinality` of
///   every expensive predicate whose last table the step adds — the
///   paper's eager schedule, `Σ_j pco_pj · co_j`.
///
/// Both depend only on the outer set and the inner table, so a subset DP
/// over them is exact.
#[derive(Debug, Clone)]
pub struct StepPricer<'a> {
    catalog: &'a Catalog,
    query: &'a Query,
    model: CostModelKind,
    params: CostParams,
    /// (table positions, evaluation cost per tuple) of each expensive
    /// predicate, in query order.
    expensive: Vec<(TableSet, f64)>,
}

impl<'a> StepPricer<'a> {
    /// A pricer for `query`; the query must be valid for the catalog.
    pub fn new(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModelKind,
        params: &CostParams,
    ) -> Self {
        let positions = |tables: &[TableId]| {
            TableSet::from_positions(tables.iter().map(|&t| query.position_of(t)))
        };
        StepPricer {
            catalog,
            query,
            model,
            params: *params,
            expensive: query
                .predicates
                .iter()
                .filter(|p| p.eval_cost_per_tuple > 0.0)
                .map(|p| (positions(&p.tables), p.eval_cost_per_tuple))
                .collect(),
        }
    }

    /// `(join cost, predicate charge)` of joining the table at position
    /// `inner` to `outer`, of estimated cardinality `outer_card`, into a
    /// result of estimated cardinality `output_card`. An explicit `op`
    /// prices the join instead of the model, except under C_out.
    pub fn price(
        &self,
        outer: TableSet,
        outer_card: f64,
        inner: usize,
        output_card: f64,
        op: Option<JoinOp>,
    ) -> (f64, f64) {
        let ctx = JoinContext {
            outer_card,
            inner_card: self.catalog.cardinality(self.query.tables[inner]),
            output_card,
            join_index: outer.len().saturating_sub(1),
            num_joins: self.query.num_tables().saturating_sub(1),
        };
        let join = match op {
            Some(op) if self.model != CostModelKind::Cout => operator_cost(op, &ctx, &self.params),
            _ => self.model.join_cost(&ctx, &self.params),
        };
        let result = outer.insert(inner);
        let mut charge = 0.0;
        for &(tables, eval_cost) in &self.expensive {
            if tables.contains(inner) && tables.is_subset_of(result) {
                charge += eval_cost * outer_card;
            }
        }
        (join, charge)
    }
}

/// Per-join cost breakdown of a plan.
#[derive(Debug, Clone)]
pub struct PlanCost {
    pub total: f64,
    pub per_join: Vec<f64>,
    /// Total predicate-evaluation cost included in `total`.
    pub predicate_cost: f64,
}

/// Computes the exact (estimator-based) cost of a left-deep plan, join by
/// join through [`StepPricer`].
///
/// When `plan.operators` is non-empty, each join is costed with its chosen
/// physical operator (overriding `model` for non-C_out models); otherwise
/// `model` applies globally. Expensive predicates contribute
/// `eval_cost_per_tuple × outer cardinality` at the join that first makes
/// them applicable.
pub fn plan_cost(
    catalog: &Catalog,
    query: &Query,
    plan: &LeftDeepPlan,
    model: CostModelKind,
    params: &CostParams,
) -> PlanCost {
    let est = Estimator::new(catalog, query);
    plan_cost_with_estimator(&est, catalog, query, plan, model, params)
}

/// As [`plan_cost`], reusing a prebuilt estimator (hot path for DP/benches).
pub fn plan_cost_with_estimator(
    est: &Estimator,
    catalog: &Catalog,
    query: &Query,
    plan: &LeftDeepPlan,
    model: CostModelKind,
    params: &CostParams,
) -> PlanCost {
    let pricer = StepPricer::new(catalog, query, model, params);
    let mut per_join = Vec::with_capacity(plan.order.len());
    let mut total = 0.0;
    let mut predicate_cost = 0.0;
    let mut outer_set = plan
        .order
        .first()
        .map_or(TableSet::EMPTY, |&t| TableSet::single(query.position_of(t)));
    let mut outer_card = est.cardinality(outer_set);
    for (j, &inner) in plan.order.iter().enumerate().skip(1) {
        let inner_pos = query.position_of(inner);
        let result_set = outer_set.insert(inner_pos);
        let output_card = est.cardinality(result_set);
        let op = (!plan.operators.is_empty()).then(|| plan.operator(j - 1));
        let (join, charge) = pricer.price(outer_set, outer_card, inner_pos, output_card, op);
        per_join.push(join);
        total += join;
        total += charge;
        predicate_cost += charge;
        outer_set = result_set;
        outer_card = output_card;
    }

    PlanCost {
        total,
        per_join,
        predicate_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;

    fn setup() -> (Catalog, Query) {
        let mut c = Catalog::new();
        c.page_size_bytes = 100.0;
        c.default_tuple_bytes = 10.0;
        let r = c.add_table("R", 10.0);
        let s = c.add_table("S", 1000.0);
        let t = c.add_table("T", 100.0);
        let mut q = Query::new(vec![r, s, t]);
        q.add_predicate(Predicate::binary(r, s, 0.1));
        (c, q)
    }

    fn params() -> CostParams {
        CostParams {
            tuple_bytes: 10.0,
            page_bytes: 100.0,
            buffer_pages: 4.0,
        }
    }

    #[test]
    fn cout_counts_intermediates_only() {
        let (c, q) = setup();
        // (R ⋈ S) ⋈ T: intermediate R⋈S = 1000; final result excluded.
        let plan = LeftDeepPlan::from_order(vec![q.tables[0], q.tables[1], q.tables[2]]);
        let pc = plan_cost(&c, &q, &plan, CostModelKind::Cout, &params());
        assert!((pc.total - 1000.0).abs() < 1e-6, "{}", pc.total);
        // (R ⋈ T) ⋈ S: intermediate RxT = 1000 (cross product).
        let plan2 = LeftDeepPlan::from_order(vec![q.tables[0], q.tables[2], q.tables[1]]);
        let pc2 = plan_cost(&c, &q, &plan2, CostModelKind::Cout, &params());
        assert!((pc2.total - 1000.0).abs() < 1e-6);
        // (S ⋈ T) ⋈ R: intermediate SxT = 100000: much worse.
        let plan3 = LeftDeepPlan::from_order(vec![q.tables[1], q.tables[2], q.tables[0]]);
        let pc3 = plan_cost(&c, &q, &plan3, CostModelKind::Cout, &params());
        assert!((pc3.total - 100000.0).abs() < 1e-3);
    }

    #[test]
    fn hash_join_formula() {
        let p = params();
        let ctx = JoinContext {
            outer_card: 95.0, // 950 B -> 10 pages
            inner_card: 10.0, // 100 B -> 1 page
            output_card: 50.0,
            join_index: 0,
            num_joins: 1,
        };
        assert_eq!(CostModelKind::Hash.join_cost(&ctx, &p), 3.0 * 11.0);
    }

    #[test]
    fn sort_merge_formula() {
        let p = params();
        let ctx = JoinContext {
            outer_card: 80.0, // 8 pages
            inner_card: 40.0, // 4 pages
            output_card: 10.0,
            join_index: 0,
            num_joins: 1,
        };
        // 2*8*3 + 2*4*2 + 8 + 4 = 48 + 16 + 12 = 76.
        assert_eq!(CostModelKind::SortMerge.join_cost(&ctx, &p), 76.0);
    }

    #[test]
    fn bnl_formula() {
        let p = params(); // buffer 4 pages
        let ctx = JoinContext {
            outer_card: 90.0, // 9 pages -> ceil(9/4) = 3 blocks
            inner_card: 70.0, // 7 pages
            output_card: 10.0,
            join_index: 0,
            num_joins: 1,
        };
        assert_eq!(CostModelKind::BlockNestedLoop.join_cost(&ctx, &p), 21.0);
    }

    #[test]
    fn per_operator_plan_costing() {
        let (c, q) = setup();
        let order = vec![q.tables[0], q.tables[1], q.tables[2]];
        let hash_plan = LeftDeepPlan::with_operators(order.clone(), vec![JoinOp::Hash; 2]);
        let mixed_plan = LeftDeepPlan::with_operators(
            order.clone(),
            vec![JoinOp::Hash, JoinOp::BlockNestedLoop],
        );
        let p = params();
        let ch = plan_cost(&c, &q, &hash_plan, CostModelKind::Hash, &p);
        let cm = plan_cost(&c, &q, &mixed_plan, CostModelKind::Hash, &p);
        assert_eq!(ch.per_join.len(), 2);
        assert_eq!(ch.per_join[0], cm.per_join[0]);
        assert_ne!(ch.per_join[1], cm.per_join[1]);
    }

    #[test]
    fn expensive_predicate_paid_once() {
        let (c, mut q) = setup();
        let (r, s) = (q.tables[0], q.tables[1]);
        q.predicates.clear();
        q.add_predicate(Predicate::binary(r, s, 0.1).with_eval_cost(1.0));
        // Order R, S, T: predicate evaluated during join 0, whose outer
        // operand is R (cardinality 10).
        let plan = LeftDeepPlan::from_order(vec![q.tables[0], q.tables[1], q.tables[2]]);
        let pc = plan_cost(&c, &q, &plan, CostModelKind::Cout, &params());
        assert!(
            (pc.predicate_cost - 10.0).abs() < 1e-6,
            "{}",
            pc.predicate_cost
        );
        // Order R, T, S: predicate evaluated during the last join, whose
        // outer operand is R x T (cardinality 1000).
        let plan2 = LeftDeepPlan::from_order(vec![q.tables[0], q.tables[2], q.tables[1]]);
        let pc2 = plan_cost(&c, &q, &plan2, CostModelKind::Cout, &params());
        assert!(
            (pc2.predicate_cost - 1000.0).abs() < 1e-3,
            "{}",
            pc2.predicate_cost
        );
    }

    #[test]
    fn pages_minimum_one() {
        let p = params();
        assert_eq!(p.pages(0.0), 1.0);
        assert_eq!(p.pages(1.0), 1.0);
        assert_eq!(p.pages(11.0), 2.0);
    }
}
