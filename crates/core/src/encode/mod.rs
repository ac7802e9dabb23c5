//! The query → MILP transformation (Section 4 of the paper, with the
//! Section 5 extensions).
//!
//! Submodule map (mirroring the paper's structure):
//!
//! * [`join_order`] — §4.1: `tio`/`tii` variables and the constraints that
//!   restrict assignments to valid left-deep plans.
//! * [`predicates`] — §4.2 + §5.1: `pao` applicability variables, n-ary
//!   predicates, correlated groups, and expensive-predicate scheduling
//!   (`pco`).
//! * [`cardinality`] — §4.2: log-cardinality variables, threshold flags,
//!   and approximate cardinalities.
//! * [`cost`] — §4.3 + §5.3 + §5.4: objective construction for C_out /
//!   hash / sort-merge / BNL, operator selection, and interesting orders.
//! * [`projection`] — §5.2: column tracking and byte-based page counts.

pub mod cardinality;
pub mod cost;
pub mod join_order;
pub mod predicates;
pub mod projection;

use milpjoin_milp::{LinExpr, Model, Var};
use milpjoin_qopt::{Catalog, ColumnId, Estimator, Query, QueryError};

use crate::config::{ConfigError, EncoderConfig};
use crate::stats::{ConstrCategory, FormulationStats, VarCategory};
use crate::thresholds::ThresholdGrid;

/// Physical operator implementations available to the operator-selection
/// extension. `SortMergeReuseOuter` is the decomposed sort-merge of §5.4
/// that skips sorting an already-sorted outer input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysOp {
    Hash,
    SortMerge,
    SortMergeReuseOuter,
    BlockNestedLoop,
}

impl PhysOp {
    /// The logical operator this decodes to.
    pub fn join_op(self) -> milpjoin_qopt::JoinOp {
        match self {
            PhysOp::Hash => milpjoin_qopt::JoinOp::Hash,
            PhysOp::SortMerge | PhysOp::SortMergeReuseOuter => milpjoin_qopt::JoinOp::SortMerge,
            PhysOp::BlockNestedLoop => milpjoin_qopt::JoinOp::BlockNestedLoop,
        }
    }

    /// Whether this operator produces sorted output (interesting orders).
    pub fn produces_sorted(self) -> bool {
        matches!(self, PhysOp::SortMerge | PhysOp::SortMergeReuseOuter)
    }

    /// Whether this operator requires a sorted outer input.
    pub fn requires_sorted_outer(self) -> bool {
        matches!(self, PhysOp::SortMergeReuseOuter)
    }
}

/// Errors from [`encode`].
#[derive(Debug, Clone, PartialEq)]
pub enum EncodeError {
    Query(QueryError),
    Config(ConfigError),
    /// Queries with fewer than two tables have no joins to order.
    TooFewTables(usize),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Query(e) => write!(f, "invalid query: {e}"),
            EncodeError::Config(e) => write!(f, "invalid configuration: {e}"),
            EncodeError::TooFewTables(n) => write!(f, "query has {n} tables; need at least 2"),
        }
    }
}

impl std::error::Error for EncodeError {}

impl From<QueryError> for EncodeError {
    fn from(e: QueryError) -> Self {
        EncodeError::Query(e)
    }
}

impl From<ConfigError> for EncodeError {
    fn from(e: ConfigError) -> Self {
        EncodeError::Config(e)
    }
}

/// All variable handles of one encoding, for the decoder and for tests.
#[derive(Debug, Clone, Default)]
pub struct EncodingVars {
    /// `tio[j][t]`: table (query-local position) `t` in the outer operand
    /// of join `j`.
    pub tio: Vec<Vec<Var>>,
    /// `tii[j][t]`.
    pub tii: Vec<Vec<Var>>,
    /// `pao[p][j]`: multi-table predicate `p` applicable on the outer
    /// operand of join `j`. Indexed by *encoded predicate index* (see
    /// `pred_index`).
    pub pao: Vec<Vec<Var>>,
    /// Map from query predicate index to encoded predicate index (`None`
    /// for unary predicates, which are folded into table cardinalities).
    pub pred_index: Vec<Option<usize>>,
    /// `pag[g][j]`: correlated group applicability.
    pub pag: Vec<Vec<Var>>,
    /// `lco[j]`.
    pub lco: Vec<Var>,
    /// `cto[j][r]`.
    pub cto: Vec<Vec<Var>>,
    /// `co[j]`.
    pub co: Vec<Var>,
    /// `ci[j]`.
    pub ci: Vec<Var>,
    /// `jos[j][i]`: operator `op_set[i]` realizes join `j` (empty without
    /// operator selection).
    pub jos: Vec<Vec<Var>>,
    /// The enabled operator list for `jos` columns.
    pub op_set: Vec<PhysOp>,
    /// `ohp[j]`: outer operand of join `j` is sorted (interesting orders).
    pub ohp_sorted: Vec<Var>,
    /// `pco[p][j]`: encoded predicate `p` evaluated during join `j`.
    pub pco: Vec<Vec<Var>>,
    /// `clo[j][l]`: column `l` present in the outer operand of join `j`
    /// (index `num_joins` = the final result).
    pub clo: Vec<Vec<Var>>,
    /// `cli[j][l]`.
    pub cli: Vec<Vec<Var>>,
    /// Global column list for `clo`/`cli` indices.
    pub columns: Vec<ColumnId>,
}

/// A fully-built MILP for one query.
#[derive(Debug, Clone)]
pub struct Encoding {
    pub model: Model,
    pub vars: EncodingVars,
    pub stats: FormulationStats,
    pub grid: ThresholdGrid,
    pub num_joins: usize,
}

/// Converts a left-deep plan into a warm-start hint for the MILP: values
/// for every join-order, predicate-applicability and threshold binary that
/// the plan determines. Variables the plan does *not* determine (operator
/// selection, projection columns) are left unhinted — the solver completes
/// them with a fractional dive. The hints satisfy every constraint of the
/// encoding, so fixing them leaves the LP feasible and the plan becomes the
/// root incumbent (see `SolverOptions::initial_solution`).
#[allow(clippy::needless_range_loop)] // j / j+1 arithmetic over parallel rows
pub fn warm_start_assignment(
    encoding: &Encoding,
    catalog: &Catalog,
    query: &Query,
    plan: &milpjoin_qopt::LeftDeepPlan,
) -> Result<Vec<(Var, f64)>, milpjoin_qopt::PlanError> {
    use milpjoin_qopt::TableSet;

    plan.validate(query)?;
    let n = query.num_tables();
    let jn = encoding.num_joins;
    let vars = &encoding.vars;
    let est = Estimator::new(catalog, query);

    let positions: Vec<usize> = plan.order.iter().map(|&t| query.position_of(t)).collect();
    // Outer operand of join j = first j+1 tables of the order.
    let outer_sets: Vec<TableSet> = (0..jn)
        .map(|j| TableSet::from_positions(positions[..=j].iter().copied()))
        .collect();

    let mut hints = Vec::new();
    for j in 0..jn {
        for t in 0..n {
            let in_outer = outer_sets[j].contains(t);
            hints.push((vars.tio[j][t], if in_outer { 1.0 } else { 0.0 }));
            let is_inner = positions[j + 1] == t;
            hints.push((vars.tii[j][t], if is_inner { 1.0 } else { 0.0 }));
        }
    }

    // Predicate applicability: as early as the operand allows (predicates
    // only reduce cost in the base model, and under scheduling this is the
    // monotone schedule with every predicate evaluated at first
    // opportunity). The shared eager schedule
    // (`milpjoin_qopt::eager_evaluation_joins`) gives the join during
    // which each predicate is evaluated; the outer operand of every
    // *later* join then covers the predicate, so `pao[e][j] = 1` exactly
    // for `j > eval_join` — the same convention the decoder and the exact
    // cost model derive from.
    let eval_joins = milpjoin_qopt::eager_evaluation_joins(query, plan);
    let mut pao_values: Vec<Vec<f64>> = vec![vec![0.0; jn]; vars.pao.len()];
    for qi in 0..query.predicates.len() {
        let Some(e) = vars.pred_index[qi] else {
            continue;
        };
        // Encoded predicates span >= 2 tables, so an evaluation join
        // always exists; `None` (applicable at scan) would mean pao = 1
        // everywhere.
        let first_applicable = eval_joins[qi].map_or(0, |eval| eval + 1);
        for j in first_applicable..jn {
            pao_values[e][j] = 1.0;
        }
        for j in 0..jn {
            hints.push((vars.pao[e][j], pao_values[e][j]));
        }
    }

    // Correlated groups: AND over the member predicates' applicability.
    // The per-join values are kept so the lco computation below reuses
    // them (guaranteeing the two formulas agree by construction).
    let mut pag_values: Vec<Vec<f64>> = vec![vec![0.0; jn]; query.correlated_groups.len()];
    for (gi, g) in query.correlated_groups.iter().enumerate() {
        let members: Vec<usize> = g
            .members
            .iter()
            .filter_map(|pid| vars.pred_index[pid.index()])
            .collect();
        for j in 0..jn {
            let all = members.iter().all(|&e| pao_values[e][j] > 0.5);
            pag_values[gi][j] = if all { 1.0 } else { 0.0 };
            hints.push((vars.pag[gi][j], pag_values[gi][j]));
        }
    }

    // Evaluation schedule (when active): pco[j] = pao[j+1] - pao[j], with
    // the convention pao[num_joins] = 1. `pco` rows are allocated per
    // encoded predicate in the same dense order as `pred_index`, so the
    // encoded index `e` addresses both.
    if !vars.pco.is_empty() {
        for qi in 0..query.predicates.len() {
            let Some(e) = vars.pred_index[qi] else {
                continue;
            };
            for j in 0..jn {
                let next = if j + 1 < jn {
                    pao_values[e][j + 1]
                } else {
                    1.0
                };
                hints.push((vars.pco[e][j], next - pao_values[e][j]));
            }
        }
    }

    // Threshold flags: cto[j][r] = 1 iff the outer operand's log-cardinality
    // exceeds threshold r. The log-cardinality is recomputed with exactly
    // the formula of the lco defining constraint so the fixed LP stays
    // consistent.
    let log_card: Vec<f64> = (0..n)
        .map(|t| est.log10_cardinality(TableSet::single(t)))
        .collect();
    for j in 0..jn {
        let mut lco: f64 = outer_sets[j].iter().map(|t| log_card[t]).sum();
        for (qi, p) in query.predicates.iter().enumerate() {
            if let Some(e) = vars.pred_index[qi] {
                lco += pao_values[e][j] * p.log10_selectivity();
            }
        }
        for (gi, g) in query.correlated_groups.iter().enumerate() {
            lco += pag_values[gi][j] * g.correction.log10();
        }
        for r in 0..encoding.grid.len() {
            // The activation row is one-sided: one more flag of the prefix
            // on only raises its right-hand side (and adds δ_r to co),
            // while a flag left off is infeasible once lco exceeds its
            // threshold. Err toward 1 on boundary cases so rounding
            // differences between this lco and the LP's can never make the
            // fixed LP infeasible.
            let active = lco > encoding.grid.log_threshold(r) - 1e-9;
            hints.push((vars.cto[j][r], if active { 1.0 } else { 0.0 }));
        }
    }

    Ok(hints)
}

/// Shared state threaded through the encoding passes.
pub(crate) struct Ctx<'a> {
    pub catalog: &'a Catalog,
    pub query: &'a Query,
    pub config: &'a EncoderConfig,
    #[allow(dead_code)]
    pub est: Estimator,
    pub model: Model,
    pub stats: FormulationStats,
    pub vars: EncodingVars,
    pub grid: ThresholdGrid,
    pub n: usize,
    pub num_joins: usize,
    /// log10 effective cardinality per query-local table (unary predicates
    /// folded in).
    pub log_card: Vec<f64>,
    /// Effective cardinality per query-local table.
    pub card: Vec<f64>,
    /// Whether the pco scheduling machinery is active.
    pub scheduling: bool,
}

impl<'a> Ctx<'a> {
    pub fn add_binary(&mut self, cat: VarCategory, name: String) -> Var {
        self.stats.count_var(cat);
        self.model.add_binary(name)
    }

    pub fn add_continuous(&mut self, cat: VarCategory, lb: f64, ub: f64, name: String) -> Var {
        self.stats.count_var(cat);
        self.model.add_continuous(lb, ub, name)
    }

    pub fn add_le(&mut self, cat: ConstrCategory, expr: LinExpr, rhs: f64, name: String) {
        self.stats.count_constr(cat);
        self.model.add_le(expr, rhs, name);
    }

    pub fn add_ge(&mut self, cat: ConstrCategory, expr: LinExpr, rhs: f64, name: String) {
        self.stats.count_constr(cat);
        self.model.add_ge(expr, rhs, name);
    }

    pub fn add_eq(&mut self, cat: ConstrCategory, expr: LinExpr, rhs: f64, name: String) {
        self.stats.count_constr(cat);
        self.model.add_eq(expr, rhs, name);
    }

    /// Adds the lower-side linearization of `z = bin * cont_expr` for a
    /// non-negative expression bounded by `upper`. Sufficient when `z`
    /// appears with non-negative coefficient in a minimized objective: the
    /// optimum sets `z = cont_expr` when `bin = 1` and `z = 0` otherwise.
    pub fn linearize_product_lower(
        &mut self,
        bin: Var,
        cont_expr: LinExpr,
        upper: f64,
        name: &str,
    ) -> Var {
        let z = self.add_continuous(
            VarCategory::LinearizationAux,
            0.0,
            f64::INFINITY,
            format!("z_{name}"),
        );
        // z >= cont - U * (1 - bin)  <=>  cont + U*bin - z <= U;
        // z >= 0 is the variable bound.
        let expr = cont_expr + bin * upper - z;
        self.add_le(
            ConstrCategory::Linearization,
            expr,
            upper,
            format!("lin_{name}"),
        );
        z
    }
}

/// Transforms a validated query into a MILP whose optimal solutions are
/// cost-minimal left-deep plans.
pub fn encode(
    catalog: &Catalog,
    query: &Query,
    config: &EncoderConfig,
) -> Result<Encoding, EncodeError> {
    query.validate(catalog)?;
    let n = query.num_tables();
    if n < 2 {
        return Err(EncodeError::TooFewTables(n));
    }
    check_config(catalog, query, config)?;

    let est = Estimator::new(catalog, query);
    // Anchor the threshold window at the cardinality scale implied by a
    // greedy plan's total cost: any plan competitive with the greedy bound
    // keeps every operand below the cardinality whose *model cost* alone
    // already exceeds that bound, so precision is spent where the optimum
    // lives (see `thresholds::MAX_GRID_DECADES` for why the window must be
    // bounded). For page-based cost models the same cost admits much larger
    // operands than under C_out (cost per tuple is ~tuple_bytes/page_bytes,
    // not 1), hence the model-specific cost→cardinality factor.
    let anchor = greedy_anchor_log(&est, config, n) + config.precision.log10_spacing();
    // Resolvable window width is cost-model-specific (see
    // `thresholds::max_grid_decades`): page-based models scale every cost
    // coefficient down by a uniform per-tuple factor, buying back the
    // decades their cost→cardinality conversion pushes the anchor up (3.9
    // for BNL at default parameters). Under operator selection the grid is
    // shared by every enabled model, so the tightest width applies.
    let max_decades =
        if config.operator_selection && config.cost_model != milpjoin_qopt::CostModelKind::Cout {
            [
                milpjoin_qopt::CostModelKind::Hash,
                milpjoin_qopt::CostModelKind::SortMerge,
                milpjoin_qopt::CostModelKind::BlockNestedLoop,
            ]
            .into_iter()
            .map(|m| crate::thresholds::max_grid_decades(m, &config.cost_params))
            .fold(f64::INFINITY, f64::min)
        } else {
            crate::thresholds::max_grid_decades(config.cost_model, &config.cost_params)
        };
    let grid = ThresholdGrid::build_windowed(
        config.precision,
        n,
        est.log10_cardinality_lower_bound(),
        est.log10_cardinality_upper_bound(),
        anchor,
        max_decades,
        config.approx_mode,
    );

    // Effective per-table cardinalities: unary predicates are applied at
    // scan time (their selectivity folds into the table).
    let mut log_card: Vec<f64> = Vec::with_capacity(n);
    for i in 0..n {
        log_card.push(est.log10_cardinality(milpjoin_qopt::TableSet::single(i)));
    }
    let card: Vec<f64> = log_card.iter().map(|lc| 10f64.powf(*lc)).collect();

    let scheduling = config.projection
        || query
            .predicates
            .iter()
            .any(|p| p.eval_cost_per_tuple > 0.0 && p.tables.len() >= 2);

    let mut ctx = Ctx {
        catalog,
        query,
        config,
        est,
        model: Model::new(format!("join-order-{n}t")),
        stats: FormulationStats::default(),
        vars: EncodingVars::default(),
        grid,
        n,
        num_joins: n - 1,
        log_card,
        card,
        scheduling,
    };

    join_order::build(&mut ctx);
    predicates::build(&mut ctx);
    cardinality::build(&mut ctx);
    if config.projection {
        projection::build(&mut ctx);
    }
    cost::build(&mut ctx);

    let Ctx {
        model,
        stats,
        vars,
        grid,
        num_joins,
        ..
    } = ctx;
    Ok(Encoding {
        model,
        vars,
        stats,
        grid,
        num_joins,
    })
}

/// log10 of the largest operand cardinality that can still appear in a plan
/// competitive with a greedy upper bound, derived from the best total cost
/// over several greedy nearest-neighbor plans under the *configured* cost
/// model. Under C_out an intermediate larger than the greedy total already
/// costs more than the whole greedy plan; under the page-based models the
/// same argument holds after converting cost back to tuples through the
/// model's cheapest cost-per-tuple (e.g. a hash join pays at least
/// `3 · tuple_bytes / page_bytes` per outer tuple). The tighter this
/// anchor, the better conditioned the threshold window, so a handful of
/// start tables are tried.
fn greedy_anchor_log(est: &Estimator, config: &EncoderConfig, n: usize) -> f64 {
    use milpjoin_qopt::cost::JoinContext;
    use milpjoin_qopt::TableSet;
    // Candidate start tables: the few smallest ones.
    let mut starts: Vec<usize> = (0..n).collect();
    starts.sort_by(|&a, &b| {
        est.log10_cardinality(TableSet::single(a))
            .total_cmp(&est.log10_cardinality(TableSet::single(b)))
    });
    starts.truncate(5);

    let model = config.cost_model;
    let params = &config.cost_params;
    let num_joins = n - 1;
    // The cost sum is accumulated in log10 space: raw cardinalities (and
    // thus costs) overflow f64 well before the 64-table query limit, and an
    // overflowed anchor would silently degenerate the window to the full
    // unwindowed grid on exactly the large queries it exists for.
    let mut best_log = f64::INFINITY;
    for &start in &starts {
        let mut set = TableSet::single(start);
        let mut total_log = f64::NEG_INFINITY; // log10 of running cost sum
        while set.len() < n {
            let next = (0..n)
                .filter(|&t| !set.contains(t))
                .min_by(|&a, &b| {
                    est.log10_cardinality(set.insert(a))
                        .total_cmp(&est.log10_cardinality(set.insert(b)))
                })
                // audit-allow(no-panic): the min_by scans a remaining-set the
                // enclosing loop guard proves non-empty.
                .expect("remaining table");
            let joined = set.insert(next);
            let join_log = {
                let cost = match model {
                    // C_out excludes the final join; for the anchor the
                    // final result still bounds the relevant cardinality
                    // scale, so it is kept in the sum (it is identical
                    // across plans).
                    milpjoin_qopt::CostModelKind::Cout => est.cardinality(joined),
                    other => {
                        let ctx = JoinContext {
                            outer_card: est.cardinality(set),
                            inner_card: est.cardinality(TableSet::single(next)),
                            output_card: est.cardinality(joined),
                            join_index: set.len() - 1,
                            num_joins,
                        };
                        other.join_cost(&ctx, params)
                    }
                };
                if cost.is_finite() && cost > 0.0 {
                    cost.log10()
                } else {
                    // Raw cost overflowed (or hit a zero-cost degenerate):
                    // approximate its log10 from log-cardinalities. Every
                    // model's cost is bounded below by the operand
                    // cardinalities themselves, and for the anchor a
                    // conservative per-join log estimate suffices.
                    est.log10_cardinality(joined)
                        .max(est.log10_cardinality(set))
                        .max(0.0)
                }
            };
            // log10(10^total + 10^join), numerically stable.
            total_log = if total_log == f64::NEG_INFINITY {
                join_log
            } else {
                let hi = total_log.max(join_log);
                hi + (10f64.powf(total_log - hi) + 10f64.powf(join_log - hi)).log10()
            };
            set = joined;
        }
        best_log = best_log.min(total_log);
    }

    // Cost → cardinality: the largest operand whose *own* model cost does
    // not yet exceed the greedy bound (shared with the per-model window
    // width; see `thresholds::tuples_per_unit_cost`).
    let tuples_per_cost = crate::thresholds::tuples_per_unit_cost(model, params);
    let anchor = best_log.max(0.0) + tuples_per_cost.log10();
    let min_single = starts
        .first()
        .map_or(0.0, |&s| est.log10_cardinality(TableSet::single(s)));
    anchor.max(min_single)
}

fn check_config(
    catalog: &Catalog,
    query: &Query,
    config: &EncoderConfig,
) -> Result<(), ConfigError> {
    use milpjoin_qopt::CostModelKind;
    if config.interesting_orders && !config.operator_selection {
        return Err(ConfigError::OrdersNeedOperatorSelection);
    }
    if config.projection {
        match config.cost_model {
            CostModelKind::Cout | CostModelKind::Hash => {}
            other => return Err(ConfigError::ProjectionUnsupportedModel(other)),
        }
        for &t in &query.tables {
            if catalog.table(t).columns.is_empty() {
                return Err(ConfigError::ProjectionNeedsColumns);
            }
        }
    }
    Ok(())
}
