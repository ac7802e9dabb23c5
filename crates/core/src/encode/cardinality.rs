//! §4.2 — operand cardinalities: exact for inner operands, log-space +
//! threshold approximation for outer operands.
//!
//! * `ci[j] = Σ_t Card(t) · tii[j][t]` (inner operands are single tables).
//! * `lco[j] = Σ_t log10 Card(t) · tio[j][t] + Σ_p log10 Sel(p) · pao[p][j]
//!   (+ group corrections)` — the logarithm turns the cardinality product
//!   into a linear sum.
//! * `lco[j] <= log10 θ_0 + Σ_r (log10 θ_{r+1} - log10 θ_r) · cto[j][r]`
//!   forces threshold flag `r` on once the cardinality passes `θ_r`. With
//!   the flags a prefix of `k` ones, the right-hand side telescopes to
//!   `log10 θ_k`; with all `l` on it reaches `θ_l`, the `lco` upper bound
//!   (raised to `θ_{l-1}` where a tiny query's grid top sits above it, so
//!   that no coefficient is negative).
//! * `co[j] = Σ_r δ_r · cto[j][r] (+ offset)` recovers the approximate raw
//!   cardinality.
//! * `cto[j][r+1] <= cto[j][r]` orders the flags into a prefix.
//!
//! The paper activates each flag with its own big-M row,
//! `lco[j] - M_r · cto[j][r] <= log10 θ_r`. Under the ordering rows both
//! row sets admit the same integer points: `k` flags on bound `lco` by
//! `log10 θ_k`. The single row above is the convex hull of that staircase,
//! the incremental formulation of a piecewise-linear function (Vielma,
//! Ahmed & Nemhauser, Oper. Res. 2010). A big-M row lets a fractional
//! flag count an operand as a small fraction of its cardinality, so its LP
//! bound is far weaker: on perfbench's milp-cold pool every root LP bound
//! rises at least 8.27× under the hull row. Both activation modes use the
//! same row, because the flags mean the same in both; only `co` differs.
//!
//! The ordering rows stay. The hull row is a staircase only along a
//! prefix: without them a flag above an off flag still lifts the bound,
//! and the integer points are no longer those of the paper. On the
//! milp-cold pool at 20 nodes, dropping them proved 36 plans instead of
//! 49 and raised the geometric-mean plan cost by 1.7 %. They also let a
//! branch that sets one flag fix every flag below it, and they make the
//! flags a prefix at every integer point, as the warm-start hints set
//! them.

use milpjoin_milp::LinExpr;

use crate::stats::{ConstrCategory, VarCategory};

use super::Ctx;

pub(crate) fn build(ctx: &mut Ctx<'_>) {
    let n = ctx.n;
    let jn = ctx.num_joins;
    let l = ctx.grid.len();

    let max_card = ctx.card.iter().copied().fold(1.0f64, f64::max);
    let co_upper = ctx.grid.level_value(Some(l.saturating_sub(1)));

    // Variables.
    let lco_lb = ctx.grid.log_card_min.min(0.0) - 1.0;
    let lco_ub = ctx.grid.lco_upper();
    for j in 0..jn {
        let lco = ctx.add_continuous(
            VarCategory::LogCardOuter,
            lco_lb,
            lco_ub,
            format!("lco_{j}"),
        );
        ctx.vars.lco.push(lco);
        let co = ctx.add_continuous(VarCategory::CardOuter, 0.0, co_upper, format!("co_{j}"));
        ctx.vars.co.push(co);
        let ci = ctx.add_continuous(VarCategory::CardInner, 0.0, max_card, format!("ci_{j}"));
        ctx.vars.ci.push(ci);
        let mut cto_row = Vec::with_capacity(l);
        for r in 0..l {
            cto_row.push(ctx.add_binary(VarCategory::CardThreshold, format!("cto_{r}_{j}")));
        }
        ctx.vars.cto.push(cto_row);
    }

    for j in 0..jn {
        // Inner cardinality (effective: unary predicates folded in).
        let mut ci_expr = LinExpr::from(ctx.vars.ci[j]);
        for t in 0..n {
            ci_expr += ctx.vars.tii[j][t] * (-ctx.card[t]);
        }
        ctx.add_eq(
            ConstrCategory::InnerCardinality,
            ci_expr,
            0.0,
            format!("ci_def_{j}"),
        );

        // Log cardinality of the outer operand.
        let mut lco_expr = LinExpr::from(ctx.vars.lco[j]);
        for t in 0..n {
            lco_expr += ctx.vars.tio[j][t] * (-ctx.log_card[t]);
        }
        for (qi, p) in ctx.query.predicates.iter().enumerate() {
            if let Some(e) = ctx.vars.pred_index[qi] {
                lco_expr += ctx.vars.pao[e][j] * (-p.log10_selectivity());
            }
        }
        for (gi, g) in ctx.query.correlated_groups.iter().enumerate() {
            lco_expr += ctx.vars.pag[gi][j] * (-g.correction.log10());
        }
        ctx.add_eq(
            ConstrCategory::LogCardinality,
            lco_expr,
            0.0,
            format!("lco_def_{j}"),
        );

        // Threshold activation: the hull row (see the module docs).
        let mut act_expr = LinExpr::from(ctx.vars.lco[j]);
        for r in 0..l {
            let step = ctx.grid.activation_level(r + 1) - ctx.grid.activation_level(r);
            act_expr += ctx.vars.cto[j][r] * -step;
        }
        ctx.add_le(
            ConstrCategory::ThresholdActivation,
            act_expr,
            ctx.grid.log_threshold(0),
            format!("cto_act_{j}"),
        );

        // co from thresholds.
        let mut co_expr = LinExpr::from(ctx.vars.co[j]);
        for r in 0..l {
            co_expr += ctx.vars.cto[j][r] * (-ctx.grid.delta(r));
        }
        ctx.add_eq(
            ConstrCategory::CardinalityFromThresholds,
            co_expr,
            ctx.grid.constant_offset(),
            format!("co_def_{j}"),
        );

        // Threshold ordering (see the module docs).
        for r in 1..l {
            let expr = LinExpr::from(ctx.vars.cto[j][r]) - ctx.vars.cto[j][r - 1];
            ctx.add_le(
                ConstrCategory::ThresholdOrdering,
                expr,
                0.0,
                format!("cto_ord_{r}_{j}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    //! The hull row against the paper's big-M rows, kept here only as the
    //! reference: both must give every left-deep order the same MILP
    //! objective, and the hull's LP bound is never the weaker one.

    use milpjoin_milp::lp::LpProblem;
    use milpjoin_milp::simplex::{LpStatus, Simplex, SimplexLimits};
    use milpjoin_milp::{LinExpr, Model, SolveStatus, Solver, SolverOptions};
    use milpjoin_qopt::{Catalog, CostModelKind, Query};
    use milpjoin_workloads::{Topology, WorkloadSpec};

    use crate::encode::{encode, Encoding};
    use crate::thresholds::ApproxMode;
    use crate::EncoderConfig;

    const MODELS: [CostModelKind; 4] = [
        CostModelKind::Cout,
        CostModelKind::Hash,
        CostModelKind::SortMerge,
        CostModelKind::BlockNestedLoop,
    ];
    const MODES: [ApproxMode; 2] = [ApproxMode::LowerBound, ApproxMode::UpperBound];
    const TOPOLOGIES: [Topology; 4] = [
        Topology::Chain,
        Topology::Cycle,
        Topology::Star,
        Topology::Clique,
    ];
    /// 5-table orders drawn per query (of 120).
    const SAMPLED_ORDERS: usize = 6;

    /// The encoding's model with each join's hull row replaced by the
    /// paper's `l` activation rows, `lco_j - M_r · cto_jr <= log θ_r`,
    /// where `M_r = max(log_card_max - log θ_r, 0) + 1` is the tightest
    /// big-M that `cto_jr = 1` satisfies at every representable `lco_j`.
    fn big_m_model(enc: &Encoding) -> Model {
        let src = &enc.model;
        let mut m = Model::new(src.name());
        for v in src.vars() {
            m.add_var(v.lb, v.ub, v.vtype, v.name.clone());
        }
        for c in src.constrs() {
            if !c.name.starts_with("cto_act_") {
                m.add_range(
                    c.lo,
                    LinExpr::from_terms(c.terms.iter().copied()),
                    c.hi,
                    c.name.clone(),
                );
            }
        }
        let grid = &enc.grid;
        for (j, cto) in enc.vars.cto.iter().enumerate() {
            for (r, &flag) in cto.iter().enumerate() {
                let big_m = (grid.log_card_max - grid.log_threshold(r)).max(0.0) + 1.0;
                m.add_le(
                    LinExpr::from(enc.vars.lco[j]) - flag * big_m,
                    grid.log_threshold(r),
                    format!("cto_big_m_{r}_{j}"),
                );
            }
        }
        let objective = LinExpr::from_terms(src.objective().iter().copied())
            + LinExpr::constant(src.objective_constant());
        m.set_objective(objective, src.sense());
        m
    }

    /// The optimum of the LP relaxation, in the model's sense.
    fn lp_bound(model: &Model) -> f64 {
        let lp = LpProblem::from_model(model);
        let mut sx = Simplex::new(&lp);
        let res = sx.solve(&SimplexLimits::default());
        assert_eq!(res.status, LpStatus::Optimal, "{}", model.name());
        lp.user_objective(res.objective)
    }

    /// The MILP optimum with the join order `order` (query-local
    /// positions) fixed through `tio` and `tii`.
    fn fixed_order_objective(enc: &Encoding, model: &Model, order: &[usize]) -> f64 {
        let mut model = model.clone();
        for j in 0..enc.num_joins {
            for t in 0..order.len() {
                let outer = if order[..=j].contains(&t) { 1.0 } else { 0.0 };
                let inner = if order[j + 1] == t { 1.0 } else { 0.0 };
                model.tighten_var_bounds(enc.vars.tio[j][t], outer, outer);
                model.tighten_var_bounds(enc.vars.tii[j][t], inner, inner);
            }
        }
        let res = Solver::new(SolverOptions::default().relative_gap(0.0))
            .solve(&model)
            .unwrap();
        assert_eq!(res.status, SolveStatus::Optimal, "order {order:?}");
        res.objective.unwrap()
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for rest in permutations(n - 1) {
            for at in 0..=rest.len() {
                let mut p = rest.clone();
                p.insert(at, n - 1);
                out.push(p);
            }
        }
        out
    }

    /// How closely the two fixed-order optima must agree. Under
    /// block-nested-loop, applying one more predicate can save as little
    /// as 2e-6 (a threshold flag's pages through the `z_bnl` terms), and
    /// the search at gap 0 does not always find that completion: on two
    /// clique-5 orders the big-M reference stopped about 2e-6 above the
    /// hull.
    fn tolerance(model: CostModelKind) -> f64 {
        match model {
            CostModelKind::BlockNestedLoop => 1e-5,
            _ => 1e-9,
        }
    }

    /// Both row sets on one query: the same optimum for each order, and a
    /// hull root bound at least the big-M one.
    fn check(catalog: &Catalog, query: &Query, orders: &[Vec<usize>], case: &str) {
        for mode in MODES {
            for model in MODELS {
                let config = EncoderConfig {
                    approx_mode: mode,
                    ..EncoderConfig::default().cost_model(model)
                };
                let enc = encode(catalog, query, &config).unwrap();
                let big_m = big_m_model(&enc);
                let case = format!("{case} {mode:?} {model:?}");
                let (hull_root, big_m_root) = (lp_bound(&enc.model), lp_bound(&big_m));
                assert!(
                    hull_root >= big_m_root - 1e-9 * big_m_root.abs().max(1.0),
                    "{case}: hull root bound {hull_root} below big-M {big_m_root}"
                );
                for order in orders {
                    let hull = fixed_order_objective(&enc, &enc.model, order);
                    let reference = fixed_order_objective(&enc, &big_m, order);
                    let scale = hull.abs().max(reference.abs()).max(1.0);
                    assert!(
                        (hull - reference).abs() <= tolerance(model) * scale,
                        "{case} order {order:?}: hull {hull} vs big-M {reference}"
                    );
                }
            }
        }
    }

    #[test]
    fn hull_rows_match_big_m_on_every_small_order() {
        for n in [3, 4] {
            let orders = permutations(n);
            for topology in TOPOLOGIES {
                let (catalog, query) = WorkloadSpec::new(topology, n).generate(n as u64);
                let case = format!("{}-{n}", topology.name());
                check(&catalog, &query, &orders, &case);
            }
        }
    }

    #[test]
    fn hull_rows_match_big_m_on_sampled_five_table_orders() {
        let all = permutations(5);
        for (k, topology) in TOPOLOGIES.into_iter().enumerate() {
            let (catalog, query) = WorkloadSpec::new(topology, 5).generate(50 + k as u64);
            // A fixed stride through the 120 orders, offset per shape.
            let orders: Vec<Vec<usize>> = (0..SAMPLED_ORDERS)
                .map(|i| all[(17 * k + 37 * i) % all.len()].clone())
                .collect();
            check(&catalog, &query, &orders, &format!("{}-5", topology.name()));
        }
    }

    #[test]
    fn one_activation_row_per_join() {
        let (catalog, query) = WorkloadSpec::new(Topology::Star, 6).generate(1);
        let enc = encode(&catalog, &query, &EncoderConfig::default()).unwrap();
        let rows: Vec<&str> = enc
            .model
            .constrs()
            .iter()
            .map(|c| c.name.as_str())
            .filter(|name| name.starts_with("cto_act_"))
            .collect();
        let joins: Vec<String> = (0..5).map(|j| format!("cto_act_{j}")).collect();
        assert_eq!(rows, joins);
    }
}
