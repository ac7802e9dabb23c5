//! §4.2 — operand cardinalities: exact for inner operands, log-space +
//! threshold approximation for outer operands.
//!
//! * `ci[j] = Σ_t Card(t) · tii[j][t]` (inner operands are single tables).
//! * `lco[j] = Σ_t log10 Card(t) · tio[j][t] + Σ_p log10 Sel(p) · pao[p][j]
//!   (+ group corrections)` — the logarithm turns the cardinality product
//!   into a linear sum.
//! * `lco[j] - M_r · cto[j][r] <= log10 θ_r` forces threshold flag `r` on
//!   once the cardinality passes `θ_r`; the big-M is the tightest valid one
//!   (`lco_max - log10 θ_r`).
//! * `co[j] = Σ_r δ_r · cto[j][r] (+ offset)` recovers the approximate raw
//!   cardinality.
//! * `cto[j][r+1] <= cto[j][r]` orders the flags. The activation rows alone
//!   force on every flag below `lco` and leave the others free, which the
//!   objective turns off only at an optimum. The ordering rows make the
//!   flags a prefix at every integer point, as the warm-start hints set
//!   them, and let a branch that sets one flag fix every flag below it.

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
    let lco_ub = ctx.grid.log_card_max + 1.0;
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

        // Threshold activation: lco - M * cto <= log10 θ_r.
        for r in 0..l {
            let m = ctx.grid.big_m(r);
            let expr = LinExpr::from(ctx.vars.lco[j]) - ctx.vars.cto[j][r] * m;
            ctx.add_le(
                ConstrCategory::ThresholdActivation,
                expr,
                ctx.grid.log_threshold(r),
                format!("cto_act_{r}_{j}"),
            );
        }

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
