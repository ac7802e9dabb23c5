//! §4.1 — variables and constraints representing valid left-deep plans.
//!
//! For each join `j` and table `t`: binary `tio[j][t]` / `tii[j][t]` mark
//! membership in the outer/inner operand. The constraints (paper Table 2,
//! rows 1–4):
//!
//! 1. exactly one table in the outer operand of the first join and in every
//!    inner operand;
//! 2. operands of a join do not overlap. The paper requires this only for
//!    the last join: for an earlier join `j` it follows from chaining and
//!    the bound `tio[j+1][t] <= 1`, even in the LP relaxation. The rows are
//!    emitted for every join all the same, because they are part of the
//!    model whose sizes (Figure 1) and search results the project records:
//!    dropping them changes the simplex's pivots, so it is a formulation
//!    change to be measured on its own;
//! 3. the result of join `j-1` is the outer operand of join `j`:
//!    `tio[j][t] = tio[j-1][t] + tii[j-1][t]`.

use milpjoin_milp::LinExpr;

use crate::stats::{ConstrCategory, VarCategory};

use super::Ctx;

pub(crate) fn build(ctx: &mut Ctx<'_>) {
    let n = ctx.n;
    let jn = ctx.num_joins;

    // Variables.
    for j in 0..jn {
        let mut tio_row = Vec::with_capacity(n);
        let mut tii_row = Vec::with_capacity(n);
        for t in 0..n {
            tio_row.push(ctx.add_binary(VarCategory::TableInOuter, format!("tio_{t}_{j}")));
            tii_row.push(ctx.add_binary(VarCategory::TableInInner, format!("tii_{t}_{j}")));
        }
        ctx.vars.tio.push(tio_row);
        ctx.vars.tii.push(tii_row);
    }

    // Exactly one table in the first outer operand.
    let first_outer: LinExpr = ctx.vars.tio[0].iter().map(|&v| LinExpr::from(v)).sum();
    ctx.add_eq(
        ConstrCategory::SingleTableOperand,
        first_outer,
        1.0,
        "one_outer_0".into(),
    );

    // Exactly one table in every inner operand.
    for j in 0..jn {
        let inner: LinExpr = ctx.vars.tii[j].iter().map(|&v| LinExpr::from(v)).sum();
        ctx.add_eq(
            ConstrCategory::SingleTableOperand,
            inner,
            1.0,
            format!("one_inner_{j}"),
        );
    }

    // Chaining: outer of join j = result of join j-1.
    for j in 1..jn {
        for t in 0..n {
            let expr =
                LinExpr::from(ctx.vars.tio[j][t]) - ctx.vars.tio[j - 1][t] - ctx.vars.tii[j - 1][t];
            ctx.add_eq(
                ConstrCategory::OperandChaining,
                expr,
                0.0,
                format!("chain_{t}_{j}"),
            );
        }
    }

    // Overlap exclusion, for every join (see the module docs).
    for j in 0..jn {
        for t in 0..n {
            let expr = ctx.vars.tio[j][t] + ctx.vars.tii[j][t];
            ctx.add_le(
                ConstrCategory::NoOverlap,
                expr,
                1.0,
                format!("overlap_{t}_{j}"),
            );
        }
    }
}
