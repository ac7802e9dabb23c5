//! Lightweight presolve: iterated activity-based bound tightening.
//!
//! The presolve deliberately performs no variable or constraint elimination
//! (so no postsolve mapping is needed) — it only *tightens bounds*:
//!
//! * integer bounds are rounded inward;
//! * for every constraint, minimum/maximum activities computed from the
//!   current bounds imply bounds on each participating variable;
//! * trivially infeasible rows are detected early.
//!
//! Tight bounds matter doubly here: they shrink big-M constants' slack in
//! the LP relaxation and give branch-and-bound better initial pseudocosts.

use crate::model::{Model, VarType};

/// Result of presolving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PresolveOutcome {
    /// Bounds were (possibly) tightened in place.
    Reduced {
        /// Number of individual bound changes applied.
        bound_changes: usize,
    },
    /// The model was detected infeasible.
    Infeasible,
}

/// Runs bound tightening in place. `max_rounds` bounds the fixpoint
/// iteration.
pub fn presolve(model: &mut Model, max_rounds: usize) -> PresolveOutcome {
    let mut total_changes = 0usize;

    // Round integer bounds inward once up front.
    let n = model.num_vars();
    for j in 0..n {
        let v = crate::model::Var::from_index(j);
        let d = model.var_data(v);
        if d.vtype != VarType::Continuous {
            let lb = d.lb.ceil();
            let ub = d.ub.floor();
            if lb > d.lb || ub < d.ub {
                model.tighten_var_bounds(v, lb, ub);
                total_changes += 1;
            }
            if lb > ub {
                return PresolveOutcome::Infeasible;
            }
        }
    }

    for _ in 0..max_rounds {
        let mut changes = 0usize;
        for ci in 0..model.num_constrs() {
            let (lo, hi, terms) = {
                let c = &model.constrs()[ci];
                (c.lo, c.hi, c.terms.clone())
            };
            // Activity bounds from current variable bounds, tracking how
            // many terms contribute an infinite amount so that "activity of
            // the rest" stays well-defined for columns with infinite bounds.
            let mut fin_min = 0.0f64;
            let mut fin_max = 0.0f64;
            let mut inf_min = 0usize;
            let mut inf_max = 0usize;
            // The size of the terms, not of their sum: activities that
            // cancel carry the round-off of their terms.
            let mut magnitude = 0.0f64;
            for &(v, a) in &terms {
                let d = model.var_data(v);
                let (cmin, cmax) = if a >= 0.0 {
                    (a * d.lb, a * d.ub)
                } else {
                    (a * d.ub, a * d.lb)
                };
                if cmin.is_finite() {
                    fin_min += cmin;
                    magnitude += cmin.abs();
                } else {
                    inf_min += 1;
                }
                if cmax.is_finite() {
                    fin_max += cmax;
                    magnitude += cmax.abs();
                } else {
                    inf_max += 1;
                }
            }
            let act_min = if inf_min > 0 {
                f64::NEG_INFINITY
            } else {
                fin_min
            };
            let act_max = if inf_max > 0 { f64::INFINITY } else { fin_max };
            let tol = 1e-9 * (1.0 + magnitude);
            if act_min > hi + tol || act_max < lo - tol {
                return PresolveOutcome::Infeasible;
            }
            // Implied bounds per variable: residual activity of the rest.
            for &(v, a) in &terms {
                if a == 0.0 {
                    continue;
                }
                let d = model.var_data(v);
                let (vlb, vub, vtype) = (d.lb, d.ub, d.vtype);
                let (self_min, self_max) = if a >= 0.0 {
                    (a * vlb, a * vub)
                } else {
                    (a * vub, a * vlb)
                };
                let rest_min = if self_min.is_finite() {
                    if inf_min > 0 {
                        f64::NEG_INFINITY
                    } else {
                        fin_min - self_min
                    }
                } else if inf_min == 1 {
                    fin_min
                } else {
                    f64::NEG_INFINITY
                };
                let rest_max = if self_max.is_finite() {
                    if inf_max > 0 {
                        f64::INFINITY
                    } else {
                        fin_max - self_max
                    }
                } else if inf_max == 1 {
                    fin_max
                } else {
                    f64::INFINITY
                };
                // lo <= a*x + rest <= hi
                let (mut new_lb, mut new_ub) = (vlb, vub);
                if hi.is_finite() && rest_min.is_finite() {
                    let lim = (hi - rest_min) / a;
                    if a > 0.0 {
                        new_ub = new_ub.min(lim);
                    } else {
                        new_lb = new_lb.max(lim);
                    }
                }
                if lo.is_finite() && rest_max.is_finite() {
                    let lim = (lo - rest_max) / a;
                    if a > 0.0 {
                        new_lb = new_lb.max(lim);
                    } else {
                        new_ub = new_ub.min(lim);
                    }
                }
                if vtype != VarType::Continuous {
                    // Round inward with a tolerance so values such as
                    // 0.9999999 round to 1, not 0. The tolerance covers
                    // the round-off of the rest's terms: a flag of weight
                    // 0.83 in a row whose terms reach 8.3e8 gets a limit
                    // that is 1.8e-7 short of 1.
                    let slack = 1e-7f64.max(1e-12 * magnitude / a.abs());
                    new_lb = (new_lb - slack).ceil();
                    new_ub = (new_ub + slack).floor();
                }
                let improve_lb = new_lb.is_finite()
                    && (vlb.is_infinite() || new_lb > vlb + 1e-9 * (1.0 + vlb.abs()));
                let improve_ub = new_ub.is_finite()
                    && (vub.is_infinite() || new_ub < vub - 1e-9 * (1.0 + vub.abs()));
                if improve_lb || improve_ub {
                    let crossed = new_lb - new_ub;
                    if crossed > 1e-9 * (1.0 + new_lb.abs().max(new_ub.abs())) {
                        return PresolveOutcome::Infeasible;
                    }
                    // Bounds crossed by round-off fix the column; `new_lb`
                    // never falls below `vlb`, so the point stays in range.
                    let (lb, ub) = if crossed > 0.0 {
                        let point = new_lb.min(vub);
                        (point, point)
                    } else {
                        (new_lb, new_ub)
                    };
                    model.tighten_var_bounds(v, lb, ub);
                    changes += 1;
                }
            }
        }
        total_changes += changes;
        if changes == 0 {
            break;
        }
    }
    PresolveOutcome::Reduced {
        bound_changes: total_changes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    #[test]
    fn tightens_from_le_row() {
        // x + y <= 3 with x, y >= 0 implies x <= 3, y <= 3.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, f64::INFINITY, "x");
        let y = m.add_continuous(0.0, f64::INFINITY, "y");
        m.add_le(x + y, 3.0, "c");
        m.set_objective(x.into(), Sense::Minimize);
        let out = presolve(&mut m, 5);
        assert!(matches!(out, PresolveOutcome::Reduced { bound_changes } if bound_changes >= 2));
        assert_eq!(m.var_data(x).ub, 3.0);
        assert_eq!(m.var_data(y).ub, 3.0);
    }

    #[test]
    fn integer_bounds_rounded() {
        let mut m = Model::new("t");
        let x = m.add_integer(0.4, 2.7, "x");
        presolve(&mut m, 1);
        assert_eq!(m.var_data(x).lb, 1.0);
        assert_eq!(m.var_data(x).ub, 2.0);
    }

    #[test]
    fn detects_row_infeasibility() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 1.0, "x");
        m.add_ge(x * 1.0, 5.0, "c");
        assert_eq!(presolve(&mut m, 3), PresolveOutcome::Infeasible);
    }

    #[test]
    fn detects_integer_hole_infeasibility() {
        let mut m = Model::new("t");
        m.add_integer(0.2, 0.8, "x"); // no integer in [0.2, 0.8]
        assert_eq!(presolve(&mut m, 1), PresolveOutcome::Infeasible);
    }

    #[test]
    fn bounds_an_ulp_apart_on_a_large_column_are_not_infeasible() {
        // x = y + c with y fixed: the row puts x's lower bound one ulp
        // (7.5e-9) above its upper bound, and the activity of the row,
        // about 4.5, carries the round-off of its 4.5e7 terms.
        let c = 4.494_719_999_999_996_5;
        let mut m = Model::new("t");
        let x = m.add_continuous(c, 44_947_199.999_999_96, "x");
        let y = m.add_continuous(44_947_195.505_279_97, 44_947_195.505_279_97, "y");
        m.add_eq(x - y, c, "c");
        assert!(matches!(
            presolve(&mut m, 3),
            PresolveOutcome::Reduced { .. }
        ));
        let d = m.var_data(x);
        assert!(d.lb <= d.ub, "[{}, {}]", d.lb, d.ub);
    }

    #[test]
    fn a_flag_beside_large_terms_is_not_rounded_off() {
        // The join-ordering staircase `co = Σ_r δ_r · f_r` over ten
        // thresholds a decade apart from 0.829, with f_1..f_9 and co fixed
        // at the top: f_0 must be 1, but the rest of the row sums terms up
        // to 7.5e8, and its limit for f_0 comes out 1.8e-7 short of 1.
        let base = 0.829_112_32f64.log10();
        let theta: Vec<f64> = (0..10).map(|r| 10f64.powf(base + r as f64)).collect();
        let mut m = Model::new("t");
        let co = m.add_continuous(0.0, theta[9], "co");
        let mut row = crate::expr::LinExpr::from(co);
        let flags: Vec<_> = (0..10)
            .map(|r| {
                let f = m.add_binary(format!("f{r}"));
                let delta = if r == 0 {
                    theta[0]
                } else {
                    theta[r] - theta[r - 1]
                };
                row += f * -delta;
                f
            })
            .collect();
        m.add_eq(row, 0.0, "co_def");
        m.tighten_var_bounds(co, theta[9], theta[9]);
        for &f in &flags[1..] {
            m.tighten_var_bounds(f, 1.0, 1.0);
        }
        assert!(matches!(
            presolve(&mut m, 3),
            PresolveOutcome::Reduced { .. }
        ));
        assert_eq!(m.var_data(flags[0]).ub, 1.0);
    }

    #[test]
    fn propagates_through_chain() {
        // x <= 2, y <= x, z <= y ==> z <= 2 after two rounds.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 2.0, "x");
        let y = m.add_continuous(0.0, 100.0, "y");
        let z = m.add_continuous(0.0, 100.0, "z");
        m.add_le(y - x, 0.0, "c0");
        m.add_le(z - y, 0.0, "c1");
        presolve(&mut m, 5);
        assert!(m.var_data(y).ub <= 2.0 + 1e-9);
        assert!(m.var_data(z).ub <= 2.0 + 1e-9);
    }

    #[test]
    fn negative_coefficients() {
        // -2x + y = 0, y in [0, 4] implies x in [0, 2].
        let mut m = Model::new("t");
        let x = m.add_continuous(f64::NEG_INFINITY, f64::INFINITY, "x");
        let y = m.add_continuous(0.0, 4.0, "y");
        m.add_eq(x * -2.0 + y, 0.0, "c");
        presolve(&mut m, 5);
        assert!((m.var_data(x).lb - 0.0).abs() < 1e-9);
        assert!((m.var_data(x).ub - 2.0).abs() < 1e-9);
    }
}
