//! Property-based verification of the MILP solver against brute force.
//!
//! Random small integer programs are generated, solved by the full
//! simplex + branch-and-bound stack, and compared against exhaustive
//! enumeration of the integer grid.

use milpjoin_milp::{LinExpr, Model, Sense, SolveStatus, Solver, SolverOptions, VarType};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomIp {
    num_vars: usize,
    var_ub: Vec<i32>,
    obj: Vec<i32>,
    /// Each constraint: coefficients and a <=-rhs.
    rows: Vec<(Vec<i32>, i32)>,
    maximize: bool,
}

fn random_ip() -> impl Strategy<Value = RandomIp> {
    (1usize..=5).prop_flat_map(|num_vars| {
        let var_ub = prop::collection::vec(0i32..=3, num_vars);
        let obj = prop::collection::vec(-5i32..=5, num_vars);
        let rows = prop::collection::vec(
            (prop::collection::vec(-3i32..=3, num_vars), -4i32..=12),
            0..=4,
        );
        (var_ub, obj, rows, any::<bool>()).prop_map(move |(var_ub, obj, rows, maximize)| RandomIp {
            num_vars,
            var_ub,
            obj,
            rows,
            maximize,
        })
    })
}

fn build_model(ip: &RandomIp) -> Model {
    let mut m = Model::new("prop");
    let vars: Vec<_> = (0..ip.num_vars)
        .map(|j| m.add_var(0.0, ip.var_ub[j] as f64, VarType::Integer, format!("x{j}")))
        .collect();
    for (i, (coeffs, rhs)) in ip.rows.iter().enumerate() {
        let expr: LinExpr = vars.iter().zip(coeffs).map(|(&v, &c)| v * c as f64).sum();
        m.add_le(expr, *rhs as f64, format!("c{i}"));
    }
    let obj: LinExpr = vars.iter().zip(&ip.obj).map(|(&v, &c)| v * c as f64).sum();
    m.set_objective(
        obj,
        if ip.maximize {
            Sense::Maximize
        } else {
            Sense::Minimize
        },
    );
    m
}

/// Exhaustive optimum over the integer grid, or `None` if infeasible.
fn brute_force(ip: &RandomIp) -> Option<i64> {
    let mut best: Option<i64> = None;
    let mut point = vec![0i32; ip.num_vars];
    loop {
        // Feasibility.
        let feasible = ip.rows.iter().all(|(coeffs, rhs)| {
            let act: i64 = coeffs
                .iter()
                .zip(&point)
                .map(|(&c, &x)| c as i64 * x as i64)
                .sum();
            act <= *rhs as i64
        });
        if feasible {
            let obj: i64 = ip
                .obj
                .iter()
                .zip(&point)
                .map(|(&c, &x)| c as i64 * x as i64)
                .sum();
            best = Some(match best {
                Some(b) => {
                    if ip.maximize {
                        b.max(obj)
                    } else {
                        b.min(obj)
                    }
                }
                None => obj,
            });
        }
        // Next grid point (odometer).
        let mut j = 0;
        loop {
            if j == ip.num_vars {
                return best;
            }
            if point[j] < ip.var_ub[j] {
                point[j] += 1;
                break;
            }
            point[j] = 0;
            j += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn solver_matches_brute_force(ip in random_ip()) {
        let model = build_model(&ip);
        let result = Solver::new(SolverOptions::default()).solve(&model).unwrap();
        let expected = brute_force(&ip);
        match expected {
            Some(opt) => {
                prop_assert_eq!(result.status, SolveStatus::Optimal,
                    "expected optimal {}, got {:?}", opt, result.status);
                let got = result.objective.unwrap();
                prop_assert!((got - opt as f64).abs() < 1e-5,
                    "objective {} vs brute force {}", got, opt);
                // The reported solution must actually be feasible.
                let sol = result.solution_ref();
                prop_assert!(model.is_feasible(sol.values(), 1e-5));
                // And achieve the reported objective.
                let recomputed = model.objective_value(sol.values());
                prop_assert!((recomputed - got).abs() < 1e-5);
            }
            None => {
                prop_assert_eq!(result.status, SolveStatus::Infeasible);
            }
        }
    }

    #[test]
    fn lp_relaxation_bounds_milp(ip in random_ip()) {
        // Relax integrality: the LP optimum must bound the MILP optimum.
        let model = build_model(&ip);
        let mut relaxed = Model::new("relaxed");
        for v in model.vars() {
            relaxed.add_continuous(v.lb, v.ub, v.name.clone());
        }
        for c in model.constrs() {
            let expr = LinExpr::from_terms(c.terms.iter().copied());
            relaxed.add_range(c.lo, expr, c.hi, c.name.clone());
        }
        let obj = LinExpr::from_terms(model.objective().iter().copied());
        relaxed.set_objective(obj, model.sense());

        let milp = Solver::new(SolverOptions::default()).solve(&model).unwrap();
        let lp = Solver::new(SolverOptions::default()).solve(&relaxed).unwrap();
        if milp.status == SolveStatus::Optimal {
            prop_assert_eq!(lp.status, SolveStatus::Optimal);
            let milp_obj = milp.objective.unwrap();
            let lp_obj = lp.objective.unwrap();
            if ip.maximize {
                prop_assert!(lp_obj >= milp_obj - 1e-5, "lp {} < milp {}", lp_obj, milp_obj);
            } else {
                prop_assert!(lp_obj <= milp_obj + 1e-5, "lp {} > milp {}", lp_obj, milp_obj);
            }
        }
    }

    #[test]
    fn event_bounds_never_overshoot_the_optimum(ip in random_ip()) {
        // Every dual bound the solver *streams* must be a valid global
        // bound for the final optimum — the anytime guarantee consumers
        // divide by these values. Regression: the last open nodes of a
        // search (about to be pruned against the incumbent) used to leak
        // their LP bounds as "global" bounds above the optimum.
        use milpjoin_milp::branch_bound::SolverEvent;
        let model = build_model(&ip);
        let mut bounds: Vec<f64> = Vec::new();
        let result = Solver::new(SolverOptions::default())
            .solve_with_callback(&model, |ev| {
                let b = match ev {
                    SolverEvent::Incumbent(inc) => inc.bound,
                    SolverEvent::BoundImproved { bound, .. } => *bound,
                };
                bounds.push(b);
            })
            .unwrap();
        if result.status == SolveStatus::Optimal {
            let opt = result.objective.unwrap();
            for &b in &bounds {
                if !b.is_finite() {
                    continue;
                }
                if ip.maximize {
                    prop_assert!(b >= opt - 1e-5, "event bound {} below max-optimum {}", b, opt);
                } else {
                    prop_assert!(b <= opt + 1e-5, "event bound {} above min-optimum {}", b, opt);
                }
            }
        }
    }
}

/// Mixed-integer regression: continuous + integer interaction.
#[test]
fn mixed_integer_exact() {
    // max 3x + 2y, x integer in [0,4], y continuous in [0, 3.5],
    // 2x + y <= 7 -> x=3, y=1 -> 11; check x=2,y=3=12? 2*2+3=7 ok -> 12.
    let mut m = Model::new("mixed");
    let x = m.add_integer(0.0, 4.0, "x");
    let y = m.add_continuous(0.0, 3.5, "y");
    m.add_le(x * 2.0 + y, 7.0, "c");
    m.set_objective(x * 3.0 + y * 2.0, Sense::Maximize);
    let r = Solver::new(SolverOptions::default()).solve(&m).unwrap();
    assert_eq!(r.status, SolveStatus::Optimal);
    // Candidates: x=3 -> y<=1 -> 9+2=11; x=2 -> y<=3 -> 6+6=12; x=4 -> y=0 -> 12?
    // 2*4=8 > 7 infeasible. So optimum 12 at x=2,y=3.
    assert!(
        (r.objective.unwrap() - 12.0).abs() < 1e-6,
        "{:?}",
        r.objective
    );
}

/// An assignment problem (equality constraints, binary variables).
#[test]
#[allow(clippy::needless_range_loop)] // x[i][j] / x[j][i] transposed indexing
fn assignment_problem() {
    let cost = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
    let mut m = Model::new("assign");
    let mut x = vec![vec![]; 3];
    for i in 0..3 {
        for j in 0..3 {
            x[i].push(m.add_binary(format!("x{i}{j}")));
        }
    }
    for i in 0..3 {
        let row: LinExpr = (0..3).map(|j| LinExpr::from(x[i][j])).sum();
        m.add_eq(row, 1.0, format!("row{i}"));
        let col: LinExpr = (0..3).map(|j| LinExpr::from(x[j][i])).sum();
        m.add_eq(col, 1.0, format!("col{i}"));
    }
    let obj: LinExpr = (0..3)
        .flat_map(|i| (0..3).map(move |j| (i, j)))
        .map(|(i, j)| x[i][j] * cost[i][j])
        .sum();
    m.set_objective(obj, Sense::Minimize);
    let r = Solver::new(SolverOptions::default()).solve(&m).unwrap();
    assert_eq!(r.status, SolveStatus::Optimal);
    // Optimal assignment: (0->1)=2, (1->2)? enumerate: best is 2 + 7 + 3 = 12
    // or 4+3+6=13, 4+7+1=12, 8+4+1=13, 2+4+6=12, 8+3+3=14 -> optimum 12.
    assert!(
        (r.objective.unwrap() - 12.0).abs() < 1e-6,
        "{:?}",
        r.objective
    );
}

/// Equality-constrained binary model with no feasible assignment.
#[test]
fn infeasible_parity() {
    let mut m = Model::new("parity");
    let a = m.add_binary("a");
    let b = m.add_binary("b");
    m.add_eq(a + b, 1.0, "c0");
    m.add_eq(a - b, 1.0, "c1"); // forces a=1, b=0
    m.add_eq(LinExpr::from(b), 1.0, "c2"); // contradicts
    m.set_objective(a.into(), Sense::Minimize);
    let r = Solver::new(SolverOptions::default()).solve(&m).unwrap();
    assert_eq!(r.status, SolveStatus::Infeasible);
}

/// Big-M indicator structure: the paper's threshold activation rows (the
/// encoder now uses one convex-hull row per join instead, and keeps big-M
/// rows in its product linearizations).
#[test]
fn big_m_indicator_thresholds() {
    // z continuous in [0, 100]; t_r binary "z reaches threshold r" for
    // thresholds 10, 50, 90 via z - M t_r <= theta_r; cost sums activated
    // thresholds. Force z = 60: t for 10 and 50 must activate, 90 not.
    let mut m = Model::new("bigm");
    let z = m.add_continuous(0.0, 100.0, "z");
    let thresholds = [10.0, 50.0, 90.0];
    let mut cost = LinExpr::new();
    let mut tvars = Vec::new();
    for (r, &th) in thresholds.iter().enumerate() {
        let t = m.add_binary(format!("t{r}"));
        // z <= th + M * t with M = 100 - th
        m.add_le(z - t * (100.0 - th), th, format!("thr{r}"));
        cost += t * 1.0;
        tvars.push(t);
    }
    m.add_ge(z.into(), 60.0, "force");
    m.set_objective(cost, Sense::Minimize);
    let r = Solver::new(SolverOptions::default()).solve(&m).unwrap();
    assert_eq!(r.status, SolveStatus::Optimal);
    assert!((r.objective.unwrap() - 2.0).abs() < 1e-6);
    let sol = r.solution_ref();
    assert!(sol.is_one(tvars[0]));
    assert!(sol.is_one(tvars[1]));
    assert!(!sol.is_one(tvars[2]));
}
