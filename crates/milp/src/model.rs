//! MILP model builder: variables, constraints, objective.
//!
//! A [`Model`] is the user-facing description of a mixed integer linear
//! program:
//!
//! ```text
//! minimize    c' x
//! subject to  lo_i <= a_i' x <= hi_i   for every constraint i
//!             lb_j <= x_j <= ub_j      for every variable j
//!             x_j integer              for integer/binary variables
//! ```
//!
//! The solver (see [`crate::solver::Solver`]) consumes a `Model` by value or
//! reference and never mutates it.

use std::fmt;

use crate::expr::LinExpr;

/// Handle to a model variable. Cheap to copy; indexes into the owning model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// Reconstructs a handle from a raw index. Only meaningful against the
    /// model that produced the index.
    pub fn from_index(i: usize) -> Self {
        Var(i as u32)
    }

    /// The raw index of this variable in its model.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a model constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstrId(u32);

impl ConstrId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Variable integrality class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable.
    Integer,
    /// Integer variable with implied bounds `[0, 1]`.
    Binary,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sense {
    #[default]
    Minimize,
    Maximize,
}

/// A variable definition inside a model.
#[derive(Debug, Clone)]
pub struct VarData {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    pub vtype: VarType,
}

/// A stored constraint: `lo <= sum coeffs * vars <= hi`.
///
/// Equalities have `lo == hi`; one-sided constraints use infinite bounds.
/// Coefficients are compressed (sorted by variable, duplicates merged, zeros
/// dropped) and any constant in the source expression has been folded into
/// the bounds.
#[derive(Debug, Clone)]
pub struct ConstrData {
    pub name: String,
    pub terms: Vec<(Var, f64)>,
    pub lo: f64,
    pub hi: f64,
}

/// Errors detected while building or validating a model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A variable lower bound exceeds its upper bound.
    InvalidBounds { var: String, lb: f64, ub: f64 },
    /// A bound or coefficient is NaN.
    NotFinite { context: String },
    /// A constraint has `lo > hi`.
    InvalidConstraint { constr: String, lo: f64, hi: f64 },
    /// An expression references a variable not in this model.
    UnknownVariable { index: usize },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidBounds { var, lb, ub } => {
                write!(f, "variable {var} has invalid bounds [{lb}, {ub}]")
            }
            ModelError::NotFinite { context } => write!(f, "NaN encountered in {context}"),
            ModelError::InvalidConstraint { constr, lo, hi } => {
                write!(f, "constraint {constr} has invalid range [{lo}, {hi}]")
            }
            ModelError::UnknownVariable { index } => {
                write!(f, "expression references unknown variable #{index}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A mixed integer linear programming model.
#[derive(Debug, Clone, Default)]
pub struct Model {
    name: String,
    vars: Vec<VarData>,
    constrs: Vec<ConstrData>,
    objective: Vec<(Var, f64)>,
    objective_constant: f64,
    sense: Sense,
}

impl Model {
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            ..Default::default()
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a continuous variable with the given bounds.
    pub fn add_continuous(&mut self, lb: f64, ub: f64, name: impl Into<String>) -> Var {
        self.add_var(lb, ub, VarType::Continuous, name)
    }

    /// Adds an integer variable with the given bounds.
    pub fn add_integer(&mut self, lb: f64, ub: f64, name: impl Into<String>) -> Var {
        self.add_var(lb, ub, VarType::Integer, name)
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> Var {
        self.add_var(0.0, 1.0, VarType::Binary, name)
    }

    /// Adds a variable of arbitrary type and bounds.
    pub fn add_var(&mut self, lb: f64, ub: f64, vtype: VarType, name: impl Into<String>) -> Var {
        let (lb, ub) = match vtype {
            VarType::Binary => (lb.max(0.0), ub.min(1.0)),
            _ => (lb, ub),
        };
        let v = Var(self.vars.len() as u32);
        self.vars.push(VarData {
            name: name.into(),
            lb,
            ub,
            vtype,
        });
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constrs(&self) -> usize {
        self.constrs.len()
    }

    /// Number of integer (including binary) variables.
    pub fn num_integer_vars(&self) -> usize {
        self.vars
            .iter()
            .filter(|v| v.vtype != VarType::Continuous)
            .count()
    }

    pub fn var_data(&self, v: Var) -> &VarData {
        &self.vars[v.index()]
    }

    pub fn vars(&self) -> &[VarData] {
        &self.vars
    }

    pub fn constrs(&self) -> &[ConstrData] {
        &self.constrs
    }

    /// Tightens the bounds of an existing variable (intersection with the
    /// current bounds).
    pub fn tighten_var_bounds(&mut self, v: Var, lb: f64, ub: f64) {
        let d = &mut self.vars[v.index()];
        d.lb = d.lb.max(lb);
        d.ub = d.ub.min(ub);
    }

    /// Adds the constraint `expr <= rhs`.
    pub fn add_le(&mut self, expr: LinExpr, rhs: f64, name: impl Into<String>) -> ConstrId {
        self.add_range(f64::NEG_INFINITY, expr, rhs, name)
    }

    /// Adds the constraint `expr >= rhs`.
    pub fn add_ge(&mut self, expr: LinExpr, rhs: f64, name: impl Into<String>) -> ConstrId {
        self.add_range(rhs, expr, f64::INFINITY, name)
    }

    /// Adds the constraint `expr == rhs`.
    pub fn add_eq(&mut self, expr: LinExpr, rhs: f64, name: impl Into<String>) -> ConstrId {
        self.add_range(rhs, expr, rhs, name)
    }

    /// Adds the ranged constraint `lo <= expr <= hi`. Any constant part of
    /// `expr` is folded into the bounds.
    pub fn add_range(
        &mut self,
        lo: f64,
        expr: LinExpr,
        hi: f64,
        name: impl Into<String>,
    ) -> ConstrId {
        let (terms, constant) = expr.compress();
        let id = ConstrId(self.constrs.len() as u32);
        self.constrs.push(ConstrData {
            name: name.into(),
            terms,
            lo: lo - constant,
            hi: hi - constant,
        });
        id
    }

    /// Sets the objective function. The constant part is carried through to
    /// reported objective values.
    pub fn set_objective(&mut self, expr: LinExpr, sense: Sense) {
        let (terms, constant) = expr.compress();
        self.objective = terms;
        self.objective_constant = constant;
        self.sense = sense;
    }

    pub fn objective(&self) -> &[(Var, f64)] {
        &self.objective
    }

    pub fn objective_constant(&self) -> f64 {
        self.objective_constant
    }

    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Dense objective coefficient vector (minimization orientation).
    pub fn objective_dense_min(&self) -> Vec<f64> {
        let sign = match self.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut c = vec![0.0; self.vars.len()];
        for (v, coeff) in &self.objective {
            c[v.index()] = sign * coeff;
        }
        c
    }

    /// Validates bounds, finiteness, and variable references.
    pub fn validate(&self) -> Result<(), ModelError> {
        for v in &self.vars {
            if v.lb.is_nan() || v.ub.is_nan() {
                return Err(ModelError::NotFinite {
                    context: format!("bounds of {}", v.name),
                });
            }
            if v.lb > v.ub {
                return Err(ModelError::InvalidBounds {
                    var: v.name.clone(),
                    lb: v.lb,
                    ub: v.ub,
                });
            }
        }
        for c in &self.constrs {
            if c.lo.is_nan() || c.hi.is_nan() {
                return Err(ModelError::NotFinite {
                    context: format!("bounds of {}", c.name),
                });
            }
            if c.lo > c.hi {
                return Err(ModelError::InvalidConstraint {
                    constr: c.name.clone(),
                    lo: c.lo,
                    hi: c.hi,
                });
            }
            for (v, coeff) in &c.terms {
                if v.index() >= self.vars.len() {
                    return Err(ModelError::UnknownVariable { index: v.index() });
                }
                if coeff.is_nan() {
                    return Err(ModelError::NotFinite {
                        context: format!("coefficient in {}", c.name),
                    });
                }
            }
        }
        for (v, coeff) in &self.objective {
            if v.index() >= self.vars.len() {
                return Err(ModelError::UnknownVariable { index: v.index() });
            }
            if coeff.is_nan() {
                return Err(ModelError::NotFinite {
                    context: "objective".into(),
                });
            }
        }
        Ok(())
    }

    /// Checks whether a dense assignment satisfies all constraints, bounds,
    /// and integrality requirements within `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (j, v) in self.vars.iter().enumerate() {
            let x = values[j];
            if x < v.lb - tol || x > v.ub + tol {
                return false;
            }
            if v.vtype != VarType::Continuous && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constrs {
            let mut act = 0.0;
            for (v, coeff) in &c.terms {
                act += coeff * values[v.index()];
            }
            // Scale the tolerance by the constraint magnitude so that huge
            // coefficients (e.g. big-M rows) do not spuriously fail.
            let scale = 1.0 + act.abs().max(c.lo.abs().min(c.hi.abs()));
            if act < c.lo - tol * scale || act > c.hi + tol * scale {
                return false;
            }
        }
        true
    }

    /// Evaluates the (sense-respecting) objective for an assignment.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        let mut acc = self.objective_constant;
        for (v, coeff) in &self.objective {
            acc += coeff * values[v.index()];
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_model() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, "x");
        let y = m.add_binary("y");
        m.add_le(x + y * 5.0, 8.0, "c0");
        m.set_objective(x * -1.0 - y, Sense::Minimize);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constrs(), 1);
        assert_eq!(m.num_integer_vars(), 1);
        m.validate().unwrap();
    }

    #[test]
    fn constant_folded_into_constraint_bounds() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, "x");
        m.add_le(x + 3.0, 8.0, "c0");
        assert_eq!(m.constrs()[0].hi, 5.0);
    }

    #[test]
    fn binary_bounds_clamped() {
        let mut m = Model::new("t");
        let b = m.add_var(-5.0, 7.0, VarType::Binary, "b");
        assert_eq!(m.var_data(b).lb, 0.0);
        assert_eq!(m.var_data(b).ub, 1.0);
    }

    #[test]
    fn validate_rejects_crossed_bounds() {
        let mut m = Model::new("t");
        m.add_continuous(1.0, 0.0, "x");
        assert!(matches!(
            m.validate(),
            Err(ModelError::InvalidBounds { .. })
        ));
    }

    #[test]
    fn feasibility_check() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, "x");
        let y = m.add_integer(0.0, 5.0, "y");
        m.add_eq(x + y, 4.0, "c");
        assert!(m.is_feasible(&[1.0, 3.0], 1e-9));
        assert!(!m.is_feasible(&[1.5, 3.0], 1e-9)); // violates equality
        assert!(!m.is_feasible(&[1.5, 2.5], 1e-9)); // y fractional
    }

    #[test]
    fn objective_dense_respects_sense() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 1.0, "x");
        m.set_objective(x * 2.0, Sense::Maximize);
        assert_eq!(m.objective_dense_min(), vec![-2.0]);
    }
}
