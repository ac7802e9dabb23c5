//! Linear expressions over model variables.
//!
//! A [`LinExpr`] is a sum of `coefficient * variable` terms plus a constant
//! offset. Expressions are the currency of model building: objectives and
//! constraint left-hand sides are both linear expressions.

use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::model::Var;

/// A linear expression: `sum_i coeff_i * var_i + constant`.
///
/// Terms are kept in insertion order; duplicate variables are allowed and are
/// merged when the expression is attached to a model (see
/// [`LinExpr::compress`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<(Var, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The empty expression (zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// An expression consisting of a single constant.
    pub fn constant(value: f64) -> Self {
        Self {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// An expression consisting of a single `coeff * var` term.
    pub fn term(var: Var, coeff: f64) -> Self {
        Self {
            terms: vec![(var, coeff)],
            constant: 0.0,
        }
    }

    /// Builds an expression from an iterator of `(var, coeff)` pairs.
    pub fn from_terms<I: IntoIterator<Item = (Var, f64)>>(iter: I) -> Self {
        Self {
            terms: iter.into_iter().collect(),
            constant: 0.0,
        }
    }

    /// The raw (possibly duplicated) terms.
    pub fn terms(&self) -> &[(Var, f64)] {
        &self.terms
    }

    /// Number of raw terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the expression has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Merges duplicate variables and drops zero coefficients. Returns the
    /// merged `(var, coeff)` list sorted by variable index, plus the constant.
    pub fn compress(&self) -> (Vec<(Var, f64)>, f64) {
        let mut terms = self.terms.clone();
        terms.sort_by_key(|(v, _)| v.index());
        let mut out: Vec<(Var, f64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|(_, c)| *c != 0.0);
        (out, self.constant)
    }

    /// Evaluates the expression against a dense assignment of variable values
    /// (indexed by variable index).
    pub fn eval(&self, values: &[f64]) -> f64 {
        let mut acc = self.constant;
        for (v, c) in &self.terms {
            acc += c * values[v.index()];
        }
        acc
    }

    /// Multiplies the expression by a scalar in place.
    pub fn scale(&mut self, factor: f64) {
        for (_, c) in &mut self.terms {
            *c *= factor;
        }
        self.constant *= factor;
    }
}

impl From<Var> for LinExpr {
    fn from(v: Var) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        LinExpr::constant(c)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl Add<Var> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: Var) -> LinExpr {
        self.terms.push((rhs, 1.0));
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl AddAssign<Var> for LinExpr {
    fn add_assign(&mut self, rhs: Var) {
        self.terms.push((rhs, 1.0));
    }
}

impl AddAssign<f64> for LinExpr {
    fn add_assign(&mut self, rhs: f64) {
        self.constant += rhs;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
        self
    }
}

impl Sub<Var> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: Var) -> LinExpr {
        self.terms.push((rhs, -1.0));
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        self.scale(-1.0);
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        self.scale(rhs);
        self
    }
}

impl Mul<f64> for Var {
    type Output = LinExpr;
    fn mul(self, rhs: f64) -> LinExpr {
        LinExpr::term(self, rhs)
    }
}

impl Mul<Var> for f64 {
    type Output = LinExpr;
    fn mul(self, rhs: Var) -> LinExpr {
        LinExpr::term(rhs, self)
    }
}

impl Add<Var> for Var {
    type Output = LinExpr;
    fn add(self, rhs: Var) -> LinExpr {
        LinExpr::from_terms([(self, 1.0), (rhs, 1.0)])
    }
}

impl Sub<Var> for Var {
    type Output = LinExpr;
    fn sub(self, rhs: Var) -> LinExpr {
        LinExpr::from_terms([(self, 1.0), (rhs, -1.0)])
    }
}

impl Add<f64> for Var {
    type Output = LinExpr;
    fn add(self, rhs: f64) -> LinExpr {
        LinExpr::term(self, 1.0) + rhs
    }
}

impl Sub<f64> for Var {
    type Output = LinExpr;
    fn sub(self, rhs: f64) -> LinExpr {
        LinExpr::term(self, 1.0) - rhs
    }
}

impl Add<LinExpr> for Var {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        rhs + self
    }
}

impl Sub<LinExpr> for Var {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        -rhs + self
    }
}

impl Neg for Var {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        LinExpr::term(self, -1.0)
    }
}

impl std::iter::Sum for LinExpr {
    fn sum<I: Iterator<Item = LinExpr>>(iter: I) -> LinExpr {
        let mut acc = LinExpr::new();
        for e in iter {
            acc += e;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Var;

    fn v(i: usize) -> Var {
        Var::from_index(i)
    }

    #[test]
    fn build_and_eval() {
        let e = 2.0 * v(0) + v(1) - 0.5 * v(2) + 3.0;
        assert_eq!(e.eval(&[1.0, 2.0, 4.0]), 2.0 + 2.0 - 2.0 + 3.0);
    }

    #[test]
    fn compress_merges_duplicates() {
        let e = v(1) + v(0) + v(1) * 2.0 - v(0);
        let (terms, cst) = e.compress();
        assert_eq!(cst, 0.0);
        assert_eq!(terms, vec![(v(1), 3.0)]);
    }

    #[test]
    fn compress_drops_zero_coeffs() {
        let e = v(0) * 0.0 + v(1);
        let (terms, _) = e.compress();
        assert_eq!(terms, vec![(v(1), 1.0)]);
    }

    #[test]
    fn scale_and_neg() {
        let e = -(v(0) * 2.0 + 1.0);
        assert_eq!(e.eval(&[3.0]), -7.0);
    }

    #[test]
    fn sum_iterator() {
        let e: LinExpr = (0..3).map(|i| LinExpr::term(v(i), 1.0)).sum();
        assert_eq!(e.eval(&[1.0, 2.0, 3.0]), 6.0);
    }
}
