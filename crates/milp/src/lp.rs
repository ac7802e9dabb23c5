//! Computational form of an LP: the shape consumed by the simplex engine.
//!
//! A [`Model`] is translated into
//!
//! ```text
//! minimize  c' x
//! s.t.      A x + s = 0,   with  s_i in [-hi_i, -lo_i]
//!           lb <= x <= ub
//! ```
//!
//! where one *logical* variable `s_i` is appended per row. Every column
//! (structural or logical) is simply a bounded variable; the initial basis of
//! all logicals is the identity matrix.

use crate::lu::BasisColumn;
use crate::model::{Model, Sense, VarType};
use crate::sparse::CscMatrix;

/// An LP/MILP in computational form.
///
/// The matrix, bounds, and objective stored here are **equilibration
/// scaled**: every row is multiplied by a power of two bringing its largest
/// coefficient near 1, and every *continuous* column is scaled likewise
/// (integer columns keep scale 1 so integrality tests stay meaningful).
/// Scaling keeps the simplex tolerances meaningful when the source model
/// mixes coefficients across many orders of magnitude — which the join
/// ordering encodings do (log-cardinality rows vs. raw-cardinality rows).
/// Objective *values* are invariant under this scaling; variable values are
/// mapped back through [`LpProblem::unscale_values`].
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Number of structural (model) variables `n`.
    pub num_structural: usize,
    /// Number of rows `m`.
    pub num_rows: usize,
    /// Structural columns of `A` (m x n), scaled.
    pub a: CscMatrix,
    /// Row-activity lower bounds (`lo_i`), scaled (used by the feasibility
    /// verifier, which works in scaled space).
    pub row_lo: Vec<f64>,
    /// Row-activity upper bounds (`hi_i`), scaled.
    pub row_hi: Vec<f64>,
    /// Column lower bounds, length `n + m` (structural then logical),
    /// scaled.
    pub lb: Vec<f64>,
    /// Column upper bounds, length `n + m`, scaled.
    pub ub: Vec<f64>,
    /// Objective coefficients, length `n + m` (zero on logicals), always
    /// minimization oriented, scaled (objective values are unchanged).
    pub obj: Vec<f64>,
    /// Constant added to reported objective values.
    pub obj_offset: f64,
    /// Integrality flags for structural variables.
    pub integer: Vec<bool>,
    /// True if the original model maximized (reported objectives are negated
    /// back by the caller).
    pub flipped: bool,
    /// Per-structural-column scale factor: `x_model = x_scaled * col_scale`.
    pub col_scale: Vec<f64>,
}

impl LpProblem {
    /// Builds the computational form from a model. The model should be
    /// validated first.
    pub fn from_model(model: &Model) -> Self {
        let n = model.num_vars();
        let m = model.num_constrs();

        let mut integer = Vec::with_capacity(n);
        for v in model.vars() {
            integer.push(v.vtype != VarType::Continuous);
        }

        // Equilibration scaling by powers of two (exact in binary floating
        // point): rows first, then continuous columns, iterated.
        let mut row_scale = vec![1.0f64; m];
        let mut col_scale = vec![1.0f64; n];
        for _ in 0..3 {
            for (i, c) in model.constrs().iter().enumerate() {
                let mut maxabs = 0.0f64;
                for (v, coeff) in &c.terms {
                    maxabs = maxabs.max((coeff * row_scale[i] * col_scale[v.index()]).abs());
                }
                if maxabs > 0.0 {
                    row_scale[i] *= pow2_inverse(maxabs);
                }
            }
            // Column pass (continuous columns only). The objective does NOT
            // participate: a column must be scaled to match its *matrix*
            // rows or it ends up numerically detached from the constraints
            // that define it. Model generators are responsible for keeping
            // objective magnitudes within a sane range of the matrix (the
            // join-ordering encoder bounds its cardinality window for
            // exactly this reason).
            let mut col_max = vec![0.0f64; n];
            for (i, c) in model.constrs().iter().enumerate() {
                for (v, coeff) in &c.terms {
                    let j = v.index();
                    col_max[j] = col_max[j].max((coeff * row_scale[i] * col_scale[j]).abs());
                }
            }
            for j in 0..n {
                if !integer[j] && col_max[j] > 0.0 {
                    col_scale[j] *= pow2_inverse(col_max[j]);
                }
            }
        }

        let mut columns: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for (i, c) in model.constrs().iter().enumerate() {
            for (v, coeff) in &c.terms {
                let j = v.index();
                columns[j].push((i as u32, coeff * row_scale[i] * col_scale[j]));
            }
        }
        let a = CscMatrix::from_columns(m, &columns);

        // Scaled variable bounds: x_scaled = x_model / col_scale.
        let mut lb = Vec::with_capacity(n + m);
        let mut ub = Vec::with_capacity(n + m);
        for (j, v) in model.vars().iter().enumerate() {
            lb.push(v.lb / col_scale[j]);
            ub.push(v.ub / col_scale[j]);
        }
        let mut row_lo = Vec::with_capacity(m);
        let mut row_hi = Vec::with_capacity(m);
        for (i, c) in model.constrs().iter().enumerate() {
            let (lo, hi) = (c.lo * row_scale[i], c.hi * row_scale[i]);
            // s = -activity, so s in [-hi, -lo].
            lb.push(-hi);
            ub.push(-lo);
            row_lo.push(lo);
            row_hi.push(hi);
        }

        let flipped = model.sense() == Sense::Maximize;
        let mut obj = model.objective_dense_min();
        for (j, c) in obj.iter_mut().enumerate() {
            *c *= col_scale[j];
        }
        obj.resize(n + m, 0.0);
        let obj_offset = if flipped {
            -model.objective_constant()
        } else {
            model.objective_constant()
        };

        LpProblem {
            num_structural: n,
            num_rows: m,
            a,
            row_lo,
            row_hi,
            lb,
            ub,
            obj,
            obj_offset,
            integer,
            flipped,
            col_scale,
        }
    }

    /// Maps scaled structural values back to model space.
    pub fn unscale_values(&self, scaled: &[f64]) -> Vec<f64> {
        scaled
            .iter()
            .take(self.num_structural)
            .enumerate()
            .map(|(j, &v)| v * self.col_scale[j])
            .collect()
    }

    /// Total number of columns (structural + logical).
    pub fn num_cols(&self) -> usize {
        self.num_structural + self.num_rows
    }

    /// Whether column `j` is a logical (slack) column.
    pub fn is_logical(&self, j: usize) -> bool {
        j >= self.num_structural
    }

    /// Column `j` as the basis factorization reads it: the CSC slices of a
    /// structural column, the unit column of a logical.
    pub fn basis_column(&self, j: usize) -> BasisColumn<'_> {
        if j < self.num_structural {
            let (rows, values) = self.a.column_slices(j);
            BasisColumn::Sparse(rows, values)
        } else {
            BasisColumn::Unit((j - self.num_structural) as u32)
        }
    }

    /// Adds `factor * column(j)` into a dense row-space vector.
    pub fn column_axpy(&self, j: usize, factor: f64, dense: &mut [f64]) {
        if j < self.num_structural {
            self.a.column_axpy(j, factor, dense);
        } else {
            dense[j - self.num_structural] += factor;
        }
    }

    /// Dot product of column `j` with a dense row-space vector.
    pub fn column_dot(&self, j: usize, dense: &[f64]) -> f64 {
        if j < self.num_structural {
            self.a.column_dot(j, dense)
        } else {
            dense[j - self.num_structural]
        }
    }

    /// Dot product of |column j| with |dense| — used for relative tolerance
    /// estimates during pricing.
    pub fn column_abs_dot(&self, j: usize, dense: &[f64]) -> f64 {
        if j < self.num_structural {
            let mut acc = 0.0;
            for (r, v) in self.a.column(j) {
                acc += v.abs() * dense[r].abs();
            }
            acc
        } else {
            dense[j - self.num_structural].abs()
        }
    }

    /// Converts a minimization-space objective value back to the model sense.
    pub fn user_objective(&self, min_obj: f64) -> f64 {
        if self.flipped {
            -(min_obj + self.obj_offset)
        } else {
            min_obj + self.obj_offset
        }
    }
}

/// The power of two closest to `1/x` (exact scaling factor).
fn pow2_inverse(x: f64) -> f64 {
    debug_assert!(x > 0.0);
    let e = (-x.log2()).round();
    e.exp2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn computational_form_shapes() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 4.0, "x");
        let y = m.add_integer(0.0, 3.0, "y");
        m.add_le(x + y * 2.0, 6.0, "c0");
        m.add_ge(x - y, -1.0, "c1");
        m.set_objective(x + y, Sense::Maximize);
        let lp = LpProblem::from_model(&m);
        assert_eq!(lp.num_structural, 2);
        assert_eq!(lp.num_rows, 2);
        assert_eq!(lp.num_cols(), 4);
        assert!(lp.flipped);
        // Scaling is a power of two per row/column; check scale-invariant
        // relationships instead of absolute values.
        let (sx, sy) = (lp.col_scale[0], lp.col_scale[1]);
        assert!((lp.obj[0] + sx).abs() < 1e-12);
        assert!((lp.obj[1] + sy).abs() < 1e-12);
        // c0: activity <= 6 -> slack lower bound is -6 * row_scale.
        assert!(lp.lb[2] < 0.0 && lp.lb[2].is_finite());
        assert!(lp.ub[2].is_infinite());
        // c1: activity >= -1 -> slack in [-inf, 1 * row_scale].
        assert!(lp.lb[3].is_infinite());
        assert!(lp.ub[3] > 0.0 && lp.ub[3].is_finite());
        assert_eq!(lp.integer, vec![false, true]);
        // Unscaling maps a scaled point back to model space.
        let scaled = vec![2.0 / sx, 3.0 / sy];
        assert_eq!(lp.unscale_values(&scaled), vec![2.0, 3.0]);
    }

    #[test]
    fn logical_column_is_unit() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 1.0, "x");
        m.add_eq(x * 3.0, 1.5, "c");
        let lp = LpProblem::from_model(&m);
        assert!(lp.is_logical(1));
        // Logical columns are unit vectors regardless of scaling.
        assert!(matches!(lp.basis_column(1), BasisColumn::Unit(0)));
        // The structural coefficient is 3 * row_scale * col_scale (both
        // powers of two), so strictly positive.
        let BasisColumn::Sparse(rows, values) = lp.basis_column(0) else {
            panic!("structural column read as a unit column");
        };
        assert_eq!(rows, [0]);
        assert_eq!(values.len(), 1);
        assert!(values[0] > 0.0);
    }
}
