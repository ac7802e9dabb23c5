//! Sparse matrix storage for the simplex engine.
//!
//! The constraint matrix is stored in compressed sparse column (CSC) form:
//! the simplex method overwhelmingly needs column access (pricing a column,
//! forming the entering direction).

/// Compressed sparse column matrix.
#[derive(Debug, Clone, Default)]
pub struct CscMatrix {
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from per-column `(row, value)` lists.
    pub fn from_columns(nrows: usize, columns: &[Vec<(u32, f64)>]) -> Self {
        let nnz: usize = columns.iter().map(Vec::len).sum();
        let mut col_ptr = Vec::with_capacity(columns.len() + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for col in columns {
            for &(r, v) in col {
                debug_assert!((r as usize) < nrows);
                row_idx.push(r);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Row indices and values of column `j`.
    pub fn column_slices(&self, j: usize) -> (&[u32], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Iterator over the nonzeros of column `j` as `(row, value)`.
    pub fn column(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (rows, values) = self.column_slices(j);
        rows.iter().zip(values).map(|(&r, &v)| (r as usize, v))
    }

    /// Dot product of column `j` with a dense vector.
    pub fn column_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (r, v) in self.column(j) {
            acc += v * dense[r];
        }
        acc
    }

    /// Adds `factor * column(j)` into a dense vector.
    pub fn column_axpy(&self, j: usize, factor: f64, dense: &mut [f64]) {
        for (r, v) in self.column(j) {
            dense[r] += factor * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        CscMatrix::from_columns(
            3,
            &[
                vec![(0, 1.0), (2, 4.0)],
                vec![(1, 3.0)],
                vec![(0, 2.0), (2, 5.0)],
            ],
        )
    }

    #[test]
    fn column_access() {
        let m = sample();
        let col: Vec<_> = m.column(2).collect();
        assert_eq!(col, vec![(0, 2.0), (2, 5.0)]);
    }

    #[test]
    fn column_dot_and_axpy() {
        let m = sample();
        assert_eq!(m.column_dot(0, &[1.0, 1.0, 1.0]), 5.0);
        let mut d = vec![0.0; 3];
        m.column_axpy(2, 2.0, &mut d);
        assert_eq!(d, vec![4.0, 0.0, 10.0]);
    }
}
