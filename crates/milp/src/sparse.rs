//! Sparse matrix storage for the simplex engine.
//!
//! The constraint matrix is stored in compressed sparse column (CSC) form:
//! the simplex method overwhelmingly needs column access (pricing a column,
//! forming the entering direction). A companion row-major view is built once
//! for dual pricing and presolve row scans.

/// Compressed sparse column matrix.
#[derive(Debug, Clone, Default)]
pub struct CscMatrix {
    nrows: usize,
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
            nrows,
            col_ptr,
            row_idx,
            values,
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.col_ptr.len().saturating_sub(1)
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
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

    /// Number of nonzeros in column `j`.
    pub fn column_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
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

    /// Builds the row-major (CSR) view of this matrix.
    pub fn to_csr(&self) -> CsrMatrix {
        let ncols = self.ncols();
        let mut row_counts = vec![0usize; self.nrows];
        for &r in &self.row_idx {
            row_counts[r as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut acc = 0usize;
        row_ptr.push(acc);
        for c in &row_counts {
            acc += c;
            row_ptr.push(acc);
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = row_ptr.clone();
        for j in 0..ncols {
            for (r, v) in self.column(j) {
                let pos = next[r];
                col_idx[pos] = j as u32;
                values[pos] = v;
                next[r] += 1;
            }
        }
        CsrMatrix {
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Compressed sparse row matrix (read-only companion of [`CscMatrix`]).
#[derive(Debug, Clone, Default)]
pub struct CsrMatrix {
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    pub fn nrows(&self) -> usize {
        self.row_ptr.len().saturating_sub(1)
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Iterator over the nonzeros of row `i` as `(col, value)`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
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
    fn dims_and_nnz() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.column_nnz(0), 2);
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

    #[test]
    fn csr_round_trip() {
        let m = sample();
        let r = m.to_csr();
        assert_eq!(r.nrows(), 3);
        assert_eq!(r.ncols(), 3);
        let row0: Vec<_> = r.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 2.0)]);
        let row1: Vec<_> = r.row(1).collect();
        assert_eq!(row1, vec![(1, 3.0)]);
        assert_eq!(r.row_nnz(2), 2);
    }
}
