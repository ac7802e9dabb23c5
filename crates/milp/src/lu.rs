//! Sparse LU factorization of the simplex basis, with product-form updates.
//!
//! The basis matrix `B` (one column per basic variable) is factorized with a
//! left-looking sparse LU (Gilbert–Peierls style) using partial pivoting by
//! magnitude. Basis changes between refactorizations are absorbed as
//! product-form eta matrices: `B_new = B * E_1 * ... * E_k`.
//!
//! Terminology: FTRAN solves `B x = b`, BTRAN solves `Bᵀ y = c`. FTRAN input
//! is indexed by row, output by basis position; BTRAN is the reverse.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

const NONE: u32 = u32::MAX;

/// A product-form eta: the basis column at `pos` was replaced by a column
/// whose FTRAN representation had `pivot` at `pos` and `others` elsewhere.
#[derive(Debug, Clone)]
struct Eta {
    pos: usize,
    pivot: f64,
    others: Vec<(u32, f64)>,
}

/// Outcome of a factorization attempt.
#[derive(Debug, Clone)]
pub struct FactorizeReport {
    /// Basis positions whose columns were numerically singular and were
    /// replaced by the logical (slack) column of the reported row.
    pub replaced: Vec<(usize, usize)>,
    /// Fill-in: nonzeros in L plus U.
    pub fill_nnz: usize,
}

/// LU factors of a basis plus the eta file accumulated since the last
/// refactorization.
#[derive(Debug, Clone)]
pub struct LuFactors {
    m: usize,
    /// L column k: `(row, multiplier)` entries below the pivot, row-indexed.
    l_cols: Vec<Vec<(u32, f64)>>,
    /// U column k: `(position j, value)` entries with `j < k`.
    u_cols: Vec<Vec<(u32, f64)>>,
    u_diag: Vec<f64>,
    /// position -> original row pivoted at that elimination step.
    pivot_row: Vec<u32>,
    etas: Vec<Eta>,
}

impl LuFactors {
    /// Factorizes the basis given by `columns`: for each basis position, the
    /// sparse `(row, value)` pattern of the basis column. Numerically
    /// dependent columns are replaced by logical columns and reported.
    pub fn factorize(
        m: usize,
        columns: &mut dyn FnMut(usize) -> Vec<(u32, f64)>,
    ) -> (Self, FactorizeReport) {
        let mut lu = LuFactors {
            m,
            l_cols: vec![Vec::new(); m],
            u_cols: vec![Vec::new(); m],
            u_diag: vec![0.0; m],
            pivot_row: vec![NONE; m],
            etas: Vec::new(),
        };
        let mut pos_of_row = vec![NONE; m];
        // Dense work vector plus its nonzero pattern.
        let mut work = vec![0.0; m];
        let mut pattern: Vec<u32> = Vec::with_capacity(64);
        let mut defective: Vec<usize> = Vec::new();
        let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        let mut in_heap = vec![false; m];

        for k in 0..m {
            // Scatter column k.
            pattern.clear();
            for (r, v) in columns(k) {
                if v != 0.0 {
                    work[r as usize] = v;
                    pattern.push(r);
                }
            }
            // Lower solve in topological (position) order using a worklist:
            // apply every earlier pivot whose row carries a nonzero.
            heap.clear();
            for &r in &pattern {
                let p = pos_of_row[r as usize];
                if p != NONE && !in_heap[p as usize] {
                    in_heap[p as usize] = true;
                    heap.push(Reverse(p));
                }
            }
            while let Some(Reverse(j)) = heap.pop() {
                let j = j as usize;
                in_heap[j] = false;
                let pr = lu.pivot_row[j] as usize;
                let xj = work[pr];
                if xj == 0.0 {
                    continue;
                }
                lu.u_cols[k].push((j as u32, xj));
                work[pr] = 0.0;
                for &(r, l) in &lu.l_cols[j] {
                    let ru = r as usize;
                    if work[ru] == 0.0 {
                        pattern.push(r);
                    }
                    work[ru] -= l * xj;
                    let p = pos_of_row[ru];
                    if p != NONE && work[ru] != 0.0 && !in_heap[p as usize] {
                        in_heap[p as usize] = true;
                        heap.push(Reverse(p));
                    }
                }
            }
            // Pivot: largest remaining entry in an unpivoted row.
            let mut best_row = NONE;
            let mut best_abs = 1e-10;
            for &r in &pattern {
                let ru = r as usize;
                if pos_of_row[ru] == NONE {
                    let a = work[ru].abs();
                    if a > best_abs {
                        best_abs = a;
                        best_row = r;
                    }
                }
            }
            if best_row == NONE {
                // Column is dependent on earlier ones; patch later.
                defective.push(k);
                lu.u_cols[k].clear();
                for &r in &pattern {
                    work[r as usize] = 0.0;
                }
                continue;
            }
            let piv_row = best_row as usize;
            let piv = work[piv_row];
            lu.u_diag[k] = piv;
            lu.pivot_row[k] = best_row;
            pos_of_row[piv_row] = k as u32;
            for &r in &pattern {
                let ru = r as usize;
                let v = work[ru];
                work[ru] = 0.0;
                if ru != piv_row && v != 0.0 && pos_of_row[ru] == NONE {
                    lu.l_cols[k].push((r, v / piv));
                }
            }
        }

        // Repair defective columns: assign each one a leftover row as a
        // logical (identity) column.
        let mut replaced = Vec::new();
        if !defective.is_empty() {
            let mut free_rows: Vec<usize> = (0..m).filter(|&r| pos_of_row[r] == NONE).collect();
            for k in defective {
                // audit-allow(no-panic): counting argument — every defective column
                // leaves exactly one row unassigned, so `free_rows` has one entry
                // per iteration.
                let r = free_rows.pop().expect("one free row per defective column");
                lu.pivot_row[k] = r as u32;
                lu.u_diag[k] = 1.0;
                lu.u_cols[k].clear();
                lu.l_cols[k].clear();
                pos_of_row[r] = k as u32;
                replaced.push((k, r));
            }
        }
        let fill = lu.l_cols.iter().map(Vec::len).sum::<usize>()
            + lu.u_cols.iter().map(Vec::len).sum::<usize>()
            + m;
        (
            lu,
            FactorizeReport {
                replaced,
                fill_nnz: fill,
            },
        )
    }

    pub fn num_etas(&self) -> usize {
        self.etas.len()
    }

    pub fn dim(&self) -> usize {
        self.m
    }

    /// Records a basis change: position `pos` is replaced by a column whose
    /// FTRAN representation is the dense vector `direction` (position space).
    /// Returns false if the pivot element is numerically unusable.
    pub fn push_eta(&mut self, pos: usize, direction: &[f64]) -> bool {
        let pivot = direction[pos];
        if pivot.abs() < 1e-9 {
            return false;
        }
        let others: Vec<(u32, f64)> = direction
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != pos && v != 0.0)
            .map(|(i, &v)| (i as u32, v))
            .collect();
        self.etas.push(Eta { pos, pivot, others });
        true
    }

    /// Solves `B x = b`. Input `b` is dense, indexed by row; the result is
    /// written back into `b`, indexed by basis position. `work` is scratch
    /// owned by the caller, so that a loop of solves allocates nothing; the
    /// result does not depend on its prior contents.
    pub fn ftran(&self, b: &mut [f64], work: &mut Vec<f64>) {
        debug_assert_eq!(b.len(), self.m);
        // Forward: y_k = b[pivot_row[k]]; eliminate below.
        work.clear();
        work.resize(self.m, 0.0);
        let y = work;
        for k in 0..self.m {
            let v = b[self.pivot_row[k] as usize];
            if v != 0.0 {
                y[k] = v;
                for &(r, l) in &self.l_cols[k] {
                    b[r as usize] -= l * v;
                }
            }
        }
        // Backward with U (column oriented).
        for k in (0..self.m).rev() {
            let z = y[k] / self.u_diag[k];
            y[k] = z;
            if z != 0.0 {
                for &(j, u) in &self.u_cols[k] {
                    y[j as usize] -= u * z;
                }
            }
        }
        // Product-form etas, oldest first.
        for eta in &self.etas {
            let xp = y[eta.pos] / eta.pivot;
            y[eta.pos] = xp;
            if xp != 0.0 {
                for &(i, d) in &eta.others {
                    y[i as usize] -= d * xp;
                }
            }
        }
        b.copy_from_slice(y);
    }

    /// Solves `Bᵀ y = c`. Input `c` is dense, indexed by basis position; the
    /// result is written back into `c`, indexed by row. `work` is scratch,
    /// as for [`ftran`](Self::ftran).
    pub fn btran(&self, c: &mut [f64], work: &mut Vec<f64>) {
        debug_assert_eq!(c.len(), self.m);
        // Eta transposes, newest first.
        for eta in self.etas.iter().rev() {
            let mut dot = 0.0;
            for &(i, d) in &eta.others {
                dot += d * c[i as usize];
            }
            c[eta.pos] = (c[eta.pos] - dot) / eta.pivot;
        }
        // Solve Uᵀ w = c (forward in position space, in place: step k reads
        // only c[k] and the already solved w[j], j < k).
        for k in 0..self.m {
            let mut acc = c[k];
            for &(j, u) in &self.u_cols[k] {
                acc -= u * c[j as usize];
            }
            c[k] = acc / self.u_diag[k];
        }
        // Solve Lᵀ v = w (backward), scattering to row space.
        work.clear();
        work.resize(self.m, 0.0);
        let v = work;
        for k in (0..self.m).rev() {
            let mut acc = c[k];
            for &(r, l) in &self.l_cols[k] {
                acc -= l * v[r as usize];
            }
            v[self.pivot_row[k] as usize] = acc;
        }
        c.copy_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense helper: multiply the basis given by columns with x.
    fn mat_vec(cols: &[Vec<(u32, f64)>], x: &[f64]) -> Vec<f64> {
        let m = x.len();
        let mut out = vec![0.0; m];
        for (k, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                out[r as usize] += v * x[k];
            }
        }
        out
    }

    fn mat_t_vec(cols: &[Vec<(u32, f64)>], y: &[f64]) -> Vec<f64> {
        cols.iter()
            .map(|col| col.iter().map(|&(r, v)| v * y[r as usize]).sum())
            .collect()
    }

    fn factor(cols: &[Vec<(u32, f64)>]) -> (LuFactors, FactorizeReport) {
        let m = cols.len();
        let mut get = |k: usize| cols[k].clone();
        LuFactors::factorize(m, &mut get)
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn identity_ftran_btran() {
        let cols: Vec<Vec<(u32, f64)>> = (0..4).map(|k| vec![(k as u32, 1.0)]).collect();
        let (lu, rep) = factor(&cols);
        assert!(rep.replaced.is_empty());
        let mut b = vec![1.0, 2.0, 3.0, 4.0];
        lu.ftran(&mut b, &mut Vec::new());
        assert_close(&b, &[1.0, 2.0, 3.0, 4.0], 1e-12);
        let mut c = vec![4.0, 3.0, 2.0, 1.0];
        lu.btran(&mut c, &mut Vec::new());
        assert_close(&c, &[4.0, 3.0, 2.0, 1.0], 1e-12);
    }

    #[test]
    fn dense_3x3_solves() {
        // B = [[2,1,0],[1,3,1],[0,1,4]] by columns.
        let cols = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(0, 1.0), (1, 3.0), (2, 1.0)],
            vec![(1, 1.0), (2, 4.0)],
        ];
        let (lu, rep) = factor(&cols);
        assert!(rep.replaced.is_empty());
        let rhs = vec![1.0, -2.0, 3.5];
        let mut x = rhs.clone();
        lu.ftran(&mut x, &mut Vec::new());
        assert_close(&mat_vec(&cols, &x), &rhs, 1e-10);

        let c = vec![0.5, 1.5, -1.0];
        let mut y = c.clone();
        lu.btran(&mut y, &mut Vec::new());
        assert_close(&mat_t_vec(&cols, &y), &c, 1e-10);
    }

    #[test]
    fn permuted_identity_needs_pivoting() {
        // Columns are e2, e0, e1 — requires row permutation.
        let cols = vec![vec![(2, 1.0)], vec![(0, 1.0)], vec![(1, 1.0)]];
        let (lu, _) = factor(&cols);
        let rhs = vec![7.0, 8.0, 9.0];
        let mut x = rhs.clone();
        lu.ftran(&mut x, &mut Vec::new());
        assert_close(&mat_vec(&cols, &x), &rhs, 1e-12);
    }

    #[test]
    fn singular_column_is_replaced() {
        // Third column is a copy of the first: dependent.
        let cols = vec![
            vec![(0, 1.0), (1, 1.0)],
            vec![(1, 1.0)],
            vec![(0, 1.0), (1, 1.0)],
        ];
        let (lu, rep) = factor(&cols);
        assert_eq!(rep.replaced.len(), 1);
        // After replacement the factors must still be a nonsingular operator:
        // solve with the patched basis (column 2 became logical e_r).
        let (k, r) = rep.replaced[0];
        let mut patched = cols.clone();
        patched[k] = vec![(r as u32, 1.0)];
        let rhs = vec![1.0, 2.0, 3.0];
        let mut x = rhs.clone();
        lu.ftran(&mut x, &mut Vec::new());
        assert_close(&mat_vec(&patched, &x), &rhs, 1e-10);
    }

    #[test]
    fn eta_update_matches_refactorization() {
        let cols = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(0, 1.0), (1, 3.0), (2, 1.0)],
            vec![(1, 1.0), (2, 4.0)],
        ];
        let (mut lu, _) = factor(&cols);
        // Replace basis position 1 with new column a = [1, 0, 2].
        let newcol = vec![(0u32, 1.0), (2u32, 2.0)];
        let mut d = vec![0.0; 3];
        for &(r, v) in &newcol {
            d[r as usize] = v;
        }
        lu.ftran(&mut d, &mut Vec::new());
        assert!(lu.push_eta(1, &d));

        let mut updated = cols.clone();
        updated[1] = newcol;
        let rhs = vec![0.3, -1.2, 2.2];
        let mut x = rhs.clone();
        lu.ftran(&mut x, &mut Vec::new());
        assert_close(&mat_vec(&updated, &x), &rhs, 1e-9);

        let c = vec![1.0, 2.0, 3.0];
        let mut y = c.clone();
        lu.btran(&mut y, &mut Vec::new());
        assert_close(&mat_t_vec(&updated, &y), &c, 1e-9);
    }

    #[test]
    fn random_dense_matrices_round_trip() {
        // Deterministic pseudo-random matrices; verify FTRAN/BTRAN against
        // the definition.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 4.0 - 2.0
        };
        for m in [1usize, 2, 5, 12, 30] {
            let cols: Vec<Vec<(u32, f64)>> = (0..m)
                .map(|_| {
                    (0..m)
                        .filter_map(|r| {
                            let v = next();
                            // ~60% sparsity
                            if v.abs() < 0.8 {
                                None
                            } else {
                                Some((r as u32, v))
                            }
                        })
                        .collect()
                })
                .collect();
            let (lu, rep) = factor(&cols);
            let mut patched = cols.clone();
            for &(k, r) in &rep.replaced {
                patched[k] = vec![(r as u32, 1.0)];
            }
            let rhs: Vec<f64> = (0..m).map(|_| next()).collect();
            let mut x = rhs.clone();
            lu.ftran(&mut x, &mut Vec::new());
            assert_close(&mat_vec(&patched, &x), &rhs, 1e-7);
            let mut y = rhs.clone();
            lu.btran(&mut y, &mut Vec::new());
            assert_close(&mat_t_vec(&patched, &y), &rhs, 1e-7);
        }
    }
}
