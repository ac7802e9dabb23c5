//! Sparse LU factorization of the simplex basis, with product-form updates.
//!
//! The basis matrix `B` (one column per basic variable) is factorized with a
//! left-looking sparse LU (Gilbert–Peierls style) using partial pivoting by
//! magnitude. Basis changes between refactorizations are absorbed as
//! product-form eta matrices: `B_new = B * E_1 * ... * E_k`.
//!
//! The factors are flat: the columns of L, the columns of U and the eta file
//! each live in one index vector and one value vector, with start offsets.
//! One [`LuFactors`] is refilled in place: [`LuFactors::factorize`]
//! overwrites the previous factors and etas, and keeps its vectors and its
//! elimination scratch (work vector, nonzero pattern, row-to-position map,
//! worklist) from call to call. Once they have grown to the basis, a
//! refactorization or an eta allocates nothing. A build reads each basis
//! column as borrowed slices ([`BasisColumn`]), so nothing is copied in.
//!
//! Terminology: FTRAN solves `B x = b`, BTRAN solves `Bᵀ y = c`. FTRAN input
//! is indexed by row, output by basis position; BTRAN is the reverse.

const NONE: u32 = u32::MAX;

/// One basis column, as [`LuFactors::factorize`] reads it.
#[derive(Debug, Clone, Copy)]
pub enum BasisColumn<'a> {
    /// The row indices and values of a sparse column, such as one column
    /// of a CSC matrix.
    Sparse(&'a [u32], &'a [f64]),
    /// The unit column of a row: a logical variable.
    Unit(u32),
}

/// Sparse columns stored back to back: column `k` holds the indices
/// `idx[start[k]..start[k + 1]]` and the matching entries of `val`. The
/// column being written is open until [`close`](Self::close).
#[derive(Debug, Clone)]
struct FlatColumns {
    start: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl Default for FlatColumns {
    fn default() -> Self {
        FlatColumns {
            start: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
        }
    }
}

impl FlatColumns {
    /// Drops every column and keeps the capacity.
    fn clear(&mut self) {
        self.start.truncate(1);
        self.idx.clear();
        self.val.clear();
    }

    /// Appends an entry to the open column.
    fn push(&mut self, i: u32, v: f64) {
        self.idx.push(i);
        self.val.push(v);
    }

    /// Drops the entries of the open column.
    fn discard_open(&mut self) {
        let open = self.start[self.start.len() - 1];
        self.idx.truncate(open);
        self.val.truncate(open);
    }

    /// Closes the open column; later entries go to the next one.
    fn close(&mut self) {
        self.start.push(self.idx.len());
    }

    /// Column `k` as index and value slices.
    fn column(&self, k: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.start[k], self.start[k + 1]);
        (&self.idx[lo..hi], &self.val[lo..hi])
    }
}

/// Scratch of a build, kept so that a refactorization allocates nothing.
/// No value carries over: a build resets every vector before it reads it.
#[derive(Debug, Clone, Default)]
struct BuildScratch {
    /// Row -> elimination position, `NONE` while the row is unpivoted.
    pos_of_row: Vec<u32>,
    /// Dense work vector of the column being eliminated, and the rows it
    /// touched (a row can be listed twice).
    work: Vec<f64>,
    pattern: Vec<u32>,
    /// Worklist of the lower solve: one bit per elimination position.
    marks: Vec<u64>,
    /// Positions whose columns came out dependent, and the rows left
    /// unpivoted for their repair.
    defective: Vec<usize>,
    free_rows: Vec<usize>,
}

/// LU factors of a basis plus the eta file accumulated since the last
/// refactorization.
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    m: usize,
    /// L column k: `(row, multiplier)` entries below the pivot, row-indexed.
    l: FlatColumns,
    /// U column k: `(position j, value)` entries with `j < k`.
    u: FlatColumns,
    u_diag: Vec<f64>,
    /// position -> original row pivoted at that elimination step.
    pivot_row: Vec<u32>,
    /// Eta file, oldest first. Eta `e` replaced the basis column at
    /// `eta_pos[e]` by a column whose FTRAN representation had
    /// `eta_pivot[e]` at that position and column `e` of `etas` elsewhere.
    eta_pos: Vec<u32>,
    eta_pivot: Vec<f64>,
    etas: FlatColumns,
    /// `(position, row)` of every column the last build replaced.
    replaced: Vec<(usize, usize)>,
    scratch: BuildScratch,
}

impl LuFactors {
    /// Refactorizes in place: the factors become an LU of the `m`-column
    /// basis whose column at position `k` is `column(k)`, and the eta file
    /// is emptied. Numerically dependent columns are replaced by logical
    /// columns; [`replaced`](Self::replaced) lists them.
    pub fn factorize<'c>(&mut self, m: usize, mut column: impl FnMut(usize) -> BasisColumn<'c>) {
        let LuFactors {
            m: dim,
            l,
            u,
            u_diag,
            pivot_row,
            eta_pos,
            eta_pivot,
            etas,
            replaced,
            scratch,
        } = self;
        let BuildScratch {
            pos_of_row,
            work,
            pattern,
            marks,
            defective,
            free_rows,
        } = scratch;
        *dim = m;
        l.clear();
        u.clear();
        u_diag.clear();
        u_diag.resize(m, 0.0);
        pivot_row.clear();
        pivot_row.resize(m, NONE);
        eta_pos.clear();
        eta_pivot.clear();
        etas.clear();
        replaced.clear();
        pos_of_row.clear();
        pos_of_row.resize(m, NONE);
        work.clear();
        work.resize(m, 0.0);
        marks.clear();
        marks.resize(m.div_ceil(64), 0);
        defective.clear();

        for k in 0..m {
            // Scatter column k.
            pattern.clear();
            match column(k) {
                BasisColumn::Sparse(rows, values) => {
                    for (&r, &v) in rows.iter().zip(values) {
                        if v != 0.0 {
                            work[r as usize] = v;
                            pattern.push(r);
                        }
                    }
                }
                BasisColumn::Unit(r) => {
                    work[r as usize] = 1.0;
                    pattern.push(r);
                }
            }
            // Lower solve in position order: apply every earlier pivot
            // whose row carries a nonzero. The rows of L column j were
            // unpivoted at step j, so the pivots they reach sit above j,
            // and one upward scan over the marked positions visits them in
            // increasing order.
            for &r in pattern.iter() {
                let p = pos_of_row[r as usize];
                if p != NONE {
                    marks[p as usize / 64] |= 1 << (p % 64);
                }
            }
            let mut word = 0;
            while word < marks.len() {
                let bits = marks[word];
                if bits == 0 {
                    word += 1;
                    continue;
                }
                marks[word] = bits & (bits - 1);
                let j = word * 64 + bits.trailing_zeros() as usize;
                let pr = pivot_row[j] as usize;
                let xj = work[pr];
                if xj == 0.0 {
                    continue;
                }
                u.push(j as u32, xj);
                work[pr] = 0.0;
                let (rows, mults) = l.column(j);
                for (&r, &lv) in rows.iter().zip(mults) {
                    let ru = r as usize;
                    if work[ru] == 0.0 {
                        pattern.push(r);
                    }
                    work[ru] -= lv * xj;
                    let p = pos_of_row[ru];
                    if p != NONE && work[ru] != 0.0 {
                        marks[p as usize / 64] |= 1 << (p % 64);
                    }
                }
            }
            // Pivot: largest remaining entry in an unpivoted row.
            let mut best_row = NONE;
            let mut best_abs = 1e-10;
            for &r in pattern.iter() {
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
                u.discard_open();
                u.close();
                l.close();
                for &r in pattern.iter() {
                    work[r as usize] = 0.0;
                }
                continue;
            }
            u.close();
            let piv_row = best_row as usize;
            let piv = work[piv_row];
            u_diag[k] = piv;
            pivot_row[k] = best_row;
            pos_of_row[piv_row] = k as u32;
            for &r in pattern.iter() {
                let ru = r as usize;
                let v = work[ru];
                work[ru] = 0.0;
                if ru != piv_row && v != 0.0 && pos_of_row[ru] == NONE {
                    l.push(r, v / piv);
                }
            }
            l.close();
        }

        // Repair defective columns: assign each one a leftover row as a
        // logical (identity) column, the highest free row first.
        if !defective.is_empty() {
            free_rows.clear();
            free_rows.extend((0..m).filter(|&r| pos_of_row[r] == NONE));
            for &k in defective.iter() {
                // audit-allow(no-panic): counting argument — every defective column
                // leaves exactly one row unassigned, so `free_rows` has one entry
                // per iteration.
                let r = free_rows.pop().expect("one free row per defective column");
                pivot_row[k] = r as u32;
                u_diag[k] = 1.0;
                replaced.push((k, r));
            }
        }
    }

    /// Basis positions whose columns the last build found numerically
    /// dependent and replaced by the logical column of the paired row.
    pub fn replaced(&self) -> &[(usize, usize)] {
        &self.replaced
    }

    pub fn num_etas(&self) -> usize {
        self.eta_pos.len()
    }

    /// Records a basis change: position `pos` is replaced by a column whose
    /// FTRAN representation is the dense vector `direction` (position space).
    /// Returns false if the pivot element is numerically unusable.
    pub fn push_eta(&mut self, pos: usize, direction: &[f64]) -> bool {
        let pivot = direction[pos];
        if pivot.abs() < 1e-9 {
            return false;
        }
        for (i, &v) in direction.iter().enumerate() {
            if i != pos && v != 0.0 {
                self.etas.push(i as u32, v);
            }
        }
        self.etas.close();
        self.eta_pos.push(pos as u32);
        self.eta_pivot.push(pivot);
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
                let (rows, mults) = self.l.column(k);
                for (&r, &l) in rows.iter().zip(mults) {
                    b[r as usize] -= l * v;
                }
            }
        }
        // Backward with U (column oriented).
        for k in (0..self.m).rev() {
            let z = y[k] / self.u_diag[k];
            y[k] = z;
            if z != 0.0 {
                let (positions, values) = self.u.column(k);
                for (&j, &u) in positions.iter().zip(values) {
                    y[j as usize] -= u * z;
                }
            }
        }
        // Product-form etas, oldest first.
        for (e, (&pos, &pivot)) in self.eta_pos.iter().zip(&self.eta_pivot).enumerate() {
            let pos = pos as usize;
            let xp = y[pos] / pivot;
            y[pos] = xp;
            if xp != 0.0 {
                let (positions, values) = self.etas.column(e);
                for (&i, &d) in positions.iter().zip(values) {
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
        for (e, (&pos, &pivot)) in self.eta_pos.iter().zip(&self.eta_pivot).enumerate().rev() {
            let mut dot = 0.0;
            let (positions, values) = self.etas.column(e);
            for (&i, &d) in positions.iter().zip(values) {
                dot += d * c[i as usize];
            }
            let pos = pos as usize;
            c[pos] = (c[pos] - dot) / pivot;
        }
        // Solve Uᵀ w = c (forward in position space, in place: step k reads
        // only c[k] and the already solved w[j], j < k).
        for k in 0..self.m {
            let mut acc = c[k];
            let (positions, values) = self.u.column(k);
            for (&j, &u) in positions.iter().zip(values) {
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
            let (rows, mults) = self.l.column(k);
            for (&r, &l) in rows.iter().zip(mults) {
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

    /// Refactorizes `lu` in place from `(row, value)` column lists.
    fn refactor(lu: &mut LuFactors, cols: &[Vec<(u32, f64)>]) {
        let split: Vec<(Vec<u32>, Vec<f64>)> =
            cols.iter().map(|c| c.iter().copied().unzip()).collect();
        lu.factorize(cols.len(), |k| {
            BasisColumn::Sparse(&split[k].0, &split[k].1)
        });
    }

    fn factor(cols: &[Vec<(u32, f64)>]) -> LuFactors {
        let mut lu = LuFactors::default();
        refactor(&mut lu, cols);
        lu
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn identity_ftran_btran() {
        let cols: Vec<Vec<(u32, f64)>> = (0..4).map(|k| vec![(k as u32, 1.0)]).collect();
        let lu = factor(&cols);
        assert!(lu.replaced().is_empty());
        let mut b = vec![1.0, 2.0, 3.0, 4.0];
        lu.ftran(&mut b, &mut Vec::new());
        assert_close(&b, &[1.0, 2.0, 3.0, 4.0], 1e-12);
        let mut c = vec![4.0, 3.0, 2.0, 1.0];
        lu.btran(&mut c, &mut Vec::new());
        assert_close(&c, &[4.0, 3.0, 2.0, 1.0], 1e-12);
    }

    #[test]
    fn unit_columns_factor_like_explicit_ones() {
        let cols: Vec<Vec<(u32, f64)>> =
            vec![vec![(2, 1.0)], vec![(0, 1.0), (1, 2.0)], vec![(1, 1.0)]];
        let explicit = factor(&cols);
        let (rows, values) = (vec![0u32, 1], vec![1.0, 2.0]);
        let mut units = LuFactors::default();
        units.factorize(3, |k| match k {
            1 => BasisColumn::Sparse(&rows, &values),
            0 => BasisColumn::Unit(2),
            _ => BasisColumn::Unit(1),
        });
        let mut a = vec![0.5, -1.0, 3.0];
        let mut b = a.clone();
        explicit.ftran(&mut a, &mut Vec::new());
        units.ftran(&mut b, &mut Vec::new());
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn dense_3x3_solves() {
        // B = [[2,1,0],[1,3,1],[0,1,4]] by columns.
        let cols = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(0, 1.0), (1, 3.0), (2, 1.0)],
            vec![(1, 1.0), (2, 4.0)],
        ];
        let lu = factor(&cols);
        assert!(lu.replaced().is_empty());
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
        let lu = factor(&cols);
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
        let lu = factor(&cols);
        assert_eq!(lu.replaced().len(), 1);
        // After replacement the factors must still be a nonsingular operator:
        // solve with the patched basis (column 2 became logical e_r).
        let (k, r) = lu.replaced()[0];
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
        let mut lu = factor(&cols);
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
        // the definition. Every matrix is also refactorized into one reused
        // `LuFactors` that still holds the previous matrix's factors plus an
        // eta: its solves must equal a fresh factorization's bit for bit.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 4.0 - 2.0
        };
        let mut reused = LuFactors::default();
        let mut replaced = 0;
        for (case, m) in [1usize, 2, 5, 12, 30, 12, 5, 2].into_iter().enumerate() {
            let mut cols: Vec<Vec<(u32, f64)>> = (0..m)
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
            // Every other matrix repeats its first column, so some builds
            // replace dependent columns.
            if case % 2 == 1 {
                cols[m - 1] = cols[0].clone();
            }
            let lu = factor(&cols);
            replaced += lu.replaced().len();
            let mut patched = cols.clone();
            for &(k, r) in lu.replaced() {
                patched[k] = vec![(r as u32, 1.0)];
            }
            let rhs: Vec<f64> = (0..m).map(|_| next()).collect();
            let mut x = rhs.clone();
            lu.ftran(&mut x, &mut Vec::new());
            assert_close(&mat_vec(&patched, &x), &rhs, 1e-7);
            let mut y = rhs.clone();
            lu.btran(&mut y, &mut Vec::new());
            assert_close(&mat_t_vec(&patched, &y), &rhs, 1e-7);

            refactor(&mut reused, &cols);
            assert_eq!(reused.replaced(), lu.replaced(), "case {case}");
            assert_eq!(reused.num_etas(), 0);
            let mut xr = rhs.clone();
            reused.ftran(&mut xr, &mut Vec::new());
            assert_eq!(bits(&xr), bits(&x), "case {case}: FTRAN");
            let mut yr = rhs.clone();
            reused.btran(&mut yr, &mut Vec::new());
            assert_eq!(bits(&yr), bits(&y), "case {case}: BTRAN");
            // Leave an eta behind for the next refactorization to drop.
            let pos = (0..m)
                .max_by(|&a, &b| x[a].abs().total_cmp(&x[b].abs()))
                .unwrap_or(0);
            assert!(reused.push_eta(pos, &x), "case {case}: eta pivot");
        }
        assert!(replaced >= 3, "{replaced} dependent columns replaced");
    }
}
