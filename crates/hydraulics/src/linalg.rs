//! Linear algebra for the GGA inner solve.
//!
//! The GGA normal matrix is symmetric positive definite (an M-matrix built
//! from link conductances plus emitter derivatives) with one row per
//! junction and one off-diagonal pair per junction–junction link. Like
//! EPANET, the solver orders it once per network by minimum degree and
//! solves every Newton step with a sparse LLᵀ factorization:
//!
//! * [`SparseSym`] — the matrix in compressed-sparse-row form; its pattern
//!   is built once per network and its values are rewritten in place each
//!   iteration;
//! * [`SparseCholesky`] — the ordering, L's elimination pattern and the
//!   CSR→L scatter map, analyzed once per pattern; then per iteration a
//!   numeric refactorization and two triangular solves;
//! * [`DenseSpd`] — a dense Cholesky, kept as the reference oracle the
//!   sparse factor is tested against.

use std::collections::BTreeSet;

/// A dense symmetric positive definite matrix with a Cholesky solver.
#[derive(Debug, Clone)]
pub struct DenseSpd {
    n: usize,
    /// Row-major storage of the full matrix.
    a: Vec<f64>,
}

impl DenseSpd {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DenseSpd {
            n,
            a: vec![0.0; n * n],
        }
    }

    /// Adds `value` to entry `(i, j)` and, if `i != j`, to `(j, i)`.
    pub fn add_sym(&mut self, i: usize, j: usize, value: f64) {
        self.a[i * self.n + j] += value;
        if i != j {
            self.a[j * self.n + i] += value;
        }
    }

    /// Entry accessor (for tests).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Solves `A x = b` by Cholesky factorization. Returns `None` if the
    /// matrix is not positive definite.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        // Lower-triangular factor L with A = L Lᵀ.
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.a[i * n + j];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        // Forward substitution L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i * n + k] * y[k];
            }
            y[i] = sum / l[i * n + i];
        }
        // Back substitution Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= l[k * n + i] * x[k];
            }
            x[i] = sum / l[i * n + i];
        }
        Some(x)
    }
}

/// A sparse symmetric matrix stored in CSR form (full pattern, both
/// triangles).
#[derive(Debug, Clone)]
pub struct SparseSym {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseSym {
    /// Builds the *symbolic* CSR structure for a symmetric matrix with the
    /// given off-diagonal coupling pairs, with every diagonal entry present
    /// and all values zero. Duplicate and mirrored pairs collapse to one
    /// slot. This is the once-per-network half of workspace assembly: the
    /// numeric half writes values through [`SparseSym::slot_of`] indices
    /// with no per-solve sorting or allocation.
    pub fn symbolic(n: usize, pairs: &[(usize, usize)]) -> SparseSym {
        let mut cols: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for &(i, j) in pairs {
            debug_assert!(i < n && j < n, "pair ({i}, {j}) out of bounds for n={n}");
            if i != j {
                cols[i].push(j);
                cols[j].push(i);
            }
        }
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::new();
        for (i, row) in cols.iter_mut().enumerate() {
            row.sort_unstable();
            row.dedup();
            col_idx.extend_from_slice(row);
            row_ptr[i + 1] = col_idx.len();
        }
        let values = vec![0.0; col_idx.len()];
        SparseSym {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The value-array index of entry `(i, j)`, if present in the pattern
    /// (binary search within the row).
    pub fn slot_of(&self, i: usize, j: usize) -> Option<usize> {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col_idx[lo..hi]
            .binary_search(&j)
            .ok()
            .map(|off| lo + off)
    }

    /// Zeros every stored value, keeping the symbolic structure.
    pub fn reset_values(&mut self) {
        self.values.fill(0.0);
    }

    /// Adds `v` at a slot previously obtained from [`SparseSym::slot_of`].
    #[inline]
    pub fn add_at(&mut self, slot: usize, v: f64) {
        self.values[slot] += v;
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Dense entry lookup (for tests; `O(row nnz)`).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.slot_of(i, j).map_or(0.0, |s| self.values[s])
    }
}

/// Sparse LLᵀ factorization of a [`SparseSym`] pattern, EPANET-style:
/// [`SparseCholesky::analyze`] orders the rows by minimum degree and lays
/// out L once; [`SparseCholesky::factor`] then refactors any values on that
/// pattern and [`SparseCholesky::solve_into`] runs the two triangular
/// solves, all without allocating.
///
/// L is stored by columns in elimination order: column `k` holds its
/// diagonal first, then its strictly-lower entries by ascending row.
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    /// `perm[k]` is the matrix row eliminated `k`-th.
    perm: Vec<usize>,
    /// Column `k` of L occupies `col_ptr[k]..col_ptr[k + 1]`.
    col_ptr: Vec<usize>,
    /// Row (in elimination order) of each stored entry of L.
    row_idx: Vec<usize>,
    /// Values of L after [`SparseCholesky::factor`].
    values: Vec<f64>,
    /// Row `j` of L left of the diagonal, as `(slot of L(j, k), end of
    /// column k)` for ascending `k`; spans `row_ptr[j]..row_ptr[j + 1]`.
    row_ptr: Vec<usize>,
    row_entries: Vec<(usize, usize)>,
    /// `(CSR slot, L slot)` for every entry on or below L's diagonal.
    scatter: Vec<(usize, usize)>,
    /// Dense work vector, indexed by elimination order.
    work: Vec<f64>,
}

impl SparseCholesky {
    /// Orders `a`'s pattern by minimum degree (ties go to the lowest row),
    /// computes L's elimination pattern and maps every CSR slot on or
    /// below L's diagonal to its L slot. Only the pattern of `a` is read.
    pub fn analyze(a: &SparseSym) -> SparseCholesky {
        let n = a.n;
        // Minimum-degree elimination on the explicit elimination graph:
        // eliminating a row joins all its remaining neighbors pairwise, and
        // those neighbors are exactly its column of L.
        let mut adj: Vec<BTreeSet<usize>> = (0..n)
            .map(|i| {
                a.col_idx[a.row_ptr[i]..a.row_ptr[i + 1]]
                    .iter()
                    .copied()
                    .filter(|&j| j != i)
                    .collect()
            })
            .collect();
        let mut queue: BTreeSet<(usize, usize)> =
            adj.iter().enumerate().map(|(i, s)| (s.len(), i)).collect();
        let mut perm = Vec::with_capacity(n);
        let mut columns: Vec<BTreeSet<usize>> = Vec::with_capacity(n);
        while let Some((_, v)) = queue.pop_first() {
            let neighbors = std::mem::take(&mut adj[v]);
            for &u in &neighbors {
                queue.remove(&(adj[u].len(), u));
                adj[u].remove(&v);
                adj[u].extend(neighbors.iter().copied().filter(|&w| w != u));
                queue.insert((adj[u].len(), u));
            }
            perm.push(v);
            columns.push(neighbors);
        }
        let mut inv = vec![0usize; n];
        for (k, &row) in perm.iter().enumerate() {
            inv[row] = k;
        }

        let mut col_ptr = Vec::with_capacity(n + 1);
        col_ptr.push(0);
        let mut row_idx = Vec::new();
        for (k, rows) in columns.iter().enumerate() {
            let start = row_idx.len();
            row_idx.push(k);
            row_idx.extend(rows.iter().map(|&r| inv[r]));
            row_idx[start + 1..].sort_unstable();
            col_ptr.push(row_idx.len());
        }

        // Row structure, filled column by column so each row lists its
        // columns in ascending order.
        let mut rows: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for k in 0..n {
            for p in col_ptr[k] + 1..col_ptr[k + 1] {
                rows[row_idx[p]].push((p, col_ptr[k + 1]));
            }
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut row_entries = Vec::with_capacity(row_idx.len() - n);
        for row in &rows {
            row_entries.extend_from_slice(row);
            row_ptr.push(row_entries.len());
        }

        // CSR row `perm[k]` holds column k of the permuted matrix (the
        // pattern is symmetric and so are the values written into it).
        let mut slot_in_column = vec![0usize; n];
        let mut scatter = Vec::with_capacity(col_ptr[n]);
        for (k, &row) in perm.iter().enumerate() {
            for p in col_ptr[k]..col_ptr[k + 1] {
                slot_in_column[row_idx[p]] = p;
            }
            for slot in a.row_ptr[row]..a.row_ptr[row + 1] {
                let r = inv[a.col_idx[slot]];
                if r >= k {
                    scatter.push((slot, slot_in_column[r]));
                }
            }
        }

        SparseCholesky {
            perm,
            values: vec![0.0; row_idx.len()],
            col_ptr,
            row_idx,
            row_ptr,
            row_entries,
            scatter,
            work: vec![0.0; n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.perm.len()
    }

    /// The elimination order: entry `k` is the row eliminated `k`-th.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Number of strictly-lower nonzeros in L (original entries plus fill).
    pub fn factor_nnz(&self) -> usize {
        self.row_idx.len() - self.dim()
    }

    /// Refactors L from `a`'s current values (left-looking, one column at a
    /// time). Returns `false` on a non-positive or non-finite pivot, in
    /// which case L is unusable until the next successful call.
    ///
    /// `a` must have the pattern this factorization was analyzed from.
    pub fn factor(&mut self, a: &SparseSym) -> bool {
        debug_assert_eq!(a.n, self.dim(), "pattern was analyzed for another matrix");
        self.values.fill(0.0);
        for &(src, dst) in &self.scatter {
            self.values[dst] = a.values[src];
        }
        for j in 0..self.dim() {
            let (start, end) = (self.col_ptr[j], self.col_ptr[j + 1]);
            for p in start..end {
                self.work[self.row_idx[p]] = self.values[p];
            }
            // Subtract every earlier column k with L(j, k) ≠ 0 from rows
            // j.. of column j; the first term updates the diagonal.
            for &(p_jk, end_k) in &self.row_entries[self.row_ptr[j]..self.row_ptr[j + 1]] {
                let l_jk = self.values[p_jk];
                for p in p_jk..end_k {
                    self.work[self.row_idx[p]] -= self.values[p] * l_jk;
                }
            }
            let pivot = self.work[j];
            if pivot <= 0.0 || !pivot.is_finite() {
                return false;
            }
            let d = pivot.sqrt();
            self.values[start] = d;
            for p in start + 1..end {
                self.values[p] = self.work[self.row_idx[p]] / d;
            }
        }
        true
    }

    /// Solves `A x = b` with the factor from the last successful
    /// [`SparseCholesky::factor`]: `L y = P b`, then `Lᵀ z = y`, `x = Pᵀ z`.
    pub fn solve_into(&mut self, b: &[f64], x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        for (k, &row) in self.perm.iter().enumerate() {
            self.work[k] = b[row];
        }
        for j in 0..n {
            let (start, end) = (self.col_ptr[j], self.col_ptr[j + 1]);
            let y = self.work[j] / self.values[start];
            self.work[j] = y;
            for p in start + 1..end {
                self.work[self.row_idx[p]] -= self.values[p] * y;
            }
        }
        for j in (0..n).rev() {
            let (start, end) = (self.col_ptr[j], self.col_ptr[j + 1]);
            let mut sum = self.work[j];
            for p in start + 1..end {
                sum -= self.values[p] * self.work[self.row_idx[p]];
            }
            self.work[j] = sum / self.values[start];
        }
        for (k, &row) in self.perm.iter().enumerate() {
            x[row] = self.work[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_dense(n: usize) -> DenseSpd {
        // Tridiagonal SPD matrix: 2 on diagonal, -1 off (grounded chain).
        let mut m = DenseSpd::zeros(n);
        for i in 0..n {
            m.add_sym(i, i, 2.0);
            if i + 1 < n {
                m.add_sym(i, i + 1, -1.0);
            }
        }
        m
    }

    /// Writes a symmetric matrix given by `(i, j, value)` (diagonal and
    /// upper triangle) into a fresh pattern.
    fn sparse_from(n: usize, entries: &[(usize, usize, f64)]) -> SparseSym {
        let pairs: Vec<(usize, usize)> = entries.iter().map(|&(i, j, _)| (i, j)).collect();
        let mut m = SparseSym::symbolic(n, &pairs);
        for &(i, j, v) in entries {
            m.add_at(m.slot_of(i, j).unwrap(), v);
            if i != j {
                m.add_at(m.slot_of(j, i).unwrap(), v);
            }
        }
        m
    }

    fn sparse_solve(a: &SparseSym, b: &[f64]) -> Option<Vec<f64>> {
        let mut chol = SparseCholesky::analyze(a);
        let mut x = vec![0.0; a.dim()];
        chol.factor(a).then(|| {
            chol.solve_into(b, &mut x);
            x
        })
    }

    fn assert_matches_dense(n: usize, entries: &[(usize, usize, f64)], b: &[f64]) {
        let mut dense = DenseSpd::zeros(n);
        for &(i, j, v) in entries {
            dense.add_sym(i, j, v);
        }
        let expected = dense.solve(b).unwrap();
        let actual = sparse_solve(&sparse_from(n, entries), b).unwrap();
        for (a, e) in actual.iter().zip(&expected) {
            assert!((a - e).abs() < 1e-12, "{a} vs {e}");
        }
    }

    #[test]
    fn cholesky_solves_identity() {
        let mut m = DenseSpd::zeros(3);
        for i in 0..3 {
            m.add_sym(i, i, 1.0);
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn cholesky_solves_tridiagonal_exactly() {
        let n = 10;
        let m = laplacian_dense(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
        let mut b = vec![0.0; n];
        for (i, bi) in b.iter_mut().enumerate() {
            for (j, xt) in x_true.iter().enumerate() {
                *bi += m.get(i, j) * xt;
            }
        }
        let x = m.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut m = DenseSpd::zeros(2);
        m.add_sym(0, 0, 1.0);
        m.add_sym(1, 1, -1.0);
        assert!(m.solve(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn symbolic_pattern_merges_pairs_and_slots_resolve() {
        let n = 6;
        let mut pairs: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        // Mirrored and repeated pairs collapse to one slot each.
        pairs.push((1, 0));
        pairs.push((2, 3));
        let mut m = SparseSym::symbolic(n, &pairs);
        assert_eq!(m.nnz(), n + 2 * (n - 1));
        m.add_at(m.slot_of(0, 1).unwrap(), -1.0);
        m.add_at(m.slot_of(0, 1).unwrap(), -0.5);
        assert_eq!(m.get(0, 1), -1.5);
        assert_eq!(m.get(1, 0), 0.0);
        assert!(m.slot_of(0, 3).is_none());
        assert_eq!(m.get(0, 3), 0.0);
        m.reset_values();
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn sparse_cholesky_matches_dense_on_chain() {
        let n = 30;
        let mut entries: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 2.0)).collect();
        entries.extend((0..n - 1).map(|i| (i, i + 1, -1.0)));
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        assert_matches_dense(n, &entries, &b);
        // A chain eliminated end-first produces no fill.
        assert_eq!(
            SparseCholesky::analyze(&sparse_from(n, &entries)).factor_nnz(),
            n - 1
        );
    }

    #[test]
    fn minimum_degree_orders_a_star_leaves_first() {
        // Hub 0 joined to 5 leaves: eliminating the hub first would fill
        // the whole matrix, the leaves first fills nothing. Once one leaf
        // is left, hub and leaf tie at degree 1 and the lower row goes.
        let n = 6;
        let mut entries: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 6.0)).collect();
        entries.extend((1..n).map(|i| (0, i, -1.0)));
        let s = sparse_from(n, &entries);
        let chol = SparseCholesky::analyze(&s);
        assert_eq!(chol.permutation(), &[1, 2, 3, 4, 0, 5]);
        assert_eq!(chol.factor_nnz(), n - 1);
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert_matches_dense(n, &entries, &b);
    }

    #[test]
    fn fill_in_is_factored_exactly() {
        // A 4-cycle must create one fill entry whichever row goes first.
        let entries = [
            (0, 0, 4.0),
            (1, 1, 5.0),
            (2, 2, 6.0),
            (3, 3, 7.0),
            (0, 1, -1.0),
            (1, 2, -2.0),
            (2, 3, -1.5),
            (0, 3, -0.5),
        ];
        let s = sparse_from(4, &entries);
        assert_eq!(SparseCholesky::analyze(&s).factor_nnz(), 5);
        assert_matches_dense(4, &entries, &[1.0, -2.0, 3.0, 0.5]);
    }

    #[test]
    fn sparse_cholesky_rejects_indefinite_and_recovers() {
        let mut s = sparse_from(2, &[(0, 0, 1.0), (1, 1, -1.0)]);
        let mut chol = SparseCholesky::analyze(&s);
        assert!(!chol.factor(&s));
        // The same analysis refactors new values on the pattern.
        s.reset_values();
        s.add_at(s.slot_of(1, 1).unwrap(), 4.0);
        s.add_at(s.slot_of(0, 0).unwrap(), 1.0);
        assert!(chol.factor(&s));
        let mut x = [0.0; 2];
        chol.solve_into(&[1.0, 2.0], &mut x);
        assert_eq!(x, [1.0, 0.5]);
    }

    #[test]
    fn sparse_cholesky_rejects_nan() {
        let s = sparse_from(2, &[(0, 0, f64::NAN), (1, 1, 1.0)]);
        assert!(sparse_solve(&s, &[1.0, 1.0]).is_none());
    }
}
