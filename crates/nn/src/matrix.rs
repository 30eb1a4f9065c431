//! Dense row-major matrices — just the operations backprop needs.

use serde::{Deserialize, Serialize};
use simcore::SimRng;

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialisation, deterministic from `rng`.
    pub fn xavier(rows: usize, cols: usize, rng: &mut SimRng) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.range_f64(-bound, bound))
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Flat view of the elements (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `y = self · x` for a column vector `x` (len = cols).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yr = acc;
        }
        y
    }

    /// `y = selfᵀ · x` for a column vector `x` (len = rows).
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (c, a) in row.iter().enumerate() {
                y[c] += a * xr;
            }
        }
        y
    }

    /// Batched `matvec_t`: `out = X · self` for a row-major batch `x`
    /// of `rows` vectors (each `self.rows` long); `out` must hold
    /// `rows × self.cols` elements. Accumulation order per output
    /// element matches [`Matrix::matvec_t`] exactly (weight rows in
    /// ascending order), so results are bit-identical. A row-major
    /// `out_dim × in_dim` matrix is the column-major layout of its
    /// transpose, so this is `matmul_pretransposed` on the weights
    /// as stored: eight outputs per register tile, each reading its
    /// weight rows in ascending order.
    pub fn matmul_t_into(&self, x: &[f64], rows: usize, out: &mut [f64]) {
        assert_eq!(x.len(), rows * self.rows, "matmul_t_into input mismatch");
        assert_eq!(out.len(), rows * self.cols, "matmul_t_into output mismatch");
        matmul_pretransposed(&self.data, self.rows, self.cols, x, rows, out, |_, v| v);
    }

    /// Write this matrix column-major into `out` (`out[c * rows + r] =
    /// self[r][c]`) — the layout [`matmul_pretransposed`] consumes.
    pub(crate) fn transpose_into(&self, out: &mut Vec<f64>) {
        let (rows, cols) = (self.rows, self.cols);
        out.clear();
        out.resize(rows * cols, 0.0);
        for (r, w_row) in self.data.chunks_exact(cols).enumerate() {
            for (c, &w) in w_row.iter().enumerate() {
                out[c * rows + r] = w;
            }
        }
    }

    /// `self += k · (u ⊗ v)` — rank-one update used for weight
    /// gradients (`u` len = rows, `v` len = cols).
    pub fn add_outer(&mut self, u: &[f64], v: &[f64], k: f64) {
        assert_eq!(u.len(), self.rows);
        assert_eq!(v.len(), self.cols);
        for (r, &ur0) in u.iter().enumerate() {
            let ur = ur0 * k;
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (c, e) in row.iter_mut().enumerate() {
                *e += ur * v[c];
            }
        }
    }

    /// `self += Σ_r u_r ⊗ v_r` over a row-major batch: `u` holds `rows`
    /// vectors of length `self.rows`, `v` holds `rows` vectors of
    /// length `self.cols`. Each element adds its `rows` products in
    /// ascending `r`, the order of `rows` sequential
    /// [`Matrix::add_outer`] calls with `k = 1`, so the result is
    /// bit-identical to them. Four rows are folded into each pass over
    /// a matrix row, so it is loaded and stored once per four rows.
    pub fn add_outer_rows(&mut self, u: &[f64], v: &[f64], rows: usize) {
        assert_eq!(u.len(), rows * self.rows, "add_outer_rows u shape");
        assert_eq!(v.len(), rows * self.cols, "add_outer_rows v shape");
        let (out_dim, cols) = (self.rows, self.cols);
        for o in 0..out_dim {
            let g = &mut self.data[o * cols..(o + 1) * cols];
            let mut r = 0;
            while r + 4 <= rows {
                let (x0, rest) = v[r * cols..(r + 4) * cols].split_at(cols);
                let (x1, rest) = rest.split_at(cols);
                let (x2, x3) = rest.split_at(cols);
                let d = |k: usize| u[(r + k) * out_dim + o];
                let (d0, d1, d2, d3) = (d(0), d(1), d(2), d(3));
                for ((((e, b0), b1), b2), b3) in g.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
                    let mut acc = *e;
                    acc += d0 * b0;
                    acc += d1 * b1;
                    acc += d2 * b2;
                    acc += d3 * b3;
                    *e = acc;
                }
                r += 4;
            }
            for r in r..rows {
                let d = u[r * out_dim + o];
                for (e, x) in g.iter_mut().zip(&v[r * cols..(r + 1) * cols]) {
                    *e += d * x;
                }
            }
        }
    }

    /// `self += k · other` (same shape).
    pub fn add_scaled(&mut self, other: &Matrix, k: f64) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Set every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Batched `matvec` against a pre-transposed (column-major) weight
/// matrix `wt` (`in_dim × out_dim`, as written by
/// [`Matrix::transpose_into`]): `out[r][o] = epilogue(o, Σ_c
/// wt[c][o]·x[r][c])` for a row-major batch `x` of `rows` vectors.
/// Each output element accumulates its products in the exact
/// ascending-column order [`Matrix::matvec`] uses, so with an
/// identity epilogue results are bit-identical to per-sample calls
/// (an `act(z + bias)` epilogue likewise replays the per-sample
/// order, fused into the tile store instead of a second pass over
/// the batch). This is the fastest inference kernel: 8 outputs are
/// carried per pass in a register-resident accumulator tile, and the
/// column-major layout makes the weight reads contiguous, so the
/// inner loop vectorises — but it needs the transposed copy, which
/// callers should cache across calls (see `TransposedWeights` in
/// `mlp`).
pub(crate) fn matmul_pretransposed(
    wt: &[f64],
    in_dim: usize,
    out_dim: usize,
    x: &[f64],
    rows: usize,
    out: &mut [f64],
    mut epilogue: impl FnMut(usize, f64) -> f64,
) {
    assert_eq!(wt.len(), in_dim * out_dim, "transposed weight shape");
    assert_eq!(x.len(), rows * in_dim, "input batch shape");
    assert_eq!(out.len(), rows * out_dim, "output batch shape");
    for r in 0..rows {
        let xr = &x[r * in_dim..(r + 1) * in_dim];
        let out_row = &mut out[r * out_dim..(r + 1) * out_dim];
        let mut o = 0;
        while o + 8 <= out_dim {
            let mut acc = [0.0f64; 8];
            for (c, &xc) in xr.iter().enumerate() {
                let w = &wt[c * out_dim + o..c * out_dim + o + 8];
                for (a, &wv) in acc.iter_mut().zip(w) {
                    *a += wv * xc;
                }
            }
            for (j, &a) in acc.iter().enumerate() {
                out_row[o + j] = epilogue(o + j, a);
            }
            o += 8;
        }
        while o < out_dim {
            let mut a = 0.0;
            for (c, &xc) in xr.iter().enumerate() {
                a += wt[c * out_dim + o] * xc;
            }
            out_row[o] = epilogue(o, a);
            o += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_hand_computation() {
        // [1 2; 3 4; 5 6] · [1, 10] = [21, 43, 65]
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c + 1) as f64);
        assert_eq!(m.matvec(&[1.0, 10.0]), vec![21.0, 43.0, 65.0]);
    }

    #[test]
    fn matvec_t_matches_hand_computation() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c + 1) as f64);
        // Mᵀ · [1, 1, 1] = column sums = [9, 12]
        assert_eq!(m.matvec_t(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn add_outer_is_rank_one() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0, 5.0], 0.5);
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(1, 2), 5.0);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::from_fn(2, 2, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(2, 2, |_, _| 1.0);
        a.add_scaled(&b, 2.0);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(1, 1), 4.0);
    }

    #[test]
    fn matmul_t_into_matches_per_row_matvec_t() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c + 1) as f64);
        let x = [1.0, 1.0, 1.0, 0.5, -1.0, 2.0];
        let mut out = vec![0.0; 2 * 2];
        m.matmul_t_into(&x, 2, &mut out);
        assert_eq!(&out[..2], m.matvec_t(&x[..3]).as_slice());
        assert_eq!(&out[2..], m.matvec_t(&x[3..]).as_slice());
    }

    #[test]
    fn matmul_pretransposed_matches_per_row_matvec() {
        let mut rng = SimRng::new(31);
        // Width > 8 exercises both the 8-wide tile and the remainder.
        let m = Matrix::xavier(11, 5, &mut rng);
        let x: Vec<f64> = (0..3 * 5).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let mut wt = Vec::new();
        m.transpose_into(&mut wt);
        let mut out = vec![0.0; 3 * 11];
        matmul_pretransposed(&wt, 5, 11, &x, 3, &mut out, |_, v| v);
        for r in 0..3 {
            let reference = m.matvec(&x[r * 5..(r + 1) * 5]);
            assert_eq!(&out[r * 11..(r + 1) * 11], reference.as_slice());
        }
        // The epilogue is applied per element with its output index.
        let mut shifted = vec![0.0; 3 * 11];
        matmul_pretransposed(&wt, 5, 11, &x, 3, &mut shifted, |o, v| v + o as f64);
        for (i, (s, p)) in shifted.iter().zip(&out).enumerate() {
            assert_eq!(*s, p + (i % 11) as f64);
        }
    }

    #[test]
    fn xavier_is_bounded_and_deterministic() {
        let mut r1 = SimRng::new(5);
        let mut r2 = SimRng::new(5);
        let a = Matrix::xavier(10, 20, &mut r1);
        let b = Matrix::xavier(10, 20, &mut r2);
        assert_eq!(a, b);
        let bound = (6.0 / 30.0f64).sqrt();
        assert!(a.as_slice().iter().all(|v| v.abs() <= bound));
        // Not all equal (actually random).
        assert!(a.as_slice().iter().any(|v| *v != a.get(0, 0)));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dims() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }
}
