//! Flat, batch-major feature tensors and the reusable workspace that
//! makes batched inference allocation-free.
//!
//! A scheduling decision scores N candidate feature vectors with one
//! shared MLP. Doing that as N independent `forward` calls costs N ×
//! layers heap allocations and N separate weight-matrix walks; packing
//! the candidates into one row-major `FeatureBatch` lets the network
//! run GEMM-style loops over a [`Workspace`] whose buffers are reused
//! across calls, so the steady-state hot path never allocates.

use serde::{Deserialize, Serialize};

/// A row-major `rows × dim` batch of feature vectors in one flat
/// allocation. Row `r` is `data[r*dim .. (r+1)*dim]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureBatch {
    data: Vec<f64>,
    dim: usize,
    rows: usize,
}

impl FeatureBatch {
    /// Empty batch of `dim`-dimensional rows.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        FeatureBatch {
            data: Vec::new(),
            dim,
            rows: 0,
        }
    }

    /// Empty batch with room for `rows` rows pre-reserved.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        let mut b = Self::new(dim);
        b.data.reserve(rows * dim);
        b
    }

    /// Build from per-row slices (convenience for tests and porting
    /// `Vec<Vec<f64>>` call sites).
    pub fn from_rows(dim: usize, rows: &[Vec<f64>]) -> Self {
        let mut b = Self::with_capacity(dim, rows.len());
        for r in rows {
            b.push(r);
        }
        b
    }

    /// Remove all rows, keeping the allocation (for pooled reuse).
    pub fn clear(&mut self) {
        self.data.clear();
        self.rows = 0;
    }

    /// Append a zero-filled row and return it for in-place writing.
    pub fn push_row(&mut self) -> &mut [f64] {
        let start = self.data.len();
        self.data.resize(start + self.dim, 0.0);
        self.rows += 1;
        &mut self.data[start..]
    }

    /// Append a row, copying from a slice (must be `dim` long).
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row length must equal dim");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Drop the last `n` rows (rollback during speculative planning).
    pub fn truncate_rows(&mut self, rows: usize) {
        let rows = rows.min(self.rows);
        self.rows = rows;
        self.data.truncate(rows * self.dim);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// Row `r` as a mutable slice (in-place feature edits, e.g.
    /// masking dimensions before offline training).
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// The whole batch, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Iterate rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }
}

/// Reusable buffers for batched forward/backward passes. One
/// `Workspace` serves any network/batch size — buffers grow to the
/// high-water mark and are then reused, so steady-state batched
/// inference performs zero heap allocation.
///
/// Lifecycle contract: [`crate::Mlp::forward_batch_cached`] fills
/// `acts` (one buffer per layer, `rows × layer_width`) and
/// [`crate::Mlp::backprop_batch`] consumes them, reading the input
/// layer from the batch itself — so a backward pass must directly
/// follow the forward pass for the same batch on the same workspace.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Per-layer activated outputs, row-major (`acts[l]` is
    /// `rows × width(l)`).
    pub(crate) acts: Vec<Vec<f64>>,
    /// Rows of the last forward pass (shape check for backprop).
    pub(crate) rows: usize,
    /// δ buffer (current layer), row-major.
    pub(crate) delta: Vec<f64>,
    /// δ buffer (next layer down), swapped with `delta` per layer.
    pub(crate) delta_next: Vec<f64>,
}

impl Workspace {
    /// Fresh workspace (buffers grow lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure `acts` holds at least `layers` buffers.
    pub(crate) fn ensure_layers(&mut self, layers: usize) {
        if self.acts.len() < layers {
            self.acts.resize_with(layers, Vec::new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_rows() {
        let mut b = FeatureBatch::new(3);
        assert!(b.is_empty());
        b.push(&[1.0, 2.0, 3.0]);
        let r = b.push_row();
        r.copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.dim(), 3);
        assert_eq!(b.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(b.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = FeatureBatch::with_capacity(2, 4);
        b.push(&[1.0, 2.0]);
        b.push(&[3.0, 4.0]);
        let cap = b.data.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.data.capacity(), cap);
        b.push(&[5.0, 6.0]);
        assert_eq!(b.row(0), &[5.0, 6.0]);
    }

    #[test]
    fn truncate_rolls_back() {
        let mut b = FeatureBatch::from_rows(2, &[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        b.truncate_rows(1);
        assert_eq!(b.rows(), 1);
        assert_eq!(b.as_slice(), &[1.0, 2.0]);
        b.truncate_rows(5); // no-op past the end
        assert_eq!(b.rows(), 1);
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![0.1, 0.2], vec![0.3, 0.4]];
        let b = FeatureBatch::from_rows(2, &rows);
        let back: Vec<Vec<f64>> = b.iter_rows().map(|r| r.to_vec()).collect();
        assert_eq!(back, rows);
    }

    #[test]
    fn serde_round_trip() {
        let b = FeatureBatch::from_rows(2, &[vec![1.5, -2.5], vec![0.0, 3.25]]);
        let json = serde_json::to_string(&b).unwrap();
        let back: FeatureBatch = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn push_checks_dim() {
        FeatureBatch::new(3).push(&[1.0]);
    }
}
