//! Multi-layer perceptron with exact reverse-mode gradients.

use crate::batch::{FeatureBatch, Workspace};
use crate::matrix::{matmul_pretransposed, Matrix};
use serde::{Deserialize, Serialize};
use simcore::SimRng;

/// Cached column-major copies of an [`Mlp`]'s weight matrices, the
/// layout [`Mlp::forward_batch_cached`] consumes. Building the copy
/// costs one pass over the parameters, so holders cache it across
/// forward calls and re-derive it only after the weights change
/// (call [`TransposedWeights::invalidate`] on every mutation; the
/// cache starts invalid). Keeping the cache *outside* the network —
/// rather than as dual storage inside [`Mlp`] — leaves `Mlp`'s
/// serialization, equality and clone semantics untouched.
#[derive(Debug, Clone, Default)]
pub struct TransposedWeights {
    /// Layer `l`'s weights, column-major (`in_dim × out_dim`).
    layers: Vec<Vec<f64>>,
    valid: bool,
}

impl TransposedWeights {
    /// Empty (invalid) cache; filled by [`Mlp::refresh_transposed`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark stale — the next cached forward must refresh first.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// True when the cache holds a current transposed copy.
    pub fn is_valid(&self) -> bool {
        self.valid
    }
}

/// Hidden-layer activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// tanh(x)
    Tanh,
    /// x (used for the output layer — logits)
    Identity,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *activated* output `y`.
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

/// One dense layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Dense {
    w: Matrix, // out × in
    b: Vec<f64>,
    act: Activation,
}

/// Per-layer parameter gradients, shaped like the network.
#[derive(Debug, Clone)]
pub struct Gradients {
    dw: Vec<Matrix>,
    db: Vec<Vec<f64>>,
    /// Number of samples accumulated (for averaging).
    pub samples: usize,
}

impl Gradients {
    fn zeros_like(net: &Mlp) -> Self {
        Gradients {
            dw: net
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.w.rows(), l.w.cols()))
                .collect(),
            db: net.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            samples: 0,
        }
    }

    /// Reset to zero, keeping shapes.
    pub fn clear(&mut self) {
        for m in &mut self.dw {
            m.fill_zero();
        }
        for v in &mut self.db {
            v.iter_mut().for_each(|x| *x = 0.0);
        }
        self.samples = 0;
    }

    /// Global L2 norm of the gradient (for clipping).
    pub fn norm(&self) -> f64 {
        let mut acc = 0.0;
        for m in &self.dw {
            acc += m.as_slice().iter().map(|v| v * v).sum::<f64>();
        }
        for v in &self.db {
            acc += v.iter().map(|x| x * x).sum::<f64>();
        }
        acc.sqrt()
    }

    /// Scale all gradients by `k`.
    pub fn scale(&mut self, k: f64) {
        for m in &mut self.dw {
            for v in m.as_mut_slice() {
                *v *= k;
            }
        }
        for v in &mut self.db {
            v.iter_mut().for_each(|x| *x *= k);
        }
    }
}

/// A feed-forward network: dense layers with the configured hidden
/// activation and identity (logit) output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Build from layer sizes, e.g. `&[in, h1, h2, out]`. Hidden
    /// layers use `hidden_act`; the output layer is identity (logits).
    pub fn new(sizes: &[usize], hidden_act: Activation, rng: &mut SimRng) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Dense {
                w: Matrix::xavier(w[1], w[0], rng),
                b: vec![0.0; w[1]],
                act: if i + 2 == sizes.len() {
                    Activation::Identity
                } else {
                    hidden_act
                },
            })
            .collect();
        Mlp { layers }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map(|l| l.w.cols()).unwrap_or(0)
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map(|l| l.w.rows()).unwrap_or(0)
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Forward pass: returns the output logits.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut h = x.to_vec();
        for l in &self.layers {
            let mut z = l.w.matvec(&h);
            for (zi, bi) in z.iter_mut().zip(&l.b) {
                *zi = l.act.apply(*zi + bi);
            }
            h = z;
        }
        h
    }

    /// Forward pass retaining every layer's activated output (the
    /// input is `activations[0]`).
    fn forward_cached(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.to_vec());
        for l in &self.layers {
            let Some(prev) = acts.last() else {
                break; // non-empty by construction: pushed above
            };
            let mut z = l.w.matvec(prev);
            for (zi, bi) in z.iter_mut().zip(&l.b) {
                *zi = l.act.apply(*zi + bi);
            }
            acts.push(z);
        }
        acts
    }

    /// Fresh zero gradients shaped like this network.
    pub fn zero_grads(&self) -> Gradients {
        Gradients::zeros_like(self)
    }

    /// Rebuild `tw` as a column-major copy of this network's weights
    /// and mark it valid.
    pub fn refresh_transposed(&self, tw: &mut TransposedWeights) {
        tw.layers.resize_with(self.layers.len(), Vec::new);
        for (l, t) in self.layers.iter().zip(&mut tw.layers) {
            l.w.transpose_into(t);
        }
        tw.valid = true;
    }

    /// Batched forward pass over all rows of `batch`, reading weights
    /// from a cached transposed copy (see [`TransposedWeights`]) and
    /// caching every layer's activated output in `ws` (required by
    /// [`Mlp::backprop_batch`]). Returns the output logits, row-major
    /// (`rows × output_dim`), borrowed from the workspace.
    ///
    /// Each row's arithmetic replays [`Mlp::forward`] exactly (same
    /// dot-product accumulation order, same bias/activation fusion),
    /// so the logits are bit-identical to per-sample calls. The GEMM
    /// inner loop reads the transposed weights contiguously and
    /// vectorises, and the workspace makes the steady state
    /// allocation-free. Callers must keep `tw` in sync with the
    /// weights (refresh after any mutation); passing a stale or
    /// foreign cache panics on shape mismatch but silently computes
    /// with old weights otherwise — hence the `is_valid` discipline.
    pub fn forward_batch_cached<'w>(
        &self,
        batch: &FeatureBatch,
        ws: &'w mut Workspace,
        tw: &TransposedWeights,
    ) -> &'w [f64] {
        assert!(tw.valid, "transposed-weight cache is stale");
        assert_eq!(tw.layers.len(), self.layers.len(), "cache layer count");
        assert_eq!(batch.dim(), self.input_dim(), "batch dim mismatch");
        let rows = batch.rows();
        ws.ensure_layers(self.layers.len());
        ws.rows = rows;
        for (li, l) in self.layers.iter().enumerate() {
            let (done, rest) = ws.acts.split_at_mut(li);
            let input: &[f64] = if li == 0 {
                batch.as_slice()
            } else {
                &done[li - 1]
            };
            let out_dim = l.w.rows();
            let cur = &mut rest[0];
            cur.resize(rows * out_dim, 0.0);
            // Bias + activation fused into the kernel's tile store —
            // the same per-element `act(z + b)` as `forward`, with no
            // second pass over the activation buffer.
            matmul_pretransposed(
                &tw.layers[li],
                l.w.cols(),
                out_dim,
                input,
                rows,
                cur,
                |o, z| l.act.apply(z + l.b[o]),
            );
        }
        let n = self.layers.len();
        assert!(n > 0, "Mlp has no layers");
        &ws.acts[n - 1]
    }

    /// Batched backward pass: accumulate gradients for every row of
    /// `batch`, given `dloss_dout` (row-major `rows × output_dim`)
    /// w.r.t. the logits. Must directly follow a
    /// [`Mlp::forward_batch_cached`] for the same batch on the same
    /// workspace — the cached per-layer activations are consumed here.
    ///
    /// Per-element accumulation into `grads` happens in row order, the
    /// same order `rows` sequential [`Mlp::backprop`] calls would use,
    /// so the resulting gradients are bit-identical to the per-sample
    /// path: the weight gradient folds four rows into each pass over a
    /// gradient row ([`Matrix::add_outer_rows`]) and δ propagates
    /// through the forward pass's tile kernel, and neither changes the
    /// order of the additions into any element. `grads.samples` grows
    /// by `rows`.
    pub fn backprop_batch(
        &self,
        batch: &FeatureBatch,
        dloss_dout: &[f64],
        grads: &mut Gradients,
        ws: &mut Workspace,
    ) {
        let rows = batch.rows();
        assert_eq!(ws.rows, rows, "workspace holds a different batch");
        assert_eq!(dloss_dout.len(), rows * self.output_dim(), "dloss shape");
        if rows == 0 {
            return;
        }
        ws.delta.clear();
        ws.delta.extend_from_slice(dloss_dout);
        for (li, l) in self.layers.iter().enumerate().rev() {
            let out_dim = l.w.rows();
            let in_dim = l.w.cols();
            let out_acts = &ws.acts[li];
            // δ ← δ ⊙ act'(out), row by row.
            for (d, y) in ws.delta.iter_mut().zip(out_acts) {
                *d *= l.act.derivative_from_output(*y);
            }
            // dW += Σ_r δ_r ⊗ input_r and db += Σ_r δ_r, each element
            // summed in row order (the per-sample accumulation order).
            let input: &[f64] = if li == 0 {
                batch.as_slice()
            } else {
                &ws.acts[li - 1]
            };
            grads.dw[li].add_outer_rows(&ws.delta, input, rows);
            for r in 0..rows {
                let d_row = &ws.delta[r * out_dim..(r + 1) * out_dim];
                for (g, d) in grads.db[li].iter_mut().zip(d_row) {
                    *g += d;
                }
            }
            // Propagate: δ ← δ · W (= Wᵀδ per row).
            if li > 0 {
                ws.delta_next.resize(rows * in_dim, 0.0);
                l.w.matmul_t_into(&ws.delta, rows, &mut ws.delta_next);
                std::mem::swap(&mut ws.delta, &mut ws.delta_next);
            }
        }
        grads.samples += rows;
    }

    /// Accumulate gradients of a scalar loss whose gradient w.r.t. the
    /// output logits is `dloss_dout`, for input `x`. Returns the
    /// logits produced on the way (handy for loss logging).
    pub fn backprop(&self, x: &[f64], dloss_dout: &[f64], grads: &mut Gradients) -> Vec<f64> {
        assert_eq!(dloss_dout.len(), self.output_dim());
        let acts = self.forward_cached(x);
        let mut delta = dloss_dout.to_vec();
        // Walk layers in reverse.
        for (li, l) in self.layers.iter().enumerate().rev() {
            let out = &acts[li + 1];
            let input = &acts[li];
            // δ ← δ ⊙ act'(out)
            for (d, y) in delta.iter_mut().zip(out) {
                *d *= l.act.derivative_from_output(*y);
            }
            // dW += δ ⊗ input; db += δ
            grads.dw[li].add_outer(&delta, input, 1.0);
            for (g, d) in grads.db[li].iter_mut().zip(&delta) {
                *g += d;
            }
            // Propagate: δ ← Wᵀ δ
            if li > 0 {
                delta = l.w.matvec_t(&delta);
            }
        }
        grads.samples += 1;
        // Non-empty: forward_cached always pushes the input layer.
        acts.into_iter().last().unwrap_or_default()
    }

    /// Apply a parameter update: `θ += k · g` layer-wise (used by the
    /// optimizers; `k` is usually `−lr`).
    pub fn apply_update(&mut self, grads: &Gradients, k: f64) {
        for (l, (dw, db)) in self.layers.iter_mut().zip(grads.dw.iter().zip(&grads.db)) {
            l.w.add_scaled(dw, k);
            for (b, d) in l.b.iter_mut().zip(db) {
                *b += k * d;
            }
        }
    }

    /// Visit all parameters and matching gradients as flat slices —
    /// the optimizer hook. Order is stable (layer 0 weights, layer 0
    /// biases, layer 1 weights, …).
    pub fn visit_params_mut(&mut self, grads: &Gradients, mut f: impl FnMut(&mut [f64], &[f64])) {
        for (l, (dw, db)) in self.layers.iter_mut().zip(grads.dw.iter().zip(&grads.db)) {
            f(l.w.as_mut_slice(), dw.as_slice());
            f(&mut l.b, db);
        }
    }
}

/// [`Mlp::forward_batch_cached`] on a freshly built transpose cache.
#[cfg(test)]
fn forward_fresh<'w>(net: &Mlp, batch: &FeatureBatch, ws: &'w mut Workspace) -> &'w [f64] {
    let mut tw = TransposedWeights::new();
    net.refresh_transposed(&mut tw);
    net.forward_batch_cached(batch, ws, &tw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cross_entropy_grad, cross_entropy_loss, softmax};

    #[test]
    fn shapes_are_consistent() {
        let mut rng = SimRng::new(1);
        let net = Mlp::new(&[7, 16, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(net.input_dim(), 7);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(net.param_count(), 7 * 16 + 16 + 16 * 8 + 8 + 8 * 3 + 3);
        let y = net.forward(&[0.1; 7]);
        assert_eq!(y.len(), 3);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    /// Finite-difference gradient check — the canonical backprop test.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SimRng::new(42);
        let mut net = Mlp::new(&[4, 6, 3], Activation::Tanh, &mut rng);
        let x = [0.3, -0.7, 0.9, 0.1];
        let target = 1usize;

        let mut grads = net.zero_grads();
        net.backprop(
            &x,
            &cross_entropy_grad(&net.forward(&x), target),
            &mut grads,
        );

        let eps = 1e-6;
        let grads_snapshot = grads;
        // Flatten analytic gradients in visit order.
        let mut analytic: Vec<f64> = Vec::new();
        net.visit_params_mut(&grads_snapshot, |_, g| {
            analytic.extend_from_slice(g);
        });
        // Helper: add `delta` to the k-th parameter in visit order.
        let perturb = |net: &mut Mlp, k: usize, delta: f64| {
            let mut seen = 0usize;
            net.visit_params_mut(&grads_snapshot, |p, _| {
                for v in p.iter_mut() {
                    if seen == k {
                        *v += delta;
                    }
                    seen += 1;
                }
            });
        };
        let total = analytic.len();
        let mut checked = 0;
        for k in (0..total).step_by(3) {
            perturb(&mut net, k, eps);
            let plus = cross_entropy_loss(&net.forward(&x), target);
            perturb(&mut net, k, -2.0 * eps);
            let minus = cross_entropy_loss(&net.forward(&x), target);
            perturb(&mut net, k, eps);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - analytic[k]).abs() < 1e-4,
                "param {k}: numeric {numeric} vs analytic {}",
                analytic[k]
            );
            checked += 1;
        }
        assert!(checked >= 15, "only {checked} parameters checked");
    }

    /// End-to-end: a tiny MLP learns XOR with plain gradient descent.
    #[test]
    fn learns_xor() {
        let mut rng = SimRng::new(7);
        let mut net = Mlp::new(&[2, 8, 2], Activation::Tanh, &mut rng);
        let data: [([f64; 2], usize); 4] = [
            ([0.0, 0.0], 0),
            ([0.0, 1.0], 1),
            ([1.0, 0.0], 1),
            ([1.0, 1.0], 0),
        ];
        let mut grads = net.zero_grads();
        for _ in 0..2000 {
            grads.clear();
            for (x, t) in &data {
                let logits = net.forward(x);
                net.backprop(x, &cross_entropy_grad(&logits, *t), &mut grads);
            }
            net.apply_update(&grads, -0.5 / data.len() as f64);
        }
        for (x, t) in &data {
            let p = softmax(&net.forward(x));
            assert!(p[*t] > 0.9, "input {x:?}: p = {p:?}");
        }
    }

    #[test]
    fn gradient_norm_and_scale() {
        let mut rng = SimRng::new(3);
        let net = Mlp::new(&[2, 4, 2], Activation::Relu, &mut rng);
        let mut g = net.zero_grads();
        net.backprop(&[1.0, -1.0], &[1.0, -1.0], &mut g);
        let n = g.norm();
        assert!(n > 0.0);
        g.scale(0.5);
        assert!((g.norm() - n * 0.5).abs() < 1e-9);
        g.clear();
        assert_eq!(g.norm(), 0.0);
        assert_eq!(g.samples, 0);
    }

    #[test]
    fn forward_batch_cached_is_bit_identical_to_per_sample() {
        let mut rng = SimRng::new(9);
        let net = Mlp::new(&[5, 12, 7, 2], Activation::Relu, &mut rng);
        let mut batch = FeatureBatch::new(5);
        for i in 0..6 {
            let row: Vec<f64> = (0..5).map(|d| ((i * 5 + d) as f64).sin()).collect();
            batch.push(&row);
        }
        let mut ws = Workspace::new();
        let logits = forward_fresh(&net, &batch, &mut ws).to_vec();
        for r in 0..batch.rows() {
            let per_sample = net.forward(batch.row(r));
            // Same op order per row ⇒ exactly equal, not just close.
            assert_eq!(&logits[r * 2..(r + 1) * 2], per_sample.as_slice());
        }
    }

    #[test]
    fn backprop_batch_is_bit_identical_to_per_sample() {
        // Every row count 1–9 against widths 6, 9, 7, 3: each kernel's
        // four-row blocks and every remainder length run.
        let mut rng = SimRng::new(13);
        let net = Mlp::new(&[6, 9, 7, 3], Activation::Tanh, &mut rng);
        for rows in 1..=9 {
            let mut batch = FeatureBatch::new(6);
            let mut dloss = Vec::new();
            for i in 0..rows {
                let row: Vec<f64> = (0..6).map(|d| ((i * 6 + d) as f64 * 0.3).cos()).collect();
                batch.push(&row);
                dloss.extend((0..3).map(|d| ((i * 3 + d) as f64 * 0.7).sin()));
            }
            let mut g_batch = net.zero_grads();
            let mut ws = Workspace::new();
            forward_fresh(&net, &batch, &mut ws);
            net.backprop_batch(&batch, &dloss, &mut g_batch, &mut ws);
            let mut g_ref = net.zero_grads();
            for r in 0..batch.rows() {
                net.backprop(batch.row(r), &dloss[r * 3..(r + 1) * 3], &mut g_ref);
            }
            assert_eq!(g_batch.samples, g_ref.samples);
            for (a, b) in g_batch.dw.iter().zip(&g_ref.dw) {
                assert_eq!(a.as_slice(), b.as_slice(), "{rows} rows");
            }
            for (a, b) in g_batch.db.iter().zip(&g_ref.db) {
                assert_eq!(a, b, "{rows} rows");
            }
        }
    }

    #[test]
    fn forward_batch_cached_is_bit_identical_and_tracks_updates() {
        let mut rng = SimRng::new(27);
        let mut net = Mlp::new(&[5, 12, 7, 2], Activation::Relu, &mut rng);
        let mut batch = FeatureBatch::new(5);
        for i in 0..6 {
            let row: Vec<f64> = (0..5).map(|d| ((i * 5 + d) as f64).sin()).collect();
            batch.push(&row);
        }
        let mut ws = Workspace::new();
        let mut tw = TransposedWeights::new();
        assert!(!tw.is_valid());
        net.refresh_transposed(&mut tw);
        assert!(tw.is_valid());
        let per_sample = |net: &Mlp| -> Vec<f64> {
            batch.iter_rows().flat_map(|row| net.forward(row)).collect()
        };
        let cached = net.forward_batch_cached(&batch, &mut ws, &tw).to_vec();
        assert_eq!(cached, per_sample(&net));
        // After a weight update the refreshed cache must track it.
        let mut g = net.zero_grads();
        net.backprop(batch.row(0), &[0.3, -0.2], &mut g);
        net.apply_update(&g, -0.05);
        tw.invalidate();
        net.refresh_transposed(&mut tw);
        let cached2 = net.forward_batch_cached(&batch, &mut ws, &tw).to_vec();
        assert_eq!(cached2, per_sample(&net));
        assert_ne!(cached, cached2, "update must change the logits");
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn forward_batch_cached_rejects_stale_cache() {
        let mut rng = SimRng::new(28);
        let net = Mlp::new(&[2, 3, 1], Activation::Relu, &mut rng);
        let batch = FeatureBatch::from_rows(2, &[vec![0.1, 0.2]]);
        let mut ws = Workspace::new();
        net.forward_batch_cached(&batch, &mut ws, &TransposedWeights::new());
    }

    #[test]
    fn workspace_is_reusable_across_shapes() {
        let mut rng = SimRng::new(21);
        let small = Mlp::new(&[3, 4, 1], Activation::Relu, &mut rng);
        let big = Mlp::new(&[6, 16, 8, 2], Activation::Tanh, &mut rng);
        let mut ws = Workspace::new();
        let b1 = FeatureBatch::from_rows(3, &[vec![0.1, 0.2, 0.3]]);
        let b2 = FeatureBatch::from_rows(
            6,
            &(0..9).map(|i| vec![i as f64 * 0.1; 6]).collect::<Vec<_>>(),
        );
        let s1 = forward_fresh(&small, &b1, &mut ws).to_vec();
        let s2 = forward_fresh(&big, &b2, &mut ws).to_vec();
        let s1_again = forward_fresh(&small, &b1, &mut ws).to_vec();
        assert_eq!(s1, s1_again);
        assert_eq!(s2.len(), 9 * 2);
    }

    #[test]
    #[should_panic(expected = "different batch")]
    fn backprop_batch_requires_matching_forward() {
        let mut rng = SimRng::new(22);
        let net = Mlp::new(&[2, 3, 1], Activation::Relu, &mut rng);
        let b1 = FeatureBatch::from_rows(2, &[vec![0.1, 0.2], vec![0.3, 0.4]]);
        let b2 = FeatureBatch::from_rows(2, &[vec![0.5, 0.6]]);
        let mut ws = Workspace::new();
        forward_fresh(&net, &b1, &mut ws);
        let mut g = net.zero_grads();
        net.backprop_batch(&b2, &[1.0], &mut g, &mut ws);
    }

    #[test]
    fn serde_roundtrip_preserves_behaviour() {
        let mut rng = SimRng::new(11);
        let net = Mlp::new(&[3, 5, 2], Activation::Relu, &mut rng);
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = [0.2, 0.4, -0.6];
        assert_eq!(net.forward(&x), back.forward(&x));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{cross_entropy_grad, cross_entropy_loss};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Backprop matches central finite differences on randomly
        /// sized networks, activations, inputs and probed parameters.
        #[test]
        fn gradcheck_random_networks(
            seed in 0u64..10_000,
            hidden in 1usize..12,
            inputs in 2usize..6,
            outputs in 2usize..5,
            tanh in any::<bool>(),
            probe_frac in 0.0f64..1.0,
            target_frac in 0.0f64..1.0,
        ) {
            let mut rng = SimRng::new(seed);
            let act = if tanh { Activation::Tanh } else { Activation::Relu };
            let mut net = Mlp::new(&[inputs, hidden, outputs], act, &mut rng);
            let x: Vec<f64> = (0..inputs).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let target = ((target_frac * outputs as f64) as usize).min(outputs - 1);

            let mut grads = net.zero_grads();
            let logits = net.forward(&x);
            net.backprop(&x, &cross_entropy_grad(&logits, target), &mut grads);
            let mut analytic: Vec<f64> = Vec::new();
            net.visit_params_mut(&grads, |_, g| analytic.extend_from_slice(g));

            let k = ((probe_frac * analytic.len() as f64) as usize).min(analytic.len() - 1);
            let eps = 1e-6;
            let perturb = |net: &mut Mlp, delta: f64| {
                let mut seen = 0usize;
                let snapshot = net.zero_grads();
                net.visit_params_mut(&snapshot, |p, _| {
                    for v in p.iter_mut() {
                        if seen == k {
                            *v += delta;
                        }
                        seen += 1;
                    }
                });
            };
            perturb(&mut net, eps);
            let plus = cross_entropy_loss(&net.forward(&x), target);
            perturb(&mut net, -2.0 * eps);
            let minus = cross_entropy_loss(&net.forward(&x), target);
            let numeric = (plus - minus) / (2.0 * eps);
            // ReLU kinks can make single points non-differentiable;
            // tolerate a loose bound there and a tight one for tanh.
            let tol = if tanh { 1e-4 } else { 1e-3 };
            prop_assert!(
                (numeric - analytic[k]).abs() < tol,
                "param {k}: numeric {numeric} vs analytic {}",
                analytic[k]
            );
        }

        /// Batched forward matches per-sample forward bit for bit on
        /// random shapes, activations and batch sizes (the GEMM path
        /// may not change a single decision).
        #[test]
        fn forward_batch_cached_matches_per_sample(
            seed in 0u64..10_000,
            hidden in 1usize..16,
            inputs in 1usize..8,
            outputs in 1usize..5,
            rows in 1usize..9,
            tanh in any::<bool>(),
        ) {
            let mut rng = SimRng::new(seed);
            let act = if tanh { Activation::Tanh } else { Activation::Relu };
            let net = Mlp::new(&[inputs, hidden, outputs], act, &mut rng);
            let mut batch = FeatureBatch::new(inputs);
            for _ in 0..rows {
                let row: Vec<f64> = (0..inputs).map(|_| rng.range_f64(-2.0, 2.0)).collect();
                batch.push(&row);
            }
            let mut ws = Workspace::new();
            let logits = forward_fresh(&net, &batch, &mut ws).to_vec();
            for r in 0..rows {
                let reference = net.forward(batch.row(r));
                for (a, b) in logits[r * outputs..(r + 1) * outputs].iter().zip(&reference) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "row {r}: {a} vs {b}");
                }
            }
        }

        /// Batched backprop accumulates the same gradients, bit for
        /// bit, as N per-sample backprops. Row counts 1–9 and layer
        /// widths that are not multiples of 4 run both the four-row
        /// blocks and the remainder loops of the gradient and the
        /// propagation kernels.
        #[test]
        fn backprop_batch_matches_per_sample(
            seed in 0u64..10_000,
            inputs in 1usize..11,
            hidden1 in 1usize..14,
            hidden2 in 1usize..14,
            outputs in 1usize..7,
            rows in 1usize..10,
            tanh in any::<bool>(),
        ) {
            let mut rng = SimRng::new(seed);
            let act = if tanh { Activation::Tanh } else { Activation::Relu };
            let net = Mlp::new(&[inputs, hidden1, hidden2, outputs], act, &mut rng);
            let mut batch = FeatureBatch::new(inputs);
            let mut dloss = Vec::new();
            for _ in 0..rows {
                let row: Vec<f64> = (0..inputs).map(|_| rng.range_f64(-2.0, 2.0)).collect();
                batch.push(&row);
                dloss.extend((0..outputs).map(|_| rng.range_f64(-1.0, 1.0)));
            }
            let mut ws = Workspace::new();
            forward_fresh(&net, &batch, &mut ws);
            let mut g_batch = net.zero_grads();
            net.backprop_batch(&batch, &dloss, &mut g_batch, &mut ws);
            let mut g_ref = net.zero_grads();
            for r in 0..rows {
                net.backprop(batch.row(r), &dloss[r * outputs..(r + 1) * outputs], &mut g_ref);
            }
            prop_assert_eq!(g_batch.samples, g_ref.samples);
            let mut flat_batch: Vec<f64> = Vec::new();
            let mut flat_ref: Vec<f64> = Vec::new();
            let mut probe = net.clone();
            probe.visit_params_mut(&g_batch, |_, g| flat_batch.extend_from_slice(g));
            probe.visit_params_mut(&g_ref, |_, g| flat_ref.extend_from_slice(g));
            for (k, (a, b)) in flat_batch.iter().zip(&flat_ref).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "param {k}: {a} vs {b}");
            }
        }

        /// Forward pass never produces NaN/inf for bounded inputs.
        #[test]
        fn forward_is_finite(seed in 0u64..10_000, scale in 0.0f64..100.0) {
            let mut rng = SimRng::new(seed);
            let net = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
            let x = [scale, -scale, scale / 2.0, 0.0];
            prop_assert!(net.forward(&x).iter().all(|v| v.is_finite()));
        }
    }
}
