//! Candidate-scoring policy network.

use nn::{softmax_in_place, Activation, FeatureBatch, Mlp, TransposedWeights, Workspace};
use serde::{Deserialize, Serialize};
use simcore::SimRng;
use std::cell::RefCell;

thread_local! {
    /// Shared forward-pass workspace + score buffer so `sample` /
    /// `greedy` / `scores_into` are allocation-free after warm-up.
    /// Thread-local (not per-policy) because `ScoringPolicy` must stay
    /// `Clone + Serialize` and parallel sweeps run one scheduler per
    /// thread.
    static INFER_SCRATCH: RefCell<(Workspace, Vec<f64>)> =
        RefCell::new((Workspace::new(), Vec::new()));
}

/// A policy that scores candidate feature vectors with a shared MLP
/// and draws actions from the softmax over the scores.
///
/// Candidates are passed as a flat row-major [`FeatureBatch`]; one
/// batched GEMM-style forward computes every candidate's logit (the
/// scores are bit-identical to per-candidate `Mlp::forward` calls —
/// see `nn::Mlp::forward_batch_cached`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoringPolicy {
    net: Mlp,
    input_dim: usize,
    /// Transposed-weight cache for the vectorised inference kernel.
    /// All weight mutations go through [`ScoringPolicy::net_mut`],
    /// which invalidates it, so scoring refreshes lazily — at most
    /// once per training update, amortised to zero across the many
    /// decisions in between.
    tw: TwCache,
}

/// Interior-mutable wrapper around the transposed-weight cache —
/// scoring takes `&self`, so the lazy refresh needs a `RefCell`.
/// Serialises as `null` and deserialises to a fresh (invalid) cache:
/// the contents are derived state, rebuilt on first use.
#[derive(Debug, Clone, Default)]
struct TwCache(RefCell<TransposedWeights>);

impl serde::Serialize for TwCache {
    fn write_json(&self, w: &mut serde::Writer<'_>) {
        w.null();
    }
}

impl serde::Deserialize for TwCache {
    fn deserialize_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(TwCache::default())
    }
}

impl ScoringPolicy {
    /// New policy for `input_dim`-dimensional candidate features with
    /// the given hidden layer sizes.
    pub fn new(input_dim: usize, hidden: &[usize], rng: &mut SimRng) -> Self {
        let mut sizes = vec![input_dim];
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        ScoringPolicy {
            net: Mlp::new(&sizes, Activation::Relu, rng),
            input_dim,
            tw: TwCache::default(),
        }
    }

    /// Feature dimensionality this policy expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The underlying network (for the trainer).
    pub(crate) fn net(&self) -> &Mlp {
        &self.net
    }

    /// Mutable network access (for the trainer). Invalidates the
    /// transposed-weight cache — callers are assumed to mutate.
    pub(crate) fn net_mut(&mut self) -> &mut Mlp {
        self.tw.0.get_mut().invalidate();
        &mut self.net
    }

    /// Batched forward through the cached vectorised kernel,
    /// refreshing the transposed weights if a trainer update
    /// invalidated them. The layer activations stay in `ws`, ready
    /// for `Mlp::backprop_batch`.
    pub(crate) fn forward_cached<'w>(
        &self,
        candidates: &FeatureBatch,
        ws: &'w mut Workspace,
    ) -> &'w [f64] {
        let mut tw = self.tw.0.borrow_mut();
        if !tw.is_valid() {
            self.net.refresh_transposed(&mut tw);
        }
        self.net.forward_batch_cached(candidates, ws, &tw)
    }

    /// Logit per candidate, written into `out` (cleared first) — the
    /// zero-allocation scoring primitive.
    pub fn scores_into(&self, candidates: &FeatureBatch, out: &mut Vec<f64>) {
        debug_assert_eq!(candidates.dim(), self.input_dim);
        INFER_SCRATCH.with(|s| {
            let (ws, _) = &mut *s.borrow_mut();
            let logits = self.forward_cached(candidates, ws);
            out.clear();
            out.extend_from_slice(logits);
        });
    }

    /// Logit per candidate (allocating convenience).
    pub fn scores(&self, candidates: &FeatureBatch) -> Vec<f64> {
        let mut out = Vec::with_capacity(candidates.rows());
        self.scores_into(candidates, &mut out);
        out
    }

    /// Action probabilities (softmax over candidate scores).
    pub fn probabilities(&self, candidates: &FeatureBatch) -> Vec<f64> {
        let mut p = self.scores(candidates);
        softmax_in_place(&mut p);
        p
    }

    /// Sample an action index from the policy distribution.
    /// Allocation-free after warm-up.
    ///
    /// # Panics
    /// Panics on an empty candidate set — callers must always offer at
    /// least one option (e.g. "stay in queue").
    pub fn sample(&self, candidates: &FeatureBatch, rng: &mut SimRng) -> usize {
        assert!(!candidates.is_empty(), "no candidates to sample from");
        INFER_SCRATCH.with(|s| {
            let (ws, probs) = &mut *s.borrow_mut();
            let logits = self.forward_cached(candidates, ws);
            probs.clear();
            probs.extend_from_slice(logits);
            softmax_in_place(probs);
            let mut x = rng.f64();
            for (i, p) in probs.iter().enumerate() {
                if x < *p {
                    return i;
                }
                x -= p;
            }
            probs.len() - 1
        })
    }

    /// Highest-scoring action (inference mode). Allocation-free after
    /// warm-up.
    pub fn greedy(&self, candidates: &FeatureBatch) -> usize {
        assert!(!candidates.is_empty(), "no candidates to choose from");
        INFER_SCRATCH.with(|s| {
            let (ws, _) = &mut *s.borrow_mut();
            let scores = self.forward_cached(candidates, ws);
            scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(n: usize, dim: usize) -> FeatureBatch {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..dim).map(|d| (i * dim + d) as f64 * 0.1).collect())
            .collect();
        FeatureBatch::from_rows(dim, &rows)
    }

    #[test]
    fn probabilities_form_a_distribution() {
        let mut rng = SimRng::new(1);
        let p = ScoringPolicy::new(4, &[8], &mut rng);
        let probs = p.probabilities(&cands(5, 4));
        assert_eq!(probs.len(), 5);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(probs.iter().all(|x| *x > 0.0));
    }

    #[test]
    fn batched_scores_match_per_candidate_forward() {
        // The decision-identity invariant: the batched scoring path
        // must reproduce the per-candidate `Mlp::forward` logits
        // exactly, so greedy/sampled choices (and hence whole
        // scheduling runs) are unchanged by the batching.
        for seed in 0..20u64 {
            let mut rng = SimRng::new(seed);
            let dim = 1 + (seed as usize % 7);
            let n = 1 + (seed as usize % 9);
            let p = ScoringPolicy::new(dim, &[8, 4], &mut rng);
            let mut batch = FeatureBatch::new(dim);
            for _ in 0..n {
                let row: Vec<f64> = (0..dim).map(|_| rng.range_f64(-1.0, 1.0)).collect();
                batch.push(&row);
            }
            let batched = p.scores(&batch);
            for (i, &b) in batched.iter().enumerate() {
                let reference = p.net().forward(batch.row(i))[0];
                assert_eq!(b, reference, "seed {seed} candidate {i}");
            }
        }
    }

    #[test]
    fn sample_and_greedy_match_per_candidate_reference() {
        // Replays the pre-batching implementation (per-candidate
        // forward + softmax + the same inverse-CDF walk) and checks
        // both action-selection modes agree draw for draw.
        let mut rng = SimRng::new(17);
        let p = ScoringPolicy::new(3, &[6], &mut rng);
        for round in 0..50u64 {
            let mut data_rng = SimRng::new(1000 + round);
            let n = 1 + (round as usize % 6);
            let mut batch = FeatureBatch::new(3);
            for _ in 0..n {
                let row: Vec<f64> = (0..3).map(|_| data_rng.range_f64(-1.0, 1.0)).collect();
                batch.push(&row);
            }
            let reference_scores: Vec<f64> =
                (0..n).map(|i| p.net().forward(batch.row(i))[0]).collect();
            let reference_probs = nn::softmax(&reference_scores);
            let mut rng_a = SimRng::new(round);
            let mut rng_b = SimRng::new(round);
            let sampled = p.sample(&batch, &mut rng_a);
            let reference_sampled = {
                let mut x = rng_b.f64();
                let mut pick = reference_probs.len() - 1;
                for (i, pr) in reference_probs.iter().enumerate() {
                    if x < *pr {
                        pick = i;
                        break;
                    }
                    x -= pr;
                }
                pick
            };
            assert_eq!(sampled, reference_sampled, "round {round}");
            let reference_greedy = reference_scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(p.greedy(&batch), reference_greedy, "round {round}");
        }
    }

    #[test]
    fn weight_updates_invalidate_the_transpose_cache() {
        let mut rng = SimRng::new(6);
        let mut p = ScoringPolicy::new(3, &[8], &mut rng);
        let c = cands(4, 3);
        let before = p.scores(&c); // warms the cache
                                   // Mutate the weights the way the trainer does (via net_mut).
        let g = p.net().zero_grads();
        p.net_mut().visit_params_mut(&g, |params, _| {
            for v in params.iter_mut() {
                *v += 0.1;
            }
        });
        let after = p.scores(&c);
        assert_ne!(before, after, "scores must track the new weights");
        // And the refreshed cache must agree with the direct forward.
        for (i, &a) in after.iter().enumerate() {
            assert_eq!(a, p.net().forward(c.row(i))[0]);
        }
    }

    #[test]
    fn greedy_picks_the_max_probability() {
        let mut rng = SimRng::new(2);
        let p = ScoringPolicy::new(3, &[6], &mut rng);
        let c = cands(7, 3);
        let probs = p.probabilities(&c);
        let g = p.greedy(&c);
        let max = probs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((probs[g] - max).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut rng = SimRng::new(3);
        let p = ScoringPolicy::new(2, &[4], &mut rng);
        let c = cands(3, 2);
        let probs = p.probabilities(&c);
        let n = 50_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[p.sample(&c, &mut rng)] += 1;
        }
        for i in 0..3 {
            let emp = counts[i] as f64 / n as f64;
            assert!(
                (emp - probs[i]).abs() < 0.015,
                "cand {i}: {emp} vs {}",
                probs[i]
            );
        }
    }

    #[test]
    fn single_candidate_is_always_chosen() {
        let mut rng = SimRng::new(4);
        let p = ScoringPolicy::new(2, &[4], &mut rng);
        let c = cands(1, 2);
        assert_eq!(p.greedy(&c), 0);
        assert_eq!(p.sample(&c, &mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn empty_candidates_panic() {
        let mut rng = SimRng::new(5);
        let p = ScoringPolicy::new(2, &[4], &mut rng);
        p.greedy(&FeatureBatch::new(2));
    }
}
