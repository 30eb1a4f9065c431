//! REINFORCE-with-baseline training and imitation pre-training.

use crate::policy::ScoringPolicy;
use nn::{softmax_in_place, Adam, FeatureBatch, Workspace};
use serde::{Deserialize, Serialize};

/// One recorded decision: the candidate features offered and the index
/// chosen (by MLF-H during imitation, or by the policy itself during
/// RL fine-tuning).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Step {
    /// Feature batch, one row per candidate.
    pub candidates: FeatureBatch,
    /// Index of the chosen candidate.
    pub action: usize,
}

/// Trainer hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Adam learning rate.
    pub lr: f64,
    /// Reward discount `η` (paper default 0.95; "a larger η enables
    /// the RL agent to consider more weights on the future rewards").
    pub eta: f64,
    /// EMA factor for the reward baseline.
    pub baseline_decay: f64,
    /// Entropy regularisation coefficient (keeps exploration alive
    /// during fine-tuning).
    pub entropy_coef: f64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            lr: 1e-2,
            eta: 0.95,
            baseline_decay: 0.95,
            entropy_coef: 1e-3,
        }
    }
}

/// Convergence detector: tracks an EMA of the per-episode return and
/// declares convergence when its relative change stays small for a
/// window of episodes ("only after the RL model is well trained (i.e.,
/// converged), MLFS switches from MLF-H to MLF-RL", §3.4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Convergence {
    ema: Option<f64>,
    stable_for: usize,
    /// Relative-change tolerance.
    pub tol: f64,
    /// Episodes the EMA must stay within tolerance.
    pub window: usize,
}

impl Convergence {
    /// New detector.
    pub fn new(tol: f64, window: usize) -> Self {
        Convergence {
            ema: None,
            stable_for: 0,
            tol,
            window,
        }
    }

    /// Record an episode return. Returns `true` once converged.
    pub fn record(&mut self, episode_return: f64) -> bool {
        match self.ema {
            None => {
                self.ema = Some(episode_return);
                self.stable_for = 0;
            }
            Some(prev) => {
                let ema = 0.9 * prev + 0.1 * episode_return;
                let denom = prev.abs().max(1e-9);
                if ((ema - prev) / denom).abs() < self.tol {
                    self.stable_for += 1;
                } else {
                    self.stable_for = 0;
                }
                self.ema = Some(ema);
            }
        }
        self.is_converged()
    }

    /// Whether the return EMA has been stable long enough.
    pub fn is_converged(&self) -> bool {
        self.stable_for >= self.window
    }

    /// Current EMA of returns.
    pub fn ema(&self) -> Option<f64> {
        self.ema
    }
}

/// The persistent half of a [`ReinforceTrainer`]: policy weights,
/// optimizer moments, and the reward baseline. The trainer's
/// [`Workspace`] and scratch buffers are derived state rebuilt on the
/// next update, so a trainer restored from this state continues
/// training bit-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainerState {
    /// Policy network weights.
    pub policy: ScoringPolicy,
    /// Hyperparameters (restored so a resumed trainer cannot drift
    /// from the run that exported it).
    pub cfg: TrainerConfig,
    /// Adam moments and step count.
    pub optim: Adam,
    /// EMA reward baseline.
    pub baseline: f64,
    /// Whether the baseline has been seeded yet.
    pub baseline_ready: bool,
}

/// REINFORCE trainer with an EMA baseline, plus supervised imitation.
///
/// Each recorded step is trained with one batched forward and one
/// batched backward pass over its candidate rows (instead of one
/// forward/backward per candidate); the trainer owns the [`Workspace`]
/// and scratch buffers, so steady-state training allocates only the
/// per-update gradient set.
#[derive(Debug)]
pub struct ReinforceTrainer {
    /// The policy being trained.
    pub policy: ScoringPolicy,
    cfg: TrainerConfig,
    optim: Adam,
    baseline: f64,
    baseline_ready: bool,
    ws: Workspace,
    probs: Vec<f64>,
    dlogits: Vec<f64>,
}

impl ReinforceTrainer {
    /// Wrap a policy with a trainer.
    pub fn new(policy: ScoringPolicy, cfg: TrainerConfig) -> Self {
        let optim = Adam::new(cfg.lr);
        ReinforceTrainer {
            policy,
            cfg,
            optim,
            baseline: 0.0,
            baseline_ready: false,
            ws: Workspace::new(),
            probs: Vec::new(),
            dlogits: Vec::new(),
        }
    }

    /// Capture the persistent half of the trainer (weights, optimizer
    /// moments, baseline) for a crash-safe restart.
    pub fn export_state(&self) -> TrainerState {
        TrainerState {
            policy: self.policy.clone(),
            cfg: self.cfg,
            optim: self.optim.clone(),
            baseline: self.baseline,
            baseline_ready: self.baseline_ready,
        }
    }

    /// Adopt state captured by [`ReinforceTrainer::export_state`];
    /// scratch buffers reset and are rebuilt on the next update.
    pub fn import_state(&mut self, st: TrainerState) {
        self.policy = st.policy;
        self.cfg = st.cfg;
        self.optim = st.optim;
        self.baseline = st.baseline;
        self.baseline_ready = st.baseline_ready;
        self.ws = Workspace::new();
        self.probs.clear();
        self.dlogits.clear();
    }

    /// Discounted returns `G_t = Σ_k η^k r_{t+k}` for a reward
    /// sequence.
    pub fn discounted_returns(&self, rewards: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; rewards.len()];
        let mut acc = 0.0;
        for (i, r) in rewards.iter().enumerate().rev() {
            acc = r + self.cfg.eta * acc;
            out[i] = acc;
        }
        out
    }

    /// Batched forward over a step's candidates, leaving the softmax
    /// distribution in `self.probs` and the layer activations in
    /// `self.ws` (ready for `backprop_batch`). It runs on the policy's
    /// cached transposed weights, which `net_mut` invalidates after
    /// each optimizer step, so one update refreshes them once.
    fn forward_step_probs(
        policy: &ScoringPolicy,
        ws: &mut Workspace,
        probs: &mut Vec<f64>,
        step: &Step,
    ) {
        let logits = policy.forward_cached(&step.candidates, ws);
        probs.clear();
        probs.extend_from_slice(logits);
        softmax_in_place(probs);
    }

    /// One REINFORCE update over an episode of `(step, reward)` pairs.
    /// Returns the (undiscounted) episode return.
    pub fn train_episode(&mut self, episode: &[(Step, f64)]) -> f64 {
        if episode.is_empty() {
            return 0.0;
        }
        let rewards: Vec<f64> = episode.iter().map(|(_, r)| *r).collect();
        let returns = self.discounted_returns(&rewards);
        // Update the baseline from the episode's mean return.
        let mean_ret = returns.iter().sum::<f64>() / returns.len() as f64;
        if self.baseline_ready {
            self.baseline = self.cfg.baseline_decay * self.baseline
                + (1.0 - self.cfg.baseline_decay) * mean_ret;
        } else {
            self.baseline = mean_ret;
            self.baseline_ready = true;
        }

        let mut grads = self.policy.net().zero_grads();
        for ((step, _), g_t) in episode.iter().zip(&returns) {
            if step.candidates.rows() < 2 {
                continue; // nothing to learn from a forced choice
            }
            let advantage = g_t - self.baseline;
            Self::forward_step_probs(&self.policy, &mut self.ws, &mut self.probs, step);
            // d(-advantage·log π(a) − β·H(π)) / d logit_i
            //   = advantage·(π_i − 1[i=a]) + β·π_i·(log π_i + H)
            let entropy: f64 = self
                .probs
                .iter()
                .map(|p| if *p > 0.0 { -p * p.ln() } else { 0.0 })
                .sum();
            self.dlogits.clear();
            for (i, p) in self.probs.iter().enumerate() {
                let indicator = if i == step.action { 1.0 } else { 0.0 };
                let mut dlogit = advantage * (p - indicator);
                dlogit += self.cfg.entropy_coef * p * (p.max(1e-12).ln() + entropy);
                self.dlogits.push(dlogit);
            }
            self.policy.net().backprop_batch(
                &step.candidates,
                &self.dlogits,
                &mut grads,
                &mut self.ws,
            );
        }
        self.optim.step(self.policy.net_mut(), &mut grads);
        rewards.iter().sum()
    }

    /// Supervised imitation: raise the probability of the recorded
    /// action via cross-entropy over candidate scores. Returns the
    /// mean cross-entropy loss of the batch.
    pub fn imitate(&mut self, steps: &[Step]) -> f64 {
        if steps.is_empty() {
            return 0.0;
        }
        self.imitate_inner(steps, None)
    }

    /// [`ReinforceTrainer::imitate`] over a minibatch selected by
    /// index — lets replay buffers resample without cloning `Step`s.
    pub fn imitate_indices(&mut self, steps: &[Step], indices: &[usize]) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        self.imitate_inner(steps, Some(indices))
    }

    /// Shared imitation update; `indices = None` walks `steps` in
    /// order, `Some(idx)` visits `steps[i]` for each `i` (repeats
    /// allowed).
    fn imitate_inner(&mut self, steps: &[Step], indices: Option<&[usize]>) -> f64 {
        let mut grads = self.policy.net().zero_grads();
        let mut total_loss = 0.0;
        let mut counted = 0usize;
        let n = indices.map_or(steps.len(), <[usize]>::len);
        for k in 0..n {
            let step = match indices {
                Some(idx) => &steps[idx[k]],
                None => &steps[k],
            };
            if step.candidates.rows() < 2 {
                continue;
            }
            Self::forward_step_probs(&self.policy, &mut self.ws, &mut self.probs, step);
            total_loss += -self.probs[step.action].max(1e-12).ln();
            counted += 1;
            self.dlogits.clear();
            for (i, p) in self.probs.iter().enumerate() {
                let indicator = if i == step.action { 1.0 } else { 0.0 };
                self.dlogits.push(p - indicator);
            }
            self.policy.net().backprop_batch(
                &step.candidates,
                &self.dlogits,
                &mut grads,
                &mut self.ws,
            );
        }
        self.optim.step(self.policy.net_mut(), &mut grads);
        if counted == 0 {
            0.0
        } else {
            total_loss / counted as f64
        }
    }

    /// Fraction of steps where the policy's greedy choice matches the
    /// recorded action (imitation quality metric).
    pub fn agreement(&self, steps: &[Step]) -> f64 {
        if steps.is_empty() {
            return 1.0;
        }
        let hits = steps
            .iter()
            .filter(|s| self.policy.greedy(&s.candidates) == s.action)
            .count();
        hits as f64 / steps.len() as f64
    }

    /// The current reward baseline.
    pub fn baseline(&self) -> f64 {
        self.baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;

    /// A contextual bandit: candidate feature [x]; reward 1 when the
    /// chosen candidate has the largest x, else 0. The optimal policy
    /// scores candidates by x.
    fn bandit_episode(policy: &ScoringPolicy, rng: &mut SimRng, steps: usize) -> Vec<(Step, f64)> {
        let mut out = Vec::new();
        for _ in 0..steps {
            let mut candidates = FeatureBatch::new(1);
            for _ in 0..4 {
                candidates.push(&[rng.range_f64(-1.0, 1.0)]);
            }
            let action = policy.sample(&candidates, rng);
            let best = (0..candidates.rows())
                .max_by(|a, b| {
                    candidates.row(*a)[0]
                        .partial_cmp(&candidates.row(*b)[0])
                        .unwrap()
                })
                .unwrap();
            let reward = if action == best { 1.0 } else { 0.0 };
            out.push((Step { candidates, action }, reward));
        }
        out
    }

    #[test]
    fn discounted_returns_match_hand_computation() {
        let t = ReinforceTrainer::new(
            ScoringPolicy::new(1, &[4], &mut SimRng::new(0)),
            TrainerConfig {
                eta: 0.5,
                ..Default::default()
            },
        );
        let g = t.discounted_returns(&[1.0, 0.0, 4.0]);
        // G2 = 4, G1 = 0 + .5·4 = 2, G0 = 1 + .5·2 = 2.
        assert_eq!(g, vec![2.0, 2.0, 4.0]);
    }

    #[test]
    fn reinforce_improves_bandit_reward() {
        let mut rng = SimRng::new(10);
        let policy = ScoringPolicy::new(1, &[8], &mut rng);
        let mut trainer = ReinforceTrainer::new(policy, TrainerConfig::default());

        let mut eval_rng = SimRng::new(99);
        let before: f64 = bandit_episode(&trainer.policy, &mut eval_rng, 500)
            .iter()
            .map(|(_, r)| r)
            .sum::<f64>()
            / 500.0;

        for _ in 0..400 {
            let ep = bandit_episode(&trainer.policy, &mut rng, 32);
            trainer.train_episode(&ep);
        }

        let mut eval_rng = SimRng::new(99);
        let after: f64 = bandit_episode(&trainer.policy, &mut eval_rng, 500)
            .iter()
            .map(|(_, r)| r)
            .sum::<f64>()
            / 500.0;
        assert!(
            after > before + 0.2 && after > 0.7,
            "before {before}, after {after}"
        );
    }

    #[test]
    fn imitation_learns_a_max_rule() {
        let mut rng = SimRng::new(20);
        let policy = ScoringPolicy::new(2, &[8], &mut rng);
        let mut trainer = ReinforceTrainer::new(policy, TrainerConfig::default());

        // Teacher: pick the candidate maximising x0 + 2·x1.
        let make_steps = |rng: &mut SimRng, n: usize| -> Vec<Step> {
            (0..n)
                .map(|_| {
                    let mut candidates = FeatureBatch::new(2);
                    for _ in 0..5 {
                        candidates.push(&[rng.range_f64(0.0, 1.0), rng.range_f64(0.0, 1.0)]);
                    }
                    let action = (0..candidates.rows())
                        .max_by(|a, b| {
                            let sa = candidates.row(*a);
                            let sb = candidates.row(*b);
                            (sa[0] + 2.0 * sa[1])
                                .partial_cmp(&(sb[0] + 2.0 * sb[1]))
                                .unwrap()
                        })
                        .unwrap();
                    Step { candidates, action }
                })
                .collect()
        };

        for _ in 0..300 {
            let batch = make_steps(&mut rng, 32);
            trainer.imitate(&batch);
        }
        let mut test_rng = SimRng::new(77);
        let test = make_steps(&mut test_rng, 400);
        let agree = trainer.agreement(&test);
        assert!(agree > 0.85, "agreement {agree}");
    }

    #[test]
    fn imitation_loss_decreases() {
        let mut rng = SimRng::new(30);
        let policy = ScoringPolicy::new(1, &[6], &mut rng);
        let mut trainer = ReinforceTrainer::new(policy, TrainerConfig::default());
        let steps: Vec<Step> = (0..64)
            .map(|_| {
                let mut candidates = FeatureBatch::new(1);
                for _ in 0..3 {
                    candidates.push(&[rng.range_f64(0.0, 1.0)]);
                }
                let action = (0..candidates.rows())
                    .max_by(|a, b| {
                        candidates.row(*a)[0]
                            .partial_cmp(&candidates.row(*b)[0])
                            .unwrap()
                    })
                    .unwrap();
                Step { candidates, action }
            })
            .collect();
        let first = trainer.imitate(&steps);
        let mut last = first;
        for _ in 0..400 {
            last = trainer.imitate(&steps);
        }
        assert!(last < first * 0.5, "first {first}, last {last}");
    }

    #[test]
    fn imitate_indices_matches_imitate_on_identity_permutation() {
        // Two identical trainers: one fed the steps directly, the
        // other the same steps through the index path. Parameters must
        // stay bit-identical — this is the invariant that lets the
        // replay buffer resample without cloning Steps.
        let mk = || {
            let mut rng = SimRng::new(40);
            let policy = ScoringPolicy::new(2, &[6], &mut rng);
            ReinforceTrainer::new(policy, TrainerConfig::default())
        };
        let mut rng = SimRng::new(41);
        let steps: Vec<Step> = (0..16)
            .map(|_| {
                let mut candidates = FeatureBatch::new(2);
                for _ in 0..4 {
                    candidates.push(&[rng.range_f64(0.0, 1.0), rng.range_f64(0.0, 1.0)]);
                }
                Step {
                    candidates,
                    action: 1,
                }
            })
            .collect();
        let idx: Vec<usize> = (0..steps.len()).collect();
        let mut a = mk();
        let mut b = mk();
        for _ in 0..5 {
            let la = a.imitate(&steps);
            let lb = b.imitate_indices(&steps, &idx);
            assert_eq!(la, lb);
        }
        let extract = |t: &mut ReinforceTrainer| {
            let mut params = Vec::new();
            let g = t.policy.net().zero_grads();
            t.policy
                .net_mut()
                .visit_params_mut(&g, |p: &mut [f64], _| params.extend_from_slice(p));
            params
        };
        assert_eq!(extract(&mut a), extract(&mut b));
        // Repeated indices are allowed (replay-style resampling).
        let resample = [0usize, 0, 3, 15, 3];
        b.imitate_indices(&steps, &resample);
    }

    /// FNV-1a over the bit patterns of every policy parameter, then of
    /// the returned losses and episode returns.
    fn training_fingerprint(t: &mut ReinforceTrainer, outputs: &[f64]) -> u64 {
        let mut bits = Vec::new();
        let g = t.policy.net().zero_grads();
        t.policy.net_mut().visit_params_mut(&g, |params, _| {
            bits.extend(params.iter().map(|v| v.to_bits()))
        });
        bits.extend(outputs.iter().map(|v| v.to_bits()));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in bits.iter().flat_map(|b| b.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Pins the training numerics bit for bit. The scheduler
    /// fingerprints only see decisions, so a kernel change that drifts
    /// the weights by an ulp could hide behind them; this one cannot.
    /// The policy has MLF-RL's shape (21 → 64 → 32 → 1) and candidate
    /// sets of 1–13 rows, so every row-count remainder of the batched
    /// kernels runs, and single-candidate steps are skipped as in MLFS.
    #[test]
    fn training_weights_are_pinned() {
        let mut rng = SimRng::new(2024);
        let policy = ScoringPolicy::new(21, &[64, 32], &mut rng);
        let mut trainer = ReinforceTrainer::new(policy, TrainerConfig::default());
        let make_step = |rng: &mut SimRng| {
            let rows = 1 + rng.index(13);
            let mut candidates = FeatureBatch::new(21);
            for _ in 0..rows {
                let row: Vec<f64> = (0..21).map(|_| rng.range_f64(-1.0, 1.0)).collect();
                candidates.push(&row);
            }
            let action = rng.index(rows);
            Step { candidates, action }
        };
        let buffer: Vec<Step> = (0..160).map(|_| make_step(&mut rng)).collect();
        let mut outputs = Vec::new();
        for _ in 0..6 {
            for _ in 0..4 {
                let idx: Vec<usize> = (0..64).map(|_| rng.index(buffer.len())).collect();
                outputs.push(trainer.imitate_indices(&buffer, &idx));
            }
        }
        for _ in 0..5 {
            let episode: Vec<(Step, f64)> = (0..16)
                .map(|_| {
                    let step = make_step(&mut rng);
                    (step, rng.range_f64(-1.0, 1.0))
                })
                .collect();
            outputs.push(trainer.train_episode(&episode));
        }
        assert_eq!(
            training_fingerprint(&mut trainer, &outputs),
            0xbb52_8b53_4b50_6b81,
            "training numerics drifted"
        );
    }

    #[test]
    fn convergence_detector() {
        let mut c = Convergence::new(0.01, 5);
        // Wildly varying returns: never converges.
        for i in 0..20 {
            c.record(if i % 2 == 0 { 0.0 } else { 100.0 });
        }
        assert!(!c.is_converged());
        // Stable returns: converges after the window.
        let mut c2 = Convergence::new(0.01, 5);
        let mut converged_at = None;
        for i in 0..50 {
            if c2.record(10.0) && converged_at.is_none() {
                converged_at = Some(i);
            }
        }
        assert!(converged_at.is_some());
        assert!(converged_at.unwrap() >= 5);
    }

    #[test]
    fn empty_episode_is_harmless() {
        let mut trainer = ReinforceTrainer::new(
            ScoringPolicy::new(1, &[4], &mut SimRng::new(0)),
            TrainerConfig::default(),
        );
        assert_eq!(trainer.train_episode(&[]), 0.0);
        assert_eq!(trainer.imitate(&[]), 0.0);
        assert_eq!(trainer.imitate_indices(&[], &[]), 0.0);
        assert_eq!(trainer.agreement(&[]), 1.0);
    }
}
