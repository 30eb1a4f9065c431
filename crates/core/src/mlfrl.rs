//! MLF-RL: the ML-feature-based RL task scheduler (§3.4).
//!
//! Lifecycle, as in the paper:
//!
//! 1. **Imitation phase** — "MLFS initially runs MLF-H for a certain
//!    time period and uses the data to train MLF-RL". During this
//!    phase the scheduler *acts* exactly like MLF-H while training the
//!    policy network to imitate MLF-H's host choices (cross-entropy).
//! 2. **RL phase** — once the imitation budget is exhausted, decisions
//!    come from the policy network and REINFORCE fine-tuning continues
//!    online with the Eq. 7 reward, discounted by `η` over the
//!    post-decision window (`observe_reward` is called by the engine
//!    every scheduling round).
//!
//! Victim selection on overloaded servers stays heuristic
//! (ideal-virtual-task); the policy decides *destinations* — server or
//! queue — which is where the combinatorial choice lies.

use crate::blacklist::ServerBlacklist;
use crate::features::{candidate_features_into, FEATURE_DIM};
use crate::gang::overload_round;
use crate::mlfh::{MlfH, MlfHState};
use crate::params::Params;
use crate::scheduler::{
    state_from_json, state_to_json, Action, RewardComponents, Scheduler, SchedulerContext,
};
use cluster::{ClusterOverlay, ClusterView, ServerId, TaskId};
use rl::{
    Convergence, DriftConfig, DriftMonitor, FeatureBatch, ReinforceTrainer, ScoringPolicy, Step,
    TrainerConfig, TrainerState,
};
use serde::{Deserialize, Serialize};
use simcore::SimRng;

/// Continuous-retraining policy: when the [`DriftMonitor`] flags that
/// online reward has fallen below its long-run level, the scheduler
/// re-enters an imitation window against its inner MLF-H teacher for
/// `retrain_rounds` rounds, retraining the policy on the *current*
/// workload distribution (docs/TRAINING.md).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DriftRetrainConfig {
    /// Reward-EMA drift detector tuning.
    pub monitor: DriftConfig,
    /// Length of the imitation window opened on each trigger.
    pub retrain_rounds: usize,
}

impl Default for DriftRetrainConfig {
    fn default() -> Self {
        DriftRetrainConfig {
            monitor: DriftConfig::default(),
            retrain_rounds: 60,
        }
    }
}

/// MLF-RL hyperparameters.
#[derive(Debug, Clone)]
pub struct MlfRlConfig {
    /// Hidden layer sizes of the policy MLP.
    pub hidden: Vec<usize>,
    /// Scheduling rounds spent imitating MLF-H before switching
    /// (the paper trains on the first 50% of the trace; benches set
    /// this per experiment).
    pub imitation_rounds: usize,
    /// Cap on server candidates offered per decision (keeps decision
    /// cost bounded on large clusters; nearest-by-load servers win).
    pub max_candidates: usize,
    /// Rounds per REINFORCE episode.
    pub train_interval: usize,
    /// Trainer hyperparameters (η lives here).
    pub trainer: TrainerConfig,
    /// Sample actions during RL (exploration) instead of greedy.
    pub explore: bool,
    /// RNG seed for the policy init and sampling.
    pub seed: u64,
    /// Online learning master switch. `false` freezes the policy
    /// completely: no REINFORCE updates, no imitation minibatches, no
    /// drift retraining — the evaluation mode for a warm-started
    /// policy (`rl::warm_start` + [`MlfRl::import_policy`]).
    pub online_training: bool,
    /// Continuous retraining under workload drift (`None` = off, the
    /// pre-drift behavior, bit-identical to earlier releases).
    pub drift: Option<DriftRetrainConfig>,
    /// Convergence detector: relative return-EMA change below this
    /// tolerance counts as stable (§3.4's "well trained"). Tune to the
    /// workload's episode-return noise floor — a tolerance below the
    /// per-episode noise means the detector never fires.
    pub convergence_tol: f64,
    /// Consecutive stable episodes required before `is_converged`.
    pub convergence_window: usize,
}

impl Default for MlfRlConfig {
    fn default() -> Self {
        MlfRlConfig {
            hidden: vec![64, 32],
            imitation_rounds: 200,
            max_candidates: 12,
            train_interval: 8,
            trainer: TrainerConfig::default(),
            explore: true,
            seed: 0xA11CE,
            online_training: true,
            drift: None,
            convergence_tol: 0.02,
            convergence_window: 10,
        }
    }
}

/// Reusable decision-loop buffers, mirroring the `HostScratch`
/// pattern in `placement.rs`: the steady-state hot path draws from
/// these instead of the allocator.
#[derive(Default)]
struct RlScratch {
    /// `(overload_degree, id)` ranking buffer for candidate selection.
    ranked: Vec<(f64, ServerId)>,
    /// Selected candidate hosts for the current decision.
    servers: Vec<ServerId>,
    /// Recycled candidate batches: decisions pop a cleared batch here
    /// and trained/expired `Step`s push theirs back.
    batch_pool: Vec<FeatureBatch>,
    /// Replay-minibatch index buffer for `imitate_indices`.
    minibatch_idx: Vec<usize>,
}

/// Retained `FeatureBatch` allocations; decisions churn through
/// batches far faster than the pool grows, so a small cap suffices.
const BATCH_POOL_CAP: usize = 64;

/// Evolving MLF-RL state carried across a service restart: the
/// trained policy and optimizer, the RNG stream, the learning buffers,
/// and the two config fields mutated at runtime (`set_explore`,
/// `import_policy`). Scratch buffers are rebuilt on the next round.
#[derive(Serialize, Deserialize)]
pub(crate) struct MlfRlState {
    inner_h: MlfHState,
    trainer: TrainerState,
    convergence: Convergence,
    rng: [u64; 4],
    rounds: u64,
    pending: Vec<Step>,
    episode: Vec<(Step, f64)>,
    imitation_buffer: Vec<Step>,
    episodes_trained: u64,
    blacklist: ServerBlacklist,
    explore: bool,
    imitation_rounds: u64,
    /// Drift-retraining state (absent in pre-drift snapshots; the
    /// vendored serde maps a missing `Option` to `None`).
    drift_monitor: Option<DriftMonitor>,
    imitation_until: u64,
    retrains: u64,
}

/// The MLF-RL scheduler.
pub struct MlfRl {
    /// Tunables shared with MLF-H.
    pub params: Params,
    cfg: MlfRlConfig,
    inner_h: MlfH,
    trainer: ReinforceTrainer,
    convergence: Convergence,
    rng: SimRng,
    rounds: usize,
    /// Steps taken in the round awaiting their reward.
    pending: Vec<Step>,
    /// Closed (step, reward) pairs of the current episode.
    episode: Vec<(Step, f64)>,
    /// Replay buffer of MLF-H decisions for imitation training.
    imitation_buffer: Vec<Step>,
    /// Total REINFORCE episodes trained.
    pub episodes_trained: usize,
    scratch: RlScratch,
    /// Crash history: recently-failed servers are dropped from the
    /// candidate set with exponential backoff (the RIAL fallback pick
    /// ignores the ban when nothing else fits, so no round stalls).
    blacklist: ServerBlacklist,
    /// Telemetry hub (attached by the engine; `None` in bare use).
    tracer: Option<std::sync::Arc<obs::Tracer>>,
    /// Online reward drift detector (present iff `cfg.drift` is set).
    drift_monitor: Option<DriftMonitor>,
    /// Drift retraining keeps imitating until this round (0 = no
    /// active window; independent of the initial `imitation_rounds`
    /// budget).
    imitation_until: usize,
    /// Completed drift-retraining windows.
    retrains: usize,
}

impl MlfRl {
    /// New MLF-RL scheduler.
    pub fn new(params: Params, cfg: MlfRlConfig) -> Self {
        let mut rng = SimRng::new(cfg.seed);
        let policy = ScoringPolicy::new(crate::features::FEATURE_DIM, &cfg.hidden, &mut rng);
        let trainer = ReinforceTrainer::new(policy, cfg.trainer);
        MlfRl {
            params,
            inner_h: MlfH::new(params),
            trainer,
            convergence: Convergence::new(cfg.convergence_tol, cfg.convergence_window),
            rng,
            rounds: 0,
            pending: Vec::new(),
            episode: Vec::new(),
            imitation_buffer: Vec::new(),
            episodes_trained: 0,
            scratch: RlScratch::default(),
            blacklist: ServerBlacklist::default(),
            tracer: None,
            drift_monitor: cfg.drift.map(|d| DriftMonitor::new(d.monitor)),
            imitation_until: 0,
            retrains: 0,
            cfg,
        }
    }

    /// Evolving state for `Scheduler::export_state`.
    pub(crate) fn state(&self) -> MlfRlState {
        MlfRlState {
            inner_h: self.inner_h.state(),
            trainer: self.trainer.export_state(),
            convergence: self.convergence.clone(),
            rng: self.rng.state(),
            rounds: self.rounds as u64,
            pending: self.pending.clone(),
            episode: self.episode.clone(),
            imitation_buffer: self.imitation_buffer.clone(),
            episodes_trained: self.episodes_trained as u64,
            blacklist: self.blacklist.clone(),
            explore: self.cfg.explore,
            imitation_rounds: self.cfg.imitation_rounds as u64,
            drift_monitor: self.drift_monitor.clone(),
            imitation_until: self.imitation_until as u64,
            retrains: self.retrains as u64,
        }
    }

    /// Adopt state captured by [`MlfRl::state`]; the batch pool and
    /// other scratch reset (they are performance caches, not state).
    pub(crate) fn restore_state(&mut self, st: MlfRlState) {
        self.inner_h.restore_state(st.inner_h);
        self.trainer.import_state(st.trainer);
        self.convergence = st.convergence;
        self.rng = SimRng::from_state(st.rng);
        self.rounds = st.rounds as usize;
        self.pending = st.pending;
        self.episode = st.episode;
        self.imitation_buffer = st.imitation_buffer;
        self.episodes_trained = st.episodes_trained as usize;
        self.blacklist = st.blacklist;
        self.cfg.explore = st.explore;
        self.cfg.imitation_rounds = st.imitation_rounds as usize;
        self.drift_monitor = st.drift_monitor;
        self.imitation_until = st.imitation_until as usize;
        self.retrains = st.retrains as usize;
        self.scratch = RlScratch::default();
    }

    /// Pop a cleared candidate batch from the pool (or allocate the
    /// pool's first few).
    fn take_batch(&mut self) -> FeatureBatch {
        self.scratch
            .batch_pool
            .pop()
            .unwrap_or_else(|| FeatureBatch::new(FEATURE_DIM))
    }

    /// Return a batch to the pool once its `Step` is done.
    fn recycle_batch(&mut self, mut batch: FeatureBatch) {
        if self.scratch.batch_pool.len() < BATCH_POOL_CAP {
            batch.clear();
            self.scratch.batch_pool.push(batch);
        }
    }

    /// Still copying MLF-H? True during the initial imitation budget
    /// and inside any drift-triggered retraining window.
    pub fn in_imitation_phase(&self) -> bool {
        self.rounds < self.cfg.imitation_rounds || self.rounds < self.imitation_until
    }

    /// Completed drift-retraining windows (0 when drift is off).
    pub fn retrains(&self) -> usize {
        self.retrains
    }

    /// Snapshot the trained policy (for transfer into an evaluation
    /// scheduler after a warm-up run, per §4.1's offline pre-training).
    pub fn export_policy(&self) -> ScoringPolicy {
        self.trainer.policy.clone()
    }

    /// Replace the policy with a pre-trained one and skip imitation:
    /// the scheduler starts in the RL phase immediately.
    pub fn import_policy(&mut self, policy: ScoringPolicy) {
        self.trainer.policy = policy;
        self.cfg.imitation_rounds = 0;
    }

    /// Toggle exploration (sampling) vs greedy action selection.
    pub fn set_explore(&mut self, explore: bool) {
        self.cfg.explore = explore;
    }

    /// Has the return EMA stabilised (§3.4's "well trained")?
    pub fn is_converged(&self) -> bool {
        self.convergence.is_converged()
    }

    /// Current return EMA of the convergence detector, if any episode
    /// has been trained yet (convergence diagnostics for benches).
    pub fn convergence_ema(&self) -> Option<f64> {
        self.convergence.ema()
    }

    /// REINFORCE episodes trained so far.
    pub fn episodes_trained(&self) -> usize {
        self.episodes_trained
    }

    /// Fraction of buffered MLF-H decisions the current policy would
    /// reproduce greedily (imitation-quality diagnostic).
    pub fn imitation_agreement(&self) -> f64 {
        self.trainer.agreement(&self.imitation_buffer)
    }

    /// Candidate servers for `task` on the speculative cluster:
    /// underloaded hosts that fit, capped to the least-loaded
    /// `max_candidates` (by overload degree). Writes into
    /// caller-provided buffers and only partially sorts: hosts beyond
    /// the cap are discarded by `select_nth_unstable_by` without ever
    /// being ordered. The `(degree, id)` key is a total order that
    /// reproduces the old full stable sort's sequence exactly (equal
    /// degrees tie-break by id, which is the insertion order a stable
    /// sort preserved), so selections are unchanged.
    #[allow(clippy::too_many_arguments)]
    fn candidate_servers_into<V: ClusterView>(
        params: &Params,
        max_candidates: usize,
        plan: &V,
        ctx: &SchedulerContext<'_>,
        task: TaskId,
        blacklist: &ServerBlacklist,
        ranked: &mut Vec<(f64, ServerId)>,
        out: &mut Vec<ServerId>,
    ) {
        out.clear();
        let Some(spec) = ctx
            .jobs
            .get(&task.job)
            .and_then(|job| job.spec.tasks.get(task.idx as usize))
        else {
            return;
        };
        // Softer admission limit than MLF-H's fixed h_r: the paper
        // motivates MLF-RL by MLF-H's possibly sub-optimal fixed
        // parameters (§3.4). The policy is shown these riskier hosts
        // (their utilization features expose the risk) and the Eq. 7
        // reward arbitrates whether using the headroom pays off.
        // Recently-crashed servers are dropped entirely (an empty
        // candidate set still leaves the RIAL pick and the queue).
        let soft = (params.h_r + 0.08).min(0.98);
        ranked.clear();
        ranked.extend(
            (0..plan.server_count())
                .map(|i| plan.server(ServerId(i as u32)))
                .filter(|s| {
                    !blacklist.is_banned(s.id)
                        && !s.is_overloaded(soft)
                        && s.can_host(&spec.demand, spec.gpu_share, soft)
                })
                .map(|s| (s.overload_degree(), s.id)),
        );
        let key = |a: &(f64, ServerId), b: &(f64, ServerId)| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        };
        let k = max_candidates.min(ranked.len());
        if k > 0 && k < ranked.len() {
            ranked.select_nth_unstable_by(k - 1, key);
            ranked.truncate(k);
        }
        ranked.sort_unstable_by(key);
        out.clear();
        out.extend(ranked.iter().map(|&(_, s)| s));
    }

    /// Imitation round: emit MLF-H's actions and record its decisions
    /// as supervised examples, replaying them against an evolving plan
    /// so the features match what the RL phase will later see. Each
    /// round also trains several minibatches from a replay buffer —
    /// single-pass imitation underfits badly.
    fn imitation_round(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let actions = self.inner_h.schedule(ctx);
        let mut plan = ClusterOverlay::new(ctx.cluster, self.params.h_r);
        // Borrow-split: the decision list is moved out (and restored
        // below) so the loop can mutate `self` without cloning it.
        let decisions = std::mem::take(&mut self.inner_h.last_decisions);
        for &(task, chosen) in &decisions {
            let Some(job) = ctx.jobs.get(&task.job) else {
                continue;
            };
            // Migration decisions move an already-placed task: detach
            // it first so the plan mirrors MLF-H's speculative state.
            plan.remove(task);
            // Candidates exactly as the RL phase generates them.
            let mut servers = std::mem::take(&mut self.scratch.servers);
            let mut ranked = std::mem::take(&mut self.scratch.ranked);
            Self::candidate_servers_into(
                &self.params,
                self.cfg.max_candidates,
                &plan,
                ctx,
                task,
                &self.blacklist,
                &mut ranked,
                &mut servers,
            );
            self.scratch.ranked = ranked;
            let action_idx = match servers.iter().position(|&s| s == chosen) {
                Some(i) => i,
                None => {
                    servers.push(chosen);
                    servers.len() - 1
                }
            };
            let mut feats = self.take_batch();
            for &s in &servers {
                candidate_features_into(
                    &plan,
                    job,
                    task,
                    Some(s),
                    s == chosen,
                    ctx.now,
                    &self.params,
                    &mut feats,
                );
            }
            candidate_features_into(
                &plan,
                job,
                task,
                None,
                false,
                ctx.now,
                &self.params,
                &mut feats,
            );
            if let Some(t) = self.tracer.as_deref() {
                t.add(obs::Counter::CandidatesScored, feats.rows() as u64);
                // The training substrate: every teacher decision goes
                // to the trace with its full candidate matrix, so an
                // offline dataset can be replayed from the JSONL file
                // (rl::DatasetBuilder). Built only when tracing is on.
                let round = self.rounds as u64;
                t.emit(|| obs::TraceEvent::DecisionExample {
                    round,
                    t: ctx.now.as_mins_f64(),
                    job: task.job.0,
                    task: task.idx as u32,
                    src: "imitation",
                    action: action_idx as u32,
                    dim: feats.dim() as u32,
                    rows: feats.rows() as u32,
                    feats: rl::encode_feats(&feats),
                });
            }
            self.imitation_buffer.push(Step {
                candidates: feats,
                action: action_idx,
            });
            servers.clear();
            self.scratch.servers = servers;
            // MLF-H already committed to this placement on its own
            // overlay; if the replay overlay still refuses (the host
            // failed mid-round), the features simply under-count it.
            if let Some(spec) = job.spec.tasks.get(task.idx as usize) {
                let _ = plan.place(task, chosen, spec.demand, spec.gpu_share);
            }
        }
        self.inner_h.last_decisions = decisions;
        // Bound the buffer (drop oldest, recycling their batches).
        const BUFFER_CAP: usize = 50_000;
        if self.imitation_buffer.len() > BUFFER_CAP {
            let excess = self.imitation_buffer.len() - BUFFER_CAP;
            let expired: Vec<Step> = self.imitation_buffer.drain(..excess).collect();
            for s in expired {
                self.recycle_batch(s.candidates);
            }
        }
        // Replay minibatches, resampled by index — the `Step`s (and
        // their feature batches) stay in the buffer uncloned.
        if self.cfg.online_training && !self.imitation_buffer.is_empty() {
            let tracer = self.tracer.clone();
            let _span = tracer.as_ref().map(|t| obs::span!(t, imitation_train));
            for _ in 0..4 {
                let n = 64.min(self.imitation_buffer.len());
                self.scratch.minibatch_idx.clear();
                for _ in 0..n {
                    let i = self.rng.index(self.imitation_buffer.len());
                    self.scratch.minibatch_idx.push(i);
                }
                self.trainer
                    .imitate_indices(&self.imitation_buffer, &self.scratch.minibatch_idx);
            }
        }
        actions
    }

    /// RL round: the shared overload round (the one MLF-H runs) with
    /// the policy choosing every destination. A "queue" choice parks a
    /// waiting task, and with it the task's whole gang, or leaves a
    /// victim where it is (MLF-H's no-thrash rule).
    fn rl_round(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let p = self.params;
        let tracer = self.tracer.clone();
        overload_round(ctx, &p, tracer.as_deref(), |plan, task, from| {
            self.decide(ctx, plan, task, from)
        })
        .actions
    }

    /// One policy decision for `task` on the speculative `plan`: the
    /// chosen host, or `None` for the queue. The step joins `pending`
    /// to be credited with the round's reward.
    fn decide(
        &mut self,
        ctx: &SchedulerContext<'_>,
        plan: &ClusterOverlay<'_>,
        task: TaskId,
        migration_from: Option<ServerId>,
    ) -> Option<ServerId> {
        let p = self.params;
        let job = ctx.jobs.get(&task.job)?;
        let mut servers = std::mem::take(&mut self.scratch.servers);
        let mut ranked = std::mem::take(&mut self.scratch.ranked);
        Self::candidate_servers_into(
            &self.params,
            self.cfg.max_candidates,
            plan,
            ctx,
            task,
            &self.blacklist,
            &mut ranked,
            &mut servers,
        );
        self.scratch.ranked = ranked;
        let rial = self
            .blacklist
            .select_host(plan, ctx.jobs, task, migration_from, &p);
        // RIAL may prefer a loaded server (communication affinity)
        // outside the least-loaded cap — offer it.
        if let Some(r) = rial {
            if !servers.contains(&r) {
                servers.push(r);
            }
        }
        let mut feats = self.take_batch();
        for &s in &servers {
            candidate_features_into(
                plan,
                job,
                task,
                Some(s),
                rial == Some(s),
                ctx.now,
                &p,
                &mut feats,
            );
        }
        candidate_features_into(
            plan,
            job,
            task,
            None,
            rial.is_none(),
            ctx.now,
            &p,
            &mut feats,
        );
        let choice = if self.cfg.explore {
            self.trainer.policy.sample(&feats, &mut self.rng)
        } else {
            self.trainer.policy.greedy(&feats)
        };
        let host = servers.get(choice).copied();
        if let Some(t) = self.tracer.as_deref() {
            t.add(obs::Counter::CandidatesScored, feats.rows() as u64);
            obs::event!(
                t,
                PolicyDecision {
                    t: ctx.now.as_mins_f64(),
                    job: task.job.0,
                    task: task.idx as u32,
                    candidates: feats.rows() as u32,
                    chosen: choice as u32,
                    queued: host.is_none(),
                }
            );
            let round = self.rounds as u64;
            t.emit(|| obs::TraceEvent::DecisionExample {
                round,
                t: ctx.now.as_mins_f64(),
                job: task.job.0,
                task: task.idx as u32,
                src: "rl",
                action: choice as u32,
                dim: feats.dim() as u32,
                rows: feats.rows() as u32,
                feats: rl::encode_feats(&feats),
            });
        }
        servers.clear();
        self.scratch.servers = servers;
        self.pending.push(Step {
            candidates: feats,
            action: choice,
        });
        host
    }
}

impl Scheduler for MlfRl {
    fn name(&self) -> &'static str {
        "MLF-RL"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let strikes = self.blacklist.observe(ctx.cluster);
        // Cloning the Arc keeps the span guard's borrow off `self`
        // (the round below takes `&mut self`).
        let tracer = self.tracer.clone();
        // Imitation rounds delegate to the inner MLF-H, whose own
        // blacklist observes the same cluster and reports the same
        // strikes — skip ours there to avoid double-counting.
        if let Some(t) = tracer.as_deref().filter(|_| !self.in_imitation_phase()) {
            self.blacklist
                .report_strikes(strikes, t, ctx.now.as_mins_f64());
        }
        let actions = if self.in_imitation_phase() {
            let _span = tracer.as_ref().map(|t| obs::span!(t, imitation_round));
            self.imitation_round(ctx)
        } else {
            let _span = tracer.as_ref().map(|t| obs::span!(t, rl_round));
            self.rl_round(ctx)
        };
        self.rounds += 1;
        actions
    }

    fn observe_reward(&mut self, reward: &RewardComponents) {
        // Eq. 7: weighted sum of the five objective components.
        let r = reward.weighted(&self.params.beta);
        if !self.cfg.online_training {
            // Frozen evaluation: close out the round's steps without
            // learning from them.
            while let Some(s) = self.pending.pop() {
                self.recycle_batch(s.candidates);
            }
            return;
        }
        // Close out the previous round's steps with this reward.
        for s in self.pending.drain(..) {
            self.episode.push((s, r));
        }
        // Train an episode every `train_interval` rounds' worth of
        // steps. The episode is borrowed in place (trainer and episode
        // are disjoint fields) and its batches recycled afterwards.
        if self.episode.len() >= self.cfg.train_interval {
            let ret = self.trainer.train_episode(&self.episode);
            self.convergence.record(ret);
            self.episodes_trained += 1;
            while let Some((s, _)) = self.episode.pop() {
                self.recycle_batch(s.candidates);
            }
        }
        // Continuous retraining: watch the online reward outside
        // imitation windows (the teacher's rounds would skew the fast
        // EMA) and open a fresh imitation window on drift.
        let imitating = self.in_imitation_phase();
        let mut trigger = None;
        if let Some(m) = self.drift_monitor.as_mut() {
            if !imitating && m.observe(r) {
                trigger = Some((m.short().unwrap_or(r), m.long().unwrap_or(r)));
            }
        }
        if let (Some((short, long)), Some(dcfg)) = (trigger, self.cfg.drift) {
            self.imitation_until = self.rounds + dcfg.retrain_rounds;
            self.retrains += 1;
            // The buffered teacher examples and the in-flight episode
            // predate the drift — training on them would pull the
            // policy back toward the old distribution.
            let stale: Vec<Step> = self.imitation_buffer.drain(..).collect();
            for s in stale {
                self.recycle_batch(s.candidates);
            }
            while let Some((s, _)) = self.episode.pop() {
                self.recycle_batch(s.candidates);
            }
            if let Some(t) = self.tracer.clone() {
                obs::event!(
                    t,
                    DriftRetrain {
                        round: self.rounds as u64,
                        short: short,
                        long: long,
                    }
                );
            }
        }
    }

    fn attach_tracer(&mut self, tracer: std::sync::Arc<obs::Tracer>) {
        // The imitation phase delegates whole rounds to the inner
        // MLF-H, which then emits the placement/migration events.
        self.inner_h.attach_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    fn export_state(&self) -> Option<String> {
        Some(state_to_json(&self.state()))
    }

    fn import_state(&mut self, state: &str) -> bool {
        match state_from_json::<MlfRlState>(state) {
            Some(st) => {
                self.restore_state(st);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterConfig, JobId, ResourceVec, Topology};
    use simcore::{SimDuration, SimTime};
    use workload::dag::{CommStructure, Dag};
    use workload::job::{JobSpec, StopPolicy, TaskSpec};
    use workload::{JobArena, JobState, LearningProfile, MlAlgorithm};

    fn cluster() -> Cluster {
        Cluster::new(&ClusterConfig {
            servers: 4,
            gpus_per_server: 2,
            gpu_capacity: 1.0,
            cpu_cores: 16.0,
            memory_gb: 128.0,
            nic_mbps: 1000.0,
            topology: Topology::default_flat(),
        })
    }

    fn job(id: u32, n: usize) -> JobState {
        let jid = JobId(id);
        let tasks = (0..n)
            .map(|i| TaskSpec {
                id: TaskId::new(jid, i as u16),
                partition_mb: 50.0,
                demand: ResourceVec::new(0.5, 2.0, 8.0, 50.0),
                gpu_share: 0.5,
                compute: SimDuration::from_secs(1),
                is_param_server: false,
            })
            .collect();
        let spec = JobSpec {
            id: jid,
            algorithm: MlAlgorithm::Mlp,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_hours(6),
            required_accuracy: 0.6,
            urgency: 5,
            max_iterations: 300,
            tasks,
            dag: Dag::sequential(n),
            comm: CommStructure::AllReduce,
            comm_mb: 60.0,
            model_mb: 50.0 * n as f64,
            train_data_mb: 300.0,
            curve: LearningProfile::new(2.0, 0.2, 0.01, 0.9),
            stop_policy: StopPolicy::MaxIterations,
            allow_demotion: true,
            predicted_runtime: SimDuration::from_hours(1),
            previously_run: true,
        };
        JobState::new(spec, SimTime::ZERO)
    }

    #[test]
    fn imitation_phase_mirrors_mlfh() {
        let c = cluster();
        let j = job(1, 3);
        let queue: Vec<TaskId> = (0..3).map(|i| TaskId::new(JobId(1), i)).collect();
        let jobs: JobArena = [(JobId(1), j)].into();
        let ctx = SchedulerContext {
            now: SimTime::from_mins(1),
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let mut rl = MlfRl::new(
            Params::default(),
            MlfRlConfig {
                imitation_rounds: 5,
                ..Default::default()
            },
        );
        let mut h = MlfH::new(Params::default());
        assert!(rl.in_imitation_phase());
        let a_rl = rl.schedule(&ctx);
        let a_h = h.schedule(&ctx);
        assert_eq!(a_rl, a_h);
    }

    #[test]
    fn switches_to_rl_after_budget() {
        let c = cluster();
        let j = job(1, 2);
        let queue: Vec<TaskId> = (0..2).map(|i| TaskId::new(JobId(1), i)).collect();
        let jobs: JobArena = [(JobId(1), j)].into();
        let mut rl = MlfRl::new(
            Params::default(),
            MlfRlConfig {
                imitation_rounds: 3,
                ..Default::default()
            },
        );
        for round in 0..5 {
            let ctx = SchedulerContext {
                now: SimTime::from_mins(round + 1),
                jobs: &jobs,
                cluster: &c,
                queue: &queue,
            };
            rl.schedule(&ctx);
            rl.observe_reward(&RewardComponents { g: [1.0; 5] });
        }
        assert!(!rl.in_imitation_phase());
    }

    #[test]
    fn rl_phase_emits_valid_actions() {
        let c = cluster();
        let j = job(1, 4);
        let queue: Vec<TaskId> = (0..4).map(|i| TaskId::new(JobId(1), i)).collect();
        let jobs: JobArena = [(JobId(1), j)].into();
        let mut rl = MlfRl::new(
            Params::default(),
            MlfRlConfig {
                imitation_rounds: 0,
                explore: false,
                ..Default::default()
            },
        );
        let ctx = SchedulerContext {
            now: SimTime::from_mins(1),
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = rl.schedule(&ctx);
        // Every emitted placement targets a queued task and an existing
        // server; no duplicates.
        let mut placed = Vec::new();
        for a in &actions {
            match a {
                Action::Place { task, server } => {
                    assert!(queue.contains(task));
                    assert!((server.0 as usize) < c.server_count());
                    assert!(!placed.contains(task));
                    placed.push(*task);
                }
                Action::Migrate { .. } | Action::Evict { .. } => {
                    panic!("no running tasks to migrate/evict: {a:?}")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn rewards_drive_training() {
        let c = cluster();
        let j = job(1, 2);
        let queue: Vec<TaskId> = (0..2).map(|i| TaskId::new(JobId(1), i)).collect();
        let jobs: JobArena = [(JobId(1), j)].into();
        let mut rl = MlfRl::new(
            Params::default(),
            MlfRlConfig {
                imitation_rounds: 0,
                train_interval: 4,
                ..Default::default()
            },
        );
        for round in 0..16 {
            let ctx = SchedulerContext {
                now: SimTime::from_mins(round + 1),
                jobs: &jobs,
                cluster: &c,
                queue: &queue,
            };
            rl.schedule(&ctx);
            rl.observe_reward(&RewardComponents { g: [0.5; 5] });
        }
        assert!(rl.episodes_trained >= 2, "{}", rl.episodes_trained);
    }

    #[test]
    fn frozen_policy_never_trains() {
        let c = cluster();
        let j = job(1, 2);
        let queue: Vec<TaskId> = (0..2).map(|i| TaskId::new(JobId(1), i)).collect();
        let jobs: JobArena = [(JobId(1), j)].into();
        let mut rl = MlfRl::new(
            Params::default(),
            MlfRlConfig {
                imitation_rounds: 0,
                train_interval: 2,
                online_training: false,
                explore: false,
                ..Default::default()
            },
        );
        for round in 0..12 {
            let ctx = SchedulerContext {
                now: SimTime::from_mins(round + 1),
                jobs: &jobs,
                cluster: &c,
                queue: &queue,
            };
            rl.schedule(&ctx);
            rl.observe_reward(&RewardComponents { g: [0.5; 5] });
        }
        assert_eq!(rl.episodes_trained, 0);
        assert!(rl.pending.is_empty(), "pending steps must still drain");
    }

    #[test]
    fn drift_opens_a_retraining_window() {
        let c = cluster();
        let j = job(1, 2);
        let queue: Vec<TaskId> = (0..2).map(|i| TaskId::new(JobId(1), i)).collect();
        let jobs: JobArena = [(JobId(1), j)].into();
        let mut rl = MlfRl::new(
            Params::default(),
            MlfRlConfig {
                imitation_rounds: 0,
                drift: Some(DriftRetrainConfig {
                    monitor: rl::DriftConfig {
                        short_decay: 0.5,
                        long_decay: 0.98,
                        threshold: 0.2,
                        warmup: 8,
                        cooldown: 50,
                    },
                    retrain_rounds: 10,
                }),
                ..Default::default()
            },
        );
        let drive = |rl: &mut MlfRl, rounds: u64, reward: f64, from: u64| {
            for round in 0..rounds {
                let ctx = SchedulerContext {
                    now: SimTime::from_mins(from + round + 1),
                    jobs: &jobs,
                    cluster: &c,
                    queue: &queue,
                };
                rl.schedule(&ctx);
                rl.observe_reward(&RewardComponents { g: [reward; 5] });
            }
        };
        drive(&mut rl, 40, 1.0, 0);
        assert_eq!(rl.retrains(), 0);
        assert!(!rl.in_imitation_phase());
        // Reward collapse → drift → a bounded imitation window opens.
        drive(&mut rl, 10, -1.0, 40);
        assert_eq!(rl.retrains(), 1);
        assert!(rl.in_imitation_phase());
        // The window closes again after retrain_rounds.
        drive(&mut rl, 15, 1.0, 50);
        assert!(!rl.in_imitation_phase());
    }

    #[test]
    fn traced_rounds_emit_decision_examples() {
        let c = cluster();
        let j = job(1, 2);
        let queue: Vec<TaskId> = (0..2).map(|i| TaskId::new(JobId(1), i)).collect();
        let jobs: JobArena = [(JobId(1), j)].into();
        let tracer = std::sync::Arc::new(
            obs::Tracer::from_config(&obs::TraceConfig::Ring { capacity: 256 }).unwrap(),
        );
        // One imitation round + one RL round, both traced.
        let mut rl = MlfRl::new(
            Params::default(),
            MlfRlConfig {
                imitation_rounds: 1,
                explore: false,
                ..Default::default()
            },
        );
        rl.attach_tracer(tracer.clone());
        for round in 0..2 {
            let ctx = SchedulerContext {
                now: SimTime::from_mins(round + 1),
                jobs: &jobs,
                cluster: &c,
                queue: &queue,
            };
            rl.schedule(&ctx);
            rl.observe_reward(&RewardComponents { g: [1.0; 5] });
        }
        let buffered = tracer.buffered();
        let mut srcs: Vec<&str> = buffered
            .iter()
            .filter_map(|e| match e {
                obs::TraceEvent::DecisionExample {
                    src,
                    dim,
                    rows,
                    feats,
                    action,
                    ..
                } => {
                    // Every example is internally consistent and replayable.
                    let batch = rl::decode_feats(feats, *dim as usize, *rows as usize)
                        .expect("feats decode");
                    assert_eq!(batch.dim(), FEATURE_DIM);
                    assert!((*action as usize) < *rows as usize);
                    Some(*src)
                }
                _ => None,
            })
            .collect();
        srcs.dedup();
        assert_eq!(srcs, vec!["imitation", "rl"], "one phase each: {srcs:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let c = cluster();
        let j = job(1, 4);
        let queue: Vec<TaskId> = (0..4).map(|i| TaskId::new(JobId(1), i)).collect();
        let jobs: JobArena = [(JobId(1), j)].into();
        let mk = || {
            MlfRl::new(
                Params::default(),
                MlfRlConfig {
                    imitation_rounds: 0,
                    seed: 99,
                    ..Default::default()
                },
            )
        };
        let mut a = mk();
        let mut b = mk();
        let ctx = SchedulerContext {
            now: SimTime::from_mins(1),
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        assert_eq!(a.schedule(&ctx), b.schedule(&ctx));
    }
}
