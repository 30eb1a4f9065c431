//! "RL" — Mirhoseini-style RL device placement \[39\].
//!
//! §2/§4.1: "Mirhoseini et al. applied RL in job scheduling in a GPU
//! cluster to minimize the average JCT. The scheduler scans all tasks
//! and then maps the tasks to the appropriate GPUs." Crucially, per
//! §3.4, previous RL schedulers "do not aim to improve accuracy or
//! consider ML features" — so this baseline:
//!
//! * featurises candidates with computation/server information only
//!   (no iteration importance, no loss reduction, no partition size,
//!   no urgency);
//! * trains on the JCT component `g1` of the reward alone;
//! * starts exploring immediately (no MLF-H imitation bootstrap).

use crate::util::{gang_place, FULL};
use cluster::{ClusterOverlay, ClusterView, Resource, ServerId, TaskId};
use mlfs::gang::group_by_job;
use mlfs::{Action, RewardComponents, Scheduler, SchedulerContext};
use rl::{FeatureBatch, ReinforceTrainer, ScoringPolicy, Step, TrainerConfig};
use simcore::SimRng;
use workload::JobState;

/// Feature dimensionality: 6 task dims + 7 server dims.
const DIM: usize = 13;

fn squash(x: f64) -> f64 {
    let x = x.max(0.0);
    x / (1.0 + x)
}

fn features_into(
    cluster: &impl ClusterView,
    job: &JobState,
    task: TaskId,
    server: Option<ServerId>,
    now: simcore::SimTime,
    out: &mut FeatureBatch,
) {
    let t = &job.spec.tasks[task.idx as usize];
    let row = out.push_row();
    row[0] = squash(job.remaining_runtime().as_hours_f64());
    row[1] = squash(job.task_waiting_time(task.idx as usize, now).as_hours_f64());
    row[2] = t.gpu_share;
    row[3] = squash(t.demand.get(Resource::Cpu) / 8.0);
    row[4] = squash(t.demand.get(Resource::Memory) / 32.0);
    row[5] = squash(t.demand.get(Resource::NetBw) / 250.0);
    match server {
        Some(sid) => {
            let srv = cluster.server(sid);
            let u = srv.utilization();
            row[6] = u.get(Resource::GpuCompute);
            row[7] = u.get(Resource::Cpu);
            row[8] = u.get(Resource::Memory);
            row[9] = u.get(Resource::NetBw);
            row[10] = srv.gpu_utilization(srv.least_loaded_gpu());
            row[11] = if srv.can_host(&t.demand, t.gpu_share, FULL) {
                0.0
            } else {
                1.0
            };
            row[12] = 0.0;
        }
        // Queue option: dims 6..12 stay zero, sentinel flag set.
        None => row[12] = 1.0,
    }
}

/// The JCT-only RL placement baseline.
pub struct RlPlacer {
    trainer: ReinforceTrainer,
    rng: SimRng,
    pending: Vec<Step>,
    episode: Vec<(Step, f64)>,
    /// Candidate-set cap (as in MLF-RL, for bounded decision cost).
    pub max_candidates: usize,
    /// Rounds per training episode.
    pub train_interval: usize,
    /// Sample (explore) vs greedy action selection.
    pub explore: bool,
}

impl RlPlacer {
    /// New RL placement baseline.
    pub fn new(seed: u64) -> Self {
        let mut rng = SimRng::new(seed ^ 0x5EED_BA5E);
        let policy = ScoringPolicy::new(DIM, &[32, 16], &mut rng);
        RlPlacer {
            trainer: ReinforceTrainer::new(policy, TrainerConfig::default()),
            rng,
            pending: Vec::new(),
            episode: Vec::new(),
            max_candidates: 12,
            train_interval: 8,
            explore: true,
        }
    }

    /// Snapshot the policy (for pre-training transfer).
    pub fn export_policy(&self) -> rl::ScoringPolicy {
        self.trainer.policy.clone()
    }

    /// Replace the policy with a pre-trained one.
    pub fn import_policy(&mut self, policy: rl::ScoringPolicy) {
        self.trainer.policy = policy;
    }

    /// One policy decision for `task` among the least-loaded feasible
    /// servers: the chosen host, or `None` for the queue. The step
    /// joins `pending` to be credited with the round's reward.
    fn decide(
        &mut self,
        ctx: &SchedulerContext<'_>,
        plan: &ClusterOverlay<'_>,
        task: TaskId,
    ) -> Option<ServerId> {
        let job = ctx.jobs.get(&task.job)?;
        let spec = job.spec.tasks.get(task.idx as usize)?;
        let mut servers: Vec<(f64, ServerId)> = (0..plan.server_count())
            .map(|i| plan.server(ServerId(i as u32)))
            .filter(|s| s.can_host(&spec.demand, spec.gpu_share, FULL))
            .map(|s| (s.overload_degree(), s.id))
            .collect();
        servers.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let servers: Vec<ServerId> = servers
            .into_iter()
            .take(self.max_candidates)
            .map(|(_, s)| s)
            .collect();
        let mut feats = FeatureBatch::with_capacity(DIM, servers.len() + 1);
        for &s in &servers {
            features_into(plan, job, task, Some(s), ctx.now, &mut feats);
        }
        features_into(plan, job, task, None, ctx.now, &mut feats);
        let choice = if self.explore {
            self.trainer.policy.sample(&feats, &mut self.rng)
        } else {
            self.trainer.policy.greedy(&feats)
        };
        self.pending.push(Step {
            candidates: feats,
            action: choice,
        });
        servers.get(choice).copied()
    }
}

impl Scheduler for RlPlacer {
    fn name(&self) -> &'static str {
        "RL"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut plan = ClusterOverlay::new(ctx.cluster, FULL);
        // "Scans all tasks" in queue order, but with gang semantics: if
        // the policy parks any task of a job in the queue, the whole
        // job stays queued this round (DL workers are gang-scheduled).
        let mut queue = ctx.queue.to_vec();
        for tasks in group_by_job(&mut queue, |t| t.job) {
            gang_place(
                &mut plan,
                ctx,
                tasks,
                |plan, task| self.decide(ctx, plan, task),
                &mut actions,
            );
        }
        actions
    }

    fn observe_reward(&mut self, reward: &RewardComponents) {
        // JCT objective only.
        let r = reward.g[0];
        for s in self.pending.drain(..) {
            self.episode.push((s, r));
        }
        if self.episode.len() >= self.train_interval {
            let ep: Vec<(Step, f64)> = self.episode.drain(..).collect();
            self.trainer.train_episode(&ep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::JobId;
    use simcore::SimTime;
    use workload::JobArena;

    #[test]
    fn emits_valid_placements_and_trains() {
        let c = crate::util::tests::test_cluster(3);
        let job = crate::util::tests::test_job(1, 4);
        let queue: Vec<TaskId> = (0..4).map(|i| TaskId::new(JobId(1), i)).collect();
        let jobs: JobArena = [(JobId(1), job)].into();
        let mut s = RlPlacer::new(3);
        s.train_interval = 2;
        for round in 0..4 {
            let ctx = SchedulerContext {
                now: SimTime::from_mins(round + 1),
                jobs: &jobs,
                cluster: &c,
                queue: &queue,
            };
            let actions = s.schedule(&ctx);
            for a in &actions {
                match a {
                    Action::Place { task, server } => {
                        assert!(queue.contains(task));
                        assert!((server.0 as usize) < c.server_count());
                    }
                    other => panic!("unexpected action {other:?}"),
                }
            }
            s.observe_reward(&RewardComponents {
                g: [0.3, 0.0, 0.0, 0.0, 0.0],
            });
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let c = crate::util::tests::test_cluster(3);
        let job = crate::util::tests::test_job(1, 3);
        let queue: Vec<TaskId> = (0..3).map(|i| TaskId::new(JobId(1), i)).collect();
        let jobs: JobArena = [(JobId(1), job)].into();
        let ctx = SchedulerContext {
            now: SimTime::from_mins(1),
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let a = RlPlacer::new(11).schedule(&ctx);
        let b = RlPlacer::new(11).schedule(&ctx);
        assert_eq!(a, b);
    }
}
