//! Tiresias \[21\] — 2D least-attained-service with Gittins-style
//! promotion and preemption.
//!
//! §2: "for jobs without prior knowledge of its task running time, the
//! least-attained-service principle gives higher priorities to the
//! jobs that received less service time; for jobs with known task
//! running time distribution, the priority is determined by how likely
//! the job can complete within the next service epoch."
//!
//! Attained service is `Σ (GPU share × run time)`; jobs with a runtime
//! prediction (`previously_run`) rank by remaining runtime instead
//! (shortest-remaining-first ≈ highest completion likelihood in the
//! next epoch). Under contention, a waiting job whose priority beats a
//! running job's by a margin triggers preemption of that job's tasks —
//! Tiresias' defining mechanism.

use crate::util::{gang_place, least_loaded_host, FULL};
use cluster::{ClusterOverlay, JobId, TaskId};
use mlfs::gang::group_by_job;
use mlfs::{state_from_json, state_to_json, Action, Scheduler, SchedulerContext};
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use std::collections::BTreeMap;
use workload::{JobState, TaskRunState};

/// Evolving Tiresias state carried across a service restart: the
/// attained-service ledger that drives every ranking decision.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TiresiasState {
    attained: BTreeMap<JobId, f64>,
    last_round: Option<SimTime>,
}

/// Attained GPU service per job, maintained across rounds.
#[derive(Debug, Clone, Default)]
pub struct Tiresias {
    /// gpu-share-seconds of service each job has attained.
    attained: BTreeMap<JobId, f64>,
    last_round: Option<SimTime>,
    /// Max preemptions per round (Tiresias bounds preemption churn).
    preemption_budget: usize,
}

impl Tiresias {
    /// New Tiresias scheduler.
    pub fn new() -> Self {
        Tiresias {
            attained: BTreeMap::new(),
            last_round: None,
            preemption_budget: 2,
        }
    }

    /// Lower = runs first: discretized two-dimensional LAS. Attained
    /// GPU service is quantized into priority queues (Tiresias'
    /// MLQ), FIFO within a queue. Jobs with a known runtime
    /// distribution get a Gittins-style promotion when they are
    /// likely to finish within one more service epoch — Tiresias has
    /// *no* full SRPT oracle.
    fn rank(&self, job: &JobState) -> f64 {
        let attained = self.attained.get(&job.spec.id).copied().unwrap_or(0.0);
        // Queue thresholds in GPU-seconds (powers of ten).
        let queue = attained.max(1.0).log10().floor().max(0.0);
        if job.spec.previously_run && job.remaining_runtime().as_secs_f64() < 600.0 {
            // Likely to complete in the next epoch: top queue.
            return -1.0;
        }
        queue
    }

    fn update_attained(&mut self, ctx: &SchedulerContext<'_>) {
        let now = ctx.now;
        if let Some(prev) = self.last_round {
            let dt = now.since(prev).as_secs_f64();
            for job in ctx.active_jobs() {
                let share: f64 = job
                    .task_states
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, TaskRunState::Running { .. }))
                    .map(|(i, _)| job.spec.tasks[i].gpu_share)
                    .sum();
                if share > 0.0 {
                    *self.attained.entry(job.spec.id).or_insert(0.0) += share * dt;
                }
            }
        }
        self.last_round = Some(now);
    }
}

impl Scheduler for Tiresias {
    fn name(&self) -> &'static str {
        "Tiresias"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        self.update_attained(ctx);
        let mut actions = Vec::new();
        let mut plan = ClusterOverlay::new(ctx.cluster, FULL);
        let least_loaded = |plan: &ClusterOverlay<'_>, task| least_loaded_host(plan, ctx, task);

        // Waiting jobs in rank order (ascending — lower rank first).
        let mut queue = ctx.queue.to_vec();
        let mut waiting: Vec<(f64, JobId, &[TaskId])> = group_by_job(&mut queue, |t| t.job)
            .filter_map(|tasks| {
                let job = ctx.jobs.get(&tasks.first()?.job)?;
                Some((self.rank(job), job.spec.id, tasks))
            })
            .collect();
        waiting.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });

        let mut budget = self.preemption_budget;
        let mut evicted_jobs: Vec<JobId> = Vec::new();
        for (my_rank, job, tasks) in waiting {
            if gang_place(&mut plan, ctx, tasks, least_loaded, &mut actions) {
                continue;
            }
            // No room: consider preempting the worst-ranked running job
            // if it ranks much worse than this job (gang preemption).
            if budget == 0 {
                continue;
            }
            let victim_job = ctx
                .active_jobs()
                .filter(|j| {
                    j.spec.id != job && j.running_tasks() > 0 && !evicted_jobs.contains(&j.spec.id)
                })
                .max_by(|a, b| {
                    self.rank(a)
                        .partial_cmp(&self.rank(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|j| j.spec.id);
            if let Some(vj) = victim_job {
                if self.rank(&ctx.jobs[&vj]) > my_rank * 2.0 + 1.0 {
                    evicted_jobs.push(vj);
                    for (i, st) in ctx.jobs[&vj].task_states.iter().enumerate() {
                        if matches!(st, TaskRunState::Running { .. }) {
                            let t = TaskId::new(vj, i as u16);
                            plan.remove(t);
                            actions.push(Action::Evict { task: t });
                        }
                    }
                    budget -= 1;
                    // Retry this gang once after the eviction.
                    gang_place(&mut plan, ctx, tasks, least_loaded, &mut actions);
                }
            }
        }
        actions
    }

    fn export_state(&self) -> Option<String> {
        Some(state_to_json(&TiresiasState {
            attained: self.attained.clone(),
            last_round: self.last_round,
        }))
    }

    fn import_state(&mut self, state: &str) -> bool {
        match state_from_json::<TiresiasState>(state) {
            Some(st) => {
                self.attained = st.attained;
                self.last_round = st.last_round;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ResourceVec, ServerId};
    use workload::JobArena;

    #[test]
    fn least_attained_service_runs_first() {
        let c = crate::util::tests::test_cluster(4);
        let mut veteran = crate::util::tests::test_job(1, 1);
        let mut rookie = crate::util::tests::test_job(2, 1);
        veteran.spec.previously_run = false;
        rookie.spec.previously_run = false;
        let jobs: JobArena = [(JobId(1), veteran), (JobId(2), rookie)].into();
        let queue = vec![TaskId::new(JobId(1), 0), TaskId::new(JobId(2), 0)];
        let mut t = Tiresias::new();
        // Pre-load attained service for the veteran.
        t.attained.insert(JobId(1), 10_000.0);
        let ctx = SchedulerContext {
            now: SimTime::from_mins(10),
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = t.schedule(&ctx);
        let first = actions
            .iter()
            .find_map(|a| match a {
                Action::Place { task, .. } => Some(*task),
                _ => None,
            })
            .unwrap();
        assert_eq!(first.job, JobId(2));
    }

    #[test]
    fn known_runtime_jobs_rank_by_remaining_time() {
        let c = crate::util::tests::test_cluster(4);
        let mut long = crate::util::tests::test_job(1, 1);
        let mut short = crate::util::tests::test_job(2, 1);
        long.spec.predicted_runtime = simcore::SimDuration::from_hours(10);
        short.spec.predicted_runtime = simcore::SimDuration::from_mins(5);
        let jobs: JobArena = [(JobId(1), long), (JobId(2), short)].into();
        let queue = vec![TaskId::new(JobId(1), 0), TaskId::new(JobId(2), 0)];
        let mut t = Tiresias::new();
        let ctx = SchedulerContext {
            now: SimTime::from_mins(1),
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = t.schedule(&ctx);
        let first = actions
            .iter()
            .find_map(|a| match a {
                Action::Place { task, .. } => Some(*task),
                _ => None,
            })
            .unwrap();
        assert_eq!(first.job, JobId(2));
    }

    #[test]
    fn preempts_much_worse_job_under_contention() {
        // One tiny server fully held by a long job; a short job waits.
        let mut c = cluster::Cluster::new(&cluster::ClusterConfig {
            servers: 1,
            gpus_per_server: 1,
            gpu_capacity: 1.0,
            cpu_cores: 8.0,
            memory_gb: 64.0,
            nic_mbps: 1000.0,
            topology: cluster::Topology::default_flat(),
        });
        let mut long = crate::util::tests::test_job(1, 1);
        long.spec.predicted_runtime = simcore::SimDuration::from_hours(20);
        long.spec.tasks[0].demand = ResourceVec::new(1.0, 4.0, 16.0, 100.0);
        long.spec.tasks[0].gpu_share = 1.0;
        c.place(
            TaskId::new(JobId(1), 0),
            ServerId(0),
            ResourceVec::new(1.0, 4.0, 16.0, 100.0),
            1.0,
        )
        .unwrap();
        long.task_states[0] = TaskRunState::Running {
            server: ServerId(0),
            gpu: 0,
        };
        let mut short = crate::util::tests::test_job(2, 1);
        short.spec.predicted_runtime = simcore::SimDuration::from_mins(2);
        short.spec.tasks[0].demand = ResourceVec::new(1.0, 4.0, 16.0, 100.0);
        short.spec.tasks[0].gpu_share = 1.0;
        let jobs: JobArena = [(JobId(1), long), (JobId(2), short)].into();
        let queue = vec![TaskId::new(JobId(2), 0)];
        let mut t = Tiresias::new();
        let ctx = SchedulerContext {
            now: SimTime::from_mins(1),
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = t.schedule(&ctx);
        assert!(
            actions.contains(&Action::Evict {
                task: TaskId::new(JobId(1), 0)
            }),
            "{actions:?}"
        );
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Place { task, .. } if task.job == JobId(2))),
            "{actions:?}"
        );
    }
}
