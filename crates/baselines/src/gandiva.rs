//! Gandiva \[55\] — FIFO + affinity packing + utilization migration.
//!
//! §2: "Gandiva uses first-in-first-out queuing. It defines the jobs
//! with the same number of GPU requirements as affinity jobs and tries
//! to put the affinity jobs to the same machine … to relieve the extra
//! load of an overloaded GPU, Gandiva moves the job with the lowest
//! GPU utilization to the GPU with the lowest utilization." Gandiva
//! handles *only* GPU overload (no CPU/mem/bandwidth awareness), and
//! its migrations ignore communication affinity — which is why it has
//! the highest bandwidth cost in Fig. 4g.

use crate::util::{least_loaded_host, place_in_order_gang, FULL};
use cluster::{ClusterView, ServerId, TaskId};
use mlfs::{Action, Scheduler, SchedulerContext};

/// The Gandiva scheduler.
#[derive(Debug, Clone)]
pub struct Gandiva {
    /// GPU utilization above which a GPU is overloaded (paper: "GPU
    /// utilization is higher than a threshold").
    pub gpu_threshold: f64,
}

impl Default for Gandiva {
    fn default() -> Self {
        Gandiva { gpu_threshold: 0.9 }
    }
}

impl Gandiva {
    /// New Gandiva scheduler with the default threshold.
    pub fn new() -> Self {
        Gandiva::default()
    }

    /// Preferred server for a task: one already hosting tasks of jobs
    /// with the same GPU-count requirement (affinity), else the least
    /// loaded feasible server.
    fn affinity_host(
        &self,
        plan: &impl ClusterView,
        ctx: &SchedulerContext<'_>,
        task: TaskId,
    ) -> Option<ServerId> {
        let my_gpus = ctx.jobs[&task.job].spec.worker_count();
        let spec = &ctx.jobs[&task.job].spec.tasks[task.idx as usize];
        // Scan servers for an affinity match that still fits.
        let mut best: Option<ServerId> = None;
        for s in (0..plan.server_count()).map(|i| plan.server(ServerId(i as u32))) {
            if !s.can_host(&spec.demand, spec.gpu_share, FULL) {
                continue;
            }
            let has_affinity = s.tasks().any(|(t, _)| {
                ctx.jobs
                    .get(&t.job)
                    .map(|j| j.spec.worker_count() == my_gpus)
                    .unwrap_or(false)
            });
            if has_affinity {
                best = Some(s.id);
                break;
            }
        }
        best.or_else(|| least_loaded_host(plan, ctx, task))
    }
}

impl Scheduler for Gandiva {
    fn name(&self) -> &'static str {
        "Gandiva"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        // FIFO gang placement with affinity packing.
        let (mut actions, mut plan) = place_in_order_gang(ctx, ctx.queue, |plan, task| {
            self.affinity_host(plan, ctx, task)
        });

        // GPU-overload migration: move the lowest-GPU-utilization task
        // from each overloaded GPU to the globally least-loaded GPU's
        // server. (GPU-only — other resources are ignored, as in the
        // paper's description.)
        for sid in 0..plan.server_count() {
            let sid = ServerId(sid as u32);
            let over: Vec<usize> = plan.server(sid).overloaded_gpus(self.gpu_threshold);
            for g in over {
                let tasks = plan.server(sid).tasks_on_gpu(g);
                // Lowest GPU share first.
                let victim = tasks.into_iter().min_by(|a, b| {
                    let ga = plan
                        .server(sid)
                        .placement(*a)
                        .map(|p| p.gpu_share)
                        .unwrap_or(0.0);
                    let gb = plan
                        .server(sid)
                        .placement(*b)
                        .map(|p| p.gpu_share)
                        .unwrap_or(0.0);
                    ga.partial_cmp(&gb).unwrap_or(std::cmp::Ordering::Equal)
                });
                let Some(victim) = victim else { continue };
                // Destination: server containing the least-loaded GPU.
                let dest = (0..plan.server_count())
                    .map(|i| plan.server(ServerId(i as u32)))
                    .map(|s| (s.gpu_load(s.least_loaded_gpu()), s.id))
                    .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(_, s)| s);
                if let Some(dest) = dest {
                    // Same-server moves are GPU rebalances (free);
                    // cross-server moves pay migration traffic. Both
                    // are Gandiva behaviour.
                    plan.migrate(victim, dest).ok();
                    actions.push(Action::Migrate {
                        task: victim,
                        to: dest,
                    });
                }
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{JobId, ResourceVec};
    use simcore::SimTime;
    use workload::{JobArena, TaskRunState};

    #[test]
    fn packs_affinity_jobs_together() {
        let mut c = crate::util::tests::test_cluster(4);
        // An existing 2-GPU job sits on server 3.
        let mut resident = crate::util::tests::test_job(1, 2);
        c.place(
            TaskId::new(JobId(1), 0),
            ServerId(3),
            resident.spec.tasks[0].demand,
            resident.spec.tasks[0].gpu_share,
        )
        .unwrap();
        resident.task_states[0] = TaskRunState::Running {
            server: ServerId(3),
            gpu: 0,
        };
        // Another 2-GPU job arrives (affinity match), and an 8-GPU-class
        // single-task job for contrast.
        let newcomer = crate::util::tests::test_job(2, 2);
        let jobs: JobArena = [(JobId(1), resident), (JobId(2), newcomer)].into();
        let queue = vec![TaskId::new(JobId(2), 0)];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = Gandiva::new().schedule(&ctx);
        assert!(
            actions.contains(&Action::Place {
                task: TaskId::new(JobId(2), 0),
                server: ServerId(3)
            }),
            "{actions:?}"
        );
    }

    #[test]
    fn migrates_off_overloaded_gpu() {
        let mut c = crate::util::tests::test_cluster(2);
        let mut job = crate::util::tests::test_job(1, 3);
        // Stack all three tasks on server 0, GPU 0 → 1.5 load > 0.9.
        for i in 0..3 {
            c.place_on_gpu(
                TaskId::new(JobId(1), i),
                ServerId(0),
                ResourceVec::new(0.5, 2.0, 8.0, 50.0),
                0.5,
                0,
            )
            .unwrap();
            job.task_states[i as usize] = TaskRunState::Running {
                server: ServerId(0),
                gpu: 0,
            };
        }
        let jobs: JobArena = [(JobId(1), job)].into();
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            cluster: &c,
            queue: &[],
        };
        let actions = Gandiva::new().schedule(&ctx);
        assert!(
            actions.iter().any(|a| matches!(a, Action::Migrate { .. })),
            "{actions:?}"
        );
    }
}
