//! "TensorFlow" — the Borg-style fair scheduler \[53\].
//!
//! "TensorFlow uses the Borg resource manager that aims to achieve
//! fairness of resource allocation among different jobs" (§2). We
//! implement max-min fair sharing over GPU allocation: each round,
//! queued tasks are ordered by their job's current GPU share
//! (ascending — the job holding the least runs first), breaking ties
//! by arrival. No ML features, no deadline awareness, no overload
//! handling — exactly the gaps Figs. 4–5 expose.

use crate::util::{place_in_order, running_gpu_share};
use cluster::TaskId;
use mlfs::{Action, Scheduler, SchedulerContext};

/// Borg-style fair scheduler (the paper's "TensorFlow" line).
#[derive(Debug, Clone, Default)]
pub struct BorgFair;

impl BorgFair {
    /// New fair scheduler.
    pub fn new() -> Self {
        BorgFair
    }
}

impl Scheduler for BorgFair {
    fn name(&self) -> &'static str {
        "TensorFlow"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let mut order: Vec<TaskId> = ctx.queue.to_vec();
        order.sort_by(|a, b| {
            let sa = running_gpu_share(ctx, a.job);
            let sb = running_gpu_share(ctx, b.job);
            sa.partial_cmp(&sb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    ctx.jobs[&a.job]
                        .spec
                        .arrival
                        .cmp(&ctx.jobs[&b.job].spec.arrival)
                })
                .then_with(|| a.cmp(b))
        });
        place_in_order(ctx, &order).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{JobId, ServerId};
    use simcore::SimTime;
    use workload::{JobArena, TaskRunState};

    #[test]
    fn starved_job_goes_first() {
        let mut c = crate::util::tests::test_cluster(4);
        let mut j1 = crate::util::tests::test_job(1, 2);
        let j2 = crate::util::tests::test_job(2, 2);
        // Job 1 already runs its task 0.
        c.place(
            TaskId::new(JobId(1), 0),
            ServerId(0),
            j1.spec.tasks[0].demand,
            j1.spec.tasks[0].gpu_share,
        )
        .unwrap();
        j1.task_states[0] = TaskRunState::Running {
            server: ServerId(0),
            gpu: 0,
        };
        let jobs: JobArena = [(JobId(1), j1), (JobId(2), j2)].into();
        // Job 1's remaining task queued before job 2's tasks.
        let queue = vec![
            TaskId::new(JobId(1), 1),
            TaskId::new(JobId(2), 0),
            TaskId::new(JobId(2), 1),
        ];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = BorgFair::new().schedule(&ctx);
        let first = actions
            .iter()
            .find_map(|a| match a {
                Action::Place { task, .. } => Some(*task),
                _ => None,
            })
            .unwrap();
        // Fairness puts job 2 (zero share) ahead of job 1's second task.
        assert_eq!(first.job, JobId(2));
    }
}
