//! Graphene \[20\] — packing- and dependency-aware DAG scheduling.
//!
//! §2: "Within one job, Graphene tends to first assign the available
//! resources to the 'troublesome' tasks (the tasks \[that\] have more
//! dependent tasks and tough-to-pack resource demands) and then assign
//! the remaining resources … For a set of jobs, Graphene determines
//! the order of multiple jobs based on weighted scores calculated
//! based on multiple job scheduling objectives including average job
//! completion time, cluster throughput and fairness."
//!
//! Our task score combines transitive dependent count with a demand
//! "toughness" (max normalized resource dimension); the job order
//! blends shortest-remaining-time (JCT), total demand (throughput) and
//! attained-share deficit (fairness). No ML features and no accuracy
//! objective — the paper's stated gap.

use crate::util::place_in_order;
use cluster::{JobId, TaskId};
use mlfs::{Action, Scheduler, SchedulerContext};
use std::collections::BTreeMap;
use workload::JobState;

/// The Graphene scheduler.
#[derive(Debug, Clone, Default)]
pub struct Graphene;

impl Graphene {
    /// New Graphene scheduler.
    pub fn new() -> Self {
        Graphene
    }

    /// Job-level weighted score (higher runs first). Graphene blends
    /// JCT, throughput and fairness objectives, but it is a scheduler
    /// for *general* DAG jobs — it has no ML runtime oracle, so the
    /// JCT term uses the DAG's size as a proxy (small jobs first
    /// helps average JCT), not predicted remaining time.
    fn job_score(job: &JobState) -> f64 {
        // JCT proxy: smaller DAGs first (no runtime oracle).
        let jct = 1.0 / (1.0 + job.spec.task_count() as f64);
        // Throughput term: average per-task packing toughness (kept
        // normalized — total demand would convoy behind giant jobs).
        let toughness = job.spec.tasks.iter().map(|t| t.gpu_share).sum::<f64>()
            / job.spec.task_count().max(1) as f64;
        // Fairness term: jobs with nothing running get a boost.
        let fairness = if job.running_tasks() == 0 { 1.0 } else { 0.0 };
        0.5 * jct + 0.2 * toughness + 0.3 * fairness
    }

    /// Task-level troublesomeness within its job, from precomputed
    /// per-job descendant counts (recomputing the transitive closure
    /// per task per round is quadratic and dominated decision time).
    fn task_score(job: &JobState, desc: &[usize], idx: usize) -> f64 {
        if idx >= job.spec.dag.len() {
            // Parameter server: schedule early (everyone depends on it).
            return f64::MAX / 2.0;
        }
        let deps = desc[idx] as f64;
        let demand = &job.spec.tasks[idx].demand;
        let toughness = demand.0.iter().cloned().fold(0.0, f64::max);
        deps + toughness
    }
}

impl Scheduler for Graphene {
    fn name(&self) -> &'static str {
        "Graphene"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let mut job_scores: BTreeMap<JobId, f64> = BTreeMap::new();
        let mut desc_cache: BTreeMap<JobId, Vec<usize>> = BTreeMap::new();
        for job in ctx.active_jobs() {
            job_scores.insert(job.spec.id, Self::job_score(job));
            desc_cache.insert(job.spec.id, job.spec.dag.descendant_counts());
        }
        let mut order: Vec<TaskId> = ctx.queue.to_vec();
        order.sort_by(|a, b| {
            let ja = job_scores.get(&a.job).copied().unwrap_or(0.0);
            let jb = job_scores.get(&b.job).copied().unwrap_or(0.0);
            jb.partial_cmp(&ja)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    let ta =
                        Self::task_score(&ctx.jobs[&a.job], &desc_cache[&a.job], a.idx as usize);
                    let tb =
                        Self::task_score(&ctx.jobs[&b.job], &desc_cache[&b.job], b.idx as usize);
                    tb.partial_cmp(&ta).unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.cmp(b))
        });
        place_in_order(ctx, &order).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use workload::JobArena;

    #[test]
    fn troublesome_tasks_first_within_a_job() {
        let c = crate::util::tests::test_cluster(4);
        let job = crate::util::tests::test_job(1, 4); // chain 0→1→2→3
        let jobs: JobArena = [(JobId(1), job)].into();
        // Queue in reverse order; Graphene must re-order by dependents.
        let queue: Vec<TaskId> = (0..4).rev().map(|i| TaskId::new(JobId(1), i)).collect();
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = Graphene::new().schedule(&ctx);
        let placed: Vec<u16> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Place { task, .. } => Some(task.idx),
                _ => None,
            })
            .collect();
        assert_eq!(placed, vec![0, 1, 2, 3]);
    }

    #[test]
    fn shorter_jobs_outrank_longer_ones() {
        let c = crate::util::tests::test_cluster(4);
        let mut short = crate::util::tests::test_job(1, 1);
        let mut long = crate::util::tests::test_job(2, 1);
        short.spec.predicted_runtime = simcore::SimDuration::from_mins(5);
        long.spec.predicted_runtime = simcore::SimDuration::from_hours(10);
        let jobs: JobArena = [(JobId(1), short), (JobId(2), long)].into();
        let queue = vec![TaskId::new(JobId(2), 0), TaskId::new(JobId(1), 0)];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = Graphene::new().schedule(&ctx);
        let first = actions
            .iter()
            .find_map(|a| match a {
                Action::Place { task, .. } => Some(task.job),
                _ => None,
            })
            .unwrap();
        assert_eq!(first, JobId(1));
    }
}
