//! SLAQ \[58\] — quality-driven scheduling.
//!
//! "SLAQ predicts the loss reduction and runtime … and then chooses
//! the job with the maximum loss reduction per unit runtime" (§2).
//! Each round, jobs are ranked by the predicted loss reduction of
//! their next iteration divided by the iteration's runtime; the
//! best-scoring job's tasks are placed first. Pure quality focus — no
//! deadline, no JCT objective, no overload handling — which is why the
//! paper finds SLAQ's JCT the worst of the field.

use crate::util::place_in_order;
use cluster::TaskId;
use mlfs::{Action, Scheduler, SchedulerContext};
use std::collections::BTreeMap;

/// The SLAQ scheduler.
#[derive(Debug, Clone, Default)]
pub struct Slaq;

impl Slaq {
    /// New SLAQ scheduler.
    pub fn new() -> Self {
        Slaq
    }

    /// Loss reduction per unit runtime of the job's next iteration.
    fn score(job: &workload::JobState) -> f64 {
        let next = job.iterations + 1.0;
        let dl = job.spec.curve.loss_at(job.iterations) - job.spec.curve.loss_at(next);
        let iter_secs = job.spec.compute_critical_path().as_secs_f64().max(1e-6);
        dl / iter_secs
    }
}

impl Scheduler for Slaq {
    fn name(&self) -> &'static str {
        "SLAQ"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let mut scores: BTreeMap<cluster::JobId, f64> = BTreeMap::new();
        for job in ctx.active_jobs() {
            scores.insert(job.spec.id, Self::score(job));
        }
        // SLAQ reallocates *every epoch*: when a waiting job promises
        // more loss reduction per unit time than a running one, the
        // running job loses its resources. Converged jobs therefore
        // starve — the paper's explanation for SLAQ's worst-of-field
        // JCT ("SLAQ only aims to maximize the accuracy improvement
        // across jobs rather than JCT").
        let mut actions = Vec::new();
        let best_waiting = ctx
            .queue
            .iter()
            .filter_map(|t| scores.get(&t.job))
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        if best_waiting > f64::NEG_INFINITY {
            // SLAQ bounds per-epoch reallocation (it adjusts a few
            // cores at a time, not the whole cluster): evict at most
            // two of the lowest-scoring running jobs per round.
            let mut victims: Vec<(f64, cluster::JobId)> = ctx
                .active_jobs()
                .filter(|j| j.running_tasks() > 0)
                .map(|j| (scores.get(&j.spec.id).copied().unwrap_or(0.0), j.spec.id))
                .filter(|(s, _)| *s * 2.0 < best_waiting)
                .collect();
            victims.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            for (_, vj) in victims.into_iter().take(2) {
                for (i, st) in ctx.jobs[&vj].task_states.iter().enumerate() {
                    if matches!(st, workload::TaskRunState::Running { .. }) {
                        actions.push(Action::Evict {
                            task: TaskId::new(vj, i as u16),
                        });
                    }
                }
            }
        }
        let mut order: Vec<TaskId> = ctx.queue.to_vec();
        order.sort_by(|a, b| {
            let sa = scores.get(&a.job).copied().unwrap_or(0.0);
            let sb = scores.get(&b.job).copied().unwrap_or(0.0);
            sb.partial_cmp(&sa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(b))
        });
        actions.extend(place_in_order(ctx, &order).0);
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::JobId;
    use simcore::SimTime;
    use workload::JobArena;

    #[test]
    fn fresh_job_outranks_converged_job() {
        let c = crate::util::tests::test_cluster(4);
        let fresh = crate::util::tests::test_job(1, 1);
        let mut converged = crate::util::tests::test_job(2, 1);
        converged.advance(280.0); // deep into diminishing returns
        let jobs: JobArena = [(JobId(1), fresh), (JobId(2), converged)].into();
        let queue = vec![TaskId::new(JobId(2), 0), TaskId::new(JobId(1), 0)];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = Slaq::new().schedule(&ctx);
        let first = actions
            .iter()
            .find_map(|a| match a {
                Action::Place { task, .. } => Some(*task),
                _ => None,
            })
            .unwrap();
        assert_eq!(first.job, JobId(1));
    }
}
