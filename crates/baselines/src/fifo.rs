//! Plain FIFO placement — the building block for Gandiva and a
//! sanity-check baseline.

use crate::util::place_in_order;
use mlfs::{Action, Scheduler, SchedulerContext};

/// First-in-first-out scheduler: queue order is arrival order (the
/// engine appends on arrival), placement is least-loaded-feasible.
#[derive(Debug, Clone, Default)]
pub struct Fifo;

impl Fifo {
    /// New FIFO scheduler.
    pub fn new() -> Self {
        Fifo
    }
}

impl Scheduler for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        place_in_order(ctx, ctx.queue).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{JobId, TaskId};
    use simcore::SimTime;
    use workload::JobArena;

    #[test]
    fn preserves_queue_order() {
        let c = crate::util::tests::test_cluster(4);
        let j1 = crate::util::tests::test_job(1, 2);
        let j2 = crate::util::tests::test_job(2, 2);
        let jobs: JobArena = [(JobId(1), j1), (JobId(2), j2)].into();
        // Queue with job 2 first — FIFO must respect that.
        let queue = vec![
            TaskId::new(JobId(2), 0),
            TaskId::new(JobId(2), 1),
            TaskId::new(JobId(1), 0),
            TaskId::new(JobId(1), 1),
        ];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = Fifo::new().schedule(&ctx);
        let placed: Vec<TaskId> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Place { task, .. } => Some(*task),
                _ => None,
            })
            .collect();
        assert_eq!(placed, queue);
    }
}
