//! Placement helpers shared by the baselines. The gang mechanics
//! themselves are `mlfs::gang`'s, the routine every scheduler shares.

use cluster::{ClusterOverlay, ClusterView, ServerId, TaskId};
use mlfs::gang::{group_by_job, place_gang};
use mlfs::{Action, SchedulerContext};

/// Overload threshold the baselines admit tasks against. They have no
/// tunable `h_r`; full capacity is the natural admission limit.
pub const FULL: f64 = 1.0;

/// The least-loaded (by overload degree) server that can host the
/// task at [`FULL`] capacity, or `None`.
pub fn least_loaded_host(
    plan: &impl ClusterView,
    ctx: &SchedulerContext<'_>,
    task: TaskId,
) -> Option<ServerId> {
    let spec = ctx.jobs.get(&task.job)?.spec.tasks.get(task.idx as usize)?;
    (0..plan.server_count())
        .map(|i| plan.server(ServerId(i as u32)))
        .filter(|s| s.can_host(&spec.demand, spec.gpu_share, FULL))
        .map(|s| (s.overload_degree(), s.id))
        .min_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        })
        .map(|(_, s)| s)
}

/// Gang-place `tasks` (one job's) on `plan` with `pick`, appending a
/// Place action per task on success. On failure nothing is placed and
/// `false` is returned.
pub fn gang_place(
    plan: &mut ClusterOverlay<'_>,
    ctx: &SchedulerContext<'_>,
    tasks: &[TaskId],
    pick: impl FnMut(&ClusterOverlay<'_>, TaskId) -> Option<ServerId>,
    actions: &mut Vec<Action>,
) -> bool {
    let Some(placed) = place_gang(plan, ctx.jobs, tasks, pick) else {
        return false;
    };
    actions.extend(
        placed
            .into_iter()
            .map(|(task, server)| Action::Place { task, server }),
    );
    true
}

/// Place queue tasks in the given order with **gang semantics**: all
/// queued tasks of a job are placed atomically or not at all
/// (production DL schedulers — Borg, Tiresias, Gandiva — gang-schedule
/// a job's workers; partial placements would hold resources without
/// making progress). Job order is the order of first appearance in
/// `order`; within a job, tasks keep their `order` positions.
/// `pick_host` chooses the server for each task (least-loaded by
/// default; Gandiva passes its affinity variant). Returns the actions
/// and the speculative plan they leave.
pub fn place_in_order_gang<'c>(
    ctx: &SchedulerContext<'c>,
    order: &[TaskId],
    mut pick_host: impl FnMut(&ClusterOverlay<'_>, TaskId) -> Option<ServerId>,
) -> (Vec<Action>, ClusterOverlay<'c>) {
    let mut plan = ClusterOverlay::new(ctx.cluster, FULL);
    let mut actions = Vec::new();
    let mut order = order.to_vec();
    for tasks in group_by_job(&mut order, |t| t.job) {
        gang_place(&mut plan, ctx, tasks, &mut pick_host, &mut actions);
    }
    (actions, plan)
}

/// [`place_in_order_gang`] with the default least-loaded host picker.
pub fn place_in_order<'c>(
    ctx: &SchedulerContext<'c>,
    order: &[TaskId],
) -> (Vec<Action>, ClusterOverlay<'c>) {
    place_in_order_gang(ctx, order, |plan, task| least_loaded_host(plan, ctx, task))
}

/// Total GPU share consumed by a job's currently running tasks.
pub fn running_gpu_share(ctx: &SchedulerContext<'_>, job: cluster::JobId) -> f64 {
    let j = &ctx.jobs[&job];
    j.task_states
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, workload::TaskRunState::Running { .. }))
        .map(|(i, _)| j.spec.tasks[i].gpu_share)
        .sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cluster::{Cluster, ClusterConfig, JobId, ResourceVec, Topology};
    use simcore::{SimDuration, SimTime};
    use workload::dag::{CommStructure, Dag};
    use workload::job::{JobSpec, StopPolicy, TaskSpec};
    use workload::{JobArena, JobState, LearningProfile, MlAlgorithm};

    pub(crate) fn test_cluster(servers: usize) -> Cluster {
        Cluster::new(&ClusterConfig {
            servers,
            gpus_per_server: 2,
            gpu_capacity: 1.0,
            cpu_cores: 16.0,
            memory_gb: 128.0,
            nic_mbps: 1000.0,
            topology: Topology::default_flat(),
        })
    }

    pub(crate) fn test_job(id: u32, n: usize) -> JobState {
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
    fn least_loaded_prefers_emptier_server() {
        let mut c = test_cluster(2);
        c.place(
            TaskId::new(JobId(9), 0),
            ServerId(0),
            ResourceVec::new(1.0, 8.0, 60.0, 400.0),
            1.0,
        )
        .unwrap();
        let job = test_job(1, 1);
        let jobs: JobArena = [(JobId(1), job)].into();
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            cluster: &c,
            queue: &[],
        };
        assert_eq!(
            least_loaded_host(&c, &ctx, TaskId::new(JobId(1), 0)),
            Some(ServerId(1))
        );
    }

    #[test]
    fn gang_placement_is_all_or_nothing() {
        let c = test_cluster(1);
        // A 16-task job cannot fully fit 2 GPUs (0.5 share each → 4
        // task slots): gang semantics place *nothing*.
        let big = test_job(1, 16);
        // A 4-task job fits exactly: all 4 place.
        let small = test_job(2, 4);
        let jobs: JobArena = [(JobId(1), big), (JobId(2), small)].into();
        let queue: Vec<TaskId> = (0..16)
            .map(|i| TaskId::new(JobId(1), i))
            .chain((0..4).map(|i| TaskId::new(JobId(2), i)))
            .collect();
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let (actions, plan) = place_in_order(&ctx, &queue);
        let placed: Vec<TaskId> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Place { task, .. } => Some(*task),
                _ => None,
            })
            .collect();
        assert_eq!(placed.len(), 4, "{actions:?}");
        assert!(placed.iter().all(|t| t.job == JobId(2)), "{placed:?}");
        assert!(!plan.server(ServerId(0)).is_overloaded(1.01));
    }
}
