//! MLF-H: the ML-feature-based heuristic task scheduler (§3.3).
//!
//! Each round:
//! 1. **Overload handling** (§3.3.3, when enabled): for every
//!    overloaded server, repeatedly pick a migration victim via the
//!    ideal-virtual-task method and *virtually* move it to the queue
//!    (the real move happens only once a destination is chosen, "in
//!    order to save the migration overhead").
//! 2. **Queue ordering** (§3.3.1): all queued tasks plus the virtual
//!    migration candidates are ordered by the Eq. 6 priority.
//! 3. **Placement** (§3.3.2): tasks are assigned one by one to the
//!    server closest to the ideal virtual host, onto its least-loaded
//!    GPU, until no underloaded server can host anything more.
//!    Migration candidates that found no destination stay where they
//!    are (a deviation, see DESIGN.md).
//!
//! The round itself is [`crate::gang::overload_round`], shared with
//! MLF-RL; MLF-H supplies only the host choice.

use crate::blacklist::ServerBlacklist;
use crate::gang::overload_round;
use crate::params::Params;
use crate::priority::job_task_priorities;
use crate::scheduler::{state_from_json, state_to_json, Action, Scheduler, SchedulerContext};
use cluster::{ServerId, TaskId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Evolving MLF-H state carried across a service restart
/// (`Scheduler::export_state`): everything but the static `Params`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct MlfHState {
    last_decisions: Vec<(TaskId, ServerId)>,
    blacklist: ServerBlacklist,
}

/// The MLF-H heuristic scheduler.
#[derive(Debug, Clone)]
pub struct MlfH {
    /// Tunables and ablation switches.
    pub params: Params,
    /// Recorded (for MLF-RL imitation): the placements made last
    /// round, in decision order, as (task, chosen server) pairs.
    pub last_decisions: Vec<(TaskId, ServerId)>,
    /// Crash history: recently-failed servers are avoided with
    /// exponential backoff (soft — ignored when nothing else fits).
    blacklist: ServerBlacklist,
    /// Telemetry hub (attached by the engine; `None` in bare use).
    tracer: Option<std::sync::Arc<obs::Tracer>>,
}

impl MlfH {
    /// New MLF-H with the given parameters.
    pub fn new(params: Params) -> Self {
        MlfH {
            params,
            last_decisions: Vec::new(),
            blacklist: ServerBlacklist::default(),
            tracer: None,
        }
    }

    /// Evolving state for `Scheduler::export_state`.
    pub(crate) fn state(&self) -> MlfHState {
        MlfHState {
            last_decisions: self.last_decisions.clone(),
            blacklist: self.blacklist.clone(),
        }
    }

    /// Adopt state captured by [`MlfH::state`].
    pub(crate) fn restore_state(&mut self, st: MlfHState) {
        self.last_decisions = st.last_decisions;
        self.blacklist = st.blacklist;
    }

    /// Priorities for every live task, per job (Eqs. 2–6).
    pub fn all_priorities(ctx: &SchedulerContext<'_>, params: &Params) -> BTreeMap<TaskId, f64> {
        let mut out = BTreeMap::new();
        for job in ctx.active_jobs() {
            let pr = job_task_priorities(job, ctx.now, params);
            for (idx, p) in pr.into_iter().enumerate() {
                out.insert(TaskId::new(job.spec.id, idx as u16), p);
            }
        }
        out
    }

    /// One round: the shared overload round with the RIAL host choice
    /// (steered off recently-crashed servers). MLF-RL's imitation
    /// phase acts through it too.
    fn plan(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        // Cloning the Arc (when attached) keeps the span guard's
        // borrow off `self`, which the round below mutates.
        let tracer = self.tracer.clone();
        let _plan_span = tracer.as_ref().map(|t| obs::span!(t, mlfh_plan));
        let strikes = self.blacklist.observe(ctx.cluster);
        if let Some(t) = tracer.as_deref() {
            self.blacklist
                .report_strikes(strikes, t, ctx.now.as_mins_f64());
        }
        let (p, bl) = (self.params, &self.blacklist);
        let round = overload_round(ctx, &p, tracer.as_deref(), |plan, task, from| {
            bl.select_host(plan, ctx.jobs, task, from, &p)
        });
        self.last_decisions = round.decisions;
        round.actions
    }
}

impl Scheduler for MlfH {
    fn name(&self) -> &'static str {
        "MLF-H"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        self.plan(ctx)
    }

    fn attach_tracer(&mut self, tracer: std::sync::Arc<obs::Tracer>) {
        self.tracer = Some(tracer);
    }

    fn export_state(&self) -> Option<String> {
        Some(state_to_json(&self.state()))
    }

    fn import_state(&mut self, state: &str) -> bool {
        match state_from_json::<MlfHState>(state) {
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
    use workload::{JobArena, JobState, LearningProfile, MlAlgorithm, TaskRunState};

    fn cluster(servers: usize) -> Cluster {
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

    fn job(id: u32, n: usize, urgency: u8, demand: ResourceVec, gpu_share: f64) -> JobState {
        let jid = JobId(id);
        let tasks = (0..n)
            .map(|i| TaskSpec {
                id: TaskId::new(jid, i as u16),
                partition_mb: 100.0,
                demand,
                gpu_share,
                compute: SimDuration::from_secs(1),
                is_param_server: false,
            })
            .collect();
        let spec = JobSpec {
            id: jid,
            algorithm: MlAlgorithm::Mlp,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_hours(8),
            required_accuracy: 0.6,
            urgency,
            max_iterations: 500,
            tasks,
            dag: Dag::sequential(n),
            comm: CommStructure::AllReduce,
            comm_mb: 60.0,
            model_mb: 100.0 * n as f64,
            train_data_mb: 300.0,
            curve: LearningProfile::new(2.0, 0.2, 0.01, 0.9),
            stop_policy: StopPolicy::MaxIterations,
            allow_demotion: true,
            predicted_runtime: SimDuration::from_hours(1),
            previously_run: true,
        };
        JobState::new(spec, SimTime::ZERO)
    }

    fn ctx_parts(jobs: Vec<JobState>) -> (JobArena, Vec<TaskId>) {
        let mut queue = Vec::new();
        let map: JobArena = jobs
            .into_iter()
            .map(|j| {
                for (i, st) in j.task_states.iter().enumerate() {
                    if matches!(st, TaskRunState::Waiting { .. }) {
                        queue.push(TaskId::new(j.spec.id, i as u16));
                    }
                }
                (j.spec.id, j)
            })
            .collect();
        (map, queue)
    }

    #[test]
    fn places_queued_tasks_on_empty_cluster() {
        let c = cluster(4);
        let (jobs, queue) = ctx_parts(vec![job(
            1,
            3,
            5,
            ResourceVec::new(0.5, 2.0, 8.0, 50.0),
            0.5,
        )]);
        let mut s = MlfH::new(Params::default());
        let ctx = SchedulerContext {
            now: SimTime::from_mins(1),
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = s.schedule(&ctx);
        let places = actions
            .iter()
            .filter(|a| matches!(a, Action::Place { .. }))
            .count();
        assert_eq!(places, 3, "{actions:?}");
    }

    #[test]
    fn urgent_job_places_first_under_scarcity() {
        // One server with room for one task only; two single-task jobs
        // with different urgency.
        let mut c = cluster(1);
        // Pre-fill (without overloading any GPU) so only one more task
        // fits under h_r = 0.9: GPU budget is 1.8, and 0.85 + 2×0.6
        // exceeds it.
        c.place(
            TaskId::new(JobId(90), 0),
            ServerId(0),
            ResourceVec::new(0.85, 7.0, 40.0, 400.0),
            0.85,
        )
        .unwrap();
        let meek = job(1, 1, 1, ResourceVec::new(0.6, 3.0, 20.0, 200.0), 0.6);
        let urgent = job(2, 1, 10, ResourceVec::new(0.6, 3.0, 20.0, 200.0), 0.6);
        let (mut jobs, queue) = ctx_parts(vec![meek, urgent]);
        jobs.insert(
            JobId(90),
            job(90, 1, 1, ResourceVec::new(0.85, 7.0, 40.0, 400.0), 0.85),
        );
        let mut s = MlfH::new(Params::default());
        let ctx = SchedulerContext {
            now: SimTime::from_mins(1),
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = s.schedule(&ctx);
        let placed: Vec<TaskId> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Place { task, .. } => Some(*task),
                _ => None,
            })
            .collect();
        assert_eq!(placed, vec![TaskId::new(JobId(2), 0)], "{actions:?}");
    }

    #[test]
    fn overloaded_server_sheds_load() {
        let mut c = cluster(2);
        // Overload server 0's memory with three tasks of job 1.
        let j = job(1, 3, 5, ResourceVec::new(0.3, 2.0, 45.0, 30.0), 0.3);
        for i in 0..3 {
            c.place(
                TaskId::new(JobId(1), i),
                ServerId(0),
                ResourceVec::new(0.3, 2.0, 45.0, 30.0),
                0.3,
            )
            .unwrap();
        }
        let mut jj = j;
        for i in 0..3 {
            jj.task_states[i] = TaskRunState::Running {
                server: ServerId(0),
                gpu: 0,
            };
        }
        let (jobs, queue) = ctx_parts(vec![]);
        let mut jobs = jobs;
        jobs.insert(JobId(1), jj);
        assert!(c.server(ServerId(0)).is_overloaded(0.9)); // 135/128 GB
        let mut s = MlfH::new(Params::default());
        let ctx = SchedulerContext {
            now: SimTime::from_mins(1),
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = s.schedule(&ctx);
        // At least one migration to server 1 must be proposed.
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Migrate { to, .. } if *to == ServerId(1))),
            "{actions:?}"
        );
    }

    #[test]
    fn migration_disabled_by_ablation() {
        let mut c = cluster(2);
        for i in 0..3 {
            c.place(
                TaskId::new(JobId(1), i),
                ServerId(0),
                ResourceVec::new(0.3, 2.0, 45.0, 30.0),
                0.3,
            )
            .unwrap();
        }
        let mut jj = job(1, 3, 5, ResourceVec::new(0.3, 2.0, 45.0, 30.0), 0.3);
        for i in 0..3 {
            jj.task_states[i] = TaskRunState::Running {
                server: ServerId(0),
                gpu: 0,
            };
        }
        let mut jobs = JobArena::new();
        jobs.insert(JobId(1), jj);
        let mut s = MlfH::new(Params {
            use_migration: false,
            ..Params::default()
        });
        let ctx = SchedulerContext {
            now: SimTime::from_mins(1),
            jobs: &jobs,
            cluster: &c,
            queue: &[],
        };
        let actions = s.schedule(&ctx);
        assert!(
            actions
                .iter()
                .all(|a| !matches!(a, Action::Migrate { .. } | Action::Evict { .. })),
            "{actions:?}"
        );
    }

    #[test]
    fn no_capacity_leaves_queue_untouched() {
        let mut c = cluster(1);
        c.place(
            TaskId::new(JobId(90), 0),
            ServerId(0),
            ResourceVec::new(1.7, 14.0, 110.0, 850.0),
            0.85,
        )
        .unwrap();
        let (mut jobs, queue) = ctx_parts(vec![job(
            1,
            2,
            5,
            ResourceVec::new(0.5, 4.0, 30.0, 300.0),
            0.5,
        )]);
        jobs.insert(
            JobId(90),
            job(90, 1, 1, ResourceVec::new(1.7, 14.0, 110.0, 850.0), 0.85),
        );
        let mut s = MlfH::new(Params::default());
        let ctx = SchedulerContext {
            now: SimTime::from_mins(1),
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = s.schedule(&ctx);
        assert!(
            actions.iter().all(|a| !matches!(a, Action::Place { .. })),
            "{actions:?}"
        );
    }

    #[test]
    fn spreads_load_across_servers() {
        // Eight equal tasks over four servers: the ideal-host method
        // balances rather than stacking everything on one box.
        let c = cluster(4);
        let (jobs, queue) = ctx_parts(vec![job(
            1,
            8,
            5,
            ResourceVec::new(0.4, 3.0, 20.0, 100.0),
            0.4,
        )]);
        let mut s = MlfH::new(Params::default());
        let ctx = SchedulerContext {
            now: SimTime::from_mins(1),
            jobs: &jobs,
            cluster: &c,
            queue: &queue,
        };
        let actions = s.schedule(&ctx);
        let mut counts: BTreeMap<ServerId, usize> = BTreeMap::new();
        for a in &actions {
            if let Action::Place { server, .. } = a {
                *counts.entry(*server).or_default() += 1;
            }
        }
        assert_eq!(counts.values().sum::<usize>(), 8);
        // Affinity pulls chain neighbours together, but nothing should
        // exceed the capacity-driven bound of ~4 tasks (bw: 100 of
        // 1000 MB/s each → 9 fit; mem: 20 of 128 → 5 fit under 0.9...
        // memory caps a server at 5).
        assert!(counts.values().all(|&c| c <= 5), "{counts:?}");
        assert!(counts.len() >= 2, "all tasks stacked: {counts:?}");
    }
}
