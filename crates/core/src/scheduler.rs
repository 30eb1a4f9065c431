//! The scheduler interface shared by MLFS and every baseline.
//!
//! The simulation engine invokes [`Scheduler::schedule`] once per
//! scheduling round ("the job scheduler runs every minute", §4.1) with
//! a read-only [`SchedulerContext`]; the scheduler returns a list of
//! [`Action`]s which the engine validates and applies. RL schedulers
//! additionally receive the per-round reward via
//! [`Scheduler::observe_reward`].

use cluster::{Cluster, JobId, ServerId, TaskId};
use simcore::SimTime;
use workload::{JobArena, JobState, StopPolicy, StopReason};

/// Read-only view handed to a scheduler each round.
pub struct SchedulerContext<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// All jobs that have arrived and not been garbage-collected, in
    /// the SoA arena (ascending-id iteration order, same as the
    /// `BTreeMap` it replaced).
    pub jobs: &'a JobArena,
    /// The live cluster state.
    pub cluster: &'a Cluster,
    /// Tasks currently waiting in the queue (unordered; schedulers
    /// impose their own order).
    pub queue: &'a [TaskId],
}

impl<'a> SchedulerContext<'a> {
    /// Look up the job owning `task` (`None` once it has been
    /// garbage-collected from the arena).
    pub fn job_of(&self, task: TaskId) -> Option<&JobState> {
        self.jobs.get(&task.job)
    }

    /// Jobs with at least one task running or waiting.
    pub fn active_jobs(&self) -> impl Iterator<Item = &JobState> {
        self.jobs.values().filter(|j| !j.is_finished())
    }
}

/// A scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Place a waiting task on a server (its least-loaded GPU).
    Place {
        /// The waiting task.
        task: TaskId,
        /// Destination server.
        server: ServerId,
    },
    /// Move a running task to another server (pays migration traffic).
    Migrate {
        /// The running task.
        task: TaskId,
        /// Destination server.
        to: ServerId,
    },
    /// Preempt a running task back into the queue.
    Evict {
        /// The running task.
        task: TaskId,
    },
    /// Stop a job (MLF-C load control or a baseline's pause-equivalent).
    StopJob {
        /// The job to stop.
        job: JobId,
        /// Why it stops.
        reason: StopReason,
    },
    /// Change a job's effective stop policy (MLF-C demotion).
    SetPolicy {
        /// The affected job.
        job: JobId,
        /// The new effective policy.
        policy: StopPolicy,
    },
}

/// Per-round values of the five objective components of Eq. 1,
/// normalised by the engine to comparable scales. RL schedulers
/// combine them into a scalar reward (Eq. 7 uses the β weights; the
/// JCT-only RL baseline uses `g[0]` alone).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RewardComponents {
    /// `g1` (inverse average JCT), `g2` (deadline satisfaction),
    /// `g3` (inverse bandwidth cost), `g4` (accuracy satisfaction),
    /// `g5` (average accuracy).
    pub g: [f64; 5],
}

impl RewardComponents {
    /// Weighted sum `Σ βᵢ·gᵢ` (Eq. 7).
    pub fn weighted(&self, beta: &[f64; 5]) -> f64 {
        self.g.iter().zip(beta).map(|(g, b)| g * b).sum()
    }
}

/// A cluster job scheduler.
///
/// `Send` is a supertrait so a boxed scheduler can move onto the
/// service front-end's worker thread (`mlfs-service`); every scheduler
/// is plain owned data, so the bound costs nothing.
pub trait Scheduler: Send {
    /// Short display name (used in figure legends).
    fn name(&self) -> &'static str;

    /// Produce this round's actions.
    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action>;

    /// Streaming entry point: produce this round's actions given the
    /// jobs admitted since the previous round (`arrived`, admission
    /// order). The engine always calls this form; the default
    /// delegates to [`Scheduler::schedule`], so batch schedulers are
    /// bit-identical whether a trace is replayed or streamed in live
    /// through a front-end (`crates/service`). Schedulers that keep
    /// per-arrival state (e.g. incremental admission bookkeeping)
    /// override it.
    fn schedule_stream(&mut self, ctx: &SchedulerContext<'_>, _arrived: &[JobId]) -> Vec<Action> {
        self.schedule(ctx)
    }

    /// Objective components earned since the previous round (Eq. 7's
    /// ingredients). Ignored by non-RL schedulers.
    fn observe_reward(&mut self, _reward: &RewardComponents) {}

    /// Attach the run's telemetry hub (see the `obs` crate). The
    /// engine calls this once before the first round; schedulers that
    /// emit trace events or bump counters store the handle. Default:
    /// ignore it (baselines are not instrumented).
    fn attach_tracer(&mut self, _tracer: std::sync::Arc<obs::Tracer>) {}

    /// Serialize the scheduler's *evolving* internal state (attained
    /// service, policy weights, RNG streams, blacklists, …) as an
    /// opaque JSON string. Static configuration is *not* captured — a
    /// restarted scheduler is reconstructed with the same constructor
    /// arguments and then handed this string. `None` (the default)
    /// means the scheduler is stateless across rounds beyond what the
    /// engine snapshot already carries, so a fresh instance resumes
    /// bit-identically on its own.
    ///
    /// Together with [`Scheduler::import_state`] this is the seam the
    /// `mlfs-service` durability layer uses to make crash recovery
    /// bit-identical for stateful schedulers.
    fn export_state(&self) -> Option<String> {
        None
    }

    /// Restore state produced by [`Scheduler::export_state`] on a
    /// freshly constructed scheduler. Returns `false` when the string
    /// cannot be parsed (the scheduler must then be left unchanged so
    /// callers can fall back to an older snapshot). The default
    /// accepts anything and restores nothing, matching the stateless
    /// `export_state` default.
    fn import_state(&mut self, _state: &str) -> bool {
        true
    }
}

/// Render a `serde`-serializable state struct as the JSON string
/// [`Scheduler::export_state`] returns.
pub fn state_to_json<T: serde::Serialize>(state: &T) -> String {
    serde::text::render(state, None)
}

/// Parse a [`Scheduler::export_state`] string back into its state
/// struct; `None` on malformed input (callers report `false` from
/// [`Scheduler::import_state`] without mutating anything).
pub fn state_from_json<T: serde::Deserialize>(s: &str) -> Option<T> {
    let v = serde::text::parse(s).ok()?;
    T::deserialize_value(&v).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scheduler that places every queued task on server 0 —
    /// exercises the trait object plumbing.
    struct Greedy;

    impl Scheduler for Greedy {
        fn name(&self) -> &'static str {
            "greedy"
        }
        fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
            ctx.queue
                .iter()
                .map(|&task| Action::Place {
                    task,
                    server: ServerId(0),
                })
                .collect()
        }
    }

    #[test]
    fn trait_objects_work() {
        let cluster = Cluster::new(&cluster::ClusterConfig {
            servers: 1,
            gpus_per_server: 1,
            gpu_capacity: 1.0,
            cpu_cores: 8.0,
            memory_gb: 64.0,
            nic_mbps: 1000.0,
            topology: cluster::Topology::default_flat(),
        });
        let jobs = JobArena::new();
        let queue = vec![TaskId::new(JobId(0), 0)];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            cluster: &cluster,
            queue: &queue,
        };
        let mut s: Box<dyn Scheduler> = Box::new(Greedy);
        let actions = s.schedule(&ctx);
        assert_eq!(actions.len(), 1);
        assert_eq!(s.name(), "greedy");
        s.observe_reward(&RewardComponents::default()); // default no-op
    }
}
