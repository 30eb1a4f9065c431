//! The discrete-event simulation engine.
//!
//! Time advances in scheduler rounds ("the job scheduler runs every
//! minute", §4.1). Between rounds the fluid progress model runs with
//! *exact* sub-round completion events: when a job will finish before
//! the next round, the engine advances precisely to that instant,
//! frees its resources, and recomputes the surviving jobs' rates
//! (freed GPUs can speed co-located tasks up). Deadline crossings are
//! interpolated the same way, so "accuracy by deadline" is exact under
//! the fluid model.
//!
//! The engine validates every scheduler action; invalid actions are
//! counted (`RunMetrics::invalid_actions`) and skipped rather than
//! corrupting state. Scheduler decision time is measured around each
//! `schedule` call with a monotonic wall clock (Fig. 4h).
//!
//! # Two interchangeable engines
//!
//! The world-advancement loop exists twice, selected by
//! [`SimConfig::engine`]:
//!
//! * [`EngineMode::Naive`] — the reference implementation: every
//!   sub-step recomputes every unfinished job's rate and scans every
//!   job slot. O(jobs) per sub-step, trivially correct, kept verbatim
//!   as the ground truth the fast engine is checked against.
//! * [`EngineMode::EventDriven`] (default) — a calendar of
//!   next-interesting-times. Arrivals come from the sorted pending
//!   list, deadline crossings from a [`simcore::EventQueue`], and
//!   completion candidates from an O(running) scan over the set of
//!   jobs that hold placed tasks, using per-window cached rates
//!   (invalidated only for jobs co-located with a mid-window
//!   completion — `job_rate` is a pure function of placements and
//!   per-server GPU load, so every other cached value is still
//!   bit-exact). Idle jobs accrue waiting time in one lazy batch per
//!   window (integer-millisecond addition is associative, so the batch
//!   telescopes to the very sum the naive loop computes).
//!
//! Both engines produce **bit-identical** `RunMetrics` for every
//! scheduler; `engine_determinism` in the bench suite proves it for
//! all ten figure schedulers and the in-crate tests cover straggler
//! and fault configurations. Scheduler invocation stays round-aligned
//! in both modes — the calendar only accelerates the world *between*
//! rounds and skips quiescent stretches.

use crate::progress::{job_rate, JobRate, ProgressModel};
use crate::reward::{components, WindowStats};
use cluster::{Cluster, ClusterConfig, JobId, ServerId, TaskId};
use metrics::{FaultRecord, JobRecord, RunMetrics};
use mlfs::placement::migration_state_mb;
use mlfs::{Action, Scheduler, SchedulerContext};
use serde::{Deserialize, Serialize};
use simcore::{EventQueue, SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant; // lint:allow(cfg-std-time) reason="wall-time decision-latency metrics only; never feeds simulated time or scheduling state"
use workload::{JobArena, JobSpec, JobState, StopReason, TaskRunState};

/// Straggler injection (the paper's §3.3.3 "future work" extension).
#[derive(Debug, Clone, Copy)]
pub struct StragglerConfig {
    /// Probability per running task per simulated hour of becoming a
    /// straggler.
    pub probability_per_hour: f64,
    /// Rate multiplier applied to a job with a straggling task.
    pub slowdown: f64,
    /// Replicate stragglers: a replica takes over one round later
    /// (charging one state transfer), ending the slowdown.
    pub replicate: bool,
}

/// One trace-driven server failure.
#[derive(Debug, Clone, Copy)]
pub struct FaultEvent {
    /// When the server crashes.
    pub at: SimTime,
    /// Which server crashes.
    pub server: ServerId,
    /// How long it stays down before recovering.
    pub down_for: SimDuration,
}

/// Fault injection: a seeded server crash/recovery process plus
/// checkpointed task recovery. On a crash every task on the server is
/// evicted and re-enqueued, and each affected job rolls back to its
/// last checkpoint boundary (the work since then is lost and charged
/// to `RunMetrics::lost_gpu_hours`).
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Mean time between failures per server, in simulated hours
    /// (memoryless: each up server crashes with probability
    /// `tick/MTBF` per round). `<= 0` disables the random process —
    /// only `schedule` events fire.
    pub mtbf_hours: f64,
    /// Mean time to recovery in hours for randomly crashed servers
    /// (exponential holdoff, at least one round). `<= 0` means one
    /// round of downtime.
    pub mttr_hours: f64,
    /// Trace-driven failures applied in addition to the random
    /// process (sorted internally by time).
    pub schedule: Vec<FaultEvent>,
    /// Checkpoint interval in whole iterations: a crashed job resumes
    /// from the last multiple of this. `0` behaves as `1` (per-
    /// iteration checkpointing — nothing is ever lost but the
    /// eviction itself).
    pub checkpoint_iters: u64,
}

/// Which world-advancement loop to run (see the module docs). The
/// two modes are bit-identical in every `RunMetrics` field except the
/// wall-clock observability ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Reference engine: O(jobs) scans every sub-step and every round.
    Naive,
    /// Calendar-driven engine: O(running + changes) per sub-step.
    #[default]
    EventDriven,
}

/// What [`Simulation::step`] left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More rounds are due: active jobs or pending arrivals remain.
    Continue,
    /// No active jobs and no pending arrivals. The simulation is
    /// quiescent, not dead — [`Simulation::inject_job`] followed by
    /// another `step` resumes it.
    Drained,
    /// The `max_time` horizon was crossed; the world was advanced to
    /// the horizon one last time.
    Horizon,
}

/// A serializable image of the full engine state at a round boundary.
///
/// Produced by [`Simulation::snapshot`], consumed by
/// [`Simulation::restore`]. Together with the (non-serialized)
/// [`SimConfig`] it captures everything a resumed run needs to stay
/// bit-identical to the uninterrupted one: job states, queue order,
/// the unadmitted arrival tail, both RNG streams, window/reward
/// accumulators, fault bookkeeping and the deterministic telemetry
/// counters. RNG states travel as `Vec<u64>` (fixed-size arrays are
/// outside the vendored serde subset).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimSnapshot {
    /// Simulated clock at the snapshot.
    pub now: SimTime,
    /// Start of the current inter-round window (`last` in the loop).
    pub last: SimTime,
    /// Whether [`Simulation::begin`] already ran.
    pub begun: bool,
    /// Every job slot, dense-id order.
    pub jobs: Vec<(JobId, JobState)>,
    /// The wait queue, in order (order is scheduler-visible).
    pub queue: Vec<TaskId>,
    /// Arrivals not yet admitted, still sorted by arrival time.
    pub pending: Vec<JobSpec>,
    /// Metrics accumulated so far (wall-clock fields included; strip
    /// them with `RunMetrics::clear_wall_clock` when comparing runs).
    pub metrics: RunMetrics,
    /// Reward-window accumulators.
    pub window: WindowStats,
    /// Tasks currently straggling.
    pub stragglers: BTreeSet<TaskId>,
    /// Straggler RNG stream (xoshiro256** state words).
    pub rng: Vec<u64>,
    /// Fault RNG stream (xoshiro256** state words).
    pub fault_rng: Vec<u64>,
    /// Cumulative transfer MB already charged to `window`.
    pub bandwidth_charged_mb: f64,
    /// Cursor into the scheduled fault trace.
    pub next_scheduled_fault: usize,
    /// Pending server recoveries (time, server).
    pub recoveries: Vec<(SimTime, ServerId)>,
    /// Jobs admitted since the last `step` (stream-scheduler input).
    pub arrived_this_round: Vec<JobId>,
    /// Full cluster state (placements, load, transfer accounting).
    pub cluster: cluster::ClusterSnapshot,
    /// Deterministic telemetry counters, [`obs::Counter::ALL`] order.
    pub telemetry_counts: Vec<u64>,
}

/// Defensive `Vec<u64>` → `[u64; 4]` for RNG state restore.
fn rng_state(words: &[u64]) -> [u64; 4] {
    let mut s = [0u64; 4];
    for (slot, w) in s.iter_mut().zip(words) {
        *slot = *w;
    }
    s
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster shape.
    pub cluster: ClusterConfig,
    /// Scheduler round period (paper: one minute).
    pub tick: SimDuration,
    /// Progress semantics.
    pub progress: ProgressModel,
    /// Overload threshold used for the overload-occurrence statistic.
    pub h_r: f64,
    /// Hard stop for the simulation clock.
    pub max_time: SimDuration,
    /// Optional straggler injection.
    pub straggler: Option<StragglerConfig>,
    /// Optional fault injection (server crashes + checkpointed
    /// recovery). `None` leaves every run bit-identical to an engine
    /// without the fault subsystem.
    pub fault: Option<FaultConfig>,
    /// Amplitude of time-varying task utilization (0 disables). Real
    /// tasks do not draw their mean demand every minute (the Philly
    /// trace reports per-minute utilization); each placed task's live
    /// demand oscillates around its mean by up to this fraction, which
    /// is what makes servers *overload* after admission and gives the
    /// migration machinery (Fig. 8) something to do.
    pub utilization_noise: f64,
    /// Engine RNG seed. It drives straggler injection directly and
    /// fault injection through a forked stream (so enabling one never
    /// perturbs the other); utilization noise is hash-based and
    /// everything else is deterministic.
    pub seed: u64,
    /// Record a per-round cluster timeline into
    /// `RunMetrics::timeline` (off by default: large runs would carry
    /// tens of thousands of samples).
    pub record_timeline: bool,
    /// Trace sink for the obs layer. `Disabled` (the default) reduces
    /// every event site to one relaxed atomic load; the deterministic
    /// telemetry counters accumulate either way, so enabling a sink
    /// never changes `RunMetrics` beyond wall-clock fields.
    pub trace: obs::TraceConfig,
    /// World-advancement engine (default: event-driven).
    pub engine: EngineMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cluster: ClusterConfig::paper_testbed(),
            tick: SimDuration::from_secs(60),
            progress: ProgressModel::Pipelined,
            h_r: 0.9,
            max_time: SimDuration::from_hours(24 * 60),
            straggler: None,
            fault: None,
            utilization_noise: 0.05,
            seed: 42,
            record_timeline: false,
            trace: obs::TraceConfig::default(),
            engine: EngineMode::default(),
        }
    }
}

/// A per-window cached progress rate for one running job (event
/// engine only). `rate` already folds in any straggler slowdown;
/// `gpu_share` is the job's total placed GPU share — constant within a
/// window because placements only change between rounds or when the
/// job itself completes.
#[derive(Debug, Clone, Copy)]
struct CachedRate {
    rate: JobRate,
    gpu_share: f64,
}

/// The live simulation.
pub struct Simulation {
    cfg: SimConfig,
    cluster: Cluster,
    jobs: JobArena,
    queue: Vec<TaskId>,
    /// Pending arrivals, ascending by arrival time; `next_arrival`
    /// indexes into it.
    pending: Vec<JobSpec>,
    next_arrival: usize,
    now: SimTime,
    /// Where the previous round's world advancement stopped — the
    /// start of the next `advance` window. Maintained by
    /// [`Simulation::step`].
    last: SimTime,
    /// Whether [`Simulation::begin`] ran (clock jumped to the first
    /// arrival).
    begun: bool,
    /// Jobs admitted since the previous scheduling round, in
    /// admission order; handed to `Scheduler::schedule_stream` and
    /// cleared each round.
    arrived_this_round: Vec<JobId>,
    metrics: RunMetrics,
    window: WindowStats,
    stragglers: BTreeSet<TaskId>,
    rng: SimRng,
    bandwidth_charged_mb: f64,
    /// Unfinished jobs, ascending id (mirrors the arena's order).
    active: BTreeSet<JobId>,
    /// Jobs holding at least one `Running` task, ascending id.
    running: BTreeSet<JobId>,
    /// Event engine: per-window cached rates for the running set.
    rate_cache: BTreeMap<JobId, CachedRate>,
    /// Event engine: pending deadline crossings.
    deadline_cal: EventQueue<JobId>,
    /// Event engine: servers that lost tasks to a mid-window
    /// completion; drained to invalidate co-located cached rates.
    freed_servers: Vec<ServerId>,
    /// Event engine: placed tasks awaiting one batched queue purge.
    queue_tombstones: BTreeSet<TaskId>,
    /// Independent RNG stream for fault injection, forked from the
    /// seed so enabling faults never perturbs straggler sampling.
    fault_rng: SimRng,
    /// Next unfired entry of the (time-sorted) trace-driven schedule.
    next_scheduled_fault: usize,
    /// Pending recoveries `(when, server)`, kept sorted ascending.
    recoveries: Vec<(SimTime, ServerId)>,
    /// The run's telemetry hub; shared with the scheduler via
    /// `attach_tracer` and readable by callers through
    /// [`Simulation::tracer`].
    tracer: std::sync::Arc<obs::Tracer>,
}

/// Stream label for the fault-injection RNG fork.
const FAULT_RNG_STREAM: u64 = 0xFA17;

impl Simulation {
    /// Build a simulation over `specs` (any order; sorted internally).
    pub fn new(mut cfg: SimConfig, mut specs: Vec<JobSpec>) -> Self {
        specs.sort_by_key(|s| s.arrival);
        if let Some(fc) = &mut cfg.fault {
            fc.schedule.sort_by_key(|e| (e.at, e.server.0));
        }
        let mut cluster = Cluster::new(&cfg.cluster);
        // Track the overload index at the engine's threshold so every
        // per-round overload query is an index read, not a scan.
        cluster.set_overload_threshold(cfg.h_r);
        let metrics = RunMetrics {
            jobs_submitted: specs.len(),
            ..Default::default()
        };
        let rng = SimRng::new(cfg.seed);
        let fault_rng = rng.fork(FAULT_RNG_STREAM);
        // A sink that fails to open (JSONL path) degrades to the
        // disabled tracer rather than aborting the run: tracing is an
        // observability concern and must never take the science down.
        let tracer = std::sync::Arc::new(
            obs::Tracer::from_config(&cfg.trace).unwrap_or_else(|_| obs::Tracer::disabled()),
        );
        Simulation {
            cfg,
            cluster,
            jobs: JobArena::new(),
            queue: Vec::new(),
            pending: specs,
            next_arrival: 0,
            now: SimTime::ZERO,
            last: SimTime::ZERO,
            begun: false,
            arrived_this_round: Vec::new(),
            metrics,
            window: WindowStats::default(),
            stragglers: BTreeSet::new(),
            rng,
            bandwidth_charged_mb: 0.0,
            active: BTreeSet::new(),
            running: BTreeSet::new(),
            rate_cache: BTreeMap::new(),
            deadline_cal: EventQueue::new(),
            freed_servers: Vec::new(),
            queue_tombstones: BTreeSet::new(),
            fault_rng,
            next_scheduled_fault: 0,
            recoveries: Vec::new(),
            tracer,
        }
    }

    /// Re-derive `id`'s membership in the active/running index sets
    /// from its current state. Called after every mutation that can
    /// change placement or finish a job; cheap (two `BTreeSet` probes
    /// plus an O(tasks) count), and maintained in both engine modes so
    /// the sets are always trustworthy.
    fn sync_job_sets(&mut self, id: JobId) {
        match self.jobs.get(&id) {
            Some(j) if !j.is_finished() => {
                self.active.insert(id);
                if j.running_tasks() > 0 {
                    self.running.insert(id);
                } else {
                    self.running.remove(&id);
                    self.rate_cache.remove(&id);
                }
            }
            _ => {
                self.active.remove(&id);
                self.running.remove(&id);
                self.rate_cache.remove(&id);
            }
        }
    }

    /// Handle to the run's telemetry hub. Clone it before `run` (which
    /// consumes the simulation) to read folded span stacks, ring-
    /// buffered events, or counter snapshots afterwards.
    pub fn tracer(&self) -> std::sync::Arc<obs::Tracer> {
        self.tracer.clone()
    }

    /// Prepare for stepping: hand the scheduler the telemetry hub and
    /// jump the clock to the first pending arrival. The clock jump
    /// happens once; re-attaching the tracer is harmless, so calling
    /// `begin` again (e.g. with a fresh scheduler after
    /// [`Simulation::restore`]) is safe.
    pub fn begin(&mut self, scheduler: &mut dyn Scheduler) {
        scheduler.attach_tracer(self.tracer.clone());
        if self.begun {
            return;
        }
        self.begun = true;
        // Jump to the first arrival.
        if let Some(first) = self.pending.get(self.next_arrival) {
            self.now = first.arrival;
        }
        self.last = self.now;
    }

    /// Execute one scheduling round: advance the world to `now`,
    /// inject faults, account the reward window, invoke the scheduler
    /// (streaming entry point), apply its actions, and pick the next
    /// round time. Returns whether another round is due.
    ///
    /// This is the decision core the batch [`Simulation::run`] loop
    /// and the streaming front-end (`crates/service`) share; a
    /// [`StepOutcome::Drained`] simulation resumes cleanly if
    /// [`Simulation::inject_job`] delivers new work later.
    pub fn step(&mut self, scheduler: &mut dyn Scheduler) -> StepOutcome {
        let tracer = self.tracer.clone();
        let _round_span = obs::span!(tracer, round);
        obs::event!(
            tracer,
            RoundStart {
                round: self.metrics.rounds + 1,
                t: self.now.as_mins_f64(),
                queued: self.queue.len() as u32,
            }
        );
        // Advance the world to `now` (arrivals, progress,
        // completions, deadline freezes).
        self.advance(self.last, self.now);
        self.last = self.now;

        // Fault injection (recoveries, then crashes) happens
        // before the scheduler observes the cluster, so it sees
        // down servers and evicted tasks the same round.
        self.inject_faults();

        // Round statistics.
        self.metrics.rounds += 1;
        let overloaded = self.cluster.overloaded_count(self.cfg.h_r);
        self.metrics.overload_occurrences += overloaded as u64;
        if tracer.is_enabled() && overloaded > 0 {
            for i in 0..self.cluster.server_count() {
                let srv = self.cluster.server(ServerId(i as u32));
                if srv.is_overloaded(self.cfg.h_r) {
                    obs::event!(
                        tracer,
                        Overload {
                            t: self.now.as_mins_f64(),
                            server: i as u32,
                            degree: srv.overload_degree(),
                        }
                    );
                }
            }
        }
        if self.cfg.record_timeline {
            // The index set's cardinality equals the naive scan's
            // count by the `sync_job_sets` invariant.
            let active_jobs = match self.cfg.engine {
                EngineMode::Naive => self.jobs.values().filter(|j| !j.is_finished()).count(),
                EngineMode::EventDriven => self.active.len(),
            };
            self.metrics.timeline.push(metrics::TimelinePoint {
                t_mins: self.now.as_mins_f64(),
                mean_util: self.cluster.mean_utilization().0,
                queue_len: self.queue.len(),
                active_jobs,
                overloaded_servers: overloaded,
            });
        }

        // Reward for the window just closed.
        self.window.mean_active_accuracy = self.mean_active_accuracy();
        let reward = components(&self.window);
        self.window = WindowStats::default();
        scheduler.observe_reward(&reward);

        // Time-varying utilization: refresh every placed task's
        // live demand before the scheduler observes the cluster.
        self.refresh_utilization();

        // Scheduling round (timed).
        let arrived = std::mem::take(&mut self.arrived_this_round);
        let ctx = SchedulerContext {
            now: self.now,
            jobs: &self.jobs,
            cluster: &self.cluster,
            queue: &self.queue,
        };
        // Wall-clock timing of the scheduler call itself, recorded
        // as an observability metric (decision_times_ms); it never
        // influences simulated time or any scheduling decision.
        let started = Instant::now(); // lint:allow(det-wall-clock) reason="measures real decision latency for decision_times_ms and the Fig. 4(h) panel; scheduler-invisible"
        let actions = scheduler.schedule_stream(&ctx, &arrived);
        let elapsed = started.elapsed();
        self.metrics
            .decision_times_ms
            .push(elapsed.as_secs_f64() * 1000.0);
        self.tracer.record_decision_ns(elapsed.as_nanos() as u64);
        let n_actions = actions.len();
        self.apply_actions(actions);
        obs::event!(
            tracer,
            RoundEnd {
                round: self.metrics.rounds,
                t: self.now.as_mins_f64(),
                actions: n_actions as u32,
                decision_ns: elapsed.as_nanos() as u64,
            }
        );

        // Straggler injection happens at round granularity.
        self.inject_stragglers();

        // Pick the next round time.
        let active = match self.cfg.engine {
            EngineMode::Naive => self.jobs.values().any(|j| !j.is_finished()),
            EngineMode::EventDriven => !self.active.is_empty(),
        };
        if !active && self.next_arrival >= self.pending.len() {
            return StepOutcome::Drained;
        }
        let next = if active || !self.queue.is_empty() {
            self.now + self.cfg.tick
        } else {
            // Idle: jump to the next arrival.
            match self.pending.get(self.next_arrival) {
                Some(next_spec) => next_spec.arrival.max(self.now + self.cfg.tick),
                // Unreachable: the drained check above covers it.
                None => self.now + self.cfg.tick,
            }
        };
        if next.since(SimTime::ZERO) > self.cfg.max_time {
            // Horizon reached: advance once more then stop.
            self.advance(self.last, SimTime::ZERO + self.cfg.max_time);
            self.last = SimTime::ZERO + self.cfg.max_time;
            return StepOutcome::Horizon;
        }
        self.now = next;
        StepOutcome::Continue
    }

    /// Run to completion under `scheduler`, returning the metrics.
    pub fn run(mut self, scheduler: &mut dyn Scheduler) -> RunMetrics {
        self.begin(scheduler);
        while self.step(scheduler) == StepOutcome::Continue {}
        self.finalize()
    }

    /// Close the run and return the metrics (streaming front-ends
    /// call this once the stream of arrivals ends; the batch
    /// [`Simulation::run`] path does it internally).
    pub fn into_metrics(self) -> RunMetrics {
        self.finalize()
    }

    /// Inject a new arrival into the live simulation (the streaming
    /// front-end's entry point). The spec lands in the sorted pending
    /// list no earlier than the admission cursor, so an arrival time
    /// already in the past is admitted at the next round boundary.
    /// Returns `false` (dropping the spec) on a duplicate job id.
    pub fn inject_job(&mut self, spec: JobSpec) -> bool {
        if self.jobs.contains_key(&spec.id) {
            return false;
        }
        let tail = self.pending.get(self.next_arrival..).unwrap_or_default();
        if tail.iter().any(|s| s.id == spec.id) {
            return false;
        }
        let idx = self.next_arrival + tail.partition_point(|s| s.arrival <= spec.arrival);
        self.pending.insert(idx, spec);
        self.metrics.jobs_submitted += 1;
        true
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The scheduler round period.
    pub fn tick(&self) -> SimDuration {
        self.cfg.tick
    }

    /// Tasks currently waiting in the scheduler queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Injected arrivals not yet admitted into the job set.
    pub fn pending_arrivals(&self) -> usize {
        self.pending.len().saturating_sub(self.next_arrival)
    }

    /// Unfinished jobs currently in the system.
    pub fn active_jobs(&self) -> usize {
        match self.cfg.engine {
            EngineMode::Naive => self.jobs.values().filter(|j| !j.is_finished()).count(),
            EngineMode::EventDriven => self.active.len(),
        }
    }

    /// Scheduling rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// The cluster-wide overload degree `O_c^t` (MLF-C's admission
    /// signal, exposed for service-level load control).
    pub fn cluster_overload_degree(&self) -> f64 {
        self.cluster.cluster_overload_degree()
    }

    /// Serialize the full engine state at a round boundary (between
    /// [`Simulation::step`] calls). Transient intra-window caches —
    /// the rate cache, freed-server list and queue tombstones — are
    /// empty or rebuilt at round boundaries and are deliberately not
    /// captured; [`Simulation::restore`] reconstructs the index sets
    /// and the deadline calendar from the job states.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            now: self.now,
            last: self.last,
            begun: self.begun,
            jobs: self.jobs.iter().map(|(id, j)| (id, j.clone())).collect(),
            queue: self.queue.clone(),
            pending: self
                .pending
                .get(self.next_arrival..)
                .unwrap_or_default()
                .to_vec(),
            metrics: self.metrics.clone(),
            window: self.window.clone(),
            stragglers: self.stragglers.clone(),
            rng: self.rng.state().to_vec(),
            fault_rng: self.fault_rng.state().to_vec(),
            bandwidth_charged_mb: self.bandwidth_charged_mb,
            next_scheduled_fault: self.next_scheduled_fault,
            recoveries: self.recoveries.clone(),
            arrived_this_round: self.arrived_this_round.clone(),
            cluster: self.cluster.snapshot(),
            telemetry_counts: self.tracer.snapshot().counts,
        }
    }

    /// Rebuild a simulation from a [`SimSnapshot`] and the `cfg` the
    /// snapshotted run was started with. Stepping the result produces
    /// bit-identical decisions and metrics to the uninterrupted run
    /// (the crash-restart tests in `crates/service` prove it), except
    /// for wall-clock observability fields accrued before the
    /// snapshot's round (`RunMetrics::clear_wall_clock` strips those).
    pub fn restore(cfg: SimConfig, snap: SimSnapshot) -> Self {
        let mut sim = Simulation::new(cfg, Vec::new());
        sim.cluster.restore(snap.cluster);
        for (id, j) in snap.jobs {
            sim.jobs.insert(id, j);
        }
        sim.queue = snap.queue;
        // The snapshot carries only the unadmitted tail, still sorted.
        sim.pending = snap.pending;
        sim.next_arrival = 0;
        sim.now = snap.now;
        sim.last = snap.last;
        sim.begun = snap.begun;
        sim.metrics = snap.metrics;
        sim.window = snap.window;
        sim.stragglers = snap.stragglers;
        sim.rng = SimRng::from_state(rng_state(&snap.rng));
        sim.fault_rng = SimRng::from_state(rng_state(&snap.fault_rng));
        sim.bandwidth_charged_mb = snap.bandwidth_charged_mb;
        sim.next_scheduled_fault = snap.next_scheduled_fault;
        sim.recoveries = snap.recoveries;
        sim.arrived_this_round = snap.arrived_this_round;
        // Rebuild the active/running index sets from the job states.
        let ids: Vec<JobId> = sim.jobs.iter().map(|(id, _)| id).collect();
        for id in ids {
            sim.sync_job_sets(id);
        }
        // Rebuild the deadline calendar: windows tile time, so every
        // deadline at or before `last` was either frozen when its
        // window passed or is never frozen in either engine (the
        // freeze guard is `d > t`). A snapshot is taken between
        // rounds, and the next `step` advances over `(last, now]`, so
        // unfrozen deadlines of active jobs after `last` (not after
        // `now`) can still fire. Entry order within equal
        // deadlines differs from the original admission-ordered
        // calendar, but the pop handler touches only its own job, so
        // the difference is unobservable.
        if sim.cfg.engine == EngineMode::EventDriven {
            let due: Vec<(SimTime, JobId)> = sim
                .active
                .iter()
                .filter_map(|id| sim.jobs.get(id).map(|j| (*id, j)))
                .filter(|(_, j)| j.accuracy_at_deadline.is_none() && j.spec.deadline > sim.last)
                .map(|(id, j)| (j.spec.deadline, id))
                .collect();
            for (at, id) in due {
                sim.deadline_cal.push(at, id);
            }
        }
        // Reseed the deterministic telemetry counters so the folded
        // counts at `finalize` match the uninterrupted run's.
        for (i, c) in obs::Counter::ALL.iter().enumerate() {
            let n = snap.telemetry_counts.get(i).copied().unwrap_or(0);
            if n > 0 {
                sim.tracer.add(*c, n);
            }
        }
        sim
    }

    /// Mean accuracy over active jobs. Both arms visit unfinished jobs
    /// in ascending id order, so the summation order (and thus the
    /// floating-point result) is identical.
    fn mean_active_accuracy(&self) -> f64 {
        let accs: Vec<f64> = match self.cfg.engine {
            EngineMode::Naive => self
                .jobs
                .values()
                .filter(|j| !j.is_finished())
                .map(|j| j.accuracy())
                .collect(),
            EngineMode::EventDriven => self
                .active
                .iter()
                .filter_map(|id| self.jobs.get(id))
                .map(|j| j.accuracy())
                .collect(),
        };
        metrics::mean(&accs)
    }

    /// Advance the world from `from` to `to`, sub-stepping at arrivals
    /// and completions.
    fn advance(&mut self, from: SimTime, to: SimTime) {
        match self.cfg.engine {
            EngineMode::Naive => self.advance_naive(from, to),
            EngineMode::EventDriven => self.advance_event(from, to),
        }
    }

    /// Reference advancement: every sub-step recomputes every
    /// unfinished job's rate and walks every job slot. Kept verbatim
    /// as the ground truth for the event engine's determinism tests.
    fn advance_naive(&mut self, from: SimTime, to: SimTime) {
        let mut t = from;
        // Admit arrivals at exactly `from` first (e.g. the initial jump).
        self.admit_arrivals(t);
        while t < to {
            // Current rates (with straggler slowdown).
            let rates: BTreeMap<JobId, JobRate> = self
                .jobs
                .iter()
                .filter(|(_, j)| !j.is_finished())
                .map(|(id, j)| {
                    let mut r = job_rate(j, &self.cluster, self.cfg.progress);
                    if let Some(sc) = self.cfg.straggler {
                        let straggling = (0..j.spec.task_count())
                            .any(|i| self.stragglers.contains(&TaskId::new(id, i as u16)));
                        if straggling {
                            r.iters_per_sec *= sc.slowdown;
                        }
                    }
                    (id, r)
                })
                .collect();

            // Earliest event in (t, to]: completion or arrival.
            let mut t_next = to;
            for (id, r) in &rates {
                if r.iters_per_sec <= 0.0 {
                    continue;
                }
                let Some(j) = self.jobs.get(id) else {
                    continue;
                };
                let remaining = j.spec.max_iterations as f64 - j.iterations;
                if remaining <= 0.0 {
                    continue;
                }
                let t_c = t + SimDuration::from_secs_f64(remaining / r.iters_per_sec);
                if t_c < t_next {
                    t_next = t_c;
                }
            }
            if let Some(p) = self.pending.get(self.next_arrival) {
                let a = p.arrival;
                if a > t && a < t_next {
                    t_next = a;
                }
            }
            if t_next <= t {
                t_next = to; // numerical floor: never stall
            }
            let dt = t_next.since(t);
            let dt_secs = dt.as_secs_f64();

            // Apply progress, traffic, waiting and deadline freezes.
            let mut finished_now: Vec<JobId> = Vec::new();
            for (id, j) in self.jobs.iter_mut() {
                if j.is_finished() {
                    continue;
                }
                let r = rates.get(&id).copied().unwrap_or_default();
                // Deadline crossing inside (t, t_next]?
                let d = j.spec.deadline;
                if j.accuracy_at_deadline.is_none() && d > t && d <= t_next {
                    let at = j.iterations + r.iters_per_sec * d.since(t).as_secs_f64();
                    j.accuracy_at_deadline = Some(j.spec.curve.accuracy_at(at));
                }
                // Throughput ledger: GPU time consumed by placed
                // tasks (whether or not the job makes progress).
                let gpu_share: f64 = j
                    .task_states
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, TaskRunState::Running { .. }))
                    .filter_map(|(i, _)| j.spec.tasks.get(i).map(|t| t.gpu_share))
                    .sum();
                self.metrics.gpu_hours_total += gpu_share * dt_secs / 3600.0;
                if r.iters_per_sec > 0.0 {
                    let delta = r.iters_per_sec * dt_secs;
                    j.advance(delta);
                    let mb = r.cross_mb_per_iter * delta;
                    self.bandwidth_charged_mb += mb;
                    self.window.transferred_mb += mb;
                    if j.iterations >= j.spec.max_iterations as f64 - 1e-9 {
                        finished_now.push(id);
                    }
                } else if j.running_tasks() == 0 {
                    // Whole job idle: accrue waiting time.
                    j.waiting += dt;
                }
            }
            for id in finished_now {
                self.complete_job(id, t_next, StopReason::MaxIterations);
            }
            t = t_next;
            self.admit_arrivals(t);
        }
    }

    /// One running job's cached rate — straggler slowdown folded in,
    /// exactly as the naive per-sub-step loop computes it — plus its
    /// total placed GPU share.
    fn cached_rate_for(&self, id: JobId) -> Option<CachedRate> {
        let j = self.jobs.get(&id)?;
        let mut r = job_rate(j, &self.cluster, self.cfg.progress);
        if let Some(sc) = self.cfg.straggler {
            let straggling = (0..j.spec.task_count())
                .any(|i| self.stragglers.contains(&TaskId::new(id, i as u16)));
            if straggling {
                r.iters_per_sec *= sc.slowdown;
            }
        }
        let gpu_share: f64 = j
            .task_states
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, TaskRunState::Running { .. }))
            .map(|(i, _)| j.spec.tasks.get(i).map(|t| t.gpu_share).unwrap_or(0.0))
            .sum();
        Some(CachedRate { rate: r, gpu_share })
    }

    /// (Re)build the per-window rate cache over the running set, in
    /// ascending id order.
    fn rebuild_rate_cache(&mut self) {
        self.rate_cache = self
            .running
            .iter()
            .filter_map(|&id| Some((id, self.cached_rate_for(id)?)))
            .collect();
    }

    /// Event-driven advancement. Observably identical to
    /// [`Self::advance_naive`] (bit-for-bit, including every
    /// floating-point accumulator) but O(running + changes) per
    /// sub-step instead of O(jobs):
    ///
    /// * completion candidates come from the cached rates of the
    ///   running set — `job_rate` reads only placements and per-server
    ///   GPU load, both frozen within a window except where a
    ///   completion frees them;
    /// * deadline crossings pop from a calendar instead of re-checking
    ///   every job;
    /// * idle jobs' `+= 0.0` ledger contributions are skipped (exact
    ///   floating-point identities) and their waiting time accrues in
    ///   one integer-exact batch at window end.
    fn advance_event(&mut self, from: SimTime, to: SimTime) {
        let mut t = from;
        self.admit_arrivals(t);
        self.freed_servers.clear();
        self.rebuild_rate_cache();
        while t < to {
            // Earliest event in (t, to]: completion or arrival.
            let mut t_next = to;
            for (id, c) in &self.rate_cache {
                if c.rate.iters_per_sec <= 0.0 {
                    continue;
                }
                let Some(j) = self.jobs.get(id) else { continue };
                let remaining = j.spec.max_iterations as f64 - j.iterations;
                if remaining <= 0.0 {
                    continue;
                }
                let t_c = t + SimDuration::from_secs_f64(remaining / c.rate.iters_per_sec);
                if t_c < t_next {
                    t_next = t_c;
                }
            }
            if let Some(a) = self.pending.get(self.next_arrival).map(|s| s.arrival) {
                if a > t && a < t_next {
                    t_next = a;
                }
            }
            if t_next <= t {
                t_next = to; // numerical floor: never stall
            }
            let dt_secs = t_next.since(t).as_secs_f64();

            // Deadline crossings in (t, t_next]: freeze by-deadline
            // accuracy from the job's *pre-advance* iterations, as the
            // naive per-job pass does. Idle jobs project with rate 0.
            while self
                .deadline_cal
                .peek_time()
                .map(|at| at <= t_next)
                .unwrap_or(false)
            {
                let Some(entry) = self.deadline_cal.pop() else {
                    break;
                };
                let id = entry.event;
                let r = self
                    .rate_cache
                    .get(&id)
                    .map(|c| c.rate.iters_per_sec)
                    .unwrap_or(0.0);
                if let Some(j) = self.jobs.get_mut(&id) {
                    let d = j.spec.deadline;
                    if j.accuracy_at_deadline.is_none() && d > t && d <= t_next {
                        let at = j.iterations + r * d.since(t).as_secs_f64();
                        j.accuracy_at_deadline = Some(j.spec.curve.accuracy_at(at));
                    }
                }
            }

            // Progress, GPU-hour and traffic accrual over the running
            // set, ascending id — the order the naive loop visits
            // these jobs in (idle jobs contribute exact no-ops there).
            let mut finished_now: Vec<JobId> = Vec::new();
            for (&id, c) in &self.rate_cache {
                self.metrics.gpu_hours_total += c.gpu_share * dt_secs / 3600.0;
                if c.rate.iters_per_sec > 0.0 {
                    let Some(j) = self.jobs.get_mut(&id) else {
                        continue;
                    };
                    let delta = c.rate.iters_per_sec * dt_secs;
                    j.advance(delta);
                    let mb = c.rate.cross_mb_per_iter * delta;
                    self.bandwidth_charged_mb += mb;
                    self.window.transferred_mb += mb;
                    if j.iterations >= j.spec.max_iterations as f64 - 1e-9 {
                        finished_now.push(id);
                    }
                }
            }
            for id in finished_now {
                self.complete_job(id, t_next, StopReason::MaxIterations);
            }
            // Mid-window completions freed GPU share on their servers;
            // only jobs co-located there can have changed rates
            // (`job_rate` reads nothing else that moved), so refresh
            // exactly those cache entries.
            if !self.freed_servers.is_empty() {
                let freed = std::mem::take(&mut self.freed_servers);
                let mut stale: BTreeSet<JobId> = BTreeSet::new();
                for sid in freed {
                    for (task, _) in self.cluster.server(sid).tasks() {
                        stale.insert(task.job);
                    }
                }
                for id in stale {
                    if self.running.contains(&id) {
                        if let Some(c) = self.cached_rate_for(id) {
                            self.rate_cache.insert(id, c);
                        }
                    }
                }
            }
            t = t_next;
            self.admit_arrivals(t);
        }
        // Batched waiting time: an idle job stays idle for the whole
        // rest of the window (placements and evictions only happen
        // between rounds, and a job with no running task cannot
        // finish mid-window), so the naive loop's per-sub-step
        // `waiting += dt` telescopes to one exact integer-millisecond
        // sum from the later of window start and the job's arrival.
        let idle: Vec<JobId> = self
            .active
            .iter()
            .filter(|id| !self.running.contains(id))
            .copied()
            .collect();
        for id in idle {
            if let Some(j) = self.jobs.get_mut(&id) {
                let start = from.max(j.spec.arrival);
                if to > start {
                    j.waiting += to.since(start);
                }
            }
        }
    }

    /// Admit every pending job with `arrival ≤ t`.
    fn admit_arrivals(&mut self, t: SimTime) {
        while let Some(next) = self.pending.get(self.next_arrival) {
            if next.arrival > t {
                break;
            }
            let spec = next.clone();
            self.next_arrival += 1;
            let id = spec.id;
            let state = JobState::new(spec, t);
            for i in 0..state.spec.task_count() {
                self.queue.push(TaskId::new(id, i as u16));
            }
            assert!(!self.jobs.contains_key(&id), "duplicate job id {id}");
            if self.cfg.engine == EngineMode::EventDriven && state.spec.deadline > t {
                // Future deadline: schedule the crossing. A deadline
                // at or before admission is never frozen by `advance`
                // in either mode (the naive guard is `d > t`).
                self.deadline_cal.push(state.spec.deadline, id);
            }
            self.jobs.insert(id, state);
            // Fresh jobs are active and idle (all tasks queued).
            self.active.insert(id);
            self.arrived_this_round.push(id);
        }
    }

    /// Finish a job: free resources, purge the queue, record metrics.
    fn complete_job(&mut self, id: JobId, at: SimTime, reason: StopReason) {
        // An unknown or already-finished job makes completion a no-op.
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        if job.is_finished() {
            return;
        }
        // Free placed tasks.
        let had_waiting = job.waiting_tasks() > 0;
        for (i, st) in job.task_states.clone().iter().enumerate() {
            if let TaskRunState::Running { server, .. } = st {
                let t = TaskId::new(id, i as u16);
                self.cluster.remove(t);
                self.stragglers.remove(&t);
                if self.cfg.engine == EngineMode::EventDriven {
                    // Remember where capacity was freed so a mid-window
                    // completion can invalidate co-located cached rates.
                    self.freed_servers.push(*server);
                }
            }
        }
        if had_waiting {
            // Only purge the queue when the job actually had waiting
            // tasks — `retain` over an entry-free queue is a no-op,
            // and most completing jobs are fully placed.
            self.queue.retain(|t| t.job != id);
        }
        job.finish(at, reason);
        // By-deadline accuracy freezes at completion if the deadline
        // is still ahead (the job's final accuracy counts).
        job.freeze_deadline_accuracy(at.max(job.spec.deadline));
        // Window bookkeeping for the reward.
        let jct_mins = job.jct().map(|d| d.as_mins_f64()).unwrap_or(0.0);
        self.window.completed_jct_mins.push(jct_mins);
        if job.met_deadline() {
            self.window.completed_met_deadline += 1;
        }
        if job.met_accuracy() {
            self.window.completed_met_accuracy += 1;
        }
        self.sync_job_sets(id);
    }

    /// Validate and apply a round's actions.
    fn apply_actions(&mut self, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Place { task, server } => {
                    let valid = self
                        .jobs
                        .get(&task.job)
                        .map(|j| {
                            !j.is_finished()
                                && matches!(
                                    j.task_states.get(task.idx as usize),
                                    Some(TaskRunState::Waiting { .. })
                                )
                        })
                        .unwrap_or(false)
                        && (server.0 as usize) < self.cluster.server_count();
                    if !valid {
                        self.metrics.invalid_actions += 1;
                        continue;
                    }
                    let (demand, gpu_share) = match self
                        .jobs
                        .get(&task.job)
                        .and_then(|j| j.spec.tasks.get(task.idx as usize))
                    {
                        Some(spec) => (spec.demand, spec.gpu_share),
                        None => {
                            self.metrics.invalid_actions += 1;
                            continue;
                        }
                    };
                    match self.cluster.place(task, server, demand, gpu_share) {
                        Ok(gpu) => {
                            self.tracer.add(obs::Counter::Placements, 1);
                            if let Some(st) = self
                                .jobs
                                .get_mut(&task.job)
                                .and_then(|j| j.task_states.get_mut(task.idx as usize))
                            {
                                *st = TaskRunState::Running { server, gpu };
                            }
                            match self.cfg.engine {
                                EngineMode::Naive => self.queue.retain(|t| *t != task),
                                // Batch the O(queue) purges: a round
                                // of k placements costs one pass
                                // instead of k. `retain` is order-
                                // preserving either way, so the
                                // surviving queue is identical.
                                EngineMode::EventDriven => {
                                    self.queue_tombstones.insert(task);
                                }
                            }
                            self.sync_job_sets(task.job);
                        }
                        Err(_) => self.metrics.invalid_actions += 1,
                    }
                }
                Action::Migrate { task, to } => {
                    let running = self
                        .jobs
                        .get(&task.job)
                        .map(|j| {
                            !j.is_finished()
                                && matches!(
                                    j.task_states.get(task.idx as usize),
                                    Some(TaskRunState::Running { .. })
                                )
                        })
                        .unwrap_or(false)
                        && (to.0 as usize) < self.cluster.server_count();
                    if !running {
                        self.metrics.invalid_actions += 1;
                        continue;
                    }
                    let state_mb = match self.jobs.get(&task.job) {
                        Some(job) => migration_state_mb(job, task.idx as usize),
                        None => {
                            self.metrics.invalid_actions += 1;
                            continue;
                        }
                    };
                    let was_remote = self.cluster.locate(task) != Some(to);
                    match self.cluster.migrate(task, to, state_mb) {
                        Ok(gpu) => {
                            self.tracer.add(obs::Counter::Migrations, 1);
                            if let Some(st) = self
                                .jobs
                                .get_mut(&task.job)
                                .and_then(|j| j.task_states.get_mut(task.idx as usize))
                            {
                                *st = TaskRunState::Running { server: to, gpu };
                            }
                            self.stragglers.remove(&task);
                            if was_remote {
                                self.window.transferred_mb += state_mb;
                            }
                        }
                        Err(_) => self.metrics.invalid_actions += 1,
                    }
                }
                Action::Evict { task } => {
                    let running = self
                        .jobs
                        .get(&task.job)
                        .map(|j| {
                            !j.is_finished()
                                && matches!(
                                    j.task_states.get(task.idx as usize),
                                    Some(TaskRunState::Running { .. })
                                )
                        })
                        .unwrap_or(false);
                    if !running {
                        self.metrics.invalid_actions += 1;
                        continue;
                    }
                    self.tracer.add(obs::Counter::Evictions, 1);
                    self.tracer.add(obs::Counter::Requeues, 1);
                    if self.tracer.is_enabled() {
                        let sid = self.cluster.locate(task).map(|s| s.0).unwrap_or(u32::MAX);
                        let t_mins = self.now.as_mins_f64();
                        obs::event!(
                            self.tracer,
                            Eviction {
                                t: t_mins,
                                job: task.job.0,
                                task: task.idx as u32,
                                server: sid,
                            }
                        );
                        obs::event!(
                            self.tracer,
                            Requeue {
                                t: t_mins,
                                job: task.job.0,
                                task: task.idx as u32,
                                reason: "evicted",
                            }
                        );
                    }
                    // Settle pending tombstones first: if this very
                    // task was placed earlier this round its stale
                    // queue entry must be gone *before* the re-push,
                    // exactly as the naive per-placement purge leaves
                    // the queue.
                    self.flush_queue_tombstones();
                    self.cluster.remove(task);
                    self.stragglers.remove(&task);
                    if let Some(st) = self
                        .jobs
                        .get_mut(&task.job)
                        .and_then(|j| j.task_states.get_mut(task.idx as usize))
                    {
                        *st = TaskRunState::Waiting { since: self.now };
                    }
                    self.queue.push(task);
                    self.sync_job_sets(task.job);
                }
                Action::StopJob { job, reason } => {
                    let active = self
                        .jobs
                        .get(&job)
                        .map(|j| !j.is_finished())
                        .unwrap_or(false);
                    if !active {
                        self.metrics.invalid_actions += 1;
                        continue;
                    }
                    obs::event!(
                        self.tracer,
                        JobStopped {
                            t: self.now.as_mins_f64(),
                            job: job.0,
                            reason: stop_reason_label(reason),
                        }
                    );
                    // `complete_job` purges the queue by job id; the
                    // queue must be physically settled first.
                    self.flush_queue_tombstones();
                    self.complete_job(job, self.now, reason);
                }
                Action::SetPolicy { job, policy } => match self.jobs.get_mut(&job) {
                    Some(j) if !j.is_finished() => j.effective_policy = policy,
                    _ => self.metrics.invalid_actions += 1,
                },
            }
        }
        self.flush_queue_tombstones();
    }

    /// Apply the batched `Place` queue removals (event engine). One
    /// order-preserving O(queue) pass replaces the naive engine's
    /// per-placement `retain`; each tombstoned task occurs at most
    /// once in the queue, so the surviving vector is identical.
    fn flush_queue_tombstones(&mut self) {
        if self.queue_tombstones.is_empty() {
            return;
        }
        let tombs = std::mem::take(&mut self.queue_tombstones);
        self.queue.retain(|t| !tombs.contains(t));
    }

    /// Oscillate each placed task's live demand around its mean with a
    /// deterministic per-task phase/period (utilization noise). The
    /// mean demand is still what admission control reasons about.
    fn refresh_utilization(&mut self) {
        let amp = self.cfg.utilization_noise;
        if amp <= 0.0 {
            return;
        }
        let t_mins = self.now.as_mins_f64();
        let per_job = |id: JobId, j: &JobState| {
            j.task_states
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, TaskRunState::Running { .. }))
                .filter_map(|(i, _)| {
                    let spec = j.spec.tasks.get(i)?;
                    let task = TaskId::new(id, i as u16);
                    // Deterministic per-task oscillation: hash the
                    // id into a phase and a 20–60 min period.
                    let h = (id.0 as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64 * 0x0010_0000_01B3);
                    let phase = (h % 1000) as f64 / 1000.0;
                    let period = 20.0 + (h / 1000 % 41) as f64;
                    let factor =
                        1.0 + amp * (2.0 * std::f64::consts::PI * (t_mins / period + phase)).sin();
                    Some((
                        task,
                        spec.demand * factor,
                        (spec.gpu_share * factor).min(1.0),
                    ))
                })
                .collect::<Vec<_>>()
        };
        // Only jobs holding a `Running` task contribute updates, so
        // the running set walks the exact same (job, task) sequence
        // the naive full scan produces.
        let updates: Vec<(TaskId, cluster::ResourceVec, f64)> = match self.cfg.engine {
            EngineMode::Naive => self
                .jobs
                .iter()
                .filter(|(_, j)| !j.is_finished())
                .flat_map(|(id, j)| per_job(id, j))
                .collect(),
            EngineMode::EventDriven => self
                .running
                .iter()
                .filter_map(|id| self.jobs.get(id).map(|j| (*id, j)))
                .flat_map(|(id, j)| per_job(id, j))
                .collect(),
        };
        for (task, demand, gpu_share) in updates {
            self.cluster.update_demand(task, demand, gpu_share);
        }
    }

    /// Round-granularity fault injection: bring due servers back up,
    /// then fire scheduled and random crashes.
    fn inject_faults(&mut self) {
        let Some(fc) = self.cfg.fault.clone() else {
            return;
        };
        // Recoveries due at or before now (sorted ascending).
        while let Some(&(when, sid)) = self.recoveries.first() {
            if when > self.now {
                break;
            }
            self.recoveries.remove(0);
            self.cluster.recover_server(sid);
            obs::event!(
                self.tracer,
                ServerRecovery {
                    t: self.now.as_mins_f64(),
                    server: sid.0,
                }
            );
            self.metrics.fault_events.push(FaultRecord {
                t_mins: self.now.as_mins_f64(),
                server: sid.0,
                crash: false,
                evicted: 0,
            });
        }
        // Trace-driven crashes due this round.
        while let Some(&ev) = fc.schedule.get(self.next_scheduled_fault) {
            if ev.at > self.now {
                break;
            }
            self.next_scheduled_fault += 1;
            self.crash_server(ev.server, self.now + ev.down_for, fc.checkpoint_iters);
        }
        // Memoryless random crash process over the up servers.
        if fc.mtbf_hours > 0.0 {
            let p = self.cfg.tick.as_hours_f64() / fc.mtbf_hours;
            for i in 0..self.cluster.server_count() {
                let sid = ServerId(i as u32);
                if self.cluster.server(sid).is_up() && self.fault_rng.chance(p) {
                    let down_hours = if fc.mttr_hours > 0.0 {
                        self.fault_rng.exponential(1.0 / fc.mttr_hours)
                    } else {
                        self.cfg.tick.as_hours_f64()
                    };
                    let down_for =
                        SimDuration::from_secs_f64(down_hours * 3600.0).max(self.cfg.tick);
                    self.crash_server(sid, self.now + down_for, fc.checkpoint_iters);
                }
            }
        }
    }

    /// Crash one server: evict its tasks back to the queue, roll each
    /// affected job to its last checkpoint (charging the lost GPU
    /// time), and suspend jobs whose surviving tasks can no longer
    /// make progress (a broken gang holds resources without
    /// producing anything).
    fn crash_server(&mut self, sid: ServerId, until: SimTime, checkpoint_iters: u64) {
        if !self.cluster.server(sid).is_up() {
            return; // already down or draining; nothing to crash
        }
        let evicted = self.cluster.fail_server(sid, Some(until));
        self.metrics.server_failures += 1;
        obs::event!(
            self.tracer,
            ServerCrash {
                t: self.now.as_mins_f64(),
                server: sid.0,
                evicted: evicted.len() as u32,
            }
        );
        self.metrics.fault_events.push(FaultRecord {
            t_mins: self.now.as_mins_f64(),
            server: sid.0,
            crash: true,
            evicted: evicted.len(),
        });
        let pos = self
            .recoveries
            .partition_point(|&(w, s)| (w, s.0) <= (until, sid.0));
        self.recoveries.insert(pos, (until, sid));

        let mut affected: Vec<JobId> = Vec::new();
        for (t, _) in &evicted {
            let Some(job) = self.jobs.get_mut(&t.job) else {
                continue;
            };
            debug_assert!(!job.is_finished(), "finished job still placed");
            if let Some(st) = job.task_states.get_mut(t.idx as usize) {
                *st = TaskRunState::Waiting { since: self.now };
            }
            self.queue.push(*t);
            self.stragglers.remove(t);
            self.tracer.add(obs::Counter::Requeues, 1);
            obs::event!(
                self.tracer,
                Requeue {
                    t: self.now.as_mins_f64(),
                    job: t.job.0,
                    task: t.idx as u32,
                    reason: "crash",
                }
            );
            self.metrics.task_restarts += 1;
            if !affected.contains(&t.job) {
                affected.push(t.job);
            }
        }
        let interval = checkpoint_iters.max(1) as f64;
        for id in affected {
            // Checkpoint rollback: progress past the last multiple of
            // the checkpoint interval is destroyed and its GPU time
            // (at the job's ideal per-iteration rate, over all its
            // tasks' GPU shares) is charged as lost.
            let Some(job) = self.jobs.get_mut(&id) else {
                continue;
            };
            let floor = (job.iterations / interval).floor() * interval;
            let lost_iters = job.iterations - floor;
            if lost_iters > 0.0 {
                job.rollback_to(floor);
                let total_share: f64 = job.spec.tasks.iter().map(|t| t.gpu_share).sum();
                let per_iter_hours = job.spec.ideal_runtime(1).as_secs_f64() / 3600.0;
                self.metrics.lost_gpu_hours += lost_iters * per_iter_hours * total_share;
            }
            // Gang suspension: if the survivors make zero progress
            // (e.g. a worker of an all-reduce gang died), release
            // them to the queue so the scheduler can re-place the
            // gang atomically instead of letting it stall in place.
            let Some(job) = self.jobs.get(&id) else {
                continue;
            };
            if job.running_tasks() > 0
                && job_rate(job, &self.cluster, self.cfg.progress).iters_per_sec <= 0.0
            {
                let suspend: Vec<TaskId> = job
                    .task_states
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, TaskRunState::Running { .. }))
                    .map(|(i, _)| TaskId::new(id, i as u16))
                    .collect();
                for t in suspend {
                    self.cluster.remove(t);
                    self.stragglers.remove(&t);
                    if let Some(st) = self
                        .jobs
                        .get_mut(&id)
                        .and_then(|j| j.task_states.get_mut(t.idx as usize))
                    {
                        *st = TaskRunState::Waiting { since: self.now };
                    }
                    self.queue.push(t);
                    self.tracer.add(obs::Counter::Requeues, 1);
                    obs::event!(
                        self.tracer,
                        Requeue {
                            t: self.now.as_mins_f64(),
                            job: t.job.0,
                            task: t.idx as u32,
                            reason: "crash",
                        }
                    );
                }
            }
            self.sync_job_sets(id);
        }
    }

    /// Round-granularity straggler injection.
    fn inject_stragglers(&mut self) {
        let Some(sc) = self.cfg.straggler else { return };
        let p = sc.probability_per_hour * self.cfg.tick.as_hours_f64();
        // Replication resolves last round's stragglers (replica takes
        // over; one state transfer each).
        if sc.replicate {
            let resolved: Vec<TaskId> = self.stragglers.iter().copied().collect();
            for t in resolved {
                if let Some(j) = self.jobs.get(&t.job) {
                    let mb = migration_state_mb(j, t.idx as usize);
                    self.bandwidth_charged_mb += mb;
                    self.window.transferred_mb += mb;
                }
                self.stragglers.remove(&t);
            }
        }
        // Same (job, task) sampling sequence either way: only jobs in
        // the running set own `Running` tasks, so the RNG stream is
        // consumed identically in both modes.
        let per_job = |id: JobId, j: &JobState| {
            j.task_states
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, TaskRunState::Running { .. }))
                .map(|(i, _)| TaskId::new(id, i as u16))
                .collect::<Vec<_>>()
        };
        let running: Vec<TaskId> = match self.cfg.engine {
            EngineMode::Naive => self
                .jobs
                .iter()
                .filter(|(_, j)| !j.is_finished())
                .flat_map(|(id, j)| per_job(id, j))
                .collect(),
            EngineMode::EventDriven => self
                .running
                .iter()
                .filter_map(|id| self.jobs.get(id).map(|j| (*id, j)))
                .flat_map(|(id, j)| per_job(id, j))
                .collect(),
        };
        for t in running {
            if !self.stragglers.contains(&t) && self.rng.chance(p) {
                self.stragglers.insert(t);
            }
        }
    }

    /// Close the run: record every job and the cluster ledgers.
    fn finalize(mut self) -> RunMetrics {
        let mut first_arrival = SimTime::MAX;
        let mut last_completion = SimTime::ZERO;
        for (_, job) in self.jobs.iter_mut() {
            // Freeze any remaining deadline accuracies at end state.
            job.freeze_deadline_accuracy(self.now.max(job.spec.deadline));
            first_arrival = first_arrival.min(job.spec.arrival);
            if let Some(f) = job.finished {
                last_completion = last_completion.max(f);
            }
            self.metrics.jobs.push(JobRecord {
                job: job.spec.id.0,
                arrival: job.spec.arrival,
                finished: job.finished,
                deadline: job.spec.deadline,
                jct_mins: job.jct().map(|d| d.as_mins_f64()),
                waiting_secs: job.waiting.as_secs_f64(),
                accuracy_by_deadline: job.accuracy_by_deadline(),
                required_accuracy: job.spec.required_accuracy,
                urgency: job.spec.urgency,
                met_deadline: job.met_deadline(),
                met_accuracy: job.met_accuracy(),
            });
        }
        if first_arrival == SimTime::MAX {
            first_arrival = SimTime::ZERO;
        }
        self.metrics.makespan_hours = last_completion.since(first_arrival).as_hours_f64();
        // Conservation check: every task still on the cluster must
        // belong to an unfinished job.
        self.metrics.leaked_tasks = self
            .cluster
            .servers()
            .iter()
            .flat_map(|s| s.tasks().map(|(t, _)| *t))
            .filter(|t| {
                self.jobs
                    .get(&t.job)
                    .map(|j| j.is_finished())
                    .unwrap_or(true)
            })
            .count();
        self.metrics.bandwidth_mb = self.cluster.transferred_mb() + self.bandwidth_charged_mb;
        self.metrics.migration_mb = self.cluster.migration_mb();
        self.metrics.migrations = self.cluster.migrations();
        // Fold the obs-layer counters into the metrics. The counters
        // are identical whether or not a sink is attached; only the
        // histogram carries wall-clock values (and is stripped by
        // `RunMetrics::clear_wall_clock` for determinism checks).
        let snap = self.tracer.snapshot();
        self.metrics.telemetry = metrics::RoundTelemetry {
            candidates_scored: snap.count(obs::Counter::CandidatesScored),
            placements: snap.count(obs::Counter::Placements),
            migrations: snap.count(obs::Counter::Migrations),
            evictions: snap.count(obs::Counter::Evictions),
            requeues: snap.count(obs::Counter::Requeues),
            blacklist_strikes: snap.count(obs::Counter::BlacklistStrikes),
            decision_ns_histogram: snap.decision_ns.clone(),
        };
        self.tracer.flush();
        self.metrics
    }
}

/// Closed-set label for a [`StopReason`] in `JobStopped` events (see
/// `obs::intern_reason`).
fn stop_reason_label(reason: StopReason) -> &'static str {
    match reason {
        StopReason::MaxIterations => "budget",
        StopReason::OptStop => "policy",
        StopReason::RequiredAccuracy => "accuracy",
        StopReason::PredictedUnreachable => "other",
    }
}

/// Run `specs` under `scheduler` with `cfg`, recording the scheduler's
/// legend name.
pub fn run(cfg: SimConfig, specs: Vec<JobSpec>, scheduler: &mut dyn Scheduler) -> RunMetrics {
    let sim = Simulation::new(cfg, specs);
    let mut m = sim.run(scheduler);
    m.scheduler = scheduler.name().to_string();
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlfs::Params;
    use workload::{TraceConfig, TraceGenerator};

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            cluster: ClusterConfig {
                servers: 4,
                gpus_per_server: 4,
                gpu_capacity: 1.0,
                cpu_cores: 32.0,
                memory_gb: 244.0,
                nic_mbps: 1250.0,
                topology: cluster::Topology::default_flat(),
            },
            max_time: SimDuration::from_hours(24 * 14),
            ..Default::default()
        }
    }

    fn tiny_trace(jobs: f64, seed: u64) -> Vec<JobSpec> {
        TraceGenerator::new(TraceConfig {
            jobs: jobs as usize,
            span: SimDuration::from_hours(2),
            duration_median_mins: 10.0,
            duration_sigma: 0.8,
            time_factor: 1.0,
            gpu_choices: vec![(1, 0.5), (2, 0.3), (4, 0.2)],
            algorithm_weights: [0.2; 5],
            param_server_prob: 0.5,
            previously_run_prob: 0.7,
            stop_policy: workload::StopPolicy::OptStop,
            deadline_slack_hours: (0.5, 4.0),
            seed,
        })
        .generate()
    }

    #[test]
    fn mlfh_completes_a_small_trace() {
        let specs = tiny_trace(30.0, 1);
        let mut sched = mlfs::Mlfs::heuristic(Params::default());
        let m = run(tiny_cfg(), specs, &mut sched);
        assert_eq!(m.scheduler, "MLF-H");
        assert_eq!(m.jobs_submitted, 30);
        assert_eq!(m.jobs.len(), 30);
        let finished = m.jobs.iter().filter(|j| j.finished.is_some()).count();
        assert!(finished >= 28, "only {finished}/30 finished");
        assert_eq!(m.invalid_actions, 0, "scheduler emitted invalid actions");
        assert!(m.avg_jct_mins() > 0.0);
        assert!(m.makespan_hours > 0.0);
        assert!(m.bandwidth_mb > 0.0, "jobs must move bytes");
        assert!(!m.decision_times_ms.is_empty());
    }

    #[test]
    fn fifo_also_completes_and_runs_are_deterministic() {
        let specs = tiny_trace(20.0, 2);
        let m1 = run(tiny_cfg(), specs.clone(), &mut baselines::Fifo::new());
        let m2 = run(tiny_cfg(), specs, &mut baselines::Fifo::new());
        assert_eq!(m1.avg_jct_mins(), m2.avg_jct_mins());
        assert_eq!(m1.bandwidth_mb, m2.bandwidth_mb);
        assert_eq!(m1.invalid_actions, 0);
        let finished = m1.jobs.iter().filter(|j| j.finished.is_some()).count();
        assert!(finished >= 18, "{finished}/20");
    }

    #[test]
    fn jct_never_less_than_ideal_runtime() {
        let specs = tiny_trace(15.0, 3);
        let ideal: BTreeMap<u32, f64> = specs
            .iter()
            .map(|s| (s.id.0, s.ideal_runtime(s.max_iterations).as_mins_f64()))
            .collect();
        let m = run(
            tiny_cfg(),
            specs,
            &mut mlfs::Mlfs::heuristic(Params::default()),
        );
        for j in &m.jobs {
            if let Some(jct) = j.jct_mins {
                // Fluid model can only be slower than the ideal
                // communication-free run.
                assert!(
                    jct >= ideal[&j.job] * 0.999,
                    "job {}: jct {jct} < ideal {}",
                    j.job,
                    ideal[&j.job]
                );
            }
        }
    }

    #[test]
    fn overloaded_cluster_queues_and_still_finishes_some() {
        // 1 tiny server, many jobs.
        let cfg = SimConfig {
            cluster: ClusterConfig {
                servers: 1,
                gpus_per_server: 2,
                gpu_capacity: 1.0,
                cpu_cores: 16.0,
                memory_gb: 64.0,
                nic_mbps: 1000.0,
                topology: cluster::Topology::default_flat(),
            },
            max_time: SimDuration::from_hours(48),
            ..Default::default()
        };
        let specs = tiny_trace(25.0, 4);
        let m = run(cfg, specs, &mut mlfs::Mlfs::heuristic(Params::default()));
        let finished = m.jobs.iter().filter(|j| j.finished.is_some()).count();
        assert!(finished > 0);
        // Contention must show up as waiting time.
        assert!(m.avg_waiting_secs() > 0.0);
    }

    #[test]
    fn mlfs_full_pipeline_runs_with_rl_and_mlfc() {
        let specs = tiny_trace(25.0, 5);
        let mut sched = mlfs::Mlfs::full(
            Params::default(),
            mlfs::MlfRlConfig {
                imitation_rounds: 10,
                train_interval: 4,
                seed: 9,
                ..Default::default()
            },
        );
        let m = run(tiny_cfg(), specs, &mut sched);
        assert_eq!(m.scheduler, "MLFS");
        let finished = m.jobs.iter().filter(|j| j.finished.is_some()).count();
        assert!(finished >= 20, "{finished}/25");
    }

    #[test]
    fn idle_gaps_are_skipped_not_ticked() {
        // Two short jobs three simulated days apart: the engine must
        // jump the gap instead of grinding ~4300 one-minute rounds.
        let mut specs = tiny_trace(2.0, 8);
        specs[0].arrival = simcore::SimTime::ZERO;
        specs[1].arrival = simcore::SimTime::from_hours(72);
        let mut cfg = tiny_cfg();
        cfg.max_time = SimDuration::from_hours(24 * 30);
        let m = run(cfg, specs, &mut mlfs::Mlfs::heuristic(Params::default()));
        let finished = m.jobs.iter().filter(|j| j.finished.is_some()).count();
        assert_eq!(finished, 2);
        assert!(
            m.rounds < 1000,
            "engine ticked through the idle gap: {} rounds",
            m.rounds
        );
    }

    #[test]
    fn utilization_noise_changes_dynamics_deterministically() {
        let specs = tiny_trace(15.0, 9);
        let mk = |noise: f64| {
            let mut cfg = tiny_cfg();
            cfg.utilization_noise = noise;
            run(
                cfg,
                specs.clone(),
                &mut mlfs::Mlfs::heuristic(Params::default()),
            )
        };
        let a = mk(0.0);
        let b = mk(0.3);
        let b2 = mk(0.3);
        // Same noise level twice = identical (deterministic).
        assert_eq!(b.avg_jct_mins(), b2.avg_jct_mins());
        assert_eq!(b.migrations, b2.migrations);
        // Noise perturbs the run relative to the noiseless baseline.
        assert!(
            (a.avg_jct_mins() - b.avg_jct_mins()).abs() > 1e-9
                || a.migrations != b.migrations
                || a.bandwidth_mb != b.bandwidth_mb,
            "noise had no observable effect"
        );
    }

    #[test]
    fn stragglers_slow_jobs_down() {
        let specs = tiny_trace(12.0, 6);
        let base = run(
            tiny_cfg(),
            specs.clone(),
            &mut mlfs::Mlfs::heuristic(Params::default()),
        );
        let mut cfg = tiny_cfg();
        cfg.straggler = Some(StragglerConfig {
            probability_per_hour: 5.0,
            slowdown: 0.2,
            replicate: false,
        });
        let slowed = run(cfg, specs, &mut mlfs::Mlfs::heuristic(Params::default()));
        assert!(
            slowed.avg_jct_mins() > base.avg_jct_mins(),
            "stragglers: {} vs {}",
            slowed.avg_jct_mins(),
            base.avg_jct_mins()
        );
    }

    #[test]
    fn replicated_straggler_resolves_next_round_with_one_transfer() {
        // Deterministic micro-check of `StragglerConfig::replicate`:
        // a straggling task keeps its slowdown for the round it was
        // marked in, the replica takes over at the *next* injection
        // round, and exactly one state transfer is charged for it.
        let mut cfg = tiny_cfg();
        cfg.straggler = Some(StragglerConfig {
            probability_per_hour: 0.0, // no new stragglers: isolate resolution
            slowdown: 0.2,
            replicate: true,
        });
        let specs = tiny_trace(1.0, 7);
        let spec = specs[0].clone();
        let jid = spec.id;
        let task = TaskId::new(jid, 0);
        let mut sim = Simulation::new(cfg, specs);
        let tspec = spec.tasks[0].clone();
        let gpu = sim
            .cluster
            .place(task, ServerId(0), tspec.demand, tspec.gpu_share)
            .unwrap();
        let mut job = JobState::new(spec, SimTime::ZERO);
        job.task_states[0] = TaskRunState::Running {
            server: ServerId(0),
            gpu,
        };
        sim.jobs.insert(jid, job);
        sim.stragglers.insert(task);

        sim.inject_stragglers();
        let expected = migration_state_mb(&sim.jobs[&jid], 0);
        assert!(expected > 0.0);
        assert!(
            sim.stragglers.is_empty(),
            "replica must take over at the next round"
        );
        assert!(
            (sim.bandwidth_charged_mb - expected).abs() < 1e-9,
            "exactly one state transfer: charged {} vs {}",
            sim.bandwidth_charged_mb,
            expected
        );

        // Resolved stragglers stay resolved: no further transfers.
        sim.inject_stragglers();
        assert!((sim.bandwidth_charged_mb - expected).abs() < 1e-9);
    }

    #[test]
    fn scheduled_crash_evicts_restarts_and_recovers() {
        let specs = tiny_trace(12.0, 6);
        let mut cfg = tiny_cfg();
        cfg.fault = Some(FaultConfig {
            mtbf_hours: 0.0, // trace-driven only
            mttr_hours: 0.0,
            schedule: vec![
                FaultEvent {
                    at: SimTime::from_mins(30),
                    server: ServerId(0),
                    down_for: SimDuration::from_mins(45),
                },
                FaultEvent {
                    at: SimTime::from_mins(60),
                    server: ServerId(1),
                    down_for: SimDuration::from_mins(20),
                },
            ],
            checkpoint_iters: 50,
        });
        let m = run(cfg, specs, &mut mlfs::Mlfs::heuristic(Params::default()));
        assert_eq!(m.server_failures, 2);
        assert!(m.task_restarts > 0, "crashes must evict running tasks");
        assert!(m.lost_gpu_hours > 0.0, "rollback must charge lost work");
        assert!(m.gpu_hours_total > 0.0);
        assert!(m.goodput_ratio() < 1.0 && m.goodput_ratio() > 0.0);
        // Both crash and recovery events are recorded.
        assert_eq!(m.fault_events.iter().filter(|e| e.crash).count(), 2);
        assert_eq!(m.fault_events.iter().filter(|e| !e.crash).count(), 2);
        assert_eq!(m.leaked_tasks, 0);
        // Every evicted task either restarted and ran to completion or
        // its job terminated with a recorded outcome.
        assert_eq!(m.jobs.len(), 12);
        let finished = m.jobs.iter().filter(|j| j.finished.is_some()).count();
        assert!(finished >= 10, "{finished}/12 finished");
    }

    #[test]
    fn random_faults_are_deterministic_and_survivable() {
        let specs = tiny_trace(12.0, 6);
        let mk = || {
            let mut cfg = tiny_cfg();
            cfg.fault = Some(FaultConfig {
                mtbf_hours: 1.0, // very flaky: ~4 crashes/hour cluster-wide
                mttr_hours: 0.25,
                schedule: Vec::new(),
                checkpoint_iters: 20,
            });
            run(
                cfg,
                specs.clone(),
                &mut mlfs::Mlfs::heuristic(Params::default()),
            )
        };
        let a = mk();
        let b = mk();
        assert!(a.server_failures > 0);
        assert!(a.task_restarts > 0);
        assert_eq!(a.leaked_tasks, 0);
        assert_eq!(a.server_failures, b.server_failures);
        assert_eq!(a.task_restarts, b.task_restarts);
        assert_eq!(a.avg_jct_mins(), b.avg_jct_mins());
        assert_eq!(a.lost_gpu_hours, b.lost_gpu_hours);
    }

    #[test]
    fn faults_do_not_perturb_fault_free_runs() {
        // `fault: None` and a zero-rate FaultConfig take the same
        // code path outcomes: identical metrics, zero fault counters.
        let specs = tiny_trace(10.0, 11);
        let base = run(
            tiny_cfg(),
            specs.clone(),
            &mut mlfs::Mlfs::heuristic(Params::default()),
        );
        let mut cfg = tiny_cfg();
        cfg.fault = Some(FaultConfig {
            mtbf_hours: 0.0,
            mttr_hours: 0.0,
            schedule: Vec::new(),
            checkpoint_iters: 100,
        });
        let inert = run(cfg, specs, &mut mlfs::Mlfs::heuristic(Params::default()));
        assert_eq!(base.server_failures, 0);
        assert_eq!(base.task_restarts, 0);
        assert_eq!(base.lost_gpu_hours, 0.0);
        assert!(base.fault_events.is_empty());
        assert_eq!(base.goodput_ratio(), 1.0);
        assert_eq!(base.avg_jct_mins(), inert.avg_jct_mins());
        assert_eq!(base.bandwidth_mb, inert.bandwidth_mb);
        assert_eq!(base.gpu_hours_total, inert.gpu_hours_total);
    }

    /// Serialized metrics minus the wall-clock observability fields —
    /// the byte string two bit-identical runs must agree on.
    fn fingerprint(mut m: RunMetrics) -> String {
        m.clear_wall_clock();
        serde_json::to_string(&m).unwrap()
    }

    /// Run `specs` under MLF-H with both engines, returning the two
    /// fingerprints.
    fn run_both_engines(base: SimConfig, specs: Vec<JobSpec>) -> (String, String) {
        let mk = |engine: EngineMode| {
            let mut cfg = base.clone();
            cfg.engine = engine;
            fingerprint(run(
                cfg,
                specs.clone(),
                &mut mlfs::Mlfs::heuristic(Params::default()),
            ))
        };
        (mk(EngineMode::Naive), mk(EngineMode::EventDriven))
    }

    #[test]
    fn event_engine_matches_naive_bit_for_bit() {
        // Timeline on: the per-round counters (active jobs, queue
        // length, utilization) must agree round by round, not just in
        // the final aggregates.
        let mut cfg = tiny_cfg();
        cfg.record_timeline = true;
        let (naive, event) = run_both_engines(cfg, tiny_trace(30.0, 1));
        assert_eq!(naive, event);
    }

    #[test]
    fn event_engine_matches_naive_on_overloaded_cluster() {
        // Persistent queues exercise the tombstoned queue purge, the
        // lazy waiting accrual, and deadline freezes on idle jobs.
        let cfg = SimConfig {
            cluster: ClusterConfig {
                servers: 1,
                gpus_per_server: 2,
                gpu_capacity: 1.0,
                cpu_cores: 16.0,
                memory_gb: 64.0,
                nic_mbps: 1000.0,
                topology: cluster::Topology::default_flat(),
            },
            max_time: SimDuration::from_hours(48),
            ..Default::default()
        };
        let (naive, event) = run_both_engines(cfg, tiny_trace(25.0, 4));
        assert_eq!(naive, event);
    }

    #[test]
    fn event_engine_matches_naive_under_stragglers() {
        for replicate in [false, true] {
            let mut cfg = tiny_cfg();
            cfg.straggler = Some(StragglerConfig {
                probability_per_hour: 5.0,
                slowdown: 0.2,
                replicate,
            });
            let (naive, event) = run_both_engines(cfg, tiny_trace(12.0, 6));
            assert_eq!(naive, event, "replicate={replicate}");
        }
    }

    #[test]
    fn event_engine_matches_naive_under_faults() {
        let mut cfg = tiny_cfg();
        cfg.fault = Some(FaultConfig {
            mtbf_hours: 1.0,
            mttr_hours: 0.25,
            schedule: vec![FaultEvent {
                at: SimTime::from_mins(30),
                server: ServerId(0),
                down_for: SimDuration::from_mins(45),
            }],
            checkpoint_iters: 20,
        });
        let (naive, event) = run_both_engines(cfg, tiny_trace(12.0, 6));
        assert_eq!(naive, event);
    }

    #[test]
    fn event_engine_matches_naive_with_large_running_set() {
        // 150 jobs arriving within an hour on 160 GPUs: the running
        // set peaks above 70 jobs, far larger than in the other
        // fixtures.
        let mut cfg = tiny_cfg();
        cfg.cluster.servers = 40;
        let specs = TraceGenerator::new(TraceConfig {
            jobs: 150,
            span: SimDuration::from_hours(1),
            duration_median_mins: 30.0,
            duration_sigma: 0.8,
            time_factor: 1.0,
            gpu_choices: vec![(1, 0.5), (2, 0.3), (4, 0.2)],
            algorithm_weights: [0.2; 5],
            param_server_prob: 0.5,
            previously_run_prob: 0.7,
            stop_policy: workload::StopPolicy::OptStop,
            deadline_slack_hours: (0.5, 4.0),
            seed: 13,
        })
        .generate();
        let (naive, event) = run_both_engines(cfg, specs);
        assert_eq!(naive, event);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 12,
            ..proptest::ProptestConfig::default()
        })]

        /// Randomized equivalence: for any small workload — with or
        /// without straggler and fault injection — the event engine
        /// reproduces the naive engine bit for bit.
        #[test]
        fn event_engine_matches_naive_randomized(
            jobs in 2u32..16,
            seed in 0u64..1000,
            use_straggler in proptest::any::<bool>(),
            p in 0.5f64..8.0,
            slow in 0.1f64..0.9,
            replicate in proptest::any::<bool>(),
            use_fault in proptest::any::<bool>(),
            mtbf in 0.5f64..4.0,
            mttr in 0.0f64..0.5,
            ckpt in 1u64..60,
        ) {
            let mut cfg = tiny_cfg();
            cfg.max_time = SimDuration::from_hours(48);
            if use_straggler {
                cfg.straggler = Some(StragglerConfig {
                    probability_per_hour: p,
                    slowdown: slow,
                    replicate,
                });
            }
            if use_fault {
                cfg.fault = Some(FaultConfig {
                    mtbf_hours: mtbf,
                    mttr_hours: mttr,
                    schedule: Vec::new(),
                    checkpoint_iters: ckpt,
                });
            }
            let (naive, event) = run_both_engines(cfg, tiny_trace(jobs as f64, seed));
            proptest::prop_assert_eq!(naive, event);
        }
    }

    #[test]
    fn replication_mitigates_stragglers() {
        let specs = tiny_trace(12.0, 6);
        let mk = |replicate| {
            let mut cfg = tiny_cfg();
            cfg.straggler = Some(StragglerConfig {
                probability_per_hour: 5.0,
                slowdown: 0.2,
                replicate,
            });
            run(
                cfg,
                specs.clone(),
                &mut mlfs::Mlfs::heuristic(Params::default()),
            )
        };
        let without = mk(false);
        let with = mk(true);
        assert!(
            with.avg_jct_mins() < without.avg_jct_mins(),
            "replication: {} vs {}",
            with.avg_jct_mins(),
            without.avg_jct_mins()
        );
    }
}
