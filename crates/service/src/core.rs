//! The synchronous service core: admission → injection → rounds.
//!
//! [`Service`] owns a [`Simulation`] plus the scheduler it drives.
//! Nothing here is asynchronous — the threaded front-end in
//! [`crate::front`] layers a channel on top — so tests can drive the
//! core round-by-round and compare the result bit-for-bit against the
//! batch engine.

use crate::admission::{AdmissionPolicy, ShedReason, SubmitOutcome};
use crate::durability::{recovery, Durability, DurabilityConfig, DurabilityError, RecoveryReport};
use metrics::RunMetrics;
use mlfs::Scheduler;
use mlfs_sim::engine::{SimConfig, SimSnapshot, Simulation, StepOutcome};
use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};
use workload::JobSpec;

/// Long-running scheduler front-end over the simulation engine.
pub struct Service {
    sim: Simulation,
    scheduler: Box<dyn Scheduler>,
    admission: Option<AdmissionPolicy>,
    accepted: u64,
    shed: u64,
    durability: Option<Durability>,
}

/// Submission counters (engine-side; channel backpressure is counted
/// by the caller, who is the one refused).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Jobs that passed admission and entered the engine.
    pub accepted: u64,
    /// Jobs refused by admission control (or duplicate ids).
    pub shed: u64,
}

/// Full service state at a round boundary: the engine snapshot, the
/// service's own counters, and the scheduler's evolving state (from
/// [`mlfs::Scheduler::export_state`]; `None` for stateless
/// schedulers). The [`AdmissionPolicy`] is *not* captured — it is
/// static configuration the restarting caller supplies again.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Engine state (jobs, cluster, queue, RNG streams, metrics, …).
    pub sim: SimSnapshot,
    /// Submission counters at the snapshot.
    pub stats: ServiceStats,
    /// Scheduler state JSON (attained-service ledgers, RL trainer
    /// weights, blacklists, …) if the scheduler exports any.
    pub scheduler_state: Option<String>,
}

impl Service {
    /// A service over an initially empty engine. `admission: None`
    /// accepts everything (the replay-determinism configuration);
    /// `Some(policy)` sheds at the door under overload.
    pub fn new(
        cfg: SimConfig,
        scheduler: Box<dyn Scheduler>,
        admission: Option<AdmissionPolicy>,
    ) -> Self {
        Service {
            sim: Simulation::new(cfg, Vec::new()),
            scheduler,
            admission,
            accepted: 0,
            shed: 0,
            durability: None,
        }
    }

    /// Configure a service incrementally; the builder is how the
    /// durability layer is attached ([`ServiceBuilder::durability`])
    /// or resumed from ([`ServiceBuilder::recover`]).
    pub fn builder(cfg: SimConfig) -> ServiceBuilder {
        ServiceBuilder {
            cfg,
            admission: None,
            durability: None,
        }
    }

    /// Rebuild a service from a [`ServiceSnapshot`] and the original
    /// `cfg`. Stepping the restored service yields bit-identical
    /// decisions to the uninterrupted run (`service_restart` test).
    pub fn restore(
        cfg: SimConfig,
        snap: ServiceSnapshot,
        scheduler: Box<dyn Scheduler>,
        admission: Option<AdmissionPolicy>,
    ) -> Self {
        let mut scheduler = scheduler;
        if let Some(state) = &snap.scheduler_state {
            // Best effort: a scheduler that refuses the state (or a
            // stateless one) still rebuilds its view from the engine
            // snapshot. `durability::recovery` imports *before*
            // restore so it can reject the snapshot instead.
            let _ = scheduler.import_state(state);
        }
        Service {
            sim: Simulation::restore(cfg, snap.sim),
            scheduler,
            admission,
            accepted: snap.stats.accepted,
            shed: snap.stats.shed,
            durability: None,
        }
    }

    /// Capture the full service state at the current round boundary.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            sim: self.sim.snapshot(),
            stats: self.stats(),
            scheduler_state: self.scheduler.export_state(),
        }
    }

    /// Submit one job. Runs admission control, then hands the spec to
    /// the engine's sorted pending list; it is admitted into the
    /// queue at the first round where `now >= spec.arrival`.
    pub fn submit(&mut self, spec: JobSpec) -> SubmitOutcome {
        if let Some(p) = self.admission {
            let backlog = self.backlog();
            if backlog > p.max_backlog {
                self.shed += 1;
                return SubmitOutcome::Shed(ShedReason::Backlog { backlog }, spec);
            }
            let degree = self.sim.cluster_overload_degree();
            if degree > p.h_s {
                self.shed += 1;
                return SubmitOutcome::Shed(ShedReason::Overload { degree }, spec);
            }
        }
        if self.sim.inject_job(spec.clone()) {
            self.accepted += 1;
            if let Some(d) = &mut self.durability {
                d.on_accept(self.accepted, self.sim.rounds(), &spec);
            }
            SubmitOutcome::Accepted
        } else {
            self.shed += 1;
            SubmitOutcome::Shed(ShedReason::Duplicate, spec)
        }
    }

    /// Re-inject an already-acknowledged job during WAL replay:
    /// bypasses admission (the job was admitted pre-crash) and the
    /// WAL (the record is already on disk). Returns false on a
    /// duplicate id.
    pub(crate) fn replay_inject(&mut self, spec: JobSpec) -> bool {
        if self.sim.inject_job(spec) {
            self.accepted += 1;
            true
        } else {
            false
        }
    }

    /// Attach a durable store (recovery does this after replay so
    /// replayed ticks don't re-snapshot).
    pub(crate) fn attach_durability(&mut self, durability: Durability) {
        self.durability = Some(durability);
    }

    /// Run exactly one scheduler round. The first call jumps the
    /// clock to the earliest pending arrival (`Simulation::begin`).
    /// With durability attached, round boundaries that cross the
    /// snapshot period persist a [`ServiceSnapshot`] in-line (the
    /// threaded front-end makes this a background write from the
    /// caller's perspective).
    pub fn tick(&mut self) -> StepOutcome {
        self.sim.begin(self.scheduler.as_mut());
        let out = self.sim.step(self.scheduler.as_mut());
        if self
            .durability
            .as_ref()
            .is_some_and(|d| d.snapshot_due(self.sim.rounds()))
        {
            let round = self.sim.rounds();
            let accepted = self.accepted;
            let body = serde_json::to_string(&self.snapshot());
            if let Some(d) = &mut self.durability {
                match body {
                    Ok(body) => d.on_snapshot(round, accepted, &body),
                    Err(e) => d.record_error(format!("snapshot serialize (round {round}): {e}")),
                }
            }
        }
        out
    }

    /// Tick until the engine reports [`StepOutcome::Drained`] (or
    /// [`StepOutcome::Horizon`]): all accepted work is finished.
    pub fn run_until_drained(&mut self) -> StepOutcome {
        loop {
            match self.tick() {
                StepOutcome::Continue => {}
                done => return done,
            }
        }
    }

    /// Finish the run: fold telemetry and return the final metrics,
    /// stamped with the scheduler's legend name (the same shape the
    /// batch `mlfs_sim::engine::run` produces).
    pub fn finish(self) -> RunMetrics {
        let name = self.scheduler.name().to_string();
        let mut m = self.sim.into_metrics();
        m.scheduler = name;
        m
    }

    /// Queued tasks plus not-yet-admitted arrivals — the admission
    /// backlog signal.
    pub fn backlog(&self) -> usize {
        self.sim.queue_len() + self.sim.pending_arrivals()
    }

    /// True while the engine has work: unfinished jobs or pending
    /// arrivals. When false, [`Service::tick`] would only burn an
    /// empty round, so callers should wait for submissions instead.
    pub fn has_work(&self) -> bool {
        self.sim.active_jobs() > 0 || self.sim.pending_arrivals() > 0
    }

    /// Accepted jobs whose arrival time the engine has not reached
    /// yet. While this is non-zero the engine cannot drain: its idle
    /// jumps target the earliest of these arrivals.
    pub fn pending_arrivals(&self) -> usize {
        self.sim.pending_arrivals()
    }

    /// Submission counters so far.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            accepted: self.accepted,
            shed: self.shed,
        }
    }

    /// Simulated clock.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Scheduler round period.
    pub fn round_period(&self) -> SimDuration {
        self.sim.tick()
    }

    /// Scheduler rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.sim.rounds()
    }

    /// Unfinished jobs currently in the engine.
    pub fn active_jobs(&self) -> usize {
        self.sim.active_jobs()
    }

    /// Cluster overload degree `O_c^t` (the admission signal).
    pub fn overload_degree(&self) -> f64 {
        self.sim.cluster_overload_degree()
    }

    /// The engine's telemetry hub (decision-latency histogram,
    /// deterministic counters). Clone before [`Service::finish`].
    pub fn tracer(&self) -> std::sync::Arc<obs::Tracer> {
        self.sim.tracer()
    }

    /// The durability layer's own telemetry (WAL appends/fsyncs,
    /// snapshot writes, recoveries), if durability is attached. Kept
    /// off the engine tracer so recovered runs stay bit-identical.
    pub fn durability_telemetry(&self) -> Option<obs::TelemetrySnapshot> {
        self.durability.as_ref().map(|d| d.tracer().snapshot())
    }

    /// First durability I/O failure, if persistence has stopped.
    /// Scheduling continues regardless (availability over
    /// durability); callers that need hard guarantees poll this.
    pub fn durability_error(&self) -> Option<String> {
        self.durability
            .as_ref()
            .and_then(|d| d.error().map(str::to_string))
    }
}

/// Incremental [`Service`] construction; see [`Service::builder`].
pub struct ServiceBuilder {
    cfg: SimConfig,
    admission: Option<AdmissionPolicy>,
    durability: Option<DurabilityConfig>,
}

impl ServiceBuilder {
    /// Shed at the door under overload (omit to accept everything).
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Persist accepted submissions and periodic snapshots under
    /// `cfg.dir`.
    pub fn durability(mut self, cfg: DurabilityConfig) -> Self {
        self.durability = Some(cfg);
        self
    }

    /// Build a **fresh** service. With a durability config this
    /// truncates any durable state already in the directory — use
    /// [`ServiceBuilder::recover`] to resume from it instead.
    pub fn build(self, scheduler: Box<dyn Scheduler>) -> Result<Service, DurabilityError> {
        let mut svc = Service::new(self.cfg, scheduler, self.admission);
        if let Some(dcfg) = self.durability {
            svc.durability = Some(Durability::create(dcfg)?);
        }
        Ok(svc)
    }

    /// Rebuild the service from the durable state in the configured
    /// directory: newest valid snapshot, WAL suffix replay, ticked
    /// back to the crash round. Errors if no durability config was
    /// given or the WAL is corrupt before its final record.
    pub fn recover(
        self,
        scheduler: Box<dyn Scheduler>,
    ) -> Result<(Service, RecoveryReport), DurabilityError> {
        let Some(dcfg) = self.durability else {
            return Err(DurabilityError::NotConfigured);
        };
        recovery::recover(self.cfg, dcfg, scheduler, self.admission)
    }
}
