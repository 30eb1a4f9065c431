//! One pass of a workload: set up, run to completion through the public
//! APIs of `workload`, `sim`, `core` and `service`, and return what the
//! benchmark measures. A pass is traced when it gets a [`Recorder`]:
//! the scheduler is then wrapped in [`Timed`] and every round, submit
//! and recovery is recorded as a span.

use crate::probe::{Recorder, Timed};
use metrics::RunMetrics;
use mlfs::Scheduler;
use mlfs_service::durability::snapshot::{list_snapshots, load_snapshot};
use mlfs_service::durability::wal::read_wal;
use mlfs_service::durability::Durability;
use mlfs_service::{DurabilityConfig, RecoveryReport, Service, ServiceSnapshot};
use mlfs_sim::experiments::{fig4, fig5, Experiment};
use mlfs_sim::{Simulation, StepOutcome};
use obs::Counter;
use simcore::SimTime;
use std::path::Path;
use std::time::{Duration, Instant};
use workload::JobSpec;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch engine under MLF-H on the Fig. 5 Philly-like trace.
    PhillyMlfh,
    /// Batch engine under full MLFS on the Fig. 4 testbed.
    TestbedMlfs,
    /// Durable service under MLF-H, crashed and recovered mid-run.
    ServiceCrash,
}

/// The engine round after which the service-crash workload drops its
/// service: a few rounds past the round-200 snapshot.
pub const CRASH_ROUND: u64 = 205;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PhillyMlfh,
        Workload::TestbedMlfs,
        Workload::ServiceCrash,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PhillyMlfh => "philly-mlfh",
            Workload::TestbedMlfs => "testbed-mlfs",
            Workload::ServiceCrash => "service-crash",
        }
    }

    /// The workload with command-line name `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiment (cluster and trace) the workload runs.
    pub fn experiment(self, seed: u64) -> Experiment {
        match self {
            Workload::PhillyMlfh => fig5(1.0, 0.5, 40.0, seed),
            Workload::TestbedMlfs => fig4(1.0, 8.0, seed),
            Workload::ServiceCrash => fig4(2.0, 8.0, seed),
        }
    }

    /// Legend name of the scheduler, built by `Experiment::scheduler`.
    pub fn scheduler(self) -> &'static str {
        match self {
            Workload::PhillyMlfh | Workload::ServiceCrash => "MLF-H",
            Workload::TestbedMlfs => "MLFS",
        }
    }
}

/// What a pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds in `Experiment::jobs`.
    pub generate_s: f64,
    /// Host seconds building the scheduler and the engine or service.
    pub build_s: f64,
    /// Host seconds from the first round until every job finished
    /// (service-crash: live phase, recovery and drain).
    pub measured_s: f64,
    /// Host ms of each round (`Simulation::step` / `Service::tick`).
    pub round_ms: Vec<f64>,
    /// Whether the durable service wrote a snapshot in that round
    /// (traced service passes only).
    pub snapshot_round: Vec<bool>,
    /// Final metrics with every wall-clock field cleared.
    pub metrics: RunMetrics,
    /// Jobs handed to the program.
    pub submitted: u64,
    /// Submissions the service refused.
    pub refused: u64,
    /// Set on service-crash.
    pub crash: Option<Crash>,
}

impl Pass {
    /// Jobs that finished before the horizon.
    pub fn finished(&self) -> u64 {
        self.metrics
            .jobs
            .iter()
            .filter(|j| j.finished.is_some())
            .count() as u64
    }
}

/// The crash and recovery of a service-crash pass.
#[derive(Debug, Default)]
pub struct Crash {
    /// Host seconds in `ServiceBuilder::recover`.
    pub recover_s: f64,
    /// What recovery did.
    pub report: RecoveryReport,
    /// Size of the newest snapshot file when the run ended.
    pub snapshot_bytes: u64,
    /// Size of the WAL when the run ended.
    pub wal_bytes: u64,
    /// Durability counters summed over the live and recovered service.
    pub wal_appends: u64,
    pub wal_fsyncs: u64,
    pub snapshot_writes: u64,
    /// Traced passes: host seconds to load and parse the newest
    /// snapshot, and to read the WAL, measured on the crash directory
    /// just before `recover`.
    pub load_snapshot_s: f64,
    pub read_wal_s: f64,
    /// Traced passes: `serde_json` render and parse of
    /// `Service::snapshot()` at the crash round, in MB/s.
    pub render_mb_per_s: f64,
    pub parse_mb_per_s: f64,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn build_scheduler(
    e: &Experiment,
    sched: &str,
    seed: u64,
    rec: Option<&Recorder>,
) -> Box<dyn Scheduler> {
    let bare = e.scheduler(sched, seed);
    match rec {
        Some(rec) => Box::new(Timed::new(bare, rec.clone())),
        None => bare,
    }
}

/// Clear the wall-clock fields so runs of one seed compare equal.
pub fn stripped(mut m: RunMetrics) -> RunMetrics {
    m.clear_wall_clock();
    m
}

/// Time one round: a `round` span when traced, a bare clock otherwise.
fn timed_round<T>(rec: Option<&Recorder>, id: u64, round: impl FnOnce() -> T) -> (T, f64) {
    match rec {
        Some(rec) => {
            let start = rec.begin_round(id);
            let out = round();
            let ns = rec.end_round("round", start);
            (out, ns as f64 / 1e6)
        }
        None => {
            let start = Instant::now();
            let out = round();
            (out, start.elapsed().as_secs_f64() * 1e3)
        }
    }
}

/// A workload set up and ready for its first round.
pub struct SetUp {
    /// Host seconds in `Experiment::jobs`.
    pub generate_s: f64,
    /// Host seconds building the scheduler and the engine or service.
    pub build_s: f64,
    /// Jobs in the trace.
    pub jobs: u64,
    pub run: Ready,
}

/// What [`set_up`] built.
pub enum Ready {
    /// The batch engine, holding the whole trace, and its scheduler.
    Batch(Simulation, Box<dyn Scheduler>),
    /// A durable service and the trace its client will submit.
    Service(Service, Vec<JobSpec>),
}

impl SetUp {
    /// Host seconds of set-up: trace generation plus construction.
    pub fn seconds(&self) -> f64 {
        self.generate_s + self.build_s
    }
}

/// Set-up, the part of a pass before its first round: generate `e`'s
/// trace and build the scheduler named `sched` and either the batch
/// engine (`durable` is `None`) or a durable service in the emptied
/// directory `durable`.
pub fn set_up(
    e: &Experiment,
    sched: &str,
    seed: u64,
    durable: Option<&Path>,
    rec: Option<&Recorder>,
) -> Result<SetUp, String> {
    if let Some(dir) = durable {
        let _ = std::fs::remove_dir_all(dir);
    }
    let t = Instant::now();
    let specs = e.jobs();
    let generate_s = secs(t.elapsed());
    let jobs = specs.len() as u64;
    let t = Instant::now();
    let sched = build_scheduler(e, sched, seed, rec);
    let run = match durable {
        None => Ready::Batch(Simulation::new(e.sim.clone(), specs), sched),
        Some(dir) => {
            let svc = Service::builder(e.sim.clone())
                .durability(DurabilityConfig::new(dir))
                .build(sched)
                .map_err(|err| format!("durable service failed to open: {err}"))?;
            Ready::Service(svc, specs)
        }
    };
    Ok(SetUp {
        generate_s,
        jobs,
        build_s: secs(t.elapsed()),
        run,
    })
}

/// Run `e` once on the batch engine under the scheduler named `sched`,
/// from trace generation to the last round.
pub fn batch_pass(e: &Experiment, sched: &str, seed: u64, rec: Option<&Recorder>) -> Pass {
    let up = set_up(e, sched, seed, None, rec).expect("the batch engine needs no I/O");
    let Ready::Batch(mut sim, mut sched) = up.run else {
        unreachable!("set_up without a directory builds the batch engine")
    };

    sim.begin(sched.as_mut());
    let mut round_ms = Vec::new();
    let t = Instant::now();
    loop {
        let id = sim.rounds() + 1;
        let (out, ms) = timed_round(rec, id, || sim.step(sched.as_mut()));
        round_ms.push(ms);
        if out != StepOutcome::Continue {
            break;
        }
    }
    let measured_s = secs(t.elapsed());
    Pass {
        generate_s: up.generate_s,
        build_s: up.build_s,
        measured_s,
        round_ms,
        metrics: stripped(sim.into_metrics()),
        submitted: up.jobs,
        ..Pass::default()
    }
}

/// Hands the trace to a service as a single client would: each job is
/// submitted before the first tick at or after its arrival.
struct Feeder {
    specs: Vec<JobSpec>,
    cursor: usize,
    refused: u64,
}

impl Feeder {
    fn submit_until(&mut self, svc: &mut Service, until: SimTime, rec: Option<&Recorder>) {
        while let Some(spec) = self.specs.get(self.cursor) {
            if spec.arrival > until {
                break;
            }
            let spec = spec.clone();
            self.cursor += 1;
            let start = rec.map(Recorder::now_ns);
            let accepted = svc.submit(spec).accepted();
            if let (Some(rec), Some(start)) = (rec, start) {
                rec.record("service.submit", start, rec.now_ns());
            }
            if !accepted {
                self.refused += 1;
            }
        }
    }

    /// Submit what is due before the next tick. A service without work
    /// never advances its clock, so when it has none the next arrival
    /// is submitted at once. Returns false when every job has finished.
    fn feed(&mut self, svc: &mut Service, rec: Option<&Recorder>) -> bool {
        loop {
            self.submit_until(svc, svc.now(), rec);
            if svc.has_work() {
                return true;
            }
            let Some(next) = self.specs.get(self.cursor).map(|s| s.arrival) else {
                return false;
            };
            self.submit_until(svc, next, rec);
        }
    }
}

/// Durability counters of a live service (zero without durability).
fn durability_counts(svc: &Service) -> [u64; 3] {
    let t = svc.durability_telemetry().unwrap_or_default();
    [
        t.count(Counter::WalAppends),
        t.count(Counter::WalFsyncs),
        t.count(Counter::SnapshotWrites),
    ]
}

/// Tick `svc`, feeding it from `feeder`, until every job has finished
/// or, with `stop_after`, the engine has run that many rounds. Returns
/// true when the service finished its work.
fn drive(
    svc: &mut Service,
    feeder: &mut Feeder,
    stop_after: Option<u64>,
    rec: Option<&Recorder>,
    pass: &mut Pass,
) -> bool {
    loop {
        if stop_after.is_some_and(|r| svc.rounds() >= r) {
            return false;
        }
        if !feeder.feed(svc, rec) {
            return true;
        }
        let snaps_before = rec.map(|_| durability_counts(svc)[2]);
        let id = svc.rounds() + 1;
        let (out, ms) = timed_round(rec, id, || svc.tick());
        pass.round_ms.push(ms);
        if let Some(before) = snaps_before {
            pass.snapshot_round.push(durability_counts(svc)[2] > before);
        }
        if out == StepOutcome::Horizon {
            return true;
        }
    }
}

/// Run a service to completion without durability or a crash: the
/// uninterrupted reference a recovered run must reproduce.
pub fn reference_run(e: &Experiment, sched: &str, seed: u64) -> RunMetrics {
    let mut svc = Service::new(e.sim.clone(), e.scheduler(sched, seed), None);
    let mut feeder = Feeder {
        specs: e.jobs(),
        cursor: 0,
        refused: 0,
    };
    drive(&mut svc, &mut feeder, None, None, &mut Pass::default());
    stripped(svc.finish())
}

/// Newest snapshot file in `dir` and its size.
fn newest_snapshot(dir: &Path) -> Option<(std::path::PathBuf, u64)> {
    let (_, path) = list_snapshots(dir).ok()?.into_iter().next()?;
    let bytes = std::fs::metadata(&path).ok()?.len();
    Some((path, bytes))
}

fn mb_per_s(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / 1e6 / d.as_secs_f64().max(1e-9)
}

/// Run `e` once through a durable service in `dir` under the scheduler
/// named `sched` until every job finished. With `crash_after`, the
/// service is dropped after that round, recovered from disk and
/// drained; `measured_s` leaves the recovery out (it has its own
/// figure). The directory is emptied first and removed at the end.
pub fn service_pass(
    e: &Experiment,
    sched: &str,
    seed: u64,
    dir: &Path,
    crash_after: Option<u64>,
    rec: Option<&Recorder>,
) -> Result<Pass, String> {
    let up = set_up(e, sched, seed, Some(dir), rec)?;
    let Ready::Service(mut svc, specs) = up.run else {
        unreachable!("set_up with a directory builds a durable service")
    };
    let mut pass = Pass {
        generate_s: up.generate_s,
        build_s: up.build_s,
        submitted: up.jobs,
        ..Pass::default()
    };
    let mut feeder = Feeder {
        specs,
        cursor: 0,
        refused: 0,
    };

    let t = Instant::now();
    let finished = drive(&mut svc, &mut feeder, crash_after, rec, &mut pass);
    let mut measured = t.elapsed();
    let mut counts = [0; 3];
    if !finished {
        let mut crash = Crash::default();
        if rec.is_some() {
            let snap = svc.snapshot();
            let t = Instant::now();
            let body =
                serde_json::to_string(&snap).map_err(|err| format!("snapshot render: {err}"))?;
            crash.render_mb_per_s = mb_per_s(body.len(), t.elapsed());
            let t = Instant::now();
            serde_json::from_str::<ServiceSnapshot>(&body)
                .map_err(|err| format!("snapshot parse: {err}"))?;
            crash.parse_mb_per_s = mb_per_s(body.len(), t.elapsed());
        }
        counts = durability_counts(&svc);
        drop(svc); // the crash

        if rec.is_some() {
            let t = Instant::now();
            if let Some((path, _)) = newest_snapshot(dir) {
                let file = load_snapshot(&path).ok_or("newest snapshot failed validation")?;
                serde_json::from_str::<ServiceSnapshot>(&file.body)
                    .map_err(|err| format!("snapshot parse: {err}"))?;
            }
            crash.load_snapshot_s = secs(t.elapsed());
            let t = Instant::now();
            read_wal(&Durability::wal_path(dir)).map_err(|err| format!("wal read: {err}"))?;
            crash.read_wal_s = secs(t.elapsed());
        }

        let scheduler = build_scheduler(e, sched, seed, rec);
        let start_ns = rec.map(Recorder::now_ns);
        let t = Instant::now();
        let (recovered, report) = Service::builder(e.sim.clone())
            .durability(DurabilityConfig::new(dir))
            .recover(scheduler)
            .map_err(|err| format!("recovery failed: {err}"))?;
        crash.recover_s = secs(t.elapsed());
        if let (Some(rec), Some(start)) = (rec, start_ns) {
            rec.record("service.recover", start, rec.now_ns());
        }
        svc = recovered;
        feeder.cursor = usize::try_from(report.resumed_accepted).unwrap_or(usize::MAX);
        crash.report = report;

        let t = Instant::now();
        drive(&mut svc, &mut feeder, None, rec, &mut pass);
        measured += t.elapsed();
        pass.crash = Some(crash);
    }

    let [a, f, s] = durability_counts(&svc);
    let error = svc.durability_error();
    pass.metrics = stripped(svc.finish());
    if let Some(crash) = pass.crash.as_mut() {
        crash.wal_appends = counts[0] + a;
        crash.wal_fsyncs = counts[1] + f;
        crash.snapshot_writes = counts[2] + s;
        crash.snapshot_bytes = newest_snapshot(dir).map_or(0, |(_, b)| b);
        crash.wal_bytes = std::fs::metadata(Durability::wal_path(dir)).map_or(0, |m| m.len());
    }
    let _ = std::fs::remove_dir_all(dir);
    if let Some(err) = error {
        return Err(format!("durability stopped: {err}"));
    }
    pass.measured_s = secs(measured);
    pass.refused = feeder.refused;
    Ok(pass)
}
