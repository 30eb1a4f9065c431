//! Service-level integration tests: deterministic shedding under
//! overload, crash-safe snapshot/restore, and the threaded front-end.

use mlfs_service::{AdmissionPolicy, Service, ShedReason, SubmitOutcome};
use mlfs_sim::engine::StepOutcome;
use mlfs_sim::experiments::{fig4, Experiment};

fn small_fig4(jobs: usize) -> Experiment {
    let mut e = fig4(0.25, 64.0, 7);
    e.trace.jobs = jobs;
    e
}

fn mlfh(e: &Experiment) -> Box<dyn mlfs::Scheduler> {
    e.scheduler("MLF-H", 7)
}

/// Run a full submit-everything-then-drain cycle and return the
/// wall-clock-stripped metrics JSON.
fn drain_all(e: &Experiment, svc: &mut Option<Service>) -> String {
    let mut s = svc.take().expect("service");
    for spec in e.jobs() {
        assert!(s.submit(spec).accepted());
    }
    assert_eq!(s.run_until_drained(), StepOutcome::Drained);
    let mut m = s.finish();
    m.clear_wall_clock();
    serde_json::to_string(&m).expect("serializable metrics")
}

#[test]
fn submit_everything_up_front_matches_batch() {
    // With every spec submitted before the first tick the service is
    // the batch run with extra plumbing — results must be identical.
    let e = small_fig4(8);
    let mut scheduler = mlfh(&e);
    let mut batch = e.run(scheduler.as_mut());
    batch.clear_wall_clock();
    let batch = serde_json::to_string(&batch).expect("serializable metrics");

    let mut svc = Some(Service::new(e.sim.clone(), mlfh(&e), None));
    assert_eq!(drain_all(&e, &mut svc), batch);
}

#[test]
fn overload_sheds_deterministically() {
    let e = small_fig4(30);
    let policy = AdmissionPolicy {
        max_backlog: 5,
        ..AdmissionPolicy::default()
    };
    let offered = e.jobs();

    // Submit the whole trace as one burst, twice, without ever
    // ticking: admission decisions depend only on engine state, so
    // the shed pattern must repeat exactly.
    let run = || {
        let mut svc = Service::new(e.sim.clone(), mlfh(&e), Some(policy));
        let outcomes: Vec<SubmitOutcome> = offered.iter().cloned().map(|s| svc.submit(s)).collect();
        let stats = svc.stats();
        (outcomes, stats)
    };
    let (out1, stats1) = run();
    let (out2, stats2) = run();
    assert_eq!(out1, out2, "shedding must be deterministic");
    assert_eq!(stats1, stats2);

    // The burst overflows the backlog: some accepted, some shed, and
    // every shed is a Backlog shed carrying its spec back.
    assert_eq!(stats1.accepted, 6, "backlog 5 admits 6 before tripping");
    assert_eq!(stats1.accepted + stats1.shed, offered.len() as u64);
    for o in &out1 {
        if let SubmitOutcome::Shed(reason, spec) = o {
            assert!(matches!(reason, ShedReason::Backlog { backlog } if *backlog > 5));
            assert!(offered.iter().any(|s| s.id == spec.id));
        }
    }

    // Once the backlog drains, the door reopens.
    let mut svc = Service::new(e.sim.clone(), mlfh(&e), Some(policy));
    let mut it = offered.iter().cloned();
    for spec in it.by_ref().take(7) {
        svc.submit(spec);
    }
    svc.run_until_drained();
    let late = it.next().expect("spec 8 exists");
    assert!(svc.submit(late).accepted(), "drained service accepts again");
}

#[test]
fn overload_threshold_is_strict_at_the_boundary() {
    // An empty cluster has overload degree exactly 0.0. The paper's
    // shed rule is strict (`O_c^t > h_s`), so `h_s = 0.0` sits right
    // on the boundary and must still admit...
    let e = small_fig4(2);
    let at_boundary = AdmissionPolicy {
        h_s: 0.0,
        ..AdmissionPolicy::default()
    };
    let mut svc = Service::new(e.sim.clone(), mlfh(&e), Some(at_boundary));
    assert_eq!(svc.overload_degree(), 0.0);
    assert!(svc.submit(e.jobs().remove(0)).accepted());

    // ...while any threshold *below* the current degree sheds.
    let below = AdmissionPolicy {
        h_s: -1.0,
        ..AdmissionPolicy::default()
    };
    let mut svc = Service::new(e.sim.clone(), mlfh(&e), Some(below));
    match svc.submit(e.jobs().remove(0)) {
        SubmitOutcome::Shed(ShedReason::Overload { degree }, _) => assert_eq!(degree, 0.0),
        other => panic!("expected overload shed, got {other:?}"),
    }
}

#[test]
fn zero_backlog_policy_admits_one_then_sheds() {
    // `max_backlog = 0` is the degenerate-but-legal config: a job is
    // admitted only when the service is completely empty (the check
    // is strict, and the backlog is sampled *before* the submit).
    let e = small_fig4(4);
    let policy = AdmissionPolicy {
        max_backlog: 0,
        ..AdmissionPolicy::default()
    };
    let mut svc = Service::new(e.sim.clone(), mlfh(&e), Some(policy));
    let mut jobs = e.jobs().into_iter();
    assert!(svc.submit(jobs.next().expect("job 0")).accepted());
    match svc.submit(jobs.next().expect("job 1")) {
        SubmitOutcome::Shed(ShedReason::Backlog { backlog: 1 }, _) => {}
        other => panic!("expected backlog shed at depth 1, got {other:?}"),
    }
    // Draining empties the backlog and reopens the door.
    svc.run_until_drained();
    assert!(svc.submit(jobs.next().expect("job 2")).accepted());
}

#[test]
fn snapshot_mid_burst_preserves_shed_and_accept_decisions() {
    // Crash in the middle of an overload burst: the restored service
    // must shed/accept the rest of the burst exactly as the
    // uninterrupted service would — admission reads backlog and
    // overload degree, both of which the snapshot carries.
    let e = small_fig4(30);
    let policy = AdmissionPolicy {
        max_backlog: 5,
        ..AdmissionPolicy::default()
    };
    let offered = e.jobs();
    let split = 10;

    let mut reference = Service::new(e.sim.clone(), mlfh(&e), Some(policy));
    let want: Vec<SubmitOutcome> = offered
        .iter()
        .cloned()
        .map(|s| reference.submit(s))
        .collect();

    let mut svc = Service::new(e.sim.clone(), mlfh(&e), Some(policy));
    let head: Vec<SubmitOutcome> = offered
        .iter()
        .take(split)
        .cloned()
        .map(|s| svc.submit(s))
        .collect();
    assert_eq!(head, want[..split], "pre-crash burst must match");
    let snap = svc.snapshot();
    drop(svc); // the crash, mid-burst, with arrivals still pending
    let restored_snap =
        serde_json::from_str(&serde_json::to_string(&snap).expect("snapshot serializes"))
            .expect("snapshot deserializes");
    let mut svc = Service::restore(e.sim.clone(), restored_snap, mlfh(&e), Some(policy));
    assert!(svc.pending_arrivals() > 0, "burst snapshot holds arrivals");
    let tail: Vec<SubmitOutcome> = offered
        .iter()
        .skip(split)
        .cloned()
        .map(|s| svc.submit(s))
        .collect();
    assert_eq!(tail, want[split..], "post-restore burst must match");
    assert_eq!(svc.stats().accepted, 6, "same accepts as the one-shot run");
}

#[test]
fn duplicate_ids_are_shed() {
    let e = small_fig4(4);
    let mut svc = Service::new(e.sim.clone(), mlfh(&e), None);
    let spec = e.jobs().remove(0);
    assert!(svc.submit(spec.clone()).accepted());
    match svc.submit(spec) {
        SubmitOutcome::Shed(ShedReason::Duplicate, _) => {}
        other => panic!("expected duplicate shed, got {other:?}"),
    }
}

#[test]
fn snapshot_restore_is_bit_identical_mid_run() {
    let e = small_fig4(8);

    // Reference: uninterrupted service run.
    let mut svc = Service::new(e.sim.clone(), mlfh(&e), None);
    for spec in e.jobs() {
        assert!(svc.submit(spec).accepted());
    }
    assert_eq!(svc.run_until_drained(), StepOutcome::Drained);
    let half = svc.rounds() / 2;
    assert!(half > 0, "reference run must span multiple rounds");
    let mut m = svc.finish();
    m.clear_wall_clock();
    let reference = serde_json::to_string(&m).expect("serializable metrics");

    // Interrupted run: snapshot at a round boundary mid-flight,
    // serialize the snapshot (a restart must survive a process
    // boundary), restore into a *fresh* service + scheduler, finish.
    let mut svc = Service::new(e.sim.clone(), mlfh(&e), None);
    for spec in e.jobs() {
        assert!(svc.submit(spec).accepted());
    }
    for _ in 0..half {
        assert_eq!(svc.tick(), StepOutcome::Continue, "mid-run rounds continue");
    }
    let snap = svc.snapshot();
    drop(svc); // the "crash"
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    let snap = serde_json::from_str(&json).expect("snapshot deserializes");

    let mut restored = Service::restore(e.sim.clone(), snap, mlfh(&e), None);
    assert_eq!(restored.rounds(), half, "metrics survive the restart");
    assert_eq!(restored.run_until_drained(), StepOutcome::Drained);
    let mut m = restored.finish();
    m.clear_wall_clock();
    let resumed = serde_json::to_string(&m).expect("serializable metrics");

    assert_eq!(
        reference, resumed,
        "restored service diverged from the uninterrupted run"
    );
}

/// A snapshot is taken between rounds, when `now` is already the next
/// round's time and `last` the previous one's; the next tick advances
/// over `(last, now]`. A deadline inside that window that has not been
/// frozen yet must still be frozen after a restore.
#[test]
fn restore_keeps_a_deadline_due_in_the_next_tick() {
    let e = small_fig4(8);
    let mut specs = e.jobs();
    // Job 0's deadline falls between two rounds, long before the job
    // can finish, so the freeze that records its accuracy by the
    // deadline happens in the middle of the run.
    let watched = specs[0].id;
    specs[0].deadline = specs[0].arrival + simcore::SimDuration::from_secs(90);
    let deadline = specs[0].deadline;
    let submit_all = |svc: &mut Service| {
        for spec in &specs {
            assert!(svc.submit(spec.clone()).accepted());
        }
    };
    let finish = |svc: Service| {
        let mut m = svc.finish();
        m.clear_wall_clock();
        serde_json::to_string(&m).expect("serializable metrics")
    };

    let mut svc = Service::new(e.sim.clone(), mlfh(&e), None);
    submit_all(&mut svc);
    assert_eq!(svc.run_until_drained(), StepOutcome::Drained);
    let reference = finish(svc);

    // Tick until the watched deadline lies in `(last, now]`, unfrozen.
    let mut svc = Service::new(e.sim.clone(), mlfh(&e), None);
    submit_all(&mut svc);
    let snap = loop {
        assert_eq!(svc.tick(), StepOutcome::Continue, "deadline never due");
        let snap = svc.snapshot();
        if snap.sim.last < deadline && deadline <= snap.sim.now {
            break snap;
        }
    };
    let (_, job) = snap
        .sim
        .jobs
        .iter()
        .find(|(id, _)| *id == watched)
        .expect("watched job is live");
    assert!(job.accuracy_at_deadline.is_none() && !job.is_finished());
    drop(svc);
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    let snap = serde_json::from_str(&json).expect("snapshot deserializes");
    let mut restored = Service::restore(e.sim.clone(), snap, mlfh(&e), None);
    assert_eq!(restored.run_until_drained(), StepOutcome::Drained);
    assert_eq!(
        reference,
        finish(restored),
        "the restored run lost the deadline freeze"
    );
}

#[test]
fn snapshot_restore_roundtrips_counters_and_backlog() {
    let e = small_fig4(6);
    let mut svc = Service::new(e.sim.clone(), mlfh(&e), None);
    for spec in e.jobs() {
        svc.submit(spec);
    }
    for _ in 0..10 {
        svc.tick();
    }
    let snap = svc.snapshot();
    assert_eq!(snap.stats.accepted, 6);
    let restored = Service::restore(e.sim.clone(), snap, mlfh(&e), None);
    assert_eq!(restored.stats(), svc.stats());
    assert_eq!(restored.backlog(), svc.backlog());
    assert_eq!(restored.now(), svc.now());
    assert_eq!(restored.active_jobs(), svc.active_jobs());
}

#[test]
fn threaded_front_end_completes_all_accepted_jobs() {
    let e = small_fig4(8);
    let svc = Service::new(e.sim.clone(), mlfh(&e), None);
    let handle = svc.spawn(64);
    let mut sent = 0u64;
    for spec in e.jobs() {
        let mut spec = spec;
        loop {
            match handle.submit(spec) {
                Ok(()) => break,
                Err(mlfs_service::SubmitError::Backpressure(s)) => {
                    spec = s;
                    std::thread::yield_now();
                }
                Err(mlfs_service::SubmitError::Closed(_)) => panic!("worker closed early"),
            }
        }
        sent += 1;
    }
    let report = handle.finish();
    assert!(!report.worker_panicked);
    assert_eq!(report.stats.accepted, sent);
    assert_eq!(report.metrics.jobs.len() as u64, sent);
    assert_eq!(report.metrics.scheduler, "MLF-H");
    assert!(report.max_backlog > 0);
    let finished = report
        .metrics
        .jobs
        .iter()
        .filter(|j| j.finished.is_some())
        .count() as u64;
    assert_eq!(finished, sent, "every accepted job must finish");
}
