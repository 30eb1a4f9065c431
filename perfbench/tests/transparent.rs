//! The traced run must measure the same program the untraced run does:
//! the timing wrapper forwards every `Scheduler` method unchanged, and
//! wrapped runs make exactly the decisions bare runs make.

use cluster::{Cluster, ClusterConfig, JobId, TaskId};
use mlfs::{Action, RewardComponents, Scheduler, SchedulerContext};
use mlfs_sim::experiments::fig4;
use perfbench::fingerprint;
use perfbench::passes::{batch_pass, reference_run, service_pass};
use perfbench::probe::{Recorder, Timed};
use simcore::SimTime;
use std::sync::{Arc, Mutex};
use workload::JobArena;

/// Logs every call it receives and answers with recognisable values.
struct Probe {
    log: Arc<Mutex<Vec<String>>>,
}

impl Probe {
    fn push(&self, call: String) {
        self.log.lock().expect("log").push(call);
    }
}

impl Scheduler for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        self.push(format!("schedule {}", ctx.queue.len()));
        Vec::new()
    }

    fn schedule_stream(&mut self, ctx: &SchedulerContext<'_>, arrived: &[JobId]) -> Vec<Action> {
        self.push(format!("schedule_stream {} {:?}", ctx.queue.len(), arrived));
        vec![Action::Evict {
            task: TaskId {
                job: JobId(7),
                idx: 1,
            },
        }]
    }

    fn observe_reward(&mut self, reward: &RewardComponents) {
        self.push(format!("observe_reward {:?}", reward.g));
    }

    fn attach_tracer(&mut self, _tracer: Arc<obs::Tracer>) {
        self.push("attach_tracer".into());
    }

    fn export_state(&self) -> Option<String> {
        self.push("export_state".into());
        Some("state-7".into())
    }

    fn import_state(&mut self, state: &str) -> bool {
        self.push(format!("import_state {state}"));
        state == "ok"
    }
}

#[test]
fn wrapper_forwards_every_scheduler_method() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let rec = Recorder::new();
    let mut timed = Timed::new(Box::new(Probe { log: log.clone() }), rec.clone());
    let cluster = Cluster::new(&ClusterConfig::paper_testbed());
    let jobs = JobArena::new();
    let queue = [TaskId {
        job: JobId(3),
        idx: 0,
    }];
    let ctx = SchedulerContext {
        now: SimTime::ZERO,
        jobs: &jobs,
        cluster: &cluster,
        queue: &queue,
    };

    assert_eq!(timed.name(), "probe");
    rec.begin_round(1);
    timed.observe_reward(&RewardComponents {
        g: [1.0, 2.0, 3.0, 4.0, 5.0],
    });
    let actions = timed.schedule_stream(&ctx, &[JobId(3)]);
    rec.end_round("round", 0);
    assert!(timed.schedule(&ctx).is_empty());
    timed.attach_tracer(Arc::new(obs::Tracer::disabled()));
    assert_eq!(timed.export_state().as_deref(), Some("state-7"));
    assert!(timed.import_state("ok"));
    assert!(!timed.import_state("bad"));

    let expected_action = Action::Evict {
        task: TaskId {
            job: JobId(7),
            idx: 1,
        },
    };
    assert_eq!(actions, vec![expected_action]);
    assert_eq!(
        *log.lock().expect("log"),
        vec![
            "observe_reward [1.0, 2.0, 3.0, 4.0, 5.0]".to_string(),
            "schedule_stream 1 [JobId(3)]".to_string(),
            "schedule 1".to_string(),
            "attach_tracer".to_string(),
            "export_state".to_string(),
            "import_state ok".to_string(),
            "import_state bad".to_string(),
        ]
    );
    // Only the two calls the engine makes inside a round are timed.
    let spans = rec.take();
    let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.id)).collect();
    assert_eq!(
        names,
        vec![
            ("rl.observe_reward", Some("round"), 1),
            ("core.schedule", Some("round"), 1),
            ("round", None, 1),
        ]
    );
}

#[test]
fn wrapped_batch_runs_decide_like_bare_runs() {
    let e = fig4(0.25, 8.0, 11);
    for sched in ["MLF-H", "MLFS"] {
        let bare = batch_pass(&e, sched, 11, None);
        let rec = Recorder::new();
        let wrapped = batch_pass(&e, sched, 11, Some(&rec));
        assert_eq!(bare.metrics.invalid_actions, 0);
        assert_eq!(
            fingerprint(&bare.metrics),
            fingerprint(&wrapped.metrics),
            "{sched}: wrapping the scheduler changed a decision"
        );
        let spans = rec.take();
        let rounds = spans.iter().filter(|s| s.name == "round").count();
        assert_eq!(rounds as u64, wrapped.metrics.rounds);
    }
}

#[test]
fn wrapped_durable_service_recovers_bit_identically() {
    let e = fig4(0.25, 8.0, 5);
    let uninterrupted = fingerprint(&reference_run(&e, "MLF-H", 5));
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-recover");
    let rec = Recorder::new();
    // A crash after round 60 recovers from the round-50 snapshot plus
    // the WAL suffix.
    let pass = service_pass(&e, "MLF-H", 5, &dir, Some(60), Some(&rec)).expect("service pass");
    let crash = pass.crash.as_ref().expect("crash details");
    assert_eq!(crash.report.snapshot_round, Some(50));
    assert_eq!(fingerprint(&pass.metrics), uninterrupted);
    assert!(!dir.exists(), "the durability directory is removed");
    let spans = rec.take();
    assert_eq!(
        spans.iter().filter(|s| s.name == "service.recover").count(),
        1
    );
    // Every job is submitted once: recovery resumes the client at the
    // last acknowledged submission.
    let submits = spans.iter().filter(|s| s.name == "service.submit").count();
    assert_eq!(submits as u64, pass.submitted);
}
