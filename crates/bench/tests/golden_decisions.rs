//! Golden decision pins: every scheduler `baselines::by_name` accepts,
//! on the Fig. 4 testbed and the Fig. 5 Philly-scale cluster (plus one
//! crashy Fig. 4 run), must reproduce a checked-in fingerprint of its
//! final `RunMetrics`.
//!
//! `engine_determinism.rs` compares two engines running the *same*
//! scheduler code, so a changed placement decision passes it. These
//! pins catch exactly that: a refactor of the scheduling code that
//! keeps every decision keeps every fingerprint. The fingerprint is
//! FNV-1a over the JSON of the metrics with the wall-clock fields
//! cleared, the same scheme `perfbench` uses to check its workloads.
//!
//! The traces are sized so gangs fail and smaller jobs backfill (jobs
//! wait), MLF-H / MLF-RL migrate off overloaded servers, and the crashy
//! run drives the flaky-server blacklist. A pin changes only when a
//! change *means* to change decisions; record the new value then, and
//! say why in CHANGES.md.

use baselines::FIGURE_SCHEDULERS;
use metrics::RunMetrics;
use mlfs::{MlfRlConfig, Mlfs, Params, Scheduler};
use mlfs_sim::experiments::{fig4, fig5, Experiment};
use mlfs_sim::FaultConfig;

/// FNV-1a over the serialized metrics (wall-clock fields cleared).
fn fingerprint(m: &RunMetrics) -> u64 {
    let json = serde_json::to_string(m).expect("serializable metrics");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The scheduler `baselines::by_name` builds, except that the MLF-RL
/// variants imitate MLF-H for 40 rounds instead of 200, so the short
/// traces below reach the policy phase too.
fn scheduler(name: &str) -> Box<dyn Scheduler> {
    let rl = MlfRlConfig {
        imitation_rounds: 40,
        seed: 7,
        ..MlfRlConfig::default()
    };
    match name {
        "MLF-RL" => Box::new(Mlfs::rl(Params::default(), rl)),
        "MLFS" => Box::new(Mlfs::full(Params::default(), rl)),
        _ => baselines::by_name(name, 7).expect("known scheduler"),
    }
}

fn run(e: &Experiment, name: &str) -> RunMetrics {
    let mut m = e.run(scheduler(name).as_mut());
    m.clear_wall_clock();
    m
}

/// The 10 figure schedulers plus FIFO: every name `by_name` accepts.
fn all_schedulers() -> Vec<&'static str> {
    let mut names = FIGURE_SCHEDULERS.to_vec();
    names.push("FIFO");
    names
}

/// 40 testbed jobs arriving 16× compressed: about 200 rounds with a
/// queue. Utilization noise of ±20% (the figures use ±5%) pushes
/// servers over `h_r`, so MLF-H and MLF-RL migrate.
fn fig4_case() -> Experiment {
    let mut e = fig4(1.0, 16.0, 7);
    e.trace.jobs = 40;
    e.sim.utilization_noise = 0.2;
    e
}

/// 60 Philly-scale jobs on the 11-server 2% cluster: about 1,400
/// rounds, most of them with jobs waiting.
fn fig5_case() -> Experiment {
    let mut e = fig5(4.0, 0.02, 400.0, 7);
    e.trace.jobs = 60;
    e
}

/// [`fig4_case`] with seeded server crashes every ~2 server-hours.
fn fault_case() -> Experiment {
    let mut e = fig4_case();
    e.sim.fault = Some(FaultConfig {
        mtbf_hours: 2.0,
        mttr_hours: 0.5,
        schedule: Vec::new(),
        checkpoint_iters: 20,
    });
    e
}

/// Run every scheduler on `e` and compare against `pins`
/// (`(scheduler, fingerprint)`), reporting every mismatch at once.
/// Returns the metrics by scheduler for the coverage checks.
fn check(label: &str, e: &Experiment, pins: &[(&str, u64)]) -> Vec<(&'static str, RunMetrics)> {
    let mut out = Vec::new();
    let mut diffs = Vec::new();
    for name in all_schedulers() {
        let m = run(e, name);
        let got = fingerprint(&m);
        let want = pins.iter().find(|(n, _)| *n == name).map(|(_, f)| *f);
        if want != Some(got) {
            diffs.push(format!("(\"{name}\", {got:#018x}), // pinned {want:x?}"));
        }
        out.push((name, m));
    }
    assert!(
        diffs.is_empty(),
        "{label}: decisions changed:\n{}",
        diffs.join("\n")
    );
    out
}

/// Metrics of scheduler `name` in `runs`.
fn of<'a>(runs: &'a [(&str, RunMetrics)], name: &str) -> &'a RunMetrics {
    &runs
        .iter()
        .find(|(n, _)| *n == name)
        .expect("scheduler ran")
        .1
}

/// Some job of the run waited in the queue.
fn someone_waited(m: &RunMetrics) -> bool {
    m.jobs.iter().any(|j| j.waiting_secs > 0.0)
}

#[test]
fn fig4_decisions_match_pins() {
    let runs = check("fig4", &fig4_case(), FIG4_PINS);
    assert!(runs.iter().all(|(_, m)| someone_waited(m)));
    for name in ["MLF-H", "MLF-RL", "MLFS", "Gandiva"] {
        assert!(of(&runs, name).migrations > 0, "{name} never migrated");
    }
    // The policy phase made different decisions than the teacher.
    assert_ne!(
        fingerprint(of(&runs, "MLF-H")),
        fingerprint(of(&runs, "MLF-RL"))
    );
}

#[test]
fn fig5_decisions_match_pins() {
    let runs = check("fig5", &fig5_case(), FIG5_PINS);
    assert!(runs.iter().all(|(_, m)| someone_waited(m)));
    assert!(of(&runs, "MLF-RL").migrations > 0);
}

#[test]
fn faulty_fig4_decisions_match_pins() {
    let runs = check("fig4+faults", &fault_case(), FAULT_PINS);
    assert!(runs.iter().all(|(_, m)| m.server_failures > 0));
    for name in ["MLF-H", "MLF-RL", "MLFS"] {
        assert!(of(&runs, name).telemetry.blacklist_strikes > 0, "{name}");
    }
}

const FIG4_PINS: &[(&str, u64)] = &[
    ("MLF-H", 0x9052d417fbdff558),
    ("MLF-RL", 0xed2d06d8e6d0bb3f),
    ("MLFS", 0x7dbe77b20b77e800),
    ("TensorFlow", 0x4be08406efb37c6e),
    ("RL", 0x402e71ae915b2dc8),
    ("Tiresias", 0x67acab123ea53857),
    ("SLAQ", 0xef6e9b571f00d172),
    ("Graphene", 0x92b3e022829d2204),
    ("Gandiva", 0x6c26de1b98822e2f),
    ("HyperSched", 0x5e79a6d575e75b30),
    ("FIFO", 0x924687caf91b1617),
];

const FIG5_PINS: &[(&str, u64)] = &[
    ("MLF-H", 0x920198b1ad448aa9),
    ("MLF-RL", 0x12dc7620c2614502),
    ("MLFS", 0xa3ff21e238780f4c),
    ("TensorFlow", 0x5775f1f7969c614d),
    ("RL", 0xa626dd175bfd990d),
    ("Tiresias", 0x05bc4e0dfcd8f569),
    ("SLAQ", 0xba4b3a52574ef95f),
    ("Graphene", 0x292e6e2648d5848f),
    ("Gandiva", 0x0d38c4518d1ce58a),
    ("HyperSched", 0xb33a5841e7cdd3cb),
    ("FIFO", 0x1315c4a1a957a43a),
];

const FAULT_PINS: &[(&str, u64)] = &[
    ("MLF-H", 0xed82e1342aff7cc9),
    ("MLF-RL", 0x676c5cfd2d24d40d),
    ("MLFS", 0xc9e59747ac303edd),
    ("TensorFlow", 0xb2c9bebd56ce4cc7),
    ("RL", 0x3c7974e543a583a5),
    ("Tiresias", 0x5751f9d523352e55),
    ("SLAQ", 0x2a7d7f103e9b4702),
    ("Graphene", 0x418e9a5865d8ca32),
    ("Gandiva", 0x216504e119c3540b),
    ("HyperSched", 0xa2e0b1cd05cd5451),
    ("FIFO", 0xf7c0efedded7cb26),
];
