//! Per-layer metrics of a traced pass, computed from its spans and
//! from the counters the program already exports (`RunMetrics`
//! telemetry, the durability tracer, `RecoveryReport`).
//!
//! A layer a workload does not exercise reports 0: the batch
//! workloads do no service, durability or codec work, and MLF-H has no
//! learned policy.

use crate::passes::Pass;
use crate::probe::Span;
use crate::{median, quantile};

/// Every per-layer metric as `(name, unit)`, in report order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("workload.generate_s", "s"),
    ("sim.build_s", "s"),
    ("sim.step_s", "s"),
    ("sim.self_s", "s"),
    ("sim.self_p50_ms", "ms"),
    ("sim.rounds", "count"),
    ("core.schedule_s", "s"),
    ("core.schedule_p50_ms", "ms"),
    ("core.schedule_p99_ms", "ms"),
    ("core.actions", "count"),
    ("rl.imitation_round_p50_ms", "ms"),
    ("rl.policy_round_p50_ms", "ms"),
    ("rl.observe_reward_s", "s"),
    ("nn.us_per_candidate", "us"),
    ("obs.candidates_scored", "count"),
    ("obs.placements", "count"),
    ("obs.migrations", "count"),
    ("obs.evictions", "count"),
    ("obs.requeues", "count"),
    ("service.submit_s", "s"),
    ("service.plain_round_p50_ms", "ms"),
    ("service.snapshot_round_p50_ms", "ms"),
    ("service.recover_s", "s"),
    ("durability.wal_appends", "count"),
    ("durability.wal_fsyncs", "count"),
    ("durability.snapshot_writes", "count"),
    ("durability.snapshot_bytes", "bytes"),
    ("durability.wal_bytes", "bytes"),
    ("durability.load_snapshot_s", "s"),
    ("durability.read_wal_s", "s"),
    ("durability.restore_replay_s", "s"),
    ("durability.wal_records_replayed", "count"),
    ("durability.rounds_replayed", "count"),
    ("serde.render_mb_per_s", "MB/s"),
    ("serde.parse_mb_per_s", "MB/s"),
    ("trace.overhead_pct", "%"),
];

/// Scheduler time of one traced round, split from the round's own.
struct Round {
    id: u64,
    ns: u64,
    schedule_ns: u64,
    observe_ns: u64,
}

fn s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-layer values of one traced pass, in [`PER_LAYER`] order except
/// `trace.overhead_pct`, which compares passes and is filled by the
/// caller. `imitation_rounds` is the MLFS imitation boundary (`None`
/// for a scheduler without a learned policy); `actions` is what the
/// wrapper counted.
pub fn per_layer(
    pass: &Pass,
    spans: &[Span],
    imitation_rounds: Option<u64>,
    actions: u64,
) -> Vec<f64> {
    let mut rounds = Vec::new();
    let (mut schedule_ns, mut observe_ns, mut submit_ns) = (0, 0, 0);
    for span in spans {
        match (span.name, span.parent) {
            ("core.schedule", Some(_)) => schedule_ns += span.ns(),
            ("rl.observe_reward", Some(_)) => observe_ns += span.ns(),
            ("service.submit", _) => submit_ns += span.ns(),
            ("round", _) => {
                rounds.push(Round {
                    id: span.id,
                    ns: span.ns(),
                    schedule_ns,
                    observe_ns,
                });
                schedule_ns = 0;
                observe_ns = 0;
            }
            _ => {}
        }
    }
    let self_ns = |r: &Round| r.ns.saturating_sub(r.schedule_ns + r.observe_ns);
    let step_ns: u64 = rounds.iter().map(|r| r.ns).sum();
    let self_total: u64 = rounds.iter().map(self_ns).sum();
    let self_ms: Vec<f64> = rounds.iter().map(|r| ms(self_ns(r))).collect();
    let sched_total: u64 = rounds.iter().map(|r| r.schedule_ns).sum();
    let sched_ms: Vec<f64> = rounds.iter().map(|r| ms(r.schedule_ns)).collect();
    let split = |imitating: bool| -> f64 {
        let Some(boundary) = imitation_rounds else {
            return 0.0;
        };
        let xs: Vec<f64> = rounds
            .iter()
            .filter(|r| (r.id <= boundary) == imitating)
            .map(|r| ms(r.schedule_ns))
            .collect();
        median(&xs)
    };
    let t = &pass.metrics.telemetry;
    let per_candidate_us = if t.candidates_scored > 0 {
        sched_total as f64 / 1e3 / t.candidates_scored as f64
    } else {
        0.0
    };
    let by_snapshot = |snap: bool| -> f64 {
        let xs: Vec<f64> = pass
            .round_ms
            .iter()
            .zip(&pass.snapshot_round)
            .filter(|(_, &s)| s == snap)
            .map(|(&m, _)| m)
            .collect();
        median(&xs)
    };
    let crash = pass.crash.as_ref();
    let c = |f: &dyn Fn(&crate::passes::Crash) -> f64| crash.map_or(0.0, f);
    vec![
        pass.generate_s,
        pass.build_s,
        s(step_ns),
        s(self_total),
        median(&self_ms),
        rounds.len() as f64,
        s(sched_total),
        median(&sched_ms),
        quantile(&sched_ms, 0.99),
        actions as f64,
        split(true),
        split(false),
        s(rounds.iter().map(|r| r.observe_ns).sum()),
        per_candidate_us,
        t.candidates_scored as f64,
        t.placements as f64,
        t.migrations as f64,
        t.evictions as f64,
        t.requeues as f64,
        s(submit_ns),
        by_snapshot(false),
        by_snapshot(true),
        c(&|c| c.recover_s),
        c(&|c| c.wal_appends as f64),
        c(&|c| c.wal_fsyncs as f64),
        c(&|c| c.snapshot_writes as f64),
        c(&|c| c.snapshot_bytes as f64),
        c(&|c| c.wal_bytes as f64),
        c(&|c| c.load_snapshot_s),
        c(&|c| c.read_wal_s),
        c(&|c| (c.recover_s - c.load_snapshot_s - c.read_wal_s).max(0.0)),
        c(&|c| c.report.wal_records_replayed as f64),
        c(&|c| {
            let from = c.report.snapshot_round.unwrap_or(0);
            c.report.resumed_round.saturating_sub(from) as f64
        }),
        c(&|c| c.render_mb_per_s),
        c(&|c| c.parse_mb_per_s),
        0.0,
    ]
}
