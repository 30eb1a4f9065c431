//! Micro-benchmarks for the inner-loop pieces of a scheduling
//! decision, measured in isolation on one mid-run 60-job snapshot
//! (`mlfs_bench::snapshot`):
//!
//! * `select_host` — one RIAL ideal-point host selection for the first
//!   queued task that has a feasible host, on a plain `Cluster`
//!   (candidate filter + affinity map + distance argmin over every
//!   server: the full scan);
//! * `select_host_overlay` — a host choice on MLF-H's planning view, a
//!   275-server `ClusterOverlay` with float-residue servers and the
//!   task's neighbours placed, answered from the overlay's load index;
//!   `select_host_philly_scan` is the same choice scanned on the plain
//!   `Cluster`;
//! * `all_priorities` — Eq. 2–6 priorities for every live task;
//! * `scores_batch` — one batched policy forward over a full
//!   candidate set (the MLF-RL inference primitive);
//! * `mlfrl_decision` — one complete MLF-RL scheduling round (greedy
//!   policy, no imitation warm-up), the number the ≤200µs/decision
//!   target tracks;
//! * `mlfrl_decision_traced` — the same round with a disabled-sink
//!   tracer attached, guarding the ≤2% no-op observability budget;
//! * `event_calendar` — steady-state pop/push on the deadline
//!   calendar the event-driven engine advances through (one window's
//!   worth of eager pops plus re-arms at 1k pending events);
//! * `arena_job_row` — one SoA hot-row read per queued task (the
//!   arena lookup the engine and gang-feasibility checks lean on),
//!   against the `BTreeMap`-era cost this column layout replaced.
//!
//! ```sh
//! cargo bench -p mlfs-bench --bench hot_path
//! ```

use cluster::{Cluster, ClusterConfig, ClusterOverlay, JobId, ResourceVec, ServerId, TaskId};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mlfs::{Scheduler, SchedulerContext};
use rl::{FeatureBatch, ScoringPolicy};
use simcore::{SimRng, SimTime};
use workload::JobArena;

/// A Philly-scale-0.5 cluster (275 servers) in the state MLF-H plans on
/// mid-run: a fifth loaded, the rest emptied again with float residue
/// left in all but one resource (a different one per fifth, as after
/// real churn), so no server is idle yet every resource has exact
/// zeros; `task`'s neighbours run on loaded servers.
fn philly_half(jobs: &JobArena, task: TaskId) -> Cluster {
    // Per `i % 5`: the resource a residue server keeps at exactly zero,
    // or `None` for a loaded server.
    const ZERO_IN: [Option<usize>; 5] = [Some(0), None, Some(1), Some(2), Some(3)];
    let mut c = Cluster::new(&ClusterConfig::paper_philly(0.5));
    let n = c.server_count();
    let filler = |k: usize| TaskId::new(JobId(1_000_000 + k as u32), 0);
    for i in 0..n {
        let sid = ServerId(i as u32);
        let Some(zero) = ZERO_IN[i % 5] else {
            let d = ResourceVec::new(1.5, 12.0, 90.0, 400.0);
            c.place(filler(i), sid, d, 0.75).expect("filler fits");
            continue;
        };
        // Adding 0.1 then 0.2 and taking both off leaves ~2.8e-17.
        let mut unit = [1.0; cluster::NUM_RESOURCES];
        unit[zero] = 0.0;
        for k in 1..=2 {
            let d = ResourceVec(unit.map(|u| u * 0.1 * k as f64));
            c.place(filler(n * k + i), sid, d, d.0[0])
                .expect("filler fits");
        }
        for k in 1..=2 {
            c.remove(filler(n * k + i));
        }
    }
    if let Some(job) = jobs.get(&task.job) {
        let neighbours = mlfs::placement::comm_neighbors(job, task.idx as usize);
        for (j, nb) in neighbours.into_iter().enumerate() {
            let Some(spec) = job.spec.tasks.get(nb as usize) else {
                continue;
            };
            let sid = ServerId(((1 + 5 * j) % n) as u32);
            c.place(TaskId::new(task.job, nb), sid, spec.demand, spec.gpu_share)
                .expect("neighbour fits");
        }
    }
    c
}

fn bench_hot_path(c: &mut Criterion) {
    let (cluster, jobs, queue) = mlfs_bench::snapshot(60, 7);
    let params = mlfs::Params::default();
    // The first queued task the scan can place: a task that fits
    // nowhere would time a failed scan, not a placement.
    let task = *queue
        .iter()
        .find(|t| mlfs::placement::select_host(&cluster, &jobs, **t, None, &params).is_some())
        .expect("snapshot has a placeable queued task");

    let mut group = c.benchmark_group("hot_path");
    group.sample_size(30);
    group.bench_function("select_host", |b| {
        b.iter(|| {
            black_box(mlfs::placement::select_host(
                &cluster,
                &jobs,
                black_box(task),
                None,
                &params,
            ))
        })
    });
    // A queued task with neighbours that an idle Philly server can host.
    // The overlay builds its index
    // on the first call and keeps it, as it does for the ~70 picks of
    // one MLF-H round at this scale.
    let idle = Cluster::new(&ClusterConfig::paper_philly(0.01));
    let placeable = *queue
        .iter()
        .find(|t| {
            jobs.get(&t.job).is_some_and(|job| {
                let spec = &job.spec.tasks[t.idx as usize];
                mlfs::placement::comm_degree(job, t.idx as usize) > 0
                    && idle.servers()[0].can_host(&spec.demand, spec.gpu_share, params.h_r)
            })
        })
        .expect("snapshot has a placeable task with neighbours");
    let philly = philly_half(&jobs, placeable);
    let overlay = ClusterOverlay::new(&philly, params.h_r);
    assert_eq!(
        mlfs::placement::select_host(&overlay, &jobs, placeable, None, &params),
        mlfs::placement::select_host(&philly, &jobs, placeable, None, &params),
    );
    group.bench_function("select_host_overlay", |b| {
        b.iter(|| {
            black_box(mlfs::placement::select_host(
                &overlay,
                &jobs,
                black_box(placeable),
                None,
                &params,
            ))
        })
    });
    group.bench_function("select_host_philly_scan", |b| {
        b.iter(|| {
            black_box(mlfs::placement::select_host(
                &philly,
                &jobs,
                black_box(placeable),
                None,
                &params,
            ))
        })
    });
    group.bench_function("all_priorities", |b| {
        b.iter(|| {
            let ctx = SchedulerContext {
                now: SimTime::from_mins(30),
                jobs: &jobs,
                cluster: &cluster,
                queue: &queue,
            };
            black_box(mlfs::MlfH::all_priorities(&ctx, &params))
        })
    });

    // Batched candidate scoring at MLF-RL's production shape: the
    // default 12-candidate cap plus the queue option, through the
    // default 64-32 policy network.
    let mut rng = SimRng::new(7);
    let policy = ScoringPolicy::new(mlfs::features::FEATURE_DIM, &[64, 32], &mut rng);
    let mut batch = FeatureBatch::new(mlfs::features::FEATURE_DIM);
    for _ in 0..13 {
        let row = batch.push_row();
        for v in row.iter_mut() {
            *v = rng.range_f64(0.0, 1.0);
        }
    }
    let mut scores = Vec::new();
    group.bench_function("scores_batch", |b| {
        b.iter(|| {
            policy.scores_into(black_box(&batch), &mut scores);
            black_box(scores.last().copied())
        })
    });

    // One full MLF-RL decision round (greedy inference, as evaluated).
    let mut rl_sched = mlfs::Mlfs::rl(
        mlfs::Params::default(),
        mlfs::MlfRlConfig {
            imitation_rounds: 0,
            explore: false,
            ..Default::default()
        },
    );
    group.bench_function("mlfrl_decision", |b| {
        b.iter(|| {
            let ctx = SchedulerContext {
                now: SimTime::from_mins(30),
                jobs: &jobs,
                cluster: &cluster,
                queue: &queue,
            };
            black_box(rl_sched.schedule(&ctx))
        })
    });

    // Identical round with a no-op tracer attached: counters tick but
    // no sink runs. The delta against `mlfrl_decision` is the
    // observability tax, budgeted at ≤2%.
    let mut traced_sched = mlfs::Mlfs::rl(
        mlfs::Params::default(),
        mlfs::MlfRlConfig {
            imitation_rounds: 0,
            explore: false,
            ..Default::default()
        },
    );
    traced_sched.attach_tracer(std::sync::Arc::new(obs::Tracer::disabled()));
    group.bench_function("mlfrl_decision_traced", |b| {
        b.iter(|| {
            let ctx = SchedulerContext {
                now: SimTime::from_mins(30),
                jobs: &jobs,
                cluster: &cluster,
                queue: &queue,
            };
            black_box(traced_sched.schedule(&ctx))
        })
    });

    // Deadline-calendar churn at paper-scale occupancy: pop the eight
    // earliest events of a window and re-arm each one later, the way
    // `advance_event` consumes and the admitter refills the calendar.
    group.bench_function("event_calendar", |b| {
        let mut cal: simcore::EventQueue<cluster::JobId> = simcore::EventQueue::new();
        let mut rng = SimRng::new(11);
        for i in 0..1000u32 {
            cal.push(SimTime(rng.range_u64(0, 1 << 30)), cluster::JobId(i));
        }
        b.iter(|| {
            let mut last = SimTime::ZERO;
            for _ in 0..8 {
                if let Some(entry) = cal.pop() {
                    last = entry.at;
                    cal.push(entry.at + simcore::SimDuration::from_hours(1), entry.event);
                }
            }
            black_box(last)
        })
    });

    // One hot-row read per queued task: the SoA column fetch that
    // replaced pulling whole `JobState`s through the old `BTreeMap`.
    group.bench_function("arena_job_row", |b| {
        b.iter(|| {
            let mut gpu = 0.0f64;
            for t in &queue {
                if let Some(row) = jobs.hot(&t.job) {
                    gpu += row.max_task_gpu_share + row.task_count as f64;
                }
            }
            black_box(gpu)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
