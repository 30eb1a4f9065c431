//! Paper-scale engine benchmark: emit `BENCH_scale.json`.
//!
//! Runs the Fig. 5 Philly workload under MLF-H at several `--scale`
//! points with both simulation engines (`naive` reference vs the
//! `event`-driven calendar engine) and records simulated jobs per
//! wall-clock second. This is the perf gate for the event engine: the
//! checked-in `BENCH_scale.json` must show a ≥5× wall-clock win at 1×
//! paper scale (550 servers, 117 325 jobs), and the 10× point must
//! complete.
//!
//! ```sh
//! # Full sweep (hours at 1×/10× on a small machine):
//! cargo run --release -p mlfs-bench --bin scale
//!
//! # CI smoke: one event-engine run at --scale 0.05 with a wall-clock
//! # ceiling; exits non-zero when the ceiling is blown.
//! cargo run --release -p mlfs-bench --bin scale -- --smoke [--ceiling-s 600]
//! ```
//!
//! Flags: `--points 0.02:both,1:both,10:event` (scale:engine list;
//! engine ∈ naive|event|both), `--x 1` (Fig. 5 load multiplier),
//! `--tf 40` (time compression), `--seed 42`, `--out BENCH_scale.json`.
//! The JSON is rewritten after every completed run, so a partial sweep
//! still leaves usable numbers on disk. Its `growth_exponent` is the
//! log–log slope of `wall_s` against jobs over the event-engine runs
//! (1 is linear growth; null with fewer than two scales).

use mlfs_bench::Args;
use mlfs_sim::engine::EngineMode;
use mlfs_sim::experiments::fig5;
use serde_json::Value;

/// One benchmark point: Fig. 5 at `scale` under `engine`.
struct Point {
    scale: f64,
    engine: EngineMode,
}

fn engine_name(mode: EngineMode) -> &'static str {
    match mode {
        EngineMode::Naive => "naive",
        EngineMode::EventDriven => "event",
    }
}

/// Parse `0.02:both,1:event` into points (both → naive then event).
fn parse_points(spec: &str) -> Vec<Point> {
    let mut points = Vec::new();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (scale_s, eng_s) = part.split_once(':').unwrap_or((part, "both"));
        let Ok(scale) = scale_s.trim().parse::<f64>() else {
            eprintln!("skipping malformed point {part:?}");
            continue;
        };
        match eng_s.trim() {
            "naive" => points.push(Point {
                scale,
                engine: EngineMode::Naive,
            }),
            "event" => points.push(Point {
                scale,
                engine: EngineMode::EventDriven,
            }),
            _ => {
                points.push(Point {
                    scale,
                    engine: EngineMode::Naive,
                });
                points.push(Point {
                    scale,
                    engine: EngineMode::EventDriven,
                });
            }
        }
    }
    points
}

/// Current git commit (short), or "unknown" outside a checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("smoke");
    let x = args.f64("x", 1.0);
    let tf = args.f64("tf", 40.0);
    let seed = args.u64("seed", 42);
    let ceiling_s = args.f64("ceiling-s", 600.0);
    let default_out = if smoke {
        "target/BENCH_scale.smoke.json"
    } else {
        "BENCH_scale.json"
    };
    let out = args.get("out").unwrap_or(default_out).to_string();

    let points = if smoke {
        vec![Point {
            scale: args.f64("scale", 0.05),
            engine: EngineMode::EventDriven,
        }]
    } else {
        parse_points(args.get("points").unwrap_or("0.02:both,1:both,10:event"))
    };

    // The bench measures the working tree: `before_commit` is the
    // commit the tree is based on; `after_commit` is the commit that
    // will contain the measured change, stamped once it exists
    // (`--after-commit <sha>`, or edited post-commit).
    let meta = Value::Map(vec![
        ("before_commit".into(), Value::Str(git_commit())),
        (
            "after_commit".into(),
            Value::Str(args.get("after-commit").unwrap_or("worktree").into()),
        ),
        ("scheduler".into(), Value::Str("MLF-H".into())),
        ("figure".into(), Value::Str("fig5".into())),
        ("x".into(), Value::F64(x)),
        ("time_factor".into(), Value::F64(tf)),
        ("seed".into(), Value::U64(seed)),
    ]);

    let mut runs: Vec<Value> = Vec::new();
    // wall_s of the naive run at each scale, for the speedup column.
    let mut naive_wall: Vec<(f64, f64)> = Vec::new();
    // (jobs, wall_s) of every event-engine run, for the growth exponent.
    let mut event_growth: Vec<(f64, f64)> = Vec::new();
    let mut blown = false;

    for p in &points {
        let mut e = fig5(x, p.scale, tf, seed);
        e.sim.engine = p.engine;
        let servers = ((550.0 * p.scale).round() as usize).max(1);
        eprintln!(
            "[scale] {} engine, scale {} ({} servers, {} jobs)...",
            engine_name(p.engine),
            p.scale,
            servers,
            e.trace.jobs
        );
        let mut s = e.scheduler("MLF-H", seed.wrapping_add(7));
        let t0 = std::time::Instant::now();
        let m = e.run(s.as_mut());
        let wall = t0.elapsed().as_secs_f64();
        let jobs_per_sec = m.jobs_submitted as f64 / wall.max(1e-9);
        eprintln!(
            "[scale]   {:.1}s wall, {} rounds, {:.1} jobs/s, {} finished",
            wall,
            m.rounds,
            jobs_per_sec,
            m.jobs.len()
        );

        match p.engine {
            EngineMode::Naive => naive_wall.push((p.scale, wall)),
            EngineMode::EventDriven => event_growth.push((m.jobs_submitted as f64, wall)),
        }
        let speedup = (p.engine == EngineMode::EventDriven)
            .then(|| {
                naive_wall
                    .iter()
                    .find(|(sc, _)| *sc == p.scale)
                    .map(|(_, nw)| Value::F64(nw / wall.max(1e-9)))
            })
            .flatten()
            .unwrap_or(Value::Null);

        runs.push(Value::Map(vec![
            ("scale".into(), Value::F64(p.scale)),
            ("engine".into(), Value::Str(engine_name(p.engine).into())),
            ("servers".into(), Value::U64(servers as u64)),
            ("jobs".into(), Value::U64(m.jobs_submitted as u64)),
            ("rounds".into(), Value::U64(m.rounds)),
            ("wall_s".into(), Value::F64(wall)),
            ("jobs_per_sec".into(), Value::F64(jobs_per_sec)),
            ("speedup_vs_naive".into(), speedup),
        ]));

        // Rewrite after every run so a partial sweep is still useful.
        let growth = mlfs_bench::growth_exponent(&event_growth).map_or(Value::Null, Value::F64);
        let root = Value::Map(vec![
            ("meta".into(), meta.clone()),
            ("runs".into(), Value::Seq(runs.clone())),
            ("growth_exponent".into(), growth),
        ]);
        if let Err(err) = std::fs::write(&out, serde_json::value_to_string_pretty(&root) + "\n") {
            eprintln!("failed to write {out}: {err}");
        }

        if smoke && wall > ceiling_s {
            eprintln!("[scale] SMOKE FAIL: {wall:.1}s exceeds ceiling {ceiling_s:.0}s");
            blown = true;
        }
    }

    println!("wrote {out}");
    if blown {
        std::process::exit(1);
    }
}
