//! # mlfs-bench — the figure-regeneration harness
//!
//! One binary per paper figure (see `src/bin/`): each runs the exact
//! experiment configuration of `mlfs_sim::experiments`, prints the
//! series/rows the paper plots, and optionally dumps raw JSON under
//! `results/`. The Criterion bench (`benches/scheduler_overhead.rs`)
//! cross-checks Fig. 4h's decision-time measurements.
//!
//! All binaries accept the common flags parsed by [`Args`]:
//!
//! * `--xs 0.25,0.5,1` — workload multipliers (the paper's x axis);
//! * `--tf 16` — time-compression factor (see DESIGN.md);
//! * `--seed 42` — trace seed;
//! * `--scale 0.02` — cluster scale (fig5 only);
//! * `--panel a` — restrict to one panel (fig4/fig5/fig8);
//! * `--full` — the paper's full x range (slow!);
//! * `--json results/` — dump raw `RunMetrics` JSON.

use metrics::RunMetrics;
use std::collections::BTreeMap;

/// Minimal flag parser shared by the figure binaries (no external
/// dependency; flags are `--name value`).
#[derive(Debug, Clone)]
pub struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse() -> Self {
        Self::parse_args(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable). A flag followed by
    /// another flag (or by nothing) is a presence flag with value
    /// `"true"`.
    pub fn parse_args(it: impl Iterator<Item = String>) -> Self {
        let mut it = it.peekable();
        let mut flags = BTreeMap::new();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it
                    .next_if(|v| !v.starts_with("--"))
                    .unwrap_or_else(|| "true".into());
                flags.insert(name.to_string(), value);
            }
        }
        Args { flags }
    }

    /// A string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// A parsed numeric flag with default.
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        self.get(name)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// A parsed integer flag with default.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.get(name)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// A boolean presence flag.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A comma-separated f64 list flag.
    pub fn f64_list(&self, name: &str, default: &[f64]) -> Vec<f64> {
        match self.get(name) {
            Some(s) => s.split(',').filter_map(|x| x.trim().parse().ok()).collect(),
            None => default.to_vec(),
        }
    }
}

/// One measured cell of a figure: workload multiplier × scheduler,
/// possibly over several seeded repetitions (the paper's error bars
/// are "the 1st and 99th percentiles and median … from 10
/// experiments", §4.1).
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload multiplier (paper x-axis value = jobs at that x).
    pub x: f64,
    /// Number of jobs that x corresponds to.
    pub jobs: usize,
    /// One `RunMetrics` per repetition (≥ 1).
    pub runs: Vec<RunMetrics>,
}

impl Cell {
    /// The first repetition (the representative run).
    pub fn metrics(&self) -> &RunMetrics {
        &self.runs[0]
    }

    /// Scheduler legend name.
    pub fn scheduler(&self) -> &str {
        &self.runs[0].scheduler
    }

    /// Median of `value` across repetitions.
    pub fn median(&self, value: impl Fn(&RunMetrics) -> f64) -> f64 {
        let vals: Vec<f64> = self.runs.iter().map(value).collect();
        metrics::percentile(&vals, 50.0)
    }

    /// (p1, median, p99) of `value` across repetitions.
    pub fn spread(&self, value: impl Fn(&RunMetrics) -> f64) -> (f64, f64, f64) {
        let vals: Vec<f64> = self.runs.iter().map(value).collect();
        (
            metrics::percentile(&vals, 1.0),
            metrics::percentile(&vals, 50.0),
            metrics::percentile(&vals, 99.0),
        )
    }
}

/// Run every scheduler in `names` across `xs` with `repeats` seeded
/// repetitions each, building experiments with `make` and pre-training
/// the RL variants. Cells are independent deterministic simulations,
/// so they run on a small worker pool (set `MLFS_BENCH_THREADS` to
/// override the default of the available parallelism, or 1 to
/// serialise).
pub fn sweep_repeated(
    xs: &[f64],
    names: &[&str],
    seed: u64,
    repeats: usize,
    make: impl Fn(f64, u64) -> mlfs_sim::experiments::Experiment + Sync,
) -> Vec<Cell> {
    let threads = std::env::var("MLFS_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    sweep_repeated_with_threads(xs, names, seed, repeats, threads, make)
}

/// [`sweep_repeated`] with an explicit worker count. Every cell runs
/// its own deterministic simulation from a per-cell seed, so the
/// result is bit-identical for any `threads` value (asserted by
/// `tests/parallel_sweep.rs`).
pub fn sweep_repeated_with_threads(
    xs: &[f64],
    names: &[&str],
    seed: u64,
    repeats: usize,
    threads: usize,
    make: impl Fn(f64, u64) -> mlfs_sim::experiments::Experiment + Sync,
) -> Vec<Cell> {
    let repeats = repeats.max(1);
    // Work items: (x index, name index, repetition).
    let mut items: Vec<(usize, usize, usize)> = Vec::new();
    for xi in 0..xs.len() {
        for ni in 0..names.len() {
            for r in 0..repeats {
                items.push((xi, ni, r));
            }
        }
    }
    let threads = threads.clamp(1, items.len().max(1));

    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<(usize, RunMetrics)>>> = (0..items.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&(xi, ni, r)) = items.get(i) else {
                    break;
                };
                let run_seed = seed + 1000 * r as u64;
                let e = make(xs[xi], run_seed);
                eprintln!(
                    "[run] {} x={} ({} jobs) seed {}...",
                    names[ni], xs[xi], e.trace.jobs, run_seed
                );
                let mut s = e.trained_scheduler(names[ni], run_seed.wrapping_add(7));
                let m = e.run(s.as_mut());
                *results[i].lock().unwrap() = Some((e.trace.jobs, m));
            });
        }
    });

    // Reassemble into cells in (x, name) order.
    let mut out = Vec::new();
    for (xi, &x) in xs.iter().enumerate() {
        for ni in 0..names.len() {
            let mut runs = Vec::with_capacity(repeats);
            let mut jobs = 0;
            for (i, &(ixi, ini, _)) in items.iter().enumerate() {
                if ixi == xi && ini == ni {
                    let (j, m) = results[i].lock().unwrap().take().expect("worker filled");
                    jobs = j;
                    runs.push(m);
                }
            }
            out.push(Cell { x, jobs, runs });
        }
    }
    out
}

/// Single-repetition sweep (the default for the figure binaries).
pub fn sweep(
    xs: &[f64],
    names: &[&str],
    seed: u64,
    make: impl Fn(f64) -> mlfs_sim::experiments::Experiment + Sync,
) -> Vec<Cell> {
    sweep_repeated(xs, names, seed, 1, |x, s| {
        let mut e = make(x);
        e.trace.seed = s;
        e
    })
}

/// Dump cells as JSON files under `dir` (one per repetition).
pub fn dump_json(cells: &[Cell], dir: &str, figure: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for c in cells {
        for (r, m) in c.runs.iter().enumerate() {
            let path = format!(
                "{dir}/{figure}-x{}-{}-r{}.json",
                c.x,
                m.scheduler.replace(' ', "_"),
                r
            );
            std::fs::write(&path, serde_json::to_string_pretty(m).unwrap())?;
        }
    }
    Ok(())
}

/// Dump a panel as CSV (one row per scheduler, one column per x) for
/// plotting.
pub fn dump_csv(
    cells: &[Cell],
    names: &[&str],
    xs: &[f64],
    path: &str,
    value: impl Fn(&RunMetrics) -> f64,
) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = String::from("scheduler");
    for &x in xs {
        out.push_str(&format!(",x{x}"));
    }
    out.push('\n');
    for name in names {
        out.push_str(name);
        for &x in xs {
            let v = cells
                .iter()
                .find(|c| c.x == x && c.scheduler() == *name)
                .map(|c| c.median(&value));
            out.push_str(&format!(
                ",{}",
                v.map(|v| v.to_string()).unwrap_or_default()
            ));
        }
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Print a per-panel series table: one row per scheduler, one column
/// per x, using `value` to extract the metric.
pub fn print_panel(
    title: &str,
    cells: &[Cell],
    names: &[&str],
    xs: &[f64],
    value: impl Fn(&RunMetrics) -> f64,
    fmt: impl Fn(f64) -> String,
) {
    println!("\n== {title} ==");
    let mut header: Vec<String> = vec!["scheduler".into()];
    for &x in xs {
        let jobs = cells.iter().find(|c| c.x == x).map(|c| c.jobs).unwrap_or(0);
        header.push(format!("{jobs} jobs"));
    }
    let mut table = metrics::Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for name in names {
        let mut row = vec![name.to_string()];
        for &x in xs {
            let cell = cells.iter().find(|c| c.x == x && c.scheduler() == *name);
            row.push(match cell {
                Some(c) if c.runs.len() > 1 => {
                    let (p1, med, p99) = c.spread(&value);
                    format!("{} [{}..{}]", fmt(med), fmt(p1), fmt(p99))
                }
                Some(c) => fmt(c.median(&value)),
                None => "-".into(),
            });
        }
        table.row(row);
    }
    println!("{table}");
}

/// Print the eight panels of Fig. 4 / Fig. 5 (or a single one).
pub fn print_figure_panels(cells: &[Cell], names: &[&str], xs: &[f64], panel: Option<char>) {
    let want = |c: char| panel.is_none() || panel == Some(c);
    if want('a') {
        // Panel (a): CDF of JCT at the heaviest workload.
        let x_max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        println!("\n== (a) CDF of jobs vs JCT (x = {x_max}) ==");
        let mut t =
            metrics::Table::new(&["scheduler", "<1 min", "<10 min", "<100 min", "<1000 min"]);
        for name in names {
            if let Some(c) = cells
                .iter()
                .find(|c| c.x == x_max && c.scheduler() == *name)
            {
                t.row(vec![
                    name.to_string(),
                    format!("{:.2}", c.median(|m| m.jct_cdf_at(1.0))),
                    format!("{:.2}", c.median(|m| m.jct_cdf_at(10.0))),
                    format!("{:.2}", c.median(|m| m.jct_cdf_at(100.0))),
                    format!("{:.2}", c.median(|m| m.jct_cdf_at(1000.0))),
                ]);
            }
        }
        println!("{t}");
    }
    if want('b') {
        print_panel(
            "(b) average JCT (min)",
            cells,
            names,
            xs,
            |m| m.avg_jct_mins(),
            |v| format!("{v:.1}"),
        );
    }
    if want('c') {
        print_panel(
            "(c) job deadline guarantee ratio",
            cells,
            names,
            xs,
            |m| m.deadline_ratio(),
            |v| format!("{v:.3}"),
        );
    }
    if want('d') {
        print_panel(
            "(d) average job waiting time (s)",
            cells,
            names,
            xs,
            |m| m.avg_waiting_secs(),
            |v| format!("{v:.1}"),
        );
    }
    if want('e') {
        print_panel(
            "(e) average accuracy by deadline",
            cells,
            names,
            xs,
            |m| m.avg_accuracy(),
            |v| format!("{v:.3}"),
        );
    }
    if want('f') {
        print_panel(
            "(f) accuracy guarantee ratio",
            cells,
            names,
            xs,
            |m| m.accuracy_ratio(),
            |v| format!("{v:.3}"),
        );
    }
    if want('g') {
        print_panel(
            "(g) bandwidth cost (TB)",
            cells,
            names,
            xs,
            |m| m.bandwidth_tb(),
            |v| format!("{v:.2}"),
        );
    }
    if want('h') {
        print_panel(
            "(h) scheduler time overhead (ms)",
            cells,
            names,
            xs,
            |m| m.avg_decision_ms(),
            |v| format!("{v:.3}"),
        );
    }
}

/// Least-squares slope of `ln(wall_s)` against `ln(jobs)` over
/// `(jobs, wall_s)` points: the `k` in `wall ∝ jobs^k` (1 is linear
/// growth). `None` without two distinct job counts or with a value
/// that is not positive.
pub fn growth_exponent(points: &[(f64, f64)]) -> Option<f64> {
    if points
        .iter()
        .any(|&(jobs, wall)| !(jobs > 0.0 && wall > 0.0))
    {
        return None;
    }
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0.ln()).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1.ln()).sum::<f64>() / n;
    let (mut sxx, mut sxy) = (0.0, 0.0);
    for &(jobs, wall) in points {
        let dx = jobs.ln() - mean_x;
        sxx += dx * dx;
        sxy += dx * (wall.ln() - mean_y);
    }
    (sxx > 0.0).then(|| sxy / sxx)
}

/// Build a realistic mid-run cluster snapshot for micro-benchmarks:
/// `n_jobs` jobs arrived, roughly half their tasks placed (via
/// least-loaded first fit), the other half queued. Returns the parts
/// of a [`mlfs::SchedulerContext`].
pub fn snapshot(
    n_jobs: usize,
    seed: u64,
) -> (cluster::Cluster, workload::JobArena, Vec<cluster::TaskId>) {
    use cluster::TaskId;
    use simcore::SimTime;
    use workload::TaskRunState;

    let mut trace = workload::TraceConfig::paper_real(1.0, 16.0, seed);
    trace.jobs = n_jobs;
    let specs = workload::TraceGenerator::new(trace).generate();
    let mut cluster = cluster::Cluster::new(&cluster::ClusterConfig::paper_testbed());
    let mut jobs = workload::JobArena::new();
    let mut queue = Vec::new();
    for (ji, spec) in specs.into_iter().enumerate() {
        let id = spec.id;
        let mut state = workload::JobState::new(spec, SimTime::ZERO);
        for i in 0..state.spec.task_count() {
            let t = TaskId::new(id, i as u16);
            let ts = &state.spec.tasks[i];
            // Place even jobs' tasks if they fit anywhere.
            let host = if ji % 2 == 0 {
                cluster
                    .servers()
                    .iter()
                    .filter(|s| s.can_host(&ts.demand, ts.gpu_share, 1.0))
                    .map(|s| (s.overload_degree(), s.id))
                    .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(_, s)| s)
            } else {
                None
            };
            match host {
                Some(server) => {
                    let gpu = cluster
                        .place(t, server, ts.demand, ts.gpu_share)
                        .expect("snapshot placement");
                    state.task_states[i] = TaskRunState::Running { server, gpu };
                }
                None => queue.push(t),
            }
        }
        jobs.insert(id, state);
    }
    (cluster, jobs, queue)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_half_placed() {
        let (cluster, jobs, queue) = snapshot(40, 3);
        assert_eq!(jobs.len(), 40);
        assert!(cluster.placed_count() > 0);
        assert!(!queue.is_empty());
        let total_tasks: usize = jobs.values().map(|j| j.spec.task_count()).sum();
        assert_eq!(cluster.placed_count() + queue.len(), total_tasks);
    }

    #[test]
    fn args_parse_flags_and_lists() {
        let a = Args::parse_args(
            ["--xs", "0.25,0.5", "--tf", "16", "--full"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.f64_list("xs", &[1.0]), vec![0.25, 0.5]);
        assert_eq!(a.f64("tf", 8.0), 16.0);
        assert!(a.has("full"));
        assert!(!a.has("json"));
        assert_eq!(a.u64("seed", 42), 42);
    }

    #[test]
    fn presence_flag_does_not_swallow_the_next_flag() {
        let a = Args::parse_args(
            ["--smoke", "--out", "x", "--full"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.get("smoke"), Some("true"));
        assert_eq!(a.get("out"), Some("x"));
        assert_eq!(a.get("full"), Some("true"));
    }

    #[test]
    fn growth_exponent_is_the_log_log_slope() {
        let quadratic = [(1e3, 0.5), (1e4, 50.0), (1e5, 5000.0)];
        let k = growth_exponent(&quadratic).unwrap();
        assert!((k - 2.0).abs() < 1e-12, "{k}");
        assert_eq!(growth_exponent(&[(1e3, 1.0), (1e3, 2.0)]), None);
        assert_eq!(growth_exponent(&[(1e3, 1.0)]), None);
        assert_eq!(growth_exponent(&[(1e3, 1.0), (1e4, 0.0)]), None);
    }

    #[test]
    fn args_defaults_apply() {
        let a = Args::parse_args(std::iter::empty());
        assert_eq!(a.f64_list("xs", &[0.25, 0.5]), vec![0.25, 0.5]);
        assert_eq!(a.f64("tf", 16.0), 16.0);
    }
}
