//! # perfbench — the repository's benchmark
//!
//! Three workloads run through the public APIs of `workload`, `sim`,
//! `core`, `service` and `service::durability`; `src/main.rs` prints
//! the end-to-end metrics (untraced run) or the per-layer metrics
//! (traced run). See `README.md` for why each workload exists and what
//! each metric should move.

pub mod layers;
pub mod passes;
pub mod probe;

use metrics::RunMetrics;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// FNV-1a 64 of the run's metrics as JSON. Callers clear the
/// wall-clock fields first, so equal decisions give equal prints.
pub fn fingerprint(m: &RunMetrics) -> u64 {
    let json = serde_json::to_string(m).expect("RunMetrics always serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set (`VmHWM`) of this process in MB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The typical pass of a run. Passes of one seed make the same
/// decisions, so round `r` does the same work in every pass; the median
/// over passes of each round's host time, and of the time spent outside
/// rounds, drops the bursts in which another process held the CPU,
/// since those hit different rounds in different passes. Takes each
/// pass as `(round ms, measured s)`; returns the per-round medians (ms)
/// and the typical pass time (s), or `None` if the passes ran different
/// numbers of rounds.
pub fn typical_pass(passes: &[(&[f64], f64)]) -> Option<(Vec<f64>, f64)> {
    let n = passes.first()?.0.len();
    if passes.iter().any(|(r, _)| r.len() != n) {
        return None;
    }
    let rounds: Vec<f64> = (0..n)
        .map(|i| median(&passes.iter().map(|(r, _)| r[i]).collect::<Vec<_>>()))
        .collect();
    let outside: Vec<f64> = passes
        .iter()
        .map(|(r, s)| s - r.iter().sum::<f64>() / 1e3)
        .collect();
    let total = rounds.iter().sum::<f64>() / 1e3 + median(&outside);
    Some((rounds, total))
}
