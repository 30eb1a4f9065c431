//! Per-crate tier policy: which rule families apply where.
//!
//! * **Deterministic tier** — every crate whose code can influence a
//!   scheduling decision or a recorded metric. Bit-identical replay
//!   (the PR 3 determinism tests) requires that nothing here observes
//!   hash-iteration order, wall clocks, or ambient randomness.
//! * **Hot-path tier** — the crates on the per-round scheduling path
//!   (`core` schedulers, `cluster` placement/overlay, the `sim`
//!   engine). A panic here aborts a whole simulation, so `unwrap`/
//!   `expect`/panicking macros/indexing are banned outside tests; the
//!   audited `// lint:allow(<rule>) reason="…"` escape hatch covers
//!   the provably-unreachable remainder.
//!
//! Test modules (`#[cfg(test)]`, `#[test]`), `tests/`, `benches/`,
//! `examples/` and `src/bin/` targets are exempt from both tiers:
//! determinism and panic-freedom are properties of the library code
//! the simulator runs, not of assertions about it.

/// Crates in the deterministic tier (directory names under `crates/`).
pub const DETERMINISTIC_TIER: &[&str] = &[
    "core",
    "cluster",
    "sim",
    "simcore",
    "rl",
    "nn",
    "workload",
    "learncurve",
    "baselines",
    "metrics",
    // obs runs inside `schedule()` via the span/event macros; a
    // nondeterministic tracer would leak into decision traces.
    "obs",
    // The service front-end replays arrival streams bit-identically;
    // its decision loop must not observe wall clocks or hash order.
    "service",
];

/// Crates in the scheduler hot-path tier.
pub const HOT_PATH_TIER: &[&str] = &["core", "cluster", "sim", "obs", "service"];

/// Vendored crates (directory names under `vendor/`) in the hot-path
/// tier: the JSON codec writes every service snapshot and WAL record
/// and parses them again on every recovery.
pub const HOT_PATH_VENDOR: &[&str] = &["serde"];

/// Rule families that apply to one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilePolicy {
    pub deterministic: bool,
    pub hot_path: bool,
}

impl FilePolicy {
    pub const NONE: FilePolicy = FilePolicy {
        deterministic: false,
        hot_path: false,
    };
    pub const ALL: FilePolicy = FilePolicy {
        deterministic: true,
        hot_path: true,
    };
}

/// Tier membership of a crate directory name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Deterministic,
    HotPath,
}

/// Policy for a workspace-relative path such as
/// `crates/core/src/mlfh.rs` or `vendor/serde/src/lib.rs`. Non-library
/// targets (tests, benches, examples, bin) and non-tier crates get
/// [`FilePolicy::NONE`].
pub fn policy_for(rel_path: &str) -> FilePolicy {
    let p = rel_path.replace('\\', "/");
    // Only library code inside `crates/<name>/src/` (or a hot-path
    // `vendor/<name>/src/`) is in scope, and `src/bin/` CLI targets
    // are not library code.
    let (vendored, rest) = match (p.strip_prefix("crates/"), p.strip_prefix("vendor/")) {
        (Some(rest), _) => (false, rest),
        (None, Some(rest)) => (true, rest),
        (None, None) => return FilePolicy::NONE,
    };
    let Some((krate, tail)) = rest.split_once('/') else {
        return FilePolicy::NONE;
    };
    if !tail.starts_with("src/") || tail.starts_with("src/bin/") {
        return FilePolicy::NONE;
    }
    if vendored {
        return FilePolicy {
            deterministic: false,
            hot_path: HOT_PATH_VENDOR.contains(&krate),
        };
    }
    FilePolicy {
        deterministic: DETERMINISTIC_TIER.contains(&krate),
        hot_path: HOT_PATH_TIER.contains(&krate),
    }
}
