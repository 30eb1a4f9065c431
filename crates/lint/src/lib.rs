//! `mlfs-lint` — workspace-aware static analysis for the MLFS
//! reproduction.
//!
//! Every result this workspace produces rests on two properties that
//! ordinary tests cannot guard by themselves:
//!
//! * **bit-identical determinism** — seeded RNG streams, ordered
//!   (`BTreeMap`) iteration, no wall-clock reads anywhere a scheduling
//!   decision can observe;
//! * **panic-freedom on the scheduler hot path** — a speculative
//!   placement that fails must degrade into skip-and-requeue, never
//!   abort a simulation.
//!
//! This crate machine-checks those conventions. It contains a small
//! comment/string/raw-string-aware Rust tokenizer (no external parser
//! — the build environment is offline) and a rule engine that walks
//! every workspace `.rs` file and `Cargo.toml`, applying per-crate
//! *tier* policies (see [`policy`]). Findings are reported as
//! rustc-style `file:line:col` diagnostics with stable rule IDs, can
//! be suppressed line-by-line with an audited
//! `// lint:allow(<rule>) reason="..."` comment. Any finding fails the
//! run: there is no baseline of accepted findings.

pub mod callgraph;
pub mod deep;
pub mod parse;
pub mod policy;
pub mod report;
pub mod rules;
pub mod tokenizer;
pub mod workspace;

pub use deep::{analyze, DeepReport};
pub use parse::{parse_file, ParsedFile};
pub use policy::{FilePolicy, Tier};
pub use report::{render_json, render_text};
pub use rules::{scan_source, Finding, ScanStats};
pub use workspace::{scan_workspace, scan_workspace_deep, WorkspaceReport};
