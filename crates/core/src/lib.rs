//! # mlfs — ML-Feature-based job Scheduling (the paper's contribution)
//!
//! Implements the three components of MLFS (Wang, Liu & Shen, CoNEXT
//! '20) plus the scheduler interface shared with the baseline
//! schedulers:
//!
//! * [`scheduler`] — the [`Scheduler`] trait, the per-tick
//!   [`SchedulerContext`] view and the [`Action`] vocabulary
//!   (place / migrate / evict / stop / set-policy);
//! * [`priority`] — task priorities from ML spatial/temporal features
//!   and computation features (Eqs. 2–6);
//! * [`placement`] — RIAL-style ideal-point host selection and
//!   migration-victim selection (§3.3.2–3.3.3, method of \[47\]);
//! * [`gang`] — the one gang-placement routine every scheduler uses:
//!   job grouping, all-or-nothing gang commit and MLF-H's overload
//!   round with a pluggable host choice;
//! * [`mlfh`] — the heuristic scheduler MLF-H;
//! * [`features`] — state featurisation for the RL policy (§3.4's
//!   state description);
//! * [`mlfrl`] — MLF-RL: imitation-bootstrapped, policy-gradient
//!   fine-tuned RL scheduler with the Eq. 7 reward;
//! * [`mlfc`] — MLF-C: system load control via stop-policy enforcement
//!   and demotion under overload (§3.5);
//! * [`composite`] — the full MLFS pipeline (MLF-H → trained MLF-RL,
//!   plus MLF-C), with ablation switches for every figure-6…9
//!   experiment.
//!
//! # Example
//!
//! Build the three evaluated MLFS variants:
//!
//! ```
//! use mlfs::{Mlfs, MlfRlConfig, Params, Scheduler};
//!
//! let params = Params::default(); // the paper's §4.1 values
//! let heuristic = Mlfs::heuristic(params);
//! let rl = Mlfs::rl(params, MlfRlConfig::default());
//! let full = Mlfs::full(params, MlfRlConfig::default());
//! assert_eq!(heuristic.name(), "MLF-H");
//! assert_eq!(rl.name(), "MLF-RL");
//! assert_eq!(full.name(), "MLFS");
//! ```

// Panic-freedom is machine-checked twice: crate-wide here (clippy,
// non-test code only) and structurally by `cargo run -p mlfs-lint`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod blacklist;
pub mod composite;
pub mod features;
pub mod gang;
pub mod mlfc;
pub mod mlfh;
pub mod mlfrl;
pub mod params;
pub mod placement;
pub mod priority;
pub mod scheduler;

pub use blacklist::ServerBlacklist;
pub use composite::{Mlfs, MlfsConfig, MlfsVariant};
pub use mlfc::MlfC;
pub use mlfh::MlfH;
pub use mlfrl::{DriftRetrainConfig, MlfRl, MlfRlConfig};
pub use params::Params;
pub use scheduler::{
    state_from_json, state_to_json, Action, RewardComponents, Scheduler, SchedulerContext,
};
