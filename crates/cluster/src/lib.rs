//! # cluster — multi-resource ML cluster model
//!
//! The substrate the paper's schedulers operate on: a set of servers,
//! each with multiple GPUs and a four-dimensional resource capacity
//! (GPU compute, CPU, memory, network bandwidth). The crate tracks
//!
//! * per-server and per-GPU load / utilization vectors (`U_s^t` in the
//!   paper, §3.3.2),
//! * overload detection against the threshold `h_r`,
//! * task placement, removal and migration (with migration byte
//!   accounting — Gandiva-style migrations are *not* free),
//! * cumulative inter-server bandwidth cost (`B_{n_i,n_j}`, the `g_3`
//!   objective of Eq. 1), and
//! * an inter-server [`Topology`] that converts bytes to transfer time
//!   (flat by default; an optional two-level tree models the paper's
//!   "network topology" future-work item).
//!
//! The crate knows nothing about ML jobs; it deals in opaque
//! [`TaskId`]s and resource demand vectors. The `workload` crate maps
//! ML tasks onto these.

// Panic-freedom is machine-checked twice: crate-wide here (clippy,
// non-test code only) and structurally by `cargo run -p mlfs-lint`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod host_index;
pub mod ids;
pub mod resources;
pub mod server;
pub mod state;
pub mod topology;
pub mod view;

pub use host_index::HostIndex;
pub use ids::{JobId, ServerId, TaskId};
pub use resources::{Resource, ResourceVec, NUM_RESOURCES};
pub use server::{HealthState, Server, TaskPlacement};
pub use state::{Cluster, ClusterConfig, ClusterSnapshot, PlaceError, DEFAULT_OVERLOAD_THRESHOLD};
pub use topology::Topology;
pub use view::{ClusterOverlay, ClusterView};
