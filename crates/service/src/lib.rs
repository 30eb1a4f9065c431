//! # service — scheduler-as-a-service front-end
//!
//! Everything before this crate treats a run as a *batch*: the full
//! job trace is known up front, `Simulation::run` consumes it, and the
//! metrics come out the other end. A production scheduler is the
//! opposite shape — a long-running process that jobs *arrive at*. This
//! crate wraps the PR 6 engine in that shape without forking it:
//!
//! * [`Service`] — the synchronous core. Jobs are submitted one at a
//!   time ([`Service::submit`]), pass MLF-C-derived admission control
//!   ([`AdmissionPolicy`]), and land in the engine's sorted pending
//!   list via `Simulation::inject_job`. Each [`Service::tick`] runs
//!   exactly one scheduler round (`Simulation::step`), batching every
//!   arrival since the previous round into the scheduler's
//!   `schedule_stream` call. Because the core is synchronous and the
//!   engine is deterministic, a recorded arrival stream replayed
//!   through a `Service` is **bit-identical** to the batch engine —
//!   the `service_determinism` test in `crates/bench` proves it for
//!   all ten figure schedulers.
//! * [`ServiceHandle`] — the threaded front-end. [`Service::spawn`]
//!   moves the core onto a worker thread behind a bounded
//!   `std::sync::mpsc::sync_channel`; [`ServiceHandle::submit`] is
//!   non-blocking and reports [`SubmitError::Backpressure`] when the
//!   queue is full, so overload never blocks (or crashes) the caller.
//! * [`ServiceSnapshot`] — crash-safe restarts. [`Service::snapshot`]
//!   serializes the full engine state at a round boundary (extending
//!   the PR 3 job-level checkpointing to the whole scheduler);
//!   [`Service::restore`] rebuilds a service that continues
//!   bit-identically to the uninterrupted run.
//! * [`durability`] — the durable version of the above: a
//!   write-ahead submission log (checksummed, torn-tail-repairing),
//!   periodic background snapshots with retention and WAL
//!   compaction, and [`ServiceBuilder::recover`], which rebuilds a
//!   crashed service from disk bit-identically (chaos-tested in
//!   `crates/service/tests/chaos.rs`).
//!
//! The repo benchmark's `service-crash` workload (`perfbench/`) gates
//! the durable service's throughput and round latency; see
//! `docs/SERVICE.md`.
//!
//! This crate is in the deterministic lint tier: nothing here reads a
//! wall clock — decision latency is measured *inside* the engine
//! (`obs` log₂ histogram) and by perfbench, which lives outside the
//! workspace.

// Panic-freedom is machine-checked twice: crate-wide here (clippy,
// non-test code only) and structurally by `cargo run -p mlfs-lint`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod core;
pub mod durability;
pub mod front;

pub use admission::{AdmissionPolicy, ShedReason, SubmitOutcome};
pub use core::{Service, ServiceBuilder, ServiceSnapshot, ServiceStats};
pub use durability::{
    DurabilityConfig, DurabilityError, FsyncPolicy, RecoveryReport, WalError, WalRecord,
};
pub use front::{ServiceHandle, ServiceReport, SubmitError};
