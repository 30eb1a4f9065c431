//! # simcore — deterministic discrete-event simulation engine
//!
//! Foundation for the MLFS cluster simulator. Provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-millisecond time types with
//!   saturating arithmetic, so event ordering is exact and runs are
//!   bit-for-bit reproducible across platforms.
//! * [`EventQueue`] — a stable priority queue of timestamped events.
//!   Events with equal timestamps pop in insertion order, which keeps
//!   the simulation deterministic even when many events share a tick.
//! * [`SimRng`] — a small, seedable xorshift RNG used everywhere the
//!   simulator needs randomness. We deliberately avoid `thread_rng` so
//!   that every experiment is reproducible from its seed.
//! * [`Clock`] — the simulation clock, advanced only by the engine.
//!
//! The engine itself is generic over the event payload; the `sim` crate
//! instantiates it with cluster events (arrivals, ticks, completions).

// Panic-freedom is machine-checked twice: crate-wide here (clippy,
// non-test code only) and structurally by `cargo run -p mlfs-lint`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod queue;
pub mod rng;
pub mod time;

pub use queue::{EventEntry, EventQueue};
pub use rng::SimRng;
pub use time::{Clock, SimDuration, SimTime};
