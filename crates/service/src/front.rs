//! The threaded front-end: a bounded queue in front of the core.
//!
//! [`Service::spawn`] moves the core onto a worker thread behind a
//! `std::sync::mpsc::sync_channel`. The channel *is* the arrival
//! queue: its capacity bounds how far producers can run ahead of the
//! decision loop, and a full channel surfaces as
//! [`SubmitError::Backpressure`] instead of blocking the caller —
//! overload degrades by shedding, never by stalling submitters.
//!
//! The worker alternates between draining the channel (non-blocking)
//! and running scheduler rounds; when the engine has no work it
//! parks on a blocking `recv` so an idle service costs nothing. No
//! wall clock is read anywhere on this path — the deterministic-tier
//! lint holds for the whole crate.

use crate::core::{Service, ServiceStats};
use metrics::RunMetrics;
use mlfs_sim::engine::StepOutcome;
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use workload::JobSpec;

/// Why a non-blocking submission failed. The spec comes back so the
/// caller can retry, reroute, or count the shed.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The arrival queue is full — the decision loop is saturated.
    Backpressure(JobSpec),
    /// The worker is gone (finished or panicked).
    Closed(JobSpec),
}

/// What the worker thread hands back at shutdown.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Final run metrics (same shape as a batch run's).
    pub metrics: RunMetrics,
    /// Engine-side submission counters.
    pub stats: ServiceStats,
    /// True when the worker thread panicked; `metrics`/`stats` are
    /// defaults in that case, not measurements.
    pub worker_panicked: bool,
    /// Durability-layer telemetry (WAL appends/fsyncs, snapshot
    /// writes, recoveries) when the service persisted state.
    pub durability: Option<obs::TelemetrySnapshot>,
    /// First durability I/O failure, if persistence stopped mid-run.
    pub durability_error: Option<String>,
}

/// Deterministic backoff for retrying a backpressured submission:
/// attempt `k` (1-based) waits `base × 2^(k−1)` units, capped at
/// `max`, giving up after `attempts` tries. The same doubling shape
/// (and default cap) as the straggler blacklist's re-admission
/// backoff; units are thread yields in [`ServiceHandle`], abstract
/// in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-attempt wait, in yield units.
    pub base: u32,
    /// Per-attempt wait ceiling.
    pub max: u32,
    /// Total submission attempts before giving up.
    pub attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: 3,
            max: 120,
            attempts: 8,
        }
    }
}

impl RetryPolicy {
    /// Wait before attempt `k` (1-based; attempt 1 never waits).
    pub fn backoff(&self, k: u32) -> u32 {
        if k <= 1 {
            return 0;
        }
        self.base
            .saturating_mul(1u32 << (k - 2).min(30))
            .min(self.max)
    }
}

/// Drive `submit` under `policy`, calling `wait(n)` between attempts.
/// Pure with respect to time — [`ServiceHandle::submit_with_retry`]
/// passes a thread-yield `wait`; the give-up unit test passes a
/// counter. Returns the spec's final refusal if every attempt fails.
#[allow(clippy::result_large_err)]
fn submit_with_retry_impl<S, W>(
    policy: RetryPolicy,
    spec: JobSpec,
    mut submit: S,
    mut wait: W,
) -> Result<(), SubmitError>
where
    S: FnMut(JobSpec) -> Result<(), SubmitError>,
    W: FnMut(u32),
{
    let mut spec = spec;
    let attempts = policy.attempts.max(1);
    for k in 1..=attempts {
        let pause = policy.backoff(k);
        if pause > 0 {
            wait(pause);
        }
        match submit(spec) {
            Ok(()) => return Ok(()),
            // Closed never heals: retrying only burns time.
            Err(SubmitError::Closed(s)) => return Err(SubmitError::Closed(s)),
            Err(SubmitError::Backpressure(s)) => spec = s,
        }
    }
    Err(SubmitError::Backpressure(spec))
}

/// Handle to a running service worker. Dropping the handle (or
/// calling [`ServiceHandle::finish`]) closes the arrival queue; the
/// worker then drains remaining work and exits.
pub struct ServiceHandle {
    tx: SyncSender<JobSpec>,
    join: std::thread::JoinHandle<ServiceReport>,
}

impl Service {
    /// Move the core onto a worker thread behind a bounded arrival
    /// queue of `queue_capacity` jobs.
    pub fn spawn(self, queue_capacity: usize) -> ServiceHandle {
        let (tx, rx) = std::sync::mpsc::sync_channel(queue_capacity);
        let join = std::thread::spawn(move || worker_loop(self, rx));
        ServiceHandle { tx, join }
    }
}

impl ServiceHandle {
    /// Non-blocking submit. `Err(Backpressure)` means the bounded
    /// queue is full right now; the job was *not* enqueued.
    // The Err variants hand the spec back by value so a refused
    // caller can retry without a heap allocation per shed.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, spec: JobSpec) -> Result<(), SubmitError> {
        match self.tx.try_send(spec) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(s)) => Err(SubmitError::Backpressure(s)),
            Err(TrySendError::Disconnected(s)) => Err(SubmitError::Closed(s)),
        }
    }

    /// [`ServiceHandle::submit`] with bounded deterministic retries
    /// on [`SubmitError::Backpressure`]: attempt `k` first yields the
    /// thread `base × 2^(k−1)` times (capped), giving the decision
    /// loop a chance to drain, then resubmits. Gives up after
    /// `policy.attempts` tries, handing the spec back. `Closed` is
    /// returned immediately — a gone worker never heals.
    #[allow(clippy::result_large_err)]
    pub fn submit_with_retry(&self, spec: JobSpec, policy: RetryPolicy) -> Result<(), SubmitError> {
        submit_with_retry_impl(
            policy,
            spec,
            |s| self.submit(s),
            |n| {
                for _ in 0..n {
                    std::thread::yield_now();
                }
            },
        )
    }

    /// Close the arrival queue and wait for the worker to drain all
    /// accepted work and finish.
    pub fn finish(self) -> ServiceReport {
        drop(self.tx);
        match self.join.join() {
            Ok(report) => report,
            Err(_) => ServiceReport {
                worker_panicked: true,
                ..ServiceReport::default()
            },
        }
    }
}

/// The decision loop. Invariants:
///
/// * every queued submission is admitted before the next round, so
///   an arrival's placement latency is at most one round plus the
///   round's own decision time;
/// * the engine never runs an empty round — with no work the loop
///   parks on the channel instead of ticking;
/// * after [`StepOutcome::Horizon`] the loop stops scheduling (the
///   horizon advanced the world to `max_time`) and only drains the
///   channel until the producers hang up.
fn worker_loop(mut svc: Service, rx: Receiver<JobSpec>) -> ServiceReport {
    let mut open = true;
    let mut horizon = false;
    loop {
        // Drain everything already queued, without blocking.
        loop {
            match rx.try_recv() {
                Ok(spec) => {
                    svc.submit(spec);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        if svc.has_work() && !horizon {
            if svc.tick() == StepOutcome::Horizon {
                horizon = true;
            }
        } else if open {
            // Idle (or past the horizon): park until the next
            // submission or hang-up.
            match rx.recv() {
                Ok(spec) => {
                    svc.submit(spec);
                }
                Err(_) => open = false,
            }
        } else {
            break;
        }
    }
    let stats = svc.stats();
    let durability = svc.durability_telemetry();
    let durability_error = svc.durability_error();
    ServiceReport {
        metrics: svc.finish(),
        stats,
        worker_panicked: false,
        durability,
        durability_error,
    }
}

#[cfg(test)]
// The test closures return `SubmitError` by design: the real channel
// hands the full `JobSpec` back on refusal, and the retry loop's
// contract is exactly that round-trip.
#[allow(clippy::result_large_err)]
mod tests {
    use super::*;
    use cluster::JobId;
    use workload::{TraceConfig, TraceGenerator};

    fn spec(id: u32) -> JobSpec {
        let mut cfg = TraceConfig::paper_sim(0.25, 64.0, 1.0, 7);
        cfg.jobs = 1;
        let mut s = TraceGenerator::new(cfg)
            .generate()
            .pop()
            .expect("one-job trace");
        s.id = JobId(id);
        s
    }

    #[test]
    fn backoff_doubles_from_base_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), 0);
        assert_eq!(p.backoff(2), 3);
        assert_eq!(p.backoff(3), 6);
        assert_eq!(p.backoff(4), 12);
        // 3·2^6 = 192 > 120 → capped.
        assert_eq!(p.backoff(8), 120);
    }

    #[test]
    fn retry_gives_up_after_bounded_attempts_and_returns_the_job() {
        let p = RetryPolicy::default();
        let mut tries = 0u32;
        let mut waits: Vec<u32> = Vec::new();
        let out = submit_with_retry_impl(
            p,
            spec(7),
            |s| {
                tries += 1;
                Err(SubmitError::Backpressure(s))
            },
            |n| waits.push(n),
        );
        assert_eq!(tries, 8);
        assert_eq!(waits, vec![3, 6, 12, 24, 48, 96, 120]);
        match out {
            Err(SubmitError::Backpressure(s)) => assert_eq!(s.id, JobId(7)),
            other => panic!("expected give-up with the spec, got {other:?}"),
        }
    }

    #[test]
    fn retry_succeeds_once_backpressure_clears() {
        let p = RetryPolicy::default();
        let mut tries = 0u32;
        let out = submit_with_retry_impl(
            p,
            spec(1),
            |s| {
                tries += 1;
                if tries < 3 {
                    Err(SubmitError::Backpressure(s))
                } else {
                    Ok(())
                }
            },
            |_| {},
        );
        assert_eq!(out, Ok(()));
        assert_eq!(tries, 3);
    }

    #[test]
    fn retry_does_not_retry_closed() {
        let p = RetryPolicy::default();
        let mut tries = 0u32;
        let out = submit_with_retry_impl(
            p,
            spec(1),
            |s| {
                tries += 1;
                Err(SubmitError::Closed(s))
            },
            |_| {},
        );
        assert_eq!(tries, 1);
        assert!(matches!(out, Err(SubmitError::Closed(_))));
    }
}
