//! Crash recovery: newest valid snapshot + WAL suffix replay.
//!
//! The invariant the chaos tests pin: a service killed at an
//! arbitrary point and recovered from disk produces **bit-identical**
//! scheduling decisions to the uninterrupted run, for every submission
//! the recovered state still covers. Recovery proceeds in order:
//!
//! 1. Scan the WAL. A torn final record is truncated away (the crash
//!    interrupted that append, so the job was never acknowledged);
//!    damage before the final record is a hard
//!    [`DurabilityError::CorruptLog`].
//! 2. Walk snapshots newest → oldest. A candidate is accepted only if
//!    its header validates (magic/length/CRC), its body parses, and
//!    the scheduler accepts its exported state. Anything else falls
//!    back to the next older file, down to an empty service.
//! 3. Replay the WAL suffix (`seq > snapshot.accepted`, which must be
//!    contiguous): tick the engine to each record's round, then
//!    re-inject the job *bypassing admission* — it was already
//!    admitted pre-crash, and re-running admission against recovered
//!    state could double-shed.
//! 4. Reattach the WAL writer at the truncated end so new accepts
//!    continue the sequence.

use super::snapshot::{list_snapshots, load_snapshot};
use super::wal::{read_wal, truncate_to, WalRecord};
use super::{Durability, DurabilityConfig, DurabilityError};
use crate::admission::AdmissionPolicy;
use crate::core::{Service, ServiceSnapshot};
use mlfs::Scheduler;
use mlfs_sim::engine::{SimConfig, StepOutcome};
use obs::{Counter, TraceEvent};

/// What recovery found and did — returned alongside the service so
/// callers (and the chaos bench) can assert on the recovery path
/// taken.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Round of the snapshot restored from; `None` = started empty.
    pub snapshot_round: Option<u64>,
    /// Snapshot files that failed validation and were skipped.
    pub snapshots_rejected: usize,
    /// WAL records re-injected on top of the snapshot.
    pub wal_records_replayed: u64,
    /// Bytes of torn WAL tail truncated, if any.
    pub wal_truncated_bytes: Option<u64>,
    /// Engine round the recovered service resumed at.
    pub resumed_round: u64,
    /// Accepted-submission count after replay — the driver's cursor
    /// for re-submitting anything the durable state did not cover.
    pub resumed_accepted: u64,
}

/// Rebuild a [`Service`] from the durable state in `dcfg.dir`.
pub fn recover(
    cfg: SimConfig,
    dcfg: DurabilityConfig,
    scheduler: Box<dyn Scheduler>,
    admission: Option<AdmissionPolicy>,
) -> Result<(Service, RecoveryReport), DurabilityError> {
    let mut report = RecoveryReport::default();
    let wal_path = Durability::wal_path(&dcfg.dir);

    // 1. Scan the WAL; repair a torn tail on disk before anything
    // else so the append handle can be reattached at the end.
    let scan = read_wal(&wal_path)?;
    if let Some((_, dropped)) = scan.torn {
        if wal_path.exists() {
            truncate_to(&wal_path, scan.valid_len)?;
        }
        report.wal_truncated_bytes = Some(dropped);
    }

    // 2. Newest → oldest snapshot that validates end-to-end.
    let mut scheduler = scheduler;
    let mut chosen: Option<ServiceSnapshot> = None;
    for (_, path) in list_snapshots(&dcfg.dir)? {
        let Some(file) = load_snapshot(&path) else {
            report.snapshots_rejected += 1;
            continue;
        };
        let Ok(snap) = serde_json::from_str::<ServiceSnapshot>(&file.body) else {
            report.snapshots_rejected += 1;
            continue;
        };
        // Scheduler state must import cleanly; `import_state`
        // contracts to not mutate on failure, so falling back to an
        // older snapshot (or empty) stays sound.
        if let Some(state) = &snap.scheduler_state {
            if !scheduler.import_state(state) {
                report.snapshots_rejected += 1;
                continue;
            }
        }
        report.snapshot_round = Some(file.round);
        chosen = Some(snap);
        break;
    }

    let mut svc = match chosen {
        Some(snap) => Service::restore(cfg, snap, scheduler, admission),
        None => Service::new(cfg, scheduler, admission),
    };

    // 3. Replay the contiguous WAL suffix past the snapshot.
    let base = svc.stats().accepted;
    for (i, rec) in scan.records.iter().filter(|r| r.seq > base).enumerate() {
        let expected = base + 1 + i as u64;
        if rec.seq != expected {
            return Err(DurabilityError::WalGap {
                expected,
                found: rec.seq,
            });
        }
        replay_one(&mut svc, rec)?;
        report.wal_records_replayed += 1;
    }

    report.resumed_round = svc.rounds();
    report.resumed_accepted = svc.stats().accepted;

    // 4. Reattach the durable store and stamp the recovery.
    let durability = Durability::reopen(dcfg, scan.valid_len, scan.frames())?;
    durability.tracer.add(Counter::Recoveries, 1);
    if let Some((at, dropped)) = scan.torn {
        durability
            .tracer
            .emit(|| TraceEvent::WalTruncated { at, dropped });
    }
    {
        let r = &report;
        durability.tracer.emit(|| TraceEvent::Recovery {
            snap_round: r.snapshot_round.unwrap_or(0),
            replayed: u32::try_from(r.wal_records_replayed).unwrap_or(u32::MAX),
            resumed_round: r.resumed_round,
        });
    }
    svc.attach_durability(durability);
    Ok((svc, report))
}

/// Tick the engine forward to the record's round, then re-inject.
fn replay_one(svc: &mut Service, rec: &WalRecord) -> Result<(), DurabilityError> {
    while svc.rounds() < rec.round {
        let before = svc.rounds();
        match svc.tick() {
            // A draining tick still runs its round: the live run
            // drained here too, and its client submitted this record
            // next. Only a tick that ran no round, or the horizon,
            // means the log does not match the engine config.
            StepOutcome::Continue | StepOutcome::Drained if svc.rounds() > before => {}
            _ => {
                return Err(DurabilityError::WalGap {
                    expected: rec.seq,
                    found: rec.seq,
                });
            }
        }
    }
    if svc.replay_inject(rec.spec.clone()) {
        Ok(())
    } else {
        // Duplicate id: the snapshot already contains this job, so
        // the seq bookkeeping is inconsistent with the snapshot.
        Err(DurabilityError::WalGap {
            expected: rec.seq,
            found: rec.seq,
        })
    }
}
