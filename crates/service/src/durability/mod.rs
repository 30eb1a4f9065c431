//! Durable service state: write-ahead submission log, background
//! snapshots, and crash recovery.
//!
//! Layered under [`crate::Service`] behind a [`DurabilityConfig`]:
//!
//! * **WAL** ([`wal`]) — every accepted submit is appended (and
//!   optionally fsynced) *before* the service acknowledges it.
//! * **Snapshots** ([`snapshot`]) — every `snapshot_every_rounds`
//!   ticks the worker serializes the full [`crate::ServiceSnapshot`]
//!   (engine + counters + scheduler state) to `snap-<round>.json`
//!   atomically, prunes old snapshots, and compacts the WAL.
//! * **Recovery** ([`recovery`]) — newest valid snapshot + WAL suffix
//!   replay reproduces the pre-crash service bit-identically; damaged
//!   files degrade gracefully (torn WAL tail → truncate, damaged
//!   snapshot → older snapshot → empty service + full replay).
//!
//! The durability layer runs its own [`obs::Tracer`] (events
//! `wal_append`/`wal_truncated`/`snapshot_write`/`recovery`, counter
//! slots 6–9) so durability bookkeeping never perturbs the engine
//! telemetry that [`metrics::RunMetrics`] folds — crash recovery must
//! be *bit-identical*, counters included.

pub mod recovery;
pub mod snapshot;
pub mod wal;

pub use recovery::RecoveryReport;
pub use wal::{FsyncPolicy, WalError, WalRecord};

use obs::{Counter, TraceConfig, TraceEvent, Tracer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wal::WalWriter;
use workload::JobSpec;

/// Where and how service state is persisted.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and `snap-<round>.json` files.
    /// Created if absent. One service per directory.
    pub dir: PathBuf,
    /// When WAL appends reach the disk.
    pub fsync: FsyncPolicy,
    /// Snapshot every this many engine rounds (0 disables periodic
    /// snapshots; the WAL alone still bounds loss).
    pub snapshot_every_rounds: u64,
    /// How many snapshots to retain (≥ 1). Older files are deleted
    /// and the WAL is compacted past the oldest survivor.
    pub keep_snapshots: usize,
    /// Tracer for durability events/counters (separate from the
    /// engine tracer by design; see the module docs).
    pub trace: TraceConfig,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the defaults used by the bench
    /// harness: fsync every 32 appends, snapshot every 50 rounds,
    /// keep 3 snapshots, tracing disabled.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(32),
            snapshot_every_rounds: 50,
            keep_snapshots: 3,
            trace: TraceConfig::Disabled,
        }
    }
}

/// Errors surfaced while opening, recovering, or persisting.
#[derive(Debug)]
pub enum DurabilityError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The WAL is damaged before its final record (see
    /// [`WalError::Corrupt`]) — replay cannot be trusted.
    CorruptLog {
        /// Byte offset of the damaged record.
        offset: u64,
    },
    /// The WAL replay suffix does not connect to the recovered
    /// snapshot: expected the next record to carry `expected`.
    WalGap {
        /// Sequence number recovery needed next.
        expected: u64,
        /// Sequence number actually found (0 = none).
        found: u64,
    },
    /// [`crate::ServiceBuilder::recover`] was called without a
    /// durability config.
    NotConfigured,
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability io error: {e}"),
            DurabilityError::CorruptLog { offset } => {
                write!(f, "write-ahead log corrupt mid-log at byte {offset}")
            }
            DurabilityError::WalGap { expected, found } => write!(
                f,
                "write-ahead log gap: expected record seq {expected}, found {found}"
            ),
            DurabilityError::NotConfigured => {
                write!(f, "recover() requires a durability config")
            }
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<WalError> for DurabilityError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(io) => DurabilityError::Io(io),
            WalError::Corrupt { offset } => DurabilityError::CorruptLog { offset },
            // Wrong magic means the file is damaged from byte 0.
            WalError::BadMagic => DurabilityError::CorruptLog { offset: 0 },
        }
    }
}

/// Live durability state owned by a [`crate::Service`]. All I/O
/// errors after open are *sticky*: the first failure is recorded and
/// persistence stops, but scheduling continues (availability over
/// durability — the caller polls [`crate::Service::durability_error`]
/// and decides).
#[derive(Debug)]
pub struct Durability {
    cfg: DurabilityConfig,
    writer: WalWriter,
    tracer: Arc<Tracer>,
    error: Option<String>,
}

impl Durability {
    /// Open `cfg.dir` as a **fresh** durable store: creates the
    /// directory, truncates any existing WAL, and removes old
    /// snapshots. Use [`crate::ServiceBuilder::recover`] to resume
    /// from existing state instead.
    pub fn create(cfg: DurabilityConfig) -> std::io::Result<Durability> {
        std::fs::create_dir_all(&cfg.dir)?;
        for (_, path) in snapshot::list_snapshots(&cfg.dir)? {
            std::fs::remove_file(path)?;
        }
        let writer = WalWriter::create(&cfg.dir.join("wal.log"))?;
        let tracer = Arc::new(Tracer::from_config(&cfg.trace)?);
        Ok(Durability {
            cfg,
            writer,
            tracer,
            error: None,
        })
    }

    /// Reattach to an existing store after recovery: append to the
    /// WAL at `valid_len` (torn tail already truncated), whose frames
    /// are `frames` (`(seq, offset)` pairs from the recovery scan).
    pub(crate) fn reopen(
        cfg: DurabilityConfig,
        valid_len: u64,
        frames: Vec<(u64, u64)>,
    ) -> std::io::Result<Durability> {
        let writer = WalWriter::open_at(&cfg.dir.join("wal.log"), valid_len, frames)?;
        let tracer = Arc::new(Tracer::from_config(&cfg.trace)?);
        Ok(Durability {
            cfg,
            writer,
            tracer,
            error: None,
        })
    }

    /// Path of the WAL file under `dir`.
    pub fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    /// Log one accepted submission. Must be called for every accept,
    /// in acceptance order, with the post-accept counter as `seq`.
    pub(crate) fn on_accept(&mut self, seq: u64, round: u64, spec: &JobSpec) {
        if self.error.is_some() {
            return;
        }
        let rec = WalRecord {
            seq,
            round,
            spec: spec.clone(),
        };
        match self.writer.append(&rec, self.cfg.fsync) {
            Ok((bytes, fsynced)) => {
                self.tracer.add(Counter::WalAppends, 1);
                if fsynced {
                    self.tracer.add(Counter::WalFsyncs, 1);
                }
                self.tracer.emit(|| TraceEvent::WalAppend {
                    seq,
                    round,
                    job: rec.spec.id.0,
                    bytes,
                });
            }
            Err(e) => self.error = Some(format!("wal append (seq {seq}): {e}")),
        }
    }

    /// Whether this round boundary should take a snapshot.
    pub(crate) fn snapshot_due(&self, round: u64) -> bool {
        self.error.is_none()
            && self.cfg.snapshot_every_rounds > 0
            && round > 0
            && round.is_multiple_of(self.cfg.snapshot_every_rounds)
    }

    /// Persist a snapshot body, prune old snapshots, compact the WAL.
    pub(crate) fn on_snapshot(&mut self, round: u64, accepted: u64, body: &str) {
        if self.error.is_some() {
            return;
        }
        // The WAL must be on disk past this snapshot before the
        // snapshot claims coverage up to `accepted`.
        if let Err(e) = self.writer.sync() {
            self.error = Some(format!("wal sync before snapshot (round {round}): {e}"));
            return;
        }
        match snapshot::write_snapshot(&self.cfg.dir, round, accepted, body) {
            Ok(bytes) => {
                self.tracer.add(Counter::SnapshotWrites, 1);
                self.tracer.emit(|| TraceEvent::SnapshotWrite {
                    round,
                    accepted,
                    bytes,
                });
            }
            Err(e) => {
                self.error = Some(format!("snapshot write (round {round}): {e}"));
                return;
            }
        }
        match snapshot::apply_retention(&self.cfg.dir, self.cfg.keep_snapshots) {
            Ok(floor) => {
                if let Err(e) = self.writer.compact(floor) {
                    self.error = Some(format!("wal compact (floor {floor}): {e}"));
                }
            }
            Err(e) => self.error = Some(format!("snapshot retention (round {round}): {e}")),
        }
    }

    /// Record a persistence failure from the owning service (e.g.
    /// snapshot serialization); persistence stops.
    pub(crate) fn record_error(&mut self, msg: String) {
        if self.error.is_none() {
            self.error = Some(msg);
        }
    }

    /// The durability tracer (counters: WAL appends/fsyncs, snapshot
    /// writes, recoveries; events if configured).
    pub fn tracer(&self) -> Arc<Tracer> {
        self.tracer.clone()
    }

    /// First persistence failure, if any (persistence has stopped).
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// The configuration this store was opened with.
    pub fn config(&self) -> &DurabilityConfig {
        &self.cfg
    }
}
