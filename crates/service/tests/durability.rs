//! Durability-layer tests: WAL format and repair, snapshot store
//! validation and retention, and the pinned degraded-recovery paths
//! (torn tail → truncate; damaged snapshot → older snapshot;
//! mid-log damage → hard error).

use mlfs_service::durability::snapshot::{
    apply_retention, list_snapshots, load_snapshot, write_snapshot,
};
use mlfs_service::durability::wal::{
    crc32, read_wal, truncate_to, FsyncPolicy, WalError, WalRecord, WalWriter,
};
use mlfs_service::{DurabilityConfig, DurabilityError, Service, SubmitError};
use mlfs_sim::engine::StepOutcome;
use mlfs_sim::experiments::{fig4, Experiment};
use std::path::{Path, PathBuf};

fn small_fig4(jobs: usize) -> Experiment {
    let mut e = fig4(0.25, 64.0, 7);
    e.trace.jobs = jobs;
    e
}

fn mlfh(e: &Experiment) -> Box<dyn mlfs::Scheduler> {
    e.scheduler("MLF-H", 7)
}

/// Fresh scratch directory under the system temp dir.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlfs-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Byte extents `(start, end)` of every record in a WAL file,
/// header included — the chaos surgeon's scalpel.
fn record_extents(path: &Path) -> Vec<(usize, usize)> {
    let bytes = std::fs::read(path).expect("wal readable");
    let mut out = Vec::new();
    let mut pos = 8; // magic
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let end = pos + 8 + len;
        if end > bytes.len() {
            break;
        }
        out.push((pos, end));
        pos = end;
    }
    out
}

/// Flip one byte inside the payload of the record at `(start, end)`.
fn corrupt_payload(path: &Path, extent: (usize, usize)) {
    let mut bytes = std::fs::read(path).expect("wal readable");
    let target = extent.0 + 8 + (extent.1 - extent.0 - 8) / 2;
    bytes[target] ^= 0xFF;
    std::fs::write(path, bytes).expect("wal writable");
}

fn spec(id: u32) -> workload::JobSpec {
    let e = small_fig4(8);
    let mut s = e.jobs().remove(0);
    s.id = cluster::JobId(id);
    s
}

// ---------------------------------------------------------------
// WAL unit tests
// ---------------------------------------------------------------

#[test]
fn crc32_matches_the_ieee_check_value() {
    // The canonical CRC-32/IEEE test vector.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn wal_append_read_roundtrip() {
    let dir = tmpdir("roundtrip");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("wal.log");
    let mut w = WalWriter::create(&path).expect("create");
    for seq in 1..=5u64 {
        let rec = WalRecord {
            seq,
            round: seq * 2,
            spec: spec(seq as u32),
        };
        w.append(&rec, FsyncPolicy::Never).expect("append");
    }
    w.sync().expect("sync");
    let scan = read_wal(&path).expect("valid wal");
    assert_eq!(scan.records.len(), 5);
    assert!(scan.torn.is_none());
    for (i, rec) in scan.records.iter().enumerate() {
        assert_eq!(rec.seq, i as u64 + 1);
        assert_eq!(rec.round, rec.seq * 2);
        assert_eq!(rec.spec.id, cluster::JobId(rec.seq as u32));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_missing_file_reads_as_empty() {
    let scan = read_wal(Path::new("/nonexistent/never/wal.log")).expect("empty scan");
    assert!(scan.records.is_empty());
    assert_eq!(scan.valid_len, 0);
}

#[test]
fn torn_final_record_is_detected_and_truncated() {
    let dir = tmpdir("torn");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("wal.log");
    let mut w = WalWriter::create(&path).expect("create");
    for seq in 1..=3u64 {
        let rec = WalRecord {
            seq,
            round: 0,
            spec: spec(seq as u32),
        };
        w.append(&rec, FsyncPolicy::Always).expect("append");
    }
    drop(w);
    // Chop mid-way through the final record: a crashed append.
    let full = std::fs::metadata(&path).expect("meta").len();
    let extents = record_extents(&path);
    let last_start = extents[2].0 as u64;
    truncate_to(&path, full - 7).expect("simulated tear");

    let scan = read_wal(&path).expect("torn is not an error");
    assert_eq!(scan.records.len(), 2, "intact prefix survives");
    assert_eq!(scan.valid_len, last_start, "valid length excludes the tear");
    let (at, dropped) = scan.torn.expect("tear detected");
    assert_eq!(at, last_start);
    assert_eq!(dropped, full - 7 - last_start);

    // Repair and confirm the log is clean again.
    truncate_to(&path, scan.valid_len).expect("repair");
    let scan = read_wal(&path).expect("repaired wal");
    assert_eq!(scan.records.len(), 2);
    assert!(scan.torn.is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checksum_failure_on_final_record_is_a_torn_tail() {
    let dir = tmpdir("tailcrc");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("wal.log");
    let mut w = WalWriter::create(&path).expect("create");
    for seq in 1..=3u64 {
        let rec = WalRecord {
            seq,
            round: 0,
            spec: spec(seq as u32),
        };
        w.append(&rec, FsyncPolicy::Always).expect("append");
    }
    drop(w);
    let extents = record_extents(&path);
    corrupt_payload(&path, extents[2]);
    let scan = read_wal(&path).expect("tail damage is repairable");
    assert_eq!(scan.records.len(), 2);
    assert!(scan.torn.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checksum_failure_mid_log_is_a_hard_error() {
    let dir = tmpdir("midlog");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("wal.log");
    let mut w = WalWriter::create(&path).expect("create");
    for seq in 1..=3u64 {
        let rec = WalRecord {
            seq,
            round: 0,
            spec: spec(seq as u32),
        };
        w.append(&rec, FsyncPolicy::Always).expect("append");
    }
    drop(w);
    let extents = record_extents(&path);
    corrupt_payload(&path, extents[1]); // NOT the final record
    match read_wal(&path) {
        Err(WalError::Corrupt { offset }) => assert_eq!(offset, extents[1].0 as u64),
        other => panic!("mid-log damage must be a hard error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_drops_covered_records_and_keeps_the_suffix() {
    let dir = tmpdir("compact");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("wal.log");
    let mut w = WalWriter::create(&path).expect("create");
    for seq in 1..=6u64 {
        let rec = WalRecord {
            seq,
            round: 0,
            spec: spec(seq as u32),
        };
        w.append(&rec, FsyncPolicy::Never).expect("append");
    }
    let before = std::fs::read(&path).expect("wal readable");
    let extents = record_extents(&path);
    let dropped = w.compact(4).expect("compact");
    assert_eq!(dropped, 4);
    // The kept frames are copied byte for byte behind the magic.
    let mut want = b"MLFSWAL1".to_vec();
    want.extend_from_slice(&before[extents[4].0..]);
    assert_eq!(std::fs::read(&path).expect("wal readable"), want);
    // The handle stays appendable after the rename swap.
    w.append(
        &WalRecord {
            seq: 7,
            round: 0,
            spec: spec(7),
        },
        FsyncPolicy::Always,
    )
    .expect("append after compact");
    drop(w);
    let scan = read_wal(&path).expect("valid wal");
    let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, vec![5, 6, 7]);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------
// Snapshot store unit tests
// ---------------------------------------------------------------

#[test]
fn snapshot_write_load_roundtrip_and_tmp_files_are_ignored() {
    let dir = tmpdir("snap");
    std::fs::create_dir_all(&dir).expect("mkdir");
    write_snapshot(&dir, 10, 3, "{\"hello\":1}").expect("write");
    write_snapshot(&dir, 20, 5, "{\"hello\":2}").expect("write");
    std::fs::write(dir.join("snap-99.json.tmp"), b"garbage mid-write").expect("tmp");
    let snaps = list_snapshots(&dir).expect("list");
    let rounds: Vec<u64> = snaps.iter().map(|(r, _)| *r).collect();
    assert_eq!(rounds, vec![20, 10], "newest first, .tmp ignored");
    let file = load_snapshot(&snaps[0].1).expect("valid snapshot");
    assert_eq!(file.round, 20);
    assert_eq!(file.accepted, 5);
    assert_eq!(file.body, "{\"hello\":2}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pins the `lint:seam(deep-det-taint)` on `list_snapshots`: the fn
/// reads `fs::read_dir` (OS-dependent iteration order), which the
/// deep determinism-taint pass would flag on the recovery path — the
/// seam is sound only because the result is sorted by a unique key
/// before returning. Create files in several scrambled orders (so the
/// directory's physical order varies) and assert the listing is
/// always the same strictly-descending round sequence.
#[test]
fn list_snapshots_order_is_deterministic() {
    let rounds: &[u64] = &[7, 400, 31, 1, 250, 99];
    let mut expected: Vec<u64> = rounds.to_vec();
    expected.sort_by_key(|&r| std::cmp::Reverse(r));
    for (i, perm) in [
        vec![7u64, 400, 31, 1, 250, 99],
        vec![99, 250, 1, 31, 400, 7],
        vec![250, 7, 99, 400, 1, 31],
    ]
    .iter()
    .enumerate()
    {
        let dir = tmpdir(&format!("snaporder{i}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        for &round in perm {
            write_snapshot(&dir, round, round, "{}").expect("write");
        }
        for _ in 0..3 {
            let got: Vec<u64> = list_snapshots(&dir)
                .expect("list")
                .iter()
                .map(|(r, _)| *r)
                .collect();
            assert_eq!(got, expected, "creation order {perm:?} must not leak");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn snapshot_with_flipped_body_byte_fails_validation() {
    let dir = tmpdir("snapcrc");
    std::fs::create_dir_all(&dir).expect("mkdir");
    write_snapshot(&dir, 10, 3, "{\"hello\":1}").expect("write");
    let path = dir.join("snap-10.json");
    let mut bytes = std::fs::read(&path).expect("read");
    let n = bytes.len();
    bytes[n - 2] ^= 0xFF;
    std::fs::write(&path, bytes).expect("rewrite");
    assert!(
        load_snapshot(&path).is_none(),
        "checksum must catch the flip"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retention_keeps_newest_and_returns_oldest_survivors_floor() {
    let dir = tmpdir("retention");
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (round, accepted) in [(10u64, 2u64), (20, 5), (30, 9), (40, 12)] {
        write_snapshot(&dir, round, accepted, "{}").expect("write");
    }
    let floor = apply_retention(&dir, 2).expect("retention");
    // Keep 30 and 40; the floor is the *oldest retained* (30 →
    // accepted 9), so a fallback to snap-30 still has its suffix.
    assert_eq!(floor, 9);
    let rounds: Vec<u64> = list_snapshots(&dir)
        .expect("list")
        .iter()
        .map(|(r, _)| *r)
        .collect();
    assert_eq!(rounds, vec![40, 30]);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------
// End-to-end recovery paths (pinned)
// ---------------------------------------------------------------

/// A durable service mid-run: submit everything, tick `rounds`
/// times, then "crash" (drop). Returns what was accepted.
fn run_and_crash(e: &Experiment, dcfg: &DurabilityConfig, rounds: u64) -> u64 {
    let mut svc = Service::builder(e.sim.clone())
        .durability(dcfg.clone())
        .build(mlfh(e))
        .expect("fresh durable service");
    for s in e.jobs() {
        assert!(svc.submit(s).accepted());
    }
    for _ in 0..rounds {
        assert_eq!(svc.tick(), StepOutcome::Continue);
    }
    assert_eq!(svc.durability_error(), None);
    svc.stats().accepted
}

#[test]
fn recovery_resumes_bit_identically_from_wal_only() {
    let e = small_fig4(6);
    let dir = tmpdir("recover-walonly");
    // Snapshots off: recovery must come purely from WAL replay.
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.snapshot_every_rounds = 0;
    dcfg.fsync = FsyncPolicy::Always;

    // Reference: uninterrupted, no durability.
    let mut svc = Service::new(e.sim.clone(), mlfh(&e), None);
    for s in e.jobs() {
        assert!(svc.submit(s).accepted());
    }
    assert_eq!(svc.run_until_drained(), StepOutcome::Drained);
    let mut m = svc.finish();
    m.clear_wall_clock();
    let reference = serde_json::to_string(&m).expect("metrics json");

    let accepted = run_and_crash(&e, &dcfg, 5);
    assert_eq!(accepted, 6);

    let (mut svc, report) = Service::builder(e.sim.clone())
        .durability(dcfg)
        .recover(mlfh(&e))
        .expect("recovery succeeds");
    assert_eq!(report.snapshot_round, None);
    assert_eq!(report.wal_records_replayed, 6);
    assert_eq!(report.resumed_accepted, 6);
    assert_eq!(svc.rounds(), report.resumed_round);
    assert_eq!(svc.run_until_drained(), StepOutcome::Drained);
    let mut m = svc.finish();
    m.clear_wall_clock();
    let recovered = serde_json::to_string(&m).expect("metrics json");
    assert_eq!(reference, recovered, "recovered run diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_wal_tail_recovers_by_truncation_and_resubmission() {
    let e = small_fig4(6);
    let dir = tmpdir("recover-tail");
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.snapshot_every_rounds = 0;
    dcfg.fsync = FsyncPolicy::Always;

    let accepted = run_and_crash(&e, &dcfg, 3);
    assert_eq!(accepted, 6);
    // Damage the tail: flip a payload byte of the final record.
    let wal = dir.join("wal.log");
    let extents = record_extents(&wal);
    assert_eq!(extents.len(), 6);
    corrupt_payload(&wal, extents[5]);

    let (mut svc, report) = Service::builder(e.sim.clone())
        .durability(dcfg)
        .recover(mlfh(&e))
        .expect("tail damage is repairable");
    assert!(report.wal_truncated_bytes.is_some(), "tail was truncated");
    assert_eq!(
        report.resumed_accepted, 5,
        "the damaged final record is not acknowledged-recoverable"
    );
    // The driver re-submits the lost job (its cursor is
    // `resumed_accepted`), and the run completes with all six.
    let lost = e.jobs().remove(5);
    assert!(svc.submit(lost).accepted());
    assert_eq!(svc.run_until_drained(), StepOutcome::Drained);
    assert_eq!(svc.stats().accepted, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_newest_snapshot_falls_back_to_previous() {
    let e = small_fig4(8);
    let dir = tmpdir("recover-fallback");
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.snapshot_every_rounds = 5;
    dcfg.keep_snapshots = 3;
    dcfg.fsync = FsyncPolicy::EveryN(2);

    run_and_crash(&e, &dcfg, 17);
    let snaps = list_snapshots(&dir).expect("list");
    assert!(
        snaps.len() >= 2,
        "need ≥2 snapshots to test fallback, got {}",
        snaps.len()
    );
    let newest = snaps[0].0;
    let second = snaps[1].0;
    // Flip a body byte of the newest snapshot.
    let path = dir.join(format!("snap-{newest}.json"));
    let mut bytes = std::fs::read(&path).expect("read snapshot");
    let n = bytes.len();
    bytes[n - 2] ^= 0xFF;
    std::fs::write(&path, bytes).expect("rewrite snapshot");

    let (mut svc, report) = Service::builder(e.sim.clone())
        .durability(dcfg)
        .recover(mlfh(&e))
        .expect("fallback recovery succeeds");
    assert_eq!(report.snapshots_rejected, 1, "newest was rejected");
    assert_eq!(
        report.snapshot_round,
        Some(second),
        "recovery fell back to the previous snapshot"
    );
    assert_eq!(report.resumed_accepted, 8, "WAL suffix filled the gap");
    assert_eq!(svc.run_until_drained(), StepOutcome::Drained);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_log_wal_damage_is_a_hard_recovery_error() {
    let e = small_fig4(6);
    let dir = tmpdir("recover-midlog");
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.snapshot_every_rounds = 0;
    dcfg.fsync = FsyncPolicy::Always;

    run_and_crash(&e, &dcfg, 3);
    let wal = dir.join("wal.log");
    let extents = record_extents(&wal);
    corrupt_payload(&wal, extents[2]); // mid-log, not the tail

    match Service::builder(e.sim.clone())
        .durability(dcfg)
        .recover(mlfh(&e))
    {
        Err(DurabilityError::CorruptLog { offset }) => {
            assert_eq!(offset, extents[2].0 as u64);
        }
        Err(other) => panic!("mid-log damage must refuse to start, got {other:?}"),
        Ok(_) => panic!("mid-log damage must refuse to start, got a service"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_without_config_is_an_explicit_error() {
    let e = small_fig4(2);
    match Service::builder(e.sim.clone()).recover(mlfh(&e)) {
        Err(DurabilityError::NotConfigured) => {}
        Err(other) => panic!("expected NotConfigured, got {other:?}"),
        Ok(_) => panic!("expected NotConfigured, got a service"),
    }
}

#[test]
fn build_on_an_existing_dir_starts_fresh() {
    let e = small_fig4(4);
    let dir = tmpdir("build-fresh");
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.snapshot_every_rounds = 2;
    dcfg.fsync = FsyncPolicy::Always;
    run_and_crash(&e, &dcfg, 6);
    assert!(!list_snapshots(&dir).expect("list").is_empty());

    // build() truncates: the old WAL and snapshots are gone.
    let svc = Service::builder(e.sim.clone())
        .durability(dcfg)
        .build(mlfh(&e))
        .expect("fresh build");
    drop(svc);
    assert!(list_snapshots(&dir).expect("list").is_empty());
    let scan = read_wal(&dir.join("wal.log")).expect("fresh wal");
    assert!(scan.records.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The durable service behind the threaded front-end: every accepted
/// job is logged once, in the counters and in the JSONL trace, and
/// recovering the directory after the run drains to the live run's
/// metrics.
#[test]
fn durable_threaded_front_end_logs_every_accept_and_recovers_bit_identically() {
    let e = small_fig4(16);
    let dir = tmpdir("threaded");
    let trace_path = std::env::temp_dir().join(format!(
        "mlfs-durability-threaded-{}.jsonl",
        std::process::id()
    ));
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.fsync = FsyncPolicy::EveryN(32);
    dcfg.snapshot_every_rounds = 4;
    dcfg.keep_snapshots = 3;
    dcfg.trace = obs::TraceConfig::Jsonl {
        path: trace_path.clone(),
    };
    let handle = Service::builder(e.sim.clone())
        .durability(dcfg.clone())
        .build(mlfh(&e))
        .expect("fresh durable service")
        .spawn(64);
    for spec in e.jobs() {
        let mut spec = spec;
        loop {
            match handle.submit(spec) {
                Ok(()) => break,
                Err(SubmitError::Backpressure(s)) => {
                    spec = s;
                    std::thread::yield_now();
                }
                Err(SubmitError::Closed(_)) => panic!("worker closed early"),
            }
        }
    }
    let report = handle.finish();
    assert!(!report.worker_panicked);
    assert_eq!(report.durability_error, None);
    let accepted = report.stats.accepted;
    assert_eq!(accepted, 16);
    let dur = report
        .durability
        .expect("durable service reports telemetry");
    assert_eq!(dur.count(obs::Counter::WalAppends), accepted);
    assert!(dur.count(obs::Counter::SnapshotWrites) >= 2);

    // The trace holds one WalAppend per accepted job, seqs 1..=accepted.
    let mut seqs: Vec<u64> = obs::TraceReader::open(&trace_path)
        .expect("trace readable")
        .filter_map(|ev| match ev {
            obs::TraceEvent::WalAppend { seq, .. } => Some(seq),
            _ => None,
        })
        .collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (1..=accepted).collect::<Vec<_>>());

    let mut live = report.metrics;
    live.clear_wall_clock();
    dcfg.trace = obs::TraceConfig::Disabled;
    let (mut svc, rec) = Service::builder(e.sim.clone())
        .durability(dcfg)
        .recover(mlfh(&e))
        .expect("recovery succeeds");
    assert_eq!(rec.resumed_accepted, accepted);
    assert_eq!(svc.run_until_drained(), StepOutcome::Drained);
    let mut recovered = svc.finish();
    recovered.clear_wall_clock();
    assert_eq!(
        serde_json::to_string(&live).expect("metrics json"),
        serde_json::to_string(&recovered).expect("metrics json"),
        "recovered run diverged from the live threaded run"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&trace_path);
}

/// Submit what is due before the next tick. A service without work
/// never advances its clock, so when it has none the next arrival is
/// submitted at once. Returns false when every job has finished.
fn feed(svc: &mut Service, specs: &[workload::JobSpec], cursor: &mut usize) -> bool {
    loop {
        let due = |s: &workload::JobSpec, until| s.arrival <= until;
        while let Some(spec) = specs.get(*cursor).filter(|s| due(s, svc.now())) {
            assert!(svc.submit(spec.clone()).accepted());
            *cursor += 1;
        }
        if svc.has_work() {
            return true;
        }
        let Some(next) = specs.get(*cursor).map(|s| s.arrival) else {
            return false;
        };
        while let Some(spec) = specs.get(*cursor).filter(|s| due(s, next)) {
            assert!(svc.submit(spec.clone()).accepted());
            *cursor += 1;
        }
    }
}

/// Feed and tick `svc` until every job has finished or, with
/// `stop_after`, the engine has run that many rounds. Returns the
/// rounds at which a tick reported `Drained`.
fn drive(
    svc: &mut Service,
    specs: &[workload::JobSpec],
    cursor: &mut usize,
    stop_after: Option<u64>,
) -> Vec<u64> {
    let mut drains = Vec::new();
    while stop_after.is_none_or(|r| svc.rounds() < r) && feed(svc, specs, cursor) {
        match svc.tick() {
            StepOutcome::Continue => {}
            StepOutcome::Drained => drains.push(svc.rounds()),
            StepOutcome::Horizon => break,
        }
    }
    drains
}

/// A client that submits its next job as soon as the service drains
/// writes a WAL record for the round of the draining tick. Replaying
/// that log must tick through the drain, as the live run did.
#[test]
fn wal_replay_crosses_a_drain() {
    let e = fig4(1.0, 8.0, 2);
    let specs = e.jobs();
    let dir = tmpdir("replay-drain");
    let dcfg = DurabilityConfig::new(&dir);
    let crash_after = 205;

    let mut svc = Service::new(e.sim.clone(), mlfh(&e), None);
    drive(&mut svc, &specs, &mut 0, None);
    let mut m = svc.finish();
    m.clear_wall_clock();
    let reference = serde_json::to_string(&m).expect("metrics json");

    let mut svc = Service::builder(e.sim.clone())
        .durability(dcfg.clone())
        .build(mlfh(&e))
        .expect("fresh durable service");
    let mut cursor = 0;
    let drains = drive(&mut svc, &specs, &mut cursor, Some(crash_after));
    assert_eq!(svc.durability_error(), None);
    // The last snapshot before the crash precedes the drain, so the
    // replay has to cross it.
    let snapshot_round = crash_after / dcfg.snapshot_every_rounds * dcfg.snapshot_every_rounds;
    assert!(
        drains.iter().any(|&r| r > snapshot_round),
        "no drain to replay across: {drains:?}"
    );
    drop(svc); // the crash

    let (mut svc, report) = Service::builder(e.sim.clone())
        .durability(dcfg)
        .recover(mlfh(&e))
        .expect("a log written across a drain replays");
    assert_eq!(report.snapshot_round, Some(snapshot_round));
    assert!(report.wal_records_replayed > 0);
    let mut cursor = usize::try_from(report.resumed_accepted).expect("fits");
    drive(&mut svc, &specs, &mut cursor, None);
    let mut m = svc.finish();
    m.clear_wall_clock();
    let recovered = serde_json::to_string(&m).expect("metrics json");
    assert_eq!(reference, recovered, "recovered run diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submit the next `jobs` specs, then tick until the engine has run
/// `until` rounds.
fn submit_then_tick(
    svc: &mut Service,
    specs: &[workload::JobSpec],
    cursor: &mut usize,
    jobs: usize,
    until: u64,
) {
    for spec in specs.iter().skip(*cursor).take(jobs) {
        assert!(svc.submit(spec.clone()).accepted());
    }
    *cursor += jobs;
    while svc.rounds() < until {
        svc.tick();
    }
}

/// `(seq, frame bytes)` of every frame in the WAL at `path`.
fn frames_of(path: &Path) -> Vec<(u64, Vec<u8>)> {
    let bytes = std::fs::read(path).expect("wal readable");
    let scan = read_wal(path).expect("valid wal");
    let extents = record_extents(path);
    assert_eq!(scan.records.len(), extents.len());
    scan.records
        .iter()
        .zip(extents)
        .map(|(r, (start, end))| (r.seq, bytes[start..end].to_vec()))
        .collect()
}

/// The `accepted` floor of the oldest retained snapshot in `dir`.
fn retained_floor(dir: &Path) -> u64 {
    let snaps = list_snapshots(dir).expect("list");
    let (_, oldest) = snaps.last().expect("a snapshot");
    load_snapshot(oldest).expect("valid snapshot").accepted
}

/// A service snapshotting every 2 rounds and keeping 2 snapshots:
/// four jobs before round 2, four more before round 4, and four more
/// before round 5. Its WAL then holds seqs 5–12 (round 2's snapshot
/// compacted 1–4 away; round 4's had nothing to drop).
fn durable_with_history(e: &Experiment, dcfg: &DurabilityConfig) -> (Service, usize) {
    let specs = e.jobs();
    let mut svc = Service::builder(e.sim.clone())
        .durability(dcfg.clone())
        .build(mlfh(e))
        .expect("fresh durable service");
    let mut cursor = 0;
    for until in [2, 4, 5] {
        submit_then_tick(&mut svc, &specs, &mut cursor, 4, until);
    }
    assert_eq!(svc.durability_error(), None);
    (svc, cursor)
}

fn every_two_keep_two(dir: &Path) -> DurabilityConfig {
    let mut dcfg = DurabilityConfig::new(dir);
    dcfg.snapshot_every_rounds = 2;
    dcfg.keep_snapshots = 2;
    dcfg.fsync = FsyncPolicy::Always;
    dcfg
}

/// Recovery seeds the writer's frame index from its scan, so the
/// first snapshot after a restart compacts the recovered log: the
/// file becomes the magic followed by the original bytes of exactly
/// the frames past the new floor, recovered and newly appended alike.
#[test]
fn compaction_after_recovery_keeps_exactly_the_frames_past_the_floor() {
    let e = small_fig4(16);
    let specs = e.jobs();
    let dir = tmpdir("compact-recovered");
    let dcfg = every_two_keep_two(&dir);
    let (svc, mut cursor) = durable_with_history(&e, &dcfg);
    drop(svc); // the crash
    let wal = dir.join("wal.log");
    let recovered: Vec<u64> = frames_of(&wal).iter().map(|(seq, _)| *seq).collect();
    assert_eq!(recovered, (5..=12).collect::<Vec<u64>>());

    let (mut svc, report) = Service::builder(e.sim.clone())
        .durability(dcfg)
        .recover(mlfh(&e))
        .expect("recovery succeeds");
    assert_eq!(report.snapshot_round, Some(4));
    // Two more accepts after the restart, then the round-6 snapshot.
    submit_then_tick(&mut svc, &specs, &mut cursor, 2, 5);
    let before = frames_of(&wal);
    assert_eq!(before.len(), 10, "8 recovered frames + 2 new ones");
    submit_then_tick(&mut svc, &specs, &mut cursor, 0, 6);
    assert_eq!(svc.durability_error(), None);

    let floor = retained_floor(&dir);
    assert_eq!(floor, 8, "snapshots 4 and 6 are kept");
    let mut want = b"MLFSWAL1".to_vec();
    for (seq, frame) in &before {
        if *seq > floor {
            want.extend_from_slice(frame);
        }
    }
    assert_eq!(std::fs::read(&wal).expect("wal readable"), want);
    // The rebased index keeps working: append, compact again.
    submit_then_tick(&mut svc, &specs, &mut cursor, 1, 8);
    assert_eq!(svc.durability_error(), None);
    let seqs: Vec<u64> = frames_of(&wal).iter().map(|(seq, _)| *seq).collect();
    assert_eq!(retained_floor(&dir), 14, "snapshots 6 and 8 are kept");
    assert_eq!(seqs, vec![15]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kept frame whose payload no longer matches its CRC stops
/// compaction: `compact` fails, the log is left as it was, and the
/// service records the sticky durability error.
#[test]
fn compaction_refuses_a_damaged_kept_frame() {
    let dir = tmpdir("compact-damaged");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("wal.log");
    let mut w = WalWriter::create(&path).expect("create");
    for seq in 1..=6u64 {
        let rec = WalRecord {
            seq,
            round: 0,
            spec: spec(seq as u32),
        };
        w.append(&rec, FsyncPolicy::Never).expect("append");
    }
    corrupt_payload(&path, record_extents(&path)[4]);
    let damaged = std::fs::read(&path).expect("wal readable");
    let err = w
        .compact(4)
        .expect_err("a damaged kept frame fails compaction");
    assert!(err.to_string().contains("corrupt"), "{err}");
    assert_eq!(std::fs::read(&path).expect("wal readable"), damaged);
    let _ = std::fs::remove_dir_all(&dir);

    // The same through a live service: seq 10 is kept at round 6.
    let e = small_fig4(16);
    let specs = e.jobs();
    let dir = tmpdir("compact-damaged-svc");
    let (mut svc, mut cursor) = durable_with_history(&e, &every_two_keep_two(&dir));
    let wal = dir.join("wal.log");
    let frames = frames_of(&wal);
    let at = frames
        .iter()
        .position(|(seq, _)| *seq == 10)
        .expect("seq 10");
    corrupt_payload(&wal, record_extents(&wal)[at]);
    let damaged = std::fs::read(&wal).expect("wal readable");
    submit_then_tick(&mut svc, &specs, &mut cursor, 0, 6);
    let err = svc.durability_error().expect("sticky durability error");
    assert!(
        err.contains("wal compact") && err.contains("corrupt"),
        "{err}"
    );
    assert_eq!(std::fs::read(&wal).expect("wal readable"), damaged);
    let _ = std::fs::remove_dir_all(&dir);
}
