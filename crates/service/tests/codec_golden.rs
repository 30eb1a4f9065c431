//! Byte-exact pins of the JSON the service writes to disk: a WAL
//! record and a small `ServiceSnapshot`, compact (the on-disk form)
//! and pretty. A codec change that moves a single byte fails here
//! before it can shift a snapshot CRC or a perfbench fingerprint.

use mlfs_service::durability::wal::WalRecord;
use mlfs_service::Service;
use mlfs_sim::experiments::fig4;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    let want = std::fs::read_to_string(&path).expect("golden file present");
    assert!(
        want == actual,
        "{name}: rendering differs from the pinned bytes (first difference at byte {})",
        want.bytes()
            .zip(actual.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(want.len().min(actual.len()))
    );
}

fn check_both<T: serde::Serialize>(name: &str, value: &T) {
    check(
        &format!("{name}.json"),
        &serde_json::to_string(value).expect("renders"),
    );
    check(
        &format!("{name}.pretty.json"),
        &serde_json::to_string_pretty(value).expect("renders"),
    );
}

#[test]
fn wal_record_renders_the_pinned_bytes() {
    let mut e = fig4(0.25, 64.0, 7);
    e.trace.jobs = 3;
    let spec = e.jobs().remove(1);
    let rec = WalRecord {
        seq: 17,
        round: 4,
        spec,
    };
    check_both("wal_record", &rec);
}

#[test]
fn service_snapshot_renders_the_pinned_bytes() {
    let mut e = fig4(0.25, 64.0, 7);
    e.trace.jobs = 6;
    let mut svc = Service::new(e.sim.clone(), e.scheduler("MLF-H", 7), None);
    for spec in e.jobs() {
        svc.submit(spec);
    }
    for _ in 0..6 {
        svc.tick();
    }
    let mut snap = svc.snapshot();
    snap.sim.metrics.clear_wall_clock();
    check_both("service_snapshot", &snap);
}
