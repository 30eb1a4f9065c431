//! The linter applied to its own workspace: the committed tree must be
//! deep-clean (any finding fails; there is no baseline), and both the
//! scan and the interprocedural passes must be deterministic.

use mlfs_lint::{render_json, scan_workspace, scan_workspace_deep};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_deep_clean() {
    let root = workspace_root();
    let report = scan_workspace_deep(&root, true).expect("workspace scans");
    assert!(report.files_scanned > 100, "walker found the workspace");
    assert!(
        report.is_clean(),
        "workspace has findings:\n{}",
        mlfs_lint::render_text(&report)
    );
    // Every lint:allow annotation in the tree must still suppress
    // something — locally or in a deep pass; the escape hatch is
    // audited, not decorative.
    assert!(
        report.stats.allows_unused.is_empty(),
        "unused lint:allow annotations: {:?}",
        report.stats.allows_unused
    );
    // The deep passes actually ran over a real graph.
    let deep = report.deep.as_ref().expect("deep summary present");
    assert!(
        deep.fn_count > 300,
        "call graph too small: {}",
        deep.fn_count
    );
    assert!(
        deep.entry_count > 10,
        "entry points missing: {}",
        deep.entry_count
    );
}

#[test]
fn scan_is_deterministic() {
    let root = workspace_root();
    let a = scan_workspace(&root).expect("scan");
    let b = scan_workspace(&root).expect("scan");
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.files_scanned, b.files_scanned);
}

/// The deep pass is itself deterministic: two scans render
/// byte-identical JSON reports (the JSON deliberately carries no
/// timings). Guards against unordered iteration sneaking into the
/// analyzer — the exact bug class it polices.
#[test]
fn deep_scan_json_is_byte_identical_across_runs() {
    let root = workspace_root();
    let a = scan_workspace_deep(&root, true).expect("scan");
    let b = scan_workspace_deep(&root, true).expect("scan");
    assert_eq!(render_json(&a), render_json(&b));
}

#[test]
fn deterministic_tier_has_no_determinism_findings() {
    let root = workspace_root();
    let report = scan_workspace(&root).expect("scan");
    let det: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule.starts_with("det-") || f.rule.starts_with("cfg-"))
        .collect();
    assert!(det.is_empty(), "determinism/config findings: {det:?}");
}
