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

/// A local scan cannot see deep findings, so it does not call an allow
/// that names only deep rules unused; the deep scan still does when it
/// fires nothing. An allow that also names a local rule stays audited
/// by the local scan.
#[test]
fn local_scan_leaves_deep_only_allows_to_the_deep_scan() {
    let root = std::env::temp_dir().join(format!("mlfs-lint-deep-allow-{}", std::process::id()));
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("fixture dir");
    std::fs::write(
        src.join("lib.rs"),
        "// lint:allow(deep-panic-path) reason=\"fixture: suppresses nothing\"\n\
         pub fn one() -> u32 {\n    1\n}\n\
         // lint:allow(panic-unwrap, deep-panic-path) reason=\"fixture: suppresses nothing\"\n\
         pub fn two() -> u32 {\n    2\n}\n",
    )
    .expect("fixture file");
    let local = scan_workspace_deep(&root, false).expect("local scan");
    let deep = scan_workspace_deep(&root, true).expect("deep scan");
    let _ = std::fs::remove_dir_all(&root);
    let lines = |r: &mlfs_lint::WorkspaceReport| -> Vec<u32> {
        r.stats.allows_unused.iter().map(|(_, l, _)| *l).collect()
    };
    assert_eq!(lines(&local), vec![5], "{:?}", local.stats.allows_unused);
    assert_eq!(lines(&deep), vec![1, 5], "{:?}", deep.stats.allows_unused);
}

/// The vendored JSON codec is hot-path code: it writes every service
/// snapshot and WAL record and parses them on recovery. A panic in it
/// is reported by the local scan and, from a service entry point, by
/// the deep scan; the other vendored crates stay out of scope.
#[test]
fn vendored_codec_is_in_the_hot_path_tier() {
    use mlfs_lint::policy::{policy_for, FilePolicy};
    let codec = policy_for("vendor/serde/src/lib.rs");
    assert!(codec.hot_path && !codec.deterministic, "{codec:?}");
    for out in [
        "vendor/serde_json/src/lib.rs",
        "vendor/rand/src/lib.rs",
        "vendor/serde/tests/golden.rs",
        "vendor/serde/src/bin/tool.rs",
    ] {
        assert_eq!(policy_for(out), FilePolicy::NONE, "{out}");
    }

    let root = std::env::temp_dir().join(format!("mlfs-lint-vendor-{}", std::process::id()));
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("fixture dir");
        std::fs::write(path, text).expect("fixture file");
    };
    write(
        "vendor/serde/src/lib.rs",
        "pub fn parse_text(s: &str) -> u32 {\n    s.parse().unwrap()\n}\n",
    );
    write(
        "crates/service/src/lib.rs",
        "pub fn recover(s: &str) -> u32 {\n    parse_text(s)\n}\n",
    );
    let local = scan_workspace(&root).expect("local scan");
    let deep = scan_workspace_deep(&root, true).expect("deep scan");
    let _ = std::fs::remove_dir_all(&root);
    let hits = |r: &mlfs_lint::WorkspaceReport| -> Vec<(String, u32, &'static str)> {
        r.findings
            .iter()
            .map(|f| (f.file.clone(), f.line, f.rule))
            .collect()
    };
    let seed = ("vendor/serde/src/lib.rs".to_string(), 2, "panic-unwrap");
    assert_eq!(hits(&local), vec![seed.clone()]);
    assert_eq!(
        hits(&deep),
        vec![
            ("vendor/serde/src/lib.rs".to_string(), 2, "deep-panic-path"),
            seed
        ]
    );
}
