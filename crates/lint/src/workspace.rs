//! Workspace traversal: find every `.rs` file and `Cargo.toml` and
//! apply the per-file tier policy. Any finding fails the run.

use crate::deep::{analyze, DeepDetail};
use crate::parse::parse_file;
use crate::policy::{policy_for, FilePolicy};
use crate::rules::{scan_source, Finding, ScanStats};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &[".git", "target", "results", "node_modules"];

/// Aggregated scan result for one workspace tree.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    pub files_scanned: usize,
    /// Every finding after `lint:allow` suppression; any fails the run.
    pub findings: Vec<Finding>,
    /// Merged `lint:allow` escape-hatch statistics.
    pub stats: ScanStats,
    /// Present when the scan ran in `--deep` mode.
    pub deep: Option<DeepSummary>,
}

/// Interprocedural-pass summary attached to a deep scan. Deep findings
/// also flow into [`WorkspaceReport::findings`]; this keeps the witness
/// details for the JSON report.
#[derive(Debug, Default)]
pub struct DeepSummary {
    /// Deep findings paired with their witness chains.
    pub findings: Vec<(Finding, DeepDetail)>,
    /// Deep findings suppressed by a seed-line `lint:allow`.
    pub suppressed: usize,
    pub fn_count: usize,
    pub edge_count: usize,
    pub entry_count: usize,
}

impl WorkspaceReport {
    /// True when there are no findings (exit code 0).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scan the workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    scan_workspace_deep(root, false)
}

/// Like [`scan_workspace`], optionally running the interprocedural
/// `--deep` passes ([`crate::deep`]) over tier-crate library code.
/// Deep findings count exactly like local findings.
pub fn scan_workspace_deep(root: &Path, deep: bool) -> io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    collect_files(root, root, &mut files)?;
    files.sort(); // deterministic report order regardless of readdir order

    let mut report = WorkspaceReport::default();
    let mut parsed = Vec::new();
    for rel in &files {
        let text = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        report.files_scanned += 1;
        if rel_str.ends_with("Cargo.toml") {
            report.findings.extend(check_cargo_toml(&rel_str, &text));
        } else {
            let (findings, stats) = scan_source(&rel_str, &text, policy_for(&rel_str));
            report.findings.extend(findings);
            report.stats.merge(&stats);
            // The call graph spans exactly the tier-crate library code
            // the local rules police — bins/tests/benches and non-tier
            // crates contribute neither entries nor seeds.
            if deep && policy_for(&rel_str) != FilePolicy::NONE {
                parsed.push(parse_file(&rel_str, &text));
            }
        }
    }

    if !deep {
        // Only the deep pass can consume an allow that names nothing
        // but deep rules, so a local scan cannot call it unused.
        report
            .stats
            .allows_unused
            .retain(|(_, _, rules)| !rules.split(',').all(|r| r.starts_with("deep-")));
    }

    if deep {
        let dr = analyze(&parsed);
        // A `lint:allow` the deep pass consumed is not unused, even if
        // no local rule fired on its line; credit it per deep rule.
        for (file, at_line, rule) in &dr.allows_used {
            let before = report.stats.allows_unused.len();
            report
                .stats
                .allows_unused
                .retain(|(f, l, _)| !(f == file && l == at_line));
            if report.stats.allows_unused.len() < before {
                *report
                    .stats
                    .allows_used
                    .entry(rule.to_string())
                    .or_insert(0) += 1;
            }
        }
        report.findings.extend(dr.findings.iter().cloned());
        report.deep = Some(DeepSummary {
            findings: dr.findings.into_iter().zip(dr.details).collect(),
            suppressed: dr.suppressed,
            fn_count: dr.fn_count,
            edge_count: dr.edge_count,
            entry_count: dr.entry_count,
        });
        report.findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
    }

    Ok(report)
}

/// Recursively collect workspace-relative `.rs` and `Cargo.toml` paths.
fn collect_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_files(root, &path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// `cfg-registry-dep`: every dependency in every manifest must resolve
/// inside the workspace — `workspace = true` (definitions live in the
/// root `[workspace.dependencies]`, which is checked too) or an
/// explicit `path = "…"`. Bare version strings, `version =` without
/// `path`, and `git =` specs would all hit the network registry the
/// offline build environment does not have.
pub fn check_cargo_toml(file: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut section = String::new();
    // `[dependencies.foo]`-style table currently being accumulated.
    let mut table_dep: Option<(String, u32, Vec<String>)> = None;

    let flush_table = |dep: &mut Option<(String, u32, Vec<String>)>, out: &mut Vec<Finding>| {
        if let Some((name, line, body)) = dep.take() {
            if !spec_is_local(&body.join("\n")) {
                out.push(registry_finding(file, line, &name));
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            flush_table(&mut table_dep, &mut out);
            section = line
                .trim_start_matches('[')
                .trim_end_matches(']')
                .trim()
                .to_string();
            // `[dependencies.foo]` / `[workspace.dependencies.foo]`
            if let Some((head, dep)) = split_dep_table(&section) {
                section = head;
                table_dep = Some((dep, lineno, Vec::new()));
            }
            continue;
        }
        if let Some((_, _, body)) = table_dep.as_mut() {
            body.push(line.to_string());
            continue;
        }
        if !is_dep_section(&section) {
            continue;
        }
        // `name = spec` or `name.workspace = true`
        let Some((name, spec)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim();
        let spec = spec.trim();
        if let Some(base) = name.strip_suffix(".workspace") {
            let _ = base;
            continue; // resolved via the root manifest, checked there
        }
        if !spec_is_local(spec) {
            out.push(registry_finding(file, lineno, name));
        }
    }
    flush_table(&mut table_dep, &mut out);
    out
}

fn is_dep_section(section: &str) -> bool {
    section == "dependencies"
        || section == "dev-dependencies"
        || section == "build-dependencies"
        || section == "workspace.dependencies"
        || (section.starts_with("target.") && section.ends_with(".dependencies"))
}

/// Split `dependencies.foo` into `("dependencies", "foo")` when the
/// parent is a dependency section.
fn split_dep_table(section: &str) -> Option<(String, String)> {
    let (head, dep) = section.rsplit_once('.')?;
    if is_dep_section(head) {
        Some((head.to_string(), dep.trim().to_string()))
    } else {
        None
    }
}

/// Is a dependency spec workspace-local? Accepts `{ workspace = true }`
/// and anything carrying a `path` key; rejects bare version strings,
/// `version =`-only specs and `git =` specs.
fn spec_is_local(spec: &str) -> bool {
    if spec.contains("workspace") && spec.contains("true") {
        return true;
    }
    if spec.contains("git") && spec.contains('=') && spec.contains("git =") {
        return false;
    }
    spec.contains("path")
}

fn registry_finding(file: &str, line: u32, name: &str) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        col: 1,
        rule: "cfg-registry-dep",
        message: format!(
            "dependency `{name}` does not resolve inside the workspace; use \
             `workspace = true` or a `path = \"vendor/…\"` spec (the build \
             environment is offline)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_and_path_deps_pass() {
        let toml = r#"
[package]
name = "x"
version = "0.1.0"

[dependencies]
simcore.workspace = true
serde = { path = "vendor/serde", features = ["derive"] }

[dev-dependencies]
proptest.workspace = true
"#;
        assert!(check_cargo_toml("crates/x/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn registry_deps_flagged() {
        let toml = r#"
[dependencies]
rand = "0.8"
serde = { version = "1", features = ["derive"] }
remote = { git = "https://example.org/x" }
"#;
        let f = check_cargo_toml("crates/x/Cargo.toml", toml);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|f| f.rule == "cfg-registry-dep"));
    }

    #[test]
    fn dep_table_form_checked() {
        let bad = "[dependencies.rand]\nversion = \"0.8\"\n";
        assert_eq!(check_cargo_toml("c/Cargo.toml", bad).len(), 1);
        let good = "[dependencies.rand]\npath = \"vendor/rand\"\n";
        assert!(check_cargo_toml("c/Cargo.toml", good).is_empty());
    }

    #[test]
    fn package_version_not_a_dep() {
        let toml = "[package]\nname = \"x\"\nversion = \"0.1.0\"\n";
        assert!(check_cargo_toml("c/Cargo.toml", toml).is_empty());
    }
}
