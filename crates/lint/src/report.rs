//! Rendering: rustc-style text diagnostics and a `--json` report for
//! CI artifact diffing. JSON is emitted by hand — the linter is
//! dependency-free by design (see the crate docs).

use crate::rules::Finding;
use crate::workspace::WorkspaceReport;
use std::fmt::Write as _;

/// Render the human-readable report (findings + summary).
pub fn render_text(report: &WorkspaceReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(
            out,
            "error[{}]: {}\n  --> {}:{}:{}",
            f.rule, f.message, f.file, f.line, f.col
        );
    }
    for (file, line, rules) in &report.stats.allows_unused {
        let _ = writeln!(
            out,
            "note: unused lint:allow({rules}) at {file}:{line} suppresses \
             nothing — remove it"
        );
    }
    let allows_fired: usize = report.stats.allows_used.values().sum();
    let _ = writeln!(
        out,
        "mlfs-lint: {} files scanned, {} finding(s), \
         {} lint:allow annotation(s) ({} fired)",
        report.files_scanned,
        report.findings.len(),
        report.stats.allows_total,
        allows_fired,
    );
    if let Some(deep) = &report.deep {
        let _ = writeln!(
            out,
            "mlfs-lint: deep scan: {} fns, {} edges, {} entry points, \
             {} finding(s), {} suppressed by lint:allow",
            deep.fn_count,
            deep.edge_count,
            deep.entry_count,
            deep.findings.len(),
            deep.suppressed,
        );
    }
    if report.is_clean() {
        let _ = writeln!(out, "mlfs-lint: clean (no findings)");
    }
    out
}

/// Render the machine-readable report.
pub fn render_json(report: &WorkspaceReport) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(out, "  \"clean\": {},", report.is_clean());

    out.push_str("  \"findings\": [\n");
    push_findings(&mut out, &report.findings);
    out.push_str("  ],\n");

    out.push_str("  \"allows\": {\n");
    let _ = writeln!(out, "    \"total\": {},", report.stats.allows_total);
    out.push_str("    \"used\": {");
    for (i, (rule, n)) in report.stats.allows_used.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json_str(rule), n);
    }
    out.push_str("},\n");
    out.push_str("    \"unused\": [");
    for (i, (file, line, rules)) in report.stats.allows_unused.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"file\": {}, \"line\": {line}, \"rules\": {}}}",
            json_str(file),
            json_str(rules)
        );
    }
    match &report.deep {
        None => out.push_str("]\n  }\n}\n"),
        Some(deep) => {
            out.push_str("]\n  },\n");
            out.push_str("  \"deep\": {\n");
            let _ = writeln!(out, "    \"fns\": {},", deep.fn_count);
            let _ = writeln!(out, "    \"edges\": {},", deep.edge_count);
            let _ = writeln!(out, "    \"entries\": {},", deep.entry_count);
            let _ = writeln!(out, "    \"suppressed\": {},", deep.suppressed);
            out.push_str("    \"rules\": {\n");
            // Per-rule arrays, fixed key order — empty arrays are kept
            // so CI diffs stay structurally stable.
            const DEEP_RULES: &[&str] = &[
                "deep-det-taint",
                "deep-panic-path",
                "deep-fp-reduction",
                "lint-seam-unattached",
            ];
            for (ri, rule) in DEEP_RULES.iter().enumerate() {
                let _ = write!(out, "      {}: [", json_str(rule));
                let mut first = true;
                for (f, d) in deep.findings.iter().filter(|(f, _)| f.rule == *rule) {
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    let _ = write!(
                        out,
                        "{{\"file\": {}, \"line\": {}, \"col\": {}, \
                         \"entry\": {}, \"chain\": [",
                        json_str(&f.file),
                        f.line,
                        f.col,
                        json_str(&d.entry),
                    );
                    for (ci, link) in d.chain.iter().enumerate() {
                        if ci > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&json_str(link));
                    }
                    let _ = write!(out, "], \"message\": {}}}", json_str(&f.message));
                }
                out.push_str(if ri + 1 < DEEP_RULES.len() {
                    "],\n"
                } else {
                    "]\n"
                });
            }
            out.push_str("    }\n  }\n}\n");
        }
    }
    out
}

fn push_findings(out: &mut String, findings: &[Finding]) {
    for (i, f) in findings.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \
             \"message\": {}}}",
            json_str(&f.file),
            f.line,
            f.col,
            json_str(f.rule),
            json_str(&f.message)
        );
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_report_is_clean_json() {
        let report = WorkspaceReport::default();
        let json = render_json(&report);
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"findings\": [\n  ]"));
    }

    #[test]
    fn any_finding_fails_the_run() {
        let report = WorkspaceReport {
            findings: vec![Finding {
                file: "crates/core/src/lib.rs".to_string(),
                line: 3,
                col: 7,
                rule: "panic-unwrap",
                message: "unwrap".to_string(),
            }],
            ..WorkspaceReport::default()
        };
        assert!(!report.is_clean());
        assert!(render_text(&report).contains("error[panic-unwrap]"));
        assert!(render_json(&report).contains("\"clean\": false"));
    }
}
