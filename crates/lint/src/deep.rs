//! `--deep` mode: interprocedural passes over the workspace call graph.
//!
//! Three passes, all driven by the same [`crate::callgraph::Graph`]:
//!
//! * **`deep-det-taint`** — seed taint at wall-clock reads, ambient
//!   RNG draws, unordered-collection mentions and `fs::read_dir`
//!   inside deterministic-tier files; flag any seed reachable from a
//!   deterministic-tier entry point (`Scheduler::schedule*`, the
//!   engine `begin`/`step`/`run`/`inject_job`/`restore` seam, service
//!   recovery/replay). A `// lint:seam(deep-det-taint) reason="…"`
//!   on a `fn` declares it a sanctioned boundary: the search does not
//!   traverse into it and seeds inside it are contained (e.g. a
//!   directory scan that sorts its results before returning).
//! * **`deep-panic-path`** — can a hot-path entry point transitively
//!   reach a `panic!`-family macro, `.unwrap()`/`.expect()`, or
//!   hot-tier slice indexing? Reported with the shortest witness call
//!   chain, rustc-style.
//! * **`deep-fp-reduction`** — float-accumulation hazards: reductions
//!   chained onto unordered-collection iteration (seed changes order).
//!   This pass is intra-procedural; the sources are already precise.
//!
//! Findings are anchored at the **seed** line, so the existing
//! `lint:allow` escape hatch works unchanged: an allow for either the
//! deep rule or the corresponding local rule (`det-wall-clock`,
//! `panic-unwrap`, …) at the seed line suppresses the deep finding,
//! and the workspace scan credits that allow as used.

use crate::callgraph::{FnId, Graph};
use crate::parse::{ParsedFile, SourceKind};
use crate::policy::policy_for;
use crate::rules::Finding;
use std::collections::BTreeSet;

/// Structured companion to a deep [`Finding`], for the JSON report.
#[derive(Debug, Clone)]
pub struct DeepDetail {
    /// Entry point the witness chain starts from (qualified name).
    pub entry: String,
    /// Entry → … → seed fn, qualified names.
    pub chain: Vec<String>,
}

/// Result of the deep passes.
#[derive(Debug, Default)]
pub struct DeepReport {
    /// Unsuppressed findings, in (file, line, col, rule) order.
    pub findings: Vec<Finding>,
    /// Witness details, aligned index-for-index with `findings`.
    /// Empty chain for intra-procedural (`deep-fp-reduction`) and
    /// meta (`lint-seam-unattached`) findings.
    pub details: Vec<DeepDetail>,
    /// Findings suppressed by `lint:allow` at the seed line.
    pub suppressed: usize,
    /// `(file, comment line, deep rule)` of allows the deep pass used
    /// — the workspace unused-allow audit subtracts these.
    pub allows_used: Vec<(String, u32, &'static str)>,
    /// Graph size, for the report header.
    pub fn_count: usize,
    pub edge_count: usize,
    pub entry_count: usize,
}

/// Entry-point names for the engine streaming seam.
const SIM_ENTRIES: &[&str] = &["begin", "step", "run", "inject_job", "restore"];
/// Entry-point names for service recovery/replay.
const SERVICE_ENTRIES: &[&str] = &["recover", "replay_one", "tick", "submit", "replay_inject"];

/// Run all deep passes. `files` must be sorted by path (the workspace
/// walker guarantees this); everything downstream is deterministic.
pub fn analyze(files: &[ParsedFile]) -> DeepReport {
    let graph = Graph::build(files);
    let mut report = DeepReport {
        fn_count: graph.fns.len(),
        edge_count: graph.edges.iter().map(Vec::len).sum(),
        ..DeepReport::default()
    };

    let det_entries = entry_points(&graph, true);
    let hot_entries = entry_points(&graph, false);
    report.entry_count = det_entries
        .iter()
        .chain(&hot_entries)
        .collect::<BTreeSet<_>>()
        .len();

    let mut out: Vec<(Finding, DeepDetail)> = Vec::new();

    // Pass 1: determinism taint, over the graph with `deep-det-taint`
    // seams removed.
    run_reach_pass(
        &graph,
        &det_entries,
        "deep-det-taint",
        |node, kind| {
            policy_for(&node.file).deterministic
                && matches!(
                    kind,
                    SourceKind::WallClock
                        | SourceKind::AmbientRng
                        | SourceKind::HashCollection
                        | SourceKind::ReadDir
                )
        },
        |what, kind, entry, chain| {
            let cause = match kind {
                SourceKind::WallClock => "reads the wall clock",
                SourceKind::AmbientRng => "draws ambient randomness",
                SourceKind::HashCollection => "iterates in seed-dependent order",
                _ => "iterates in OS-dependent order",
            };
            format!(
                "`{what}` {cause} and is reachable from deterministic entry \
                 `{entry}` (via {}); route through a seeded/virtual-time seam \
                 or mark the containing fn `lint:seam(deep-det-taint)`",
                chain.join(" -> ")
            )
        },
        &mut out,
    );

    // Pass 2: panic reachability from hot-path entries. Slice-index
    // seeds only count in hot-tier files (elsewhere the local rule
    // doesn't apply either); panic macros and unwraps count anywhere
    // in parsed library code — the point of the transitive pass is to
    // catch a hot path calling into a panicking helper two crates
    // away.
    run_reach_pass(
        &graph,
        &hot_entries,
        "deep-panic-path",
        |node, kind| match kind {
            SourceKind::PanicMacro | SourceKind::UnwrapExpect => true,
            SourceKind::SliceIndex => policy_for(&node.file).hot_path,
            _ => false,
        },
        |what, _, entry, chain| {
            format!(
                "`{what}` can panic and is reachable from hot-path entry \
                 `{entry}` (via {}); degrade gracefully or justify with \
                 lint:allow at this line",
                chain.join(" -> ")
            )
        },
        &mut out,
    );

    // Pass 3: FP-reduction hazards (intra-procedural, det tier only).
    for pf in files {
        if !policy_for(&pf.file).deterministic {
            continue;
        }
        for f in &pf.fns {
            if f.seam_rules.iter().any(|r| r == "deep-fp-reduction") {
                continue;
            }
            for s in &f.sources {
                if s.kind == SourceKind::HashReduce {
                    out.push((
                        Finding {
                            file: pf.file.clone(),
                            line: s.line,
                            col: s.col,
                            rule: "deep-fp-reduction",
                            message: format!(
                                "{} in `{}`: operand grouping depends on \
                                 collection order, so float results are not \
                                 reproducible; accumulate per-item results in a \
                                 fixed order instead",
                                s.what,
                                qualified(&f.name, f.owner.as_deref()),
                            ),
                        },
                        DeepDetail {
                            entry: String::new(),
                            chain: Vec::new(),
                        },
                    ));
                }
            }
        }
    }

    // Meta: seam annotations that attached to nothing suppress
    // nothing — surface them instead of silently ignoring drift.
    for pf in files {
        if policy_for(&pf.file) == crate::policy::FilePolicy::NONE {
            continue;
        }
        for (line, rules) in &pf.unattached_seams {
            out.push((
                Finding {
                    file: pf.file.clone(),
                    line: *line,
                    col: 1,
                    rule: "lint-seam-unattached",
                    message: format!(
                        "lint:seam({rules}) does not attach to any fn; move it \
                         to the line directly above the fn it sanctions"
                    ),
                },
                DeepDetail {
                    entry: String::new(),
                    chain: Vec::new(),
                },
            ));
        }
    }

    // Apply seed-line `lint:allow` suppressions, then order the
    // survivors.
    let mut kept: Vec<(Finding, DeepDetail)> = Vec::new();
    for (f, d) in out {
        let pf = files.iter().find(|p| p.file == f.file);
        let allow = pf.and_then(|p| {
            p.allows.iter().find(|a| {
                a.target_line == f.line
                    && a.rules
                        .iter()
                        .any(|r| r == f.rule || deep_local_alias(f.rule, r))
            })
        });
        match allow {
            Some(a) => {
                report.suppressed += 1;
                report.allows_used.push((f.file.clone(), a.at_line, f.rule));
            }
            None => kept.push((f, d)),
        }
    }
    kept.sort_by(|a, b| {
        (&a.0.file, a.0.line, a.0.col, a.0.rule).cmp(&(&b.0.file, b.0.line, b.0.col, b.0.rule))
    });
    kept.dedup_by(|a, b| {
        a.0.file == b.0.file && a.0.line == b.0.line && a.0.col == b.0.col && a.0.rule == b.0.rule
    });
    report.allows_used.sort();
    report.allows_used.dedup();
    for (f, d) in kept {
        report.findings.push(f);
        report.details.push(d);
    }
    report
}

/// Does a line-level allow for local rule `allowed` also cover deep
/// rule `deep`? (The seed line is the same physical line, so the
/// author's argument applies to both views of the hazard.)
fn deep_local_alias(deep: &str, allowed: &str) -> bool {
    match deep {
        "deep-det-taint" => matches!(
            allowed,
            "det-wall-clock" | "det-ambient-rng" | "det-hash-collection"
        ),
        "deep-panic-path" => matches!(
            allowed,
            "panic-macro" | "panic-unwrap" | "panic-slice-index"
        ),
        "deep-fp-reduction" => allowed == "det-float-ord",
        _ => false,
    }
}

fn qualified(name: &str, owner: Option<&str>) -> String {
    match owner {
        Some(o) => format!("{o}::{name}"),
        None => name.to_string(),
    }
}

/// Deterministic-tier (`det = true`) or hot-path entry points.
fn entry_points(graph: &Graph, det: bool) -> Vec<FnId> {
    let mut out = Vec::new();
    for (id, n) in graph.fns.iter().enumerate() {
        let pol = policy_for(&n.file);
        let tier_ok = if det { pol.deterministic } else { pol.hot_path };
        if !tier_ok {
            continue;
        }
        let name = n.item.name.as_str();
        let is_entry = matches!(name, "schedule" | "schedule_stream")
            || (n.item.owner.as_deref() == Some("Simulation") && SIM_ENTRIES.contains(&name))
            || (n.file.contains("crates/service/") && SERVICE_ENTRIES.contains(&name));
        if is_entry {
            out.push(id);
        }
    }
    out
}

/// One reachability pass: BFS from `entries` over the graph minus
/// edges into fns seam-marked for `rule`, then report every reached
/// source accepted by `seed_filter`.
#[allow(clippy::too_many_arguments)]
fn run_reach_pass(
    graph: &Graph,
    entries: &[FnId],
    rule: &'static str,
    seed_filter: impl Fn(&crate::callgraph::Node, SourceKind) -> bool,
    message: impl Fn(&str, SourceKind, &str, &[String]) -> String,
    out: &mut Vec<(Finding, DeepDetail)>,
) {
    // Remove seam-marked fns from the traversal: taint does not flow
    // *through* a sanctioned boundary, and seeds *inside* one are
    // contained. (An entry that is itself a seam is dropped too.)
    let sealed: Vec<bool> = graph
        .fns
        .iter()
        .map(|n| n.item.seam_rules.iter().any(|r| r == rule))
        .collect();
    let pruned = Graph {
        fns: graph.fns.clone(),
        edges: graph
            .edges
            .iter()
            .map(|es| es.iter().copied().filter(|&v| !sealed[v]).collect())
            .collect(),
    };
    let live_entries: Vec<FnId> = entries.iter().copied().filter(|&e| !sealed[e]).collect();
    let reach = pruned.reach_from(&live_entries);

    for (id, n) in graph.fns.iter().enumerate() {
        if !reach.seen[id] || sealed[id] {
            continue;
        }
        let chain = pruned.witness(&reach, id);
        let entry = graph.fns[reach.entry_of[id]].qualified();
        for s in &n.item.sources {
            if !seed_filter(n, s.kind) {
                continue;
            }
            out.push((
                Finding {
                    file: n.file.clone(),
                    line: s.line,
                    col: s.col,
                    rule,
                    message: message(&s.what, s.kind, &entry, &chain),
                },
                DeepDetail {
                    entry: entry.clone(),
                    chain: chain.clone(),
                },
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    /// Paths must look like workspace det/hot-tier files for policy.
    const DET: &str = "crates/rl/src/fixture.rs"; // det, not hot
    const HOT: &str = "crates/sim/src/fixture.rs"; // det + hot

    fn run(srcs: &[(&str, &str)]) -> DeepReport {
        let files: Vec<ParsedFile> = srcs.iter().map(|(f, s)| parse_file(f, s)).collect();
        analyze(&files)
    }

    #[test]
    fn taint_through_helper_chain() {
        let r = run(&[(
            DET,
            "fn schedule() { helper(); }\n\
             fn helper() { leaf(); }\n\
             fn leaf() { let t = Instant::now(); }\n",
        )]);
        let f = r
            .findings
            .iter()
            .find(|f| f.rule == "deep-det-taint")
            .expect("taint finding");
        assert!(
            f.message.contains("schedule -> helper -> leaf"),
            "{}",
            f.message
        );
    }

    #[test]
    fn seam_contains_taint() {
        let r = run(&[(
            DET,
            "fn schedule() { helper(); }\n\
             // lint:seam(deep-det-taint) reason=\"output sorted before return\"\n\
             fn helper() { std::fs::read_dir(d); }\n",
        )]);
        assert!(r.findings.iter().all(|f| f.rule != "deep-det-taint"));
    }

    #[test]
    fn panic_witness_chain() {
        let r = run(&[(
            HOT,
            "impl Simulation { fn step(&mut self) { helper(); } }\n\
             fn helper() { panic!(\"boom\"); }\n",
        )]);
        let f = r
            .findings
            .iter()
            .find(|f| f.rule == "deep-panic-path")
            .expect("panic finding");
        assert!(
            f.message.contains("Simulation::step -> helper"),
            "{}",
            f.message
        );
    }

    #[test]
    fn allow_at_seed_suppresses_deep_finding() {
        let r = run(&[(
            HOT,
            "impl Simulation { fn step(&mut self) { helper(); } }\n\
             fn helper() {\n\
                 let x = v.first().unwrap(); // lint:allow(panic-unwrap) reason=\"v checked non-empty\"\n\
             }\n",
        )]);
        assert!(r.findings.iter().all(|f| f.rule != "deep-panic-path"));
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.allows_used.len(), 1);
    }

    #[test]
    fn seam_contains_panic() {
        let r = run(&[(
            HOT,
            "impl Simulation { fn step(&mut self) { checked(); } }\n\
             // lint:seam(deep-panic-path) reason=\"panics only on a corrupt snapshot, rejected earlier\"\n\
             fn checked() { v.first().unwrap(); }\n",
        )]);
        assert!(r.findings.iter().all(|f| f.rule != "deep-panic-path"));
    }

    #[test]
    fn seam_contains_fp_reduction() {
        let r = run(&[(
            DET,
            "// lint:seam(deep-fp-reduction) reason=\"the caller only compares the total against zero\"\n\
             fn f(m: &HashMap<u32, f64>) -> f64 { m.values().sum() }\n",
        )]);
        assert!(r.findings.iter().all(|f| f.rule != "deep-fp-reduction"));
    }

    #[test]
    fn unreachable_panic_not_flagged() {
        let r = run(&[(
            HOT,
            "impl Simulation { fn step(&mut self) {} }\n\
             fn dead_helper() { panic!(\"never called\"); }\n",
        )]);
        assert!(r.findings.iter().all(|f| f.rule != "deep-panic-path"));
    }

    #[test]
    fn fp_reduction_on_hash_iteration() {
        let r = run(&[(
            DET,
            "fn f(m: &HashMap<u32, f64>) -> f64 { m.values().sum() }\n",
        )]);
        assert!(r.findings.iter().any(|f| f.rule == "deep-fp-reduction"));
    }

    #[test]
    fn unattached_seam_reported() {
        let r = run(&[(
            DET,
            "// lint:seam(deep-det-taint) reason=\"drift\"\nstruct S;\n",
        )]);
        assert!(r.findings.iter().any(|f| f.rule == "lint-seam-unattached"));
    }
}
