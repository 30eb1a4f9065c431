//! Item-level parsing: the syntax layer under the `--deep` passes.
//!
//! Built directly on the [`crate::tokenizer`] stream (no external
//! parser — the build environment is offline), this module recovers
//! just enough structure for interprocedural analysis:
//!
//! * **items** — `fn` definitions with their owning `impl`/`trait`
//!   type, including nesting through inline `mod` blocks;
//! * **call expressions** — free calls (`helper(..)`), path calls
//!   (`Type::helper(..)`, `module::helper(..)`), and method calls
//!   (`recv.helper(..)`), each with its source position;
//! * **source events** — the seeds the deep passes propagate: wall
//!   clock reads, ambient RNG draws, unordered-collection mentions,
//!   `fs::read_dir` calls, panic macros, `.unwrap()`/`.expect()`, slice
//!   indexing, and floating-point accumulation hazards;
//! * **seam annotations** — `// lint:seam(<rule>) reason="…"` on a
//!   `fn` marks it a sanctioned boundary: taint originating at or
//!   below it is considered contained (see [`crate::deep`]).
//!
//! Fidelity is deliberately bounded: generics are skipped, types are
//! never inferred, and `expr[..]` indexing sugar is *not* resolved to
//! workspace `Index` impls (the local `panic-slice-index` rule covers
//! indexing in the hot tier). Test items (`#[test]` / `#[cfg(test)]`)
//! are excluded before parsing, like everywhere else in the linter.

use crate::rules::{
    collect_marks, collect_seams, non_test_tokens, Mark, AMBIENT_RNG, NON_INDEX_KEYWORDS,
};
use crate::tokenizer::{tokenize, Tok, TokKind};

/// What a source event seeds (which deep pass cares about it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// `Instant::now()` / `SystemTime::now()`.
    WallClock,
    /// `thread_rng()`, `OsRng`, `from_entropy`, `rand::random`, …
    AmbientRng,
    /// `HashMap` / `HashSet` mention: seed-dependent iteration order.
    HashCollection,
    /// `fs::read_dir(..)`: OS-dependent directory iteration order.
    ReadDir,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
    /// `.unwrap()` / `.expect(..)`.
    UnwrapExpect,
    /// `expr[..]` indexing (seeded only in hot-path-tier files).
    SliceIndex,
    /// Float-style reduction chained onto unordered-collection
    /// iteration (`m.values().sum()` with a `HashMap` in scope).
    HashReduce,
}

/// One source event inside a function body.
#[derive(Debug, Clone)]
pub struct Source {
    pub kind: SourceKind,
    pub line: u32,
    pub col: u32,
    /// Human-readable spelling for diagnostics (`Instant::now`, …).
    pub what: String,
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Path segments as written (`["Type", "helper"]`, `["helper"]`).
    pub path: Vec<String>,
    /// True for `recv.helper(..)` method-call syntax.
    pub method: bool,
    pub line: u32,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// `impl`/`trait` type the fn is defined on, if any.
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    pub calls: Vec<Call>,
    pub sources: Vec<Source>,
    /// Rules for which this fn is a sanctioned seam.
    pub seam_rules: Vec<String>,
}

/// Parse result for one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    pub file: String,
    pub fns: Vec<FnItem>,
    /// `lint:allow` marks in this file — the deep pass honors a
    /// source-line allow interprocedurally (suppressing e.g. the
    /// `deep-det-taint` finding seeded at an allowed `det-wall-clock`
    /// line) and reports which ones it used so the workspace-level
    /// unused-allow audit stays accurate.
    pub allows: Vec<Mark>,
    /// Seam annotations that did not attach to any `fn` line — a
    /// drifted annotation silently suppresses nothing, so the deep
    /// pass reports these.
    pub unattached_seams: Vec<(u32, String)>,
}

/// Parse one source file (test items excluded).
pub fn parse_file(file: &str, src: &str) -> ParsedFile {
    let stream = tokenize(src);
    let toks = non_test_tokens(&stream.tokens);
    let seams = collect_seams(&stream.comments, &stream.tokens);
    let mut out = ParsedFile {
        file: file.to_string(),
        allows: collect_marks(&stream.comments, &stream.tokens, "lint:allow("),
        ..ParsedFile::default()
    };
    parse_items(&toks, 0, toks.len(), None, &seams, &mut out.fns);
    // Audit seam attachment: every seam must land on a parsed fn.
    for s in &seams {
        let attached = out.fns.iter().any(|f| f.line == s.target_line);
        if !attached {
            out.unattached_seams.push((s.at_line, s.rules.join(",")));
        }
    }
    out
}

/// Walk `toks[i..end]` collecting `fn` items; recurse into `mod`,
/// `impl` and `trait` blocks.
fn parse_items(
    toks: &[Tok],
    mut i: usize,
    end: usize,
    owner: Option<&str>,
    seams: &[Mark],
    out: &mut Vec<FnItem>,
) {
    while i < end {
        let t = &toks[i];
        if t.is_ident("impl") || t.is_ident("trait") {
            let is_trait = t.is_ident("trait");
            if let Some((name, open)) = scan_owner(toks, i, end, is_trait) {
                let close = match_brace(toks, open, end);
                parse_items(toks, open + 1, close, name.as_deref(), seams, out);
                i = close + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("mod")
            && i + 2 < end
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 2].is_punct('{')
        {
            let close = match_brace(toks, i + 2, end);
            parse_items(toks, i + 3, close, owner, seams, out);
            i = close + 1;
            continue;
        }
        // `fn name` — but not an `fn(..)` pointer type.
        if t.is_ident("fn") && i + 1 < end && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = t.line;
            // Find the body `{` or a `;` (trait method declaration),
            // tracking paren depth so default args/types don't confuse.
            let mut j = i + 2;
            let mut paren = 0i32;
            let mut open = None;
            while j < end {
                let tj = &toks[j];
                if tj.is_punct('(') {
                    paren += 1;
                } else if tj.is_punct(')') {
                    paren -= 1;
                } else if tj.is_punct('{') && paren == 0 {
                    open = Some(j);
                    break;
                } else if tj.is_punct(';') && paren == 0 {
                    break;
                }
                j += 1;
            }
            let Some(open) = open else {
                i = j + 1;
                continue;
            };
            let close = match_brace(toks, open, end);
            let mut item = FnItem {
                name,
                owner: owner.map(str::to_string),
                line,
                calls: Vec::new(),
                sources: Vec::new(),
                seam_rules: seams
                    .iter()
                    .filter(|s| s.target_line == line)
                    .flat_map(|s| s.rules.iter().cloned())
                    .collect(),
            };
            scan_body(toks, i, open + 1, close, &mut item);
            out.push(item);
            i = close + 1;
            continue;
        }
        i += 1;
    }
}

/// From an `impl`/`trait` keyword, extract the owning type name and
/// the index of the body `{`. For `impl Trait for Type` the owner is
/// `Type`; for `trait Name` it is `Name`; generics are skipped.
fn scan_owner(
    toks: &[Tok],
    kw: usize,
    end: usize,
    is_trait: bool,
) -> Option<(Option<String>, usize)> {
    let mut angle = 0i32;
    let mut idents: Vec<String> = Vec::new();
    let mut after_for: Vec<String> = Vec::new();
    let mut seen_for = false;
    let mut j = kw + 1;
    while j < end {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if t.is_punct('{') && angle == 0 {
            let owner = if is_trait {
                idents.first().cloned()
            } else if seen_for {
                after_for.last().cloned()
            } else {
                idents.last().cloned()
            };
            return Some((owner, j));
        } else if t.is_punct(';') && angle == 0 {
            return None; // `impl Trait for Type;` / `trait X;` — no body
        } else if angle == 0 && t.kind == TokKind::Ident {
            if t.text == "for" {
                seen_for = true;
            } else if t.text == "where" {
                // Type position is over; keep scanning for `{`.
            } else if seen_for {
                after_for.push(t.text.clone());
            } else {
                idents.push(t.text.clone());
            }
        }
        j += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open` (or `end - 1`).
fn match_brace(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(end).skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    end.saturating_sub(1)
}

/// Keywords that look like call heads but are not calls.
const CALL_HEAD_KEYWORDS: &[&str] = &[
    "if", "match", "while", "loop", "return", "for", "in", "move", "as", "fn", "impl", "trait",
    "mod", "use", "pub", "let", "else", "break", "continue", "unsafe", "where", "await", "yield",
    "dyn", "ref", "mut", "box", "do", "struct", "enum", "union", "static", "const", "type",
    "crate", "self", "Self", "super",
];

/// Reduction methods whose result depends on operand order under
/// floating point.
const REDUCTIONS: &[&str] = &["sum", "product", "fold", "reduce"];

/// Iteration adapters that expose unordered-collection order.
const ITER_ADAPTERS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

fn scan_body(toks: &[Tok], sig_start: usize, start: usize, end: usize, item: &mut FnItem) {
    let mut has_hash = false;
    // A hash collection in the *signature* also marks the fn as
    // handling unordered data (`fn f(m: &HashMap<..>)`), which is what
    // the HashReduce check keys on.
    for t in toks.iter().take(start.saturating_sub(1)).skip(sig_start) {
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "HashMap" | "HashSet") {
            has_hash = true;
            item.sources.push(src(SourceKind::HashCollection, t));
        }
    }
    for k in start..end {
        let t = &toks[k];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "HashMap" | "HashSet" => {
                    has_hash = true;
                    item.sources.push(src(SourceKind::HashCollection, t));
                }
                s if AMBIENT_RNG.contains(&s) => {
                    item.sources.push(src(SourceKind::AmbientRng, t));
                }
                "random"
                    if k >= start + 3
                        && toks[k - 1].is_punct(':')
                        && toks[k - 2].is_punct(':')
                        && toks[k - 3].is_ident("rand") =>
                {
                    item.sources.push(Source {
                        kind: SourceKind::AmbientRng,
                        line: t.line,
                        col: t.col,
                        what: "rand::random".to_string(),
                    });
                }
                "now"
                    if k >= start + 3
                        && toks[k - 1].is_punct(':')
                        && toks[k - 2].is_punct(':')
                        && (toks[k - 3].is_ident("Instant")
                            || toks[k - 3].is_ident("SystemTime")) =>
                {
                    item.sources.push(Source {
                        kind: SourceKind::WallClock,
                        line: t.line,
                        col: t.col,
                        what: format!("{}::now", toks[k - 3].text),
                    });
                }
                "read_dir" if next_is(toks, k, end, '(') => {
                    item.sources.push(Source {
                        kind: SourceKind::ReadDir,
                        line: t.line,
                        col: t.col,
                        what: "fs::read_dir".to_string(),
                    });
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if next_is(toks, k, end, '!') =>
                {
                    item.sources.push(Source {
                        kind: SourceKind::PanicMacro,
                        line: t.line,
                        col: t.col,
                        what: format!("{}!", t.text),
                    });
                }
                "unwrap" | "expect"
                    if k > start && toks[k - 1].is_punct('.') && next_is(toks, k, end, '(') =>
                {
                    item.sources.push(Source {
                        kind: SourceKind::UnwrapExpect,
                        line: t.line,
                        col: t.col,
                        what: format!(".{}()", t.text),
                    });
                }
                _ => {}
            }
            // Call expression: `ident (` that is not a keyword, macro
            // or declaration head.
            if next_is(toks, k, end, '(')
                && !CALL_HEAD_KEYWORDS.contains(&t.text.as_str())
                && !(k > start && toks[k - 1].is_ident("fn"))
            {
                let method = k > start && toks[k - 1].is_punct('.');
                let mut path = vec![t.text.clone()];
                if !method {
                    // Walk `a::b::name` backwards.
                    let mut p = k;
                    while p >= start + 3
                        && toks[p - 1].is_punct(':')
                        && toks[p - 2].is_punct(':')
                        && toks[p - 3].kind == TokKind::Ident
                    {
                        path.insert(0, toks[p - 3].text.clone());
                        p -= 3;
                    }
                }
                // `.unwrap()` / `.expect()` are std combinators, never
                // workspace calls; they are tracked as sources above.
                if !(method && (t.text == "unwrap" || t.text == "expect")) {
                    item.calls.push(Call {
                        path,
                        method,
                        line: t.line,
                    });
                }
            }
        } else if t.is_punct('[') && k > start {
            let p = &toks[k - 1];
            let indexes = match p.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                TokKind::Punct => p.is_punct(')') || p.is_punct(']'),
                _ => false,
            };
            if indexes {
                item.sources.push(Source {
                    kind: SourceKind::SliceIndex,
                    line: t.line,
                    col: t.col,
                    what: "slice indexing".to_string(),
                });
            }
        }
    }
    // Order-sensitive reduction over an unordered collection: a
    // reduction whose statement also drives an iteration adapter, in a
    // fn that mentions a hash collection at all.
    if has_hash {
        for k in start..end {
            let t = &toks[k];
            if t.kind == TokKind::Ident
                && REDUCTIONS.contains(&t.text.as_str())
                && k > start
                && toks[k - 1].is_punct('.')
                && next_is(toks, k, end, '(')
                && statement_has_adapter(toks, start, k)
            {
                item.sources.push(Source {
                    kind: SourceKind::HashReduce,
                    line: t.line,
                    col: t.col,
                    what: format!(".{}() over an unordered collection", t.text),
                });
            }
        }
    }
}

/// Does the statement containing token `k` (scanning backwards to the
/// nearest `;` / `{` / `}`) drive an unordered-iteration adapter?
fn statement_has_adapter(toks: &[Tok], start: usize, k: usize) -> bool {
    let mut p = k;
    while p > start {
        p -= 1;
        let t = &toks[p];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        if t.kind == TokKind::Ident
            && ITER_ADAPTERS.contains(&t.text.as_str())
            && p > start
            && toks[p - 1].is_punct('.')
        {
            return true;
        }
    }
    false
}

fn next_is(toks: &[Tok], k: usize, end: usize, c: char) -> bool {
    k + 1 < end && toks[k + 1].is_punct(c)
}

fn src(kind: SourceKind, t: &Tok) -> Source {
    Source {
        kind,
        line: t.line,
        col: t.col,
        what: t.text.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("fixture.rs", src)
    }

    #[test]
    fn fns_and_owners() {
        let p = parse(
            "fn free() {}\n\
             impl Foo { fn method(&self) {} }\n\
             impl Display for Bar { fn fmt(&self) {} }\n\
             trait T { fn provided(&self) { self.required(); } fn required(&self); }\n\
             mod inner { fn nested() {} }\n",
        );
        let names: Vec<(String, Option<String>)> = p
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("method".into(), Some("Foo".into())),
                ("fmt".into(), Some("Bar".into())),
                ("provided".into(), Some("T".into())),
                ("nested".into(), None),
            ]
        );
    }

    #[test]
    fn calls_extracted() {
        let p = parse("fn f() { helper(); cluster::place(x); Type::new(); obj.method(1); }\n");
        let calls: Vec<(Vec<String>, bool)> = p.fns[0]
            .calls
            .iter()
            .map(|c| (c.path.clone(), c.method))
            .collect();
        assert_eq!(
            calls,
            vec![
                (vec!["helper".to_string()], false),
                (vec!["cluster".to_string(), "place".to_string()], false),
                (vec!["Type".to_string(), "new".to_string()], false),
                (vec!["method".to_string()], true),
            ]
        );
    }

    #[test]
    fn sources_detected() {
        let p = parse(
            "fn f() { let t = Instant::now(); let r = thread_rng(); \
             let m: HashMap<u32, u32> = HashMap::new(); \
             std::fs::read_dir(d); x.unwrap(); panic!(\"boom\"); v[0]; }\n",
        );
        let kinds: Vec<SourceKind> = p.fns[0].sources.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SourceKind::WallClock));
        assert!(kinds.contains(&SourceKind::AmbientRng));
        assert!(kinds.contains(&SourceKind::HashCollection));
        assert!(kinds.contains(&SourceKind::ReadDir));
        assert!(kinds.contains(&SourceKind::UnwrapExpect));
        assert!(kinds.contains(&SourceKind::PanicMacro));
        assert!(kinds.contains(&SourceKind::SliceIndex));
    }

    #[test]
    fn test_items_excluded() {
        let p = parse("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn live() {}\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "live");
    }

    #[test]
    fn hash_reduce_detected() {
        let p = parse("fn f(m: &HashMap<u32, f64>) -> f64 { m.values().sum() }\n");
        assert!(p.fns[0]
            .sources
            .iter()
            .any(|s| s.kind == SourceKind::HashReduce));
        // Ordered collections reduce deterministically.
        let p = parse("fn g(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum() }\n");
        assert!(!p.fns[0]
            .sources
            .iter()
            .any(|s| s.kind == SourceKind::HashReduce));
    }

    #[test]
    fn seam_attaches_to_fn() {
        let p = parse(
            "// lint:seam(deep-det-taint) reason=\"sorted after read\"\n\
             fn f() { std::fs::read_dir(d); }\n",
        );
        assert_eq!(p.fns[0].seam_rules, vec!["deep-det-taint".to_string()]);
        assert!(p.unattached_seams.is_empty());
        let p = parse("// lint:seam(deep-det-taint) reason=\"drifted\"\nstruct S;\n");
        assert_eq!(p.unattached_seams.len(), 1);
    }
}
