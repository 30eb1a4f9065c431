//! `mlfs-lint` CLI.
//!
//! ```text
//! cargo run -p mlfs-lint --release [-- [--json] [--deep] [--root DIR]
//!     [--budget-ms N]]
//! ```
//!
//! Exit codes: 0 = clean, 1 = violations (any finding, or a blown
//! `--budget-ms`), 2 = usage or I/O error. There is no baseline: fix a
//! finding or argue a `lint:allow` at its line.

use mlfs_lint::{render_json, render_text, scan_workspace_deep};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Opts {
    root: PathBuf,
    json: bool,
    /// Run the interprocedural passes too.
    deep: bool,
    /// Fail if the scan takes longer than this many milliseconds.
    budget_ms: Option<u64>,
}

fn usage() -> &'static str {
    "usage: mlfs-lint [--json] [--deep] [--root DIR] [--budget-ms N]\n\
     \n\
     --json            emit the machine-readable report on stdout\n\
     --deep            also run the interprocedural passes (determinism\n\
                       taint, panic reachability, FP-reduction hazards)\n\
     --root DIR        workspace root (default: auto-detected)\n\
     --budget-ms N     fail (exit 1) if the scan exceeds N milliseconds"
}

fn parse_opts() -> Result<Opts, String> {
    // `cargo run -p mlfs-lint` sets the manifest dir to `crates/lint`;
    // the workspace root is two levels up. Fall back to the cwd for a
    // bare binary invocation.
    let default_root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    let mut opts = Opts {
        root: default_root,
        json: false,
        deep: false,
        budget_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--deep" => opts.deep = true,
            "--budget-ms" => {
                let v = args.next().ok_or("--budget-ms needs a value")?;
                opts.budget_ms = Some(v.parse().map_err(|_| "--budget-ms needs an integer")?);
            }
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a value")?);
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(opts)
}

fn run() -> Result<bool, String> {
    let opts = parse_opts()?;
    let started = Instant::now();
    let report = scan_workspace_deep(&opts.root, opts.deep)
        .map_err(|e| format!("scanning {}: {e}", opts.root.display()))?;

    if opts.json {
        print!("{}", render_json(&report));
    } else {
        print!("{}", render_text(&report));
    }

    let mut ok = report.is_clean();
    let elapsed = started.elapsed();
    eprintln!(
        "mlfs-lint: scanned {} files in {:.0?}",
        report.files_scanned, elapsed
    );
    if let Some(budget) = opts.budget_ms {
        if elapsed.as_millis() > u128::from(budget) {
            eprintln!(
                "mlfs-lint: error: scan took {:.0?}, over the {budget} ms budget",
                elapsed
            );
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
