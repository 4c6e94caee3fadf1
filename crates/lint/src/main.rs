//! `detlint` — run the deTector workspace lints.
//!
//! * `detlint` (no args): find the workspace root from the current
//!   directory, lint every in-scope `.rs` file with path-based scoping
//!   and evaluate the ratchet table (what tier-1's workspace test runs).
//! * `detlint <file>...`: lint the given files with every per-file check
//!   enabled regardless of path (what the golden-fixture tests use).
//!
//! Exit status is 0 when clean, 1 when any diagnostic fires, 2 on usage
//! or I/O errors — the same contract as clippy, so it slots into CI as
//! a plain command.

use std::path::Path;
use std::process::ExitCode;

use detector_lint::{find_workspace_root, lint_source, lint_workspace, Diagnostic, ScopeMode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("usage: detlint [FILE...]");
        println!("  no args: lint the enclosing cargo workspace (path-scoped checks)");
        println!("  FILE...: lint the given files with all checks enabled");
        return ExitCode::SUCCESS;
    }

    let diags: Vec<Diagnostic> = if args.is_empty() {
        let cwd = match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => return fail(&format!("cannot determine current dir: {e}")),
        };
        let Some(root) = find_workspace_root(&cwd) else {
            return fail("no enclosing cargo workspace found");
        };
        match lint_workspace(&root) {
            Ok(d) => d,
            Err(e) => return fail(&format!("workspace walk failed: {e}")),
        }
    } else {
        let mut all = Vec::new();
        for f in &args {
            let source = match std::fs::read_to_string(f) {
                Ok(s) => s,
                Err(e) => return fail(&format!("cannot read {f}: {e}")),
            };
            all.extend(lint_source(Path::new(f), &source, ScopeMode::AllChecks));
        }
        all
    };

    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        eprintln!("detlint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("detlint: {} finding(s)", diags.len());
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("detlint: error: {msg}");
    ExitCode::from(2)
}
