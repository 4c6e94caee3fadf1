//! `detlint` — workspace-native static analysis for the deTector
//! reproduction.
//!
//! The pipelined scheduler's headline guarantee (`run_pipelined ≡
//! run_scripted`) and the runtime's liveness rest on invariants no
//! compiler checks. `detlint` is a hand-rolled, registry-free analyzer
//! (lightweight lexer + per-function token analysis — same no-deps
//! philosophy as `shims/`) that walks the workspace and enforces them
//! with `file:line` diagnostics and a clippy-style nonzero exit:
//!
//! * **determinism** — wall-clock reads (`Instant::now`, `SystemTime`)
//!   and unseeded entropy (`thread_rng`, `from_entropy`, `OsRng`,
//!   `rand::random`) are forbidden in the runtime crates' window paths;
//!   genuine timing measurement (`replan_micros`, PMC timeout deadlines)
//!   carries an explicit allow annotation.
//! * **lock_discipline** — a per-function lock-acquisition summary over
//!   the known `Mutex`/`RwLock` sites flags double-acquisition,
//!   lock-order inversion and guards held across a channel
//!   `send`/`recv` (deadlock risk with bounded channels).
//! * **panic_path** — `unwrap`/`expect`/`panic!`-family macros and
//!   direct indexing are forbidden in the per-window hot-path files;
//!   provably-infallible sites carry an allow annotation with a reason.
//! * **event_protocol** — every variant of an enum that has both an
//!   inherent `encode` and `decode` (the agent tier's `Frame` codec)
//!   must appear in both bodies, so the wire round-trip can never
//!   silently lose a variant.
//!
//! Suppression syntax (reason is mandatory and non-empty):
//!
//! ```text
//! // detlint::allow(<check>, reason = "...")
//! ```
//!
//! placed on the offending line (trailing) or on its own line directly
//! above it. See `crates/lint/README.md` for the full catalogue.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod checks;
pub mod lexer;

use lexer::{lex, match_brace, Comment, Tok, TokKind};

/// The check families `detlint` enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Check {
    /// Wall-clock / entropy in deterministic window paths.
    Determinism,
    /// Lock-order, double-acquisition, guard-across-channel-op.
    LockDiscipline,
    /// `unwrap`/`expect`/`panic!`/indexing in hot paths.
    PanicPath,
    /// Wire round-trip completeness for `encode`/`decode` enums.
    EventProtocol,
    /// A malformed `detlint::allow(...)` annotation.
    Annotation,
}

impl Check {
    /// The name used in diagnostics and in `detlint::allow(<name>, ...)`.
    pub fn name(self) -> &'static str {
        match self {
            Check::Determinism => "determinism",
            Check::LockDiscipline => "lock_discipline",
            Check::PanicPath => "panic_path",
            Check::EventProtocol => "event_protocol",
            Check::Annotation => "annotation",
        }
    }

    /// Parses an annotation check name.
    pub fn from_name(s: &str) -> Option<Check> {
        match s {
            "determinism" => Some(Check::Determinism),
            "lock_discipline" => Some(Check::LockDiscipline),
            "panic_path" => Some(Check::PanicPath),
            "event_protocol" => Some(Check::EventProtocol),
            _ => None,
        }
    }
}

/// One finding, printed as `file:line: [check] message`.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// The check family that fired.
    pub check: Check,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.check.name(),
            self.message
        )
    }
}

/// A parsed `detlint::allow` annotation.
#[derive(Clone, Debug)]
struct Allow {
    check: Check,
    /// The lines this annotation suppresses: its own line and, for a
    /// comment standing alone on its line, the next line carrying a code
    /// token.
    targets: Vec<u32>,
}

/// One function's name and body token range (used by the per-function
/// lock analysis).
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body (inside the braces).
    pub body: std::ops::Range<usize>,
}

/// Everything the checks need for one file: relative path, the
/// test-stripped token stream, and the function map.
pub struct FileCtx {
    /// Workspace-relative path (`/`-separated components).
    pub rel: PathBuf,
    /// Code tokens with `#[cfg(test)]` / `#[test]` items removed.
    pub toks: Vec<Tok>,
    /// Functions in `toks` (body ranges may nest).
    pub fns: Vec<FnSpan>,
}

impl FileCtx {
    /// The relative path as a `/`-joined string for scope matching.
    pub fn rel_str(&self) -> String {
        self.rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/")
    }
}

/// How scope rules apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScopeMode {
    /// Path-based scoping: each check only runs where its invariant
    /// lives (the workspace walk).
    Workspace,
    /// Every check runs regardless of path (explicit-file mode, used by
    /// the golden-fixture tests and `detlint <file>`).
    AllChecks,
}

/// Lints one file's source under `rel_path`. The path decides which
/// checks apply in [`ScopeMode::Workspace`].
pub fn lint_source(rel_path: &Path, source: &str, mode: ScopeMode) -> Vec<Diagnostic> {
    let (toks, comments) = lex(source);
    let toks = strip_test_items(toks);
    let fns = functions(&toks);
    let ctx = FileCtx {
        rel: rel_path.to_path_buf(),
        toks,
        fns,
    };
    let (allows, mut diags) = parse_allows(&ctx, &comments);

    let rel = ctx.rel_str();
    if mode == ScopeMode::AllChecks || checks::determinism::in_scope(&rel) {
        diags.extend(checks::determinism::run(&ctx));
    }
    if mode == ScopeMode::AllChecks || checks::panic_path::in_scope(&rel) {
        diags.extend(checks::panic_path::run(&ctx));
    }
    diags.extend(checks::locks::run(&ctx));
    diags.extend(checks::events::run(&ctx));

    diags.retain(|d| {
        !allows
            .iter()
            .any(|a| a.check == d.check && a.targets.contains(&d.line))
    });
    diags.sort_by_key(|d| d.line);
    diags
}

/// Walks the workspace under `root` and lints every in-scope `.rs` file.
/// Tests, benches, examples, fixtures and build artifacts are exempt.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut diags = Vec::new();
    for f in files {
        let source = std::fs::read_to_string(&f)?;
        let rel = f.strip_prefix(root).unwrap_or(&f).to_path_buf();
        diags.extend(lint_source(&rel, &source, ScopeMode::Workspace));
    }
    Ok(diags)
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

const SKIP_DIRS: &[&str] = &[
    "target", ".git", ".github", "tests", "benches", "examples", "fixtures",
];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parses `detlint::allow` annotations out of the comments, resolving
/// each one's target lines against the code tokens. Malformed
/// annotations become diagnostics.
fn parse_allows(ctx: &FileCtx, comments: &[Comment]) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        // Doc comments describe the syntax; only plain comments carry
        // live annotations.
        let doc = c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!");
        if doc {
            continue;
        }
        let Some(pos) = c.text.find("detlint::allow") else {
            continue;
        };
        let rest = &c.text[pos + "detlint::allow".len()..];
        match parse_allow_args(rest) {
            Some(check) => {
                let mut targets = vec![c.line];
                // A comment alone on its line covers the next code line;
                // a trailing comment's own line already carries the code.
                if let Some(next) = ctx.toks.iter().map(|t| t.line).find(|&l| l > c.line) {
                    targets.push(next);
                }
                allows.push(Allow { check, targets });
            }
            None => diags.push(Diagnostic {
                file: ctx.rel.clone(),
                line: c.line,
                check: Check::Annotation,
                message: format!(
                    "malformed annotation {:?}: expected detlint::allow(<check>, reason = \"...\") \
                     with a known check name and a non-empty reason",
                    c.text.trim()
                ),
            }),
        }
    }
    (allows, diags)
}

/// Parses `(<check>, reason = "...")`; returns the check on success.
fn parse_allow_args(rest: &str) -> Option<Check> {
    let rest = rest.trim_start();
    let inner = rest.strip_prefix('(')?;
    let close = inner.find(')')?;
    let inner = &inner[..close];
    let (name, reason) = inner.split_once(',')?;
    let check = Check::from_name(name.trim())?;
    let reason = reason.trim().strip_prefix("reason")?.trim_start();
    let reason = reason.strip_prefix('=')?.trim_start();
    let quoted = reason.strip_prefix('"')?;
    let body = quoted.strip_suffix('"').unwrap_or(quoted);
    if body.trim().is_empty() {
        return None;
    }
    Some(check)
}

/// Removes tokens of items under `#[cfg(test)]` or `#[test]` (test code
/// is exempt from every check).
fn strip_test_items(toks: Vec<Tok>) -> Vec<Tok> {
    let mut keep = vec![true; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(end_attr) = test_attr_end(&toks, i) {
            // Skip any further attributes, then the item itself.
            let mut j = end_attr + 1;
            while j < toks.len() && toks[j].is_punct('#') {
                if let Some(e) = attr_end(&toks, j) {
                    j = e + 1;
                } else {
                    break;
                }
            }
            // The item ends at its first top-level `{...}` or at `;`.
            let mut k = j;
            while k < toks.len() && !toks[k].is_punct('{') && !toks[k].is_punct(';') {
                k += 1;
            }
            let item_end = if k < toks.len() && toks[k].is_punct('{') {
                match_brace(&toks, k)
            } else {
                k.min(toks.len().saturating_sub(1))
            };
            for slot in keep.iter_mut().take(item_end + 1).skip(i) {
                *slot = false;
            }
            i = item_end + 1;
        } else {
            i += 1;
        }
    }
    toks.into_iter()
        .zip(keep)
        .filter_map(|(t, k)| k.then_some(t))
        .collect()
}

/// If an attribute group starting at `i` is `#[cfg(test)]` or `#[test]`,
/// returns the index of its closing `]`.
fn test_attr_end(toks: &[Tok], i: usize) -> Option<usize> {
    if !toks[i].is_punct('#') || !toks.get(i + 1)?.is_punct('[') {
        return None;
    }
    let end = attr_end(toks, i)?;
    let body: Vec<&Tok> = toks[i + 2..end].iter().collect();
    let is_test = match body.first() {
        Some(t) if t.is_ident("test") => body.len() == 1,
        Some(t) if t.is_ident("cfg") => body.iter().any(|t| t.is_ident("test")),
        _ => false,
    };
    is_test.then_some(end)
}

/// Index of the `]` closing the attribute whose `#` is at `i`.
fn attr_end(toks: &[Tok], i: usize) -> Option<usize> {
    if !toks.get(i + 1)?.is_punct('[') {
        return None;
    }
    let mut depth = 0i32;
    for (off, t) in toks[i + 1..].iter().enumerate() {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1 + off);
            }
        }
    }
    None
}

/// Splits the token stream into functions (`fn` keyword through matching
/// body brace). Nested functions appear both standalone and inside their
/// parent's range; the lock analysis resolves the overlap.
pub fn functions(toks: &[Tok]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            if let Some(TokKind::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                let mut j = i + 2;
                while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('{') {
                    let end = match_brace(toks, j);
                    out.push(FnSpan {
                        name: name.clone(),
                        line: toks[i].line,
                        body: j + 1..end,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> (FileCtx, Vec<Comment>) {
        let (toks, comments) = lex(src);
        let toks = strip_test_items(toks);
        let fns = functions(&toks);
        (
            FileCtx {
                rel: PathBuf::from("crates/demo/src/x.rs"),
                toks,
                fns,
            },
            comments,
        )
    }

    #[test]
    fn cfg_test_items_are_stripped() {
        let src = "
            fn live() { a.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn dead() { b.unwrap(); }
            }
            #[test]
            fn also_dead() { c.unwrap(); }
            fn live2() {}
        ";
        let (c, _) = ctx(src);
        let names: Vec<&str> = c.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["live", "live2"]);
    }

    #[test]
    fn functions_capture_bodies() {
        let src = "impl Foo { fn a(&self) -> u32 { self.x } } fn b<T: Fn() -> u8>(t: T) { t(); }";
        let (c, _) = ctx(src);
        assert_eq!(c.fns.len(), 2);
        assert_eq!(c.fns[0].name, "a");
        assert_eq!(c.fns[1].name, "b");
    }

    #[test]
    fn allow_parses_and_targets_next_code_line() {
        let src =
            "\n// detlint::allow(panic_path, reason = \"bounded by modulo\")\nlet x = v[i];\n";
        let (c, comments) = ctx(src);
        let (allows, diags) = parse_allows(&c, &comments);
        assert!(diags.is_empty());
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].check, Check::PanicPath);
        assert!(allows[0].targets.contains(&2));
        assert!(allows[0].targets.contains(&3));
    }

    #[test]
    fn malformed_allow_is_reported() {
        for bad in [
            "// detlint::allow(panic_path)",
            "// detlint::allow(panic_path, reason = \"\")",
            "// detlint::allow(nonsense, reason = \"x\")",
            "// detlint::allow(panic_path, because = \"x\")",
        ] {
            let src = format!("{bad}\nlet x = 1;\n");
            let (c, comments) = ctx(&src);
            let (allows, diags) = parse_allows(&c, &comments);
            assert!(allows.is_empty(), "{bad}");
            assert_eq!(diags.len(), 1, "{bad}");
            assert_eq!(diags[0].check, Check::Annotation);
        }
    }

    #[test]
    fn workspace_root_is_found() {
        let here = std::env::current_dir().unwrap();
        let root = find_workspace_root(&here).expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
    }
}
