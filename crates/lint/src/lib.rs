#![doc = include_str!("../README.md")]

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
    /// A row of the ratchet table; never suppressible in place.
    Ratchet,
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
            Check::Ratchet => "ratchet",
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
    pub file: String,
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
            self.file,
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

/// One file as every check reads it: its path and text, and for Rust
/// its tokens and function map.
pub struct FileCtx {
    /// Workspace-relative path.
    pub rel: String,
    /// Lives under a `tests`, `benches` or `examples` directory.
    pub test_dir: bool,
    /// The raw text.
    pub text: String,
    /// Every code token, test items included.
    pub all: Vec<Tok>,
    /// Code tokens with test items removed.
    pub toks: Vec<Tok>,
    /// The comments, where `detlint::allow` annotations live.
    pub comments: Vec<Comment>,
    /// Functions in `toks` (body ranges may nest).
    pub fns: Vec<FnSpan>,
}

impl FileCtx {
    /// Lexes `text` as the file at `rel`.
    pub fn new(rel: &Path, text: String) -> FileCtx {
        let test_dir = rel.iter().any(|c| TEST_DIRS.iter().any(|d| c == *d));
        let rel = rel.to_string_lossy().into_owned();
        let (all, comments) = lex(&text);
        let toks = strip_test_items(all.clone());
        let fns = functions(&toks);
        FileCtx {
            rel,
            test_dir,
            text,
            all,
            toks,
            comments,
            fns,
        }
    }
}

/// How scope rules apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScopeMode {
    /// Path-based scoping: each check only runs where its invariant
    /// lives (the workspace walk).
    Workspace,
    /// Every per-file check runs regardless of path (explicit-file mode,
    /// used by the golden-fixture tests and `detlint <file>`).
    AllChecks,
}

/// Lints one file's source under `rel_path`. The path decides which
/// checks apply in [`ScopeMode::Workspace`].
pub fn lint_source(rel_path: &Path, source: &str, mode: ScopeMode) -> Vec<Diagnostic> {
    lint_file(&FileCtx::new(rel_path, source.into()), mode)
}

/// The per-file checks.
fn lint_file(ctx: &FileCtx, mode: ScopeMode) -> Vec<Diagnostic> {
    let (allows, mut diags) = parse_allows(ctx);
    if mode == ScopeMode::AllChecks || checks::determinism::in_scope(&ctx.rel) {
        diags.extend(checks::determinism::run(ctx));
    }
    if mode == ScopeMode::AllChecks || checks::panic_path::in_scope(&ctx.rel) {
        diags.extend(checks::panic_path::run(ctx));
    }
    diags.extend(checks::locks::run(ctx));
    diags.extend(checks::events::run(ctx));

    diags.retain(|d| {
        !allows
            .iter()
            .any(|a| a.check == d.check && a.targets.contains(&d.line))
    });
    diags.sort_by_key(|d| d.line);
    diags
}

/// Walks the workspace under `root`: the per-file checks read its `.rs`
/// files outside test directories, and the ratchets also read the test
/// directories, the `Cargo.toml`s and the root's files. Fixtures and
/// build artifacts are never read.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    let live = |f: &&FileCtx| f.rel.ends_with(".rs") && !f.test_dir;
    let per_file = files.iter().filter(live);
    let mut diags: Vec<_> = per_file
        .flat_map(|f| lint_file(f, ScopeMode::Workspace))
        .collect();
    diags.extend(checks::ratchets::check(checks::ratchets::ROWS, &files));
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

const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "fixtures"];

/// Directories of test code: only a row that forbids a pattern in all
/// code reads them.
const TEST_DIRS: &[&str] = &["tests", "benches", "examples"];

fn walk(root: &Path, dir: &Path, out: &mut Vec<FileCtx>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(root, &path, out)?;
            }
        } else if dir == root || name.ends_with(".rs") || name == "Cargo.toml" {
            let text = String::from_utf8_lossy(&std::fs::read(&path)?).into_owned();
            out.push(FileCtx::new(path.strip_prefix(root).unwrap_or(&path), text));
        }
    }
    Ok(())
}

/// Parses `detlint::allow` annotations out of the comments, resolving
/// each one's target lines against the code tokens. Malformed
/// annotations become diagnostics.
fn parse_allows(ctx: &FileCtx) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in &ctx.comments {
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

/// Removes tokens of test items: those under `#[test]`, `#[cfg(test)]`
/// or `#[cfg(all(.., test, ..))]` (test code is exempt from every check).
pub(crate) fn strip_test_items(toks: Vec<Tok>) -> Vec<Tok> {
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
            // The item ends at its first `{...}` or `;` outside brackets
            // (`fn f(b: [u8; 4]) {..}` ends at the brace).
            let mut k = j;
            let mut depth = 0i32;
            while k < toks.len() {
                let t = &toks[k];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
                    break;
                }
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

/// If an attribute group starting at `i` marks a test item, returns the
/// index of its closing `]`. `cfg(not(test))` and `cfg(any(test, ..))`
/// items are live code.
fn test_attr_end(toks: &[Tok], i: usize) -> Option<usize> {
    if !toks[i].is_punct('#') || !toks.get(i + 1)?.is_punct('[') {
        return None;
    }
    let end = attr_end(toks, i)?;
    let is_test = |t: &[Tok]| matches!(t, [t] if t.is_ident("test"));
    let test = match &toks[i + 2..end] {
        [cfg, _, args @ .., _] if cfg.is_ident("cfg") => match args {
            [all, _, args @ .., _] if all.is_ident("all") => {
                let mut depth = 0i32;
                args.split(|t| {
                    depth += t.is_punct('(') as i32 - t.is_punct(')') as i32;
                    depth == 0 && t.is_punct(',')
                })
                .any(is_test)
            }
            args => is_test(args),
        },
        body => is_test(body),
    };
    test.then_some(end)
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

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new(Path::new("crates/demo/src/x.rs"), src.into())
    }

    #[test]
    fn cfg_test_items_are_stripped() {
        let src = "
            fn live() { a.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn dead() { gone.unwrap(); }
            }
            #[test]
            fn also_dead() { gone.unwrap(); }
            fn live2() {}
            #[cfg(test)]
            mod reference;
            fn live3() {}
            #[cfg(not(test))]
            fn live4() {}
            #[cfg(any(test, feature = \"x\"))]
            fn live5() {}
            #[cfg(all(unix, test))]
            fn dead2() { gone(); }
            #[cfg(test)]
            fn dead3(b: [u8; 4]) { gone(b); }
            fn live6() {}
        ";
        let c = ctx(src);
        let names: Vec<&str> = c.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["live", "live2", "live3", "live4", "live5", "live6"]);
        assert!(!c
            .toks
            .iter()
            .any(|t| t.is_ident("gone") || t.is_ident("reference")));
    }

    #[test]
    fn functions_capture_bodies() {
        let src = "impl Foo { fn a(&self) -> u32 { self.x } } fn b<T: Fn() -> u8>(t: T) { t(); }";
        let c = ctx(src);
        assert_eq!(c.fns.len(), 2);
        assert_eq!(c.fns[0].name, "a");
        assert_eq!(c.fns[1].name, "b");
    }

    #[test]
    fn allow_parses_and_targets_next_code_line() {
        let src =
            "\n// detlint::allow(panic_path, reason = \"bounded by modulo\")\nlet x = v[i];\n";
        let c = ctx(src);
        let (allows, diags) = parse_allows(&c);
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
            "// detlint::allow(ratchet, reason = \"x\")",
        ] {
            let src = format!("{bad}\nlet x = 1;\n");
            let c = ctx(&src);
            let (allows, diags) = parse_allows(&c);
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
