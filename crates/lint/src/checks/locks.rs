//! Lock-discipline check: a per-function acquisition summary over the
//! workspace's known `Mutex`/`RwLock` sites.
//!
//! Three deadlock shapes are flagged:
//!
//! * **double acquisition** — re-locking a receiver that is already
//!   held in the same function (`std::sync::Mutex` self-deadlocks;
//!   the parking_lot shim inherits that behaviour);
//! * **lock-order inversion** — two receivers acquired in both orders
//!   within one file (the classic AB/BA deadlock between threads);
//! * **guard across a channel op** — a guard live at a `.send()` /
//!   `.recv()` call. `std::sync::mpsc` receivers block on `recv`, and a
//!   `sync_channel`'s `send` blocks once it is full (the scheduler's
//!   depth slots are one); blocking while holding a lock couples the
//!   pipeline stages into a deadlockable cycle.
//!
//! The analysis is intentionally first-order: a "lock receiver" is the
//! normalized token chain before `.lock()` / `.read()` / `.write()`
//! (e.g. `self.shared.state`, `results[_]`), a guard is *named* when
//! the statement is a top-level `let` binding (it then lives to the end
//! of its block, an explicit `drop(name)`, or end of function) and
//! *temporary* otherwise (it dies at the statement's `;`). The check
//! self-scopes: only files whose token stream mentions `Mutex` or
//! `RwLock` are analyzed, so channel-heavy lock-free files cost
//! nothing.

use std::collections::HashMap;
use std::ops::Range;

use crate::lexer::{match_back, Tok, TokKind};
use crate::{Check, Diagnostic, FileCtx, FnSpan};

/// Lock-returning methods. Empty call parens are required so that
/// `io::Write::write(buf)` / `Read::read(buf)` never match — lock
/// acquisitions take no arguments.
const ACQUIRE: &[&str] = &["lock", "read", "write"];

/// Channel endpoints of `std::sync::mpsc`: `recv` blocks, and so does a
/// full `sync_channel`'s `send`.
const CHANNEL_OPS: &[&str] = &["send", "recv", "try_send", "try_recv", "recv_timeout"];

/// A live named guard.
struct Guard {
    key: String,
    name: String,
    depth: i32,
    line: u32,
}

/// Runs the lock analysis over every function in the file.
pub fn run(ctx: &FileCtx) -> Vec<Diagnostic> {
    let qualifies = ctx
        .toks
        .iter()
        .any(|t| t.is_ident("Mutex") || t.is_ident("RwLock"));
    if !qualifies {
        return Vec::new();
    }

    let mut out = Vec::new();
    // (first-key, second-key) -> line of the second acquisition.
    let mut edges: HashMap<(String, String), u32> = HashMap::new();
    for f in &ctx.fns {
        let nested: Vec<Range<usize>> = ctx
            .fns
            .iter()
            .filter(|g| g.body.start > f.body.start && g.body.end <= f.body.end)
            .map(|g| g.body.clone())
            .collect();
        analyze_fn(ctx, f, &nested, &mut edges, &mut out);
    }

    // AB/BA inversions, reported once per pair at the later site.
    for ((a, b), &l1) in &edges {
        if a < b {
            if let Some(&l2) = edges.get(&(b.clone(), a.clone())) {
                let (anchor, other) = if l1 >= l2 { (l1, l2) } else { (l2, l1) };
                out.push(Diagnostic {
                    file: ctx.rel.clone(),
                    line: anchor,
                    check: Check::LockDiscipline,
                    message: format!(
                        "lock-order inversion: `{a}` and `{b}` are acquired in both orders \
                         (other order at line {other}); pick one order to rule out AB/BA deadlock"
                    ),
                });
            }
        }
    }
    out
}

fn analyze_fn(
    ctx: &FileCtx,
    f: &FnSpan,
    nested: &[Range<usize>],
    edges: &mut HashMap<(String, String), u32>,
    out: &mut Vec<Diagnostic>,
) {
    let t = &ctx.toks;
    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 0i32;

    // Per-statement state (reset at `;`, `{`, `}`).
    let mut stmt_let_name: Option<String> = None;
    let mut stmt_seen_any = false;
    let mut stmt_paren = 0i32;
    let mut stmt_temps: Vec<(String, u32)> = Vec::new();
    let mut stmt_chan: Option<(String, u32)> = None;

    let mut i = f.body.start;
    while i < f.body.end {
        if let Some(r) = nested.iter().find(|r| r.contains(&i)) {
            i = r.end;
            continue;
        }
        let tok = &t[i];

        // Statement-leading `let [mut] name` marks a named binding.
        if !stmt_seen_any {
            if tok.is_ident("let") {
                let mut k = i + 1;
                if t.get(k).is_some_and(|x| x.is_ident("mut")) {
                    k += 1;
                }
                if let Some(TokKind::Ident(name)) = t.get(k).map(|x| &x.kind) {
                    stmt_let_name = Some(name.clone());
                }
            }
            stmt_seen_any = true;
        }

        match &tok.kind {
            TokKind::Punct('(') => stmt_paren += 1,
            TokKind::Punct(')') => stmt_paren -= 1,
            TokKind::Punct(';') => {
                flush_stmt(
                    ctx,
                    &mut stmt_temps,
                    &mut stmt_chan,
                    &mut stmt_let_name,
                    &mut stmt_seen_any,
                    &mut stmt_paren,
                    out,
                );
            }
            TokKind::Punct('{') => {
                flush_stmt(
                    ctx,
                    &mut stmt_temps,
                    &mut stmt_chan,
                    &mut stmt_let_name,
                    &mut stmt_seen_any,
                    &mut stmt_paren,
                    out,
                );
                depth += 1;
            }
            TokKind::Punct('}') => {
                flush_stmt(
                    ctx,
                    &mut stmt_temps,
                    &mut stmt_chan,
                    &mut stmt_let_name,
                    &mut stmt_seen_any,
                    &mut stmt_paren,
                    out,
                );
                depth -= 1;
                held.retain(|g| g.depth <= depth);
            }
            TokKind::Ident(id) if id == "drop" && t.get(i + 1).is_some_and(|x| x.is_punct('(')) => {
                if let Some(TokKind::Ident(name)) = t.get(i + 2).map(|x| &x.kind) {
                    if t.get(i + 3).is_some_and(|x| x.is_punct(')')) {
                        held.retain(|g| g.name != *name);
                    }
                }
            }
            TokKind::Ident(id)
                if ACQUIRE.contains(&id.as_str())
                    && i > 0
                    && t[i - 1].is_punct('.')
                    && t.get(i + 1).is_some_and(|x| x.is_punct('('))
                    && t.get(i + 2).is_some_and(|x| x.is_punct(')')) =>
            {
                let key = receiver_key(t, i - 1);
                let line = tok.line;
                if let Some(prev) = held
                    .iter()
                    .map(|g| (g.key.as_str(), g.line))
                    .chain(stmt_temps.iter().map(|(k, l)| (k.as_str(), *l)))
                    .find(|(k, _)| *k == key)
                {
                    out.push(Diagnostic {
                        file: ctx.rel.clone(),
                        line,
                        check: Check::LockDiscipline,
                        message: format!(
                            "double acquisition: `{key}` is already held (guard from line {}); \
                             a second .{id}() self-deadlocks",
                            prev.1
                        ),
                    });
                }
                for first in held
                    .iter()
                    .map(|g| g.key.clone())
                    .chain(stmt_temps.iter().map(|(k, _)| k.clone()))
                    .collect::<Vec<_>>()
                {
                    if first != key {
                        edges.entry((first, key.clone())).or_insert(line);
                    }
                }
                let named = stmt_let_name.is_some() && stmt_paren == 0;
                if named {
                    held.push(Guard {
                        key,
                        name: stmt_let_name.clone().unwrap_or_default(),
                        depth,
                        line,
                    });
                } else {
                    stmt_temps.push((key, line));
                }
            }
            TokKind::Ident(id)
                if CHANNEL_OPS.contains(&id.as_str())
                    && i > 0
                    && t[i - 1].is_punct('.')
                    && t.get(i + 1).is_some_and(|x| x.is_punct('(')) =>
            {
                if let Some(g) = held.first() {
                    out.push(Diagnostic {
                        file: ctx.rel.clone(),
                        line: tok.line,
                        check: Check::LockDiscipline,
                        message: format!(
                            "guard on `{}` (line {}) is held across .{id}(); a blocking channel \
                             op under a lock couples stages into a deadlockable cycle — drop the \
                             guard first",
                            g.key, g.line
                        ),
                    });
                }
                if stmt_chan.is_none() {
                    stmt_chan = Some((id.clone(), tok.line));
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// End-of-statement: a temporary guard plus a channel op in the same
/// statement means the guard outlives the op (temporaries drop at the
/// `;`), which is the same held-across-channel hazard in disguise.
#[allow(clippy::too_many_arguments)]
fn flush_stmt(
    ctx: &FileCtx,
    stmt_temps: &mut Vec<(String, u32)>,
    stmt_chan: &mut Option<(String, u32)>,
    stmt_let_name: &mut Option<String>,
    stmt_seen_any: &mut bool,
    stmt_paren: &mut i32,
    out: &mut Vec<Diagnostic>,
) {
    if let (Some((op, op_line)), Some((key, _))) = (stmt_chan.as_ref(), stmt_temps.first()) {
        out.push(Diagnostic {
            file: ctx.rel.clone(),
            line: *op_line,
            check: Check::LockDiscipline,
            message: format!(
                "temporary guard on `{key}` lives to the end of this statement, across .{op}(); \
                 bind the locked value and drop the guard before the channel op"
            ),
        });
    }
    stmt_temps.clear();
    *stmt_chan = None;
    *stmt_let_name = None;
    *stmt_seen_any = false;
    *stmt_paren = 0;
}

/// Normalized receiver chain before the `.` at `dot`: identifiers joined
/// with `.`, index/call segments collapsed to `[_]` / `(_)` so
/// `results[i].lock()` and `results[j].lock()` share a key.
fn receiver_key(t: &[Tok], dot: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot as isize - 1;
    while j >= 0 {
        match &t[j as usize].kind {
            TokKind::Ident(id) => {
                parts.push(id.clone());
                if j >= 1 && t[(j - 1) as usize].is_punct('.') {
                    j -= 2;
                } else {
                    break;
                }
            }
            TokKind::Punct(']') => {
                parts.push("[_]".into());
                j = match_back(t, j as usize, '[', ']') as isize - 1;
            }
            TokKind::Punct(')') => {
                parts.push("(_)".into());
                j = match_back(t, j as usize, '(', ')') as isize - 1;
            }
            _ => break,
        }
    }
    parts.reverse();
    let mut key = String::new();
    for p in parts {
        if p == "[_]" || p == "(_)" {
            key.push_str(&p);
        } else {
            if !key.is_empty() {
                key.push('.');
            }
            key.push_str(&p);
        }
    }
    if key.is_empty() {
        key = "<expr>".into();
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, ScopeMode};
    use std::path::Path;

    fn lint(src: &str) -> Vec<Diagnostic> {
        // Prepend a Mutex mention so the file qualifies, as real lock
        // users do via their imports.
        let src = format!("use std::sync::Mutex;\n{src}");
        lint_source(
            Path::new("crates/demo/src/x.rs"),
            &src,
            ScopeMode::Workspace,
        )
    }

    #[test]
    fn double_acquisition_fires() {
        let d = lint(
            "fn f(&self) {
                let a = self.state.lock();
                let b = self.state.lock();
            }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("double acquisition"));
    }

    #[test]
    fn distinct_receivers_do_not_double_fire() {
        let d = lint(
            "fn f(&self) {
                let a = self.alpha.lock();
                let b = self.beta.lock();
            }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn inversion_across_functions_fires_once() {
        let d = lint(
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
             fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("lock-order inversion"));
    }

    #[test]
    fn guard_across_send_fires_and_drop_releases() {
        let d = lint(
            "fn f(&self) {
                let g = self.state.lock();
                self.tx.send(1);
            }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("held across .send()"));

        let d = lint(
            "fn f(&self) {
                let g = self.state.lock();
                drop(g);
                self.tx.send(1);
            }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn guard_scope_ends_at_block() {
        let d = lint(
            "fn f(&self) {
                { let g = self.state.lock(); }
                self.rx.recv();
            }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn temp_guard_in_channel_statement_fires() {
        let d = lint("fn f(&self) { self.tx.send(self.state.lock().val); }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("temporary guard"));
    }

    #[test]
    fn indexed_receivers_share_a_key() {
        let d = lint(
            "fn f(&self, i: usize, j: usize) {
                let a = self.cells[i].lock();
                let b = self.cells[j].lock();
            }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("cells[_]"), "{d:?}");
    }

    #[test]
    fn io_write_with_args_is_not_an_acquisition() {
        let d = lint("fn f(&self, buf: &[u8]) { self.file.write(buf); self.rx.recv(); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn files_without_lock_types_are_skipped() {
        let d = lint_source(
            Path::new("crates/demo/src/x.rs"),
            "fn f(&self) { let g = self.state.lock(); self.tx.send(1); }",
            ScopeMode::Workspace,
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
