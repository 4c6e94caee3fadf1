//! Panic-path check: no `unwrap`/`expect`/`panic!`-family macros or
//! direct indexing in the per-window hot paths.
//!
//! The pipelined scheduler runs pingers on worker threads; a panic
//! there is caught and surfaced as `PipelineError::Stage`, but a panic
//! in the dispatch or diagnosis stage aborts the whole run — and with
//! bounded window slots, a stage that dies while a peer blocks on
//! `send` turns a bug into a hang. Hot-path code therefore degrades
//! gracefully (typed errors, `unwrap_or_else`, `let ... else`) and the
//! provably-infallible remainder carries
//! `detlint::allow(panic_path, reason = "...")` so every accepted panic
//! site has a written justification.
//!
//! Tests, benches and examples are exempt (the walker skips them and
//! `#[cfg(test)]` items are stripped before analysis).

use crate::lexer::TokKind;
use crate::{Check, Diagnostic, FileCtx};

/// The per-window hot paths: everything executed per probe, per report
/// or per window — the window protocol's two halves and their three
/// schedules (inline, pipelined, and the distributed controller, whose
/// collect loop reads frames a remote agent wrote) — plus the wire
/// codec and the probe packet codec, which parse bytes
/// off real sockets, plus the incremental planner: the controller calls
/// it on every link flap, and a panic there takes the control plane
/// down with the topology already changed under it. The localizer's
/// files are here too: every window's diagnosis runs the PLL greedy and
/// the crate's run array and union-find (`dense.rs`), on the diagnosing
/// thread or a pool under it.
/// The rest of the control plane (controller, dispatch) re-plans between
/// windows and reports typed `PmcError`s already.
const SCOPE: &[&str] = &[
    "crates/agent/src/agent.rs",
    "crates/agent/src/runtime.rs",
    "crates/agent/src/transport.rs",
    "crates/core/src/dense.rs",
    "crates/core/src/pll/components.rs",
    "crates/core/src/pll/pll_impl.rs",
    "crates/ingest/src/plane.rs",
    "crates/ingest/src/prefilter.rs",
    "crates/simnet/src/packet.rs",
    "crates/system/src/scheduler.rs",
    "crates/system/src/pinger.rs",
    "crates/system/src/planner.rs",
    "crates/system/src/report.rs",
    "crates/system/src/runtime.rs",
    "crates/system/src/events.rs",
    "crates/system/src/diagnoser.rs",
    "crates/system/src/watchdog.rs",
    "crates/system/src/window.rs",
    "crates/system/src/wire.rs",
    "crates/system/src/clock.rs",
    "crates/system/src/responder.rs",
    "crates/system/src/dataplane.rs",
    "crates/system/src/dataplane/udp.rs",
    "crates/system/src/dataplane/udp/harness.rs",
    "crates/system/src/dataplane/udp/timestamp.rs",
];

/// True when the panic-path check applies to `rel`.
pub fn in_scope(rel: &str) -> bool {
    SCOPE.contains(&rel)
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Flags panic-capable constructs in the token stream.
pub fn run(ctx: &FileCtx) -> Vec<Diagnostic> {
    let t = &ctx.toks;
    let mut out = Vec::new();
    let mut diag = |line: u32, message: String| {
        out.push(Diagnostic {
            file: ctx.rel.clone(),
            line,
            check: Check::PanicPath,
            message,
        });
    };
    for i in 0..t.len() {
        match &t[i].kind {
            TokKind::Punct('.')
                if t.get(i + 1)
                    .and_then(|x| x.ident())
                    .is_some_and(|id| id == "unwrap" || id == "expect")
                    && t.get(i + 2).is_some_and(|x| x.is_punct('(')) =>
            {
                let id = t[i + 1].ident().unwrap_or_default();
                diag(
                    t[i + 1].line,
                    format!(
                        ".{id}() can panic in a hot path; return a typed error, degrade \
                         gracefully, or annotate a provably-infallible site with \
                         detlint::allow(panic_path, reason = \"...\")"
                    ),
                );
            }
            TokKind::Ident(id)
                if PANIC_MACROS.contains(&id.as_str())
                    && t.get(i + 1).is_some_and(|x| x.is_punct('!')) =>
            {
                diag(
                    t[i].line,
                    format!("{id}! aborts the stage thread in a hot path; surface a typed error"),
                );
            }
            TokKind::Punct('[') if i > 0 && is_index_base(&t[i - 1].kind) => {
                diag(
                    t[i].line,
                    "direct indexing can panic in a hot path; use .get()/iterators, or annotate \
                     a provably-in-bounds site with detlint::allow(panic_path, reason = \"...\")"
                        .into(),
                );
            }
            _ => {}
        }
    }
    out
}

/// A `[` directly after one of these tokens is an index expression (an
/// array literal, attribute, or slice type follows `=`, `#`, `:`, `&`,
/// `(`, `,`, `<`, `!`, ... instead). Keywords are never index bases:
/// `mut [u32]` in a signature, `return [a, b]` and `let [a] = ...` start
/// a slice type, array literal or slice pattern, not an indexing.
fn is_index_base(prev: &TokKind) -> bool {
    const KEYWORDS: &[&str] = &[
        "mut", "dyn", "in", "return", "else", "break", "const", "let",
    ];
    match prev {
        TokKind::Ident(id) => !KEYWORDS.contains(&id.as_str()),
        TokKind::Punct(']') | TokKind::Punct(')') => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, ScopeMode};
    use std::path::Path;

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_source(
            Path::new("crates/system/src/pinger.rs"),
            src,
            ScopeMode::Workspace,
        )
    }

    #[test]
    fn udp_dataplane_files_are_in_scope() {
        // The socket backend must stay panic-free; its files are scoped
        // explicitly (unlike determinism's prefix scope).
        for rel in [
            "crates/system/src/dataplane/udp.rs",
            "crates/system/src/dataplane/udp/harness.rs",
            "crates/system/src/dataplane/udp/timestamp.rs",
        ] {
            assert!(in_scope(rel), "{rel} must be panic-path scoped");
        }
    }

    #[test]
    fn frame_codec_is_in_scope() {
        // Every byte a peer sends goes through this file; a panic there
        // is a remote crash.
        assert!(in_scope("crates/system/src/wire.rs"));
    }

    #[test]
    fn window_protocol_is_in_scope() {
        // Both halves run once per window under every driver; a panic
        // in `close` takes the diagnosis stage down mid-pipeline.
        assert!(in_scope("crates/system/src/window.rs"));
    }

    #[test]
    fn distributed_controller_is_in_scope() {
        // Its collect loop acts on frames a remote agent wrote: a slot
        // index or a report it cannot vouch for must be an error, not a
        // panic.
        assert!(in_scope("crates/agent/src/runtime.rs"));
    }

    #[test]
    fn agent_host_is_in_scope() {
        // The pinger agent runs a window for every `RunWindow` frame and
        // its transport carries every frame both ways; a panic in either
        // silences an agent's whole host group.
        assert!(in_scope("crates/agent/src/agent.rs"));
        assert!(in_scope("crates/agent/src/transport.rs"));
    }

    #[test]
    fn prefilter_is_in_scope() {
        // The benchmark twin runs it every window, and its flag vector is
        // indexed by link ids a matrix path names — which need not be
        // below `num_links`.
        assert!(in_scope("crates/ingest/src/prefilter.rs"));
    }

    #[test]
    fn pll_greedy_and_link_index_are_in_scope() {
        // Every diagnosis indexes the window's links (in the run array of
        // `dense.rs`) and runs the greedy; matrix paths may name links
        // past `num_links`, which once indexed a per-link vector out of
        // bounds.
        assert!(in_scope("crates/core/src/pll/pll_impl.rs"));
        assert!(in_scope("crates/core/src/dense.rs"));
    }

    #[test]
    fn probe_codec_is_in_scope() {
        // Probers reading their own echoes and responders both hand it
        // datagrams straight off a socket.
        assert!(in_scope("crates/simnet/src/packet.rs"));
    }

    #[test]
    fn incremental_planner_is_in_scope() {
        // `ProbePlan::apply` runs on every link flap; its panics are the
        // controller's.
        assert!(in_scope("crates/system/src/planner.rs"));
    }

    #[test]
    fn unwrap_expect_panics_and_indexing_fire() {
        let src = "
            fn f(v: Vec<u32>, i: usize) -> u32 {
                let a = v.get(i).unwrap();
                let b = v.first().expect(\"msg\");
                if i > 3 { panic!(\"boom\"); }
                v[i]
            }
        ";
        let d = lint(src);
        assert_eq!(d.len(), 4, "{d:?}");
        assert!(d.iter().all(|x| x.check == Check::PanicPath));
    }

    #[test]
    fn unwrap_or_family_is_fine() {
        let src = "
            fn f(v: Option<u32>) -> u32 {
                v.unwrap_or(0) + v.unwrap_or_else(|| 1) + v.unwrap_or_default()
            }
        ";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn non_index_brackets_are_fine() {
        let src = "
            #[derive(Clone)]
            struct S { a: [u8; 4] }
            fn f() -> Vec<u32> { let x: &[u32] = &[1, 2]; vec![x[0]; 1] }
        ";
        // Only `x[0]` is an index expression.
        let d = lint(src);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn keywords_before_brackets_are_not_index_bases() {
        let src = "
            fn f(parent: &mut [u32]) -> [u8; 2] {
                let _s: &dyn std::any::Any = &1u8;
                for _x in [1, 2] {}
                let [_only] = [0u8];
                return [0, 1];
            }
        ";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn tests_are_exempt_and_allow_suppresses() {
        let src = "
            #[cfg(test)]
            mod tests { fn t() { v[0].unwrap(); } }
            fn f(v: &[u32], i: usize) -> u32 {
                // detlint::allow(panic_path, reason = \"i is taken modulo v.len() above\")
                v[i % v.len()]
            }
        ";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn out_of_scope_files_are_not_checked() {
        let d = lint_source(
            Path::new("crates/core/src/pmc/mod.rs"),
            "fn f(v: Vec<u32>) -> u32 { v[0] }",
            ScopeMode::Workspace,
        );
        assert!(d.is_empty());
    }
}
