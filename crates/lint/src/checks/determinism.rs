//! Determinism check: no wall-clock or unseeded entropy in the runtime
//! crates' window paths.
//!
//! The pipelined-equivalence proof (PR 4) holds because a window's
//! outcome is a pure function of its master seed: sequential `step` and
//! `run_pipelined` draw exactly one `u64` per window and derive every
//! probe stream from it. One stray `Instant::now()` branch or
//! `thread_rng()` draw inside the scheduler / pinger / diagnosis path
//! silently voids that proof — the property tests would only catch it if
//! the entropy happened to change an outcome under test. This check
//! makes the invariant structural.
//!
//! Genuine timing *measurement* is fine (it never feeds back into
//! control flow that the equivalence harness compares): the
//! `replan_micros` stopwatch and the PMC solver's timeout deadlines are
//! annotated with `detlint::allow(determinism, ...)` at their sites.

use crate::{Check, Diagnostic, FileCtx};

/// The deterministic core: everything the equivalence proofs cover.
/// Bench binaries, baselines and the shims (offline stand-ins for
/// external crates, such as `proptest`) are out of scope.
const SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/ingest/src/",
    "crates/simnet/src/",
    "crates/system/src/",
    "crates/topology/src/",
];

/// True when the determinism check applies to `rel`.
pub fn in_scope(rel: &str) -> bool {
    SCOPE.iter().any(|p| rel.starts_with(p))
}

/// Identifiers that are an entropy source wherever they appear.
const ENTROPY_IDENTS: &[(&str, &str)] = &[
    (
        "thread_rng",
        "unseeded RNG: thread_rng() draws OS entropy; derive a stream from the window seed instead",
    ),
    (
        "from_entropy",
        "unseeded RNG: from_entropy() breaks seed-reproducibility; seed from the window master seed",
    ),
    (
        "OsRng",
        "unseeded RNG: OsRng reads OS entropy; runtime paths must derive from the window seed",
    ),
    (
        "SystemTime",
        "wall clock: SystemTime must not reach window logic; use the SimClock / window indices",
    ),
];

/// Flags wall-clock and entropy sources in the token stream.
pub fn run(ctx: &FileCtx) -> Vec<Diagnostic> {
    let t = &ctx.toks;
    let mut out = Vec::new();
    let mut diag = |line: u32, message: String| {
        out.push(Diagnostic {
            file: ctx.rel.clone(),
            line,
            check: Check::Determinism,
            message,
        });
    };
    for i in 0..t.len() {
        if let Some(id) = t[i].ident() {
            if id == "Instant"
                && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 3).is_some_and(|x| x.is_ident("now"))
            {
                diag(
                    t[i].line,
                    "wall clock: Instant::now() in a runtime path; window logic must not branch \
                     on real time (annotate genuine timing measurement with \
                     detlint::allow(determinism, reason = \"...\"))"
                        .into(),
                );
            } else if id == "random"
                && i >= 2
                && t[i - 1].is_punct(':')
                && t[i - 2].is_punct(':')
                && t.get(i.wrapping_sub(3)).is_some_and(|x| x.is_ident("rand"))
            {
                diag(
                    t[i].line,
                    "unseeded RNG: rand::random() draws thread-local entropy; derive from the \
                     window seed"
                        .into(),
                );
            } else if let Some((_, msg)) = ENTROPY_IDENTS.iter().find(|(n, _)| *n == id) {
                diag(t[i].line, (*msg).into());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, ScopeMode};
    use std::path::Path;

    #[test]
    fn scope_covers_runtime_crates_only() {
        assert!(in_scope("crates/system/src/scheduler.rs"));
        assert!(in_scope("crates/core/src/pmc/mod.rs"));
        assert!(in_scope("crates/ingest/src/plane.rs"));
        // The socket backend lives under dataplane/udp/ — prefix scoping
        // must pull new files in automatically.
        assert!(in_scope("crates/system/src/dataplane/udp.rs"));
        assert!(in_scope("crates/system/src/dataplane/udp/timestamp.rs"));
        assert!(!in_scope("crates/bench/src/bin/fig4.rs"));
        assert!(!in_scope("shims/proptest/src/lib.rs"));
    }

    #[test]
    fn instant_now_fires_and_allow_suppresses() {
        let src = "fn f() { let t = Instant::now(); }";
        let d = lint_source(
            Path::new("crates/system/src/x.rs"),
            src,
            ScopeMode::Workspace,
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].check, Check::Determinism);

        let allowed = "fn f() {\n    // detlint::allow(determinism, reason = \"stopwatch only\")\n    let t = Instant::now();\n}";
        let d = lint_source(
            Path::new("crates/system/src/x.rs"),
            allowed,
            ScopeMode::Workspace,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn instant_import_alone_is_fine() {
        let src = "use std::time::Instant;\nfn f(d: Instant) -> Instant { d }";
        let d = lint_source(
            Path::new("crates/system/src/x.rs"),
            src,
            ScopeMode::Workspace,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn entropy_sources_fire() {
        for bad in [
            "thread_rng()",
            "SmallRng::from_entropy()",
            "rand::random::<u64>()",
        ] {
            let src = format!("fn f() {{ let x = {bad}; }}");
            let d = lint_source(
                Path::new("crates/system/src/x.rs"),
                &src,
                ScopeMode::Workspace,
            );
            assert_eq!(d.len(), 1, "{bad}: {d:?}");
        }
    }
}
