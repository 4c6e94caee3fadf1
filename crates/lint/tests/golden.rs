//! Golden-fixture tests: every check family fires on its bad fixture,
//! every allow-annotated / disciplined fixture is clean, and the
//! workspace itself lints clean (detlint lints the code that implements
//! detlint).
//!
//! Fixtures live under `tests/fixtures/` (not compiled by cargo; the
//! workspace walker skips `fixtures` directories too). Bad fixtures are
//! exercised both through the library API and through the installed
//! `detlint` binary, pinning the clippy-style exit-code contract.

use std::path::Path;
use std::process::Command;

use detector_lint::{find_workspace_root, lint_source, lint_workspace, Check, ScopeMode};

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn lint_fixture(name: &str) -> Vec<detector_lint::Diagnostic> {
    let path = fixture(name);
    let source = std::fs::read_to_string(&path).unwrap();
    lint_source(Path::new(&path), &source, ScopeMode::AllChecks)
}

#[test]
fn determinism_fixture_fires_and_allow_suppresses() {
    let d = lint_fixture("determinism_bad.rs");
    assert_eq!(d.len(), 4, "{d:#?}");
    assert!(d.iter().all(|x| x.check == Check::Determinism), "{d:#?}");

    let d = lint_fixture("determinism_allowed.rs");
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn panic_fixture_fires_and_allow_suppresses() {
    let d = lint_fixture("panic_bad.rs");
    assert_eq!(d.len(), 4, "{d:#?}");
    assert!(d.iter().all(|x| x.check == Check::PanicPath), "{d:#?}");

    let d = lint_fixture("panic_allowed.rs");
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn locks_fixture_fires_each_hazard_and_discipline_is_clean() {
    let d = lint_fixture("locks_bad.rs");
    assert!(d.iter().all(|x| x.check == Check::LockDiscipline), "{d:#?}");
    let msgs: Vec<&str> = d.iter().map(|x| x.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("double acquisition")),
        "{msgs:#?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("lock-order inversion")),
        "{msgs:#?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("held across .send()")),
        "{msgs:#?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("temporary guard")),
        "{msgs:#?}"
    );
    // Drain-and-ship: the snapshot must not cross the channel while the
    // guard it was drained under is live.
    assert!(
        msgs.iter()
            .any(|m| m.contains("`self.overflow`") && m.contains("held across .send()")),
        "{msgs:#?}"
    );
    assert_eq!(d.len(), 5, "{d:#?}");

    let d = lint_fixture("locks_allowed.rs");
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn events_fixture_fires_on_missing_variant_and_complete_is_clean() {
    let d = lint_fixture("events_bad.rs");
    assert_eq!(d.len(), 1, "{d:#?}");
    assert_eq!(d[0].check, Check::EventProtocol);
    assert!(d[0].message.contains("`WireEvent::Aborted`"), "{d:#?}");
    assert!(d[0].message.contains("from_json"), "{d:#?}");

    let d = lint_fixture("events_allowed.rs");
    assert!(d.is_empty(), "{d:#?}");
}

#[test]
fn workspace_lints_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let diags = lint_workspace(&root).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "the workspace must lint clean; run `cargo run -p detector-lint` for details:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn binary_exits_nonzero_on_bad_fixtures_and_zero_on_workspace() {
    for bad in [
        "determinism_bad.rs",
        "panic_bad.rs",
        "locks_bad.rs",
        "events_bad.rs",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_detlint"))
            .arg(fixture(bad))
            .output()
            .expect("run detlint");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{bad}: expected exit 1, got {:?}\nstdout: {}",
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
        // Diagnostics carry file:line so they are jump-to-able.
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(bad), "{bad}: {stdout}");
    }

    for good in [
        "determinism_allowed.rs",
        "panic_allowed.rs",
        "locks_allowed.rs",
        "events_allowed.rs",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_detlint"))
            .arg(fixture(good))
            .output()
            .expect("run detlint");
        assert_eq!(out.status.code(), Some(0), "{good}: {out:?}");
    }

    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .current_dir(&root)
        .output()
        .expect("run detlint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace run must be clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
