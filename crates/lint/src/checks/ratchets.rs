//! Ratchets: the structural invariants that keep a removed mechanism out
//! or a single owner single, as one table of rows (catalogued in the
//! crate README). Patterns match code tokens, never comments or literals,
//! which is what lets this table hold its own patterns.

use crate::lexer::{lex, match_brace, Tok};
use crate::{Check, Diagnostic, FileCtx};
use Pat::{Sub, Word};
use Rule::{Forbid, ForbidAll, ForbidLine, Knobs, NoCode, NoRootFile, OnlyIn};

/// A pattern, lexed and matched against code tokens.
#[derive(Clone, Copy, Debug)]
pub enum Pat {
    /// Matches as `grep -F` would: the first identifier may end a longer
    /// one and the last may start one; a lone identifier matches every
    /// identifier that contains it.
    Sub(&'static str),
    /// Matches whole identifiers only.
    Word(&'static str),
}

impl Pat {
    fn text(self) -> &'static str {
        let (Sub(text) | Word(text)) = self;
        text
    }

    /// The line of every match in `toks`.
    fn lines(self, toks: &[Tok]) -> Vec<u32> {
        let pat = lex(self.text()).0;
        let last = pat.len() - 1;
        let hit = |i: usize| {
            let mut pairs = pat.iter().zip(&toks[i..]).enumerate();
            pairs.all(|(j, (p, t))| match (p.ident(), t.ident(), self) {
                (Some(p), Some(t), Sub(_)) => match (j == 0, j == last) {
                    (true, true) => t.contains(p),
                    (true, false) => t.ends_with(p),
                    (false, true) => t.starts_with(p),
                    (false, false) => t == p,
                },
                _ => p.kind == t.kind,
            })
        };
        let starts = 0..toks.len().saturating_sub(last);
        starts.filter(|&i| hit(i)).map(|i| toks[i].line).collect()
    }
}

/// What a row asserts about the files in its scope.
#[derive(Clone, Copy, Debug)]
pub enum Rule {
    /// No pattern appears in non-test code.
    Forbid(&'static [Pat]),
    /// No pattern appears in any code, tests included.
    ForbidAll(&'static [Pat]),
    /// Each pattern appears in the named file's non-test code and in no
    /// other file's.
    OnlyIn(&'static str, &'static [Pat]),
    /// The files hold comments and nothing else.
    NoCode,
    /// No line of a non-Rust file holds the text.
    ForbidLine(&'static str),
    /// No file at the workspace root has this prefix and suffix.
    NoRootFile(&'static str, &'static str),
    /// The `pub` fields of these types in non-test code are the rows of
    /// `README.md`'s "Configuration knobs" table, both ways.
    Knobs(&'static [&'static str]),
}

/// One ratchet.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Short name, printed first in the diagnostic.
    pub name: &'static str,
    /// Why the invariant holds: the rest of the diagnostic.
    pub reason: &'static str,
    /// Path prefixes (ending in `/`) or exact paths the row reads.
    pub scope: &'static [&'static str],
    /// Exact paths inside the scope that the row skips.
    pub except: &'static [&'static str],
    /// What it asserts.
    pub rule: Rule,
}

impl Row {
    fn covers(&self, rel: &str) -> bool {
        let hit = |s: &&str| rel == *s || s.ends_with('/') && rel.starts_with(s);
        self.scope.iter().any(hit) && !self.except.contains(&rel)
    }
}

/// The workspace's ratchets.
#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    Row { name: "One window protocol", scope: &["crates/"], except: &["crates/system/src/events.rs", "crates/system/src/window/reference.rs"],
        rule: OnlyIn("crates/system/src/window.rs", &[Sub("RuntimeEvent::DiagnosisReady("), Sub("RuntimeEvent::PlanUpdated("),
            Sub("RuntimeEvent::WindowCounters {")]),
        reason: "window.rs alone emits a window's events; a second author voids seq ≡ pipelined ≡ distributed" },
    Row { name: "One record per outcome", scope: &["crates/", "tests/", "examples/"], except: &[],
        rule: ForbidAll(&[Word("IngestStats"), Word("DiagStats"), Word("paths_active")]),
        reason: "a window's counters are its one WindowCounters event and a re-plan's its PlanUpdate; a second record repeats DiagnosisReady" },
    Row { name: "Single-owner ingest plane", scope: &["crates/ingest/"], except: &[],
        rule: Forbid(&[Sub("Atomic"), Sub("Mutex"), Sub("RwLock"), Sub("Cell"), Sub("unsafe")]),
        reason: "exclusive access is `&mut self`: nothing to synchronise, nowhere to hide a second writer" },
    Row { name: "One aggregation per window", scope: &["crates/system/", "crates/agent/", "src/"], except: &[],
        rule: Forbid(&[Sub("IngestPlane"), Sub("prefilter("), Sub("detector_ingest")]),
        reason: "the diagnoser's walk aggregates and filters a window once; the ingest crate is the benchmark's" },
    Row { name: "The prober owns its echo", scope: &["crates/system/src/dataplane/udp.rs"], except: &[],
        rule: Forbid(&[Sub("thread::"), Sub("Condvar"), Sub("JoinHandle")]),
        reason: "a UDP probe reads its echo off its own socket, on the calling worker; no thread hands it over" },
    Row { name: "JSON goes one way", scope: &["crates/"], except: &[], rule: Forbid(&[Sub("fn from_json")]),
        reason: "records are written through ToJson and never read back; golden tests pin their text" },
    Row { name: "One fan-out driver", scope: &["crates/core/"], except: &[],
        rule: OnlyIn("crates/core/src/pmc/jobs.rs", &[Sub("thread::scope")]),
        reason: "PMC subproblems and planner cells fan out through JobPool::run_indexed" },
    Row { name: "Diagnosis runs inline", scope: &["crates/core/src/pll/", "crates/system/src/diagnoser.rs"],
        except: &[], rule: Forbid(&[Sub("JobPool"), Sub("thread::")]),
        reason: "a window's components are solved one after another on the thread that closes it" },
    Row { name: "PLL reads the walk's incidence", scope: &["crates/core/src/pll/components.rs"], except: &[],
        rule: Forbid(&[Sub(".path("), Sub(".row_of("), Sub(".paths")]),
        reason: "a rebuild reads rows, links and denominators from the walk's LossyIncidence, never a path from the matrix" },
    Row { name: "The walk sums by id slot", scope: &["crates/system/src/report.rs"], except: &[],
        rule: Forbid(&[Sub(".row_of(")]),
        reason: "a filed row is summed at its id's slot of the matrix's RowTable, found from the report's run cursor, never looked up row by row" },
    Row { name: "Shims carry what the source calls (stubs)", except: &[], rule: NoCode,
        scope: &["shims/crossbeam/src/lib.rs", "shims/bytes/src/lib.rs", "shims/serde/src/lib.rs", "shims/serde_derive/src/lib.rs"],
        reason: "the source uses std or its own code; the stubs stay only because benchmark/Cargo.lock lists them" },
    Row { name: "Shims carry what the source calls (names)", scope: &["crates/", "src/", "tests/", "examples/"], except: &[],
        rule: ForbidAll(&[Word("crossbeam::"), Word("bytes::"), Word("serde::"), Word("Serialize"), Word("Deserialize")]),
        reason: "threads and channels come from std and the serde derives expand to nothing" },
    Row { name: "Every path has a driver", scope: &["crates/system/"], except: &[],
        rule: Forbid(&[Word("struct Pinger"), Sub("strike"), Sub("exclude_links"), Sub("excluded_links")]),
        reason: "probe through PingerBatch, take health from the management plane, drop links with LinkDown" },
    Row { name: "Every path has a driver (restricted solve)", scope: &["crates/core/src/pmc/"], except: &[],
        rule: Forbid(&[Sub("fn resolve_subproblem(")]), reason: "a cell is solved from scratch by Subproblem::resolve" },
    Row { name: "The figures run the system", scope: &["crates/bench/", "tests/accuracy_table4.rs"], except: &[],
        rule: ForbidAll(&[Sub("probe_matrix_window"), Sub("round_trip")]),
        reason: "every accuracy number comes from Detector::step through the episode driver, not a second prober" },
    Row { name: "Dense decomposition", scope: &["crates/core/src/pmc/decompose.rs", "crates/core/src/dense.rs"], except: &[],
        rule: Forbid(&[Sub("HashMap")]), reason: "the union-find indexes links densely instead of hashing them" },
    Row { name: "One run array, one union-find", scope: &["crates/core/src/", "crates/system/src/"], except: &[],
        rule: OnlyIn("crates/core/src/dense.rs", &[Sub("offsets: Vec<"), Sub("fn find(")]),
        reason: "runs of items per key live in dense::Runs and dense sets in dense::UnionFind; a second copy drifts from the one the oracles check" },
    Row { name: "One list-update vocabulary", scope: &["crates/"], except: &[],
        rule: ForbidAll(&[Word("EntryAdd"), Word("EntryRemove"), Word("ListSeal"), Word("PendingDiff"), Word("FRAME_OVERHEAD"),
            Word("LIST_HEADER_BYTES"), Word("encoded_list_len"), Word("wire_bytes"), Word("RangeRebase"),
            Word("TAG_RANGE_REBASE")]),
        reason: "a list update travels as one wire frame and its bytes are the encoded length, not a model of it" },
    Row { name: "A deployed matrix has one owner", scope: &["crates/system/src/", "crates/agent/src/"],
        except: &["crates/system/src/window/reference.rs", "crates/system/src/report/reference.rs"], rule: Forbid(&[Sub("matrix.clone()")]),
        reason: "a deployment's matrix is moved into the diagnoser, which owns it; the plan half keeps only the pinglists" },
    Row { name: "One perf estate (snapshots)", scope: &[], except: &[], rule: NoRootFile("BENCH_", ".json"),
        reason: "perf records come from benchmark/run.sh, not root snapshots" },
    Row { name: "One perf estate (bench targets)", scope: &["crates/"], except: &[], rule: ForbidLine("[[bench]]"),
        reason: "perf is measured by benchmark/, not per-crate benches" },
    Row { name: "One perf estate (criterion)", scope: &["Cargo.toml"], except: &[], rule: ForbidLine("criterion"),
        reason: "perf is measured by benchmark/, not criterion" },
    Row { name: "Every knob is on the README", scope: &["crates/"], except: &[],
        rule: Knobs(&["SystemConfig", "PipelineConfig", "UdpConfig", "RetryPolicy", "PmcConfig", "PllConfig", "DiagConfig"]),
        reason: "the configuration types' pub fields are the rows of README.md's Configuration knobs table" },
];

/// Evaluates `rows` over the workspace's files.
pub fn check(rows: &[Row], files: &[FileCtx]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for row in rows {
        let mut hits: Vec<(&str, u32, String)> = Vec::new();
        let scope = files.iter().filter(|f| row.covers(&f.rel));
        let (rust, other): (Vec<_>, Vec<_>) = scope.partition(|f| f.rel.ends_with(".rs"));
        let live = rust.iter().filter(|f| !f.test_dir);
        match row.rule {
            Forbid(pats) | ForbidAll(pats) => {
                let all = matches!(row.rule, ForbidAll(_));
                for f in rust.iter().filter(|f| all || !f.test_dir) {
                    for p in pats {
                        for line in p.lines(if all { &f.all } else { &f.toks }) {
                            hits.push((&f.rel, line, format!(" (`{}`)", p.text())));
                        }
                    }
                }
            }
            OnlyIn(owner, pats) => {
                for p in pats {
                    let mut owned = false;
                    for f in live.clone() {
                        let lines = p.lines(&f.toks);
                        owned |= f.rel == owner && !lines.is_empty();
                        for line in lines.into_iter().filter(|_| f.rel != owner) {
                            hits.push((&f.rel, line, format!(" (`{}` outside {owner})", p.text())));
                        }
                    }
                    if !owned {
                        hits.push((owner, 1, format!(" (`{}` missing)", p.text())));
                    }
                }
            }
            NoCode => {
                for f in rust.iter().filter(|f| !f.all.is_empty()) {
                    hits.push((&f.rel, f.all[0].line, String::new()));
                }
            }
            ForbidLine(text) => {
                for f in other {
                    for (_, n) in f.text.lines().zip(1..).filter(|(l, _)| l.contains(text)) {
                        hits.push((&f.rel, n, format!(" (`{text}`)")));
                    }
                }
            }
            NoRootFile(pre, suf) => {
                let root = |r: &str| !r.contains('/') && r.starts_with(pre) && r.ends_with(suf);
                for f in files.iter().filter(|f| root(&f.rel)) {
                    hits.push((&f.rel, 1, String::new()));
                }
            }
            Knobs(types) => {
                let readme = files.iter().find(|f| f.rel == "README.md");
                let rows = knob_rows(readme.map_or("", |f| &f.text));
                let mut fields = Vec::new();
                for f in live {
                    for (key, line) in pub_fields(&f.toks, types) {
                        if !rows.iter().any(|(r, _)| *r == key) {
                            hits.push((&f.rel, line, format!(" (`{key}` has no row)")));
                        }
                        fields.push(key);
                    }
                }
                for (key, line) in rows.iter().filter(|(r, _)| !fields.contains(r)) {
                    hits.push(("README.md", *line, format!(" (`{key}` is no field)")));
                }
            }
        }
        out.extend(hits.into_iter().map(|(file, line, what)| Diagnostic {
            file: file.into(),
            line,
            check: Check::Ratchet,
            message: format!("{}{what}: {}", row.name, row.reason),
        }));
    }
    out
}

/// `Type::field` and its line for each `pub` field of `types` in `t`.
fn pub_fields(t: &[Tok], types: &[&str]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for i in 0..t.len().saturating_sub(3) {
        let decl = t[i].is_ident("pub") && t[i + 1].is_ident("struct");
        let Some(ty) = t[i + 2].ident().filter(|n| decl && types.contains(n)) else {
            continue;
        };
        let end = (i + 3..t.len()).find(|&j| ['{', ';', '('].iter().any(|&c| t[j].is_punct(c)));
        if let Some(open) = end.filter(|&j| t[j].is_punct('{')) {
            for w in t[open..match_brace(t, open)].windows(4) {
                let field = w[0].is_ident("pub") && w[2].is_punct(':') && !w[3].is_punct(':');
                if let Some(name) = w[1].ident().filter(|_| field) {
                    out.push((format!("{ty}::{name}"), w[1].line));
                }
            }
        }
    }
    out
}

/// The `` | `Type::field` `` rows of the "Configuration knobs" section.
fn knob_rows(readme: &str) -> Vec<(String, u32)> {
    let word = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_');
    let mut lines = readme.lines().zip(1..);
    lines.find(|(l, _)| l.starts_with("## Configuration knobs"));
    let section = lines.take_while(|(l, _)| !l.starts_with("## "));
    let row = |(l, n): (&str, u32)| {
        let key = l.strip_prefix("| `")?.split('`').next()?;
        let (ty, field) = key.split_once("::")?;
        (word(ty) && word(field)).then(|| (key.to_string(), n))
    };
    section.filter_map(row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(rel: &str, text: &str) -> FileCtx {
        FileCtx::new(rel.as_ref(), text.into())
    }

    fn fired(row: &Row, files: &[FileCtx]) -> Vec<(String, u32)> {
        check(std::slice::from_ref(row), files)
            .into_iter()
            .map(|d| (d.file, d.line))
            .collect()
    }

    #[test]
    fn every_row_fires_with_file_and_line() {
        // One violating file per row, in table order, and the line it
        // must be reported on.
        let cases: &[(&str, &str, u32)] = &[
            (
                "crates/agent/src/x.rs",
                "// RuntimeEvent::DiagnosisReady(r)\nfn f() { emit(RuntimeEvent::WindowCounters { window }) }",
                2,
            ),
            (
                "tests/x.rs",
                "#[test]\nfn t(e: &RuntimeEvent) {\n matches!(e, RuntimeEvent::IngestStats { .. }); }",
                3,
            ),
            (
                "crates/ingest/src/plane.rs",
                "use std::sync::atomic::AtomicU64;",
                1,
            ),
            (
                "crates/system/src/diagnoser.rs",
                "fn f() {\n prefilter(x); }",
                2,
            ),
            (
                "crates/system/src/dataplane/udp.rs",
                "fn f() { std::thread::spawn(g); }",
                1,
            ),
            (
                "crates/core/src/json.rs",
                "impl R {\n pub fn from_json(v: &Json) {} }",
                2,
            ),
            (
                "crates/core/src/pll/mod.rs",
                "fn f() { std::thread::scope(|s| ()); }",
                1,
            ),
            (
                "crates/core/src/pll/components.rs",
                "fn f(p: &JobPool) {}",
                1,
            ),
            (
                "crates/core/src/pll/components.rs",
                "fn f(m: &ProbeMatrix) {\n m.row_of(id); }",
                2,
            ),
            (
                "crates/system/src/report.rs",
                "fn f(m: &ProbeMatrix) {\n\n m.row_of(id); }",
                3,
            ),
            (
                "shims/bytes/src/lib.rs",
                "//! A stub.\npub struct Bytes;",
                2,
            ),
            (
                "tests/x.rs",
                "#[test]\nfn t() { crossbeam::channel::bounded::<u8>(1); }",
                2,
            ),
            (
                "crates/system/src/pinger.rs",
                "\n\npub struct Pinger { id: u32 }",
                3,
            ),
            (
                "crates/core/src/pmc/mod.rs",
                "pub fn resolve_subproblem(s: &S) {}",
                1,
            ),
            (
                "crates/bench/src/lib.rs",
                "fn f() {\n fabric.round_trip(&route, flow, rng); }",
                2,
            ),
            (
                "crates/core/src/pmc/decompose.rs",
                "use std::collections::HashMap;",
                1,
            ),
            (
                "crates/system/src/controller.rs",
                "struct Table {\n    start: Vec<usize>,\n    offsets: Vec<u32>,\n}",
                3,
            ),
            (
                "crates/agent/tests/x.rs",
                "#[test]\nfn t() {\n let n = update.wire_bytes(); }",
                3,
            ),
            (
                "crates/system/src/window.rs",
                "fn f(d: &Deployment) {\n let m = d.matrix.clone(); }",
                2,
            ),
            ("BENCH_pll.json", "{}", 1),
            (
                "crates/core/Cargo.toml",
                "[package]\n[[bench]]\nname = \"x\"",
                2,
            ),
            (
                "Cargo.toml",
                "[workspace]\n\n[dev-dependencies]\ncriterion = \"0.5\"",
                4,
            ),
            (
                "crates/core/src/pmc/mod.rs",
                "pub struct PmcConfig {\n    pub alpha: u32,\n}",
                2,
            ),
        ];
        assert_eq!(cases.len(), ROWS.len(), "one case per row");
        for (row, &(rel, text, line)) in ROWS.iter().zip(cases) {
            let hits = fired(row, &[src(rel, text)]);
            assert!(hits.contains(&(rel.into(), line)), "{}: {hits:?}", row.name);
        }
    }

    #[test]
    fn widened_rows_fire_on_the_facade_and_the_rebase_frame() {
        for (name, rel, text) in [
            (
                "One aggregation per window",
                "src/lib.rs",
                "pub use detector_ingest as ingest;",
            ),
            (
                "One list-update vocabulary",
                "crates/system/src/wire.rs",
                "const TAG_RANGE_REBASE: u8 = 5;",
            ),
            (
                "One list-update vocabulary",
                "crates/agent/tests/x.rs",
                "#[test]\nfn t(f: Frame::RangeRebase) {}",
            ),
        ] {
            let row = ROWS.iter().find(|r| r.name == name).unwrap();
            assert!(
                fired(row, &[src(rel, text)]).contains(&(rel.into(), text.lines().count() as u32)),
                "{name}"
            );
        }
    }

    #[test]
    fn only_in_passes_with_its_owner_as_sole_author() {
        let owner = "crates/system/src/window.rs";
        let code = "fn close() {\n emit(RuntimeEvent::DiagnosisReady(r));\n \
                    emit(RuntimeEvent::PlanUpdated(update));\n \
                    emit(RuntimeEvent::WindowCounters { window });\n}";
        let window = &ROWS[0];
        assert!(fired(window, &[src(owner, code)]).is_empty());
        // A second author fires; so does an owner that lost the protocol.
        let second = src("crates/system/src/runtime.rs", code);
        let hits = fired(window, &[src(owner, code), second]);
        let at = |line| ("crates/system/src/runtime.rs".to_string(), line);
        assert_eq!(hits, vec![at(2), at(3), at(4)]);
        let hits = fired(window, &[src(owner, "fn close() {}")]);
        assert_eq!(hits, vec![(owner.into(), 1); 3]);
    }

    #[test]
    fn test_items_comments_and_longer_words_do_not_fire() {
        let text = "// struct Pinger\nconst S: &str = \"strike\";\n\
                    #[cfg(test)]\nmod t { struct Pinger; fn strike() {} }\n\
                    pub struct PingerBatch;";
        let driver = ROWS.iter().find(|r| r.name == "Every path has a driver");
        let hits = fired(driver.unwrap(), &[src("crates/system/src/pinger.rs", text)]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn knob_table_and_config_fields_match_both_ways() {
        let config = "pub struct PllConfig {\n    pub alpha: f64,\n    pub beta: u32,\n    \
                      inner: u8,\n}\n#[cfg(test)]\nmod t { pub struct PllConfig { pub test_only: u8 } }";
        let readme = "# x\n## Configuration knobs\n| knob | default |\n|---|---|\n\
                      | `PllConfig::alpha` | 1 |\n| `PllConfig::gone` | 2 |\n\
                      ## Workspace layout\n| `PllConfig::elsewhere` | 3 |\n";
        let files = [
            src("crates/core/src/pll/mod.rs", config),
            src("README.md", readme),
        ];
        let knobs = ROWS.iter().find(|r| matches!(r.rule, Knobs(_)));
        let hits = fired(knobs.unwrap(), &files);
        let want = [("crates/core/src/pll/mod.rs", 3), ("README.md", 6)];
        assert_eq!(hits, want.map(|(f, l)| (f.to_string(), l)));
    }
}
