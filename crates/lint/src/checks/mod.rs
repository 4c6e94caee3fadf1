//! The check families. Each per-file module exposes `run(&FileCtx)`
//! plus, for the path-scoped checks, an `in_scope(rel)` predicate used by
//! the workspace walk ([`crate::lint_source`]); `ratchets` reads the
//! whole workspace at once ([`crate::lint_workspace`]).

pub mod determinism;
pub mod events;
pub mod locks;
pub mod panic_path;
pub mod ratchets;
