//! # detector-ingest
//!
//! Two pieces, both on their way out:
//!
//! * [`prefilter`] — reduces a window's observations to the ones that
//!   can influence PLL's verdict (lossy paths plus all paths sharing a
//!   link with one), provably without changing the diagnosis. The
//!   system no longer calls it: the `Diagnoser`'s walk emits only the
//!   lossy paths and keeps each link's observed-path count itself.
//! * [`IngestPlane`] — the benchmark's twin plane. The system aggregates
//!   a window in one walk of the diagnoser's report log and no longer
//!   folds reports anywhere.
//!
//! `benchmark/src/traced.rs` still folds, seals and pre-filters a twin
//! of every window through both to time the diagnosis stages apart.
//! They go, with this crate, after ROADMAP item 1(a).

mod plane;
mod prefilter;

pub use plane::{IngestConfig, IngestPlane, SealedWindow};
pub use prefilter::{prefilter, Prefiltered};
