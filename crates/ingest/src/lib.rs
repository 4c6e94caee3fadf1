//! # detector-ingest
//!
//! Two pieces, one of them on its way out:
//!
//! * [`prefilter`] — reduces a window's observations to the ones that
//!   can influence PLL's verdict (lossy paths plus all paths sharing a
//!   link with one), provably without changing the diagnosis.
//!   `detector-system`'s `Diagnoser` runs it on every window.
//! * [`IngestPlane`] — the benchmark's twin plane. The system aggregates
//!   a window in one walk of the diagnoser's report log and no longer
//!   folds reports anywhere; `benchmark/src/traced.rs` still folds and
//!   seals a twin through this plane to time the diagnosis stages apart.
//!   It goes, with this crate, after ROADMAP item 1(a), and `prefilter`
//!   moves beside the diagnoser.

mod plane;
mod prefilter;

pub use plane::{IngestConfig, IngestPlane, SealedWindow};
pub use prefilter::{prefilter, Prefiltered};
