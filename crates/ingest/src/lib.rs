//! # detector-ingest
//!
//! The streaming ingest plane: per-path `(sent, lost)` counters
//! aggregate into the open window's table as pinger reports arrive, so a
//! window's observation set exists the moment its last report lands — no
//! per-window `Vec<PingerReport>` assembly between collection and
//! diagnosis.
//!
//! Two pieces:
//!
//! * [`IngestPlane`] — the per-window counter store. It has one owner:
//!   [`fold`](IngestPlane::fold), [`retract`](IngestPlane::retract) and
//!   [`seal`](IngestPlane::seal) take `&mut self`, and nothing in the
//!   crate synchronises, because every driver collects a window and
//!   seals it from one place. `seal` hands diagnosis a sorted snapshot
//!   of window `w` (bit-identical to what
//!   `ReportStore::window_observations` would aggregate from the same
//!   reports) and recycles the window's table; `retract` forfeits a
//!   crashed agent's partial window exactly, and counts what it cannot
//!   take back.
//! * [`prefilter`] — reduces a sealed window to the observations that
//!   can influence PLL's verdict (lossy paths plus all paths sharing a
//!   link with one), provably without changing the diagnosis.
//!
//! The runtime seam is `detector-system`'s `Diagnoser`, which owns a
//! plane and feeds every driver — sequential `step()`, `run_pipelined`
//! and `run_distributed` — through it, emitting per-window
//! `RuntimeEvent::IngestStats`.

mod plane;
mod prefilter;

pub use plane::{IngestConfig, IngestPlane, SealedWindow};
pub use prefilter::{prefilter, Prefiltered};
