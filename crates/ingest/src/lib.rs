//! # detector-ingest
//!
//! The streaming ingest plane: per-path `(sent, lost)` counters
//! aggregate into striped, cache-padded atomic shards as pinger reports
//! arrive, so a window's observation set exists the moment its last
//! report lands — no per-window `Vec<PingerReport>` assembly between
//! collection and diagnosis.
//!
//! Two pieces:
//!
//! * [`IngestPlane`] — the sharded counter store with per-window lanes:
//!   diagnosis [`seal`](IngestPlane::seal)s a frozen, sorted snapshot of
//!   window `w` (bit-identical to what `ReportStore::window_observations`
//!   would aggregate from the same reports) while the next window keeps
//!   accumulating in its own lane; [`retract`](IngestPlane::retract)
//!   forfeits a crashed agent's partial window exactly.
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
