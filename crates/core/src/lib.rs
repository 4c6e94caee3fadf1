//! # detector-core
//!
//! Core algorithms of the deTector monitoring system (Peng et al.,
//! USENIX ATC 2017): probe-matrix construction (PMC, §4 of the paper) and
//! packet-loss localization (PLL, §5), together with the localization
//! baselines the paper compares against (Tomo, SCORE, OMP).
//!
//! The algorithms in this crate are *pure*: they operate on abstract probe
//! paths (sets of link identifiers) and end-to-end loss observations, and
//! know nothing about concrete data-center topologies. Topology generators
//! live in `detector-topology`; the packet-level simulator used for the
//! paper's evaluation lives in `detector-simnet`.
//!
//! # Examples
//!
//! Construct a 1-identifiable probe matrix over a toy 3-link network and
//! localize a full loss on one link:
//!
//! ```
//! use detector_core::pmc::{construct, PmcConfig};
//! use detector_core::pll::{localize, PllConfig};
//! use detector_core::types::{LinkId, PathObservation, ProbePath};
//!
//! // Three candidate paths over links 0, 1, 2 (Fig. 3 of the paper).
//! let candidates = vec![
//!     ProbePath::from_links(0, vec![LinkId(0), LinkId(1)]),
//!     ProbePath::from_links(1, vec![LinkId(0), LinkId(2)]),
//!     ProbePath::from_links(2, vec![LinkId(2)]),
//! ];
//! let matrix = construct(3, candidates, &PmcConfig::identifiable(1)).unwrap();
//! assert!(matrix.achieved.identifiability >= 1);
//!
//! // Observe losses consistent with link 0 being bad.
//! let obs: Vec<PathObservation> = matrix
//!     .paths
//!     .iter()
//!     .map(|p| {
//!         let lost = if p.links().contains(&LinkId(0)) { 100 } else { 0 };
//!         PathObservation::new(p.id, 100, lost)
//!     })
//!     .collect();
//! let diagnosis = localize(&matrix, &obs, &PllConfig::default());
//! assert_eq!(diagnosis.suspect_links(), vec![LinkId(0)]);
//! ```

pub mod dense;
pub mod json;
pub mod pll;
pub mod pmc;
pub mod types;

pub use pll::{localize, Diagnosis, Localizer, PllConfig, PllLocalizer};
pub use pmc::{construct, PmcConfig, ProbeMatrix};
pub use types::{LinkId, NodeId, PathId, PathObservation, ProbePath};

/// One SplitMix64 step from state `x`, as a pure hash: seeds derived
/// through it depend only on their inputs, never on a generator's
/// position.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
