//! # detector-topology
//!
//! Data-center network topologies for the deTector reproduction: the three
//! families the paper evaluates — **Fattree** \[9\], **VL2** \[22\] and
//! **BCube** \[24\] — with full node/link enumeration, ECMP path sets, and
//! the symmetry-aware candidate providers that make PMC tractable at scale
//! (Observation 3 of §4.3).
//!
//! # Examples
//!
//! Build a 4-ary Fattree (the paper's testbed topology, 20 switches) and
//! solve one base component of its symmetry plan at (α, β) = (3, 1); the
//! solution stands for every replica of that base (the planner in
//! `detector-system` replicates it):
//!
//! ```
//! use detector_core::pmc::{construct_with_provider, PmcConfig};
//! use detector_topology::{DcnTopology, Fattree};
//!
//! let ft = Fattree::new(4).unwrap();
//! assert_eq!(ft.graph().num_switches(), 20);
//! let base = ft.symmetry().bases.into_iter().next().unwrap();
//! let sol = construct_with_provider(base.provider, &PmcConfig::new(3, 1)).unwrap();
//! assert!(sol.targets_met);
//! ```

mod bcube;
mod fattree;
mod graph;
mod symmetric;
mod view;
mod vl2;

pub use bcube::BCube;
pub use fattree::Fattree;
pub use graph::{Dcn, Link, LinkTier, Node, NodeKind, Route};
pub use symmetric::{BaseComponent, ReplicateLinkFn, ReplicateNodeFn, SymmetryPlan};
pub use view::{pod_switches, SharedTopology, TopologyDelta, TopologyEvent, TopologyView};
pub use vl2::Vl2;

use detector_core::types::{NodeId, PathStore};

/// Errors from topology construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// A dimension parameter was invalid (zero, odd where evenness is
    /// required, or too large to index).
    BadParameter {
        /// Which parameter was rejected.
        what: &'static str,
    },
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopologyError::BadParameter { what } => write!(f, "bad topology parameter: {what}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Common interface of the three DCN families.
pub trait DcnTopology {
    /// Human-readable name, e.g. `Fattree(8)`.
    fn name(&self) -> String;

    /// The underlying graph.
    fn graph(&self) -> &Dcn;

    /// Size of the probe-link universe (the links the probe matrix must
    /// cover; link ids `0..probe_links()`). For Fattree and VL2 these are
    /// the inter-switch links (§3.1); for BCube, all links (servers act as
    /// switches, §4.4 footnote).
    fn probe_links(&self) -> usize;

    /// Number of "original paths" as counted in Table 2: ordered
    /// probe-endpoint pairs times their ECMP fan-out.
    fn original_path_count(&self) -> u128;

    /// The probe endpoints between which candidate paths run (ToR switches
    /// for Fattree/VL2, servers for BCube).
    fn probe_endpoints(&self) -> Vec<NodeId>;

    /// Materializes every candidate path (unordered endpoint pairs — the
    /// reverse path covers the same undirected links) into one flat
    /// [`PathStore`], reserved up front: candidate `i` is path id
    /// `i`, its node run and its sorted, de-duplicated link run — the
    /// store a symmetry provider writes its rounds into, so both
    /// candidate sources hand PMC the same representation and neither
    /// allocates per candidate. Only feasible for small
    /// instances; large instances must use [`Self::symmetry`].
    fn enumerate_candidates(&self) -> PathStore;

    /// ECMP route between two *servers* for a given flow hash, as the
    /// production network (and thus Pingmesh/NetNORAD probes) would route
    /// it.
    fn ecmp_route(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> Route<'static>;

    /// Number of equal-cost paths between two servers (the ECMP fan-out
    /// a baseline prober must cover).
    fn ecmp_fanout(&self, src: NodeId, dst: NodeId) -> u64;

    /// The symmetry plan: base candidate providers (one per isomorphism
    /// class of decomposed components) plus the replication maps that
    /// expand a base solution to the full network.
    fn symmetry(&self) -> SymmetryPlan;

    /// Every distinct ECMP route between two servers (what a baseline
    /// localizer like Netbouncer must sweep). The default enumerates the
    /// hash space up to [`Self::ecmp_fanout`], which all built-in
    /// topologies decode as a mixed radix, and de-duplicates.
    fn all_ecmp_routes(&self, src: NodeId, dst: NodeId) -> Vec<Route<'static>> {
        let fanout = self.ecmp_fanout(src, dst);
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for h in 0..fanout {
            let r = self.ecmp_route(src, dst, h);
            if seen.insert(r.nodes.clone()) {
                out.push(r);
            }
        }
        out
    }
}
