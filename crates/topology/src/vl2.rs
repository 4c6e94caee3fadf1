//! VL2 topology (Greenberg et al., SIGCOMM'09).
//!
//! VL2(Dₐ, Dᵢ, s): Dₐ/2 intermediate switches, Dᵢ aggregation switches in
//! a complete bipartite graph with the intermediates, Dₐ·Dᵢ/4 ToRs each
//! dual-homed to one aggregation *pair*, and `s` servers per ToR. Because
//! every intermediate switch reaches every aggregation switch, the probe
//! problem does **not** decompose (the paper observes the same in
//! Table 2), so the symmetry plan has a single base component whose
//! provider enumerates ToR pairings round-robin.

use detector_core::pmc::CandidateProvider;
use detector_core::types::{LinkId, NodeId, PathStore};

use crate::graph::{Dcn, Link, LinkTier, Node, NodeKind, Route};
use crate::symmetric::{BaseComponent, SymmetryPlan};
use crate::{DcnTopology, TopologyError};

#[derive(Clone, Copy, Debug)]
struct Dims {
    da: u32,
    di: u32,
    sp: u32,
    /// Intermediate switches: da/2.
    ints: u32,
    /// Aggregation switches: di.
    aggs: u32,
    /// ToRs: da·di/4.
    tors: u32,
}

impl Dims {
    fn new(da: u32, di: u32, sp: u32) -> Self {
        Self {
            da,
            di,
            sp,
            ints: da / 2,
            aggs: di,
            tors: da * di / 4,
        }
    }

    // -- Node ids: ints, aggs, tors, servers. --

    fn int(&self, i: u32) -> NodeId {
        NodeId(i)
    }

    fn agg(&self, a: u32) -> NodeId {
        NodeId(self.ints + a)
    }

    fn tor(&self, t: u32) -> NodeId {
        NodeId(self.ints + self.aggs + t)
    }

    fn server(&self, t: u32, s: u32) -> NodeId {
        NodeId(self.ints + self.aggs + self.tors + t * self.sp + s)
    }

    /// The aggregation pair a ToR is homed to.
    fn agg_pair(&self, t: u32) -> u32 {
        t % (self.aggs / 2)
    }

    /// The aggregation switch on `side` (0/1) of ToR `t`'s pair.
    fn tor_agg(&self, t: u32, side: u32) -> u32 {
        2 * self.agg_pair(t) + side
    }

    // -- Link ids: ToR–agg, then agg–int, then server links. --

    fn ta_link(&self, t: u32, side: u32) -> LinkId {
        LinkId(t * 2 + side)
    }

    fn ai_link(&self, a: u32, i: u32) -> LinkId {
        LinkId(2 * self.tors + a * self.ints + i)
    }

    fn server_link(&self, t: u32, s: u32) -> LinkId {
        LinkId(2 * self.tors + self.aggs * self.ints + t * self.sp + s)
    }

    fn probe_links(&self) -> usize {
        (2 * self.tors + self.aggs * self.ints) as usize
    }

    /// Probe route between two ToRs via (up side, intermediate, down
    /// side): its nodes and its links in hop order. When both sides home
    /// on one aggregation switch, its two agg–int hops are one link.
    fn tor_route(&self, t1: u32, t2: u32, u: u32, i: u32, d: u32) -> ([NodeId; 5], [LinkId; 4]) {
        let a1 = self.tor_agg(t1, u);
        let a2 = self.tor_agg(t2, d);
        let nodes = [
            self.tor(t1),
            self.agg(a1),
            self.int(i),
            self.agg(a2),
            self.tor(t2),
        ];
        let links = [
            self.ta_link(t1, u),
            self.ai_link(a1, i),
            self.ai_link(a2, i),
            self.ta_link(t2, d),
        ];
        (nodes, links)
    }
}

/// A VL2 network.
#[derive(Clone, Debug)]
pub struct Vl2 {
    dims: Dims,
    graph: Dcn,
}

impl Vl2 {
    /// Builds VL2(da, di, servers_per_tor); `da` and `di` must be even and
    /// ≥ 4 / ≥ 2 respectively.
    pub fn new(da: u32, di: u32, servers_per_tor: u32) -> Result<Self, TopologyError> {
        if da < 4 || !da.is_multiple_of(2) {
            return Err(TopologyError::BadParameter {
                what: "da must be even and >= 4",
            });
        }
        if di < 2 || !di.is_multiple_of(2) {
            return Err(TopologyError::BadParameter {
                what: "di must be even and >= 2",
            });
        }
        if servers_per_tor == 0 {
            return Err(TopologyError::BadParameter {
                what: "servers_per_tor must be >= 1",
            });
        }
        let dims = Dims::new(da, di, servers_per_tor);

        let mut nodes = Vec::new();
        for i in 0..dims.ints {
            nodes.push(Node {
                id: dims.int(i),
                kind: NodeKind::IntSwitch { index: i },
            });
        }
        for a in 0..dims.aggs {
            nodes.push(Node {
                id: dims.agg(a),
                kind: NodeKind::VlAggSwitch { index: a },
            });
        }
        for t in 0..dims.tors {
            nodes.push(Node {
                id: dims.tor(t),
                kind: NodeKind::TorSwitch { index: t },
            });
        }
        for t in 0..dims.tors {
            for s in 0..dims.sp {
                nodes.push(Node {
                    id: dims.server(t, s),
                    kind: NodeKind::Server {
                        index: t * dims.sp + s,
                    },
                });
            }
        }

        let mut links = Vec::new();
        for t in 0..dims.tors {
            for side in 0..2 {
                links.push(Link {
                    id: dims.ta_link(t, side),
                    a: dims.tor(t),
                    b: dims.agg(dims.tor_agg(t, side)),
                    tier: LinkTier::TorAgg,
                });
            }
        }
        for a in 0..dims.aggs {
            for i in 0..dims.ints {
                links.push(Link {
                    id: dims.ai_link(a, i),
                    a: dims.agg(a),
                    b: dims.int(i),
                    tier: LinkTier::AggInt,
                });
            }
        }
        for t in 0..dims.tors {
            for s in 0..dims.sp {
                links.push(Link {
                    id: dims.server_link(t, s),
                    a: dims.tor(t),
                    b: dims.server(t, s),
                    tier: LinkTier::ServerTor,
                });
            }
        }

        Ok(Self {
            dims,
            graph: Dcn::build(nodes, links),
        })
    }

    /// ToR switch node id.
    pub fn tor(&self, t: u32) -> NodeId {
        self.dims.tor(t)
    }

    /// Server node id.
    pub fn server(&self, t: u32, s: u32) -> NodeId {
        self.dims.server(t, s)
    }

    /// Number of ToRs.
    pub fn num_tors(&self) -> u32 {
        self.dims.tors
    }

    fn server_coords(&self, server: NodeId) -> (u32, u32) {
        let base = self.dims.server(0, 0).0;
        let rel = server.0 - base;
        (rel / self.dims.sp, rel % self.dims.sp)
    }
}

impl DcnTopology for Vl2 {
    fn name(&self) -> String {
        format!("VL2({},{},{})", self.dims.da, self.dims.di, self.dims.sp)
    }

    fn graph(&self) -> &Dcn {
        &self.graph
    }

    fn probe_links(&self) -> usize {
        self.dims.probe_links()
    }

    fn original_path_count(&self) -> u128 {
        // Ordered ToR pairs × (2 up-aggs × da/2 intermediates × 2
        // down-aggs). Matches Table 2 for VL2(40,24,40) and
        // VL2(140,120,100); the VL2(20,12,20) row of the paper is exactly
        // half (an unordered count) — see EXPERIMENTS.md.
        let t = self.dims.tors as u128;
        let fanout = 4 * self.dims.ints as u128;
        t * (t - 1) * fanout
    }

    fn probe_endpoints(&self) -> Vec<NodeId> {
        (0..self.dims.tors).map(|t| self.dims.tor(t)).collect()
    }

    fn enumerate_candidates(&self) -> PathStore {
        let d = &self.dims;
        let tors = d.tors as usize;
        let paths = tors * tors.saturating_sub(1) / 2 * 4 * d.ints as usize;
        let mut out = PathStore::default();
        out.reserve(paths, 5 * paths, 4 * paths);
        let mut id = 0;
        for t1 in 0..d.tors {
            for t2 in (t1 + 1)..d.tors {
                for u in 0..2 {
                    for i in 0..d.ints {
                        for dn in 0..2 {
                            let (nodes, links) = d.tor_route(t1, t2, u, i, dn);
                            out.push(id, &nodes, &links);
                            id += 1;
                        }
                    }
                }
            }
        }
        out
    }

    fn ecmp_route(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> Route<'static> {
        let (t1, _) = self.server_coords(src);
        let (t2, _) = self.server_coords(dst);
        let d = &self.dims;
        let nodes = if t1 == t2 {
            vec![src, d.tor(t1), dst]
        } else {
            let u = (flow_hash % 2) as u32;
            let i = ((flow_hash / 2) % d.ints as u64) as u32;
            let dn = ((flow_hash / (2 * d.ints as u64)) % 2) as u32;
            vec![
                src,
                d.tor(t1),
                d.agg(d.tor_agg(t1, u)),
                d.int(i),
                d.agg(d.tor_agg(t2, dn)),
                d.tor(t2),
                dst,
            ]
        };
        self.graph
            .route_from_nodes(nodes)
            .expect("generated ECMP route must be connected")
    }

    fn ecmp_fanout(&self, src: NodeId, dst: NodeId) -> u64 {
        let (t1, _) = self.server_coords(src);
        let (t2, _) = self.server_coords(dst);
        if t1 == t2 {
            1
        } else {
            4 * self.dims.ints as u64
        }
    }

    fn symmetry(&self) -> SymmetryPlan {
        SymmetryPlan {
            num_probe_links: self.dims.probe_links(),
            bases: vec![BaseComponent {
                provider: Box::new(Vl2Provider::new(self.dims)),
                replicas: 1,
                replicate_node: Box::new(|n, _| n),
                replicate_link: Box::new(|l, _| l),
            }],
        }
    }
}

/// Round-based candidate provider for the (single) VL2 component.
#[derive(Clone, Debug)]
pub struct Vl2Provider {
    dims: Dims,
    universe: Vec<LinkId>,
    next_round: u64,
    total_rounds: u64,
    rounds_per_batch: u64,
    next_id: u32,
}

impl Vl2Provider {
    fn new(dims: Dims) -> Self {
        let mut universe = Vec::with_capacity(dims.probe_links());
        for t in 0..dims.tors {
            for side in 0..2 {
                universe.push(dims.ta_link(t, side));
            }
        }
        for a in 0..dims.aggs {
            for i in 0..dims.ints {
                universe.push(dims.ai_link(a, i));
            }
        }
        // Pairings over T ToRs via the circle method; T may be odd, in
        // which case one ToR sits out per round (a "bye").
        let t = dims.tors as u64;
        let pairings = if t.is_multiple_of(2) { t - 1 } else { t };
        Self {
            dims,
            universe,
            next_round: 0,
            total_rounds: pairings * 4 * dims.ints as u64,
            rounds_per_batch: 4 * dims.ints as u64,
            next_id: 0,
        }
    }

    fn emit_round(&mut self, r: u64, out: &mut PathStore) {
        let d = self.dims;
        let ints = d.ints as u64;
        let i = (r % ints) as u32;
        let u = ((r / ints) % 2) as u32;
        let dn = ((r / (2 * ints)) % 2) as u32;
        let t = d.tors as u64;
        let (m, fixed) = if t.is_multiple_of(2) {
            (t - 1, Some(t - 1))
        } else {
            (t, None)
        };
        let pr = (r / (4 * ints)) % m;

        let pairs = (1..=(m - 1) / 2).map(|x| ((pr + x) % m, (pr + m - x) % m));
        for (a, b) in fixed.map(|f| (f, pr)).into_iter().chain(pairs) {
            let (nodes, links) = d.tor_route(a as u32, b as u32, u, i, dn);
            out.push(self.next_id, &nodes, &links);
            self.next_id += 1;
        }
    }
}

impl CandidateProvider for Vl2Provider {
    fn universe(&self) -> &[LinkId] {
        &self.universe
    }

    fn next_batch(&mut self, out: &mut PathStore) {
        for _ in 0..self.rounds_per_batch {
            if self.next_round >= self.total_rounds {
                break;
            }
            let r = self.next_round;
            self.next_round += 1;
            self.emit_round(r, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_core::pmc::{max_identifiability, min_coverage, PmcConfig};

    #[test]
    fn counts_match_paper_formulas() {
        // Table 2: VL2(40,24,40): 9,884 nodes, 10,560 links, 4,588,800
        // ordered paths.
        let v = Vl2::new(40, 24, 40).unwrap();
        assert_eq!(v.graph().num_nodes(), 9_884);
        assert_eq!(v.graph().num_links(), 10_560);
        assert_eq!(v.original_path_count(), 4_588_800);

        // VL2(20,12,20): 1,282 nodes, 1,440 links; the paper's path count
        // (70,800) is our ordered count divided by two.
        let v = Vl2::new(20, 12, 20).unwrap();
        assert_eq!(v.graph().num_nodes(), 1_282);
        assert_eq!(v.graph().num_links(), 1_440);
        assert_eq!(v.original_path_count(), 2 * 70_800);
    }

    #[test]
    fn vl2_large_matches_table2() {
        let v = Vl2::new(140, 120, 100).unwrap();
        assert_eq!(v.graph().num_nodes(), 424_390);
        assert_eq!(v.graph().num_links(), 436_800);
        assert_eq!(v.original_path_count(), 4_938_024_000);
    }

    #[test]
    fn graph_invariants_hold() {
        let v = Vl2::new(4, 4, 2).unwrap();
        v.graph().check_invariants().unwrap();
        // ToRs: 4·4/4 = 4, each with 2 uplinks; aggs 4; ints 2.
        assert_eq!(v.num_tors(), 4);
        assert_eq!(v.probe_links(), 4 * 2 + 4 * 2);
    }

    #[test]
    fn candidates_are_valid_routes() {
        let v = Vl2::new(4, 4, 2).unwrap();
        let paths = v.enumerate_candidates();
        // C(4,2) unordered pairs × 2·2·2 = 6 × 8 = 48.
        assert_eq!(paths.len(), 48);
        for p in paths.iter() {
            v.graph()
                .route_from_nodes(p.nodes().to_vec())
                .expect("candidate must be routable");
        }
    }

    #[test]
    fn ecmp_fanout_and_routes() {
        let v = Vl2::new(4, 4, 2).unwrap();
        let s1 = v.server(0, 0);
        let s2 = v.server(3, 1);
        assert_eq!(v.ecmp_fanout(s1, s2), 8);
        let mut distinct = std::collections::HashSet::new();
        for h in 0..64u64 {
            let r = v.ecmp_route(s1, s2, h);
            v.graph().route_from_nodes(r.nodes.to_vec()).unwrap();
            distinct.insert(r.nodes);
        }
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn provider_enumerates_exactly_the_candidates() {
        let v = Vl2::new(4, 4, 2).unwrap();
        let mut provider = match v.symmetry().bases.pop() {
            Some(b) => b.provider,
            None => panic!("vl2 must have one base component"),
        };
        let mut provided: std::collections::HashSet<Vec<LinkId>> = std::collections::HashSet::new();
        loop {
            let batch = crate::symmetric::next_paths(&mut provider);
            if batch.is_empty() {
                break;
            }
            for p in batch {
                provided.insert(p.links().to_vec());
            }
        }
        let exhaustive: std::collections::HashSet<Vec<LinkId>> = v
            .enumerate_candidates()
            .iter()
            .map(|p| p.links().to_vec())
            .collect();
        assert_eq!(provided, exhaustive);
    }

    #[test]
    fn provider_reaches_identifiability() {
        let v = Vl2::new(4, 4, 2).unwrap();
        let m = crate::symmetric::replicated_matrix(&v, &PmcConfig::identifiable(1));
        assert!(m.achieved.targets_met);
        assert!(min_coverage(&m) >= 1);
        assert_eq!(max_identifiability(&m, 1), 1);
    }
}
