//! k-ary Fattree topology (Al-Fares et al., SIGCOMM'08) — the paper's
//! testbed (k = 4) and simulation (k = 18, 48) topology.
//!
//! Layout for radix k (h = k/2): h² core switches in h *groups* (group g
//! connects to aggregation switch g of every pod), k pods of h aggregation
//! and h edge (ToR) switches, and h servers per edge switch.
//!
//! The inter-switch links decompose into h independent components, one per
//! aggregation column/core group (Observation 1 of §4.3), and the
//! components are pairwise isomorphic under the rotation that renames the
//! group index — which is exactly what the symmetry plan exploits: PMC
//! solves group 0 and the solution is replicated to the other h groups.

use detector_core::pmc::CandidateProvider;
use detector_core::types::{LinkId, NodeId, ProbePath};

use crate::graph::{Dcn, Link, LinkTier, Node, NodeKind, Route};
use crate::symmetric::{BaseComponent, SymmetryPlan};
use crate::{DcnTopology, TopologyError};

/// Integer dimensions of a k-ary Fattree (shared by the provider and the
/// replication closures, which must be `'static`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Dims {
    k: u32,
    /// k / 2.
    h: u32,
}

impl Dims {
    fn new(k: u32) -> Self {
        Self { k, h: k / 2 }
    }

    // -- Node ids: cores, then aggs, then edges, then servers. --

    fn core(&self, group: u32, idx: u32) -> NodeId {
        NodeId(group * self.h + idx)
    }

    fn agg(&self, pod: u32, idx: u32) -> NodeId {
        NodeId(self.h * self.h + pod * self.h + idx)
    }

    fn edge(&self, pod: u32, idx: u32) -> NodeId {
        NodeId(self.h * self.h + self.k * self.h + pod * self.h + idx)
    }

    fn server(&self, pod: u32, edge: u32, s: u32) -> NodeId {
        NodeId(self.h * self.h + 2 * self.k * self.h + (pod * self.h + edge) * self.h + s)
    }

    // -- Link ids: edge–agg, then agg–core, then server links. --

    /// Edge(pod, e) ↔ Agg(pod, g).
    fn ea_link(&self, pod: u32, e: u32, g: u32) -> LinkId {
        LinkId(pod * self.h * self.h + e * self.h + g)
    }

    /// Agg(pod, g) ↔ Core(g, c).
    fn ac_link(&self, pod: u32, g: u32, c: u32) -> LinkId {
        LinkId(self.k * self.h * self.h + pod * self.h * self.h + g * self.h + c)
    }

    /// Edge(pod, e) ↔ Server(pod, e, s).
    fn server_link(&self, pod: u32, e: u32, s: u32) -> LinkId {
        LinkId(2 * self.k * self.h * self.h + (pod * self.h + e) * self.h + s)
    }

    /// Number of inter-switch (probe) links: k³/2.
    fn probe_links(&self) -> usize {
        2 * (self.k * self.h * self.h) as usize
    }

    /// Re-homes a group-0 path onto `group`: aggregation and core nodes
    /// and edge–agg / agg–core links get their group index replaced.
    fn map_path_to_group(&self, path: &ProbePath, group: u32) -> ProbePath {
        if group == 0 {
            return path.clone();
        }
        let nodes: Vec<NodeId> = path
            .nodes()
            .iter()
            .map(|&n| {
                let v = n.0;
                let hh = self.h * self.h;
                if v < hh {
                    // Core(group0, c) — group is v / h, must be 0.
                    debug_assert_eq!(v / self.h, 0, "path not in group 0");
                    self.core(group, v % self.h)
                } else if v < hh + self.k * self.h {
                    // Agg(pod, idx) — idx must be 0.
                    let rel = v - hh;
                    debug_assert_eq!(rel % self.h, 0, "path not in group 0");
                    self.agg(rel / self.h, group)
                } else {
                    n
                }
            })
            .collect();
        let links: Vec<LinkId> = path
            .links()
            .iter()
            .map(|&l| self.map_link_to_group(l, group))
            .collect();
        ProbePath::from_route(path.id.0, nodes, links)
    }

    /// Re-homes a group-0 probe link onto `group` (the link-level
    /// restriction of [`Self::map_path_to_group`]).
    fn map_link_to_group(&self, l: LinkId, group: u32) -> LinkId {
        if group == 0 {
            return l;
        }
        let v = l.0;
        let khh = self.k * self.h * self.h;
        if v < khh {
            let pod = v / (self.h * self.h);
            let rem = v % (self.h * self.h);
            debug_assert_eq!(rem % self.h, 0, "EA link not in group 0");
            self.ea_link(pod, rem / self.h, group)
        } else {
            debug_assert!(v < 2 * khh, "server link in probe path");
            let rel = v - khh;
            let pod = rel / (self.h * self.h);
            let rem = rel % (self.h * self.h);
            debug_assert_eq!(rem / self.h, 0, "AC link not in group 0");
            self.ac_link(pod, group, rem % self.h)
        }
    }

    /// ToR-pair probe path through (group g, core c). For intra-pod pairs
    /// the path goes up to the core and back through the same aggregation
    /// switch.
    fn tor_path(
        &self,
        id: u32,
        (p1, e1): (u32, u32),
        (p2, e2): (u32, u32),
        g: u32,
        c: u32,
    ) -> ProbePath {
        if p1 == p2 {
            let nodes = vec![
                self.edge(p1, e1),
                self.agg(p1, g),
                self.core(g, c),
                self.agg(p1, g),
                self.edge(p1, e2),
            ];
            let links = vec![
                self.ea_link(p1, e1, g),
                self.ac_link(p1, g, c),
                self.ea_link(p1, e2, g),
            ];
            ProbePath::from_route(id, nodes, links)
        } else {
            let nodes = vec![
                self.edge(p1, e1),
                self.agg(p1, g),
                self.core(g, c),
                self.agg(p2, g),
                self.edge(p2, e2),
            ];
            let links = vec![
                self.ea_link(p1, e1, g),
                self.ac_link(p1, g, c),
                self.ac_link(p2, g, c),
                self.ea_link(p2, e2, g),
            ];
            ProbePath::from_route(id, nodes, links)
        }
    }
}

/// A k-ary Fattree network.
#[derive(Clone, Debug)]
pub struct Fattree {
    dims: Dims,
    graph: Dcn,
}

impl Fattree {
    /// Builds a k-ary Fattree; k must be even and ≥ 4.
    pub fn new(k: u32) -> Result<Self, TopologyError> {
        if k < 4 || !k.is_multiple_of(2) {
            return Err(TopologyError::BadParameter {
                what: "k must be even and >= 4",
            });
        }
        if k > 128 {
            return Err(TopologyError::BadParameter {
                what: "k > 128 is not supported",
            });
        }
        let dims = Dims::new(k);
        let h = dims.h;

        let mut nodes = Vec::new();
        for group in 0..h {
            for idx in 0..h {
                nodes.push(Node {
                    id: dims.core(group, idx),
                    kind: NodeKind::CoreSwitch { group, index: idx },
                });
            }
        }
        for pod in 0..k {
            for idx in 0..h {
                nodes.push(Node {
                    id: dims.agg(pod, idx),
                    kind: NodeKind::AggSwitch { pod, index: idx },
                });
            }
        }
        for pod in 0..k {
            for idx in 0..h {
                nodes.push(Node {
                    id: dims.edge(pod, idx),
                    kind: NodeKind::EdgeSwitch { pod, index: idx },
                });
            }
        }
        let mut server_index = 0;
        for pod in 0..k {
            for e in 0..h {
                for s in 0..h {
                    debug_assert_eq!(
                        dims.server(pod, e, s).0,
                        dims.server(0, 0, 0).0 + server_index
                    );
                    nodes.push(Node {
                        id: dims.server(pod, e, s),
                        kind: NodeKind::Server {
                            index: server_index,
                        },
                    });
                    server_index += 1;
                }
            }
        }

        let mut links = Vec::new();
        for pod in 0..k {
            for e in 0..h {
                for g in 0..h {
                    links.push(Link {
                        id: dims.ea_link(pod, e, g),
                        a: dims.edge(pod, e),
                        b: dims.agg(pod, g),
                        tier: LinkTier::EdgeAgg,
                    });
                }
            }
        }
        for pod in 0..k {
            for g in 0..h {
                for c in 0..h {
                    links.push(Link {
                        id: dims.ac_link(pod, g, c),
                        a: dims.agg(pod, g),
                        b: dims.core(g, c),
                        tier: LinkTier::AggCore,
                    });
                }
            }
        }
        for pod in 0..k {
            for e in 0..h {
                for s in 0..h {
                    links.push(Link {
                        id: dims.server_link(pod, e, s),
                        a: dims.edge(pod, e),
                        b: dims.server(pod, e, s),
                        tier: LinkTier::ServerTor,
                    });
                }
            }
        }

        Ok(Self {
            dims,
            graph: Dcn::build(nodes, links),
        })
    }

    /// The radix k.
    pub fn k(&self) -> u32 {
        self.dims.k
    }

    /// k / 2 — pods have this many aggregation/edge switches, and the
    /// probe problem decomposes into this many groups.
    pub fn half(&self) -> u32 {
        self.dims.h
    }

    /// Edge switch (ToR) node id.
    pub fn edge(&self, pod: u32, idx: u32) -> NodeId {
        self.dims.edge(pod, idx)
    }

    /// Aggregation switch node id.
    pub fn agg(&self, pod: u32, idx: u32) -> NodeId {
        self.dims.agg(pod, idx)
    }

    /// Core switch node id.
    pub fn core(&self, group: u32, idx: u32) -> NodeId {
        self.dims.core(group, idx)
    }

    /// Server node id.
    pub fn server(&self, pod: u32, edge: u32, s: u32) -> NodeId {
        self.dims.server(pod, edge, s)
    }

    /// Edge–aggregation link id.
    pub fn ea_link(&self, pod: u32, e: u32, g: u32) -> LinkId {
        self.dims.ea_link(pod, e, g)
    }

    /// Aggregation–core link id.
    pub fn ac_link(&self, pod: u32, g: u32, c: u32) -> LinkId {
        self.dims.ac_link(pod, g, c)
    }

    /// Server access link id.
    pub fn server_link(&self, pod: u32, e: u32, s: u32) -> LinkId {
        self.dims.server_link(pod, e, s)
    }

    /// The candidate provider for one aggregation group's component.
    pub fn group_provider(&self, group: u32) -> FattreeGroupProvider {
        FattreeGroupProvider::new(self.dims, group)
    }

    /// Maps a group-0 probe path to its isomorphic image in `group`.
    pub fn map_path_to_group(&self, path: &ProbePath, group: u32) -> ProbePath {
        self.dims.map_path_to_group(path, group)
    }

    /// Maps a group-0 probe link to its isomorphic image in `group`.
    pub fn map_link_to_group(&self, link: LinkId, group: u32) -> LinkId {
        self.dims.map_link_to_group(link, group)
    }

    fn server_coords(&self, server: NodeId) -> (u32, u32, u32) {
        let base = self.dims.server(0, 0, 0).0;
        let rel = server.0 - base;
        let h = self.dims.h;
        (rel / (h * h), (rel / h) % h, rel % h)
    }
}

impl DcnTopology for Fattree {
    fn name(&self) -> String {
        format!("Fattree({})", self.dims.k)
    }

    fn graph(&self) -> &Dcn {
        &self.graph
    }

    fn probe_links(&self) -> usize {
        self.dims.probe_links()
    }

    fn original_path_count(&self) -> u128 {
        // Ordered ToR pairs × (k/2)² ECMP paths (matches Table 2 exactly
        // for Fattree(12/24/72)).
        let t = (self.dims.k * self.dims.h) as u128;
        let h = self.dims.h as u128;
        t * (t - 1) * h * h
    }

    fn probe_endpoints(&self) -> Vec<NodeId> {
        let mut v = Vec::new();
        for pod in 0..self.dims.k {
            for e in 0..self.dims.h {
                v.push(self.dims.edge(pod, e));
            }
        }
        v
    }

    fn enumerate_candidates(&self) -> Vec<ProbePath> {
        let k = self.dims.k;
        let h = self.dims.h;
        let tors: Vec<(u32, u32)> = (0..k).flat_map(|p| (0..h).map(move |e| (p, e))).collect();
        let mut out = Vec::new();
        let mut id = 0;
        for (i, &(p1, e1)) in tors.iter().enumerate() {
            for &(p2, e2) in &tors[i + 1..] {
                for g in 0..h {
                    for c in 0..h {
                        out.push(self.dims.tor_path(id, (p1, e1), (p2, e2), g, c));
                        id += 1;
                    }
                }
            }
        }
        out
    }

    fn ecmp_route(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> Route {
        let (p1, e1, _) = self.server_coords(src);
        let (p2, e2, _) = self.server_coords(dst);
        let h = self.dims.h;
        let nodes = if p1 == p2 && e1 == e2 {
            vec![src, self.dims.edge(p1, e1), dst]
        } else if p1 == p2 {
            let g = (flow_hash % h as u64) as u32;
            vec![
                src,
                self.dims.edge(p1, e1),
                self.dims.agg(p1, g),
                self.dims.edge(p1, e2),
                dst,
            ]
        } else {
            let g = (flow_hash % h as u64) as u32;
            let c = ((flow_hash / h as u64) % h as u64) as u32;
            vec![
                src,
                self.dims.edge(p1, e1),
                self.dims.agg(p1, g),
                self.dims.core(g, c),
                self.dims.agg(p2, g),
                self.dims.edge(p2, e2),
                dst,
            ]
        };
        self.graph
            .route_from_nodes(nodes)
            .expect("generated ECMP route must be connected")
    }

    fn ecmp_fanout(&self, src: NodeId, dst: NodeId) -> u64 {
        let (p1, e1, _) = self.server_coords(src);
        let (p2, e2, _) = self.server_coords(dst);
        let h = self.dims.h as u64;
        if p1 == p2 && e1 == e2 {
            1
        } else if p1 == p2 {
            h
        } else {
            h * h
        }
    }

    fn symmetry(&self) -> SymmetryPlan {
        let dims = self.dims;
        SymmetryPlan {
            num_probe_links: dims.probe_links(),
            bases: vec![BaseComponent {
                provider: Box::new(self.group_provider(0)),
                replicas: dims.h,
                replicate: Box::new(move |p, g| dims.map_path_to_group(p, g)),
                replicate_link: Box::new(move |l, g| dims.map_link_to_group(l, g)),
            }],
        }
    }
}

/// Round-based candidate provider for one Fattree aggregation group.
///
/// Candidates are emitted in *rounds*: an inter-pod round fixes a
/// round-robin pod pairing and a (e1, e2, core) tuple and yields k/2
/// pairwise link-disjoint paths (an orbit tiling under the pod/ToR/core
/// permutation symmetry); intra-pod rounds yield one up-and-back core path
/// per pod. Over its full enumeration the provider produces every
/// candidate path of the component, so PMC with this provider explores
/// the same search space as the exhaustive enumeration — just lazily. Some
/// it produces twice: the tiling rounds' paths come again in the product
/// enumeration, and an intra-pod round emits each ToR pair in both orders
/// (on Fattree(8), 256 of group 0's 2 240 candidates repeat an earlier
/// one's links: 64 as the same route, 192 as its reverse).
#[derive(Clone, Debug)]
pub struct FattreeGroupProvider {
    dims: Dims,
    group: u32,
    universe: Vec<LinkId>,
    /// Perfect-tiling phases emitted before the generic enumeration: phase
    /// t's h rounds cover every EA and every AC link of the component
    /// exactly once with k²/4 pairwise link-disjoint paths.
    tiling_next: u64,
    tiling_total: u64,
    inter_next: u64,
    inter_total: u64,
    intra_next: u64,
    intra_total: u64,
    rounds_per_batch: u64,
    next_id: u32,
}

impl FattreeGroupProvider {
    fn new(dims: Dims, group: u32) -> Self {
        let k = dims.k as u64;
        let h = dims.h as u64;
        let mut universe = Vec::with_capacity((k * h * 2) as usize);
        for pod in 0..dims.k {
            for e in 0..dims.h {
                universe.push(dims.ea_link(pod, e, group));
            }
        }
        for pod in 0..dims.k {
            for c in 0..dims.h {
                universe.push(dims.ac_link(pod, group, c));
            }
        }
        Self {
            dims,
            group,
            universe,
            tiling_next: 0,
            // h phases of h rounds each: the (j, c) combinations are
            // exhausted after h phases (further phases would repeat
            // identical paths), supporting α-coverage up to h by tiling.
            tiling_total: h * h,
            inter_next: 0,
            inter_total: (k - 1) * h * h * h,
            intra_next: 0,
            intra_total: h * (h - 1) * h,
            rounds_per_batch: 4 * h,
            next_id: 0,
        }
    }

    /// Emits tiling round `r` (phase t = r / h, slot j = r % h): pods are
    /// paired by the circle method with pairing index j mod (k−1), pod p
    /// probes from ToR (p + j) mod h through core (j + t) mod h — within a
    /// phase each pod sees every ToR index and every core exactly once, so
    /// the phase tiles the component; successive phases re-use the same
    /// pod/ToR structure and only rotate the core, exactly the minimal
    /// diversity a coverage-only (β = 0) greedy needs. Identifiability
    /// pressure (β ≥ 1) draws further, structurally different candidates
    /// from the product enumeration that follows the tiling phases.
    fn tiling_round(&mut self, r: u64, out: &mut Vec<ProbePath>) {
        let k = self.dims.k as u64;
        let h = self.dims.h as u64;
        let t = r / h;
        let j = r % h;
        let c = ((j + t) % h) as u32;
        let m = k - 1;
        let pr = j % m;
        let e_of = |pod: u64| -> u32 { ((pod + j) % h) as u32 };

        let p_a = k - 1;
        let p_b = pr;
        self.push_inter(p_a as u32, e_of(p_a), p_b as u32, e_of(p_b), c, out);
        for i in 1..(k / 2) {
            let a = (pr + i) % m;
            let b = (pr + m - i) % m;
            self.push_inter(a as u32, e_of(a), b as u32, e_of(b), c, out);
        }
    }

    /// Emits the inter-pod round `r`: pods paired by the circle method,
    /// (e1, e2, c) decoded from the round index.
    fn inter_round(&mut self, r: u64, out: &mut Vec<ProbePath>) {
        let k = self.dims.k as u64;
        let h = self.dims.h as u64;
        let c = (r % h) as u32;
        let e1 = ((r / h) % h) as u32;
        let off = ((r / (h * h)) % h) as u32;
        let e2 = (e1 + off) % self.dims.h;
        let pr = (r / (h * h * h)) % (k - 1);

        // Circle method: pod k-1 is fixed, the rest rotate.
        let m = k - 1;
        let pair = |x: u64| -> u64 { (pr + m - x % m) % m };
        // Pair 0: (k-1, pr); pair i: ((pr + i) mod m, (pr + m - i) mod m).
        let p_a = (self.dims.k - 1) as u64;
        let p_b = pr;
        self.push_inter(p_a as u32, e1, p_b as u32, e2, c, out);
        for i in 1..(k / 2) {
            let a = (pr + i) % m;
            let b = pair(i);
            self.push_inter(a as u32, e1, b as u32, e2, c, out);
        }
    }

    fn push_inter(&mut self, p1: u32, e1: u32, p2: u32, e2: u32, c: u32, out: &mut Vec<ProbePath>) {
        let id = self.next_id;
        self.next_id += 1;
        out.push(self.dims.tor_path(id, (p1, e1), (p2, e2), self.group, c));
    }

    /// Emits the intra-pod round `r`: one up-and-back path per pod.
    fn intra_round(&mut self, r: u64, out: &mut Vec<ProbePath>) {
        let h = self.dims.h as u64;
        let c = (r % h) as u32;
        let e1 = ((r / h) % h) as u32;
        let off = 1 + ((r / (h * h)) % (h - 1)) as u32;
        let e2 = (e1 + off) % self.dims.h;
        for pod in 0..self.dims.k {
            let id = self.next_id;
            self.next_id += 1;
            out.push(self.dims.tor_path(id, (pod, e1), (pod, e2), self.group, c));
        }
    }
}

impl CandidateProvider for FattreeGroupProvider {
    fn universe(&self) -> &[LinkId] {
        &self.universe
    }

    fn next_batch(&mut self) -> Vec<ProbePath> {
        let mut out = Vec::new();
        // Tiling phases first: disjoint, perfectly covering rounds.
        if self.tiling_next < self.tiling_total {
            let h = self.dims.h as u64;
            for _ in 0..h {
                if self.tiling_next >= self.tiling_total {
                    break;
                }
                let r = self.tiling_next;
                self.tiling_next += 1;
                self.tiling_round(r, &mut out);
            }
            return out;
        }
        // Then the generic full enumeration, interleaving 3 inter-pod
        // rounds per intra-pod round.
        for _ in 0..self.rounds_per_batch {
            for _ in 0..3 {
                if self.inter_next < self.inter_total {
                    let r = self.inter_next;
                    self.inter_next += 1;
                    self.inter_round(r, &mut out);
                }
            }
            if self.intra_next < self.intra_total {
                let r = self.intra_next;
                self.intra_next += 1;
                self.intra_round(r, &mut out);
            }
        }
        out
    }

    fn remaining_hint(&self) -> Option<u64> {
        let k = self.dims.k as u64;
        let tiling = (self.tiling_total - self.tiling_next) * (k / 2);
        let inter = (self.inter_total - self.inter_next) * (k / 2);
        let intra = (self.intra_total - self.intra_next) * k;
        Some(tiling + inter + intra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_core::pmc::{construct, verify, PmcConfig};

    #[test]
    fn counts_match_paper_formulas() {
        // Table 2: Fattree(12) has 612 nodes, 1296 links, 184,032 paths.
        let ft = Fattree::new(12).unwrap();
        assert_eq!(ft.graph().num_nodes(), 612);
        assert_eq!(ft.graph().num_links(), 1296);
        assert_eq!(ft.original_path_count(), 184_032);
        assert_eq!(ft.probe_links(), 864);

        // Fattree(24): 4,176 nodes, 10,368 links, 11,902,464 paths.
        let ft = Fattree::new(24).unwrap();
        assert_eq!(ft.graph().num_nodes(), 4_176);
        assert_eq!(ft.graph().num_links(), 10_368);
        assert_eq!(ft.original_path_count(), 11_902_464);
    }

    #[test]
    fn fattree72_paths_match_table2() {
        // Dimensions only — no graph construction needed for the count,
        // but building the graph is cheap enough to verify node counts too.
        let ft = Fattree::new(72).unwrap();
        assert_eq!(ft.graph().num_nodes(), 99_792);
        assert_eq!(ft.graph().num_links(), 279_936);
        assert_eq!(ft.original_path_count(), 8_703_770_112);
    }

    #[test]
    fn graph_invariants_hold() {
        for k in [4, 6, 8] {
            let ft = Fattree::new(k).unwrap();
            ft.graph().check_invariants().unwrap();
            // Every switch has exactly k ports in use... edges: h servers +
            // h aggs; aggs: h edges + h cores; cores: k pods.
            for n in ft.graph().nodes() {
                let deg = ft.graph().neighbors(n.id).len() as u32;
                match n.kind {
                    NodeKind::CoreSwitch { .. } => assert_eq!(deg, k),
                    NodeKind::AggSwitch { .. } | NodeKind::EdgeSwitch { .. } => {
                        assert_eq!(deg, k)
                    }
                    NodeKind::Server { .. } => assert_eq!(deg, 1),
                    _ => panic!("unexpected node kind in fattree"),
                }
            }
        }
    }

    #[test]
    fn rejects_bad_radix() {
        assert!(Fattree::new(3).is_err());
        assert!(Fattree::new(2).is_err());
        assert!(Fattree::new(5).is_err());
    }

    #[test]
    fn enumerated_paths_are_valid_routes() {
        let ft = Fattree::new(4).unwrap();
        let paths = ft.enumerate_candidates();
        // Unordered ToR pairs × (k/2)²: C(8,2) × 4 = 112.
        assert_eq!(paths.len(), 112);
        for p in &paths {
            let r = ft
                .graph()
                .route_from_nodes(p.nodes().to_vec())
                .expect("candidate path must be routable");
            let mut links: Vec<LinkId> = r.links.clone();
            links.sort_unstable();
            links.dedup();
            assert_eq!(links.as_slice(), p.links());
        }
    }

    #[test]
    fn ecmp_routes_are_valid_and_respect_fanout() {
        let ft = Fattree::new(4).unwrap();
        let s1 = ft.server(0, 0, 0);
        let s2 = ft.server(2, 1, 1);
        let mut distinct = std::collections::HashSet::new();
        for hash in 0..64u64 {
            let r = ft.ecmp_route(s1, s2, hash);
            assert_eq!(r.nodes.first(), Some(&s1));
            assert_eq!(r.nodes.last(), Some(&s2));
            ft.graph()
                .route_from_nodes(r.nodes.clone())
                .expect("ECMP route must be connected");
            distinct.insert(r.nodes.clone());
        }
        assert_eq!(distinct.len() as u64, ft.ecmp_fanout(s1, s2));
        assert_eq!(ft.ecmp_fanout(s1, s2), 4);
        assert_eq!(ft.ecmp_fanout(s1, ft.server(0, 1, 0)), 2);
        assert_eq!(ft.ecmp_fanout(s1, ft.server(0, 0, 1)), 1);
    }

    #[test]
    fn group_provider_universe_is_one_component() {
        let ft = Fattree::new(6).unwrap();
        let p = ft.group_provider(0);
        // k pods × h edges + k pods × h cores = k²: 36 links for k=6.
        assert_eq!(p.universe().len(), 36);
    }

    #[test]
    fn provider_enumerates_only_group_links() {
        let ft = Fattree::new(4).unwrap();
        let mut p = ft.group_provider(1);
        let uni: std::collections::HashSet<LinkId> = p.universe().iter().copied().collect();
        let mut total = 0;
        loop {
            let batch = p.next_batch();
            if batch.is_empty() {
                break;
            }
            for path in &batch {
                total += 1;
                for l in path.links() {
                    assert!(uni.contains(l), "path escapes its group component");
                }
                ft.graph()
                    .route_from_nodes(path.nodes().to_vec())
                    .expect("provider path must be routable");
            }
        }
        assert!(total > 0);
    }

    #[test]
    fn replication_maps_are_isomorphisms() {
        let ft = Fattree::new(6).unwrap();
        let mut p = ft.group_provider(0);
        let batch = p.next_batch();
        for path in batch.iter().take(40) {
            for g in 0..ft.half() {
                let mapped = ft.map_path_to_group(path, g);
                // Same shape.
                assert_eq!(mapped.links().len(), path.links().len());
                // Still a valid route.
                ft.graph()
                    .route_from_nodes(mapped.nodes().to_vec())
                    .expect("mapped path must be routable");
                // And it lives in group g's component.
                let uni: std::collections::HashSet<LinkId> =
                    ft.group_provider(g).universe().iter().copied().collect();
                for l in mapped.links() {
                    assert!(uni.contains(l));
                }
            }
        }
    }

    #[test]
    fn provider_enumerates_exactly_the_component_candidates() {
        // Drain the group-0 provider completely and compare its distinct
        // link sets against the exhaustive enumeration restricted to the
        // component: the symmetric search space must be the same, just
        // lazily generated (tiling phases re-emit product paths, so only
        // the de-duplicated sets can be compared).
        for k in [4u32, 6] {
            let ft = Fattree::new(k).unwrap();
            let mut provider = ft.group_provider(0);
            let mut provided: std::collections::HashSet<Vec<LinkId>> =
                std::collections::HashSet::new();
            loop {
                let batch = provider.next_batch();
                if batch.is_empty() {
                    break;
                }
                for p in batch {
                    provided.insert(p.links().to_vec());
                }
            }
            let uni: std::collections::HashSet<LinkId> =
                ft.group_provider(0).universe().iter().copied().collect();
            let exhaustive: std::collections::HashSet<Vec<LinkId>> = ft
                .enumerate_candidates()
                .into_iter()
                .filter(|p| p.links().iter().all(|l| uni.contains(l)))
                .map(|p| p.links().to_vec())
                .collect();
            assert_eq!(provided, exhaustive, "k={k}");
        }
    }

    #[test]
    fn group_provider_emits_some_candidates_twice() {
        // Fattree(8), group 0: the 16 tiling rounds' 64 paths come again
        // in the product enumeration, and every intra-pod ToR pair comes
        // in both orders (8 pods × 6 pairs × 4 cores = 192 link sets,
        // twice each): 256 of 2 240 emitted candidates repeat.
        let ft = Fattree::new(8).unwrap();
        let mut provider = ft.group_provider(0);
        let mut tiling = std::collections::HashSet::new();
        let mut seen: std::collections::HashMap<Vec<LinkId>, u32> =
            std::collections::HashMap::new();
        loop {
            let in_tiling = provider.tiling_next < provider.tiling_total;
            let batch = provider.next_batch();
            if batch.is_empty() {
                break;
            }
            for p in batch {
                if in_tiling {
                    tiling.insert(p.links().to_vec());
                }
                *seen.entry(p.links().to_vec()).or_default() += 1;
            }
        }
        let emitted: u32 = seen.values().sum();
        assert_eq!((emitted, seen.len()), (2240, 1984));
        let twice: Vec<&Vec<LinkId>> = (seen.iter())
            .filter(|(_, &n)| n > 1)
            .map(|(ls, _)| ls)
            .collect();
        assert!(seen.values().all(|&n| n <= 2));
        assert_eq!((twice.len(), tiling.len()), (256, 64));
        assert!(tiling.iter().all(|ls| seen[ls] == 2));
        // The other repeats are intra-pod: ToR up to a core and back down
        // to another ToR of the same pod, three links.
        let intra = twice.iter().filter(|ls| !tiling.contains(**ls));
        assert!(intra.clone().all(|ls| ls.len() == 3));
        assert_eq!(intra.count(), 192);
    }

    #[test]
    fn pmc_on_enumerated_fattree4_is_identifiable() {
        let ft = Fattree::new(4).unwrap();
        let m = construct(
            ft.probe_links(),
            ft.enumerate_candidates(),
            &PmcConfig::identifiable(1),
        )
        .unwrap();
        assert!(m.achieved.targets_met);
        let rep = verify(&m, 2);
        assert_eq!(rep.identifiability, 1);
        assert!(rep.coverage >= 1);
    }
}
