//! BCube topology (Guo et al., SIGCOMM'09).
//!
//! BCube(n, k) is server-centric: n^(k+1) servers addressed by k+1 base-n
//! digits, and k+1 levels of n^k switches; the level-ℓ switch `w` connects
//! the n servers whose digit string with digit ℓ removed equals `w`.
//! Servers forward packets, so — as the paper does in §4.4 — we treat
//! servers as switches and the probe universe is *all* links. Between any
//! two servers BCube's BuildPathSet yields k+1 parallel paths, one per
//! starting correction level.

use detector_core::pmc::CandidateProvider;
use detector_core::types::{LinkId, NodeId, PathStore};

use crate::graph::{Dcn, Link, LinkTier, Node, NodeKind, Route};
use crate::symmetric::{BaseComponent, SymmetryPlan};
use crate::{DcnTopology, TopologyError};

#[derive(Clone, Copy, Debug)]
struct Dims {
    n: u32,
    k: u32,
    /// Servers: n^(k+1).
    servers: u32,
    /// Switches per level: n^k.
    per_level: u32,
    /// Levels: k+1.
    levels: u32,
}

impl Dims {
    fn new(n: u32, k: u32) -> Option<Self> {
        let levels = k + 1;
        let per_level = (n as u64).checked_pow(k)?;
        let servers = per_level.checked_mul(n as u64)?;
        if servers > 1 << 22 {
            return None;
        }
        Some(Self {
            n,
            k,
            servers: servers as u32,
            per_level: per_level as u32,
            levels,
        })
    }

    fn pow(&self, l: u32) -> u32 {
        self.n.pow(l)
    }

    fn digit(&self, s: u32, l: u32) -> u32 {
        (s / self.pow(l)) % self.n
    }

    fn set_digit(&self, s: u32, l: u32, v: u32) -> u32 {
        let p = self.pow(l);
        s - self.digit(s, l) * p + v * p
    }

    /// Removes digit `l` from the server address (switch index).
    fn strip(&self, s: u32, l: u32) -> u32 {
        let low = s % self.pow(l);
        let high = s / self.pow(l + 1);
        high * self.pow(l) + low
    }

    fn switch(&self, level: u32, w: u32) -> NodeId {
        NodeId(level * self.per_level + w)
    }

    fn server_node(&self, s: u32) -> NodeId {
        NodeId(self.levels * self.per_level + s)
    }

    /// The level-`l` link of server `s` (to switch (l, strip(s, l))).
    fn link(&self, level: u32, s: u32) -> LinkId {
        LinkId(level * self.servers + s)
    }

    fn probe_links(&self) -> usize {
        (self.levels * self.servers) as usize
    }

    /// Writes the BuildPathSet route from `src` to `dst` starting
    /// digit-correction at `start` (0 ≤ start ≤ k) into `route`.
    fn route_into(&self, src: u32, dst: u32, start: u32, route: &mut Route<'static>) {
        debug_assert_ne!(src, dst);
        let (nodes, links) = (route.nodes.to_mut(), route.links.to_mut());
        nodes.clear();
        links.clear();
        nodes.push(self.server_node(src));
        let mut cur = src;
        let mut hop = |cur: &mut u32, level: u32, to: u32| {
            let sw = self.switch(level, self.strip(*cur, level));
            nodes.push(sw);
            links.push(self.link(level, *cur));
            nodes.push(self.server_node(to));
            links.push(self.link(level, to));
            *cur = to;
        };

        // Correction order: start, start-1, ..., 0, k, ..., start+1.
        let order = (0..self.levels).map(|i| (start + self.levels - i) % self.levels);

        let detour = self.digit(src, start) == self.digit(dst, start);
        if detour {
            // Alt path: leave via level `start` to a neighbor, correct the
            // other digits, then come back to the true digit at the end.
            let nd = (self.digit(src, start) + 1) % self.n;
            let c0 = self.set_digit(src, start, nd);
            hop(&mut cur, start, c0);
        }
        for l in order.skip(if detour { 1 } else { 0 }) {
            if l == start && detour {
                continue;
            }
            if self.digit(cur, l) != self.digit(dst, l) {
                let next = self.set_digit(cur, l, self.digit(dst, l));
                hop(&mut cur, l, next);
            }
        }
        if detour {
            // Final correction of the detoured digit.
            let next = self.set_digit(cur, start, self.digit(dst, start));
            debug_assert_eq!(next, dst);
            hop(&mut cur, start, next);
        }
        debug_assert_eq!(cur, dst);
    }
}

/// A BCube(n, k) network.
#[derive(Clone, Debug)]
pub struct BCube {
    dims: Dims,
    graph: Dcn,
}

impl BCube {
    /// Builds BCube(n, k); n ≥ 2, k ≥ 1, and n^(k+1) servers must fit in
    /// 2²² (the paper's largest instance, BCube(8,4), has 32,768).
    pub fn new(n: u32, k: u32) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::BadParameter {
                what: "n must be >= 2",
            });
        }
        if k < 1 {
            return Err(TopologyError::BadParameter {
                what: "k must be >= 1",
            });
        }
        let dims = Dims::new(n, k).ok_or(TopologyError::BadParameter {
            what: "n^(k+1) too large",
        })?;

        let mut nodes = Vec::new();
        for level in 0..dims.levels {
            for w in 0..dims.per_level {
                nodes.push(Node {
                    id: dims.switch(level, w),
                    kind: NodeKind::BcubeSwitch { level, index: w },
                });
            }
        }
        for s in 0..dims.servers {
            nodes.push(Node {
                id: dims.server_node(s),
                kind: NodeKind::Server { index: s },
            });
        }

        let mut links = Vec::new();
        for level in 0..dims.levels {
            for s in 0..dims.servers {
                links.push(Link {
                    id: dims.link(level, s),
                    a: dims.server_node(s),
                    b: dims.switch(level, dims.strip(s, level)),
                    tier: LinkTier::Bcube { level },
                });
            }
        }

        Ok(Self {
            dims,
            graph: Dcn::build(nodes, links),
        })
    }

    /// Server node id from its address.
    pub fn server(&self, s: u32) -> NodeId {
        self.dims.server_node(s)
    }

    /// Number of servers.
    pub fn num_servers(&self) -> u32 {
        self.dims.servers
    }

    /// Number of parallel paths (k+1).
    pub fn levels(&self) -> u32 {
        self.dims.levels
    }

    fn server_addr(&self, node: NodeId) -> u32 {
        node.0 - self.dims.levels * self.dims.per_level
    }
}

impl DcnTopology for BCube {
    fn name(&self) -> String {
        format!("BCube({},{})", self.dims.n, self.dims.k)
    }

    fn graph(&self) -> &Dcn {
        &self.graph
    }

    fn probe_links(&self) -> usize {
        self.dims.probe_links()
    }

    fn original_path_count(&self) -> u128 {
        let n = self.dims.servers as u128;
        n * (n - 1) * self.dims.levels as u128
    }

    fn probe_endpoints(&self) -> Vec<NodeId> {
        (0..self.dims.servers)
            .map(|s| self.dims.server_node(s))
            .collect()
    }

    fn enumerate_candidates(&self) -> PathStore {
        let d = &self.dims;
        let servers = d.servers as usize;
        let paths = servers * servers.saturating_sub(1) / 2 * d.levels as usize;
        // A route corrects each digit once, plus one detour hop: two
        // links and two nodes a hop, after the source.
        let hops = d.levels as usize + 1;
        let mut out = PathStore::default();
        out.reserve(paths, (2 * hops + 1) * paths, 2 * hops * paths);
        let mut route = Route::default();
        let mut id = 0;
        for s1 in 0..d.servers {
            for s2 in (s1 + 1)..d.servers {
                for start in 0..d.levels {
                    d.route_into(s1, s2, start, &mut route);
                    out.push(id, &route.nodes, &route.links);
                    id += 1;
                }
            }
        }
        out
    }

    fn ecmp_route(&self, src: NodeId, dst: NodeId, flow_hash: u64) -> Route<'static> {
        let s1 = self.server_addr(src);
        let s2 = self.server_addr(dst);
        let start = (flow_hash % self.dims.levels as u64) as u32;
        let mut route = Route::default();
        self.dims.route_into(s1, s2, start, &mut route);
        route
    }

    fn ecmp_fanout(&self, _src: NodeId, _dst: NodeId) -> u64 {
        self.dims.levels as u64
    }

    fn symmetry(&self) -> SymmetryPlan {
        SymmetryPlan {
            num_probe_links: self.dims.probe_links(),
            bases: vec![BaseComponent {
                provider: Box::new(BcubeProvider::new(self.dims)),
                replicas: 1,
                replicate_node: Box::new(|n, _| n),
                replicate_link: Box::new(|l, _| l),
            }],
        }
    }
}

/// Round-based candidate provider for BCube: round (d, start) emits one
/// path per server towards the server `d` addresses away (mod N), starting
/// digit correction at level `start`.
#[derive(Clone, Debug)]
pub struct BcubeProvider {
    dims: Dims,
    universe: Vec<LinkId>,
    next_round: u64,
    total_rounds: u64,
    next_id: u32,
    /// Scratch: the route being written.
    route: Route<'static>,
}

impl BcubeProvider {
    fn new(dims: Dims) -> Self {
        let universe = (0..dims.probe_links() as u32).map(LinkId).collect();
        Self {
            dims,
            universe,
            next_round: 0,
            total_rounds: (dims.servers as u64 - 1) * dims.levels as u64,
            next_id: 0,
            route: Route::default(),
        }
    }
}

impl CandidateProvider for BcubeProvider {
    fn universe(&self) -> &[LinkId] {
        &self.universe
    }

    fn next_batch(&mut self, out: &mut PathStore) {
        if self.next_round >= self.total_rounds {
            return;
        }
        let r = self.next_round;
        self.next_round += 1;
        let d = &self.dims;
        let levels = d.levels as u64;
        let start = (r % levels) as u32;
        let dist = 1 + (r / levels) as u32;
        for s in 0..d.servers {
            d.route_into(s, (s + dist) % d.servers, start, &mut self.route);
            out.push(self.next_id, &self.route.nodes, &self.route.links);
            self.next_id += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_core::pmc::{max_identifiability, min_coverage, PmcConfig};
    use detector_core::types::ProbePath;

    /// The BuildPathSet route from `src` to `dst` as a path.
    fn server_path(b: &BCube, src: u32, dst: u32, start: u32) -> ProbePath {
        let mut route = Route::default();
        b.dims.route_into(src, dst, start, &mut route);
        ProbePath::from_route(0, route.nodes.into_owned(), route.links.into_owned())
    }

    #[test]
    fn counts_match_paper_formulas() {
        // Table 2: BCube(4,2): 112 nodes, 192 links, 12,096 paths.
        let b = BCube::new(4, 2).unwrap();
        assert_eq!(b.graph().num_nodes(), 112);
        assert_eq!(b.graph().num_links(), 192);
        assert_eq!(b.original_path_count(), 12_096);

        // BCube(8,2): 704 nodes, 1,536 links, 784,896 paths.
        let b = BCube::new(8, 2).unwrap();
        assert_eq!(b.graph().num_nodes(), 704);
        assert_eq!(b.graph().num_links(), 1_536);
        assert_eq!(b.original_path_count(), 784_896);
    }

    #[test]
    fn bcube84_matches_table2() {
        let b = BCube::new(8, 4).unwrap();
        assert_eq!(b.graph().num_nodes(), 53_248);
        assert_eq!(b.graph().num_links(), 163_840);
        assert_eq!(b.original_path_count(), 5_368_545_280);
    }

    #[test]
    fn graph_invariants_hold() {
        let b = BCube::new(3, 1).unwrap();
        b.graph().check_invariants().unwrap();
        // Every server has k+1 = 2 links; every switch has n = 3.
        for n in b.graph().nodes() {
            let deg = b.graph().neighbors(n.id).len();
            match n.kind {
                NodeKind::Server { .. } => assert_eq!(deg, 2),
                NodeKind::BcubeSwitch { .. } => assert_eq!(deg, 3),
                _ => panic!("unexpected kind"),
            }
        }
    }

    #[test]
    fn paths_are_valid_and_digit_correcting() {
        let b = BCube::new(3, 2).unwrap();
        for (s1, s2) in [(0u32, 26u32), (1, 2), (4, 22), (0, 9)] {
            for start in 0..b.levels() {
                let p = server_path(&b, s1, s2, start);
                let r = b
                    .graph()
                    .route_from_nodes(p.nodes().to_vec())
                    .expect("BCube path must be routable");
                assert_eq!(r.nodes.first(), Some(&b.server(s1)));
                assert_eq!(r.nodes.last(), Some(&b.server(s2)));
            }
        }
    }

    #[test]
    fn parallel_paths_use_distinct_first_levels() {
        let b = BCube::new(4, 2).unwrap();
        // For servers differing in all digits, the k+1 paths are
        // link-disjoint (BCube's parallel-path property).
        let s1 = 0u32; // digits (0,0,0)
        let s2 = 21u32; // digits (1,1,1): 1 + 4 + 16.
        let mut all_links = std::collections::HashSet::new();
        for start in 0..b.levels() {
            let p = server_path(&b, s1, s2, start);
            for l in p.links() {
                assert!(all_links.insert(*l), "paths share link {l}");
            }
        }
    }

    #[test]
    fn ecmp_route_is_one_of_the_parallel_paths() {
        let b = BCube::new(4, 2).unwrap();
        let r = b.ecmp_route(b.server(5), b.server(40), 7);
        b.graph().route_from_nodes(r.nodes.to_vec()).unwrap();
        assert_eq!(b.ecmp_fanout(b.server(5), b.server(40)), 3);
    }

    #[test]
    fn provider_covers_all_unordered_candidates() {
        // The BCube provider emits *ordered* pairs (whose link sets differ
        // by correction direction), so it is a superset of the unordered
        // exhaustive enumeration.
        let b = BCube::new(3, 1).unwrap();
        let mut provider = match b.symmetry().bases.pop() {
            Some(base) => base.provider,
            None => panic!("bcube must have one base component"),
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
        for p in b.enumerate_candidates().iter() {
            assert!(
                provided.contains(p.links()),
                "missing candidate {:?}",
                p.links()
            );
        }
    }

    #[test]
    fn provider_reaches_identifiability_on_small_bcube() {
        // n = 3 is the smallest identifiable BCube: with n = 2 every
        // switch has exactly two links and every path through it uses
        // both, so their routing-matrix columns are identical.
        let b = BCube::new(3, 1).unwrap();
        let m = crate::symmetric::replicated_matrix(&b, &PmcConfig::identifiable(1));
        assert!(m.achieved.targets_met, "achieved: {:?}", m.achieved);
        assert!(min_coverage(&m) >= 1);
        assert_eq!(max_identifiability(&m, 1), 1);
    }

    #[test]
    fn n2_bcube_is_fundamentally_unidentifiable() {
        use detector_core::pmc::construct;
        let b = BCube::new(2, 1).unwrap();
        // Exhaustive candidates and the symmetric provider must agree that
        // 1-identifiability is unattainable.
        let exhaustive = construct(
            b.probe_links(),
            b.enumerate_candidates(),
            &PmcConfig::identifiable(1),
        )
        .unwrap();
        let symmetric = crate::symmetric::replicated_matrix(&b, &PmcConfig::identifiable(1));
        assert!(!exhaustive.achieved.targets_met);
        assert!(!symmetric.achieved.targets_met);
        assert_eq!(max_identifiability(&exhaustive, 1), 0);
    }
}
