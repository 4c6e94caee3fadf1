//! The concrete DCN graph: typed nodes, undirected links, adjacency.

use std::borrow::Cow;

use detector_core::types::{LinkId, NodeId};

/// What a node is and where it sits in its topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Fattree core switch, in column `group`, position `index`.
    CoreSwitch {
        /// Core group (connects to aggregation switch `group` of each pod).
        group: u32,
        /// Index within the group.
        index: u32,
    },
    /// Fattree aggregation switch `index` of pod `pod`.
    AggSwitch {
        /// Pod number.
        pod: u32,
        /// Position within the pod (the "column" it belongs to).
        index: u32,
    },
    /// Fattree edge (ToR) switch `index` of pod `pod`.
    EdgeSwitch {
        /// Pod number.
        pod: u32,
        /// Position within the pod.
        index: u32,
    },
    /// VL2 intermediate switch.
    IntSwitch {
        /// Index among intermediate switches.
        index: u32,
    },
    /// VL2 aggregation switch.
    VlAggSwitch {
        /// Index among aggregation switches.
        index: u32,
    },
    /// VL2 top-of-rack switch.
    TorSwitch {
        /// ToR index.
        index: u32,
    },
    /// BCube level-`level` switch.
    BcubeSwitch {
        /// BCube level (0..=k).
        level: u32,
        /// Index within the level.
        index: u32,
    },
    /// A server (BCube servers route; Fattree/VL2 servers only host
    /// pingers/responders).
    Server {
        /// Global server index within its topology.
        index: u32,
    },
}

impl NodeKind {
    /// True for any switch kind.
    pub fn is_switch(&self) -> bool {
        !matches!(self, NodeKind::Server { .. })
    }
}

/// A node of the DCN graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Node {
    /// Dense node id.
    pub id: NodeId,
    /// Typed position.
    pub kind: NodeKind,
}

/// Which tier of the fabric a link belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkTier {
    /// Fattree edge ↔ aggregation.
    EdgeAgg,
    /// Fattree aggregation ↔ core.
    AggCore,
    /// VL2 ToR ↔ aggregation.
    TorAgg,
    /// VL2 aggregation ↔ intermediate.
    AggInt,
    /// Server ↔ its ToR/edge switch.
    ServerTor,
    /// BCube server ↔ level-n switch.
    Bcube {
        /// BCube level of the switch end.
        level: u32,
    },
}

/// An undirected link of the DCN graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link {
    /// Dense link id. Probe links (inter-switch, or all links for BCube)
    /// come first; server access links follow.
    pub id: LinkId,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Fabric tier.
    pub tier: LinkTier,
}

/// A concrete hop-by-hop route (nodes in visit order plus the traversed
/// links, one per hop, *not* de-duplicated). A route either owns its two
/// lists (`Route<'static>`, as the topologies return it) or borrows them:
/// a bound pinglist keeps its routes back to back in run arrays and
/// hands each probe a route that borrows its runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Route<'a> {
    /// Visited nodes, source first.
    pub nodes: Cow<'a, [NodeId]>,
    /// Traversed links, `nodes.len() - 1` of them.
    pub links: Cow<'a, [LinkId]>,
}

impl Route<'_> {
    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// A generated data-center network graph.
#[derive(Clone, Debug)]
pub struct Dcn {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    num_switches: usize,
}

impl Dcn {
    /// Builds a graph from nodes and links (internal to the generators).
    pub(crate) fn build(nodes: Vec<Node>, links: Vec<Link>) -> Self {
        let mut adjacency = vec![Vec::new(); nodes.len()];
        for l in &links {
            adjacency[l.a.index()].push((l.b, l.id));
            adjacency[l.b.index()].push((l.a, l.id));
        }
        let num_switches = nodes.iter().filter(|n| n.kind.is_switch()).count();
        Self {
            nodes,
            links,
            adjacency,
            num_switches,
        }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of nodes (switches + servers) — the paper's Table 2 column.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links (including server access links).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.nodes.len() - self.num_switches
    }

    /// The node's typed descriptor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The link's descriptor.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Neighbors of a node with the connecting link.
    pub fn neighbors(&self, id: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[id.index()]
    }

    /// The link between two adjacent nodes, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency[a.index()]
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, l)| *l)
    }

    /// Resolves a node sequence into a [`Route`], failing if two
    /// consecutive nodes are not adjacent.
    pub fn route_from_nodes(&self, nodes: Vec<NodeId>) -> Option<Route<'static>> {
        let mut links = Vec::with_capacity(nodes.len().saturating_sub(1));
        for w in nodes.windows(2) {
            links.push(self.link_between(w[0], w[1])?);
        }
        Some(Route {
            nodes: nodes.into(),
            links: links.into(),
        })
    }

    /// All servers attached to a switch (its ServerTor/Bcube links).
    pub fn servers_under(&self, switch: NodeId) -> Vec<NodeId> {
        self.adjacency[switch.index()]
            .iter()
            .filter(|(n, _)| !self.node(*n).kind.is_switch())
            .map(|(n, _)| *n)
            .collect()
    }

    /// The switch a server hangs off (its unique switch neighbor for
    /// Fattree/VL2; the level-0 switch for BCube).
    pub fn switch_of(&self, server: NodeId) -> Option<NodeId> {
        self.adjacency[server.index()]
            .iter()
            .find(|(n, _)| self.node(*n).kind.is_switch())
            .map(|(n, _)| *n)
    }

    /// Checks structural invariants (used by tests): link endpoints exist,
    /// adjacency is symmetric, ids are dense.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id.index() != i {
                return Err(format!("node {i} has id {}", n.id));
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.id.index() != i {
                return Err(format!("link {i} has id {}", l.id));
            }
            if l.a.index() >= self.nodes.len() || l.b.index() >= self.nodes.len() {
                return Err(format!("link {i} has dangling endpoint"));
            }
            if l.a == l.b {
                return Err(format!("link {i} is a self-loop"));
            }
        }
        for (ni, adj) in self.adjacency.iter().enumerate() {
            for (peer, link) in adj {
                let l = self.link(*link);
                let here = NodeId(ni as u32);
                if !(l.a == here && l.b == *peer || l.b == here && l.a == *peer) {
                    return Err(format!("adjacency of n{ni} disagrees with link {link}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dcn {
        // n0 -l0- n1 -l1- n2, server n3 under n2 via l2.
        let nodes = vec![
            Node {
                id: NodeId(0),
                kind: NodeKind::EdgeSwitch { pod: 0, index: 0 },
            },
            Node {
                id: NodeId(1),
                kind: NodeKind::AggSwitch { pod: 0, index: 0 },
            },
            Node {
                id: NodeId(2),
                kind: NodeKind::EdgeSwitch { pod: 0, index: 1 },
            },
            Node {
                id: NodeId(3),
                kind: NodeKind::Server { index: 0 },
            },
        ];
        let links = vec![
            Link {
                id: LinkId(0),
                a: NodeId(0),
                b: NodeId(1),
                tier: LinkTier::EdgeAgg,
            },
            Link {
                id: LinkId(1),
                a: NodeId(1),
                b: NodeId(2),
                tier: LinkTier::EdgeAgg,
            },
            Link {
                id: LinkId(2),
                a: NodeId(2),
                b: NodeId(3),
                tier: LinkTier::ServerTor,
            },
        ];
        Dcn::build(nodes, links)
    }

    #[test]
    fn adjacency_and_lookup() {
        let g = tiny();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_switches(), 3);
        assert_eq!(g.num_servers(), 1);
        assert_eq!(g.link_between(NodeId(0), NodeId(1)), Some(LinkId(0)));
        assert_eq!(g.link_between(NodeId(0), NodeId(2)), None);
        g.check_invariants().unwrap();
    }

    #[test]
    fn route_from_nodes_resolves_links() {
        let g = tiny();
        let r = g
            .route_from_nodes(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
            .unwrap();
        assert_eq!(r.links, vec![LinkId(0), LinkId(1), LinkId(2)]);
        assert_eq!(r.hops(), 3);
        assert!(g.route_from_nodes(vec![NodeId(0), NodeId(3)]).is_none());
    }

    #[test]
    fn servers_and_switch_of() {
        let g = tiny();
        assert_eq!(g.servers_under(NodeId(2)), vec![NodeId(3)]);
        assert_eq!(g.switch_of(NodeId(3)), Some(NodeId(2)));
    }
}
