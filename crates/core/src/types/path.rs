//! Probe path representation.

use super::{LinkId, NodeId, PathId};

/// A candidate (or selected) probe path.
///
/// A path is described by the sequence of nodes it visits (used by the
/// simulator and the runtime for source routing) and by the *set* of
/// physical links it covers (used by the PMC and PLL algorithms, which see
/// the path as a row of the routing matrix, §4.1 of the paper).
///
/// The link set is kept sorted and de-duplicated: a path that traverses the
/// same undirected link twice (e.g. a Fattree intra-pod path that goes up to
/// a core switch and back down through the same aggregation switch) covers
/// that link once, exactly as a binary routing-matrix row would record it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProbePath {
    /// Dense identifier of this path within its candidate set or matrix.
    pub id: PathId,
    /// Node sequence from source ToR to destination ToR (may be empty for
    /// purely abstract paths used in algorithm unit tests).
    nodes: Vec<NodeId>,
    /// Sorted, de-duplicated physical links covered by the path.
    links: Vec<LinkId>,
}

impl ProbePath {
    /// Creates a path from an explicit link set, without node information.
    ///
    /// The links are sorted and de-duplicated. This constructor is intended
    /// for algorithm-level tests and for callers that manage node sequences
    /// themselves.
    pub fn from_links(id: u32, mut links: Vec<LinkId>) -> Self {
        links.sort_unstable();
        links.dedup();
        Self {
            id: PathId(id),
            nodes: Vec::new(),
            links,
        }
    }

    /// Creates a path from a node sequence plus the traversed links.
    ///
    /// `links` should list the traversed links in hop order; they are
    /// normalized (sorted, de-duplicated) for matrix use.
    pub fn from_route(id: u32, nodes: Vec<NodeId>, mut links: Vec<LinkId>) -> Self {
        links.sort_unstable();
        links.dedup();
        Self {
            id: PathId(id),
            nodes,
            links,
        }
    }

    /// The sorted, de-duplicated set of physical links covered by the path.
    #[inline]
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// The node sequence of the path (empty for abstract paths).
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// What makes two paths the same probe: the nodes visited and the
    /// links covered. The [`id`](Self::id) is a row or slot number, not an
    /// identity — a path keeps its route when it is re-numbered.
    #[inline]
    pub fn route(&self) -> (&[NodeId], &[LinkId]) {
        (&self.nodes, &self.links)
    }

    /// Returns true if the path covers `link`.
    #[inline]
    pub fn covers(&self, link: LinkId) -> bool {
        self.links.binary_search(&link).is_ok()
    }

    /// Number of distinct physical links covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns true if the path covers no link.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Re-assigns the path id (used when a selection is compacted into a
    /// probe matrix whose rows are re-numbered densely).
    pub(crate) fn with_id(mut self, id: PathId) -> Self {
        self.id = id;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_are_sorted_and_deduped() {
        let p = ProbePath::from_links(0, vec![LinkId(5), LinkId(1), LinkId(5), LinkId(3)]);
        assert_eq!(p.links(), &[LinkId(1), LinkId(3), LinkId(5)]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn covers_uses_binary_search() {
        let p = ProbePath::from_links(0, vec![LinkId(2), LinkId(9), LinkId(4)]);
        assert!(p.covers(LinkId(4)));
        assert!(!p.covers(LinkId(5)));
    }

    #[test]
    fn route_keeps_nodes() {
        let p = ProbePath::from_route(
            1,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![LinkId(10), LinkId(11)],
        );
        assert_eq!(p.nodes().len(), 3);
        assert_eq!(p.links().len(), 2);
    }

    #[test]
    fn empty_path_is_empty() {
        let p = ProbePath::from_links(0, vec![]);
        assert!(p.is_empty());
    }
}
