//! Probe path representation: the flat [`PathStore`] every candidate
//! set, plan cell and probe matrix keeps its paths in, the [`PathRef`]
//! it hands out, and the owned [`ProbePath`] that tests and baselines
//! build paths from.

use super::{LinkId, NodeId, PathId};
use crate::dense::Runs;

/// An owned probe path: what tests and baselines build, one at a time,
/// before handing a set of them over as a [`PathStore`].
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
}

/// One path of a [`PathStore`], or a [`ProbePath`] seen as one: its id,
/// its node sequence and its sorted, de-duplicated links, borrowed for
/// the store's lifetime `'a`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathRef<'a> {
    /// The path's id in its store.
    pub id: PathId,
    nodes: &'a [NodeId],
    links: &'a [LinkId],
}

impl<'a> PathRef<'a> {
    /// The sorted, de-duplicated set of physical links covered by the path.
    #[inline]
    pub fn links(&self) -> &'a [LinkId] {
        self.links
    }

    /// The node sequence of the path (empty for abstract paths).
    #[inline]
    pub fn nodes(&self) -> &'a [NodeId] {
        self.nodes
    }

    /// What makes two paths the same probe (see [`ProbePath::route`]).
    #[inline]
    pub fn route(&self) -> (&'a [NodeId], &'a [LinkId]) {
        (self.nodes, self.links)
    }

    /// Returns true if the path covers `link`.
    #[inline]
    pub fn covers(&self, link: LinkId) -> bool {
        self.links.binary_search(&link).is_ok()
    }

    /// Returns true if the path covers no link.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

impl<'a> From<&'a ProbePath> for PathRef<'a> {
    fn from(path: &'a ProbePath) -> Self {
        Self {
            id: path.id,
            nodes: &path.nodes,
            links: &path.links,
        }
    }
}

/// Paths kept flat: path `i` is its id and run `i` of the nodes and of
/// the links ([`Runs`]), so a set of any size is five arrays, not two
/// `Vec`s a path. Candidate sets, the paths a solve selects, a plan
/// cell's solution and a probe matrix's rows are all one; clearing keeps
/// the memory.
#[derive(Clone, Debug, Default)]
pub struct PathStore {
    ids: Vec<PathId>,
    nodes: Runs<NodeId>,
    links: Runs<LinkId>,
    /// Scratch: the links of the path being pushed, to sort.
    sorting: Vec<LinkId>,
}

impl PathStore {
    /// Reserves room for `paths` more paths of `nodes` more nodes and
    /// `links` more links in all.
    pub fn reserve(&mut self, paths: usize, nodes: usize, links: usize) {
        self.ids.reserve(paths);
        self.nodes.reserve(paths, nodes);
        self.links.reserve(paths, links);
    }

    /// Reserves room to append every store of `parts`.
    pub fn reserve_all<'p>(&mut self, parts: impl IntoIterator<Item = &'p PathStore> + Clone) {
        let sum = |f: fn(&PathStore) -> usize| parts.clone().into_iter().map(f).sum();
        self.reserve(
            sum(PathStore::len),
            sum(|s| s.nodes.items().len()),
            sum(|s| s.links.items().len()),
        );
    }

    /// Empties the store, keeping the memory.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.nodes.clear();
        self.links.clear();
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store holds no path.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends a path from its route: `links` in hop order, as
    /// [`ProbePath::from_route`] takes them (sorted and de-duplicated
    /// here).
    pub fn push(&mut self, id: u32, nodes: &[NodeId], links: &[LinkId]) {
        self.ids.push(PathId(id));
        self.nodes.push_run(nodes.iter().copied());
        self.push_links(links.iter().copied());
    }

    fn push_links(&mut self, links: impl IntoIterator<Item = LinkId>) {
        self.sorting.clear();
        self.sorting.extend(links);
        self.sorting.sort_unstable();
        self.sorting.dedup();
        self.links.push_run(self.sorting.iter().copied());
    }

    /// Appends a copy of `path`.
    pub fn push_path(&mut self, path: PathRef<'_>) {
        self.ids.push(path.id);
        self.nodes.push_run(path.nodes.iter().copied());
        self.links.push_run(path.links.iter().copied());
    }

    /// Appends every path of `other`, in order, path `i` under id
    /// `id(i)`: three run copies.
    pub fn extend_from(&mut self, other: &PathStore, id: impl FnMut(usize) -> PathId) {
        self.ids.extend((0..other.len()).map(id));
        self.nodes.extend_runs(&other.nodes, 0..other.len(), |n| n);
        self.links.extend_runs(&other.links, 0..other.len(), |l| l);
    }

    /// Appends every path of `other`, in order and under its own id,
    /// each node through `node` and each link through `link`, the links
    /// sorted and de-duplicated again.
    pub fn extend_mapped(
        &mut self,
        other: &PathStore,
        node: impl Fn(NodeId) -> NodeId,
        link: impl Fn(LinkId) -> LinkId,
    ) {
        self.ids.extend_from_slice(&other.ids);
        self.nodes.extend_runs(&other.nodes, 0..other.len(), node);
        for run in other.links.runs() {
            self.push_links(run.iter().map(|&l| link(l)));
        }
    }

    /// Path `i`; panics past the last.
    #[inline]
    pub fn get(&self, i: usize) -> PathRef<'_> {
        PathRef {
            id: self.ids[i],
            nodes: self.nodes.run(i),
            links: self.links.run(i),
        }
    }

    /// Every path, in order.
    pub fn iter(&self) -> Paths<'_> {
        Paths {
            store: self,
            at: 0..self.len(),
        }
    }

    /// Every path's id, in order.
    pub(crate) fn ids(&self) -> &[PathId] {
        &self.ids
    }

    /// Renumbers path `i` to `id(i)`.
    pub(crate) fn renumber(&mut self, mut id: impl FnMut(usize) -> PathId) {
        for (i, slot) in self.ids.iter_mut().enumerate() {
            *slot = id(i);
        }
    }

    /// The links of every path: run `i` is path `i`'s — a matrix's row →
    /// links incidence.
    pub fn link_runs(&self) -> &Runs<LinkId> {
        &self.links
    }
}

/// The paths of a [`PathStore`], in order ([`PathStore::iter`]).
#[derive(Clone, Debug)]
pub struct Paths<'a> {
    store: &'a PathStore,
    at: std::ops::Range<usize>,
}

impl<'a> Iterator for Paths<'a> {
    type Item = PathRef<'a>;

    fn next(&mut self) -> Option<PathRef<'a>> {
        self.at.next().map(|i| self.store.get(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl DoubleEndedIterator for Paths<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.at.next_back().map(|i| self.store.get(i))
    }
}

impl ExactSizeIterator for Paths<'_> {}

impl<'a> IntoIterator for &'a PathStore {
    type Item = PathRef<'a>;
    type IntoIter = Paths<'a>;

    fn into_iter(self) -> Paths<'a> {
        self.iter()
    }
}

/// Two stores are equal when they hold the same paths, ids included.
impl PartialEq for PathStore {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids && self.nodes == other.nodes && self.links == other.links
    }
}

impl Eq for PathStore {}

impl From<&[ProbePath]> for PathStore {
    fn from(paths: &[ProbePath]) -> Self {
        let mut store = Self::default();
        store.reserve(
            paths.len(),
            paths.iter().map(|p| p.nodes.len()).sum(),
            paths.iter().map(ProbePath::len).sum(),
        );
        for p in paths {
            store.push_path(p.into());
        }
        store
    }
}

/// Hand-built paths as a store, so the entry points that take a path set
/// take a `Vec<ProbePath>` as they always did.
impl From<Vec<ProbePath>> for PathStore {
    fn from(paths: Vec<ProbePath>) -> Self {
        Self::from(&paths[..])
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
