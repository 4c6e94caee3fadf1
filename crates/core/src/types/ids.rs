//! Small integer identifier newtypes.
//!
//! All identifiers are dense indices assigned by the topology (or, for
//! [`PathId`], by whoever enumerates candidate paths). Using newtypes keeps
//! the three id spaces from being mixed up while staying `Copy` and free of
//! runtime overhead.

/// Identifier of a node (switch or server) in a data center network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

/// Identifier of an undirected physical link.
///
/// The paper treats each inter-switch link as bi-directional: a probe along
/// a path exercises the forward direction, and the response exercises the
/// reverse direction, so a single identifier per undirected link suffices
/// for the probe matrix (§4.1). When deTector blames a link, the fault may
/// lie in either direction or in one of the two adjacent switches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub u32);

/// Identifier of a probe path within one probe matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PathId(pub u32);

impl NodeId {
    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PathId {
    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A contiguous block of [`PathId`]s owned by one allocation unit (a
/// probe-plan cell).
///
/// Segmented id allocation gives every independently re-solvable cell of
/// a probe plan its own stable range: ids inside the range are assigned
/// densely from [`PathIdRange::base`], and the slack between the cell's
/// current path count and [`PathIdRange::capacity`] (the *headroom*)
/// absorbs growth, so a re-solve that changes one cell's path count
/// never shifts the ids of any other cell. A cell is re-based — handed a
/// fresh range — only when its path count overflows the capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct PathIdRange {
    /// First id of the range.
    pub base: u32,
    /// Number of ids reserved (allocated paths + headroom).
    pub capacity: u32,
}

impl PathIdRange {
    /// A range of `capacity` ids starting at `base`.
    pub fn new(base: u32, capacity: u32) -> Self {
        Self { base, capacity }
    }

    /// One-past-the-end id of the range.
    #[inline]
    pub fn end(&self) -> u32 {
        self.base + self.capacity
    }

    /// True when `id` falls inside the range.
    #[inline]
    pub fn contains(&self, id: PathId) -> bool {
        id.0 >= self.base && id.0 < self.end()
    }

    /// The `i`-th id of the range (`i < capacity`).
    #[inline]
    pub fn id(&self, i: usize) -> PathId {
        debug_assert!((i as u32) < self.capacity, "id {i} outside range {self:?}");
        PathId(self.base + i as u32)
    }

    /// True when `len` paths fit in the range.
    #[inline]
    pub fn fits(&self, len: usize) -> bool {
        len as u64 <= u64::from(self.capacity)
    }
}

impl core::fmt::Display for PathIdRange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "p{}..p{}", self.base, self.end())
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl core::fmt::Display for LinkId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl core::fmt::Display for PathId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_by_value() {
        assert!(LinkId(1) < LinkId(2));
        assert!(NodeId(0) < NodeId(10));
        assert!(PathId(3) > PathId(2));
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(LinkId(7).to_string(), "l7");
        assert_eq!(PathId(7).to_string(), "p7");
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(LinkId(42).index(), 42);
        assert_eq!(NodeId(42).index(), 42);
        assert_eq!(PathId(42).index(), 42);
    }

    #[test]
    fn ranges_contain_their_ids_and_nothing_else() {
        let r = PathIdRange::new(16, 8);
        assert_eq!(r.end(), 24);
        assert!(!r.contains(PathId(15)));
        assert!(r.contains(PathId(16)));
        assert!(r.contains(PathId(23)));
        assert!(!r.contains(PathId(24)));
        assert_eq!(r.id(0), PathId(16));
        assert_eq!(r.id(7), PathId(23));
        assert!(r.fits(8));
        assert!(!r.fits(9));
        assert_eq!(r.to_string(), "p16..p24");
    }
}
