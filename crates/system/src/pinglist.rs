//! Pinglists: what the controller dispatches to each pinger (§6.1).
//!
//! A pinglist carries a file version, the pinger's identity, one entry per
//! probe path assigned to the pinger (the source-routed node sequence, the
//! responder, the waypoint for IP-in-IP encapsulation and the port/DSCP
//! configuration), and the sending interval. The paper serializes these as
//! XML files fetched over HTTP; here the agent tier's binary frames carry
//! them ([`Frame::ListUpdate`](crate::wire::Frame::ListUpdate)).

use std::hash::{Hash, Hasher};

use detector_core::types::{NodeId, PathId};

/// One probe assignment within a pinglist.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PingEntry {
    /// Probe-matrix path this entry exercises; `None` for in-rack probes
    /// (server ↔ ToR links are monitored separately, §3.1).
    pub path: Option<PathId>,
    /// Full node route from the pinger to the responder.
    pub route: Vec<NodeId>,
    /// The responder server.
    pub responder: NodeId,
    /// Decapsulation waypoint (core/intermediate switch) for IP-in-IP
    /// source routing; `None` when ECMP would already follow the route.
    pub waypoint: Option<NodeId>,
}

/// A pinger's probing assignment for one cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct Pinglist {
    /// Version (controller cycle number) for idempotent refreshes.
    pub version: u64,
    /// The pinger server this list belongs to.
    pub pinger: NodeId,
    /// Probe assignments.
    pub entries: Vec<PingEntry>,
    /// Packet-sending interval in microseconds.
    pub interval_us: u64,
    /// First source port to loop from.
    pub base_sport: u16,
    /// Number of source ports to loop over per path.
    pub port_range: u16,
    /// Responder port.
    pub dport: u16,
    /// Cached [`Pinglist::content_stamp`] of this list, set by
    /// [`Pinglist::seal`] when the controller finishes assembling the
    /// assignment. Together with `version` it forms the pinger-binding
    /// cache key — two cheap `u64` compares per window instead of
    /// re-hashing every entry. `0` means "unsealed": a binding check
    /// against it conservatively re-binds.
    pub stamp: u64,
}

impl Pinglist {
    /// Number of probe paths (excluding in-rack entries).
    pub fn num_paths(&self) -> usize {
        self.entries.iter().filter(|e| e.path.is_some()).count()
    }

    /// True when the two lists assign the same probing work (everything
    /// but the version). A re-plan that leaves a pinger's assignment
    /// untouched keeps the old version, so the pinger's cached route
    /// bindings stay valid.
    pub fn same_assignment(&self, other: &Pinglist) -> bool {
        self.pinger == other.pinger
            && self.entries == other.entries
            && self.interval_us == other.interval_us
            && self.base_sport == other.base_sport
            && self.port_range == other.port_range
            && self.dport == other.dport
    }

    /// A stamp over the list's *content* — every assignment-relevant
    /// field except the version. Together with the version it forms the
    /// pinger-binding cache key: a binding is served only for a list
    /// whose `(version, stamp)` both match, so a cycle refresh (or any
    /// dispatch path that ever re-minted a version) cannot serve routes
    /// and `PathId`s from a pre-re-base binding.
    pub fn content_stamp(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.pinger.hash(&mut h);
        self.entries.hash(&mut h);
        self.interval_us.hash(&mut h);
        self.base_sport.hash(&mut h);
        self.port_range.hash(&mut h);
        self.dport.hash(&mut h);
        h.finish()
    }

    /// Freezes [`Pinglist::content_stamp`] into [`Pinglist::stamp`].
    /// The controller seals every list once at assembly; binding checks
    /// then compare the cached value instead of re-hashing the entries
    /// every window. Any dispatch path that mutates entries afterwards
    /// must re-seal.
    pub fn seal(&mut self) {
        self.stamp = self.content_stamp();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Pinglist {
        Pinglist {
            version: 3,
            pinger: NodeId(100),
            entries: vec![
                PingEntry {
                    path: Some(PathId(7)),
                    route: vec![NodeId(100), NodeId(1), NodeId(2), NodeId(101)],
                    responder: NodeId(101),
                    waypoint: Some(NodeId(2)),
                },
                PingEntry {
                    path: None,
                    route: vec![NodeId(100), NodeId(1), NodeId(102)],
                    responder: NodeId(102),
                    waypoint: None,
                },
            ],
            interval_us: 100_000,
            base_sport: 33000,
            port_range: 16,
            dport: 53533,
            stamp: 0,
        }
    }

    #[test]
    fn num_paths_excludes_in_rack() {
        assert_eq!(sample().num_paths(), 1);
    }

    #[test]
    fn pinglists_are_cloneable_and_comparable() {
        // Dispatch keeps a copy per pinger; equality drives idempotent
        // refresh (same version ⇒ no re-dispatch).
        let p = sample();
        let q = p.clone();
        assert_eq!(p, q);
        let mut r = p.clone();
        r.version += 1;
        assert_ne!(p, r);
    }
}
