//! Pinglists: what the controller dispatches to each pinger (§6.1).
//!
//! A pinglist carries a file version, the pinger's identity, one entry per
//! probe path assigned to the pinger (the path id, the responder and the
//! waypoint for IP-in-IP encapsulation), each entry's source-routed node
//! sequence, the port/DSCP configuration and the sending interval. The
//! routes sit back to back in one run array ([`Pinglist::routes`], run
//! *i* is entry *i*'s), so a list of any length is a handful of
//! allocations, not one per entry. The paper serializes these as XML
//! files fetched over HTTP; here the agent tier's binary frames carry
//! them ([`Frame::ListUpdate`](crate::wire::Frame::ListUpdate)).

use detector_core::dense::Runs;
use detector_core::types::{NodeId, PathId};

use crate::dispatch::{FNV_OFFSET_BASIS, FNV_PRIME};

/// One probe assignment within a pinglist; its route is the list's run
/// of the same index ([`Pinglist::route`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PingEntry {
    /// Probe-matrix path this entry exercises; `None` for in-rack probes
    /// (server ↔ ToR links are monitored separately, §3.1).
    pub path: Option<PathId>,
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
    /// Full node route of each entry, from the pinger to the responder:
    /// run *i* is `entries[i]`'s. [`Pinglist::push`] keeps the two in
    /// step.
    pub routes: Runs<NodeId>,
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
    /// Appends one entry and its route.
    pub fn push(&mut self, entry: PingEntry, route: impl IntoIterator<Item = NodeId>) {
        self.entries.push(entry);
        self.routes.push_run(route);
    }

    /// Entry `i`'s route; empty past the last.
    pub fn route(&self, i: usize) -> &[NodeId] {
        self.routes.run(i)
    }

    /// Every entry with its route, in list order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&PingEntry, &[NodeId])> {
        (self.entries.iter().enumerate()).map(|(i, e)| (e, self.route(i)))
    }

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
            && self.routes == other.routes
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
    ///
    /// The stamp crosses process boundaries (an agent checks the list it
    /// rebuilt from a diff against the seal the controller shipped), so
    /// it is defined here word by word rather than by `DefaultHasher`,
    /// whose algorithm std leaves unspecified, or by `#[derive(Hash)]`,
    /// whose length and discriminant writes are `usize`-shaped. It is
    /// FNV-1a with [`dispatch`](crate::dispatch)'s 64-bit parameters, one
    /// xor-multiply step per word, over:
    ///
    /// 1. `pinger` (u32), then the number of entries (u32);
    /// 2. per entry: the path flag (u32: 1 if `Some`, else 0) and path id
    ///    (u32, 0 for `None`), the route length (u32) and its nodes (u32
    ///    each), the responder (u32), the waypoint flag and id (as the
    ///    path's);
    /// 3. `interval_us` (u64, one step), then `base_sport`, `port_range`
    ///    and `dport` (u32 each).
    pub fn content_stamp(&self) -> u64 {
        let [stamp] = stamps([self]);
        stamp
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

/// Seals every list, two at a time: each FNV-1a step of a list waits on
/// its previous multiply, and two lists' chains are independent, so they
/// overlap. A Fattree(32) deployment's 1 024 lists seal in ~0.57 ms this
/// way and ~0.79 ms one by one (one CPU of a 2-vCPU Xeon @ 2.10 GHz).
pub(crate) fn seal_all(lists: &mut [Pinglist]) {
    for pair in lists.chunks_mut(2) {
        match pair {
            [a, b] => [a.stamp, b.stamp] = stamps([&*a, &*b]),
            [a] => a.seal(),
            _ => {}
        }
    }
}

/// [`Pinglist::content_stamp`] of each of `lists`, their entries hashed
/// in turns.
fn stamps<const N: usize>(lists: [&Pinglist; N]) -> [u64; N] {
    let mut hs = [StampHasher(FNV_OFFSET_BASIS); N];
    for (h, l) in hs.iter_mut().zip(lists) {
        h.word(u64::from(l.pinger.0));
        h.word(l.entries.len() as u64);
    }
    let longest = lists.iter().map(|l| l.entries.len()).max().unwrap_or(0);
    for i in 0..longest {
        for (h, l) in hs.iter_mut().zip(lists) {
            let Some(e) = l.entries.get(i) else {
                continue;
            };
            let route = l.route(i);
            h.option(e.path.map(|p| p.0));
            h.word(route.len() as u64);
            for n in route {
                h.word(u64::from(n.0));
            }
            h.word(u64::from(e.responder.0));
            h.option(e.waypoint.map(|w| w.0));
        }
    }
    for (h, l) in hs.iter_mut().zip(lists) {
        h.word(l.interval_us);
        h.word(u64::from(l.base_sport));
        h.word(u64::from(l.port_range));
        h.word(u64::from(l.dport));
    }
    hs.map(|h| h.0)
}

/// Word-wise FNV-1a: the state of [`Pinglist::content_stamp`].
#[derive(Clone, Copy)]
struct StampHasher(u64);

impl StampHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    fn option(&mut self, w: Option<u32>) {
        self.word(u64::from(w.is_some()));
        self.word(u64::from(w.unwrap_or(0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::entry_key;

    /// `sample()`'s header over `entries`, each with its route.
    fn list(entries: Vec<(PingEntry, Vec<NodeId>)>) -> Pinglist {
        let mut l = Pinglist {
            version: 3,
            pinger: NodeId(100),
            entries: Vec::new(),
            routes: Runs::default(),
            interval_us: 100_000,
            base_sport: 33000,
            port_range: 16,
            dport: 53533,
            stamp: 0,
        };
        for (e, route) in entries {
            l.push(e, route);
        }
        l
    }

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&n| NodeId(n)).collect()
    }

    fn sample() -> Pinglist {
        list(vec![
            (
                PingEntry {
                    path: Some(PathId(7)),
                    responder: NodeId(101),
                    waypoint: Some(NodeId(2)),
                },
                nodes(&[100, 1, 2, 101]),
            ),
            (
                PingEntry {
                    path: None,
                    responder: NodeId(102),
                    waypoint: None,
                },
                nodes(&[100, 1, 102]),
            ),
        ])
    }

    /// `l` with its entries and routes edited as pairs.
    fn rebuilt(l: &Pinglist, edit: impl FnOnce(&mut Vec<(PingEntry, Vec<NodeId>)>)) -> Pinglist {
        let mut pairs: Vec<_> = l.iter().map(|(e, r)| (*e, r.to_vec())).collect();
        edit(&mut pairs);
        Pinglist {
            version: l.version,
            stamp: l.stamp,
            ..list(pairs)
        }
    }

    #[test]
    fn num_paths_excludes_in_rack() {
        assert_eq!(sample().num_paths(), 1);
    }

    /// The stamp is a fixed function of the content, the same on every
    /// platform and toolchain: a moved value here changes what agents
    /// accept as a seal. The literal is FNV-1a over `sample()`'s words as
    /// `content_stamp` documents them: 100, 2; 1, 7, 4, 100, 1, 2, 101,
    /// 101, 1, 2; 0, 0, 3, 100, 1, 102, 102, 0, 0; 100 000, 33 000, 16,
    /// 53 533.
    #[test]
    fn content_stamp_is_pinned() {
        assert_eq!(sample().content_stamp(), 0xe3b2_34d1_48db_5026);
    }

    #[test]
    fn content_stamp_ignores_the_version_and_sees_every_field() {
        let p = sample();
        let mut q = p.clone();
        q.version += 1;
        q.stamp = 7;
        assert_eq!(p.content_stamp(), q.content_stamp());
        let edits: [fn(&mut Pinglist); 10] = [
            |l| l.pinger = NodeId(99),
            |l| l.entries[0].path = None,
            |l| *l = rebuilt(l, |es| es[1].1.push(NodeId(3))),
            |l| l.entries[0].responder = NodeId(102),
            |l| l.entries[1].waypoint = Some(NodeId(0)),
            |l| *l = rebuilt(l, |es| es.swap(0, 1)),
            |l| l.interval_us += 1 << 32,
            |l| l.base_sport += 1,
            |l| l.port_range += 1,
            |l| l.dport += 1,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut q = p.clone();
            edit(&mut q);
            assert_ne!(p.content_stamp(), q.content_stamp(), "edit {i}");
        }
    }

    /// A route lives beside its entry, not in it: a list whose routes
    /// alone differ — one node, or the boundary between two runs over the
    /// same nodes — is a different list to equality, to the re-dispatch
    /// check, to the seal and to the differ's key of the entry.
    #[test]
    fn a_route_only_difference_is_seen() {
        let p = sample();
        let hop = rebuilt(&p, |es| es[0].1[1] = NodeId(9));
        let slip = rebuilt(&p, |es| {
            let moved = es[1].1.remove(0);
            es[0].1.push(moved);
        });
        assert_eq!(p.routes.items().len(), slip.routes.items().len());
        for q in [hop, slip] {
            assert_eq!(p.entries, q.entries);
            assert_ne!(p, q);
            assert!(!p.same_assignment(&q));
            assert_ne!(p.content_stamp(), q.content_stamp());
            assert_ne!(
                entry_key(&p.entries[0], p.route(0)),
                entry_key(&q.entries[0], q.route(0))
            );
        }
    }

    /// Sealing lists two at a time stamps each as it would alone, the
    /// shorter of a pair and an odd one out included.
    #[test]
    fn sealing_in_pairs_stamps_each_list_as_alone() {
        let p = sample();
        let longer = rebuilt(&p, |es| es.push(es[0].clone()));
        let empty = rebuilt(&p, Vec::clear);
        let mut lists = [longer, p, empty.clone(), empty];
        lists[3].pinger = NodeId(7);
        for n in 0..=lists.len() {
            let mut sealed = lists[..n].to_vec();
            seal_all(&mut sealed);
            for (l, s) in lists.iter().zip(&sealed) {
                assert_eq!(s.stamp, l.content_stamp(), "{n} lists");
            }
        }
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
