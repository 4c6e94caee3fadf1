//! Wire-level pinglist dispatch: canonical entry encoding, per-entry
//! deployment diffs, and the byte accounting behind
//! `PlanUpdated::bytes_dispatched`.
//!
//! The single-process runtime hands `Pinglist`s to pingers by reference,
//! so "dispatch cost" used to be countable only in lists
//! (`lists_redispatched`). The distributed control plane
//! (`detector-agent`) ships lists to pinger agents over a wire, where
//! cost is *bytes* — and the PR 5 segmented `PathId` ranges make a
//! per-entry diff well-defined: a single-cell delta leaves every other
//! cell's entries bit-identical, so only the touched entries need to
//! travel.
//!
//! This module is the shared vocabulary between the two tiers:
//!
//! * [`encode_entry`] / [`decode_entry`] — the canonical byte form of a
//!   [`PingEntry`]. The agent crate's frame codec reuses these, so the
//!   `bytes_dispatched` the controller reports is the length of the
//!   bytes that actually travel (asserted in `detector-agent` tests).
//! * [`entry_key`] — a stable 64-bit key over the canonical encoding
//!   (FNV-1a, *not* `DefaultHasher`: removals are addressed by key
//!   across process boundaries, so the hash must not depend on the
//!   process or std version).
//! * [`diff_deployment`] — turns two deployments into a
//!   [`DeploymentDiff`]: per-entry add/remove scripts where the edit is
//!   small, whole-list replacement where it is not (or where a diff
//!   cannot reproduce the new list exactly), removals for pingers that
//!   left duty, and the plan's `PathIdRange` re-bases.
//!
//! Both drivers (`Detector::apply`, the pipelined dispatch stage) and
//! the distributed controller compute their dispatch stats through
//! [`diff_deployment`], so `entries_diffed`/`bytes_dispatched` are
//! deterministic and identical across all three — the equivalence
//! harnesses compare them un-normalized.

use std::collections::HashMap;

use detector_core::types::{NodeId, PathId, PathIdRange};

use crate::controller::Deployment;
use crate::pinglist::{PingEntry, Pinglist};

/// Per-frame wire overhead: a `u32` length prefix plus the one-byte
/// frame tag. Every dispatch-byte figure in this module includes it, so
/// the model matches what the agent transport actually writes.
pub const FRAME_OVERHEAD: usize = 5;

/// Canonical byte encoding of one [`PingEntry`] (big-endian,
/// length-prefixed route). This is *the* wire form: the agent frame
/// codec delegates here, and [`entry_key`] hashes exactly these bytes.
pub fn encode_entry(e: &PingEntry, out: &mut Vec<u8>) {
    match e.path {
        Some(p) => {
            out.push(1);
            out.extend_from_slice(&p.0.to_be_bytes());
        }
        None => out.push(0),
    }
    out.extend_from_slice(&(e.route.len() as u16).to_be_bytes());
    for n in &e.route {
        out.extend_from_slice(&n.0.to_be_bytes());
    }
    out.extend_from_slice(&e.responder.0.to_be_bytes());
    match e.waypoint {
        Some(w) => {
            out.push(1);
            out.extend_from_slice(&w.0.to_be_bytes());
        }
        None => out.push(0),
    }
}

/// Length of [`encode_entry`]'s output without materializing it.
pub fn encoded_entry_len(e: &PingEntry) -> usize {
    let path = if e.path.is_some() { 5 } else { 1 };
    let waypoint = if e.waypoint.is_some() { 5 } else { 1 };
    path + 2 + 4 * e.route.len() + 4 + waypoint
}

/// Decodes one entry from the front of `buf`, advancing it. `None` on
/// truncated or malformed input (the caller maps that to its own error).
pub fn decode_entry(buf: &mut &[u8]) -> Option<PingEntry> {
    fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        if buf.len() < n {
            return None;
        }
        let (head, rest) = buf.split_at(n);
        *buf = rest;
        Some(head)
    }
    fn take_u32(buf: &mut &[u8]) -> Option<u32> {
        take(buf, 4).map(|b| u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }
    let path = match take(buf, 1)?[0] {
        0 => None,
        1 => Some(PathId(take_u32(buf)?)),
        _ => return None,
    };
    let route_len = u16::from_be_bytes(take(buf, 2)?.try_into().expect("2 bytes")) as usize;
    // Two bytes off the wire must not reserve 256 KB: the hops have to
    // be there before room is made for them.
    if buf.len() < route_len * 4 {
        return None;
    }
    let mut route = Vec::with_capacity(route_len);
    for _ in 0..route_len {
        route.push(NodeId(take_u32(buf)?));
    }
    let responder = NodeId(take_u32(buf)?);
    let waypoint = match take(buf, 1)?[0] {
        0 => None,
        1 => Some(NodeId(take_u32(buf)?)),
        _ => return None,
    };
    Some(PingEntry {
        path,
        route,
        responder,
        waypoint,
    })
}

/// Stable 64-bit identity of an entry: FNV-1a over its canonical
/// encoding. `EntryRemove` frames address entries by this key, so it
/// must be identical across processes, architectures and std versions —
/// which rules out `DefaultHasher`.
pub fn entry_key(e: &PingEntry) -> u64 {
    let mut bytes = Vec::with_capacity(encoded_entry_len(e));
    encode_entry(e, &mut bytes);
    fnv1a64(&bytes)
}

/// FNV-1a, the classic parameters.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bytes of a pinglist's non-entry fields on the wire (version, pinger,
/// interval, ports, stamp).
pub const LIST_HEADER_BYTES: usize = 8 + 4 + 8 + 2 + 2 + 2 + 8;

/// Wire bytes of a whole list shipped as one `ListReplace` frame.
pub fn encoded_list_len(list: &Pinglist) -> usize {
    FRAME_OVERHEAD
        + LIST_HEADER_BYTES
        + 4 // entry count
        + list.entries.iter().map(encoded_entry_len).sum::<usize>()
}

/// How one pinger's list changes on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum ListUpdate {
    /// Ship the whole list (new pinger, header change, or a diff that
    /// could not reproduce the target exactly / would not be smaller).
    Replace(Pinglist),
    /// Per-entry edit script: apply removals (by [`entry_key`]), then
    /// insert `added` entries at their target indices in ascending
    /// order, then adopt `(version, stamp)` — after which the rebuilt
    /// list is byte-identical to the dispatched one (the differ verifies
    /// this before choosing a diff over a replace).
    Diff {
        /// The pinger whose list this edits.
        pinger: NodeId,
        /// Version of the post-edit list.
        version: u64,
        /// Content stamp of the post-edit list (the seal; agents check
        /// their rebuilt list against it).
        stamp: u64,
        /// Keys of entries to remove, in the old list's order.
        removed: Vec<u64>,
        /// `(index in new list, entry)` insertions, ascending by index.
        added: Vec<(u32, PingEntry)>,
    },
    /// The pinger left duty; drop its list and binding.
    Remove(NodeId),
}

impl ListUpdate {
    /// The pinger this update addresses.
    pub fn pinger(&self) -> NodeId {
        match self {
            ListUpdate::Replace(list) => list.pinger,
            ListUpdate::Diff { pinger, .. } => *pinger,
            ListUpdate::Remove(p) => *p,
        }
    }

    /// Entries this update moves (added + removed; a replace counts all
    /// its entries) — the `entries_diffed` contribution.
    pub fn entries_diffed(&self) -> usize {
        match self {
            ListUpdate::Replace(list) => list.entries.len(),
            ListUpdate::Diff { removed, added, .. } => removed.len() + added.len(),
            ListUpdate::Remove(_) => 0,
        }
    }

    /// Exact wire bytes of the frames realizing this update (size model;
    /// `detector-agent` asserts its codec matches).
    pub fn wire_bytes(&self) -> usize {
        match self {
            ListUpdate::Replace(list) => encoded_list_len(list),
            ListUpdate::Diff { removed, added, .. } => {
                // EntryRemove{pinger, key} per removal…
                removed.len() * (FRAME_OVERHEAD + 4 + 8)
                    // …EntryAdd{pinger, index, entry} per insertion…
                    + added
                        .iter()
                        .map(|(_, e)| FRAME_OVERHEAD + 4 + 4 + encoded_entry_len(e))
                        .sum::<usize>()
                    // …and the closing ListSeal{pinger, version, stamp}.
                    + (FRAME_OVERHEAD + 4 + 8 + 8)
            }
            ListUpdate::Remove(_) => FRAME_OVERHEAD + 4,
        }
    }
}

/// Everything a deployment change puts on the wire.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeploymentDiff {
    /// Plan cells whose `PathIdRange` moved (old, new) — broadcast so
    /// agents can retire ids of the old range.
    pub rebases: Vec<(PathIdRange, PathIdRange)>,
    /// Per-pinger updates, ordered by the new deployment's list order
    /// (removals of departed pingers last, ascending).
    pub updates: Vec<ListUpdate>,
}

impl DeploymentDiff {
    /// Total entries added/removed/replaced across all updates.
    pub fn entries_diffed(&self) -> usize {
        self.updates.iter().map(ListUpdate::entries_diffed).sum()
    }

    /// Exact wire bytes of the whole diff, including `RangeRebase`
    /// frames (old + new range: 2 × (base `u32` + capacity `u32`)).
    pub fn wire_bytes(&self) -> usize {
        self.rebases.len() * (FRAME_OVERHEAD + 16)
            + self
                .updates
                .iter()
                .map(ListUpdate::wire_bytes)
                .sum::<usize>()
    }

    /// True when nothing needs to travel.
    pub fn is_empty(&self) -> bool {
        self.rebases.is_empty() && self.updates.is_empty()
    }
}

/// Dispatch cost of installing one deployment, as reported by
/// `PlanUpdated`. All three fields are deterministic functions of the
/// old and new deployments, so the sequential, pipelined and distributed
/// drivers must agree on them exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Lists re-dispatched (fresh versions; see
    /// [`Deployment::rebase_versions`]).
    pub lists_redispatched: usize,
    /// Entries that traveled: added + removed across diffs, plus every
    /// entry of whole-list replacements.
    pub entries_diffed: usize,
    /// Exact wire bytes of the dispatch ([`DeploymentDiff::wire_bytes`]).
    pub bytes_dispatched: u64,
}

/// Pairs up per-cell `PathIdRange`s captured before and after a re-plan,
/// keeping the cells whose range actually moved. Cells are positional
/// (a re-plan never reorders them); a first build has no "before", which
/// yields no re-bases.
pub fn rebase_pairs(
    before: Option<&[PathIdRange]>,
    after: Option<&[PathIdRange]>,
) -> Vec<(PathIdRange, PathIdRange)> {
    match (before, after) {
        (Some(b), Some(a)) => b
            .iter()
            .zip(a.iter())
            .filter(|(old, new)| old.base != new.base)
            .map(|(old, new)| (*old, *new))
            .collect(),
        _ => Vec::new(),
    }
}

/// Computes the wire-level diff that turns `prev`'s pinglists into
/// `next`'s. Call *after* [`Deployment::rebase_versions`], so lists
/// whose assignment did not change already share a version and are
/// skipped entirely (zero bytes — the whole point of minimal
/// re-dispatch).
///
/// For each changed list the differ builds an order-preserving edit
/// script keyed by [`entry_key`]: entries whose key left the list are
/// removed, new keys are inserted at their target index. If the
/// surviving entries changed relative order (they cannot, under the
/// controller's matrix-order assembly, but the differ does not assume
/// that), or the script would not be smaller than the list, it falls
/// back to a whole-list `Replace`. Either way the receiver ends up
/// byte-identical to `next` — verified here, not trusted.
pub fn diff_deployment(
    prev: &Deployment,
    next: &Deployment,
    rebases: &[(PathIdRange, PathIdRange)],
) -> DeploymentDiff {
    let mut updates = Vec::new();
    let prev_by_pinger: HashMap<NodeId, &Pinglist> =
        prev.pinglists.iter().map(|l| (l.pinger, l)).collect();

    for list in &next.pinglists {
        match prev_by_pinger.get(&list.pinger) {
            None => updates.push(ListUpdate::Replace(list.clone())),
            Some(old) if old.same_assignment(list) => {} // Nothing travels.
            Some(old) => updates.push(diff_list(old, list)),
        }
    }
    let next_pingers: HashMap<NodeId, ()> = next.pinglists.iter().map(|l| (l.pinger, ())).collect();
    let mut removed: Vec<NodeId> = prev
        .pinglists
        .iter()
        .map(|l| l.pinger)
        .filter(|p| !next_pingers.contains_key(p))
        .collect();
    removed.sort_unstable();
    updates.extend(removed.into_iter().map(ListUpdate::Remove));

    DeploymentDiff {
        rebases: rebases.to_vec(),
        updates,
    }
}

/// Whole-deployment dispatch as if every list traveled in full — the
/// pre-diff baseline the `dispatch_bytes` bench compares against.
pub fn full_dispatch_bytes(dep: &Deployment) -> usize {
    dep.pinglists.iter().map(encoded_list_len).sum()
}

fn diff_list(old: &Pinglist, new: &Pinglist) -> ListUpdate {
    // Header changes re-key every probe stream; ship the whole list.
    if old.interval_us != new.interval_us
        || old.base_sport != new.base_sport
        || old.port_range != new.port_range
        || old.dport != new.dport
    {
        return ListUpdate::Replace(new.clone());
    }

    // Multiset of keys on each side (duplicate entries would be a
    // controller bug, but the differ stays correct if they appear).
    let mut old_count: HashMap<u64, usize> = HashMap::new();
    for e in &old.entries {
        *old_count.entry(entry_key(e)).or_default() += 1;
    }
    let mut new_count: HashMap<u64, usize> = HashMap::new();
    for e in &new.entries {
        *new_count.entry(entry_key(e)).or_default() += 1;
    }

    // Removals: old entries beyond the count the new list retains.
    let mut keep_budget = new_count.clone();
    let mut removed = Vec::new();
    let mut kept: Vec<u64> = Vec::new();
    for e in &old.entries {
        let k = entry_key(e);
        match keep_budget.get_mut(&k) {
            Some(n) if *n > 0 => {
                *n -= 1;
                kept.push(k);
            }
            _ => removed.push(k),
        }
    }
    // Insertions: new entries beyond what the old list supplies, at
    // their index in the new list.
    let mut supply = old_count;
    for k in &removed {
        if let Some(n) = supply.get_mut(k) {
            *n -= 1;
        }
    }
    let mut added: Vec<(u32, PingEntry)> = Vec::new();
    let mut survivors: Vec<u64> = Vec::new();
    for (i, e) in new.entries.iter().enumerate() {
        let k = entry_key(e);
        match supply.get_mut(&k) {
            Some(n) if *n > 0 => {
                *n -= 1;
                survivors.push(k);
            }
            _ => added.push((i as u32, e.clone())),
        }
    }

    // The edit script reproduces `new` exactly only if the surviving
    // entries appear in the same relative order on both sides.
    let reproduces = kept == survivors;
    let diff = ListUpdate::Diff {
        pinger: new.pinger,
        version: new.version,
        stamp: new.stamp,
        removed,
        added,
    };
    if reproduces && diff.wire_bytes() < encoded_list_len(new) {
        diff
    } else {
        ListUpdate::Replace(new.clone())
    }
}

/// Applies one [`ListUpdate`] to a receiver-side list map — the exact
/// procedure a pinger agent runs on its frames; factored here so the
/// differ's tests and the agent crate share one implementation.
///
/// Returns `false` when a `Diff` addressed an unknown pinger or its
/// rebuilt list fails the stamp check — a protocol violation the caller
/// surfaces (it cannot happen for diffs produced by [`diff_deployment`],
/// which verifies reproduction before choosing a diff).
#[must_use]
pub fn apply_list_update(lists: &mut HashMap<NodeId, Pinglist>, update: &ListUpdate) -> bool {
    match update {
        ListUpdate::Replace(list) => {
            lists.insert(list.pinger, list.clone());
            true
        }
        ListUpdate::Remove(p) => {
            lists.remove(p);
            true
        }
        ListUpdate::Diff {
            pinger,
            version,
            stamp,
            removed,
            added,
        } => {
            let Some(list) = lists.get_mut(pinger) else {
                return false;
            };
            for k in removed {
                if let Some(pos) = list.entries.iter().position(|e| entry_key(e) == *k) {
                    list.entries.remove(pos);
                }
            }
            for (i, e) in added {
                let i = (*i as usize).min(list.entries.len());
                list.entries.insert(i, e.clone());
            }
            list.version = *version;
            list.seal();
            list.stamp == *stamp
        }
    }
}

/// [`diff_deployment`] + [`Deployment::rebase_versions`] in install
/// order, returning the diff alongside the stats — the one procedure
/// every driver's install path goes through (the plan half of
/// [`window`](crate::window)).
pub fn rebase_and_diff(
    prev: &Deployment,
    next: &mut Deployment,
    rebases: &[(PathIdRange, PathIdRange)],
) -> (DeploymentDiff, DispatchStats) {
    let lists_redispatched = next.rebase_versions(prev);
    let diff = diff_deployment(prev, next, rebases);
    let stats = DispatchStats {
        lists_redispatched,
        entries_diffed: diff.entries_diffed(),
        bytes_dispatched: diff.wire_bytes() as u64,
    };
    (diff, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_core::pmc::ProbeMatrix;

    fn entry(path: Option<u32>, route: &[u32], responder: u32, waypoint: Option<u32>) -> PingEntry {
        PingEntry {
            path: path.map(PathId),
            route: route.iter().map(|&n| NodeId(n)).collect(),
            responder: NodeId(responder),
            waypoint: waypoint.map(NodeId),
        }
    }

    fn list(pinger: u32, version: u64, entries: Vec<PingEntry>) -> Pinglist {
        let mut l = Pinglist {
            version,
            pinger: NodeId(pinger),
            entries,
            interval_us: 100_000,
            base_sport: 33000,
            port_range: 16,
            dport: 53533,
            stamp: 0,
        };
        l.seal();
        l
    }

    fn deployment(version: u64, lists: Vec<Pinglist>) -> Deployment {
        Deployment {
            matrix: ProbeMatrix::from_paths(0, Vec::new()),
            pinglists: lists,
            version,
        }
    }

    #[test]
    fn entry_encoding_round_trips_and_len_matches() {
        let cases = vec![
            entry(Some(7), &[1, 2, 3, 4], 4, Some(2)),
            entry(None, &[9, 8], 8, None),
            entry(Some(u32::MAX), &[], 0, None),
        ];
        for e in cases {
            let mut bytes = Vec::new();
            encode_entry(&e, &mut bytes);
            assert_eq!(bytes.len(), encoded_entry_len(&e));
            let mut buf = &bytes[..];
            assert_eq!(decode_entry(&mut buf).as_ref(), Some(&e));
            assert!(buf.is_empty(), "decode must consume exactly the encoding");
        }
    }

    #[test]
    fn entry_key_is_stable_and_content_sensitive() {
        let a = entry(Some(7), &[1, 2, 3], 3, None);
        // Keys must be reproducible across processes: pin the value.
        assert_eq!(entry_key(&a), entry_key(&a.clone()));
        let mut bytes = Vec::new();
        encode_entry(&a, &mut bytes);
        assert_eq!(entry_key(&a), fnv1a64(&bytes));
        let b = entry(Some(8), &[1, 2, 3], 3, None);
        assert_ne!(entry_key(&a), entry_key(&b));
    }

    #[test]
    fn unchanged_lists_ship_nothing() {
        let l = list(5, 1, vec![entry(Some(1), &[5, 1, 6], 6, None)]);
        let prev = deployment(1, vec![l.clone()]);
        let mut next = deployment(2, vec![list(5, 2, l.entries.clone())]);
        let (diff, stats) = rebase_and_diff(&prev, &mut next, &[]);
        assert!(diff.is_empty());
        assert_eq!(stats, DispatchStats::default());
        // rebase_versions rolled the untouched list back to its old
        // version, exactly as the single-process install does.
        assert_eq!(next.pinglists[0].version, 1);
    }

    #[test]
    fn single_entry_change_diffs_not_replaces() {
        let shared: Vec<PingEntry> = (0..20)
            .map(|i| entry(Some(i), &[5, 1, i + 100], i + 100, Some(1)))
            .collect();
        let mut old_entries = shared.clone();
        old_entries.push(entry(Some(90), &[5, 2, 7], 7, Some(2)));
        let mut new_entries = shared.clone();
        new_entries.insert(3, entry(Some(91), &[5, 3, 8], 8, Some(3)));

        let prev = deployment(1, vec![list(5, 1, old_entries)]);
        let mut next = deployment(2, vec![list(5, 2, new_entries)]);
        let (diff, stats) = rebase_and_diff(&prev, &mut next, &[]);
        assert_eq!(diff.updates.len(), 1);
        match &diff.updates[0] {
            ListUpdate::Diff { removed, added, .. } => {
                assert_eq!(removed.len(), 1);
                assert_eq!(added.len(), 1);
                assert_eq!(added[0].0, 3);
            }
            other => panic!("expected a diff, got {other:?}"),
        }
        assert_eq!(stats.lists_redispatched, 1);
        assert_eq!(stats.entries_diffed, 2);
        assert!(
            (stats.bytes_dispatched as usize) < encoded_list_len(&next.pinglists[0]),
            "diff must beat the full list"
        );
    }

    #[test]
    fn applying_the_diff_reproduces_the_new_list_exactly() {
        // Shuffle-ish change: drop two entries, add three, keep order.
        let old_entries: Vec<PingEntry> = (0..12)
            .map(|i| entry(Some(i), &[9, 1, i + 50], i + 50, None))
            .collect();
        let mut new_entries: Vec<PingEntry> = old_entries
            .iter()
            .filter(|e| e.path != Some(PathId(4)) && e.path != Some(PathId(9)))
            .cloned()
            .collect();
        new_entries.insert(0, entry(Some(40), &[9, 2, 41], 41, Some(2)));
        new_entries.push(entry(None, &[9, 1, 10], 10, None));
        new_entries.insert(5, entry(Some(41), &[9, 2, 42], 42, None));

        let prev = deployment(3, vec![list(9, 3, old_entries)]);
        let mut next = deployment(4, vec![list(9, 4, new_entries)]);
        let (diff, _) = rebase_and_diff(&prev, &mut next, &[]);

        let mut lists: HashMap<NodeId, Pinglist> = prev
            .pinglists
            .iter()
            .map(|l| (l.pinger, l.clone()))
            .collect();
        for u in &diff.updates {
            assert!(apply_list_update(&mut lists, u));
        }
        assert_eq!(lists[&NodeId(9)], next.pinglists[0]);
    }

    #[test]
    fn header_change_forces_replace() {
        let e = vec![entry(Some(1), &[5, 1, 6], 6, None)];
        let old = list(5, 1, e.clone());
        let mut new = list(5, 2, e);
        new.interval_us = 50_000;
        new.seal();
        let prev = deployment(1, vec![old]);
        let mut next = deployment(2, vec![new]);
        let (diff, _) = rebase_and_diff(&prev, &mut next, &[]);
        assert!(matches!(diff.updates[0], ListUpdate::Replace(_)));
    }

    #[test]
    fn departed_and_new_pingers_are_remove_and_replace() {
        let prev = deployment(1, vec![list(5, 1, vec![entry(None, &[5, 1, 6], 6, None)])]);
        let mut next = deployment(2, vec![list(7, 2, vec![entry(None, &[7, 1, 8], 8, None)])]);
        let (diff, stats) = rebase_and_diff(&prev, &mut next, &[]);
        assert_eq!(diff.updates.len(), 2);
        assert!(matches!(&diff.updates[0], ListUpdate::Replace(l) if l.pinger == NodeId(7)));
        assert_eq!(diff.updates[1], ListUpdate::Remove(NodeId(5)));
        assert_eq!(stats.lists_redispatched, 1);
        let expect = encoded_list_len(&next.pinglists[0]) + FRAME_OVERHEAD + 4;
        assert_eq!(stats.bytes_dispatched as usize, expect);
    }

    #[test]
    fn rebase_pairs_keep_only_moved_cells() {
        let before = vec![PathIdRange::new(0, 10), PathIdRange::new(10, 10)];
        let after = vec![PathIdRange::new(0, 10), PathIdRange::new(20, 12)];
        let pairs = rebase_pairs(Some(&before), Some(&after));
        assert_eq!(pairs, vec![(before[1], after[1])]);
        assert!(rebase_pairs(None, Some(&after)).is_empty());
    }

    #[test]
    fn wire_bytes_cover_rebases() {
        let diff = DeploymentDiff {
            rebases: vec![(PathIdRange::new(0, 4), PathIdRange::new(8, 6))],
            updates: Vec::new(),
        };
        assert_eq!(diff.wire_bytes(), FRAME_OVERHEAD + 16);
    }

    /// The wire-cost claim of per-entry dispatch: one Fattree(16) link
    /// going down ships at least 10× fewer bytes as entry diffs than the
    /// pre-diff protocol, which replaced every changed list whole.
    #[test]
    fn single_link_delta_diffs_ship_ten_times_below_whole_lists() {
        use crate::{Controller, SharedTopology, SystemConfig};
        use detector_topology::{Fattree, TopologyEvent};
        use std::collections::HashSet;
        use std::sync::Arc;

        let ft = Arc::new(Fattree::new(16).unwrap());
        let mut ctl = Controller::new(ft.clone() as SharedTopology, SystemConfig::default());
        let healthy = HashSet::new();
        let old = ctl.build_deployment(&healthy).unwrap();
        let ranges_before = ctl.probe_plan().map(|p| p.cell_ranges());
        ctl.apply_event(&TopologyEvent::LinkDown {
            link: ft.ea_link(0, 0, 0),
        })
        .unwrap();
        let mut new = ctl.build_deployment(&healthy).unwrap();
        let ranges_after = ctl.probe_plan().map(|p| p.cell_ranges());
        let rebases = rebase_pairs(ranges_before.as_deref(), ranges_after.as_deref());
        let (diff, _) = rebase_and_diff(&old, &mut new, &rebases);

        // Pre-diff protocol: every update travels as a whole list
        // (`ListReplace`), removals as `ListRemove`.
        let whole: usize = diff
            .updates
            .iter()
            .map(|u| match u {
                ListUpdate::Remove(_) => FRAME_OVERHEAD + 4,
                ListUpdate::Replace(list) => encoded_list_len(list),
                ListUpdate::Diff { pinger, .. } => new
                    .pinglists
                    .iter()
                    .find(|l| l.pinger == *pinger)
                    .map(encoded_list_len)
                    .unwrap(),
            })
            .sum();

        assert!(
            diff.wire_bytes() * 10 <= whole,
            "diff {} B vs whole-list {whole} B",
            diff.wire_bytes()
        );
        // The counts README quotes.
        assert_eq!(
            (
                diff.wire_bytes(),
                whole,
                diff.entries_diffed(),
                diff.updates.len(),
                old.pinglists.len()
            ),
            (792, 8504, 16, 8, 180)
        );
    }
}
