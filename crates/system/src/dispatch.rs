//! Pinglist dispatch: per-entry deployment diffs and their cost,
//! `PlanUpdated::bytes_dispatched`.
//!
//! The single-process runtime hands `Pinglist`s to pingers by reference;
//! the distributed control plane (`detector-agent`) ships them to pinger
//! agents over a wire, where cost is *bytes*. Segmented `PathId` ranges
//! make a per-entry diff well-defined: a single-cell delta leaves every
//! other cell's entries bit-identical, so only the touched entries need
//! to travel.
//!
//! * [`entry_key`] — a stable 64-bit key over an entry's byte form
//!   (FNV-1a, *not* `DefaultHasher`: removals are addressed by key
//!   across process boundaries, so the hash must not depend on the
//!   process or std version). A list's seal,
//!   [`Pinglist::content_stamp`], crosses the same boundary and uses the
//!   same FNV parameters, one step per 32/64-bit word instead of per
//!   byte.
//! * [`diff_deployment`] — turns two deployments into one
//!   [`ListUpdate`] per changed list: per-entry edit scripts where the
//!   edit is small, whole-list replacement where it is not (or where a
//!   diff cannot reproduce the new list exactly), removals for pingers
//!   that left duty.
//! * [`apply_list_update`] — what a receiver does with one
//!   [`ListUpdate`].
//!
//! Each update travels as one frame of the [`wire`](crate::wire) codec,
//! and `bytes_dispatched` is the length of those frames. A plan cell
//! whose `PathIdRange` moved ships nothing beyond the list updates that
//! carry its re-numbered entries. Every driver
//! (`Detector::apply`, the pipelined dispatch stage, the distributed
//! controller) computes its dispatch stats through [`rebase_and_diff`],
//! so they are deterministic and identical across all three — the
//! equivalence harnesses compare them un-normalized.

use std::collections::HashMap;

use detector_core::types::{NodeId, PathIdRange};

use crate::controller::Deployment;
use crate::pinglist::{PingEntry, Pinglist};
use crate::wire::{encode_entry, encode_update};

/// Stable 64-bit identity of an entry: FNV-1a over its byte form. Edit
/// scripts address removals by this key, so it must be identical across
/// processes, architectures and std versions — which rules out
/// `DefaultHasher`.
pub fn entry_key(e: &PingEntry) -> u64 {
    // Room for a route of a dozen hops, so most entries never regrow.
    let mut bytes = Vec::with_capacity(64);
    encode_entry(e, &mut bytes);
    fnv1a64(&bytes)
}

/// FNV-1a's 64-bit offset basis, shared by [`fnv1a64`] and
/// [`Pinglist::content_stamp`].
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a's 64-bit prime, shared as [`FNV_OFFSET_BASIS`] is.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, the classic parameters, one step per byte.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// How one pinger's list changes on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum ListUpdate {
    /// Ship the whole list (new pinger, header change, or a diff that
    /// could not reproduce the target exactly / would not be smaller).
    Replace(Pinglist),
    /// Per-entry edit script: for each removed key drop the first entry
    /// with that [`entry_key`], then insert `added` entries at their target indices in ascending
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
    /// Bytes of the dispatch's frames, one per list update, as
    /// [`wire`](crate::wire) encodes them.
    pub bytes_dispatched: u64,
}

/// Pairs up per-cell `PathIdRange`s captured before and after a re-plan,
/// keeping the cells whose range actually moved. Cells are positional
/// (a re-plan never reorders them); a first build has no "before", which
/// yields no re-bases. No driver ships the pairs; this stays for the
/// benchmark's traced loop (`benchmark/src/traced.rs`), which still
/// computes them for [`rebase_and_diff`].
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

/// Computes the list updates that turn `prev`'s pinglists into
/// `next`'s, ordered by the new deployment's list order (removals of
/// departed pingers last, ascending). Call *after*
/// [`Deployment::rebase_versions`], so lists whose assignment did not
/// change already share a version and are skipped entirely (zero bytes —
/// the whole point of minimal re-dispatch).
///
/// For each changed list the differ builds an order-preserving edit
/// script keyed by [`entry_key`]: entries whose key left the list are
/// removed, new keys are inserted at their target index. If the
/// surviving entries changed relative order (they cannot, under the
/// controller's matrix-order assembly, but the differ does not assume
/// that), or the script would not be smaller than the list, it falls
/// back to a whole-list `Replace`. Either way the receiver ends up
/// byte-identical to `next` — verified here, not trusted.
pub fn diff_deployment(prev: &Deployment, next: &Deployment) -> Vec<ListUpdate> {
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
    updates
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

    // Removals: old entries beyond the count the new list keeps, taken
    // from the front of each key's run — the ones `apply_list_update`,
    // which drops the first match, takes out.
    let mut surplus = old_count.clone();
    for (k, n) in &new_count {
        if let Some(s) = surplus.get_mut(k) {
            *s = s.saturating_sub(*n);
        }
    }
    let mut removed = Vec::new();
    let mut kept: Vec<u64> = Vec::new();
    for e in &old.entries {
        let k = entry_key(e);
        match surplus.get_mut(&k) {
            Some(n) if *n > 0 => {
                *n -= 1;
                removed.push(k);
            }
            _ => kept.push(k),
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
    let whole = ListUpdate::Replace(new.clone());
    if reproduces && encode_update(&diff).len() < encode_update(&whole).len() {
        diff
    } else {
        whole
    }
}

/// Applies one [`ListUpdate`] to a receiver-side list map — the exact
/// procedure a pinger agent runs on each `ListUpdate` frame; factored
/// here so the differ's tests and the agent crate share one
/// implementation.
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

/// [`Deployment::rebase_versions`] + [`diff_deployment`] in install
/// order, returning the list updates alongside the stats — the one
/// procedure every driver's install path goes through (the plan half of
/// [`window`](crate::window)).
///
/// `_rebases` is not read: it stays for the benchmark's traced loop
/// (`benchmark/src/traced.rs`), which passes [`rebase_pairs`]' output.
pub fn rebase_and_diff(
    prev: &Deployment,
    next: &mut Deployment,
    _rebases: &[(PathIdRange, PathIdRange)],
) -> (Vec<ListUpdate>, DispatchStats) {
    let lists_redispatched = next.rebase_versions(prev);
    let updates = diff_deployment(prev, next);
    let stats = DispatchStats {
        lists_redispatched,
        entries_diffed: updates.iter().map(ListUpdate::entries_diffed).sum(),
        bytes_dispatched: updates.iter().map(|u| encode_update(u).len() as u64).sum(),
    };
    (updates, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Frame;
    use detector_core::pmc::ProbeMatrix;
    use detector_core::types::PathId;
    use proptest::prelude::{prop_assert, prop_assert_eq};

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
        let (updates, stats) = rebase_and_diff(&prev, &mut next, &[]);
        assert!(updates.is_empty());
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
        let (updates, stats) = rebase_and_diff(&prev, &mut next, &[]);
        assert_eq!(updates.len(), 1);
        match &updates[0] {
            ListUpdate::Diff { removed, added, .. } => {
                assert_eq!(removed.len(), 1);
                assert_eq!(added.len(), 1);
                assert_eq!(added[0].0, 3);
            }
            other => panic!("expected a diff, got {other:?}"),
        }
        assert_eq!(stats.lists_redispatched, 1);
        assert_eq!(stats.entries_diffed, 2);
        let whole = encode_update(&ListUpdate::Replace(next.pinglists[0].clone()));
        assert!(
            (stats.bytes_dispatched as usize) < whole.len(),
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
        let (updates, _) = rebase_and_diff(&prev, &mut next, &[]);

        let mut lists: HashMap<NodeId, Pinglist> = prev
            .pinglists
            .iter()
            .map(|l| (l.pinger, l.clone()))
            .collect();
        for u in &updates {
            assert!(apply_list_update(&mut lists, u));
        }
        assert_eq!(lists[&NodeId(9)], next.pinglists[0]);
    }

    #[test]
    fn a_repeated_entry_leaves_from_the_front_as_the_receiver_drops_it() {
        // The receiver drops the first entry of a removed key, so the
        // differ must mean that one: [a, b, a] loses its first `a` on the
        // way to [b, a], and cannot reach [a, b] by removals alone.
        let a = entry(Some(1), &[5, 1, 6], 6, None);
        let b = entry(Some(2), &[5, 1, 7], 7, None);
        let old = list(5, 1, vec![a.clone(), b.clone(), a.clone()]);
        for (want, diffs) in [
            (vec![b.clone(), a.clone()], true),
            (vec![a.clone(), b.clone()], false),
        ] {
            let prev = deployment(1, vec![old.clone()]);
            let mut next = deployment(2, vec![list(5, 2, want)]);
            let (updates, _) = rebase_and_diff(&prev, &mut next, &[]);
            assert_eq!(matches!(updates[0], ListUpdate::Diff { .. }), diffs);
            let mut lists = HashMap::from([(NodeId(5), old.clone())]);
            assert!(apply_list_update(&mut lists, &updates[0]));
            assert_eq!(lists[&NodeId(5)], next.pinglists[0]);
        }
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
        let (updates, _) = rebase_and_diff(&prev, &mut next, &[]);
        assert!(matches!(updates[0], ListUpdate::Replace(_)));
    }

    #[test]
    fn departed_and_new_pingers_are_remove_and_replace() {
        let prev = deployment(1, vec![list(5, 1, vec![entry(None, &[5, 1, 6], 6, None)])]);
        let mut next = deployment(2, vec![list(7, 2, vec![entry(None, &[7, 1, 8], 8, None)])]);
        let (updates, stats) = rebase_and_diff(&prev, &mut next, &[]);
        assert_eq!(updates.len(), 2);
        assert!(matches!(&updates[0], ListUpdate::Replace(l) if l.pinger == NodeId(7)));
        assert_eq!(updates[1], ListUpdate::Remove(NodeId(5)));
        assert_eq!(stats.lists_redispatched, 1);
        let shipped = [
            Frame::ListUpdate(ListUpdate::Replace(next.pinglists[0].clone())),
            Frame::ListUpdate(ListUpdate::Remove(NodeId(5))),
        ];
        let expect: usize = shipped.iter().map(|f| f.encode().len()).sum();
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
    fn a_rebase_alone_ships_nothing() {
        // A moved range with every list unchanged: no frame travels.
        let l = list(5, 1, vec![entry(Some(1), &[5, 1, 6], 6, None)]);
        let prev = deployment(1, vec![l.clone()]);
        let mut next = deployment(2, vec![l]);
        let (old, new) = (PathIdRange::new(0, 4), PathIdRange::new(8, 6));
        let (updates, stats) = rebase_and_diff(&prev, &mut next, &[(old, new)]);
        assert!(updates.is_empty());
        assert_eq!(stats, DispatchStats::default());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Whatever the differ emits — an edit script, a whole list or a
        /// retirement — comes off the wire as itself, and applying what
        /// arrived rebuilds the new deployment's lists with their stamps.
        #[test]
        fn every_list_update_survives_the_wire(
            old_paths in proptest::collection::vec(0u32..64, 0..24),
            dropped in proptest::collection::vec(0usize..24, 0..6),
            inserted in proptest::collection::vec((0usize..30, 64u32..96), 0..6),
            retime in 0u8..4,
        ) {
            let fixture = |p: u32| entry(Some(p), &[9, 1, p + 100], p + 100, p.is_multiple_of(2).then_some(1));
            let old_entries: Vec<PingEntry> = old_paths.iter().map(|&p| fixture(p)).collect();
            let mut new_entries = old_entries.clone();
            for i in dropped {
                if i < new_entries.len() {
                    new_entries.remove(i);
                }
            }
            for (i, p) in inserted {
                new_entries.insert(i.min(new_entries.len()), fixture(p));
            }
            let mut new = list(9, 2, new_entries);
            if retime == 0 {
                new.interval_us /= 2;
                new.seal();
            }
            let departed = list(5, 1, vec![fixture(1)]);
            let arrived = list(7, 2, vec![fixture(2)]);
            let prev = deployment(1, vec![departed, list(9, 1, old_entries)]);
            let mut next = deployment(2, vec![arrived, new]);
            let (updates, _) = rebase_and_diff(&prev, &mut next, &[]);

            let mut lists: HashMap<NodeId, Pinglist> =
                prev.pinglists.iter().map(|l| (l.pinger, l.clone())).collect();
            for update in &updates {
                let Ok(Frame::ListUpdate(arrived)) = Frame::decode(&encode_update(update)) else {
                    panic!("{update:?} did not come off the wire as a list update");
                };
                prop_assert_eq!(&arrived, update);
                prop_assert!(apply_list_update(&mut lists, &arrived));
            }
            prop_assert_eq!(lists.len(), next.pinglists.len());
            for want in &next.pinglists {
                let got = &lists[&want.pinger];
                prop_assert_eq!(got, want);
                prop_assert_eq!(got.content_stamp(), want.content_stamp());
            }
        }
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
        ctl.apply_event(&TopologyEvent::LinkDown {
            link: ft.ea_link(0, 0, 0),
        })
        .unwrap();
        let mut new = ctl.build_deployment(&healthy).unwrap();
        let (updates, stats) = rebase_and_diff(&old, &mut new, &[]);

        // Pre-diff protocol: every update travels as a whole list,
        // removals as they are.
        let whole: usize = (updates.iter())
            .map(|u| match u {
                ListUpdate::Diff { pinger, .. } => {
                    let list = new.pinglists.iter().find(|l| l.pinger == *pinger);
                    ListUpdate::Replace(list.unwrap().clone())
                }
                other => other.clone(),
            })
            .map(|u| encode_update(&u).len())
            .sum();
        let shipped = stats.bytes_dispatched as usize;

        assert!(
            shipped * 10 <= whole,
            "diff {shipped} B vs whole-list {whole} B"
        );
        // The counts README quotes.
        assert_eq!(
            (
                shipped,
                whole,
                stats.entries_diffed,
                updates.len(),
                old.pinglists.len()
            ),
            (664, 8504, 16, 8, 180)
        );
    }
}
