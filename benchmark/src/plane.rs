//! The benchmark's view of the system under test from outside: a
//! [`DataPlane`] wrapper that injects the ground-truth failure and stamps
//! window starts, and an [`EventSink`] that stamps each `DiagnosisReady`.
//!
//! Stage boundaries are stamped here, at the call site, the moment they
//! happen — never reconstructed from logs afterwards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use detector_core::pmc::ProbeMatrix;
use detector_core::types::LinkId;
use detector_simnet::FlowKey;
use detector_system::{DataPlane, EventSink, ProbeOutcome, ProbeTag, RuntimeEvent};
use detector_topology::Route;
use rand::rngs::SmallRng;

use crate::calib::splitmix64;

/// Windows a failed link stays failed for. A window whose index is a
/// multiple of this is an *onset* window: the link fails in it for the
/// first time.
pub const FAILURE_WINDOWS: u64 = 4;

/// True when `window` is the first window of a failure.
pub fn is_onset(window: u64) -> bool {
    window.is_multiple_of(FAILURE_WINDOWS)
}

/// Every link some path of `matrix` crosses, ascending — the links a
/// failure can be drawn from and still be observable.
pub fn matrix_links(matrix: &ProbeMatrix) -> Vec<LinkId> {
    let mut links: Vec<LinkId> = matrix
        .paths
        .iter()
        .flat_map(|p| p.links().iter().copied())
        .collect();
    links.sort_unstable();
    links.dedup();
    links
}

/// The link that is down in `window`: a pure function of its arguments,
/// so every driver — sequential, pipelined, distributed — and every
/// thread sees the same ground truth however windows overlap.
pub fn failed_link(seed: u64, window: u64, candidates: &[LinkId]) -> LinkId {
    let epoch = window / FAILURE_WINDOWS;
    candidates[(splitmix64(seed ^ splitmix64(epoch)) % candidates.len() as u64) as usize]
}

/// Per-window probe accounting of a traced run: the per-probe
/// `probe_tagged` spans, accumulated per window instead of recorded one
/// by one (54 000 spans a window would be the trace).
#[derive(Default)]
pub struct ProbeAccum {
    /// Probes handed to the inner plane.
    pub probes: AtomicU64,
    /// Nanoseconds spent inside the inner plane's `probe_tagged`.
    pub inner_ns: AtomicU64,
    /// End of the window's last probe, nanoseconds since the plane's
    /// epoch.
    pub last_end_ns: AtomicU64,
}

/// Wraps the inner plane (`Fabric::quiet` or `UdpDataPlane`): drops a
/// probe iff its route crosses the window's failed link — decided before
/// the inner plane is touched — and stamps `window_started`.
pub struct FailPlane<P> {
    inner: P,
    seed: u64,
    candidates: Vec<LinkId>,
    epoch: Instant,
    started: Mutex<Vec<(u64, Instant)>>,
    /// `Some` in traced runs: one account per window index.
    accum: Option<Vec<ProbeAccum>>,
}

impl<P: DataPlane> FailPlane<P> {
    /// `probe_accounts` is the number of windows (from window 0) to keep
    /// per-window probe accounts for: 0 in measured runs, whose probes
    /// must not pay for two clock reads each.
    pub fn new(inner: P, seed: u64, candidates: Vec<LinkId>, probe_accounts: u64) -> Self {
        assert!(!candidates.is_empty(), "no link to fail");
        Self {
            inner,
            seed,
            candidates,
            epoch: Instant::now(),
            started: Mutex::new(Vec::new()),
            accum: (probe_accounts > 0)
                .then(|| (0..probe_accounts).map(|_| ProbeAccum::default()).collect()),
        }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    pub fn candidates(&self) -> &[LinkId] {
        &self.candidates
    }

    /// Ground truth for `window`.
    pub fn failed_link(&self, window: u64) -> LinkId {
        failed_link(self.seed, window, &self.candidates)
    }

    /// Takes the `window_started` stamps recorded since the last call.
    pub fn take_started(&self) -> Vec<(u64, Instant)> {
        std::mem::take(&mut *self.started.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The probe accounting of `window` (traced runs only).
    pub fn accum(&self, window: u64) -> Option<&ProbeAccum> {
        self.accum.as_ref()?.get(window as usize)
    }

    /// When `window`'s last probe came back from the inner plane (traced
    /// runs only).
    pub fn last_probe_end(&self, window: u64) -> Option<Instant> {
        let acc = self.accum(window)?;
        (acc.probes.load(Ordering::Relaxed) > 0)
            .then(|| self.epoch + Duration::from_nanos(acc.last_end_ns.load(Ordering::Relaxed)))
    }
}

impl<P: DataPlane> DataPlane for FailPlane<P> {
    fn probe(&self, route: &Route, flow: FlowKey, rng: &mut SmallRng) -> ProbeOutcome {
        self.probe_tagged(ProbeTag::UNTAGGED, route, flow, rng)
    }

    fn probe_tagged(
        &self,
        tag: ProbeTag,
        route: &Route,
        flow: FlowKey,
        rng: &mut SmallRng,
    ) -> ProbeOutcome {
        if route.links.contains(&self.failed_link(tag.window)) {
            return ProbeOutcome {
                delivered: false,
                rtt_us: 0.0,
            };
        }
        let Some(acc) = self.accum.as_ref().and_then(|a| a.get(tag.window as usize)) else {
            return self.inner.probe_tagged(tag, route, flow, rng);
        };
        let t0 = Instant::now();
        let out = self.inner.probe_tagged(tag, route, flow, rng);
        let t1 = Instant::now();
        acc.probes.fetch_add(1, Ordering::Relaxed);
        acc.inner_ns
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        acc.last_end_ns
            .fetch_max((t1 - self.epoch).as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn window_started(&self, window: u64, start_s: u64) {
        self.started
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((window, Instant::now()));
        self.inner.window_started(window, start_s);
    }

    fn window_finished(&self, window: u64, end_s: u64) {
        self.inner.window_finished(window, end_s);
    }
}

/// One stamped `DiagnosisReady`.
#[derive(Clone, Debug)]
pub struct Ready {
    pub window: u64,
    pub at: Instant,
    pub suspects: Vec<LinkId>,
}

/// Stamps every `DiagnosisReady` the moment the driver emits it and keeps
/// the window's suspects for the correctness check. Clone it before
/// handing it to the detector; both handles share the buffer.
#[derive(Clone, Default)]
pub struct StampSink {
    ready: Arc<Mutex<Vec<Ready>>>,
}

impl StampSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the stamps recorded since the last call.
    pub fn take(&self) -> Vec<Ready> {
        std::mem::take(&mut *self.ready.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl EventSink for StampSink {
    fn on_event(&mut self, event: &RuntimeEvent) {
        if let RuntimeEvent::DiagnosisReady(result) = event {
            let at = Instant::now();
            self.ready
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Ready {
                    window: result.window,
                    at,
                    suspects: result.diagnosis.suspect_links(),
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_simnet::Fabric;
    use detector_topology::{DcnTopology, Fattree};
    use rand::SeedableRng;

    fn links(n: u32) -> Vec<LinkId> {
        (0..n).map(LinkId).collect()
    }

    #[test]
    fn failed_link_is_pure_across_threads() {
        let candidates = links(97);
        let here: Vec<LinkId> = (0..64).map(|w| failed_link(9, w, &candidates)).collect();
        let there = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..64).map(|w| failed_link(9, w, &candidates)).collect()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("thread"))
                .collect::<Vec<Vec<LinkId>>>()
        });
        assert!(there.iter().all(|t| *t == here));
    }

    #[test]
    fn failed_link_holds_for_a_whole_failure_and_follows_the_seed() {
        let candidates = links(500);
        for w in 0..40 {
            let first = w - w % FAILURE_WINDOWS;
            assert_eq!(
                failed_link(3, w, &candidates),
                failed_link(3, first, &candidates)
            );
        }
        let a: Vec<LinkId> = (0..10)
            .map(|e| failed_link(1, e * 4, &candidates))
            .collect();
        let b: Vec<LinkId> = (0..10)
            .map(|e| failed_link(2, e * 4, &candidates))
            .collect();
        assert_ne!(a, b);
        assert!(is_onset(8) && !is_onset(9));
    }

    #[test]
    fn fail_plane_drops_exactly_the_probes_crossing_the_link() {
        let ft = Fattree::new(4).unwrap();
        let bad = ft.ea_link(0, 0, 0);
        let plane = FailPlane::new(Fabric::quiet(&ft), 1, vec![bad], 1);
        let mut rng = SmallRng::seed_from_u64(1);
        let flow = FlowKey::udp(0, 4, 33_000, 53_533);
        let tag = ProbeTag {
            window: 0,
            path_id: 0,
            waypoint: 0,
        };
        let (mut crossing, mut clear) = (0, 0);
        for dst_pod in 1..4 {
            for hash in 0..8 {
                let route = ft.ecmp_route(ft.server(0, 0, 0), ft.server(dst_pod, 0, 0), hash);
                let out = plane.probe_tagged(tag, &route, flow, &mut rng);
                if route.links.contains(&bad) {
                    crossing += 1;
                    assert!(!out.delivered);
                } else {
                    clear += 1;
                    assert!(
                        out.delivered,
                        "quiet fabric lost a probe off the failed link"
                    );
                }
            }
        }
        assert!(crossing > 0 && clear > 0);
        // Dropped probes never reach the inner plane.
        let acc = plane.accum(0).expect("traced");
        assert_eq!(acc.probes.load(Ordering::Relaxed), clear);
    }

    #[test]
    fn window_stamps_are_taken_once() {
        let ft = Fattree::new(4).unwrap();
        let plane = FailPlane::new(Fabric::quiet(&ft), 1, links(8), 0);
        plane.window_started(0, 0);
        plane.window_started(1, 30);
        let stamps = plane.take_started();
        assert_eq!(stamps.iter().map(|s| s.0).collect::<Vec<_>>(), vec![0, 1]);
        assert!(plane.take_started().is_empty());
    }
}
