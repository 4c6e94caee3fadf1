//! `ft32_storm_replay`: recorded report frames of a 512-failure storm
//! replayed through frame decode → ingest → diagnosis — the diagnoser
//! host's side of a window. No probing at all.
//!
//! At generation time real `PingerBatch::run_window`s over a fabric with
//! 512 dead edge–agg links (one uplink of every edge switch) produce the
//! `PingerReport`s of 8 storm variants (one link moved per variant), and
//! each report is encoded once, as its pinger would. The timed loop
//! pushes a variant's frames through `Frame::decode` → re-stamp into the
//! current window → `Diagnoser::ingest`, then `Diagnoser::diagnose` →
//! `prune_before`: `agent::frame`, `ingest`, `prefilter` and `pll` do all
//! the work, under a ~200-component, ~500-suspect window where
//! `ft16_step` gives them a trivial one. The storm is this size so that
//! diagnosis is about half of a window and decoding 5.8 MB of reports the
//! other half: with the issue's 64 links (and encoding inside the loop)
//! the codec was 81 % and a 2× faster PLL moved nothing by more than 7 %.
//! Its `setup_s` is the largest PMC build (the paper's Table 2 axis).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use detector_agent::Frame;
use detector_core::pll::localize;
use detector_core::types::LinkId;
use detector_simnet::{Fabric, FlowKey};
use detector_system::{
    Controller, DataPlane, Deployment, Diagnoser, PingerBatch, ProbeOutcome, ReportStore,
    SharedTopology, SystemConfig, Watchdog,
};
use detector_topology::{DcnTopology, Fattree, Route};
use rand::rngs::SmallRng;

use super::{Scale, Workload};
use crate::calib::splitmix64;
use crate::layers::Seen;
use crate::measure::{Block, Harness};
use crate::plane::{is_onset, FAILURE_WINDOWS};
use crate::trace::WINDOW;
use crate::traced::{segments, CallSum, DiagTwin, TraceOutcome, TraceRun};

/// Windows per block: every variant is replayed for one whole failure
/// epoch in each block.
pub const BLOCK: u64 = VARIANTS as u64 * FAILURE_WINDOWS;
const VARIANTS: usize = 8;

pub fn fattree(scale: Scale) -> Arc<Fattree> {
    let k = match scale {
        Scale::Full => 32,
        Scale::Smoke => 4,
    };
    Arc::new(Fattree::new(k).expect("valid radix"))
}

/// The first deployment of a fresh controller — what both input
/// generation and every cold start build.
fn deploy(topo: SharedTopology, cfg: &SystemConfig) -> Deployment {
    Controller::new(topo, cfg.clone())
        .build_deployment(&HashSet::new())
        .expect("deployment builds")
}

/// A quiet fabric on which a fixed set of links drops everything.
struct StormPlane<'a> {
    inner: Fabric<'a>,
    dead: HashSet<LinkId>,
}

impl DataPlane for StormPlane<'_> {
    fn probe(&self, route: &Route, flow: FlowKey, rng: &mut SmallRng) -> ProbeOutcome {
        if route.links.iter().any(|l| self.dead.contains(l)) {
            return ProbeOutcome {
                delivered: false,
                rtt_us: 0.0,
            };
        }
        self.inner.probe(route, flow, rng)
    }
}

/// The dead links of storm `variant`: one seed-drawn uplink of every
/// edge switch; variant `v > 0` moves the uplink of the `v`-th edge
/// switch to another aggregation switch.
fn storm(ft: &Fattree, seed: u64, variant: usize) -> HashSet<LinkId> {
    let half = ft.half();
    let mut dead = HashSet::new();
    for pod in 0..ft.k() {
        for edge in 0..half {
            let index = (pod * half + edge) as usize;
            let moved = if index + 1 == variant {
                variant as u64
            } else {
                0
            };
            let h = splitmix64(seed ^ splitmix64(u64::from(pod) << 32 | u64::from(edge)) ^ moved);
            dead.insert(ft.ea_link(pod, edge, (h % u64::from(half)) as u32));
        }
    }
    dead
}

/// One storm variant's recorded window.
pub struct Variant {
    /// Encoded `Frame::Report`s of window 0, one per pinger.
    frames: Vec<Vec<u8>>,
    /// The `localize` oracle's suspects for these reports, computed when
    /// they were generated.
    expected: Vec<LinkId>,
}

/// The replay's inputs; generating them is not part of `setup_s`.
pub struct Inputs {
    variants: Vec<Variant>,
    /// The `Frame::encode` calls of generation, for the traced run.
    pub encode: CallSum,
}

impl Inputs {
    pub fn generate(ft: &Arc<Fattree>, seed: u64) -> Self {
        let cfg = SystemConfig::default();
        let dep = deploy(ft.clone(), &cfg);
        let batches: Vec<PingerBatch> = dep
            .pinglists
            .iter()
            .map(|l| PingerBatch::bind(l.clone(), ft.graph()))
            .collect();
        let mut encode = CallSum::default();
        let variants = (0..VARIANTS)
            .map(|v| {
                let plane = StormPlane {
                    inner: Fabric::quiet(ft.as_ref()),
                    dead: storm(ft, seed, v),
                };
                let window_seed = splitmix64(seed ^ v as u64);
                let store = ReportStore::new();
                let frames = batches
                    .iter()
                    .map(|b| {
                        let report = b.run_window(&plane, &cfg, 0, window_seed);
                        store.ingest(report.clone());
                        let frame = Frame::Report(report);
                        encode.time(|| frame.encode())
                    })
                    .collect();
                let obs = store.window_observations(0, &|_| false);
                Variant {
                    frames,
                    expected: localize(&dep.matrix, &obs, &cfg.pll).suspect_links(),
                }
            })
            .collect();
        Self { variants, encode }
    }

    fn variant(&self, window: u64) -> &Variant {
        let v = (window / FAILURE_WINDOWS) as usize % self.variants.len();
        &self.variants[v]
    }

    /// Distinct suspects across variants — a storm that localizes to
    /// nothing would make every window trivially "correct".
    pub fn min_suspects(&self) -> usize {
        self.variants
            .iter()
            .map(|v| v.expected.len())
            .min()
            .unwrap_or(0)
    }
}

pub struct Session {
    diagnoser: Diagnoser,
    watchdog: Watchdog,
    next_window: u64,
}

impl Session {
    /// Topology → `Controller::build_deployment` (the PMC build) →
    /// `Diagnoser::new` → first replayed window.
    pub fn cold_start(scale: Scale, inputs: &Inputs) -> (Self, u64) {
        let cfg = SystemConfig::default();
        let dep = deploy(fattree(scale), &cfg);
        let mut s = Self {
            diagnoser: Diagnoser::new(dep.matrix, cfg.pll).with_diag(cfg.diag),
            watchdog: Watchdog::new(),
            next_window: 0,
        };
        let first = s.windows(1, inputs);
        (s, first.failed)
    }

    /// Replays `count` windows: the closed loop offers a window's frames
    /// one after another, then asks for the diagnosis.
    pub fn windows(&mut self, count: u64, inputs: &Inputs) -> Block {
        let mut block = Block {
            windows: count,
            ..Block::default()
        };
        for w in self.next_window..self.next_window + count {
            let variant = inputs.variant(w);
            let offered = Instant::now();
            let mut decode_failed = false;
            for bytes in &variant.frames {
                match Frame::decode(bytes) {
                    Ok(Frame::Report(mut r)) => {
                        r.window = w;
                        self.diagnoser.ingest(r);
                    }
                    _ => decode_failed = true,
                }
            }
            let ingested = Instant::now();
            let event = self.diagnoser.diagnose(w, &self.watchdog);
            let ready = Instant::now();
            self.diagnoser.prune_before(w.saturating_sub(20));
            let suspects = event.diagnosis.suspect_links();
            if decode_failed || suspects != variant.expected {
                block.failed += 1;
            }
            block.suspects.push(suspects);
            let latency_ms = (ready - offered).as_secs_f64() * 1e3;
            block.latency_ms.push(latency_ms);
            block
                .queue_wait_ms
                .push((ready - ingested).as_secs_f64() * 1e3);
            if is_onset(w) {
                block.detect_ms.push(latency_ms);
            }
        }
        self.next_window += count;
        block
    }
}

pub fn run(h: &mut Harness, scale: Scale) {
    // The storm is drawn once a run; every session replays it.
    let inputs = Inputs::generate(&fattree(scale), h.seed());
    assert!(inputs.min_suspects() > 0, "storm localized to nothing");
    h.sessions(|h| {
        h.cold_starts(|| ((), Session::cold_start(scale, &inputs).1));
        let (mut s, _) = Session::cold_start(scale, &inputs);
        h.untimed(s.windows(BLOCK - 1, &inputs));
        h.blocks(|| s.windows(BLOCK, &inputs));
    });
}

/// The traced run: a plain replay pass, then the same windows with a
/// span (or a per-window sum, for the per-report calls) around every
/// layer call and a twin plane splitting `diagnose` into its stages.
pub fn trace(w: &Workload, seed: u64, scale: Scale) -> TraceOutcome {
    let mut run = TraceRun::start(w);
    // Reports are encoded where they are produced, outside any window.
    let generate = run.tr.enter("inputs.generate", 0);
    let mut inputs = Inputs::generate(&fattree(scale), seed);
    run.tr.exit(generate);
    inputs.encode.flush(&mut run.tr, generate, "frame.encode");
    let untraced = {
        let (mut s, first_failed) = Session::cold_start(scale, &inputs);
        run.driver_pass(first_failed, |count| s.windows(count, &inputs))
    };

    let cfg = SystemConfig::default();
    let booted = run.boot(&cfg, || fattree(scale) as SharedTopology);
    let plan_size = booted.plan_size();
    let diagnoser = Diagnoser::new(booted.deployment.matrix, cfg.pll).with_diag(cfg.diag);
    let mut diag = DiagTwin::new(diagnoser, cfg.pll);
    let mut suspects = Vec::new();
    let mut missed = 0;
    for (first, count) in segments(BLOCK) {
        for w in first..first + count {
            let variant = inputs.variant(w);
            let root = run.tr.enter(WINDOW, w);
            let mut decode = CallSum::default();
            for bytes in &variant.frames {
                diag.counts.frame_bytes += bytes.len() as u64;
                match decode.time(|| Frame::decode(bytes)) {
                    Ok(Frame::Report(mut r)) => {
                        r.window = w;
                        diag.ingest(r);
                    }
                    _ => panic!("a report frame did not survive its own codec"),
                }
            }
            decode.flush(&mut run.tr, root, "frame.decode");
            let event = diag.diagnose(&mut run.tr, root, w);
            run.tr.exit(root);
            let found = event.diagnosis.suspect_links();
            missed += u64::from(found != variant.expected);
            suspects.push(found);
        }
        run.calib.sample();
    }
    run.conclude(Seen {
        counts: &diag.counts,
        plan_size,
        untraced: &untraced,
        // The replay session stamps every window itself.
        accounted: None,
        recomposed: (suspects, missed),
        threads: 1,
        udp: None,
        agent: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storms_kill_one_uplink_per_edge_switch_and_variants_differ_by_one() {
        let ft = Fattree::new(8).unwrap();
        let base = storm(&ft, 5, 0);
        assert_eq!(base.len(), (ft.k() * ft.half()) as usize);
        for v in 1..VARIANTS {
            let moved = storm(&ft, 5, v);
            assert_eq!(moved.len(), base.len());
            assert!(base.difference(&moved).count() <= 1);
        }
        assert_ne!(storm(&ft, 5, 0), storm(&ft, 6, 0));
    }
}
