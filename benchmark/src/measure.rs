//! The measuring loop shared by all workloads: a time-boxed sequence of
//! sessions, each a group of cold starts (`setup_s`) and then identical
//! blocks, every sample bracketed by calibration reps and every metric
//! reduced by a median over its samples.

use std::time::{Duration, Instant};

use detector_core::json::Json;
use detector_core::types::LinkId;
use detector_system::DataPlane;

use crate::calib::{around, calibrated, splitmix64, Calibrator};
use crate::host::{peak_rss_mb, process_cpu_s, reset_peak_rss, StealMeter};
use crate::plane::{is_onset, FailPlane, StampSink};
use crate::stats::{iqr_ratio, median, quantile};

/// Fresh starts per run.
const SESSIONS: usize = 6;
/// Every session repeats the cold start at least this often …
const SETUP_MIN_REPS: usize = 2;
/// … and for this share of its time (2.4 s of a 30 s run).
const SETUP_SHARE: f64 = 0.08;

/// What one driver call of `B` windows produced.
#[derive(Debug, Default)]
pub struct Block {
    /// Windows attempted.
    pub windows: u64,
    /// Windows with a wrong or missing diagnosis.
    pub failed: u64,
    /// Raw detection latency of each onset window, milliseconds.
    pub detect_ms: Vec<f64>,
    /// Raw `window_started` → `DiagnosisReady` latency of every window,
    /// milliseconds.
    pub latency_ms: Vec<f64>,
    /// Raw last probe end → `DiagnosisReady` wait of every window whose
    /// plane kept probe accounts (traced runs), milliseconds.
    pub queue_wait_ms: Vec<f64>,
    /// Every window's suspects, for comparing passes over the same
    /// windows.
    pub suspects: Vec<Vec<LinkId>>,
}

impl Block {
    /// A block in which every window failed (driver `Err`).
    pub fn all_failed(windows: u64) -> Self {
        Self {
            windows,
            failed: windows,
            ..Self::default()
        }
    }
}

/// Checks the windows `first..first + count` of a driver call against
/// the plane's ground truth and extracts their latencies from the stamps
/// taken outside the system: `window_started` by the plane,
/// `DiagnosisReady` by the sink.
pub fn check_block<P: DataPlane>(
    plane: &FailPlane<P>,
    sink: &StampSink,
    first: u64,
    count: u64,
) -> Block {
    let (started, ready) = (plane.take_started(), sink.take());
    let mut block = Block {
        windows: count,
        ..Block::default()
    };
    let ms = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e3;
    for w in first..first + count {
        let Some(r) = ready.iter().find(|r| r.window == w) else {
            block.failed += 1;
            block.suspects.push(Vec::new());
            continue;
        };
        if r.suspects != [plane.failed_link(w)] {
            block.failed += 1;
        }
        block.suspects.push(r.suspects.clone());
        if let Some((_, t0)) = started.iter().find(|(sw, _)| *sw == w) {
            block.latency_ms.push(ms(*t0, r.at));
            if is_onset(w) {
                block.detect_ms.push(ms(*t0, r.at));
            }
        }
        if let Some(end) = plane.last_probe_end(w) {
            block.queue_wait_ms.push(ms(end, r.at));
        }
    }
    block
}

fn series(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|v| Json::Float(*v)).collect())
}

/// The end-to-end result of one run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub windows_per_s: f64,
    pub detect_ms_p50: f64,
    pub cpu_ms_per_window: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Raw (uncalibrated) medians and diagnostics for the record.
    pub diagnostics: Vec<(&'static str, Json)>,
}

/// One timed block, raw and calibrated.
struct Timed {
    session: usize,
    wall_ms: f64,
    calib_ms: f64,
    wps_raw: f64,
    wps: f64,
    cpu_raw: f64,
    cpu: f64,
}

/// The measured phase of a run: `--seconds` long, split evenly into
/// [`SESSIONS`] sessions. A session is a group of timed cold starts (one
/// calibrated `setup_s` sample), an untimed first block, then whole timed
/// blocks until the session's share of the phase is used up.
///
/// Sessions exist because a process is not one sample: heap layout, the
/// physical pages behind it and every `HashMap`'s hash keys are drawn
/// once per cold start and move a start's block times by up to 8 %. Six
/// fresh starts per run average that out, and spread the `setup_s`
/// samples over the run instead of bunching them in its first seconds.
pub struct Harness {
    calib: Calibrator,
    /// The workload's host exponent (see `calib.rs`).
    host_exp: f64,
    seed: u64,
    seconds: f64,
    steal: StealMeter,
    phase: Instant,
    /// The session in progress, from 1.
    session: usize,
    /// Raw and calibrated median cold start of each session's group.
    setup_raw: Vec<f64>,
    setup: Vec<f64>,
    setup_reps: u64,
    timed: Vec<Timed>,
    /// Raw and calibrated detection latency of every timed onset window.
    detect_raw: Vec<f64>,
    detect: Vec<f64>,
    /// `VmHWM` at the end of each session, restarted at its beginning.
    /// On `vl2_dist_churn` one start peaks at 57, 61 or 64.6 MB (whether
    /// the allocator holds on to a freed 3.4 MB chunk), so the maximum
    /// over a whole process is the least repeatable of its samples.
    peak_rss_mb: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Harness {
    pub fn new(seconds: f64, host_exp: f64, seed: u64) -> Self {
        Self {
            calib: Calibrator::new(),
            host_exp,
            seed,
            seconds,
            steal: StealMeter::start(),
            phase: Instant::now(),
            session: 0,
            setup_raw: Vec::new(),
            setup: Vec::new(),
            setup_reps: 0,
            timed: Vec::new(),
            detect_raw: Vec::new(),
            detect: Vec::new(),
            peak_rss_mb: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs the measured phase: calls `session` [`SESSIONS`] times; each
    /// call makes one [`cold_starts`](Self::cold_starts), accounts its
    /// warm-up with [`untimed`](Self::untimed) and ends in one
    /// [`blocks`](Self::blocks).
    pub fn sessions(&mut self, mut session: impl FnMut(&mut Self)) {
        self.phase = Instant::now();
        for i in 1..=SESSIONS {
            self.session = i;
            reset_peak_rss();
            session(self);
            self.peak_rss_mb.push(peak_rss_mb());
        }
    }

    /// The run's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seed of the session in progress: a pure function of the run's
    /// seed, different for every session, so that a run sees six times
    /// the failed links and churn links one start would reach.
    pub fn session_seed(&self) -> u64 {
        splitmix64(self.seed ^ splitmix64(self.session as u64))
    }

    /// Time from the start of the phase to the end of `sessions` shares of
    /// it — a fixed schedule, so a slow session does not push the later
    /// ones.
    fn share_end(&self, sessions: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * sessions / SESSIONS as f64)
    }

    /// Times `cold_start` (which must build everything from nothing, run
    /// the first window and return how many of its windows failed) in
    /// fresh state at least [`SETUP_MIN_REPS`] times and for
    /// [`SETUP_SHARE`] of the session. The group is one `setup_s` sample:
    /// the median rep, calibrated by the kernel reps around the whole
    /// group — a 23 ms cold start bracketed on its own would be measured
    /// against 6 ms of kernel. Whatever else `cold_start` returns is
    /// dropped after the clock stopped, so teardown is not billed to
    /// set-up.
    pub fn cold_starts<T>(&mut self, mut cold_start: impl FnMut() -> (T, u64)) {
        let until = self.share_end(self.session as f64 - 1.0 + SETUP_SHARE);
        let mut raw = Vec::new();
        let before = self.calib.sample();
        while raw.len() < SETUP_MIN_REPS || self.phase.elapsed() < until {
            let t0 = Instant::now();
            let (teardown, failed) = cold_start();
            raw.push(t0.elapsed().as_secs_f64());
            drop(teardown);
            self.attempted += 1;
            self.failed += failed;
        }
        let after = self.calib.sample();
        self.setup_reps += raw.len() as u64;
        self.setup_raw.push(median(&raw));
        self.setup.push(calibrated(
            median(&raw),
            around(&before, &after),
            self.host_exp,
        ));
    }

    /// Accounts windows that ran outside any timed interval (a session's
    /// warm-up).
    pub fn untimed(&mut self, b: Block) {
        self.attempted += b.windows;
        self.failed += b.failed;
    }

    /// Runs whole blocks, each calibrated by the kernel reps right before
    /// and after it, until the session's share of the phase is used up;
    /// at least one.
    pub fn blocks(&mut self, mut block: impl FnMut() -> Block) {
        let until = self.share_end(self.session as f64);
        let mut before = self.calib.sample();
        loop {
            let cpu0 = process_cpu_s();
            let t0 = Instant::now();
            let b = block();
            let wall_s = t0.elapsed().as_secs_f64();
            let cpu_s = process_cpu_s() - cpu0;
            let after = self.calib.sample();
            let calib_ms = around(&before, &after);
            before = after;

            self.attempted += b.windows;
            self.failed += b.failed;
            let n = b.windows as f64;
            let e = self.host_exp;
            self.timed.push(Timed {
                session: self.session,
                wall_ms: wall_s * 1e3,
                calib_ms,
                wps_raw: n / wall_s,
                wps: n / calibrated(wall_s, calib_ms, e),
                cpu_raw: cpu_s * 1e3 / n,
                cpu: calibrated(cpu_s * 1e3 / n, calib_ms, e),
            });
            for ms in b.detect_ms {
                self.detect_raw.push(ms);
                self.detect.push(calibrated(ms, calib_ms, e));
            }
            if self.phase.elapsed() >= until {
                break;
            }
        }
    }

    /// Closes the run: reduces every sample by its median and adds the
    /// host's state to the diagnostics.
    pub fn finish(self) -> EndToEnd {
        let col = |f: fn(&Timed) -> f64| self.timed.iter().map(f).collect::<Vec<f64>>();
        let (wps, cpu) = (col(|t| t.wps), col(|t| t.cpu));
        let session_wps: Vec<f64> = (1..=SESSIONS)
            .map(|s| {
                let own: Vec<f64> = self
                    .timed
                    .iter()
                    .filter(|t| t.session == s)
                    .map(|t| t.wps)
                    .collect();
                median(&own)
            })
            .collect();
        let reps = self.calib.reps_ms();
        EndToEnd {
            setup_s: median(&self.setup),
            windows_per_s: median(&wps),
            detect_ms_p50: median(&self.detect),
            cpu_ms_per_window: median(&cpu),
            peak_rss_mb: median(&self.peak_rss_mb),
            attempted: self.attempted,
            failed: self.failed,
            diagnostics: vec![
                ("host_exp", Json::Float(self.host_exp)),
                ("sessions", Json::uint(SESSIONS as u64)),
                (
                    "measured_s",
                    Json::Float(self.phase.elapsed().as_secs_f64()),
                ),
                ("setup_reps", Json::uint(self.setup_reps)),
                ("setup_s_raw", Json::Float(median(&self.setup_raw))),
                ("setup_s_iqr_ratio", Json::Float(iqr_ratio(&self.setup))),
                ("blocks", Json::uint(self.timed.len() as u64)),
                (
                    "windows_per_s_raw",
                    Json::Float(median(&col(|t| t.wps_raw))),
                ),
                ("windows_per_s_iqr_ratio", Json::Float(iqr_ratio(&wps))),
                ("detect_samples", Json::uint(self.detect.len() as u64)),
                ("detect_ms_p50_raw", Json::Float(median(&self.detect_raw))),
                ("detect_ms_p99", Json::Float(quantile(&self.detect, 0.99))),
                (
                    "cpu_ms_per_window_raw",
                    Json::Float(median(&col(|t| t.cpu_raw))),
                ),
                ("host.calib_ms_p50", Json::Float(median(reps))),
                ("host.calib_iqr_ratio", Json::Float(iqr_ratio(reps))),
                ("host.steal_ratio", Json::Float(self.steal.ratio())),
                // The per-sample series, so estimators can be compared
                // offline.
                ("setup_s_by_session", series(&self.setup)),
                ("windows_per_s_by_session", series(&session_wps)),
                ("peak_rss_mb_by_session", series(&self.peak_rss_mb)),
                ("block_session", series(&col(|t| t.session as f64))),
                ("block_wall_ms", series(&col(|t| t.wall_ms))),
                ("block_calib_ms", series(&col(|t| t.calib_ms))),
                ("block_cpu_ms_per_window_raw", series(&col(|t| t.cpu_raw))),
                ("detect_ms_raw", series(&self.detect_raw)),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_block_counts_wrong_and_missing_diagnoses() {
        use detector_core::pll::{Diagnosis, SuspectLink};
        use detector_simnet::Fabric;
        use detector_system::{EventSink, RuntimeEvent, WindowResult};
        use detector_topology::Fattree;

        let ft = Fattree::new(4).unwrap();
        // One candidate: ground truth is LinkId(5) in every window.
        let plane = FailPlane::new(Fabric::quiet(&ft), 1, vec![LinkId(5)], 0);
        let mut sink = StampSink::new();
        let handle = sink.clone();
        let ready = |sink: &mut StampSink, window: u64, links: &[u32]| {
            let suspects = links
                .iter()
                .map(|&l| SuspectLink {
                    link: LinkId(l),
                    estimated_loss_rate: 1.0,
                    hit_ratio: 1.0,
                    explained_paths: 1,
                    explained_losses: 1,
                })
                .collect();
            sink.on_event(&RuntimeEvent::DiagnosisReady(WindowResult {
                window,
                start_s: 0,
                probes_sent: 0,
                num_observations: 0,
                diagnosis: Diagnosis {
                    suspects,
                    unexplained_paths: Vec::new(),
                },
            }));
        };
        for w in 0..4 {
            plane.window_started(w, 30 * w);
        }
        ready(&mut sink, 0, &[5]);
        ready(&mut sink, 1, &[6]); // wrong link
        ready(&mut sink, 2, &[5, 6]); // extra suspect
                                      // window 3: no DiagnosisReady at all
        let b = check_block(&plane, &handle, 0, 4);
        assert_eq!((b.windows, b.failed), (4, 3));
        // Only window 0 is an onset window.
        assert_eq!((b.detect_ms.len(), b.latency_ms.len()), (1, 3));
        assert!(
            b.queue_wait_ms.is_empty(),
            "untraced planes keep no probe accounts"
        );
        assert_eq!(b.suspects.len(), 4);
        assert_eq!(b.suspects[3], Vec::<LinkId>::new());
    }

    #[test]
    fn harness_reduces_sessions_to_medians() {
        let mut h = Harness::new(0.06, 1.0, 7);
        let (mut cold, mut sessions) = (0, 0);
        let mut seeds = Vec::new();
        h.sessions(|h| {
            sessions += 1;
            seeds.push(h.session_seed());
            h.cold_starts(|| {
                cold += 1;
                std::thread::sleep(Duration::from_millis(1));
                ((), 0)
            });
            h.untimed(Block {
                windows: 19,
                ..Block::default()
            });
            h.blocks(|| {
                std::thread::sleep(Duration::from_millis(2));
                Block {
                    windows: 20,
                    detect_ms: vec![1.0; 5],
                    ..Block::default()
                }
            });
        });
        let r = h.finish();
        assert_eq!(sessions, SESSIONS);
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), SESSIONS, "every session has a seed of its own");
        assert!(cold >= SESSIONS * SETUP_MIN_REPS);
        assert!(r.setup_s > 0.0 && r.windows_per_s > 0.0 && r.detect_ms_p50 > 0.0);
        assert_eq!(r.failed, 0);
        assert!(r.attempted >= (cold + SESSIONS * 39) as u64);
    }
}
