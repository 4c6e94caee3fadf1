//! The four workloads. Each is a session type with a timed
//! `cold_start` (everything from nothing to the first window's
//! `DiagnosisReady`) and a `windows` call (one driver call of `B`
//! windows), sized so that a different layer dominates each of them —
//! see `benchmark/README.md` for the layer → metric → workload
//! predictions.

pub mod dist;
pub mod replay;
pub mod step;
pub mod udp;

use crate::measure::Harness;
use crate::traced::TraceOutcome;

/// Topology size: the benchmark's, or Fattree(4) for the unit tests'
/// smoke of every driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))] // only the unit tests run at smoke size
    Smoke,
}

/// `cycle_s / window_s` of the default configuration: a block of this
/// many windows contains exactly one cycle refresh.
pub const CYCLE_WINDOWS: u64 = 20;

/// One workload of the suite.
pub struct Workload {
    pub name: &'static str,
    /// The layers it was built to stress, for the record.
    pub stresses: &'static str,
    /// Windows per block.
    pub block: u64,
    /// Host exponent of the workload's timings (see `calib.rs`): how its
    /// code follows the reference kernel when the host slows down.
    /// Measured (README, "Calibration") and frozen with the kernel.
    pub host_exp: f64,
    /// Runs the untraced, measured workload.
    pub run: fn(&mut Harness, Scale),
    /// Runs the traced workload: a fixed number of blocks, per-layer
    /// metrics, never used for end-to-end numbers.
    pub trace: fn(&Workload, u64, Scale) -> TraceOutcome,
}

pub static ALL: [Workload; 4] = [
    Workload {
        name: "ft16_step",
        stresses: "pinger + simnet::Fabric (single thread, single-failure diagnosis)",
        block: CYCLE_WINDOWS,
        host_exp: 1.4,
        run: step::run,
        trace: step::trace,
    },
    Workload {
        name: "ft8_udp_pipelined",
        stresses:
            "dataplane::udp syscalls and wire wait + scheduler overlap (UDP over host loopback)",
        block: CYCLE_WINDOWS,
        host_exp: 1.2,
        run: udp::run,
        trace: udp::trace,
    },
    Workload {
        name: "vl2_dist_churn",
        stresses: "planner incremental re-solve + dispatch diffs + agent wire protocol",
        block: CYCLE_WINDOWS,
        host_exp: 1.0,
        run: dist::run,
        trace: dist::trace,
    },
    Workload {
        name: "ft32_storm_replay",
        stresses: "agent::frame decode + ingest + prefilter + pll on a 512-failure window",
        block: replay::BLOCK,
        host_exp: 1.0,
        run: replay::run,
        trace: replay::trace,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traced::BLOCKS;

    const SEED: u64 = 1;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &ALL {
            assert!(std::ptr::eq(by_name(w.name).expect("resolves"), w));
            assert!(w.block >= crate::plane::FAILURE_WINDOWS);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn step_driver_smoke() {
        let topo = step::topology(Scale::Smoke);
        let (mut s, first) = step::Session::cold_start(&topo, SEED, 0);
        let b = s.windows(2 * CYCLE_WINDOWS);
        assert_eq!((first, b.failed), (0, 0));
        assert_eq!(b.detect_ms.len(), 10);
    }

    #[test]
    fn udp_pipelined_driver_smoke() {
        let (mut s, first) = udp::Session::cold_start(udp::topology(Scale::Smoke), SEED, 0);
        let b = s.windows(CYCLE_WINDOWS - 1);
        assert_eq!((first, b.failed), (0, 0));
        assert_eq!(b.latency_ms.len(), 19);
    }

    #[test]
    fn dist_churn_driver_smoke() {
        let topo = dist::topology(Scale::Smoke);
        let (mut s, first) = dist::Session::cold_start(&topo, SEED, 0);
        let head = s.windows(CYCLE_WINDOWS - 1);
        let b = s.windows(CYCLE_WINDOWS);
        assert_eq!((first, head.failed, b.failed), (0, 0, 0));
    }

    #[test]
    fn storm_replay_driver_smoke() {
        let inputs = replay::Inputs::generate(&replay::fattree(Scale::Smoke), SEED);
        assert!(inputs.min_suspects() > 0);
        let (mut s, first) = replay::Session::cold_start(Scale::Smoke, &inputs);
        let b = s.windows(replay::BLOCK, &inputs);
        assert_eq!((first, b.failed), (0, 0));
    }

    #[test]
    fn traced_runs_agree_with_their_drivers() {
        for w in &ALL {
            let out = (w.trace)(w, SEED, Scale::Smoke);
            assert_eq!(out.failed, 0, "{}", w.name);
            assert!(out.attempted >= 2 * (BLOCKS + 1) * w.block, "{}", w.name);
            let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
            let table: Vec<&str> = crate::metrics::tables()
                .per_layer
                .iter()
                .map(|m| m.0.as_str())
                .collect();
            assert_eq!(names, table, "{}", w.name);
            assert!(out.metrics.iter().all(|(_, v)| v.is_finite()), "{}", w.name);
        }
    }
}
