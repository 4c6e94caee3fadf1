//! Host calibration: one fixed reference kernel whose run time is the
//! unit every timing of the benchmark is expressed in.
//!
//! The sandbox this benchmark runs in is a shared 2-vCPU VM whose speed
//! drifts by tens of percent within a minute, so raw wall-clock medians
//! of the same binary disagree between runs by more than any regression
//! bound worth having. Scaling each block's time by the reference
//! kernel's time measured right around that block cancels the drift: a
//! timing is reported as `raw × (CALIB_REF_MS / calib_ms)^e`, i.e. "what
//! the block would have taken on a host where the kernel takes 0.6 ms".
//!
//! `e` is the workload's *host exponent* (`Workload::host_exp`): how the
//! workload's code follows the kernel when the host slows down. The
//! kernel is ALU work on an L2-resident table; while a neighbour contends
//! for the core it slows 1.43×, but `pinger` + `Fabric` on Fattree(16),
//! whose working set no longer fits the shared cache, slow 1.65×. With
//! `e = 1` for every workload the two host states read 15 % apart on
//! `ft16_step` (README, "Calibration").
//!
//! The kernel, the constant and the exponents are **frozen**: every
//! number any later commit reports is in these units, so changing any of
//! them re-bases the whole trajectory.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Run time of [`kernel`] on a quiet core of the reference host,
/// milliseconds. Frozen — see the module docs.
pub const CALIB_REF_MS: f64 = 0.600;

/// splitmix64 steps per kernel run.
const STEPS: u64 = 400_000;
/// Table entries the steps scatter into (256 KiB of `u64`: L2-resident,
/// like the detector's per-window working set).
const TABLE: usize = 32_768;
/// Kernel runs per [`Calibrator::sample`].
const REPS: usize = 5;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output function of counter value `x` — the kernel's
/// step, and the hash every seed-drawn choice of the benchmark goes
/// through.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference kernel: `STEPS` dependent splitmix64 steps, each
/// scattered into a `TABLE`-entry table (integer ALU + L2 traffic, no
/// allocation, no syscalls).
fn kernel(table: &mut [u64]) -> u64 {
    let mut state = 0xD07E_C70Au64;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        let x = splitmix64(state);
        state = state.wrapping_add(GOLDEN);
        let slot = &mut table[(x as usize) & (TABLE - 1)];
        *slot = slot.wrapping_add(x);
        acc ^= *slot;
    }
    acc
}

/// Converts a raw timing taken while the kernel ran in `calib_ms` into
/// calibrated units, for a workload whose code follows the kernel with
/// exponent `host_exp`.
pub fn calibrated(raw: f64, calib_ms: f64, host_exp: f64) -> f64 {
    raw * (CALIB_REF_MS / calib_ms).powf(host_exp)
}

/// Runs the reference kernel on demand and remembers every rep, so the
/// run's record can state the host speed it was measured at.
pub struct Calibrator {
    table: Vec<u64>,
    reps_ms: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Self {
            table: vec![0; TABLE],
            reps_ms: Vec::new(),
        };
        // Page the table in and warm the branch predictor untimed.
        black_box(kernel(&mut c.table));
        c
    }

    /// Runs `REPS` kernel reps and returns them (milliseconds each).
    pub fn sample(&mut self) -> [f64; REPS] {
        let mut out = [0.0; REPS];
        for slot in &mut out {
            let t0 = Instant::now();
            black_box(kernel(black_box(&mut self.table)));
            *slot = t0.elapsed().as_secs_f64() * 1e3;
        }
        self.reps_ms.extend_from_slice(&out);
        out
    }

    /// Every rep taken so far, milliseconds.
    pub fn reps_ms(&self) -> &[f64] {
        &self.reps_ms
    }
}

/// The calibration in force for one measured interval: the median of the
/// reps taken right before and right after it.
pub fn around(before: &[f64], after: &[f64]) -> f64 {
    let mut both = before.to_vec();
    both.extend_from_slice(after);
    median(&both)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_ratio_arithmetic() {
        // On the reference host (kernel takes CALIB_REF_MS) raw == calibrated,
        // whatever the exponent.
        assert_eq!(calibrated(12.5, CALIB_REF_MS, 1.0), 12.5);
        assert_eq!(calibrated(12.5, CALIB_REF_MS, 1.4), 12.5);
        // A host twice as slow halves a timing that follows the kernel …
        assert!((calibrated(30.0, 2.0 * CALIB_REF_MS, 1.0) - 15.0).abs() < 1e-12);
        // … and quarters one that slows with its square.
        assert!((calibrated(30.0, 2.0 * CALIB_REF_MS, 2.0) - 7.5).abs() < 1e-12);
        // Rates scale the other way: B / calibrated seconds.
        let wall_s = 0.5;
        let rate = 20.0 / calibrated(wall_s, 1.2, 1.0);
        assert!((rate - 80.0).abs() < 1e-9);
    }

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // First outputs of the reference generator seeded with 0: the
        // counter advances by the golden ratio, the output function mixes.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(GOLDEN), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn kernel_is_deterministic() {
        let mut a = vec![0u64; TABLE];
        let mut b = vec![0u64; TABLE];
        assert_eq!(kernel(&mut a), kernel(&mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn calibrator_records_every_rep() {
        let mut c = Calibrator::new();
        let first = c.sample();
        let second = c.sample();
        assert_eq!(c.reps_ms().len(), 2 * REPS);
        assert!(first.iter().chain(&second).all(|&ms| ms > 0.0));
        assert!(around(&first, &second) > 0.0);
    }
}
