//! Clocks: the simulated campaign clock ([`SimClock`]) and the probe
//! timestamp seam ([`ProbeClock`]) socket-backed data planes measure
//! RTTs through.
//!
//! Window scheduling always runs on [`SimClock`] — campaigns stay
//! deterministic regardless of the data plane. Real-packet backends
//! additionally need *measurement* time (when was this probe sent, when
//! did its echo arrive); [`ProbeClock`] scopes that to an injectable
//! trait so the retry/timeout machinery is unit-testable with a manual
//! clock ([`ManualProbeClock`]) and so detlint's `determinism` check can
//! see that host time enters the runtime only through the annotated
//! sites in [`HostClock`] — measurement feeds RTT numbers, never the
//! control flow the equivalence proofs compare.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A microsecond-resolution simulated clock.
///
/// The runtime schedules windows and controller cycles against this clock
/// instead of the host clock, so campaigns are deterministic and fast.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimClock {
    now_us: u64,
}

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Current time in whole seconds.
    pub fn now_s(&self) -> u64 {
        self.now_us / 1_000_000
    }

    /// Advances by `us` microseconds.
    pub fn advance_us(&mut self, us: u64) {
        self.now_us += us;
    }

    /// Advances by `s` seconds.
    pub fn advance_s(&mut self, s: u64) {
        self.now_us += s * 1_000_000;
    }

    /// True when `period_s` divides the current second.
    pub fn on_boundary(&self, period_s: u64) -> bool {
        period_s != 0 && self.now_us.is_multiple_of(period_s * 1_000_000)
    }
}

/// Measurement time for socket-backed probes.
///
/// Two domains, deliberately separate:
///
/// * [`mono_us`](ProbeClock::mono_us) — monotonic microseconds since an
///   arbitrary origin; safe for durations (timeout deadlines, fallback
///   RTTs) but not comparable across processes.
/// * [`wall_us`](ProbeClock::wall_us) — CLOCK_REALTIME microseconds
///   since the UNIX epoch; the domain kernel `SO_TIMESTAMP` receive
///   stamps live in, so a send stamped here subtracts cleanly from a
///   kernel stamp.
pub trait ProbeClock: Send + Sync {
    /// Monotonic microseconds since the clock's origin.
    fn mono_us(&self) -> u64;

    /// Wall-clock microseconds since the UNIX epoch (the kernel
    /// `SO_TIMESTAMP` domain).
    fn wall_us(&self) -> u64;
}

/// The host's real clocks — the production [`ProbeClock`].
#[derive(Debug)]
pub struct HostClock {
    origin: Instant,
}

impl HostClock {
    /// A host clock with its monotonic origin at construction time.
    pub fn new() -> Self {
        Self {
            // detlint::allow(determinism, reason = "ProbeClock is the measurement seam; RTT numbers never feed window control flow")
            origin: Instant::now(),
        }
    }
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ProbeClock for HostClock {
    fn mono_us(&self) -> u64 {
        // detlint::allow(determinism, reason = "ProbeClock is the measurement seam; RTT numbers never feed window control flow")
        self.origin.elapsed().as_micros() as u64
    }

    fn wall_us(&self) -> u64 {
        // detlint::allow(determinism, reason = "kernel SO_TIMESTAMP stamps are CLOCK_REALTIME; send stamps must share that domain")
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0)
    }
}

/// A hand-cranked [`ProbeClock`] for unit tests: both domains advance
/// only when told to, so timeout/retry and kernel-vs-monotonic fallback
/// logic is testable without sleeping.
#[derive(Debug, Default)]
pub struct ManualProbeClock {
    mono: AtomicU64,
    wall: AtomicU64,
}

impl ManualProbeClock {
    /// A manual clock at mono = 0, wall = `wall_us`.
    pub fn starting_at(wall_us: u64) -> Self {
        Self {
            mono: AtomicU64::new(0),
            wall: AtomicU64::new(wall_us),
        }
    }

    /// Advances both domains by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.mono.fetch_add(us, Ordering::SeqCst);
        self.wall.fetch_add(us, Ordering::SeqCst);
    }

    /// Steps the wall clock only (simulating an NTP jump), leaving the
    /// monotonic domain untouched.
    pub fn step_wall_us(&self, us: i64) {
        if us >= 0 {
            self.wall.fetch_add(us as u64, Ordering::SeqCst);
        } else {
            self.wall.fetch_sub(us.unsigned_abs(), Ordering::SeqCst);
        }
    }
}

impl ProbeClock for ManualProbeClock {
    fn mono_us(&self) -> u64 {
        self.mono.load(Ordering::SeqCst)
    }

    fn wall_us(&self) -> u64 {
        self.wall.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_reports() {
        let mut c = SimClock::new();
        assert_eq!(c.now_us(), 0);
        c.advance_s(30);
        assert_eq!(c.now_s(), 30);
        c.advance_us(500);
        assert_eq!(c.now_us(), 30_000_500);
    }

    #[test]
    fn boundary_detection() {
        let mut c = SimClock::new();
        assert!(c.on_boundary(30));
        c.advance_s(30);
        assert!(c.on_boundary(30));
        assert!(!c.on_boundary(600));
        c.advance_s(570);
        assert!(c.on_boundary(600));
        assert!(!c.on_boundary(0));
    }

    #[test]
    fn host_clock_domains_advance() {
        let c = HostClock::new();
        let m0 = c.mono_us();
        let w0 = c.wall_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.mono_us() >= m0 + 1_000, "monotonic must advance");
        assert!(c.wall_us() > w0, "wall clock must advance");
        assert!(w0 > 1_600_000_000_000_000, "wall domain is unix-epoch µs");
    }

    #[test]
    fn manual_clock_is_hand_cranked() {
        let c = ManualProbeClock::starting_at(1_000_000);
        assert_eq!(c.mono_us(), 0);
        assert_eq!(c.wall_us(), 1_000_000);
        c.advance_us(250);
        assert_eq!((c.mono_us(), c.wall_us()), (250, 1_000_250));
        c.step_wall_us(-500);
        assert_eq!(c.mono_us(), 250, "wall steps must not move mono");
        assert_eq!(c.wall_us(), 999_750);
    }
}
