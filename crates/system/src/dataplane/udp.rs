//! Real-packet UDP [`DataPlane`]: probes as actual datagrams.
//!
//! Every simulated backend answers a probe by *computing* its fate; this
//! one finds out by sending it. A probe is encoded with
//! [`encode_probe`](detector_simnet::encode_probe) — the same IP-in-IP
//! wire layout the simulator models — wrapped in a UDP datagram to a
//! [`Responder`](crate::responder::Responder)-backed echo socket, and
//! matched by sequence number when the echo returns.
//!
//! The pieces:
//!
//! * [`UdpDataPlane`] — the [`DataPlane`] implementation. An in-flight
//!   probe owns a socket taken from an idle pool: `probe_tagged` sends on
//!   it and then reads its own echo off it on the *calling* worker, until
//!   the datagram carrying the attempt's sequence number lands or the
//!   attempt's deadline passes. No echo crosses a thread, and the
//!   pipelined scheduler's probe workers hide wire wait exactly as they
//!   hide the simulator's modeled RTTs. The pool binds a socket only when
//!   every pooled one is in flight, so it grows to the peak number of
//!   concurrent probers and no further.
//! * [`RetryPolicy`] — per-probe timeout with bounded exponential
//!   backoff. Every attempt gets a **fresh** sequence number, so an echo
//!   that arrives after its attempt was abandoned — read by the same
//!   probe's next attempt, or by the next probe to take the socket — can
//!   never complete a later attempt (no double-counting; see
//!   `late_echoes` in [`UdpStats`]).
//! * RTT measurement — kernel `SO_TIMESTAMP` receive stamps
//!   ([`timestamp`]) when the platform grants them, monotonic clock
//!   fallback otherwise. Both flow through the [`ProbeClock`] seam, which
//!   keeps detlint's `determinism` check meaningful: host time enters
//!   only through that annotated boundary, and RTTs never steer window
//!   control flow.
//! * [`LossShim`] — deterministic injected loss, keyed by
//!   `(seed, window, path_id)` and decided *before* the socket is
//!   touched. Because the drop decision is a pure hash and outcomes carry
//!   no RTT into window results, the pipelined/scripted equivalence and
//!   soak suites hold against real sockets.
//! * [`UdpHarness`] (in [`harness`]) — in-process loopback responders
//!   that make all of this CI-testable without privileges or real NICs.

mod harness;
mod timestamp;

pub use harness::{HarnessStats, UdpHarness};

use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use detector_core::splitmix64;
use detector_simnet::{decode_probe, encode_probe, FlowKey, ProbePacket, PROBE_WIRE_SIZE};
use detector_topology::Route;
use rand::rngs::SmallRng;

use crate::clock::ProbeClock;
use crate::dataplane::{DataPlane, ProbeOutcome, ProbeTag};

/// Per-probe timeout/retry schedule: `retries + 1` attempts, the n-th
/// waiting `attempt_timeout_us * backoff_mult^n` capped at
/// `max_timeout_us`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Timeout of the first attempt, microseconds.
    pub attempt_timeout_us: u64,
    /// Number of retransmissions after the first attempt.
    pub retries: u32,
    /// Multiplier applied to the timeout per retransmission (≥ 1).
    pub backoff_mult: u32,
    /// Upper bound on any single attempt's timeout, microseconds.
    pub max_timeout_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempt_timeout_us: 20_000,
            retries: 2,
            backoff_mult: 4,
            max_timeout_us: 100_000,
        }
    }
}

impl RetryPolicy {
    /// Total send attempts (first try + retries).
    pub fn attempts(&self) -> u32 {
        self.retries.saturating_add(1)
    }

    /// Timeout for the zero-indexed `attempt`, with backoff and cap
    /// applied.
    pub fn timeout_us(&self, attempt: u32) -> u64 {
        let mult = u64::from(self.backoff_mult.max(1)).saturating_pow(attempt);
        self.attempt_timeout_us
            .saturating_mul(mult)
            .min(self.max_timeout_us.max(self.attempt_timeout_us))
    }
}

/// Configuration for [`UdpDataPlane`].
#[derive(Clone, Debug)]
pub struct UdpConfig {
    /// Number of probe sockets bound at [`UdpDataPlane::connect`] (at
    /// least one). The pool binds more only while every pooled socket
    /// is in flight, and keeps them.
    pub sockets: usize,
    /// Local address the probe sockets bind. Its port must be 0
    /// (ephemeral): every in-flight probe binds a socket of its own, so
    /// a fixed port could serve one probe at a time, and
    /// [`UdpDataPlane::connect`] rejects it with
    /// [`InvalidInput`](io::ErrorKind::InvalidInput).
    pub bind: SocketAddr,
    /// Timeout/retry schedule per probe.
    pub retry: RetryPolicy,
}

impl Default for UdpConfig {
    fn default() -> Self {
        Self {
            sockets: 2,
            bind: SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
            retry: RetryPolicy::default(),
        }
    }
}

/// Deterministic injected loss for the loopback harness.
///
/// Whether a probe is dropped is a pure hash of
/// `(seed, window, path_id)` — no socket state, no clock — so a
/// sequential oracle run and a pipelined run over the same plan drop
/// exactly the same probes, which is what lets the equivalence and soak
/// suites run against real sockets. The decision short-circuits at the
/// send boundary (no datagram, no timeout wait), mirroring how the
/// simulated fabric reports a loss without serving the RTT.
///
/// In-rack probes ([`ProbeTag::IN_RACK`]) are never dropped: they carry
/// no matrix path, and dropping them would only perturb reachability
/// accounting the suites pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LossShim {
    seed: u64,
    drop_per_mille: u16,
}

impl LossShim {
    /// A shim dropping `drop_per_mille`/1000 of matrix-path probes,
    /// keyed by `seed`.
    pub fn new(seed: u64, drop_per_mille: u16) -> Self {
        Self {
            seed,
            drop_per_mille: drop_per_mille.min(1000),
        }
    }

    /// Pure drop decision for one probe.
    pub fn drops(&self, window: u64, path_id: u32) -> bool {
        if path_id == ProbeTag::IN_RACK {
            return false;
        }
        let h = splitmix64(splitmix64(self.seed ^ window) ^ u64::from(path_id));
        h % 1000 < u64::from(self.drop_per_mille)
    }
}

/// Snapshot of [`UdpDataPlane`] counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UdpStats {
    /// Datagrams handed to the socket.
    pub sent: u64,
    /// Probes whose echo arrived within some attempt's timeout.
    pub delivered: u64,
    /// Retransmission attempts (beyond each probe's first send).
    pub retries: u64,
    /// Attempts abandoned on timeout.
    pub timeouts: u64,
    /// Echoes that arrived after their attempt was abandoned (or arrived
    /// twice); dropped without completing anything.
    pub late_echoes: u64,
    /// Probes dropped by the injected-loss shim before reaching a socket.
    pub shim_dropped: u64,
    /// Echoes whose RTT came from a kernel `SO_TIMESTAMP` stamp.
    pub kernel_stamped: u64,
    /// Echoes whose RTT fell back to the monotonic clock.
    pub mono_stamped: u64,
    /// Datagrams that failed probe decoding.
    pub decode_errors: u64,
    /// Socket send failures (each consumes one attempt), plus probes
    /// that got no responder address or no socket to send from.
    pub send_errors: u64,
}

#[derive(Default)]
struct Counters {
    sent: AtomicU64,
    delivered: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    late_echoes: AtomicU64,
    shim_dropped: AtomicU64,
    kernel_stamped: AtomicU64,
    mono_stamped: AtomicU64,
    decode_errors: AtomicU64,
    send_errors: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> UdpStats {
        UdpStats {
            sent: self.sent.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            late_echoes: self.late_echoes.load(Ordering::Relaxed),
            shim_dropped: self.shim_dropped.load(Ordering::Relaxed),
            kernel_stamped: self.kernel_stamped.load(Ordering::Relaxed),
            mono_stamped: self.mono_stamped.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            send_errors: self.send_errors.load(Ordering::Relaxed),
        }
    }
}

/// One attempt of a probe: its sequence number, send stamps and timeout.
#[derive(Clone, Copy, Debug)]
struct Attempt {
    seq: u32,
    sent_mono_us: u64,
    sent_wall_us: u64,
    timeout_us: u64,
}

impl Attempt {
    /// The monotonic instant the attempt is abandoned at.
    fn deadline_us(&self) -> u64 {
        self.sent_mono_us.saturating_add(self.timeout_us)
    }
}

/// A received echo: its RTT and which clock measured it. Carrying
/// `kernel` lets the prober bump `delivered` and the stamp counter
/// together, so a stats snapshot can never observe one ahead of the
/// other.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Echo {
    rtt_us: f64,
    kernel: bool,
}

/// The RTT of an echo received at `now_mono_us` for a probe sent at
/// `(sent_mono_us, sent_wall_us)`. Uses the kernel wall stamp when it is
/// present *and* not behind the send stamp (a wall clock stepped
/// backwards mid-flight would otherwise produce a bogus RTT); falls back
/// to the monotonic clock.
fn stamp_echo(
    sent_mono_us: u64,
    sent_wall_us: u64,
    kernel_wall_us: Option<u64>,
    now_mono_us: u64,
) -> Echo {
    match kernel_wall_us {
        Some(w) if w >= sent_wall_us => Echo {
            rtt_us: (w - sent_wall_us) as f64,
            kernel: true,
        },
        _ => Echo {
            rtt_us: now_mono_us.saturating_sub(sent_mono_us) as f64,
            kernel: false,
        },
    }
}

/// A pooled probe socket and the read timeout armed on it.
struct ProbeSocket {
    socket: UdpSocket,
    /// The read timeout in force, microseconds (0: none armed yet).
    armed_us: u64,
}

impl ProbeSocket {
    /// Sets the read timeout to `wait_us` (> 0) unless that is what is
    /// already armed: a socket whose attempts keep one timeout pays no
    /// `setsockopt` per probe.
    fn arm(&mut self, wait_us: u64) -> io::Result<()> {
        if self.armed_us != wait_us {
            self.socket
                .set_read_timeout(Some(Duration::from_micros(wait_us)))?;
            self.armed_us = wait_us;
        }
        Ok(())
    }

    /// Reads datagrams until the echo of `attempt` arrives, or the probe
    /// clock passes the attempt's deadline (`None`). A datagram carrying
    /// another sequence number is an echo of an earlier, abandoned
    /// attempt: it is counted in `late_echoes`, dropped, and the read
    /// resumes on the time that remains.
    fn await_echo(
        &mut self,
        attempt: &Attempt,
        clock: &dyn ProbeClock,
        stats: &Counters,
    ) -> Option<Echo> {
        let mut buf = [0u8; 2048];
        // The first read waits the whole timeout — what remained at the
        // send stamp — so the common path re-arms nothing.
        let mut wait_us = attempt.timeout_us;
        while wait_us > 0 {
            self.arm(wait_us).ok()?;
            let received = timestamp::recv_with_stamp(&self.socket, &mut buf);
            let now_mono = clock.mono_us();
            match received {
                Ok((len, kernel_wall)) => match buf.get(..len).map(decode_probe) {
                    Some(Ok(pkt)) if pkt.seq == attempt.seq => {
                        return Some(stamp_echo(
                            attempt.sent_mono_us,
                            attempt.sent_wall_us,
                            kernel_wall,
                            now_mono,
                        ));
                    }
                    Some(Ok(_)) => Counters::bump(&stats.late_echoes),
                    _ => Counters::bump(&stats.decode_errors),
                },
                // The read timed out (the kernel's timer may fire a tick
                // early) or was interrupted: the clock decides below.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                // Any other socket error abandons the attempt, as its
                // timeout would.
                Err(_) => return None,
            }
            wait_us = attempt.deadline_us().saturating_sub(now_mono);
        }
        None
    }
}

/// Socket-backed [`DataPlane`]: real UDP probes to
/// [`Responder`](crate::responder::Responder) echo sockets.
///
/// Construct with [`UdpDataPlane::connect`] (or
/// [`UdpHarness::dataplane`] for the loopback harness). Dropping the
/// plane closes its sockets.
pub struct UdpDataPlane {
    /// Sockets no probe is using; a probe takes one for its duration.
    idle: Mutex<Vec<ProbeSocket>>,
    bind: SocketAddr,
    /// Responder addresses; a flow's `dst` node maps onto
    /// `addrs[dst % len]`.
    addrs: Vec<SocketAddr>,
    clock: Arc<dyn ProbeClock>,
    retry: RetryPolicy,
    loss: Option<LossShim>,
    kernel_ts: AtomicBool,
    seq: AtomicU32,
    stats: Counters,
}

impl UdpDataPlane {
    /// Binds the initial probe socket pool (`cfg.sockets`, at least one).
    ///
    /// `responders` are the echo socket addresses (a flow's destination
    /// node selects `responders[dst % len]`); `loss` optionally installs
    /// the deterministic injected-loss shim. Fails with `InvalidInput`
    /// on an empty responder list or a `cfg.bind` with a non-zero port.
    pub fn connect(
        responders: &[SocketAddr],
        cfg: &UdpConfig,
        loss: Option<LossShim>,
        clock: Arc<dyn ProbeClock>,
    ) -> io::Result<Self> {
        if responders.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "UdpDataPlane needs at least one responder address",
            ));
        }
        if cfg.bind.port() != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "UdpConfig::bind must leave the port 0: every in-flight probe binds a socket",
            ));
        }
        let count = cfg.sockets.max(1);
        let plane = Self {
            idle: Mutex::new(Vec::with_capacity(count)),
            bind: cfg.bind,
            addrs: responders.to_vec(),
            clock,
            retry: cfg.retry,
            loss,
            kernel_ts: AtomicBool::new(true),
            seq: AtomicU32::new(0),
            stats: Counters::default(),
        };
        for _ in 0..count {
            let socket = plane.bind_socket()?;
            plane.idle().push(socket);
        }
        Ok(plane)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> UdpStats {
        self.stats.snapshot()
    }

    /// True when every socket bound so far accepted `SO_TIMESTAMP` (RTTs
    /// use kernel receive stamps; otherwise they fall back to the
    /// monotonic clock).
    pub fn kernel_timestamps(&self) -> bool {
        self.kernel_ts.load(Ordering::Relaxed)
    }

    /// Poison-tolerant lock: every pool update is a single push or pop,
    /// so the pool is consistent even after a prober panicked.
    fn idle(&self) -> MutexGuard<'_, Vec<ProbeSocket>> {
        self.idle.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn bind_socket(&self) -> io::Result<ProbeSocket> {
        let socket = UdpSocket::bind(self.bind)?;
        if !timestamp::enable(&socket) {
            self.kernel_ts.store(false, Ordering::Relaxed);
        }
        Ok(ProbeSocket {
            socket,
            armed_us: 0,
        })
    }

    /// An idle socket, or a freshly bound one when every pooled socket
    /// is in flight.
    fn take_socket(&self) -> io::Result<ProbeSocket> {
        let pooled = self.idle().pop();
        match pooled {
            Some(socket) => Ok(socket),
            None => self.bind_socket(),
        }
    }

    fn addr_of(&self, dst: u32) -> Option<SocketAddr> {
        if self.addrs.is_empty() {
            None
        } else {
            self.addrs.get(dst as usize % self.addrs.len()).copied()
        }
    }

    /// The retry loop of one probe on the socket it owns.
    fn probe_on(
        &self,
        socket: &mut ProbeSocket,
        tag: ProbeTag,
        flow: FlowKey,
        addr: SocketAddr,
    ) -> ProbeOutcome {
        // Every attempt is encoded into this one stack buffer: nothing on
        // the send path allocates.
        let mut wire = [0u8; PROBE_WIRE_SIZE];
        for attempt in 0..self.retry.attempts() {
            if attempt > 0 {
                Counters::bump(&self.stats.retries);
            }
            // A fresh sequence number per attempt: an echo of an
            // abandoned attempt can never complete this one.
            let sent = Attempt {
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                sent_mono_us: self.clock.mono_us(),
                sent_wall_us: self.clock.wall_us(),
                timeout_us: self.retry.timeout_us(attempt),
            };
            encode_probe(
                &ProbePacket {
                    waypoint: tag.waypoint,
                    flow,
                    seq: sent.seq,
                    path_id: tag.path_id,
                    timestamp_us: sent.sent_wall_us,
                },
                &mut wire,
            );
            if socket.socket.send_to(&wire, addr).is_err() {
                Counters::bump(&self.stats.send_errors);
                continue;
            }
            Counters::bump(&self.stats.sent);
            if let Some(echo) = socket.await_echo(&sent, self.clock.as_ref(), &self.stats) {
                Counters::bump(&self.stats.delivered);
                Counters::bump(if echo.kernel {
                    &self.stats.kernel_stamped
                } else {
                    &self.stats.mono_stamped
                });
                return ProbeOutcome {
                    delivered: true,
                    rtt_us: echo.rtt_us,
                };
            }
            Counters::bump(&self.stats.timeouts);
        }
        LOST
    }
}

/// The outcome of a probe that never saw its echo.
const LOST: ProbeOutcome = ProbeOutcome {
    delivered: false,
    rtt_us: 0.0,
};

impl DataPlane for UdpDataPlane {
    fn probe(&self, route: &Route, flow: FlowKey, rng: &mut SmallRng) -> ProbeOutcome {
        self.probe_tagged(ProbeTag::UNTAGGED, route, flow, rng)
    }

    fn probe_tagged(
        &self,
        tag: ProbeTag,
        _route: &Route,
        flow: FlowKey,
        _rng: &mut SmallRng,
    ) -> ProbeOutcome {
        if let Some(loss) = &self.loss {
            if loss.drops(tag.window, tag.path_id) {
                // Decided before the socket: deterministic, and no
                // timeout wait is served for an injected drop.
                Counters::bump(&self.stats.shim_dropped);
                return LOST;
            }
        }
        let Some(addr) = self.addr_of(flow.dst) else {
            Counters::bump(&self.stats.send_errors);
            return LOST;
        };
        let Ok(mut socket) = self.take_socket() else {
            Counters::bump(&self.stats.send_errors);
            return LOST;
        };
        let outcome = self.probe_on(&mut socket, tag, flow, addr);
        self.idle().push(socket);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use rand::SeedableRng;

    use super::*;
    use crate::clock::{HostClock, ManualProbeClock};

    const WALL0: u64 = 1_700_000_000_000_000;
    const DPORT: u16 = 53_533;

    #[test]
    fn retry_policy_backs_off_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.attempts(), 3);
        assert_eq!(p.timeout_us(0), 20_000);
        assert_eq!(p.timeout_us(1), 80_000);
        assert_eq!(p.timeout_us(2), 100_000, "capped at max_timeout_us");
        let flat = RetryPolicy {
            attempt_timeout_us: 5_000,
            retries: 1,
            backoff_mult: 0, // Clamped to 1.
            max_timeout_us: 1_000,
        };
        assert_eq!(
            flat.timeout_us(0),
            5_000,
            "cap never shrinks below the base timeout"
        );
        assert_eq!(flat.timeout_us(5), 5_000);
    }

    #[test]
    fn pending_prefers_kernel_stamp() {
        assert_eq!(
            stamp_echo(1_000, WALL0, Some(WALL0 + 450), 999_999),
            Echo {
                rtt_us: 450.0,
                kernel: true
            }
        );
    }

    #[test]
    fn pending_falls_back_to_mono_when_wall_steps_back() {
        // An NTP step put the kernel stamp *behind* the send stamp; the
        // monotonic difference must be used instead.
        assert_eq!(
            stamp_echo(2_000, WALL0, Some(WALL0 - 1), 2_700),
            Echo {
                rtt_us: 700.0,
                kernel: false
            }
        );
    }

    #[test]
    fn pending_falls_back_to_mono_without_kernel_stamp() {
        assert_eq!(
            stamp_echo(5_000, WALL0, None, 6_250),
            Echo {
                rtt_us: 1_250.0,
                kernel: false
            }
        );
    }

    fn loopback_socket() -> ProbeSocket {
        ProbeSocket {
            socket: UdpSocket::bind("127.0.0.1:0").unwrap(),
            armed_us: 0,
        }
    }

    /// A well-formed echo datagram carrying `seq`.
    fn echo_datagram(seq: u32) -> [u8; PROBE_WIRE_SIZE] {
        let mut wire = [0u8; PROBE_WIRE_SIZE];
        encode_probe(
            &ProbePacket {
                waypoint: 0,
                flow: FlowKey::udp(2, 1, DPORT, 33_000),
                seq,
                path_id: 0,
                timestamp_us: 0,
            },
            &mut wire,
        );
        wire
    }

    #[test]
    fn await_echo_times_out_on_a_manual_clock() {
        let mut sock = loopback_socket();
        let clock = ManualProbeClock::default();
        let stats = Counters::default();
        clock.advance_us(50);
        let mut attempt = Attempt {
            seq: 13,
            sent_mono_us: 50,
            sent_wall_us: WALL0,
            timeout_us: 0,
        };
        // Deadline = 50 + 0: no read is made at all.
        assert_eq!(sock.await_echo(&attempt, &clock, &stats), None);
        assert_eq!(sock.armed_us, 0, "a spent deadline arms nothing");
        // The clock, not the socket, ends the wait: one 1 ms read times
        // out, and the manual clock already stands past the deadline.
        attempt.timeout_us = 1_000;
        clock.advance_us(5_000);
        assert_eq!(sock.await_echo(&attempt, &clock, &stats), None);
        assert_eq!(sock.armed_us, 1_000);
        assert_eq!(stats.snapshot(), UdpStats::default());
    }

    /// A probe clock whose monotonic reading advances by `step` per read.
    struct Ticking {
        mono: AtomicU64,
        step: u64,
    }

    impl ProbeClock for Ticking {
        fn mono_us(&self) -> u64 {
            self.mono.fetch_add(self.step, Ordering::SeqCst) + self.step
        }

        fn wall_us(&self) -> u64 {
            WALL0
        }
    }

    #[test]
    fn a_late_echo_resumes_the_read_on_the_remaining_time() {
        let mut sock = loopback_socket();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(&echo_datagram(3), sock.socket.local_addr().unwrap())
            .unwrap();
        let clock = Ticking {
            mono: AtomicU64::new(0),
            step: 1_200,
        };
        let stats = Counters::default();
        let attempt = Attempt {
            seq: 4,
            sent_mono_us: 0,
            sent_wall_us: WALL0,
            timeout_us: 2_000,
        };
        // Read 1 takes the stale echo at t = 1 200; read 2 waits exactly
        // the 800 µs left, after which the clock reads 2 400 ≥ 2 000.
        assert_eq!(sock.await_echo(&attempt, &clock, &stats), None);
        assert_eq!(sock.armed_us, 800);
        assert_eq!(stats.snapshot().late_echoes, 1);
        assert_eq!(clock.mono.load(Ordering::SeqCst), 2_400, "two reads");
    }

    fn empty_route() -> Route<'static> {
        Route::default()
    }

    /// Patient enough that a descheduled responder on a busy host is a
    /// slow echo, not a retry: the counters the tests read stay exact.
    fn patient(sockets: usize) -> UdpConfig {
        UdpConfig {
            sockets,
            retry: RetryPolicy {
                attempt_timeout_us: 2_000_000,
                max_timeout_us: 2_000_000,
                ..RetryPolicy::default()
            },
            ..UdpConfig::default()
        }
    }

    /// The idle socket the next probe takes.
    fn idle_addr(plane: &UdpDataPlane) -> SocketAddr {
        plane.idle().last().unwrap().socket.local_addr().unwrap()
    }

    fn pooled(plane: &UdpDataPlane) -> usize {
        plane.idle().len()
    }

    fn probe(plane: &UdpDataPlane, rng: &mut SmallRng) -> ProbeOutcome {
        plane.probe(&empty_route(), FlowKey::udp(1, 2, 33_000, DPORT), rng)
    }

    #[test]
    fn stale_echo_is_counted_late_and_cannot_double_count() {
        let harness = UdpHarness::spawn(1, DPORT, Arc::new(HostClock::new())).unwrap();
        let plane = harness.dataplane(&patient(1), None).unwrap();
        // An echo of an attempt abandoned long ago waits in the socket.
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(&echo_datagram(u32::MAX), idle_addr(&plane))
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(probe(&plane, &mut rng).delivered);
        let stats = plane.stats();
        assert_eq!(stats.late_echoes, 1);
        assert_eq!((stats.sent, stats.delivered), (1, 1));
        assert_eq!((stats.timeouts, stats.decode_errors), (0, 0));
    }

    #[test]
    fn duplicate_echo_is_flagged() {
        let harness = UdpHarness::spawn(1, DPORT, Arc::new(HostClock::new())).unwrap();
        let plane = harness.dataplane(&patient(1), None).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(probe(&plane, &mut rng).delivered);
        // Attempt 0 is echoed a second time, after its probe completed.
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(&echo_datagram(0), idle_addr(&plane)).unwrap();
        assert!(probe(&plane, &mut rng).delivered);
        let stats = plane.stats();
        assert_eq!(stats.late_echoes, 1);
        assert_eq!((stats.sent, stats.delivered), (2, 2), "first RTT kept");
        assert_eq!(stats.kernel_stamped + stats.mono_stamped, 2);
    }

    #[test]
    fn the_pool_is_bounded_by_concurrency_not_by_traffic() {
        const K: usize = 4;
        let harness = UdpHarness::spawn(2, DPORT, Arc::new(HostClock::new())).unwrap();
        let plane = harness.dataplane(&patient(1), None).unwrap();
        let start = Barrier::new(K);
        std::thread::scope(|s| {
            for t in 0..K {
                let (plane, start) = (&plane, &start);
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t as u64);
                    start.wait();
                    for _ in 0..25 {
                        assert!(probe(plane, &mut rng).delivered);
                    }
                });
            }
        });
        let peak = pooled(&plane);
        assert!((1..=K).contains(&peak), "{peak} sockets for {K} probers");
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1_000 {
            assert!(probe(&plane, &mut rng).delivered);
        }
        assert_eq!(pooled(&plane), peak, "sequential probes bind nothing");
        assert_eq!(plane.stats().delivered, (K * 25 + 1_000) as u64);
    }

    #[test]
    fn connect_rejects_a_fixed_port() {
        let cfg = UdpConfig {
            sockets: 1,
            bind: SocketAddr::from((Ipv4Addr::LOCALHOST, 40_000)),
            ..UdpConfig::default()
        };
        let responder = [SocketAddr::from((Ipv4Addr::LOCALHOST, 9))];
        let clock = Arc::new(ManualProbeClock::default());
        let err = UdpDataPlane::connect(&responder, &cfg, None, clock)
            .err()
            .expect("a fixed port is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn loss_shim_is_deterministic_and_spares_in_rack() {
        let a = LossShim::new(42, 200);
        let b = LossShim::new(42, 200);
        let mut dropped = 0usize;
        for window in 0..20u64 {
            for path in 0..100u32 {
                assert_eq!(a.drops(window, path), b.drops(window, path));
                if a.drops(window, path) {
                    dropped += 1;
                }
            }
        }
        // 20% nominal over 2000 trials: allow a generous band.
        assert!((200..=600).contains(&dropped), "dropped {dropped}/2000");
        for window in 0..50u64 {
            assert!(!a.drops(window, ProbeTag::IN_RACK));
        }
        let off = LossShim::new(42, 0);
        for window in 0..20u64 {
            for path in 0..100u32 {
                assert!(!off.drops(window, path));
            }
        }
    }

    #[test]
    fn loss_shim_varies_with_seed_and_clamps_rate() {
        let a = LossShim::new(1, 500);
        let b = LossShim::new(2, 500);
        let differs = (0..200u32).any(|p| a.drops(0, p) != b.drops(0, p));
        assert!(differs, "different seeds must drop different probes");
        let saturated = LossShim::new(3, 5_000); // Clamped to 1000/1000.
        for path in 0..50u32 {
            assert!(saturated.drops(0, path));
        }
    }

    #[test]
    fn connect_rejects_empty_responder_list() {
        let clock = Arc::new(ManualProbeClock::default());
        let err = UdpDataPlane::connect(&[], &UdpConfig::default(), None, clock);
        assert!(err.is_err());
    }
}
