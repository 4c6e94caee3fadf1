//! Loopback harness: real [`Responder`] echo sockets, in process.
//!
//! Spawns N UDP sockets on `127.0.0.1`, each served by a thread running
//! the stateless [`Responder`] packet transformation — validate, reverse
//! the flow, stamp, echo to the datagram's source address. This is the
//! CI face of the UDP data plane: every probe crosses the kernel's
//! loopback stack as a real datagram, no privileges or NICs required.
//!
//! Stray traffic (well-formed probes whose embedded logical port is not
//! the harness's) is dropped silently and counted — the behavior
//! [`PacketError::WrongPort`] exists to make possible without inflating
//! corruption counters.

use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use detector_simnet::{PacketError, PROBE_WIRE_SIZE};

use super::{LossShim, UdpConfig, UdpDataPlane};
use crate::clock::ProbeClock;
use crate::responder::Responder;

/// Snapshot of harness-side counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HarnessStats {
    /// Probes validated and echoed.
    pub echoed: u64,
    /// Well-formed probes to the wrong logical port, dropped silently.
    pub stray: u64,
    /// Datagrams rejected by the codec (truncated/malformed/checksum).
    pub corrupt: u64,
}

#[derive(Default)]
struct SharedStats {
    echoed: AtomicU64,
    stray: AtomicU64,
    corrupt: AtomicU64,
}

/// In-process responder pool backing a [`UdpDataPlane`] over loopback.
///
/// Dropping the harness shuts its responder threads down and joins them.
pub struct UdpHarness {
    addrs: Vec<SocketAddr>,
    dport: u16,
    clock: Arc<dyn ProbeClock>,
    stats: Arc<SharedStats>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl UdpHarness {
    /// Spawns `responders` echo sockets (at least one) serving logical
    /// port `dport`, stamping replies from `clock`.
    pub fn spawn(responders: usize, dport: u16, clock: Arc<dyn ProbeClock>) -> io::Result<Self> {
        let count = responders.max(1);
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(SharedStats::default());
        let mut addrs = Vec::with_capacity(count);
        let mut threads = Vec::with_capacity(count);
        for i in 0..count {
            let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
            socket.set_read_timeout(Some(Duration::from_millis(20)))?;
            addrs.push(socket.local_addr()?);
            let sd = Arc::clone(&shutdown);
            let st = Arc::clone(&stats);
            let ck = Arc::clone(&clock);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("udp-responder-{i}"))
                    .spawn(move || responder_loop(&socket, dport, ck.as_ref(), &sd, &st))?,
            );
        }
        Ok(Self {
            addrs,
            dport,
            clock,
            stats,
            shutdown,
            threads,
        })
    }

    /// The echo sockets' addresses, in spawn order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The logical probe port the responders serve.
    pub fn dport(&self) -> u16 {
        self.dport
    }

    /// Responder-side counter snapshot.
    pub fn stats(&self) -> HarnessStats {
        HarnessStats {
            echoed: self.stats.echoed.load(Ordering::Relaxed),
            stray: self.stats.stray.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
        }
    }

    /// A [`UdpDataPlane`] wired to this harness's responders, sharing
    /// its clock.
    pub fn dataplane(&self, cfg: &UdpConfig, loss: Option<LossShim>) -> io::Result<UdpDataPlane> {
        UdpDataPlane::connect(&self.addrs, cfg, loss, Arc::clone(&self.clock))
    }
}

impl Drop for UdpHarness {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn responder_loop(
    socket: &UdpSocket,
    dport: u16,
    clock: &dyn ProbeClock,
    shutdown: &AtomicBool,
    stats: &SharedStats,
) {
    let responder = Responder::new(dport);
    // One receive and one send buffer for the loop's lifetime: an echo
    // costs no allocation and no copy beyond the kernel's.
    let mut buf = [0u8; 2048];
    let mut reply = [0u8; PROBE_WIRE_SIZE];
    while !shutdown.load(Ordering::Acquire) {
        let (len, src) = match socket.recv_from(&mut buf) {
            Ok(x) => x,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        let Some(frame) = buf.get(..len) else {
            continue;
        };
        match responder.echo(frame, clock.wall_us(), &mut reply) {
            Ok(()) => {
                // Counted before the send, so whoever sees the echo also
                // sees it counted.
                stats.echoed.fetch_add(1, Ordering::Relaxed);
                // Echo to wherever the probe came from; losing the send
                // surfaces as a probe timeout, never a responder crash.
                let _ = socket.send_to(&reply, src);
            }
            // The WrongPort bugfix in action: stray traffic is dropped
            // silently, not counted as corruption.
            Err(PacketError::WrongPort) => {
                stats.stray.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                stats.corrupt.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::RetryPolicy;
    use super::*;
    use crate::clock::HostClock;
    use crate::dataplane::{DataPlane, ProbeTag};
    use detector_simnet::{encode_probe, FlowKey, ProbePacket};
    use detector_topology::Route;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn empty_route() -> Route<'static> {
        Route::default()
    }

    #[test]
    fn loopback_probe_round_trips() {
        let clock = Arc::new(HostClock::new());
        let harness = UdpHarness::spawn(2, 53_533, clock).unwrap();
        let plane = harness.dataplane(&UdpConfig::default(), None).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let tag = ProbeTag {
            window: 3,
            path_id: 12,
            waypoint: 42,
        };
        let out = plane.probe_tagged(
            tag,
            &empty_route(),
            FlowKey::udp(1, 2, 33_000, 53_533),
            &mut rng,
        );
        assert!(out.delivered, "loopback echo must arrive");
        assert!(out.rtt_us >= 0.0);
        let stats = plane.stats();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.sent, 1, "no retry needed on loopback");
        assert_eq!(
            stats.kernel_stamped + stats.mono_stamped,
            1,
            "exactly one stamping domain used"
        );
        assert_eq!(harness.stats().echoed, 1);
    }

    #[test]
    fn wrong_logical_port_is_strayed_then_retried_to_timeout() {
        let clock = Arc::new(HostClock::new());
        let harness = UdpHarness::spawn(1, 53_533, clock).unwrap();
        let cfg = UdpConfig {
            retry: RetryPolicy {
                attempt_timeout_us: 2_000,
                retries: 1,
                backoff_mult: 2,
                max_timeout_us: 4_000,
            },
            ..UdpConfig::default()
        };
        let plane = harness.dataplane(&cfg, None).unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        // dport 9 ≠ the harness's logical port: silently dropped at the
        // responder, so every attempt times out.
        let out = plane.probe(&empty_route(), FlowKey::udp(1, 2, 33_000, 9), &mut rng);
        assert!(!out.delivered);
        let stats = plane.stats();
        assert_eq!(stats.sent, 2, "first attempt + one retry");
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.timeouts, 2);
        assert_eq!(stats.decode_errors, 0, "stray probes are not corruption");
        let hs = harness.stats();
        assert_eq!(hs.stray, 2);
        assert_eq!(hs.corrupt, 0);
        assert_eq!(hs.echoed, 0);
    }

    #[test]
    fn corrupt_datagram_counts_against_the_codec() {
        let clock = Arc::new(HostClock::new());
        let harness = UdpHarness::spawn(1, 53_533, clock).unwrap();
        let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = harness.addrs()[0];
        // A probe with a flipped payload byte, and outright garbage.
        let mut raw = [0u8; PROBE_WIRE_SIZE];
        encode_probe(
            &ProbePacket {
                waypoint: 0,
                flow: FlowKey::udp(1, 2, 33_000, 53_533),
                seq: 1,
                path_id: 0,
                timestamp_us: 0,
            },
            &mut raw,
        );
        // Flip a checksum byte inside the inner header (one IPv4 header in).
        raw[20 + 8] ^= 0xff;
        sender.send_to(&raw, addr).unwrap();
        sender.send_to(&[0u8; 64], addr).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while harness.stats().corrupt < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let hs = harness.stats();
        assert_eq!(hs.corrupt, 2);
        assert_eq!(hs.stray, 0);
        assert_eq!(hs.echoed, 0);
    }

    #[test]
    fn shimmed_probe_never_touches_the_wire() {
        let clock = Arc::new(HostClock::new());
        let harness = UdpHarness::spawn(1, 53_533, clock).unwrap();
        // 1000‰ = drop everything (matrix paths).
        let shim = LossShim::new(5, 1000);
        let plane = harness
            .dataplane(&UdpConfig::default(), Some(shim))
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let tag = ProbeTag {
            window: 0,
            path_id: 3,
            waypoint: 0,
        };
        let out = plane.probe_tagged(
            tag,
            &empty_route(),
            FlowKey::udp(1, 2, 33_000, 53_533),
            &mut rng,
        );
        assert!(!out.delivered);
        let stats = plane.stats();
        assert_eq!(stats.shim_dropped, 1);
        assert_eq!(stats.sent, 0, "shimmed drops short-circuit the socket");
        assert_eq!(stats.timeouts, 0, "no timeout is served for a shimmed drop");
    }
}
