//! The responder: a stateless userspace echo service (§3.1).
//!
//! Runs on every server, listens on the probe port, and upon receiving a
//! probe adds a timestamp and sends it back; it retains no state — all
//! bookkeeping lives in the pingers. This module implements the packet
//! transformation faithfully over the `detector-simnet` wire format.

use detector_simnet::{decode_probe, encode_probe, PacketError, ProbePacket, PROBE_WIRE_SIZE};

/// The stateless responder.
#[derive(Clone, Copy, Debug, Default)]
pub struct Responder {
    /// The port the responder listens on; well-formed probes to other
    /// ports are stray traffic and are rejected with
    /// [`PacketError::WrongPort`] (socket-backed callers drop them
    /// silently rather than counting codec corruption).
    pub port: u16,
}

impl Responder {
    /// A responder listening on `port`.
    pub fn new(port: u16) -> Self {
        Self { port }
    }

    /// Processes one incoming probe: validates it, swaps the flow
    /// direction, stamps the receive time and encodes the echo into
    /// `out` — the caller's reusable send buffer, left untouched on
    /// `Err`.
    pub fn echo(
        &self,
        wire: &[u8],
        now_us: u64,
        out: &mut [u8; PROBE_WIRE_SIZE],
    ) -> Result<(), PacketError> {
        let probe = decode_probe(wire)?;
        if probe.flow.dport != self.port {
            // Stray but well-formed traffic: distinct from a codec error
            // so transports can silently drop it without inflating their
            // malformed-packet counters.
            return Err(PacketError::WrongPort);
        }
        let reply = ProbePacket {
            waypoint: 0, // Replies are routed natively, no encapsulation.
            flow: probe.flow.reversed(),
            seq: probe.seq,
            path_id: probe.path_id,
            timestamp_us: now_us,
        };
        encode_probe(&reply, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_simnet::FlowKey;
    use proptest::prelude::*;

    const PORT: u16 = 53533;
    /// What an untouched `out` buffer holds in these tests.
    const UNTOUCHED: [u8; PROBE_WIRE_SIZE] = [0x3c; PROBE_WIRE_SIZE];

    fn probe(dport: u16) -> ProbePacket {
        ProbePacket {
            waypoint: 42,
            flow: FlowKey::udp(5, 9, 33001, dport),
            seq: 3,
            path_id: 17,
            timestamp_us: 1000,
        }
    }

    fn encoded(packet: &ProbePacket) -> [u8; PROBE_WIRE_SIZE] {
        let mut wire = [0u8; PROBE_WIRE_SIZE];
        encode_probe(packet, &mut wire);
        wire
    }

    /// The reply a responder stamping `now_us` owes `probe`.
    fn reply_to(probe: &ProbePacket, now_us: u64) -> ProbePacket {
        ProbePacket {
            waypoint: 0,
            flow: probe.flow.reversed(),
            timestamp_us: now_us,
            ..*probe
        }
    }

    /// Echoes into a fresh buffer and checks the contract both ways: an
    /// `Ok` reply is exactly the encoding of the reversed, re-stamped
    /// probe; an `Err` leaves the buffer as it was.
    fn echo_checked(wire: &[u8], now_us: u64) -> Result<ProbePacket, PacketError> {
        let mut out = UNTOUCHED;
        let result = Responder::new(PORT).echo(wire, now_us, &mut out);
        match (result, decode_probe(wire)) {
            (Ok(()), Ok(p)) => {
                let reply = reply_to(&p, now_us);
                assert_eq!(p.flow.dport, PORT);
                assert_eq!(out, encoded(&reply));
                Ok(reply)
            }
            (Err(e), decoded) => {
                assert_eq!(out, UNTOUCHED, "nothing is written on Err");
                match decoded {
                    Ok(p) => {
                        assert_eq!(e, PacketError::WrongPort);
                        assert_ne!(p.flow.dport, PORT);
                    }
                    Err(codec) => assert_eq!(e, codec),
                }
                Err(e)
            }
            (Ok(()), Err(e)) => panic!("echoed a probe the codec rejects: {e}"),
        }
    }

    #[test]
    fn echo_reverses_flow_and_keeps_identity() {
        let p = echo_checked(&encoded(&probe(PORT)), 2000).unwrap();
        assert_eq!(p.flow.src, 9);
        assert_eq!(p.flow.dst, 5);
        assert_eq!(p.flow.sport, PORT);
        assert_eq!(p.seq, 3);
        assert_eq!(p.path_id, 17);
        assert_eq!(p.timestamp_us, 2000);
        assert_eq!(p.waypoint, 0);
    }

    #[test]
    fn wrong_port_is_rejected() {
        assert_eq!(
            echo_checked(&encoded(&probe(99)), 0),
            Err(PacketError::WrongPort)
        );
    }

    #[test]
    fn wrong_port_is_distinct_from_codec_corruption() {
        // Regression: a well-formed probe on the wrong port used to
        // surface as `Malformed`, which a socket transport would count
        // as wire-format corruption. Stray traffic must be `WrongPort`
        // (droppable) while a genuinely corrupt probe keeps its codec
        // error.
        let stray = echo_checked(&encoded(&probe(99)), 0).unwrap_err();
        assert_eq!(stray, PacketError::WrongPort);

        let mut raw = encoded(&probe(PORT));
        let payload_off = 20 * 2 + 8; // outer IP + inner IP + UDP header.
        raw[payload_off] ^= 0xff;
        let corrupt = echo_checked(&raw, 0).unwrap_err();
        assert_eq!(corrupt, PacketError::BadChecksum);
        assert_ne!(stray, corrupt);
    }

    #[test]
    fn corrupt_probe_is_rejected() {
        assert!(echo_checked(&[0u8; 64], 0).is_err());
    }

    #[test]
    fn a_reused_send_buffer_carries_only_the_latest_reply() {
        // What `responder_loop` does: one tx buffer for its lifetime.
        let r = Responder::new(PORT);
        let mut out = [0u8; PROBE_WIRE_SIZE];
        r.echo(&encoded(&probe(PORT)), 1, &mut out).unwrap();
        let second = ProbePacket {
            waypoint: 0,
            seq: 4,
            ..probe(PORT)
        };
        r.echo(&encoded(&second), 2, &mut out).unwrap();
        assert_eq!(out, encoded(&reply_to(&second, 2)));
        // A rejected datagram leaves the last reply in place.
        assert!(r.echo(&encoded(&probe(99)), 3, &mut out).is_err());
        assert_eq!(out, encoded(&reply_to(&second, 2)));
    }

    proptest! {
        #[test]
        fn arbitrary_datagrams_echo_or_fail_typed(
            raw in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..2049),
            now_us in 0u64..u64::MAX,
        ) {
            let _ = echo_checked(&raw, now_us);
        }

        #[test]
        fn damaged_probes_echo_or_fail_typed(
            (seq, path_id, waypoint) in (0u32..u32::MAX, 0u32..u32::MAX, 0u32..3),
            stray in 0u8..4,
            len in 0usize..2049,
            hits in proptest::collection::vec((0usize..1024, 0u16..256), 0..3),
            now_us in 0u64..u64::MAX,
        ) {
            // A valid probe (one in four to a port nobody serves),
            // truncated or extended to `len`, up to two bytes overwritten.
            let dport = if stray == 0 { PORT + 1 } else { PORT };
            let mut raw = encoded(&ProbePacket {
                waypoint,
                seq,
                path_id,
                ..probe(dport)
            })
            .to_vec();
            raw.resize(len, 0x5a);
            for (at, v) in hits {
                if let Some(b) = raw.get_mut(at) {
                    *b = v as u8;
                }
            }
            let _ = echo_checked(&raw, now_us);
        }
    }
}
