//! Probe packet encoding: IP-in-IP source routing over UDP (§3.2, §6.1).
//!
//! deTector controls the probe path by encapsulating the probe in an outer
//! IP header addressed to the chosen core/intermediate switch, which
//! decapsulates and forwards the inner packet to the true destination. We
//! encode exactly that wire layout (outer IPv4 + inner IPv4 + UDP + probe
//! payload) so the runtime manipulates realistic packets; the simulator
//! itself only needs the parsed form.
//!
//! The codec works on caller-owned buffers — [`encode_probe`] fills a
//! `[u8; PROBE_WIRE_SIZE]`, [`decode_probe`] parses a `&[u8]` in place —
//! so a prober or responder loop that keeps its buffers allocates and
//! copies nothing per datagram. Both sides of a real socket feed it
//! untrusted bytes: it never indexes, and every rejection is a typed
//! [`PacketError`].

use crate::flow::FlowKey;

/// Parsed probe packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbePacket {
    /// Address of the decapsulation point (core switch) — the outer
    /// destination. 0 means no encapsulation (direct probe).
    pub waypoint: u32,
    /// The probe's flow identity (inner header fields).
    pub flow: FlowKey,
    /// Probe sequence number within its path/window.
    pub seq: u32,
    /// Probe-matrix path id the probe exercises.
    pub path_id: u32,
    /// Sender timestamp in microseconds (for RTT measurement; the
    /// responder echoes it back).
    pub timestamp_us: u64,
}

/// Errors from probe decoding and responder-side validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketError {
    /// The buffer is shorter than the fixed layout requires.
    Truncated,
    /// A version/protocol field had an unexpected value.
    Malformed,
    /// The payload checksum did not match.
    BadChecksum,
    /// A well-formed probe addressed to a port the receiver does not
    /// serve. On a real socket this is stray traffic, not codec
    /// corruption: responders drop it silently instead of counting it
    /// against the wire format.
    WrongPort,
}

impl core::fmt::Display for PacketError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PacketError::Truncated => write!(f, "probe packet truncated"),
            PacketError::Malformed => write!(f, "probe packet malformed"),
            PacketError::BadChecksum => write!(f, "probe payload checksum mismatch"),
            PacketError::WrongPort => write!(f, "well-formed probe to an unserved port"),
        }
    }
}

impl std::error::Error for PacketError {}

const IPV4_HDR: usize = 20;
const UDP_HDR: usize = 8;
const PAYLOAD: usize = 24;
/// Probe packets average 850 bytes on the wire (§6.1); the remainder after
/// headers and payload is padding that raises packet entropy.
pub const PROBE_WIRE_SIZE: usize = 850;
const PAD_BYTE: u8 = 0xa5;
const PAYLOAD_MAGIC: u32 = 0xdeec_70f5;
/// IPv4 total length of the probe's own (inner) packet, and of the
/// encapsulated one.
const INNER_LEN: u16 = (IPV4_HDR + UDP_HDR + PAYLOAD) as u16;
const OUTER_LEN: u16 = INNER_LEN + IPV4_HDR as u16;

// The longest header run (outer IP + inner IP + UDP + payload) fits the
// wire image, so `put` below never runs out of buffer.
const _: () = assert!(OUTER_LEN as usize <= PROBE_WIRE_SIZE);

/// The fields of an IPv4 header the probe format uses.
struct Ipv4 {
    src: u32,
    dst: u32,
    proto: u8,
    dscp: u8,
}

impl Ipv4 {
    fn encode(&self, total_len: u16) -> [u8; IPV4_HDR] {
        let [l0, l1] = total_len.to_be_bytes();
        let [s0, s1, s2, s3] = self.src.to_be_bytes();
        let [d0, d1, d2, d3] = self.dst.to_be_bytes();
        [
            0x45, // Version 4, IHL 5.
            self.dscp << 2,
            l0,
            l1,
            0, // Identification.
            0,
            0x40, // Don't fragment.
            0,
            63, // TTL.
            self.proto,
            0, // Header checksum (filled by hardware in practice).
            0,
            s0,
            s1,
            s2,
            s3,
            d0,
            d1,
            d2,
            d3,
        ]
    }

    fn decode(hdr: &[u8; IPV4_HDR]) -> Result<Self, PacketError> {
        let [vihl, tos, _, _, _, _, _, _, _, proto, _, _, s0, s1, s2, s3, d0, d1, d2, d3] = *hdr;
        if vihl != 0x45 {
            return Err(PacketError::Malformed);
        }
        Ok(Self {
            src: u32::from_be_bytes([s0, s1, s2, s3]),
            dst: u32::from_be_bytes([d0, d1, d2, d3]),
            proto,
            dscp: tos >> 2,
        })
    }
}

fn payload_checksum(packet: &ProbePacket) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for v in [
        packet.seq,
        packet.path_id,
        packet.timestamp_us as u32,
        (packet.timestamp_us >> 32) as u32,
        packet.flow.src,
        packet.flow.dst,
    ] {
        h ^= v;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Copies `bytes` to the front of `buf` and returns what follows them.
fn put<'a, const N: usize>(buf: &'a mut [u8], bytes: &[u8; N]) -> &'a mut [u8] {
    match buf.split_first_chunk_mut::<N>() {
        Some((head, rest)) => {
            *head = *bytes;
            rest
        }
        None => &mut [],
    }
}

/// Encodes a probe as outer-IP(-in-IP) + inner IP + UDP + payload into
/// `out`, padded to [`PROBE_WIRE_SIZE`]. Every byte of `out` is
/// overwritten, so one buffer can be reused for any sequence of packets.
pub fn encode_probe(packet: &ProbePacket, out: &mut [u8; PROBE_WIRE_SIZE]) {
    let flow = &packet.flow;
    let mut rest: &mut [u8] = out;
    if packet.waypoint != 0 {
        // Outer header: src = real source, dst = waypoint, proto 4
        // (IP-in-IP).
        let outer = Ipv4 {
            src: flow.src,
            dst: packet.waypoint,
            proto: 4,
            dscp: flow.dscp,
        };
        rest = put(rest, &outer.encode(OUTER_LEN));
    }
    let inner = Ipv4 {
        src: flow.src,
        dst: flow.dst,
        proto: flow.proto,
        dscp: flow.dscp,
    };
    rest = put(rest, &inner.encode(INNER_LEN));
    rest = put(rest, &flow.sport.to_be_bytes());
    rest = put(rest, &flow.dport.to_be_bytes());
    rest = put(rest, &((UDP_HDR + PAYLOAD) as u16).to_be_bytes());
    rest = put(rest, &[0, 0]); // UDP checksum.
    rest = put(rest, &packet.seq.to_be_bytes());
    rest = put(rest, &packet.path_id.to_be_bytes());
    rest = put(rest, &packet.timestamp_us.to_be_bytes());
    rest = put(rest, &payload_checksum(packet).to_be_bytes());
    rest = put(rest, &PAYLOAD_MAGIC.to_be_bytes());
    rest.fill(PAD_BYTE);
}

/// Splits the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], PacketError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(PacketError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// Decodes a probe produced by [`encode_probe`], in place; bytes past the
/// payload (the padding) are ignored.
pub fn decode_probe(wire: &[u8]) -> Result<ProbePacket, PacketError> {
    let mut rest = wire;
    let mut ip = Ipv4::decode(&take(&mut rest)?)?;
    let mut waypoint = 0u32;
    if ip.proto == 4 {
        // The first header is an encapsulation: its destination is the
        // waypoint and the probe's own header follows.
        waypoint = ip.dst;
        ip = Ipv4::decode(&take(&mut rest)?)?;
    }
    // Everything below fails only as `Truncated`, and does so before the
    // checksum is looked at.
    let sport = u16::from_be_bytes(take(&mut rest)?);
    let dport = u16::from_be_bytes(take(&mut rest)?);
    let _udp_len_and_csum: [u8; 4] = take(&mut rest)?;
    let seq = u32::from_be_bytes(take(&mut rest)?);
    let path_id = u32::from_be_bytes(take(&mut rest)?);
    let timestamp_us = u64::from_be_bytes(take(&mut rest)?);
    let csum = u32::from_be_bytes(take(&mut rest)?);
    let _magic: [u8; 4] = take(&mut rest)?;

    let packet = ProbePacket {
        waypoint,
        flow: FlowKey {
            src: ip.src,
            dst: ip.dst,
            sport,
            dport,
            proto: ip.proto,
            dscp: ip.dscp,
        },
        seq,
        path_id,
        timestamp_us,
    };
    if payload_checksum(&packet) != csum {
        return Err(PacketError::BadChecksum);
    }
    Ok(packet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The cursor codec this module shipped before the slice codec,
    /// kept statement for statement as the oracle for the wire image and
    /// for the order in which the decoder's checks fire. It writes and
    /// reads through its own big-endian cursor below, never through the
    /// module's `put`/`take`, so it stays independent of the codec it
    /// checks.
    mod reference {
        use super::super::*;

        /// Big-endian appends to a growable buffer.
        trait PutBe {
            fn put_u8(&mut self, v: u8);
            fn put_u16(&mut self, v: u16);
            fn put_u32(&mut self, v: u32);
            fn put_u64(&mut self, v: u64);
        }

        impl PutBe for Vec<u8> {
            fn put_u8(&mut self, v: u8) {
                self.push(v);
            }
            fn put_u16(&mut self, v: u16) {
                self.extend_from_slice(&v.to_be_bytes());
            }
            fn put_u32(&mut self, v: u32) {
                self.extend_from_slice(&v.to_be_bytes());
            }
            fn put_u64(&mut self, v: u64) {
                self.extend_from_slice(&v.to_be_bytes());
            }
        }

        /// Big-endian reads that consume the front of a slice. Like the
        /// cursor they replace, they panic past the end: the decoder
        /// checks lengths before it reads.
        trait GetBe<'a> {
            fn split_to(&mut self, n: usize) -> &'a [u8];
            fn advance(&mut self, n: usize) {
                self.split_to(n);
            }
            fn get_array<const N: usize>(&mut self) -> [u8; N] {
                self.split_to(N)
                    .try_into()
                    .expect("split_to yields N bytes")
            }
            fn get_u8(&mut self) -> u8 {
                self.get_array::<1>()[0]
            }
            fn get_u16(&mut self) -> u16 {
                u16::from_be_bytes(self.get_array())
            }
            fn get_u32(&mut self) -> u32 {
                u32::from_be_bytes(self.get_array())
            }
            fn get_u64(&mut self) -> u64 {
                u64::from_be_bytes(self.get_array())
            }
        }

        impl<'a> GetBe<'a> for &'a [u8] {
            fn split_to(&mut self, n: usize) -> &'a [u8] {
                let (head, tail) = self.split_at(n);
                *self = tail;
                head
            }
        }

        fn put_ipv4(buf: &mut Vec<u8>, src: u32, dst: u32, proto: u8, dscp: u8, total_len: u16) {
            buf.put_u8(0x45); // Version 4, IHL 5.
            buf.put_u8(dscp << 2);
            buf.put_u16(total_len);
            buf.put_u16(0); // Identification.
            buf.put_u16(0x4000); // Don't fragment.
            buf.put_u8(63); // TTL.
            buf.put_u8(proto);
            buf.put_u16(0); // Header checksum (filled by hardware in practice).
            buf.put_u32(src);
            buf.put_u32(dst);
        }

        pub fn encode_probe(packet: &ProbePacket) -> Vec<u8> {
            let mut buf = Vec::with_capacity(PROBE_WIRE_SIZE);
            let inner_len = (IPV4_HDR + UDP_HDR + PAYLOAD) as u16;
            if packet.waypoint != 0 {
                put_ipv4(
                    &mut buf,
                    packet.flow.src,
                    packet.waypoint,
                    4,
                    packet.flow.dscp,
                    inner_len + IPV4_HDR as u16,
                );
            }
            put_ipv4(
                &mut buf,
                packet.flow.src,
                packet.flow.dst,
                packet.flow.proto,
                packet.flow.dscp,
                inner_len,
            );
            buf.put_u16(packet.flow.sport);
            buf.put_u16(packet.flow.dport);
            buf.put_u16((UDP_HDR + PAYLOAD) as u16);
            buf.put_u16(0); // UDP checksum.
            buf.put_u32(packet.seq);
            buf.put_u32(packet.path_id);
            buf.put_u64(packet.timestamp_us);
            buf.put_u32(payload_checksum(packet));
            buf.put_u32(0xdeec_70f5); // Payload magic.
            while buf.len() < PROBE_WIRE_SIZE {
                buf.put_u8(0xa5);
            }
            buf
        }

        pub fn decode_probe(mut buf: &[u8]) -> Result<ProbePacket, PacketError> {
            if buf.len() < IPV4_HDR {
                return Err(PacketError::Truncated);
            }
            let vihl = buf[0];
            if vihl != 0x45 {
                return Err(PacketError::Malformed);
            }
            let outer_proto = buf[9];
            let mut waypoint = 0u32;
            if outer_proto == 4 {
                let mut outer = buf.split_to(IPV4_HDR);
                outer.advance(16);
                waypoint = outer.get_u32();
                if buf.len() < IPV4_HDR {
                    return Err(PacketError::Truncated);
                }
                if buf[0] != 0x45 {
                    return Err(PacketError::Malformed);
                }
            }
            if buf.len() < IPV4_HDR + UDP_HDR + PAYLOAD {
                return Err(PacketError::Truncated);
            }
            let mut inner = buf.split_to(IPV4_HDR);
            inner.advance(1);
            let dscp = inner.get_u8() >> 2;
            inner.advance(6);
            inner.advance(1); // TTL.
            let proto = inner.get_u8();
            inner.advance(2);
            let src = inner.get_u32();
            let dst = inner.get_u32();

            let sport = buf.get_u16();
            let dport = buf.get_u16();
            let _udp_len = buf.get_u16();
            let _udp_csum = buf.get_u16();
            let seq = buf.get_u32();
            let path_id = buf.get_u32();
            let timestamp_us = buf.get_u64();
            let csum = buf.get_u32();

            let packet = ProbePacket {
                waypoint,
                flow: FlowKey {
                    src,
                    dst,
                    sport,
                    dport,
                    proto,
                    dscp,
                },
                seq,
                path_id,
                timestamp_us,
            };
            if payload_checksum(&packet) != csum {
                return Err(PacketError::BadChecksum);
            }
            Ok(packet)
        }
    }

    fn sample(waypoint: u32) -> ProbePacket {
        ProbePacket {
            waypoint,
            flow: FlowKey {
                src: 11,
                dst: 22,
                sport: 33000,
                dport: 53000,
                proto: 17,
                dscp: 46,
            },
            seq: 77,
            path_id: 1234,
            timestamp_us: 987_654_321,
        }
    }

    fn encoded(packet: &ProbePacket) -> [u8; PROBE_WIRE_SIZE] {
        let mut wire = [0u8; PROBE_WIRE_SIZE];
        encode_probe(packet, &mut wire);
        wire
    }

    /// Decodes with both codecs, asserts they agree, and checks that an
    /// accepted packet survives a re-encode.
    fn decode_checked(wire: &[u8]) {
        let got = decode_probe(wire);
        assert_eq!(got, reference::decode_probe(wire));
        if let Ok(p) = got {
            // A bare header carrying protocol 4 reads back as an
            // encapsulation — the one packet the format cannot express.
            if p.waypoint != 0 || p.flow.proto != 4 {
                assert_eq!(decode_probe(&encoded(&p)), Ok(p));
            }
        }
    }

    #[test]
    fn encode_decode_round_trip_with_encap() {
        let p = sample(99);
        assert_eq!(decode_probe(&encoded(&p)), Ok(p));
    }

    #[test]
    fn encode_decode_round_trip_without_encap() {
        let p = sample(0);
        assert_eq!(decode_probe(&encoded(&p)), Ok(p));
    }

    #[test]
    fn truncated_is_rejected() {
        let wire = encoded(&sample(5));
        assert_eq!(decode_probe(&wire[..30]), Err(PacketError::Truncated));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut wire = encoded(&sample(5));
        // Flip a payload byte (the seq field of the inner payload).
        wire[IPV4_HDR * 2 + UDP_HDR] ^= 0xff;
        assert_eq!(decode_probe(&wire), Err(PacketError::BadChecksum));
    }

    #[test]
    fn garbage_is_malformed() {
        assert_eq!(decode_probe(&[0u8; 100]), Err(PacketError::Malformed));
    }

    #[test]
    fn a_reused_buffer_keeps_no_stale_header_bytes() {
        let mut wire = [0u8; PROBE_WIRE_SIZE];
        encode_probe(&sample(99), &mut wire);
        encode_probe(&sample(0), &mut wire);
        assert_eq!(wire[..], reference::encode_probe(&sample(0))[..]);
        // The 20 bytes the outer header occupied are padding again.
        let bare = IPV4_HDR + UDP_HDR + PAYLOAD;
        assert!(wire[bare..bare + IPV4_HDR].iter().all(|&b| b == PAD_BYTE));
    }

    /// Uniform words with the extremes over-represented (the shim's range
    /// strategies are half-open and unbiased).
    fn word() -> impl Strategy<Value = u64> {
        (0u8..8, 0u64..u64::MAX).prop_map(|(pick, v)| match pick {
            0 => 0,
            1 => u64::MAX,
            _ => v,
        })
    }

    fn packets() -> impl Strategy<Value = ProbePacket> {
        let flow = (word(), word(), word()).prop_map(|(addrs, ports, class)| FlowKey {
            src: addrs as u32,
            dst: (addrs >> 32) as u32,
            sport: ports as u16,
            dport: (ports >> 16) as u16,
            proto: class as u8,
            dscp: (class >> 8) as u8,
        });
        (0u8..2, word(), flow, word(), word()).prop_map(|(encap, waypoint, flow, ids, ts)| {
            ProbePacket {
                waypoint: if encap == 0 { 0 } else { waypoint as u32 },
                flow,
                seq: ids as u32,
                path_id: (ids >> 32) as u32,
                timestamp_us: ts,
            }
        })
    }

    proptest! {
        #[test]
        fn wire_image_equals_the_reference_encoder(first in packets(), second in packets()) {
            // One buffer for both, so every packet shape follows every other.
            let mut wire = [0u8; PROBE_WIRE_SIZE];
            for p in [first, second] {
                encode_probe(&p, &mut wire);
                prop_assert_eq!(&wire[..], &reference::encode_probe(&p)[..]);
            }
        }

        #[test]
        fn prefixes_and_byte_flips_decode_like_the_reference(
            p in packets(),
            flip in 1u16..256,
        ) {
            let wire = encoded(&p);
            for len in 0..=90 {
                decode_checked(&wire[..len]);
            }
            for at in 0..84 {
                let mut damaged = wire;
                damaged[at] ^= flip as u8;
                decode_checked(&damaged);
            }
        }

        #[test]
        fn arbitrary_bytes_decode_to_a_packet_or_a_typed_error(
            raw in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..2049),
            version in 0u8..3,
            proto in 0u8..3,
        ) {
            // Raw noise dies at the version check; steer some inputs past
            // it, and past the encapsulation branch.
            let mut raw = raw;
            if version > 0 {
                for at in [0, IPV4_HDR] {
                    if let Some(b) = raw.get_mut(at) {
                        *b = 0x45;
                    }
                }
            }
            if proto > 0 {
                if let Some(b) = raw.get_mut(9) {
                    *b = if proto == 1 { 4 } else { 17 };
                }
            }
            decode_checked(&raw);
        }

        #[test]
        fn damaged_valid_packets_decode_like_the_reference(
            p in packets(),
            len in 0usize..2049,
            hits in proptest::collection::vec((0usize..2048, 0u16..256), 0..4),
        ) {
            // Truncated or extended to `len`, then up to three bytes
            // overwritten anywhere.
            let mut raw = encoded(&p).to_vec();
            raw.resize(len, 0x5a);
            for (at, v) in hits {
                if let Some(b) = raw.get_mut(at) {
                    *b = v as u8;
                }
            }
            decode_checked(&raw);
        }
    }
}
