//! Flow identity: the 5-tuple every ECMP hash and header-match rule sees.

/// A transport 5-tuple (addresses abstracted to server indices).
///
/// deTector probes vary source/destination ports and DSCP to raise packet
/// entropy (§7); ECMP in the fabric hashes this key to pick among parallel
/// paths, and deterministic-partial failures (blackholes) match on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source server index.
    pub src: u32,
    /// Destination server index.
    pub dst: u32,
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// IP protocol (17 = UDP for probes).
    pub proto: u8,
    /// DSCP class carried in the IP header (QoS probing, §6.1).
    pub dscp: u8,
}

impl FlowKey {
    /// A UDP flow with default DSCP.
    pub fn udp(src: u32, dst: u32, sport: u16, dport: u16) -> Self {
        Self {
            src,
            dst,
            sport,
            dport,
            proto: 17,
            dscp: 0,
        }
    }

    /// The reply flow: endpoints and ports swapped.
    pub fn reversed(&self) -> Self {
        Self {
            src: self.dst,
            dst: self.src,
            sport: self.dport,
            dport: self.sport,
            proto: self.proto,
            dscp: self.dscp,
        }
    }

    /// 64-bit FNV-1a hash of the tuple, salted — used for ECMP path choice
    /// and blackhole membership.
    pub fn hash_with(&self, salt: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut eat = |v: u64, bytes: usize| {
            for i in 0..bytes {
                h ^= (v >> (8 * i)) & 0xff;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.src as u64, 4);
        eat(self.dst as u64, 4);
        eat(self.sport as u64, 2);
        eat(self.dport as u64, 2);
        eat(self.proto as u64, 1);
        eat(self.dscp as u64, 1);
        h
    }

    /// The ECMP hash (salt 0).
    pub fn ecmp_hash(&self) -> u64 {
        self.hash_with(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reversed_swaps_endpoints_and_ports() {
        let f = FlowKey::udp(1, 2, 100, 200);
        let r = f.reversed();
        assert_eq!(r.src, 2);
        assert_eq!(r.dst, 1);
        assert_eq!(r.sport, 200);
        assert_eq!(r.dport, 100);
        assert_eq!(r.reversed(), f);
    }

    #[test]
    fn hash_depends_on_every_field() {
        let base = FlowKey::udp(1, 2, 100, 200);
        let h = base.ecmp_hash();
        let variants = [
            FlowKey::udp(3, 2, 100, 200),
            FlowKey::udp(1, 3, 100, 200),
            FlowKey::udp(1, 2, 101, 200),
            FlowKey::udp(1, 2, 100, 201),
            FlowKey { proto: 6, ..base },
            FlowKey { dscp: 46, ..base },
        ];
        for v in variants {
            assert_ne!(v.ecmp_hash(), h, "{v:?} collided");
        }
    }

    #[test]
    fn salt_changes_hash() {
        let f = FlowKey::udp(1, 2, 3, 4);
        assert_ne!(f.hash_with(1), f.hash_with(2));
    }

    #[test]
    fn ecmp_hash_is_roughly_uniform() {
        // Spread over 4 buckets must be within 10% of uniform.
        let mut buckets = [0u32; 4];
        for sport in 0..4000u16 {
            let f = FlowKey::udp(7, 9, sport, 5000);
            buckets[(f.ecmp_hash() % 4) as usize] += 1;
        }
        for &b in &buckets {
            assert!((b as f64 - 1000.0).abs() < 100.0, "buckets: {buckets:?}");
        }
    }
}
