//! # detector-simnet
//!
//! A deterministic packet-level probe simulator standing in for the
//! paper's 20-switch ONetSwitch SDN testbed (§6.2). It reproduces the
//! three loss types the paper injects with OpenFlow rules — **full packet
//! loss**, **deterministic partial loss** (header-matched drops, e.g.
//! packet blackholes) and **random partial loss** (bit flips, CRC errors,
//! buffer overflow) — plus switch-down failures, the normal 1e-4..1e-5
//! background loss every link exhibits (§5.1), and an RTT/jitter model for
//! the workload-impact experiment (Fig. 4).
//!
//! Everything is seeded: the same seed, topology and failure scenario
//! produce bit-identical observations.
//!
//! # Examples
//!
//! ```
//! use detector_simnet::{Fabric, FlowKey, LossDiscipline};
//! use detector_topology::{DcnTopology, Fattree};
//! use rand::SeedableRng;
//!
//! let ft = Fattree::new(4).unwrap();
//! let mut fabric = Fabric::new(&ft, 7);
//! // Fail one edge-aggregation link completely, in both directions.
//! let bad = ft.ea_link(0, 0, 0);
//! fabric.set_discipline_both(bad, LossDiscipline::Full);
//!
//! let mut rng = <rand::rngs::SmallRng as SeedableRng>::seed_from_u64(1);
//! let route = ft.ecmp_route(ft.server(0, 0, 0), ft.server(1, 0, 0), 0);
//! let out = fabric.send(&route, FlowKey::udp(1, 2, 3000, 4000), &mut rng);
//! assert!(!out.delivered);
//! ```

mod fabric;
mod failures;
mod flow;
mod packet;
mod partition;
mod rtt;
mod workload;

pub use fabric::{Fabric, LinkDir, ProbeOutcome, RoundTrip};
pub use failures::{
    ChurnEvent, ChurnSchedule, FailureGenerator, FailureKind, FailureScenario, FailureTarget,
    InjectedFailure,
};
pub use flow::FlowKey;
pub use packet::{decode_probe, encode_probe, PacketError, ProbePacket, PROBE_WIRE_SIZE};
pub use partition::{partition_hosts, HostGroups};
pub use rtt::RttModel;
pub use workload::{measure_workload_rtt, Flow, WorkloadGenerator, WorkloadStats};

/// Loss behaviour applied to one direction of one link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossDiscipline {
    /// No failure (only background noise applies).
    Healthy,
    /// Every packet is dropped (link down / switch port dead).
    Full,
    /// Packets whose flow matches a header subset are dropped
    /// deterministically (blackhole, misconfigured rule): a fraction
    /// `fraction` of the flow space is affected, selected by `salt`.
    DeterministicPartial {
        /// Fraction of flows dropped (0..=1).
        fraction: f64,
        /// Selects which flows fall in the blackhole.
        salt: u64,
    },
    /// Each packet is dropped independently with probability `rate`
    /// (bit flips, CRC errors, buffer overflow).
    RandomPartial {
        /// Per-packet drop probability (0..=1).
        rate: f64,
    },
    /// Only packets of one QoS class are dropped (a misconfigured
    /// priority queue or ACL): probes carry DSCP values precisely to
    /// expose such class-specific failures (§6.1, §7).
    DscpBlackhole {
        /// The affected DSCP class.
        dscp: u8,
    },
}

impl LossDiscipline {
    /// Does this discipline drop a packet of `flow`, given a uniform draw
    /// in [0, 1)?
    #[inline]
    pub fn drops(&self, flow: FlowKey, draw: f64) -> bool {
        match *self {
            LossDiscipline::Healthy => false,
            LossDiscipline::Full => true,
            LossDiscipline::DeterministicPartial { fraction, salt } => {
                // Deterministic per flow: the same flow always hits or
                // always misses the blackhole.
                let h = flow.hash_with(salt);
                (h % 1_000_000) as f64 / 1_000_000.0 < fraction
            }
            LossDiscipline::RandomPartial { rate } => draw < rate,
            LossDiscipline::DscpBlackhole { dscp } => flow.dscp == dscp,
        }
    }

    /// The long-run loss rate this discipline induces on uniform traffic.
    pub fn expected_rate(&self) -> f64 {
        match *self {
            LossDiscipline::Healthy => 0.0,
            LossDiscipline::Full => 1.0,
            LossDiscipline::DeterministicPartial { fraction, .. } => fraction,
            LossDiscipline::RandomPartial { rate } => rate,
            // Probes sweep QoS classes uniformly; workload traffic mostly
            // rides one class, so "expected rate" is per-class.
            LossDiscipline::DscpBlackhole { .. } => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_drops_everything() {
        let d = LossDiscipline::Full;
        assert!(d.drops(FlowKey::udp(1, 2, 3, 4), 0.99));
        assert_eq!(d.expected_rate(), 1.0);
    }

    #[test]
    fn healthy_drops_nothing() {
        let d = LossDiscipline::Healthy;
        assert!(!d.drops(FlowKey::udp(1, 2, 3, 4), 0.0));
    }

    #[test]
    fn deterministic_partial_is_flow_stable() {
        let d = LossDiscipline::DeterministicPartial {
            fraction: 0.5,
            salt: 42,
        };
        for sport in 0..100u16 {
            let f = FlowKey::udp(1, 2, sport, 4000);
            let first = d.drops(f, 0.3);
            for _ in 0..5 {
                assert_eq!(d.drops(f, 0.9), first, "flow fate must be stable");
            }
        }
    }

    #[test]
    fn deterministic_partial_fraction_is_roughly_respected() {
        let d = LossDiscipline::DeterministicPartial {
            fraction: 0.3,
            salt: 7,
        };
        let dropped = (0..10_000u16)
            .filter(|&p| d.drops(FlowKey::udp(9, 9, p, 53), 0.0))
            .count();
        let frac = dropped as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "observed {frac}");
    }

    #[test]
    fn dscp_blackhole_hits_only_its_class() {
        let d = LossDiscipline::DscpBlackhole { dscp: 46 };
        let mut ef = FlowKey::udp(1, 2, 3, 4);
        ef.dscp = 46;
        assert!(d.drops(ef, 0.9));
        let mut be = FlowKey::udp(1, 2, 3, 4);
        be.dscp = 0;
        assert!(!d.drops(be, 0.0));
    }

    #[test]
    fn random_partial_uses_the_draw() {
        let d = LossDiscipline::RandomPartial { rate: 0.25 };
        assert!(d.drops(FlowKey::udp(1, 2, 3, 4), 0.1));
        assert!(!d.drops(FlowKey::udp(1, 2, 3, 4), 0.9));
    }
}
