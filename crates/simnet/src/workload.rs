//! Synthetic workload traffic (§6.3).
//!
//! The paper replays packet traces from a university data center \[11\]
//! (mostly HTTP flows) to load the testbed while probing. Those traces are
//! not redistributable, so we synthesize flows with the published shape:
//! heavy-tailed flow sizes (bounded Pareto), HTTP-dominated port mix, and
//! uniformly random server pairs. Only the offered load level matters for
//! the Fig. 4 RTT/jitter experiment, which is what the generator controls.

use detector_core::types::NodeId;
use detector_topology::DcnTopology;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::fabric::Fabric;
use crate::flow::FlowKey;

/// One workload flow.
#[derive(Clone, Copy, Debug)]
pub struct Flow {
    /// Source server.
    pub src: NodeId,
    /// Destination server.
    pub dst: NodeId,
    /// Flow size in bytes (bounded Pareto).
    pub bytes: u64,
    /// Transport identity (drives ECMP placement).
    pub key: FlowKey,
}

/// Generates workload flows and derives per-link utilization.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadGenerator {
    /// Target average utilization of server access links (0..1).
    pub load: f64,
    /// Pareto shape for flow sizes (1 < α ≤ 2 is heavy-tailed).
    pub pareto_shape: f64,
    /// Minimum flow size, bytes.
    pub min_flow_bytes: u64,
    /// Maximum flow size, bytes.
    pub max_flow_bytes: u64,
}

impl Default for WorkloadGenerator {
    fn default() -> Self {
        Self {
            load: 0.2,
            pareto_shape: 1.2,
            min_flow_bytes: 10_000,
            max_flow_bytes: 100_000_000,
        }
    }
}

/// RTT statistics of workload traffic under the current fabric state.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkloadStats {
    /// Mean RTT, microseconds.
    pub mean_rtt_us: f64,
    /// Median RTT.
    pub p50_rtt_us: f64,
    /// 99th percentile RTT.
    pub p99_rtt_us: f64,
    /// Jitter: mean absolute difference of consecutive RTT samples
    /// (RFC 3550-style).
    pub jitter_us: f64,
    /// Number of samples taken.
    pub samples: usize,
}

impl WorkloadGenerator {
    /// Samples one flow between distinct random servers.
    pub fn sample_flow(&self, topo: &dyn DcnTopology, rng: &mut SmallRng) -> Flow {
        let graph = topo.graph();
        let servers: u32 = graph.num_servers() as u32;
        let base = graph.num_nodes() as u32 - servers;
        let s1 = rng.gen_range(0..servers);
        let mut s2 = rng.gen_range(0..servers);
        while s2 == s1 {
            s2 = rng.gen_range(0..servers);
        }
        // Bounded Pareto via inverse transform.
        let u: f64 = rng.gen();
        let a = self.pareto_shape;
        let lo = self.min_flow_bytes as f64;
        let hi = self.max_flow_bytes as f64;
        let bytes = (lo / (1.0 - u * (1.0 - (lo / hi).powf(a))).powf(1.0 / a)) as u64;
        // HTTP-dominated port mix (~80% port 80/8080, rest ephemeral).
        let dport = match rng.gen_range(0..10u32) {
            0..=6 => 80,
            7 => 8080,
            _ => rng.gen_range(1024..65000),
        };
        Flow {
            src: NodeId(base + s1),
            dst: NodeId(base + s2),
            bytes,
            key: FlowKey::udp(s1, s2, rng.gen_range(10_000..60_000), dport),
        }
    }

    /// Generates flows until the total offered bytes reach the target
    /// load on the aggregate server capacity for `duration_s` seconds at
    /// `capacity_bps` per access link.
    pub fn generate(
        &self,
        topo: &dyn DcnTopology,
        duration_s: f64,
        capacity_bps: f64,
        rng: &mut SmallRng,
    ) -> Vec<Flow> {
        let servers = topo.graph().num_servers() as f64;
        let budget = (self.load * servers * capacity_bps * duration_s / 8.0) as u64;
        let mut flows = Vec::new();
        let mut sent = 0u64;
        while sent < budget {
            let f = self.sample_flow(topo, rng);
            sent += f.bytes;
            flows.push(f);
        }
        flows
    }

    /// Routes every flow over ECMP and returns per-link utilization
    /// (fraction of `capacity_bps` · `duration_s`).
    pub fn utilization(
        topo: &dyn DcnTopology,
        flows: &[Flow],
        duration_s: f64,
        capacity_bps: f64,
    ) -> Vec<f64> {
        let mut bytes = vec![0u64; topo.graph().num_links()];
        for f in flows {
            let route = topo.ecmp_route(f.src, f.dst, f.key.ecmp_hash());
            for l in route.links.iter() {
                bytes[l.index()] += f.bytes;
            }
        }
        let cap = capacity_bps * duration_s / 8.0;
        bytes
            .into_iter()
            .map(|b| (b as f64 / cap).min(1.0))
            .collect()
    }
}

/// Measures RTT/jitter experienced by sample workload flows on `fabric`.
pub fn measure_workload_rtt(
    fabric: &Fabric<'_>,
    flows: &[Flow],
    probes_per_flow: usize,
    rng: &mut SmallRng,
) -> WorkloadStats {
    let topo = fabric.topology();
    let mut rtts: Vec<f64> = Vec::new();
    for f in flows {
        let route = topo.ecmp_route(f.src, f.dst, f.key.ecmp_hash());
        for _ in 0..probes_per_flow {
            let rt = fabric.round_trip(&route, f.key, rng);
            if rt.success {
                rtts.push(rt.rtt_us);
            }
        }
    }
    if rtts.is_empty() {
        return WorkloadStats::default();
    }
    let mean = rtts.iter().sum::<f64>() / rtts.len() as f64;
    let jitter = if rtts.len() > 1 {
        rtts.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (rtts.len() - 1) as f64
    } else {
        0.0
    };
    let mut sorted = rtts.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("RTTs are finite"));
    let p = |q: f64| sorted[((sorted.len() - 1) as f64 * q) as usize];
    WorkloadStats {
        mean_rtt_us: mean,
        p50_rtt_us: p(0.5),
        p99_rtt_us: p(0.99),
        jitter_us: jitter,
        samples: rtts.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detector_topology::Fattree;
    use rand::SeedableRng;

    #[test]
    fn flows_have_valid_endpoints_and_sizes() {
        let ft = Fattree::new(4).unwrap();
        let gen = WorkloadGenerator::default();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let f = gen.sample_flow(&ft, &mut rng);
            assert_ne!(f.src, f.dst);
            assert!(f.bytes >= gen.min_flow_bytes);
            assert!(f.bytes <= gen.max_flow_bytes);
            // Endpoints must be servers.
            assert!(!ft.graph().node(f.src).kind.is_switch());
            assert!(!ft.graph().node(f.dst).kind.is_switch());
        }
    }

    #[test]
    fn flow_sizes_are_heavy_tailed() {
        let ft = Fattree::new(4).unwrap();
        let gen = WorkloadGenerator::default();
        let mut rng = SmallRng::seed_from_u64(2);
        let sizes: Vec<u64> = (0..5000)
            .map(|_| gen.sample_flow(&ft, &mut rng).bytes)
            .collect();
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        assert!(mean > 2.0 * median, "mean {mean}, median {median}");
    }

    #[test]
    fn utilization_grows_with_load() {
        let ft = Fattree::new(4).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let light = WorkloadGenerator {
            load: 0.05,
            ..Default::default()
        };
        let heavy = WorkloadGenerator {
            load: 0.4,
            ..Default::default()
        };
        let fl = light.generate(&ft, 1.0, 1e9, &mut rng);
        let fh = heavy.generate(&ft, 1.0, 1e9, &mut rng);
        let ul = WorkloadGenerator::utilization(&ft, &fl, 1.0, 1e9);
        let uh = WorkloadGenerator::utilization(&ft, &fh, 1.0, 1e9);
        let avg = |u: &[f64]| u.iter().sum::<f64>() / u.len() as f64;
        assert!(avg(&uh) > avg(&ul) * 2.0);
    }

    #[test]
    fn rtt_stats_reflect_load() {
        let ft = Fattree::new(4).unwrap();
        let gen = WorkloadGenerator {
            load: 0.3,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(4);
        let flows = gen.generate(&ft, 1.0, 1e9, &mut rng);
        let util = WorkloadGenerator::utilization(&ft, &flows, 1.0, 1e9);

        let mut idle = Fabric::quiet(&ft);
        let sample: Vec<Flow> = flows.iter().take(50).copied().collect();
        let s0 = measure_workload_rtt(&idle, &sample, 3, &mut rng);
        idle.set_utilization(util);
        let s1 = measure_workload_rtt(&idle, &sample, 3, &mut rng);
        assert!(s0.samples > 0 && s1.samples > 0);
        assert!(s1.mean_rtt_us > s0.mean_rtt_us);
        assert!(s1.p99_rtt_us >= s1.p50_rtt_us);
    }
}
