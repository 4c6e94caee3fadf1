//! Criterion micro-benchmarks for the simulator substrate: probe
//! round-trip throughput and wire encode/decode.

use criterion::{criterion_group, criterion_main, Criterion};
use detector_simnet::{
    decode_probe, encode_probe, Fabric, FlowKey, LossDiscipline, ProbePacket, PROBE_WIRE_SIZE,
};
use detector_topology::{DcnTopology, Fattree};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_simnet(c: &mut Criterion) {
    let ft = Fattree::new(8).unwrap();
    let mut fabric = Fabric::new(&ft, 3);
    fabric.set_discipline_both(
        ft.ac_link(0, 0, 0),
        LossDiscipline::RandomPartial { rate: 0.01 },
    );
    let route = ft.ecmp_route(ft.server(0, 0, 0), ft.server(5, 2, 1), 9);
    let mut rng = SmallRng::seed_from_u64(11);

    let mut g = c.benchmark_group("simnet");
    g.sample_size(30);
    g.bench_function("round_trip_6hop", |b| {
        b.iter(|| fabric.round_trip(&route, FlowKey::udp(0, 99, 40_000, 53_533), &mut rng))
    });

    let packet = ProbePacket {
        waypoint: 17,
        flow: FlowKey::udp(3, 8, 40_000, 53_533),
        seq: 1,
        path_id: 42,
        timestamp_us: 123_456,
    };
    let mut wire = [0u8; PROBE_WIRE_SIZE];
    g.bench_function("probe_encode", |b| {
        b.iter(|| encode_probe(&packet, &mut wire))
    });
    g.bench_function("probe_decode", |b| {
        b.iter(|| decode_probe(&wire[..]).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_simnet);
criterion_main!(benches);
