//! Micro-benchmarks: GF(2) kernels, simulator round throughput and streamed
//! unit-disk neighborhood queries.

use criterion::{criterion_group, criterion_main, Criterion};
use radio_sim::graph::generators;
use radio_sim::{
    Action, CollisionMode, ImplicitGraph, NodeId, Observation, Protocol, Simulator, Topology,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rlnc::gf2::BitVec;
use rlnc::Decoder;

fn gf2_benches(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let a = BitVec::random(4096, &mut rng);
    let b = BitVec::random(4096, &mut rng);
    c.bench_function("gf2_xor_4096", |bench| {
        bench.iter(|| {
            let mut x = a.clone();
            x.xor_assign(&b);
            x
        })
    });
    c.bench_function("gf2_dot_4096", |bench| bench.iter(|| a.dot(&b)));
    c.bench_function("rlnc_decode_32", |bench| {
        let msgs: Vec<BitVec> = (0..32).map(|i| BitVec::from_u64(i, 64)).collect();
        let src = Decoder::with_messages(&msgs);
        bench.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            let mut sink = Decoder::new(32, 64);
            while !sink.can_decode() {
                sink.insert(src.random_combination(&mut rng).unwrap());
            }
            sink.rank()
        })
    });
}

#[derive(Debug)]
struct Chatter;
impl Protocol for Chatter {
    type Msg = u64;
    fn act(&mut self, _r: u64, rng: &mut SmallRng) -> Action<u64> {
        if rng.gen_bool(0.2) {
            Action::Transmit(7)
        } else {
            Action::Listen
        }
    }
    fn observe(&mut self, _r: u64, _o: Observation<u64>, _rng: &mut SmallRng) {}
}

fn engine_benches(c: &mut Criterion) {
    c.bench_function("engine_1k_rounds_grid16x16", |bench| {
        bench.iter(|| {
            let g = generators::grid(16, 16);
            let mut sim = Simulator::new(g, CollisionMode::Detection, 3, |_| Chatter);
            sim.run(1000);
            sim.stats().deliveries
        })
    });
}

/// One streamed unit-disk query, at the benchmark disk's mean degree (~57)
/// and at the million-node run's (~452). Each iteration queries the next
/// node id, cycling over all of them. The kernels keep their `miss` names
/// so their numbers compare with older runs.
fn neighborhood_benches(c: &mut Criterion) {
    for (id, n, radius) in [
        ("stream_disk_miss_20k_deg57", 20_000, 0.03),
        ("stream_disk_miss_5k_deg452", 5_000, 0.1696),
    ] {
        let disk = ImplicitGraph::unit_disk(n, radius, 2026);
        let mut v = 0;
        c.bench_function(id, |bench| {
            bench.iter(|| {
                v = (v + 1) % n;
                disk.with_neighbors(NodeId::new(v), <[NodeId]>::len)
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = gf2_benches, engine_benches, neighborhood_benches
}
criterion_main!(benches);
