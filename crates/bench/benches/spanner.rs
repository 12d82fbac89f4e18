//! E6 bench: spanner construction and the spanner-broadcast pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use gossip_core::{spanner, spanner_broadcast};
use gossip_graph::generators;
use gossip_graph::latency::LatencyScheme;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_spanner(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_spanner");
    group.sample_size(10);
    let mut rng = SmallRng::seed_from_u64(6);

    let base = generators::erdos_renyi(96, 0.15, 1, &mut rng).unwrap();
    let g = LatencyScheme::UniformRandom { min: 1, max: 16 }
        .apply(&base, &mut rng)
        .unwrap();
    group.bench_function("log_spanner_n96", |b| {
        b.iter(|| spanner::log_spanner(&g, 11))
    });

    let small = generators::ring_of_cliques(4, 6, 8).unwrap();
    group.bench_function("spanner_broadcast_known_d_n24", |b| {
        b.iter(|| {
            spanner_broadcast::run_known_diameter_with(
                &small,
                gossip_core::diameter_bound(&small),
                3,
            )
        })
    });
    group.bench_function("spanner_broadcast_unknown_d_n24", |b| {
        b.iter(|| spanner_broadcast::run_unknown_diameter(&small, 3))
    });
    group.finish();
}

criterion_group!(benches, bench_spanner);
criterion_main!(benches);
