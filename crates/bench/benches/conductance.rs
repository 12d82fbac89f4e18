//! E1 bench: critical and average weighted conductance (exact vs sweep).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gossip_conductance::{analyze, Method};
use gossip_graph::generators;
use gossip_graph::latency::LatencyScheme;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_conductance(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_conductance");
    group.sample_size(10);

    let small = generators::dumbbell(6, 16).unwrap();
    group.bench_function("exact_dumbbell_12", |b| {
        b.iter_batched(
            || small.clone(),
            |g| analyze(&g, Method::Exact).unwrap(),
            BatchSize::SmallInput,
        )
    });

    // 2^19 cuts, one node flip each.
    let twenty = generators::dumbbell(10, 16).unwrap();
    group.bench_function("exact_dumbbell_20", |b| {
        b.iter_batched(
            || twenty.clone(),
            |g| analyze(&g, Method::Exact).unwrap(),
            BatchSize::SmallInput,
        )
    });

    let medium = generators::ring_of_cliques(8, 8, 16).unwrap();
    group.bench_function("sweep_ring_of_cliques_64", |b| {
        b.iter_batched(
            || medium.clone(),
            |g| analyze(&g, Method::SweepCut).unwrap(),
            BatchSize::SmallInput,
        )
    });

    // Two 256-cliques joined by a slow bridge, a quarter of all edges slow:
    // ~65k edges, two latency thresholds, two Fiedler orderings.
    let bimodal = LatencyScheme::BimodalFraction {
        slow: 16,
        slow_fraction: 0.25,
    };
    let dumbbell = bimodal
        .apply(
            &generators::dumbbell(256, 16).unwrap(),
            &mut SmallRng::seed_from_u64(5),
        )
        .unwrap();
    group.bench_function("sweep_bimodal_dumbbell_512", |b| {
        b.iter_batched(
            || dumbbell.clone(),
            |g| analyze(&g, Method::SweepCut).unwrap(),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_conductance);
criterion_main!(benches);
