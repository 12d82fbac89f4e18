//! E8 bench: the unified algorithm (push-pull racing the spanner route).

use criterion::{criterion_group, criterion_main, Criterion};
use gossip_core::unified;
use gossip_graph::{generators, NodeId};

fn bench_unified(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_unified");
    group.sample_size(10);

    let clique = generators::clique(32, 1).unwrap();
    group.bench_function("unified_known_latencies_clique32", |b| {
        b.iter(|| {
            unified::run_known_latencies_with(
                &clique,
                NodeId::new(0),
                gossip_core::diameter_bound(&clique),
                5,
            )
        })
    });

    let dumbbell = generators::dumbbell(8, 64).unwrap();
    group.bench_function("unified_unknown_latencies_dumbbell16", |b| {
        b.iter(|| unified::run_unknown_latencies(&dumbbell, NodeId::new(0), 5))
    });
    group.finish();
}

criterion_group!(benches, bench_unified);
criterion_main!(benches);
