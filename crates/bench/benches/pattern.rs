//! E7 bench: the pattern broadcast schedule T(D).

use criterion::{criterion_group, criterion_main, Criterion};
use gossip_core::pattern;
use gossip_graph::generators;

fn bench_pattern(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_pattern_broadcast");
    group.sample_size(10);

    let cycle = generators::cycle(12, 2).unwrap();
    group.bench_function("pattern_known_d_cycle12", |b| {
        b.iter(|| pattern::run_known_diameter_with(&cycle, gossip_core::diameter_bound(&cycle), 1))
    });

    let dumbbell = generators::dumbbell(5, 8).unwrap();
    group.bench_function("pattern_unknown_d_dumbbell10", |b| {
        b.iter(|| pattern::run_unknown_diameter(&dumbbell, 1))
    });
    group.finish();
}

criterion_group!(benches, bench_pattern);
criterion_main!(benches);
