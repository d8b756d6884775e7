//! Random-walk machinery benchmarks: mixing-time computation and token
//! splitting throughput.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use welle_graph::gen;
use welle_walks::{mixing_time, split_lazy, MixingOptions, StartPolicy};

fn bench_mixing(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixing_time");
    group.sample_size(10);
    for n in [128usize, 512] {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::random_regular(n, 4, &mut rng).unwrap();
        group.bench_with_input(BenchmarkId::new("sampled_starts", n), &n, |b, _| {
            b.iter(|| {
                black_box(mixing_time(
                    &g,
                    MixingOptions {
                        horizon: 10_000,
                        starts: StartPolicy::Sample(4),
                    },
                ))
            })
        });
    }
    group.finish();
}

fn bench_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("split_lazy");
    for (count, degree) in [(500u32, 4usize), (500, 512), (5_000, 4)] {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0; degree];
        group.bench_with_input(
            BenchmarkId::new("split", format!("c{count}_d{degree}")),
            &count,
            |b, _| {
                b.iter(|| {
                    counts.fill(0);
                    black_box(split_lazy(count, &mut rng, &mut counts))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_mixing, bench_split);
criterion_main!(benches);
