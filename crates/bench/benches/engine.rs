//! Engine micro-benchmarks: round throughput of the CONGEST simulator
//! under a dense flood workload — serial vs threaded, plus the async
//! executor at zero latency (the cost of the tick bookkeeping alone)
//! and under a sampled model (the cost of the event heap), and the
//! serial engine with the telemetry layer on (full sample retention,
//! and full retention plus the span profiler) to price the
//! once-per-round observability branch against the telemetry-off rows.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use welle_congest::testing::FloodMax;
use welle_congest::{Engine, EngineConfig, LatencyModel, TelemetryConfig};
use welle_graph::gen;

fn bench_flood(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_flood");
    group.sample_size(10);
    for n in [256usize, 1024] {
        let mut rng = StdRng::seed_from_u64(1);
        let g = Arc::new(gen::random_regular(n, 4, &mut rng).unwrap());
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
            b.iter(|| {
                let nodes = (0..n).map(|i| FloodMax::new(i as u64)).collect();
                let mut e = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
                black_box(e.run(100_000));
                black_box(e.metrics().messages)
            })
        });
        group.bench_with_input(BenchmarkId::new("threaded4", n), &n, |b, _| {
            b.iter(|| {
                let nodes = (0..n).map(|i| FloodMax::new(i as u64)).collect();
                let mut e = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
                e.set_threads(4);
                black_box(e.run(100_000));
                black_box(e.metrics().messages)
            })
        });
        group.bench_with_input(BenchmarkId::new("serial_telem_full", n), &n, |b, _| {
            b.iter(|| {
                let nodes = (0..n).map(|i| FloodMax::new(i as u64)).collect();
                let mut e = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
                e.set_telemetry(TelemetryConfig::full());
                black_box(e.run(100_000));
                let report = e.take_telemetry();
                black_box((e.metrics().messages, report.map(|r| r.total_samples)))
            })
        });
        group.bench_with_input(BenchmarkId::new("serial_telem_profile", n), &n, |b, _| {
            b.iter(|| {
                let nodes = (0..n).map(|i| FloodMax::new(i as u64)).collect();
                let mut e = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
                e.set_telemetry(TelemetryConfig::full().with_profile());
                black_box(e.run(100_000));
                let report = e.take_telemetry();
                black_box((e.metrics().messages, report.map(|r| r.total_samples)))
            })
        });
        group.bench_with_input(BenchmarkId::new("async_zero", n), &n, |b, _| {
            b.iter(|| {
                let mut e = Engine::from_fn(Arc::clone(&g), EngineConfig::default(), |i| {
                    FloodMax::new(i as u64)
                });
                e.set_latency(LatencyModel::zero()).unwrap();
                black_box(e.run(100_000));
                black_box(e.metrics().messages)
            })
        });
        group.bench_with_input(BenchmarkId::new("async_lognormal", n), &n, |b, _| {
            b.iter(|| {
                let mut e = Engine::from_fn(Arc::clone(&g), EngineConfig::default(), |i| {
                    FloodMax::new(i as u64)
                });
                e.set_latency(LatencyModel::log_normal(0.3, 0.6).seed(7))
                    .unwrap();
                black_box(e.run(100_000));
                black_box(e.metrics().messages)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flood);
criterion_main!(benches);
