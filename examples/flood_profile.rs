//! Scratch profiling harness for the engine hot path (not part of the
//! test suite; run with `cargo run --release --example flood_profile`).

use std::sync::Arc;
use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};
use welle::congest::testing::FloodMax;
use welle::congest::{Engine, EngineConfig};
use welle::graph::gen;

fn main() {
    let n = 1024usize;
    let mut rng = StdRng::seed_from_u64(1);
    let g = Arc::new(gen::random_regular(n, 4, &mut rng).unwrap());
    let iters = 300;
    // welle-lint: allow(no-ambient-entropy) — wall-clock timing for human-facing profiling output only; never feeds protocol state
    let t0 = Instant::now();
    for _ in 0..iters {
        let nodes = (0..n).map(|i| FloodMax::new(i as u64)).collect();
        let mut e = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
        e.run(100_000);
    }
    println!("serial     {:8} ns", t0.elapsed().as_nanos() / iters);
    for threads in [1usize, 2, 4, 8] {
        // welle-lint: allow(no-ambient-entropy) — wall-clock timing for human-facing profiling output only; never feeds protocol state
        let t0 = Instant::now();
        for _ in 0..iters {
            let nodes = (0..n).map(|i| FloodMax::new(i as u64)).collect();
            let mut e = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
            e.set_threads(threads);
            e.run(100_000);
        }
        println!(
            "threaded{threads}  {:8} ns",
            t0.elapsed().as_nanos() / iters
        );
    }
}
