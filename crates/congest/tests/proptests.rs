//! Property-based tests of engine semantics.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use welle_congest::testing::FloodMax;
use welle_congest::{Context, Engine, EngineConfig, Protocol, RecordingObserver};
use welle_graph::{gen, Graph, Port};

fn random_connected_graph(n: usize, extra: usize, seed: u64) -> Arc<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = welle_graph::GraphBuilder::new(n);
    for child in 1..n {
        let parent = rand::RngExt::random_range(&mut rng, 0..child);
        b.add_edge(parent, child).unwrap();
    }
    for _ in 0..extra {
        let u = rand::RngExt::random_range(&mut rng, 0..n);
        let v = rand::RngExt::random_range(&mut rng, 0..n);
        if u != v && !b.has_edge(u, v) {
            b.add_edge(u, v).unwrap();
        }
    }
    Arc::new(b.build().unwrap())
}

/// Sends `k` sequence-numbered messages through port 0 at start.
struct Sequencer {
    k: u32,
    received: Vec<u64>,
}

impl Protocol for Sequencer {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        if ctx.degree() > 0 {
            for i in 0..self.k {
                ctx.send(Port::new(0), i as u64);
            }
        }
    }
    fn on_round(&mut self, _ctx: &mut Context<'_, u64>, inbox: &mut Vec<(Port, u64)>) {
        for (_, v) in inbox.drain(..) {
            self.received.push(v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_sent_message_is_delivered(n in 4usize..24, extra in 0usize..20, seed in any::<u64>()) {
        let g = random_connected_graph(n, extra, seed);
        let nodes = (0..n).map(|i| FloodMax::new((i as u64 * 31) % 17)).collect();
        let mut e = Engine::new(Arc::clone(&g), nodes, EngineConfig { seed, bandwidth_bits: None });
        let mut rec = RecordingObserver::default();
        e.run_observed(100_000, &mut rec);
        prop_assert_eq!(rec.events.len() as u64, e.metrics().messages);
        prop_assert_eq!(e.in_flight(), 0, "no message left behind");
        let per_node_total: u64 = e.metrics().sent_by_node.iter().sum();
        prop_assert_eq!(per_node_total, e.metrics().messages);
    }

    #[test]
    fn fifo_per_directed_edge(k in 1u32..12) {
        let g = Arc::new(gen::path(2).unwrap());
        let nodes = vec![
            Sequencer { k, received: Vec::new() },
            Sequencer { k: 0, received: Vec::new() },
        ];
        let mut e = Engine::new(g, nodes, EngineConfig::default());
        e.run(10_000);
        let received = &e.node(1).received;
        prop_assert_eq!(received.len(), k as usize);
        for (i, &v) in received.iter().enumerate() {
            prop_assert_eq!(v, i as u64, "FIFO order preserved");
        }
    }

    #[test]
    fn serial_and_threaded_agree(n in 4usize..20, extra in 0usize..16, seed in any::<u64>(), threads in 1usize..5) {
        let g = random_connected_graph(n, extra, seed);
        let cfg = EngineConfig { seed: seed ^ 1, bandwidth_bits: None };
        let mk = || (0..n).map(|i| FloodMax::new((i as u64 * 7) % 13)).collect::<Vec<_>>();
        let mut serial = Engine::new(Arc::clone(&g), mk(), cfg);
        let mut par = Engine::new(Arc::clone(&g), mk(), cfg);
        par.set_threads(threads);
        serial.run(100_000);
        par.run(100_000);
        prop_assert_eq!(serial.metrics().messages, par.metrics().messages);
        prop_assert_eq!(serial.metrics().bits, par.metrics().bits);
        for (a, b) in serial.nodes().iter().zip(par.nodes()) {
            prop_assert_eq!(a.best(), b.best());
        }
    }

    #[test]
    fn determinism_across_runs(n in 4usize..16, seed in any::<u64>()) {
        let g = random_connected_graph(n, 6, seed);
        let run = |s| {
            let nodes = (0..n).map(|i| FloodMax::new(i as u64)).collect();
            let mut e = Engine::new(Arc::clone(&g), nodes, EngineConfig { seed: s, bandwidth_bits: None });
            e.run(100_000);
            (e.metrics().messages, e.metrics().bits, e.round())
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn flood_converges_to_global_max(n in 3usize..24, extra in 0usize..20, seed in any::<u64>()) {
        let g = random_connected_graph(n, extra, seed);
        let ids: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E3779B9) % 1000).collect();
        let max = *ids.iter().max().unwrap();
        let nodes = ids.iter().map(|&i| FloodMax::new(i)).collect();
        let mut e = Engine::new(g, nodes, EngineConfig { seed, bandwidth_bits: None });
        let out = e.run(100_000);
        prop_assert!(out.is_done());
        for node in e.nodes() {
            prop_assert_eq!(node.best(), max);
        }
    }
}
