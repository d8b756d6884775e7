//! Cross-crate checks that the CONGEST simulator implements the paper's
//! model on real generated topologies.

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle::congest::testing::{BfsWave, FloodMax};
use welle::congest::{Engine, EngineConfig, RecordingObserver};
use welle::graph::{analysis, gen, NodeId};

#[test]
fn bfs_wave_timing_matches_graph_distances_on_families() {
    for g in [
        Arc::new(gen::hypercube(6).unwrap()),
        Arc::new(gen::torus2d(6, 7).unwrap()),
        Arc::new(gen::binary_tree(63).unwrap()),
    ] {
        let root = 3usize;
        let nodes = (0..g.n()).map(|i| BfsWave::new(i == root)).collect();
        let mut e = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
        assert!(e.run(10_000).is_done());
        let dist = analysis::bfs(&g, NodeId::new(root));
        for (i, node) in e.nodes().iter().enumerate() {
            assert_eq!(node.level(), Some(dist[i] as u64), "node {i}");
        }
    }
}

#[test]
fn serial_and_threaded_engines_agree_on_expanders() {
    let mut rng = StdRng::seed_from_u64(3);
    let g = Arc::new(gen::random_regular(64, 4, &mut rng).unwrap());
    let cfg = EngineConfig {
        seed: 5,
        bandwidth_bits: None,
    };
    let mk = || {
        (0..64)
            .map(|i| FloodMax::new((i * 13 % 64) as u64))
            .collect::<Vec<_>>()
    };
    let mut serial = Engine::new(Arc::clone(&g), mk(), cfg);
    let mut threaded = Engine::new(Arc::clone(&g), mk(), cfg);
    threaded.set_threads(4);
    serial.run(100_000);
    threaded.run(100_000);
    assert_eq!(serial.metrics().messages, threaded.metrics().messages);
    for (a, b) in serial.nodes().iter().zip(threaded.nodes()) {
        assert_eq!(a.best(), b.best());
    }
}

#[test]
fn message_rounds_respect_edge_serialization() {
    // On a star, the hub answering k leaves needs k rounds per leaf-edge
    // at most 1 message per round; verify via the observer that no
    // (edge, round, direction) pair repeats.
    let g = Arc::new(gen::star(9).unwrap());
    let nodes = (0..9).map(|i| FloodMax::new(i as u64)).collect();
    let mut e = Engine::new(Arc::clone(&g), nodes, EngineConfig::default());
    let mut rec = RecordingObserver::default();
    e.run_observed(10_000, &mut rec);
    let mut seen = std::collections::HashSet::new();
    for ev in &rec.events {
        assert!(
            seen.insert((ev.round, ev.from, ev.edge)),
            "two messages on one directed edge in round {}",
            ev.round
        );
    }
}

#[test]
fn anonymous_ports_hide_neighbors() {
    // Structural: reverse ports on shuffled graphs are consistent but
    // asymmetric somewhere (a symmetric port numbering on an asymmetric
    // graph is overwhelmingly unlikely after shuffling).
    let mut rng = StdRng::seed_from_u64(8);
    let g = gen::random_regular(32, 3, &mut rng).unwrap();
    let mut asymmetric = 0;
    for u in g.nodes() {
        for p in g.ports(u) {
            let q = g.reverse_port(u, p);
            if q != p {
                asymmetric += 1;
            }
        }
    }
    assert!(asymmetric > 0, "port mappings should not be symmetric");
}

#[test]
fn safety_holds_across_latency_models_and_drop_rates() {
    // The safety census under the latency axis: whatever the latency
    // model — fixed skew, uniform jitter, heavy-tailed log-normal, or
    // hub congestion via a sub-unit service rate — composed with
    // message drops, an election must never certify two leaders.
    // Liveness is allowed to fail (visible give-ups); safety is not.
    use welle::core::{Election, ElectionConfig, Exec, FaultPlan, LatencyModel};
    let mut rng = StdRng::seed_from_u64(17);
    let g = Arc::new(gen::random_regular(48, 4, &mut rng).unwrap());
    let cfg = ElectionConfig {
        max_walk_len: Some(64), // keep faulted give-ups cheap
        ..ElectionConfig::tuned_for_simulation(48)
    };
    let models = [
        ("fixed", LatencyModel::fixed(2.0)),
        ("uniform", LatencyModel::uniform(0.0, 3.0)),
        ("lognormal", LatencyModel::log_normal(0.4, 0.7)),
        (
            "congested",
            LatencyModel::uniform(0.5, 1.5).service_rate(0.5),
        ),
    ];
    for (name, model) in models {
        for drop_rate in [0.0, 0.1, 0.3] {
            for seed in [1u64, 2] {
                let mut e = Election::on(&g)
                    .config(cfg)
                    .seed(seed)
                    .executor(Exec::Async(model.seed(seed ^ 0xD1CE)));
                if drop_rate > 0.0 {
                    e = e.faults(FaultPlan::new(seed).drop_rate(drop_rate));
                }
                let r = e.run().unwrap();
                assert!(
                    r.leaders.len() <= 1,
                    "{name}/p={drop_rate}/seed {seed}: leaders = {:?}",
                    r.leaders
                );
                assert!(
                    r.virtual_time >= r.engine_rounds as f64,
                    "{name}: virtual time can only stretch past the round clock"
                );
            }
        }
    }
}

#[test]
fn observer_totals_match_metrics_on_election() {
    use welle::core::{Election, ElectionConfig};
    let mut rng = StdRng::seed_from_u64(2);
    let g = Arc::new(gen::random_regular(64, 4, &mut rng).unwrap());
    let cfg = ElectionConfig::tuned_for_simulation(64);
    let mut count = 0u64;
    let mut obs = |_ev: &welle::congest::TransmitEvent| count += 1;
    let report = Election::on(&g)
        .config(cfg)
        .seed(3)
        .observer(&mut obs)
        .run()
        .unwrap();
    assert_eq!(count, report.messages);
}
