//! Property-based tests for the walk machinery.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use welle_graph::{analysis, gen, Graph, NodeId, Port};
use welle_walks::{
    endpoint_distribution, lazy_step, run_walk_fleet, split_lazy, Hop, ReverseRoute, Trail,
};

/// Walks `walks` lazy walks of `len` steps from `origin`, step by step,
/// recording every node's trail as the protocols do, and returns the
/// per-node trails.
fn simulate_trails(
    g: &Graph,
    origin: usize,
    walks: u32,
    len: u32,
    rng: &mut StdRng,
) -> Vec<Option<Trail>> {
    let mut trails: Vec<Option<Trail>> = vec![None; g.n()];
    let record = |trails: &mut [Option<Trail>], v: NodeId, step: u32, hop: Hop| {
        Trail::enter_epoch(&mut trails[v.index()], 0)
            .expect("one epoch")
            .record_in(step, hop);
    };
    record(&mut trails, NodeId::new(origin), 0, Hop::Origin);
    // Token bundles at the current step, by node in index order.
    let mut at: BTreeMap<usize, u32> = BTreeMap::from([(origin, walks)]);
    for step in 0..len {
        let mut next: BTreeMap<usize, u32> = BTreeMap::new();
        for (&u, &count) in &at {
            let u = NodeId::new(u);
            let mut moves = vec![0; g.degree(u)];
            let stay = split_lazy(count, rng, &mut moves);
            if stay > 0 {
                record(&mut trails, u, step + 1, Hop::Stay);
                *next.entry(u.index()).or_default() += stay;
            }
            for (port, &moved) in moves.iter().enumerate().filter(|&(_, &c)| c > 0) {
                let port = Port::new(port);
                let v = g.neighbor(u, port);
                record(&mut trails, v, step + 1, Hop::Via(g.reverse_port(u, port)));
                *next.entry(v.index()).or_default() += moved;
            }
        }
        at = next;
    }
    trails
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn split_conserves_arbitrary_counts(count in 0u32..5_000, degree in 1usize..64, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0; degree];
        let stay = split_lazy(count, &mut rng, &mut counts);
        let moved: u32 = counts.iter().sum();
        prop_assert_eq!(stay + moved, count);
    }

    #[test]
    fn distribution_mass_is_preserved(n in 4usize..32, steps in 0u32..50, start_seed in any::<u64>()) {
        let g = gen::ring(n.max(3)).unwrap();
        let start = NodeId::new((start_seed % n as u64) as usize % g.n());
        let d = endpoint_distribution(&g, start, steps);
        let mass: f64 = d.iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        prop_assert!(d.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn stationary_is_fixed_point_on_random_graphs(seed in any::<u64>(), n in 6usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::gnp_connected(n, 0.5, &mut rng).unwrap();
        let pi = analysis::stationary_distribution(&g).unwrap();
        let mut next = vec![0.0; g.n()];
        lazy_step(&g, &pi, &mut next);
        for (a, b) in pi.iter().zip(&next) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// From every node the walks reached, reverse routing over the
    /// graph's ports reaches the origin within the walk length, the
    /// earliest step falling at every hop and no node repeating. Every
    /// hop makes its in-port a reply child of the node it reaches, as
    /// the election's relays do, and the children then form a tree from
    /// the origin over edges the walks crossed, holding every node the
    /// walks reached exactly once.
    #[test]
    fn trail_reverse_route_terminates(
        seed in any::<u64>(),
        n in 4usize..24,
        walks in 1u32..64,
        len in 1u32..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::gnp_connected(n, 0.3, &mut rng).unwrap();
        let origin = (seed % n as u64) as usize;
        let mut trails = simulate_trails(&g, origin, walks, len, &mut rng);
        for start in 0..n {
            let Some(trail) = &trails[start] else {
                continue;
            };
            let (mut step, _) = trail.earliest().expect("a trail holds an arrival");
            let mut at = NodeId::new(start);
            let mut seen = vec![false; n];
            seen[start] = true;
            let mut hops = 0u32;
            loop {
                let here = trails[at.index()].as_ref().expect("routes stay on the trail");
                match here.reverse_route() {
                    ReverseRoute::AtOrigin => {
                        prop_assert_eq!(at.index(), origin, "only the origin answers AtOrigin");
                        break;
                    }
                    ReverseRoute::Forward(port) => {
                        let child = g.reverse_port(at, port);
                        at = g.neighbor(at, port);
                        trails[at.index()]
                            .as_mut()
                            .expect("routes stay on the trail")
                            .record_child(child);
                        hops += 1;
                        prop_assert!(hops <= len, "route from {} is longer than the walk", start);
                        prop_assert!(!seen[at.index()], "route from {} revisits {}", start, at.index());
                        seen[at.index()] = true;
                        let next = trails[at.index()]
                            .as_ref()
                            .and_then(|t| t.earliest())
                            .map(|(s, _)| s);
                        prop_assert!(next.is_some_and(|s| s < step),
                            "earliest step did not fall: {} then {:?}", step, next);
                        step = next.unwrap_or(0);
                    }
                    ReverseRoute::Broken => prop_assert!(false, "broken route from {}", start),
                }
            }
        }
        let mut reached = vec![false; n];
        reached[origin] = true;
        let mut stack = vec![NodeId::new(origin)];
        while let Some(u) = stack.pop() {
            let trail = trails[u.index()].as_ref().expect("tree nodes hold trails");
            for &port in trail.children() {
                let v = g.neighbor(u, port);
                let back = trails[v.index()].as_ref().map(Trail::reverse_route);
                prop_assert_eq!(back, Some(ReverseRoute::Forward(g.reverse_port(u, port))),
                    "child {} of {} was not reached over that edge", v.index(), u.index());
                prop_assert!(!reached[v.index()], "node {} has two parents", v.index());
                reached[v.index()] = true;
                stack.push(v);
            }
        }
        let held: Vec<bool> = trails.iter().map(Option::is_some).collect();
        prop_assert_eq!(reached, held, "the tree must hold exactly the trail nodes");
    }

    #[test]
    fn walk_fleet_conservation_on_random_graphs(seed in any::<u64>(), n in 8usize..24, walks in 1u32..200, len in 1u32..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Arc::new(gen::gnp_connected(n, 0.4, &mut rng).unwrap());
        let origin = (seed % n as u64) as usize;
        let (counts, reported) = run_walk_fleet(&g, origin, walks, len, seed ^ 7);
        let total: u32 = counts.iter().sum();
        prop_assert_eq!(total, walks, "every walk ends exactly once");
        prop_assert_eq!(reported, walks, "every endpoint reports back");
    }

    #[test]
    fn endpoints_stay_within_walk_radius(seed in any::<u64>(), len in 1u32..6) {
        let g = Arc::new(gen::torus2d(6, 6).unwrap());
        let (counts, _) = run_walk_fleet(&g, 0, 50, len, seed);
        let dist = analysis::bfs(&g, NodeId::new(0));
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                prop_assert!(dist[i] <= len, "endpoint {i} at distance {} > {len}", dist[i]);
            }
        }
    }
}
