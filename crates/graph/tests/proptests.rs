//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use welle_graph::{analysis, from_edges, gen, GraphBuilder, NodeId};

/// Strategy: a random simple undirected graph given by (n, edge mask seed).
fn arb_edge_list(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (4..=max_n).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let len = pairs.len();
        (Just(n), proptest::collection::vec(any::<bool>(), len)).prop_map(move |(n, mask)| {
            let chosen: Vec<(usize, usize)> = pairs
                .iter()
                .zip(&mask)
                .filter(|(_, &keep)| keep)
                .map(|(&e, _)| e)
                .collect();
            (n, chosen)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_round_trips_edge_set((n, edges) in arb_edge_list(12)) {
        let g = from_edges(n, &edges).unwrap();
        prop_assert_eq!(g.m(), edges.len());
        let mut expect: Vec<(usize, usize)> = edges.clone();
        expect.sort_unstable();
        let mut got: Vec<(usize, usize)> = g
            .edges()
            .map(|(_, u, v)| (u.index(), v.index()))
            .collect();
        got.sort_unstable();
        prop_assert_eq!(expect, got);
    }

    #[test]
    fn reverse_port_is_involution((n, edges) in arb_edge_list(12)) {
        let g = from_edges(n, &edges).unwrap();
        for u in g.nodes() {
            for p in g.ports(u) {
                let v = g.neighbor(u, p);
                let q = g.reverse_port(u, p);
                prop_assert_eq!(g.neighbor(v, q), u);
                prop_assert_eq!(g.reverse_port(v, q), p);
            }
        }
    }

    #[test]
    fn shuffle_preserves_adjacency_sets((n, edges) in arb_edge_list(10), seed in any::<u64>()) {
        let mut g = from_edges(n, &edges).unwrap();
        let mut before: Vec<Vec<usize>> = g
            .nodes()
            .map(|u| {
                let mut v: Vec<usize> = g.neighbors(u).iter().map(|x| x.index()).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        g.shuffle_ports(&mut rng);
        let mut after: Vec<Vec<usize>> = g
            .nodes()
            .map(|u| {
                let mut v: Vec<usize> = g.neighbors(u).iter().map(|x| x.index()).collect();
                v.sort_unstable();
                v
            })
            .collect();
        before.sort();
        after.sort();
        prop_assert_eq!(before, after);
        // Reverse ports stay consistent after shuffling.
        for u in g.nodes() {
            for p in g.ports(u) {
                let v = g.neighbor(u, p);
                let q = g.reverse_port(u, p);
                prop_assert_eq!(g.neighbor(v, q), u);
            }
        }
    }

    #[test]
    fn volumes_partition_total((n, edges) in arb_edge_list(12), mask_seed in any::<u64>()) {
        let g = from_edges(n, &edges).unwrap();
        let side: Vec<bool> = (0..n).map(|u| (mask_seed >> (u % 64)) & 1 == 1).collect();
        let v1 = analysis::volume(&g, &side);
        let flipped: Vec<bool> = side.iter().map(|b| !b).collect();
        let v2 = analysis::volume(&g, &flipped);
        prop_assert_eq!(v1 + v2, g.volume());
    }

    #[test]
    fn exact_conductance_lower_bounds_any_cut(seed in any::<u64>(), n in 4usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random connected graph: random tree plus extra random edges.
        let g = {
            let mut b = GraphBuilder::new(n);
            for child in 1..n {
                let parent = rand::RngExt::random_range(&mut rng, 0..child);
                b.add_edge(parent, child).unwrap();
            }
            for _ in 0..n {
                let u = rand::RngExt::random_range(&mut rng, 0..n);
                let v = rand::RngExt::random_range(&mut rng, 0..n);
                if u != v && !b.has_edge(u, v) {
                    b.add_edge(u, v).unwrap();
                }
            }
            b.build().unwrap()
        };
        let exact = analysis::conductance_exact(&g).unwrap();
        // Compare against 10 random cuts.
        for _ in 0..10 {
            let side: Vec<bool> = (0..n).map(|_| rand::RngExt::random_bool(&mut rng, 0.5)).collect();
            if let Some(phi) = analysis::cut_conductance(&g, &side) {
                prop_assert!(exact <= phi + 1e-12);
            }
        }
    }

    #[test]
    fn cheeger_sandwich_on_random_connected_graphs(seed in any::<u64>(), n in 5usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = {
            let mut b = GraphBuilder::new(n);
            for child in 1..n {
                let parent = rand::RngExt::random_range(&mut rng, 0..child);
                b.add_edge(parent, child).unwrap();
            }
            for _ in 0..2 * n {
                let u = rand::RngExt::random_range(&mut rng, 0..n);
                let v = rand::RngExt::random_range(&mut rng, 0..n);
                if u != v && !b.has_edge(u, v) {
                    b.add_edge(u, v).unwrap();
                }
            }
            b.build().unwrap()
        };
        let phi = analysis::conductance_exact(&g).unwrap();
        let gap = analysis::lazy_spectral_gap(&g, analysis::SpectralOptions::default()).unwrap();
        let (lo, hi) = analysis::cheeger_bounds(gap);
        prop_assert!(lo <= phi + 1e-7, "lo {} phi {}", lo, phi);
        prop_assert!(phi <= hi + 1e-7, "phi {} hi {}", phi, hi);
    }

    #[test]
    fn bridges_disconnect_iff_removed(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(12, &mut rng).unwrap();
        // Every edge of a tree is a bridge.
        prop_assert_eq!(analysis::bridges(&g).len(), g.m());
    }

    #[test]
    fn random_regular_structure(seed in any::<u64>(), half in 4usize..20) {
        let n = 2 * half;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_regular(n, 3, &mut rng).unwrap();
        prop_assert!(g.is_regular(3));
        prop_assert!(analysis::is_connected(&g));
        prop_assert_eq!(g.m(), 3 * n / 2);
    }

    #[test]
    fn dumbbell_structure(seed in any::<u64>(), n in 6usize..16) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = gen::ring(n).unwrap();
        let db = gen::dumbbell(&base, &mut rng).unwrap();
        prop_assert!(analysis::is_connected(db.graph()));
        prop_assert!(db.graph().is_regular(2));
        let crossings = db
            .graph()
            .edges()
            .filter(|&(_, u, v)| db.is_left(u) != db.is_left(v))
            .count();
        prop_assert_eq!(crossings, 2);
    }

    #[test]
    fn barbell_structure(k in 2usize..12) {
        let g = gen::barbell(k).unwrap();
        prop_assert_eq!(g.n(), 2 * k);
        prop_assert_eq!(g.m(), k * (k - 1) + 1);
        prop_assert!(analysis::is_connected(&g));
        // The joining edge is the unique bridge (for k >= 3 the cliques
        // themselves are 2-edge-connected; K_2 cliques are single edges,
        // making every edge a bridge).
        let bridges = analysis::bridges(&g);
        if k >= 3 {
            prop_assert_eq!(bridges.len(), 1);
        } else {
            prop_assert_eq!(bridges.len(), 3);
        }
        // Conductance of the clique/clique cut: 1 crossing edge over the
        // volume of one side, vol = 2 * (k choose 2) + 1.
        let left: Vec<bool> = (0..2 * k).map(|u| u < k).collect();
        let phi = analysis::cut_conductance(&g, &left).unwrap();
        let expect = 1.0 / (k * (k - 1) + 1) as f64;
        prop_assert!((phi - expect).abs() < 1e-12, "phi {} expect {}", phi, expect);
    }

    #[test]
    fn lollipop_structure(k in 2usize..10, tail in 1usize..8) {
        let g = gen::lollipop(k, tail).unwrap();
        prop_assert_eq!(g.n(), k + tail);
        prop_assert_eq!(g.m(), k * (k - 1) / 2 + tail);
        prop_assert!(analysis::is_connected(&g));
        // Every tail edge is a bridge; for k >= 3 the clique contributes
        // none.
        if k >= 3 {
            prop_assert_eq!(analysis::bridges(&g).len(), tail);
        }
    }

    #[test]
    fn clique_of_cliques_structure(seed in any::<u64>(), target_n in 60usize..240) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = gen::CliqueOfCliquesParams::new(target_n, 0.3);
        let lb = gen::CliqueOfCliques::build(params, &mut rng).unwrap();
        let s = lb.clique_size();
        let nc = lb.num_cliques();
        prop_assert!(s >= 4, "cliques must hold the 4-regular super-degree");
        prop_assert!(nc >= 5);
        let g = lb.graph();
        // Figure 2 degree uniformity: every node has s-1 neighbours
        // (two intra-clique edges removed per attached inter-clique edge).
        prop_assert!(g.is_regular(s - 1), "expected ({} - 1)-regular", s);
        prop_assert_eq!(g.n(), s * nc);
        prop_assert!(analysis::is_connected(g));
        // The super-graph is 4-regular on nc nodes, so exactly 2·nc
        // inter-clique edges survive in the expansion.
        prop_assert_eq!(lb.super_graph().n(), nc);
        prop_assert!(lb.super_graph().is_regular(gen::SUPER_DEGREE));
        prop_assert_eq!(lb.inter_edge_count(), 2 * nc);
        // clique_of partitions the nodes into nc groups of exactly s.
        let mut sizes = vec![0usize; nc];
        for u in g.nodes() {
            sizes[lb.clique_of(u)] += 1;
        }
        prop_assert!(sizes.iter().all(|&c| c == s), "sizes {:?}", sizes);
    }

    #[test]
    fn directed_index_is_a_bijection((n, edges) in arb_edge_list(10)) {
        let g = from_edges(n, &edges).unwrap();
        let mut seen = vec![false; g.directed_edge_count()];
        for u in g.nodes() {
            for p in g.ports(u) {
                let idx = g.directed_index(u, p);
                prop_assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn bfs_distances_respect_triangle_inequality((n, edges) in arb_edge_list(10)) {
        let g = from_edges(n, &edges).unwrap();
        let d = analysis::bfs(&g, NodeId::new(0));
        for (_, u, v) in g.edges() {
            let (du, dv) = (d[u.index()], d[v.index()]);
            if du != analysis::UNREACHABLE && dv != analysis::UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            }
        }
    }
}
