//! Property-based tests for the walk machinery.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use welle_graph::{analysis, gen, NodeId};
use welle_walks::{endpoint_distribution, lazy_step, split_lazy};

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
}
