//! Centralized (non-distributed) walk simulation, used to validate the
//! distributed token machinery and to sanity-check that "walks of length
//! ≥ t_mix end at near-uniform (stationary) nodes" — the black-box view
//! the paper takes in §3.

use rand::{Rng, RngExt};
use welle_graph::{Graph, NodeId};

/// Simulates one lazy random walk of `steps` steps from `start`, returning
/// the end node.
///
/// # Panics
///
/// Panics if the walk reaches an isolated node (impossible on connected
/// graphs).
pub fn walk_endpoint<R: Rng + ?Sized>(g: &Graph, start: NodeId, steps: u32, rng: &mut R) -> NodeId {
    let mut at = start;
    for _ in 0..steps {
        let d = g.degree(at);
        assert!(d > 0, "walk stranded on isolated node {at}");
        if !rng.random_bool(0.5) {
            let p = rng.random_range(0..d);
            at = g.neighbor(at, welle_graph::Port::new(p));
        }
    }
    at
}

/// Empirical endpoint distribution of `samples` walks of length `steps`.
pub fn empirical_endpoints<R: Rng + ?Sized>(
    g: &Graph,
    start: NodeId,
    steps: u32,
    samples: usize,
    rng: &mut R,
) -> Vec<f64> {
    let mut counts = vec![0usize; g.n()];
    for _ in 0..samples {
        counts[walk_endpoint(g, start, steps, rng).index()] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f64 / samples as f64)
        .collect()
}

/// Total-variation distance `½‖a − b‖₁` between two distributions.
pub fn total_variation(a: &[f64], b: &[f64]) -> f64 {
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixing::{endpoint_distribution, mixing_time_from};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use welle_graph::{analysis, gen};

    #[test]
    fn empirical_matches_exact_distribution() {
        let g = gen::hypercube(3).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let t = 6;
        let exact = endpoint_distribution(&g, NodeId::new(0), t);
        let emp = empirical_endpoints(&g, NodeId::new(0), t, 40_000, &mut rng);
        assert!(
            total_variation(&exact, &emp) < 0.02,
            "tv = {}",
            total_variation(&exact, &emp)
        );
    }

    #[test]
    fn long_walks_sample_near_stationary() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = gen::random_regular(64, 4, &mut rng).unwrap();
        let tmix = mixing_time_from(&g, NodeId::new(0), 10_000).unwrap();
        let pi = analysis::stationary_distribution(&g).unwrap();
        let emp = empirical_endpoints(&g, NodeId::new(0), 2 * tmix, 30_000, &mut rng);
        assert!(
            total_variation(&pi, &emp) < 0.05,
            "walks of length 2·t_mix are near-stationary"
        );
    }

    #[test]
    fn zero_step_walk_stays_home() {
        let g = gen::ring(5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            walk_endpoint(&g, NodeId::new(3), 0, &mut rng),
            NodeId::new(3)
        );
    }

    #[test]
    fn total_variation_bounds() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((total_variation(&a, &b) - 1.0).abs() < 1e-12);
        assert!(total_variation(&a, &a) < 1e-12);
    }
}
