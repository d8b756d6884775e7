//! Standard workload graphs and configurations shared by the experiment
//! binaries.

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle_core::ElectionConfig;
use welle_graph::{gen, Graph};

/// The graph families swept by the scaling experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Random 4-regular graph (expander, `t_mix = O(log n)`).
    Expander,
    /// Hypercube (`t_mix = O(log n·log log n)`); `n` rounds to a power
    /// of two.
    Hypercube,
    /// Complete graph (`t_mix = O(1)`).
    Clique,
    /// 2-D torus (`t_mix = Θ(n)`), the poorly-connected contrast.
    Torus,
}

impl Family {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Expander => "expander",
            Family::Hypercube => "hypercube",
            Family::Clique => "clique",
            Family::Torus => "torus",
        }
    }

    /// Builds an instance with approximately `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if generation fails (invalid `n` for the family).
    pub fn build(self, n: usize, seed: u64) -> Arc<Graph> {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = match self {
            Family::Expander => gen::random_regular(n, 4, &mut rng).expect("expander"),
            Family::Hypercube => {
                let dim = (n as f64).log2().round().max(1.0) as u32;
                gen::hypercube(dim).expect("hypercube")
            }
            Family::Clique => gen::clique(n).expect("clique"),
            Family::Torus => {
                let side = (n as f64).sqrt().round().max(3.0) as usize;
                gen::torus2d(side, side).expect("torus")
            }
        };
        Arc::new(g)
    }

    /// A sensible election configuration for this family at size `n`
    /// (tori get a `Θ(n)`-scale walk cap; the rest use the tuned default).
    pub fn election_config(self, n: usize) -> ElectionConfig {
        let mut cfg = ElectionConfig::tuned_for_simulation(n);
        if self == Family::Torus {
            cfg.max_walk_len = Some((8 * n) as u32);
        }
        cfg
    }

    /// The `(label, graph, config)` triple consumed by
    /// [`welle_core::Campaign::families`]: this family at approximately
    /// `n` nodes with its standard configuration.
    pub fn scenario(self, n: usize, seed: u64) -> (String, Arc<Graph>, ElectionConfig) {
        let graph = self.build(n, seed);
        let cfg = self.election_config(graph.n());
        (self.name().to_string(), graph, cfg)
    }
}

/// The default seeds used for Monte-Carlo repetitions.
pub fn seeds(count: usize) -> Vec<u64> {
    (0..count as u64).map(|i| 1000 + 7 * i).collect()
}

/// Mean of a slice of counts.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_build_at_small_sizes() {
        for fam in [
            Family::Expander,
            Family::Hypercube,
            Family::Clique,
            Family::Torus,
        ] {
            let g = fam.build(64, 1);
            assert!(g.n() >= 36, "{}: n = {}", fam.name(), g.n());
            assert!(welle_graph::analysis::is_connected(&g));
        }
    }

    #[test]
    fn hypercube_rounds_to_power_of_two() {
        let g = Family::Hypercube.build(100, 1);
        assert_eq!(g.n(), 128);
    }

    #[test]
    fn seeds_are_distinct() {
        let s = seeds(10);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2, 4]), 3.0);
    }
}
