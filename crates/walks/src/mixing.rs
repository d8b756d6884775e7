//! Mixing time of the lazy random walk (§2 of the paper).
//!
//! The walk has transition matrix `P = ½I + ½D⁻¹A` and stationary
//! distribution `π*(v) = deg(v)/2m`. The paper defines
//! `t_mix = min { t : ∀π₀, ‖πₜ − π*‖∞ ≤ 1/2n }`; because the distance is
//! convex in the start distribution, the maximum is attained at point
//! masses, so we evolve the walk from single-node starts.

use welle_graph::{analysis, Graph, NodeId};

/// Which start vertices to examine when maximizing over `π₀`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartPolicy {
    /// All `n` point masses — the exact `t_mix` (cost `O(n · m · t_mix)`).
    All,
    /// A deterministic sample of `k` starts (stride over node indices)
    /// plus the extremal-degree nodes; a lower bound on `t_mix` that is
    /// nearly always exact on the symmetric families used here.
    Sample(usize),
    /// A single given start (gives that start's mixing time only).
    Single(NodeId),
}

/// Options for [`mixing_time`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MixingOptions {
    /// Give up (return `None`) if the walk has not mixed after this many
    /// steps. Remember `t_mix` can be `Θ(n³)` on lollipop-like graphs.
    pub horizon: u32,
    /// Start-vertex policy.
    pub starts: StartPolicy,
}

impl Default for MixingOptions {
    fn default() -> Self {
        MixingOptions {
            horizon: 100_000,
            starts: StartPolicy::All,
        }
    }
}

/// One lazy-walk step: `next = Pᵀ cur`, i.e.
/// `next[v] = ½·cur[v] + Σ_{u∼v} cur[u]/(2·deg(u))`.
pub fn lazy_step(g: &Graph, cur: &[f64], next: &mut [f64]) {
    debug_assert_eq!(cur.len(), g.n());
    debug_assert_eq!(next.len(), g.n());
    for v in g.nodes() {
        let mut acc = 0.5 * cur[v.index()];
        for &u in g.neighbors(v) {
            acc += cur[u.index()] / (2.0 * g.degree(u) as f64);
        }
        next[v.index()] = acc;
    }
}

/// `‖a − b‖∞`.
pub fn linf_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Mixing time from a single start vertex: the first `t` with
/// `‖πₜ − π*‖∞ ≤ 1/2n`. `None` if the graph has an isolated node, is
/// disconnected, or the horizon is exceeded.
pub fn mixing_time_from(g: &Graph, start: NodeId, horizon: u32) -> Option<u32> {
    let pi_star = analysis::stationary_distribution(g)?;
    if !analysis::is_connected(g) {
        return None;
    }
    let n = g.n();
    let threshold = 1.0 / (2.0 * n as f64);
    let mut cur = vec![0.0f64; n];
    cur[start.index()] = 1.0;
    let mut next = vec![0.0f64; n];
    if linf_distance(&cur, &pi_star) <= threshold {
        return Some(0);
    }
    for t in 1..=horizon {
        lazy_step(g, &cur, &mut next);
        std::mem::swap(&mut cur, &mut next);
        if linf_distance(&cur, &pi_star) <= threshold {
            return Some(t);
        }
    }
    None
}

/// The walk distribution after `t` steps from `start` (exact evolution).
pub fn endpoint_distribution(g: &Graph, start: NodeId, t: u32) -> Vec<f64> {
    let n = g.n();
    let mut cur = vec![0.0f64; n];
    cur[start.index()] = 1.0;
    let mut next = vec![0.0f64; n];
    for _ in 0..t {
        lazy_step(g, &cur, &mut next);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// The paper's `t_mix`: worst mixing time over the chosen start set.
///
/// Returns `None` for disconnected graphs / isolated nodes, or when any
/// examined start fails to mix within the horizon.
///
/// ```
/// use welle_graph::gen;
/// use welle_walks::{mixing_time, MixingOptions};
///
/// let g = gen::clique(16).unwrap();
/// let t = mixing_time(&g, MixingOptions::default()).unwrap();
/// assert!(t <= 8, "cliques mix in O(1): got {t}");
/// ```
pub fn mixing_time(g: &Graph, opts: MixingOptions) -> Option<u32> {
    let starts: Vec<NodeId> = match opts.starts {
        StartPolicy::All => g.nodes().collect(),
        StartPolicy::Single(v) => vec![v],
        StartPolicy::Sample(k) => {
            let k = k.max(1);
            let n = g.n();
            let stride = (n / k).max(1);
            let mut v: Vec<NodeId> = (0..n).step_by(stride).map(NodeId::new).collect();
            // Extremal degrees are the usual worst starts; include them.
            let min_deg = g.nodes().min_by_key(|&u| g.degree(u));
            let max_deg = g.nodes().max_by_key(|&u| g.degree(u));
            v.extend(min_deg);
            v.extend(max_deg);
            v.sort_unstable();
            v.dedup();
            v
        }
    };
    let mut worst = 0u32;
    for s in starts {
        let t = mixing_time_from(g, s, opts.horizon)?;
        worst = worst.max(t);
    }
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use welle_graph::gen;

    #[test]
    fn lazy_step_preserves_mass_and_fixes_stationary() {
        let g = gen::hypercube(4).unwrap();
        let pi = analysis::stationary_distribution(&g).unwrap();
        let mut next = vec![0.0; g.n()];
        lazy_step(&g, &pi, &mut next);
        assert!(linf_distance(&pi, &next) < 1e-12, "π* is a fixed point");
        let mass: f64 = next.iter().sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clique_mixes_in_constant_time() {
        for n in [8usize, 16, 32] {
            let g = gen::clique(n).unwrap();
            let t = mixing_time(&g, MixingOptions::default()).unwrap();
            assert!(t <= 8, "K_{n} should mix in O(1), got {t}");
        }
    }

    #[test]
    fn ring_mixing_grows_quadratically() {
        let opts = MixingOptions {
            horizon: 200_000,
            starts: StartPolicy::Single(NodeId::new(0)),
        };
        let t8 = mixing_time(&gen::ring(8).unwrap(), opts).unwrap();
        let t16 = mixing_time(&gen::ring(16).unwrap(), opts).unwrap();
        let t32 = mixing_time(&gen::ring(32).unwrap(), opts).unwrap();
        // Quadratic growth: doubling n should roughly 4x the time.
        let r1 = t16 as f64 / t8 as f64;
        let r2 = t32 as f64 / t16 as f64;
        assert!(r1 > 2.5 && r1 < 6.0, "t8={t8} t16={t16} ratio {r1}");
        assert!(r2 > 2.5 && r2 < 6.0, "t16={t16} t32={t32} ratio {r2}");
    }

    #[test]
    fn expander_mixing_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(4);
        let g64 = gen::random_regular(64, 4, &mut rng).unwrap();
        let g256 = gen::random_regular(256, 4, &mut rng).unwrap();
        let opts = MixingOptions {
            horizon: 10_000,
            starts: StartPolicy::Sample(8),
        };
        let t64 = mixing_time(&g64, opts).unwrap();
        let t256 = mixing_time(&g256, opts).unwrap();
        // O(log n): far below sqrt(n), and growing slowly.
        assert!(t64 <= 40, "t_mix(64) = {t64}");
        assert!(t256 <= 60, "t_mix(256) = {t256}");
        assert!(t256 as f64 <= 2.5 * t64 as f64, "t64={t64} t256={t256}");
    }

    #[test]
    fn sinclair_sandwich_eq1() {
        // Θ(1/φ) ≤ t_mix ≤ Θ(1/φ²) with explicit modest constants.
        for g in [
            gen::ring(16).unwrap(),
            gen::hypercube(4).unwrap(),
            gen::clique(12).unwrap(),
            gen::barbell(6).unwrap(),
        ] {
            let phi = analysis::conductance_sweep(&g, 2000);
            let t = mixing_time(&g, MixingOptions::default()).unwrap() as f64;
            assert!(
                t <= 16.0 / (phi * phi),
                "t_mix {t} above O(1/φ²) for φ={phi}"
            );
            assert!(t >= 0.05 / phi, "t_mix {t} below Ω(1/φ) for φ={phi}");
        }
    }

    #[test]
    fn endpoint_distribution_converges_to_stationary() {
        let g = gen::torus2d(4, 4).unwrap();
        let pi = analysis::stationary_distribution(&g).unwrap();
        let d = endpoint_distribution(&g, NodeId::new(0), 400);
        assert!(linf_distance(&d, &pi) < 1e-6);
    }

    #[test]
    fn horizon_exceeded_returns_none() {
        let g = gen::ring(64).unwrap();
        let opts = MixingOptions {
            horizon: 3,
            starts: StartPolicy::Single(NodeId::new(0)),
        };
        assert_eq!(mixing_time(&g, opts), None);
    }

    #[test]
    fn disconnected_returns_none() {
        let g = welle_graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(mixing_time_from(&g, NodeId::new(0), 100), None);
    }

    #[test]
    fn sample_policy_matches_all_on_vertex_transitive_graphs() {
        let g = gen::hypercube(4).unwrap();
        let all = mixing_time(&g, MixingOptions::default()).unwrap();
        let sampled = mixing_time(
            &g,
            MixingOptions {
                horizon: 100_000,
                starts: StartPolicy::Sample(4),
            },
        )
        .unwrap();
        assert_eq!(all, sampled);
    }
}
