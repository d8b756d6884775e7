//! Spectral estimates of conductance and mixing behaviour.
//!
//! The lazy random walk of §2 has transition matrix
//! `P = ½I + ½D⁻¹A`. Its similarity transform
//! `S = D^{1/2} P D^{-1/2} = ½I + ½ D^{-1/2} A D^{-1/2}`
//! is symmetric with eigenvalues `1 = μ₁ ≥ μ₂ ≥ … ≥ 0` and top eigenvector
//! `D^{1/2}𝟙`. We extract `μ₂` by deflated power iteration; the *lazy
//! spectral gap* `γ = 1 − μ₂` then sandwiches the conductance via Cheeger:
//! `γ ≤ φ ≤ 2√γ`, and a sweep cut over the second eigenvector produces a
//! certified upper bound on `φ` that is tight in practice.

use crate::graph::Graph;
use crate::types::NodeId;

/// Options for the deflated power iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpectralOptions {
    /// Number of power-iteration steps (each is one sparse mat-vec).
    pub iterations: usize,
    /// Early-exit tolerance on the Rayleigh-quotient change.
    pub tolerance: f64,
}

impl Default for SpectralOptions {
    fn default() -> Self {
        SpectralOptions {
            iterations: 2000,
            tolerance: 1e-12,
        }
    }
}

/// Stationary distribution of the lazy walk: `π*_v = deg(v) / 2m` (§2).
///
/// Returns `None` if the graph has an isolated node (the walk is then not
/// well-defined on all of `V`).
pub fn stationary_distribution(g: &Graph) -> Option<Vec<f64>> {
    let two_m = g.volume() as f64;
    // welle-lint: allow(no-float-eq) — exact-zero guard on an integer-valued volume cast; no arithmetic has touched it
    if two_m == 0.0 {
        return None;
    }
    let mut pi = Vec::with_capacity(g.n());
    for u in g.nodes() {
        let d = g.degree(u);
        if d == 0 {
            return None;
        }
        pi.push(d as f64 / two_m);
    }
    Some(pi)
}

/// Second-largest eigenvalue `μ₂` of the symmetrized lazy walk operator.
///
/// Returns `None` for graphs with isolated nodes or fewer than 2 nodes.
/// For disconnected graphs this converges to 1 (zero gap), as expected.
pub fn lazy_second_eigenvalue(g: &Graph, opts: SpectralOptions) -> Option<f64> {
    let n = g.n();
    if n < 2 || g.nodes().any(|u| g.degree(u) == 0) {
        return None;
    }
    // Top eigenvector of S: v1 ∝ sqrt(deg).
    let mut v1: Vec<f64> = g.nodes().map(|u| (g.degree(u) as f64).sqrt()).collect();
    normalize(&mut v1);

    // Deterministic start vector, decorrelated from v1.
    let mut x: Vec<f64> = (0..n)
        .map(|i| {
            let t = (i as f64 + 1.0) * 0.754_877_666_246_693; // golden-ratio-ish stride
            (t - t.floor()) - 0.5
        })
        .collect();
    deflate(&mut x, &v1);
    normalize(&mut x);

    let mut y = vec![0.0f64; n];
    let mut prev_rq = f64::NAN;
    for it in 0..opts.iterations {
        apply_sym_lazy(g, &x, &mut y);
        deflate(&mut y, &v1);
        let norm = dot(&y, &y).sqrt();
        if norm < 1e-300 {
            // x was (numerically) orthogonal to everything: gap is huge.
            return Some(0.0);
        }
        for v in y.iter_mut() {
            *v /= norm;
        }
        std::mem::swap(&mut x, &mut y);
        if it % 8 == 7 {
            apply_sym_lazy(g, &x, &mut y);
            let rq = dot(&x, &y);
            if (rq - prev_rq).abs() < opts.tolerance {
                return Some(rq.clamp(0.0, 1.0));
            }
            prev_rq = rq;
        }
    }
    apply_sym_lazy(g, &x, &mut y);
    Some(dot(&x, &y).clamp(0.0, 1.0))
}

/// Lazy spectral gap `γ = 1 − μ₂`; `None` under the same conditions as
/// [`lazy_second_eigenvalue`].
pub fn lazy_spectral_gap(g: &Graph, opts: SpectralOptions) -> Option<f64> {
    lazy_second_eigenvalue(g, opts).map(|mu2| (1.0 - mu2).max(0.0))
}

/// Cheeger sandwich for the *lazy* gap: returns `(φ_lo, φ_hi)` with
/// `φ_lo = γ` and `φ_hi = 2√γ`, so that `φ_lo ≤ φ(G) ≤ φ_hi`.
///
/// (Standard Cheeger for the non-lazy normalized walk is
/// `γ'/2 ≤ φ ≤ √(2γ')`; the lazy gap is `γ = γ'/2`.)
pub fn cheeger_bounds(lazy_gap: f64) -> (f64, f64) {
    let g = lazy_gap.max(0.0);
    (g, 2.0 * g.sqrt())
}

/// Sweep-cut conductance estimate: orders nodes by the second eigenvector
/// (Fiedler-style, `D^{-1/2}`-rescaled) and returns the best prefix-cut
/// conductance. This is a *certified upper bound* on `φ(G)` (every cut is),
/// and by Cheeger's proof it is at most `2√γ`.
///
/// `iterations` bounds the power-iteration work; 200–2000 is plenty for
/// simulation-scale graphs.
pub fn conductance_sweep(g: &Graph, iterations: usize) -> f64 {
    let opts = SpectralOptions {
        iterations,
        ..SpectralOptions::default()
    };
    let Some(order) = second_eigenvector_order(g, opts) else {
        return 1.0;
    };
    let mut side = vec![false; g.n()];
    let total_vol = g.volume() as f64;
    let mut vol = 0.0f64;
    let mut cut = 0i64;
    let mut best = f64::INFINITY;
    // Incremental sweep: adding node u moves its edges across the cut.
    for (i, &u) in order.iter().enumerate() {
        let node = NodeId::new(u);
        let d = g.degree(node) as i64;
        let mut to_inside = 0i64;
        for &v in g.neighbors(node) {
            if side[v.index()] {
                to_inside += 1;
            }
        }
        cut += d - 2 * to_inside;
        vol += d as f64;
        side[u] = true;
        if i + 1 == order.len() {
            break; // full set: degenerate cut
        }
        let vmin = vol.min(total_vol - vol);
        if vmin > 0.0 {
            let phi = cut as f64 / vmin;
            if phi < best {
                best = phi;
            }
        }
    }
    if best.is_finite() {
        best
    } else {
        1.0
    }
}

/// Node order for the sweep cut: ascending second eigenvector, rescaled by
/// `D^{-1/2}` to live in walk (not symmetric) coordinates.
fn second_eigenvector_order(g: &Graph, opts: SpectralOptions) -> Option<Vec<usize>> {
    let n = g.n();
    if n < 2 || g.nodes().any(|u| g.degree(u) == 0) {
        return None;
    }
    let mut v1: Vec<f64> = g.nodes().map(|u| (g.degree(u) as f64).sqrt()).collect();
    normalize(&mut v1);
    let mut x: Vec<f64> = (0..n)
        .map(|i| {
            let t = (i as f64 + 1.0) * 0.618_033_988_749_894_9;
            (t - t.floor()) - 0.5
        })
        .collect();
    deflate(&mut x, &v1);
    normalize(&mut x);
    let mut y = vec![0.0f64; n];
    for _ in 0..opts.iterations {
        apply_sym_lazy(g, &x, &mut y);
        deflate(&mut y, &v1);
        let norm = dot(&y, &y).sqrt();
        if norm < 1e-300 {
            break;
        }
        for v in y.iter_mut() {
            *v /= norm;
        }
        std::mem::swap(&mut x, &mut y);
    }
    // Rescale to walk coordinates and sort.
    let mut order: Vec<usize> = (0..n).collect();
    let score: Vec<f64> = g
        .nodes()
        .map(|u| x[u.index()] / (g.degree(u) as f64).sqrt())
        .collect();
    order.sort_by(|&a, &b| score[a].total_cmp(&score[b]));
    Some(order)
}

/// `y ← S x` where `S = ½I + ½ D^{-1/2} A D^{-1/2}`.
fn apply_sym_lazy(g: &Graph, x: &[f64], y: &mut [f64]) {
    let inv_sqrt_deg: Vec<f64> = g
        .nodes()
        .map(|u| 1.0 / (g.degree(u) as f64).sqrt())
        .collect();
    for u in g.nodes() {
        let ui = u.index();
        let mut acc = 0.0;
        for &v in g.neighbors(u) {
            acc += x[v.index()] * inv_sqrt_deg[v.index()];
        }
        y[ui] = 0.5 * x[ui] + 0.5 * inv_sqrt_deg[ui] * acc;
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn deflate(x: &mut [f64], v1: &[f64]) {
    let c = dot(x, v1);
    for (xi, vi) in x.iter_mut().zip(v1) {
        *xi -= c * vi;
    }
}

fn normalize(x: &mut [f64]) {
    let norm = dot(x, x).sqrt();
    if norm > 0.0 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::conductance_exact;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stationary_is_degree_proportional() {
        let g = gen::star(5).unwrap();
        let pi = stationary_distribution(&g).unwrap();
        assert!((pi[0] - 4.0 / 8.0).abs() < 1e-12);
        for &leaf in &pi[1..5] {
            assert!((leaf - 1.0 / 8.0).abs() < 1e-12);
        }
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clique_eigenvalue_known() {
        // For K_n: normalized adjacency eigenvalues are 1 and -1/(n-1);
        // lazy: μ₂ = ½(1 - 1/(n-1)).
        let n = 8;
        let g = gen::clique(n).unwrap();
        let mu2 = lazy_second_eigenvalue(&g, SpectralOptions::default()).unwrap();
        let expected = 0.5 * (1.0 - 1.0 / (n as f64 - 1.0));
        assert!((mu2 - expected).abs() < 1e-6, "mu2 = {mu2} vs {expected}");
    }

    #[test]
    fn ring_eigenvalue_known() {
        // C_n: normalized adjacency second eigenvalue cos(2π/n);
        // lazy: (1 + cos(2π/n)) / 2.
        let n = 12;
        let g = gen::ring(n).unwrap();
        let mu2 = lazy_second_eigenvalue(&g, SpectralOptions::default()).unwrap();
        let expected = 0.5 * (1.0 + (2.0 * std::f64::consts::PI / n as f64).cos());
        assert!((mu2 - expected).abs() < 1e-6, "mu2 = {mu2} vs {expected}");
    }

    #[test]
    fn cheeger_sandwich_holds_on_small_graphs() {
        for g in [
            gen::ring(10).unwrap(),
            gen::clique(6).unwrap(),
            gen::hypercube(3).unwrap(),
            gen::barbell(5).unwrap(),
        ] {
            let phi = conductance_exact(&g).unwrap();
            let gap = lazy_spectral_gap(&g, SpectralOptions::default()).unwrap();
            let (lo, hi) = cheeger_bounds(gap);
            assert!(
                lo <= phi + 1e-9 && phi <= hi + 1e-9,
                "Cheeger failed: {lo} <= {phi} <= {hi}"
            );
        }
    }

    #[test]
    fn sweep_is_upper_bound_and_close_on_structured_graphs() {
        for g in [
            gen::ring(16).unwrap(),
            gen::hypercube(4).unwrap(),
            gen::barbell(8).unwrap(),
        ] {
            let sweep = conductance_sweep(&g, 1000);
            // Sweep is a real cut, so it upper-bounds φ but must be < 1.
            assert!(sweep > 0.0 && sweep <= 1.0);
            if let Some(exact) = conductance_exact(&g) {
                assert!(sweep + 1e-9 >= exact);
                // On these symmetric families the sweep should be within 2.5x.
                assert!(
                    sweep <= 2.5 * exact + 1e-9,
                    "sweep {sweep} too far above exact {exact}"
                );
            }
        }
    }

    #[test]
    fn expander_has_constant_gap() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::random_regular(128, 4, &mut rng).unwrap();
        let gap = lazy_spectral_gap(&g, SpectralOptions::default()).unwrap();
        assert!(gap > 0.02, "4-regular expander gap {gap} too small");
    }

    #[test]
    fn barbell_has_tiny_gap() {
        let g = gen::barbell(12).unwrap();
        let gap = lazy_spectral_gap(&g, SpectralOptions::default()).unwrap();
        let expander_gap = {
            let mut rng = StdRng::seed_from_u64(2);
            let e = gen::random_regular(24, 4, &mut rng).unwrap();
            lazy_spectral_gap(&e, SpectralOptions::default()).unwrap()
        };
        assert!(
            gap < expander_gap / 4.0,
            "barbell {gap} vs expander {expander_gap}"
        );
    }

    #[test]
    fn isolated_node_returns_none() {
        let g = crate::builder::from_edges(3, &[(0, 1)]).unwrap();
        assert!(stationary_distribution(&g).is_none());
        assert!(lazy_second_eigenvalue(&g, SpectralOptions::default()).is_none());
    }
}
