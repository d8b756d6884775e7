//! Random graph models: Erdős–Rényi `G(n, p)` and random `d`-regular
//! graphs via the pairing (configuration) model.
//!
//! Random `d`-regular graphs (`d ≥ 3`) have constant conductance with high
//! probability (Bollobás \[7\], cited in Lemma 16), which makes them the
//! expander family of the paper's headline result and the super-node graph
//! `G_S` of the lower-bound construction (Figure 1).

use rand::seq::SliceRandom;
use rand::{Rng, RngExt};

use crate::analysis;
use crate::builder::{from_structured_edges, narrow};
use crate::error::GraphError;
use crate::graph::Graph;

/// Maximum attempts for rejection-sampling generators.
const MAX_ATTEMPTS: usize = 1000;

/// Erdős–Rényi `G(n, p)`: every pair is an edge independently with
/// probability `p`. Not necessarily connected — see [`gnp_connected`].
///
/// Uses geometric skipping, so the cost is `O(n + m)` rather than `O(n²)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n < 2` or `p ∉ [0, 1]`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::InvalidParameters {
            reason: format!("gnp needs n >= 2, got {n}"),
        });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameters {
            reason: format!("gnp needs p in [0, 1], got {p}"),
        });
    }
    // Both sampling paths below enumerate strictly increasing pair
    // indices, so the edge stream is duplicate- and loop-free by
    // construction and can be frozen into CSR directly.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    if p >= 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((narrow(u), narrow(v)));
            }
        }
        return from_structured_edges(n, edges);
    }
    if p > 0.0 {
        // Iterate over the strictly-upper-triangular pair index with
        // geometric jumps: the gap between successive edges is
        // Geometric(p).
        let total_pairs = n * (n - 1) / 2;
        let log1p = (1.0 - p).ln();
        let mut idx: usize = 0;
        loop {
            let roll: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let skip = (roll.ln() / log1p).floor() as usize;
            idx = match idx.checked_add(skip) {
                Some(i) => i,
                None => break,
            };
            if idx >= total_pairs {
                break;
            }
            let (a, bnode) = pair_from_index(n, idx);
            edges.push((narrow(a), narrow(bnode)));
            idx += 1;
        }
    }
    let mut g = from_structured_edges(n, edges)?;
    g.shuffle_ports(rng);
    Ok(g)
}

/// `G(n, p)` conditioned on connectivity: resamples until connected.
///
/// # Errors
///
/// Returns [`GraphError::RetriesExhausted`] if 1000 samples all come out
/// disconnected (pick `p ≳ ln n / n` to avoid this), plus the parameter
/// errors of [`gnp`].
pub fn gnp_connected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    for _ in 0..MAX_ATTEMPTS {
        let g = gnp(n, p, rng)?;
        if analysis::is_connected(&g) {
            return Ok(g);
        }
    }
    Err(GraphError::RetriesExhausted {
        what: format!("connected G({n}, {p})"),
        attempts: MAX_ATTEMPTS,
    })
}

/// Random `d`-regular simple connected graph via the pairing model with
/// edge-swap repair: `n·d` stubs are shuffled and paired, then each loop
/// or parallel edge is repaired by a degree-preserving swap with a
/// uniformly random good edge (the standard configuration-model repair;
/// full-sample rejection has acceptance `≈ e^{-(d²-1)/4}`, which is
/// hopeless already at `d = 6`, while repair is `O(n·d)` expected at any
/// `n` — this is what makes `n = 10⁵` expanders practical). Disconnected
/// results (rare for `d ≥ 3`) are resampled.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `d == 0`, `d >= n`, or
/// `n·d` is odd; [`GraphError::RetriesExhausted`] if sampling fails 1000
/// times (practically impossible for constant `d ≥ 3`).
///
/// ```
/// use rand::{SeedableRng, rngs::StdRng};
/// let mut rng = StdRng::seed_from_u64(5);
/// let g = welle_graph::gen::random_regular(32, 4, &mut rng).unwrap();
/// assert!(g.is_regular(4));
/// ```
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if d == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "degree d must be positive".into(),
        });
    }
    if d >= n {
        return Err(GraphError::InvalidParameters {
            reason: format!("d-regular graph needs d < n, got d={d}, n={n}"),
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameters {
            reason: format!("n*d must be even, got n={n}, d={d}"),
        });
    }
    let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
    for _ in 0..MAX_ATTEMPTS {
        stubs.clear();
        for u in 0..n {
            let stub = narrow(u);
            for _ in 0..d {
                stubs.push(stub);
            }
        }
        stubs.shuffle(rng);
        if let Some(edges) = pair_with_repair(n, d, &stubs, rng) {
            // The repair loop's own neighbour table guarantees a loop- and
            // duplicate-free edge list, so it freezes into CSR directly
            // — no second validation pass over n·d/2 edges.
            let mut g = from_structured_edges(n, edges)?;
            if analysis::is_connected(&g) {
                g.shuffle_ports(rng);
                return Ok(g);
            }
        }
    }
    Err(GraphError::RetriesExhausted {
        what: format!("random {d}-regular graph on {n} nodes"),
        attempts: MAX_ATTEMPTS,
    })
}

/// Canonical set key of an undirected edge.
fn edge_key(u: u32, v: u32) -> u64 {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// Accepted edges as a flat `n × d` neighbour table: row `u` holds
/// `u`'s first `len[u]` neighbours, so a membership test scans at most
/// `d` ids.
struct NeighbourTable {
    d: usize,
    nbrs: Vec<u32>,
    len: Vec<usize>,
}

impl NeighbourTable {
    fn new(n: usize, d: usize) -> Self {
        NeighbourTable {
            d,
            nbrs: vec![0; n * d],
            len: vec![0; n],
        }
    }

    fn row(&self, u: u32) -> &[u32] {
        let base = u as usize * self.d;
        &self.nbrs[base..base + self.len[u as usize]]
    }

    fn contains(&self, u: u32, v: u32) -> bool {
        self.row(u).contains(&v)
    }

    fn insert(&mut self, u: u32, v: u32) {
        for (a, b) in [(u, v), (v, u)] {
            let len = &mut self.len[a as usize];
            self.nbrs[a as usize * self.d + *len] = b;
            *len += 1;
        }
    }

    fn remove(&mut self, u: u32, v: u32) {
        for (a, b) in [(u, v), (v, u)] {
            if let Some(i) = self.row(a).iter().position(|&w| w == b) {
                let base = a as usize * self.d;
                let len = &mut self.len[a as usize];
                *len -= 1;
                self.nbrs[base + i] = self.nbrs[base + *len];
            }
        }
    }
}

/// Pairs consecutive stubs; loops and duplicate edges are repaired by
/// swapping with a uniformly random accepted edge. Returns `None` if
/// repair stalls (then the caller reshuffles from scratch).
fn pair_with_repair<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    stubs: &[u32],
    rng: &mut R,
) -> Option<Vec<(u32, u32)>> {
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(stubs.len() / 2);
    // Rows never overflow: a node's row holds at most its d stubs.
    let mut seen = NeighbourTable::new(n, d);
    let mut bad: Vec<(u32, u32)> = Vec::new();
    for pair in stubs.chunks_exact(2) {
        let (u, v) = (pair[0], pair[1]);
        if u == v || seen.contains(u, v) {
            bad.push((u, v));
        } else {
            seen.insert(u, v);
            edges.push((u, v));
        }
    }
    // Each bad pair needs O(1) swap attempts in expectation (a random
    // good edge collides with the pair's endpoints with probability
    // O(d/n)); the generous budget covers the tail.
    let mut budget = 200 + 40 * bad.len();
    while let Some((u, v)) = bad.pop() {
        loop {
            budget = budget.checked_sub(1)?;
            if edges.is_empty() {
                return None;
            }
            let idx = rng.random_range(0..edges.len());
            let (mut x, mut y) = edges[idx];
            if rng.random_bool(0.5) {
                std::mem::swap(&mut x, &mut y);
            }
            // Swap (u,v) + (x,y) → (u,x) + (v,y).
            if u == x || v == y {
                continue;
            }
            if edge_key(u, x) == edge_key(v, y) || seen.contains(u, x) || seen.contains(v, y) {
                continue;
            }
            seen.remove(x, y);
            seen.insert(u, x);
            seen.insert(v, y);
            edges[idx] = (u, x);
            edges.push((v, y));
            break;
        }
    }
    Some(edges)
}

/// Maps a linear index `0..n(n-1)/2` to the pair `(u, v)` with `u < v`
/// in lexicographic order.
fn pair_from_index(n: usize, idx: usize) -> (usize, usize) {
    // Row u starts at offset u*n - u*(u+1)/2 - u ... simpler: walk rows.
    // Rows have sizes (n-1), (n-2), ..., 1; find the row by subtraction.
    let mut u = 0usize;
    let mut rem = idx;
    let mut row = n - 1;
    while rem >= row {
        rem -= row;
        u += 1;
        row -= 1;
    }
    (u, u + 1 + rem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pair_index_enumerates_all_pairs() {
        let n = 7;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..n * (n - 1) / 2 {
            let (u, v) = pair_from_index(n, idx);
            assert!(u < v && v < n);
            assert!(seen.insert((u, v)));
        }
        assert_eq!(seen.len(), 21);
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(0);
        let empty = gnp(10, 0.0, &mut rng).unwrap();
        assert_eq!(empty.m(), 0);
        let full = gnp(10, 1.0, &mut rng).unwrap();
        assert_eq!(full.m(), 45);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200;
        let p = 0.1;
        let mut total = 0usize;
        let reps = 20;
        for _ in 0..reps {
            total += gnp(n, p, &mut rng).unwrap().m();
        }
        let mean = total as f64 / reps as f64;
        let expected = p * (n * (n - 1) / 2) as f64;
        assert!(
            (mean - expected).abs() < 0.05 * expected,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn gnp_connected_succeeds_above_threshold() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100;
        let p = 2.0 * (n as f64).ln() / n as f64;
        let g = gnp_connected(n, p, &mut rng).unwrap();
        assert!(analysis::is_connected(&g));
    }

    #[test]
    fn regular_is_regular_and_connected() {
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_regular(50, 4, &mut rng).unwrap();
            assert_eq!(g.n(), 50);
            assert!(g.is_regular(4));
            assert!(analysis::is_connected(&g));
        }
    }

    #[test]
    fn regular_with_odd_total_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_regular(5, 3, &mut rng).is_err());
    }

    #[test]
    fn regular_small_cases() {
        let mut rng = StdRng::seed_from_u64(9);
        // 4-regular on 5 nodes is K5.
        let g = random_regular(5, 4, &mut rng).unwrap();
        assert_eq!(g.m(), 10);
        // 3-regular on 4 nodes is K4.
        let g = random_regular(4, 3, &mut rng).unwrap();
        assert_eq!(g.m(), 6);
    }

    #[test]
    fn regular_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_regular(4, 0, &mut rng).is_err());
        assert!(random_regular(4, 4, &mut rng).is_err());
        assert!(gnp(1, 0.5, &mut rng).is_err());
        assert!(gnp(5, 1.5, &mut rng).is_err());
    }

    #[test]
    fn regular_expander_has_log_diameter() {
        let mut rng = StdRng::seed_from_u64(77);
        let g = random_regular(256, 4, &mut rng).unwrap();
        let d = analysis::diameter_exact(&g).unwrap();
        // 4-regular expander on 256 nodes: diameter well below 20.
        assert!(d <= 20, "diameter {d} too large for an expander");
    }
}
