//! Aggregated random-walk tokens (the CONGEST trick of Lemma 12).
//!
//! Instead of sending `count` separate `⟨u, t_u⟩` tokens along the same
//! edge, a node sends one token carrying the count — "we send only one
//! token and the count of tokens that need to be sent", as the paper
//! puts it. On the wire that token is welle-core's `ElectionMsg::walk`.
//! At each step a node's walks are split *lazily* (each walk stays with
//! probability ½) and the movers are assigned to ports uniformly.

use rand::{Rng, RngExt};

/// Ports whose counters [`with_port_counts`] keeps on the stack: every
/// sparse graph's degree.
const INLINE_PORTS: usize = 64;

/// Splits `count` walks one lazy step: each stays with probability ½,
/// otherwise picks one of the `counts.len()` ports uniformly. Adds the
/// walks leaving through port `p` to `counts[p]` and returns how many
/// stay. The draws go walk by walk: the stay coin, then a mover's port.
///
/// # Panics
///
/// Panics if `counts` is empty (an isolated node cannot host walks).
pub fn split_lazy<R: Rng + ?Sized>(count: u32, rng: &mut R, counts: &mut [u32]) -> u32 {
    let degree = counts.len();
    assert!(degree > 0, "cannot forward walks from an isolated node");
    let mut stay = 0u32;
    for _ in 0..count {
        if rng.random_bool(0.5) {
            stay += 1;
        } else {
            counts[rng.random_range(0..degree)] += 1;
        }
    }
    stay
}

/// Runs `f` on `degree` zeroed port counters for [`split_lazy`]: on the
/// stack up to 64 ports, so a split allocates nothing on sparse graphs.
pub fn with_port_counts<T>(degree: usize, f: impl FnOnce(&mut [u32]) -> T) -> T {
    let mut inline = [0u32; INLINE_PORTS];
    match inline.get_mut(..degree) {
        Some(counts) => f(counts),
        None => f(&mut vec![0; degree]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixing::endpoint_distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use welle_graph::{gen, NodeId, Port};

    #[test]
    fn split_conserves_count() {
        let mut rng = StdRng::seed_from_u64(3);
        for count in [0u32, 1, 7, 100, 2_000] {
            for degree in [1usize, 2, 5, 32] {
                let mut counts = vec![0; degree];
                let stay = split_lazy(count, &mut rng, &mut counts);
                let moved: u32 = counts.iter().sum();
                assert_eq!(stay + moved, count);
            }
        }
    }

    #[test]
    fn split_is_roughly_half_lazy() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut stayed = 0u64;
        let total = 200_000u32;
        stayed += split_lazy(total, &mut rng, &mut [0; 4]) as u64;
        let frac = stayed as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.01, "lazy fraction {frac}");
    }

    #[test]
    fn split_moves_are_uniform_over_ports() {
        let mut rng = StdRng::seed_from_u64(6);
        let degree = 8;
        let mut counts = vec![0; degree];
        split_lazy(400_000, &mut rng, &mut counts);
        let moved: u32 = counts.iter().sum();
        let expect = moved as f64 / degree as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expect).abs() < 0.05 * expect,
                "port got {c}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn repeated_splits_follow_the_exact_walk_distribution() {
        // Aggregated walks split one lazy step at a time, as the
        // election's nodes split them, end where single lazy walks do.
        let g = gen::clique(16).unwrap();
        let (walks, len) = (40_000u32, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let mut at = vec![0u32; g.n()];
        at[0] = walks;
        for _ in 0..len {
            let mut next = vec![0u32; g.n()];
            for u in g.nodes() {
                with_port_counts(g.degree(u), |counts| {
                    next[u.index()] += split_lazy(at[u.index()], &mut rng, counts);
                    for (p, &moved) in counts.iter().enumerate() {
                        next[g.neighbor(u, Port::new(p)).index()] += moved;
                    }
                });
            }
            at = next;
        }
        let exact = endpoint_distribution(&g, NodeId::new(0), len);
        let tv: f64 = at
            .iter()
            .zip(&exact)
            .map(|(&c, &p)| (f64::from(c) / f64::from(walks) - p).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.02, "total variation {tv} too large");
    }

    #[test]
    fn port_counts_are_zeroed_at_any_degree() {
        for degree in [1usize, INLINE_PORTS, INLINE_PORTS + 1, 500] {
            let len = with_port_counts(degree, |counts| {
                assert!(counts.iter().all(|&c| c == 0));
                counts.len()
            });
            assert_eq!(len, degree);
        }
    }

    #[test]
    #[should_panic(expected = "isolated")]
    fn split_on_isolated_node_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = split_lazy(1, &mut rng, &mut []);
    }
}
