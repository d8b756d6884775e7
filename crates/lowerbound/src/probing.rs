//! The Lemma 18 port-probing process, isolated from any algorithm.
//!
//! A clique of the §4.1 graph has `≈ s²` ports, of which exactly 4 lead
//! outside, and nodes cannot tell which (KT0 + shuffled ports). Lemma 18:
//! any algorithm that has received nothing from outside must, in
//! expectation, push `Ω(s²)` messages through fresh ports before one
//! leaves the clique. This module measures that directly with the
//! canonical strategy (probe previously unused ports, uniformly at
//! random) and with a worst-case adversarial ordering.

use rand::seq::SliceRandom;
use rand::Rng;

/// How a probing strategy picks the next unused port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeStrategy {
    /// Uniformly random among unused ports (the proof's model).
    UniformRandom,
    /// Deterministic sweep in index order — since ports were shuffled at
    /// construction, this is distributionally identical to uniform for
    /// the *first* success, and serves as a cross-check.
    Sequential,
}

/// Result of one probing simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeOutcome {
    /// Messages (port uses) before and including the first external hit.
    pub messages: u64,
    /// Total ports of the clique.
    pub total_ports: u64,
    /// External ports of the clique (4 in the paper's construction).
    pub external_ports: u64,
}

/// Simulates probing a clique with `total_ports` ports of which
/// `external_ports` lead outside; returns the number of probes until the
/// first external port is hit.
///
/// # Panics
///
/// Panics if `external_ports == 0` or `external_ports > total_ports`.
pub fn probe_until_external<R: Rng + ?Sized>(
    total_ports: u64,
    external_ports: u64,
    strategy: ProbeStrategy,
    rng: &mut R,
) -> ProbeOutcome {
    assert!(external_ports > 0, "need at least one external port");
    assert!(external_ports <= total_ports, "more externals than ports");
    let mut ports: Vec<bool> = (0..total_ports).map(|i| i < external_ports).collect();
    // Random placement of the external ports (the construction shuffles).
    ports.shuffle(rng);
    let messages = match strategy {
        ProbeStrategy::Sequential => {
            // welle-lint: allow(no-lib-unwrap) — invariant: external_ports >= 1 by the §5 construction, so the shuffled vec contains a true entry
            ports.iter().position(|&ext| ext).expect("external exists") as u64 + 1
        }
        ProbeStrategy::UniformRandom => {
            let mut order: Vec<usize> = (0..total_ports as usize).collect();
            order.shuffle(rng);
            order
                .iter()
                .position(|&i| ports[i])
                // welle-lint: allow(no-lib-unwrap) — invariant: external_ports >= 1 by the §5 construction, so the shuffled vec contains a true entry
                .expect("external exists") as u64
                + 1
        }
    };
    ProbeOutcome {
        messages,
        total_ports,
        external_ports,
    }
}

/// Mean probes-to-first-external over `samples` independent simulations.
///
/// The exact expectation for uniform probing without replacement is
/// `(P + 1) / (X + 1)` for `P` ports and `X` externals — `≈ s²/4 + O(1)`
/// in the paper's construction, i.e. `Ω(n^{2ε})`.
pub fn mean_first_contact<R: Rng + ?Sized>(
    total_ports: u64,
    external_ports: u64,
    strategy: ProbeStrategy,
    samples: usize,
    rng: &mut R,
) -> f64 {
    let mut total = 0u64;
    for _ in 0..samples {
        total += probe_until_external(total_ports, external_ports, strategy, rng).messages;
    }
    total as f64 / samples as f64
}

/// The closed-form expectation `(P + 1) / (X + 1)`.
pub fn expected_first_contact(total_ports: u64, external_ports: u64) -> f64 {
    (total_ports as f64 + 1.0) / (external_ports as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn closed_form_matches_simulation() {
        let mut rng = StdRng::seed_from_u64(3);
        for (ports, ext) in [(100u64, 4u64), (400, 4), (50, 1)] {
            let expect = expected_first_contact(ports, ext);
            for strategy in [ProbeStrategy::UniformRandom, ProbeStrategy::Sequential] {
                let mean = mean_first_contact(ports, ext, strategy, 20_000, &mut rng);
                assert!(
                    (mean - expect).abs() < 0.06 * expect,
                    "{strategy:?} ports={ports} ext={ext}: mean {mean} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn cost_scales_quadratically_in_clique_size() {
        // Lemma 18: messages before first contact = Ω(s²) for cliques of
        // size s with 4 external ports.
        let mut rng = StdRng::seed_from_u64(9);
        let m10 = mean_first_contact(10 * 10, 4, ProbeStrategy::UniformRandom, 20_000, &mut rng);
        let m20 = mean_first_contact(20 * 20, 4, ProbeStrategy::UniformRandom, 20_000, &mut rng);
        let ratio = m20 / m10;
        assert!(
            ratio > 3.0 && ratio < 5.0,
            "doubling s should ~4x the cost, got {ratio}"
        );
    }

    #[test]
    fn single_probe_when_all_external() {
        let mut rng = StdRng::seed_from_u64(1);
        let out = probe_until_external(4, 4, ProbeStrategy::UniformRandom, &mut rng);
        assert_eq!(out.messages, 1);
    }

    #[test]
    #[should_panic(expected = "at least one external")]
    fn zero_externals_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = probe_until_external(10, 0, ProbeStrategy::Sequential, &mut rng);
    }
}
