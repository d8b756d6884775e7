//! A guided tour of the §4 lower-bound machinery: build the
//! clique-of-cliques graph (Figures 1–2), check Lemma 16's conductance,
//! watch Lemma 18's first-contact costs, and reconstruct the clique
//! communication graph from live election traffic.
//!
//! ```sh
//! cargo run --release --example lower_bound_tour
//! ```

use rand::{rngs::StdRng, SeedableRng};
use welle::core::ElectionConfig;
use welle::graph::analysis;
use welle::graph::gen::{CliqueOfCliques, CliqueOfCliquesParams};
use welle::lowerbound::{expected_first_contact, run_election_on_lower_bound};

fn main() {
    let mut rng = StdRng::seed_from_u64(2718);
    let eps = 0.3;
    let lb = CliqueOfCliques::build(CliqueOfCliquesParams::new(800, eps), &mut rng)
        .expect("construction succeeds");
    let s = lb.clique_size();

    println!("— Figures 1 & 2: the construction —");
    println!(
        "n = {}, cliques N = {}, clique size s = {}, inter-clique edges = {}",
        lb.graph().n(),
        lb.num_cliques(),
        s,
        lb.inter_edge_count()
    );
    println!(
        "degrees uniform at s-1 = {}: {}",
        s - 1,
        lb.graph().is_regular(s - 1)
    );

    println!("\n— Lemma 16: conductance = Θ(α) —");
    let alpha = lb.alpha();
    let phi = analysis::conductance_sweep(lb.graph(), 3000);
    println!(
        "α = n^(-2ε) = {alpha:.3e}, spectral-sweep φ = {phi:.3e} (ratio {:.2})",
        phi / alpha
    );

    println!("\n— Lemma 18: the price of leaving a clique —");
    println!(
        "each clique: ~{} ports, 4 external ⇒ E[messages before first contact] = {:.0}",
        s * s,
        expected_first_contact((s * s) as u64, 4)
    );

    println!("\n— The election, observed through the CG lens —");
    let mut cfg = ElectionConfig::tuned_for_simulation(lb.graph().n());
    cfg.max_walk_len = Some(4096);
    let run = run_election_on_lower_bound(&lb, &cfg, 7);
    println!(
        "success = {}, messages = {}, CG edges = {} (of {} inter-clique edges), \
         cliques touched = {}/{}",
        run.report.is_success(),
        run.report.messages,
        run.cg_edges,
        lb.inter_edge_count(),
        run.touched_cliques,
        run.num_cliques
    );
    let costs = &run.first_contact_costs;
    if !costs.is_empty() {
        let mean = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
        println!(
            "measured mean first-contact cut-off = {mean:.0} messages (sequential-probing \
             expectation ≈ {:.0}): lower, because contenders burst walks across all ports \
             at once — Lemma 18 constrains *small-budget* algorithms, which this is not",
            expected_first_contact((s * s) as u64, 4)
        );
    }
}
