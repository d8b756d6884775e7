//! **E8 — Theorem 28 (knowledge of n is critical).** On dumbbells with a
//! dense base and a frugal (single-phase, large-message) configuration,
//! the wrong-n election spends `o(m)` messages, never crosses a bridge
//! with constant probability, and split-brains; the first crossing, when
//! it happens, costs `Θ(m)` messages (Lemma 30). Sparse bases show the
//! complementary effect: the walk traffic alone exceeds `m`, so crossings
//! are immediate and the sides merge.

use crate::table::Table;
use rand::{rngs::StdRng, SeedableRng};
use welle_core::ElectionConfig;
use welle_graph::gen;
use welle_lowerbound::bridge::{frugal_clique_config, run_dumbbell_election};

/// Runs the base-density sweep.
pub fn run(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E8 / Theorem 28: dumbbell elections with wrong n (= half)",
        &[
            "base",
            "m",
            "runs",
            "split_brain",
            "mean_msgs",
            "msgs/m",
            "mean_b4_cross",
            "b4_cross/m",
        ],
    );
    let reps = if quick { 2 } else { 5 };
    let clique_k = if quick { 96 } else { 192 };
    let mut rng = StdRng::seed_from_u64(3);

    // Dense base: clique.
    {
        let base = gen::clique(clique_k).expect("clique base");
        let db = gen::dumbbell(&base, &mut rng).expect("dumbbell");
        let cfg = frugal_clique_config(clique_k);
        let m = db.graph().m() as f64;
        let mut split = 0;
        let mut msgs = Vec::new();
        let mut before = Vec::new();
        for seed in 0..reps {
            let r = run_dumbbell_election(&db, &cfg, clique_k, seed);
            if r.split_brain() {
                split += 1;
            }
            msgs.push(r.messages);
            before.push(r.messages_before_crossing.unwrap_or(r.messages));
        }
        let mean_m = msgs.iter().sum::<u64>() as f64 / reps as f64;
        let mean_b = before.iter().sum::<u64>() as f64 / reps as f64;
        table.push_strings(vec![
            format!("clique({clique_k})"),
            format!("{m:.0}"),
            reps.to_string(),
            split.to_string(),
            format!("{mean_m:.0}"),
            format!("{:.2}", mean_m / m),
            format!("{mean_b:.0}"),
            format!("{:.2}", mean_b / m),
        ]);
    }

    // Sparse base: random regular — messages exceed m, bridges found fast.
    {
        let nb = if quick { 64 } else { 128 };
        let base = gen::random_regular(nb, 4, &mut rng).expect("rr base");
        let db = gen::dumbbell(&base, &mut rng).expect("dumbbell");
        let cfg = ElectionConfig::tuned_for_simulation(nb);
        let m = db.graph().m() as f64;
        let mut split = 0;
        let mut msgs = Vec::new();
        let mut before = Vec::new();
        for seed in 0..reps {
            let r = run_dumbbell_election(&db, &cfg, nb, seed);
            if r.split_brain() {
                split += 1;
            }
            msgs.push(r.messages);
            before.push(r.messages_before_crossing.unwrap_or(r.messages));
        }
        let mean_m = msgs.iter().sum::<u64>() as f64 / reps as f64;
        let mean_b = before.iter().sum::<u64>() as f64 / reps as f64;
        table.push_strings(vec![
            format!("rr4({nb})"),
            format!("{m:.0}"),
            reps.to_string(),
            split.to_string(),
            format!("{mean_m:.0}"),
            format!("{:.2}", mean_m / m),
            format!("{mean_b:.0}"),
            format!("{:.2}", mean_b / m),
        ]);
    }

    // Control: sparse base with the *correct* n and the regular budget —
    // bridges are crossed and the sides merge. (A frugal run with the true
    // n would still split: length-1 walks cannot bridge cliques; that is a
    // wrong-t_mix failure, not a wrong-n one.)
    {
        let nb = if quick { 64 } else { 128 };
        let base = gen::random_regular(nb, 4, &mut rng).expect("rr base");
        let db = gen::dumbbell(&base, &mut rng).expect("dumbbell");
        let full_n = db.graph().n();
        let cfg = ElectionConfig::tuned_for_simulation(full_n);
        let mut ones = 0;
        for seed in 0..reps {
            let r = run_dumbbell_election(&db, &cfg, full_n, seed);
            if r.leaders() == 1 {
                ones += 1;
            }
        }
        table.push_strings(vec![
            format!("rr4({nb})+true n"),
            format!("{}", db.graph().m()),
            reps.to_string(),
            format!("(unique: {ones})"),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_has_three_rows() {
        let tables = super::run(true);
        assert_eq!(tables[0].len(), 3);
    }
}
