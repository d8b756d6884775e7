//! The headline result in action: message complexity on expanders scales
//! like `O(√n · polylog n)` — far below the `Ω(m)` of flooding.
//!
//! One [`Campaign`] sweeps every expander size as a family scenario,
//! then the table compares the per-size medians against the flood-max
//! baseline side by side.
//!
//! ```sh
//! cargo run --release --example expander_campaign
//! ```

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle::core::{baselines::run_flood_max, Campaign, Election, ElectionConfig};
use welle::graph::gen;

fn main() {
    let sizes = [128usize, 256, 512, 1024];
    let scenarios: Vec<_> = sizes
        .iter()
        .map(|&n| {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let graph = Arc::new(gen::random_regular(n, 4, &mut rng).expect("generation succeeds"));
            (
                format!("expander-{n}"),
                graph,
                ElectionConfig::tuned_for_simulation(n),
            )
        })
        .collect();

    // One campaign, one scenario per size, three seeds each.
    let outcome = Campaign::new(Election::on(&scenarios[0].1).config(scenarios[0].2))
        .label(scenarios[0].0.clone())
        .families(scenarios.iter().skip(1).cloned())
        .seeds([42, 43, 44])
        .run()
        .expect("configs are valid");

    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "n", "m", "welle msgs", "flood msgs", "welle/√n", "flood/m"
    );
    for (summary, (_, graph, _)) in outcome.summaries.iter().zip(&scenarios) {
        assert_eq!(
            summary.successes, summary.trials,
            "{}: {summary}",
            summary.scenario
        );
        let flood = run_flood_max(graph, 42);
        assert!(flood.is_success());
        let n = summary.n;
        println!(
            "{:>6} {:>8} {:>12} {:>12} {:>10.1} {:>10.1}",
            n,
            summary.m,
            summary.messages.median,
            flood.messages,
            summary.messages.median as f64 / (n as f64).sqrt(),
            flood.messages as f64 / summary.m as f64,
        );
    }
    println!(
        "\nShape check: our column grows ~√n·polylog; flooding grows with m·D.\n\
         On sparse expanders m = 2n, so the win appears as n grows."
    );
}
