//! Integration tests for the baseline algorithms: all of them must agree
//! with the main algorithm on *what* a correct election is, while
//! exhibiting their characteristic costs.

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle::core::baselines::{run_flood_max, run_hirschberg_sinclair, run_known_tmix_election};
use welle::core::{Election, ElectionConfig};
use welle::graph::gen;
use welle::walks::{mixing_time, MixingOptions, StartPolicy};

#[test]
fn hirschberg_sinclair_beats_the_general_algorithm_on_rings() {
    // Specialized O(n log n) vs the general algorithm paying t_mix = Θ(n²):
    // the reason ring-specific algorithms exist.
    let g = Arc::new(gen::ring(32).unwrap());
    let hs = run_hirschberg_sinclair(&g, 3);
    assert!(hs.is_success());
    let mut cfg = ElectionConfig::tuned_for_simulation(32);
    cfg.max_walk_len = Some(4096);
    let general = Election::on(&g).config(cfg).seed(3).run().unwrap();
    assert!(general.is_success());
    assert!(
        hs.messages * 10 < general.messages,
        "HS ({}) should crush the general algorithm ({}) on rings",
        hs.messages,
        general.messages
    );
}

#[test]
fn flood_max_and_walk_election_agree_on_uniqueness() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = Arc::new(gen::random_regular(96, 4, &mut rng).unwrap());
    for seed in 0..3u64 {
        let flood = run_flood_max(&g, seed);
        assert!(flood.is_success(), "flood seed {seed}: {:?}", flood.leaders);
    }
    let walk = Election::on(&g)
        .config(ElectionConfig::tuned_for_simulation(96))
        .seed(1)
        .run()
        .unwrap();
    assert!(walk.is_success());
}

#[test]
fn known_tmix_baseline_works_across_families() {
    for (name, g) in [
        ("hypercube", Arc::new(gen::hypercube(7).unwrap())),
        ("clique", Arc::new(gen::clique(128).unwrap())),
    ] {
        let tmix = mixing_time(
            &g,
            MixingOptions {
                horizon: 100_000,
                starts: StartPolicy::Sample(8),
            },
        )
        .unwrap();
        let cfg = ElectionConfig::tuned_for_simulation(g.n());
        let r = run_known_tmix_election(&g, &cfg, tmix, 2, 7);
        assert!(r.is_success(), "{name}: {:?}", r.leaders);
        assert_eq!(r.epochs_used, 1, "{name}: single phase");
    }
}

#[test]
fn hs_messages_scale_n_log_n_not_with_the_general_bound() {
    let g128 = Arc::new(gen::ring(128).unwrap());
    let hs = run_hirschberg_sinclair(&g128, 2);
    assert!(hs.is_success());
    // c·n·log2 n with the textbook c <= 8: 128·7·8 = 7168.
    assert!(
        hs.messages <= 8 * 128 * 7,
        "HS used {} messages, above the O(n log n) envelope",
        hs.messages
    );
    // And Ω(n): a ring cannot elect with fewer.
    assert!(hs.messages >= 128);
}

#[test]
fn flood_max_rounds_track_diameter() {
    let g = Arc::new(gen::torus2d(8, 8).unwrap());
    let b = run_flood_max(&g, 9);
    assert!(b.is_success());
    let d = welle::graph::analysis::diameter_exact(&g).unwrap() as u64;
    assert!(b.rounds >= d, "needs at least diameter rounds");
    assert!(
        b.rounds <= 6 * d + 10,
        "rounds {} vs diameter {d}",
        b.rounds
    );
}
