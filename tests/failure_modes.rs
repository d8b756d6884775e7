//! Tail-event and failure-injection behaviour: the implementation must
//! fail *visibly* (zero leaders, `gave_up` flags) rather than mask the
//! paper's w.h.p. caveats.

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle::congest::testing::all_execs;
use welle::core::{Election, ElectionConfig, ElectionReport, FaultPlan};
use welle::graph::{gen, Graph};

fn expander(n: usize, seed: u64) -> Arc<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(gen::random_regular(n, 4, &mut rng).unwrap())
}

/// Runs the same election on every executor — failure shapes must not
/// depend on the engine — and returns the serial report after checking
/// they all agree on the visible outcome.
fn elect(g: &Arc<Graph>, cfg: &ElectionConfig, seed: u64) -> ElectionReport {
    let mut runs = all_execs().into_iter().map(|(name, exec)| {
        let r = Election::on(g)
            .config(*cfg)
            .seed(seed)
            .executor(exec)
            .run()
            .unwrap();
        (name, r)
    });
    let (_, first) = runs.next().unwrap();
    for (name, r) in runs {
        assert_eq!(r.leaders, first.leaders, "{name}: leaders");
        assert_eq!(r.messages, first.messages, "{name}: messages");
        assert_eq!(r.gave_up, first.gave_up, "{name}: gave_up");
        assert_eq!(r.outcome, first.outcome, "{name}: outcome");
    }
    first
}

#[test]
fn zero_contender_probability_elects_nobody() {
    let g = expander(64, 1);
    // An exactly-zero c1 is rejected by config validation; a denormal-
    // scale c1 drives the contender probability to effectively zero —
    // the tail event of Algorithm 1 — through the legal range.
    let cfg = ElectionConfig {
        c1: 1e-12,
        ..ElectionConfig::tuned_for_simulation(64)
    };
    let r = elect(&g, &cfg, 1);
    assert_eq!(r.contenders, 0);
    assert!(r.leaders.is_empty());
    assert!(!r.is_success());
    assert_eq!(r.messages, 0, "nobody sends anything");
}

#[test]
fn walk_cap_exhaustion_reports_gave_up() {
    // A cap of 1 cannot satisfy the distinctness property on a sparse
    // graph (1-step endpoints cluster on neighbours); contenders must
    // give up and *no* leader may be declared.
    let g = Arc::new(gen::ring(64).unwrap());
    let cfg = ElectionConfig {
        max_walk_len: Some(1),
        ..ElectionConfig::tuned_for_simulation(64)
    };
    let r = elect(&g, &cfg, 3);
    assert!(r.contenders > 0);
    assert!(r.gave_up > 0, "contenders must report giving up");
    assert!(r.leaders.is_empty(), "gave-up contenders never win");
}

#[test]
fn tiny_graphs_run_without_panicking() {
    for g in [
        Arc::new(gen::path(2).unwrap()),
        Arc::new(gen::ring(3).unwrap()),
        Arc::new(gen::clique(4).unwrap()),
        Arc::new(gen::star(5).unwrap()),
    ] {
        let cfg = ElectionConfig::tuned_for_simulation(g.n());
        // No assertion on success: thresholds are degenerate at this
        // scale; the requirement is graceful termination and ≤1 leader.
        let r = elect(&g, &cfg, 7);
        assert!(r.leaders.len() <= 1, "n={}: {:?}", g.n(), r.leaders);
    }
}

#[test]
fn contender_flood_still_elects_at_most_one() {
    // Force (nearly) every node to be a contender: stress the exchange
    // machinery far outside the Lemma 1 regime.
    let g = expander(64, 5);
    let cfg = ElectionConfig {
        c1: 200.0, // probability clamps to 1
        // With 64 contenders the intersection threshold (0.75·c1·ln n) is
        // unreachable; cap the futile doubling so the run gives up fast.
        max_walk_len: Some(8),
        msg_size: welle::core::MsgSizeMode::Large,
        ..ElectionConfig::tuned_for_simulation(64)
    };
    let r = elect(&g, &cfg, 2);
    assert_eq!(r.contenders, 64);
    assert!(r.leaders.len() <= 1, "{:?}", r.leaders);
    assert_eq!(r.gave_up, 64, "nobody can satisfy a threshold above n");
}

#[test]
fn disconnected_graph_elects_per_component() {
    // Two components: walks cannot cross, so each component behaves like
    // its own network. (The model assumes connectivity; this documents
    // the failure shape rather than hiding it.)
    let mut b = welle::graph::GraphBuilder::new(128);
    // Two cliques of 64 with no connection.
    for base in [0usize, 64] {
        for i in 0..64 {
            for j in (i + 1)..64 {
                b.add_edge(base + i, base + j).unwrap();
            }
        }
    }
    let g = Arc::new(b.build().unwrap());
    let mut cfg = ElectionConfig::tuned_for_simulation(128);
    // Thresholds are derived for n = 128, but each component has only 64
    // nodes: the properties may be unsatisfiable. Keep the give-up cheap.
    cfg.max_walk_len = Some(32);
    let r = elect(&g, &cfg, 4);
    // Each side may elect one leader: up to 2 total, never 3+.
    assert!(r.leaders.len() <= 2, "{:?}", r.leaders);
    if r.leaders.len() == 2 {
        let sides: Vec<bool> = r.leaders.iter().map(|&i| i < 64).collect();
        assert_ne!(
            sides[0], sides[1],
            "leaders must be in different components"
        );
    }
}

#[test]
fn crashing_every_contender_elects_nobody_and_reports_it() {
    // Crash-stop the whole network (a superset of every contender) one
    // round after start-up: contenders exist, nobody can ever certify,
    // and the failure must be *visible* — zero leaders and a nonzero
    // crash count in the report — never a silently wrong answer.
    let g = expander(64, 7);
    let cfg = ElectionConfig::tuned_for_simulation(64);
    let r = Election::on(&g)
        .config(cfg)
        .seed(3)
        .faults(FaultPlan::new(0).crash_fraction(1.0, 1))
        .run()
        .unwrap();
    assert!(
        r.contenders > 0,
        "coin flips happen at round 0, before the crash"
    );
    assert!(
        r.leaders.is_empty(),
        "dead contenders cannot win: {:?}",
        r.leaders
    );
    assert!(!r.is_success());
    assert_eq!(r.crashed, 64, "the report must surface the crash schedule");
    assert!(!r.outcome.is_done(), "a crashed network never reports done");
}

#[test]
fn heavy_drops_fail_visibly_through_gave_up() {
    // With most messages lost the Intersection/Distinctness certificates
    // are unreachable; contenders must exhaust the cap and *say so*.
    let g = expander(64, 9);
    let cfg = ElectionConfig {
        max_walk_len: Some(32), // keep the futile doubling cheap
        ..ElectionConfig::tuned_for_simulation(64)
    };
    let r = Election::on(&g)
        .config(cfg)
        .seed(5)
        .faults(FaultPlan::new(2).drop_rate(0.9))
        .run()
        .unwrap();
    assert!(r.dropped_messages > 0);
    assert!(r.leaders.len() <= 1, "{:?}", r.leaders);
    assert!(
        !r.is_success(),
        "90% loss must not elect: leaders = {:?}",
        r.leaders
    );
    assert!(r.gave_up > 0, "failure must be visible as give-ups");
}

#[test]
fn cutting_the_dumbbell_bridges_splits_the_brain() {
    // The §5 dumbbell held together by two bridges: cut both at round 0
    // and each bell runs its own isolated election — up to one leader
    // per side, never two on the same side.
    let mut rng = StdRng::seed_from_u64(11);
    let base = gen::random_regular(32, 4, &mut rng).unwrap();
    let db = gen::dumbbell(&base, &mut rng).unwrap();
    let mut plan = FaultPlan::new(0);
    let half = db.half_n();
    let graph = Arc::new(db.into_graph());
    for (_, u, v) in graph.edges() {
        if (u.index() < half) != (v.index() < half) {
            plan = plan.cut(u.index(), v.index(), 0);
        }
    }
    let cfg = ElectionConfig {
        max_walk_len: Some(64),
        ..ElectionConfig::tuned_for_simulation(graph.n())
    };
    let r = Election::on(&graph)
        .config(cfg)
        .seed(6)
        .faults(plan)
        .run()
        .unwrap();
    assert!(r.leaders.len() <= 2, "{:?}", r.leaders);
    if r.leaders.len() == 2 {
        let sides: Vec<bool> = r.leaders.iter().map(|&i| i < half).collect();
        assert_ne!(sides[0], sides[1], "leaders must be in different halves");
    }
}

#[test]
fn zero_messages_when_alone() {
    // n = 2, contender probability clamped: degenerate but safe.
    let g = Arc::new(gen::path(2).unwrap());
    let cfg = ElectionConfig {
        c1: 1e-12, // see zero_contender_probability_elects_nobody
        ..ElectionConfig::tuned_for_simulation(2)
    };
    let r = elect(&g, &cfg, 1);
    assert_eq!(r.messages, 0);
    assert!(r.leaders.is_empty());
}
