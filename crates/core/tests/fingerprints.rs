//! Election-level execution pins under latency and faults.
//!
//! The other pinned election rows are all fault-free and synchronous.
//! These pin the full `ElectionReport::csv_row` of two golden graphs
//! under log-normal latency, a message-drop plan and a delay-plus-crash
//! plan, on a single election and on a pooled two-worker campaign, so a
//! refactor of the engines or the trial runner cannot change a single
//! report byte on the latent and faulted paths.

use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use welle_core::{
    Campaign, Election, ElectionConfig, Exec, FaultPlan, LatencyModel, TelemetryConfig,
};
use welle_graph::{Graph, GraphBuilder};

fn random_connected(n: usize, extra: usize, seed: u64) -> Arc<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for child in 1..n {
        let parent = rand::RngExt::random_range(&mut rng, 0..child);
        b.add_edge(parent, child).unwrap();
    }
    for _ in 0..extra {
        let u = rand::RngExt::random_range(&mut rng, 0..n);
        let v = rand::RngExt::random_range(&mut rng, 0..n);
        if u != v && !b.has_edge(u, v) {
            b.add_edge(u, v).unwrap();
        }
    }
    Arc::new(b.build().unwrap())
}

/// One election configured by `setting` on `g`.
fn election<'g>(g: &'g Arc<Graph>, seed: u64, setting: &str) -> Election<'g, 'static> {
    let mut cfg = ElectionConfig::tuned_for_simulation(g.n());
    cfg.max_walk_len = Some(64);
    // Telemetry fills the per-phase columns of the row.
    let e = Election::on(g)
        .config(cfg)
        .seed(seed)
        .telemetry(TelemetryConfig::ring(0));
    match setting {
        "lognormal" => e.executor(Exec::Async(LatencyModel::log_normal(0.3, 0.6).seed(seed))),
        "drop" => e.faults(FaultPlan::new(seed).drop_rate(0.05)),
        "delay-crash" => e.faults(
            FaultPlan::new(seed)
                .random_delays(2)
                .crash_fraction(0.05, 40),
        ),
        other => panic!("unknown setting {other}"),
    }
}

/// `(n, extra, graph seed, setting, pinned csv row)`; the election seed
/// is `graph seed ^ 0x5EED`. Re-captured when reverse units began
/// leaving every relay by its earliest recorded visit: latency samples
/// and drop coins are keyed on the round a message crosses, so these
/// executions change with the routes. The `bits` column alone was
/// re-captured when routed units stopped carrying a route step. All six
/// rows were re-captured when proxies began sending their round-1 `I1`
/// in units of four ids: round 1 then sends fewer units and ends sooner,
/// and since drop coins and latency samples are keyed on the crossing
/// round, the later epochs' walks change (the n = 40 log-normal row now
/// decides at walk length 32, not 64). All six were re-captured again
/// when forward units began following the tree the round-1 replies came
/// by instead of every walk edge, with the winner's notice doing its
/// stop mark's job: fewer forward units cross each round, and since
/// drop coins and latency samples are keyed on the crossing round, the
/// later walks change (the n = 40 drop row's `gave_up` went 9 → 10).
/// All six were re-captured again when relays began merging the round-1
/// replies and `I1` ids they pass on into reply tallies while their own
/// queue is busy: round 1 sends fewer units and ends sooner, and since
/// drop coins and latency samples are keyed on the crossing round, the
/// later walks change, and a dropped tally loses several replies at
/// once (the n = 48 drop row now elects a leader, and the n = 40 drop
/// row's `gave_up` went 10 → 11).
const PINS: [(usize, usize, u64, &str, &str); 6] = [
    (48, 40, 11, "lognormal", "48,84,12,1,4862562,7005,318268,603,637,32,6,0,0,0,637,195,130,113,73,102,2685,2331,650,652,687,true"),
    (48, 40, 11, "drop", "48,84,12,1,4862562,10336,420740,364,373,64,7,8,554,0,373,172,85,46,38,32,6214,2175,688,698,561,true"),
    (48, 40, 11, "delay-crash", "48,84,12,0,,8169,314870,520,539,64,7,9,471,5,539,259,100,82,68,23,5354,1525,609,599,82,false"),
    (40, 24, 7, "lognormal", "40,63,16,1,2304460,8334,372786,593,623,32,6,0,0,0,623,214,133,101,68,89,3499,2796,707,708,624,true"),
    (40, 24, 7, "drop", "40,63,16,0,,11439,470536,403,412,64,7,11,630,0,412,197,98,47,42,28,7051,2525,780,842,241,false"),
    (40, 24, 7, "delay-crash", "40,63,16,1,2304460,9459,414432,604,619,64,7,2,18,1,619,270,117,85,61,83,4593,2765,716,718,667,true"),
];

#[test]
fn latent_and_faulted_elections_match_their_pins() {
    for (n, extra, gseed, setting, pinned) in PINS {
        let g = random_connected(n, extra, gseed);
        let seed = gseed ^ 0x5EED;
        let label = format!("n={n} extra={extra} seed={gseed} {setting}");
        let row = election(&g, seed, setting).run().unwrap().csv_row();
        assert_eq!(row, pinned, "{label}: single election drifted from its pin");
        // The pooled trial runner must reproduce the same row on every
        // worker, and on an engine reused from an earlier trial.
        let report = Campaign::new(election(&g, seed, setting))
            .seeds([seed; 4])
            .trial_threads(2)
            .run()
            .unwrap();
        for trial in &report.trials {
            assert_eq!(
                trial.report.csv_row(),
                pinned,
                "{label}: pooled trial drifted"
            );
        }
    }
}
