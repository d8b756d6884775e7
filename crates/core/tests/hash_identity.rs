//! Fence for the hash-state determinism fixes: replacing the seeded-path
//! `HashMap`/`HashSet` protocol state (`fwd_seen`, `proxy_counts`, the
//! `TrailStore` map) with ordered containers must not change a single
//! report byte. The pinned rows below were recorded *before* the swap
//! (their count columns have since fallen with the message volume of
//! later protocol changes); the proptest then holds the stronger
//! invariant the swap exists to protect — full-report identity across
//! repeated runs and executors on random graphs and seeds.

mod barrier;

use std::sync::Arc;

use barrier::{through_barrier, Counts};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use welle_core::{Election, ElectionConfig, ElectionReport, Exec};
use welle_graph::GraphBuilder;

fn random_connected(n: usize, extra: usize, seed: u64) -> Arc<welle_graph::Graph> {
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

fn config(n: usize) -> ElectionConfig {
    let mut cfg = ElectionConfig::tuned_for_simulation(n);
    cfg.max_walk_len = Some(64);
    cfg
}

fn run(g: &Arc<welle_graph::Graph>, seed: u64, exec: Exec) -> ElectionReport {
    Election::on(g)
        .config(config(g.n()))
        .seed(seed)
        .executor(exec)
        .run()
        .unwrap()
}

fn run_row(g: &Arc<welle_graph::Graph>, seed: u64, exec: Exec) -> String {
    run(g, seed, exec).csv_row()
}

/// The columns that message volume drives; every other column is a
/// decision column. Rounds 2 and 3 carry maxima, and the reverse traffic
/// of rounds 1 and 3 and the wait phase takes the earliest-visit routes.
const COUNT_COLUMNS: [&str; 13] = [
    "messages",
    "bits",
    "decided_round",
    "engine_rounds",
    "virtual_time",
    "r1_rounds",
    "r2_rounds",
    "r3_rounds",
    "wait_rounds",
    "r1_msgs",
    "r2_msgs",
    "r3_msgs",
    "wait_msgs",
];

/// `got` must equal the newest row of `history`, and every row must keep
/// each decision column of the row before it verbatim and no count
/// column above it.
fn assert_golden(label: &str, got: &str, history: &[&str]) {
    let pinned = history[history.len() - 1];
    assert_eq!(got, pinned, "{label}: drifted from its pin");
    let columns: Vec<&str> = ElectionReport::csv_header().split(',').collect();
    for pair in history.windows(2) {
        let old: Vec<&str> = pair[0].split(',').collect();
        let new: Vec<&str> = pair[1].split(',').collect();
        assert_eq!(old.len(), columns.len(), "{label}: old column count");
        assert_eq!(new.len(), columns.len(), "{label}: new column count");
        for ((col, o), p) in columns.iter().zip(old).zip(new) {
            if COUNT_COLUMNS.contains(col) {
                let (o, p): (f64, f64) = (o.parse().unwrap(), p.parse().unwrap());
                assert!(p <= o, "{label}: {col} grew from {o} to {p}");
            } else {
                assert_eq!(p, o, "{label}: decision column {col} changed");
            }
        }
    }
}

/// Golden rows as `(n, extra, seed, history)`, each history oldest
/// first. The first rows were recorded at the pre-fix tree (hash-based
/// `fwd_seen`, `proxy_counts`, `TrailStore`), and the ordered-container
/// replacements reproduced them byte for byte. Sending one maximum id
/// per round-2 and round-3 unit instead of whole id sets gave the second
/// rows; routing reverse units by each relay's earliest visit, with
/// relays dropping units the contender cannot use, gave the third.
/// Dropping the route step that routed units carried unread gave the
/// fourth, which moved `bits` alone. Sending each proxy's round-1 `I1`
/// in units of four ids instead of one gave the fifth. Sending forward
/// units (round 2, stop marks, winner notices) along the tree the
/// round-1 replies came by instead of every walk edge, with the
/// winner's notice doing its stop mark's job, gave the sixth. Each step
/// moved only [`COUNT_COLUMNS`].
#[test]
fn pinned_reports_unchanged_by_hash_state_fix() {
    // The ten zero columns are the per-phase breakdown added with the
    // telemetry layer — all zero here because these runs record none.
    let cases: [(usize, usize, u64, [&str; 6]); 3] = [
        (
            48,
            40,
            11,
            [
                "48,84,12,1,4862562,55049,2724113,1279,1317,16,5,0,0,0,1317,0,0,0,0,0,0,0,0,0,0,true",
                "48,84,12,1,4862562,18415,880066,470,508,16,5,0,0,0,508,0,0,0,0,0,0,0,0,0,0,true",
                "48,84,12,1,4862562,11126,497616,256,277,16,5,0,0,0,277,0,0,0,0,0,0,0,0,0,0,true",
                "48,84,12,1,4862562,11126,481892,256,277,16,5,0,0,0,277,0,0,0,0,0,0,0,0,0,0,true",
                "48,84,12,1,4862562,9265,446033,207,228,16,5,0,0,0,228,0,0,0,0,0,0,0,0,0,0,true",
                "48,84,12,1,4862562,7499,369972,201,217,16,5,0,0,0,217,0,0,0,0,0,0,0,0,0,0,true",
            ],
        ),
        (
            40,
            24,
            7,
            [
                "40,63,16,1,2304460,100023,4761748,2957,2966,64,7,1,0,0,2966,0,0,0,0,0,0,0,0,0,0,true",
                "40,63,16,1,2304460,31744,1473041,1163,1172,64,7,1,0,0,1172,0,0,0,0,0,0,0,0,0,0,true",
                "40,63,16,1,2304460,15427,650831,554,563,64,7,1,0,0,563,0,0,0,0,0,0,0,0,0,0,true",
                "40,63,16,1,2304460,15427,629819,554,563,64,7,1,0,0,563,0,0,0,0,0,0,0,0,0,0,true",
                "40,63,16,1,2304460,12364,573175,444,453,64,7,1,0,0,453,0,0,0,0,0,0,0,0,0,0,true",
                "40,63,16,1,2304460,10053,477605,424,431,64,7,1,0,0,431,0,0,0,0,0,0,0,0,0,0,true",
            ],
        ),
        (
            56,
            60,
            23,
            [
                "56,113,19,1,9178418,147863,7624009,2860,2868,32,6,0,0,0,2868,0,0,0,0,0,0,0,0,0,0,true",
                "56,113,19,1,9178418,40162,2010076,959,967,32,6,0,0,0,967,0,0,0,0,0,0,0,0,0,0,true",
                "56,113,19,1,9178418,21997,1026200,470,478,32,6,0,0,0,478,0,0,0,0,0,0,0,0,0,0,true",
                "56,113,19,1,9178418,21997,993928,470,478,32,6,0,0,0,478,0,0,0,0,0,0,0,0,0,0,true",
                "56,113,19,1,9178418,16665,885511,363,371,32,6,0,0,0,371,0,0,0,0,0,0,0,0,0,0,true",
                "56,113,19,1,9178418,13973,769946,358,367,32,6,0,0,0,367,0,0,0,0,0,0,0,0,0,0,true",
            ],
        ),
    ];
    for (n, extra, seed, history) in cases {
        let g = random_connected(n, extra, seed);
        let got = run_row(&g, seed ^ 0x5EED, Exec::Serial);
        let label = format!("n={n} extra={extra} seed={seed}");
        assert_golden(&label, &got, &history);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The contract the ordered containers protect: the full report is a
    /// pure function of (graph, seed), byte-identical across repeated
    /// runs and across executors, and the same through the worker
    /// barrier.
    #[test]
    fn full_report_identity(n in 24usize..56, extra in 8usize..64, seed in any::<u64>()) {
        let g = random_connected(n, extra, seed);
        let report = run(&g, seed ^ 0xF00D, Exec::Serial);
        let first = report.csv_row();
        let again = run_row(&g, seed ^ 0xF00D, Exec::Serial);
        prop_assert_eq!(&again, &first, "same-executor replay diverged");
        let threaded = run_row(&g, seed ^ 0xF00D, Exec::Threaded(2));
        prop_assert_eq!(&threaded, &first, "cross-executor replay diverged");
        let (barrier, _) = through_barrier(&g, config(n), seed ^ 0xF00D, 2, None, None);
        prop_assert_eq!(barrier, Counts::of(&report), "barrier replay diverged");
    }
}
