//! A wire-level fence for forward routing. A contender's round-2 unit
//! needs to reach only its proxies and the relays their round-1 replies
//! came by, so in a fault-free run every directed edge that carries a
//! round-2 message must have carried a message the other way in the
//! same epoch's round 1.
//!
//! The check reads the wire alone: a [`RecordingObserver`] of every
//! transmission, and the telemetry round log's phase tags to split the
//! rounds into segments, an epoch starting at each walk segment. It
//! never reads the protocol's state. A flood over every edge the walks
//! crossed fails it, since the walks cross many edges that no reply
//! takes home.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use welle_congest::RecordingObserver;
use welle_core::{Election, ElectionConfig, Exec, Phase, SyncMode, TelemetryConfig};
use welle_graph::{gen, Graph, GraphBuilder};

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

/// Runs one fault-free, serial, Adaptive election and returns its
/// round-2 transmissions as `(epoch, from, to)`, with those among them
/// whose edge carried nothing the other way in that epoch's round 1.
fn round_two_off_the_reply_tree(g: &Arc<Graph>, seed: u64) -> (usize, Vec<(u32, usize, usize)>) {
    let mut cfg = ElectionConfig::tuned_for_simulation(g.n());
    cfg.max_walk_len = Some(64);
    assert_eq!(cfg.sync, SyncMode::Adaptive);
    let mut wire = RecordingObserver::default();
    let report = Election::on(g)
        .config(cfg)
        .seed(seed)
        .executor(Exec::Serial)
        .telemetry(TelemetryConfig::full())
        .observer(&mut wire)
        .run()
        .unwrap();
    assert_eq!(report.dropped_messages, 0, "the run must be fault-free");

    // The round log: each active round's epoch and phase tag.
    let (walk, r1, r2) = (Phase::Walk.tag(), Phase::R1.tag(), Phase::R2.tag());
    let mut segment = BTreeMap::new();
    let (mut epoch, mut last) = (0u32, None);
    for s in &report.telemetry.as_ref().unwrap().samples {
        if s.phase == Some(walk) && last.is_some_and(|t| t != Some(walk)) {
            epoch += 1;
        }
        last = Some(s.phase);
        segment.insert(s.round, (epoch, s.phase));
    }

    let mut replies = BTreeSet::new();
    let mut round_two = Vec::new();
    for ev in &wire.events {
        let (epoch, phase) = segment[&ev.round];
        let hop = (epoch, ev.from.index(), ev.to.index());
        if phase == Some(r1) {
            replies.insert(hop);
        } else if phase == Some(r2) {
            round_two.push(hop);
        }
    }
    let off: Vec<_> = round_two
        .iter()
        .copied()
        .filter(|&(e, from, to)| !replies.contains(&(e, to, from)))
        .collect();
    (round_two.len(), off)
}

fn assert_on_the_reply_tree(label: &str, g: &Arc<Graph>, seed: u64) {
    let (sent, off) = round_two_off_the_reply_tree(g, seed);
    assert!(
        sent > 0,
        "{label}: round 2 sent nothing, so nothing was checked"
    );
    assert!(
        off.is_empty(),
        "{label}: {} of {sent} round-2 messages crossed an edge no round-1 \
         reply came by, e.g. (epoch, from, to) = {:?}",
        off.len(),
        &off[..off.len().min(3)]
    );
}

#[test]
fn round_two_follows_the_reply_tree_on_the_golden_regular_graph() {
    // `tests/large_n.rs`'s `rr48x4` graph.
    let mut rng = StdRng::seed_from_u64(11);
    let g = Arc::new(gen::random_regular(48, 4, &mut rng).unwrap());
    for seed in 1..=5 {
        assert_on_the_reply_tree(&format!("rr48x4 seed {seed}"), &g, seed);
    }
}

#[test]
fn round_two_follows_the_reply_tree_on_the_benchmark_expander() {
    // The `expander-128` benchmark graph of workload seed 1.
    let mut rng = StdRng::seed_from_u64(1 ^ 0xF00D);
    let g = Arc::new(gen::random_regular(128, 4, &mut rng).unwrap());
    for seed in 1..=3 {
        assert_on_the_reply_tree(&format!("expander-128 seed {seed}"), &g, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn round_two_follows_the_reply_tree_on_random_graphs(
        n in 16usize..48,
        extra in 0usize..48,
        seed in any::<u64>(),
    ) {
        let g = random_connected(n, extra, seed);
        assert_on_the_reply_tree(&format!("n={n} extra={extra} seed={seed}"), &g, seed ^ 0xF00D);
    }
}
