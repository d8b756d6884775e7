//! Engine termination edge cases: `Done` vs `Quiescent` vs `RoundLimit`,
//! asserted on a 2-node path and on a graph with an isolated node,
//! inline and on worker threads.

use std::sync::Arc;

use welle_congest::testing::{Echo, FloodMax};
use welle_congest::{Context, Engine, EngineConfig, Protocol, RunOutcome};
use welle_graph::{from_edges, gen, Graph, Port};

/// Sends one message per round through port 0, forever; never done.
struct Chatter;

impl Protocol for Chatter {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        if ctx.degree() > 0 {
            ctx.send(Port::new(0), 0);
        }
    }
    fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &mut Vec<(Port, u64)>) {
        inbox.clear();
        if ctx.degree() > 0 {
            ctx.send(Port::new(0), ctx.round());
        }
    }
}

fn path2() -> Arc<Graph> {
    Arc::new(gen::path(2).unwrap())
}

/// Node 2 is isolated: degree 0, no way to ever receive anything.
fn with_isolated_node() -> Arc<Graph> {
    Arc::new(from_edges(3, &[(0, 1)]).unwrap())
}

/// An engine over `nodes` that runs on `threads` worker threads.
fn on_threads<P: Protocol>(g: Arc<Graph>, nodes: Vec<P>, threads: usize) -> Engine<P> {
    let mut e = Engine::new(g, nodes, EngineConfig::default());
    e.set_threads(threads);
    e
}

#[test]
fn done_on_path_when_all_report_done() {
    // FloodMax reports done right after its initial flood.
    let mut e = Engine::new(
        path2(),
        vec![FloodMax::new(3), FloodMax::new(9)],
        EngineConfig::default(),
    );
    let out = e.run(1_000);
    assert!(matches!(out, RunOutcome::Done { .. }), "got {out:?}");
    assert_eq!(e.in_flight(), 0);
    assert!(e.nodes().iter().all(|n| n.best() == 9));
}

#[test]
fn quiescent_on_path_when_nodes_never_finish() {
    // Echo never reports done; once the ping/pong drains, no message is
    // in flight and no wake-up is pending: the run can never progress.
    let mut e = Engine::new(
        path2(),
        vec![Echo::new(true), Echo::new(false)],
        EngineConfig::default(),
    );
    let out = e.run(1_000);
    assert!(matches!(out, RunOutcome::Quiescent { .. }), "got {out:?}");
    assert!(out.round() < 1_000, "quiescence must beat the limit");
    assert_eq!(e.node(0).replies_received(), 1);
}

#[test]
fn round_limit_on_path_with_endless_traffic() {
    let mut e = Engine::new(path2(), vec![Chatter, Chatter], EngineConfig::default());
    let out = e.run(50);
    assert!(
        matches!(out, RunOutcome::RoundLimit { round: 50 }),
        "got {out:?}"
    );
    assert_eq!(e.round(), 50);
}

#[test]
fn done_with_isolated_node() {
    // FloodMax is done immediately after flooding — the isolated node
    // floods through zero ports and is done too, so the run ends `Done`
    // even though node 2 never heard the maximum.
    let g = with_isolated_node();
    let nodes = (0..3).map(|i| FloodMax::new(i as u64)).collect();
    let mut e = Engine::new(g, nodes, EngineConfig::default());
    let out = e.run(1_000);
    assert!(matches!(out, RunOutcome::Done { .. }), "got {out:?}");
    assert_eq!(e.node(1).best(), 1);
    assert_eq!(e.node(2).best(), 2, "isolated node only knows itself");
}

#[test]
fn quiescent_with_isolated_node_that_waits_forever() {
    // BfsWave roots at node 0; the wave covers {0, 1} but can never
    // reach the isolated node 2, which never reports done → Quiescent.
    let g = with_isolated_node();
    let nodes = (0..3)
        .map(|i| welle_congest::testing::BfsWave::new(i == 0))
        .collect();
    let mut e = Engine::new(g, nodes, EngineConfig::default());
    let out = e.run(1_000);
    assert!(matches!(out, RunOutcome::Quiescent { .. }), "got {out:?}");
    assert_eq!(e.node(1).level(), Some(1));
    assert_eq!(e.node(2).level(), None);
}

/// Wakes far in the future and records whether `on_round` ever fired.
struct LateSleeper {
    fired: bool,
}

impl Protocol for LateSleeper {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        ctx.wake_at(100);
    }
    fn on_round(&mut self, _ctx: &mut Context<'_, ()>, inbox: &mut Vec<(Port, ())>) {
        inbox.clear();
        self.fired = true;
    }
}

#[test]
fn idle_skip_past_round_limit_stops_before_the_wake() {
    // The next wake (round 100) lies beyond the limit (50): both
    // executors must stop at the limit without running the wake round.
    let mut serial = Engine::new(
        path2(),
        vec![LateSleeper { fired: false }, LateSleeper { fired: false }],
        EngineConfig::default(),
    );
    let serial_out = serial.run(50);
    assert!(matches!(serial_out, RunOutcome::RoundLimit { .. }));
    assert!(serial.nodes().iter().all(|n| !n.fired));

    for threads in [1usize, 2] {
        let mut par = on_threads(
            path2(),
            vec![LateSleeper { fired: false }, LateSleeper { fired: false }],
            threads,
        );
        par.set_inline_cutoff(0); // force the sharded loop's bookkeeping
        let out = par.run(50);
        assert_eq!(serial_out.round(), out.round(), "threads={threads}");
        assert!(matches!(out, RunOutcome::RoundLimit { .. }));
        assert!(par.nodes().iter().all(|n| !n.fired), "threads={threads}");
    }
}

#[test]
fn threaded_engine_agrees_on_all_three_outcomes() {
    for threads in [1usize, 2] {
        let mut done = on_threads(path2(), vec![FloodMax::new(3), FloodMax::new(9)], threads);
        assert!(matches!(done.run(1_000), RunOutcome::Done { .. }));

        let mut quiescent = on_threads(
            with_isolated_node(),
            (0..3)
                .map(|i| welle_congest::testing::BfsWave::new(i == 0))
                .collect(),
            threads,
        );
        assert!(matches!(quiescent.run(1_000), RunOutcome::Quiescent { .. }));

        let mut limited = on_threads(path2(), vec![Chatter, Chatter], threads);
        assert!(matches!(
            limited.run(50),
            RunOutcome::RoundLimit { round: 50 }
        ));
    }
}
