//! Deterministic adversarial network conditions: the [`FaultPlan`].
//!
//! The CONGEST engines are exact by default — every message sent is
//! delivered next round (or serialized by congestion). A [`FaultPlan`]
//! composes four kinds of misbehaviour on top of that, all resolved
//! **deterministically** from the plan's own seed so a faulty run is
//! still a pure function of `(graph, protocols, seed, plan)`:
//!
//! * **drops** — each message crossing an edge is lost i.i.d. with
//!   probability `p`. The decision is a stateless hash of
//!   `(plan seed, round, directed edge)`, which is well-defined because
//!   the CONGEST discipline admits at most one crossing per directed
//!   edge per round — no RNG stream ordering is involved, so serial and
//!   sharded executors cannot disagree.
//! * **crash-stop** — node `v` falls silent from round `r`: none of its
//!   protocol callbacks run from that round on, and every message whose
//!   source or destination is crashed at crossing time is discarded.
//! * **delivery delay** — messages crossing edge `e` arrive `d` rounds
//!   late (the edge still carries at most one message per round; the
//!   extra latency models slow links without abandoning round
//!   semantics). Late arrivals wait on the latency layer's tick heap
//!   and are released in deterministic `(due round, crossing order)`
//!   order.
//! * **edge cuts** — edge `e` disappears at round `r`; messages sent
//!   into it afterwards vanish (no failure detector is modelled).
//!   Cutting a graph's bridges yields partition experiments.
//!
//! Suppressed messages are counted in
//! [`Metrics::dropped_messages`](crate::Metrics::dropped_messages)
//! rather than silently vanishing. A plan with drop rate 0, no crashes,
//! zero delays, and no cuts is **bit-identical** to running without a
//! plan — the engines' property suites enforce this.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Bernoulli, RngExt, SeedableRng};
use welle_graph::{Graph, NodeId};

/// Crash round meaning "never".
const NEVER: u64 = u64::MAX;

/// A declarative, seed-driven schedule of network faults.
///
/// Build one with the fluent setters, hand it to
/// [`Engine::set_fault_plan`](crate::Engine::set_fault_plan) (or the
/// higher-level election driver), and the same plan replays the same
/// faults on every run. Random selections (`crash_fraction`,
/// `cut_fraction`) are materialized from the plan's seed when the plan
/// is compiled against a concrete graph.
///
/// ```
/// use welle_congest::FaultPlan;
///
/// let plan = FaultPlan::new(7)
///     .drop_rate(0.05)        // lose 5% of messages in transit
///     .crash(3, 100)          // node 3 goes silent from round 100
///     .crash_fraction(0.1, 50) // plus a random tenth of all nodes at 50
///     .delay_all(2);          // every link delivers two rounds late
/// assert!(!plan.is_vacuous());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_rate: f64,
    crashes: Vec<(usize, u64)>,
    crash_fractions: Vec<(f64, u64)>,
    delay_all: u32,
    random_delay_max: u32,
    cuts: Vec<(usize, usize, u64)>,
    cut_fractions: Vec<(f64, u64)>,
}

impl FaultPlan {
    /// Starts an empty plan whose random selections derive from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the i.i.d. per-message drop probability.
    pub fn drop_rate(mut self, p: f64) -> Self {
        self.drop_rate = p;
        self
    }

    /// Crash-stops node `node` from round `round` on (the earliest of
    /// several schedules for the same node wins).
    pub fn crash(mut self, node: usize, round: u64) -> Self {
        self.crashes.push((node, round));
        self
    }

    /// Crash-stops a seed-chosen random fraction of all nodes from
    /// round `round` on (each node is selected i.i.d. with probability
    /// `fraction`).
    pub fn crash_fraction(mut self, fraction: f64, round: u64) -> Self {
        self.crash_fractions.push((fraction, round));
        self
    }

    /// Delays delivery on **every** edge by `rounds` (messages sent at
    /// round `r` arrive at `r + 1 + rounds`).
    pub fn delay_all(mut self, rounds: u32) -> Self {
        self.delay_all = rounds;
        self
    }

    /// Gives each edge an independent seed-chosen delay uniform in
    /// `0..=max_rounds`, on top of [`FaultPlan::delay_all`].
    pub fn random_delays(mut self, max_rounds: u32) -> Self {
        self.random_delay_max = max_rounds;
        self
    }

    /// Removes the edge between nodes `u` and `v` from round `round` on.
    pub fn cut(mut self, u: usize, v: usize, round: u64) -> Self {
        self.cuts.push((u, v, round));
        self
    }

    /// Removes a seed-chosen random fraction of all edges from round
    /// `round` on.
    pub fn cut_fraction(mut self, fraction: f64, round: u64) -> Self {
        self.cut_fractions.push((fraction, round));
        self
    }

    /// Whether this plan schedules no faults at all. A vacuous plan is
    /// still a valid plan — it exercises the fault-aware delivery path
    /// and must be bit-identical to running without one.
    pub fn is_vacuous(&self) -> bool {
        // welle-lint: allow(no-float-eq) — exact-zero sentinel test on a user-set rate; never the result of arithmetic
        self.drop_rate == 0.0
            && self.crashes.is_empty()
            && self.crash_fractions.is_empty()
            && self.delay_all == 0
            && self.random_delay_max == 0
            && self.cuts.is_empty()
            && self.cut_fractions.is_empty()
    }

    /// Checks the plan against a concrete graph without installing it:
    /// probabilities in range, crash targets in `0..n`, cut edges
    /// present. Drivers call this up front so batch sweeps fail before
    /// anything is simulated.
    ///
    /// # Errors
    ///
    /// The first [`FaultError`] found, if any.
    pub fn validate(&self, graph: &Graph) -> Result<(), FaultError> {
        self.compile_for(graph).map(|_| ())
    }

    /// Resolves the plan against a concrete graph once, yielding an
    /// opaque handle engines install in `O(1)`
    /// ([`Engine::set_compiled_faults`](crate::Engine::set_compiled_faults)).
    /// Batch drivers sweeping many seeds over one scenario compile once
    /// here instead of once per trial (compilation materializes per-node
    /// crash rounds and per-edge delays/cuts, `O(n + m)`).
    ///
    /// # Errors
    ///
    /// The first [`FaultError`] found, if any.
    pub fn compile_for(&self, graph: &Graph) -> Result<CompiledFaultPlan, FaultError> {
        CompiledFaults::compile(self, graph).map(|c| CompiledFaultPlan(Arc::new(c)))
    }
}

/// A [`FaultPlan`] resolved against one specific graph (see
/// [`FaultPlan::compile_for`]). Opaque and cheap to clone; installing it
/// on an engine of a *different* graph is a logic error (schedules are
/// indexed by that graph's nodes and edges).
#[derive(Clone, Debug)]
pub struct CompiledFaultPlan(pub(crate) Arc<CompiledFaults>);

/// Why a [`FaultPlan`] cannot apply to a graph.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultError {
    /// The drop rate is not a probability.
    BadDropRate(f64),
    /// A crash or cut fraction is not a probability.
    BadFraction(f64),
    /// A crash schedule names a node outside `0..n`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The graph size.
        n: usize,
    },
    /// A cut names an edge the graph does not have.
    NoSuchEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::BadDropRate(p) => {
                write!(f, "drop rate must be a probability in [0, 1], got {p}")
            }
            FaultError::BadFraction(p) => {
                write!(f, "fault fraction must be a probability in [0, 1], got {p}")
            }
            FaultError::NodeOutOfRange { node, n } => {
                write!(
                    f,
                    "fault plan crashes node {node}, but the graph has n = {n}"
                )
            }
            FaultError::NoSuchEdge { u, v } => {
                write!(
                    f,
                    "fault plan cuts edge ({u}, {v}), which the graph does not have"
                )
            }
        }
    }
}

impl Error for FaultError {}

/// A [`FaultPlan`] resolved against one concrete graph: per-node crash
/// rounds, per-edge delays and cut rounds, and the drop threshold.
/// Immutable once built, so the sharded engine shares it with its
/// workers behind an `Arc`.
#[derive(Debug)]
pub(crate) struct CompiledFaults {
    /// Drop distribution; `None` when the rate is exactly zero.
    drop: Option<Bernoulli>,
    /// Stream key for the stateless drop hash.
    drop_seed: u64,
    /// Crash round per node; empty when nothing crashes.
    crash_round: Vec<u64>,
    /// Extra delivery delay per undirected edge; empty when all zero.
    delay: Vec<u32>,
    /// Cut round per undirected edge; empty when nothing is cut.
    cut_round: Vec<u64>,
    /// Number of nodes with a scheduled crash (reporting).
    pub(crate) scheduled_crashes: u64,
}

impl CompiledFaults {
    /// Resolves `plan` against `graph`.
    pub(crate) fn compile(plan: &FaultPlan, graph: &Graph) -> Result<Self, FaultError> {
        let n = graph.n();
        let m = graph.m();
        if !plan.drop_rate.is_finite() || !(0.0..=1.0).contains(&plan.drop_rate) {
            return Err(FaultError::BadDropRate(plan.drop_rate));
        }
        for &(frac, _) in plan.crash_fractions.iter().chain(&plan.cut_fractions) {
            if !frac.is_finite() || !(0.0..=1.0).contains(&frac) {
                return Err(FaultError::BadFraction(frac));
            }
        }

        let mut crash_round = Vec::new();
        let touch_crash = |node: usize, round: u64, crash_round: &mut Vec<u64>| {
            if crash_round.is_empty() {
                crash_round.resize(n, NEVER);
            }
            crash_round[node] = crash_round[node].min(round);
        };
        for &(node, round) in &plan.crashes {
            if node >= n {
                return Err(FaultError::NodeOutOfRange { node, n });
            }
            touch_crash(node, round, &mut crash_round);
        }
        // Random selections draw from dedicated streams derived from the
        // plan seed, so adding e.g. a cut fraction cannot shift which
        // nodes a crash fraction picks.
        let mut crash_rng = StdRng::seed_from_u64(plan.seed ^ 0xC4A5_4CA5_4CA5_4CA5);
        for &(frac, round) in &plan.crash_fractions {
            // welle-lint: allow(no-lib-unwrap) — invariant: compile() rejected out-of-range fractions before this loop
            let dist = Bernoulli::new(frac).expect("fraction validated above");
            for node in 0..n {
                if crash_rng.sample_bernoulli(&dist) {
                    touch_crash(node, round, &mut crash_round);
                }
            }
        }
        let scheduled_crashes = crash_round.iter().filter(|&&r| r != NEVER).count() as u64;

        let mut delay = Vec::new();
        if plan.delay_all > 0 {
            delay.resize(m, plan.delay_all);
        }
        if plan.random_delay_max > 0 {
            if delay.is_empty() {
                delay.resize(m, 0);
            }
            let mut delay_rng = StdRng::seed_from_u64(plan.seed ^ 0xDE1A_DE1A_DE1A_DE1A);
            for d in delay.iter_mut() {
                *d += delay_rng.random_range(0..=plan.random_delay_max);
            }
        }

        let mut cut_round = Vec::new();
        let touch_cut = |edge: usize, round: u64, cut_round: &mut Vec<u64>| {
            if cut_round.is_empty() {
                cut_round.resize(m, NEVER);
            }
            cut_round[edge] = cut_round[edge].min(round);
        };
        for &(u, v, round) in &plan.cuts {
            let edge = (u < n && v < n)
                .then(|| {
                    let un = NodeId::new(u);
                    graph
                        .ports(un)
                        .find(|&p| graph.neighbor(un, p) == NodeId::new(v))
                        .map(|p| graph.edge_id(un, p).index())
                })
                .flatten()
                .ok_or(FaultError::NoSuchEdge { u, v })?;
            touch_cut(edge, round, &mut cut_round);
        }
        let mut cut_rng = StdRng::seed_from_u64(plan.seed ^ 0x0C07_0C07_0C07_0C07);
        for &(frac, round) in &plan.cut_fractions {
            // welle-lint: allow(no-lib-unwrap) — invariant: compile() rejected out-of-range fractions before this loop
            let dist = Bernoulli::new(frac).expect("fraction validated above");
            for edge in 0..m {
                if cut_rng.sample_bernoulli(&dist) {
                    touch_cut(edge, round, &mut cut_round);
                }
            }
        }

        Ok(CompiledFaults {
            drop: if plan.drop_rate > 0.0 {
                // welle-lint: allow(no-lib-unwrap) — invariant: compile() rejected out-of-range drop rates before constructing CompiledFaults
                Some(Bernoulli::new(plan.drop_rate).expect("rate validated above"))
            } else {
                None
            },
            drop_seed: plan.seed,
            crash_round,
            delay,
            cut_round,
            scheduled_crashes,
        })
    }

    /// Whether `node` has crash-stopped by `round`.
    #[inline]
    pub(crate) fn is_crashed(&self, node: usize, round: u64) -> bool {
        !self.crash_round.is_empty() && round >= self.crash_round[node]
    }

    /// Whether the message crossing directed edge `dir` at `round` is
    /// dropped in transit. Pure in `(seed, round, dir)`: the CONGEST
    /// one-crossing-per-round discipline makes the pair a unique message
    /// identity, so this is an i.i.d. coin per message with no RNG
    /// stream to keep executors in sync over.
    #[inline]
    pub(crate) fn dropped_in_transit(&self, round: u64, dir: usize) -> bool {
        match &self.drop {
            None => false,
            Some(dist) => dist.check(mix3(self.drop_seed, round, dir as u64)),
        }
    }

    /// Whether undirected edge `edge` has been cut by `round`.
    #[inline]
    pub(crate) fn edge_cut(&self, edge: usize, round: u64) -> bool {
        !self.cut_round.is_empty() && round >= self.cut_round[edge]
    }

    /// Extra delivery delay for undirected edge `edge`.
    #[inline]
    pub(crate) fn edge_delay(&self, edge: usize) -> u32 {
        if self.delay.is_empty() {
            0
        } else {
            self.delay[edge]
        }
    }

    /// Whether any edge delivers late (such plans run on the latency
    /// layer's tick heap).
    pub(crate) fn has_delays(&self) -> bool {
        self.delay.iter().any(|&d| d > 0)
    }

    /// The filter every crossing passes: `None` when the message
    /// crossing directed edge `dir` at `round` is suppressed — the edge
    /// is cut, either endpoint has crashed, or it is dropped in transit
    /// — and otherwise the edge's extra delay in rounds. All decisions
    /// are pure functions of the plan and `(round, dir)`, so executors
    /// agree.
    #[inline]
    pub(crate) fn crossing_delay(&self, graph: &Graph, round: u64, dir: usize) -> Option<u32> {
        let info = graph.directed_info(dir);
        let edge = info.edge.index();
        let suppressed = self.edge_cut(edge, round)
            || self.is_crashed(info.src.index(), round)
            || self.is_crashed(info.dst.index(), round)
            || self.dropped_in_transit(round, dir);
        (!suppressed).then(|| self.edge_delay(edge))
    }
}

/// SplitMix64-style mix of three words into one uniform word. Shared
/// with the latency layer, which keys its per-crossing samples the same
/// way the drop layer keys its coins.
#[inline]
pub(crate) fn mix3(seed: u64, round: u64, dir: u64) -> u64 {
    let mut z =
        seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ dir.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use welle_graph::gen;

    #[test]
    fn vacuous_plan_compiles_to_all_noops() {
        let g = gen::ring(8).unwrap();
        let plan = FaultPlan::new(1);
        assert!(plan.is_vacuous());
        let c = CompiledFaults::compile(&plan, &g).unwrap();
        for dir in 0..g.directed_edge_count() {
            assert!(!c.dropped_in_transit(3, dir));
        }
        for node in 0..g.n() {
            assert!(!c.is_crashed(node, u64::MAX - 1));
        }
        for e in 0..g.m() {
            assert!(!c.edge_cut(e, u64::MAX - 1));
            assert_eq!(c.edge_delay(e), 0);
        }
        assert_eq!(c.scheduled_crashes, 0);
    }

    #[test]
    fn compile_rejects_bad_inputs() {
        let g = gen::ring(8).unwrap();
        assert_eq!(
            FaultPlan::new(0).drop_rate(1.5).validate(&g),
            Err(FaultError::BadDropRate(1.5))
        );
        assert_eq!(
            FaultPlan::new(0).crash_fraction(-0.1, 5).validate(&g),
            Err(FaultError::BadFraction(-0.1))
        );
        assert_eq!(
            FaultPlan::new(0).crash(8, 1).validate(&g),
            Err(FaultError::NodeOutOfRange { node: 8, n: 8 })
        );
        // Ring 0-1-2-...-7-0: (0, 4) is not an edge.
        assert_eq!(
            FaultPlan::new(0).cut(0, 4, 1).validate(&g),
            Err(FaultError::NoSuchEdge { u: 0, v: 4 })
        );
        assert!(FaultPlan::new(0).cut(0, 1, 1).validate(&g).is_ok());
    }

    #[test]
    fn crash_schedule_takes_earliest_round() {
        let g = gen::ring(8).unwrap();
        let plan = FaultPlan::new(0).crash(2, 50).crash(2, 10).crash(5, 7);
        let c = CompiledFaults::compile(&plan, &g).unwrap();
        assert!(!c.is_crashed(2, 9));
        assert!(c.is_crashed(2, 10));
        assert!(c.is_crashed(5, 7));
        assert!(!c.is_crashed(0, u64::MAX - 1));
        assert_eq!(c.scheduled_crashes, 2);
    }

    #[test]
    fn drop_decisions_are_deterministic_and_rate_shaped() {
        let g = gen::clique(32).unwrap();
        let c = CompiledFaults::compile(&FaultPlan::new(9).drop_rate(0.25), &g).unwrap();
        let c2 = CompiledFaults::compile(&FaultPlan::new(9).drop_rate(0.25), &g).unwrap();
        let mut hits = 0usize;
        let mut total = 0usize;
        for round in 0..40u64 {
            for dir in 0..g.directed_edge_count() {
                assert_eq!(
                    c.dropped_in_transit(round, dir),
                    c2.dropped_in_transit(round, dir)
                );
                hits += c.dropped_in_transit(round, dir) as usize;
                total += 1;
            }
        }
        let frac = hits as f64 / total as f64;
        assert!((frac - 0.25).abs() < 0.02, "drop frequency {frac}");
    }

    #[test]
    fn fractions_are_seed_stable_and_roughly_sized() {
        let g = gen::clique(64).unwrap();
        let plan = FaultPlan::new(5)
            .crash_fraction(0.5, 3)
            .cut_fraction(0.25, 4);
        let a = CompiledFaults::compile(&plan, &g).unwrap();
        let b = CompiledFaults::compile(&plan, &g).unwrap();
        let crashed: Vec<usize> = (0..g.n()).filter(|&v| a.is_crashed(v, 3)).collect();
        let crashed_b: Vec<usize> = (0..g.n()).filter(|&v| b.is_crashed(v, 3)).collect();
        assert_eq!(crashed, crashed_b, "selection must be seed-stable");
        assert!(
            crashed.len() > 16 && crashed.len() < 48,
            "{}",
            crashed.len()
        );
        let cut = (0..g.m()).filter(|&e| a.edge_cut(e, 4)).count();
        assert!(cut > g.m() / 8 && cut < g.m() / 2, "{cut} of {}", g.m());
        // Nothing is crashed or cut before its round.
        assert!((0..g.n()).all(|v| !a.is_crashed(v, 2)));
        assert!((0..g.m()).all(|e| !a.edge_cut(e, 3)));
    }

    #[test]
    fn delays_combine_uniform_and_random_parts() {
        let g = gen::ring(16).unwrap();
        let c =
            CompiledFaults::compile(&FaultPlan::new(2).delay_all(3).random_delays(2), &g).unwrap();
        for e in 0..g.m() {
            let d = c.edge_delay(e);
            assert!((3..=5).contains(&d), "edge {e}: delay {d}");
        }
    }

    #[test]
    fn delayed_heap_orders_by_due_then_seq() {
        use crate::latency::{round_end_tick, LatencyModel, LatencyState};
        // Fault delays ride the latency layer's tick heap: the delay a
        // crossing passes the filter with becomes part of its due tick,
        // and parked messages release earliest due first, ties in
        // crossing order.
        let g = gen::ring(4).unwrap();
        let c = CompiledFaults::compile(&FaultPlan::new(0).delay_all(2), &g).unwrap();
        let mut st: LatencyState<u64> =
            LatencyState::new(LatencyModel::zero(), g.directed_edge_count());
        for (round, dir, msg) in [(7, 0, 900), (3, 1, 500), (3, 2, 501), (5, 3, 700)] {
            let delay = c.crossing_delay(&g, round, dir).unwrap();
            assert_eq!(delay, 2);
            let due = st.crossing_due(round, crate::idx32(dir), delay);
            st.park(due, crate::idx32(dir), msg);
        }
        assert_eq!(st.parked(), 4);
        // Sent in round 3 with two rounds of delay: arrives after round 5.
        assert!(st.due_now(round_end_tick(5)));
        assert!(!st.due_now(round_end_tick(4)));
        let mut order = Vec::new();
        while let Some(d) = st.pop_due(u64::MAX) {
            order.push(d.msg);
        }
        assert_eq!(order, vec![500, 501, 700, 900]);
    }
}
