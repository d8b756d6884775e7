//! Per-edge message latency models: the engine's latency layer (see
//! [`Engine::set_latency`](crate::Engine::set_latency)).
//!
//! Without the layer the engine delivers every message exactly one
//! round after it crosses its edge. A [`LatencyModel`] replaces that
//! constant with a seeded per-crossing sample — fixed, uniform, or
//! log-normal service times, plus an optional per-edge service *rate* so
//! a hub edge fed faster than it drains builds a queue — while keeping
//! the run a pure function of `(graph, protocols, seed, model)`.
//!
//! Internally the layer measures time in **ticks**, [`TICKS_PER_ROUND`]
//! per protocol round, so sub-round latencies order deterministically
//! without floating-point comparisons on the event heap. A crossing at
//! round `r` completes service at `r·TPR + service_ticks` (later if the
//! edge is still busy) and is delivered `latency + fault-delay` ticks
//! after that. With the zero model every crossing lands exactly on
//! `(r + 1)·TPR` — the next round boundary — which is what makes a
//! latent run event-for-event identical to a plain one there. The same
//! heap holds the fault layer's delayed messages: a plan with delayed
//! edges runs on the zero model when no other is set.
//!
//! Samples are keyed statelessly on `(model seed, crossing round,
//! directed edge)` with the same [`mix3`](crate::faults) hash the drop
//! layer uses: no RNG stream ordering is involved, so the schedule
//! cannot depend on heap insertion order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use rand::LogNormal;

use crate::faults::mix3;

/// Virtual-time resolution: ticks per protocol round.
///
/// Power of two so round⇄tick conversions are exact; 1024 gives the
/// latency models ~3 decimal digits of sub-round resolution while
/// leaving sixty-plus bits of round range.
pub(crate) const TICKS_PER_ROUND: u64 = 1024;

/// The tick at the end boundary of `round`: deliveries due by it happen
/// in that round.
#[inline]
pub(crate) fn round_end_tick(round: u64) -> u64 {
    round.saturating_add(1).saturating_mul(TICKS_PER_ROUND)
}

/// Stream key offset for the second sample word (Box–Muller needs two).
const W2_SALT: u64 = 0xA5A5_5A5A_C3C3_3C3C;

/// The latency distribution of a [`LatencyModel`], in round units.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum LatencyDist {
    /// No extra latency: every crossing is delivered exactly one round
    /// later, making a latent run bit-identical to a plain one.
    #[default]
    Zero,
    /// Every crossing takes an extra fixed number of rounds (fractions
    /// allowed: `0.5` is half a round).
    Fixed(f64),
    /// Extra latency uniform in `[lo, hi]` rounds, sampled per crossing.
    Uniform {
        /// Lower bound, in rounds.
        lo: f64,
        /// Upper bound, in rounds.
        hi: f64,
    },
    /// Extra latency `exp(N(mu, sigma))` rounds — the heavy-tailed
    /// service-time shape of queueing models, sampled per crossing.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
}

/// A seeded description of per-edge message latency, installed with
/// [`Engine::set_latency`](crate::Engine::set_latency) or chosen via
/// [`Exec::Async`](crate::Exec::Async).
///
/// ```
/// use welle_congest::LatencyModel;
///
/// let model = LatencyModel::log_normal(0.0, 0.5).seed(7).service_rate(0.5);
/// assert!(model.validate().is_ok());
/// assert_eq!(model, model); // plain value type, cheap to copy
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyModel {
    /// Stream key for the per-crossing samples.
    pub(crate) seed: u64,
    /// Latency distribution, in round units.
    pub(crate) dist: LatencyDist,
    /// Messages an edge can *service* per round (≤ 1). Below 1, an edge
    /// fed every round builds a queue: each crossing starts service only
    /// when the previous one finishes, modelling hub congestion.
    pub(crate) service_rate: f64,
}

impl LatencyModel {
    /// The zero model: no latency, unit service rate. A run under this
    /// model is bit-identical to one without a latency layer.
    pub fn zero() -> Self {
        LatencyModel {
            seed: 0,
            dist: LatencyDist::Zero,
            service_rate: 1.0,
        }
    }

    /// Fixed extra latency of `rounds` rounds on every crossing.
    pub fn fixed(rounds: f64) -> Self {
        LatencyModel {
            dist: LatencyDist::Fixed(rounds),
            ..LatencyModel::zero()
        }
    }

    /// Extra latency uniform in `[lo, hi]` rounds per crossing.
    pub fn uniform(lo: f64, hi: f64) -> Self {
        LatencyModel {
            dist: LatencyDist::Uniform { lo, hi },
            ..LatencyModel::zero()
        }
    }

    /// Log-normal extra latency `exp(N(mu, sigma))` rounds per crossing.
    pub fn log_normal(mu: f64, sigma: f64) -> Self {
        LatencyModel {
            dist: LatencyDist::LogNormal { mu, sigma },
            ..LatencyModel::zero()
        }
    }

    /// Sets the sample stream seed (independent of graph and protocol
    /// seeds; two runs differing only here see different latency draws).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-edge service rate in `(0, 1]` messages per round.
    pub fn service_rate(mut self, rate: f64) -> Self {
        self.service_rate = rate;
        self
    }

    /// The configured distribution.
    pub fn dist(&self) -> LatencyDist {
        self.dist
    }

    /// Checks the model's parameters without running anything.
    ///
    /// # Errors
    ///
    /// The first [`LatencyError`] found, if any.
    pub fn validate(&self) -> Result<(), LatencyError> {
        match self.dist {
            LatencyDist::Zero => {}
            LatencyDist::Fixed(r) => {
                if !r.is_finite() || r < 0.0 {
                    return Err(LatencyError::BadFixed(r));
                }
            }
            LatencyDist::Uniform { lo, hi } => {
                if !lo.is_finite() || !hi.is_finite() || lo < 0.0 || lo > hi {
                    return Err(LatencyError::BadUniform { lo, hi });
                }
            }
            LatencyDist::LogNormal { mu, sigma } => {
                if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
                    return Err(LatencyError::BadLogNormal { mu, sigma });
                }
            }
        }
        if !self.service_rate.is_finite() || self.service_rate <= 0.0 || self.service_rate > 1.0 {
            return Err(LatencyError::BadServiceRate(self.service_rate));
        }
        Ok(())
    }
}

/// Why a [`LatencyModel`] is not usable.
#[derive(Clone, Debug, PartialEq)]
pub enum LatencyError {
    /// A fixed latency must be finite and non-negative.
    BadFixed(f64),
    /// A uniform range needs finite `0 ≤ lo ≤ hi`.
    BadUniform {
        /// The offending lower bound.
        lo: f64,
        /// The offending upper bound.
        hi: f64,
    },
    /// A log-normal needs finite `mu` and finite `sigma ≥ 0`.
    BadLogNormal {
        /// The offending mean.
        mu: f64,
        /// The offending standard deviation.
        sigma: f64,
    },
    /// The service rate must be in `(0, 1]`.
    BadServiceRate(f64),
}

impl fmt::Display for LatencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyError::BadFixed(r) => {
                write!(f, "fixed latency must be finite and >= 0 rounds, got {r}")
            }
            LatencyError::BadUniform { lo, hi } => {
                write!(
                    f,
                    "uniform latency needs finite 0 <= lo <= hi, got [{lo}, {hi}]"
                )
            }
            LatencyError::BadLogNormal { mu, sigma } => {
                write!(
                    f,
                    "log-normal latency needs finite mu and sigma >= 0, got mu = {mu}, sigma = {sigma}"
                )
            }
            LatencyError::BadServiceRate(r) => {
                write!(f, "service rate must be in (0, 1] messages/round, got {r}")
            }
        }
    }
}

impl Error for LatencyError {}

/// Maps `w`'s high 53 bits to a uniform f64 in `[0, 1)`.
#[inline]
fn unit_f64(w: u64) -> f64 {
    (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Converts a non-negative latency in rounds to ticks (saturating: an
/// astronomically large sample parks the message forever, it does not
/// wrap time backwards).
#[inline]
fn to_ticks(rounds: f64) -> u64 {
    // f64 -> u64 `as` casts saturate; negative clamps to 0 first.
    (rounds.max(0.0) * TICKS_PER_ROUND as f64) as u64
}

/// A message parked on the tick heap, ordered by `(due, seq)` so a
/// `BinaryHeap<DelayedMsg>` pops the earliest due message first and
/// preserves crossing order within a tick.
#[derive(Debug)]
pub(crate) struct DelayedMsg<M> {
    pub(crate) due: u64,
    pub(crate) seq: u64,
    pub(crate) dir: u32,
    pub(crate) msg: M,
}

impl<M> PartialEq for DelayedMsg<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for DelayedMsg<M> {}
impl<M> PartialOrd for DelayedMsg<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for DelayedMsg<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the heap is a max-heap, we want earliest-due first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// Runtime state of a [`LatencyModel`] inside the engine: the
/// precomputed service schedule, per-edge busy horizons (only when the
/// rate is below 1), and the due-tick heap of parked deliveries.
#[derive(Debug)]
pub(crate) struct LatencyState<M> {
    model: LatencyModel,
    /// Precomputed log-normal sampler (validation guarantees `Some`
    /// whenever the dist is `LogNormal`).
    lognormal: Option<LogNormal>,
    /// Ticks one service occupies the edge: `TICKS_PER_ROUND / rate`.
    service_ticks: u64,
    /// Whether `busy` is maintained (`service_ticks > TICKS_PER_ROUND`).
    track_busy: bool,
    /// Tick each directed edge becomes free, when tracked.
    busy: Vec<u64>,
    /// Deliveries scheduled beyond the current round boundary, ordered
    /// by `(due tick, park seq)`.
    parked: BinaryHeap<DelayedMsg<M>>,
    /// Park order within equal due ticks.
    seq: u64,
    /// Latest delivery completion tick seen (virtual-time span).
    last_tick: u64,
}

impl<M> LatencyState<M> {
    /// Builds the state for a *validated* model over `dir_count`
    /// directed edges.
    pub(crate) fn new(model: LatencyModel, dir_count: usize) -> Self {
        let lognormal = match model.dist {
            LatencyDist::LogNormal { mu, sigma } => {
                // welle-lint: allow(no-lib-unwrap) — invariant: LatencyModel::validate() already rejected non-finite mu / non-positive sigma
                Some(LogNormal::new(mu, sigma).expect("model validated"))
            }
            _ => None,
        };
        let service_ticks = (TICKS_PER_ROUND as f64 / model.service_rate) as u64;
        let track_busy = service_ticks > TICKS_PER_ROUND;
        LatencyState {
            model,
            lognormal,
            service_ticks,
            track_busy,
            busy: if track_busy {
                vec![0; dir_count]
            } else {
                Vec::new()
            },
            parked: BinaryHeap::new(),
            seq: 0,
            last_tick: 0,
        }
    }

    /// Latency sample in ticks for the crossing of `dir` at `round`.
    /// Pure in `(model seed, round, dir)`, like the drop layer's coins.
    #[inline]
    fn sample_ticks(&self, round: u64, dir: u32) -> u64 {
        match self.model.dist {
            LatencyDist::Zero => 0,
            LatencyDist::Fixed(r) => to_ticks(r),
            LatencyDist::Uniform { lo, hi } => {
                let w = mix3(self.model.seed, round, dir as u64);
                to_ticks(lo + unit_f64(w) * (hi - lo))
            }
            LatencyDist::LogNormal { .. } => {
                let w1 = mix3(self.model.seed, round, dir as u64);
                let w2 = mix3(self.model.seed ^ W2_SALT, round, dir as u64);
                // welle-lint: allow(no-lib-unwrap) — invariant: new() populates `lognormal` exactly when the dist is LogNormal
                let ln = self.lognormal.as_ref().expect("built in new()");
                to_ticks(ln.from_words(w1, w2))
            }
        }
    }

    /// Due tick for a message crossing `dir` at `round` with an extra
    /// fault-layer delay of `fault_delay` rounds. Advances the edge's
    /// busy horizon when the service rate is below 1.
    ///
    /// Under the zero model this is exactly `(round + 1 + fault_delay) ·
    /// TICKS_PER_ROUND` — the same arrival round the round engine
    /// computes.
    #[inline]
    pub(crate) fn crossing_due(&mut self, round: u64, dir: u32, fault_delay: u32) -> u64 {
        let base = round.saturating_mul(TICKS_PER_ROUND);
        let start = if self.track_busy {
            let s = base.max(self.busy[dir as usize]);
            self.busy[dir as usize] = s.saturating_add(self.service_ticks);
            s
        } else {
            base
        };
        start
            .saturating_add(self.service_ticks)
            .saturating_add(u64::from(fault_delay).saturating_mul(TICKS_PER_ROUND))
            .saturating_add(self.sample_ticks(round, dir))
    }

    /// Takes over `old`'s parked deliveries and virtual-time span, so
    /// replacing the model keeps every message in flight.
    pub(crate) fn inherit_parked(&mut self, old: LatencyState<M>) {
        self.parked = old.parked;
        self.seq = old.seq;
        self.last_tick = old.last_tick;
    }

    /// Parks a delivery for release at tick `due`.
    pub(crate) fn park(&mut self, due: u64, dir: u32, msg: M) {
        let seq = self.seq;
        self.seq += 1;
        self.parked.push(DelayedMsg { due, seq, dir, msg });
    }

    /// Messages parked beyond the current round boundary (they count as
    /// in flight — termination must not outrun them).
    pub(crate) fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Whether any parked delivery is due by tick `horizon`.
    pub(crate) fn due_now(&self, horizon: u64) -> bool {
        self.parked.peek().is_some_and(|d| d.due <= horizon)
    }

    /// Pops the earliest parked delivery if it is due by tick `horizon`.
    pub(crate) fn pop_due(&mut self, horizon: u64) -> Option<DelayedMsg<M>> {
        if self.parked.peek().is_some_and(|d| d.due <= horizon) {
            self.parked.pop()
        } else {
            None
        }
    }

    /// Round at which the earliest parked delivery is released (the idle
    /// skip jumps here instead of stepping empty rounds).
    pub(crate) fn next_release_round(&self) -> Option<u64> {
        self.parked
            .peek()
            .map(|d| d.due.saturating_sub(1) / TICKS_PER_ROUND)
    }

    /// Records a delivery completing at tick `tick` for the
    /// virtual-time span.
    #[inline]
    pub(crate) fn note_delivered(&mut self, tick: u64) {
        self.last_tick = self.last_tick.max(tick);
    }

    /// Latest delivery completion tick seen.
    pub(crate) fn last_tick(&self) -> u64 {
        self.last_tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(LatencyModel::zero().validate().is_ok());
        assert!(LatencyModel::fixed(2.5).validate().is_ok());
        assert!(LatencyModel::uniform(0.5, 1.5).validate().is_ok());
        assert!(LatencyModel::log_normal(0.0, 0.5).validate().is_ok());

        assert_eq!(
            LatencyModel::fixed(-1.0).validate(),
            Err(LatencyError::BadFixed(-1.0))
        );
        assert!(matches!(
            LatencyModel::fixed(f64::NAN).validate(),
            Err(LatencyError::BadFixed(x)) if x.is_nan()
        ));
        assert!(matches!(
            LatencyModel::uniform(2.0, 1.0).validate(),
            Err(LatencyError::BadUniform { .. })
        ));
        assert!(matches!(
            LatencyModel::uniform(-0.5, 1.0).validate(),
            Err(LatencyError::BadUniform { .. })
        ));
        assert!(matches!(
            LatencyModel::log_normal(f64::INFINITY, 0.5).validate(),
            Err(LatencyError::BadLogNormal { .. })
        ));
        assert!(matches!(
            LatencyModel::log_normal(0.0, -0.1).validate(),
            Err(LatencyError::BadLogNormal { .. })
        ));
        assert_eq!(
            LatencyModel::zero().service_rate(0.0).validate(),
            Err(LatencyError::BadServiceRate(0.0))
        );
        assert_eq!(
            LatencyModel::zero().service_rate(1.5).validate(),
            Err(LatencyError::BadServiceRate(1.5))
        );
    }

    #[test]
    fn zero_model_lands_exactly_on_round_boundaries() {
        let mut st: LatencyState<u64> = LatencyState::new(LatencyModel::zero(), 8);
        for round in [0u64, 1, 7, 1_000_000] {
            for dir in 0..8u32 {
                assert_eq!(
                    st.crossing_due(round, dir, 0),
                    (round + 1) * TICKS_PER_ROUND
                );
            }
        }
        // Fault delay folds in whole rounds, matching the round engine's
        // `due = crossing + delay` release round.
        assert_eq!(st.crossing_due(3, 0, 4), (3 + 1 + 4) * TICKS_PER_ROUND);
    }

    #[test]
    fn fixed_model_shifts_due_by_whole_sample() {
        let mut st: LatencyState<u64> = LatencyState::new(LatencyModel::fixed(1.5), 4);
        // 1.5 rounds = 1536 ticks on top of the one-round service.
        assert_eq!(st.crossing_due(2, 1, 0), 2 * 1024 + 1024 + 1536);
    }

    #[test]
    fn uniform_samples_stay_in_range_and_are_seed_stable() {
        let mut a: LatencyState<u64> =
            LatencyState::new(LatencyModel::uniform(0.5, 2.0).seed(9), 16);
        let mut b: LatencyState<u64> =
            LatencyState::new(LatencyModel::uniform(0.5, 2.0).seed(9), 16);
        for round in 0..50u64 {
            for dir in 0..16u32 {
                let due = a.crossing_due(round, dir, 0);
                assert_eq!(due, b.crossing_due(round, dir, 0), "seed-stable");
                let extra = due - (round + 1) * TICKS_PER_ROUND;
                let lo = to_ticks(0.5);
                let hi = to_ticks(2.0);
                assert!(
                    (lo..=hi).contains(&extra),
                    "round {round} dir {dir}: {extra}"
                );
            }
        }
        // A different seed draws a different schedule.
        let mut c: LatencyState<u64> =
            LatencyState::new(LatencyModel::uniform(0.5, 2.0).seed(10), 16);
        let differs = (0..16u32).any(|dir| c.crossing_due(0, dir, 0) != b.crossing_due(0, dir, 0));
        assert!(differs);
    }

    #[test]
    fn log_normal_samples_are_positive_and_seed_stable() {
        let mut a: LatencyState<u64> =
            LatencyState::new(LatencyModel::log_normal(0.0, 0.5).seed(3), 8);
        let mut b: LatencyState<u64> =
            LatencyState::new(LatencyModel::log_normal(0.0, 0.5).seed(3), 8);
        for round in 0..20u64 {
            for dir in 0..8u32 {
                let due = a.crossing_due(round, dir, 0);
                assert_eq!(due, b.crossing_due(round, dir, 0));
                assert!(due > (round + 1) * TICKS_PER_ROUND, "exp(N) > 0");
            }
        }
    }

    #[test]
    fn service_rate_queues_back_to_back_crossings() {
        // Rate 0.5: each service takes 2 rounds of ticks. Feeding the
        // same edge every round builds a queue — the k-th crossing
        // completes at (k+1)·2 rounds, not k+2.
        let mut st: LatencyState<u64> =
            LatencyState::new(LatencyModel::zero().service_rate(0.5), 2);
        let two_rounds = 2 * TICKS_PER_ROUND;
        assert_eq!(st.crossing_due(0, 0, 0), two_rounds);
        assert_eq!(st.crossing_due(1, 0, 0), 2 * two_rounds);
        assert_eq!(st.crossing_due(2, 0, 0), 3 * two_rounds);
        // An idle gap lets the edge drain: a crossing at round 10 starts
        // fresh.
        assert_eq!(st.crossing_due(10, 0, 0), 10 * TICKS_PER_ROUND + two_rounds);
        // The other edge is independent.
        assert_eq!(st.crossing_due(10, 1, 0), 10 * TICKS_PER_ROUND + two_rounds);
    }

    #[test]
    fn unit_rate_does_not_allocate_busy_tracking() {
        let st: LatencyState<u64> = LatencyState::new(LatencyModel::zero(), 1 << 20);
        assert!(!st.track_busy);
        assert!(st.busy.is_empty());
    }

    #[test]
    fn release_round_is_the_last_boundary_at_or_after_due() {
        let mut st: LatencyState<u64> = LatencyState::new(LatencyModel::zero(), 4);
        // Due exactly on a boundary releases *at* that boundary's round.
        st.park(5 * TICKS_PER_ROUND, 0, 1u64);
        assert_eq!(st.next_release_round(), Some(4));
        assert!(st.pop_due(5 * TICKS_PER_ROUND).is_some());
        // Due just past a boundary waits for the next one.
        st.park(5 * TICKS_PER_ROUND + 1, 0, 2u64);
        assert_eq!(st.next_release_round(), Some(5));
        assert!(st.pop_due(5 * TICKS_PER_ROUND).is_none());
        assert!(st.pop_due(6 * TICKS_PER_ROUND).is_some());
    }

    #[test]
    fn parked_pops_in_due_then_seq_order() {
        let mut st: LatencyState<u64> = LatencyState::new(LatencyModel::zero(), 4);
        st.park(9000, 0, 900);
        st.park(5000, 1, 500);
        st.park(5000, 2, 501);
        st.park(7000, 3, 700);
        assert_eq!(st.parked(), 4);
        let mut order = Vec::new();
        while let Some(d) = st.pop_due(u64::MAX) {
            order.push(d.msg);
        }
        assert_eq!(order, vec![500, 501, 700, 900]);
    }

    #[test]
    fn tick_math_saturates_instead_of_wrapping() {
        let mut st: LatencyState<u64> = LatencyState::new(LatencyModel::zero(), 1);
        // The adaptive driver passes round limits near u64::MAX/4;
        // nothing here may wrap.
        let due = st.crossing_due(u64::MAX / 4, 0, u32::MAX);
        assert_eq!(due, u64::MAX);
        assert_eq!(to_ticks(f64::MAX), u64::MAX);
        assert_eq!(to_ticks(-3.0), 0);
    }
}
