//! Phase-aware, per-round telemetry: a deterministic time series over
//! simulated rounds, per-phase aggregation, and a span profiler over
//! the engine's internal stages.
//!
//! Telemetry follows the fault layer's design exactly: the engine holds
//! an `Option<Box<TelemetryState>>` and branches on it **once per
//! round**, so a run without telemetry pays a single null check and
//! allocates nothing — the hot path is untouched. With telemetry
//! installed ([`Engine::set_telemetry`](crate::Engine::set_telemetry)),
//! every *active* round (exactly the rounds counted in
//! [`Metrics::active_rounds`](crate::Metrics::active_rounds); idle
//! stretches are skipped, never sampled) appends one [`RoundSample`]
//! built purely from simulation state. Because every field is a pure
//! function of `(graph, protocols, seed, plan, model)`, the sample
//! stream is **byte-identical across executors** — serial, sharded at
//! any thread count, and async under the zero model — which the
//! differential suites fence.
//!
//! Two kinds of numbers live here and are kept strictly apart:
//!
//! * **deterministic counters** — rounds, messages, bits, active nodes,
//!   backlog, parked-heap depth, virtual-time ticks. These are part of
//!   the replayable record and safe to assert on.
//! * **wall-clock nanoseconds** — collected only by the opt-in span
//!   profiler ([`TelemetryConfig::profile`]), never fed back into
//!   simulation state, and reported in a separate field
//!   ([`SpanStats::wall_ns`]) so no downstream consumer can mistake
//!   them for replayable data. The profiler's *counts* (entries,
//!   events) are deterministic; only its nanoseconds vary run to run.
//!
//! Phase attribution: protocols may report a small integer phase tag
//! through [`Protocol::phase_tag`](crate::Protocol::phase_tag) (the
//! phase-observer hook). After each node callback the engine pulls the
//! hook and merges tags seen this round by maximum — an order-free
//! reduction, so executors cannot disagree — and the merged tag becomes
//! the round's phase, persisting until some later round publishes a new
//! one. Rounds before the first publish carry `phase: None`.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// How many samples the telemetry layer retains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Retention {
    /// Keep every sample (memory grows with active rounds).
    Full,
    /// Keep only the most recent `k` samples, evicting the oldest.
    /// `Ring(0)` retains nothing — per-phase totals still accumulate,
    /// which is the cheapest way to get a phase table without a log.
    Ring(usize),
}

/// Configuration for the telemetry layer (see
/// [`Engine::set_telemetry`](crate::Engine::set_telemetry)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Sample retention policy.
    pub retention: Retention,
    /// Whether to run the span profiler (adds wall-clock reads; the
    /// deterministic stream is unaffected).
    pub profile: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            retention: Retention::Full,
            profile: false,
        }
    }
}

impl TelemetryConfig {
    /// Full retention, no profiler.
    pub fn full() -> Self {
        TelemetryConfig::default()
    }

    /// Ring retention of the last `k` samples, no profiler.
    pub fn ring(k: usize) -> Self {
        TelemetryConfig {
            retention: Retention::Ring(k),
            ..TelemetryConfig::default()
        }
    }

    /// Enables the span profiler.
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }
}

/// One active round of the simulation, as observed by the telemetry
/// layer. Every field is deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundSample {
    /// The simulated round this sample describes.
    pub round: u64,
    /// Phase tag in effect this round (see
    /// [`Protocol::phase_tag`](crate::Protocol::phase_tag)); `None`
    /// before the first publish.
    pub phase: Option<u8>,
    /// Messages delivered this round.
    pub messages: u64,
    /// Payload bits delivered this round.
    pub bits: u64,
    /// Nodes whose protocol callbacks ran this round.
    pub active_nodes: u64,
    /// Deepest edge backlog observed this round (0 when no edge queued).
    pub max_backlog: u64,
    /// Messages dropped by the fault layer this round.
    pub dropped: u64,
    /// Messages parked on the latency heap (latency or fault delay) at
    /// round end.
    pub parked: u64,
    /// Virtual-time tick at the round's end boundary.
    pub tick: u64,
}

/// Per-phase aggregate totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Active rounds attributed to the phase.
    pub rounds: u64,
    /// Messages delivered during the phase.
    pub messages: u64,
    /// Payload bits delivered during the phase.
    pub bits: u64,
}

/// The engine stages the span profiler covers. `Round` is the root
/// span; the others nest under it ([`SpanStage::parent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanStage {
    /// One whole simulated round.
    Round,
    /// Protocol callbacks (start-up, inbox, wake-up, signal handlers).
    Callbacks,
    /// The transmission phase: queue pops, fresh sends, inbox pushes.
    Deliver,
    /// The fault filter inside delivery (cuts, crashes, drops, delays),
    /// while a fault plan is installed.
    FaultFilter,
    /// The latency heap's releases inside delivery, while a latency
    /// layer is installed.
    LatencyHeap,
}

/// All stages, in reporting order (parents before children).
pub const SPAN_STAGES: [SpanStage; 5] = [
    SpanStage::Round,
    SpanStage::Callbacks,
    SpanStage::Deliver,
    SpanStage::FaultFilter,
    SpanStage::LatencyHeap,
];

impl SpanStage {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SpanStage::Round => "round",
            SpanStage::Callbacks => "callbacks",
            SpanStage::Deliver => "deliver",
            SpanStage::FaultFilter => "fault_filter",
            SpanStage::LatencyHeap => "latency_heap",
        }
    }

    /// The enclosing stage, if any (spans form a fixed hierarchy).
    pub fn parent(self) -> Option<SpanStage> {
        match self {
            SpanStage::Round => None,
            SpanStage::Callbacks | SpanStage::Deliver => Some(SpanStage::Round),
            SpanStage::FaultFilter | SpanStage::LatencyHeap => Some(SpanStage::Deliver),
        }
    }

    fn index(self) -> usize {
        match self {
            SpanStage::Round => 0,
            SpanStage::Callbacks => 1,
            SpanStage::Deliver => 2,
            SpanStage::FaultFilter => 3,
            SpanStage::LatencyHeap => 4,
        }
    }
}

/// Aggregated statistics of one profiler span. `entries` and `events`
/// are deterministic; `wall_ns` is wall-clock and excluded from every
/// determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanStats {
    /// Which stage.
    pub stage: SpanStage,
    /// Times the stage ran (deterministic).
    pub entries: u64,
    /// Work items the stage processed — callbacks run, messages
    /// delivered, messages filtered/released (deterministic).
    pub events: u64,
    /// Total wall-clock nanoseconds spent in the stage. **Not**
    /// deterministic; never compared or fed back into the simulation.
    pub wall_ns: u64,
}

/// Everything a telemetry-enabled run recorded, extracted with
/// [`Engine::take_telemetry`](crate::Engine::take_telemetry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Retained samples, oldest first.
    pub samples: Vec<RoundSample>,
    /// Samples recorded over the whole run, including any evicted by
    /// ring retention.
    pub total_samples: u64,
    /// Per-phase totals, ordered `None` first then by ascending tag.
    pub phases: Vec<(Option<u8>, PhaseTotals)>,
    /// Span profiler output, present iff [`TelemetryConfig::profile`].
    pub profile: Option<Vec<SpanStats>>,
}

impl TelemetryReport {
    /// Totals for phase `tag`, zero if the phase never ran.
    pub fn phase(&self, tag: Option<u8>) -> PhaseTotals {
        self.phases
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| *p)
            .unwrap_or_default()
    }
}

/// Per-round flow counters handed from the transmitter to the
/// telemetry layer (the same quantities it folds into `Metrics`, but
/// scoped to one round).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RoundFlow {
    pub(crate) messages: u64,
    pub(crate) bits: u64,
    pub(crate) dropped: u64,
    pub(crate) max_backlog: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct SpanAcc {
    entries: u64,
    events: u64,
    wall_ns: u64,
}

#[derive(Debug, Default)]
struct SpanProfiler {
    accs: [SpanAcc; SPAN_STAGES.len()],
}

/// Runtime telemetry state, boxed behind the engine's single
/// `Option` branch (mirroring the fault and latency layers).
#[derive(Debug)]
pub(crate) struct TelemetryState {
    cfg: TelemetryConfig,
    samples: VecDeque<RoundSample>,
    total: u64,
    cur_phase: Option<u8>,
    phases: BTreeMap<Option<u8>, PhaseTotals>,
    profiler: Option<SpanProfiler>,
}

impl TelemetryState {
    pub(crate) fn new(cfg: TelemetryConfig) -> Self {
        TelemetryState {
            cfg,
            samples: VecDeque::new(),
            total: 0,
            cur_phase: None,
            phases: BTreeMap::new(),
            profiler: cfg.profile.then(SpanProfiler::default),
        }
    }

    /// Starts timing a stage. Returns `None` (and reads no clock) when
    /// the profiler is off — wall time never leaks into unprofiled runs.
    #[inline]
    pub(crate) fn begin(&mut self, _stage: SpanStage) -> Option<Instant> {
        // welle-lint: allow(no-ambient-entropy) — profiler wall-clock: read only when profiling is on, stored only in SpanStats::wall_ns, never fed back into simulation state
        self.profiler.as_ref().map(|_| Instant::now())
    }

    /// Ends a stage started by [`TelemetryState::begin`], crediting
    /// `events` deterministic work items to it.
    #[inline]
    pub(crate) fn end(&mut self, stage: SpanStage, started: Option<Instant>, events: u64) {
        if let (Some(p), Some(t0)) = (self.profiler.as_mut(), started) {
            let acc = &mut p.accs[stage.index()];
            acc.entries += 1;
            acc.events += events;
            let ns = t0.elapsed().as_nanos();
            acc.wall_ns = acc
                .wall_ns
                .saturating_add(u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }

    /// Records one active round: applies the round's published phase
    /// tag (if any), appends the sample per the retention policy, and
    /// folds the flow into the per-phase totals.
    pub(crate) fn end_round(
        &mut self,
        round: u64,
        published: Option<u8>,
        active_nodes: u64,
        flow: &RoundFlow,
        parked: u64,
        tick: u64,
    ) {
        if published.is_some() {
            self.cur_phase = published;
        }
        let totals = self.phases.entry(self.cur_phase).or_default();
        totals.rounds += 1;
        totals.messages += flow.messages;
        totals.bits += flow.bits;
        let sample = RoundSample {
            round,
            phase: self.cur_phase,
            messages: flow.messages,
            bits: flow.bits,
            active_nodes,
            max_backlog: flow.max_backlog,
            dropped: flow.dropped,
            parked,
            tick,
        };
        self.total += 1;
        match self.cfg.retention {
            Retention::Full => self.samples.push_back(sample),
            Retention::Ring(0) => {}
            Retention::Ring(k) => {
                if self.samples.len() == k {
                    self.samples.pop_front();
                }
                self.samples.push_back(sample);
            }
        }
    }

    /// Drains the state into its report.
    pub(crate) fn into_report(self) -> TelemetryReport {
        TelemetryReport {
            samples: self.samples.into(),
            total_samples: self.total,
            phases: self.phases.into_iter().collect(),
            profile: self.profiler.map(|p| {
                SPAN_STAGES
                    .iter()
                    .map(|&stage| {
                        let acc = p.accs[stage.index()];
                        SpanStats {
                            stage,
                            entries: acc.entries,
                            events: acc.events,
                            wall_ns: acc.wall_ns,
                        }
                    })
                    .collect()
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(messages: u64, bits: u64) -> RoundFlow {
        RoundFlow {
            messages,
            bits,
            dropped: 0,
            max_backlog: 0,
        }
    }

    #[test]
    fn ring_retention_evicts_oldest_but_totals_survive() {
        let mut t = TelemetryState::new(TelemetryConfig::ring(2));
        for r in 0..5 {
            t.end_round(r, None, 1, &flow(1, 8), 0, 0);
        }
        let rep = t.into_report();
        assert_eq!(rep.total_samples, 5);
        let rounds: Vec<u64> = rep.samples.iter().map(|s| s.round).collect();
        assert_eq!(rounds, vec![3, 4]);
        assert_eq!(rep.phase(None).rounds, 5);
        assert_eq!(rep.phase(None).messages, 5);
    }

    #[test]
    fn ring_zero_keeps_totals_only() {
        let mut t = TelemetryState::new(TelemetryConfig::ring(0));
        t.end_round(0, Some(1), 1, &flow(3, 24), 0, 0);
        let rep = t.into_report();
        assert!(rep.samples.is_empty());
        assert_eq!(rep.total_samples, 1);
        assert_eq!(rep.phase(Some(1)).messages, 3);
    }

    #[test]
    fn phase_persists_until_republished() {
        let mut t = TelemetryState::new(TelemetryConfig::full());
        t.end_round(0, None, 1, &flow(1, 1), 0, 0); // pre-phase
        t.end_round(1, Some(0), 1, &flow(1, 1), 0, 0); // Walk
        t.end_round(2, None, 1, &flow(1, 1), 0, 0); // still Walk
        t.end_round(3, Some(2), 1, &flow(1, 1), 0, 0); // R2
        let rep = t.into_report();
        let phases: Vec<Option<u8>> = rep.samples.iter().map(|s| s.phase).collect();
        assert_eq!(phases, vec![None, Some(0), Some(0), Some(2)]);
        assert_eq!(rep.phase(Some(0)).rounds, 2);
        assert_eq!(rep.phase(Some(2)).rounds, 1);
        assert_eq!(rep.phase(None).rounds, 1);
        // Report order: None first, then ascending tags.
        let order: Vec<Option<u8>> = rep.phases.iter().map(|(t, _)| *t).collect();
        assert_eq!(order, vec![None, Some(0), Some(2)]);
    }

    #[test]
    fn profiler_counts_are_deterministic_and_separate_from_wall_ns() {
        let mut t = TelemetryState::new(TelemetryConfig::full().with_profile());
        let s = t.begin(SpanStage::Round);
        assert!(s.is_some(), "profiling on: a start instant is taken");
        t.end(SpanStage::Round, s, 7);
        let rep = t.into_report();
        let spans = rep.profile.expect("profile was enabled");
        assert_eq!(spans.len(), SPAN_STAGES.len());
        let round = &spans[SpanStage::Round.index()];
        assert_eq!((round.entries, round.events), (1, 7));
        // Unentered stages report zero.
        let cb = &spans[SpanStage::Callbacks.index()];
        assert_eq!((cb.entries, cb.events, cb.wall_ns), (0, 0, 0));
    }

    #[test]
    fn profiler_off_reads_no_clock() {
        let mut t = TelemetryState::new(TelemetryConfig::full());
        assert!(t.begin(SpanStage::Deliver).is_none());
        t.end(SpanStage::Deliver, None, 5); // no-op
        assert!(t.into_report().profile.is_none());
    }

    #[test]
    fn stage_hierarchy_is_fixed() {
        assert_eq!(SpanStage::Round.parent(), None);
        assert_eq!(SpanStage::Callbacks.parent(), Some(SpanStage::Round));
        assert_eq!(SpanStage::Deliver.parent(), Some(SpanStage::Round));
        assert_eq!(SpanStage::FaultFilter.parent(), Some(SpanStage::Deliver));
        assert_eq!(SpanStage::LatencyHeap.parent(), Some(SpanStage::Deliver));
    }
}
