//! The metrics the benchmark reports, and the result line it prints
//! last.
//!
//! The tables here must list the same names, units and directions as
//! `BENCHMARK.json` (a test holds them together).

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric: its name, unit and direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed in the result line.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the library sees. Reported by untraced runs only.
pub const END_TO_END: [MetricDef; 6] = [
    m("elections_per_s", "elections/s", Higher),
    m("setup_s", "s", Lower),
    m("peak_heap_mib", "MiB", Lower),
    m("messages", "msgs/election", Lower),
    m("rounds", "rounds/election", Lower),
    m("success_rate", "fraction", Higher),
];

/// One layer each, named after its module. Reported by traced runs
/// only. Times and counts are totals over the traced elections unless
/// the unit says otherwise.
pub const PER_LAYER: [MetricDef; 42] = [
    m("graph.gen_s", "s", Lower),
    m("runner.outside_round_s", "s", Lower),
    m("engine.round_s", "s", Lower),
    m("engine.active_rounds", "count", Lower),
    m("engine.self_s", "s", Lower),
    m("protocol.callbacks_s", "s", Lower),
    m("protocol.callbacks", "count", Lower),
    m("protocol.ns_per_callback", "ns", Lower),
    m("protocol.epochs", "epochs/election", Lower),
    m("protocol.final_walk_len", "steps/election", Lower),
    m("protocol.contenders", "count", Lower),
    m("protocol.gave_up", "count", Lower),
    m("protocol.decided_share", "fraction", Higher),
    m("protocol.dropped_tokens", "count", Lower),
    m("protocol.broken_routes", "count", Lower),
    m("phase.walk.rounds", "count", Lower),
    m("phase.r1.rounds", "count", Lower),
    m("phase.r2.rounds", "count", Lower),
    m("phase.r3.rounds", "count", Lower),
    m("phase.wait.rounds", "count", Lower),
    m("phase.walk.msgs", "count", Lower),
    m("phase.r1.msgs", "count", Lower),
    m("phase.r2.msgs", "count", Lower),
    m("phase.r3.msgs", "count", Lower),
    m("phase.wait.msgs", "count", Lower),
    m("deliver.deliver_s", "s", Lower),
    m("deliver.messages", "count", Lower),
    m("deliver.ns_per_msg", "ns", Lower),
    m("queues.peak_arena_slots", "slots", Lower),
    m("queues.max_backlog", "msgs", Lower),
    m("queues.congested_share", "fraction", Lower),
    m("faults.filter_s", "s", Lower),
    m("faults.filtered", "count", Lower),
    m("faults.dropped", "count", Lower),
    m("latency.heap_s", "s", Lower),
    m("latency.heap_events", "count", Lower),
    m("latency.parked_max", "msgs", Lower),
    m("latency.parked_per_round", "msgs/round", Lower),
    m("scheduler.engines_built", "count", Lower),
    m("scheduler.busy_share", "fraction", Higher),
    m("scheduler.scaling", "ratio", Higher),
    m("trace.overhead", "fraction", Lower),
];

/// The last line of a run: a JSON object with `correct`, `attempted`,
/// `failed` and one `{value, unit}` entry per metric, in `defs` order.
///
/// Every metric in `defs` must have a value in `values`, and every value
/// must be finite; otherwise the line reports `correct: false`, since a
/// missing or non-finite metric is a defect of the run.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[(&str, f64)],
) -> String {
    let mut correct = correct;
    let mut body = String::new();
    for (i, d) in defs.iter().enumerate() {
        let value = match values.iter().find(|(n, _)| *n == d.name) {
            Some(&(_, v)) if v.is_finite() => v,
            _ => {
                correct = false;
                0.0
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        // Writing to a String cannot fail.
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}
