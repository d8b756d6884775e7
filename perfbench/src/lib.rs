//! End-to-end and per-layer benchmark of the welle election library.
//!
//! Each workload runs a fixed set of elections through the public API
//! (`welle_graph` generators, `Election` and `Campaign`: the calls the
//! `welle` CLI makes), checks every result, and reports metrics by name
//! and unit. An untraced run gives the end-to-end metrics: it times
//! every election in each of three passes and counts its fastest. A
//! traced run repeats the elections with the span profiler and
//! per-round samples on, and gives the per-layer split. See `main.rs` for the command
//! line and `workloads.json` for the workload records.

pub mod heap;
pub mod host;
pub mod metrics;
pub mod run;
pub mod workloads;

use std::time::Instant;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The benchmark's clock. Timings are reported, never fed into an
/// election, so runs stay a function of their seeds.
pub fn now() -> Instant {
    // welle-lint: allow(no-ambient-entropy) — benchmark timers never reach simulation state
    Instant::now()
}
