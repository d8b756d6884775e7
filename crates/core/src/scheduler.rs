//! The campaign trial scheduler: a work-stealing pool of persistent
//! worker threads running independent (scenario, seed) trials.
//!
//! Trials are seeded and independent, so cross-trial parallelism cannot
//! change any single trial's result — determinism is preserved by
//! *reassembly*: workers complete units in whatever order the host
//! schedules them, results land in a slot table indexed by the
//! campaign's serial trial order, and the calling thread hands the
//! contiguous completed prefix downstream strictly in that order. The
//! observable output (per-trial hooks, streamed CSV rows, summaries) is
//! therefore byte-identical to the serial scenario-major loop at any
//! worker count.
//!
//! Each worker owns a [`PooledEngine`]: the first trial builds a real
//! engine, every later one resets and reuses its arenas (see
//! [`welle_congest::Engine::reset_with`]) — a sweep of thousands of
//! trials performs a handful of engine constructions, not thousands.
//!
//! Work distribution: each worker starts with a contiguous chunk of the
//! unit range in its own deque, pops from the front, and steals from
//! the *back* of the next non-empty victim when it runs dry. No new
//! work is ever produced mid-run, so "every deque empty" is a stable
//! termination condition — no retry loops or sentinel messages needed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks a mutex, recovering from poisoning. A worker panic already
/// trips `worker_died` (re-raised when the scope joins), so the poison
/// flag carries no extra information here — recovering it keeps the
/// drainer alive long enough to surface the *original* panic instead of
/// masking it with a secondary `PoisonError` unwind.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

use crate::runner::PooledEngine;

/// Runs units `0..total` across `workers` threads, invoking
/// `on_complete(unit, result)` on the calling thread in strictly
/// increasing unit order. Returns the number of engines the worker
/// pools actually constructed.
///
/// If a worker panics (a protocol bug), the panic is re-raised here
/// after the surviving workers drain — nothing is swallowed.
pub(crate) fn run_pool<T, R>(
    total: usize,
    workers: usize,
    run_one: R,
    mut on_complete: impl FnMut(usize, T),
) -> usize
where
    T: Send,
    R: Fn(&mut PooledEngine, usize) -> T + Sync,
{
    let workers = workers.max(1).min(total.max(1));
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((total * w / workers..total * (w + 1) / workers).collect()))
        .collect();
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..total).map(|_| None).collect());
    let ready = Condvar::new();
    let worker_died = AtomicBool::new(false);
    let engines_built = Mutex::new(0usize);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let (queues, slots, ready) = (&queues, &slots, &ready);
            let (worker_died, engines_built, run_one) = (&worker_died, &engines_built, &run_one);
            scope.spawn(move || {
                // Wake the drainer even if this worker panics, so it
                // stops waiting and the scope can re-raise the panic.
                struct Bail<'a> {
                    died: &'a AtomicBool,
                    ready: &'a Condvar,
                }
                impl Drop for Bail<'_> {
                    fn drop(&mut self) {
                        if std::thread::panicking() {
                            self.died.store(true, Ordering::SeqCst);
                            self.ready.notify_all();
                        }
                    }
                }
                let _bail = Bail {
                    died: worker_died,
                    ready,
                };
                let mut pool = PooledEngine::new();
                loop {
                    let mut unit = lock_recovering(&queues[w]).pop_front();
                    if unit.is_none() {
                        for v in 1..workers {
                            let victim = (w + v) % workers;
                            if let Some(u) = lock_recovering(&queues[victim]).pop_back() {
                                unit = Some(u);
                                break;
                            }
                        }
                    }
                    let Some(u) = unit else { break };
                    let result = run_one(&mut pool, u);
                    lock_recovering(slots)[u] = Some(result);
                    ready.notify_all();
                }
                *lock_recovering(engines_built) += pool.built;
            });
        }

        // Drain completions in unit order on the calling thread: the
        // contiguous completed prefix is released as it forms, outside
        // the lock (hooks and sink writes may be slow).
        let mut cursor = 0usize;
        while cursor < total {
            let mut batch = Vec::new();
            {
                let mut guard = lock_recovering(&slots);
                loop {
                    while cursor < total {
                        let Some(result) = guard[cursor].take() else {
                            break;
                        };
                        batch.push((cursor, result));
                        cursor += 1;
                    }
                    if !batch.is_empty() || cursor >= total || worker_died.load(Ordering::SeqCst) {
                        break;
                    }
                    let (g, _timeout) = ready
                        .wait_timeout(guard, Duration::from_millis(100))
                        .unwrap_or_else(PoisonError::into_inner);
                    guard = g;
                }
            }
            for (unit, result) in batch {
                on_complete(unit, result);
            }
            if worker_died.load(Ordering::SeqCst) {
                break; // the scope join below re-raises the panic
            }
        }
    });
    let built = *lock_recovering(&engines_built);
    built
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn completions_arrive_in_unit_order_for_any_worker_count() {
        for workers in [1usize, 2, 3, 7] {
            let mut seen = Vec::new();
            let built = run_pool(
                20,
                workers,
                |_pool, u| u * 10,
                |u, r| {
                    assert_eq!(r, u * 10);
                    seen.push(u);
                },
            );
            assert_eq!(seen, (0..20).collect::<Vec<_>>(), "workers = {workers}");
            // No trial ran an engine, so none were built.
            assert_eq!(built, 0);
        }
    }

    #[test]
    fn every_unit_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        run_pool(
            100,
            4,
            |_pool, _u| {
                counter.fetch_add(1, Ordering::SeqCst);
            },
            |_, _| {},
        );
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn zero_units_is_a_no_op() {
        let built = run_pool(0, 4, |_pool, u| u, |_, _| panic!("nothing to complete"));
        assert_eq!(built, 0);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            run_pool(
                8,
                2,
                |_pool, u| {
                    if u == 5 {
                        panic!("trial bug");
                    }
                    u
                },
                |_, _| {},
            )
        });
        assert!(result.is_err(), "a worker panic must not be swallowed");
    }
}
