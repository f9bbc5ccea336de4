//! A hand-rolled scoped worker pool for the figure harness.
//!
//! The experiment sweeps are embarrassingly parallel: every (benchmark ×
//! scenario × config) cell is an independent simulation. This pool fans a
//! slice of jobs across `std::thread::scope` workers pulling from a shared
//! atomic queue — no crates.io dependencies, which keeps the workspace
//! building offline. Results come back **in item order** regardless of
//! which worker ran what, so harness output is deterministic across job
//! counts (asserted by `tests/determinism.rs`).
//!
//! Worker panics propagate to the caller: the scope joins every worker
//! and re-raises the first panic payload, so a failing cell fails the
//! sweep loudly instead of producing a truncated table.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-size worker pool. `jobs == 1` runs everything inline on the
/// calling thread (no spawns), which is the deterministic baseline the
/// parallel runs are compared against.
#[derive(Debug, Clone)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn new(jobs: usize) -> Pool {
        Pool { jobs: jobs.max(1) }
    }

    /// Validates a `DISE_BENCH_JOBS` value: a positive integer.
    /// Rejecting instead of silently falling back matters because a bad
    /// value (a typo, or `0` intending "auto") would otherwise run at
    /// whatever `available_parallelism` says — a different parallelism
    /// than the user asked for, with no indication anything was wrong.
    pub fn parse_jobs(v: &str) -> Result<usize, String> {
        match v.trim().parse::<usize>() {
            Ok(0) => Err("DISE_BENCH_JOBS must be at least 1 (got 0); unset it to use the host's available parallelism".to_string()),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("DISE_BENCH_JOBS must be a positive integer, got {v:?}")),
        }
    }

    /// A pool sized from the environment: `DISE_BENCH_JOBS` if set
    /// (rejected loudly if invalid — see [`Pool::parse_jobs`]), otherwise
    /// the machine's available parallelism.
    ///
    /// # Errors
    ///
    /// If `DISE_BENCH_JOBS` is set but is not a positive integer.
    pub fn from_env() -> Result<Pool, String> {
        let jobs = match std::env::var("DISE_BENCH_JOBS") {
            Ok(v) => Pool::parse_jobs(&v)?,
            Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        Ok(Pool::new(jobs))
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, fanning across up to `jobs` workers
    /// (including the calling thread), and returns the results in item
    /// order.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all workers have stopped.
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run_observed(items, &NoObserver, f)
    }

    /// [`Pool::run`] with scheduling visibility: `observer` hears when
    /// each item is claimed by a worker and when it completes, from the
    /// worker's own thread. This powers `dise_serve`'s heartbeats —
    /// in-flight counts come from the pool's actual claim order, not a
    /// guess — without perturbing scheduling: observers run outside the
    /// result lock and must be cheap and non-blocking.
    pub fn run_observed<T, R, F>(&self, items: &[T], observer: &dyn RunObserver, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.jobs == 1 || n <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    observer.started(i);
                    let r = f(i, t);
                    observer.finished(i);
                    r
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let worker = || {
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                observer.started(i);
                let r = f(i, &items[i]);
                *results[i].lock().expect("result slot poisoned") = Some(r);
                observer.finished(i);
            }
        };
        std::thread::scope(|s| {
            let spawned: Vec<_> = (1..self.jobs.min(n))
                .map(|_| s.spawn(worker))
                .collect();
            // The calling thread is worker 0.
            worker();
            for h in spawned {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job index was claimed and completed")
            })
            .collect()
    }
}

/// Hears pool scheduling events from worker threads (see
/// [`Pool::run_observed`]). Both hooks default to no-ops so observers
/// implement only what they need.
pub trait RunObserver: Sync {
    /// Item `index` was claimed by a worker and is about to run.
    fn started(&self, index: usize) {
        let _ = index;
    }
    /// Item `index` finished and its result is recorded.
    fn finished(&self, index: usize) {
        let _ = index;
    }
}

/// The do-nothing observer behind plain [`Pool::run`].
struct NoObserver;

impl RunObserver for NoObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        // Stagger job durations so completion order differs from item
        // order; the result vector must still line up with the input.
        let items: Vec<u64> = (0..64).collect();
        for jobs in [1, 2, 8] {
            let out = Pool::new(jobs).run(&items, |i, &x| {
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                x * x
            });
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
        let out = Pool::new(0).run(&[1, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = Pool::new(4).run(&[] as &[u32], |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn observer_sees_every_start_and_finish() {
        struct Counting {
            started: AtomicUsize,
            finished: AtomicUsize,
            in_flight_max: AtomicUsize,
            in_flight: AtomicUsize,
        }
        impl RunObserver for Counting {
            fn started(&self, _index: usize) {
                self.started.fetch_add(1, Ordering::SeqCst);
                let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                self.in_flight_max.fetch_max(now, Ordering::SeqCst);
            }
            fn finished(&self, _index: usize) {
                self.finished.fetch_add(1, Ordering::SeqCst);
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }
        for jobs in [1, 4] {
            let obs = Counting {
                started: AtomicUsize::new(0),
                finished: AtomicUsize::new(0),
                in_flight_max: AtomicUsize::new(0),
                in_flight: AtomicUsize::new(0),
            };
            let items: Vec<u32> = (0..16).collect();
            let out = Pool::new(jobs).run_observed(&items, &obs, |_, &x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(obs.started.load(Ordering::SeqCst), 16, "jobs={jobs}");
            assert_eq!(obs.finished.load(Ordering::SeqCst), 16, "jobs={jobs}");
            assert_eq!(obs.in_flight.load(Ordering::SeqCst), 0);
            assert!(obs.in_flight_max.load(Ordering::SeqCst) <= jobs.max(1));
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).run(&items, |_, &x| {
                if x == 17 {
                    panic!("cell 17 exploded");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("cell 17 exploded"), "payload: {msg}");
    }
}
