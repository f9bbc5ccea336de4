//! Conformance suite for the process-wide predecode arena: the same
//! fig6/fig7/fig8 smoke cell set, run at jobs 1 and 8 over shared
//! predecode tables, must produce byte-identical figure tables and
//! stats-JSON exports, and the sweep must both build tables and share
//! them.
//!
//! One `#[test]` on purpose: the arena's counters are process-global, so
//! a concurrently running sweep would blur what this test measures.

use dise_bench::figures::{fig6, fig7, fig8};
use dise_bench::{CellCache, Pool, Sweep};
use dise_sim::arena;
use dise_workloads::Benchmark;

/// The smoke panel set: one panel per figure, capturing a DISE-MFI sweep
/// (fig6), an RT-configuration compression sweep (fig7) and a composed
/// decompression+MFI sweep (fig8) — together they exercise transparent,
/// aware, and compose-on-fill engines plus the engineless baselines.
fn panels(jobs: usize) -> (String, String, String, String) {
    let sweep = Sweep::new(
        20_000,
        vec![Benchmark::Gcc, Benchmark::Mcf],
        Pool::new(jobs),
        CellCache::disabled(),
    );
    let f6 = fig6::top(&sweep);
    let f7 = fig7::rt(&sweep);
    let f8 = fig8::rt(&sweep);
    let stats = sweep.stats_json();
    (f6, f7, f8, stats)
}

#[test]
fn shared_arena_sweeps_are_byte_identical_across_jobs() {
    arena::clear();
    let j1 = panels(1);
    let after_j1 = arena::stats();
    assert!(
        after_j1.predecode_builds > 0,
        "sweep machines must populate the arena: {after_j1:?}"
    );
    assert!(
        after_j1.predecode_hits > 0,
        "machines over the same image must share predecode: {after_j1:?}"
    );
    let j8 = panels(8);
    assert_eq!(j1.0, j8.0, "fig6 top diverged across jobs");
    assert_eq!(j1.1, j8.1, "fig7 rt diverged across jobs");
    assert_eq!(j1.2, j8.2, "fig8 rt diverged across jobs");
    assert_eq!(j1.3, j8.3, "stats JSON diverged across jobs");
}
