//! Shared predecode tables under concurrency: the same fig6/fig7/fig8
//! smoke cell set, run at jobs 1 and 8, must produce byte-identical figure
//! tables and stats-JSON exports. At jobs 8 several worker threads load
//! machines from one image at once and fetch through its one table (that
//! they share it is asserted in `crates/sim/tests/predecode_ownership.rs`).

use dise_bench::figures::{fig6, fig7, fig8};
use dise_bench::{CellCache, Pool, Sweep};
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
fn shared_tables_keep_sweeps_byte_identical_across_jobs() {
    let j1 = panels(1);
    let j8 = panels(8);
    assert_eq!(j1.0, j8.0, "fig6 top diverged across jobs");
    assert_eq!(j1.1, j8.1, "fig7 rt diverged across jobs");
    assert_eq!(j1.2, j8.2, "fig8 rt diverged across jobs");
    assert_eq!(j1.3, j8.3, "stats JSON diverged across jobs");
}
