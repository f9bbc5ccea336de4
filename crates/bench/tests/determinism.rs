//! Harness determinism: figure tables and stats-JSON exports must be
//! byte-identical across worker counts and cache warmth.

use dise_bench::figures::{fig6, fig7, fig8};
use dise_bench::{CellCache, Pool, Sweep};
use dise_workloads::Benchmark;

fn sweep(jobs: usize, cache: CellCache) -> Sweep {
    Sweep::new(
        30_000,
        vec![Benchmark::Gcc, Benchmark::Mcf],
        Pool::new(jobs),
        cache,
    )
}

#[test]
fn tables_identical_across_job_counts() {
    // Uncached, so every job count actually simulates: the pool's ordered
    // result collection is what is under test. The panels cover a
    // DISE-MFI sweep (fig6), an RT-configuration compression sweep (fig7)
    // and a composed decompression+MFI sweep (fig8): transparent, aware
    // and compose-on-fill engines plus the engineless baselines. At jobs
    // 8 several worker threads load machines from one image at once and
    // fetch through its one shared predecode table.
    let base = sweep(1, CellCache::disabled());
    let serial = fig6::top(&base);
    let serial_stats = base.stats_json();
    assert!(
        serial_stats.contains("bpred.mispredicts") && serial_stats.contains("sim.cycles"),
        "stats export missing expected counters:\n{serial_stats}"
    );
    let par = sweep(2, CellCache::disabled());
    assert_eq!(serial, fig6::top(&par), "fig6 top diverged at jobs=2");
    assert_eq!(serial_stats, par.stats_json(), "stats JSON diverged at jobs=2");

    let (serial_f7, serial_f8) = (fig7::rt(&base), fig8::rt(&base));
    let serial_stats = base.stats_json();
    let par = sweep(8, CellCache::disabled());
    assert_eq!(serial, fig6::top(&par), "fig6 top diverged at jobs=8");
    assert_eq!(serial_f7, fig7::rt(&par), "fig7 rt diverged at jobs=8");
    assert_eq!(serial_f8, fig8::rt(&par), "fig8 rt diverged at jobs=8");
    assert_eq!(serial_stats, par.stats_json(), "stats JSON diverged at jobs=8");
}

#[test]
fn warm_cache_reproduces_tables_without_resimulating() {
    let dir = std::env::temp_dir().join(format!(
        "dise-determinism-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_sweep = sweep(8, CellCache::at(&dir));
    let cold = fig7::rt(&cold_sweep);
    let (_, cold_misses) = cold_sweep.cache.stats();
    assert!(cold_misses > 0, "cold sweep must simulate");

    let warm_sweep = sweep(1, CellCache::at(&dir));
    let warm = fig7::rt(&warm_sweep);
    assert_eq!(cold, warm, "warm-cache table diverged from cold run");
    assert_eq!(
        cold_sweep.stats_json(),
        warm_sweep.stats_json(),
        "warm-cache stats JSON diverged from cold run"
    );
    let (warm_hits, warm_misses) = warm_sweep.cache.stats();
    assert_eq!(warm_misses, 0, "warm sweep must not re-simulate");
    assert!(warm_hits > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_count_env_values_are_validated() {
    // `DISE_BENCH_JOBS=0` and non-numeric values used to fall back
    // silently to available parallelism; they must be rejected loudly.
    // (Validated through `parse_jobs` — mutating the process environment
    // would race the other tests in this binary.)
    let why = Pool::parse_jobs("0").expect_err("0 jobs must be rejected");
    assert!(why.contains("at least 1"), "unhelpful error: {why}");
    let why = Pool::parse_jobs("lots").expect_err("non-numeric jobs must be rejected");
    assert!(why.contains("positive integer"), "unhelpful error: {why}");
    assert!(why.contains("lots"), "error must echo the bad value: {why}");
    assert_eq!(Pool::parse_jobs("8"), Ok(8));
    assert_eq!(Pool::parse_jobs(" 2 "), Ok(2), "whitespace is tolerated");
}
