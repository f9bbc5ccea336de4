//! Differential conformance suite for the process-wide predecode arena:
//! the same fig6/fig7/fig8 smoke cell set, run with shared predecode
//! tables and with forced-private construction, must produce
//! byte-identical figure tables and stats-JSON exports — at jobs 1 and 8
//! each.
//!
//! One `#[test]` on purpose: the arena switch (`arena::set_share_enabled`)
//! is process-global, so interleaving with a concurrently running sweep
//! would let a "private" sweep hand out shared tables (harmless for
//! results — that is the point — but it would void what this test
//! certifies).

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
fn shared_arena_is_byte_identical_to_private_construction() {
    // Shared-arena runs, serial and fanned out.
    arena::clear();
    let shared_j1 = panels(1);
    let after_j1 = arena::stats();
    assert!(
        after_j1.predecode_builds > 0,
        "sweep machines must populate the arena: {after_j1:?}"
    );
    assert!(
        after_j1.predecode_hits > 0,
        "machines over the same image must share predecode: {after_j1:?}"
    );
    let shared_j8 = panels(8);

    // Forced-private runs: every machine decodes its own table.
    arena::set_share_enabled(false);
    let before_private = arena::stats();
    let private_j1 = panels(1);
    let private_j8 = panels(8);
    assert_eq!(
        arena::stats(),
        before_private,
        "forced-private sweeps must not touch the arena"
    );
    arena::set_share_enabled(true);

    for (name, shared, private) in [
        ("jobs=1", &shared_j1, &private_j1),
        ("jobs=8", &shared_j8, &private_j8),
    ] {
        assert_eq!(shared.0, private.0, "fig6 top diverged ({name})");
        assert_eq!(shared.1, private.1, "fig7 rt diverged ({name})");
        assert_eq!(shared.2, private.2, "fig8 rt diverged ({name})");
        assert_eq!(shared.3, private.3, "stats JSON diverged ({name})");
    }
    // And the fan-out itself is deterministic in both modes.
    assert_eq!(shared_j1, shared_j8, "shared sweep diverged across jobs");
    assert_eq!(private_j1, private_j8, "private sweep diverged across jobs");
}
