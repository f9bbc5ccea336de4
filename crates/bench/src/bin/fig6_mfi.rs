//! Figure 6 — memory fault isolation: DISE vs. binary rewriting.
//!
//! Panels (pass one or more as arguments; default: all):
//!
//! * `top`   — normalized execution time on the baseline machine (4-wide,
//!   32KB I$) for: binary rewriting, DISE4 (free), DISE +stall, DISE
//!   +pipe, DISE3 (free).
//! * `cache` — DISE3 vs. rewriting across I-cache sizes (8KB, 32KB,
//!   128KB, perfect), normalized per cache size to the MFI-free run.
//! * `width` — DISE3 vs. rewriting across processor widths (2, 4, 8, 16)
//!   at 32KB I$.
//!
//! All values are execution time normalized to the corresponding
//! fault-isolation-free configuration (paper §4.1). Cells fan out across
//! `DISE_BENCH_JOBS` workers and are cached under `results/cache/`
//! (`DISE_BENCH_CACHE`).

//!
//! Shared telemetry flags: `--trace` / `--trace-last N` arm the per-run
//! event ring and deadlock watchdog (dump on anomaly); `--stats-json
//! PATH` exports every cell's stats-registry snapshot as JSON.
use dise_bench::figures::fig6;

fn main() {
    dise_bench::figure_main(
        "fig6",
        &[
            ("top", fig6::top),
            ("cache", fig6::cache),
            ("width", fig6::width),
        ],
    );
}
