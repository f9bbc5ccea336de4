//! Figure 8 — composing decompression and fault isolation.
//!
//! Panels (pass one or more as arguments; default: all):
//!
//! * `cache` — the three implementation combinations across I-cache sizes
//!   (8KB, 32KB, 128KB, perfect), normalized to the unmodified program on
//!   a 32KB I$, with a perfect RT:
//!   1. binary-rewriting MFI + dedicated decompression,
//!   2. binary-rewriting MFI + DISE decompression,
//!   3. DISE MFI + DISE decompression (composed productions).
//! * `rt`    — DISE+DISE across RT configurations (512/2K ×
//!   direct-mapped/2-way), with the composition performed eagerly
//!   (30-cycle misses) vs. in the RT miss handler (150-cycle composing
//!   misses), normalized to perfect-RT eager composition. 8KB I$.
//!
//! Cells fan out across `DISE_BENCH_JOBS` workers and are cached under
//! `results/cache/` (`DISE_BENCH_CACHE`).

//!
//! Shared telemetry flags: `--trace` / `--trace-last N` arm the per-run
//! event ring and deadlock watchdog (dump on anomaly); `--stats-json
//! PATH` exports every cell's stats-registry snapshot as JSON.
use dise_bench::figures::fig8;

fn main() {
    dise_bench::figure_main("fig8", &[("cache", fig8::cache), ("rt", fig8::rt)]);
}
