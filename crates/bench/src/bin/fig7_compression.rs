//! Figure 7 — dynamic code decompression.
//!
//! Panels (pass one or more as arguments; default: all):
//!
//! * `ratio` — static compression ratio (code, and code+dictionary) for
//!   the six-configuration feature walk: dedicated, −1insn, −2byteCW,
//!   +8byteDE, +3param, full DISE (with PC-relative branch compression).
//! * `perf`  — execution time of DISE decompression across I-cache sizes
//!   (8KB, 32KB, 128KB, perfect), normalized to the uncompressed 32KB
//!   run; perfect RT.
//! * `rt`    — execution time vs. RT configuration (512/2K entries ×
//!   direct-mapped/2-way, vs. perfect), 30-cycle miss penalty, 8KB I$.
//!
//! Cells fan out across `DISE_BENCH_JOBS` workers and are cached under
//! `results/cache/` (`DISE_BENCH_CACHE`).

//!
//! Shared telemetry flags: `--trace` / `--trace-last N` arm the per-run
//! event ring and deadlock watchdog (dump on anomaly); `--stats-json
//! PATH` exports every cell's stats-registry snapshot as JSON.
use dise_bench::figures::fig7;

fn main() {
    dise_bench::figure_main(
        "fig7",
        &[
            ("ratio", fig7::ratio),
            ("perf", fig7::perf),
            ("rt", fig7::rt),
        ],
    );
}
