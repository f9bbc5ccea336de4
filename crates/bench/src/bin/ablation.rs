//! Ablations over the DISE design space beyond the paper's figures:
//!
//! * `mfi`  — fault-isolation formulation × engine placement matrix:
//!   segment matching (DISE3/DISE4) and sandboxing (2 checks, no branch)
//!   under free / stall-per-expansion / extra-stage engines. Quantifies
//!   the paper's claim that DISE's control-flow model (no jumps into
//!   sequences) buys shorter formulations.
//! * `rtmiss` — PT/RT miss-penalty sensitivity for DISE decompression
//!   (the 30-cycle figure is an assumption; sweep it).
//! * `ctx`  — context-switch rate sensitivity: PT/RT are demand-reloaded
//!   caches (§2.3), so switch frequency costs refills.
//! * `rtblock` — RT block coalescing (§2.2): fewer read ports at the cost
//!   of internal fragmentation; sweep the block size.
//!
//! Usage mirrors the `fig*` binaries (`DISE_BENCH_DYN`,
//! `DISE_BENCH_FILTER`, `DISE_BENCH_JOBS`, `DISE_BENCH_CACHE`).

//!
//! Shared telemetry flags: `--trace` / `--trace-last N` arm the per-run
//! event ring and deadlock watchdog (dump on anomaly); `--stats-json
//! PATH` exports every cell's stats-registry snapshot as JSON.
use dise_bench::figures::ablation;

fn main() {
    dise_bench::figure_main(
        "ablation",
        &[
            ("mfi", ablation::mfi),
            ("rtmiss", ablation::rtmiss),
            ("ctx", ablation::ctx),
            ("rtblock", ablation::rtblock),
        ],
    );
}
