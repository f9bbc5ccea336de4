#![warn(missing_docs)]

//! # dise-bench: the experiment harness
//!
//! One binary per figure of the paper's evaluation (§4):
//!
//! * `fig6_mfi` — memory fault isolation: DISE vs. binary rewriting
//!   (`top`), across I-cache sizes (`cache`), across processor widths
//!   (`width`).
//! * `fig7_compression` — code compression: compression-ratio feature walk
//!   (`ratio`), execution time across I-cache sizes (`perf`), RT
//!   configurations (`rt`).
//! * `fig8_composition` — composed decompression + fault isolation across
//!   I-cache sizes (`cache`) and RT configurations / miss latencies
//!   (`rt`).
//!
//! Each prints the same rows/series the paper's figures plot. The sweep
//! bodies live in [`figures`]; the binaries are argument-parsing shells.
//!
//! ## Sweep execution model
//!
//! A sweep is a flat list of [`Cell`]s — one independent, deterministic
//! computation each (typically a single simulator run). Cells fan out
//! across a [`Pool`] of `DISE_BENCH_JOBS` workers (default: available
//! parallelism) and land in a content-addressed [`CellCache`] under
//! `results/cache/` (`DISE_BENCH_CACHE` overrides; `off` disables), so
//! interrupted or repeated sweeps skip finished cells. Cell order — and
//! therefore every figure table — is independent of the job count and of
//! cache warmth.
//!
//! The dynamic instruction budget per run defaults to 1M application
//! instructions and can be overridden with the `DISE_BENCH_DYN`
//! environment variable; `DISE_BENCH_FILTER=gcc,mcf` restricts the
//! benchmark set.

pub mod cache;
pub mod checkpoint;
pub mod figures;
pub mod pool;
pub mod serve;

pub use cache::{CellCache, CellOutput};
pub use pool::Pool;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use dise_acf::compress::{CompressedProgram, CompressionConfig, Compressor};
use dise_acf::mfi::{Mfi, MfiVariant};
use dise_core::{compose, Controller, DiseEngine, EngineConfig, ProductionSet};
use dise_isa::Program;
use dise_rewrite::RewriteMfi;
use dise_sim::{ExpansionCost, Machine, MachineConfig, SimConfig, SimStats, Simulator};
use dise_workloads::{Benchmark, WorkloadConfig};

/// Default dynamic application-instruction budget per run.
pub const DEFAULT_DYN: u64 = 1_000_000;

/// Reads the per-run dynamic budget (env `DISE_BENCH_DYN`).
pub fn dyn_budget() -> u64 {
    std::env::var("DISE_BENCH_DYN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_DYN)
}

/// The benchmark set, honoring `DISE_BENCH_FILTER`.
pub fn benchmarks() -> Vec<Benchmark> {
    match std::env::var("DISE_BENCH_FILTER") {
        Ok(filter) => filter
            .split(',')
            .filter_map(|f| Benchmark::from_name(f.trim()))
            .collect(),
        Err(_) => Benchmark::ALL.to_vec(),
    }
}

/// Generates the workload program for a benchmark at the env-configured
/// budget (see [`Sweep::workload`] for the context-driven form).
pub fn workload(bench: Benchmark) -> Program {
    bench.build(&WorkloadConfig::default().with_dyn_insts(dyn_budget()))
}

/// Simulation fuel for a given application budget: a generous multiple so
/// expanded streams and replays fit.
pub fn fuel_for(dyn_insts: u64) -> u64 {
    dyn_insts.saturating_mul(40).max(10_000_000)
}

/// Harness-wide telemetry options, installed once from the shared CLI
/// flags (`--trace`, `--trace-last N`) by [`parse_telemetry_args`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryOpts {
    /// Pipeline event-ring capacity per run (0 disables tracing).
    pub trace_last: usize,
    /// Watchdog threshold: cycles between commits with work in flight
    /// before a run dumps an anomaly report (0 disables).
    pub watchdog: u64,
    /// Attach a slow-path shadow functional oracle to every run and
    /// lockstep-compare each retired instruction; any divergence aborts
    /// the cell with an anomaly report (`--shadow`). Purely a checking
    /// knob: results, stats, and cell cache keys are unaffected.
    pub shadow: bool,
}

/// Ring capacity a bare `--trace` arms.
pub const DEFAULT_TRACE_LAST: usize = 64;
/// Watchdog threshold a bare `--trace` arms.
pub const DEFAULT_WATCHDOG: u64 = 1_000_000;
/// Largest accepted `--trace-last` ring capacity. The ring holds whole
/// [`dise_sim::TraceEvent`]s, so an absurd capacity (a pasted
/// instruction count, say) would silently allocate gigabytes per
/// concurrent cell; 4Mi events ≈ a few hundred MB is already generous.
pub const MAX_TRACE_LAST: usize = 1 << 22;

/// Validates a `--trace-last` value, mirroring [`Pool::parse_jobs`]:
/// malformed input is rejected with an actionable message instead of
/// silently doing something the user didn't ask for. `0` is rejected
/// because it would *disable* tracing while looking like it armed it —
/// dropping the flag is the way to disable the ring.
pub fn parse_trace_last(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(0) => Err(
            "--trace-last must be at least 1 (got 0); drop the flag entirely to disable tracing"
                .to_string(),
        ),
        Ok(n) if n > MAX_TRACE_LAST => Err(format!(
            "--trace-last {n} is absurdly large (max {MAX_TRACE_LAST}): the ring keeps whole trace events in memory per concurrent cell"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--trace-last wants a positive integer, got {v:?}")),
    }
}

/// Writes a stats-JSON document to `path`, creating parent directories,
/// and maps failures to an actionable message naming the path (the bare
/// `fs::write` panic every binary used to hit printed neither).
pub fn write_stats_json(path: &std::path::Path, doc: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| {
            format!(
                "cannot create directory {} for --stats-json output: {e}",
                dir.display()
            )
        })?;
    }
    std::fs::write(path, doc)
        .map_err(|e| format!("cannot write --stats-json output to {}: {e}", path.display()))
}

static TELEMETRY: OnceLock<TelemetryOpts> = OnceLock::new();

/// Installs the harness-wide telemetry options (first call wins).
pub fn set_telemetry(opts: TelemetryOpts) {
    let _ = TELEMETRY.set(opts);
}

/// The installed telemetry options (default: everything off).
pub fn telemetry() -> TelemetryOpts {
    TELEMETRY.get().copied().unwrap_or_default()
}

/// Applies the harness telemetry options to one run's `SimConfig`. The
/// trace knobs are deliberately excluded from `SimConfig`'s `Debug` form
/// (see its manual impl), so cell cache keys — and therefore results —
/// are identical with and without `--trace`.
pub fn apply_telemetry(config: SimConfig) -> SimConfig {
    let t = telemetry();
    config.with_trace_last(t.trace_last).with_watchdog(t.watchdog)
}

/// Strips the telemetry flags every harness binary shares out of `args`,
/// installing the corresponding [`TelemetryOpts`]:
///
/// * `--trace` — arm the per-run event ring ([`DEFAULT_TRACE_LAST`]
///   events) and the deadlock watchdog;
/// * `--trace-last N` / `--trace-last=N` — ring capacity `N` (implies
///   `--trace`);
/// * `--stats-json PATH` / `--stats-json=PATH` — export the run's stats
///   registry snapshots as JSON to `PATH` (returned to the caller, which
///   owns the write);
/// * `--shadow` — run every cell with a slow-path shadow functional
///   oracle in lockstep (divergence aborts with an anomaly report).
///
/// Also installs the observability sink from `DISE_OBS_SINK` (see
/// `dise_obs::init_from_env`) so every harness binary exports records
/// without per-binary wiring.
///
/// Panics with a usage message on malformed values.
pub fn parse_telemetry_args(args: &mut Vec<String>) -> Option<PathBuf> {
    fn ring(v: &str) -> usize {
        parse_trace_last(v).unwrap_or_else(|why| {
            eprintln!("{why}");
            std::process::exit(2);
        })
    }
    if let Err(e) = dise_obs::init_from_env() {
        eprintln!("invalid DISE_OBS_SINK: {e}");
        std::process::exit(2);
    }
    let mut opts = TelemetryOpts::default();
    let mut stats_out = None;
    let mut rest = Vec::with_capacity(args.len());
    let old = std::mem::take(args);
    let mut i = 0;
    while i < old.len() {
        let a = old[i].as_str();
        if a == "--trace" {
            opts.trace_last = opts.trace_last.max(DEFAULT_TRACE_LAST);
            opts.watchdog = DEFAULT_WATCHDOG;
        } else if let Some(v) = a.strip_prefix("--trace-last=") {
            opts.trace_last = ring(v);
            opts.watchdog = DEFAULT_WATCHDOG;
        } else if a == "--trace-last" {
            i += 1;
            let v = old.get(i).expect("--trace-last wants a value");
            opts.trace_last = ring(v);
            opts.watchdog = DEFAULT_WATCHDOG;
        } else if let Some(p) = a.strip_prefix("--stats-json=") {
            stats_out = Some(PathBuf::from(p));
        } else if a == "--stats-json" {
            i += 1;
            let p = old.get(i).expect("--stats-json wants a path");
            stats_out = Some(PathBuf::from(p));
        } else if a == "--shadow" {
            opts.shadow = true;
        } else {
            rest.push(old[i].clone());
        }
        i += 1;
    }
    *args = rest;
    if opts != TelemetryOpts::default() {
        set_telemetry(opts);
    }
    stats_out
}

/// Flattens a run's stats registry into the `(name, value)` pairs a
/// [`CellOutput`] snapshot stores.
pub fn stat_pairs(stats: &SimStats) -> Vec<(String, f64)> {
    registry_pairs(&stats.registry())
}

/// Flattens any telemetry registry (e.g. the static
/// [`dise_acf::CompressionStats::registry`] counters) into the
/// `(name, value)` pairs a [`CellOutput`] snapshot stores.
pub fn registry_pairs(reg: &dise_sim::telemetry::StatsRegistry) -> Vec<(String, f64)> {
    reg.entries()
        .iter()
        .map(|(name, v)| (name.clone(), v.as_f64()))
        .collect()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders named stats snapshots as the harness stats-JSON document: a
/// top-level object mapping snapshot keys (cell keys, or
/// `bench/scenario` in the speed harnesses) to objects of stat name →
/// value. Values use Rust's shortest-round-trip `f64` formatting, so the
/// document is byte-stable for byte-stable inputs.
pub fn stats_json_doc(entries: &[(String, Vec<(String, f64)>)]) -> String {
    let mut s = String::from("{");
    for (i, (key, pairs)) in entries.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n  \"{}\": {{", json_escape(key)));
        for (j, (name, v)) in pairs.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": {v}", json_escape(name)));
        }
        s.push_str("\n  }");
    }
    s.push_str("\n}\n");
    s
}

/// One independent, deterministic sweep computation: a cache key that
/// spells out everything the result depends on, plus the closure that
/// produces the result on a cache miss.
pub struct Cell {
    key: String,
    run: Box<dyn Fn() -> CellOutput + Send + Sync>,
}

impl Cell {
    /// Creates a cell from its key and compute closure.
    pub fn new(key: String, run: impl Fn() -> CellOutput + Send + Sync + 'static) -> Cell {
        Cell {
            key,
            run: Box::new(run),
        }
    }

    /// The content-address key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Runs the computation (cache-unaware).
    pub fn compute(&self) -> CellOutput {
        (self.run)()
    }
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell").field("key", &self.key).finish()
    }
}

/// Everything a sweep needs: the workload budget, the benchmark set, the
/// worker pool and the result cache. Binaries build one with
/// [`Sweep::from_env`]; tests construct exact configurations with
/// [`Sweep::new`].
#[derive(Debug)]
pub struct Sweep {
    /// Dynamic application-instruction target per run.
    pub dyn_insts: u64,
    /// Benchmarks to sweep, in output order.
    pub benches: Vec<Benchmark>,
    /// Worker pool cells fan out across.
    pub pool: Pool,
    /// Per-cell result cache.
    pub cache: CellCache,
    /// Stats snapshots of every cell run so far, keyed by cell key — a
    /// `BTreeMap` so cells shared between panels deduplicate and the
    /// [`Sweep::stats_json`] export is sorted (byte-stable) by
    /// construction.
    stats: Mutex<BTreeMap<String, Vec<(String, f64)>>>,
}

impl Sweep {
    /// A sweep with an explicit configuration.
    pub fn new(dyn_insts: u64, benches: Vec<Benchmark>, pool: Pool, cache: CellCache) -> Sweep {
        Sweep {
            dyn_insts,
            benches,
            pool,
            cache,
            stats: Mutex::new(BTreeMap::new()),
        }
    }

    /// A sweep configured from `DISE_BENCH_DYN`, `DISE_BENCH_FILTER`,
    /// `DISE_BENCH_JOBS` and `DISE_BENCH_CACHE`.
    pub fn from_env() -> Sweep {
        Sweep::new(dyn_budget(), benchmarks(), Pool::from_env(), CellCache::from_env())
    }

    /// Generates the workload program for a benchmark at this sweep's
    /// budget.
    pub fn workload(&self, bench: Benchmark) -> Program {
        bench.build(&WorkloadConfig::default().with_dyn_insts(self.dyn_insts))
    }

    /// This sweep's per-run simulation fuel.
    pub fn fuel(&self) -> u64 {
        fuel_for(self.dyn_insts)
    }

    /// Runs every cell (through the cache, across the pool) and returns
    /// values in cell order. Each cell's stats snapshot is recorded for
    /// [`Sweep::stats_json`].
    pub fn run_cells(&self, cells: &[Cell]) -> Vec<Vec<f64>> {
        let outs = self.pool.run(cells, |_, cell| {
            let _obs = dise_obs::cell_scope(cell.key());
            let _span = dise_obs::span::enter("cell", cell.key());
            let _ckpt = checkpoint::key_scope(cell.key());
            let out = self.cache.get_or(cell.key(), || cell.compute());
            eprintln!("  [done] {}", cell.key());
            out
        });
        #[cfg(debug_assertions)]
        if let (Some(cell), Some(out)) = (cells.first(), outs.first()) {
            audit_snapshot_neutrality(cell, out);
        }
        let mut log = self.stats.lock().expect("stats log poisoned");
        for (cell, out) in cells.iter().zip(&outs) {
            if !out.stats.is_empty() {
                log.insert(cell.key().to_string(), out.stats.clone());
            }
        }
        drop(log);
        outs.into_iter().map(|o| o.values).collect()
    }

    /// The stats-JSON export for every cell this sweep has run: cell key
    /// → stats object, key-sorted. Byte-identical across job counts and
    /// cache warmth for the same panel set (`tests/determinism.rs`).
    pub fn stats_json(&self) -> String {
        let log = self.stats.lock().expect("stats log poisoned");
        let entries: Vec<(String, Vec<(String, f64)>)> =
            log.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        stats_json_doc(&entries)
    }
}

/// Debug-build audit backing the [`CellCache`] key policy: the key
/// deliberately ignores the snapshot env toggle (`DISE_SNAPSHOT`)
/// because it is proven output-neutral. Re-prove that on one cell per
/// suite:
/// recompute the first cell with forced run slicing — the checkpoint
/// knob flipped — and require the exact same output the keyed lookup
/// returned.
#[cfg(debug_assertions)]
fn audit_snapshot_neutrality(cell: &Cell, out: &CellOutput) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static AUDITED: AtomicBool = AtomicBool::new(false);
    if AUDITED.swap(true, Ordering::Relaxed) {
        return;
    }
    let sliced = checkpoint::with_forced_slice(1_013, || cell.compute());
    assert_eq!(
        &sliced,
        out,
        "cell {:?}: sliced recompute diverged — the cell cache key ignores DISE_SNAPSHOT \
         only because run slicing is output-neutral",
        cell.key()
    );
}

/// When `--shadow` is armed, attaches a slow-path shadow oracle built by
/// `build` to `sim`. The builder must mirror the primary machine's
/// construction exactly (same program, engine productions, register
/// init) but on the byte-accurate slow path, so the lockstep comparison
/// cross-checks the fast path (predecode, expansion cache) against the
/// reference engine on every retired instruction. The same
/// builder is handed to [`checkpoint::run_sim_replay`], which uses it to
/// arm a shadow during anomaly replay even when `--shadow` is off.
fn maybe_attach_shadow(sim: &mut Simulator, build: checkpoint::ShadowBuilder<'_>) {
    if telemetry().shadow {
        sim.attach_shadow(build());
    }
}

/// Runs a bare program (no ACFs).
pub fn run_baseline(program: &Program, config: SimConfig, fuel: u64) -> SimStats {
    let machine = {
        let _t = dise_obs::profile::scope("predecode");
        let _s = dise_obs::span::enter("phase", "predecode");
        Machine::load(program)
    };
    let mut sim = Simulator::new(apply_telemetry(config), machine);
    let shadow = || Machine::with_config(program, MachineConfig::default().slow_path());
    maybe_attach_shadow(&mut sim, &shadow);
    let _t = dise_obs::profile::scope("timing_run");
    let _s = dise_obs::span::enter("phase", "timing_run");
    checkpoint::run_sim_replay(&mut sim, fuel, Some(&shadow)).expect("baseline run").stats
}

/// Builds the MFI production set for `program` (error handler at its
/// `mfi_error` symbol).
pub fn mfi_productions(program: &Program, variant: MfiVariant) -> ProductionSet {
    Mfi::new(variant)
        .with_error_handler(program.symbol("mfi_error").expect("workloads define mfi_error"))
        .productions()
        .expect("MFI productions build")
}

/// Runs a program under DISE memory fault isolation.
pub fn run_dise_mfi(
    program: &Program,
    variant: MfiVariant,
    cost: ExpansionCost,
    config: SimConfig,
    fuel: u64,
) -> SimStats {
    let mut m = {
        let _t = dise_obs::profile::scope("predecode");
        let _s = dise_obs::span::enter("phase", "predecode");
        Machine::load(program)
    };
    {
        let _t = dise_obs::profile::scope("engine_setup");
        let _s = dise_obs::span::enter("phase", "engine_setup");
        m.attach_engine(
            DiseEngine::with_productions(
                EngineConfig::default(),
                mfi_productions(program, variant),
            )
            .expect("engine"),
        );
        Mfi::init_machine(&mut m);
    }
    let mut sim = Simulator::new(apply_telemetry(config.with_expansion_cost(cost)), m);
    let shadow = || {
        let mut s = Machine::with_config(program, MachineConfig::default().slow_path());
        s.attach_engine(
            DiseEngine::with_productions(
                EngineConfig::default().slow_path(),
                mfi_productions(program, variant),
            )
            .expect("engine"),
        );
        Mfi::init_machine(&mut s);
        s
    };
    maybe_attach_shadow(&mut sim, &shadow);
    let _t = dise_obs::profile::scope("timing_run");
    let _s = dise_obs::span::enter("phase", "timing_run");
    checkpoint::run_sim_replay(&mut sim, fuel, Some(&shadow)).expect("DISE MFI run").stats
}

/// Runs a program under binary-rewriting memory fault isolation.
pub fn run_rewrite_mfi(program: &Program, config: SimConfig, fuel: u64) -> SimStats {
    let rewritten = RewriteMfi::new().rewrite(program).expect("rewrite").program;
    let machine = {
        let _t = dise_obs::profile::scope("predecode");
        let _s = dise_obs::span::enter("phase", "predecode");
        Machine::load(&rewritten)
    };
    let mut sim = Simulator::new(apply_telemetry(config), machine);
    let shadow = || Machine::with_config(&rewritten, MachineConfig::default().slow_path());
    maybe_attach_shadow(&mut sim, &shadow);
    let _t = dise_obs::profile::scope("timing_run");
    let _s = dise_obs::span::enter("phase", "timing_run");
    checkpoint::run_sim_replay(&mut sim, fuel, Some(&shadow)).expect("rewrite MFI run").stats
}

/// Compresses a program under a Figure 7 configuration.
pub fn compress(program: &Program, config: CompressionConfig) -> CompressedProgram {
    Compressor::new(config).compress(program).expect("compression")
}

/// Runs a compressed program with its decompressor attached.
pub fn run_compressed(
    compressed: &CompressedProgram,
    engine_config: EngineConfig,
    config: SimConfig,
    fuel: u64,
) -> SimStats {
    let mut m = {
        let _t = dise_obs::profile::scope("predecode");
        let _s = dise_obs::span::enter("phase", "predecode");
        Machine::load(&compressed.program)
    };
    {
        let _t = dise_obs::profile::scope("engine_setup");
        let _s = dise_obs::span::enter("phase", "engine_setup");
        compressed
            .attach(&mut m, engine_config)
            .expect("attach decompressor");
    }
    let mut sim = Simulator::new(apply_telemetry(config), m);
    let shadow = || {
        let mut s =
            Machine::with_config(&compressed.program, MachineConfig::default().slow_path());
        compressed
            .attach(&mut s, engine_config.slow_path())
            .expect("attach decompressor");
        s
    };
    maybe_attach_shadow(&mut sim, &shadow);
    let _t = dise_obs::profile::scope("timing_run");
    let _s = dise_obs::span::enter("phase", "timing_run");
    checkpoint::run_sim_replay(&mut sim, fuel, Some(&shadow)).expect("compressed run").stats
}

/// Runs the full DISE+DISE composition: a compressed program whose aware
/// decompression sequences get transparent MFI inlined *at RT-miss time*
/// (§3.3/§4.3). With `eager`, the composition is instead performed up
/// front (productions composed in software; misses stay 30 cycles).
pub fn run_composed_dise(
    compressed: &CompressedProgram,
    engine_config: EngineConfig,
    config: SimConfig,
    eager: bool,
    fuel: u64,
) -> SimStats {
    let aware = compressed
        .productions
        .clone()
        .expect("DISE compression produces productions");
    let mfi = mfi_productions(&compressed.program, MfiVariant::Dise3);
    let build_engine = |engine_config: EngineConfig| {
        if eager {
            let composed = compose::compose_nested(&mfi, &aware).expect("eager composition");
            DiseEngine::with_productions(engine_config, composed).expect("engine")
        } else {
            let controller = Controller::new({
                // The engine must also apply MFI to uncompressed
                // instructions, so the active set holds both ACFs; only
                // aware fills compose.
                let mut set = mfi.clone();
                set.absorb(&aware).expect("absorb aware productions");
                set
            })
            .with_inline_on_fill(mfi.clone());
            DiseEngine::with_controller(engine_config, controller)
        }
    };
    let mut m = {
        let _t = dise_obs::profile::scope("predecode");
        let _s = dise_obs::span::enter("phase", "predecode");
        Machine::load(&compressed.program)
    };
    {
        let _t = dise_obs::profile::scope("engine_setup");
        let _s = dise_obs::span::enter("phase", "engine_setup");
        m.attach_engine(build_engine(engine_config));
        Mfi::init_machine(&mut m);
    }
    let mut sim = Simulator::new(apply_telemetry(config), m);
    let shadow = || {
        let mut s =
            Machine::with_config(&compressed.program, MachineConfig::default().slow_path());
        s.attach_engine(build_engine(engine_config.slow_path()));
        Mfi::init_machine(&mut s);
        s
    };
    maybe_attach_shadow(&mut sim, &shadow);
    let _t = dise_obs::profile::scope("timing_run");
    let _s = dise_obs::span::enter("phase", "timing_run");
    checkpoint::run_sim_replay(&mut sim, fuel, Some(&shadow)).expect("composed run").stats
}

/// Formats one table row.
pub fn row(name: &str, cells: &[f64]) -> String {
    let mut s = format!("{name:>10}");
    for c in cells {
        s.push_str(&format!(" {c:>9.3}"));
    }
    s
}

/// Formats a table with a geometric-mean footer.
pub fn format_table(title: &str, header: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    let mut out = format!("\n== {title} ==\n");
    let mut h = format!("{:>10}", "bench");
    for c in header {
        h.push_str(&format!(" {c:>9}"));
    }
    out.push_str(&h);
    out.push('\n');
    let ncols = header.len();
    let mut product = vec![1.0f64; ncols];
    for (name, cells) in rows {
        out.push_str(&row(name, cells));
        out.push('\n');
        for (i, c) in cells.iter().enumerate() {
            product[i] *= c.max(1e-12);
        }
    }
    if !rows.is_empty() {
        let n = rows.len() as f64;
        let gmean: Vec<f64> = product.into_iter().map(|p| p.powf(1.0 / n)).collect();
        out.push_str(&row("gmean", &gmean));
        out.push('\n');
    }
    out
}

/// Prints a table with a geometric-mean footer.
pub fn print_table(title: &str, header: &[&str], rows: &[(String, Vec<f64>)]) {
    print!("{}", format_table(title, header, rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_last_rejects_zero_absurd_and_garbage() {
        assert_eq!(parse_trace_last("64"), Ok(64));
        assert_eq!(parse_trace_last(" 128 "), Ok(128));
        assert_eq!(parse_trace_last(&MAX_TRACE_LAST.to_string()), Ok(MAX_TRACE_LAST));

        let zero = parse_trace_last("0").unwrap_err();
        assert!(zero.contains("drop the flag"), "actionable: {zero}");
        let huge = parse_trace_last(&(MAX_TRACE_LAST + 1).to_string()).unwrap_err();
        assert!(huge.contains("absurdly large"), "actionable: {huge}");
        let garbage = parse_trace_last("lots").unwrap_err();
        assert!(garbage.contains("positive integer"), "actionable: {garbage}");
        assert!(garbage.contains("lots"), "echoes the input: {garbage}");
    }

    #[test]
    fn stats_json_write_failure_names_the_path() {
        let dir = std::env::temp_dir().join(format!("dise-bench-sj-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Success path creates intermediate directories.
        let ok = dir.join("deep/nested/stats.json");
        write_stats_json(&ok, "{}\n").expect("nested write succeeds");
        assert_eq!(std::fs::read_to_string(&ok).unwrap(), "{}\n");

        // Failure path: the target is a directory, so the write must
        // fail with a message naming the path (not a bare panic).
        let bad = dir.join("deep");
        let err = write_stats_json(&bad, "{}\n").unwrap_err();
        assert!(
            err.contains("--stats-json") && err.contains(&bad.display().to_string()),
            "actionable: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
