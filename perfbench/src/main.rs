//! Figure-sweep benchmark for the DISE reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mfi|compress|compose> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A *pass* is what a figure binary does for one panel set: generate the
//! benchmark programs, transform them (compression at panel
//! construction), then sweep every (benchmark × configuration) cell
//! through the harness's worker pool (one job, so cells run back to back
//! as on a single-core host) and a cold content-addressed cell cache, as
//! `Sweep::run_cells` does for every figure. Each pass draws fresh
//! programs from `--seed` and the pass index, so no process-wide memo can
//! turn a later pass into a warm one. One untimed pass warms the process;
//! timed passes then repeat until `--seconds` have elapsed.
//!
//! Every cell's simulated statistics are checked against invariants the
//! transformations must keep (DISE never changes the application stream,
//! RT and I-cache geometry never change what commits, decompression
//! commits the same stream at every configuration, finite RTs and
//! compose-on-miss never beat their ideal counterparts) and each MFI
//! pass against the paper's Figure 6 ordering.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` records spans
//! from this file around every call into a layer (workload generation,
//! rewriting/compression, the run helpers, stats flattening, the
//! harness's pool and cell cache) and splits the run helpers with the
//! simulator's own `profile.*` phase counters; it prints per-layer self
//! times instead. The last stdout line is always one JSON object.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dise_acf::compress::{CompressedProgram, CompressionConfig, SelectAlgo};
use dise_acf::mfi::MfiVariant;
use dise_bench::{registry_pairs, stat_pairs, Cell, CellCache, CellOutput, Pool, Sweep};
use dise_core::{EngineConfig, RtOrganization};
use dise_isa::Program;
use dise_rewrite::RewriteMfi;
use dise_sim::{ExpansionCost, SimConfig, SimStats};
use dise_workloads::{Benchmark, WorkloadConfig};

/// Dynamic application-instruction target per program. Large enough that
/// the timing run dominates a cell, as it does at the figures' 1M
/// default, small enough that a pass fits several times in a run.
const DYN_INSTS: u64 = 100_000;

/// I-cache sizes the Figure 6/7/8 cache panels sweep.
const ICACHE_SIZES: [Option<u64>; 4] = [Some(8 * 1024), Some(32 * 1024), Some(128 * 1024), None];

/// Finite RT configurations of the Figure 7/8 bottom panels.
const RT_CONFIGS: [(usize, RtOrganization); 4] = [
    (512, RtOrganization::DirectMapped),
    (512, RtOrganization::SetAssociative(2)),
    (2048, RtOrganization::DirectMapped),
    (2048, RtOrganization::SetAssociative(2)),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Figure 6 top: baseline, binary rewriting and four DISE MFI
    /// variants per benchmark.
    Mfi,
    /// Figure 7 middle and bottom: v2 compression, then decompression
    /// across I-cache sizes and finite RTs.
    Compress,
    /// Figure 8: DISE+DISE (decompression with MFI composed in) across
    /// I-cache sizes, then eager vs compose-on-miss across finite RTs.
    /// The rewrite+compress columns are left out: they recompress the
    /// rewritten program in every cell, which alone takes ~15 s a pass.
    Compose,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "mfi" => Some(Workload::Mfi),
            "compress" => Some(Workload::Compress),
            "compose" => Some(Workload::Compose),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Mfi => "mfi",
            Workload::Compress => "compress",
            Workload::Compose => "compose",
        }
    }

    /// The benchmarks one pass sweeps. Compression selection grows
    /// superlinearly with text size (gcc alone takes over a second), so
    /// the compression workloads sweep four benchmarks whose texts span
    /// 7–56 KB — from fitting the 8KB I-cache to exceeding 32KB.
    fn benches(self) -> &'static [Benchmark] {
        match self {
            Workload::Mfi => &Benchmark::ALL,
            Workload::Compress | Workload::Compose => &[
                Benchmark::Mcf,
                Benchmark::Bzip2,
                Benchmark::Parser,
                Benchmark::Gzip,
            ],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} wants a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or_else(|| {
                        format!("unknown workload {value:?} (mfi|compress|compose)")
                    })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed wants an integer, got {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| {
                            format!("--seconds wants a positive integer, got {value:?}")
                        })?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

// ---------------------------------------------------------------------
// Outside-in span trace: kept in memory, reduced to per-name self times
// at the end of each pass. Cells run on the calling thread (one job), so
// a thread-local stack sees every span.

struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

#[derive(Default)]
struct Trace {
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

thread_local! {
    static TRACE: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

struct SpanGuard(Option<usize>);

fn span(name: &'static str) -> SpanGuard {
    TRACE.with(|t| {
        SpanGuard(t.borrow_mut().as_mut().map(|t| {
            let now = Instant::now();
            let id = t.spans.len();
            t.spans.push(SpanRec {
                name,
                parent: t.stack.last().copied(),
                start: now,
                end: now,
            });
            t.stack.push(id);
            id
        }))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            TRACE.with(|t| {
                if let Some(t) = t.borrow_mut().as_mut() {
                    t.spans[id].end = Instant::now();
                    t.stack.pop();
                }
            });
        }
    }
}

/// Drains the recorded spans into per-name self time: each span's
/// duration minus the durations of its direct children.
fn take_self_times() -> BTreeMap<&'static str, Duration> {
    let spans = TRACE.with(|t| {
        t.borrow_mut()
            .as_mut()
            .map(|t| std::mem::take(&mut t.spans))
            .unwrap_or_default()
    });
    let mut self_time: Vec<Duration> = spans.iter().map(|s| s.end - s.start).collect();
    for s in &spans {
        if let Some(p) = s.parent {
            self_time[p] = self_time[p].saturating_sub(s.end - s.start);
        }
    }
    let mut out = BTreeMap::new();
    for (s, d) in spans.iter().zip(self_time) {
        *out.entry(s.name).or_insert(Duration::ZERO) += d;
    }
    out
}

// ---------------------------------------------------------------------
// Host-speed probe. On a shared cloud host the same pass's wall time
// drifts by up to 1.7× over tens of seconds, with CPU time equal to wall
// time (nothing to subtract): neighbours contend for the memory
// hierarchy. That would swamp any code change. A fixed memory-bound
// kernel timed before every cell tracks the drift (an ALU-only kernel
// barely moves); each pass's times are rescaled by
// `PROBE_REF / median probe`, i.e. reported in seconds of a host on which
// the probe takes `PROBE_REF`. The kernel is this file's own code, so it
// is identical on every commit compared and a speed-up of the program
// shows in full.

/// Random read-modify-write steps per probe (~1 ms on a 2.1 GHz Xeon).
const PROBE_ITERS: u32 = 200_000;
/// Probe time that defines the reporting scale.
const PROBE_REF: Duration = Duration::from_millis(1);

struct Probe {
    /// 1 MiB: larger than L1, so the probe feels cache contention too.
    table: Vec<u32>,
    times: Vec<Duration>,
}

thread_local! {
    static PROBE: RefCell<Probe> = RefCell::new(Probe {
        table: vec![1; 1 << 18],
        times: Vec::new(),
    });
}

fn probe() {
    let _s = span("probe");
    PROBE.with(|p| {
        let Probe { table, times } = &mut *p.borrow_mut();
        let start = Instant::now();
        let mask = table.len() - 1;
        let (mut x, mut acc) = (0x9E37_79B9u32, 0u64);
        for _ in 0..PROBE_ITERS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let i = x as usize & mask;
            let v = table[i];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v as u64);
            } else {
                acc ^= (v as u64) << 3;
            }
            table[i] = v.wrapping_add(x);
        }
        std::hint::black_box(acc);
        times.push(start.elapsed());
    });
}

fn take_probes() -> Vec<Duration> {
    PROBE.with(|p| std::mem::take(&mut p.borrow_mut().times))
}

// ---------------------------------------------------------------------
// Cells: the same run helpers, configurations and key shapes the figure
// panels use, with every outcome logged for the correctness checks.

#[derive(Debug, Clone, Copy, Default)]
struct Outcome {
    ok: bool,
    cycles: u64,
    app_insts: u64,
    total_insts: u64,
    expansions: u64,
}

type Log = Arc<Mutex<Vec<Outcome>>>;

struct Plan {
    cells: Vec<Cell>,
    log: Log,
    /// Cell index ranges, one per benchmark, in construction order.
    groups: Vec<std::ops::Range<usize>>,
}

impl Plan {
    fn new() -> Plan {
        Plan {
            cells: Vec::new(),
            log: Arc::new(Mutex::new(Vec::new())),
            groups: Vec::new(),
        }
    }

    /// Adds a cell whose body runs one simulation and returns its stats
    /// plus any static registry pairs the figure cell also exports.
    fn push(
        &mut self,
        key: String,
        body: impl Fn() -> (SimStats, Vec<(String, f64)>) + Send + Sync + 'static,
    ) {
        let slot = self.cells.len();
        let log = Arc::clone(&self.log);
        log.lock().expect("outcome log").push(Outcome::default());
        self.cells.push(Cell::new(key, move || {
            probe();
            let _cell = span("cell");
            let result = catch_unwind(AssertUnwindSafe(|| {
                let (stats, extra) = body();
                let _s = span("stats");
                let mut pairs = stat_pairs(&stats);
                if !extra.is_empty() {
                    pairs.extend(extra);
                    pairs.sort_by(|a, b| a.0.cmp(&b.0));
                }
                let out = CellOutput {
                    values: vec![stats.cycles as f64],
                    stats: pairs,
                };
                (out, stats)
            }));
            let (out, outcome) = match result {
                Ok((out, s)) => (
                    out,
                    Outcome {
                        ok: s.cycles > 0 && s.app_insts > 0,
                        cycles: s.cycles,
                        app_insts: s.app_insts,
                        total_insts: s.total_insts,
                        expansions: s.expansions,
                    },
                ),
                Err(_) => (CellOutput::bare(vec![f64::NAN]), Outcome::default()),
            };
            log.lock().expect("outcome log")[slot] = outcome;
            out
        }));
    }
}

fn key(kind: &str, bench: Benchmark, wc: &WorkloadConfig, detail: &str) -> String {
    format!(
        "perfbench|{kind}|{}|{}|{detail}",
        bench.name(),
        wc.fingerprint()
    )
}

fn gen(bench: Benchmark, wc: &WorkloadConfig) -> Arc<Program> {
    let _s = span("gen");
    Arc::new(bench.build(wc))
}

fn v2() -> CompressionConfig {
    CompressionConfig::dise_full().with_select(SelectAlgo::V2)
}

fn compress(p: &Program) -> Arc<CompressedProgram> {
    let _s = span("transform");
    Arc::new(dise_bench::compress(p, v2()))
}

fn compress_stats(c: &CompressedProgram) -> Vec<(String, f64)> {
    registry_pairs(&c.stats.registry())
}

fn finite_rt(entries: usize, org: RtOrganization) -> EngineConfig {
    EngineConfig {
        rt_entries: entries,
        rt_org: org,
        ..EngineConfig::default()
    }
}

fn add_baseline(
    plan: &mut Plan,
    bench: Benchmark,
    wc: &WorkloadConfig,
    p: &Arc<Program>,
    sim: SimConfig,
) {
    let fuel = dise_bench::fuel_for(wc.dyn_insts);
    let p = Arc::clone(p);
    plan.push(
        key("baseline", bench, wc, &format!("sim={sim:?}")),
        move || {
            let _r = span("run");
            (dise_bench::run_baseline(&p, sim, fuel), Vec::new())
        },
    );
}

fn add_compressed(
    plan: &mut Plan,
    bench: Benchmark,
    wc: &WorkloadConfig,
    c: &Arc<CompressedProgram>,
    engine: EngineConfig,
    sim: SimConfig,
) {
    let fuel = dise_bench::fuel_for(wc.dyn_insts);
    let c = Arc::clone(c);
    let detail = format!("cc={:?},engine={engine:?},sim={sim:?}", v2());
    plan.push(key("compressed", bench, wc, &detail), move || {
        let stats = {
            let _r = span("run");
            dise_bench::run_compressed(&c, engine, sim, fuel)
        };
        (stats, compress_stats(&c))
    });
}

fn add_composed(
    plan: &mut Plan,
    bench: Benchmark,
    wc: &WorkloadConfig,
    c: &Arc<CompressedProgram>,
    engine: EngineConfig,
    sim: SimConfig,
    eager: bool,
) {
    let fuel = dise_bench::fuel_for(wc.dyn_insts);
    let c = Arc::clone(c);
    let detail = format!("eager={eager},cc={:?},engine={engine:?},sim={sim:?}", v2());
    plan.push(key("composed", bench, wc, &detail), move || {
        let stats = {
            let _r = span("run");
            dise_bench::run_composed_dise(&c, engine, sim, eager, fuel)
        };
        (stats, compress_stats(&c))
    });
}

fn build_plan(workload: Workload, pass_seed: u64) -> Plan {
    let wc = WorkloadConfig {
        dyn_insts: DYN_INSTS,
        seed: pass_seed,
    };
    let fuel = dise_bench::fuel_for(wc.dyn_insts);
    let mut plan = Plan::new();
    for &bench in workload.benches() {
        let first = plan.cells.len();
        let p = gen(bench, &wc);
        match workload {
            Workload::Mfi => {
                let sim = SimConfig::default();
                add_baseline(&mut plan, bench, &wc, &p, sim);
                let pr = Arc::clone(&p);
                plan.push(
                    key("rewrite_mfi", bench, &wc, &format!("sim={sim:?}")),
                    move || {
                        let rewritten = {
                            let _t = span("transform");
                            RewriteMfi::new().rewrite(&pr).expect("rewrite").program
                        };
                        let _r = span("run");
                        (dise_bench::run_baseline(&rewritten, sim, fuel), Vec::new())
                    },
                );
                for (variant, cost) in [
                    (MfiVariant::Dise4, ExpansionCost::Free),
                    (MfiVariant::Dise3, ExpansionCost::StallPerExpansion),
                    (MfiVariant::Dise3, ExpansionCost::ExtraStage),
                    (MfiVariant::Dise3, ExpansionCost::Free),
                ] {
                    let pd = Arc::clone(&p);
                    let detail = format!(
                        "variant={variant:?},cost={cost:?},engine={:?},sim={sim:?}",
                        EngineConfig::default()
                    );
                    plan.push(key("dise_mfi", bench, &wc, &detail), move || {
                        let _r = span("run");
                        (
                            dise_bench::run_dise_mfi(&pd, variant, cost, sim, fuel),
                            Vec::new(),
                        )
                    });
                }
            }
            Workload::Compress => {
                let c = compress(&p);
                let perfect = EngineConfig::default().perfect_rt();
                for size in ICACHE_SIZES {
                    let sim = SimConfig::default().with_icache_size(size);
                    add_baseline(&mut plan, bench, &wc, &p, sim);
                    add_compressed(&mut plan, bench, &wc, &c, perfect, sim);
                }
                let sim = SimConfig::default().with_icache_size(Some(8 * 1024));
                for (entries, org) in RT_CONFIGS {
                    add_compressed(&mut plan, bench, &wc, &c, finite_rt(entries, org), sim);
                }
            }
            Workload::Compose => {
                let c = compress(&p);
                let perfect = EngineConfig::default().perfect_rt();
                add_baseline(
                    &mut plan,
                    bench,
                    &wc,
                    &p,
                    SimConfig::default().with_icache_size(Some(32 * 1024)),
                );
                for size in ICACHE_SIZES {
                    let sim = SimConfig::default().with_icache_size(size);
                    add_composed(&mut plan, bench, &wc, &c, perfect, sim, true);
                }
                let sim = SimConfig::default().with_icache_size(Some(8 * 1024));
                for (entries, org) in RT_CONFIGS {
                    for eager in [true, false] {
                        add_composed(
                            &mut plan,
                            bench,
                            &wc,
                            &c,
                            finite_rt(entries, org),
                            sim,
                            eager,
                        );
                    }
                }
            }
        }
        plan.groups.push(first..plan.cells.len());
    }
    plan
}

// ---------------------------------------------------------------------
// Correctness: per-benchmark invariants on committed instruction counts,
// plus the Figure 6 ordering per pass.

/// Checks one benchmark's cells; `Err` names the broken invariant.
fn check_group(workload: Workload, o: &[Outcome]) -> Result<(), String> {
    if let Some(i) = o.iter().position(|c| !c.ok) {
        return Err(format!("cell {i} failed or produced an empty run"));
    }
    let same = |what: &str, idx: &[usize], f: fn(&Outcome) -> u64| {
        let v = f(&o[idx[0]]);
        match idx.iter().find(|&&i| f(&o[i]) != v) {
            Some(&i) => Err(format!(
                "{what}: cell {i} = {} vs cell {} = {v}",
                f(&o[i]),
                idx[0]
            )),
            None => Ok(()),
        }
    };
    match workload {
        Workload::Mfi => {
            // [baseline, rewrite, DISE4, DISE3 +stall, DISE3 +pipe, DISE3]
            same(
                "DISE leaves the application stream alone",
                &[0, 2, 3, 4, 5],
                |c| c.app_insts,
            )?;
            same(
                "expansion cost never changes what commits",
                &[3, 4, 5],
                |c| c.total_insts,
            )?;
            if o[1].app_insts <= o[0].app_insts {
                return Err("rewriting inserted no checks".into());
            }
            if o[2..]
                .iter()
                .any(|c| c.expansions == 0 || c.total_insts <= c.app_insts)
            {
                return Err("a DISE MFI run expanded nothing".into());
            }
            if o[2].total_insts <= o[5].total_insts {
                return Err("DISE4 committed no more than DISE3".into());
            }
        }
        Workload::Compress => {
            // 4 × [uncompressed, DISE perfect RT], then 4 finite RTs.
            same(
                "decompression commits the original stream at every configuration",
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                |c| c.total_insts,
            )?;
            if o[1].app_insts >= o[0].app_insts || o[1].expansions == 0 {
                return Err("compressed run fetched no codewords".into());
            }
            if o[8..].iter().any(|c| c.cycles < o[1].cycles) {
                return Err("a finite RT ran faster than the perfect RT".into());
            }
        }
        Workload::Compose => {
            // [baseline 32K], 4 × eager DISE+DISE per I-cache size, then
            // 4 × [eager, compose-on-miss] per finite RT.
            same(
                "DISE+DISE commits one stream at every size and RT",
                &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
                |c| c.total_insts,
            )?;
            if o[1].total_insts <= o[0].total_insts {
                return Err("composed runs added no fault-isolation checks".into());
            }
            if o[5..].chunks(2).any(|p| p[1].cycles < p[0].cycles) {
                return Err("compose-on-miss ran faster than eager composition".into());
            }
        }
    }
    Ok(())
}

fn gmean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u32), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n as f64).exp()
}

/// The Figure 6 top shape, by geometric mean over benchmarks: rewriting
/// costs more than DISE3, DISE4 more than DISE3, and the expansion-cost
/// models order as +stall ≥ +pipe ≥ free.
fn check_fig6_shape(groups: &[&[Outcome]]) -> Result<(), String> {
    let norm = |i: usize| {
        gmean(
            groups
                .iter()
                .map(|o| o[i].cycles as f64 / o[0].cycles as f64),
        )
    };
    let (rewrite, dise4, stall, pipe, dise3) = (norm(1), norm(2), norm(3), norm(4), norm(5));
    if rewrite > dise3 && dise4 > dise3 && stall >= pipe && pipe >= dise3 {
        Ok(())
    } else {
        Err(format!(
            "Figure 6 ordering broken: rewrite {rewrite:.4} DISE4 {dise4:.4} +stall {stall:.4} +pipe {pipe:.4} DISE3 {dise3:.4}"
        ))
    }
}

// ---------------------------------------------------------------------
// Passes and the run loop.

/// One pass's measurements. Times exclude the probes and are raw; the
/// metrics rescale them by `speed`.
struct PassResult {
    construct: Duration,
    cells_phase: Duration,
    total: Duration,
    /// `PROBE_REF / median probe time`: above 1 when the host ran faster
    /// than the reference scale.
    speed: f64,
    outcomes: Vec<Outcome>,
    failed: usize,
    shape_error: Option<String>,
    self_times: BTreeMap<&'static str, Duration>,
    profile_ns: BTreeMap<String, f64>,
}

impl PassResult {
    /// A raw duration of this pass in reference-scale seconds.
    fn secs(&self, d: Duration) -> f64 {
        d.as_secs_f64() * self.speed
    }

    /// Sums one counter over every cell of the pass.
    fn sum(&self, f: impl Fn(&Outcome) -> u64) -> f64 {
        self.outcomes.iter().map(f).sum::<u64>() as f64
    }
}

fn profile_ns() -> BTreeMap<String, f64> {
    dise_obs::profile::snapshot()
        .into_iter()
        .filter_map(|(k, v)| {
            let phase = k.strip_prefix("profile.")?.strip_suffix(".ns")?;
            Some((phase.to_string(), v))
        })
        .collect()
}

fn run_pass(workload: Workload, pass_seed: u64, cache_dir: &std::path::Path) -> PassResult {
    let before = profile_ns();
    take_probes();
    let start = Instant::now();
    let pass_span = span("pass");
    let plan = {
        let _c = span("construct");
        build_plan(workload, pass_seed)
    };
    let construct = start.elapsed();
    let sweep = Sweep::new(
        DYN_INSTS,
        Vec::new(),
        Pool::new(1),
        CellCache::at(cache_dir),
    );
    {
        let _c = span("cells");
        sweep.run_cells(&plan.cells);
    }
    let probes = take_probes();
    let total = start.elapsed() - probes.iter().sum::<Duration>();
    drop(pass_span);
    let self_times = take_self_times();
    let after = profile_ns();
    let profile_ns = after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect();

    let outcomes = plan.log.lock().expect("outcome log").clone();
    let mut failed = 0;
    let mut groups = Vec::new();
    for (bench, range) in workload.benches().iter().zip(&plan.groups) {
        let o = &outcomes[range.clone()];
        if let Err(why) = check_group(workload, o) {
            eprintln!("perfbench: pass seed {pass_seed}, {bench}: {why}");
            failed += o.len();
        } else {
            groups.push(o);
        }
    }
    let shape_error = match workload {
        Workload::Mfi if failed == 0 => check_fig6_shape(&groups).err(),
        _ => None,
    };
    drop(plan);
    dise_sim::arena::reap_unreferenced();
    PassResult {
        construct,
        cells_phase: total - construct,
        total,
        speed: PROBE_REF.as_secs_f64() / median(probes.iter().map(Duration::as_secs_f64).collect()),
        outcomes,
        failed,
        shape_error,
        self_times,
        profile_ns,
    }
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end_metrics(passes: &[PassResult]) -> Result<Vec<Metric>, String> {
    let per_pass = |f: &dyn Fn(&PassResult) -> f64| median(passes.iter().map(f).collect());
    Ok(vec![
        ("sweep_s", per_pass(&|p| p.secs(p.total)), "s"),
        (
            "sim_mips",
            per_pass(&|p| p.sum(|o| o.total_insts) / p.secs(p.cells_phase) / 1e6),
            "Minst/s",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
        ("setup_s", per_pass(&|p| p.secs(p.construct)), "s"),
    ])
}

/// Per-pass medians of each layer's self time (benchmark spans, with the
/// run helpers split by the simulator's `profile.*` phase counters),
/// plus the work counts those layers did.
fn per_layer_metrics(passes: &[PassResult]) -> Vec<Metric> {
    let span_ms = |p: &PassResult, names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| p.self_times.get(n).map_or(0.0, |&d| p.secs(d) * 1e3))
            .sum()
    };
    let phase_ms = |p: &PassResult, phase: &str| {
        p.profile_ns.get(phase).copied().unwrap_or(0.0) / 1e6 * p.speed
    };
    let per_pass = |f: &dyn Fn(&PassResult) -> f64| median(passes.iter().map(f).collect());
    const PHASES: [&str; 3] = ["predecode", "engine_setup", "timing_run"];
    vec![
        ("gen_ms", per_pass(&|p| span_ms(p, &["gen"])), "ms"),
        (
            "transform_ms",
            per_pass(&|p| span_ms(p, &["transform"])),
            "ms",
        ),
        (
            "predecode_ms",
            per_pass(&|p| phase_ms(p, "predecode")),
            "ms",
        ),
        (
            "engine_setup_ms",
            per_pass(&|p| phase_ms(p, "engine_setup")),
            "ms",
        ),
        (
            "timing_run_ms",
            per_pass(&|p| phase_ms(p, "timing_run")),
            "ms",
        ),
        (
            "run_other_ms",
            per_pass(&|p| {
                span_ms(p, &["run"]) - PHASES.iter().map(|ph| phase_ms(p, ph)).sum::<f64>()
            }),
            "ms",
        ),
        ("stats_ms", per_pass(&|p| span_ms(p, &["stats"])), "ms"),
        (
            "harness_ms",
            per_pass(&|p| span_ms(p, &["pass", "construct", "cells", "cell"])),
            "ms",
        ),
        (
            "timing_mips",
            per_pass(&|p| p.sum(|o| o.total_insts) / (phase_ms(p, "timing_run") * 1e3)),
            "Minst/s",
        ),
        (
            "sim_insts",
            per_pass(&|p| p.sum(|o| o.total_insts)),
            "count",
        ),
        ("sim_cycles", per_pass(&|p| p.sum(|o| o.cycles)), "count"),
        (
            "expansions",
            per_pass(&|p| p.sum(|o| o.expansions)),
            "count",
        ),
        ("cells", per_pass(&|p| p.outcomes.len() as f64), "count"),
        ("host_speed", per_pass(&|p| p.speed), "ratio"),
        ("traced_sweep_s", per_pass(&|p| p.secs(p.total)), "s"),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!("usage: perfbench --workload <mfi|compress|compose> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // Panics inside cells are caught and counted as failed cells; keep
    // their messages to one line so a failure stays readable.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: panic: {info}")));

    let cache_dir = PathBuf::from(".perfbench_cache").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&cache_dir);
    if args.trace {
        TRACE.with(|t| *t.borrow_mut() = Some(Trace::default()));
    }
    let pass_seed = |i: u64| args.seed.wrapping_mul(1 << 20).wrapping_add(i);

    // Warm-up pass: lazy statics, allocator growth, page faults.
    let warm = run_pass(args.workload, pass_seed(0), &cache_dir);
    let mut passes = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut i = 1;
    while passes.is_empty() || start.elapsed() < budget {
        passes.push(run_pass(args.workload, pass_seed(i), &cache_dir));
        i += 1;
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_dir(".perfbench_cache");

    let attempted: usize = passes.iter().map(|p| p.outcomes.len()).sum();
    let failed: usize = passes.iter().map(|p| p.failed).sum();
    let mut correct = failed == 0 && warm.failed == 0;
    for p in passes.iter().chain([&warm]) {
        if let Some(why) = &p.shape_error {
            eprintln!("perfbench: {why}");
            correct = false;
        }
    }
    let metrics = if args.trace {
        per_layer_metrics(&passes)
    } else {
        end_to_end_metrics(&passes).unwrap_or_else(|why| {
            eprintln!("perfbench: {why}");
            std::process::exit(1);
        })
    };
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("perfbench: metric {name} is not a finite number ({value})");
        std::process::exit(1);
    }
    eprintln!(
        "perfbench: workload {} seed {}: {} timed passes, {attempted} cells, {failed} failed",
        args.workload.name(),
        args.seed,
        passes.len()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
