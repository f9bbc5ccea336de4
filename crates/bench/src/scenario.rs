//! Scenarios: each figure cell's configuration as data.
//!
//! A [`Scenario`] is one of the paper's configurations (§4.1–4.3): a
//! benchmark's workload, turned into an image by a recipe (plain,
//! rewritten, compressed), run under an ACF on an engine and a machine.
//! That one description renders the cell's cache key
//! ([`Scenario::key`]), builds its machine ([`Scenario::machine`]`(true)`)
//! and builds the slow-path shadow oracle (`machine(false)`), so the
//! three cannot drift apart.

use std::borrow::Cow;
use std::sync::{Arc, Mutex, OnceLock};

use dise_acf::compress::{CompressedProgram, CompressionConfig, SelectAlgo};
use dise_acf::mfi::{Mfi, MfiVariant};
use dise_core::{compose, Controller, DiseEngine, EngineConfig, ProductionSet};
use dise_isa::Program;
use dise_rewrite::{DedicatedDecompressor, RewriteMfi};
use dise_sim::{ExpansionCost, Machine, MachineConfig, SimConfig, SimStats, Simulator};
use dise_workloads::{Benchmark, WorkloadConfig};

use crate::cache::{CellOutput, CACHE_VERSION};
use crate::{
    apply_telemetry, checkpoint, compress, fuel_for, registry_pairs, stat_pairs, telemetry, Cell,
};

/// How a benchmark's workload becomes the image a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recipe {
    /// The workload as generated.
    Plain,
    /// The workload under binary-rewriting memory fault isolation.
    RewriteMfi,
    /// The workload compressed under a configuration.
    Compress(CompressionConfig),
    /// The MFI-rewritten workload, compressed for the dedicated
    /// decompressor or under `cc`.
    RewriteCompress {
        /// Compress for the dedicated decompressor (which ignores `cc`).
        dedicated: bool,
        /// The DISE compression configuration.
        cc: CompressionConfig,
    },
}

/// The application customization function a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Acf {
    /// None: the image runs bare.
    Baseline,
    /// DISE memory fault isolation, with the engine placed as the cost
    /// says.
    DiseMfi(MfiVariant, ExpansionCost),
    /// The compressed image's decompressor.
    Decompress,
    /// Decompression with DISE3 MFI composed into it: up front
    /// (`eager`) or in the RT miss handler.
    Compose {
        /// Compose the production sets before the run.
        eager: bool,
    },
}

/// A built image: a program, or a compressed program together with
/// whatever expands it again.
pub(crate) enum Image<'a> {
    /// An uncompressed program.
    Program(Cow<'a, Program>),
    /// A compressed program.
    Compressed(Cow<'a, CompressedProgram>),
}

impl Image<'_> {
    /// The text a machine loads.
    pub(crate) fn program(&self) -> &Program {
        match self {
            Image::Program(p) => p,
            Image::Compressed(c) => &c.program,
        }
    }

    fn compressed(&self) -> &CompressedProgram {
        match self {
            Image::Compressed(c) => c,
            Image::Program(_) => panic!("decompression needs a compressed image"),
        }
    }
}

type Slot = Arc<OnceLock<Arc<Image<'static>>>>;

/// A benchmark's workload and the images recipes make of it. Each image
/// is built at most once, by the first scenario that needs it, so a
/// panel whose cells all hit the cache builds none.
pub struct Workload {
    bench: Benchmark,
    config: WorkloadConfig,
    images: Mutex<Vec<(Recipe, Slot)>>,
}

impl Workload {
    /// The workload `config` generates for `bench`; nothing is built yet.
    pub fn new(bench: Benchmark, config: WorkloadConfig) -> Arc<Workload> {
        Arc::new(Workload {
            bench,
            config,
            images: Mutex::new(Vec::new()),
        })
    }

    /// The content-address key of a cell on this workload: cache
    /// version, run kind, workload identity and the configuration
    /// detail.
    pub(crate) fn cell_key(&self, kind: &str, detail: &str) -> String {
        format!(
            "v{CACHE_VERSION}|{kind}|{}|{}|{detail}",
            self.bench.name(),
            self.config.fingerprint()
        )
    }

    /// The image `recipe` makes of this workload, built on first use.
    pub(crate) fn image(&self, recipe: Recipe) -> Arc<Image<'static>> {
        let slot = {
            let mut images = self.images.lock().expect("image slots poisoned");
            match images.iter().find(|(r, _)| *r == recipe) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = Slot::default();
                    images.push((recipe, Arc::clone(&slot)));
                    slot
                }
            }
        };
        Arc::clone(slot.get_or_init(|| Arc::new(self.build(recipe))))
    }

    fn build(&self, recipe: Recipe) -> Image<'static> {
        match recipe {
            Recipe::Plain => Image::Program(Cow::Owned(self.bench.build(&self.config))),
            Recipe::RewriteMfi => {
                let plain = self.image(Recipe::Plain);
                let rewritten = RewriteMfi::new().rewrite(plain.program()).expect("rewrite");
                Image::Program(Cow::Owned(rewritten.program))
            }
            Recipe::Compress(cc) => Image::Compressed(Cow::Owned(compress(
                self.image(Recipe::Plain).program(),
                cc,
            ))),
            Recipe::RewriteCompress { dedicated, cc } => {
                let rewritten = self.image(Recipe::RewriteMfi);
                Image::Compressed(Cow::Owned(if dedicated {
                    DedicatedDecompressor::new()
                        .compress(rewritten.program())
                        .expect("dedicated compression")
                } else {
                    compress(rewritten.program(), cc)
                }))
            }
        }
    }
}

/// One figure cell's configuration: a recipe applied to a workload, the
/// ACF, the engine and the machine. Build one with the constructor named
/// after its cell kind.
#[derive(Clone)]
pub struct Scenario {
    workload: Arc<Workload>,
    recipe: Recipe,
    acf: Acf,
    engine: EngineConfig,
    sim: SimConfig,
}

impl Scenario {
    fn new(
        w: &Arc<Workload>,
        recipe: Recipe,
        acf: Acf,
        engine: EngineConfig,
        sim: SimConfig,
    ) -> Scenario {
        let workload = Arc::clone(w);
        Scenario {
            workload,
            recipe,
            acf,
            engine,
            sim,
        }
    }

    /// The bare workload, no ACF.
    pub fn baseline(w: &Arc<Workload>, sim: SimConfig) -> Scenario {
        let engine = EngineConfig::default();
        Scenario::new(w, Recipe::Plain, Acf::Baseline, engine, sim)
    }

    /// Binary-rewriting memory fault isolation.
    pub fn rewrite_mfi(w: &Arc<Workload>, sim: SimConfig) -> Scenario {
        let engine = EngineConfig::default();
        Scenario::new(w, Recipe::RewriteMfi, Acf::Baseline, engine, sim)
    }

    /// DISE memory fault isolation on the default engine.
    pub fn dise_mfi(
        w: &Arc<Workload>,
        variant: MfiVariant,
        cost: ExpansionCost,
        sim: SimConfig,
    ) -> Scenario {
        let engine = EngineConfig::default();
        Scenario::new(w, Recipe::Plain, Acf::DiseMfi(variant, cost), engine, sim)
    }

    /// DISE decompression of the workload compressed under `cc`.
    pub fn compressed(
        w: &Arc<Workload>,
        cc: CompressionConfig,
        engine: EngineConfig,
        sim: SimConfig,
    ) -> Scenario {
        Scenario::new(w, Recipe::Compress(cc), Acf::Decompress, engine, sim)
    }

    /// The DISE+DISE composition: decompression with MFI composed in,
    /// eagerly or in the RT miss handler.
    pub fn composed(
        w: &Arc<Workload>,
        cc: CompressionConfig,
        engine: EngineConfig,
        sim: SimConfig,
        eager: bool,
    ) -> Scenario {
        Scenario::new(w, Recipe::Compress(cc), Acf::Compose { eager }, engine, sim)
    }

    /// Rewriting MFI, then decompression by the dedicated decompressor or
    /// by DISE under v2 `dise_full` (the two non-DISE-MFI combinations of
    /// Figure 8 top).
    pub fn rewrite_compress(
        w: &Arc<Workload>,
        dedicated: bool,
        engine: EngineConfig,
        sim: SimConfig,
    ) -> Scenario {
        let cc = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
        let recipe = Recipe::RewriteCompress { dedicated, cc };
        Scenario::new(w, recipe, Acf::Decompress, engine, sim)
    }

    /// The cell's content-address key. Its text is what every committed
    /// stats-JSON and cache entry is keyed on, quirks included.
    pub fn key(&self) -> String {
        let (engine, sim) = (self.engine, self.sim);
        let (kind, detail) = match (self.recipe, self.acf) {
            (Recipe::Plain, Acf::Baseline) => ("baseline", format!("sim={sim:?}")),
            (Recipe::RewriteMfi, Acf::Baseline) => ("rewrite_mfi", format!("sim={sim:?}")),
            // `sim` is keyed before the engine placement's cost applies.
            (Recipe::Plain, Acf::DiseMfi(variant, cost)) => (
                "dise_mfi",
                format!("variant={variant:?},cost={cost:?},engine={engine:?},sim={sim:?}"),
            ),
            (Recipe::Compress(cc), Acf::Decompress) => (
                "compressed",
                format!("cc={cc:?},engine={engine:?},sim={sim:?}"),
            ),
            (Recipe::Compress(cc), Acf::Compose { eager }) => (
                "composed",
                format!("eager={eager},cc={cc:?},engine={engine:?},sim={sim:?}"),
            ),
            (Recipe::RewriteCompress { dedicated, cc }, Acf::Decompress) => (
                "rewrite_compress",
                format!("dedicated={dedicated},cc={cc:?},engine={engine:?},sim={sim:?}"),
            ),
            (recipe, acf) => unreachable!("no constructor pairs {recipe:?} with {acf:?}"),
        };
        self.workload.cell_key(kind, &detail)
    }

    /// The machine configuration the run uses: `sim` with the DISE
    /// engine placement's expansion cost applied.
    pub fn sim(&self) -> SimConfig {
        sim_config(self.acf, self.sim)
    }

    /// The loaded machine with its ACF attached: on the fast path, or on
    /// the byte-accurate slow path that the shadow oracle runs.
    pub fn machine(&self, fast: bool) -> Machine {
        let image = self.workload.image(self.recipe);
        let attach = attacher(&image, self.acf);
        build(&image, attach.as_deref(), self.engine, fast)
    }

    /// The figure cell that runs this scenario: its cycles, plus every
    /// counter the run exports.
    pub fn cell(self) -> Cell {
        let fuel = fuel_for(self.workload.config.dyn_insts);
        Cell::new(self.key(), move || {
            let stats = run(&self, fuel);
            let mut pairs = stat_pairs(&stats);
            // Compressed workloads also export the static
            // `acf.compress.*` counters of their image (rewritten ones
            // do not), name-sorted so the snapshot stays byte-stable.
            if let Recipe::Compress(_) = self.recipe {
                let image = self.workload.image(self.recipe);
                pairs.extend(registry_pairs(&image.compressed().stats.registry()));
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
            }
            CellOutput {
                values: vec![stats.cycles as f64],
                stats: pairs,
            }
        })
    }
}

/// Runs a scenario for up to `fuel` dynamic instructions, building its
/// image first if no earlier run has.
pub fn run(s: &Scenario, fuel: u64) -> SimStats {
    run_image(&s.workload.image(s.recipe), s.acf, s.engine, s.sim, fuel)
}

/// Runs a bare program (no ACFs).
pub fn run_baseline(program: &Program, config: SimConfig, fuel: u64) -> SimStats {
    let image = Image::Program(Cow::Borrowed(program));
    run_image(&image, Acf::Baseline, EngineConfig::default(), config, fuel)
}

/// Runs a program under DISE memory fault isolation.
pub fn run_dise_mfi(
    program: &Program,
    variant: MfiVariant,
    cost: ExpansionCost,
    config: SimConfig,
    fuel: u64,
) -> SimStats {
    let image = Image::Program(Cow::Borrowed(program));
    run_image(
        &image,
        Acf::DiseMfi(variant, cost),
        EngineConfig::default(),
        config,
        fuel,
    )
}

/// Runs a compressed program with its decompressor attached.
pub fn run_compressed(
    compressed: &CompressedProgram,
    engine_config: EngineConfig,
    config: SimConfig,
    fuel: u64,
) -> SimStats {
    let image = Image::Compressed(Cow::Borrowed(compressed));
    run_image(&image, Acf::Decompress, engine_config, config, fuel)
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
    let image = Image::Compressed(Cow::Borrowed(compressed));
    run_image(&image, Acf::Compose { eager }, engine_config, config, fuel)
}

fn sim_config(acf: Acf, sim: SimConfig) -> SimConfig {
    match acf {
        Acf::DiseMfi(_, cost) => sim.with_expansion_cost(cost),
        _ => sim,
    }
}

/// The one run body. The primary loads under the `predecode` phase and
/// attaches its ACF under `engine_setup`; with `--shadow` armed (and
/// during an anomaly replay) the slow-path twin of the same build checks
/// it on every retired instruction.
fn run_image(
    image: &Image<'_>,
    acf: Acf,
    engine: EngineConfig,
    sim: SimConfig,
    fuel: u64,
) -> SimStats {
    let attach = attacher(image, acf);
    let mut m = {
        let _t = dise_obs::profile::scope("predecode");
        let _s = dise_obs::span::enter("phase", "predecode");
        Machine::load(image.program())
    };
    if let Some(attach) = &attach {
        let _t = dise_obs::profile::scope("engine_setup");
        let _s = dise_obs::span::enter("phase", "engine_setup");
        attach(&mut m, engine);
    }
    let mut sim = Simulator::new(apply_telemetry(sim_config(acf, sim)), m);
    let shadow = || build(image, attach.as_deref(), engine, false);
    if telemetry().shadow {
        sim.attach_shadow(shadow());
    }
    let _t = dise_obs::profile::scope("timing_run");
    let _s = dise_obs::span::enter("phase", "timing_run");
    checkpoint::run_sim_replay(&mut sim, fuel, Some(&shadow))
        .unwrap_or_else(|e| panic!("{acf:?} run: {e}"))
        .stats
}

type Attach<'a> = dyn Fn(&mut Machine, EngineConfig) + Sync + 'a;

/// How `acf` attaches to a machine loaded with `image` (`None`: it does
/// not). Work every machine of a run shares, composition's production
/// sets, happens here, once.
fn attacher<'a>(image: &'a Image<'_>, acf: Acf) -> Option<Box<Attach<'a>>> {
    Some(match acf {
        Acf::Baseline => return None,
        Acf::DiseMfi(variant, _) => Box::new(move |m, engine| {
            let mfi = mfi_productions(image.program(), variant);
            m.attach_engine(DiseEngine::with_productions(engine, mfi).expect("engine"));
            Mfi::init_machine(m);
        }),
        Acf::Decompress => Box::new(move |m, engine| {
            image
                .compressed()
                .attach(m, engine)
                .expect("attach decompressor");
        }),
        Acf::Compose { eager } => {
            let c = image.compressed();
            let aware = c
                .productions
                .clone()
                .expect("DISE compression produces productions");
            let mfi = mfi_productions(&c.program, MfiVariant::Dise3);
            Box::new(move |m, engine| {
                m.attach_engine(if eager {
                    let composed =
                        compose::compose_nested(&mfi, &aware).expect("eager composition");
                    DiseEngine::with_productions(engine, composed).expect("engine")
                } else {
                    // The engine must also apply MFI to uncompressed
                    // instructions, so the active set holds both ACFs;
                    // only aware fills compose.
                    let mut set = mfi.clone();
                    set.absorb(&aware).expect("absorb aware productions");
                    let controller = Controller::new(set).with_inline_on_fill(mfi.clone());
                    DiseEngine::with_controller(engine, controller)
                });
                Mfi::init_machine(m);
            })
        }
    })
}

/// A machine loaded with `image` and `attach`ed, on the fast path or on
/// the slow path (which leaves the engine unbound).
fn build(
    image: &Image<'_>,
    attach: Option<&Attach<'_>>,
    engine: EngineConfig,
    fast: bool,
) -> Machine {
    let config = MachineConfig {
        fast_path: fast,
        ..MachineConfig::default()
    };
    let mut m = Machine::with_config(image.program(), config);
    if let Some(attach) = attach {
        attach(&mut m, engine);
    }
    m
}

/// The MFI production set for `program` (error handler at its
/// `mfi_error` symbol).
fn mfi_productions(program: &Program, variant: MfiVariant) -> ProductionSet {
    Mfi::new(variant)
        .with_error_handler(
            program
                .symbol("mfi_error")
                .expect("workloads define mfi_error"),
        )
        .productions()
        .expect("MFI productions build")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_core::RtOrganization;

    /// Every kind's key, against a key copied from the committed
    /// `results/fig{6,7,8}.stats.json`.
    #[test]
    fn keys_match_the_committed_stats_json() {
        let w = Workload::new(
            Benchmark::Bzip2,
            WorkloadConfig::default().with_dyn_insts(500_000),
        );
        let sim = SimConfig::default();
        let sim8k = sim.with_icache_size(Some(8 * 1024));
        let v2 = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
        let rt512 = |rt_org| EngineConfig {
            rt_entries: 512,
            rt_org,
            ..EngineConfig::default()
        };
        let perfect = EngineConfig::default().perfect_rt();
        let stall = ExpansionCost::StallPerExpansion;
        let cases = [
            (Scenario::baseline(&w, sim), "v3|baseline|bzip2|dyn=500000,seed=0|sim=SimConfig { width: 4, frontend_depth: 10, rob_size: 128, rs_size: 80, mem: MemoryHierarchyConfig { icache: CacheConfig { size: Some(32768), assoc: 2, line: 64 }, dcache: CacheConfig { size: Some(32768), assoc: 2, line: 64 }, l2: CacheConfig { size: Some(1048576), assoc: 4, line: 64 }, l1_latency: 1, l2_latency: 12, mem_latency: 100 }, bpred: BpredConfig { gshare_bits: 14, btb_entries: 2048, ras_depth: 16 }, expansion_cost: Free }"),
            (Scenario::rewrite_mfi(&w, sim8k), "v3|rewrite_mfi|bzip2|dyn=500000,seed=0|sim=SimConfig { width: 4, frontend_depth: 10, rob_size: 128, rs_size: 80, mem: MemoryHierarchyConfig { icache: CacheConfig { size: Some(8192), assoc: 2, line: 64 }, dcache: CacheConfig { size: Some(32768), assoc: 2, line: 64 }, l2: CacheConfig { size: Some(1048576), assoc: 4, line: 64 }, l1_latency: 1, l2_latency: 12, mem_latency: 100 }, bpred: BpredConfig { gshare_bits: 14, btb_entries: 2048, ras_depth: 16 }, expansion_cost: Free }"),
            (Scenario::dise_mfi(&w, MfiVariant::Dise3, stall, sim), "v3|dise_mfi|bzip2|dyn=500000,seed=0|variant=Dise3,cost=StallPerExpansion,engine=EngineConfig { pt_entries: 32, rt_entries: 2048, rt_org: SetAssociative(2), rt_block: 1, miss_penalty: 30, compose_penalty: 150 },sim=SimConfig { width: 4, frontend_depth: 10, rob_size: 128, rs_size: 80, mem: MemoryHierarchyConfig { icache: CacheConfig { size: Some(32768), assoc: 2, line: 64 }, dcache: CacheConfig { size: Some(32768), assoc: 2, line: 64 }, l2: CacheConfig { size: Some(1048576), assoc: 4, line: 64 }, l1_latency: 1, l2_latency: 12, mem_latency: 100 }, bpred: BpredConfig { gshare_bits: 14, btb_entries: 2048, ras_depth: 16 }, expansion_cost: Free }"),
            (Scenario::compressed(&w, v2, rt512(RtOrganization::DirectMapped), sim8k), "v3|compressed|bzip2|dyn=500000,seed=0|cc=CompressionConfig { cw_op: Cw0, two_byte_codewords: false, min_seq_len: 2, max_seq_len: 8, parameterize: true, compress_branches: true, allow_jumps: true, entry_bytes_per_inst: 8, max_entries: 2048, select: V2 },engine=EngineConfig { pt_entries: 32, rt_entries: 512, rt_org: DirectMapped, rt_block: 1, miss_penalty: 30, compose_penalty: 150 },sim=SimConfig { width: 4, frontend_depth: 10, rob_size: 128, rs_size: 80, mem: MemoryHierarchyConfig { icache: CacheConfig { size: Some(8192), assoc: 2, line: 64 }, dcache: CacheConfig { size: Some(32768), assoc: 2, line: 64 }, l2: CacheConfig { size: Some(1048576), assoc: 4, line: 64 }, l1_latency: 1, l2_latency: 12, mem_latency: 100 }, bpred: BpredConfig { gshare_bits: 14, btb_entries: 2048, ras_depth: 16 }, expansion_cost: Free }"),
            (Scenario::composed(&w, v2, rt512(RtOrganization::SetAssociative(2)), sim8k, false), "v3|composed|bzip2|dyn=500000,seed=0|eager=false,cc=CompressionConfig { cw_op: Cw0, two_byte_codewords: false, min_seq_len: 2, max_seq_len: 8, parameterize: true, compress_branches: true, allow_jumps: true, entry_bytes_per_inst: 8, max_entries: 2048, select: V2 },engine=EngineConfig { pt_entries: 32, rt_entries: 512, rt_org: SetAssociative(2), rt_block: 1, miss_penalty: 30, compose_penalty: 150 },sim=SimConfig { width: 4, frontend_depth: 10, rob_size: 128, rs_size: 80, mem: MemoryHierarchyConfig { icache: CacheConfig { size: Some(8192), assoc: 2, line: 64 }, dcache: CacheConfig { size: Some(32768), assoc: 2, line: 64 }, l2: CacheConfig { size: Some(1048576), assoc: 4, line: 64 }, l1_latency: 1, l2_latency: 12, mem_latency: 100 }, bpred: BpredConfig { gshare_bits: 14, btb_entries: 2048, ras_depth: 16 }, expansion_cost: Free }"),
            (Scenario::rewrite_compress(&w, true, perfect, sim.with_icache_size(Some(128 * 1024))), "v3|rewrite_compress|bzip2|dyn=500000,seed=0|dedicated=true,cc=CompressionConfig { cw_op: Cw0, two_byte_codewords: false, min_seq_len: 2, max_seq_len: 8, parameterize: true, compress_branches: true, allow_jumps: true, entry_bytes_per_inst: 8, max_entries: 2048, select: V2 },engine=EngineConfig { pt_entries: 32, rt_entries: 2048, rt_org: Perfect, rt_block: 1, miss_penalty: 30, compose_penalty: 150 },sim=SimConfig { width: 4, frontend_depth: 10, rob_size: 128, rs_size: 80, mem: MemoryHierarchyConfig { icache: CacheConfig { size: Some(131072), assoc: 2, line: 64 }, dcache: CacheConfig { size: Some(32768), assoc: 2, line: 64 }, l2: CacheConfig { size: Some(1048576), assoc: 4, line: 64 }, l1_latency: 1, l2_latency: 12, mem_latency: 100 }, bpred: BpredConfig { gshare_bits: 14, btb_entries: 2048, ras_depth: 16 }, expansion_cost: Free }"),
        ];
        for (scenario, key) in cases {
            assert_eq!(scenario.key(), key);
        }
    }
}
