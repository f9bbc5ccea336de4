//! Lockstep differential tests for the DISE engine's PC-indexed expansion
//! cache.
//!
//! A machine on the default fast path (predecode table, expansion cache)
//! and a twin on the slow path (byte-accurate fetch, live engine) step the
//! same image one dynamic instruction at a time and must agree on every
//! step report and on the engine statistics after every step. Each feeds
//! its steps to a PT/RT model of a 512-entry direct-mapped RT and a
//! two-entry PT, so sequences and patterns keep getting evicted, and
//! both go through the same scripted events: context switches of the
//! tables, a runtime transparent install whose sequence takes a
//! DISE-internal branch, a second one that overrides it for `addq` (so
//! cached `addq` expansions go stale), and a runtime aware install.
//! Every test also proves that it exercised what it claims to: cache
//! hits, PT and RT misses, taken DISE branches.

use dise::acf::compress::{CompressionConfig, Compressor};
use dise::acf::mfi::{Mfi, MfiVariant};
use dise::engine::{
    DiseEngine, EngineConfig, ImmDirective, InstSpec, OpDirective, Pattern, RegDirective,
    ReplacementSpec, RtOrganization, SeqRef,
};
use dise::isa::{Inst, Op, OpClass, Program, Reg};
use dise::sim::{DiseCacheModel, Machine, MachineConfig};
use dise::workloads::{Benchmark, WorkloadConfig};

fn workload(bench: Benchmark) -> Program {
    bench.build(&WorkloadConfig::tiny().with_dyn_insts(30_000))
}

/// A 512-entry direct-mapped RT and a PT that holds two of the image's
/// rules at a time. (After the installs `addq` is covered by two rules,
/// so a one-entry PT could never hold what its fetch needs.)
fn thrashing_config() -> EngineConfig {
    EngineConfig {
        pt_entries: 2,
        rt_entries: 512,
        rt_org: RtOrganization::DirectMapped,
        ..EngineConfig::default()
    }
}

/// `beq r31, @2; nop; T.INSN`: the always-taken DISE branch skips the
/// `nop`, so the trigger still executes exactly once.
fn dise_branch_spec() -> ReplacementSpec {
    let zero = RegDirective::Literal(Reg::ZERO);
    ReplacementSpec::new(vec![
        InstSpec::Templated {
            op: OpDirective::Literal(Op::Beq),
            ra: zero,
            rb: zero,
            rc: zero,
            imm: ImmDirective::Literal(2),
            uses_lit: false,
            dise_branch: true,
        },
        InstSpec::literal(Inst::nop()),
        InstSpec::Trigger,
    ])
}

/// What a lockstep run observed on the cached machine.
struct Observed {
    steps: u64,
    cache_hits: u64,
    pt_misses: u64,
    rt_misses: u64,
    dise_taken: u64,
}

/// Steps `fast` and `slow` in lockstep to halt, each feeding its own
/// PT/RT model. Every 5,000 steps both models take a context switch; at
/// step 7,000 both engines install a
/// transparent production for every integer ALU operation whose sequence
/// takes a DISE branch, at step 9,500 a more specific identity production
/// for `addq`, and at step 12,000 both run `aware_install`.
fn lockstep(
    mut fast: Machine,
    mut slow: Machine,
    aware_install: impl Fn(&mut DiseEngine),
) -> Observed {
    let mut fast_tables = DiseCacheModel::new(fast.engine().unwrap());
    let mut slow_tables = DiseCacheModel::new(slow.engine().unwrap());
    let mut steps = 0u64;
    let mut dise_taken = 0u64;
    loop {
        if steps > 0 && steps.is_multiple_of(5_000) {
            fast_tables.context_switch();
            slow_tables.context_switch();
        }
        let install = match steps {
            7_000 => Some((Pattern::opclass(OpClass::IntAlu), dise_branch_spec())),
            9_500 => Some((Pattern::opcode(Op::Addq), ReplacementSpec::identity())),
            _ => None,
        };
        if let Some((pattern, spec)) = install {
            for m in [&mut fast, &mut slow] {
                m.engine_mut()
                    .unwrap()
                    .install_transparent(pattern, spec.clone())
                    .unwrap();
            }
        }
        if steps == 12_000 {
            for m in [&mut fast, &mut slow] {
                aware_install(m.engine_mut().unwrap());
            }
        }
        let sf = fast.step().unwrap();
        let ss = slow.step().unwrap();
        assert_eq!(sf, ss, "step {steps} diverged");
        let Some(info) = sf else { break };
        fast_tables.observe(&info, fast.engine().unwrap());
        slow_tables.observe(&info, slow.engine().unwrap());
        assert_eq!(
            fast_tables.engine_stats(fast.engine().unwrap()),
            slow_tables.engine_stats(slow.engine().unwrap()),
            "engine stats diverged at step {steps}"
        );
        dise_taken += u64::from(info.dise_taken);
        steps += 1;
    }
    assert!(fast.halted() && slow.halted());
    for r in 0..32 {
        assert_eq!(fast.reg(Reg::r(r)), slow.reg(Reg::r(r)), "r{r} diverged");
    }
    let engine = fast.engine().unwrap();
    assert_eq!(
        slow.engine().unwrap().expansion_cache_hits(),
        0,
        "the slow-path twin must never use the cache"
    );
    let stats = fast_tables.engine_stats(engine);
    Observed {
        steps,
        cache_hits: engine.expansion_cache_hits(),
        pt_misses: stats.pt_misses,
        rt_misses: stats.rt_misses,
        dise_taken,
    }
}

/// The engagement every lockstep run must show. The hit and PT-miss
/// floors sit well below what the runs measure (over 90,000 hits and
/// 9,000 PT misses each), so they only fail if a path stopped running.
fn assert_engaged(what: &str, o: &Observed, rt_floor: u64) {
    assert!(o.steps > 12_000, "{what}: halted before every event ran");
    assert!(
        o.cache_hits > 10_000,
        "{what}: only {} cache hits",
        o.cache_hits
    );
    assert!(
        o.pt_misses > 1_000,
        "{what}: only {} PT misses",
        o.pt_misses
    );
    assert!(
        o.rt_misses >= rt_floor,
        "{what}: only {} RT misses (floor {rt_floor})",
        o.rt_misses
    );
    assert!(o.dise_taken > 0, "{what}: no DISE branch was taken");
}

#[test]
fn mfi_image_cached_engine_matches_slow_engine_in_lockstep() {
    let p = workload(Benchmark::Gzip);
    let set = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(p.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    let machine = |mconfig: MachineConfig, econfig: EngineConfig| {
        let mut m = Machine::with_config(&p, mconfig);
        m.attach_engine(DiseEngine::with_productions(econfig, set.clone()).unwrap());
        Mfi::init_machine(&mut m);
        m
    };
    let config = thrashing_config();
    let o = lockstep(
        machine(MachineConfig::default(), config),
        machine(MachineConfig::default().slow_path(), config.slow_path()),
        // The image holds no codewords: the install only has to clear
        // the cache without changing what executes.
        |e| {
            e.install_aware(Op::Cw0, 0, ReplacementSpec::identity())
                .unwrap();
        },
    );
    // The MFI sequences fit a 512-entry RT, so RT misses come from the
    // context switches (each empties the RT) and the installs: 138 at
    // this budget.
    assert_engaged("mfi", &o, 40);
}

#[test]
fn compressed_image_cached_engine_matches_slow_engine_in_lockstep() {
    let p = workload(Benchmark::Gzip);
    let c = Compressor::new(CompressionConfig::dise_full())
        .compress(&p)
        .unwrap();
    let set = c.productions.clone().unwrap();
    // Re-install one dictionary entry unchanged: the RT drops it and the
    // cache is cleared, but the program still decompresses to itself.
    let (cw_op, base) = set
        .rules()
        .iter()
        .find_map(|r| match r.seq {
            SeqRef::FromTag { base } => Some((r.pattern.opcodes()[0], base)),
            SeqRef::Fixed(_) => None,
        })
        .expect("an aware rule");
    let (id, spec) = set
        .seqs()
        .find(|(id, _)| (base..=base + u32::from(dise::isa::inst::MAX_TAG)).contains(id))
        .map(|(id, s)| (id, s.clone()))
        .expect("a dictionary entry");
    let tag = u16::try_from(id - base).unwrap();
    let machine = |mconfig: MachineConfig, econfig: EngineConfig| {
        let mut m = Machine::with_config(&c.program, mconfig);
        m.attach_engine(DiseEngine::with_productions(econfig, set.clone()).unwrap());
        m
    };
    let config = thrashing_config();
    let o = lockstep(
        machine(MachineConfig::default(), config),
        machine(MachineConfig::default().slow_path(), config.slow_path()),
        |e| {
            assert_eq!(e.install_aware(cw_op, tag, spec.clone()).unwrap(), id);
        },
    );
    // The dictionary's working set overflows 512 direct-mapped entries:
    // 4,206 RT misses at this budget.
    assert_engaged("compressed", &o, 1_000);
}
