//! Seeded fuzz differential for the compressor: random
//! workload-generator programs, compressed under every Figure 7
//! configuration and both selection algorithms, must run to completion
//! bit-identically with the uncompressed original — same final
//! architectural state, same retired-instruction count. (Mirrors the
//! `fastpath_fuzz.rs` fuzz style in `dise-sim`: pre-generated inputs, a
//! reference run, and exhaustive observable-state comparison; seeds are
//! part of the shared corpus documented in `dise_workloads::fuzz`.)
//!
//! The retired-count invariant is the ACF contract itself: every
//! dictionary entry expands to exactly the instructions it replaced
//! (parameters re-instantiated, compressed branches replayed as
//! sequence-internal DISE branches), and aware codewords retire their
//! expansion *instead of* themselves, so the compressed machine retires
//! exactly the µop stream of the original program.

use dise_acf::compress::{CompressionConfig, Compressor, SelectAlgo};
use dise_core::EngineConfig;
use dise_isa::Program;
use dise_sim::Machine;
use dise_workloads::fuzz::arch_state as regs;
use dise_workloads::{Benchmark, WorkloadConfig};

/// The six Figure 7 configurations, walk order.
fn fig7_configs() -> [(&'static str, CompressionConfig); 6] {
    [
        ("dedicated", CompressionConfig::dedicated()),
        ("dedicated_no_single", CompressionConfig::dedicated_no_single()),
        ("dise_unparameterized", CompressionConfig::dise_unparameterized()),
        ("dise_wide_entries", CompressionConfig::dise_wide_entries()),
        ("dise_parameterized", CompressionConfig::dise_parameterized()),
        ("dise_full", CompressionConfig::dise_full()),
    ]
}

fn arch_state(m: &Machine) -> Vec<u64> {
    regs(m, 48)
}

/// Compares final register files across the compression boundary. Data
/// values must match exactly. A register the *original* run left
/// holding a text-segment address (a return address captured by
/// `bsr`/`jsr`) is the one legitimate exception: compression remaps
/// code addresses, so the compressed run must hold *some* text address
/// there, not the same one.
fn assert_state_matches(ctx: &str, compressed: &[u64], orig: &[u64]) {
    let text = Program::segment_base(Program::TEXT_SEGMENT);
    let data = Program::segment_base(Program::DATA_SEGMENT);
    let in_text = |v: u64| v >= text && v < data;
    for (i, (&c, &o)) in compressed.iter().zip(orig).enumerate() {
        if in_text(o) {
            assert!(
                in_text(c),
                "{ctx}: reg {i} held a code address ({o:#x}) uncompressed but {c:#x} compressed"
            );
        } else {
            assert_eq!(c, o, "{ctx}: reg {i} diverged");
        }
    }
}

/// Debug builds (plain `cargo test`) run a reduced sweep — one seed per
/// benchmark at half the dynamic length — because the unoptimized
/// simulator is ~50× slower; release runs (`cargo test --release`, the
/// bench scripts' builds) cover the full matrix.
const SEEDS_PER_BENCH: u64 = if cfg!(debug_assertions) { 1 } else { 3 };
const DYN_INSTS: u64 = if cfg!(debug_assertions) { 10_000 } else { 20_000 };

/// Runs one generated workload uncompressed, then under every
/// (configuration × selection) pair, comparing final state.
fn fuzz_one(bench: Benchmark, seed: u64) {
    let p = bench.build(&WorkloadConfig {
        dyn_insts: DYN_INSTS,
        seed,
    });
    const FUEL: u64 = 4_000_000;

    let mut orig = Machine::load(&p);
    let r = orig.run(FUEL).expect("uncompressed run");
    assert!(r.halted, "{bench:?} seed {seed}: uncompressed did not halt");
    let (orig_total, _) = orig.inst_counts();
    let orig_state = arch_state(&orig);

    for select in [SelectAlgo::V1, SelectAlgo::V2] {
        for (name, config) in fig7_configs() {
            let ctx = format!("{bench:?} seed {seed}, {name}/{select:?}");
            let c = Compressor::new(config.with_select(select))
                .compress(&p)
                .unwrap_or_else(|e| panic!("{ctx}: compression failed: {e:?}"));
            let mut m = Machine::load(&c.program);
            c.attach(&mut m, EngineConfig::default())
                .unwrap_or_else(|e| panic!("{ctx}: attach failed: {e:?}"));
            let r = m
                .run(FUEL)
                .unwrap_or_else(|e| panic!("{ctx}: compressed run failed: {e:?}"));
            assert!(r.halted, "{ctx}: compressed run did not halt");
            let (total, _) = m.inst_counts();
            assert_eq!(total, orig_total, "{ctx}: retired-inst count diverged");
            assert_state_matches(&ctx, &arch_state(&m), &orig_state);
        }
    }
}

#[test]
fn fuzz_gzip_seeds() {
    for seed in 0..SEEDS_PER_BENCH {
        fuzz_one(Benchmark::Gzip, seed);
    }
}

#[test]
fn fuzz_mcf_seeds() {
    for seed in 10..10 + SEEDS_PER_BENCH {
        fuzz_one(Benchmark::Mcf, seed);
    }
}

#[test]
fn fuzz_vortex_seeds() {
    for seed in 20..20 + SEEDS_PER_BENCH {
        fuzz_one(Benchmark::Vortex, seed);
    }
}
