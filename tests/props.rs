//! Property-based tests on the core data structures and invariants:
//! instruction encoding, assembly, pattern matching, compression
//! round-trips, and RT-capacity invisibility.
//!
//! These were originally written against `proptest`; the offline build
//! environment cannot fetch it, so the same properties are exercised by
//! deterministic seeded fuzz loops over the shared generators in
//! `dise_workloads::fuzz` (seed corpus documented there). Every run
//! checks the same cases, and a failure prints the case index so it can
//! be replayed under a debugger by re-running the loop.

use dise::acf::compress::{CompressionConfig, Compressor};
use dise::engine::{DiseEngine, EngineConfig, ImmPredicate, Pattern, RtOrganization};
use dise::isa::{Inst, OpClass, Program, Reg};
use dise::sim::{Machine, SimConfig, Simulator};
use dise_workloads::fuzz::{arb_program, encodable_inst, pick, SEED_PROPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FUZZ_SEED: u64 = SEED_PROPS;

/// encode ∘ decode is the identity on encodable instructions.
#[test]
fn encode_decode_round_trip() {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED);
    for case in 0..512 {
        let inst = encodable_inst(&mut rng);
        let word = inst.encode().unwrap();
        assert_eq!(Inst::decode(word).unwrap(), inst, "case {case}: {inst}");
    }
}

/// Disassembly re-assembles to the same instruction.
#[test]
fn display_parse_round_trip() {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ 1);
    for case in 0..512 {
        let inst = encodable_inst(&mut rng);
        let text = inst.to_string();
        let parsed: Inst = text.parse().unwrap();
        assert_eq!(parsed, inst, "case {case} via `{text}`");
    }
}

/// Decoding any 32-bit word either fails or re-encodes to itself modulo
/// reserved (must-be-zero) bits — i.e. decode is a partial inverse of
/// encode.
#[test]
fn decode_is_partial_inverse() {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ 2);
    for case in 0..4096 {
        let word: u32 = rng.gen_range(0..=u32::MAX);
        if let Ok(inst) = Inst::decode(word) {
            let reencoded = inst.encode().unwrap();
            assert_eq!(
                Inst::decode(reencoded).unwrap(),
                inst,
                "case {case}: word {word:#010x}"
            );
        }
    }
}

/// Pattern specificity: a pattern that implies another is at least as
/// specific, and implication means every matching instruction also
/// matches the implied pattern.
#[test]
fn pattern_implication_sound() {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ 3);
    for _ in 0..512 {
        let inst = encodable_inst(&mut rng);
        let specific = if rng.gen_bool_fair() {
            Pattern::opcode(inst.op)
        } else {
            Pattern::opclass(inst.op.class())
        };
        let general = Pattern::opclass(inst.op.class());
        if specific.implies(&general) {
            assert!(specific.specificity() >= general.specificity());
            if specific.matches(&inst) {
                assert!(general.matches(&inst), "{inst}");
            }
        }
    }
}

/// Disjoint patterns never match the same instruction.
#[test]
fn pattern_disjointness_sound() {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ 4);
    for _ in 0..512 {
        let inst = encodable_inst(&mut rng);
        let c1 = pick(&mut rng, &OpClass::ALL);
        let c2 = pick(&mut rng, &OpClass::ALL);
        let mut p1 = Pattern::opclass(c1);
        let p2 = Pattern::opclass(c2);
        if rng.gen_bool_fair() {
            p1 = p1.with_imm(ImmPredicate::Negative);
        }
        if p1.disjoint(&p2) {
            assert!(
                !(p1.matches(&inst) && p2.matches(&inst)),
                "{c1:?}/{c2:?} both match {inst}"
            );
        }
    }
}

fn run_to_state(p: &Program, attach: impl FnOnce(&mut Machine)) -> Vec<u64> {
    let mut m = Machine::load(p);
    m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
    attach(&mut m);
    m.run(1_000_000).unwrap();
    (0..25).map(|i| m.reg(Reg::r(i))).collect()
}

/// Compression round-trip: for arbitrary well-formed programs and every
/// compression configuration, the decompressed execution matches the
/// original exactly.
#[test]
fn compression_preserves_execution() {
    let configs = [
        CompressionConfig::dedicated(),
        CompressionConfig::dedicated_no_single(),
        CompressionConfig::dise_unparameterized(),
        CompressionConfig::dise_parameterized(),
        CompressionConfig::dise_full(),
    ];
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ 5);
    for case in 0..40 {
        let p = arb_program(&mut rng);
        let config = configs[case % configs.len()];
        let reference = run_to_state(&p, |_| {});
        let c = Compressor::new(config).compress(&p).unwrap();
        assert!(
            c.stats.compressed_text <= c.stats.original_text,
            "case {case}: compression grew the text"
        );
        let state = run_to_state(&c.program, |m| {
            c.attach(m, EngineConfig::default().perfect_rt()).unwrap();
        });
        assert_eq!(reference, state, "case {case} ({config:?})");
    }
}

/// Final registers and dynamic instruction count of a timing run, where
/// the engine's RT geometry is live.
fn simulate_to_state(p: &Program, attach: impl FnOnce(&mut Machine)) -> (Vec<u64>, u64) {
    let mut m = Machine::load(p);
    m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
    attach(&mut m);
    let mut sim = Simulator::new(SimConfig::default(), m);
    let r = sim.run(1_000_000).unwrap();
    let regs = (0..25).map(|i| sim.machine().reg(Reg::r(i))).collect();
    (regs, r.stats.total_insts)
}

/// RT geometry is architecturally invisible: any finite RT produces the
/// same results as a perfect one.
#[test]
fn rt_capacity_never_changes_results() {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ 6);
    for case in 0..24 {
        let p = arb_program(&mut rng);
        let entries: usize = rng.gen_range(2..64);
        let assoc: u32 = rng.gen_range(1..4);
        let c = Compressor::new(CompressionConfig::dise_full())
            .compress(&p)
            .unwrap();
        if c.productions.is_none() {
            continue;
        }
        let perfect = simulate_to_state(&c.program, |m| {
            c.attach(m, EngineConfig::default().perfect_rt()).unwrap();
        });
        let finite = simulate_to_state(&c.program, |m| {
            let config = EngineConfig {
                rt_entries: entries,
                rt_org: if assoc == 1 {
                    RtOrganization::DirectMapped
                } else {
                    RtOrganization::SetAssociative(assoc)
                },
                ..EngineConfig::default()
            };
            c.attach(m, config).unwrap();
        });
        assert_eq!(
            perfect, finite,
            "case {case}: {entries} entries, {assoc}-way"
        );
    }
}

/// The engine's per-opcode indexed match agrees with the architectural
/// production lookup on every instruction.
#[test]
fn engine_matches_architectural_semantics() {
    let set = dise::acf::mfi::Mfi::new(dise::acf::mfi::MfiVariant::Dise3)
        .with_error_handler(0x7000)
        .productions()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ 7);
    for case in 0..512 {
        let inst = encodable_inst(&mut rng);
        let arch = set.lookup(&inst);
        let mut engine =
            DiseEngine::with_productions(EngineConfig::default(), set.clone()).unwrap();
        let outcome = engine.inspect(&inst);
        match (arch, outcome) {
            (Some(id), dise::engine::Expansion::Expand { id: got, .. }) => {
                assert_eq!(id, got, "case {case}: {inst}")
            }
            (None, dise::engine::Expansion::None) => {}
            (a, o) => panic!("case {case}: {inst}: architectural {a:?} vs engine {o:?}"),
        }
    }
}
