//! Seeded fuzz round-trip of the whole frontend decode stack: assemble
//! randomized operate/memory/branch/codeword/short mixes into a program
//! image, build its `Predecode` table, and assert it agrees with
//! the byte-accurate cold decode (`Program::fetch`) at *every*
//! byte-granular PC — including odd PCs, out-of-range PCs, and
//! mid-instruction offsets whose bytes happen to decode (control can land
//! on any even byte, so the table must model them all).
//!
//! Same offline-fuzz idiom as `tests/props.rs`: deterministic seeds from
//! the shared corpus in `dise_workloads::fuzz`, a printed case index on
//! failure.

use dise_isa::{Inst, Program, TextItem};
use dise_workloads::fuzz::{random_items, SEED_PREDECODE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FUZZ_SEED: u64 = SEED_PREDECODE;

/// `Predecode` agrees with the byte-accurate cold decode at every
/// byte-granular PC around and inside the image.
#[test]
fn predecode_matches_cold_decode_at_every_pc() {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED);
    for case in 0..128 {
        let items = random_items(&mut rng);
        let base = 0x0400_0000u64 + u64::from(rng.gen_range(0..64u32)) * 2;
        let program = Program::from_items(base, &items).unwrap();
        let pd = program.predecode();
        let end = program.text_end();
        for pc in (base.saturating_sub(2))..(end + 6) {
            let fast = pd.get(pc);
            if pc % 2 != 0 {
                assert!(fast.is_none(), "case {case} pc {pc:#x}: odd PC decoded");
                continue;
            }
            match (fast, program.fetch(pc)) {
                (Some(got), Ok(item)) => assert_eq!(
                    got, item,
                    "case {case} pc {pc:#x}: predecode and fetch disagree"
                ),
                (None, Err(_)) => {}
                (fast, cold) => panic!(
                    "case {case} pc {pc:#x}: predecode {fast:?} vs cold decode {cold:?}"
                ),
            }
        }
    }
}

/// At item starts the predecoded item is the assembled one, and the
/// encode → predecode → decode → disassemble chain round-trips.
#[test]
fn predecode_round_trips_item_starts() {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ 1);
    for case in 0..128 {
        let items = random_items(&mut rng);
        let program = Program::from_items(0x0400_0000, &items).unwrap();
        let pd = program.predecode();
        let walked = program.items().unwrap_or_else(|e| {
            panic!("case {case}: assembled program must walk cleanly: {e}")
        });
        assert_eq!(walked.len(), items.len(), "case {case}");
        for ((pc, item), original) in walked.iter().zip(&items) {
            assert_eq!(item, original, "case {case} pc {pc:#x}");
            let got = pd
                .get(*pc)
                .unwrap_or_else(|| panic!("case {case} pc {pc:#x}: item start undecodable"));
            assert_eq!(got, *item, "case {case} pc {pc:#x}");
            if let TextItem::Inst(inst) = item {
                assert_eq!(
                    Inst::decode(inst.encode().unwrap()),
                    Ok(*inst),
                    "case {case} pc {pc:#x}: encoding does not re-decode"
                );
                // Textual round trip: the disassembled form re-parses to
                // the same instruction.
                let reparsed: Inst = inst.to_string().parse().unwrap_or_else(|e| {
                    panic!("case {case} pc {pc:#x}: {inst} did not re-parse: {e:?}")
                });
                assert_eq!(reparsed, *inst, "case {case} pc {pc:#x}");
            }
        }
        // Disassembly covers every item exactly once.
        assert_eq!(
            program.disassemble().lines().count(),
            items.len(),
            "case {case}"
        );
    }
}
