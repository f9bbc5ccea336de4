//! Differential snapshot/restore fuzz: snapshot → restore → run must be
//! byte-identical to the uninterrupted run.
//!
//! The suite snapshots at seeded-random fuel points across the
//! engine-attached scenario matrix — MFI, compression under both
//! codeword-selection algorithms, the composed MFI∘decompression system,
//! binary rewriting (engine-less), and the dedicated decompressor
//! (dictionary-attached) — crossed with RT organizations, including
//! snapshots taken mid-expansion while suspended inside a macro body.
//! Final-state identity is judged on [`save_machine`] bytes, which cover
//! registers, memory, the suspension `(PC, DISEPC)`, instruction
//! counters and the engine's counters; timing runs additionally compare
//! the name-sorted telemetry export and [`save_simulator`] bytes, which
//! carry the PT/RT model. Seeds derive from
//! `dise_workloads::fuzz::SEED_SNAPSHOT` (corpus documented there).

use dise::acf::compress::{CompressionConfig, Compressor, SelectAlgo};
use dise::acf::mfi::{Mfi, MfiVariant};
use dise::engine::{compose, DiseEngine, EngineConfig, RtOrganization};
use dise::isa::{Program, Reg};
use dise::rewrite::{DedicatedDecompressor, RewriteMfi};
use dise::sim::{
    restore_machine, restore_simulator, save_machine, save_simulator, Machine, MachineConfig,
    SimConfig, SimError, Simulator,
};
use dise::workloads::fuzz::SEED_SNAPSHOT;
use dise::workloads::{Benchmark, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    Mfi,
    CompressV1,
    CompressV2,
    Composed,
    Rewrite,
    Dedicated,
}

const SCENARIOS: [Scenario; 6] = [
    Scenario::Mfi,
    Scenario::CompressV1,
    Scenario::CompressV2,
    Scenario::Composed,
    Scenario::Rewrite,
    Scenario::Dedicated,
];

fn workload(bench: Benchmark) -> Program {
    bench.build(&WorkloadConfig::tiny().with_dyn_insts(12_000))
}

/// Builds one scenario machine from scratch. Every call with the same
/// arguments reconstructs the identical scenario — exactly what a
/// crash-resuming harness does before restoring a checkpoint.
fn build(s: Scenario, econfig: EngineConfig, mconfig: MachineConfig) -> Machine {
    match s {
        Scenario::Mfi => {
            let p = workload(Benchmark::Gzip);
            let set = Mfi::new(MfiVariant::Dise3)
                .with_error_handler(p.symbol("mfi_error").unwrap())
                .productions()
                .unwrap();
            let mut m = Machine::with_config(&p, mconfig);
            m.attach_engine(DiseEngine::with_productions(econfig, set).unwrap());
            Mfi::init_machine(&mut m);
            m
        }
        Scenario::CompressV1 | Scenario::CompressV2 => {
            let algo = if s == Scenario::CompressV1 {
                SelectAlgo::V1
            } else {
                SelectAlgo::V2
            };
            let p = workload(Benchmark::Parser);
            let c = Compressor::new(CompressionConfig::dise_full().with_select(algo))
                .compress(&p)
                .unwrap();
            let mut m = Machine::with_config(&c.program, mconfig);
            c.attach(&mut m, econfig).unwrap();
            m
        }
        Scenario::Composed => {
            let p = workload(Benchmark::Twolf);
            let c = Compressor::new(CompressionConfig::dise_full())
                .compress(&p)
                .unwrap();
            let aware = c.productions.clone().unwrap();
            let mfi = Mfi::new(MfiVariant::Dise3)
                .with_error_handler(c.program.symbol("mfi_error").unwrap())
                .productions()
                .unwrap();
            let composed = compose::compose_nested(&mfi, &aware).unwrap();
            let mut m = Machine::with_config(&c.program, mconfig);
            m.attach_engine(DiseEngine::with_productions(econfig, composed).unwrap());
            Mfi::init_machine(&mut m);
            m
        }
        Scenario::Rewrite => {
            let p = workload(Benchmark::Mcf);
            let r = RewriteMfi::new().rewrite(&p).unwrap();
            Machine::with_config(&r.program, mconfig)
        }
        Scenario::Dedicated => {
            let p = workload(Benchmark::Crafty);
            let c = DedicatedDecompressor::new().compress(&p).unwrap();
            let mut m = Machine::with_config(&c.program, mconfig);
            c.attach(&mut m, econfig).unwrap();
            m
        }
    }
}

fn rt_orgs() -> [EngineConfig; 3] {
    [
        EngineConfig::default(),
        EngineConfig {
            rt_entries: 16,
            rt_org: RtOrganization::DirectMapped,
            ..EngineConfig::default()
        },
        EngineConfig::default().perfect_rt(),
    ]
}

/// Runs a machine to halt in random fuel slices (slicing is itself part
/// of the contract: `run(a); run(b)` ≡ `run(a + b)`).
fn run_to_halt(m: &mut Machine, rng: &mut StdRng, bound: u64) {
    loop {
        match m.run(rng.gen_range(1..=bound)) {
            Ok(r) => {
                assert!(r.halted);
                break;
            }
            Err(SimError::OutOfFuel) => continue,
            Err(e) => panic!("resumed run failed: {e}"),
        }
    }
}

/// The tentpole matrix: every scenario × RT organization, four seeded
/// fuel points each. The interrupted machine and a cold twin restored
/// from its snapshot must both reach the byte-identical final state of
/// the uninterrupted reference.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes-slow unoptimized; ci.sh runs it under --release"
)]
fn resume_matrix_is_bit_identical() {
    let mconfig = MachineConfig::default();
    let mut suspended_snapshots = 0u32;
    for (case_ix, &s) in SCENARIOS.iter().enumerate() {
        for (org_ix, &econfig) in rt_orgs().iter().enumerate() {
            if s == Scenario::Rewrite && org_ix > 0 {
                continue; // engine-less: RT organization is moot
            }
            let mut reference = build(s, econfig, mconfig);
            let r = reference.run(u64::MAX).unwrap();
            assert!(r.halted, "{s:?}/org{org_ix}: reference did not halt");
            let total = r.total_insts;
            let ref_bytes = save_machine(&reference);

            let mut rng =
                StdRng::seed_from_u64(SEED_SNAPSHOT + (case_ix * 16 + org_ix) as u64);
            for round in 0..4 {
                let fuel = rng.gen_range(1..total);
                let ctx = format!("{s:?}/org{org_ix} fuel {fuel} (round {round})");
                let mut interrupted = build(s, econfig, mconfig);
                assert!(
                    matches!(interrupted.run(fuel), Err(SimError::OutOfFuel)),
                    "{ctx}: expected fuel exhaustion"
                );
                if interrupted.pc().1 > 0 {
                    suspended_snapshots += 1;
                }
                let snap = save_machine(&interrupted);
                let mut resumed = build(s, econfig, mconfig);
                restore_machine(&mut resumed, &snap).unwrap();
                assert_eq!(
                    save_machine(&resumed),
                    snap,
                    "{ctx}: restore → re-save is not byte-stable"
                );
                run_to_halt(&mut interrupted, &mut rng, total);
                run_to_halt(&mut resumed, &mut rng, total);
                assert_eq!(
                    save_machine(&interrupted),
                    ref_bytes,
                    "{ctx}: sliced uninterrupted run diverged from straight run"
                );
                assert_eq!(
                    save_machine(&resumed),
                    ref_bytes,
                    "{ctx}: snapshot → restore → run diverged from straight run"
                );
            }
        }
    }
    assert!(
        suspended_snapshots > 0,
        "no snapshot point landed on a suspended (DISEPC > 0) machine; the matrix lost \
         its mid-macro-body coverage"
    );
}

/// Timing-simulator resume: cycle counts, cache/branch-predictor state
/// and the name-sorted telemetry export must all survive the round trip.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes-slow unoptimized; ci.sh runs it under --release"
)]
fn timing_resume_matrix_is_bit_identical() {
    let mconfig = MachineConfig::default();
    for (case_ix, &s) in [Scenario::Mfi, Scenario::CompressV2, Scenario::Composed]
        .iter()
        .enumerate()
    {
        let econfig = EngineConfig {
            rt_entries: 16,
            rt_org: RtOrganization::DirectMapped,
            ..EngineConfig::default()
        };
        let mut reference = Simulator::new(SimConfig::default(), build(s, econfig, mconfig));
        let rr = reference.run(u64::MAX).unwrap();
        assert!(rr.halted);
        let ref_bytes = save_simulator(&reference);
        let ref_text = rr.stats.registry().to_text();

        let mut rng = StdRng::seed_from_u64(SEED_SNAPSHOT + 1000 + case_ix as u64);
        for round in 0..2 {
            let fuel = rng.gen_range(1..rr.stats.total_insts);
            let ctx = format!("{s:?} fuel {fuel} (round {round})");
            let mut interrupted =
                Simulator::new(SimConfig::default(), build(s, econfig, mconfig));
            assert!(
                matches!(interrupted.run(fuel), Err(SimError::OutOfFuel)),
                "{ctx}: expected fuel exhaustion"
            );
            let snap = save_simulator(&interrupted);
            let mut resumed =
                Simulator::new(SimConfig::default(), build(s, econfig, mconfig));
            restore_simulator(&mut resumed, &snap).unwrap();
            assert_eq!(
                save_simulator(&resumed),
                snap,
                "{ctx}: restore → re-save is not byte-stable"
            );
            let resumed_result = loop {
                match resumed.run(rng.gen_range(1..=rr.stats.total_insts)) {
                    Ok(r) => break r,
                    Err(SimError::OutOfFuel) => continue,
                    Err(e) => panic!("{ctx}: resumed timing run failed: {e}"),
                }
            };
            assert_eq!(resumed_result, rr, "{ctx}: SimResult diverged");
            assert_eq!(
                resumed_result.stats.registry().to_text(),
                ref_text,
                "{ctx}: name-sorted telemetry export diverged"
            );
            assert_eq!(
                save_simulator(&resumed),
                ref_bytes,
                "{ctx}: final simulator state diverged"
            );
        }
    }
}

/// Deterministic mid-macro-body coverage: find the first fuel point that
/// suspends inside a replacement sequence, snapshot there, and require
/// the restored twin to resume at the same `(PC, DISEPC)` and finish
/// byte-identically.
#[test]
fn mid_macro_body_suspension_survives_restore() {
    let econfig = EngineConfig::default();
    let mconfig = MachineConfig::default();
    let mut fuel = 0u64;
    let suspended = loop {
        fuel += 1;
        assert!(fuel < 2_000, "no mid-body suspension in the first 2k steps");
        let mut m = build(Scenario::Mfi, econfig, mconfig);
        match m.run(fuel) {
            Err(SimError::OutOfFuel) => {
                if m.pc().1 > 0 {
                    break m;
                }
            }
            Ok(_) => panic!("workload halted before any suspension was found"),
            Err(e) => panic!("{e}"),
        }
    };
    let (pc, disepc) = suspended.pc();
    assert!(disepc > 0);

    let snap = save_machine(&suspended);
    let mut resumed = build(Scenario::Mfi, econfig, mconfig);
    restore_machine(&mut resumed, &snap).unwrap();
    assert_eq!(
        resumed.pc(),
        (pc, disepc),
        "suspension (PC, DISEPC) must survive restore"
    );

    let mut reference = build(Scenario::Mfi, econfig, mconfig);
    reference.run(u64::MAX).unwrap();
    resumed.run(u64::MAX).unwrap();
    assert_eq!(save_machine(&resumed), save_machine(&reference));
}

/// Speed knobs are not part of the contract: a snapshot taken on the
/// default fast configuration (predecode, expansion cache)
/// restores into a twin built with every speed device off — and still
/// finishes byte-identical to the fast uninterrupted run.
#[test]
fn speed_knobs_are_snapshot_neutral() {
    let econfig = EngineConfig::default();
    let mut reference = build(Scenario::Mfi, econfig, MachineConfig::default());
    reference.run(u64::MAX).unwrap();
    let ref_bytes = save_machine(&reference);

    let mut interrupted = build(Scenario::Mfi, econfig, MachineConfig::default());
    assert!(matches!(interrupted.run(4_321), Err(SimError::OutOfFuel)));
    let snap = save_machine(&interrupted);

    let mut slow = build(
        Scenario::Mfi,
        econfig.slow_path(),
        MachineConfig::default().slow_path(),
    );
    restore_machine(&mut slow, &snap).unwrap();
    slow.run(u64::MAX).unwrap();
    assert_eq!(save_machine(&slow), ref_bytes, "slow-path twin diverged");
}

/// The predecode arena is likewise snapshot-neutral: a snapshot from a
/// machine on a shared predecode table restores into a twin that decoded
/// its own.
#[test]
fn shared_predecode_toggle_is_snapshot_neutral() {
    let econfig = EngineConfig::default();
    let mut reference = build(Scenario::Mfi, econfig, MachineConfig::default());
    reference.run(u64::MAX).unwrap();
    let ref_bytes = save_machine(&reference);

    let mut interrupted = build(Scenario::Mfi, econfig, MachineConfig::default());
    assert!(matches!(interrupted.run(2_468), Err(SimError::OutOfFuel)));
    let snap = save_machine(&interrupted);

    dise::sim::arena::set_share_enabled(false);
    let mut unshared = build(Scenario::Mfi, econfig, MachineConfig::default());
    dise::sim::arena::set_share_enabled(true);
    restore_machine(&mut unshared, &snap).unwrap();
    unshared.run(u64::MAX).unwrap();
    assert_eq!(save_machine(&unshared), ref_bytes, "unshared twin diverged");
}

/// Every rejection path: wrong version, truncation, trailing bytes, kind
/// mismatch, wrong scenario (program fingerprint), wrong productions
/// (controller fingerprint), and an engine-less target — each with an
/// actionable message, and none mutating the target.
#[test]
fn restore_rejects_corrupt_and_mismatched_snapshots() {
    let econfig = EngineConfig::default();
    let mconfig = MachineConfig::default();
    let mut m = build(Scenario::Mfi, econfig, mconfig);
    assert!(matches!(m.run(500), Err(SimError::OutOfFuel)));
    let snap = save_machine(&m);

    let mut target = build(Scenario::Mfi, econfig, mconfig);
    let before = save_machine(&target);

    // Unknown format version, named in the error.
    let mut bad = snap.clone();
    bad[4] = 42;
    let err = restore_machine(&mut target, &bad).unwrap_err().to_string();
    let current = format!("version {}", dise::sim::snapshot::SNAPSHOT_VERSION);
    assert!(
        err.contains("version 42") && err.contains(&current),
        "{err}"
    );
    assert_eq!(save_machine(&target), before, "failed restore mutated the target");

    // Truncated bytes, with the offset.
    let err = restore_machine(&mut target, &snap[..snap.len() - 3])
        .unwrap_err()
        .to_string();
    assert!(err.contains("truncated"), "{err}");
    assert_eq!(save_machine(&target), before);

    // Trailing garbage.
    let mut bloated = snap.clone();
    bloated.push(0);
    let err = restore_machine(&mut target, &bloated).unwrap_err().to_string();
    assert!(err.contains("trailing"), "{err}");
    assert_eq!(save_machine(&target), before);

    // Machine snapshot into a simulator (kind mismatch).
    let mut sim = Simulator::new(SimConfig::default(), build(Scenario::Mfi, econfig, mconfig));
    let err = restore_simulator(&mut sim, &snap).unwrap_err().to_string();
    assert!(err.contains("kind"), "{err}");

    // Different program: the error names what mismatched and both
    // fingerprint values.
    let mut other = build(Scenario::CompressV2, econfig, mconfig);
    let other_before = save_machine(&other);
    let err = restore_machine(&mut other, &snap).unwrap_err().to_string();
    assert!(
        err.contains("program image")
            && err.contains("fingerprint mismatch")
            && err.matches("0x").count() >= 2,
        "{err}"
    );
    assert_eq!(save_machine(&other), other_before);

    // Same program, different production set.
    let p = workload(Benchmark::Gzip);
    let set = Mfi::new(MfiVariant::Dise4)
        .with_error_handler(p.symbol("mfi_error").unwrap())
        .productions()
        .unwrap();
    let mut variant = Machine::with_config(&p, mconfig);
    variant.attach_engine(DiseEngine::with_productions(econfig, set).unwrap());
    Mfi::init_machine(&mut variant);
    let err = restore_machine(&mut variant, &snap).unwrap_err().to_string();
    assert!(
        err.contains("production set") && err.contains("fingerprint mismatch"),
        "{err}"
    );

    // Engine-less target for an engine-attached snapshot.
    let mut plain = Machine::with_config(&p, mconfig);
    let plain_before = save_machine(&plain);
    let err = restore_machine(&mut plain, &snap).unwrap_err().to_string();
    assert!(err.contains("engine"), "{err}");
    assert_eq!(save_machine(&plain), plain_before);
}

/// The machine reads r31 from its register slot unconditionally and parks
/// r31 writes in a sink slot, so a snapshot carrying a nonzero value in
/// either would silently change results. Both are rejected, naming r31,
/// without mutating the target.
#[test]
fn restore_rejects_nonzero_r31_state() {
    let econfig = EngineConfig::default();
    let mconfig = MachineConfig::default();
    let mut m = build(Scenario::Mfi, econfig, mconfig);
    assert!(matches!(m.run(500), Err(SimError::OutOfFuel)));
    // Locate the register file through a marker value in r1: registers
    // are consecutive little-endian u64s, r31 30 slots after r1 and the
    // write sink (slot 63) 62 slots after it.
    let marker: u64 = 0x5eed_f00d_cafe_d00d;
    m.set_reg(Reg::R1, marker);
    let snap = save_machine(&m);
    let r1 = snap
        .windows(8)
        .position(|w| w == marker.to_le_bytes())
        .expect("marker in the register file");
    let mut target = build(Scenario::Mfi, econfig, mconfig);
    let before = save_machine(&target);
    for (slot, what) in [(31, "r31 value"), (63, "r31 write-sink slot")] {
        let at = r1 + (slot - 1) * 8;
        assert_eq!(snap[at..at + 8], [0; 8], "{what} is saved as 0");
        let mut bad = snap.clone();
        bad[at] = 1;
        let err = restore_machine(&mut target, &bad).unwrap_err().to_string();
        assert!(
            err.contains(&format!("snapshot corrupt: {what} is 0x1")),
            "{what}: {err}"
        );
        assert_eq!(
            save_machine(&target),
            before,
            "failed restore mutated the target"
        );
    }
    // The untouched snapshot still restores.
    restore_machine(&mut target, &snap).unwrap();
    assert_eq!(save_machine(&target), snap);
}
