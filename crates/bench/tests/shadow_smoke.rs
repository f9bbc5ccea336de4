//! Smoke test for the `--shadow` lockstep oracle: with shadow checking
//! armed, every kind of scenario must complete divergence-free (a
//! divergence panics `run` with `SimError::Anomaly`).
//!
//! This lives in its own test binary because [`dise_bench::set_telemetry`]
//! is a process-global first-call-wins latch: arming `shadow` here would
//! leak into any other harness test sharing the process.

use dise_acf::compress::CompressionConfig;
use dise_acf::mfi::MfiVariant;
use dise_bench::{fuel_for, run, set_telemetry, telemetry, Scenario, TelemetryOpts, Workload};
use dise_core::EngineConfig;
use dise_sim::{ExpansionCost, SimConfig};
use dise_workloads::{Benchmark, WorkloadConfig};

#[test]
fn shadow_oracle_runs_divergence_free() {
    set_telemetry(TelemetryOpts {
        shadow: true,
        ..TelemetryOpts::default()
    });
    assert!(
        telemetry().shadow,
        "this binary must own the telemetry latch"
    );
    let w = Workload::new(
        Benchmark::Gcc,
        WorkloadConfig::default().with_dyn_insts(5_000),
    );
    let fuel = fuel_for(5_000);
    let config = SimConfig::default();
    let cc = CompressionConfig::dise_full();
    let engine = EngineConfig::default();

    // Every run attaches a slow-path oracle when shadow is armed; a
    // fast-path/slow-path (or shared/private frontend) divergence on any
    // retired instruction would abort the run and panic inside `run`.
    let mfi = Scenario::dise_mfi(&w, MfiVariant::Dise3, ExpansionCost::Free, config);
    for scenario in [
        Scenario::baseline(&w, config),
        mfi.clone(),
        Scenario::rewrite_mfi(&w, config),
        Scenario::compressed(&w, cc, engine, config),
        Scenario::composed(&w, cc, engine, config, false),
        Scenario::composed(&w, cc, engine, config, true),
    ] {
        assert!(run(&scenario, fuel).cycles > 0, "{}", scenario.key());
    }

    // Shadowed runs stay deterministic (shadowing never perturbs the
    // primary's stats; cross-process identity with unshadowed runs is
    // covered by the ci.sh `--shadow` smoke cell against the warm cache).
    assert_eq!(
        run(&mfi, fuel),
        run(&mfi, fuel),
        "shadowed run must be deterministic"
    );
}
