//! The shadow oracle a scenario builds, `machine(false)`, proves that it
//! compares: it runs in lockstep with `machine(true)` on every scenario
//! kind and retires exactly what the primary retires, and a shadow built
//! from a different scenario diverges. Where an engine is attached, the
//! lockstep compared the engine's live path against its expansion cache:
//! the shadow's engine served nothing from the cache, the primary's did.

use dise_acf::compress::{CompressionConfig, SelectAlgo};
use dise_acf::mfi::MfiVariant;
use dise_bench::{fuel_for, Scenario, Workload};
use dise_core::EngineConfig;
use dise_sim::{ExpansionCost, SimError, SimResult, Simulator};
use dise_workloads::{Benchmark, WorkloadConfig};

const DYN_INSTS: u64 = 3_000;

/// Runs `primary` on the fast path with `shadow`'s slow-path machine in
/// lockstep.
fn lockstep(primary: &Scenario, shadow: &Scenario) -> (Simulator, Result<SimResult, SimError>) {
    let mut sim = Simulator::new(primary.sim(), primary.machine(true));
    sim.attach_shadow(shadow.machine(false));
    let result = sim.run(fuel_for(DYN_INSTS));
    (sim, result)
}

#[test]
fn every_scenario_kind_runs_in_lockstep_with_its_shadow() {
    let w = Workload::new(
        Benchmark::Mcf,
        WorkloadConfig::default().with_dyn_insts(DYN_INSTS),
    );
    let sim = dise_sim::SimConfig::default();
    let cc = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
    let rt = EngineConfig::default();
    let mut engines = 0;
    for s in [
        Scenario::baseline(&w, sim),
        Scenario::rewrite_mfi(&w, sim),
        Scenario::dise_mfi(&w, MfiVariant::Dise3, ExpansionCost::ExtraStage, sim),
        Scenario::compressed(&w, cc, rt, sim),
        Scenario::composed(&w, cc, rt, sim, true),
        Scenario::composed(&w, cc, rt, sim, false),
        Scenario::rewrite_compress(&w, true, rt, sim),
        Scenario::rewrite_compress(&w, false, rt, sim),
    ] {
        let (run, result) = lockstep(&s, &s);
        let key = s.key();
        assert!(result.is_ok(), "{key}: {result:?}");
        let retired = run.machine().inst_counts();
        assert!(retired.1 > 0, "{key}: nothing retired");
        let shadow = run.shadow().expect("the shadow stays attached");
        assert_eq!(
            shadow.inst_counts(),
            retired,
            "{key}: shadow retired a different stream"
        );
        if let Some(engine) = run.machine().engine() {
            engines += 1;
            let live = shadow.engine().expect("the shadow carries the engine");
            assert_eq!(
                live.expansion_cache_hits(),
                0,
                "{key}: the shadow used the cache"
            );
            assert!(
                engine.expansion_cache_hits() > 0,
                "{key}: the primary never hit its cache"
            );
        }
    }
    assert_eq!(engines, 5, "every DISE kind carries an engine");
}

#[test]
fn a_shadow_of_another_scenario_diverges() {
    let w = Workload::new(
        Benchmark::Mcf,
        WorkloadConfig::default().with_dyn_insts(DYN_INSTS),
    );
    let sim = dise_sim::SimConfig::default();
    let cc = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
    let rt = EngineConfig::default();
    let free = ExpansionCost::Free;
    for (primary, shadow) in [
        (
            Scenario::dise_mfi(&w, MfiVariant::Dise3, free, sim),
            Scenario::dise_mfi(&w, MfiVariant::Dise4, free, sim),
        ),
        (
            Scenario::composed(&w, cc, rt, sim, true),
            Scenario::compressed(&w, cc, rt, sim),
        ),
    ] {
        let (_, result) = lockstep(&primary, &shadow);
        assert!(
            matches!(&result, Err(SimError::Anomaly(r)) if r.contains("divergence")),
            "{} against {}: {result:?}",
            primary.key(),
            shadow.key()
        );
    }
}
