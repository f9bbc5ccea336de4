//! Differential fuzz tests for the machine's fast path.
//!
//! The fast path — the predecoded text table plus the engine's
//! PC-indexed expansion cache — is a pure simulation-speed device: it
//! must replay the slow-path reference interpreter bit-for-bit,
//! including every step report (and so every engine reference the
//! PT/RT model replays) and every engine statistic. These tests
//! interleave the events that clear or outdate cached state — aware
//! production (re)installs, context switches, interrupts mid-expansion —
//! with RT thrashing under all four RT organizations, feed each
//! machine's reported steps to a [`DiseCacheModel`], and demand
//! identical behavior between the default machine and the slow-path
//! reference, through both `Machine::step` and `Machine::run`.

use dise_core::pattern::Pattern;
use dise_core::{DiseEngine, EngineConfig, RtOrganization};
use dise_isa::{OpClass, Program, Reg};
use dise_sim::{DiseCacheModel, Machine, MachineConfig, RunResult, SimError};
use dise_workloads::fuzz::{
    arch_state as regs, aware_spec, engine_program as program, schedule, store_spec, Action,
    AWARE_PAIRS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

// The workload, production generators, and event schedule live in
// `dise_workloads::fuzz` (shared seed corpus documented there); this file
// keeps only the fast-vs-slow differential driver.

/// A machine and the PT/RT model fed every step it retires.
struct Observed {
    m: Machine,
    model: DiseCacheModel,
}

impl Observed {
    fn new(m: Machine) -> Observed {
        let model = DiseCacheModel::new(m.engine().unwrap());
        Observed { m, model }
    }

    fn step(&mut self) -> Result<bool, SimError> {
        let Some(info) = self.m.step()? else {
            return Ok(false);
        };
        self.model.observe(&info, self.m.engine().unwrap());
        Ok(true)
    }

    /// [`Machine::run`] one step at a time, so the model sees each one
    /// (the final run to halt, whose misses the engagement check
    /// counts).
    fn run(&mut self, mut fuel: u64) -> Result<RunResult, SimError> {
        loop {
            if self.m.halted() {
                let (total_insts, app_insts) = self.m.inst_counts();
                return Ok(RunResult {
                    total_insts,
                    app_insts,
                    halted: true,
                });
            }
            if fuel == 0 {
                return Err(SimError::OutOfFuel);
            }
            if self.step()? {
                fuel -= 1;
            }
        }
    }

    fn stats(&self) -> dise_core::EngineStats {
        self.model.engine_stats(self.m.engine().unwrap())
    }
}

/// Builds one machine over `p` with a freshly seeded production set.
/// `slow` selects the reference interpreter (no predecode, and an
/// unbound engine that serves every fetch live).
fn machine(p: &Program, econfig: EngineConfig, rng: &mut StdRng, slow: bool) -> Machine {
    let mconfig = MachineConfig {
        fast_path: !slow,
        ..MachineConfig::default()
    };
    let mut engine = DiseEngine::new(econfig);
    engine
        .install_transparent(Pattern::opclass(OpClass::Store), store_spec())
        .unwrap();
    for (cw, tag) in AWARE_PAIRS {
        engine.install_aware(cw, tag, aware_spec(rng)).unwrap();
    }
    let mut m = Machine::with_config(p, mconfig);
    m.attach_engine(engine);
    m.set_reg(Reg::r(10), Program::segment_base(Program::DATA_SEGMENT));
    m
}

/// Applies one action and folds every observable outcome into a string so
/// success, error kinds, and step traces all participate in the
/// comparison.
fn apply(o: &mut Observed, a: &Action) -> String {
    match a {
        // The report-free `Machine::run` loop: the model misses these
        // steps, equally on both machines.
        Action::Run(fuel) => format!("{:?}", o.m.run(*fuel)),
        Action::Step(n) => {
            let mut out = String::new();
            for _ in 0..*n {
                out.push_str(&format!("{:?};", o.step()));
            }
            out
        }
        Action::Interrupt => {
            o.m.interrupt();
            String::new()
        }
        Action::ContextSwitch => {
            o.model.context_switch();
            String::new()
        }
        Action::InstallAware(cw, tag, spec) => {
            format!(
                "{:?}",
                o.m.engine_mut()
                    .unwrap()
                    .install_aware(*cw, *tag, spec.clone())
            )
        }
    }
}

fn arch_state(m: &Machine) -> Vec<u64> {
    regs(m, 48)
}

/// Runs one seeded schedule against a (fast-path, slow-path) machine
/// pair under `econfig`, comparing all observable state after every
/// action, then runs both to halt.
fn fuzz_one(seed: u64, econfig: EngineConfig) {
    let p = program();
    // Separate, identically seeded generators: machine construction
    // consumes randomness for the initial production set, and the
    // schedule must be byte-identical for both machines.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fast = Observed::new(machine(
        &p,
        econfig,
        &mut StdRng::seed_from_u64(!seed),
        false,
    ));
    let mut slow = Observed::new(machine(
        &p,
        econfig,
        &mut StdRng::seed_from_u64(!seed),
        true,
    ));

    for (i, action) in schedule(&mut rng, 60).iter().enumerate() {
        let of = apply(&mut fast, action);
        let os = apply(&mut slow, action);
        let ctx = |what: &str| format!("seed {seed}, round {i} ({action:?}): {what} diverged");
        assert_eq!(of, os, "{}", ctx("action outcome"));
        assert_eq!(fast.m.pc(), slow.m.pc(), "{}", ctx("PC:DISEPC"));
        assert_eq!(
            fast.m.inst_counts(),
            slow.m.inst_counts(),
            "{}",
            ctx("inst counts")
        );
        assert_eq!(
            arch_state(&fast.m),
            arch_state(&slow.m),
            "{}",
            ctx("registers")
        );
        assert_eq!(fast.stats(), slow.stats(), "{}", ctx("engine stats"));
    }

    // A reinstall may have shrunk a sequence below a suspended DISEPC
    // (resuming then reports an out-of-range fetch — identically on both
    // machines, but never halting); restart the trigger from DISEPC 0
    // like an OS handler would before the final run.
    assert_eq!(
        fast.m.pc(),
        slow.m.pc(),
        "seed {seed}: pre-restart PC:DISEPC"
    );
    assert_eq!(fast.m.halted(), slow.m.halted(), "seed {seed}: halt state");
    if !fast.m.halted() {
        let (pc, _) = fast.m.pc();
        fast.m.set_pc(pc);
        slow.m.set_pc(pc);
    }
    let rf = fast.run(2_000_000);
    let rs = slow.run(2_000_000);
    assert_eq!(
        format!("{rf:?}"),
        format!("{rs:?}"),
        "seed {seed}: final RunResult diverged"
    );
    assert!(rf.unwrap().halted, "seed {seed}: machines did not halt");
    assert_eq!(
        arch_state(&fast.m),
        arch_state(&slow.m),
        "seed {seed}: final registers"
    );
    assert_eq!(
        fast.stats(),
        slow.stats(),
        "seed {seed}: final engine stats"
    );

    // The comparison proves nothing unless the engine actually expanded,
    // the fast machine's expansion cache served some of it, and, on a
    // finite RT, the model actually evicted and refilled sequences.
    let stats = fast.stats();
    assert!(stats.expansions > 0, "seed {seed}: nothing ever expanded");
    assert!(
        fast.m.engine().unwrap().expansion_cache_hits() > 0,
        "seed {seed}: the expansion cache never hit"
    );
    assert_eq!(slow.m.engine().unwrap().expansion_cache_hits(), 0);
    if econfig.rt_org != RtOrganization::Perfect {
        assert!(stats.rt_misses > 0, "seed {seed}: the finite RT never missed");
    }
}

#[test]
fn fuzz_small_two_way_rt() {
    let cfg = EngineConfig {
        rt_entries: 16,
        rt_org: RtOrganization::SetAssociative(2),
        ..EngineConfig::default()
    };
    for seed in 0..6 {
        fuzz_one(seed, cfg);
    }
}

#[test]
fn fuzz_direct_mapped_rt() {
    let cfg = EngineConfig {
        rt_entries: 8,
        rt_org: RtOrganization::DirectMapped,
        ..EngineConfig::default()
    };
    for seed in 10..16 {
        fuzz_one(seed, cfg);
    }
}

#[test]
fn fuzz_blocked_rt() {
    let cfg = EngineConfig {
        rt_entries: 32,
        rt_org: RtOrganization::SetAssociative(2),
        rt_block: 2,
        ..EngineConfig::default()
    };
    for seed in 20..26 {
        fuzz_one(seed, cfg);
    }
}

#[test]
fn fuzz_perfect_rt() {
    for seed in 30..36 {
        fuzz_one(seed, EngineConfig::default().perfect_rt());
    }
}

/// Every suspension point must be identical: run matched machine pairs on
/// each fuel value crossing the first loop iterations and compare the
/// mid-sequence resume state (PC, DISEPC, registers, counts).
#[test]
fn suspension_state_identical_per_fuel() {
    let p = program();
    for fuel in 1..=80u64 {
        let mut rng_f = StdRng::seed_from_u64(7);
        let mut rng_s = StdRng::seed_from_u64(7);
        let mut fast = machine(&p, EngineConfig::default(), &mut rng_f, false);
        let mut slow = machine(&p, EngineConfig::default(), &mut rng_s, true);
        let rf = format!("{:?}", fast.run(fuel));
        let rs = format!("{:?}", slow.run(fuel));
        assert_eq!(rf, rs, "fuel {fuel}: run outcome");
        assert_eq!(fast.pc(), slow.pc(), "fuel {fuel}: PC:DISEPC");
        assert_eq!(fast.inst_counts(), slow.inst_counts(), "fuel {fuel}: counts");
        assert_eq!(arch_state(&fast), arch_state(&slow), "fuel {fuel}: registers");
    }
}
