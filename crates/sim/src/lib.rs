#![warn(missing_docs)]

//! # dise-sim: the functional machine and cycle-level timing simulator
//!
//! The paper evaluates DISE on SimpleScalar's Alpha modules, modeling a
//! MIPS R10000-like 4-way superscalar with a 12-stage pipeline, a 128-entry
//! reorder buffer, 80 reservation stations, aggressive branch and load
//! speculation, 32KB L1 instruction and data caches and a unified 1MB L2
//! (paper §4). This crate is that substrate, built from scratch:
//!
//! * [`Machine`] — the functional (architectural) machine: registers
//!   (32 architectural + 16 DISE dedicated), sparse paged memory, full
//!   instruction semantics, and the fetch-side expansion loop implementing
//!   the PC:DISEPC two-level control model of paper §2. It executes DISE
//!   replacement sequences through an attached [`dise_core::DiseEngine`]
//!   and 2-byte codewords through an attached [`DedicatedDict`] (the
//!   dedicated-decompressor baseline).
//! * [`Simulator`] — the cycle-level timing model, driven by the functional
//!   machine as an oracle: a width-limited front end with an I-cache and a
//!   gshare+BTB+RAS branch predictor, width-limited commit, ROB/RS
//!   occupancy limits, per-class execution latencies, store-to-load
//!   forwarding, and the three DISE expansion cost models of Figure 6
//!   ([`ExpansionCost`]). Issue is unbounded (an instruction issues once
//!   its operands are ready), with no functional-unit or D-cache-port
//!   limits.
//! * [`Cache`] — parameterized set-associative caches with an L2 behind
//!   the L1s.
//! * [`DiseCacheModel`] — the DISE engine's physical pattern and
//!   replacement tables (§2.3) as timing state: residency, LRU, and the
//!   30/150-cycle miss stalls the simulator charges.
//!
//! ```
//! use dise_sim::{Machine, Simulator, SimConfig};
//! use dise_isa::Assembler;
//!
//! let program = Assembler::new(0x0400_0000)
//!     .assemble(
//!         "       lda r1, 100(r31)
//!          loop:  subq r1, #1, r1
//!                 bne r1, loop
//!                 halt",
//!     )
//!     .unwrap();
//!
//! // Functional run.
//! let mut m = Machine::load(&program);
//! let run = m.run(10_000).unwrap();
//! assert!(run.halted);
//!
//! // Timing run.
//! let mut sim = Simulator::new(SimConfig::default(), Machine::load(&program));
//! let result = sim.run(10_000).unwrap();
//! assert!(result.stats.cycles > 0);
//! ```

pub mod arena;
pub mod bpred;
pub mod cache;
pub mod dise_cache;
pub mod machine;
pub mod mem;
pub mod pipeline;
pub mod ring;
pub mod snapshot;
pub mod telemetry;

pub use bpred::{BpredConfig, BranchPredictor};
pub use cache::{Cache, CacheConfig, MemoryHierarchy, MemoryHierarchyConfig};
pub use dise_cache::DiseCacheModel;
pub use machine::{DedicatedDict, DiseRef, Machine, MachineConfig, RunResult, StepInfo};
pub use mem::Memory;
pub use pipeline::{ExpansionCost, SimConfig, SimResult, SimStats, Simulator};
pub use snapshot::{
    parse_snapshot, restore_machine, restore_simulator, save_machine, save_simulator,
    snapshot_env, SNAPSHOT_VERSION,
};
pub use telemetry::{
    AnomalyReport, EventRing, Log2Histogram, StallCause, StatValue, StatsRegistry, TraceEvent,
    TraceKind,
};

/// Errors produced by functional or timing simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Instruction fetch failed (PC outside text, undecodable bytes).
    Fetch(dise_isa::IsaError),
    /// The DISE engine reported an error (unknown sequence, bad
    /// instantiation).
    Engine(dise_core::CoreError),
    /// A reserved codeword reached execution with no engine able to expand
    /// it.
    UnexpandedCodeword {
        /// PC of the offending codeword.
        pc: u64,
    },
    /// A 2-byte codeword was fetched but no dedicated dictionary is
    /// attached, or the index is out of range.
    BadShortCodeword {
        /// PC of the offending codeword.
        pc: u64,
        /// The dictionary index.
        index: u16,
    },
    /// The step/cycle budget was exhausted before the program halted.
    OutOfFuel,
    /// The telemetry watchdog fired or a shadow functional oracle
    /// diverged. The full [`AnomalyReport`] was dumped to stderr and
    /// remains retrievable via [`Simulator::anomaly`].
    Anomaly(
        /// The trigger reason (the report's headline).
        String,
    ),
    /// Snapshot serialization or restore failed: unknown format version,
    /// truncated bytes, or a fingerprint that does not match the restore
    /// target (see [`crate::snapshot`]). The message names the offending
    /// version or fingerprint values.
    Snapshot(
        /// What went wrong, with the expected/found values spelled out.
        String,
    ),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Fetch(e) => write!(f, "fetch failed: {e}"),
            SimError::Engine(e) => write!(f, "DISE engine error: {e}"),
            SimError::UnexpandedCodeword { pc } => {
                write!(f, "codeword executed unexpanded at {pc:#x}")
            }
            SimError::BadShortCodeword { pc, index } => {
                write!(f, "undecodable short codeword {index} at {pc:#x}")
            }
            SimError::OutOfFuel => f.write_str("simulation budget exhausted before halt"),
            SimError::Anomaly(reason) => write!(f, "simulator anomaly: {reason}"),
            SimError::Snapshot(why) => write!(f, "snapshot error: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<dise_isa::IsaError> for SimError {
    fn from(e: dise_isa::IsaError) -> SimError {
        SimError::Fetch(e)
    }
}

impl From<dise_core::CoreError> for SimError {
    fn from(e: dise_core::CoreError) -> SimError {
        SimError::Engine(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, SimError>;
