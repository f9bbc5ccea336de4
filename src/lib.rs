#![warn(missing_docs)]

//! # dise — reproduction of *DISE: A Programmable Macro Engine for
//! Customizing Applications* (Corliss, Lewis, Roth; ISCA 2003)
//!
//! This facade crate re-exports the whole reproduction:
//!
//! * [`isa`] — the Alpha-like instruction set, assembler, program images,
//!   basic blocks and relocation.
//! * [`sim`] — the functional machine and the cycle-level 4-way out-of-order
//!   superscalar timing simulator the paper evaluates on.
//! * [`engine`] — the DISE engine itself: productions, pattern/replacement
//!   tables, instantiation logic, DISEPC control, the controller, the
//!   production DSL, and ACF composition.
//! * [`acf`] — application customization functions: memory fault isolation,
//!   dynamic code (de)compression, store-address tracing, branch profiling.
//! * [`rewrite`] — the binary-rewriting fault-isolation baseline, its
//!   check instantiated from the DISE4 production set (the dedicated
//!   hardware decompressor baseline is [`acf`]'s compressor).
//! * [`workloads`] — the synthetic SPEC2000-integer-like benchmark suite.
//!
//! ## Quickstart
//!
//! ```
//! use dise::prelude::*;
//!
//! // An application that stores in a loop.
//! let program = Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
//!     .assemble(
//!         "       lda r1, 4(r31)
//!          loop:  stq r1, 0(r2)
//!                 subq r1, #1, r1
//!                 bne r1, loop
//!                 halt
//!          mfi_error: halt",
//!     )
//!     .unwrap();
//!
//! // Memory fault isolation as a DISE ACF (paper Figure 1).
//! let mfi = Mfi::new(MfiVariant::Dise3).productions().unwrap();
//!
//! // Run it: every store is macro-expanded into its check sequence.
//! let mut machine = Machine::load(&program);
//! machine.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
//! let engine = DiseEngine::with_productions(EngineConfig::default(), mfi).unwrap();
//! machine.attach_engine(engine);
//! Mfi::init_machine(&mut machine);
//! let result = machine.run(100_000).unwrap();
//! assert!(result.halted());
//! ```

pub use dise_acf as acf;
pub use dise_core as engine;
pub use dise_isa as isa;
pub use dise_rewrite as rewrite;
pub use dise_sim as sim;
pub use dise_workloads as workloads;

/// The most commonly used items from every crate, in one import.
pub mod prelude {
    pub use dise_acf::compress::{CompressionConfig, Compressor};
    pub use dise_acf::mfi::{Mfi, MfiVariant};
    pub use dise_core::{
        DiseEngine, EngineConfig, Pattern, Production, ProductionSet, ReplacementSpec,
    };
    pub use dise_isa::{Assembler, Inst, Op, OpClass, Program, ProgramBuilder, Reg};
    pub use dise_sim::{Machine, MachineConfig, Simulator, SimConfig};
    pub use dise_workloads::{Benchmark, WorkloadConfig};
}
