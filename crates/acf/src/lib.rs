#![warn(missing_docs)]

//! # dise-acf: application customization functions
//!
//! The ACFs the paper builds on top of the DISE engine (§3):
//!
//! * [`mfi`] — **memory fault isolation**, the transparent ACF of §3.1 and
//!   Figure 1: segment-matching checks macro-expanded onto every load,
//!   store and indirect jump, in the 3-check (`DISE3`) and 4-check
//!   (`DISE4`, mirroring the binary-rewriting sequence) variants of §4.1.
//! * [`compress`] — **dynamic code (de)compression**, the aware ACF of
//!   §3.2 and Figure 4: a greedy dictionary compressor with up-to-3-
//!   parameter abstraction and PC-relative-branch compression, plus the
//!   feature-restricted configurations swept by Figure 7.
//! * [`trace`] — **store-address tracing** (Figure 5), used to demonstrate
//!   composition.
//! * [`profile`] — **branch bit-profiling** (§3.1 "other transparent
//!   ACFs"), exploiting replacement-sequence branch semantics: entries
//!   after a trigger branch execute only on its not-taken path.
//! * [`dsm`] — **fine-grained software distributed shared memory**
//!   (§3.1, after Shasta): per-block coherence-state checks on every
//!   memory operation, trapping to a protocol handler.
//! * [`monitor`] — **reference monitoring** (§3.1): a tamper-resistant
//!   indirect-jump target policy (approval table consulted before every
//!   transfer).
//! * [`path`] — **PC-indexed path/edge profiling** (§3.1, after \[8\]):
//!   per-branch execution and outcome counters kept in a memory table,
//!   using the `T.PC` instantiation directive.
//! * [`specialize`] — **dynamic code specialization** (§3.2): runtime
//!   installation of specialized replacement sequences, e.g. multiply by a
//!   loop-invariant operand reduced to shifts.
//! * [`watch`] — **code assertions / memory watchpoints** (§3.1): arbitrary
//!   address watchpoints with no single-stepping.
//!
//! All ACFs produce ordinary [`dise_core::ProductionSet`]s, so they compose
//! with each other via [`dise_core::compose`] exactly as §3.3 describes.

pub mod compress;
pub mod dsm;
pub mod mfi;
pub mod monitor;
pub mod path;
pub mod profile;
pub mod specialize;
pub mod trace;
pub mod watch;

pub use compress::{
    CompressedProgram, CompressionConfig, CompressionStats, Compressor, SelectAlgo,
};
pub use dsm::Dsm;
pub use monitor::JumpMonitor;
pub use mfi::{Mfi, MfiVariant};
pub use path::PathProfiler;
pub use profile::BranchProfiler;
pub use specialize::{Specialization, Specializer};
pub use trace::StoreTracer;
pub use watch::Watchpoint;

/// Errors produced by ACF construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcfError {
    /// Underlying ISA error (relocation, encoding).
    Isa(dise_isa::IsaError),
    /// Underlying DISE-engine error.
    Core(dise_core::CoreError),
    /// The compressor could not honor the configuration (e.g. a patched
    /// branch offset exceeded the parameter range).
    Compress(String),
}

impl std::fmt::Display for AcfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcfError::Isa(e) => write!(f, "{e}"),
            AcfError::Core(e) => write!(f, "{e}"),
            AcfError::Compress(why) => write!(f, "compression failed: {why}"),
        }
    }
}

impl std::error::Error for AcfError {}

impl From<dise_isa::IsaError> for AcfError {
    fn from(e: dise_isa::IsaError) -> AcfError {
        AcfError::Isa(e)
    }
}

impl From<dise_core::CoreError> for AcfError {
    fn from(e: dise_core::CoreError) -> AcfError {
        AcfError::Core(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, AcfError>;
