#![warn(missing_docs)]

//! # dise-rewrite: the paper's binary-rewriting baseline
//!
//! Figure 6 compares DISE memory fault isolation against a **static binary
//! rewriting** implementation, and Figure 8 compresses the rewritten image.
//! This crate provides that baseline:
//!
//! * [`mfi::RewriteMfi`] — software fault isolation by binary rewriting
//!   (Wahbe et al.-style segment matching, §3.1): every instruction the
//!   DISE4 production set of [`dise_acf::Mfi`] expands (loads, stores,
//!   indirect jumps) is preceded by that set's four-instruction check,
//!   instantiated with *scavenged* registers and varied per site (see
//!   [`mfi`]); all branches are retargeted, and a check prologue and error
//!   block are added. Unlike the DISE version, the check instructions
//!   occupy the static image — they consume I-cache capacity and fetch
//!   bandwidth.
//!
//! The other baseline, the dedicated decoder-based decompressor, is
//! [`dise_acf::compress`] with `CompressionConfig::dedicated()`, decoded by
//! `dise_sim::DedicatedDict`.

pub mod mfi;

pub use mfi::{RewriteMfi, RewriteOutput, RewriteStats};

/// Errors produced by the rewriting baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// Underlying ISA error (relocation, encoding).
    Isa(dise_isa::IsaError),
    /// Underlying ACF error (building or instantiating the check).
    Acf(dise_acf::AcfError),
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::Isa(e) => write!(f, "{e}"),
            RewriteError::Acf(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<dise_isa::IsaError> for RewriteError {
    fn from(e: dise_isa::IsaError) -> RewriteError {
        RewriteError::Isa(e)
    }
}

impl From<dise_acf::AcfError> for RewriteError {
    fn from(e: dise_acf::AcfError) -> RewriteError {
        RewriteError::Acf(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, RewriteError>;
