#![warn(missing_docs)]

//! # dise-core: the DISE engine
//!
//! This crate implements Dynamic Instruction Stream Editing (paper §2): a
//! programmable macro engine that inspects every fetched instruction and
//! expands those matching *productions* into parameterized replacement
//! sequences.
//!
//! The pieces, mirroring the paper's structure:
//!
//! * [`Pattern`] — pattern specifications over opcode, opcode class,
//!   register names and immediate attributes, with most-specific-wins
//!   resolution enabling negative/overlapping patterns (§2.2).
//! * [`ReplacementSpec`] / [`InstSpec`] — parameterized replacement-sequence
//!   specifications whose fields carry instantiation *directives*
//!   (literal / dedicated / `T.RS` / `T.RT` / `T.RD` / `T.IMM` / `T.INSN` /
//!   codeword parameters, §2.1).
//! * [`ProductionSet`] — the architectural (virtual) set of productions,
//!   supporting both *transparent* rules (fixed replacement-sequence
//!   identifier) and *aware* rules (identifier taken from the trigger's
//!   explicit tag, §2.1).
//! * [`DiseEngine`] — the microarchitectural model: a finite pattern table
//!   (PT), a finite replacement table (RT, direct-mapped / set-associative /
//!   perfect), instantiation logic, and the pattern-counter table used to
//!   detect PT misses (§2.2–2.3).
//! * [`Controller`] — the PT/RT miss handler: demand-fills the tables from
//!   the production set, charging 30-cycle simple misses or 150-cycle
//!   misses when productions must be composed on the fly (§2.3, §4).
//! * [`compose`] — ACF composition: nested composition by replacement-
//!   sequence inlining (with dedicated-register renaming) and non-nested
//!   merging (§3.3).
//! * [`dsl`] — the textual production language used throughout the paper's
//!   figures (`P1: T.OPCLASS == store -> R1 ...`).
//!
//! ## Example: Figure 1 of the paper
//!
//! ```
//! use dise_core::{dsl, DiseEngine, EngineConfig, Expansion};
//! use dise_isa::Inst;
//!
//! let productions = dsl::parse(
//!     "P1: T.OPCLASS == store -> R1
//!      P2: T.OPCLASS == load  -> R1
//!      R1: srl T.RS, #26, $dr1
//!          cmpeq $dr1, $dr2, $dr1
//!          beq $dr1, =error
//!          T.INSN",
//!     &[("error".to_string(), 0x7000)].into_iter().collect(),
//! )
//! .unwrap();
//!
//! let mut engine = DiseEngine::with_productions(
//!     EngineConfig::default(),
//!     productions,
//! ).unwrap();
//!
//! let store: Inst = "stq r0, 0(r2)".parse().unwrap();
//! // First touches miss in the cold PT and RT; the processor charges the
//! // stalls and re-inspects.
//! let expansion = loop {
//!     match engine.inspect(&store) {
//!         Expansion::Miss { .. } => continue,
//!         other => break other,
//!     }
//! };
//! let Expansion::Expand { id, len } = expansion else { panic!() };
//! assert_eq!(len, 4);
//! let first = engine.fetch_replacement(id, 0, &store, 0x1000).unwrap();
//! assert_eq!(first.to_string(), "srl r2, #26, $dr1");
//! ```

pub mod compose;
pub mod controller;
pub mod dsl;
pub mod engine;
pub mod fxhash;
pub mod pattern;
pub mod production;
pub mod spec;

pub use controller::{Controller, MissKind};
pub use engine::{
    DiseEngine, EngineConfig, EngineState, EngineStats, Expansion, RtOrganization, RtState,
};
pub use fxhash::{FxHashMap, FxHasher};
pub use pattern::{ImmPredicate, Pattern};
pub use production::{Production, ProductionSet, ReplacementId, SeqRef};
pub use spec::{ImmDirective, InstSpec, OpDirective, RegDirective, ReplacementSpec};

/// Errors produced by the DISE engine and its tooling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A replacement-sequence identifier is not defined in the production
    /// set.
    UnknownSequence(ReplacementId),
    /// Instantiating a replacement instruction failed (e.g. a `T.RT`
    /// directive on a trigger with no second source).
    Instantiate(String),
    /// A production is malformed (e.g. empty replacement sequence, DISE
    /// branch target out of sequence bounds).
    BadProduction(String),
    /// Production-DSL parse error.
    Dsl(String),
    /// ACF composition failed (e.g. statically undecidable pattern match or
    /// no free dedicated registers for renaming).
    Compose(String),
    /// Reinjecting exported engine state failed (snapshot restore against
    /// a mismatched production set, RT geometry, or PT capacity).
    Restore(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::UnknownSequence(id) => write!(f, "unknown replacement sequence R{id}"),
            CoreError::Instantiate(why) => write!(f, "instantiation failed: {why}"),
            CoreError::BadProduction(why) => write!(f, "bad production: {why}"),
            CoreError::Dsl(why) => write!(f, "production DSL error: {why}"),
            CoreError::Compose(why) => write!(f, "composition failed: {why}"),
            CoreError::Restore(why) => write!(f, "engine state restore failed: {why}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
