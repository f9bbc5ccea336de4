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
//! * [`DiseEngine`] — the functional engine: production matching and
//!   instantiation logic, a pure function of the production set (§2.2).
//!   The finite pattern table (PT), replacement table (RT, direct-mapped
//!   / set-associative / perfect) and pattern-counter table of §2.3 only
//!   cost time, so `dise_sim`'s timing model owns them; [`EngineConfig`]
//!   carries their geometry and 30/150-cycle miss penalties.
//! * [`Controller`] — owns the production set and resolves replacement
//!   sequences, composing productions into them on the fly for the
//!   compose-on-miss configurations (§3.3, §4).
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
//! let Expansion::Expand { id, len } = engine.inspect(&store) else { panic!() };
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

pub use controller::Controller;
pub use engine::{DiseEngine, EngineConfig, EngineStats, Expansion, RtOrganization, UopHandle};
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
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::UnknownSequence(id) => write!(f, "unknown replacement sequence R{id}"),
            CoreError::Instantiate(why) => write!(f, "instantiation failed: {why}"),
            CoreError::BadProduction(why) => write!(f, "bad production: {why}"),
            CoreError::Dsl(why) => write!(f, "production DSL error: {why}"),
            CoreError::Compose(why) => write!(f, "composition failed: {why}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
