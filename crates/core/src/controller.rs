//! The DISE controller (paper §2.3).
//!
//! The controller owns the architectural (virtual) production set and
//! resolves replacement sequences from it. For the composed-ACF
//! configurations of §4.3 it inlines a transparent production set into
//! aware replacement sequences as it resolves them — in hardware, *at
//! RT-miss time*, so composite productions are represented in the RT
//! only. The engine resolves each sequence once per install
//! ([`crate::DiseEngine`]); the timing simulator's RT model charges the
//! 150-cycle composing penalty on every fill of such a sequence.

use crate::compose;
use crate::production::{ProductionSet, ReplacementId};
use crate::spec::ReplacementSpec;
use crate::{CoreError, Result};
use std::borrow::Cow;

/// The controller: owns the production set and resolves replacement
/// sequences.
#[derive(Debug, Clone)]
pub struct Controller {
    productions: ProductionSet,
    /// When set, RT fills of *aware* sequences (explicit-tag identifiers)
    /// inline this transparent set into the sequence before installing it —
    /// the client-side transparent∘aware composition of §3.3, invoked from
    /// the RT miss handler.
    inline_on_fill: Option<ProductionSet>,
}

impl Controller {
    /// Creates a controller over `productions`.
    pub fn new(productions: ProductionSet) -> Controller {
        Controller {
            productions,
            inline_on_fill: None,
        }
    }

    /// Enables compose-on-miss: `transparent` is inlined into every aware
    /// sequence when it is faulted into the RT. Fills that compose are
    /// charged the engine's `compose_penalty` instead of `miss_penalty`.
    pub fn with_inline_on_fill(mut self, transparent: ProductionSet) -> Controller {
        self.inline_on_fill = Some(transparent);
        self
    }

    /// The architectural production set.
    pub fn productions(&self) -> &ProductionSet {
        &self.productions
    }

    /// Mutable access to the production set (runtime production
    /// installation through the controller API, §2.3).
    pub fn productions_mut(&mut self) -> &mut ProductionSet {
        &mut self.productions
    }

    /// True if compose-on-miss is enabled.
    pub fn composes_on_fill(&self) -> bool {
        self.inline_on_fill.is_some()
    }

    /// Resolves the replacement sequence `id`. Returns the spec and
    /// whether composition was performed (determining the RT fill
    /// penalty).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownSequence`] for an uninstalled identifier
    /// and composition errors from the inliner.
    pub fn resolve_spec(&self, id: ReplacementId) -> Result<(Cow<'_, ReplacementSpec>, bool)> {
        let spec = self
            .productions
            .seq(id)
            .ok_or(CoreError::UnknownSequence(id))?;
        let is_aware = id >= (1 << 16);
        match (&self.inline_on_fill, is_aware) {
            (Some(transparent), true) => {
                let composed = compose::inline(transparent, spec)?;
                Ok((Cow::Owned(composed), true))
            }
            _ => Ok((Cow::Borrowed(spec), false)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::spec::{ImmDirective, InstSpec, OpDirective, RegDirective};
    use dise_isa::{Op, OpClass, Reg};

    fn check_spec() -> ReplacementSpec {
        ReplacementSpec::new(vec![
            InstSpec::Templated {
                op: OpDirective::Literal(Op::Srl),
                ra: RegDirective::TriggerRs,
                rb: RegDirective::Literal(Reg::ZERO),
                rc: RegDirective::Literal(Reg::dr(1)),
                imm: ImmDirective::Literal(26),
                uses_lit: true,
                dise_branch: false,
            },
            InstSpec::Trigger,
        ])
    }

    #[test]
    fn plain_fills_do_not_compose() {
        let mut set = ProductionSet::new();
        let id = set
            .add_transparent(Pattern::opclass(OpClass::Store), check_spec())
            .unwrap();
        let c = Controller::new(set);
        let (spec, composed) = c.resolve_spec(id).unwrap();
        assert!(!composed);
        assert_eq!(spec.len(), 2);
        assert!(matches!(
            c.resolve_spec(9999),
            Err(CoreError::UnknownSequence(9999))
        ));
    }

    #[test]
    fn aware_fills_compose_when_enabled() {
        // Aware sequence containing a store...
        let mut aware = ProductionSet::new();
        let store: dise_isa::Inst = "stq r1, 0(r2)".parse().unwrap();
        let id = aware
            .add_aware(
                Op::Cw0,
                0,
                ReplacementSpec::new(vec![InstSpec::literal(store)]),
            )
            .unwrap();
        // ...with transparent MFI to be inlined at fill time.
        let mut mfi = ProductionSet::new();
        mfi.add_transparent(Pattern::opclass(OpClass::Store), check_spec())
            .unwrap();
        let c = Controller::new(aware).with_inline_on_fill(mfi);
        assert!(c.composes_on_fill());
        let (spec, composed) = c.resolve_spec(id).unwrap();
        assert!(composed);
        // The store expands to [srl, store] inside the dictionary entry.
        assert_eq!(spec.len(), 2);
    }
}
