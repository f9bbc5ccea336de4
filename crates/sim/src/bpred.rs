//! Branch prediction: gshare direction predictor, branch target buffer,
//! and return-address stack ("aggressive branch speculation", paper §4).
//!
//! Because the timing model is driven by the correct-path oracle, the
//! predictor's job is to decide — per control transfer — whether the front
//! end would have followed it correctly; a wrong decision costs a pipeline
//! redirect. Per §2.2, DISE-internal branches and non-trigger replacement
//! branches are never predicted: taken ones always redirect.

/// Branch predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpredConfig {
    /// log2 of the gshare pattern-history-table size.
    pub gshare_bits: u32,
    /// Branch-target-buffer entries (direct-mapped).
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
}

impl Default for BpredConfig {
    fn default() -> BpredConfig {
        BpredConfig {
            gshare_bits: 14,
            btb_entries: 2048,
            ras_depth: 16,
        }
    }
}

/// Prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BpredStats {
    /// Conditional-branch predictions made.
    pub cond_predictions: u64,
    /// Conditional-branch direction mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect-jump target mispredictions (BTB/RAS misses).
    pub target_mispredicts: u64,
}

impl BpredStats {
    /// Registers the predictor counters under `prefix` (normally
    /// `bpred`) in the unified stats registry. `bpred.mispredicts` is
    /// the combined direction + target total.
    pub fn register(&self, prefix: &str, registry: &mut crate::telemetry::StatsRegistry) {
        registry.count(format!("{prefix}.cond_predictions"), self.cond_predictions);
        registry.count(format!("{prefix}.cond_mispredicts"), self.cond_mispredicts);
        registry.count(format!("{prefix}.target_mispredicts"), self.target_mispredicts);
        registry.count(
            format!("{prefix}.mispredicts"),
            self.cond_mispredicts + self.target_mispredicts,
        );
    }
}

/// The predictor.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    config: BpredConfig,
    /// 2-bit saturating counters.
    pht: Vec<u8>,
    history: u64,
    /// Direct-mapped BTB: `btb[i] = (tag, target)`.
    btb: Vec<(u64, u64)>,
    /// `btb.len() - 1` when the length is a power of two (index by
    /// masking instead of dividing).
    btb_mask: Option<usize>,
    ras: Vec<u64>,
    stats: BpredStats,
}

impl BranchPredictor {
    /// Creates a predictor.
    pub fn new(config: BpredConfig) -> BranchPredictor {
        BranchPredictor {
            config,
            pht: vec![1; 1 << config.gshare_bits],
            history: 0,
            btb: vec![(u64::MAX, 0); config.btb_entries.max(1)],
            btb_mask: config
                .btb_entries
                .max(1)
                .is_power_of_two()
                .then(|| config.btb_entries.max(1) - 1),
            ras: Vec::with_capacity(config.ras_depth),
            stats: BpredStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BpredStats {
        self.stats
    }

    /// Predicts and trains on a conditional branch at `pc` with actual
    /// outcome `taken` and target `target`. Returns true if the front end
    /// followed the correct path (direction correct, and target known when
    /// taken).
    pub fn cond_branch(&mut self, pc: u64, taken: bool, target: u64) -> bool {
        self.stats.cond_predictions += 1;
        // PCs are 2-byte granular (compressed programs intermix 2-byte
        // codewords with 4-byte instructions), so only the constant-zero
        // bit 0 may be dropped: `pc >> 2` would discard bit 1 and alias
        // adjacent compressed branches onto one PHT entry.
        let ix =
            ((pc >> 1) ^ self.history) as usize & ((1 << self.config.gshare_bits) - 1);
        let counter = &mut self.pht[ix];
        let predicted_taken = *counter >= 2;
        // Train.
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        self.history =
            ((self.history << 1) | taken as u64) & ((1 << self.config.gshare_bits) - 1);
        let mut correct = predicted_taken == taken;
        if taken {
            // Even a correct taken prediction needs the target from the
            // BTB at fetch time.
            if !self.btb_lookup_update(pc, target) && predicted_taken {
                correct = false;
            }
        }
        if !correct {
            self.stats.cond_mispredicts += 1;
        }
        correct
    }

    /// Unconditional PC-relative branch (`br`/`bsr`): direction is known,
    /// the target comes from the BTB. `push_ras` pushes the return address
    /// for calls.
    pub fn uncond_branch(&mut self, pc: u64, target: u64, push_ras: Option<u64>) -> bool {
        let hit = self.btb_lookup_update(pc, target);
        if let Some(ra) = push_ras {
            if self.ras.len() == self.config.ras_depth {
                self.ras.remove(0);
            }
            self.ras.push(ra);
        }
        if !hit {
            self.stats.target_mispredicts += 1;
        }
        hit
    }

    /// Indirect jump (`jmp`/`jsr`): target predicted by the BTB. `push_ras`
    /// pushes the return address for calls.
    pub fn indirect(&mut self, pc: u64, target: u64, push_ras: Option<u64>) -> bool {
        let hit = self.btb_lookup_update(pc, target);
        if let Some(ra) = push_ras {
            if self.ras.len() == self.config.ras_depth {
                self.ras.remove(0);
            }
            self.ras.push(ra);
        }
        if !hit {
            self.stats.target_mispredicts += 1;
        }
        hit
    }

    /// Function return: target predicted by the return-address stack.
    pub fn ret(&mut self, target: u64) -> bool {
        let predicted = self.ras.pop();
        let hit = predicted == Some(target);
        if !hit {
            self.stats.target_mispredicts += 1;
        }
        hit
    }

    /// Serializes the predictor's mutable state: the full PHT (it is
    /// dense — initialized to weakly-not-taken and trained everywhere),
    /// the global history, occupied BTB slots only (the empty sentinel
    /// `(u64::MAX, 0)` is unreachable as a real mapping because tags are
    /// full PCs and `u64::MAX` is not a fetchable PC), the RAS
    /// bottom-first, and the counters.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::Writer) {
        w.u64(self.pht.len() as u64);
        w.bytes(&self.pht);
        w.u64(self.history);
        let occupied = self.btb.iter().filter(|&&e| e != (u64::MAX, 0)).count();
        w.u64(occupied as u64);
        for (ix, &(pc, target)) in self.btb.iter().enumerate() {
            if (pc, target) == (u64::MAX, 0) {
                continue;
            }
            w.u64(ix as u64);
            w.u64(pc);
            w.u64(target);
        }
        w.u64(self.ras.len() as u64);
        for &ra in &self.ras {
            w.u64(ra);
        }
        w.u64(self.stats.cond_predictions);
        w.u64(self.stats.cond_mispredicts);
        w.u64(self.stats.target_mispredicts);
    }

    /// Parses a [`BranchPredictor::save_state`] section, validating it
    /// against this predictor's configuration without mutating anything.
    pub(crate) fn read_state(
        &self,
        r: &mut crate::snapshot::Reader<'_>,
    ) -> crate::Result<BpredState> {
        let corrupt = |what: String| crate::SimError::Snapshot(format!("snapshot corrupt: {what}"));
        let pht_len = r.len_prefix(1)?;
        if pht_len != self.pht.len() {
            return Err(corrupt(format!(
                "PHT of {pht_len} entries does not fit a {}-entry gshare table",
                self.pht.len()
            )));
        }
        let pht = r.bytes(pht_len)?.to_vec();
        let history = r.u64()?;
        let n = r.len_prefix(24)?;
        let mut btb = Vec::with_capacity(n);
        for _ in 0..n {
            let ix = r.u64()? as usize;
            if ix >= self.btb.len() {
                return Err(corrupt(format!(
                    "BTB slot {ix} out of range for {} entries",
                    self.btb.len()
                )));
            }
            btb.push((ix, (r.u64()?, r.u64()?)));
        }
        let n = r.len_prefix(8)?;
        if n > self.config.ras_depth {
            return Err(corrupt(format!(
                "RAS of {n} frames exceeds the configured depth {}",
                self.config.ras_depth
            )));
        }
        let mut ras = Vec::with_capacity(n);
        for _ in 0..n {
            ras.push(r.u64()?);
        }
        Ok(BpredState {
            pht,
            history,
            btb,
            ras,
            stats: BpredStats {
                cond_predictions: r.u64()?,
                cond_mispredicts: r.u64()?,
                target_mispredicts: r.u64()?,
            },
        })
    }

    /// Installs a parsed state (resetting the BTB to cold first).
    pub(crate) fn apply_state(&mut self, state: BpredState) {
        self.pht.copy_from_slice(&state.pht);
        self.history = state.history;
        self.btb.fill((u64::MAX, 0));
        for (ix, entry) in state.btb {
            self.btb[ix] = entry;
        }
        self.ras = state.ras;
        self.stats = state.stats;
    }

    /// Looks `pc` up in the BTB and installs/updates the mapping. Returns
    /// true if the correct target was present.
    fn btb_lookup_update(&mut self, pc: u64, target: u64) -> bool {
        // 2-byte PC granularity, as in `cond_branch`: `>> 2` would map
        // branches 2 bytes apart to the same direct-mapped slot, where
        // the full-PC tags make them evict each other on every access.
        let ix = match self.btb_mask {
            Some(mask) => (pc as usize >> 1) & mask,
            None => (pc as usize >> 1) % self.btb.len(),
        };
        let hit = self.btb[ix] == (pc, target);
        self.btb[ix] = (pc, target);
        hit
    }
}

/// Parsed, configuration-validated mutable state of the predictor.
#[derive(Debug)]
pub(crate) struct BpredState {
    pht: Vec<u8>,
    history: u64,
    /// `(slot, (pc, target))` for every occupied BTB slot.
    btb: Vec<(usize, (u64, u64))>,
    ras: Vec<u64>,
    stats: BpredStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred() -> BranchPredictor {
        BranchPredictor::new(BpredConfig::default())
    }

    #[test]
    fn learns_a_biased_branch() {
        let mut p = pred();
        let mut wrong_late = 0;
        for i in 0..200 {
            if !p.cond_branch(0x1000, true, 0x2000) && i >= 100 {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late <= 2,
            "biased-taken branch should be learned, {wrong_late} wrong after warmup"
        );
    }

    #[test]
    fn alternating_branch_with_history() {
        // gshare uses global history, so a strict alternation becomes
        // predictable after warmup.
        let mut p = pred();
        let mut wrong_late = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            let correct = p.cond_branch(0x1000, taken, 0x2000);
            if i >= 100 && !correct {
                wrong_late += 1;
            }
        }
        assert!(wrong_late <= 5, "{wrong_late} late mispredictions");
    }

    #[test]
    fn ras_predicts_returns() {
        let mut p = pred();
        // call from 0x100 returning to 0x104, then ret.
        p.indirect(0x100, 0x4000, Some(0x104));
        assert!(p.ret(0x104));
        // Mismatched return target misses.
        p.indirect(0x100, 0x4000, Some(0x104));
        assert!(!p.ret(0x999));
    }

    #[test]
    fn ras_depth_bounded() {
        let mut p = BranchPredictor::new(BpredConfig {
            ras_depth: 2,
            ..BpredConfig::default()
        });
        p.uncond_branch(0x0, 0x100, Some(0x4));
        p.uncond_branch(0x10, 0x100, Some(0x14));
        p.uncond_branch(0x20, 0x100, Some(0x24));
        assert!(p.ret(0x24));
        assert!(p.ret(0x14));
        assert!(!p.ret(0x4), "deepest frame was pushed out");
    }

    #[test]
    fn byte_granular_branch_pcs_do_not_alias() {
        // Two always-taken branches 2 bytes apart — a layout only
        // compressed programs produce — with different targets. Indexing
        // the BTB with `pc >> 2` would collapse them onto one slot whose
        // full-PC tag then thrashes: every prediction becomes a
        // misprediction once the directions are learned. At the true
        // 2-byte granularity they occupy distinct slots and both train.
        let mut p = pred();
        for _ in 0..200 {
            p.cond_branch(0x1000, true, 0x2000);
            p.cond_branch(0x1002, true, 0x3000);
        }
        let s = p.stats();
        assert_eq!(s.cond_predictions, 400);
        assert!(
            s.cond_mispredicts < 20,
            "adjacent compressed branches alias: {} mispredicts of {}",
            s.cond_mispredicts,
            s.cond_predictions
        );
    }

    #[test]
    fn btb_learns_targets() {
        let mut p = pred();
        assert!(!p.uncond_branch(0x40, 0x4000, None), "cold BTB");
        assert!(p.uncond_branch(0x40, 0x4000, None), "warm BTB");
        assert!(!p.indirect(0x40, 0x8000, None), "target changed");
        assert!(p.indirect(0x40, 0x8000, None));
    }
}
