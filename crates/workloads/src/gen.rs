//! The synthetic-benchmark generator.
//!
//! Programs are built from a library of short *idioms* (address
//! computation, loads, read-modify-writes, compares, bit manipulation)
//! instantiated with registers and offsets drawn from a deliberately
//! limited per-benchmark vocabulary — limited vocabulary is what gives
//! real compilers' output its compressibility. Structure:
//!
//! ```text
//! main:  register/LCG prologue
//!        one call to every cold function      (static text, cold I-cache)
//!        outer loop { calls to hot functions } (the steady-state WS)
//!        halt
//! f<i>:  counted inner loop over idiom blocks, with forward skip
//!        branches (some counter-based and predictable, some conditioned
//!        on an LCG bit and hard to predict)
//! mfi_error: halt                              (fault-isolation handler)
//! ```
//!
//! Every loop is counted and every memory access lands in the data
//! segment, so generated programs always terminate and are fault-free
//! under memory fault isolation.

use crate::{Benchmark, WorkloadConfig};
use dise_isa::{Inst, Op, Program, ProgramBuilder, Reg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// LCG state register.
const LCG: Reg = Reg::r(7);
/// LCG bit-extraction scratch.
const BIT: Reg = Reg::r(6);
/// Outer-loop counter.
const OUTER: Reg = Reg::r(8);
/// Function inner-loop counter.
const INNER: Reg = Reg::r(9);
/// Array base registers.
const BASES: [Reg; 4] = [Reg::r(10), Reg::r(11), Reg::r(12), Reg::r(13)];

/// Registers available to idioms (r25/r27–r29 stay free for the binary
/// rewriter to scavenge; r26 is the link register).
const POOL: [u8; 14] = [1, 2, 3, 4, 5, 14, 15, 16, 17, 18, 19, 20, 21, 22];

struct Gen<'a> {
    rng: StdRng,
    b: &'a mut ProgramBuilder,
    regs: Vec<Reg>,
    offsets: Vec<i16>,
    unpredictable_pct: u32,
    mem_pct: u32,
    variety: u32,
    label_counter: u32,
}

impl Gen<'_> {
    fn reg(&mut self) -> Reg {
        let i = self.rng.gen_range(0..self.regs.len());
        self.regs[i]
    }

    fn off(&mut self) -> i16 {
        let i = self.rng.gen_range(0..self.offsets.len());
        self.offsets[i]
    }

    fn base(&mut self) -> Reg {
        BASES[self.rng.gen_range(0..2 + (self.variety as usize).min(2))]
    }

    /// Emits one idiom; returns the number of instructions emitted.
    fn idiom(&mut self) -> usize {
        let mem = self.rng.gen_range(0..100) < self.mem_pct;
        if mem {
            match self.rng.gen_range(0..5) {
                0 => {
                    // Load-accumulate.
                    let (x, acc, base, off) = (self.reg(), self.reg(), self.base(), self.off());
                    self.b.push(Inst::mem(Op::Ldq, x, base, off));
                    self.b.push(Inst::alu_rr(Op::Addq, acc, x, acc));
                    2
                }
                1 => {
                    // Pseudo-random indexed load.
                    let (x, base) = (self.reg(), self.base());
                    self.b.push(Inst::alu_ri(Op::And, LCG, 248, BIT));
                    self.b.push(Inst::alu_rr(Op::Addq, base, BIT, x));
                    self.b.push(Inst::mem(Op::Ldq, x, x, 0));
                    3
                }
                2 => {
                    // Store a stepped value.
                    let (x, base, off) = (self.reg(), self.base(), self.off());
                    self.b.push(Inst::alu_ri(Op::Addq, x, 8, x));
                    self.b.push(Inst::mem(Op::Stq, x, base, off));
                    2
                }
                3 => {
                    // Read-modify-write.
                    let (x, base, off) = (self.reg(), self.base(), self.off());
                    self.b.push(Inst::mem(Op::Ldq, x, base, off));
                    self.b.push(Inst::alu_ri(Op::Addq, x, 1, x));
                    self.b.push(Inst::mem(Op::Stq, x, base, off));
                    3
                }
                _ => {
                    // Scaled-index load (table walk).
                    let (x, y, base) = (self.reg(), self.reg(), self.base());
                    self.b.push(Inst::alu_ri(Op::And, LCG, 56, BIT));
                    self.b.push(Inst::alu_rr(Op::S8addq, BIT, base, x));
                    self.b.push(Inst::mem(Op::Ldq, y, x, 0));
                    3
                }
            }
        } else {
            match self.rng.gen_range(0..5) {
                0 => {
                    let (x, y, z) = (self.reg(), self.reg(), self.reg());
                    self.b.push(Inst::alu_rr(Op::Addq, x, y, z));
                    1
                }
                1 => {
                    let (x, y, z) = (self.reg(), self.reg(), self.reg());
                    self.b.push(Inst::alu_rr(Op::Xor, x, y, z));
                    self.b.push(Inst::alu_ri(Op::Sll, z, 2, z));
                    2
                }
                2 => {
                    let (x, y, z) = (self.reg(), self.reg(), self.reg());
                    self.b.push(Inst::alu_rr(Op::Cmplt, x, y, z));
                    self.b.push(Inst::alu_rr(Op::Cmovne, z, x, y));
                    2
                }
                3 => {
                    // Occasional multiply.
                    let (x, y, z) = (self.reg(), self.reg(), self.reg());
                    if self.rng.gen_range(0..4) == 0 {
                        self.b.push(Inst::alu_rr(Op::Mulq, x, y, z));
                    } else {
                        self.b.push(Inst::alu_rr(Op::Subq, x, y, z));
                    }
                    1
                }
                _ => {
                    let (x, off) = (self.reg(), self.off());
                    self.b.push(Inst::mem(Op::Lda, x, x, off));
                    1
                }
            }
        }
    }

    /// Advances the LCG and leaves a pseudo-random bit in [`BIT`].
    fn lcg_bit(&mut self) {
        self.b.push(Inst::alu_ri(Op::Mulq, LCG, 141, LCG));
        self.b.push(Inst::alu_ri(Op::Addq, LCG, 73, LCG));
        self.b.push(Inst::alu_ri(Op::Srl, LCG, 9, BIT));
        self.b.push(Inst::alu_ri(Op::And, BIT, 1, BIT));
    }

    fn fresh_label(&mut self, stem: &str) -> String {
        self.label_counter += 1;
        format!("{stem}_{}", self.label_counter)
    }

    /// Emits one function; returns its estimated dynamic length per call.
    fn function(&mut self, name: &str, blocks: u32, idioms: u32, trips: u32) -> u64 {
        let before = self.b.len();
        self.b.label(name);
        self.b.push(Inst::li(trips as i16, INNER));
        let loop_label = self.fresh_label("loop");
        self.b.label(&loop_label);
        let body_start = self.b.len();
        for blk in 0..blocks {
            for _ in 0..idioms {
                self.idiom();
            }
            // Forward skip branch between blocks (not after the last).
            if blk + 1 < blocks && self.rng.gen_range(0..100) < 50 {
                let skip = self.fresh_label("skip");
                if self.rng.gen_range(0..100) < self.unpredictable_pct {
                    self.lcg_bit();
                    self.b.branch_to(Op::Bne, BIT, &skip);
                } else {
                    // Highly biased (never taken): tests r31 == 0 inverted.
                    self.b.branch_to(Op::Bne, Reg::ZERO, &skip);
                }
                // A couple of skippable instructions, then the label.
                self.idiom();
                self.b.label(&skip);
            }
        }
        let body_len = (self.b.len() - body_start) as u64;
        self.b.push(Inst::alu_ri(Op::Subq, INNER, 1, INNER));
        self.b.branch_to(Op::Bne, INNER, &loop_label);
        self.b.ret();
        let static_len = (self.b.len() - before) as u64;
        let _ = static_len;
        // Rough dynamic estimate: body × trips + call/loop overhead.
        (body_len + 2) * trips as u64 + 4
    }
}

/// Generates the program for `bench` under `config`. Deterministic: the
/// same `(bench, config)` always yields the same bytes.
pub fn build(bench: Benchmark, config: &WorkloadConfig) -> Program {
    let profile = bench.profile();
    let seed = (bench as u64) << 32 | 0xD15E ^ config.seed.wrapping_mul(0x9E37_79B9);
    let mut builder = ProgramBuilder::new(Program::segment_base(Program::TEXT_SEGMENT));
    let mut rng = StdRng::seed_from_u64(seed);

    // Vocabulary: registers and offsets, sized by profile variety.
    let nregs = (2 + profile.variety as usize * 2).min(POOL.len());
    let mut pool = POOL.to_vec();
    // Seeded shuffle.
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..=i));
    }
    let regs: Vec<Reg> = pool[..nregs].iter().map(|n| Reg::r(*n)).collect();
    let offsets: Vec<i16> = (0..profile.variety * 3)
        .map(|_| (rng.gen_range(0..4096) / 8 * 8) as i16)
        .collect();

    let mut g = Gen {
        rng,
        b: &mut builder,
        regs,
        offsets,
        unpredictable_pct: profile.unpredictable_pct,
        mem_pct: profile.mem_pct,
        variety: profile.variety,
        label_counter: 0,
    };

    // Size the function population.
    let est_fn_insts = (profile.blocks_per_fn * (profile.block_idioms * 2 + 3) + 5) as u64;
    let fn_bytes = est_fn_insts * 4;
    let hot_fns = ((profile.hot_kb as u64 * 1024) / fn_bytes).max(1) as usize;
    let total_fns = ((profile.text_kb as u64 * 1024) / fn_bytes).max(hot_fns as u64) as usize;

    // Functions first (so `main` can be the entry label anywhere).
    let mut per_call = Vec::with_capacity(total_fns);
    for i in 0..total_fns {
        let name = format!("f{i}");
        let dynlen = g.function(
            &name,
            profile.blocks_per_fn,
            profile.block_idioms,
            profile.fn_trips,
        );
        per_call.push(dynlen);
    }

    // Main.
    let hot_per_iter: u64 = per_call[..hot_fns].iter().sum::<u64>() + 3;
    let outer = (config.dyn_insts / hot_per_iter.max(1)).clamp(1, 32_000) as i16;
    g.b.label("main");
    // Prologue: array bases, LCG seed.
    g.b.push(Inst::li(
        (Program::segment_base(Program::DATA_SEGMENT) >> 16) as i16,
        BASES[0],
    ));
    g.b.push(Inst::alu_ri(Op::Sll, BASES[0], 16, BASES[0]));
    for (k, base) in BASES.iter().enumerate().skip(1) {
        g.b.push(Inst::mem(Op::Ldah, *base, BASES[0], k as i16));
    }
    g.b.push(Inst::li(12345, LCG));
    // Touch every cold function once.
    for i in hot_fns..total_fns {
        g.b.call(&format!("f{i}"));
    }
    // Steady-state loop over the hot functions.
    g.b.push(Inst::li(outer, OUTER));
    g.b.label("main_loop");
    for i in 0..hot_fns {
        g.b.call(&format!("f{i}"));
    }
    g.b.push(Inst::alu_ri(Op::Subq, OUTER, 1, OUTER));
    g.b.branch_to(Op::Bne, OUTER, "main_loop");
    g.b.push(Inst::halt());
    // Fault-isolation error handler.
    g.b.label("mfi_error");
    g.b.push(Inst::halt());

    builder.entry("main");
    builder.data_size(1 << 20);
    builder.finish().expect("generated programs always assemble")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_sim::Machine;

    #[test]
    fn deterministic_generation() {
        let a = build(Benchmark::Mcf, &WorkloadConfig::tiny());
        let b = build(Benchmark::Mcf, &WorkloadConfig::tiny());
        assert_eq!(a.text(), b.text());
        let c = build(
            Benchmark::Mcf,
            &WorkloadConfig {
                seed: 1,
                ..WorkloadConfig::tiny()
            },
        );
        assert_ne!(a.text(), c.text(), "different seeds give different programs");
    }

    #[test]
    fn every_benchmark_terminates() {
        for bench in Benchmark::ALL {
            let p = bench.build(&WorkloadConfig::tiny().with_dyn_insts(20_000));
            let mut m = Machine::load(&p);
            let r = m
                .run(5_000_000)
                .unwrap_or_else(|e| panic!("{bench} failed: {e}"));
            assert!(r.halted(), "{bench} did not halt");
            assert!(r.app_insts > 10_000, "{bench} too short: {}", r.app_insts);
        }
    }

    #[test]
    fn text_sizes_follow_profiles() {
        for bench in Benchmark::ALL {
            let p = bench.build(&WorkloadConfig::tiny());
            let kb = p.text_size() / 1024;
            let want = bench.profile().text_kb as u64;
            assert!(
                kb >= want / 2 && kb <= want * 2,
                "{bench}: generated {kb}KB, profile says {want}KB"
            );
        }
    }

    #[test]
    fn dynamic_length_tracks_target() {
        let p = Benchmark::Gzip.build(&WorkloadConfig::default().with_dyn_insts(500_000));
        let mut m = Machine::load(&p);
        let r = m.run(100_000_000).unwrap();
        assert!(
            (200_000..2_000_000).contains(&r.app_insts),
            "got {}",
            r.app_insts
        );
    }

    #[test]
    fn instruction_mix_is_spec_like() {
        let p = Benchmark::Twolf.build(&WorkloadConfig::tiny());
        let mut m = Machine::load(&p);
        let mut mem = 0u64;
        let mut branches = 0u64;
        let mut total = 0u64;
        while let Some(info) = m.step().unwrap() {
            total += 1;
            if info.inst.op.class().is_mem() {
                mem += 1;
            }
            if info.inst.op.class().is_ctrl() {
                branches += 1;
            }
            if total > 300_000 {
                break;
            }
        }
        let mem_pct = mem * 100 / total;
        let br_pct = branches * 100 / total;
        assert!(
            (20..=50).contains(&mem_pct),
            "memory mix {mem_pct}% out of SPECint range"
        );
        assert!(
            (5..=30).contains(&br_pct),
            "branch mix {br_pct}% out of SPECint range"
        );
    }

    #[test]
    fn memory_stays_in_the_data_segment() {
        let p = Benchmark::Bzip2.build(&WorkloadConfig::tiny().with_dyn_insts(30_000));
        let mut m = Machine::load(&p);
        while let Some(info) = m.step().unwrap() {
            if let Some(addr) = info.mem_addr {
                assert_eq!(
                    Program::segment_of(addr),
                    Program::DATA_SEGMENT,
                    "{} touched {addr:#x}",
                    info.inst
                );
            }
        }
    }

    #[test]
    fn rewriter_registers_stay_free() {
        let p = Benchmark::Gcc.build(&WorkloadConfig::tiny());
        for item in p.items().unwrap() {
            if let dise_isa::TextItem::Inst(i) = item.1 {
                for r in [Reg::r(25), Reg::r(27), Reg::r(28), Reg::r(29)] {
                    assert_ne!(i.ra, r, "{i} uses reserved {r}");
                    assert_ne!(i.rb, r, "{i} uses reserved {r}");
                    assert_ne!(i.rc, r, "{i} uses reserved {r}");
                }
            }
        }
    }

    #[test]
    fn seeds_produce_distinct_but_similar_programs() {
        // A different seed must change the code but keep the profile's
        // gross characteristics (text size within a factor).
        for bench in [Benchmark::Mcf, Benchmark::Gcc] {
            let a = bench.build(&WorkloadConfig::tiny());
            let b = bench.build(&WorkloadConfig {
                seed: 7,
                ..WorkloadConfig::tiny()
            });
            assert_ne!(a.text(), b.text(), "{bench}");
            let (sa, sb) = (a.text_size() as f64, b.text_size() as f64);
            assert!(
                (sa / sb - 1.0).abs() < 0.5,
                "{bench}: sizes diverged {sa} vs {sb}"
            );
        }
    }

    #[test]
    fn suite_covers_a_spread_of_compressibility() {
        // The per-benchmark `variety` knob must actually translate into a
        // compression-ratio spread across the suite (Figure 7 depends on
        // per-benchmark differences).
        use dise_acf::compress::{CompressionConfig, Compressor};
        let ratio = |bench: Benchmark| {
            let p = bench.build(&WorkloadConfig::tiny());
            Compressor::new(CompressionConfig::dise_full())
                .compress(&p)
                .unwrap()
                .stats
                .code_ratio()
        };
        let low_variety = ratio(Benchmark::Bzip2); // variety 2
        let high_variety = ratio(Benchmark::Gcc); // variety 6
        assert!(
            low_variety < high_variety + 0.05,
            "low-variety code should compress at least comparably: {low_variety} vs {high_variety}"
        );
        for b in Benchmark::ALL {
            let r = ratio(b);
            assert!((0.3..0.95).contains(&r), "{b}: implausible ratio {r}");
        }
    }

    #[test]
    fn error_handler_present() {
        let p = Benchmark::Eon.build(&WorkloadConfig::tiny());
        let h = p.symbol("mfi_error").unwrap();
        assert!(p.contains(h));
    }
}
