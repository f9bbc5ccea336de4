//! Compressor integration tests: determinism, configuration monotonicity,
//! dictionary-budget behavior and Figure 4 fidelity, all through the
//! public API.

use dise_acf::compress::{CompressionConfig, Compressor};
use dise_core::EngineConfig;
use dise_isa::{Assembler, Program, Reg, TextItem};
use dise_sim::Machine;
use dise_workloads::{Benchmark, WorkloadConfig};

fn workload() -> Program {
    Benchmark::Twolf.build(&WorkloadConfig::tiny())
}

#[test]
fn compression_is_deterministic() {
    let p = workload();
    let a = Compressor::new(CompressionConfig::dise_full())
        .compress(&p)
        .unwrap();
    let b = Compressor::new(CompressionConfig::dise_full())
        .compress(&p)
        .unwrap();
    assert_eq!(a.program.text(), b.program.text());
    assert_eq!(a.stats, b.stats);
}

#[test]
fn feature_walk_is_monotonic_where_the_paper_says_so() {
    // Each removed dedicated feature must hurt; each added DISE feature
    // must help (code+dictionary ratio).
    let p = workload();
    let ratio = |c: CompressionConfig| {
        Compressor::new(c)
            .compress(&p)
            .unwrap()
            .stats
            .total_ratio()
    };
    let dedicated = ratio(CompressionConfig::dedicated());
    let no_single = ratio(CompressionConfig::dedicated_no_single());
    let four_byte = ratio(CompressionConfig::dise_unparameterized());
    let wide = ratio(CompressionConfig::dise_wide_entries());
    let param = ratio(CompressionConfig::dise_parameterized());
    let full = ratio(CompressionConfig::dise_full());
    assert!(dedicated <= no_single, "{dedicated} !<= {no_single}");
    assert!(no_single <= four_byte, "{no_single} !<= {four_byte}");
    assert!(four_byte <= wide, "{four_byte} !<= {wide}");
    assert!(param < wide, "{param} !< {wide}");
    assert!(full < param, "{full} !< {param}");
    assert!(
        full < dedicated,
        "full DISE ({full}) must beat the dedicated baseline ({dedicated})"
    );
}

#[test]
fn dictionary_budget_trades_ratio_monotonically() {
    let p = workload();
    let mut last = f64::INFINITY;
    for max_entries in [4usize, 16, 64, 2048] {
        let config = CompressionConfig {
            max_entries,
            ..CompressionConfig::dise_full()
        };
        let c = Compressor::new(config).compress(&p).unwrap();
        assert!(c.stats.entries <= max_entries);
        let r = c.stats.code_ratio();
        assert!(
            r <= last + 1e-9,
            "more dictionary budget must not hurt: {r} > {last}"
        );
        last = r;
    }
}

#[test]
fn figure_4_shape_compresses_and_shares() {
    // The paper's Figure 4: lda/ldq/cmplt idioms that differ only in a
    // register and a small immediate share one parameterized dictionary
    // entry (`lda T.P1, T.P2(T.P1); ldq r4, 0(T.P1); cmplt r4, r0, r5`);
    // the branches between them stay in the text, exactly as in the
    // figure's compressed column.
    let mut listing = String::new();
    for (i, (reg, imm)) in [(2, 8i32), (3, -8), (6, 8), (7, -16)].iter().enumerate() {
        listing.push_str(&format!(
            "lda r{reg}, {imm}(r{reg})
             ldq r4, 0(r{reg})
             cmplt r4, r0, r5
             bne r5, t{i}
"
        ));
    }
    for i in 0..4 {
        listing.push_str(&format!("t{i}: halt
"));
    }
    let p = Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
        .assemble(&listing)
        .unwrap();
    let c = Compressor::new(CompressionConfig::dise_full())
        .compress(&p)
        .unwrap();
    assert!(c.stats.instances >= 4, "all four idiom copies must share");
    assert!(c.stats.compressed_text < p.text_size());
    // One 3-instruction parameterized entry covers every copy.
    let three_long = c
        .productions
        .as_ref()
        .unwrap()
        .seqs()
        .filter(|(_, s)| s.len() == 3)
        .count();
    assert_eq!(three_long, 1, "parameterization must unify the idioms");
}

#[test]
fn compressed_images_decode_cleanly() {
    // Every item of a compressed image must decode (no codeword can be
    // half-overwritten by the branch-offset patching pass).
    let p = workload();
    for config in [
        CompressionConfig::dedicated(),
        CompressionConfig::dise_full(),
    ] {
        let c = Compressor::new(config).compress(&p).unwrap();
        let items = c.program.items().unwrap();
        assert!(!items.is_empty());
        let shorts = items
            .iter()
            .filter(|(_, i)| matches!(i, TextItem::Short(_)))
            .count();
        if config.two_byte_codewords {
            assert!(shorts > 0, "dedicated config planted no short codewords");
        } else {
            assert_eq!(shorts, 0);
        }
    }
}

#[test]
fn jump_compression_preserves_return_addresses() {
    // A compressed call sequence: the bsr's link register must hold the
    // address *after the codeword*, so the return resumes correctly.
    let mut listing = String::new();
    for _ in 0..6 {
        // Same 3-instruction prologue + call at every site (compressible).
        listing.push_str(
            "lda r1, 1(r1)
             lda r3, 2(r3)
             bsr f\n",
        );
    }
    listing.push_str("halt\nf: addq r4, #1, r4\nret");
    let p = Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
        .assemble(&listing)
        .unwrap();
    let mut plain = Machine::load(&p);
    plain.run(10_000).unwrap();
    let c = Compressor::new(CompressionConfig::dise_full())
        .compress(&p)
        .unwrap();
    assert!(c.stats.compressed_text < p.text_size());
    let mut m = Machine::load(&c.program);
    c.attach(&mut m, EngineConfig::default().perfect_rt()).unwrap();
    let r = m.run(10_000).unwrap();
    assert!(r.halted());
    for reg in [Reg::R1, Reg::R3, Reg::R4] {
        assert_eq!(plain.reg(reg), m.reg(reg), "{reg}");
    }
    assert_eq!(m.reg(Reg::R4), 6, "all six calls returned correctly");
}

#[test]
fn entry_budget_is_capped_by_codeword_format() {
    // Both codeword formats carry an 11-bit dictionary index, so a
    // budget beyond 2048 entries is unencodable: asking for one must be
    // an actionable configuration error, not a latent encode panic.
    let p = workload();
    for base in [
        CompressionConfig::dedicated(),      // 2-byte short codewords
        CompressionConfig::dise_full(),      // 4-byte DISE codewords
    ] {
        assert_eq!(base.entry_cap(), 2048, "{base:?}");
        let over = CompressionConfig {
            max_entries: 4096,
            ..base
        };
        let err = Compressor::new(over).compress(&p).unwrap_err().to_string();
        assert!(err.contains("max_entries"), "{err}");
        assert!(err.contains("4096") && err.contains("2048"), "{err}");
        assert!(
            err.contains(if base.two_byte_codewords { "2-byte" } else { "4-byte" }),
            "{err}"
        );
        // Exactly at the cap is fine.
        let at_cap = CompressionConfig {
            max_entries: base.entry_cap(),
            ..base
        };
        Compressor::new(at_cap).compress(&p).unwrap();
    }
}
