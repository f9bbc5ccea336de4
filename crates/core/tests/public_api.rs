//! Public-API integration tests for the DISE engine crate: the paper's
//! figures expressed through the DSL, engine behaviors under unusual
//! production sets, and composition algebra.

use dise_core::{
    compose, dsl, DiseEngine, EngineConfig, Expansion, ImmPredicate, Pattern, ProductionSet,
    ReplacementSpec, RtOrganization,
};
use dise_isa::{Inst, Op, OpClass, Reg};
use std::collections::BTreeMap;

#[test]
fn figure_1_through_the_dsl_and_engine() {
    let set = dsl::parse(
        "P1: T.OPCLASS == store -> R1
         P2: T.OPCLASS == load  -> R1
         R1: srl T.RS, #26, $dr1
             cmpeq $dr1, $dr2, $dr1
             beq $dr1, =error
             T.INSN",
        &[("error".to_string(), 0x0400_7000u64)]
            .into_iter()
            .collect::<BTreeMap<_, _>>(),
    )
    .unwrap();
    let mut engine = DiseEngine::with_productions(EngineConfig::default(), set).unwrap();
    // The paper's example: `stq a0, &t0` with the address register in r2.
    let store: Inst = "stq r0, 0(r2)".parse().unwrap();
    let Expansion::Expand { id, len } = engine.inspect(&store) else {
        panic!()
    };
    assert_eq!(len, 4);
    let rendered: Vec<String> = (0..len)
        .map(|d| {
            engine
                .fetch_replacement(id, d, &store, 0x0400_1000)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(
        rendered,
        [
            "srl r2, #26, $dr1".to_string(),
            "cmpeq $dr1, $dr2, $dr1".to_string(),
            format!("beq $dr1, {}", 0x0400_7000i64 - 0x0400_1004),
            "stq r0, 0(r2)".to_string(),
        ]
    );
}

#[test]
fn negative_patterns_via_specificity() {
    // §2.2's example: "all loads that don't use the stack pointer".
    let set = dsl::parse(
        "P1: T.OPCLASS == load -> R1
         P2: T.OPCLASS == load && T.RS == r30 -> R2
         R1: lda $dr4, 1($dr4)
             T.INSN
         R2: T.INSN",
        &BTreeMap::new(),
    )
    .unwrap();
    let mut engine = DiseEngine::with_productions(EngineConfig::default(), set).unwrap();
    let heap_load: Inst = "ldq r1, 0(r7)".parse().unwrap();
    let stack_load: Inst = "ldq r1, 0(r30)".parse().unwrap();
    assert!(matches!(
        engine.inspect(&heap_load),
        Expansion::Expand { len: 2, .. }
    ));
    assert!(matches!(
        engine.inspect(&stack_load),
        Expansion::Expand { len: 1, .. },
    ));
}

#[test]
fn immediate_attribute_patterns() {
    // "Conditional branches with negative offsets" (§2.1) — count loop
    // back-edges only.
    let set = dsl::parse(
        "P1: T.OPCLASS == cbranch && T.IMM < 0 -> R1
         R1: lda $dr6, 1($dr6)
             T.INSN",
        &BTreeMap::new(),
    )
    .unwrap();
    let mut engine = DiseEngine::with_productions(EngineConfig::default(), set).unwrap();
    let back: Inst = "bne r1, -12".parse().unwrap();
    let fwd: Inst = "bne r1, 12".parse().unwrap();
    assert!(matches!(engine.inspect(&back), Expansion::Expand { .. }));
    assert!(matches!(engine.inspect(&fwd), Expansion::None));
}

#[test]
fn pt_capacity_does_not_change_expansions() {
    // More distinct opcode-specific rules than PT entries: the engine
    // produces every expansion. (PT residency is timing state; dise-sim's
    // table model counts the misses this thrashing costs.)
    let mut set = ProductionSet::new();
    let ops = [
        Op::Ldq,
        Op::Ldl,
        Op::Stq,
        Op::Stl,
        Op::Addq,
        Op::Subq,
        Op::Mulq,
        Op::And,
    ];
    for op in ops {
        set.add_transparent(
            Pattern::opcode(op),
            ReplacementSpec::new(vec![
                dise_core::InstSpec::Trigger,
                dise_core::InstSpec::Trigger,
            ]),
        )
        .unwrap();
    }
    let config = EngineConfig {
        pt_entries: 2,
        ..EngineConfig::default()
    };
    let mut engine = DiseEngine::with_productions(config, set).unwrap();
    let insts: Vec<Inst> = vec![
        "ldq r1, 0(r2)".parse().unwrap(),
        "stq r1, 0(r2)".parse().unwrap(),
        "addq r1, r2, r3".parse().unwrap(),
        "mulq r1, r2, r3".parse().unwrap(),
    ];
    for round in 0..4 {
        for inst in &insts {
            let e = engine.inspect(inst);
            assert!(
                matches!(e, Expansion::Expand { len: 2, .. }),
                "round {round}: {inst} gave {e:?}"
            );
        }
    }
    assert_eq!(engine.stats().expansions, 16);
}

#[test]
fn imm_predicate_display_and_match() {
    let p = Pattern::opclass(OpClass::CondBranch).with_imm(ImmPredicate::NonNegative);
    assert!(p.to_string().contains("T.IMM >= 0"));
    assert!(p.matches(&"beq r1, 0".parse().unwrap()));
    assert!(!p.matches(&"beq r1, -4".parse().unwrap()));
}

#[test]
fn composition_is_associative_for_disjoint_acfs() {
    // Three ACFs on disjoint opcode classes: nesting order must not matter
    // (the sequences never interact).
    let loads = dsl::parse(
        "P1: T.OPCLASS == load -> R1
         R1: lda $dr4, 1($dr4)
             T.INSN",
        &BTreeMap::new(),
    )
    .unwrap();
    let mults = dsl::parse(
        "P1: T.OP == mulq -> R1
         R1: lda $dr5, 1($dr5)
             T.INSN",
        &BTreeMap::new(),
    )
    .unwrap();
    let branches = dsl::parse(
        "P1: T.OPCLASS == cbranch -> R1
         R1: lda $dr6, 1($dr6)
             T.INSN",
        &BTreeMap::new(),
    )
    .unwrap();
    let a = compose::compose_nested(&compose::compose_nested(&loads, &mults).unwrap(), &branches)
        .unwrap();
    let b = compose::compose_nested(&loads, &compose::compose_nested(&mults, &branches).unwrap())
        .unwrap();
    for text in ["ldq r1, 0(r2)", "mulq r1, r2, r3", "bne r1, -4", "stq r1, 0(r2)"] {
        let inst: Inst = text.parse().unwrap();
        let seq_of = |set: &ProductionSet| {
            set.lookup(&inst)
                .map(|id| set.seq(id).unwrap().instantiate_all(&inst, 0x1000).unwrap())
        };
        assert_eq!(seq_of(&a), seq_of(&b), "{text}");
    }
}

#[test]
fn rt_organizations_agree_architecturally() {
    let set = dsl::parse(
        "P1: T.OPCLASS == store -> R1
         R1: srl T.RS, #26, $dr1
             T.INSN",
        &BTreeMap::new(),
    )
    .unwrap();
    let st: Inst = "stq r3, 8(r9)".parse().unwrap();
    let mut outputs = Vec::new();
    for org in [
        RtOrganization::DirectMapped,
        RtOrganization::SetAssociative(2),
        RtOrganization::Perfect,
    ] {
        let config = EngineConfig {
            rt_entries: 4,
            rt_org: org,
            ..EngineConfig::default()
        };
        let mut engine = DiseEngine::with_productions(config, set.clone()).unwrap();
        let Expansion::Expand { id, len } = engine.inspect(&st) else {
            panic!()
        };
        let seq: Vec<Inst> = (0..len)
            .map(|d| engine.fetch_replacement(id, d, &st, 0x40).unwrap())
            .collect();
        outputs.push(seq);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
}

#[test]
fn dedicated_registers_are_unreachable_from_applications() {
    // No encodable (application) instruction can name a dedicated
    // register: the 5-bit fields cap at r31.
    for word in [0u32, 0xFFFF_FFFF, 0x1234_5678] {
        if let Ok(inst) = Inst::decode(word) {
            assert!(!inst.uses_dedicated());
        }
    }
    // And replacement instructions that do use them cannot be encoded back
    // into the application's text.
    let repl: Inst = "srl r2, #26, $dr1".parse().unwrap();
    assert!(repl.encode().is_err());
    assert!(!Reg::dr(1).is_arch());
}
