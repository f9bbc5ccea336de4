//! Predecode tables belong to the image they decode: every fast-path
//! machine loaded from one `Program` shares that image's table, from any
//! thread, and the table is freed once the image and those machines are
//! gone. A patched clone or an image whose text no longer matches its
//! table gets a table of its own, so sharing never changes what runs.

use dise_isa::{Assembler, Inst, Predecode, Program, Reg};
use dise_sim::{Machine, MachineConfig};
use std::sync::{Arc, Weak};

/// Sets r2 to 7, counts r1 down from 4 and halts.
fn program() -> Program {
    Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
        .assemble(
            "       lda r2, 7(r31)
                    lda r1, 4(r31)
             loop:  subq r1, #1, r1
                    bne r1, loop
                    halt",
        )
        .unwrap()
}

fn table(m: &Machine) -> &Arc<Predecode> {
    m.predecode()
        .expect("a fast-path machine has a predecode table")
}

/// `pd` decodes every even PC of `p` exactly as `Program::fetch` does.
fn assert_decodes(pd: &Predecode, p: &Program) {
    assert!(pd.covers(p));
    for pc in (p.text_base..p.text_end()).step_by(2) {
        assert_eq!(pd.get(pc), p.fetch(pc).ok(), "pc {pc:#x}");
    }
}

#[test]
fn machines_loaded_from_one_image_share_its_table() {
    let p = program();
    let first = Machine::load(&p);
    let second = Machine::load(&p);
    assert!(Arc::ptr_eq(table(&first), table(&second)));
    std::thread::scope(|s| {
        let loads: Vec<_> = (0..3)
            .map(|_| s.spawn(|| Arc::clone(table(&Machine::load(&p)))))
            .collect();
        for load in loads {
            assert!(Arc::ptr_eq(table(&first), &load.join().unwrap()));
        }
    });
    assert_decodes(table(&first), &p);
    let slow = Machine::with_config(&p, MachineConfig::default().slow_path());
    assert!(slow.predecode().is_none(), "the slow path fetches bytes");
}

#[test]
fn the_table_dies_with_its_image_and_machines() {
    let p = program();
    let m = Machine::load(&p);
    let weak: Weak<Predecode> = Arc::downgrade(table(&m));
    drop(p);
    assert!(weak.upgrade().is_some(), "a live machine keeps its table");
    drop(m);
    assert!(weak.upgrade().is_none(), "nothing else may hold the table");

    let p = program();
    let weak = Arc::downgrade(table(&Machine::load(&p)));
    assert!(weak.upgrade().is_some(), "a live image keeps its table");
    drop(p);
    assert!(weak.upgrade().is_none());
}

#[test]
fn a_clone_patched_after_the_build_gets_its_own_table() {
    let p = program();
    let original = Machine::load(&p);
    let mut patched = p.clone();
    // Same length and base: only the bytes differ.
    let li = Inst::li(9, Reg::R2).encode().unwrap();
    patched.text[..4].copy_from_slice(&li.to_be_bytes());
    let mut m = Machine::load(&patched);
    assert!(!Arc::ptr_eq(table(&original), table(&m)));
    assert_decodes(table(&m), &patched);
    assert!(m.run(100).unwrap().halted);
    assert_eq!(m.reg(Reg::R2), 9, "the patched instruction ran");
}

#[test]
fn an_uncovered_table_falls_back_to_a_private_build() {
    let mut p = program();
    let before = Machine::load(&p);
    p.text
        .extend_from_slice(&Inst::nop().encode().unwrap().to_be_bytes());
    let a = Machine::load(&p);
    let b = Machine::load(&p);
    assert!(!Arc::ptr_eq(table(&before), table(&a)));
    assert!(
        !Arc::ptr_eq(table(&a), table(&b)),
        "each fallback is private"
    );
    assert_decodes(table(&a), &p);
}
