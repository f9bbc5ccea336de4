//! Predecode tables belong to the image they decode: every clone of a
//! `Program` and every fast-path machine loaded from one shares the
//! image's text and its one table, from any thread, and the table is
//! freed once the image, its clones and those machines are gone. Images
//! cannot change after they are built, so an edited image is a new image
//! with a table of its own.

use dise_isa::reloc::{NewItem, Relocator};
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

/// `p` relocated with its first instruction replaced by `first`.
fn with_first(p: &Program, first: Inst) -> Program {
    let mut r = Relocator::new(p).unwrap();
    r.replace(1, [NewItem::inst(first)]).unwrap();
    r.keep_rest().unwrap();
    r.finish().unwrap().program
}

fn table(m: &Machine) -> &Arc<Predecode> {
    m.predecode()
        .expect("a fast-path machine has a predecode table")
}

/// `pd` decodes every even PC of `p` exactly as `Program::fetch` does.
fn assert_decodes(pd: &Predecode, p: &Program) {
    for pc in (p.text_base()..p.text_end()).step_by(2) {
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
fn a_clone_and_a_loaded_machine_share_the_text_and_the_table() {
    let p = program();
    let clone = p.clone();
    let m = Machine::load(&p);
    assert_eq!(clone.text().as_ptr(), p.text().as_ptr());
    assert_eq!(m.program().text().as_ptr(), p.text().as_ptr());
    assert!(Arc::ptr_eq(clone.predecode(), p.predecode()));
    assert!(Arc::ptr_eq(table(&m), p.predecode()));
    assert!(Arc::ptr_eq(m.program().predecode(), table(&m)));
}

#[test]
fn the_table_dies_with_its_image_clones_and_machines() {
    let p = program();
    let m = Machine::load(&p);
    let weak: Weak<Predecode> = Arc::downgrade(table(&m));
    let clone = p.clone();
    drop(p);
    drop(m);
    assert!(weak.upgrade().is_some(), "a live clone keeps its table");
    let m = Machine::load(&clone);
    drop(clone);
    assert!(weak.upgrade().is_some(), "a live machine keeps its table");
    drop(m);
    assert!(weak.upgrade().is_none(), "nothing else may hold the table");

    // A rewritten image, as a figure cell builds and drops one.
    let p = program();
    let rewritten = with_first(&p, Inst::li(7, Reg::R2));
    let weak = Arc::downgrade(table(&Machine::load(&rewritten)));
    assert!(weak.upgrade().is_some(), "a live image keeps its table");
    drop(rewritten);
    assert!(weak.upgrade().is_none(), "its source image does not hold it");
}

#[test]
fn an_image_built_with_a_patched_word_gets_its_own_table() {
    let p = program();
    let original = Machine::load(&p);
    // Same length and base: only the bytes differ.
    let patched = with_first(&p, Inst::li(9, Reg::R2));
    assert_eq!(patched.text().len(), p.text().len());
    assert_ne!(patched.text(), p.text());
    let mut m = Machine::load(&patched);
    assert!(!Arc::ptr_eq(table(&original), table(&m)));
    assert_decodes(table(&m), &patched);
    assert_decodes(table(&original), &p);
    assert!(m.run(100).unwrap().halted);
    assert_eq!(m.reg(Reg::R2), 9, "the patched instruction ran");
}
