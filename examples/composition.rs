//! ACF composition (paper §3.3 and Figure 5): nested composition by
//! replacement-sequence inlining, non-nested merging, and the paper's
//! marquee combination — fault-isolating an application *as it is
//! decompressed*, with the composition performed by the RT miss handler.
//!
//! Run with `cargo run --release --example composition`.

use dise::acf::compress::{CompressionConfig, Compressor};
use dise::acf::mfi::{Mfi, MfiVariant};
use dise::acf::trace::StoreTracer;
use dise::engine::{compose, Controller, DiseEngine, EngineConfig};
use dise::isa::{Inst, Program, Reg};
use dise::sim::{Machine, SimConfig, Simulator};
use dise::workloads::{Benchmark, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Figure 5, left: nested composition MFI(SAT(app)) --------------
    let mfi = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(0x7000)
        .productions()?;
    let sat = StoreTracer::new().productions()?;
    let nested = compose::compose_nested(&mfi, &sat)?;
    let store: Inst = "stq r9, 16(r2)".parse()?;
    let id = nested.lookup(&store).unwrap();
    println!("MFI nested around store-address tracing, applied to `{store}`:");
    for inst in nested.seq(id).unwrap().instantiate_all(&store, 0x1000)? {
        println!("    {inst}");
    }

    // ---- Figure 5, right: non-nested merge ------------------------------
    let r1 = mfi.seq(mfi.lookup(&store).unwrap()).unwrap();
    let r3 = sat.seq(sat.lookup(&store).unwrap()).unwrap();
    let merged = compose::merge_specs(r1, r3)?;
    println!("\nnon-nested merge (trace AND isolate the application store,");
    println!("without isolating the tracing stores):");
    for inst in merged.instantiate_all(&store, 0x1000)? {
        println!("    {inst}");
    }

    // ---- Transparent ∘ aware: fault-isolate while decompressing --------
    // The server ships a compressed, unmodified application; the client
    // composes its own fault-isolation productions into the decompression
    // dictionary — in the RT miss handler, paying 150-cycle composing
    // fills (§4.3).
    let bench = Benchmark::Bzip2;
    let program = bench.build(&WorkloadConfig::default().with_dyn_insts(100_000));
    let compressed = Compressor::new(CompressionConfig::dise_full()).compress(&program)?;
    println!(
        "\n{bench}: {} bytes compressed to {} (+{} dictionary)",
        program.text_size(),
        compressed.stats.compressed_text,
        compressed.stats.dictionary_bytes
    );

    let client_mfi = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(compressed.program.symbol("mfi_error").unwrap())
        .productions()?;
    let mut active = client_mfi.clone();
    active.absorb(compressed.productions.as_ref().unwrap())?;
    let controller = Controller::new(active).with_inline_on_fill(client_mfi);
    let mut machine = Machine::load(&compressed.program);
    machine.attach_engine(DiseEngine::with_controller(
        EngineConfig::default(),
        controller,
    ));
    Mfi::init_machine(&mut machine);
    // The RT and its fills are timing state: run through the simulator.
    let mut sim = Simulator::new(SimConfig::default(), machine);
    let run = sim.run(u64::MAX)?;
    let stats = run.stats.engine;
    println!(
        "ran {} dynamic instructions; {} RT fills composed MFI into \
         decompression sequences on the fly",
        run.stats.total_insts, stats.composed_fills
    );
    assert!(run.halted);
    assert!(stats.composed_fills > 0);
    let machine = sim.machine();

    // Sanity: results match running the *original* program unprotected.
    let mut reference = Machine::load(&program);
    reference.run(u64::MAX)?;
    for r in (1..25).map(Reg::r) {
        assert_eq!(reference.reg(r), machine.reg(r));
    }
    println!("composed execution matches the unprotected original ✓");
    let _ = Program::SEGMENT_SHIFT;
    Ok(())
}
