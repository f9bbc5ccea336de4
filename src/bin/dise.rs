//! `dise` — command-line driver for the DISE reproduction.
//!
//! ```text
//! dise asm <file.s>                       assemble and disassemble a listing
//! dise run <file.s> [options]             assemble, run, report
//!     --mfi dise3|dise4|sandbox           attach memory fault isolation
//!     --profile                           attach the branch profiler
//!     --timing                            run the cycle-level timing model
//!     --max <n>                           dynamic instruction budget
//! dise compress <file.s> [--config <c>]   compress and report ratios
//!     configs: dedicated, -1insn, -2byteCW, +8byteDE, +3param, dise
//! dise workload <name> [--dyn <n>]        generate a synthetic benchmark
//!                                         and describe it (or `list`)
//! ```
//!
//! Assembly listings use the syntax documented in `dise::isa::asm`; `run`
//! points `r2` at the data segment and honors `mfi_error:`/`error:` labels
//! as the fault handler when present.

use dise::acf::compress::{CompressionConfig, Compressor};
use dise::acf::mfi::{Mfi, MfiVariant};
use dise::acf::profile::BranchProfiler;
use dise::engine::{DiseEngine, EngineConfig};
use dise::isa::{Assembler, Program, Reg};
use dise::sim::{Machine, SimConfig, Simulator};
use dise::workloads::{Benchmark, WorkloadConfig};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: dise <asm|run|compress|workload> ... (see `src/bin/dise.rs` docs)"
    );
    ExitCode::from(2)
}

fn load_listing(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
        .assemble(&text)
        .map_err(|e| format!("{path}: {e}"))
}

fn opt_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn cmd_asm(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("asm: missing file")?;
    let p = load_listing(path)?;
    print!("{}", p.disassemble());
    println!(
        "\n{} bytes of text, entry {:#x}, {} symbols",
        p.text_size(),
        p.entry(),
        p.symbols().len()
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("run: missing file")?;
    let p = load_listing(path)?;
    let max: u64 = opt_value(args, "--max")
        .map(|v| v.parse().map_err(|_| "bad --max"))
        .transpose()?
        .unwrap_or(50_000_000);

    let mut m = Machine::load(&p);
    m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));

    if let Some(variant) = opt_value(args, "--mfi") {
        let variant = match variant.as_str() {
            "dise3" => MfiVariant::Dise3,
            "dise4" => MfiVariant::Dise4,
            "sandbox" => MfiVariant::Sandbox,
            other => return Err(format!("unknown MFI variant `{other}`")),
        };
        let handler = p
            .symbol("mfi_error")
            .or_else(|| p.symbol("error"))
            .ok_or("--mfi needs an `mfi_error:` or `error:` label")?;
        let set = Mfi::new(variant)
            .with_error_handler(handler)
            .productions()
            .map_err(|e| e.to_string())?;
        m.attach_engine(
            DiseEngine::with_productions(EngineConfig::default(), set)
                .map_err(|e| e.to_string())?,
        );
        Mfi::init_machine(&mut m);
    } else if args.iter().any(|a| a == "--profile") {
        let set = BranchProfiler::new()
            .productions()
            .map_err(|e| e.to_string())?;
        m.attach_engine(
            DiseEngine::with_productions(EngineConfig::default(), set)
                .map_err(|e| e.to_string())?,
        );
    }

    if args.iter().any(|a| a == "--timing") {
        let mut sim = Simulator::new(SimConfig::default(), m);
        let result = sim.run(max).map_err(|e| e.to_string())?;
        let s = result.stats;
        println!(
            "{} cycles, {} app insts ({} total), IPC {:.2}",
            s.cycles,
            s.app_insts,
            s.total_insts,
            s.ipc()
        );
        println!(
            "I$ {}/{} misses, D$ {}/{}, {} redirects, {} DISE stall cycles",
            s.icache.misses,
            s.icache.accesses,
            s.dcache.misses,
            s.dcache.accesses,
            s.redirects,
            s.dise_stall_cycles
        );
        if sim.machine().engine().is_some() {
            let e = s.engine;
            println!(
                "engine: {} PT / {} RT misses, {} composed fills",
                e.pt_misses, e.rt_misses, e.composed_fills
            );
        }
        report_regs(sim.machine());
        if args.iter().any(|a| a == "--profile") {
            report_profile(sim.machine());
        }
    } else {
        let result = m.run(max).map_err(|e| e.to_string())?;
        println!(
            "halted after {} app insts ({} total) at {:#x}",
            result.app_insts,
            result.total_insts,
            m.pc().0
        );
        // PT/RT misses are timing events; a functional run has none.
        if let Some(e) = m.engine() {
            let s = e.stats();
            println!(
                "engine: {} inspected, {} expansions, {} replacement insts",
                s.inspected, s.expansions, s.replacement_insts
            );
        }
        report_regs(&m);
        if args.iter().any(|a| a == "--profile") {
            report_profile(&m);
        }
    }
    Ok(())
}

fn report_regs(m: &Machine) {
    let interesting: Vec<String> = (0..32)
        .map(Reg::r)
        .filter(|r| m.reg(*r) != 0 && !r.is_zero())
        .map(|r| format!("{r}={:#x}", m.reg(r)))
        .collect();
    if !interesting.is_empty() {
        println!("registers: {}", interesting.join(" "));
    }
}

fn report_profile(m: &Machine) {
    let p = BranchProfiler::read(m);
    println!(
        "branch profile: {} executed, {} taken, {} not taken",
        p.executed,
        p.taken(),
        p.not_taken
    );
}

fn cmd_compress(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("compress: missing file")?;
    let p = load_listing(path)?;
    let config = match opt_value(args, "--config").as_deref() {
        None | Some("dise") => CompressionConfig::dise_full(),
        Some("dedicated") => CompressionConfig::dedicated(),
        Some("-1insn") => CompressionConfig::dedicated_no_single(),
        Some("-2byteCW") => CompressionConfig::dise_unparameterized(),
        Some("+8byteDE") => CompressionConfig::dise_wide_entries(),
        Some("+3param") => CompressionConfig::dise_parameterized(),
        Some(other) => return Err(format!("unknown config `{other}`")),
    };
    let c = Compressor::new(config)
        .compress(&p)
        .map_err(|e| e.to_string())?;
    let s = c.stats;
    println!(
        "{} -> {} bytes (+{} dictionary, {} entries, {} codewords planted)",
        s.original_text, s.compressed_text, s.dictionary_bytes, s.entries, s.instances
    );
    println!(
        "code ratio {:.1}%, code+dictionary {:.1}%",
        s.code_ratio() * 100.0,
        s.total_ratio() * 100.0
    );
    Ok(())
}

fn cmd_workload(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("workload: missing name (or `list`)")?;
    if name == "list" {
        for b in Benchmark::ALL {
            let pr = b.profile();
            println!(
                "{:<8} ~{:>3}KB text, ~{:>2}KB hot, variety {}, {}% unpredictable branches",
                b.name(),
                pr.text_kb,
                pr.hot_kb,
                pr.variety,
                pr.unpredictable_pct
            );
        }
        return Ok(());
    }
    let bench = Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (try `list`)"))?;
    let dyn_insts: u64 = opt_value(args, "--dyn")
        .map(|v| v.parse().map_err(|_| "bad --dyn"))
        .transpose()?
        .unwrap_or(200_000);
    let p = bench.build(&WorkloadConfig::default().with_dyn_insts(dyn_insts));
    println!("{bench}: {} bytes of text, entry {:#x}", p.text_size(), p.entry());
    let mut m = Machine::load(&p);
    let r = m.run(u64::MAX).map_err(|e| e.to_string())?;
    println!("executes {} instructions and halts", r.app_insts);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "asm" => cmd_asm(rest),
        "run" => cmd_run(rest),
        "compress" => cmd_compress(rest),
        "workload" => cmd_workload(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dise: {e}");
            ExitCode::FAILURE
        }
    }
}
