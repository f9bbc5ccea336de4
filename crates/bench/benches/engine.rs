//! Criterion microbenchmarks for the DISE engine: pattern-table matching,
//! expansion throughput, and instantiation-logic cost. The engine sits in
//! the decode path and inspects *every* fetched instruction (paper §2), so
//! its per-instruction cost is the headline implementation metric.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dise_acf::mfi::{Mfi, MfiVariant};
use dise_core::{DiseEngine, EngineConfig, Expansion};
use dise_isa::Inst;

fn engine_with_mfi() -> DiseEngine {
    let set = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(0x7000)
        .productions()
        .unwrap();
    DiseEngine::with_productions(EngineConfig::default(), set).unwrap()
}

fn bench_inspect(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_inspect");
    group.throughput(Throughput::Elements(1));

    // Non-matching instruction: the common case, must be near-free.
    let mut engine = engine_with_mfi();
    let alu: Inst = "addq r1, r2, r3".parse().unwrap();
    let _ = engine.inspect(&alu);
    group.bench_function("miss_no_pattern", |b| {
        b.iter(|| black_box(engine.inspect(black_box(&alu))))
    });

    // Matching store: rule match + resolved-sequence lookup.
    let mut engine = engine_with_mfi();
    let store: Inst = "stq r1, 0(r2)".parse().unwrap();
    let _ = engine.inspect(&store);
    group.bench_function("hit_expansion", |b| {
        b.iter(|| black_box(engine.inspect(black_box(&store))))
    });
    group.finish();
}

fn bench_fetch_replacement(c: &mut Criterion) {
    let mut engine = engine_with_mfi();
    let store: Inst = "stq r1, 0(r2)".parse().unwrap();
    let Expansion::Expand { id, .. } = engine.inspect(&store) else {
        panic!("the store expands")
    };
    let mut group = c.benchmark_group("engine_instantiate");
    group.throughput(Throughput::Elements(4));
    group.bench_function("mfi_sequence", |b| {
        b.iter(|| {
            for disepc in 0..4u8 {
                black_box(
                    engine
                        .fetch_replacement(id, disepc, &store, 0x1000)
                        .unwrap(),
                );
            }
        })
    });
    group.finish();
}

fn engine_with_mfi_config(config: EngineConfig) -> DiseEngine {
    let set = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(0x7000)
        .productions()
        .unwrap();
    DiseEngine::with_productions(config, set).unwrap()
}

/// The frontend fast path against the seed algorithm: per-opcode PT index
/// plus the PC-indexed expansion cache (default config) vs the linear
/// scan (`slow_path`, which never binds the cache). Same engine state,
/// same stats, different lookup cost. Each instruction sits at its own
/// text PC, as it would in a program image.
fn bench_fast_path(c: &mut Criterion) {
    const TEXT: u64 = 0x1000;
    let alu: Inst = "addq r1, r2, r3".parse().unwrap();
    let store: Inst = "stq r1, 0(r2)".parse().unwrap();
    let (alu_pc, store_pc) = (TEXT, TEXT + 4);
    let bound = |config: EngineConfig| {
        let mut engine = engine_with_mfi_config(config);
        engine.bind_text(TEXT, 4);
        engine
    };

    let mut group = c.benchmark_group("engine_fast_path");
    group.throughput(Throughput::Elements(1));
    for (path, config) in [
        ("fast", EngineConfig::default()),
        ("slow", EngineConfig::default().slow_path()),
    ] {
        // Steady-state inspect of a non-covered instruction (index
        // early exit on the fast path).
        let mut engine = bound(config);
        let _ = engine.inspect_at(&alu, alu_pc);
        group.bench_function(&format!("inspect_none/{path}"), |b| {
            b.iter(|| black_box(engine.inspect_at(black_box(&alu), alu_pc)))
        });

        // Steady-state inspect of an expanding store (cache hit / match).
        let mut engine = bound(config);
        let _ = engine.inspect_at(&store, store_pc);
        group.bench_function(&format!("inspect_expand/{path}"), |b| {
            b.iter(|| black_box(engine.inspect_at(black_box(&store), store_pc)))
        });

        // Steady-state replacement fetch (µop handle read /
        // re-instantiate).
        let mut engine = bound(config);
        let (Expansion::Expand { id, .. }, handle) = engine.inspect_at(&store, store_pc) else {
            panic!("the store expands")
        };
        group.bench_function(&format!("instantiate/{path}"), |b| {
            b.iter(|| black_box(engine.fetch_uop(handle, id, 0, &store, store_pc).unwrap()))
        });
    }
    group.finish();
}

fn bench_compose(c: &mut Criterion) {
    // The software cost the 150-cycle composing-miss penalty models: inline
    // the MFI production set into a decompression dictionary entry.
    use dise_core::compose;
    let mfi = Mfi::new(MfiVariant::Dise3)
        .with_error_handler(0x7000)
        .productions()
        .unwrap();
    let entry = dise_core::dsl::parse_sequence(
        "ldq T.P1, 8(T.P2)
         addq T.P1, #1, T.P1
         stq T.P1, 8(T.P2)
         cmplt T.P1, r9, r5",
    )
    .unwrap();
    let mut group = c.benchmark_group("engine_compose");
    group.bench_function("inline_mfi_into_entry", |b| {
        b.iter(|| black_box(compose::inline(black_box(&mfi), black_box(&entry)).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_inspect,
    bench_fetch_replacement,
    bench_fast_path,
    bench_compose
);
criterion_main!(benches);
