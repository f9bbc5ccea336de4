//! Criterion benchmarks for the dictionary compressor: end-to-end
//! compression throughput (bytes of input text per second) for the
//! dedicated and full-DISE configurations under both selection
//! algorithms (v1 greedy, v2 DP cover).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dise_acf::compress::{CompressionConfig, Compressor, SelectAlgo};
use dise_workloads::{Benchmark, WorkloadConfig};

fn bench_compress(c: &mut Criterion) {
    let p = Benchmark::Parser.build(&WorkloadConfig::tiny());
    let mut group = c.benchmark_group("compressor");
    group.throughput(Throughput::Bytes(p.text_size()));
    group.sample_size(10);
    for (name, config) in [
        ("dedicated_v1", CompressionConfig::dedicated().with_select(SelectAlgo::V1)),
        ("dedicated_v2", CompressionConfig::dedicated().with_select(SelectAlgo::V2)),
        ("dise_full_v1", CompressionConfig::dise_full().with_select(SelectAlgo::V1)),
        ("dise_full_v2", CompressionConfig::dise_full().with_select(SelectAlgo::V2)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    Compressor::new(config)
                        .compress(black_box(&p))
                        .unwrap()
                        .stats,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compress);
criterion_main!(benches);
