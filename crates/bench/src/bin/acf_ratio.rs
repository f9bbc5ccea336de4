//! Static compression-ratio comparison: v1 (greedy frequency-ordered)
//! vs v2 (DP cover) codeword selection, per benchmark.
//!
//! Compresses every benchmark under the full DISE configuration with
//! both selection algorithms and reports the code and code+dictionary
//! ratios side by side (lower is better). The output is deterministic —
//! selection is pinned per column, so `DISE_ACF_SELECT` has no effect.
//!
//! `DISE_BENCH_DYN` / `DISE_BENCH_FILTER` are honored as in the figure
//! binaries; `DISE_BENCH_OUT` redirects the report (default
//! `results/BENCH_acf_ratio.json`).

use dise_acf::compress::{CompressionConfig, SelectAlgo};
use dise_bench::{benchmarks, compress, workload, Pool};

fn main() {
    let benches = benchmarks();
    let rows = Pool::from_env().run(&benches, |_, &bench| {
        let p = workload(bench);
        let v1 = compress(&p, CompressionConfig::dise_full().with_select(SelectAlgo::V1));
        let v2 = compress(&p, CompressionConfig::dise_full().with_select(SelectAlgo::V2));
        (v1.stats, v2.stats)
    });

    let mut blocks = Vec::new();
    for (bench, (v1, v2)) in benches.iter().zip(&rows) {
        println!(
            "{:>8}: code {:.3} -> {:.3}, total {:.3} -> {:.3} ({:+.1}%)",
            bench.name(),
            v1.code_ratio(),
            v2.code_ratio(),
            v1.total_ratio(),
            v2.total_ratio(),
            (v2.total_ratio() / v1.total_ratio() - 1.0) * 100.0,
        );
        blocks.push(format!(
            "    {{\"benchmark\": \"{}\", \
             \"code_v1\": {:.6}, \"code_v2\": {:.6}, \
             \"total_v1\": {:.6}, \"total_v2\": {:.6}, \
             \"entries_v1\": {}, \"entries_v2\": {}, \
             \"arena_stride_v2\": {}}}",
            bench.name(),
            v1.code_ratio(),
            v2.code_ratio(),
            v1.total_ratio(),
            v2.total_ratio(),
            v1.entries,
            v2.entries,
            v2.arena_stride,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"acf_ratio\",\n  \"config\": \"dise_full\",\n  \
         \"benchmarks\": [\n{}\n  ]\n}}\n",
        blocks.join(",\n")
    );
    let out = std::env::var("DISE_BENCH_OUT")
        .unwrap_or_else(|_| "results/BENCH_acf_ratio.json".to_string());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("results dir");
    }
    std::fs::write(&out, json).expect("write results");
    println!("wrote {out}");
}
