//! Peak live heap of dictionary selection. A counting global allocator
//! records the most bytes live at once while gzip (the default workload
//! at 100 K dynamic instructions, about 14 K static instructions) is
//! compressed, above what was live before the call.
//!
//! The binary holds one test, so no other test thread allocates while it
//! counts. Debug builds run cross-checks inside selection that allocate,
//! so the test is `ignore`d there; run it with
//!
//! ```text
//! cargo test --release -p dise-acf --test footprint
//! ```
//!
//! Measured on x86-64 Linux (release), before and after the window table
//! was pruned at the payable count and occurrences moved into flat
//! arrays: `dise_full` v2 4,611,696 → 1,614,400 bytes, `dedicated` v1
//! 10,899,088 → 1,941,106 bytes. Each bound is the later figure plus 25%.

use dise_acf::compress::{CompressionConfig, Compressor, SelectAlgo};
use dise_workloads::{Benchmark, WorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak bytes live during one compression of `program`, above those
/// live when it started.
fn peak_of(program: &dise_isa::Program, config: CompressionConfig) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let compressed = Compressor::new(config).compress(program).expect("compression");
    let peak = PEAK.load(Relaxed) - before;
    assert!(compressed.stats.entries > 0, "{config:?} planted nothing");
    peak
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug cross-checks allocate; ci.sh runs it under --release"
)]
fn compressing_gzip_stays_within_its_heap_bound() {
    let program = Benchmark::Gzip.build(&WorkloadConfig::default().with_dyn_insts(100_000));
    for (name, config, bound) in [
        ("dise_full v2", CompressionConfig::dise_full(), BOUND_V2),
        (
            "dedicated v1",
            CompressionConfig::dedicated().with_select(SelectAlgo::V1),
            BOUND_V1,
        ),
    ] {
        let peak = peak_of(&program, config);
        eprintln!("{name}: peak live heap {peak} bytes (bound {bound})");
        assert!(
            peak <= bound,
            "{name}: compressing gzip peaked at {peak} live heap bytes, over its bound of {bound}"
        );
    }
}

/// Peak live bytes allowed for `dise_full` v2 and `dedicated` v1.
const BOUND_V2: usize = 1_614_400 * 5 / 4;
const BOUND_V1: usize = 1_941_106 * 5 / 4;
