//! Figure sweep bodies, expressed as flat [`crate::Cell`] lists.
//!
//! Each panel function builds every (benchmark × config) cell up front,
//! fans the whole list across the sweep's worker pool **once** (so slow
//! benchmarks overlap with fast ones), then assembles the table from the
//! order-stable results. The table strings are byte-identical across job
//! counts and cache warmth — `tests/determinism.rs` asserts it.
//!
//! Each simulating cell is a [`crate::Scenario`], whose key spells out
//! everything a result depends on: the workload fingerprint, the kind of
//! run, and the `Debug` forms of every relevant configuration. A panel
//! makes one [`crate::Workload`] per benchmark, so each image is built at
//! most once, by the first cell that misses the cache. Identical runs
//! shared between panels (e.g. the default baseline of Figure 6 top and
//! the 32KB baseline of its cache panel, or the DISE3/DISE4 points shared
//! between Figure 6 and the ablation matrix) therefore collapse to one
//! cache entry.

pub mod ablation;
pub mod fig6;
pub mod fig7;
pub mod fig8;

use crate::Sweep;

/// Rows of `chunk[1..] / chunk[0]` per benchmark.
pub(crate) fn normalized_to_first(
    sweep: &Sweep,
    vals: &[Vec<f64>],
    chunk: usize,
) -> Vec<(String, Vec<f64>)> {
    sweep
        .benches
        .iter()
        .zip(vals.chunks(chunk))
        .map(|(bench, v)| {
            let base = v[0][0];
            (
                bench.name().to_string(),
                v[1..].iter().map(|c| c[0] / base).collect(),
            )
        })
        .collect()
}
