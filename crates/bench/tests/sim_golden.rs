//! Golden digests of complete timing-run statistics. Each entry pins one
//! simulation cell — (benchmark, run kind, I-cache, RT) — to an FNV-1a
//! digest of every counter the run exports ([`dise_bench::stat_pairs`]:
//! cycles, instruction counts, cache, branch-predictor and DISE engine
//! counters). Matching cycle counts do not prove matching runs; these
//! digests do, so any change to the simulator that is meant to be a pure
//! speed-up must keep every line.
//!
//! The matrix covers the Figure 6 MFI cells (baseline, binary rewriting,
//! DISE4, DISE3 +stall and +pipe) at an 8KB and a perfect I-cache, and
//! the decompression cells of Figures 7 and 8 (v2 DISE compression, the
//! dedicated decompressor's 2-byte codewords, DISE+DISE composed eagerly
//! and at RT-miss time) at a 512-entry direct-mapped RT and an 8KB
//! I-cache. The small subset runs in every build. The full matrix is
//! `ignore`d in debug builds only, so a release run covers both:
//!
//! ```text
//! cargo test --release -p dise-bench --test sim_golden
//! ```
//!
//! A deliberate change to the timing model regenerates the table: the
//! failure message lists every computed line in table order.

use dise_acf::compress::{CompressionConfig, SelectAlgo};
use dise_acf::mfi::MfiVariant;
use dise_bench::{
    compress, fuel_for, run_baseline, run_composed_dise, run_compressed, run_dise_mfi,
    run_rewrite_mfi, stat_pairs,
};
use dise_core::{EngineConfig, RtOrganization};
use dise_sim::{ExpansionCost, SimConfig, SimStats};
use dise_workloads::{Benchmark, WorkloadConfig};

/// Dynamic application-instruction target per program: enough for every
/// cell to warm its caches, predictor and RT past the cold misses.
const DYN_INSTS: u64 = 30_000;

/// The Figure 6 run kinds, each simulated at both [`ICACHES`].
const MFI_KINDS: [&str; 5] = ["baseline", "rewrite", "dise4", "dise3_stall", "dise3_pipe"];

/// I-cache sizes of the MFI cells: the smallest the figures sweep (many
/// misses) and perfect (the always-hit path).
const ICACHES: [(&str, Option<u64>); 2] = [("8k", Some(8 * 1024)), ("perfect", None)];

/// The decompression run kinds, simulated at an 8KB I-cache and a
/// 512-entry direct-mapped RT (Figure 8's most thrashing point).
const RT_KINDS: [&str; 4] = ["v2", "dedicated", "composed_eager", "composed_lazy"];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn rt_512_dm() -> EngineConfig {
    EngineConfig {
        rt_entries: 512,
        rt_org: RtOrganization::DirectMapped,
        ..EngineConfig::default()
    }
}

/// Runs one cell and returns its exported counters.
fn run_cell(bench: Benchmark, kind: &str, icache: Option<u64>) -> Vec<(String, f64)> {
    let program = bench.build(&WorkloadConfig::default().with_dyn_insts(DYN_INSTS));
    let fuel = fuel_for(DYN_INSTS);
    let sim = SimConfig::default().with_icache_size(icache);
    let dise_v2 = CompressionConfig::dise_full().with_select(SelectAlgo::V2);
    let stats: SimStats = match kind {
        "baseline" => run_baseline(&program, sim, fuel),
        "rewrite" => run_rewrite_mfi(&program, sim, fuel),
        "dise4" => run_dise_mfi(&program, MfiVariant::Dise4, ExpansionCost::Free, sim, fuel),
        "dise3_stall" => run_dise_mfi(
            &program,
            MfiVariant::Dise3,
            ExpansionCost::StallPerExpansion,
            sim,
            fuel,
        ),
        "dise3_pipe" => run_dise_mfi(
            &program,
            MfiVariant::Dise3,
            ExpansionCost::ExtraStage,
            sim,
            fuel,
        ),
        "v2" => run_compressed(&compress(&program, dise_v2), rt_512_dm(), sim, fuel),
        "dedicated" => run_compressed(
            &compress(&program, CompressionConfig::dedicated()),
            rt_512_dm(),
            sim,
            fuel,
        ),
        "composed_eager" => {
            run_composed_dise(&compress(&program, dise_v2), rt_512_dm(), sim, true, fuel)
        }
        "composed_lazy" => {
            run_composed_dise(&compress(&program, dise_v2), rt_512_dm(), sim, false, fuel)
        }
        _ => unreachable!("unknown run kind {kind}"),
    };
    stat_pairs(&stats)
}

fn stat(pairs: &[(String, f64)], name: &str) -> f64 {
    pairs
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no counter {name}"))
        .1
}

/// Which simulator paths a set of cells reached.
#[derive(Debug, Default)]
struct Engagement {
    expansions: bool,
    rt_misses: bool,
    icache_misses: bool,
    composed_fills: bool,
    /// Some fetch probed two I-cache lines: only a 4-byte instruction at
    /// a 2-byte-aligned PC (after a 2-byte codeword) can straddle a line,
    /// and each such fetch counts one more access than it fetches items.
    straddles: bool,
}

impl Engagement {
    fn note(&mut self, pairs: &[(String, f64)]) {
        self.expansions |= stat(pairs, "engine.expansions") > 0.0;
        self.rt_misses |= stat(pairs, "engine.rt_misses") > 0.0;
        self.icache_misses |= stat(pairs, "l1i.misses") > 0.0;
        self.composed_fills |= stat(pairs, "engine.composed_fills") > 0.0;
        self.straddles |= stat(pairs, "l1i.accesses") > stat(pairs, "sim.app_insts");
    }

    fn complete(&self) -> bool {
        self.expansions
            && self.rt_misses
            && self.icache_misses
            && self.composed_fills
            && self.straddles
    }
}

/// One table line: `bench kind icache digest`.
fn line(bench: Benchmark, kind: &str, icache: &str, pairs: &[(String, f64)]) -> String {
    let digest = fnv1a(format!("{pairs:?}").as_bytes());
    format!("{} {kind} {icache} {digest:016x}", bench.name())
}

/// Computes every line for `benches` and checks each against [`GOLDEN`],
/// after proving the cells engaged every path the digests are meant to
/// pin.
fn check(benches: &[Benchmark]) {
    let mut actual = Vec::new();
    let mut engaged = Engagement::default();
    for &bench in benches {
        for kind in MFI_KINDS {
            for (icache, size) in ICACHES {
                let pairs = run_cell(bench, kind, size);
                engaged.note(&pairs);
                actual.push(line(bench, kind, icache, &pairs));
            }
        }
        for kind in RT_KINDS {
            let pairs = run_cell(bench, kind, Some(8 * 1024));
            engaged.note(&pairs);
            actual.push(line(bench, kind, "8k", &pairs));
        }
    }
    assert!(
        engaged.complete(),
        "the matrix missed a path it is meant to pin: {engaged:?}"
    );
    let golden: Vec<&str> = GOLDEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mismatched: Vec<&str> = actual
        .iter()
        .map(String::as_str)
        .filter(|l| !golden.contains(l))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{} of {} digests diverged from the golden table:\n{}\n\nall computed lines:\n{}",
        mismatched.len(),
        actual.len(),
        mismatched.join("\n"),
        actual.join("\n")
    );
}

#[test]
fn golden_digests_small_subset() {
    check(&[Benchmark::Mcf]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes-slow unoptimized; ci.sh runs it under --release"
)]
fn golden_digests_full_matrix() {
    check(&Benchmark::ALL);
}

/// `bench kind icache digest`, one line per cell.
const GOLDEN: &str = "
bzip2 baseline 8k e3eae3451a07baee
bzip2 baseline perfect 9ae8dc4d822a69b7
bzip2 rewrite 8k 7c411c0c797d16c5
bzip2 rewrite perfect be4b002f0ff54878
bzip2 dise4 8k f4c1c04b4193c429
bzip2 dise4 perfect 1e170f62c9e83262
bzip2 dise3_stall 8k 9b21f82f4f38c234
bzip2 dise3_stall perfect 77ba5ce653038f52
bzip2 dise3_pipe 8k c5fd98bde27d03ad
bzip2 dise3_pipe perfect eb172cf28d4521e1
bzip2 v2 8k c5f7bd2f294e2b80
bzip2 dedicated 8k 66e5990603132164
bzip2 composed_eager 8k 05cff7a454ee08a5
bzip2 composed_lazy 8k d3d9a2b5d4dd3120
crafty baseline 8k 7227014f043dcdd9
crafty baseline perfect 9a5646c37b873850
crafty rewrite 8k 2413c7d7c2670ffd
crafty rewrite perfect ca75da5d517fd507
crafty dise4 8k 7e376d42a7ecba33
crafty dise4 perfect 0201c0d40edbe6f1
crafty dise3_stall 8k 4cc5969bce1d8709
crafty dise3_stall perfect 18075f1792098739
crafty dise3_pipe 8k ca2fbe5bbe7e9c9f
crafty dise3_pipe perfect 98147001c99e2557
crafty v2 8k 4ad3bd52f59dc6e1
crafty dedicated 8k 3381a4308bc1adb2
crafty composed_eager 8k 71aab9cc031c3d03
crafty composed_lazy 8k ea46df6891099443
eon baseline 8k 8bf272bd5d158847
eon baseline perfect 3c277e191831b4cf
eon rewrite 8k 81436547e41d0ca2
eon rewrite perfect fe4f13141323b43f
eon dise4 8k 25d707a6cecf8a59
eon dise4 perfect 1f4391b537e3df82
eon dise3_stall 8k 1ee4fbe55d733965
eon dise3_stall perfect d6b5e606bde467a2
eon dise3_pipe 8k d50c2f951aee0405
eon dise3_pipe perfect de115219d83f272c
eon v2 8k 81970445402c22db
eon dedicated 8k 0f9df67b6a7486ad
eon composed_eager 8k 14922cee3473e732
eon composed_lazy 8k 4ccf1cf6b6428a5b
gap baseline 8k ae4b73918f37a84d
gap baseline perfect eae158cfdad80e15
gap rewrite 8k 6af48396836bf6bc
gap rewrite perfect d2b861805fe6f22b
gap dise4 8k f75d2544b58adcbb
gap dise4 perfect a1ef9b500c2e3be1
gap dise3_stall 8k d86d96ccc6958cac
gap dise3_stall perfect 41b94cedfc74b466
gap dise3_pipe 8k a046175ec919d4a7
gap dise3_pipe perfect 09242df6a0dd6067
gap v2 8k fa9552d32cda9967
gap dedicated 8k 904cd5e0dc18f2e1
gap composed_eager 8k ae0ae709d275d7a4
gap composed_lazy 8k 6dc35aaccdce5d0f
gcc baseline 8k ef76b6196e33c132
gcc baseline perfect 1f2244c203119068
gcc rewrite 8k d4258dc3a596654c
gcc rewrite perfect 361e05460db7287a
gcc dise4 8k 32ca96a4e81a1d5c
gcc dise4 perfect 6ec109b61e5cadf5
gcc dise3_stall 8k 7607ec4a96361717
gcc dise3_stall perfect 10baf5b3d541e6cb
gcc dise3_pipe 8k 8e999a56a54879ab
gcc dise3_pipe perfect 2c592169d6f3aef0
gcc v2 8k abe17a55898a5781
gcc dedicated 8k 01c88bb47a9dc5cb
gcc composed_eager 8k 5c8b2d308bc4ca5d
gcc composed_lazy 8k 59adbd684c519c69
gzip baseline 8k 355f56a9c7b397b1
gzip baseline perfect eb8ac3c19fa18ba1
gzip rewrite 8k 792da9826730b128
gzip rewrite perfect 4ecf1ecd423181a3
gzip dise4 8k d82af9ef27074749
gzip dise4 perfect 51575fa651f7231e
gzip dise3_stall 8k a22f4ee3a4ae674e
gzip dise3_stall perfect 425dbaadd69a8fb9
gzip dise3_pipe 8k 1809dbe10adee47f
gzip dise3_pipe perfect 9bbce46f7588af4a
gzip v2 8k e863edfaf47276b5
gzip dedicated 8k 864e1ad89ab648df
gzip composed_eager 8k fb1609f5b1f7a2d6
gzip composed_lazy 8k 61990d083260a823
mcf baseline 8k b7b6a04fec4c64e0
mcf baseline perfect c005fbf935a8ad8a
mcf rewrite 8k 21620881a4705f33
mcf rewrite perfect 4b0318308ab91f71
mcf dise4 8k 6709b098000228fa
mcf dise4 perfect bf4181e6c402cc03
mcf dise3_stall 8k c173349e7f1f6487
mcf dise3_stall perfect 4a3fec6c4d6f53c7
mcf dise3_pipe 8k 18164eb9cd77239d
mcf dise3_pipe perfect 2cee67e2e2e8ba35
mcf v2 8k 72ed2095f9fc086c
mcf dedicated 8k 783510b2a6b42df5
mcf composed_eager 8k 3f1109481baf3b58
mcf composed_lazy 8k 7c5b42de4b69613d
parser baseline 8k 714c9cde23941815
parser baseline perfect 80414a8f4bc93f73
parser rewrite 8k ff3f293a939ad024
parser rewrite perfect 686f63ee582fea96
parser dise4 8k 4b4b835ae43bbaaf
parser dise4 perfect 4542d31aff4675d8
parser dise3_stall 8k 62f8c3ddebcada4f
parser dise3_stall perfect 2ac9707dfa36388c
parser dise3_pipe 8k 4036598639de52b0
parser dise3_pipe perfect 878ec377616efd1b
parser v2 8k fca5e4044b766c34
parser dedicated 8k 34cd5e3bf0369020
parser composed_eager 8k 6f44b2a451bc1635
parser composed_lazy 8k aef6b7dc76db4845
perlbmk baseline 8k ee1aec5cabf4b757
perlbmk baseline perfect bb357eb47ac8a560
perlbmk rewrite 8k bc2bb9788a5212d6
perlbmk rewrite perfect 5dbe49eb96e4a42e
perlbmk dise4 8k a41ebc836ee11518
perlbmk dise4 perfect 075a371b48fd989e
perlbmk dise3_stall 8k 2df5414be16e6027
perlbmk dise3_stall perfect 57a050252d2309d7
perlbmk dise3_pipe 8k ab31a9c6e1f429ba
perlbmk dise3_pipe perfect c1404ea59cdd0168
perlbmk v2 8k 4b77a8a974483d0b
perlbmk dedicated 8k 96838066ea9c14e1
perlbmk composed_eager 8k a6cb9281544566f2
perlbmk composed_lazy 8k 88edc62b50be100e
twolf baseline 8k 614efc3b3d158be6
twolf baseline perfect 9b4306969a92edf0
twolf rewrite 8k 6a7cf8b4521c961b
twolf rewrite perfect 33ac31f759e68342
twolf dise4 8k 1d4ef421ccbb6ab4
twolf dise4 perfect 5f39aa5516a61f8e
twolf dise3_stall 8k a5735209f251bcde
twolf dise3_stall perfect f3ca8ac9545ee3bb
twolf dise3_pipe 8k 47185a6c583b5e3e
twolf dise3_pipe perfect 3f587ac7fa5a307e
twolf v2 8k 13472475e55699ea
twolf dedicated 8k 8e91afb197d9dd68
twolf composed_eager 8k 42da65ee8511a730
twolf composed_lazy 8k 3e219a3f3545455e
vortex baseline 8k 0bda3637d5ce070a
vortex baseline perfect a0a8f4f0c4c11432
vortex rewrite 8k 9e425764db0681cc
vortex rewrite perfect b642fd586892cca1
vortex dise4 8k da2acb738903ecf6
vortex dise4 perfect f5f926a0e87a5adc
vortex dise3_stall 8k 681fb2ef7949a5fe
vortex dise3_stall perfect b6df28b4dfa83c89
vortex dise3_pipe 8k 263f8851f86e1b29
vortex dise3_pipe perfect 985887b297d18a66
vortex v2 8k ce9b184f64157775
vortex dedicated 8k 19803cb781c96283
vortex composed_eager 8k 75bbd0ef8e9e12e0
vortex composed_lazy 8k 675c4ac98cdfdd2e
vpr baseline 8k 6f25558f26036eb2
vpr baseline perfect 421e5cd09df20bda
vpr rewrite 8k 9712cf7c00a533c6
vpr rewrite perfect fecbe0d219336625
vpr dise4 8k 1ed5da7fb2514922
vpr dise4 perfect ac28867bc02e5d5b
vpr dise3_stall 8k f9b9848b71fcf7b6
vpr dise3_stall perfect b275136c39f0dcf4
vpr dise3_pipe 8k be60c468ba050593
vpr dise3_pipe perfect 37850065f19b3b44
vpr v2 8k ec8f88b68540cabb
vpr dedicated 8k 117dc6504905a265
vpr composed_eager 8k c1591eeb5994e5fb
vpr composed_lazy 8k 6a9404c50e9130e9
";
