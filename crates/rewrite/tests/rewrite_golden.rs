//! Golden digests of the binary-rewriting MFI baseline's output. Each
//! entry pins one benchmark's rewritten image, generated at seed 0 with a
//! 100K dynamic-instruction target, to FNV-1a digests of the rewritten
//! text, the entry point and the symbol table. The rewriter and the
//! relocator it drives are deterministic, so a change to either that is
//! meant to leave the rewritten image alone must keep every line.
//!
//! A deliberate change to the rewrite regenerates the table: the failure
//! message lists every computed line in table order.

use dise_rewrite::RewriteMfi;
use dise_workloads::{Benchmark, WorkloadConfig};

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One table line: `bench text_bytes text_digest entry symbols_digest`.
fn line(bench: Benchmark) -> String {
    let program = bench.build(&WorkloadConfig::tiny());
    let out = RewriteMfi::new().rewrite(&program).expect("rewrite");
    let p = &out.program;
    let text = fnv1a(FNV_OFFSET, p.text());
    let symbols = p.symbols().iter().fold(FNV_OFFSET, |h, (name, addr)| {
        fnv1a(fnv1a(h, name.as_bytes()), &addr.to_le_bytes())
    });
    format!(
        "{} {} {text:016x} {:#x} {symbols:016x}",
        bench.name(),
        p.text().len(),
        p.entry()
    )
}

#[test]
fn rewritten_images_match_golden_digests() {
    let actual: Vec<String> = Benchmark::ALL.into_iter().map(line).collect();
    let golden: Vec<&str> = GOLDEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(
        actual,
        golden,
        "rewritten images diverged from the golden table; computed lines:\n{}",
        actual.join("\n")
    );
}

/// `bench text_bytes text_digest entry symbols_digest`, one line per
/// benchmark in [`Benchmark::ALL`] order.
const GOLDEN: &str = "
bzip2 28068 87b854c3c123cb90 0x4006c4c 2ec352b7e3ddc9ae
crafty 156604 41def52e9e440004 0x4025f78 660d31474f7a2059
eon 62652 8d0b6a7717dcb3a6 0x400ef80 d942edb700db3e28
gap 78388 e28c2df22abd3a79 0x4012e10 5091300304bdce68
gcc 199788 6a096722adb7af2b 0x40303a8 8435e1d2fff66770
gzip 113276 c6f20235ec104389 0x401b5fc e9e3384bb27f7a94
mcf 14864 7d9618a8d44b3b10 0x4003900 687a05a11dc8847d
parser 53072 15b0e6b58fe74ed6 0x400cc78 0579378598cdb2be
perlbmk 160056 f8c69557962f193c 0x4026a98 b9ffc85f224431e5
twolf 58888 0877de6e4c1a6345 0x400e390 2f156d6e9a233f00
vortex 139636 d49cfbbd757dd428 0x4021ab4 99f0cf1a786b0637
vpr 107784 1ed51c389b658fe9 0x401a124 c105f87c2391e815
";
