//! Content fingerprints of a machine's immutable inputs, which the
//! snapshot format records instead of serializing them. The module holds
//! no state: predecode tables belong to their images
//! ([`Program::predecode`]).

use dise_core::Controller;
use dise_isa::Program;
use std::fmt::Write as _;

/// Does nothing and returns 0. Predecode tables die with their images,
/// so there is nothing left to reap; the function stays only because the
/// benchmark calls it at the end of each pass, and the next benchmark
/// change (ROADMAP item 11) deletes that call and then this function.
pub fn reap_unreferenced() -> usize {
    0
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// `fmt::Write` sink that FNV-1a-hashes what is written to it, letting us
/// fingerprint a `Debug` form without materializing the string.
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        fnv1a(&mut self.0, s.as_bytes());
        Ok(())
    }
}

/// Content fingerprint of a program image (text base + text bytes,
/// FNV-1a). Names immutable state in snapshot files: restore re-resolves
/// the image through the caller-provided machine and uses this
/// fingerprint to prove it is the same one.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &program.text_base().to_le_bytes());
    fnv1a(&mut h, program.text());
    h
}

/// Fingerprints the architectural production state via the controller's
/// `Debug` form — deterministic because `ProductionSet` stores rules in a
/// `Vec` and sequences in a `BTreeMap`. Shared with the snapshot format,
/// which records it instead of serializing the (immutable) production
/// set.
pub fn controller_fingerprint(controller: &Controller) -> u64 {
    let mut w = FnvWriter(FNV_OFFSET);
    write!(w, "{controller:?}").expect("hashing never fails");
    w.0
}

/// FNV-1a fingerprint of any value's `Debug` form. The snapshot format
/// uses it for configuration state whose types already maintain a
/// canonical, result-complete `Debug` representation (`SimConfig`,
/// `DedicatedDict`).
pub(crate) fn debug_fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    let mut w = FnvWriter(FNV_OFFSET);
    write!(w, "{value:?}").expect("hashing never fails");
    w.0
}
