//! The process-wide predecode arena: one [`Predecode`] table per program
//! image, shared across every machine in the process by [`Arc`].
//!
//! A sweep process simulates the same image under dozens of engine and
//! cache configurations; without the arena, every cell would re-decode
//! the text segment. The table is a pure function of the image, so
//! sharing is invisible to results (differential-tested in
//! `crates/bench/tests/predecode_arena.rs`): the arena only changes *who
//! builds and owns* the table, never what it contains. Per-engine
//! expansion state is not shared: each engine fills its own PC-indexed
//! cache (see `dise_core::DiseEngine::bind_text`).
//!
//! Keying is by content fingerprint — the program's text base and bytes
//! — so distinct `Program` clones of the same image share, while any
//! difference gets its own entry. Sharing can be disabled for
//! differential testing via [`set_share_enabled`]. The module also owns
//! the content fingerprints the snapshot format records.

use dise_core::Controller;
use dise_isa::{Predecode, Program};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Counters describing arena traffic since process start (or the last
/// [`clear`]). Reads are snapshots; sharing effectiveness is
/// `predecode_hits / (predecode_hits + predecode_builds)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Predecode tables built (one per distinct program image).
    pub predecode_builds: u64,
    /// Predecode requests served from the arena.
    pub predecode_hits: u64,
}

#[derive(Default)]
struct Registry {
    predecodes: HashMap<u64, Arc<Predecode>>,
    stats: ArenaStats,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Runtime switch for the arena. Exists for the differential conformance
/// suite, which must run shared and forced-private sweeps in one process.
static SHARE: AtomicBool = AtomicBool::new(true);

/// Enables or disables arena sharing at run time. Disabling does not
/// evict existing entries; it only makes subsequent requests build
/// private copies.
pub fn set_share_enabled(enabled: bool) {
    SHARE.store(enabled, Ordering::SeqCst);
}

/// Whether arena sharing is currently active: on by default, off after
/// [`set_share_enabled`]`(false)`.
pub fn share_enabled() -> bool {
    SHARE.load(Ordering::SeqCst)
}

/// A snapshot of the arena's traffic counters.
pub fn stats() -> ArenaStats {
    registry().lock().expect("arena lock").stats
}

/// Drops every arena entry no machine references anymore — the weak-ref
/// reaping eviction policy from the ROADMAP. An entry whose `Arc` strong
/// count is 1 is held only by the registry itself: every cell that used
/// it has been dropped, so a sweep process keeps nothing, while a
/// long-running service (`dise_serve` calls this between jobs) sheds
/// images it will never simulate again instead of growing monotonically.
/// Returns the number of entries dropped. A reaped fingerprint that
/// shows up again simply rebuilds and re-registers — correctness is
/// unaffected (unit-tested below), only who pays the build.
pub fn reap_unreferenced() -> usize {
    let mut reg = registry().lock().expect("arena lock");
    let before = reg.predecodes.len();
    reg.predecodes.retain(|_, p| Arc::strong_count(p) > 1);
    before - reg.predecodes.len()
}

/// Drops every arena entry and zeroes the counters. Tables already handed
/// out stay alive through their `Arc`s.
pub fn clear() {
    let mut reg = registry().lock().expect("arena lock");
    reg.predecodes.clear();
    reg.stats = ArenaStats::default();
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
/// FNV-1a). Keys the arena and names immutable state in snapshot files:
/// restore re-resolves the image through the caller-provided machine and
/// uses this fingerprint to prove it is the same one.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &program.text_base.to_le_bytes());
    fnv1a(&mut h, &program.text);
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

/// The predecode table for `program`'s image: shared from the arena when
/// sharing is enabled, freshly built otherwise.
pub fn predecode_for(program: &Program) -> Arc<Predecode> {
    if !share_enabled() {
        return Arc::new(program.predecode());
    }
    let key = program_fingerprint(program);
    let mut reg = registry().lock().expect("arena lock");
    // `covers` guards the (astronomically unlikely) fingerprint collision:
    // same hash, different base or length falls back to a private build.
    if let Some(pd) = reg.predecodes.get(&key).map(Arc::clone) {
        if pd.covers(program) {
            reg.stats.predecode_hits += 1;
            return pd;
        }
        return Arc::new(program.predecode());
    }
    let pd = Arc::new(program.predecode());
    reg.stats.predecode_builds += 1;
    reg.predecodes.insert(key, Arc::clone(&pd));
    pd
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_isa::Assembler;

    fn program(base: u64) -> Program {
        Assembler::new(base)
            .assemble(
                "       lda r1, 4(r31)
                 loop:  subq r1, #1, r1
                        bne r1, loop
                        halt",
            )
            .unwrap()
    }

    /// Serializes the tests in this module: one toggles the process-wide
    /// share switch and the other reaps, and each would see the other's
    /// side effects if interleaved.
    static ARENA_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn arena_shares_by_content_and_respects_the_switch() {
        let _serial = ARENA_TEST_LOCK.lock().unwrap();
        // Other tests in this binary hit the arena concurrently, so only
        // pointer identity and counter *deltas* (monotonic inequalities)
        // are asserted.
        let before = stats();
        let p = program(0x0400_0000);
        let clone = p.clone();
        let a = predecode_for(&p);
        let b = predecode_for(&clone);
        assert!(Arc::ptr_eq(&a, &b), "identical images must share");
        let other = program(0x0500_0000);
        let c = predecode_for(&other);
        assert!(!Arc::ptr_eq(&a, &c), "different images must not share");

        let after = stats();
        assert!(after.predecode_hits > before.predecode_hits);

        set_share_enabled(false);
        let d = predecode_for(&p);
        assert!(!Arc::ptr_eq(&a, &d), "disabled arena builds privately");
        set_share_enabled(true);
    }

    #[test]
    fn reap_drops_only_unreferenced_entries_and_rebuilds_on_reuse() {
        let _serial = ARENA_TEST_LOCK.lock().unwrap();
        // Bases unique to this test: no other test (or concurrent
        // thread) touches these fingerprints.
        let p = program(0x0600_0000);

        let pd = predecode_for(&p);
        // Held entries survive a reap (strong count 2: registry + us).
        reap_unreferenced();
        assert!(
            Arc::ptr_eq(&pd, &predecode_for(&p)),
            "live entries must survive reaping"
        );

        // Dropped entries are reaped: this test's entry is now
        // unreferenced, so at least one goes.
        drop(pd);
        let reaped = reap_unreferenced();
        assert!(reaped >= 1, "the unreferenced entry reaped, got {reaped}");

        // Fingerprint re-registration rebuilds correctly: the next
        // request must *build* (the key is unique to this test, so a hit
        // is impossible after the reap) and produce a table that covers
        // the image and decodes like a private build.
        let before = stats();
        let pd2 = predecode_for(&p);
        let after = stats();
        assert!(
            after.predecode_builds > before.predecode_builds,
            "reaped fingerprint must rebuild on re-registration"
        );
        assert!(pd2.covers(&p), "rebuilt table covers the image");
        // And the rebuilt entry is shared again on the next request.
        assert!(Arc::ptr_eq(&pd2, &predecode_for(&p)));
    }
}
