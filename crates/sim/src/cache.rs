//! Set-associative caches and the two-level memory hierarchy.
//!
//! The paper's configuration: 32KB L1 instruction and data caches and a
//! unified 1MB L2 (§4); Figure 6 middle and Figure 7 middle sweep the
//! I-cache from 8KB to perfect.

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. `None` models a perfect (always-hit) cache.
    pub size: Option<u64>,
    /// Associativity.
    pub assoc: u32,
    /// Line size in bytes.
    pub line: u64,
}

impl CacheConfig {
    /// A cache of `size` bytes with default 2-way associativity and 64-byte
    /// lines.
    pub fn of_size(size: u64) -> CacheConfig {
        CacheConfig {
            size: Some(size),
            assoc: 2,
            line: 64,
        }
    }

    /// A perfect (always-hit) cache.
    pub fn perfect() -> CacheConfig {
        CacheConfig {
            size: None,
            assoc: 1,
            line: 64,
        }
    }
}

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Registers this cache's counters under `prefix` (`l1i`, `l1d`,
    /// `l2`) in the unified stats registry.
    pub fn register(&self, prefix: &str, registry: &mut crate::telemetry::StatsRegistry) {
        registry.count(format!("{prefix}.accesses"), self.accesses);
        registry.count(format!("{prefix}.misses"), self.misses);
    }
}

/// One set-associative cache with LRU replacement. Tags only (no data —
/// the functional machine holds the actual values).
///
/// Storage is a single flat MRU-first tag array (`assoc` ways per set)
/// rather than per-set vectors: `access` runs once or twice per committed
/// instruction, so it avoids pointer chasing, keeps the common
/// hit-at-MRU case shuffle-free, and — since every paper geometry has
/// power-of-two line size and set count — indexes with shifts and masks
/// instead of 64-bit divisions (a div/mod fallback covers odd
/// geometries). Hit/miss behavior is identical to the textbook
/// remove/insert-front formulation.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// MRU-first ways: set `i` occupies `tags[i*assoc ..][..lens[i]]`.
    tags: Box<[u64]>,
    /// Resident ways per set (≤ assoc).
    lens: Box<[u32]>,
    assoc: usize,
    num_sets: u64,
    /// `(line_shift, set_mask, set_bits)` when the geometry is
    /// power-of-two; `None` falls back to division.
    shifts: Option<(u32, u64, u32)>,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (size smaller than one line,
    /// associativity of zero).
    pub fn new(config: CacheConfig) -> Cache {
        let num_sets = match config.size {
            None => 0,
            Some(size) => {
                assert!(config.assoc > 0, "associativity must be positive");
                assert!(
                    size >= config.line * config.assoc as u64,
                    "cache smaller than one set"
                );
                size / (config.line * config.assoc as u64)
            }
        };
        let shifts = (config.line.is_power_of_two() && num_sets.is_power_of_two())
            .then(|| {
                (
                    config.line.trailing_zeros(),
                    num_sets - 1,
                    num_sets.trailing_zeros(),
                )
            });
        let assoc = config.assoc as usize;
        Cache {
            config,
            tags: vec![0; num_sets as usize * assoc].into_boxed_slice(),
            lens: vec![0; num_sets as usize].into_boxed_slice(),
            assoc,
            num_sets,
            shifts,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Splits `addr` into `(set index, tag)`.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        match self.shifts {
            Some((line_shift, set_mask, set_bits)) => {
                let line = addr >> line_shift;
                ((line & set_mask) as usize, line >> set_bits)
            }
            None => {
                let line = addr / self.config.line;
                ((line % self.num_sets) as usize, line / self.num_sets)
            }
        }
    }

    /// Probes the cache for the line containing `addr`; fills on miss.
    /// Returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        if self.config.size.is_none() {
            return true;
        }
        let (set_ix, tag) = self.locate(addr);
        let len = self.lens[set_ix] as usize;
        let ways = &mut self.tags[set_ix * self.assoc..][..self.assoc];
        if len > 0 && ways[0] == tag {
            return true; // already MRU: nothing to reorder
        }
        for i in 1..len {
            if ways[i] == tag {
                // Move the hit way to MRU, sliding the younger ways down.
                push_mru(&mut ways[..=i], tag);
                return true;
            }
        }
        self.stats.misses += 1;
        // Fill at MRU; the shift evicts the LRU way once the set is full.
        // Either way the probed line ends up MRU (see `hit_mru`).
        let new_len = (len + 1).min(self.assoc);
        push_mru(&mut ways[..new_len], tag);
        self.lens[set_ix] = new_len as u32;
        false
    }

    /// Counts an access to the line the previous [`Cache::access`]
    /// probed, without probing again. That line is MRU in its set
    /// whether the probe hit or filled, so a real probe would hit at way
    /// 0 and change nothing but the access count.
    #[inline]
    fn hit_mru(&mut self) {
        self.stats.accesses += 1;
    }

    /// Serializes occupied sets only (resident tags in MRU order) plus the
    /// hit/miss counters. Unoccupied ways beyond `lens[i]` are never
    /// written, so a save → restore → save round trip is byte-stable even
    /// though the flat array holds junk past each set's length.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::Writer) {
        let occupied = self.lens.iter().filter(|&&l| l > 0).count();
        w.u64(occupied as u64);
        for (set, &len) in self.lens.iter().enumerate() {
            if len == 0 {
                continue;
            }
            w.u64(set as u64);
            w.u32(len);
            for &tag in &self.tags[set * self.assoc..][..len as usize] {
                w.u64(tag);
            }
        }
        w.u64(self.stats.accesses);
        w.u64(self.stats.misses);
    }

    /// Parses a [`Cache::save_state`] section, validating it against this
    /// cache's geometry without mutating anything.
    pub(crate) fn read_state(&self, r: &mut crate::snapshot::Reader<'_>) -> crate::Result<CacheState> {
        let n = r.len_prefix(8 + 4)?;
        let mut sets = Vec::with_capacity(n);
        for _ in 0..n {
            let set = r.u64()? as usize;
            let len = r.u32()?;
            if set >= self.lens.len() || len == 0 || len as usize > self.assoc {
                return Err(crate::SimError::Snapshot(format!(
                    "snapshot corrupt: cache set {set} with {len} ways does not fit a \
                     {}-set {}-way cache",
                    self.lens.len(),
                    self.assoc
                )));
            }
            let mut ways = Vec::with_capacity(len as usize);
            for _ in 0..len {
                ways.push(r.u64()?);
            }
            sets.push((set, ways));
        }
        Ok(CacheState {
            sets,
            stats: CacheStats {
                accesses: r.u64()?,
                misses: r.u64()?,
            },
        })
    }

    /// Installs a parsed state (resetting to cold first, so sets absent
    /// from the snapshot end up empty).
    pub(crate) fn apply_state(&mut self, state: CacheState) {
        self.lens.fill(0);
        for (set, ways) in state.sets {
            self.lens[set] = ways.len() as u32;
            self.tags[set * self.assoc..][..ways.len()].copy_from_slice(&ways);
        }
        self.stats = state.stats;
    }
}

/// Puts `tag` at way 0 of `ways` and shifts every other way one place
/// older, dropping the last. A carried swap rather than `rotate_right`,
/// which compiles to a libc `memmove` call on every reorder.
#[inline]
fn push_mru(ways: &mut [u64], tag: u64) {
    let mut carry = tag;
    for way in ways {
        carry = std::mem::replace(way, carry);
    }
}

/// Parsed, geometry-validated mutable state of one cache.
#[derive(Debug)]
pub(crate) struct CacheState {
    /// `(set index, MRU-first resident tags)` for every occupied set.
    sets: Vec<(usize, Vec<u64>)>,
    stats: CacheStats,
}

/// Latencies and configuration for the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryHierarchyConfig {
    /// L1 instruction cache.
    pub icache: CacheConfig,
    /// L1 data cache.
    pub dcache: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// L1 hit latency (cycles).
    pub l1_latency: u64,
    /// L2 hit latency.
    pub l2_latency: u64,
    /// Main-memory latency.
    pub mem_latency: u64,
}

impl Default for MemoryHierarchyConfig {
    fn default() -> MemoryHierarchyConfig {
        MemoryHierarchyConfig {
            icache: CacheConfig::of_size(32 * 1024),
            dcache: CacheConfig::of_size(32 * 1024),
            l2: CacheConfig {
                size: Some(1024 * 1024),
                assoc: 4,
                line: 64,
            },
            l1_latency: 1,
            l2_latency: 12,
            mem_latency: 100,
        }
    }
}

/// The I-cache + D-cache + unified-L2 hierarchy. Returns access latencies;
/// the timing model turns them into stalls.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: MemoryHierarchyConfig,
    icache: Cache,
    dcache: Cache,
    l2: Cache,
    /// log2 of the I-cache line size, when it is a power of two.
    iline_shift: Option<u32>,
    /// The I-cache line [`MemoryHierarchy::ifetch`] probed last (a line
    /// number, not an address), or [`NO_LINE`]. Only `ifetch` touches
    /// the I-cache, so that line is still MRU and a fetch inside it hits.
    last_iline: u64,
}

/// `last_iline` before any fetch: no address maps to it, because a fetch
/// ending at `u64::MAX` would overflow its end address.
const NO_LINE: u64 = u64::MAX;

impl MemoryHierarchy {
    /// Creates the hierarchy.
    pub fn new(config: MemoryHierarchyConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            l2: Cache::new(config.l2),
            iline_shift: config
                .icache
                .line
                .is_power_of_two()
                .then(|| config.icache.line.trailing_zeros()),
            last_iline: NO_LINE,
            config,
        }
    }

    /// Instruction fetch of `len` bytes at `addr`: returns total latency.
    ///
    /// A fetch inside the line probed last counts one I-cache access and
    /// hits without probing (see `Cache::hit_mru`). Any other
    /// single-line fetch probes its line directly; a fetch straddling
    /// lines probes each in address order.
    pub fn ifetch(&mut self, addr: u64, len: u64) -> u64 {
        let line = self.icache.config().line;
        let (first, last) = match self.iline_shift {
            Some(s) => (addr >> s, (addr + len.max(1) - 1) >> s),
            None => (addr / line, (addr + len.max(1) - 1) / line),
        };
        let mut latency = self.config.l1_latency;
        if first != last {
            for l in first..=last {
                latency += self.iprobe(l * line);
            }
        } else if first == self.last_iline {
            self.icache.hit_mru();
        } else {
            latency += self.iprobe(first * line);
        }
        self.last_iline = last;
        latency
    }

    /// Probes the I-cache (and on a miss the L2) for the line at `addr`:
    /// returns the latency beyond an L1 hit.
    fn iprobe(&mut self, addr: u64) -> u64 {
        if self.icache.access(addr) {
            0
        } else if self.l2.access(addr) {
            self.config.l2_latency
        } else {
            self.config.l2_latency + self.config.mem_latency
        }
    }

    /// Data access at `addr`: returns total latency (loads); stores use the
    /// same path for tag state but the timing model does not stall on them.
    pub fn daccess(&mut self, addr: u64) -> u64 {
        if self.dcache.access(addr) {
            self.config.l1_latency
        } else if self.l2.access(addr) {
            self.config.l1_latency + self.config.l2_latency
        } else {
            self.config.l1_latency + self.config.l2_latency + self.config.mem_latency
        }
    }

    /// I-cache statistics.
    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    /// D-cache statistics.
    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Serializes all three caches' mutable state.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::Writer) {
        self.icache.save_state(w);
        self.dcache.save_state(w);
        self.l2.save_state(w);
    }

    /// Parses a [`MemoryHierarchy::save_state`] section (validating each
    /// cache against its configured geometry) without mutating anything.
    pub(crate) fn read_state(
        &self,
        r: &mut crate::snapshot::Reader<'_>,
    ) -> crate::Result<HierarchyState> {
        Ok(HierarchyState {
            icache: self.icache.read_state(r)?,
            dcache: self.dcache.read_state(r)?,
            l2: self.l2.read_state(r)?,
        })
    }

    /// Installs a parsed state. The remembered I-cache line is not part
    /// of it, so the next fetch probes.
    pub(crate) fn apply_state(&mut self, state: HierarchyState) {
        self.last_iline = NO_LINE;
        self.icache.apply_state(state.icache);
        self.dcache.apply_state(state.dcache);
        self.l2.apply_state(state.l2);
    }
}

/// Parsed mutable state of the full hierarchy.
#[derive(Debug)]
pub(crate) struct HierarchyState {
    icache: CacheState,
    dcache: CacheState,
    l2: CacheState,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_within_a_set() {
        // 2 sets × 2 ways × 64B lines = 256B cache.
        let mut c = Cache::new(CacheConfig {
            size: Some(256),
            assoc: 2,
            line: 64,
        });
        // Three lines mapping to set 0: 0, 128, 256.
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(c.access(0), "still resident");
        assert!(!c.access(256), "fills, evicting LRU (128)");
        assert!(!c.access(128), "128 was evicted");
        assert_eq!(c.stats().accesses, 5);
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn perfect_cache_always_hits() {
        let mut c = Cache::new(CacheConfig::perfect());
        for a in (0..100_000).step_by(4096) {
            assert!(c.access(a));
        }
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn working_set_behaviour() {
        // An 8KB cache thrashes on a 16KB loop but holds a 4KB one.
        let mut c = Cache::new(CacheConfig::of_size(8 * 1024));
        for _ in 0..4 {
            for a in (0..4 * 1024).step_by(64) {
                c.access(a);
            }
        }
        let small_misses = c.stats().misses;
        assert_eq!(small_misses, 64, "only compulsory misses");
        let mut c = Cache::new(CacheConfig::of_size(8 * 1024));
        for _ in 0..4 {
            for a in (0..16 * 1024).step_by(64) {
                c.access(a);
            }
        }
        assert!(c.stats().misses > 600, "16KB loop thrashes an 8KB cache");
    }

    /// A deterministic address trace mixing sequential runs, strided
    /// sweeps and pseudo-random pointer chasing — enough variety to
    /// exercise hits, conflict misses and LRU rotation in every set.
    fn shared_trace() -> Vec<u64> {
        let mut addrs = Vec::with_capacity(30_000);
        let mut lcg = 0x1234_5678_9abc_def0u64;
        for i in 0..10_000u64 {
            addrs.push(i * 8 % 16384);
            addrs.push(i * 192 % 65536);
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            addrs.push(lcg % 32768);
        }
        addrs
    }

    #[test]
    fn shift_path_and_division_path_agree_on_pow2_geometry() {
        // Same power-of-two geometry computed both ways: `fast` uses the
        // shift/mask indexing `new` installs, `slow` has it forcibly
        // disabled so `locate` takes the div/mod fallback. Every access
        // must agree hit-for-hit.
        let config = CacheConfig {
            size: Some(16 * 1024),
            assoc: 4,
            line: 64,
        };
        let mut fast = Cache::new(config);
        let mut slow = Cache::new(config);
        assert!(slow.shifts.is_some(), "pow2 geometry installs shifts");
        slow.shifts = None;
        for addr in shared_trace() {
            assert_eq!(fast.access(addr), slow.access(addr), "addr {addr:#x}");
        }
        assert_eq!(fast.stats(), slow.stats());
        assert!(fast.stats().misses > 0, "trace exercises misses");
    }

    #[test]
    fn non_pow2_geometry_matches_reference_lru() {
        // 3-way, 48-set, 64-byte lines: 9216 bytes, nothing power-of-two
        // except the line. The flat MRU-first array with div/mod indexing
        // must behave exactly like the textbook per-set LRU list.
        let config = CacheConfig {
            size: Some(48 * 3 * 64),
            assoc: 3,
            line: 64,
        };
        let mut cache = Cache::new(config);
        assert!(cache.shifts.is_none(), "48 sets fall back to division");
        let mut reference: Vec<Vec<u64>> = vec![Vec::new(); 48];
        let mut ref_stats = CacheStats::default();
        for addr in shared_trace() {
            let line = addr / 64;
            let set = &mut reference[(line % 48) as usize];
            let tag = line / 48;
            ref_stats.accesses += 1;
            let hit = match set.iter().position(|&t| t == tag) {
                Some(i) => {
                    let t = set.remove(i);
                    set.insert(0, t);
                    true
                }
                None => {
                    ref_stats.misses += 1;
                    set.insert(0, tag);
                    set.truncate(3);
                    false
                }
            };
            assert_eq!(cache.access(addr), hit, "addr {addr:#x}");
        }
        assert_eq!(cache.stats(), ref_stats);
        assert!(ref_stats.misses > 1000, "non-pow2 geometry thrashes some");
    }

    #[test]
    fn hierarchy_latencies() {
        let mut h = MemoryHierarchy::new(MemoryHierarchyConfig::default());
        // Cold: L1 miss + L2 miss.
        assert_eq!(h.ifetch(0, 4), 1 + 12 + 100);
        // Warm: L1 hit.
        assert_eq!(h.ifetch(0, 4), 1);
        // Data access to the same line: D-cache cold but L2 warm.
        assert_eq!(h.daccess(8), 1 + 12);
        assert_eq!(h.daccess(8), 1);
    }

    /// The probe-every-line formulation `ifetch` replaced: an I-cache
    /// and an L2 probed with bare [`Cache::access`] calls, one per line
    /// the fetch touches.
    struct ReferenceIfetch {
        config: MemoryHierarchyConfig,
        icache: Cache,
        l2: Cache,
    }

    impl ReferenceIfetch {
        fn new(config: MemoryHierarchyConfig) -> ReferenceIfetch {
            ReferenceIfetch {
                icache: Cache::new(config.icache),
                l2: Cache::new(config.l2),
                config,
            }
        }

        fn ifetch(&mut self, addr: u64, len: u64) -> u64 {
            let line = self.config.icache.line;
            let mut latency = self.config.l1_latency;
            for l in addr / line..=(addr + len - 1) / line {
                if !self.icache.access(l * line) {
                    latency += if self.l2.access(l * line) {
                        self.config.l2_latency
                    } else {
                        self.config.l2_latency + self.config.mem_latency
                    };
                }
            }
            latency
        }
    }

    #[test]
    fn ifetch_matches_bare_cache_probes() {
        for icache in [
            CacheConfig::of_size(8 * 1024),
            CacheConfig::of_size(32 * 1024),
            CacheConfig::perfect(),
        ] {
            let config = MemoryHierarchyConfig {
                icache,
                ..MemoryHierarchyConfig::default()
            };
            let mut h = MemoryHierarchy::new(config);
            let mut reference = ReferenceIfetch::new(config);
            let (mut straddles, mut same_line) = (0, 0);
            let mut prev_last = NO_LINE;
            let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
            let mut pc = 0x0400_0000u64;
            for i in 0..60_000u64 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Mostly straight-line runs of 2- and 4-byte items at
                // 2-byte-aligned PCs, with jumps across a 48KB footprint.
                if lcg >> 60 == 0 {
                    pc = 0x0400_0000 + (((lcg >> 20) % (48 * 1024)) & !1);
                }
                let len = if (lcg >> 40) & 3 == 0 { 2 } else { 4 };
                let (first, last) = (pc / 64, (pc + len - 1) / 64);
                straddles += usize::from(first != last);
                same_line += usize::from(first == last && first == prev_last);
                prev_last = last;
                assert_eq!(
                    h.ifetch(pc, len),
                    reference.ifetch(pc, len),
                    "{icache:?}: fetch {i} of {len} bytes at {pc:#x}"
                );
                pc += len;
                if i == 30_000 {
                    // A save → restore round trip mid-trace forgets the
                    // remembered line; the next fetch must probe.
                    let mut w = crate::snapshot::Writer::new();
                    h.save_state(&mut w);
                    let bytes = w.into_bytes();
                    let mut r = crate::snapshot::Reader::new(&bytes);
                    let state = h.read_state(&mut r).unwrap();
                    r.finish().unwrap();
                    h.apply_state(state);
                    assert_eq!(h.last_iline, NO_LINE);
                }
            }
            assert_eq!(h.icache_stats(), reference.icache.stats(), "{icache:?}");
            assert_eq!(h.l2_stats(), reference.l2.stats(), "{icache:?}");
            assert!(
                straddles > 1000,
                "{icache:?}: {straddles} straddling fetches"
            );
            assert!(
                same_line > 10_000,
                "{icache:?}: {same_line} same-line fetches"
            );
            if icache.size == Some(8 * 1024) {
                assert!(h.icache_stats().misses > 1000, "8KB I-cache should thrash");
            }
        }
    }

    #[test]
    fn line_straddling_fetch_probes_both_lines() {
        let mut h = MemoryHierarchy::new(MemoryHierarchyConfig::default());
        let lat = h.ifetch(62, 4); // touches lines 0 and 64
        assert_eq!(lat, 1 + 2 * 112);
        assert_eq!(h.icache_stats().accesses, 2);
    }
}
