//! Simulator telemetry: the unified stats registry, the pipeline event
//! trace, and dump-on-anomaly reports.
//!
//! Three cooperating pieces (see DESIGN.md §9):
//!
//! * [`StatsRegistry`] — a flat, name-sorted map of typed counters
//!   (`sim.cycles`, `l1i.misses`, `bpred.mispredicts`,
//!   `engine.expansions`, …). Every component of the timing model
//!   registers its counters under a fixed prefix, and the registry
//!   exports them as stable-ordered text or JSON: byte-identical for
//!   identical runs, regardless of job count or cache warmth (the figure
//!   harness asserts this). The existing `SimStats`/`CacheStats`/
//!   `BpredStats`/`EngineStats` structs remain the source-compatible
//!   views; the registry is assembled from them, never the other way
//!   around, so the hot path keeps its plain field increments.
//! * [`EventRing`] — a fixed-capacity ring of compact per-instruction
//!   pipeline events ([`TraceEvent`]): fetch, expansion, dispatch, issue,
//!   writeback, commit, redirect, and stall causes with their cycle
//!   counts. Recording costs one branch per retired instruction when
//!   disabled (`trace_last == 0`); `perfbench` runs with tracing off,
//!   so its `sim_mips` bound covers that cost.
//! * [`AnomalyReport`] — what the simulator dumps when its watchdog
//!   fires (a commit gap longer than `watchdog` cycles with a non-empty
//!   ROB), when a shadow functional oracle diverges from the primary
//!   machine, or when a run exhausts its fuel with tracing enabled: the
//!   trigger reason, ROB/RS occupancy, the registry snapshot, and the
//!   last-K-event ring contents. Reports route through the installed
//!   observability sink when one exists (`dise_obs::install` /
//!   `DISE_OBS_SINK`, as a JSONL `anomaly` record via
//!   [`AnomalyReport::json_payload`]); stderr remains the fallback, so
//!   a bare run still prints its dump.

use std::fmt;

/// One registered statistic: an exact event counter or a derived value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatValue {
    /// An exact event count.
    Count(u64),
    /// A derived floating-point value (rates, ratios).
    Value(f64),
}

impl StatValue {
    /// The value as an `f64`. Counts convert exactly: simulated event
    /// counters stay far below 2^53.
    pub fn as_f64(&self) -> f64 {
        match *self {
            StatValue::Count(v) => v as f64,
            StatValue::Value(v) => v,
        }
    }
}

impl fmt::Display for StatValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Both arms use Rust's shortest-round-trip formatting, so the
            // exported text re-parses to identical bits — the property the
            // harness cache and the byte-stability checks rely on.
            StatValue::Count(v) => write!(f, "{v}"),
            StatValue::Value(v) => write!(f, "{v}"),
        }
    }
}

/// A name-sorted registry of statistics.
///
/// Names are dot-separated, component-prefixed, and unique: `sim.*`
/// (pipeline), `l1i.*`/`l1d.*`/`l2.*` (caches), `bpred.*` (branch
/// predictor), `engine.*` (DISE engine). Insertion keeps the entries
/// sorted, so every export is stable-ordered by construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsRegistry {
    entries: Vec<(String, StatValue)>,
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> StatsRegistry {
        StatsRegistry::default()
    }

    /// Registers (or replaces) a statistic.
    pub fn set(&mut self, name: impl Into<String>, value: StatValue) {
        let name = name.into();
        debug_assert!(
            !name.contains(['\n', '"', '\\', ' ']),
            "stat names are single-line, space-free and JSON-safe: {name:?}"
        );
        match self
            .entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name.as_str()))
        {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (name, value)),
        }
    }

    /// Registers an exact event counter.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.set(name, StatValue::Count(value));
    }

    /// Registers a derived floating-point value.
    pub fn value(&mut self, name: impl Into<String>, value: f64) {
        self.set(name, StatValue::Value(value));
    }

    /// Looks a statistic up by exact name.
    pub fn get(&self, name: &str) -> Option<StatValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// All entries, sorted by name.
    pub fn entries(&self) -> &[(String, StatValue)] {
        &self.entries
    }

    /// Plain-text export: one `name value` line per entry, name-sorted.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }

    /// Compact single-line JSON export: the same flat object as
    /// [`StatsRegistry::to_json`] with no whitespace — embeddable in a
    /// JSONL record field. Deterministic byte-for-byte for identical
    /// runs.
    pub fn to_json_compact(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push('}');
        out
    }

    /// JSON export: one flat object, keys name-sorted, values numeric.
    /// Deterministic byte-for-byte for identical runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  \"");
            out.push_str(name);
            out.push_str("\": ");
            out.push_str(&value.to_string());
        }
        out.push_str("\n}\n");
        out
    }
}

/// A log2-bucketed histogram of non-negative integer samples
/// (durations in ms/µs, queue depths, gaps).
///
/// Bucket `b` holds samples whose floor(log2) is `b - 1`: bucket 0 is
/// exactly the value 0, bucket 1 holds {1}, bucket 2 holds {2, 3},
/// bucket 3 holds {4..8), and so on up to bucket 64 (values ≥ 2^63).
/// Recording is two instructions (leading-zero count + increment), so
/// live services can feed one per event without measurable cost. The
/// JSON export is sparse — `[bucket, count]` pairs for occupied buckets
/// only — plus exact count/sum/min/max, and [`Log2Histogram::export_into`]
/// projects the summary into a [`StatsRegistry`] under a prefix.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value lands in.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Log2Histogram::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any were recorded.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any were recorded.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Occupied buckets as `(bucket index, count)`, ascending.
    pub fn occupied(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
            .collect()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, &c) in other.buckets.iter().enumerate() {
            self.buckets[b] += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Compact single-line JSON: exact summary plus sparse
    /// `[bucket, count]` pairs. `{"count":0,"sum":0,"buckets":[]}` when
    /// empty (min/max are omitted — they have no value yet).
    pub fn to_json_compact(&self) -> String {
        let mut out = format!("{{\"count\":{},\"sum\":{}", self.count, self.sum);
        if self.count > 0 {
            out.push_str(&format!(",\"min\":{},\"max\":{}", self.min, self.max));
        }
        out.push_str(",\"buckets\":[");
        for (i, (b, c)) in self.occupied().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{b},{c}]"));
        }
        out.push_str("]}");
        out
    }

    /// Projects the summary into `registry` as `<prefix>.count`,
    /// `<prefix>.sum`, `<prefix>.min`, `<prefix>.max` plus one
    /// `<prefix>.b<NN>` counter per occupied bucket.
    pub fn export_into(&self, registry: &mut StatsRegistry, prefix: &str) {
        registry.count(format!("{prefix}.count"), self.count);
        registry.count(format!("{prefix}.sum"), self.sum);
        if self.count > 0 {
            registry.count(format!("{prefix}.min"), self.min);
            registry.count(format!("{prefix}.max"), self.max);
        }
        for (b, c) in self.occupied() {
            registry.count(format!("{prefix}.b{b:02}"), c);
        }
    }
}

/// Why fetch stalled at a traced instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// DISE PT/RT miss: pipeline flush plus fill penalty.
    DiseMiss,
    /// Reorder buffer full: fetch throttled until the oldest entry
    /// commits.
    RobFull,
    /// Reservation stations full: fetch throttled until one issues.
    RsFull,
    /// I-cache miss: fetch waits for the fill.
    IcacheMiss,
    /// Stall-per-expansion engine placement: one bubble per expansion.
    ExpandBubble,
}

/// What happened at a traced pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// An application fetch of `size` bytes began.
    Fetch {
        /// Fetched bytes (4, or 2 for a short codeword).
        size: u8,
    },
    /// A DISE expansion of `len` replacement instructions began.
    Expand {
        /// Replacement-sequence length.
        len: u8,
    },
    /// The instruction entered the out-of-order core.
    Dispatch,
    /// The instruction issued to a functional unit.
    Issue,
    /// The instruction completed execution (wrote back).
    Writeback,
    /// The instruction committed.
    Commit,
    /// The instruction redirected fetch (misprediction or unpredicted
    /// taken branch).
    Redirect,
    /// Fetch stalled at this instruction.
    Stall {
        /// Why.
        cause: StallCause,
        /// Stall length in cycles.
        cycles: u64,
    },
}

/// One compact pipeline event: which dynamic instruction, where it was,
/// what happened, and in which cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event lands in.
    pub cycle: u64,
    /// Dynamic instruction sequence number (0-based).
    pub seq: u64,
    /// Application PC (the trigger's PC inside replacement sequences).
    pub pc: u64,
    /// Offset within the replacement sequence (0 outside one).
    pub disepc: u8,
    /// The event.
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{:<10} seq {:<9} pc {:#010x}+{:<3} ",
            self.cycle, self.seq, self.pc, self.disepc
        )?;
        match self.kind {
            TraceKind::Fetch { size } => write!(f, "fetch     size={size}"),
            TraceKind::Expand { len } => write!(f, "expand    len={len}"),
            TraceKind::Dispatch => f.write_str("dispatch"),
            TraceKind::Issue => f.write_str("issue"),
            TraceKind::Writeback => f.write_str("writeback"),
            TraceKind::Commit => f.write_str("commit"),
            TraceKind::Redirect => f.write_str("redirect"),
            TraceKind::Stall { cause, cycles } => {
                write!(f, "stall     cause={cause:?} cycles={cycles}")
            }
        }
    }
}

/// A fixed-capacity ring of [`TraceEvent`]s: pushes never allocate after
/// construction, and once full each push overwrites the oldest event, so
/// the ring always holds the last-K events of the run.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next slot to overwrite once the buffer is full.
    next: usize,
    total: u64,
}

impl EventRing {
    /// A ring holding the last `cap` events (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> EventRing {
        let cap = cap.max(1);
        EventRing {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            total: 0,
        }
    }

    /// Appends an event, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.next] = event;
            self.next = (self.next + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }

    /// Total events ever pushed (≥ `len`).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// Everything the simulator knows at the moment an anomaly fires,
/// formatted by `Display` as the dump the harness prints to stderr.
#[derive(Debug, Clone)]
pub struct AnomalyReport {
    /// What triggered the dump.
    pub reason: String,
    /// Dynamic instruction sequence number at the trigger.
    pub seq: u64,
    /// In-flight ROB entries at the trigger.
    pub rob_occupancy: usize,
    /// In-flight RS entries at the trigger.
    pub rs_occupancy: usize,
    /// Registry snapshot at the trigger.
    pub registry: StatsRegistry,
    /// The last-K pipeline events (empty when tracing was disabled).
    pub events: Vec<TraceEvent>,
    /// Application PC at the trigger (for oracle divergences, the
    /// divergent instruction's PC).
    pub pc: u64,
    /// The primary machine's full register file at the trigger.
    pub regs: Vec<u64>,
    /// The shadow oracle's register file at the trigger, when one was
    /// attached — diff against `regs` to locate the divergent state.
    pub shadow_regs: Option<Vec<u64>>,
    /// True when this report came from an anomaly-triggered time-travel
    /// replay (re-running the last checkpoint window with the event ring
    /// and shadow oracle armed) rather than the original detection.
    pub replay: bool,
}

impl AnomalyReport {
    /// The report as one single-line JSON object — the payload an
    /// observability sink ships (wrapped in an `anomaly` record by
    /// `dise_obs::Session::anomaly`): the trigger reason, sequence
    /// number, ROB/RS occupancy, the full registry snapshot as a flat
    /// object, and the last-K events in their `Display` form.
    pub fn json_payload(&self) -> String {
        let events: Vec<String> = self.events.iter().map(TraceEvent::to_string).collect();
        let mut rec = dise_obs::Record::new()
            .str("reason", &self.reason)
            .u64("at_seq", self.seq)
            .u64("pc", self.pc)
            .bool("replay", self.replay)
            .u64("rob_occupancy", self.rob_occupancy as u64)
            .u64("rs_occupancy", self.rs_occupancy as u64)
            .raw("stats", &self.registry.to_json_compact())
            .str_array("events", events.iter().map(String::as_str))
            .u64_array("regs", self.regs.iter().copied());
        if let Some(shadow) = &self.shadow_regs {
            rec = rec.u64_array("shadow_regs", shadow.iter().copied());
        }
        rec.finish()
    }
}

impl fmt::Display for AnomalyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.replay { " (time-travel replay)" } else { "" };
        writeln!(f, "== simulator anomaly{tag}: {} ==", self.reason)?;
        writeln!(
            f,
            "at seq {} | pc {:#x} | ROB occupancy {} | RS occupancy {}",
            self.seq, self.pc, self.rob_occupancy, self.rs_occupancy
        )?;
        writeln!(f, "-- stats registry --")?;
        f.write_str(&self.registry.to_text())?;
        if !self.regs.is_empty() {
            writeln!(f, "-- register file (primary{}) --", if self.shadow_regs.is_some() { " vs shadow, divergent only" } else { "" })?;
            match &self.shadow_regs {
                Some(shadow) => {
                    for (i, (&p, &s)) in self.regs.iter().zip(shadow).enumerate() {
                        if p != s {
                            writeln!(f, "r{i:<2} primary {p:#018x}  shadow {s:#018x}")?;
                        }
                    }
                }
                None => {
                    for (i, &p) in self.regs.iter().enumerate() {
                        if p != 0 {
                            writeln!(f, "r{i:<2} {p:#018x}")?;
                        }
                    }
                }
            }
        }
        if self.events.is_empty() {
            writeln!(f, "-- no event trace (run with tracing enabled) --")?;
        } else {
            writeln!(f, "-- last {} pipeline events --", self.events.len())?;
            for e in &self.events {
                writeln!(f, "{e}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_exports_are_name_sorted_and_stable() {
        let mut r = StatsRegistry::new();
        r.count("sim.cycles", 100);
        r.count("bpred.mispredicts", 7);
        r.value("l1i.miss_rate", 0.25);
        r.count("sim.cycles", 101); // replace, not duplicate
        assert_eq!(
            r.entries().iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["bpred.mispredicts", "l1i.miss_rate", "sim.cycles"]
        );
        assert_eq!(r.get("sim.cycles"), Some(StatValue::Count(101)));
        assert_eq!(r.get("nope"), None);
        assert_eq!(
            r.to_text(),
            "bpred.mispredicts 7\nl1i.miss_rate 0.25\nsim.cycles 101\n"
        );
        assert_eq!(
            r.to_json(),
            "{\n  \"bpred.mispredicts\": 7,\n  \"l1i.miss_rate\": 0.25,\n  \"sim.cycles\": 101\n}\n"
        );
    }

    #[test]
    fn empty_registry_json_is_valid() {
        assert_eq!(StatsRegistry::new().to_json(), "{\n}\n");
    }

    #[test]
    fn ring_keeps_the_last_k_events() {
        let ev = |seq| TraceEvent {
            cycle: seq,
            seq,
            pc: 0x1000,
            disepc: 0,
            kind: TraceKind::Commit,
        };
        let mut ring = EventRing::new(4);
        assert!(ring.is_empty());
        for s in 0..10 {
            ring.push(ev(s));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.total(), 10);
        let seqs: Vec<u64> = ring.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest-first, last K only");
    }

    #[test]
    fn ring_capacity_clamps_to_one() {
        let mut ring = EventRing::new(0);
        assert_eq!(ring.capacity(), 1);
        for s in 0..3 {
            ring.push(TraceEvent {
                cycle: s,
                seq: s,
                pc: 0,
                disepc: 0,
                kind: TraceKind::Dispatch,
            });
        }
        assert_eq!(ring.events().len(), 1);
        assert_eq!(ring.events()[0].seq, 2);
    }

    #[test]
    fn anomaly_report_formats_every_section() {
        let mut registry = StatsRegistry::new();
        registry.count("sim.cycles", 42);
        let report = AnomalyReport {
            reason: "test trigger".into(),
            seq: 9,
            rob_occupancy: 3,
            rs_occupancy: 1,
            registry,
            events: vec![TraceEvent {
                cycle: 40,
                seq: 9,
                pc: 0x0400_0000,
                disepc: 0,
                kind: TraceKind::Stall {
                    cause: StallCause::RobFull,
                    cycles: 12,
                },
            }],
            pc: 0x0400_0010,
            regs: vec![0, 7, 8],
            shadow_regs: Some(vec![0, 7, 9]),
            replay: true,
        };
        let text = report.to_string();
        assert!(text.contains("test trigger"));
        assert!(text.contains("time-travel replay"));
        assert!(text.contains("sim.cycles 42"));
        assert!(text.contains("RobFull"));
        assert!(text.contains("ROB occupancy 3"));
        assert!(text.contains("pc 0x4000010"));
        // Only the divergent register prints in the side-by-side dump.
        assert!(text.contains("r2 "), "{text}");
        assert!(!text.contains("r1 "), "{text}");
        let payload = report.json_payload();
        assert!(payload.contains("\"pc\":67108880"), "{payload}");
        assert!(payload.contains("\"replay\":true"));
        assert!(payload.contains("\"regs\":[0,7,8]"));
        assert!(payload.contains("\"shadow_regs\":[0,7,9]"));
    }

    #[test]
    fn log2_histogram_buckets_and_summary() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.to_json_compact(), "{\"count\":0,\"sum\":0,\"buckets\":[]}");
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1025);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        // 0 → b0, 1 → b1, {2,3} → b2, {4,7} → b3, 8 → b4, 1000 → b10.
        assert_eq!(
            h.occupied(),
            vec![(0, 1), (1, 1), (2, 2), (3, 2), (4, 1), (10, 1)]
        );
        assert_eq!(
            h.to_json_compact(),
            "{\"count\":8,\"sum\":1025,\"min\":0,\"max\":1000,\
             \"buckets\":[[0,1],[1,1],[2,2],[3,2],[4,1],[10,1]]}"
        );
        let mut other = Log2Histogram::new();
        other.record(1000);
        other.merge(&h);
        assert_eq!(other.count(), 9);
        assert_eq!(other.occupied().last(), Some(&(10usize, 2u64)));
        let mut reg = StatsRegistry::new();
        h.export_into(&mut reg, "serve.queue_wait_ms");
        assert_eq!(reg.get("serve.queue_wait_ms.count"), Some(StatValue::Count(8)));
        assert_eq!(reg.get("serve.queue_wait_ms.b10"), Some(StatValue::Count(1)));
        assert_eq!(reg.get("serve.queue_wait_ms.max"), Some(StatValue::Count(1000)));
    }
}
