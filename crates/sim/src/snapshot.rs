//! Versioned snapshot/restore of mutable simulation state.
//!
//! A snapshot serializes *mutable state only*: the [`Machine`]'s
//! registers, resident memory pages, `(PC, DISEPC)` control point,
//! in-flight expansion state, instruction counters and the engine's
//! functional counters; and — for full [`Simulator`] snapshots — every
//! flat timing structure (slot allocators, ROB/RS windows,
//! register/store scoreboards, caches, branch predictor, the DISE PT/RT
//! model's residency, LRU stamps and miss counters, accumulated
//! counters).
//!
//! Immutable state is **not** serialized. The program image, the
//! production set, the dedicated dictionary and the timing configuration
//! are recorded only as content fingerprints (the same FNV-1a
//! fingerprints the predecode arena keys on — see [`crate::arena`]); the
//! caller reconstructs the scenario exactly as it would for a fresh run
//! and restore verifies the fingerprints before injecting anything.
//! Caches of pure derived state — the predecode table and the engine's
//! expansion cache — are not recorded: the restore target keeps its own,
//! and both are bit-identity-neutral by construction.
//!
//! The correctness contract, enforced by `tests/snapshot_resume.rs`:
//! snapshot → restore → run is byte-identical to the uninterrupted run
//! in final registers, memory, name-sorted telemetry export and
//! suspension `(PC, DISEPC)` state — including snapshots taken
//! mid-expansion while suspended inside a macro body.
//!
//! ## Format
//!
//! Little-endian throughout. A 4-byte magic (`DSNP`), a `u32` format
//! version ([`SNAPSHOT_VERSION`]), a kind byte (machine / simulator),
//! the fingerprint block, then the mutable-state sections. Any version
//! or fingerprint mismatch fails with an error naming the expected and
//! found values; truncated input fails with the byte offset.

use crate::machine::Machine;
use crate::pipeline::Simulator;
use crate::{Result, SimError};

/// File magic: "DSNP" (DISE snapshot).
pub(crate) const MAGIC: [u8; 4] = *b"DSNP";

/// Current snapshot format version. Bump on any layout change; readers
/// reject every version they were not built for.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Kind byte: functional-machine snapshot.
pub(crate) const KIND_MACHINE: u8 = 0;
/// Kind byte: full timing-simulator snapshot.
pub(crate) const KIND_SIMULATOR: u8 = 1;

// ---------------------------------------------------------------------
// Byte-level writer/reader
// ---------------------------------------------------------------------

/// Little-endian byte sink for snapshot sections.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Writer {
        Writer::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Bounds-checked little-endian reader; every read past the end fails
/// with the offset, so corrupt/truncated snapshots produce an actionable
/// error instead of a panic.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(SimError::Snapshot(format!(
                "snapshot truncated: needed {n} bytes at offset {} but only {} remain",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SimError::Snapshot(format!(
                "snapshot corrupt: boolean byte {other} at offset {}",
                self.pos - 1
            ))),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// A length prefix that must be satisfiable by the remaining bytes
    /// (guards against allocating from a corrupt length field).
    pub(crate) fn len_prefix(&mut self, elem_size: usize) -> Result<usize> {
        let n = self.u64()? as usize;
        let remaining = self.buf.len() - self.pos;
        if elem_size > 0 && n > remaining / elem_size {
            return Err(SimError::Snapshot(format!(
                "snapshot corrupt: length {n} at offset {} exceeds the {} remaining bytes",
                self.pos - 8,
                remaining
            )));
        }
        Ok(n)
    }

    /// Fails unless every byte has been consumed — trailing garbage means
    /// the snapshot and reader disagree about the layout.
    pub(crate) fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(SimError::Snapshot(format!(
                "snapshot has {} trailing bytes after the final section",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------

pub(crate) fn write_header(w: &mut Writer, kind: u8) {
    w.bytes(&MAGIC);
    w.u32(SNAPSHOT_VERSION);
    w.u8(kind);
}

pub(crate) fn read_header(r: &mut Reader<'_>, want_kind: u8) -> Result<()> {
    let magic = r.bytes(4)?;
    if magic != MAGIC {
        return Err(SimError::Snapshot(format!(
            "not a DISE snapshot: magic {magic:02x?}, expected {MAGIC:02x?} (\"DSNP\")"
        )));
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SimError::Snapshot(format!(
            "unsupported snapshot format version {version}: this build reads version \
             {SNAPSHOT_VERSION} only"
        )));
    }
    let kind = r.u8()?;
    if kind != want_kind {
        let name = |k| match k {
            KIND_MACHINE => "a functional-machine snapshot",
            KIND_SIMULATOR => "a timing-simulator snapshot",
            _ => "an unknown snapshot kind",
        };
        return Err(SimError::Snapshot(format!(
            "snapshot kind mismatch: the file holds {} (kind {kind}) but the caller asked to \
             restore {} (kind {want_kind})",
            name(kind),
            name(want_kind)
        )));
    }
    Ok(())
}

/// Compares a recorded fingerprint against the restore target's,
/// producing the error the acceptance contract requires: it names what
/// diverged and both values.
pub(crate) fn check_fingerprint(what: &str, snapshot: u64, target: u64) -> Result<()> {
    if snapshot != target {
        return Err(SimError::Snapshot(format!(
            "{what} fingerprint mismatch: snapshot was taken against {snapshot:#018x} but the \
             restore target resolves to {target:#018x}; reconstruct the identical scenario \
             (same {what}) before restoring"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Serializes a functional machine's mutable state.
///
/// The bytes are also the canonical *final-state digest*: two machines
/// with byte-equal snapshots have identical registers, memory,
/// `(PC, DISEPC)` suspension state and counters — the differential suite
/// compares resumed and uninterrupted runs this way.
pub fn save_machine(m: &Machine) -> Vec<u8> {
    let mut w = Writer::new();
    write_header(&mut w, KIND_MACHINE);
    m.save_state(&mut w);
    w.into_bytes()
}

/// Restores a functional machine's mutable state from [`save_machine`]
/// bytes into `m`, which the caller must have constructed exactly as for
/// a fresh run of the same scenario: same program, same attached engine
/// (same production set and engine configuration), same dedicated
/// dictionary. The functional speed knobs (`MachineConfig::fast_path`,
/// `EngineConfig::fast_path`, frontend sharing) may differ — they are
/// bit-identity-neutral by construction.
///
/// # Errors
///
/// Fails without mutating `m` on a bad magic/version/kind, truncated
/// bytes, or any fingerprint mismatch (program image, production set,
/// dedicated dictionary) — each error names the expected and found
/// values.
pub fn restore_machine(m: &mut Machine, bytes: &[u8]) -> Result<()> {
    let mut r = Reader::new(bytes);
    read_header(&mut r, KIND_MACHINE)?;
    let state = m.read_state(&mut r)?;
    r.finish()?;
    m.apply_state(state);
    Ok(())
}

/// Serializes a timing simulator's full mutable state (the oracle
/// machine plus every timing structure).
pub fn save_simulator(sim: &Simulator) -> Vec<u8> {
    let mut w = Writer::new();
    write_header(&mut w, KIND_SIMULATOR);
    sim.save_state(&mut w);
    w.into_bytes()
}

/// Restores a timing simulator from [`save_simulator`] bytes into `sim`,
/// which the caller must have constructed with the same [`crate::SimConfig`]
/// over a machine set up exactly as for a fresh run (see
/// [`restore_machine`] for what "exactly" requires). Telemetry knobs
/// (trace ring, watchdog, shadow oracle) are not part of the snapshot:
/// they are observability-only and excluded from the config fingerprint.
///
/// # Errors
///
/// As [`restore_machine`], plus a fingerprint check on the
/// result-affecting `SimConfig` fields.
pub fn restore_simulator(sim: &mut Simulator, bytes: &[u8]) -> Result<()> {
    let mut r = Reader::new(bytes);
    read_header(&mut r, KIND_SIMULATOR)?;
    let state = sim.read_state(&mut r)?;
    r.finish()?;
    sim.apply_state(state);
    Ok(())
}

// ---------------------------------------------------------------------
// DISE_SNAPSHOT environment setting
// ---------------------------------------------------------------------

/// Parses a `DISE_SNAPSHOT` setting: `"off"` disables checkpointing,
/// `"every:<n>"` (n ≥ 1) checkpoints every `n` dynamic instructions.
///
/// # Errors
///
/// Any other value is rejected with an actionable message.
pub fn parse_snapshot(v: &str) -> std::result::Result<Option<u64>, String> {
    if v == "off" {
        return Ok(None);
    }
    if let Some(n) = v.strip_prefix("every:") {
        match n.parse::<u64>() {
            Ok(n) if n >= 1 => return Ok(Some(n)),
            _ => {}
        }
    }
    Err(format!(
        "DISE_SNAPSHOT must be \"off\" or \"every:<n>\" with n >= 1, got {v:?}; unset it to use \
         the default (off)"
    ))
}

/// The process-wide `DISE_SNAPSHOT` default (read once): `Some(n)` to
/// checkpoint every `n` dynamic instructions, `None` when unset or
/// `off`. Panics with the [`parse_snapshot`] message on an invalid
/// setting — a silently ignored typo would disable crash-resume for
/// every run after it.
pub fn snapshot_env() -> Option<u64> {
    static ENV_GATE: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    *ENV_GATE.get_or_init(|| match std::env::var("DISE_SNAPSHOT") {
        Ok(v) => match parse_snapshot(&v) {
            Ok(every) => every,
            Err(why) => panic!("{why}"),
        },
        Err(_) => None,
    })
}

// ---------------------------------------------------------------------
// Shared codecs
// ---------------------------------------------------------------------

pub(crate) fn write_inst(w: &mut Writer, inst: &dise_isa::Inst) {
    w.u8(inst.op.number());
    w.u8(inst.ra.index() as u8);
    w.u8(inst.rb.index() as u8);
    w.u8(inst.rc.index() as u8);
    w.i64(inst.imm);
    w.bool(inst.uses_lit);
    w.bool(inst.dise_branch);
}

pub(crate) fn read_inst(r: &mut Reader<'_>) -> Result<dise_isa::Inst> {
    let op_num = r.u8()?;
    let op = dise_isa::Op::from_number(op_num).ok_or_else(|| {
        SimError::Snapshot(format!("snapshot corrupt: unknown opcode number {op_num}"))
    })?;
    let mut reg = |field: &str| -> Result<dise_isa::Reg> {
        let ix = r.u8()?;
        if ix as usize >= dise_isa::reg::NUM_REGS {
            return Err(SimError::Snapshot(format!(
                "snapshot corrupt: register index {ix} in field {field} out of range"
            )));
        }
        Ok(dise_isa::Reg::from_index(ix))
    };
    let (ra, rb, rc) = (reg("ra")?, reg("rb")?, reg("rc")?);
    Ok(dise_isa::Inst {
        op,
        ra,
        rb,
        rc,
        imm: r.i64()?,
        uses_lit: r.bool()?,
        dise_branch: r.bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_snapshot_strictly() {
        assert_eq!(parse_snapshot("off"), Ok(None));
        assert_eq!(parse_snapshot("every:1"), Ok(Some(1)));
        assert_eq!(parse_snapshot("every:250000"), Ok(Some(250_000)));
        for bad in ["", "on", "every", "every:", "every:0", "every:-3", "EVERY:5", "1000"] {
            let err = parse_snapshot(bad).unwrap_err();
            assert!(
                err.contains("DISE_SNAPSHOT") && err.contains("every:<n>"),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn reader_rejects_truncation_and_trailing_bytes() {
        let mut w = Writer::new();
        w.u64(7);
        let bytes = w.into_bytes();
        // Truncated.
        let mut r = Reader::new(&bytes[..5]);
        let err = r.u64().unwrap_err();
        assert!(matches!(&err, SimError::Snapshot(m) if m.contains("truncated")), "{err:?}");
        // Trailing garbage.
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 7);
        let err = r.finish().unwrap_err();
        assert!(matches!(&err, SimError::Snapshot(m) if m.contains("trailing")), "{err:?}");
        // Corrupt length prefix.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = r.len_prefix(8).unwrap_err();
        assert!(matches!(&err, SimError::Snapshot(m) if m.contains("length")), "{err:?}");
    }

    #[test]
    fn header_rejects_bad_magic_version_kind() {
        let mut w = Writer::new();
        write_header(&mut w, KIND_MACHINE);
        let good = w.into_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let err = read_header(&mut Reader::new(&bad_magic), KIND_MACHINE).unwrap_err();
        assert!(matches!(&err, SimError::Snapshot(m) if m.contains("magic")), "{err:?}");

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        let err = read_header(&mut Reader::new(&bad_version), KIND_MACHINE).unwrap_err();
        let current = format!("version {SNAPSHOT_VERSION}");
        assert!(
            matches!(&err, SimError::Snapshot(m)
                if m.contains("version 99") && m.contains(&current)),
            "{err:?}"
        );

        let err = read_header(&mut Reader::new(&good), KIND_SIMULATOR).unwrap_err();
        assert!(matches!(&err, SimError::Snapshot(m) if m.contains("kind")), "{err:?}");
    }

    #[test]
    fn fingerprint_errors_name_both_values() {
        let err = check_fingerprint("program image", 0xAB, 0xCD).unwrap_err();
        let SimError::Snapshot(m) = &err else {
            panic!("{err:?}")
        };
        assert!(m.contains("program image"), "{m}");
        assert!(m.contains("0x00000000000000ab"), "{m}");
        assert!(m.contains("0x00000000000000cd"), "{m}");
    }

    #[test]
    fn inst_codec_round_trips() {
        for text in [
            "stq r1, -8(r2)",
            "addq r3, #255, r5",
            "srl r2, #26, $dr1",
            "ldq r7, 16(r3)",
            "halt",
        ] {
            let inst: dise_isa::Inst = text.parse().unwrap();
            let mut w = Writer::new();
            write_inst(&mut w, &inst);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(read_inst(&mut r).unwrap(), inst, "{text}");
            r.finish().unwrap();
        }
        // A DISE-internal branch (never encodable, still serializable).
        let dise = dise_isa::Inst {
            op: dise_isa::Op::Bne,
            ra: dise_isa::Reg::from_index(20),
            rb: dise_isa::Reg::from_index(31),
            rc: dise_isa::Reg::from_index(31),
            imm: -16,
            uses_lit: false,
            dise_branch: true,
        };
        let mut w = Writer::new();
        write_inst(&mut w, &dise);
        let bytes = w.into_bytes();
        assert_eq!(read_inst(&mut Reader::new(&bytes)).unwrap(), dise);
    }
}
