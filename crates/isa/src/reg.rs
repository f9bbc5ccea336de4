//! Register names.
//!
//! The machine has 32 architectural integer registers (`r0`–`r31`, with
//! `r31` hard-wired to zero, like Alpha) and 16 DISE *dedicated registers*
//! (`$dr0`–`$dr15`). Dedicated registers are visible only to DISE
//! replacement-sequence instructions (paper §2.1): they give expansions
//! scratch space and cross-expansion persistent state without scavenging
//! application registers. Internally they are register indices 32–47.

use std::fmt;

/// Total number of register names the machine file holds (architectural +
/// DISE dedicated).
pub const NUM_REGS: usize = 48;

/// Number of architectural registers.
pub const NUM_ARCH_REGS: usize = 32;

/// Number of DISE dedicated registers.
pub const NUM_DEDICATED_REGS: usize = 16;

/// A register name: architectural `r0`–`r31` or DISE dedicated `$dr0`–`$dr15`.
///
/// ```
/// use dise_isa::Reg;
/// assert!(Reg::ZERO.is_zero());
/// assert!(Reg::dr(3).is_dedicated());
/// assert_eq!(Reg::dr(3).to_string(), "$dr3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Architectural register `r0`.
    pub const R0: Reg = Reg(0);
    /// Architectural register `r1`.
    pub const R1: Reg = Reg(1);
    /// Architectural register `r2`.
    pub const R2: Reg = Reg(2);
    /// Architectural register `r3`.
    pub const R3: Reg = Reg(3);
    /// Architectural register `r4`.
    pub const R4: Reg = Reg(4);
    /// Architectural register `r5`.
    pub const R5: Reg = Reg(5);
    /// Architectural register `r6`.
    pub const R6: Reg = Reg(6);
    /// Architectural register `r7`.
    pub const R7: Reg = Reg(7);
    /// Architectural register `r8`.
    pub const R8: Reg = Reg(8);
    /// Conventional return-address (link) register, like Alpha `ra`.
    pub const RA: Reg = Reg(26);
    /// Conventional stack pointer, like Alpha `sp`.
    pub const SP: Reg = Reg(30);
    /// The zero register: reads as 0, writes are discarded.
    pub const ZERO: Reg = Reg(31);

    /// Creates an architectural register `r<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub const fn r(n: u8) -> Reg {
        assert!(n < NUM_ARCH_REGS as u8);
        Reg(n)
    }

    /// Creates a DISE dedicated register `$dr<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    pub const fn dr(n: u8) -> Reg {
        assert!(n < NUM_DEDICATED_REGS as u8);
        Reg(NUM_ARCH_REGS as u8 + n)
    }

    /// Creates a register from a raw machine index (0–47).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 48`.
    pub const fn from_index(idx: u8) -> Reg {
        assert!(idx < NUM_REGS as u8);
        Reg(idx)
    }

    /// [`Reg::from_index`] without the range check, for the predecode
    /// table's unpack, whose indices were range-checked when packed.
    #[inline(always)]
    pub(crate) const fn from_index_unchecked(idx: u8) -> Reg {
        debug_assert!(idx < NUM_REGS as u8);
        Reg(idx)
    }

    /// The raw machine-file index (0–47).
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The 5-bit architectural register number, if this is an architectural
    /// register.
    pub const fn arch_num(self) -> Option<u8> {
        if self.0 < NUM_ARCH_REGS as u8 {
            Some(self.0)
        } else {
            None
        }
    }

    /// The dedicated-register number `n` of `$dr<n>`, if dedicated.
    pub const fn dedicated_num(self) -> Option<u8> {
        if self.0 >= NUM_ARCH_REGS as u8 {
            Some(self.0 - NUM_ARCH_REGS as u8)
        } else {
            None
        }
    }

    /// True for the hard-wired zero register `r31`.
    pub const fn is_zero(self) -> bool {
        self.0 == 31
    }

    /// True for DISE dedicated registers `$dr0`–`$dr15`.
    pub const fn is_dedicated(self) -> bool {
        self.0 >= NUM_ARCH_REGS as u8
    }

    /// True for architectural registers `r0`–`r31`.
    pub const fn is_arch(self) -> bool {
        self.0 < NUM_ARCH_REGS as u8
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dedicated_num() {
            Some(n) => write!(f, "$dr{n}"),
            None => write!(f, "r{}", self.0),
        }
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::str::FromStr for Reg {
    type Err = crate::IsaError;

    fn from_str(s: &str) -> crate::Result<Reg> {
        let bad = || crate::IsaError::Parse(format!("invalid register `{s}`"));
        if let Some(n) = s.strip_prefix("$dr") {
            let n: u8 = n.parse().map_err(|_| bad())?;
            if n < NUM_DEDICATED_REGS as u8 {
                return Ok(Reg::dr(n));
            }
            return Err(bad());
        }
        // Accept Alpha-style aliases for readability in hand-written tests.
        match s {
            "sp" => return Ok(Reg::SP),
            "ra" => return Ok(Reg::RA),
            "zero" => return Ok(Reg::ZERO),
            _ => {}
        }
        let n: u8 = s
            .strip_prefix('r')
            .ok_or_else(bad)?
            .parse()
            .map_err(|_| bad())?;
        if n < NUM_ARCH_REGS as u8 {
            Ok(Reg(n))
        } else {
            Err(bad())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_properties() {
        assert!(Reg::ZERO.is_zero());
        assert!(Reg::ZERO.is_arch());
        assert!(!Reg::ZERO.is_dedicated());
        assert_eq!(Reg::ZERO.arch_num(), Some(31));
    }

    #[test]
    fn dedicated_register_indexing() {
        let d = Reg::dr(5);
        assert!(d.is_dedicated());
        assert_eq!(d.index(), 37);
        assert_eq!(d.dedicated_num(), Some(5));
        assert_eq!(d.arch_num(), None);
    }

    #[test]
    fn display_and_parse_round_trip() {
        for i in 0..NUM_REGS as u8 {
            let r = Reg::from_index(i);
            let parsed: Reg = r.to_string().parse().unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn aliases_parse() {
        assert_eq!("sp".parse::<Reg>().unwrap(), Reg::SP);
        assert_eq!("ra".parse::<Reg>().unwrap(), Reg::RA);
        assert_eq!("zero".parse::<Reg>().unwrap(), Reg::ZERO);
    }

    #[test]
    fn bad_registers_rejected() {
        assert!("r32".parse::<Reg>().is_err());
        assert!("$dr16".parse::<Reg>().is_err());
        assert!("x3".parse::<Reg>().is_err());
        assert!("".parse::<Reg>().is_err());
    }

    #[test]
    #[should_panic]
    fn out_of_range_arch_reg_panics() {
        let _ = Reg::r(32);
    }
}
