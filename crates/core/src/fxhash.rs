//! A multiplicative (Fx-style) hasher for hot-path tables whose keys are
//! small and trusted: the perfect RT's `(id, base)` map, probed on every
//! replacement µop, and the compressor's selection tables, hashed
//! hundreds of thousands of times per program. SipHash's flooding
//! resistance buys nothing for either.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher: one rotate, xor and multiply per 8-byte word.
#[derive(Default, Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
