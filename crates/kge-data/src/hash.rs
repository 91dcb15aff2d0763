//! The crate's one hasher, for maps and sets keyed by dense `u32` ids.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for keys of two or three dense `u32` ids: per id one xor, one
/// multiply by a fixed odd constant and one xorshift folding the product's
/// well-mixed high half into the low bits the table indexes with (so ids
/// that share low bits — multiples of 2^16, say — still spread). It
/// replaces the default SipHash-1-3, whose per-process random keys buy
/// flood resistance these maps do not need: ids are assigned densely by
/// this program's own vocabulary or generator, never taken from input. A
/// side effect is that iteration order is the same in every process.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u32(&mut self, id: u32) {
        let h = (self.0 ^ id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    /// Not reached by `Triple` or `(u32, u32)` keys, which hash field by
    /// field through [`Hasher::write_u32`].
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(4) {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u32(u32::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;
