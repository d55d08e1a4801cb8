//! FxHash: the multiply-rotate hasher rustc uses for its own tables.
//!
//! Working memory and the engine hash small keys on the hot path — fact
//! handles, `TypeId`s, refraction keys, and the `u64` hash keys of URL
//! strings — where SipHash's per-call setup costs more than the probe it
//! guards. Every lookup through these maps compares the full key on a hit,
//! so a collision costs one extra compare, never a wrong match; and since
//! `RandomState` already made iteration order arbitrary per process, no
//! caller depends on it. FxHash is not DoS-resistant: keys crafted to
//! collide lengthen one bucket, which slows those probes toward the linear
//! scans the indexes replaced but never changes an answer.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (a 64-bit odd constant from rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher. Not DoS-resistant: use it only
/// for keys the process controls or that are re-verified on a hit.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` hashed with [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn fx<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_keys_hash_equal_and_distinct_keys_spread() {
        assert_eq!(fx("gsiftp://tacc/data"), fx("gsiftp://tacc/data"));
        assert_ne!(fx(&1u64), fx(&2u64));
        // Tails shorter than a word still feed the hash.
        assert_ne!(fx(&[1u8, 2, 3][..]), fx(&[1u8, 2, 4][..]));
        let mut map: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            map.insert(i, i * 2);
        }
        assert!((0..1000).all(|i| map[&i] == i * 2));
    }
}
