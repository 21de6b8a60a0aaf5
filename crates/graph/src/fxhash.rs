//! A small, fast, non-cryptographic hasher for hot integer-keyed maps.
//!
//! The LOOM pipeline keeps several per-vertex hash maps on the hot path of the
//! streaming loop (adjacency, partial assignments, window membership). The
//! standard library's SipHash is collision-resistant but slow for short
//! integer keys; the Firefox/rustc "Fx" multiply-rotate hash is the usual
//! replacement. Re-implementing it here (~30 lines) avoids pulling in an extra
//! dependency while keeping the public type aliases drop-in compatible with
//! `std::collections::HashMap` / `HashSet`.
//!
//! # Why `finish` rotates
//!
//! The table picks a key's bucket from the **low** bits of its hash, and the
//! low bits of a product depend only on the low bits of its factors: the raw
//! state `w * SEED` of a one-word key `w` has low 24 bits that are a function
//! of `w`'s low 24 bits alone. Ids that agree there — `v << 24 | c` for any
//! `v` — would all probe one chain, and a map of them degrades to a list
//! (a 16 000-element motif stream renamed that way took ×6.5 as long to
//! ingest durably as its dense twin). [`FxHasher::finish`] therefore
//! returns the state rotated left by 26,
//! as rustc-hash 2 does, which brings the well-mixed high bits of the
//! product down to where the bucket is chosen. Iteration orders follow the
//! hash; nothing may depend on them. A value that is *stored* reads
//! [`FxHasher::digest`], the unrotated state, so that how buckets are
//! chosen can change without changing what is on disk.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx hash state.
///
/// The algorithm is the classic `rustc-hash` one: for every 8-byte word `w`
/// of input, `state = (state.rotate_left(5) ^ w) * SEED`; the hash is the
/// state rotated left by 26 (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    /// The unrotated state: a digest of everything written, the same in
    /// every process. Values that are persisted — the workload fingerprint
    /// a LOOM state blob is stamped with — are read here, never through
    /// [`Hasher::finish`], whose rotation serves bucket selection.
    pub fn digest(&self) -> u64 {
        self.state
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast Fx hash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast Fx hash.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EdgeKey, VertexId};

    #[test]
    fn map_and_set_basic_operations() {
        let mut map: FxHashMap<VertexId, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            map.insert(VertexId::new(i), (i * 2) as u32);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map[&VertexId::new(500)], 1000);

        let mut set: FxHashSet<EdgeKey> = FxHashSet::default();
        set.insert(EdgeKey::new(VertexId::new(1), VertexId::new(2)));
        assert!(set.contains(&EdgeKey::new(VertexId::new(2), VertexId::new(1))));
    }

    #[test]
    fn hashes_differ_for_different_inputs() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let hash = |v: u64| build.hash_one(v);
        // Not a cryptographic guarantee, just a sanity check that we do not
        // collapse small distinct keys.
        let h: FxHashSet<u64> = (0..10_000u64).map(hash).collect();
        assert_eq!(h.len(), 10_000);
    }

    #[test]
    fn ids_that_share_their_low_bits_spread_over_the_buckets() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        // The low 12 bits pick among 4096 buckets: ids equal below bit 24
        // must still land in many of them.
        let buckets: FxHashSet<u64> = (0..4096u64)
            .map(|v| build.hash_one(VertexId::new(v << 24 | 0x5a5)) & 0xfff)
            .collect();
        assert!(buckets.len() > 2048, "{} buckets", buckets.len());
    }

    #[test]
    fn hash_is_deterministic() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let hash = |v: &str| build.hash_one(v);
        assert_eq!(hash("loom"), hash("loom"));
        assert_ne!(hash("loom"), hash("loon"));
    }
}
