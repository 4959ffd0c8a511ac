//! Content fingerprinting for configuration values.
//!
//! The experiment harness memoizes synthesized traces and simulation
//! results in a content-addressed cache; the keys are 64-bit FNV-1a
//! hashes of the *values* that determine the artifact (a workload
//! profile, a machine configuration, simulation options). Every
//! configuration type in this workspace derives `Debug` with full field
//! coverage, so hashing the `Debug` rendering is a stable, dependency-free
//! content address: two values fingerprint equal iff they render equal,
//! and any field change changes the key.

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprints any `Debug` value by hashing its rendering.
pub fn fingerprint_debug<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// Streaming FNV-1a [`std::hash::Hasher`].
///
/// The same function as [`fnv1a`], exposed through the standard hasher
/// interface so `HashMap`/`HashSet` can key on it. FNV is a fast,
/// deterministic, non-keyed hash — well suited to the small integer-keyed
/// maps in the workload generator and the executor's page table, where
/// SipHash's DoS resistance buys nothing and its per-lookup cost shows up
/// in profiles.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `BuildHasher` producing [`FnvHasher`]s; plugs into `HashMap::with_hasher`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    #[inline]
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

/// A `HashMap` keyed by the deterministic FNV-1a hasher.
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` keyed by the deterministic FNV-1a hasher.
pub type FnvHashSet<T> = std::collections::HashSet<T, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_and_repeats() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"0"));
    }

    #[test]
    fn hasher_matches_free_function() {
        use std::hash::Hasher;
        let mut h = FnvHasher::default();
        h.write(b"abc");
        assert_eq!(h.finish(), fnv1a(b"abc"));
        let mut split = FnvHasher::default();
        split.write(b"ab");
        split.write(b"c");
        assert_eq!(split.finish(), fnv1a(b"abc"));
    }

    #[test]
    fn fnv_maps_work() {
        let mut m: FnvHashMap<u64, u32> = FnvHashMap::default();
        m.insert(7, 1);
        m.insert(9, 2);
        assert_eq!(m.get(&7), Some(&1));
        let mut s: FnvHashSet<usize> = FnvHashSet::default();
        s.insert(3);
        assert!(s.contains(&3));
    }

    #[test]
    fn debug_fingerprint_tracks_value() {
        assert_eq!(
            fingerprint_debug(&(1u32, "x")),
            fingerprint_debug(&(1u32, "x"))
        );
        assert_ne!(
            fingerprint_debug(&(1u32, "x")),
            fingerprint_debug(&(2u32, "x"))
        );
    }
}
