//! A fast keyed content hash for in-memory tables.
//!
//! The per-row tables of the query processor (a window store's group
//! directory, a dictionary column's code table) hash short strings millions
//! of times a second and never let the hash escape — not onto the wire, not
//! into an iteration order — so they need speed and a seed, not SipHash.
//! Ring placement keeps its own stable hash (`pier-dht`).

use std::hash::{BuildHasher, Hasher};

const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The 128-bit product of `a` and `b`, folded to 64 bits.
fn fold(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

/// Hash `bytes` under `seed`, eight bytes per multiply.  Every output bit
/// depends on every input byte, so callers may index with some bits and tag
/// with others.
pub fn fold_hash(seed: u64, bytes: &[u8]) -> u64 {
    let word = |at: &[u8]| u64::from_le_bytes(at.try_into().expect("eight bytes"));
    let mut h = seed ^ (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for at in &mut words {
        h = fold(h ^ word(at), K);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        // The last eight bytes, overlapping the word before them (no
        // variable-length copy); a shorter input is its own word.
        let tail = match bytes.len().checked_sub(8) {
            Some(at) => word(&bytes[at..]),
            None => rest.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)),
        };
        h = fold(h ^ tail, K);
    }
    fold(h, K ^ seed.rotate_left(32))
}

/// [`fold_hash`] as the hasher of a std `HashMap` keyed by one string,
/// under the seed drawn when the state was made.
#[derive(Debug, Clone)]
pub struct FoldState(u64);

impl Default for FoldState {
    fn default() -> Self {
        use std::collections::hash_map::RandomState;
        FoldState(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.0)
    }
}

/// The [`Hasher`] of a [`FoldState`].
#[derive(Debug)]
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fold_hash(self.0, bytes);
    }

    /// The terminator `str` appends to keep sequences of strings
    /// prefix-free; a key that is one string has nothing to keep apart.
    fn write_u8(&mut self, _: u8) {}

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn similar_keys_spread_over_index_and_tag_bits() {
        // Dotted quads differing in one digit — the netmon group keys.
        let keys: Vec<String> = (0..4096)
            .map(|i| format!("s:10.0.{}.{}", i / 256, i % 256))
            .collect();
        let hashes: HashSet<u64> = keys.iter().map(|k| fold_hash(7, k.as_bytes())).collect();
        assert_eq!(hashes.len(), keys.len(), "no full collisions");
        // Low 12 bits as a table index: no bucket far over the mean of 1.
        let mut buckets = [0u32; 4096];
        for h in &hashes {
            buckets[(h & 4095) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n <= 8), "index bits cluster");
        // The seed re-keys, and a length change alone changes the hash.
        assert_ne!(fold_hash(1, b"s:a"), fold_hash(2, b"s:a"));
        assert_ne!(fold_hash(1, b"\0"), fold_hash(1, b"\0\0"));
    }

    #[test]
    fn a_fold_state_map_finds_by_str_and_is_keyed_per_state() {
        let mut map: std::collections::HashMap<std::sync::Arc<str>, u32, FoldState> =
            Default::default();
        map.insert("s:a".into(), 1);
        assert_eq!((map.get("s:a"), map.get("s:b")), (Some(&1), None));
        let (a, b) = (FoldState::default(), FoldState::default());
        assert_ne!(a.hash_one("s:a"), b.hash_one("s:a"));
        assert_eq!(a.hash_one("s:a"), a.clone().hash_one("s:a"));
    }
}
