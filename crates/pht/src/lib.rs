//! # pier-pht — Prefix Hash Tree range-index substrate
//!
//! PIER's third distributed index (§3.3.3) handles *range predicates* using
//! a Prefix Hash Tree (PHT): a trie over the binary representation of keys
//! whose nodes are addressed **through the DHT** — the trie node for prefix
//! `p` is stored at `hash("pht:" + p)` — so the index inherits the DHT's
//! resilience without any extra routing machinery.
//!
//! The paper notes that PHTs "have been implemented directly on our DHT
//! codebase, we have yet to integrate them into PIER"; we mirror that state
//! faithfully: the PHT here is a complete, tested implementation over a
//! pluggable [`PhtStore`] (the DHT's put/get interface), shipped as a
//! substrate crate but not yet wired into the live query executor.
//!
//! Keys are `u64`s (attribute values are mapped onto them by the caller);
//! leaves hold at most `leaf_capacity` entries and split on overflow,
//! exactly like the published design.

use std::collections::BTreeMap;
use std::collections::HashMap;

/// Number of key bits used by the trie.
pub const KEY_BITS: u32 = 64;

/// Abstraction of the DHT used to store trie nodes: a keyed blob store.
/// The production binding stores each node under `hash("pht:" + prefix)`;
/// tests use an in-memory map.
pub trait PhtStore {
    /// Fetch the trie node stored under `prefix`, if any.
    fn load(&self, prefix: &str) -> Option<PhtNode>;
    /// Store (or overwrite) the trie node for `prefix`.
    fn store(&mut self, prefix: &str, node: PhtNode);
}

/// An in-memory [`PhtStore`], standing in for the DHT in tests and
/// single-process experiments.
#[derive(Debug, Clone, Default)]
pub struct MemoryStore {
    nodes: HashMap<String, PhtNode>,
    /// Number of store operations performed (proxy for DHT puts).
    pub puts: u64,
    /// Number of load operations performed (proxy for DHT gets).
    pub gets: u64,
}

impl PhtStore for MemoryStore {
    fn load(&self, prefix: &str) -> Option<PhtNode> {
        self.nodes.get(prefix).cloned()
    }
    fn store(&mut self, prefix: &str, node: PhtNode) {
        self.nodes.insert(prefix.to_string(), node);
    }
}

impl MemoryStore {
    /// Number of trie nodes currently stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }
    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A trie node: either an internal node (children exist for prefix+0 and
/// prefix+1) or a leaf holding key/value pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum PhtNode {
    /// Internal node; its children are addressed by extending the prefix.
    Internal,
    /// Leaf bucket of keys sharing the node's prefix.
    Leaf(BTreeMap<u64, Vec<String>>),
}

/// The Prefix Hash Tree.
#[derive(Debug)]
pub struct Pht<S: PhtStore> {
    store: S,
    leaf_capacity: usize,
}

fn bit(key: u64, i: u32) -> char {
    if key & (1 << (KEY_BITS - 1 - i)) != 0 {
        '1'
    } else {
        '0'
    }
}

fn prefix_of(key: u64, len: u32) -> String {
    (0..len).map(|i| bit(key, i)).collect()
}

impl<S: PhtStore> Pht<S> {
    /// Create a PHT over the given store with the given leaf capacity.
    pub fn new(store: S, leaf_capacity: usize) -> Self {
        let mut pht = Pht {
            store,
            leaf_capacity: leaf_capacity.max(1),
        };
        if pht.store.load("").is_none() {
            pht.store.store("", PhtNode::Leaf(BTreeMap::new()));
        }
        pht
    }

    /// Borrow the underlying store (e.g. to inspect DHT operation counts).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Find the leaf prefix responsible for `key` by walking the trie from
    /// the root.  (The published design optimises this with binary search on
    /// prefix length; linear descent keeps the logic obvious and the depth is
    /// at most `KEY_BITS`.)
    fn leaf_prefix(&self, key: u64) -> String {
        let mut len = 0;
        loop {
            let prefix = prefix_of(key, len);
            match self.store.load(&prefix) {
                Some(PhtNode::Leaf(_)) | None => return prefix,
                Some(PhtNode::Internal) => len += 1,
            }
        }
    }

    /// Insert a key with an associated value (e.g. a tuple identifier).
    pub fn insert(&mut self, key: u64, value: impl Into<String>) {
        let prefix = self.leaf_prefix(key);
        let mut bucket = match self.store.load(&prefix) {
            Some(PhtNode::Leaf(b)) => b,
            _ => BTreeMap::new(),
        };
        bucket.entry(key).or_default().push(value.into());
        if bucket.len() > self.leaf_capacity && (prefix.len() as u32) < KEY_BITS {
            // Split: the leaf becomes internal and its entries are
            // redistributed to the two child leaves.
            let mut zero = BTreeMap::new();
            let mut one = BTreeMap::new();
            for (k, v) in bucket {
                if bit(k, prefix.len() as u32) == '0' {
                    zero.insert(k, v);
                } else {
                    one.insert(k, v);
                }
            }
            self.store.store(&prefix, PhtNode::Internal);
            self.store.store(&format!("{prefix}0"), PhtNode::Leaf(zero));
            self.store.store(&format!("{prefix}1"), PhtNode::Leaf(one));
        } else {
            self.store.store(&prefix, PhtNode::Leaf(bucket));
        }
    }

    /// Exact-match lookup.
    pub fn lookup(&self, key: u64) -> Vec<String> {
        let prefix = self.leaf_prefix(key);
        match self.store.load(&prefix) {
            Some(PhtNode::Leaf(bucket)) => bucket.get(&key).cloned().unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// Range query over `[lo, hi]`, returning `(key, value)` pairs in key
    /// order.  The traversal only descends into subtrees whose prefix range
    /// intersects the query range, so cost is proportional to the answer.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        self.range_walk("", lo, hi, &mut out);
        out
    }

    fn range_walk(&self, prefix: &str, lo: u64, hi: u64, out: &mut Vec<(u64, String)>) {
        // The key range covered by this prefix.
        let (p_lo, p_hi) = prefix_bounds(prefix);
        if p_hi < lo || p_lo > hi {
            return;
        }
        match self.store.load(prefix) {
            None => {}
            Some(PhtNode::Leaf(bucket)) => {
                for (k, values) in bucket.range(lo..=hi) {
                    for v in values {
                        out.push((*k, v.clone()));
                    }
                }
            }
            Some(PhtNode::Internal) => {
                self.range_walk(&format!("{prefix}0"), lo, hi, out);
                self.range_walk(&format!("{prefix}1"), lo, hi, out);
            }
        }
    }
}

fn prefix_bounds(prefix: &str) -> (u64, u64) {
    let mut lo = 0u64;
    for (i, c) in prefix.chars().enumerate() {
        if c == '1' {
            lo |= 1 << (KEY_BITS as usize - 1 - i);
        }
    }
    let remaining = KEY_BITS as usize - prefix.len();
    let hi = if remaining == 64 {
        u64::MAX
    } else {
        lo | ((1u64 << remaining) - 1)
    };
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pht(capacity: usize) -> Pht<MemoryStore> {
        Pht::new(MemoryStore::default(), capacity)
    }

    #[test]
    fn insert_and_lookup() {
        let mut p = pht(4);
        p.insert(10, "a");
        p.insert(10, "b");
        p.insert(99, "c");
        assert_eq!(p.lookup(10), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(p.lookup(99), vec!["c".to_string()]);
        assert!(p.lookup(7).is_empty());
    }

    #[test]
    fn leaves_split_on_overflow_and_remain_searchable() {
        let mut p = pht(2);
        for k in 0..50u64 {
            p.insert(k * 1000, format!("v{k}"));
        }
        // The trie must have split many times.
        assert!(p.store().len() > 10);
        for k in 0..50u64 {
            assert_eq!(p.lookup(k * 1000), vec![format!("v{k}")], "key {k}");
        }
    }

    #[test]
    fn range_query_matches_reference_scan() {
        let mut p = pht(3);
        let keys: Vec<u64> = (0..200).map(|i| i * 37 + 5).collect();
        for &k in &keys {
            p.insert(k, format!("t{k}"));
        }
        let (lo, hi) = (500, 3000);
        let got: Vec<u64> = p.range(lo, hi).into_iter().map(|(k, _)| k).collect();
        let expected: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|k| (lo..=hi).contains(k))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn range_over_full_domain_returns_everything_in_order() {
        let mut p = pht(4);
        for k in [u64::MAX, 0, 42, 7, 1 << 63] {
            p.insert(k, format!("{k}"));
        }
        let got: Vec<u64> = p.range(0, u64::MAX).into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, vec![0, 7, 42, 1 << 63, u64::MAX]);
    }

    #[test]
    fn prefix_bounds_are_correct() {
        assert_eq!(prefix_bounds(""), (0, u64::MAX));
        assert_eq!(prefix_bounds("1"), (1 << 63, u64::MAX));
        assert_eq!(prefix_bounds("0"), (0, (1 << 63) - 1));
        let (lo, hi) = prefix_bounds("10");
        assert_eq!(lo, 1 << 63);
        assert_eq!(hi, (1 << 63) + ((1 << 62) - 1));
    }
}
