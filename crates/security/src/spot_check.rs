//! Spot-checking and early commitment (§4.1.2 "Spot-checking and Early
//! Commitment").
//!
//! The defense the paper adopts from the SIA work \[55\]: an aggregator first
//! **commits** to the exact set of inputs it aggregated by publishing the
//! root of an authenticated data structure (a Merkle tree) together with its
//! result; the client then **spot-checks** by sampling a few inputs directly
//! from their sources and demanding inclusion proofs against the committed
//! root.  Because the commitment precedes the checks, a cheating aggregator
//! cannot "cover its tracks after the fact": it either committed to the
//! inputs it really used (and any omission or alteration shows up in the
//! sampled proofs) or its recomputed aggregate over the committed leaves
//! disagrees with the result it reported.
//!
//! Three checks from the paper are implemented by [`SpotChecker`]:
//!
//! 1. *node-level correctness*: the committed leaves really do sum to the
//!    reported partial result,
//! 2. *inclusion*: a sampled source's value is present in the commitment,
//! 3. *legitimacy*: every committed leaf names a source that exists (no
//!    fabricated inputs).
//!
//! The hash is the workspace's deterministic 64-bit mixer chain; it models
//! a collision-resistant hash well enough for protocol-logic testing while
//! keeping the crate dependency-free (a deployment would swap in SHA-256).

use std::collections::BTreeSet;

/// A 64-bit hash value used throughout the commitment scheme.
pub type HashValue = u64;

fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash of one leaf: the (source, value) pair an aggregator claims to have
/// consumed.
pub fn leaf_hash(source: u64, value: i64) -> HashValue {
    mix64(mix64(source ^ 0x1EAF) ^ (value as u64).wrapping_mul(0x9E37_79B9))
}

/// Hash of an interior node from its two children.
pub fn node_hash(left: HashValue, right: HashValue) -> HashValue {
    mix64(left.rotate_left(17) ^ mix64(right ^ 0x0DD))
}

/// A Merkle tree over the (source, value) leaves an aggregator consumed.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, levels.last() = [root]
    levels: Vec<Vec<HashValue>>,
    leaves: Vec<(u64, i64)>,
}

/// An inclusion proof: the sibling hashes along the path from a leaf to the
/// root, with the side each sibling is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// The proven (source, value) pair.
    pub leaf: (u64, i64),
    /// (sibling_hash, sibling_is_right) from the leaf level upward.
    pub path: Vec<(HashValue, bool)>,
}

impl MerkleTree {
    /// Build a tree over the given leaves (order is the aggregator's
    /// processing order and is part of the commitment).  An empty leaf set
    /// commits to the hash of "nothing".
    pub fn build(leaves: Vec<(u64, i64)>) -> Self {
        let mut levels: Vec<Vec<HashValue>> = Vec::new();
        let leaf_hashes: Vec<HashValue> = if leaves.is_empty() {
            vec![mix64(0xE111)]
        } else {
            leaves.iter().map(|(s, v)| leaf_hash(*s, *v)).collect()
        };
        levels.push(leaf_hashes);
        while levels.last().map_or(0, Vec::len) > 1 {
            let prev = levels.last().expect("at least one level");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let combined = if pair.len() == 2 {
                    node_hash(pair[0], pair[1])
                } else {
                    // Odd node is promoted by hashing with itself, a standard
                    // (if slightly wasteful) way to keep the tree binary.
                    node_hash(pair[0], pair[0])
                };
                next.push(combined);
            }
            levels.push(next);
        }
        MerkleTree { levels, leaves }
    }

    /// The committed root hash.
    pub fn root(&self) -> HashValue {
        *self
            .levels
            .last()
            .and_then(|l| l.first())
            .expect("tree always has a root")
    }

    /// Number of committed leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True when the tree commits to no inputs.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The committed leaves (the aggregator publishes these on demand).
    pub fn leaves(&self) -> &[(u64, i64)] {
        &self.leaves
    }

    /// Produce an inclusion proof for leaf `index`.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaves.len() {
            return None;
        }
        let mut path = Vec::new();
        let mut pos = index;
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sibling = if pos.is_multiple_of(2) {
                pos + 1
            } else {
                pos - 1
            };
            let sibling_hash = level.get(sibling).copied().unwrap_or(level[pos]);
            path.push((sibling_hash, pos.is_multiple_of(2)));
            pos /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            leaf: self.leaves[index],
            path,
        })
    }

    /// Verify an inclusion proof against a committed root.
    pub fn verify(root: HashValue, proof: &MerkleProof) -> bool {
        let mut hash = leaf_hash(proof.leaf.0, proof.leaf.1);
        for (sibling, sibling_is_right) in &proof.path {
            hash = if *sibling_is_right {
                node_hash(hash, *sibling)
            } else {
                node_hash(*sibling, hash)
            };
        }
        hash == root
    }
}

/// What an aggregator publishes alongside its partial result: the commitment
/// to its inputs and the result it claims they produce.
#[derive(Debug, Clone, PartialEq)]
pub struct Commitment {
    /// The aggregator's overlay identifier.
    pub aggregator: u64,
    /// Merkle root over the consumed (source, value) leaves.
    pub root: HashValue,
    /// Number of leaves committed to.
    pub leaf_count: usize,
    /// The SUM the aggregator claims the committed leaves produce.
    pub claimed_sum: i64,
}

impl Commitment {
    /// Build the commitment an honest aggregator would publish for `inputs`.
    pub fn honest(aggregator: u64, inputs: &[(u64, i64)]) -> (Commitment, MerkleTree) {
        let tree = MerkleTree::build(inputs.to_vec());
        let claimed_sum = inputs.iter().map(|(_, v)| *v).sum();
        (
            Commitment {
                aggregator,
                root: tree.root(),
                leaf_count: inputs.len(),
                claimed_sum,
            },
            tree,
        )
    }
}

/// The verdict of a spot check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Every sampled check passed.
    Consistent,
    /// The committed leaves do not reproduce the claimed result.
    SumMismatch,
    /// A sampled source's true value is missing from (or altered in) the
    /// commitment.
    MissingInput {
        /// The source whose contribution was suppressed or altered.
        source: u64,
    },
    /// A committed leaf names a source that does not exist (fabricated
    /// input).
    IllegitimateInput {
        /// The fabricated source identifier.
        source: u64,
    },
    /// An inclusion proof failed verification.
    BadProof,
}

/// The client-side verifier.  It samples `sample_size` sources per check
/// using a deterministic seed so experiments replay.
#[derive(Debug, Clone)]
pub struct SpotChecker {
    sample_size: usize,
    seed: u64,
}

impl SpotChecker {
    /// Create a checker that samples `sample_size` sources per verification.
    pub fn new(sample_size: usize, seed: u64) -> Self {
        SpotChecker {
            sample_size: sample_size.max(1),
            seed,
        }
    }

    /// Deterministically sample up to `sample_size` indices out of `n`.
    fn sample(&self, n: usize) -> Vec<usize> {
        if n == 0 {
            return Vec::new();
        }
        let mut picked = BTreeSet::new();
        let mut state = mix64(self.seed ^ n as u64);
        while picked.len() < self.sample_size.min(n) {
            state = mix64(state);
            picked.insert((state % n as u64) as usize);
        }
        picked.into_iter().collect()
    }

    /// Verify an aggregator's commitment.
    ///
    /// * `commitment` / `tree` — what the aggregator published (the tree is
    ///   revealed lazily; a real deployment transfers only the sampled
    ///   proofs).
    /// * `ground_truth` — the true (source, value) pairs, obtained by the
    ///   client contacting the sampled sources directly.
    /// * `legitimate_sources` — the set of sources that exist (from the
    ///   query's dissemination membership).
    pub fn check(
        &self,
        commitment: &Commitment,
        tree: &MerkleTree,
        ground_truth: &[(u64, i64)],
        legitimate_sources: &BTreeSet<u64>,
    ) -> CheckOutcome {
        // 1. Recompute the claimed result from the committed leaves.
        let recomputed: i64 = tree.leaves().iter().map(|(_, v)| *v).sum();
        if recomputed != commitment.claimed_sum || tree.root() != commitment.root {
            return CheckOutcome::SumMismatch;
        }
        // 2. Sampled inclusion checks against sources contacted directly.
        for idx in self.sample(ground_truth.len()) {
            let (source, true_value) = ground_truth[idx];
            match tree.leaves().iter().position(|(s, _)| *s == source) {
                None => return CheckOutcome::MissingInput { source },
                Some(leaf_idx) => {
                    let leaf = tree.leaves()[leaf_idx];
                    if leaf.1 != true_value {
                        return CheckOutcome::MissingInput { source };
                    }
                    let proof = tree.prove(leaf_idx).expect("index in range");
                    if !MerkleTree::verify(commitment.root, &proof) {
                        return CheckOutcome::BadProof;
                    }
                }
            }
        }
        // 3. Sampled legitimacy checks over the committed leaves.
        for idx in self.sample(tree.len()) {
            let (source, _) = tree.leaves()[idx];
            if !legitimate_sources.contains(&source) {
                return CheckOutcome::IllegitimateInput { source };
            }
        }
        CheckOutcome::Consistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: usize) -> Vec<(u64, i64)> {
        (0..n as u64).map(|i| (i + 1, (i as i64 % 7) + 1)).collect()
    }

    #[test]
    fn inclusion_proofs_verify_against_the_root() {
        let tree = MerkleTree::build(inputs(13));
        let root = tree.root();
        for i in 0..13 {
            let proof = tree.prove(i).unwrap();
            assert!(MerkleTree::verify(root, &proof), "leaf {i} must verify");
        }
        assert!(tree.prove(13).is_none());
    }

    #[test]
    fn tampered_leaf_or_wrong_root_fails_verification() {
        let tree = MerkleTree::build(inputs(8));
        let root = tree.root();
        let mut proof = tree.prove(3).unwrap();
        proof.leaf.1 += 1;
        assert!(!MerkleTree::verify(root, &proof));
        let good = tree.prove(3).unwrap();
        assert!(!MerkleTree::verify(root ^ 1, &good));
    }

    #[test]
    fn empty_and_single_leaf_trees_are_well_formed() {
        let empty = MerkleTree::build(vec![]);
        assert!(empty.is_empty());
        let single = MerkleTree::build(vec![(9, 5)]);
        assert_eq!(single.len(), 1);
        let proof = single.prove(0).unwrap();
        assert!(MerkleTree::verify(single.root(), &proof));
    }

    #[test]
    fn honest_aggregator_passes_spot_checks() {
        let data = inputs(50);
        let (commitment, tree) = Commitment::honest(77, &data);
        let legitimate: BTreeSet<u64> = data.iter().map(|(s, _)| *s).collect();
        let checker = SpotChecker::new(8, 42);
        assert_eq!(
            checker.check(&commitment, &tree, &data, &legitimate),
            CheckOutcome::Consistent
        );
    }

    #[test]
    fn suppressed_input_is_detected() {
        let data = inputs(40);
        // The aggregator drops the first 10 sources before committing.
        let used: Vec<(u64, i64)> = data[10..].to_vec();
        let (commitment, tree) = Commitment::honest(77, &used);
        let legitimate: BTreeSet<u64> = data.iter().map(|(s, _)| *s).collect();
        // With a large enough sample the dropped sources are hit.
        let checker = SpotChecker::new(20, 7);
        match checker.check(&commitment, &tree, &data, &legitimate) {
            CheckOutcome::MissingInput { source } => assert!(source <= 10),
            other => panic!("expected MissingInput, got {other:?}"),
        }
    }

    #[test]
    fn inflated_result_is_detected_as_sum_mismatch() {
        let data = inputs(20);
        let (mut commitment, tree) = Commitment::honest(5, &data);
        commitment.claimed_sum += 100; // lie about the sum of committed leaves
        let legitimate: BTreeSet<u64> = data.iter().map(|(s, _)| *s).collect();
        let checker = SpotChecker::new(4, 3);
        assert_eq!(
            checker.check(&commitment, &tree, &data, &legitimate),
            CheckOutcome::SumMismatch
        );
    }

    #[test]
    fn fabricated_sources_are_detected() {
        let data = inputs(20);
        // The aggregator pads its inputs with sources that do not exist.
        let mut padded = data.clone();
        for i in 0..20u64 {
            padded.push((1_000 + i, 50));
        }
        let (commitment, tree) = Commitment::honest(5, &padded);
        let legitimate: BTreeSet<u64> = data.iter().map(|(s, _)| *s).collect();
        let checker = SpotChecker::new(15, 11);
        match checker.check(&commitment, &tree, &data, &legitimate) {
            CheckOutcome::IllegitimateInput { source } => assert!(source >= 1_000),
            other => panic!("expected IllegitimateInput, got {other:?}"),
        }
    }

    #[test]
    fn altered_value_is_detected() {
        let data = inputs(30);
        let mut altered = data.clone();
        altered[4].1 += 1_000; // outlier injection on a real source
        let (commitment, tree) = Commitment::honest(2, &altered);
        let legitimate: BTreeSet<u64> = data.iter().map(|(s, _)| *s).collect();
        let checker = SpotChecker::new(30, 13);
        match checker.check(&commitment, &tree, &data, &legitimate) {
            CheckOutcome::MissingInput { source } => assert_eq!(source, data[4].0),
            other => panic!("expected MissingInput (altered value), got {other:?}"),
        }
    }
}
