//! Property-based tests for the security primitives: the invariants that
//! make the §4.1 defenses sound must hold for arbitrary inputs, not just the
//! hand-picked unit-test cases.

use pier_security::{
    sketch::{CountSketch, SumSketch},
    spot_check::{Commitment, MerkleTree, SpotChecker},
    topology::AggregationTopology,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    /// Merging duplicate-insensitive sketches is commutative, associative
    /// enough for aggregation (merge order never changes the result), and
    /// idempotent.
    #[test]
    fn count_sketch_merge_order_never_matters(
        items_a in prop::collection::vec(any::<u64>(), 0..200),
        items_b in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut a = CountSketch::new(32);
        let mut b = CountSketch::new(32);
        for i in &items_a { a.insert(*i); }
        for i in &items_b { b.insert(*i); }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        // Idempotence: merging b in twice changes nothing.
        let mut abb = ab.clone();
        abb.merge(&b);
        prop_assert_eq!(&ab, &abb);
        // Building one sketch over the concatenation gives the same bitmaps.
        let mut joint = CountSketch::new(32);
        for i in items_a.iter().chain(items_b.iter()) { joint.insert(*i); }
        prop_assert_eq!(&joint, &ab);
    }

    /// Duplicate insertions never change a sketch.
    #[test]
    fn count_sketch_is_a_set(items in prop::collection::vec(any::<u64>(), 1..100)) {
        let mut once = CountSketch::new(16);
        let mut repeated = CountSketch::new(16);
        for i in &items {
            once.insert(*i);
            repeated.insert(*i);
            repeated.insert(*i);
        }
        for i in items.iter().rev() {
            repeated.insert(*i);
        }
        prop_assert_eq!(once, repeated);
    }

    /// The sketch estimate is monotone: inserting more items never lowers it.
    #[test]
    fn count_sketch_estimate_is_monotone(
        base in prop::collection::vec(any::<u64>(), 1..100),
        extra in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        let mut s = CountSketch::new(32);
        for i in &base { s.insert(*i); }
        let before = s.estimate();
        for i in &extra { s.insert(*i); }
        prop_assert!(s.estimate() >= before - 1e-9);
    }

    /// Sum sketches tolerate duplicate delivery of whole partials.
    #[test]
    fn sum_sketch_duplicate_partials_do_not_inflate(
        values in prop::collection::vec((any::<u64>(), 0u64..64), 1..60),
    ) {
        let mut once = SumSketch::new(32, 1);
        let mut dup = SumSketch::new(32, 1);
        for (id, v) in &values {
            once.add(*id, *v);
            dup.add(*id, *v);
        }
        // Deliver every contribution a second time (a second path).
        for (id, v) in &values {
            dup.add(*id, *v);
        }
        prop_assert_eq!(once, dup);
    }

    /// Every member of every generated aggregation tree reaches the root, and
    /// depth stays within the DHT-like logarithmic bound.
    #[test]
    fn aggregation_trees_are_connected_and_shallow(
        n in 2usize..150,
        seed in any::<u64>(),
        root_key in any::<u64>(),
    ) {
        let members: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed).rotate_left(17))
            .collect();
        let tree = AggregationTopology::tree(&members, root_key, 0);
        let empty = BTreeSet::new();
        for &m in tree.members() {
            prop_assert!(tree.survives(m, &empty));
        }
        prop_assert!(tree.max_depth() <= 64);
    }

    /// Redundant trees never make suppression worse: any source that survives
    /// the single tree also survives the union of k salted trees.
    #[test]
    fn redundancy_never_hurts_survival(
        n in 4usize..80,
        seed in any::<u64>(),
        fraction in 0.0f64..0.4,
    ) {
        let members: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(seed))
            .collect();
        let single = AggregationTopology::tree(&members, 1, 0);
        let trees = AggregationTopology::redundant_trees(&members, 1, 3);
        let bad_count = ((n as f64) * fraction) as usize;
        let compromised: BTreeSet<u64> = members.iter().copied().take(bad_count).collect();
        for &m in single.members() {
            if compromised.contains(&m) {
                continue;
            }
            let survives_single = single.survives(m, &compromised);
            let survives_any = trees.iter().any(|t| t.survives(m, &compromised));
            // trees[0] is the same construction as `single` (salt 0), so
            // survival can only improve.
            prop_assert!(!survives_single || survives_any);
        }
    }

    /// Merkle inclusion proofs verify for every leaf of every tree, and stop
    /// verifying if the committed value is altered.
    #[test]
    fn merkle_proofs_verify_and_detect_tampering(
        leaves in prop::collection::vec((any::<u64>(), -1000i64..1000), 1..64),
        bump in 1i64..50,
    ) {
        let tree = MerkleTree::build(leaves.clone());
        let root = tree.root();
        for i in 0..leaves.len() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(MerkleTree::verify(root, &proof));
            let mut bad = proof.clone();
            bad.leaf.1 += bump;
            prop_assert!(!MerkleTree::verify(root, &bad));
        }
    }

    /// An honest aggregator always passes spot checks, for any inputs and any
    /// sampling seed.
    #[test]
    fn honest_commitments_always_pass(
        inputs in prop::collection::vec((1u64..10_000, 0i64..1_000), 1..80),
        sample in 1usize..20,
        seed in any::<u64>(),
    ) {
        // Deduplicate sources: ground truth has one value per source.
        let mut seen = BTreeSet::new();
        let inputs: Vec<(u64, i64)> = inputs
            .into_iter()
            .filter(|(s, _)| seen.insert(*s))
            .collect();
        let (commitment, tree) = Commitment::honest(9, &inputs);
        let legitimate: BTreeSet<u64> = inputs.iter().map(|(s, _)| *s).collect();
        let checker = SpotChecker::new(sample, seed);
        prop_assert_eq!(
            checker.check(&commitment, &tree, &inputs, &legitimate),
            pier_security::spot_check::CheckOutcome::Consistent
        );
    }
}
