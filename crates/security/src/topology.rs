//! Aggregation topologies used by the redundancy defense.
//!
//! PIER builds its aggregation trees out of the DHT's multi-hop routes
//! toward a root identifier (§3.3.3/§3.3.4): a node's parent is the next
//! hop of its route to the root, so the tree shape is determined by the
//! overlay's routing geometry.  The redundancy study of §4.1.2 asks how
//! different *dissemination and aggregation topologies* limit the influence
//! an adversary can have on the computed result.  This module constructs
//! the candidate topologies deterministically from a set of member
//! identifiers and a root key:
//!
//! * a **single tree** — the baseline PIER aggregation tree,
//! * ***k* independent trees** — the same members arranged under `k`
//!   root keys salted differently, so a node's ancestors differ from tree to
//!   tree and a single compromised aggregator cannot sit on every path, and
//! * a **multi-parent DAG** — every non-root node forwards its partial to
//!   `p` distinct parents (the "rings" construction used by synopsis
//!   diffusion), which only makes sense together with duplicate-insensitive
//!   sketches.
//!
//! Tree construction mimics the DHT geometry: a node's parent is the member
//! whose identifier most closely precedes `id/2^level`-style progressively
//! halved distance to the root, yielding the roughly-logarithmic depth the
//! paper's distribution trees exhibit.

use std::collections::BTreeMap;

/// Which aggregation topology to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// The baseline: one aggregation tree rooted at the query's root key.
    SingleTree,
    /// `k` trees with independently salted roots; each source feeds all of
    /// them and the querier combines the `k` root results.
    RedundantTrees(usize),
    /// A single leveled DAG in which every node forwards to `p` parents.
    MultiParentDag(usize),
}

fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One aggregation structure over a fixed membership: for every member the
/// list of parents its partial aggregate is forwarded to.  The root has no
/// parents.
#[derive(Debug, Clone)]
pub struct AggregationTopology {
    /// The member identifiers, sorted.
    members: Vec<u64>,
    /// The root member of this structure.
    root: u64,
    /// parents[id] = the members this member forwards to.
    parents: BTreeMap<u64, Vec<u64>>,
}

impl AggregationTopology {
    /// Build a single aggregation tree over `members` rooted at the member
    /// closest (in ring distance) to `hash(root_key, salt)`.
    ///
    /// The parent of a node is chosen the way a DHT route would: the member
    /// that halves the remaining ring distance to the root, clamped to the
    /// closest existing member.  This yields logarithmic depth and the
    /// "fan-in grows toward the root" shape of PIER's trees.
    pub fn tree(members: &[u64], root_key: u64, salt: u64) -> Self {
        assert!(!members.is_empty(), "a topology needs at least one member");
        let mut sorted: Vec<u64> = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let root_id = mix64(root_key ^ mix64(salt.wrapping_add(1)));
        let root = *sorted
            .iter()
            .min_by_key(|m| ring_distance(**m, root_id))
            .expect("non-empty");
        let mut parents: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &m in &sorted {
            if m == root {
                parents.insert(m, Vec::new());
                continue;
            }
            parents.insert(m, vec![next_hop_toward(&sorted, m, root, salt)]);
        }
        AggregationTopology {
            members: sorted,
            root,
            parents,
        }
    }

    /// Build `k` independent trees (salts `0..k`).
    pub fn redundant_trees(members: &[u64], root_key: u64, k: usize) -> Vec<Self> {
        (0..k.max(1))
            .map(|i| Self::tree(members, root_key, i as u64))
            .collect()
    }

    /// Build a multi-parent DAG in the style of synopsis diffusion's "rings":
    /// members are arranged in levels of doubling size around the root
    /// (level 0 is the root, level 1 the next two members by ring distance,
    /// level 2 the next four, …) and every member forwards its synopsis to
    /// `p` distinct members of the previous level.  Only safe to combine
    /// with duplicate-insensitive sketches, since a synopsis can reach the
    /// root along many paths.
    pub fn multi_parent_dag(members: &[u64], root_key: u64, p: usize) -> Self {
        assert!(!members.is_empty(), "a topology needs at least one member");
        let mut sorted: Vec<u64> = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let root_id = mix64(root_key ^ mix64(1));
        let mut by_distance: Vec<u64> = sorted.clone();
        by_distance.sort_by_key(|m| ring_distance(*m, root_id));
        let root = by_distance[0];
        // level(rank) = floor(log2(rank + 1)): sizes 1, 2, 4, 8, …
        let level_of = |rank: usize| (usize::BITS - 1 - (rank + 1).leading_zeros()) as usize;
        let mut parents: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (rank, &m) in by_distance.iter().enumerate() {
            if rank == 0 {
                parents.insert(m, Vec::new());
                continue;
            }
            let level = level_of(rank);
            // The previous ring: ranks [2^(level-1) - 1, 2^level - 1).
            let ring_start = (1usize << (level - 1)) - 1;
            let ring_end = ((1usize << level) - 1).min(by_distance.len());
            let ring = &by_distance[ring_start..ring_end];
            // Deterministically pick min(p, |ring|) *distinct* parents spread
            // across the previous ring.
            let want = p.max(1).min(ring.len());
            let base = (mix64(m) as usize) % ring.len();
            let ps: Vec<u64> = (0..want).map(|j| ring[(base + j) % ring.len()]).collect();
            parents.insert(m, ps);
        }
        AggregationTopology {
            members: sorted,
            root,
            parents,
        }
    }

    /// Build the topology described by `kind`; redundant trees are returned
    /// as several structures.
    pub fn build(kind: TopologyKind, members: &[u64], root_key: u64) -> Vec<Self> {
        match kind {
            TopologyKind::SingleTree => vec![Self::tree(members, root_key, 0)],
            TopologyKind::RedundantTrees(k) => Self::redundant_trees(members, root_key, k),
            TopologyKind::MultiParentDag(p) => vec![Self::multi_parent_dag(members, root_key, p)],
        }
    }

    /// The member acting as this structure's root.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// All members, sorted.
    pub fn members(&self) -> &[u64] {
        &self.members
    }

    /// The parents of `member` (empty for the root, and for unknown members).
    pub fn parents_of(&self, member: u64) -> &[u64] {
        self.parents.get(&member).map_or(&[], Vec::as_slice)
    }

    /// The depth of `member`: number of forwarding hops to reach the root
    /// along the first-parent chain.
    pub fn depth_of(&self, member: u64) -> usize {
        let mut depth = 0;
        let mut current = member;
        let mut guard = self.members.len() + 1;
        while current != self.root && guard > 0 {
            match self.parents_of(current).first() {
                Some(&p) => current = p,
                None => break,
            }
            depth += 1;
            guard -= 1;
        }
        depth
    }

    /// Maximum depth over all members.
    pub fn max_depth(&self) -> usize {
        self.members
            .iter()
            .map(|m| self.depth_of(*m))
            .max()
            .unwrap_or(0)
    }

    /// True when, with the `compromised` set of members acting maliciously
    /// (suppressing everything they relay), a contribution originating at
    /// `member` can still reach the root along some all-honest path.
    pub fn survives(&self, member: u64, compromised: &std::collections::BTreeSet<u64>) -> bool {
        if compromised.contains(&member) {
            return false; // the source itself is compromised
        }
        if member == self.root {
            return true;
        }
        // Depth-first search over honest parents.
        let mut stack = vec![member];
        let mut visited = std::collections::BTreeSet::new();
        while let Some(m) = stack.pop() {
            if m == self.root {
                return true;
            }
            if !visited.insert(m) {
                continue;
            }
            for &p in self.parents_of(m) {
                if !compromised.contains(&p) {
                    stack.push(p);
                }
            }
        }
        false
    }
}

/// Clockwise ring distance from `from` to `to` in the 64-bit identifier ring.
fn ring_distance(from: u64, to: u64) -> u64 {
    to.wrapping_sub(from)
}

/// The DHT next hop from `from` toward `root`: the classic Chord greedy
/// step — the member owning `from + 2^k`, where `2^k` is the largest
/// power-of-two step that does not overshoot the root.  Routing every member
/// toward the root this way yields the (roughly) binomial distribution /
/// aggregation trees the paper attributes to Chord-style overlays
/// (§3.3.3 footnote): the root has ~log₂(n) children whose subtrees cover
/// n/2, n/4, … of the membership.  Independent redundant trees differ by
/// their salted root choice (see [`AggregationTopology::tree`]), not by the
/// per-hop rule.
fn next_hop_toward(sorted_members: &[u64], from: u64, root: u64, _salt: u64) -> u64 {
    let distance = ring_distance(from, root);
    if distance == 0 {
        return root;
    }
    // Largest finger 2^k ≤ distance.
    let k = 63 - distance.leading_zeros();
    let target = from.wrapping_add(1u64 << k);
    // successor(target): the first member clockwise at or after the finger
    // target, excluding the node itself.
    let candidate = sorted_members
        .iter()
        .copied()
        .filter(|m| *m != from)
        .min_by_key(|m| ring_distance(target, *m))
        .unwrap_or(root);
    // Enforce forward progress: the hop must strictly reduce distance to the
    // root, otherwise go straight to the root.
    if ring_distance(candidate, root) < distance {
        candidate
    } else {
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn members(n: usize, seed: u64) -> Vec<u64> {
        (0..n as u64).map(|i| mix64(i ^ mix64(seed))).collect()
    }

    #[test]
    fn tree_has_single_root_and_everyone_reaches_it() {
        let m = members(100, 7);
        let t = AggregationTopology::tree(&m, 42, 0);
        let roots: Vec<u64> = m
            .iter()
            .filter(|x| t.parents_of(**x).is_empty())
            .copied()
            .collect();
        assert_eq!(roots, vec![t.root()]);
        for &x in t.members() {
            assert!(
                t.survives(x, &BTreeSet::new()),
                "member {x} cannot reach the root"
            );
        }
    }

    #[test]
    fn tree_depth_is_logarithmic_ish() {
        let m = members(256, 3);
        let t = AggregationTopology::tree(&m, 9, 0);
        // A path-shaped tree would have depth ~255; a DHT-like tree should be
        // well under 4·log2(n) = 32.
        assert!(t.max_depth() <= 32, "depth {} too large", t.max_depth());
    }

    #[test]
    fn redundant_trees_have_distinct_shapes() {
        let m = members(64, 11);
        let trees = AggregationTopology::redundant_trees(&m, 5, 3);
        assert_eq!(trees.len(), 3);
        // At least one member must have a different parent in different trees
        // (otherwise redundancy buys nothing).
        let differs = m.iter().any(|x| {
            let p0 = trees[0].parents_of(*x).to_vec();
            let p1 = trees[1].parents_of(*x).to_vec();
            p0 != p1
        });
        assert!(differs, "salted trees should route differently");
    }

    #[test]
    fn dag_gives_every_non_root_member_multiple_parents_when_possible() {
        let m = members(50, 2);
        let dag = AggregationTopology::multi_parent_dag(&m, 1, 2);
        let multi = m.iter().filter(|x| dag.parents_of(**x).len() >= 2).count();
        // All but the root and the single rank-1 member can have 2 parents.
        assert!(multi >= m.len() - 3, "only {multi} members have 2 parents");
        assert!(dag.parents_of(dag.root()).is_empty());
    }

    #[test]
    fn survives_respects_compromised_relays() {
        let m = members(40, 19);
        let t = AggregationTopology::tree(&m, 4, 0);
        // Compromise every direct parent of some leaf: the leaf must not
        // survive in a single tree.
        let leaf = *m
            .iter()
            .find(|x| **x != t.root() && !t.parents_of(**x).is_empty())
            .unwrap();
        let compromised: BTreeSet<u64> = t.parents_of(leaf).iter().copied().collect();
        if !compromised.contains(&t.root()) {
            assert!(!t.survives(leaf, &compromised));
        }
        // The root always survives an empty compromise set.
        assert!(t.survives(t.root(), &BTreeSet::new()));
    }

    #[test]
    fn build_dispatches_on_kind() {
        let m = members(20, 31);
        assert_eq!(
            AggregationTopology::build(TopologyKind::SingleTree, &m, 1).len(),
            1
        );
        assert_eq!(
            AggregationTopology::build(TopologyKind::RedundantTrees(4), &m, 1).len(),
            4
        );
        assert_eq!(
            AggregationTopology::build(TopologyKind::MultiParentDag(3), &m, 1).len(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_membership_panics() {
        AggregationTopology::tree(&[], 1, 0);
    }
}
