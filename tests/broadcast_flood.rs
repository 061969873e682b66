//! A broadcast costs at most one delivery per node, whatever the
//! distribution tree's soft state holds.
//!
//! Two layers of evidence:
//!
//! 1. the forwarding rule, on bare [`DistributionTree`]s (no simulator, no
//!    router): over any children graph — cyclic, stale, listing a node's
//!    own parent or itself — and any delivery order, every node delivers a
//!    broadcast at most once and sends it at most once along each of its
//!    edges; on a consistent tree it takes exactly n − 1 messages and
//!    reaches every node;
//! 2. the storm replay: the many-tenants churn runs that once turned a
//!    cycle in that soft state into an unbounded broadcast storm now
//!    finish, with sharing on and off.

use pier::dht::tree::TREE_CHILD_LIFETIME;
use pier::dht::{BroadcastId, Direction, DistributionTree};
use pier::harness::tenants::{many_tenants, ManyTenantsConfig};
use pier::runtime::{NodeAddr, Rng64, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;
use common::seeded;

/// Where every node stands: its tree state and its parent (next hop toward
/// the root; `None` at the root).
struct Forest {
    trees: Vec<DistributionTree>,
    parents: Vec<Option<NodeAddr>>,
}

/// What flooding one broadcast through a [`Forest`] did.
#[derive(Debug)]
struct Flood {
    /// Deliveries per node (the origin's own included).
    delivered: Vec<u32>,
    /// Every hop sent, `(from, to)`.
    sends: Vec<(NodeAddr, NodeAddr)>,
}

/// Broadcast from `origin` at `now`, delivering the hops in flight in the
/// order `rng` picks, until none is left.
fn flood(forest: &mut Forest, origin: usize, now: SimTime, rng: &mut Rng64) -> Flood {
    let n = forest.trees.len();
    let mut delivered = vec![0u32; n];
    let mut sends = Vec::new();
    let (id, hops) = forest.trees[origin].originate(forest.parents[origin], now);
    delivered[origin] += 1;
    let from = NodeAddr(origin as u32);
    let mut in_flight: Vec<(NodeAddr, NodeAddr, Direction)> =
        hops.into_iter().map(|(to, d)| (from, to, d)).collect();
    while !in_flight.is_empty() {
        // Far past any bound: a storm fails here instead of running on.
        assert!(sends.len() <= 4 * n * n, "a storm: {} sends", sends.len());
        let pick = rng.next_below(in_flight.len() as u64) as usize;
        let (from, to, direction) = in_flight.swap_remove(pick);
        sends.push((from, to));
        let at = to.index();
        let hops = forest.trees[at].receive(id, from, direction, forest.parents[at], now);
        if let Some(hops) = hops {
            delivered[at] += 1;
            in_flight.extend(hops.into_iter().map(|(next, d)| (to, next, d)));
        }
    }
    Flood { delivered, sends }
}

/// The edges a node may send a broadcast along: its live children and its
/// parent, itself excluded.
fn neighbours(forest: &Forest, node: usize, now: SimTime) -> BTreeSet<NodeAddr> {
    let me = NodeAddr(node as u32);
    let mut out: BTreeSet<NodeAddr> = forest.trees[node].children(now).collect();
    out.extend(forest.parents[node]);
    out.remove(&me);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any children graph: each node lists arbitrary children — itself,
    /// its parent, nodes that list it back — some of them stale (their
    /// announcement expired), and has an arbitrary parent.  Every node
    /// delivers at most once, and sends at most once along each edge.
    #[test]
    fn any_children_graph_costs_at_most_one_delivery_per_node(
        nodes in proptest::collection::vec(
            (proptest::collection::vec((0u32..24, any::<bool>()), 0..6), 0u32..26),
            1..24,
        ),
        origin in 0usize..24,
        order_seed: u64,
    ) {
        let n = nodes.len() as u32;
        let now = TREE_CHILD_LIFETIME + 10;
        let mut forest = Forest { trees: Vec::new(), parents: Vec::new() };
        for (i, (children, parent)) in nodes.iter().enumerate() {
            let mut tree = DistributionTree::new(NodeAddr(i as u32));
            for (child, stale) in children {
                // A stale child announced itself too long ago.
                tree.join(NodeAddr(child % n), if *stale { 0 } else { now });
            }
            forest.trees.push(tree);
            // Past the node count: this node believes it is the root.
            forest.parents.push((*parent < n).then_some(NodeAddr(*parent)));
        }
        let origin = origin % nodes.len();
        let mut rng = Rng64::new(seeded(order_seed));
        let out = flood(&mut forest, origin, now, &mut rng);
        for (node, count) in out.delivered.iter().enumerate() {
            prop_assert!(*count <= 1, "node {} delivered {} times", node, count);
        }
        let mut edges = BTreeSet::new();
        for (from, to) in &out.sends {
            prop_assert!(
                neighbours(&forest, from.index(), now).contains(to),
                "{} sent to {}, neither a live child nor its parent", from, to
            );
            prop_assert!(edges.insert((*from, *to)), "{} sent to {} twice", from, to);
        }
        let bound: usize = (0..nodes.len()).map(|v| neighbours(&forest, v, now).len()).sum();
        prop_assert!(out.sends.len() <= bound);
    }

    /// A consistent tree — every node's children are exactly the nodes
    /// whose parent it is — is crossed in exactly n − 1 messages from any
    /// origin, in any delivery order, and every node delivers once.
    #[test]
    fn a_consistent_tree_takes_n_minus_one_messages_from_any_origin(
        attach in proptest::collection::vec(any::<u64>(), 0..40),
        origin in 0usize..41,
        order_seed: u64,
    ) {
        let n = attach.len() + 1;
        let now = 1;
        let mut forest = Forest {
            trees: (0..n).map(|i| DistributionTree::new(NodeAddr(i as u32))).collect(),
            parents: vec![None; n],
        };
        // Node i + 1 hangs under one of the nodes before it: node 0 roots.
        for (i, a) in attach.iter().enumerate() {
            let parent = (a % (i as u64 + 1)) as usize;
            forest.parents[i + 1] = Some(NodeAddr(parent as u32));
            forest.trees[parent].join(NodeAddr(i as u32 + 1), now);
        }
        let mut rng = Rng64::new(seeded(order_seed));
        let out = flood(&mut forest, origin % n, now, &mut rng);
        prop_assert_eq!(out.delivered, vec![1; n]);
        prop_assert_eq!(out.sends.len(), n - 1);
        // A second broadcast from the same origin is a new one.
        let again = flood(&mut forest, origin % n, now, &mut rng);
        prop_assert_eq!(again.sends.len(), n - 1);
    }
}

#[test]
fn a_cycle_in_the_children_graph_is_crossed_once() {
    // The shape of the recorded storm: 0 → 7 → {3, 4, 5, 9, 10}, 9 → 0,
    // with 0 the parent of every other node.
    let mut forest = Forest {
        trees: (0..11)
            .map(|i| DistributionTree::new(NodeAddr(i)))
            .collect(),
        parents: (0..11).map(|i| (i != 0).then_some(NodeAddr(0))).collect(),
    };
    let edges = [(0, 7), (7, 3), (7, 4), (7, 5), (7, 9), (7, 10), (9, 0)];
    for (parent, child) in edges {
        forest.trees[parent].join(NodeAddr(child as u32), 0);
    }
    let out = flood(&mut forest, 4, 0, &mut Rng64::new(1));
    assert_eq!(out.delivered, vec![1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1]);
    // 4 → 0 up, 0 → 7, 7 → {3, 4, 5, 9, 10}: the copy back to 4 is
    // dropped there, and 9 sends nothing to 0, its parent.
    assert_eq!(out.sends.len(), 7, "{:?}", out.sends);
    let id = BroadcastId {
        origin: NodeAddr(4),
        seq: 1,
    };
    // Every node that saw it drops any later arrival.
    for node in [0, 3, 4, 5, 7, 9, 10] {
        let up = forest.trees[node].receive(id, NodeAddr(1), Direction::Up, None, 0);
        assert_eq!(up, None, "node {node} took it twice");
    }
}

/// The replay of ROADMAP item 1's storm: ten nodes, twelve tenants, two
/// killed and two booted at 6 s.  At seeds 3 and 90 the tree's soft state
/// held a cycle after the churn, and a broadcast around it never finished.
#[test]
fn the_churn_storm_seeds_finish_with_sharing_on_and_off() {
    for seed in [3, 90] {
        for sharing in [true, false] {
            let mut cfg = ManyTenantsConfig::new(10, 12, 28, seed);
            cfg.churn = Some((6, 2, 2));
            cfg.sharing = sharing;
            let outcome = many_tenants(&cfg);
            assert!(outcome.churn_at.is_some(), "seed {seed}: the churn fired");
            let served = outcome.tenants.iter().filter(|t| !t.windows.is_empty());
            assert_eq!(
                served.count(),
                12,
                "seed {seed}, sharing {sharing}: every tenant got windows"
            );
        }
    }
}
