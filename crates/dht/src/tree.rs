//! The distribution tree's state and its broadcast rule (§3.3.3).
//!
//! Every node periodically announces itself to its *parent*, the first hop
//! on its route toward a well-known root identifier; the parent records the
//! sender as a child for [`TREE_CHILD_LIFETIME`].  Both halves are soft
//! state: a node's parent moves when the ring does, and nothing ever says
//! "leave", so after churn the children graph may be stale, list a node's
//! own parent, or hold a cycle.
//!
//! A broadcast is a **flood from its origin** over that graph.  The origin
//! delivers, sends the payload up to its parent and down to its children.
//! A receiver delivers; a hop travelling up goes on to the receiver's own
//! parent; every hop goes down to each child except the one it came from
//! and the receiver's parent.  On a consistent tree that crosses each of
//! its n−1 edges once, with no trip to the root first.
//!
//! What bounds the work whatever the graph holds is the broadcast's
//! identity ([`BroadcastId`]: origin address and a per-origin sequence
//! number) and a soft-state *seen-set*: a node delivers and forwards a
//! broadcast at most once and drops every later arrival of it.  A node
//! therefore sends a broadcast at most once to each child and to its
//! parent.  Seen entries expire after [`TREE_CHILD_LIFETIME`], longer than
//! any hop can stay in flight.
//!
//! Plain state, data in and effects out: [`crate::Overlay`] asks the router
//! for the parent and turns the hops into messages, tests drive the rule
//! without a simulator.

use pier_runtime::{Duration, NodeAddr, SimTime, WireSize};
use std::collections::BTreeMap;

/// Lifetime granted to a recorded tree child before it must re-join, and
/// to a seen-set entry.
pub const TREE_CHILD_LIFETIME: Duration = 30_000_000;

/// A broadcast's identity: the node it started at and that node's sequence
/// number for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BroadcastId {
    /// The originating node.
    pub origin: NodeAddr,
    /// The origin's sequence number for it: increasing, and never behind
    /// the origin's clock, so a restarted node, whose count starts over,
    /// does not reuse a number its previous life broadcast under while
    /// other nodes may still remember it.
    pub seq: u64,
}

impl WireSize for BroadcastId {
    fn wire_size(&self) -> usize {
        self.origin.wire_size() + 8
    }
}

/// Which way a broadcast hop travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Toward the root: the receiver sends it on to its own parent too.
    Up,
    /// Away from the root: the receiver sends it only to its children.
    Down,
}

/// One node's share of the distribution tree: its recorded children, the
/// broadcasts it has seen, and its own broadcast counter.
#[derive(Debug, Clone)]
pub struct DistributionTree {
    me: NodeAddr,
    /// Child → expiry.  Ordered: the fan-out follows iteration order, which
    /// must not depend on hash seeding (equal-seed runs replay byte for
    /// byte).
    children: BTreeMap<NodeAddr, SimTime>,
    /// Broadcast → expiry of the entry.
    seen: BTreeMap<BroadcastId, SimTime>,
    /// The sequence number of this node's latest broadcast.
    last_seq: u64,
}

impl DistributionTree {
    /// The tree state of node `me`: no children, nothing seen.
    pub fn new(me: NodeAddr) -> Self {
        DistributionTree {
            me,
            children: BTreeMap::new(),
            seen: BTreeMap::new(),
            last_seq: 0,
        }
    }

    /// `child` announced itself at `now`: record it for
    /// [`TREE_CHILD_LIFETIME`].
    pub fn join(&mut self, child: NodeAddr, now: SimTime) {
        self.children.insert(child, now + TREE_CHILD_LIFETIME);
    }

    /// Children whose announcement has not expired at `now`, ascending.
    pub fn children(&self, now: SimTime) -> impl Iterator<Item = NodeAddr> + '_ {
        self.children
            .iter()
            .filter(move |(_, expiry)| **expiry >= now)
            .map(|(child, _)| *child)
    }

    /// The `Expire` sweep: forget children and seen broadcasts past their
    /// lifetime.
    pub fn expire(&mut self, now: SimTime) {
        self.children.retain(|_, expiry| *expiry >= now);
        self.seen.retain(|_, expiry| *expiry >= now);
    }

    /// Start a broadcast here, `parent` being this node's next hop toward
    /// the root (`None` at the root): its identity, and the hops that carry
    /// it.  The origin delivers it itself.
    pub fn originate(
        &mut self,
        parent: Option<NodeAddr>,
        now: SimTime,
    ) -> (BroadcastId, Vec<(NodeAddr, Direction)>) {
        self.last_seq = (self.last_seq + 1).max(now);
        let id = BroadcastId {
            origin: self.me,
            seq: self.last_seq,
        };
        self.seen.insert(id, now + TREE_CHILD_LIFETIME);
        (id, self.hops(parent, None, Direction::Up, now))
    }

    /// Broadcast `id` arrived from `from`, travelling `direction`: the hops
    /// that carry it on, or `None` when this node has seen it already (drop
    /// it: no delivery, no forwarding).
    pub fn receive(
        &mut self,
        id: BroadcastId,
        from: NodeAddr,
        direction: Direction,
        parent: Option<NodeAddr>,
        now: SimTime,
    ) -> Option<Vec<(NodeAddr, Direction)>> {
        if self.seen.contains_key(&id) {
            return None;
        }
        self.seen.insert(id, now + TREE_CHILD_LIFETIME);
        Some(self.hops(parent, Some(from), direction, now))
    }

    /// The forwarding rule: up to the parent when the broadcast travels up
    /// (or starts here), down to every live child except the sender and
    /// the parent.  Never to this node itself.
    fn hops(
        &self,
        parent: Option<NodeAddr>,
        sender: Option<NodeAddr>,
        direction: Direction,
        now: SimTime,
    ) -> Vec<(NodeAddr, Direction)> {
        let parent = parent.filter(|p| *p != self.me);
        let mut hops = Vec::new();
        let up = parent.filter(|p| direction == Direction::Up && Some(*p) != sender);
        hops.extend(up.map(|p| (p, Direction::Up)));
        let down = self
            .children(now)
            .filter(|c| *c != self.me && Some(*c) != sender && Some(*c) != parent);
        hops.extend(down.map(|c| (c, Direction::Down)));
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_consistent_tree_is_crossed_once_per_edge_from_any_origin() {
        // 0 is the root; 1, 2 under it; 3, 4 under 1.
        let parent = [None, Some(0), Some(0), Some(1), Some(1)];
        let mut trees: Vec<DistributionTree> =
            (0..5).map(|i| DistributionTree::new(NodeAddr(i))).collect();
        for (child, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                trees[*p].join(NodeAddr(child as u32), 0);
            }
        }
        let parent_of = |i: usize| parent[i].map(|p| NodeAddr(p as u32));
        let (id, first) = trees[3].originate(parent_of(3), 1);
        let mut queue: Vec<(NodeAddr, NodeAddr, Direction)> = first
            .into_iter()
            .map(|(to, d)| (NodeAddr(3), to, d))
            .collect();
        let (mut sends, mut delivered) = (0, vec![3]);
        while let Some((from, to, d)) = queue.pop() {
            sends += 1;
            let i = to.index();
            let hops = trees[i]
                .receive(id, from, d, parent_of(i), 1)
                .expect("a tree delivers each node once");
            delivered.push(i);
            queue.extend(hops.into_iter().map(|(next, d)| (to, next, d)));
        }
        delivered.sort_unstable();
        assert_eq!(delivered, vec![0, 1, 2, 3, 4]);
        assert_eq!(sends, 4, "n − 1 messages");
    }

    #[test]
    fn a_repeat_is_dropped_and_the_seen_set_expires() {
        let mut tree = DistributionTree::new(NodeAddr(1));
        tree.join(NodeAddr(2), 0);
        let id = BroadcastId {
            origin: NodeAddr(7),
            seq: 1,
        };
        let hops = tree.receive(id, NodeAddr(0), Direction::Down, Some(NodeAddr(0)), 5);
        assert_eq!(hops, Some(vec![(NodeAddr(2), Direction::Down)]));
        assert_eq!(tree.receive(id, NodeAddr(2), Direction::Up, None, 6), None);
        // The child lapses with its announcement, the entry with its own.
        tree.expire(TREE_CHILD_LIFETIME + 1);
        assert_eq!(tree.children(TREE_CHILD_LIFETIME + 1).count(), 0);
        assert_eq!(tree.seen.len(), 1);
        tree.expire(TREE_CHILD_LIFETIME + 6);
        assert!(tree.seen.is_empty());
    }

    #[test]
    fn a_restarted_origin_does_not_reuse_a_sequence_number() {
        let mut peer = DistributionTree::new(NodeAddr(2));
        let (first, _) = DistributionTree::new(NodeAddr(1)).originate(None, 1_000);
        assert!(peer
            .receive(first, NodeAddr(1), Direction::Up, None, 1_000)
            .is_some());
        // Node 1 restarts with fresh state a second later, while node 2
        // still remembers its first broadcast.
        let (second, _) = DistributionTree::new(NodeAddr(1)).originate(None, 1_001_000);
        assert_ne!(first, second);
        let hops = peer.receive(second, NodeAddr(1), Direction::Up, None, 1_001_000);
        assert!(hops.is_some(), "a new broadcast is delivered");
    }

    #[test]
    fn a_child_that_is_also_the_parent_hears_only_the_up_hop() {
        let mut tree = DistributionTree::new(NodeAddr(1));
        tree.join(NodeAddr(0), 0);
        tree.join(NodeAddr(2), 0);
        let (_, hops) = tree.originate(Some(NodeAddr(0)), 1);
        assert_eq!(
            hops,
            vec![(NodeAddr(0), Direction::Up), (NodeAddr(2), Direction::Down)]
        );
    }
}
