//! A standalone DHT node program.
//!
//! [`DhtNode`] wraps an [`Overlay`] in the runtime's [`Program`] interface so
//! the overlay can be exercised on its own — under the discrete-event
//! simulator or the physical runtime — without the query processor on top.
//! The query processor's own node program (`pier-core::PierNode`) embeds the
//! overlay the same way but consumes the events itself instead of emitting
//! them as client output.

use crate::messages::DhtMessage;
use crate::wrapper::{Overlay, OverlayConfig, OverlayEffect, OverlayEvent, OverlayTimer};
use crate::NodeRef;
use pier_runtime::{NodeAddr, Program, ProgramContext, SimTime, WireSize};
use std::collections::VecDeque;
use std::fmt::Debug;

/// A node that runs only the overlay (no query processor).  Every overlay
/// event it observes is both recorded locally and emitted as client output,
/// which makes assertions in tests and benchmarks straightforward.
#[derive(Debug, Clone)]
pub struct DhtNode<V> {
    overlay: Overlay<V>,
    bootstrap: Option<NodeAddr>,
    /// Every event observed by this node, in order.
    pub events: Vec<OverlayEvent<V>>,
}

impl<V: Clone + Debug + WireSize> DhtNode<V> {
    /// A node whose routing tables are precomputed from the full ring.
    pub fn with_static_ring(me: NodeRef, all: &[NodeRef], config: OverlayConfig) -> Self {
        DhtNode {
            overlay: Overlay::with_static_ring(me, all, config),
            bootstrap: None,
            events: Vec::new(),
        }
    }

    /// A node that joins an existing ring through `bootstrap` when started.
    pub fn joining(me: NodeRef, bootstrap: Option<NodeAddr>, config: OverlayConfig) -> Self {
        DhtNode {
            overlay: Overlay::new(me, config),
            bootstrap,
            events: Vec::new(),
        }
    }

    /// Access the wrapped overlay (e.g. to issue a `put` via
    /// `Simulator::invoke`).
    pub fn overlay(&self) -> &Overlay<V> {
        &self.overlay
    }

    /// Mutable access to the wrapped overlay.
    pub fn overlay_mut(&mut self) -> &mut Overlay<V> {
        &mut self.overlay
    }

    /// Apply a batch of overlay effects against the runtime context.  The
    /// node is a plain router: every upcall's object is forwarded.
    pub fn apply(&mut self, ctx: &mut ProgramContext<Self>, effects: Vec<OverlayEffect<V>>) {
        let mut queue = VecDeque::from(effects);
        while let Some(effect) = queue.pop_front() {
            match effect {
                OverlayEffect::Send { to, msg } => ctx.send(to, msg),
                OverlayEffect::SetTimer { delay, timer } => ctx.set_timer(delay, timer),
                OverlayEffect::Event(event) => {
                    if let OverlayEvent::Upcall(routed) = &event {
                        queue.extend(self.overlay.forward(routed.clone(), ctx.now()));
                    }
                    self.events.push(event.clone());
                    ctx.output(event);
                }
            }
        }
    }

    /// Convenience used by tests: `(request_id, objects)` of every
    /// `GetResult` observed.
    pub fn get_results(&self) -> Vec<(u64, usize)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                OverlayEvent::GetResult {
                    request_id,
                    objects,
                    ..
                } => Some((*request_id, objects.len())),
                _ => None,
            })
            .collect()
    }
}

impl<V: Clone + Debug + WireSize> Program for DhtNode<V> {
    type Msg = DhtMessage<V>;
    type Timer = OverlayTimer;
    type Out = OverlayEvent<V>;

    fn on_start(&mut self, ctx: &mut ProgramContext<Self>) {
        let now: SimTime = ctx.now();
        let effects = self.overlay.start(self.bootstrap, now);
        self.apply(ctx, effects);
    }

    fn on_message(&mut self, ctx: &mut ProgramContext<Self>, from: NodeAddr, msg: Self::Msg) {
        let now = ctx.now();
        let effects = self.overlay.on_message(from, msg, now);
        self.apply(ctx, effects);
    }

    fn on_timer(&mut self, ctx: &mut ProgramContext<Self>, timer: Self::Timer) {
        let now = ctx.now();
        let effects = self.overlay.on_timer(timer, now);
        self.apply(ctx, effects);
    }
}

/// Build the [`NodeRef`]s for a ring of `n` nodes whose identifiers are
/// deterministically derived from a seed.  Node addresses are assigned in
/// order `0..n`, matching the order in which the caller adds them to a
/// runtime.
pub fn make_ring_refs(n: usize, seed: u64) -> Vec<NodeRef> {
    let mut rng = pier_runtime::Rng64::new(seed ^ 0xD1F7_5EED);
    (0..n)
        .map(|i| NodeRef {
            id: crate::Id(rng.next_u64()),
            addr: NodeAddr(i as u32),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naming::ObjectName;
    use pier_runtime::{SimConfig, Simulator};

    type Node = DhtNode<String>;

    fn static_cluster(n: usize, seed: u64) -> (Simulator<Node>, Vec<NodeRef>) {
        let refs = make_ring_refs(n, seed);
        let mut sim: Simulator<Node> = Simulator::new(SimConfig::lan(seed));
        for r in &refs {
            sim.add_node(Node::with_static_ring(*r, &refs, OverlayConfig::default()));
        }
        // Let start-up timers get scheduled.
        sim.run_until(1_000);
        (sim, refs)
    }

    #[test]
    fn put_then_get_across_a_16_node_ring() {
        let (mut sim, refs) = static_cluster(16, 7);
        let publisher = refs[3].addr;
        let reader = refs[11].addr;
        sim.invoke(publisher, |node, ctx| {
            let now = ctx.now();
            let effects = node.overlay_mut().put(
                ObjectName::new("files", "keyword=rust", 42),
                "song.mp3".to_string(),
                60_000_000,
                now,
            );
            node.apply(ctx, effects);
        });
        sim.run_for(2_000_000);
        sim.invoke(reader, |node, ctx| {
            let now = ctx.now();
            let (_rid, effects) = node.overlay_mut().get("files", "keyword=rust", now);
            node.apply(ctx, effects);
        });
        sim.run_for(2_000_000);
        let results = sim.node(reader).unwrap().get_results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].1, 1, "one object must come back");
    }

    #[test]
    fn routed_send_arrives_and_fires_new_data() {
        let (mut sim, refs) = static_cluster(16, 9);
        let sender = refs[0].addr;
        let name = ObjectName::new("results", "query-17", 1);
        let target = name.routing_id();
        // Find the owner so we can assert where the data landed.
        let owner = refs
            .iter()
            .find(|r| {
                sim.node(r.addr)
                    .unwrap()
                    .overlay()
                    .router()
                    .is_responsible(target)
            })
            .copied()
            .unwrap();
        sim.invoke(sender, |node, ctx| {
            let now = ctx.now();
            let effects =
                node.overlay_mut()
                    .send(name.clone(), "answer-tuple".to_string(), 60_000_000, now);
            node.apply(ctx, effects);
        });
        sim.run_for(2_000_000);
        let owner_node = sim.node(owner.addr).unwrap();
        let new_data = owner_node
            .events
            .iter()
            .filter(|e| matches!(e, OverlayEvent::NewData { .. }));
        assert_eq!(new_data.count(), 1);
        assert_eq!(
            owner_node
                .overlay()
                .objects()
                .get("results", "query-17", sim.now())
                .len(),
            1
        );
    }

    #[test]
    fn broadcast_reaches_every_node_via_the_tree() {
        let (mut sim, refs) = static_cluster(24, 21);
        // Let every node announce itself to its tree parent.
        sim.run_for(12_000_000);
        let origin = refs[5].addr;
        sim.invoke(origin, |node, ctx| {
            let now = ctx.now();
            let effects = node.overlay_mut().broadcast("opgraph-1".to_string(), now);
            node.apply(ctx, effects);
        });
        sim.run_for(5_000_000);
        let reached = refs
            .iter()
            .filter(|r| {
                sim.node(r.addr).unwrap().events.iter().any(
                    |e| matches!(e, OverlayEvent::Broadcast { payload } if payload == "opgraph-1"),
                )
            })
            .count();
        assert_eq!(reached, 24, "broadcast must reach every node");
    }

    #[test]
    fn dynamic_join_converges_and_serves_lookups() {
        let seed = 33;
        let refs = make_ring_refs(12, seed);
        let mut sim: Simulator<Node> = Simulator::new(SimConfig::lan(seed));
        // Node 0 starts alone; everyone else bootstraps through it.
        for (i, r) in refs.iter().enumerate() {
            let bootstrap = if i == 0 { None } else { Some(refs[0].addr) };
            sim.add_node_at(
                Node::joining(*r, bootstrap, OverlayConfig::default()),
                (i as u64) * 200_000,
            );
        }
        // Give the ring time to stabilize (stabilize interval is 1 s).
        sim.run_for(40_000_000);
        // Every node's successor pointer must point at the next id clockwise.
        let mut sorted = refs.clone();
        sorted.sort_by_key(|r| r.id.0);
        for (i, r) in sorted.iter().enumerate() {
            let expected = sorted[(i + 1) % sorted.len()].id;
            let succ = sim
                .node(r.addr)
                .unwrap()
                .overlay()
                .router()
                .successor()
                .expect("every node must have a successor")
                .id;
            assert_eq!(succ, expected, "node {} successor", r.addr);
        }
        // A put issued at one node is readable from another.
        sim.invoke(refs[4].addr, |node, ctx| {
            let now = ctx.now();
            let effects = node.overlay_mut().put(
                ObjectName::new("t", "k", 1),
                "v".to_string(),
                120_000_000,
                now,
            );
            node.apply(ctx, effects);
        });
        sim.run_for(3_000_000);
        sim.invoke(refs[9].addr, |node, ctx| {
            let now = ctx.now();
            let (_rid, effects) = node.overlay_mut().get("t", "k", now);
            node.apply(ctx, effects);
        });
        sim.run_for(3_000_000);
        let results = sim.node(refs[9].addr).unwrap().get_results();
        assert!(
            results.iter().any(|(_, n)| *n == 1),
            "get must find the object after dynamic join, got {results:?}"
        );
    }

    #[test]
    fn soft_state_disappears_when_publisher_stops_renewing() {
        let (mut sim, refs) = static_cluster(8, 55);
        let name = ObjectName::new("ephemeral", "k", 9);
        let target = name.routing_id();
        let owner = refs
            .iter()
            .find(|r| {
                sim.node(r.addr)
                    .unwrap()
                    .overlay()
                    .router()
                    .is_responsible(target)
            })
            .copied()
            .unwrap();
        sim.invoke(refs[2].addr, |node, ctx| {
            let now = ctx.now();
            let effects = node
                .overlay_mut()
                .put(name.clone(), "temp".to_string(), 4_000_000, now);
            node.apply(ctx, effects);
        });
        sim.run_for(2_000_000);
        assert_eq!(
            sim.node(owner.addr)
                .unwrap()
                .overlay()
                .objects()
                .get("ephemeral", "k", sim.now())
                .len(),
            1
        );
        // No renewal: after the lifetime plus one expiry sweep it is gone.
        sim.run_for(10_000_000);
        assert_eq!(
            sim.node(owner.addr)
                .unwrap()
                .overlay()
                .objects()
                .get("ephemeral", "k", sim.now())
                .len(),
            0,
            "object must have been garbage collected"
        );
    }

    #[test]
    fn lookups_survive_node_failures_after_stabilization() {
        let (mut sim, refs) = static_cluster(20, 77);
        // Fail a quarter of the ring.
        for r in refs.iter().take(5) {
            sim.fail_node_at(r.addr, 1_000_000);
        }
        // Give stabilization time to route around the failures (liveness
        // timeout is 30 s).
        sim.run_for(80_000_000);
        // A surviving node can still resolve a lookup for an arbitrary id.
        let issuer = refs[10].addr;
        sim.invoke(issuer, |node, ctx| {
            let now = ctx.now();
            let (_rid, effects) = node.overlay_mut().lookup(crate::Id(0xDEAD_BEEF), now);
            node.apply(ctx, effects);
        });
        sim.run_for(10_000_000);
        let done = sim.node(issuer).unwrap().events.iter().any(|e| {
            matches!(e, OverlayEvent::LookupDone { owner, .. }
                if refs.iter().take(5).all(|dead| dead.addr != owner.addr))
        });
        assert!(done, "lookup must complete and resolve to a live node");
    }
}
