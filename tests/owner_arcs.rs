//! The overlay's owner cache — arcs of the ring remembered from earlier
//! answers — under churn, and its resolver against the ring's truth.
//!
//! A cached arc lets `put`/`get`/`renew`/`put_batch` skip the routed
//! lookup, so a direct message may rest on an answer that membership has
//! since overtaken.  The three churn tests pin what then happens on the
//! simulator: the receiver forwards what it does not own (a join), nothing
//! is ever stored at a node the ring does not name (a crash), and an answer
//! asked before a membership change is not remembered.  The join itself is
//! pinned too: a node bootstrapping into a converged ring is spliced in
//! within three stabilization rounds — also once the ring has been quiet
//! long enough for its probes to back off to their cap, where a crash is
//! still detected within the liveness timeout and a tick, and a crashed
//! node's arc is taken over by its successor.  The property holds the resolver
//! against the true owner on converged rings of every size, and every `put`
//! against the store it must end up in — an arc's refresh parks operations,
//! and parking may neither lose nor duplicate one, nor split what the
//! refresh carried from the puts parked for the same owner.  The cache rules
//! themselves are held on a bare `Resolver`, with no ring under it, and
//! the rule the arcs rest on — one owner per identifier — on bare
//! `Router`s that join, crash and stabilize with no overlay above them.

mod common;

use common::seeded;
use pier::dht::resolver::{Resolution, Resolver, OWNER_CACHE_MAX};
use pier::dht::router::{RouterEffect, RouterMessage};
use pier::dht::{
    make_ring_refs, routing_id, DhtMessage, DhtNode, Id, NodeRef, ObjectName, Overlay,
    OverlayConfig, OverlayEffect, OverlayEvent, OverlayTimer, Router, RouterConfig,
};
use pier::runtime::sim::TopologyConfig;
use pier::runtime::{NodeAddr, Rng64, SimConfig, SimTime, Simulator};
use pier::telemetry::Telemetry;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

type Node = DhtNode<String>;

const SECOND: u64 = 1_000_000;
/// Long enough that nothing stored here expires during a test.
const LIFETIME: u64 = 300 * SECOND;
const NS: &str = "t";
/// Long enough quiet for every node's probe interval to reach its cap.
const QUIET: SimTime = 60 * SECOND;

/// The node whose arc covers `id` on the ring `refs` spell out: the first
/// at or clockwise after it.
fn true_owner(refs: &[NodeRef], id: Id) -> NodeRef {
    *refs
        .iter()
        .min_by_key(|r| id.distance_to(r.id))
        .expect("a ring has nodes")
}

/// The node `back` positions counter-clockwise of `of`.
fn ring_predecessor(refs: &[NodeRef], of: NodeRef, back: usize) -> NodeRef {
    let mut ring = refs.to_vec();
    ring.sort_by_key(|r| r.id);
    let at = ring
        .iter()
        .position(|r| r.id == of.id)
        .expect("on the ring");
    ring[(at + ring.len() - back % ring.len()) % ring.len()]
}

/// A converged ring: every node's routing state computed from `refs`,
/// started at time 0 (so every stabilization round falls on a whole second).
fn static_cluster(refs: &[NodeRef], config: SimConfig) -> Simulator<Node> {
    let mut sim: Simulator<Node> = Simulator::new(config);
    for r in refs {
        sim.add_node(Node::with_static_ring(*r, refs, OverlayConfig::default()));
    }
    sim
}

fn put(sim: &mut Simulator<Node>, at: NodeAddr, key: &str, suffix: u64) {
    sim.invoke(at, |node, ctx| {
        let name = ObjectName::new(NS, key, suffix);
        let effects = node
            .overlay_mut()
            .put(name, format!("v{suffix}"), LIFETIME, ctx.now());
        node.apply(ctx, effects);
    });
}

fn get(sim: &mut Simulator<Node>, at: NodeAddr, key: &str) {
    sim.invoke(at, |node, ctx| {
        let (_, effects) = node.overlay_mut().get(NS, key, ctx.now());
        node.apply(ctx, effects);
    });
}

/// What `at`'s resolver answers for `id` right now.
fn resolve(sim: &mut Simulator<Node>, at: NodeAddr, id: Id) -> Option<NodeAddr> {
    let now = sim.now();
    sim.with_node_mut(at, |node| node.overlay_mut().resolve(id, now))
        .expect("node exists")
        .map(|owner| owner.addr)
}

/// The suffixes of the objects `at` stores under `key`, in order.
fn stored(sim: &Simulator<Node>, at: NodeAddr, key: &str) -> Vec<u64> {
    let node = sim.node(at).expect("node exists");
    let mut suffixes: Vec<u64> = node
        .overlay()
        .objects()
        .get(NS, key, sim.now())
        .iter()
        .map(|o| o.name.suffix)
        .collect();
    suffixes.sort_unstable();
    suffixes
}

/// Nodes that can only reach `key`'s owner through a lookup or a cached
/// arc, and that nothing but their own operations tells about that arc:
/// the owner is outside their successor list and is not one of the peers
/// they probe, and they sit far enough counter-clockwise of it that a
/// change next to it never touches their neighbor view.
fn distant_nodes(sim: &Simulator<Node>, refs: &[NodeRef], key: &str) -> Vec<NodeAddr> {
    let id = routing_id(NS, key);
    let owner = true_owner(refs, id);
    let near: Vec<NodeAddr> = (0..=6)
        .map(|back| ring_predecessor(refs, owner, back).addr)
        .collect();
    refs.iter()
        .filter(|r| !near.contains(&r.addr))
        .filter(|r| {
            let router = sim.node(r.addr).expect("node exists").overlay().router();
            router.known_owner(id, sim.now()).is_none()
                && router.known_peers().iter().all(|p| p.addr != owner.addr)
        })
        .map(|r| r.addr)
        .collect()
}

/// The first of `k0, k1, …` that at least `want` distant nodes exist for.
fn key_with_distant_nodes(
    sim: &Simulator<Node>,
    refs: &[NodeRef],
    want: usize,
) -> (String, Vec<NodeAddr>) {
    (0..256)
        .map(|i| format!("k{i}"))
        .find_map(|key| {
            let nodes = distant_nodes(sim, refs, &key);
            (nodes.len() >= want).then_some((key, nodes))
        })
        .expect("some key has distant nodes")
}

/// A node that joins through [`Node::joining`]: it knows one address.
fn bootstrap_join(sim: &mut Simulator<Node>, joiner: NodeRef, through: NodeAddr) {
    sim.add_node(Node::joining(
        joiner,
        Some(through),
        OverlayConfig::default(),
    ));
}

/// A node bootstrapping into a converged 32-node ring at `at` has its true
/// successor and predecessor — and they have it — within three
/// stabilization rounds, whichever node it asks.  (It used to take one
/// round per ring member: its predecessor adopted it on first sight of the
/// join lookup and answered "your successor is you".)
fn a_bootstrap_join_takes_three_rounds(at: SimTime) {
    let seed = seeded(53);
    let refs = make_ring_refs(32, seed);
    let mut ring = refs.clone();
    ring.sort_by_key(|r| r.id);
    for (slot, through) in [(3usize, 20usize), (17, 18), (30, 2)] {
        let mut sim = static_cluster(&refs, SimConfig::lan(seed));
        sim.run_until(at);
        let (before, after) = (ring[slot], ring[(slot + 1) % ring.len()]);
        let joiner = NodeRef {
            id: Id(before
                .id
                .0
                .wrapping_add(before.id.distance_to(after.id) / 2)),
            addr: NodeAddr(refs.len() as u32),
        };
        bootstrap_join(&mut sim, joiner, ring[through].addr);
        sim.run_for(3 * SECOND + SECOND / 4);
        let neighbors = |at: NodeAddr| {
            let router = sim.node(at).expect("node exists").overlay().router();
            (
                router.predecessor().map(|p| p.addr),
                router.successor().map(|s| s.addr),
            )
        };
        assert_eq!(
            neighbors(joiner.addr),
            (Some(before.addr), Some(after.addr)),
            "the joiner's neighbors, joining through node {}",
            ring[through].addr
        );
        assert_eq!(neighbors(before.addr).1, Some(joiner.addr));
        assert_eq!(neighbors(after.addr).0, Some(joiner.addr));
    }
}

#[test]
fn a_bootstrap_join_into_a_converged_ring_takes_three_rounds() {
    a_bootstrap_join_takes_three_rounds(SECOND / 2);
}

/// The same join into a ring whose probes have backed off to their cap: the
/// join is a membership change, so the nodes it touches probe again at once.
#[test]
fn a_bootstrap_join_into_a_backed_off_ring_takes_three_rounds() {
    a_bootstrap_join_takes_three_rounds(QUIET + SECOND / 2);
}

/// (i) A node joins inside an arc two nodes have cached.  The publisher's
/// next `put` rides the stale arc to the old owner, which forwards it: the
/// object ends up at the NEW owner, and a `get` from the third node — its
/// arc just as stale — finds it there.
#[test]
fn a_join_inside_a_cached_arc_forwards_to_the_new_owner() {
    let seed = seeded(41);
    let refs = make_ring_refs(32, seed);
    let mut sim = static_cluster(&refs, SimConfig::lan(seed));
    sim.run_until(SECOND / 2);
    let (key, distant) = key_with_distant_nodes(&sim, &refs, 2);
    let (publisher, reader) = (distant[0], distant[1]);
    let id = routing_id(NS, &key);
    let old_owner = true_owner(&refs, id);

    // Both learn the arc from one operation each.
    put(&mut sim, publisher, &key, 1);
    sim.run_for(SECOND / 4);
    get(&mut sim, reader, &key);
    sim.run_for(SECOND / 4);
    assert_eq!(stored(&sim, old_owner.addr, &key), vec![1]);
    assert_eq!(resolve(&mut sim, publisher, id), Some(old_owner.addr));
    assert_eq!(resolve(&mut sim, reader, id), Some(old_owner.addr));

    // The joiner lands between the key and its owner, so the key becomes
    // the joiner's.  It knows one address, a node neither the publisher
    // nor the reader can see change.
    let joiner = NodeRef {
        id: Id(id.0.wrapping_add(id.distance_to(old_owner.id) / 2)),
        addr: NodeAddr(refs.len() as u32),
    };
    assert!(id.in_interval(ring_predecessor(&refs, old_owner, 1).id, joiner.id));
    assert_ne!(joiner.id, old_owner.id);
    let through = ring_predecessor(&refs, old_owner, 3);
    assert!(through.addr != publisher && through.addr != reader);
    bootstrap_join(&mut sim, joiner, through.addr);
    sim.run_for(5 * SECOND);
    let responsible = |sim: &Simulator<Node>, at: NodeAddr| {
        let node = sim.node(at).expect("node exists");
        node.overlay().router().is_responsible(id)
    };
    assert!(
        responsible(&sim, joiner.addr),
        "the joiner took the key over"
    );
    assert!(!responsible(&sim, old_owner.addr));
    // The join happened outside both nodes' neighbor view: their arcs are
    // still cached, and now wrong.
    assert_eq!(resolve(&mut sim, publisher, id), Some(old_owner.addr));
    assert_eq!(resolve(&mut sim, reader, id), Some(old_owner.addr));

    let tel = Telemetry::attached();
    sim.with_node_mut(old_owner.addr, |node| {
        node.overlay_mut().set_telemetry(tel.clone());
    });
    sim.run_until(6 * SECOND + SECOND / 2);
    put(&mut sim, publisher, &key, 2);
    sim.run_for(SECOND / 4);
    assert_eq!(
        stored(&sim, joiner.addr, &key),
        vec![2],
        "a put through the stale arc must end up at the new owner"
    );
    assert_eq!(
        stored(&sim, old_owner.addr, &key),
        vec![1],
        "the old owner keeps what it stored while it owned the key, and no more"
    );
    get(&mut sim, reader, &key);
    sim.run_for(SECOND / 4);
    let found: Vec<Vec<u64>> = sim
        .node(reader)
        .expect("node exists")
        .events
        .iter()
        .filter_map(|e| match e {
            OverlayEvent::GetResult { objects, .. } => {
                Some(objects.iter().map(|o| o.name.suffix).collect())
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        found,
        vec![vec![1], vec![2]],
        "the get through the stale arc must be answered by the new owner"
    );
    assert_eq!(
        tel.counter("dht.misdirected"),
        2,
        "the old owner forwarded the put and the get"
    );
}

/// (ii) The cached owner crashes, in a ring quiet long enough for its
/// probes to have backed off to their cap.  A `put` every half second from
/// then on: none is ever stored at a node that is neither the owner nor its
/// successor, and from `liveness_timeout` plus one stabilization tick after
/// the crash every one lands at the successor — with the cache left to its
/// own bounds.
#[test]
fn a_crashed_cached_owner_never_leaks_puts_to_a_non_owner() {
    let seed = seeded(43);
    let refs = make_ring_refs(32, seed);
    let mut sim = static_cluster(&refs, SimConfig::lan(seed));
    sim.run_until(QUIET + SECOND / 2);
    let (key, distant) = key_with_distant_nodes(&sim, &refs, 1);
    let publisher = distant[0];
    let id = routing_id(NS, &key);
    let owner = true_owner(&refs, id);
    let survivors: Vec<NodeRef> = refs
        .iter()
        .copied()
        .filter(|r| r.addr != owner.addr)
        .collect();
    let successor = true_owner(&survivors, id);

    put(&mut sim, publisher, &key, 0);
    sim.run_for(SECOND / 4);
    assert_eq!(stored(&sim, owner.addr, &key), vec![0]);
    assert_eq!(resolve(&mut sim, publisher, id), Some(owner.addr));

    let crash_at: SimTime = QUIET + 2 * SECOND;
    sim.fail_node_at(owner.addr, crash_at);
    let detected_at = crash_at + RouterConfig::default().liveness_timeout + SECOND;
    let mut due_at_successor = Vec::new();
    for tick in 0..90u64 {
        let at = crash_at + SECOND / 2 + tick * SECOND / 2;
        sim.run_until(at);
        let suffix = 1 + tick;
        put(&mut sim, publisher, &key, suffix);
        if at > detected_at {
            due_at_successor.push(suffix);
        }
        sim.run_for(SECOND / 4);
        for r in &survivors {
            if r.addr != successor.addr {
                assert_eq!(
                    stored(&sim, r.addr, &key),
                    Vec::<u64>::new(),
                    "node {} is no owner of the key at {} s",
                    r.addr,
                    sim.now() / SECOND
                );
            }
        }
    }
    assert!(due_at_successor.len() > 20);
    let at_successor = stored(&sim, successor.addr, &key);
    assert!(
        due_at_successor.iter().all(|s| at_successor.contains(s)),
        "every put issued after the ring detected the crash lands at the successor: \
         stored {at_successor:?}, due {due_at_successor:?}"
    );
    assert_eq!(resolve(&mut sim, publisher, id), Some(successor.addr));
}

/// (ii′) A node crashes in a backed-off ring.  Its successor learns that
/// only from the silence where its probes used to be: within the liveness
/// timeout, a cap and a tick of the crash it no longer names the node as its
/// predecessor and answers for the node's arc itself, and its predecessor
/// then takes it over as its own predecessor.
#[test]
fn a_crashed_predecessor_leaves_its_arc_to_its_successor() {
    let seed = seeded(59);
    let refs = make_ring_refs(32, seed);
    let mut sim = static_cluster(&refs, SimConfig::lan(seed));
    let crashed = refs[seeded(7) as usize % refs.len()];
    let successor = ring_predecessor(&refs, crashed, refs.len() - 1);
    let predecessor = ring_predecessor(&refs, crashed, 1);
    let arc = Id(predecessor
        .id
        .0
        .wrapping_add(predecessor.id.distance_to(crashed.id) / 2));
    assert_eq!(true_owner(&refs, arc).addr, crashed.addr);

    let crash_at = QUIET + 2 * SECOND;
    sim.fail_node_at(crashed.addr, crash_at);
    let config = RouterConfig::default();
    let router = |sim: &Simulator<Node>| {
        let node = sim.node(successor.addr).expect("node exists");
        let r = node.overlay().router();
        (r.predecessor().map(|p| p.addr), r.probe_cap())
    };
    let (_, cap) = router(&sim);
    assert_eq!(cap, 8 * SECOND);
    sim.run_until(crash_at + config.liveness_timeout + cap + SECOND);
    assert_ne!(router(&sim).0, Some(crashed.addr));
    assert_eq!(resolve(&mut sim, successor.addr, arc), Some(successor.addr));
    sim.run_for(3 * SECOND);
    assert_eq!(router(&sim).0, Some(predecessor.addr));
    assert_eq!(resolve(&mut sim, successor.addr, arc), Some(successor.addr));
}

/// (iii) A lookup answered across a membership change serves its own
/// operation but its arc is not remembered; one asked and answered within
/// an epoch is.
#[test]
fn an_answer_asked_before_a_membership_change_is_not_remembered() {
    let seed = seeded(47);
    let refs = make_ring_refs(32, seed);
    // 100 ms a hop: the lookup below is in flight for at least 200 ms.
    let config = || SimConfig {
        topology: TopologyConfig::Uniform {
            latency: SECOND / 10,
            bandwidth_bps: 100.0 * 1024.0 * 1024.0,
        },
        ..SimConfig::lan(seed)
    };
    // Everyone knows the whole ring except the publisher, which has not
    // heard of its true predecessor yet: that node's first stabilization
    // probe (sent at 1.0 s, arriving at 1.1 s — the probe is the notify)
    // moves the publisher's membership epoch.
    let probe = static_cluster(&refs, config());
    let (key, distant) = key_with_distant_nodes(&probe, &refs, 1);
    let publisher = refs[distant[0].index()];
    let unannounced = ring_predecessor(&refs, publisher, 1);
    let without: Vec<NodeRef> = refs
        .iter()
        .copied()
        .filter(|r| r.addr != unannounced.addr)
        .collect();
    let mut sim: Simulator<Node> = Simulator::new(config());
    for r in &refs {
        let known = if r.addr == publisher.addr {
            &without
        } else {
            &refs
        };
        sim.add_node(Node::with_static_ring(*r, known, OverlayConfig::default()));
    }
    let id = routing_id(NS, &key);
    let owner = true_owner(&refs, id);
    let epoch = |sim: &Simulator<Node>| {
        let node = sim.node(publisher.addr).expect("node exists");
        node.overlay().router().membership_epoch()
    };

    sim.run_until(SECOND + SECOND / 20);
    let asked_in = epoch(&sim);
    put(&mut sim, publisher.addr, &key, 1);
    sim.run_until(SECOND + SECOND / 5);
    assert!(epoch(&sim) > asked_in, "the predecessor announced itself");
    assert!(
        stored(&sim, owner.addr, &key).is_empty(),
        "the lookup is still in flight"
    );
    sim.run_until(2 * SECOND + SECOND / 4);
    assert_eq!(
        stored(&sim, owner.addr, &key),
        vec![1],
        "the answer completed its own put"
    );
    assert_eq!(
        resolve(&mut sim, publisher.addr, id),
        None,
        "an arc asked about in an older epoch must not be remembered"
    );
    // Asked and answered within one epoch, the same arc is.
    let asked_in = epoch(&sim);
    put(&mut sim, publisher.addr, &key, 2);
    sim.run_until(3 * SECOND + SECOND / 2);
    assert_eq!(epoch(&sim), asked_in);
    assert_eq!(stored(&sim, owner.addr, &key), vec![1, 2]);
    assert_eq!(resolve(&mut sim, publisher.addr, id), Some(owner.addr));
}

/// Overlays on a converged ring with no simulator under them: `pump`
/// carries what they send to one another until nothing is in flight, except
/// the lookup messages `lose` picks, and returns how many it lost.
struct Ring {
    overlays: Vec<Overlay<String>>,
}

impl Ring {
    fn pump(
        &mut self,
        from: NodeAddr,
        effects: Vec<OverlayEffect<String>>,
        now: SimTime,
        mut lose: impl FnMut() -> bool,
    ) -> usize {
        let mut lost = 0;
        let mut queue = vec![(from, effects)];
        while let Some((from, effects)) = queue.pop() {
            for effect in effects {
                let OverlayEffect::Send { to, msg } = effect else {
                    continue;
                };
                let lookup = matches!(
                    msg,
                    DhtMessage::Routing(
                        RouterMessage::FindSuccessor { .. }
                            | RouterMessage::FindSuccessorReply { .. }
                    )
                );
                if lookup && lose() {
                    lost += 1;
                    continue;
                }
                let effects = self.overlays[to.index()].on_message(from, msg, now);
                queue.push((to, effects));
            }
        }
        lost
    }
}

impl Ring {
    /// Carry every message until nothing is in flight, as `pump` does with
    /// no loss, letting `shrink` rewrite each lookup answer bound for
    /// `watched` first; returns, per answer `watched` took, the put
    /// messages it sent straight to the owner that answer named.
    fn pump_answers(
        &mut self,
        watched: NodeAddr,
        effects: Vec<OverlayEffect<String>>,
        now: SimTime,
        mut shrink: impl FnMut(&mut RouterMessage),
    ) -> Vec<usize> {
        let mut puts_per_answer = Vec::new();
        let mut queue = vec![(watched, effects)];
        while let Some((from, effects)) = queue.pop() {
            for effect in effects {
                let OverlayEffect::Send { to, mut msg } = effect else {
                    continue;
                };
                let mut answered = None;
                if let DhtMessage::Routing(reply @ RouterMessage::FindSuccessorReply { .. }) =
                    &mut msg
                {
                    if to == watched {
                        shrink(reply);
                        if let RouterMessage::FindSuccessorReply { owner, .. } = reply {
                            answered = Some(owner.addr);
                        }
                    }
                }
                let effects = self.overlays[to.index()].on_message(from, msg, now);
                if let Some(owner) = answered {
                    let puts = effects.iter().filter(|e| {
                        matches!(e, OverlayEffect::Send {
                            to,
                            msg: DhtMessage::PutRequest { .. } | DhtMessage::PutBatch { .. },
                        } if *to == owner)
                    });
                    puts_per_answer.push(puts.count());
                }
                queue.push((to, effects));
            }
        }
        puts_per_answer
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flushes into fresh arcs, expired ones and ones whose refresh is
    /// answered for a shrunken arc: every entry is stored exactly once, at
    /// its true owner, and no lookup answer sends its owner more than one
    /// put message — what a refresh carried leaves with the puts parked
    /// behind it that the answer also sends there.
    #[test]
    fn a_refresh_sends_its_owner_one_put_message(
        nodes in 4usize..20,
        ring_seed: u64,
        rounds in proptest::collection::vec((0u8..3, 1usize..40, 1u64..256), 1..6),
    ) {
        let refs = make_ring_refs(nodes, ring_seed);
        // One successor known: every other arc takes a lookup or the cache.
        let config = OverlayConfig {
            router: RouterConfig { successor_list_len: 1, ..RouterConfig::default() },
        };
        let mut ring = Ring {
            overlays: refs.iter().map(|r| Overlay::with_static_ring(*r, &refs, config)).collect(),
        };
        let publisher = refs[0].addr;
        let ttl = 2 * RouterConfig::default().liveness_timeout;
        let (mut now, mut published) = (0, Vec::new());
        for (round, &(kind, entries, share)) in rounds.iter().enumerate() {
            // 0: within the arcs' TTL; 1: past it; 2: past it, and every
            // answer vouches for the upper `share / 256` of its arc only.
            now += if kind == 0 { SECOND } else { ttl + 1 };
            let batch: Vec<(ObjectName, String, u64)> = (0..entries)
                .map(|i| {
                    let name = ObjectName::new(NS, format!("k{round}.{i}"), round as u64);
                    (name, "v".to_string(), LIFETIME)
                })
                .collect();
            published.extend(batch.iter().map(|(name, ..)| name.clone()));
            let effects = ring.overlays[publisher.index()].put_batch(batch, now);
            let answers = ring.pump_answers(publisher, effects, now, |reply| {
                if let RouterMessage::FindSuccessorReply { owner, arc_start, .. } = reply {
                    if kind == 2 {
                        let arc = arc_start.distance_to(owner.id);
                        let cut = (u128::from(arc) * u128::from(256 - share) / 256) as u64;
                        *arc_start = Id(arc_start.0.wrapping_add(cut));
                    }
                }
            });
            prop_assert!(
                answers.iter().all(|&puts| puts <= 1),
                "round {round}: put messages per answered owner {answers:?}"
            );
        }
        for name in published {
            let truth = true_owner(&refs, name.routing_id()).addr;
            for r in &refs {
                let copies = ring.overlays[r.addr.index()]
                    .objects()
                    .get(NS, &name.key, now)
                    .iter()
                    .filter(|o| o.name.suffix == name.suffix)
                    .count();
                let expected = usize::from(r.addr == truth);
                prop_assert_eq!(copies, expected, "{} at node {}, owned by {}", name.key, r.addr, truth);
            }
        }
    }

    /// A flush into expired arcs whose lookups — refreshes among them — are
    /// lost at random: once the next `Expire` sweep has run, every entry is
    /// stored at its true owner except at most one per lost message.  A
    /// lost answer costs the operation it carried, never those parked
    /// behind it.
    #[test]
    fn a_lost_refresh_costs_one_operation_not_those_behind_it(
        nodes in 6usize..24,
        ring_seed: u64,
        entries in 8usize..40,
        loss in proptest::collection::vec(0u8..3, 64..65),
    ) {
        let refs = make_ring_refs(nodes, ring_seed);
        // One successor known: every other arc takes a lookup or the cache.
        let config = OverlayConfig {
            router: RouterConfig { successor_list_len: 1, ..RouterConfig::default() },
        };
        let mut ring = Ring {
            overlays: refs.iter().map(|r| Overlay::with_static_ring(*r, &refs, config)).collect(),
        };
        let publisher = refs[0].addr;
        let batch = |round: u64| -> Vec<(ObjectName, String, u64)> {
            (0..entries as u64)
                .map(|i| (ObjectName::new(NS, format!("k{i}"), round), "v".to_string(), LIFETIME))
                .collect()
        };
        // Teach the arcs, let them expire, flush again under loss.
        let effects = ring.overlays[0].put_batch(batch(0), 0);
        ring.pump(publisher, effects, 0, || false);
        let expired = 2 * RouterConfig::default().liveness_timeout + 1;
        let effects = ring.overlays[0].put_batch(batch(1), expired);
        let mut draws = loss.iter().cycle();
        let mut lost = ring.pump(publisher, effects, expired, || *draws.next().expect("cycled") == 0);
        // The sweep releases what waits behind an unanswered refresh; the
        // released lookups run under the same loss.
        let sweep = expired + 5 * SECOND;
        let effects = ring.overlays[0].on_timer(OverlayTimer::Expire, sweep);
        lost += ring.pump(publisher, effects, sweep, || *draws.next().expect("cycled") == 0);
        let mut missing = 0;
        for (name, _, _) in batch(1) {
            let truth = true_owner(&refs, name.routing_id()).addr;
            for r in &refs {
                let held = ring.overlays[r.addr.index()]
                    .objects()
                    .get(NS, &name.key, sweep)
                    .iter()
                    .any(|o| o.name.suffix == 1);
                prop_assert!(!held || r.addr == truth, "{} stored at node {}", name.key, r.addr);
                missing += usize::from(r.addr == truth && !held);
            }
        }
        prop_assert!(missing <= lost, "{missing} entries missing, {lost} messages lost");
    }

    /// On a converged ring of any size, whatever operations and timers ran,
    /// the resolver answers `None` or the ring's true owner — never a third
    /// node — every `put` issued ends up at the true owner of its name and
    /// nowhere else, and every key a `get_batch` asks about is answered
    /// exactly once, by the true owner, however the keys were grouped (runs
    /// longer than an arc's TTL, so some wait behind a refresh).
    #[test]
    fn the_resolver_names_the_true_owner_or_nobody(
        nodes in 2usize..65,
        ring_seed: u64,
        ops in proptest::collection::vec(((0u8..6, 0usize..64), (0u16..48, 0u64..1_500_000)), 1..24),
        probes in proptest::collection::vec(0u64..u64::MAX, 4..12),
    ) {
        let refs = make_ring_refs(nodes, ring_seed);
        let mut sim = static_cluster(&refs, SimConfig::lan(ring_seed));
        let check = |sim: &mut Simulator<Node>, at: NodeAddr, id: Id| -> Result<(), TestCaseError> {
            let answer = resolve(sim, at, id);
            let truth = true_owner(&refs, id).addr;
            prop_assert!(
                answer.is_none() || answer == Some(truth),
                "node {at} resolves {id} to {answer:?}, the ring says {truth}"
            );
            Ok(())
        };
        let mut put_names: Vec<(String, u64)> = Vec::new();
        // `(asker, token, key)` of every key a `get_batch` asked about.
        // Every node holds, under each such key, an object whose suffix is
        // its own address: an answer names the node that gave it.
        let mut asked: Vec<(NodeAddr, u64, String)> = Vec::new();
        let mut marked: Vec<String> = Vec::new();
        for (suffix, ((kind, node), (key, pause))) in ops.into_iter().enumerate() {
            // Flushes come from a few publishers that repeat themselves,
            // so a flush finds arcs an earlier one taught — expired or not.
            let at = refs[if kind == 3 { node % 3 } else { node } % nodes].addr;
            // Eight keys scattered over the ring, the first asked twice.
            let scan: Vec<String> = (0..9).map(|i| format!("g{}", (key + 11 * (i % 8)) % 48)).collect();
            let key = format!("k{}", if kind == 3 { key % 4 } else { key });
            let name = ObjectName::new(NS, key.clone(), suffix as u64);
            match kind {
                0 => put_names.push((key.clone(), suffix as u64)),
                3 => put_names.extend((0..12u64).map(|i| (format!("{key}.{i}"), i))),
                5 => {
                    for key in scan.iter().filter(|k| !marked.contains(k)) {
                        for r in &refs {
                            let name = ObjectName::new(NS, key.clone(), u64::from(r.addr.0));
                            let now = sim.now();
                            sim.with_node_mut(r.addr, |node| {
                                node.overlay_mut().store_local(name, "mark".to_string(), LIFETIME, now)
                            });
                        }
                    }
                    marked.extend(scan.iter().cloned());
                }
                _ => {}
            }
            let mut tokens = Vec::new();
            sim.invoke(at, |node, ctx| {
                let now = ctx.now();
                let overlay = node.overlay_mut();
                let effects = match kind {
                    0 => overlay.put(name, "v".to_string(), LIFETIME, now),
                    1 => overlay.get(NS, &key, now).1,
                    2 => overlay.renew(name, LIFETIME, now).1,
                    3 => {
                        let batch = (0..12u64)
                            .map(|i| {
                                let name = ObjectName::new(NS, format!("{key}.{i}"), i);
                                (name, "v".to_string(), LIFETIME)
                            })
                            .collect();
                        overlay.put_batch(batch, now)
                    }
                    5 => {
                        let (ids, effects) = overlay.get_batch(NS, scan.clone(), now);
                        tokens = ids;
                        effects
                    }
                    // Time alone: stabilization and finger-refresh timers.
                    _ => Vec::new(),
                };
                node.apply(ctx, effects);
            });
            let tokens = tokens.into_iter().zip(scan);
            asked.extend(tokens.map(|(token, key)| (at, token, key)));
            // One pause in seven outlasts every cached arc's TTL, so what
            // follows finds them expired.
            let pause = if pause % 7 == 0 { pause + 31 * SECOND } else { pause };
            sim.run_for(pause);
            check(&mut sim, at, routing_id(NS, &key))?;
            for &probe in &probes {
                check(&mut sim, at, Id(probe))?;
            }
        }
        sim.run_for(2 * SECOND);
        for r in &refs {
            for &probe in &probes {
                check(&mut sim, r.addr, Id(probe))?;
            }
        }
        for (at, token, key) in asked {
            let truth = true_owner(&refs, routing_id(NS, &key)).addr;
            let node = sim.node(at).expect("node exists");
            let answers: Vec<Vec<u64>> = node
                .events
                .iter()
                .filter_map(|e| match e {
                    OverlayEvent::GetResult { request_id, key: k, objects, .. } if *request_id == token => {
                        assert_eq!(k, &key);
                        Some(objects.iter().map(|o| o.name.suffix).collect())
                    }
                    _ => None,
                })
                .collect();
            prop_assert_eq!(
                &answers,
                &[vec![u64::from(truth.0)]],
                "get {} asked by node {} under token {}: one answer, node {}'s", key, at, token, truth
            );
        }
        for (key, suffix) in put_names {
            let truth = true_owner(&refs, routing_id(NS, &key)).addr;
            for r in &refs {
                let held = stored(&sim, r.addr, &key).contains(&suffix);
                prop_assert_eq!(
                    held,
                    r.addr == truth,
                    "put {}/{} at node {}, the ring says {}", key, suffix, r.addr, truth
                );
            }
        }
    }
}

/// Owner `i` of a ring of eight whose arcs a bare resolver learns.
fn pool(i: u64) -> NodeRef {
    NodeRef {
        id: Id((i % 8 + 1) * (u64::MAX / 8)),
        addr: NodeAddr(1 + (i % 8) as u32),
    }
}

/// Where pool owner `i`'s arc starts: its predecessor on that ring.
fn pool_start(i: u64) -> Id {
    pool(i + 7).id
}

/// The pool owner whose arc covers `id`.
fn pool_owner(id: Id) -> u64 {
    (0..8)
        .find(|&i| id.in_interval(pool_start(i), pool(i).id))
        .expect("the pool's arcs cover the ring")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cache rules on a bare `Resolver`, operations as plain integers:
    /// any interleaving of learning arcs, operations resolved and routed,
    /// answers, lost lookups, membership-epoch bumps, owners presumed dead,
    /// time passing and `Expire` sweeps.  An expired arc costs at most one
    /// refresh until it is learned again; every parked operation leaves
    /// exactly once, on the answer or on a sweep; an answer to a lookup
    /// asked in an older epoch is never learned; the cache never holds more
    /// than `OWNER_CACHE_MAX` arcs; an arc whose owner is presumed dead
    /// resolves nothing.
    #[test]
    fn the_resolver_keeps_the_cache_rules_under_any_interleaving(
        steps in proptest::collection::vec((0u8..12, any::<u64>()), 1..120),
    ) {
        let ttl = 30 * SECOND;
        let mut resolver: Resolver<u64> = Resolver::new(NodeAddr(0), ttl);
        let (mut now, mut epoch, mut next_op, mut next_lookup) = (0u64, 0u64, 0u64, 0u64);
        // Lookups the test may still answer: `(id, target, epoch asked in)`.
        let mut in_flight: Vec<(u64, Id, u64)> = Vec::new();
        let mut parked: BTreeSet<u64> = BTreeSet::new();
        let mut dead: BTreeSet<NodeAddr> = BTreeSet::new();
        // Owners named only by answers asked in an older epoch.
        let mut never: BTreeSet<NodeAddr> = BTreeSet::new();
        // Refreshes started per arc end since that arc was last learned.
        let mut refreshes: BTreeMap<Id, u32> = BTreeMap::new();
        // An answer names owner `100 + lookup id`: each answer its own.
        let answerer = |lookup: u64, target: Id| NodeRef {
            id: pool(pool_owner(target)).id,
            addr: NodeAddr(100 + lookup as u32),
        };
        for (kind, a) in steps {
            match kind {
                0 => {
                    resolver.learn(pool_start(a), pool(a), epoch, now);
                    refreshes.remove(&pool(a).id);
                }
                1..=3 => {
                    let (op, target) = (next_op, Id(a));
                    next_op += 1;
                    let (resolution, _) =
                        resolver.resolve(target, epoch, |addr| dead.contains(&addr), now);
                    let refresh = match resolution {
                        Resolution::Owner(owner) => {
                            prop_assert!(!dead.contains(&owner.addr), "dead {:?} resolved", owner);
                            prop_assert!(!never.contains(&owner.addr), "{:?} was learned", owner);
                            continue;
                        }
                        Resolution::Miss | Resolution::Dead => None,
                        Resolution::Stale { end, refreshing } => match resolver.park(op, Some(end)) {
                            Ok(()) => {
                                prop_assert!(refreshing, "parked behind no refresh");
                                parked.insert(op);
                                continue;
                            }
                            Err(_) => {
                                prop_assert!(!refreshing, "a refresh in flight took no parking");
                                Some(end)
                            }
                        },
                    };
                    next_lookup += 1;
                    let marked = resolver.start(next_lookup, Some(op), refresh, epoch, now);
                    prop_assert_eq!(marked, refresh.is_some());
                    if let Some(end) = refresh {
                        let started = refreshes.entry(end).or_default();
                        *started += 1;
                        prop_assert!(*started <= 1, "arc {:?} refreshed twice", end);
                    }
                    in_flight.push((next_lookup, target, epoch));
                }
                4 | 5 if !in_flight.is_empty() => {
                    let (lookup, target, asked_in) =
                        in_flight.swap_remove(a as usize % in_flight.len());
                    let owner = answerer(lookup, target);
                    let start = pool_start(pool_owner(target));
                    let Some((answered, _)) = resolver.answer(lookup, start, owner, epoch, now)
                    else {
                        continue;
                    };
                    for op in answered.parked {
                        prop_assert!(parked.remove(&op), "op {} left twice", op);
                    }
                    if asked_in == epoch {
                        refreshes.remove(&owner.id);
                    } else {
                        never.insert(owner.addr);
                        let (again, _) = resolver.resolve(target, epoch, |_| false, now);
                        prop_assert_ne!(again, Resolution::Owner(owner));
                    }
                }
                6 if !in_flight.is_empty() => {
                    in_flight.swap_remove(a as usize % in_flight.len());
                }
                7 => epoch += 1,
                8 if a % 2 == 0 => {
                    dead.insert(pool(a / 2).addr);
                }
                8 => {
                    dead.insert(NodeAddr(100 + (a / 2 % (next_lookup + 1)) as u32));
                }
                10 => {
                    let (released, _) = resolver.sweep(now);
                    for op in released {
                        prop_assert!(parked.remove(&op), "op {} left twice", op);
                    }
                }
                11 if a % 8 == 0 => {
                    // More distinct owners than the cache holds.
                    for k in 0..OWNER_CACHE_MAX as u64 + 8 {
                        let id = Id(a.wrapping_add((k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                        let owner = NodeRef { id, addr: NodeAddr(10_000 + k as u32) };
                        resolver.learn(Id(id.0.wrapping_sub(1)), owner, epoch, now);
                    }
                }
                _ => now += a % (2 * ttl),
            }
            prop_assert!(resolver.cached() <= OWNER_CACHE_MAX);
        }
        // A sweep strands every refresh still in flight: whatever is parked
        // behind one leaves now.
        let (released, _) = resolver.sweep(now);
        for op in released {
            prop_assert!(parked.remove(&op), "op {} left twice", op);
        }
        prop_assert!(parked.is_empty(), "parked forever: {:?}", parked);
    }
}

/// Bare routers — no overlay, no simulator — that join through router 0
/// at staggered seconds, tick once a second (stabilization and a finger
/// refresh) and hear one another after a per-message delay of 1–50 ms;
/// a router ticks once it has started its join, and the `crashed` neither
/// tick nor receive.
struct Routers {
    refs: Vec<NodeRef>,
    routers: Vec<Router>,
    joined: Vec<bool>,
    crashed: Vec<bool>,
    /// Messages in flight by `(due, send order)`.
    in_flight: BTreeMap<(SimTime, u64), (NodeAddr, NodeAddr, RouterMessage)>,
    sent: u64,
    delays: Rng64,
}

impl Routers {
    fn send(&mut self, from: NodeAddr, effects: Vec<RouterEffect>, at: SimTime) {
        for effect in effects {
            if let RouterEffect::Send { to, msg } = effect {
                let due = at + 1_000 + self.delays.next_u64() % 49_000;
                self.sent += 1;
                self.in_flight.insert((due, self.sent), (from, to, msg));
            }
        }
    }

    /// Deliver, in due order, everything due before `until`.
    fn run_until(&mut self, until: SimTime) {
        while let Some(entry) = self.in_flight.first_entry() {
            let (due, _) = *entry.key();
            if due >= until {
                break;
            }
            let (from, to, msg) = entry.remove();
            if !self.crashed[to.index()] {
                let effects = self.routers[to.index()].on_message(from, msg, due);
                self.send(to, effects, due);
            }
        }
    }

    /// Tick every live router at `at`.
    fn tick(&mut self, at: SimTime) {
        for i in 0..self.routers.len() {
            if self.joined[i] && !self.crashed[i] {
                let mut effects = self.routers[i].on_stabilize(at);
                effects.extend(self.routers[i].on_fix_fingers(at));
                self.send(self.refs[i].addr, effects, at);
            }
        }
    }

    /// How many live routers on the ring say they are responsible for
    /// `id`.  A joiner is on the ring once its join is answered: until then
    /// it knows no one, and a router that knows no one is a ring of one.
    fn owners(&self, id: Id) -> usize {
        let on_ring = |i: usize| i == 0 || self.routers[i].successor().is_some();
        (0..self.routers.len())
            .filter(|&i| on_ring(i) && !self.crashed[i])
            .filter(|&i| self.routers[i].is_responsible(id))
            .count()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One owner per identifier on a bare `Router` ring.  Routers join one
    /// by one and some crash once the ring has formed (at 20 s); from then
    /// on no tick finds two live routers claiming one identifier, and once
    /// the crashed have been presumed dead and their arcs taken over, every
    /// identifier has exactly one live responsible router.  A router that
    /// knows successors but no predecessor — one whose predecessor just
    /// went silent — owns nothing; it used to claim every key, a second
    /// owner of the whole ring.  (While joins are in flight Chord's
    /// pointers may still overlap, so the "at most one" half waits for the
    /// ring to form.)
    #[test]
    fn after_stabilization_every_id_has_exactly_one_live_owner(
        nodes in 2usize..12,
        ring_seed: u64,
        joins in proptest::collection::vec(0u64..6, 12..13),
        crashes in proptest::collection::vec(any::<bool>(), 12..13),
        probes in proptest::collection::vec(any::<u64>(), 8..16),
    ) {
        let refs = make_ring_refs(nodes, ring_seed);
        let mut ring = Routers {
            routers: refs.iter().map(|r| Router::new(*r, RouterConfig::default())).collect(),
            joined: vec![false; nodes],
            crashed: vec![false; nodes],
            refs: refs.clone(),
            in_flight: BTreeMap::new(),
            sent: 0,
            delays: Rng64::new(ring_seed),
        };
        // Up to a third of the ring crashes at 20 s, never the bootstrap.
        let mut crash = vec![false; nodes];
        for i in 1..nodes {
            crash[i] = crashes[i] && 3 * (crash.iter().filter(|&&c| c).count() + 1) <= nodes;
        }
        let mut ids: Vec<Id> = probes.iter().map(|&p| Id(p)).collect();
        for r in &refs {
            ids.extend([r.id, Id(r.id.0.wrapping_add(1)), Id(r.id.0.wrapping_sub(1))]);
        }
        // Presumed dead a timeout and a tick after the crash, a silent
        // predecessor dropped a timeout and a probe cap after last heard.
        let settled = 20 + 30 + 8 + 10;
        for second in 0..=settled + 5 {
            let now = second * SECOND;
            ring.run_until(now);
            for i in 0..nodes {
                if second == if i == 0 { 0 } else { 1 + joins[i] } {
                    let bootstrap = (i > 0).then_some(refs[0].addr);
                    let effects = ring.routers[i].bootstrap(bootstrap);
                    ring.joined[i] = true;
                    ring.send(refs[i].addr, effects, now);
                }
                if second == 20 && crash[i] {
                    ring.crashed[i] = true;
                }
            }
            ring.tick(now);
            for &id in &ids {
                let owners = ring.owners(id);
                if second >= 20 {
                    prop_assert!(owners <= 1, "{owners} live routers claim {id:?} at {second} s");
                }
                if second >= settled {
                    prop_assert_eq!(owners, 1, "live owners of {:?} at {} s", id, second);
                }
            }
        }
    }
}
