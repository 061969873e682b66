//! The overlay router (§3.2.2, §3.2.4 of the paper).
//!
//! PIER is agnostic to the specific DHT routing algorithm (the original
//! system used CAN, then Bamboo); all it requires is key-based multi-hop
//! routing with the ability to intercept messages at intermediate hops.  We
//! implement a Chord-style ring: each node keeps a predecessor, a successor
//! list (for resilience to churn) and a finger table (for `O(log N)` hops),
//! and periodically runs *stabilization* and *fix-fingers* maintenance.
//! Maintenance follows change, not the clock: on a ring that stays calm the
//! stabilization probes (and the finger refreshes and re-joins that ride
//! them) back off up to a cap derived from the liveness timeout, while
//! failure detection keeps the bound it has at one probe a tick.
//!
//! The router is a pure state machine.  It consumes routing messages and
//! timer ticks and emits [`RouterEffect`]s; the [`wrapper`](crate::wrapper)
//! is responsible for actually placing messages on the network and for
//! scheduling the maintenance timers.

use crate::id::{Id, ID_BITS};
use pier_runtime::{Duration, NodeAddr, SimTime, WireSize};
use std::collections::HashMap;

/// Interval between stabilization ticks.  Every tick is the eviction clock;
/// a tick sends probes only when a probing round is due (see
/// [`Router::on_stabilize`]).
pub const STABILIZE_INTERVAL: Duration = 1_000_000;

/// A reference to a node: its position on the ring plus its network address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef {
    /// The node's identifier on the ring.
    pub id: Id,
    /// The node's network address.
    pub addr: NodeAddr,
}

impl WireSize for NodeRef {
    fn wire_size(&self) -> usize {
        self.id.wire_size() + self.addr.wire_size()
    }
}

/// Routing-protocol messages exchanged between routers.
#[derive(Debug, Clone)]
pub enum RouterMessage {
    /// Recursive lookup: find the node responsible for `target` and reply
    /// directly to `reply_to`.
    FindSuccessor {
        /// Identifier being located.
        target: Id,
        /// Node that should receive the reply.
        reply_to: NodeRef,
        /// Correlation token chosen by the requester.
        request_id: u64,
        /// Hops taken so far (diagnostics / scalability experiments).
        hops: u32,
    },
    /// Reply to [`RouterMessage::FindSuccessor`].
    FindSuccessorReply {
        /// Correlation token from the request.
        request_id: u64,
        /// The node responsible for the requested identifier.
        owner: NodeRef,
        /// Start of the arc `(arc_start, owner.id]` the replier vouches for:
        /// every identifier in it — not only the one asked about — belongs
        /// to `owner`, which the replier is itself or has heard from since
        /// its last stabilization probe.  Equal to `owner.id` — no arc —
        /// when the replier cannot say the latter.
        arc_start: Id,
        /// Hops the request travelled before reaching the owner.
        hops: u32,
    },
    /// Stabilization probe: "who is your predecessor, and what is your
    /// successor list?"
    GetNeighbors {
        /// The asking node.
        from: NodeRef,
        /// Whether the asker takes the receiver for its successor.  Such a
        /// probe doubles as Chord's `notify`; one sent to watch a finger
        /// or another peer does not.
        as_successor: bool,
    },
    /// Reply to [`RouterMessage::GetNeighbors`].
    Neighbors {
        /// The replying node.
        from: NodeRef,
        /// The replying node's current predecessor, if known.
        predecessor: Option<NodeRef>,
        /// The replying node's successor list.
        successors: Vec<NodeRef>,
    },
    /// Chord `notify`: the sender believes it may be our predecessor.
    Notify {
        /// The candidate predecessor.
        from: NodeRef,
    },
}

impl WireSize for RouterMessage {
    fn wire_size(&self) -> usize {
        match self {
            RouterMessage::FindSuccessor { .. } => 8 + 14 + 8 + 4,
            RouterMessage::FindSuccessorReply { .. } => 8 + 14 + 8 + 4,
            RouterMessage::GetNeighbors { .. } => 14 + 1,
            RouterMessage::Neighbors {
                predecessor,
                successors,
                ..
            } => 14 + predecessor.wire_size() + successors.wire_size(),
            RouterMessage::Notify { .. } => 14,
        }
    }
}

/// Effects the router asks its host to perform.
#[derive(Debug, Clone)]
pub enum RouterEffect {
    /// Transmit a routing message.
    Send {
        /// Destination address.
        to: NodeAddr,
        /// The message.
        msg: RouterMessage,
    },
    /// A lookup issued through [`Router::lookup`] completed.
    LookupDone {
        /// The requester's correlation token.
        request_id: u64,
        /// The node responsible for the identifier.
        owner: NodeRef,
        /// Start of the arc `(arc_start, owner.id]` the answer covers;
        /// `owner.id` when it covers none worth remembering.
        arc_start: Id,
        /// Number of overlay hops the lookup took.
        hops: u32,
    },
    /// A peer stated that `owner` is responsible for the whole arc
    /// `(arc_start, owner.id]`, in a reply no [`RouterEffect::LookupDone`]
    /// reports: a finger-refresh or join answer, or the replier's own arc
    /// as a [`RouterMessage::Neighbors`] reply spells it out.  Emitted only
    /// when the membership epoch has not moved since the question was asked.
    OwnedArc {
        /// Start of the arc (exclusive).
        arc_start: Id,
        /// The arc's owner; its id is the arc's (inclusive) end.
        owner: NodeRef,
    },
}

/// Router tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Length of the successor list kept for resilience.
    pub successor_list_len: usize,
    /// A neighbor is presumed failed if it has not been heard from for this
    /// long (microseconds).
    pub liveness_timeout: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            successor_list_len: 4,
            liveness_timeout: 30_000_000,
        }
    }
}

/// Internal request ids (finger-table refreshes) use the top bit so they can
/// never collide with ids issued by the wrapper.
const INTERNAL_ID_BIT: u64 = 1 << 63;

/// Chord-style ring router.
#[derive(Debug, Clone)]
pub struct Router {
    me: NodeRef,
    config: RouterConfig,
    predecessor: Option<NodeRef>,
    successors: Vec<NodeRef>,
    fingers: Vec<Option<NodeRef>>,
    /// When each peer last sent this node a routing message.
    last_heard: HashMap<NodeAddr, SimTime>,
    /// Per peer, when its outstanding probe is timed from (usually when it
    /// was sent; see [`Router::on_stabilize`]); used for fail-stop
    /// detection (a peer is presumed dead once that is the liveness timeout
    /// ago).
    unanswered_probe: HashMap<NodeAddr, SimTime>,
    next_finger_to_fix: u32,
    probe_rotation: usize,
    bootstrap_addr: Option<NodeAddr>,
    /// Probing rounds run so far; every third one re-runs the join.
    probing_rounds: u64,
    /// When the latest probing round ran, and the peers it probed.
    last_round: Option<SimTime>,
    round_probes: Vec<NodeAddr>,
    /// Gap from the latest probing round to the next one.
    probe_interval: Duration,
    /// A sign of change seen between ticks that snaps the back-off back: a
    /// misdirected request, or a finger refresh that moved a finger.
    change_seen: bool,
    /// A probing round ran since the last finger refresh.
    fingers_due: bool,
    /// Times the back-off snapped back from a longer interval to one tick.
    backoff_resets: u64,
    internal_seq: u64,
    /// In-flight internal lookups: the finger they refresh (`u32::MAX` for a
    /// join) and the membership epoch they were asked in.
    pending_internal: HashMap<u64, (u32, u64)>,
    /// The membership epoch at the end of the latest probing round, i.e.
    /// the one its `GetNeighbors` probes were asked in.
    probed_epoch: u64,
    /// Bumped whenever the neighbor view (predecessor / successor list)
    /// changes — node adopted, evicted, or presumed dead.  Owner resolutions
    /// derived from routing state (e.g. the wrapper's owner cache feeding
    /// batched puts) are only valid within one epoch; callers compare epochs
    /// to invalidate on membership change.
    membership_epoch: u64,
}

impl Router {
    /// Create a router for a node that initially knows no one (it is the
    /// first node of a fresh ring until it joins another).
    pub fn new(me: NodeRef, config: RouterConfig) -> Self {
        Router {
            me,
            config,
            predecessor: None,
            successors: Vec::new(),
            fingers: vec![None; ID_BITS as usize],
            last_heard: HashMap::new(),
            unanswered_probe: HashMap::new(),
            next_finger_to_fix: 0,
            probe_rotation: 0,
            bootstrap_addr: None,
            probing_rounds: 0,
            last_round: None,
            round_probes: Vec::new(),
            probe_interval: STABILIZE_INTERVAL,
            change_seen: false,
            fingers_due: false,
            backoff_resets: 0,
            internal_seq: 0,
            pending_internal: HashMap::new(),
            probed_epoch: 0,
            membership_epoch: 0,
        }
    }

    /// Create a router whose neighbor state is computed offline from full
    /// knowledge of the ring.  Used by experiments that want a converged
    /// overlay without simulating the join protocol, and by unit tests.
    pub fn with_static_ring(me: NodeRef, all: &[NodeRef], config: RouterConfig) -> Self {
        let mut router = Router::new(me, config);
        if all.len() <= 1 {
            return router;
        }
        let mut ring: Vec<NodeRef> = all.to_vec();
        ring.sort_by_key(|n| n.id.0);
        ring.dedup_by_key(|n| n.id.0);
        let pos = ring
            .iter()
            .position(|n| n.id == me.id)
            .expect("own node must be part of the ring");
        let n = ring.len();
        router.predecessor = Some(ring[(pos + n - 1) % n]);
        router.successors = (1..=config.successor_list_len.min(n - 1))
            .map(|i| ring[(pos + i) % n])
            .collect();
        for k in 0..ID_BITS {
            let target = me.id.finger_target(k);
            let owner = ring
                .iter()
                .copied()
                .min_by_key(|cand| target.distance_to(cand.id))
                .expect("ring is non-empty");
            router.fingers[k as usize] = Some(owner);
        }
        router
    }

    /// This node's identity.
    pub fn me(&self) -> NodeRef {
        self.me
    }

    /// The current membership epoch: any change to the neighbor view bumps
    /// it, invalidating owner resolutions cached outside the router.
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    /// Current predecessor, if known.
    pub fn predecessor(&self) -> Option<NodeRef> {
        self.predecessor
    }

    /// Current immediate successor, if any.
    pub fn successor(&self) -> Option<NodeRef> {
        self.successors.first().copied()
    }

    /// All distinct nodes this router currently knows about (diagnostics).
    pub fn known_peers(&self) -> Vec<NodeRef> {
        let mut peers: Vec<NodeRef> = self
            .successors
            .iter()
            .copied()
            .chain(self.predecessor)
            .chain(self.fingers.iter().flatten().copied())
            .filter(|n| n.addr != self.me.addr)
            .collect();
        peers.sort_by_key(|n| n.id.0);
        peers.dedup_by_key(|n| n.id.0);
        peers
    }

    /// The gap from the latest probing round to the next: one
    /// [`STABILIZE_INTERVAL`] after any sign of change, doubled by each calm
    /// round up to [`Router::probe_cap`].
    pub fn probe_interval(&self) -> Duration {
        self.probe_interval
    }

    /// The longest gap between probing rounds: the largest power-of-two
    /// multiple of [`STABILIZE_INTERVAL`] that is at most half the liveness
    /// timeout (one tick when even two ticks exceed it), so a peer probed
    /// at the end of the longest gap still has half the timeout to answer.
    pub fn probe_cap(&self) -> Duration {
        let mut cap = STABILIZE_INTERVAL;
        while 2 * cap <= self.config.liveness_timeout / 2 {
            cap *= 2;
        }
        cap
    }

    /// Probing rounds run so far (ticks that sent probes).
    pub fn probing_rounds(&self) -> u64 {
        self.probing_rounds
    }

    /// Times the probe interval snapped back to one tick from a longer one.
    pub fn backoff_resets(&self) -> u64 {
        self.backoff_resets
    }

    /// Snap the back-off back: the host saw a sign that the ring moved (a
    /// request arrived here for an identifier this node does not own).  The
    /// next tick is a probing round.
    pub fn reset_backoff(&mut self) {
        self.change_seen = true;
    }

    /// True when the router currently presumes `addr` to have failed: a
    /// probe to it has gone unanswered for longer than the liveness timeout.
    pub fn presumed_dead(&self, addr: NodeAddr, now: SimTime) -> bool {
        self.unanswered_probe
            .get(&addr)
            .is_some_and(|&t| now.saturating_sub(t) >= self.config.liveness_timeout)
    }

    /// True when this node is responsible for `id`: the identifier falls in
    /// the arc `(predecessor, me]`, or the node knows of no other node.  A
    /// node that knows successors but no predecessor owns nothing: the arc
    /// behind it is not known, and claiming the whole ring would make it a
    /// second owner of every key (a node cut off by a partition comes back
    /// so, and used to go on rooting every window it fed).
    pub fn is_responsible(&self, id: Id) -> bool {
        match self.predecessor {
            None => self.successors.is_empty(),
            Some(pred) => id.in_interval(pred.id, self.me.id),
        }
    }

    /// Where the arc this node answers for starts when it says "I own
    /// `target`": its predecessor, so the arc is the whole `(predecessor,
    /// me]` it [`is_responsible`](Router::is_responsible) for.  A node
    /// alone on the ring owns everything, the arc `(me, me]`; the resolver
    /// remembers no arc that starts where it ends.
    fn own_arc_start(&self) -> Id {
        self.predecessor.map_or(self.me.id, |p| p.id)
    }

    /// The owner of `id` when it is determinable from purely local routing
    /// state — this node itself, or a successor-list entry whose arc
    /// authoritatively covers `id` (successors are consecutive on the ring,
    /// so the first entry past `id` owns it).  `None` means a routed lookup
    /// would be required; callers such as the batched put use this to group
    /// transfers per destination without paying a lookup round.
    pub fn known_owner(&self, id: Id, now: SimTime) -> Option<NodeRef> {
        if self.is_responsible(id) {
            return Some(self.me);
        }
        let mut prev = self.me.id;
        for s in &self.successors {
            if self.presumed_dead(s.addr, now) {
                return None;
            }
            if id.in_interval(prev, s.id) {
                return Some(*s);
            }
            prev = s.id;
        }
        None
    }

    /// The next hop towards the node responsible for `id`, or `None` when
    /// this node is itself responsible (or knows no one else).  Peers that
    /// are presumed dead at time `now` are skipped.
    pub fn next_hop(&self, id: Id, now: SimTime) -> Option<NodeRef> {
        if self.is_responsible(id) {
            return None;
        }
        let successor = self.live_successor(now)?;
        if id.in_interval(self.me.id, successor.id) {
            return Some(successor);
        }
        Some(self.closest_preceding(id, now).unwrap_or(successor))
    }

    /// The first successor-list entry not presumed dead.
    fn live_successor(&self, now: SimTime) -> Option<NodeRef> {
        self.successors
            .iter()
            .find(|s| !self.presumed_dead(s.addr, now))
            .copied()
            .or_else(|| self.successor())
    }

    fn closest_preceding(&self, id: Id, now: SimTime) -> Option<NodeRef> {
        let mut best: Option<NodeRef> = None;
        for cand in self.fingers.iter().flatten().chain(self.successors.iter()) {
            if cand.addr == self.me.addr || self.presumed_dead(cand.addr, now) {
                continue;
            }
            if cand.id.strictly_between(self.me.id, id) {
                best = match best {
                    None => Some(*cand),
                    Some(b) => {
                        // Prefer the candidate closest to (but before) the target.
                        if b.id.distance_to(id) > cand.id.distance_to(id) {
                            Some(*cand)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
        }
        best
    }

    /// Join an existing ring through `bootstrap`, or become a singleton ring
    /// if no bootstrap node is given.
    pub fn bootstrap(&mut self, bootstrap: Option<NodeAddr>) -> Vec<RouterEffect> {
        self.bootstrap_addr = bootstrap;
        match bootstrap {
            None => Vec::new(),
            Some(addr) => {
                // Ask the bootstrap node to find our successor.
                let request_id = self.next_internal_id(u32::MAX);
                vec![RouterEffect::Send {
                    to: addr,
                    msg: RouterMessage::FindSuccessor {
                        target: self.me.id,
                        reply_to: self.me,
                        request_id,
                        hops: 0,
                    },
                }]
            }
        }
    }

    fn next_internal_id(&mut self, finger: u32) -> u64 {
        self.internal_seq += 1;
        let id = INTERNAL_ID_BIT | self.internal_seq;
        self.pending_internal
            .insert(id, (finger, self.membership_epoch));
        id
    }

    /// Issue a lookup for the owner of `target`; the result is reported with
    /// a [`RouterEffect::LookupDone`] carrying `request_id`.  `request_id`
    /// must not have its top bit set (that range is reserved for internal
    /// lookups).
    pub fn lookup(&mut self, target: Id, request_id: u64, now: SimTime) -> Vec<RouterEffect> {
        debug_assert_eq!(request_id & INTERNAL_ID_BIT, 0);
        self.start_lookup(target, request_id, now)
    }

    fn start_lookup(&mut self, target: Id, request_id: u64, now: SimTime) -> Vec<RouterEffect> {
        // Resolved from this node's own state: no arc worth remembering,
        // the same state answers the next question as cheaply.
        let local = |owner: NodeRef| {
            vec![RouterEffect::LookupDone {
                request_id,
                owner,
                arc_start: owner.id,
                hops: 0,
            }]
        };
        if self.is_responsible(target) {
            return local(self.me);
        }
        // If the target lies between us and our successor, the successor is
        // authoritatively the owner: no lookup message is needed.
        if let Some(successor) = self.live_successor(now) {
            if target.in_interval(self.me.id, successor.id) {
                return local(successor);
            }
        }
        match self.next_hop(target, now) {
            None => local(self.me),
            Some(next) => vec![RouterEffect::Send {
                to: next.addr,
                msg: RouterMessage::FindSuccessor {
                    target,
                    reply_to: self.me,
                    request_id,
                    hops: 1,
                },
            }],
        }
    }

    /// Handle an incoming routing message.
    pub fn on_message(
        &mut self,
        from: NodeAddr,
        msg: RouterMessage,
        now: SimTime,
    ) -> Vec<RouterEffect> {
        self.last_heard.insert(from, now);
        self.unanswered_probe.remove(&from);
        match msg {
            RouterMessage::FindSuccessor {
                target,
                reply_to,
                request_id,
                hops,
            } => {
                let reply = |owner: NodeRef, arc_start: Id| {
                    vec![RouterEffect::Send {
                        to: reply_to.addr,
                        msg: RouterMessage::FindSuccessorReply {
                            request_id,
                            owner,
                            arc_start,
                            hops,
                        },
                    }]
                };
                // Answer from the ring as it stands, THEN learn about the
                // asker: a joiner's predecessor that adopted it on first
                // sight would answer its join lookup "your successor is
                // you".
                let effects = if self.is_responsible(target) {
                    reply(self.me, self.own_arc_start())
                } else if let Some(successor) = self.live_successor(now) {
                    if target.in_interval(self.me.id, successor.id) {
                        // Classic Chord: the successor owns the arc — an
                        // arc to remember only if the successor answered
                        // this round's probe.  A crashed one keeps being
                        // named until it is presumed dead; remembered, that
                        // answer would outlast the detection.
                        let vouched = self.successor() == Some(successor)
                            && !self.unanswered_probe.contains_key(&successor.addr);
                        reply(successor, if vouched { self.me.id } else { successor.id })
                    } else {
                        let next = self.closest_preceding(target, now).unwrap_or(successor);
                        vec![RouterEffect::Send {
                            to: next.addr,
                            msg: RouterMessage::FindSuccessor {
                                target,
                                reply_to,
                                request_id,
                                hops: hops + 1,
                            },
                        }]
                    }
                } else {
                    // Singleton that somehow received a lookup: we own it.
                    reply(self.me, self.own_arc_start())
                };
                self.consider(reply_to, now);
                effects
            }
            RouterMessage::FindSuccessorReply {
                request_id,
                owner,
                arc_start,
                hops,
            } => {
                self.consider(owner, now);
                if request_id & INTERNAL_ID_BIT != 0 {
                    let mut effects = Vec::new();
                    if let Some((finger, asked_epoch)) = self.pending_internal.remove(&request_id) {
                        if finger == u32::MAX {
                            // Join (or periodic re-join) reply: adopt the
                            // owner as our successor only if it is an
                            // improvement, i.e. we have no successor yet or
                            // the owner falls between us and the current one.
                            let improves = match self.successor() {
                                None => true,
                                Some(s) => owner.id.strictly_between(self.me.id, s.id),
                            };
                            if improves {
                                self.adopt_successor(owner);
                            }
                        } else if owner.addr != self.me.addr {
                            let slot = &mut self.fingers[finger as usize];
                            self.change_seen |= *slot != Some(owner);
                            *slot = Some(owner);
                        }
                        if asked_epoch == self.membership_epoch {
                            effects.push(RouterEffect::OwnedArc { arc_start, owner });
                        }
                    }
                    effects
                } else {
                    vec![RouterEffect::LookupDone {
                        request_id,
                        owner,
                        arc_start,
                        hops,
                    }]
                }
            }
            RouterMessage::GetNeighbors {
                from: asker,
                as_successor,
            } => {
                // A probe from a node that takes us for its successor is
                // the notify.  (Not any probe: with no predecessor known,
                // a far peer watching us would be taken for one, and the
                // arc stated from it would span nodes in between.)
                if as_successor {
                    self.offer_predecessor(asker, now);
                } else {
                    self.consider(asker, now);
                }
                vec![RouterEffect::Send {
                    to: asker.addr,
                    msg: RouterMessage::Neighbors {
                        from: self.me,
                        predecessor: self.predecessor,
                        successors: self.successors.clone(),
                    },
                }]
            }
            RouterMessage::Neighbors {
                from: replier,
                predecessor,
                successors,
            } => {
                let successor_before = self.successor();
                self.consider(replier, now);
                // Learn opportunistically about everyone mentioned in the
                // reply; this speeds up convergence of a freshly built ring.
                for s in &successors {
                    self.consider(*s, now);
                }
                // The reply spells out the arc the replier answers "I own
                // it" for.  (Its successor's arc is on the wire too, but
                // nothing here says that successor still answers.)
                let own_arc = predecessor.map(|p| RouterEffect::OwnedArc {
                    arc_start: p.id,
                    owner: replier,
                });
                // Chord stabilization step: if our successor's predecessor
                // sits between us and our successor, it becomes our successor.
                if let Some(p) = predecessor {
                    if p.addr != self.me.addr
                        && self
                            .successor()
                            .is_some_and(|s| p.id.strictly_between(self.me.id, s.id))
                    {
                        self.adopt_successor(p);
                    }
                }
                // Refresh the successor list from the successor's view.  It
                // speaks for the stretch of ring it lists — an entry held
                // there that it no longer names is gone — and what is held
                // beyond that stretch stays: a newcomer's list is shorter
                // than ours, and adopting it whole would forget the ring
                // past it.
                if self.successor().map(|s| s.addr) == Some(replier.addr) {
                    let mut list = vec![replier];
                    list.extend(successors.into_iter().filter(|n| n.addr != self.me.addr));
                    let clockwise = |n: &NodeRef| self.me.id.distance_to(n.id);
                    let reach = list.iter().map(clockwise).max().unwrap_or(0);
                    list.extend(self.successors.iter().filter(|n| clockwise(n) > reach));
                    list.truncate(self.config.successor_list_len);
                    if list != self.successors {
                        self.successors = list;
                        self.membership_epoch += 1;
                    }
                }
                // A successor this reply made us adopt has not been probed
                // yet, so tell it now that we might be its predecessor; one
                // we already had learned that from the probe itself.
                let mut effects = Vec::new();
                if let Some(s) = self.successor().filter(|s| Some(*s) != successor_before) {
                    effects.push(RouterEffect::Send {
                        to: s.addr,
                        msg: RouterMessage::Notify { from: self.me },
                    });
                }
                if self.probed_epoch == self.membership_epoch {
                    effects.extend(own_arc);
                }
                effects
            }
            RouterMessage::Notify { from: candidate } => {
                self.offer_predecessor(candidate, now);
                Vec::new()
            }
        }
    }

    /// Chord's `notify` rule, run for whoever says it may be our
    /// predecessor — in a [`RouterMessage::Notify`] or by probing us as its
    /// successor: adopt `candidate` when no predecessor is known or it sits between
    /// the current one and this node.
    fn offer_predecessor(&mut self, candidate: NodeRef, now: SimTime) {
        self.consider(candidate, now);
        let adopt = match self.predecessor {
            None => true,
            Some(pred) => candidate.id.strictly_between(pred.id, self.me.id),
        };
        if adopt && candidate.addr != self.me.addr {
            self.predecessor = Some(candidate);
            self.membership_epoch += 1;
        }
    }

    /// Learn about a node opportunistically (any message that mentions it).
    fn consider(&mut self, node: NodeRef, now: SimTime) {
        if node.addr == self.me.addr {
            return;
        }
        self.last_heard.entry(node.addr).or_insert(now);
        match self.successor() {
            None => {
                self.successors.push(node);
                self.membership_epoch += 1;
            }
            Some(s) => {
                if node.id.strictly_between(self.me.id, s.id) {
                    self.adopt_successor(node);
                }
            }
        }
    }

    fn adopt_successor(&mut self, node: NodeRef) {
        if node.addr == self.me.addr {
            return;
        }
        self.successors.retain(|n| n.addr != node.addr);
        self.successors.insert(0, node);
        self.successors.truncate(self.config.successor_list_len);
        self.membership_epoch += 1;
    }

    /// The stabilization tick, every [`STABILIZE_INTERVAL`]: evict what
    /// looks dead, then — when a probing round is due — probe the current
    /// successor (and one other known peer, in rotation) for its neighbor
    /// state; the successor's probe doubles as the notify.
    ///
    /// Probing rounds back off on a calm ring.  A round is calm when the
    /// membership epoch has not moved since the previous one (nothing was
    /// adopted or evicted), every probe the previous one sent was answered,
    /// and no other sign of change was seen (a misdirected request, a
    /// finger refresh that moved a finger); a calm round doubles the gap to
    /// the next, up to [`Router::probe_cap`].  A tick that is not calm
    /// snaps the gap back to one tick and so probes at once.  Finger
    /// refreshes and re-joins run only on probing rounds and back off with
    /// them.  At a cap of one tick every tick probes.
    ///
    /// Detection keeps its bound.  A probe to a peer heard from since the
    /// previous round is timed from that round plus one tick (never from
    /// more than a cap before now), not from when it is sent: a crashed
    /// successor is presumed dead one liveness timeout and one tick after
    /// the crash whatever the gap, and a live one still has half the
    /// timeout to answer.  A predecessor is dropped once it has been silent
    /// for the timeout plus a cap: its own probes of this node as its
    /// successor arrive at least every cap.
    pub fn on_stabilize(&mut self, now: SimTime) -> Vec<RouterEffect> {
        // Evict successors whose probes have gone unanswered.
        let dead: Vec<NodeAddr> = self
            .successors
            .iter()
            .filter(|s| self.presumed_dead(s.addr, now))
            .map(|s| s.addr)
            .collect();
        if !dead.is_empty() {
            self.successors.retain(|s| !dead.contains(&s.addr));
            // A departed node left the neighbor view: owner resolutions
            // cached outside the router must not keep grouping toward it.
            self.membership_epoch += 1;
        }
        // Evict failed finger entries so routing stops using them.
        for slot in &mut self.fingers {
            if let Some(f) = slot {
                if dead.contains(&f.addr) {
                    *slot = None;
                }
            }
        }
        // Evict a presumed-dead or silent predecessor so responsibility can
        // widen.
        let cap = self.probe_cap();
        if let Some(p) = self.predecessor {
            let heard = *self.last_heard.entry(p.addr).or_insert(now);
            let silent = now.saturating_sub(heard) >= self.config.liveness_timeout + cap;
            if silent || self.presumed_dead(p.addr, now) {
                self.predecessor = None;
                self.membership_epoch += 1;
            }
        }
        let answered = self
            .round_probes
            .iter()
            .all(|peer| !self.unanswered_probe.contains_key(peer));
        let calm = answered && !self.change_seen && self.probed_epoch == self.membership_epoch;
        if !calm {
            if self.probe_interval > STABILIZE_INTERVAL {
                self.backoff_resets += 1;
            }
            self.probe_interval = STABILIZE_INTERVAL;
        }
        if self
            .last_round
            .is_some_and(|at| now < at + self.probe_interval)
        {
            return Vec::new();
        }
        if calm {
            self.probe_interval = (2 * self.probe_interval).min(cap);
        }
        self.change_seen = false;
        self.fingers_due = true;
        self.probing_rounds += 1;
        self.round_probes.clear();
        let previous = self.last_round.replace(now);
        let mut effects = Vec::new();
        let probe = |router: &mut Router, target: NodeRef, effects: &mut Vec<RouterEffect>| {
            let confirmed = previous.filter(|&at| {
                router
                    .last_heard
                    .get(&target.addr)
                    .is_some_and(|&heard| heard >= at)
            });
            let timed_from = confirmed.map_or(now, |at| {
                at.max(now.saturating_sub(cap)) + STABILIZE_INTERVAL
            });
            router
                .unanswered_probe
                .entry(target.addr)
                .or_insert(timed_from);
            router.round_probes.push(target.addr);
            effects.push(RouterEffect::Send {
                to: target.addr,
                msg: RouterMessage::GetNeighbors {
                    from: router.me,
                    as_successor: router.successor() == Some(target),
                },
            });
        };
        if let Some(s) = self.successor() {
            probe(self, s, &mut effects);
        }
        // Probe one additional known peer per round so that failures of
        // finger-table entries are eventually detected.
        let peers = self.known_peers();
        if !peers.is_empty() {
            self.probe_rotation = (self.probe_rotation + 1) % peers.len();
            let extra = peers[self.probe_rotation];
            if Some(extra.addr) != self.successor().map(|s| s.addr) {
                probe(self, extra, &mut effects);
            }
        }
        // Periodically re-run the join lookup through the bootstrap node.
        // This repairs "loopy" states in which the overlay has split into
        // disjoint cycles (possible when many nodes join a ring whose early
        // members have not stabilized yet): the re-join answer is adopted
        // only when it improves the successor pointer.
        if self.probing_rounds.is_multiple_of(3) {
            if let Some(addr) = self.bootstrap_addr {
                if addr != self.me.addr {
                    let request_id = self.next_internal_id(u32::MAX);
                    effects.push(RouterEffect::Send {
                        to: addr,
                        msg: RouterMessage::FindSuccessor {
                            target: self.me.id,
                            reply_to: self.me,
                            request_id,
                            hops: 0,
                        },
                    });
                }
            }
        }
        self.probed_epoch = self.membership_epoch;
        effects
    }

    /// Periodic finger maintenance: refresh one finger by looking up its
    /// target through the overlay — when a probing round has run since the
    /// last refresh, so refreshes back off with the probes.
    pub fn on_fix_fingers(&mut self, now: SimTime) -> Vec<RouterEffect> {
        if self.successor().is_none() || !std::mem::take(&mut self.fingers_due) {
            return Vec::new();
        }
        // Cycle through a subset of fingers; low fingers are mostly covered
        // by the successor list so refreshing every 4th keeps traffic down.
        self.next_finger_to_fix = (self.next_finger_to_fix + 4) % ID_BITS;
        let finger = self.next_finger_to_fix;
        let target = self.me.id.finger_target(finger);
        let request_id = self.next_internal_id(finger);
        let effects = self.start_lookup(target, request_id, now);
        if effects
            .iter()
            .any(|e| matches!(e, RouterEffect::LookupDone { .. }))
        {
            // A lookup that resolves locally just clears the pending entry.
            self.pending_internal.remove(&request_id);
            return Vec::new();
        }
        effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: u32, id: u64) -> NodeRef {
        NodeRef {
            id: Id(id),
            addr: NodeAddr(i),
        }
    }

    fn ring(ids: &[u64]) -> Vec<NodeRef> {
        ids.iter()
            .enumerate()
            .map(|(i, &id)| node(i as u32, id))
            .collect()
    }

    #[test]
    fn static_ring_has_correct_neighbors() {
        let nodes = ring(&[10, 20, 30, 40]);
        let r = Router::with_static_ring(nodes[1], &nodes, RouterConfig::default());
        assert_eq!(r.predecessor().unwrap().id, Id(10));
        assert_eq!(r.successor().unwrap().id, Id(30));
        assert_eq!(r.successors.len(), 3);
    }

    #[test]
    fn responsibility_follows_predecessor_arc() {
        let nodes = ring(&[10, 20, 30, 40]);
        let r = Router::with_static_ring(nodes[1], &nodes, RouterConfig::default());
        assert!(r.is_responsible(Id(15)));
        assert!(r.is_responsible(Id(20)));
        assert!(!r.is_responsible(Id(10)));
        assert!(!r.is_responsible(Id(25)));
        // Wrap-around arc belongs to the smallest node.
        let first = Router::with_static_ring(nodes[0], &nodes, RouterConfig::default());
        assert!(first.is_responsible(Id(50)));
        assert!(first.is_responsible(Id(5)));
        assert!(first.is_responsible(Id(10)));
    }

    #[test]
    fn next_hop_makes_forward_progress() {
        let ids: Vec<u64> = (0..32).map(|i| i * 1000).collect();
        let nodes = ring(&ids);
        let target = Id(17_500); // owned by node with id 18_000
        let mut current = nodes[1];
        let mut hops = 0;
        loop {
            let r = Router::with_static_ring(current, &nodes, RouterConfig::default());
            match r.next_hop(target, 0) {
                None => break,
                Some(next) => {
                    // Forward progress: either the next hop already owns the
                    // target (it is the target's successor, possibly "past"
                    // it on the ring) or it is clockwise-closer to the target
                    // than we are.
                    let next_router =
                        Router::with_static_ring(next, &nodes, RouterConfig::default());
                    assert!(
                        next_router.is_responsible(target)
                            || next.id.distance_to(target) < current.id.distance_to(target),
                        "no forward progress from {:?} to {:?}",
                        current.id,
                        next.id
                    );
                    current = next;
                    hops += 1;
                    assert!(hops < 32, "routing loop");
                }
            }
        }
        assert_eq!(current.id, Id(18_000));
        // Finger tables give logarithmic path lengths.
        assert!(hops <= 6, "expected O(log n) hops, got {hops}");
    }

    #[test]
    fn known_owner_covers_self_and_successor_arcs() {
        let nodes = ring(&[10, 20, 30, 40]);
        let r = Router::with_static_ring(nodes[1], &nodes, RouterConfig::default());
        // Own arc (10, 20].
        assert_eq!(r.known_owner(Id(15), 0).unwrap().id, Id(20));
        // Successor-list arcs (20, 30], (30, 40], (40, 10] are authoritative.
        assert_eq!(r.known_owner(Id(25), 0).unwrap().id, Id(30));
        assert_eq!(r.known_owner(Id(40), 0).unwrap().id, Id(40));
        assert_eq!(r.known_owner(Id(5), 0).unwrap().id, Id(10));
        // A presumed-dead successor forces the caller back to a lookup.
        let mut r = Router::with_static_ring(nodes[1], &nodes, RouterConfig::default());
        r.on_stabilize(0);
        assert!(r.presumed_dead(NodeAddr(2), 60_000_000));
        assert_eq!(r.known_owner(Id(25), 60_000_000), None);
    }

    #[test]
    fn singleton_owns_everything() {
        let me = node(0, 500);
        let r = Router::new(me, RouterConfig::default());
        assert!(r.is_responsible(Id(0)));
        assert!(r.is_responsible(Id(u64::MAX)));
        assert!(r.next_hop(Id(123), 0).is_none());
    }

    #[test]
    fn find_successor_resolves_over_message_exchange() {
        let nodes = ring(&[100, 2_000, 60_000, 900_000]);
        let mut routers: Vec<Router> = nodes
            .iter()
            .map(|n| Router::with_static_ring(*n, &nodes, RouterConfig::default()))
            .collect();
        // Node 0 looks up an id owned by node 3.
        let target = Id(800_000);
        let mut effects = routers[0].lookup(target, 7, 0);
        let mut done = None;
        let mut guard = 0;
        while let Some(effect) = effects.pop() {
            guard += 1;
            assert!(guard < 50, "lookup did not converge");
            match effect {
                RouterEffect::Send { to, msg } => {
                    let from = nodes
                        .iter()
                        .find(|_n| routers[to.index()].me().addr == to)
                        .map(|_| to)
                        .unwrap();
                    let more = routers[to.index()].on_message(from, msg, 0);
                    effects.extend(more);
                }
                RouterEffect::LookupDone {
                    request_id,
                    owner,
                    arc_start,
                    ..
                } => {
                    assert_eq!(request_id, 7);
                    done = Some((arc_start, owner));
                }
                RouterEffect::OwnedArc { .. } => panic!("only Neighbors and internal replies"),
            }
        }
        // The answer names the owner and the whole arc it covers.
        let (arc_start, owner) = done.unwrap();
        assert_eq!((arc_start, owner.id), (Id(60_000), Id(900_000)));
    }

    /// The `FindSuccessorReply` `router` sends when asked about `target`.
    fn reply_about(router: &mut Router, target: u64) -> (Id, NodeRef) {
        let asker = node(9, 5);
        let ask = RouterMessage::FindSuccessor {
            target: Id(target),
            reply_to: asker,
            request_id: 1,
            hops: 1,
        };
        match router.on_message(asker.addr, ask, 0).as_slice() {
            [RouterEffect::Send {
                msg:
                    RouterMessage::FindSuccessorReply {
                        owner, arc_start, ..
                    },
                ..
            }] => (*arc_start, *owner),
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    #[test]
    fn replies_state_the_arc_they_cover() {
        let nodes = ring(&[10, 20, 30, 40]);
        // The arc start is eight more bytes on the wire.
        let reply = RouterMessage::FindSuccessorReply {
            request_id: 1,
            owner: nodes[0],
            arc_start: Id(40),
            hops: 2,
        };
        assert_eq!(reply.wire_size(), 8 + nodes[0].wire_size() + 8 + 4);
        let mut r = Router::with_static_ring(nodes[1], &nodes, RouterConfig::default());
        // "I own it": the replier's whole arc, from its predecessor.
        assert_eq!(reply_about(&mut r, 15), (Id(10), nodes[1]));
        // "My successor owns it": the arc between the two…
        assert_eq!(reply_about(&mut r, 25), (Id(20), nodes[2]));
        // …but no arc while a probe to that successor is unanswered: it may
        // have crashed, and a remembered arc would outlive its detection.
        r.on_stabilize(0);
        assert_eq!(reply_about(&mut r, 25), (Id(30), nodes[2]));
        r.on_message(nodes[2].addr, RouterMessage::Notify { from: nodes[2] }, 1);
        assert_eq!(reply_about(&mut r, 25), (Id(20), nodes[2]));
        // A node alone on the ring owns every identifier: the arc from
        // itself round to itself, which no resolver remembers.
        let mut alone = Router::new(nodes[1], RouterConfig::default());
        assert_eq!(reply_about(&mut alone, 15), (Id(20), nodes[1]));
        // Answering taught it the asker (id 5): now it knows a successor
        // and no predecessor, and owns nothing.  It used to claim every
        // identifier still, so a node cut off by a partition answered "I
        // own it" for keys its healed ring gave to another — two roots for
        // one window.  It names its successor for the successor's arc and
        // routes the rest there.
        let asker = node(9, 5);
        assert!(!alone.is_responsible(Id(15)) && !alone.is_responsible(Id(20)));
        assert_eq!(reply_about(&mut alone, 3), (Id(20), asker));
        let ask = RouterMessage::FindSuccessor {
            target: Id(15),
            reply_to: asker,
            request_id: 1,
            hops: 1,
        };
        assert!(matches!(
            alone.on_message(asker.addr, ask, 0).as_slice(),
            [RouterEffect::Send { to, msg: RouterMessage::FindSuccessor { .. } }] if *to == asker.addr
        ));
    }

    fn owned_arcs(effects: &[RouterEffect]) -> Vec<(Id, NodeRef)> {
        effects
            .iter()
            .filter_map(|e| match e {
                RouterEffect::OwnedArc { arc_start, owner } => Some((*arc_start, *owner)),
                _ => None,
            })
            .collect()
    }

    /// Ask `r` for finger refreshes — each as if a probing round had just
    /// run — until one takes a lookup (low fingers resolve locally): the
    /// finger it refreshes and the lookup's token.
    fn finger_lookup(r: &mut Router, now: SimTime) -> (u32, u64) {
        (0..ID_BITS)
            .find_map(|_| {
                r.fingers_due = true;
                match r.on_fix_fingers(now).as_slice() {
                    [] => None,
                    [RouterEffect::Send {
                        msg: RouterMessage::FindSuccessor { request_id, .. },
                        ..
                    }] => Some((r.next_finger_to_fix, *request_id)),
                    other => panic!("expected one finger lookup, got {other:?}"),
                }
            })
            .expect("some finger takes a lookup")
    }

    #[test]
    fn internal_replies_and_neighbors_state_arcs_unless_membership_moved() {
        let ids: Vec<u64> = (1..=16).map(|i| i * 1000).collect();
        let nodes = ring(&ids);
        let mut r = Router::with_static_ring(nodes[0], &nodes, RouterConfig::default());
        let neighbors = |of: usize| RouterMessage::Neighbors {
            from: nodes[of],
            predecessor: Some(nodes[of - 1]),
            successors: vec![nodes[of + 1], nodes[of + 2]],
        };
        // A probed peer's reply states the arc it owns.
        r.on_stabilize(0);
        let effects = r.on_message(nodes[8].addr, neighbors(8), 10);
        assert_eq!(owned_arcs(&effects), vec![(nodes[7].id, nodes[8])]);
        // So does the answer to a finger refresh.
        // (Low fingers resolve locally; skip to one that takes a lookup.)
        let (_, request_id) = finger_lookup(&mut r, 20);
        let answer = |request_id| RouterMessage::FindSuccessorReply {
            request_id,
            owner: nodes[12],
            arc_start: nodes[11].id,
            hops: 2,
        };
        let effects = r.on_message(nodes[11].addr, answer(request_id), 30);
        assert_eq!(owned_arcs(&effects), vec![(nodes[11].id, nodes[12])]);
        // Once the neighbor view moves, answers to questions asked before
        // the move state nothing: they may describe the ring as it was.
        let (_, request_id) = finger_lookup(&mut r, 40);
        let epoch = r.membership_epoch();
        r.on_message(
            NodeAddr(99),
            RouterMessage::Notify {
                from: node(99, 500),
            },
            50,
        );
        assert!(r.membership_epoch() > epoch);
        assert!(owned_arcs(&r.on_message(nodes[11].addr, answer(request_id), 60)).is_empty());
        assert!(owned_arcs(&r.on_message(nodes[8].addr, neighbors(8), 60)).is_empty());
        // The next probe round is asked in the new epoch.
        r.on_stabilize(1_000_000);
        assert_eq!(
            owned_arcs(&r.on_message(nodes[8].addr, neighbors(8), 1_000_010)),
            vec![(nodes[7].id, nodes[8])]
        );
    }

    #[test]
    fn join_and_stabilize_converges_a_small_ring() {
        // Three nodes join through node 0 and run stabilization rounds by
        // exchanging messages directly (no simulator involved).
        let refs = ring(&[1_000, 500_000, 3_000_000_000]);
        let mut routers: Vec<Router> = refs
            .iter()
            .map(|n| Router::new(*n, RouterConfig::default()))
            .collect();

        let mut inbox: Vec<(NodeAddr, NodeAddr, RouterMessage)> = Vec::new();
        let push_effects =
            |from: NodeAddr,
             effects: Vec<RouterEffect>,
             inbox: &mut Vec<(NodeAddr, NodeAddr, RouterMessage)>| {
                for e in effects {
                    if let RouterEffect::Send { to, msg } = e {
                        inbox.push((from, to, msg));
                    }
                }
            };

        // Nodes 1 and 2 bootstrap through node 0.
        for i in 1..3usize {
            let effects = routers[i].bootstrap(Some(refs[0].addr));
            push_effects(refs[i].addr, effects, &mut inbox);
        }
        // Run message delivery + periodic stabilization for a few rounds.
        for round in 0..20u64 {
            let now = round * 1_000_000;
            while let Some((from, to, msg)) = inbox.pop() {
                let effects = routers[to.index()].on_message(from, msg, now);
                push_effects(to, effects, &mut inbox);
            }
            for (i, r) in routers.iter_mut().enumerate() {
                let effects = r.on_stabilize(now);
                push_effects(refs[i].addr, effects, &mut inbox);
            }
        }
        // The ring must be consistent: each node's successor is the next id.
        assert_eq!(routers[0].successor().unwrap().id, Id(500_000));
        assert_eq!(routers[1].successor().unwrap().id, Id(3_000_000_000));
        assert_eq!(routers[2].successor().unwrap().id, Id(1_000));
        assert_eq!(routers[0].predecessor().unwrap().id, Id(3_000_000_000));
    }

    fn notifies(effects: &[RouterEffect]) -> Vec<NodeAddr> {
        effects
            .iter()
            .filter_map(|e| match e {
                RouterEffect::Send {
                    to,
                    msg: RouterMessage::Notify { .. },
                } => Some(*to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn the_probe_is_the_notify() {
        let nodes = ring(&[10, 20, 30, 40]);
        // Node 20 has not heard of its true predecessor (10) yet.
        let mut r = Router::with_static_ring(nodes[1], &nodes[1..], RouterConfig::default());
        assert_eq!(r.predecessor(), Some(nodes[3]));
        let mut asker = Router::with_static_ring(nodes[0], &nodes, RouterConfig::default());
        let probes = asker.on_stabilize(0);
        let probe = match probes.first() {
            Some(RouterEffect::Send {
                to,
                msg: msg @ RouterMessage::GetNeighbors { .. },
            }) if *to == nodes[1].addr => msg.clone(),
            other => panic!("expected the successor's probe first, got {other:?}"),
        };
        // The probe alone makes 20 adopt 10 — stated back in the reply —
        let epoch = r.membership_epoch();
        let reply = match r.on_message(nodes[0].addr, probe, 0).as_slice() {
            [RouterEffect::Send { to, msg }] if *to == nodes[0].addr => msg.clone(),
            other => panic!("expected the reply and nothing else, got {other:?}"),
        };
        assert_eq!(r.predecessor(), Some(nodes[0]));
        assert!(r.membership_epoch() > epoch);
        assert!(matches!(
            &reply,
            RouterMessage::Neighbors { predecessor, .. } if *predecessor == Some(nodes[0])
        ));
        // — and the asker, whose successor the reply confirms, sends no
        // Notify after it: the round is probe and reply.
        let effects = asker.on_message(nodes[1].addr, reply, 0);
        assert_eq!(notifies(&effects), vec![]);
        // A probe from a peer that merely watches us is no notify, even to
        // a node that knows no predecessor at all.
        let mut alone = Router::new(nodes[1], RouterConfig::default());
        let probe = |as_successor| RouterMessage::GetNeighbors {
            from: nodes[3],
            as_successor,
        };
        alone.on_message(nodes[3].addr, probe(false), 0);
        assert_eq!(alone.predecessor(), None);
        alone.on_message(nodes[3].addr, probe(true), 0);
        assert_eq!(alone.predecessor(), Some(nodes[3]));
    }

    #[test]
    fn a_successor_the_reply_reveals_is_notified_once() {
        let nodes = ring(&[10, 20, 30, 40]);
        // Node 10 has not heard of 20: its successor is 30, whose reply
        // names 20 as its predecessor.
        let known = [nodes[0], nodes[2], nodes[3]];
        let mut r = Router::with_static_ring(nodes[0], &known, RouterConfig::default());
        r.on_stabilize(0);
        let reply = RouterMessage::Neighbors {
            from: nodes[2],
            predecessor: Some(nodes[1]),
            successors: vec![nodes[3], nodes[0]],
        };
        let effects = r.on_message(nodes[2].addr, reply, 0);
        assert_eq!(r.successor(), Some(nodes[1]));
        assert_eq!(notifies(&effects), vec![nodes[1].addr]);
    }

    #[test]
    fn a_join_lookup_is_answered_before_its_sender_is_adopted() {
        let nodes = ring(&[10, 20, 30, 40, 50, 60]);
        let mut r = Router::with_static_ring(nodes[1], &nodes, RouterConfig::default());
        let held = r.successors.clone();
        // A joiner at 25 asks node 20 — its predecessor-to-be — who its
        // successor is: 30, not the joiner itself.
        let joiner = node(9, 25);
        let ask = RouterMessage::FindSuccessor {
            target: joiner.id,
            reply_to: joiner,
            request_id: 1,
            hops: 0,
        };
        match r.on_message(joiner.addr, ask, 0).as_slice() {
            [RouterEffect::Send {
                msg: RouterMessage::FindSuccessorReply { owner, .. },
                ..
            }] => assert_eq!(*owner, nodes[2]),
            other => panic!("expected a reply, got {other:?}"),
        }
        // Having answered, 20 takes the joiner as its successor, and the
        // joiner's one-entry list does not make it forget the ring beyond.
        assert_eq!(r.successor(), Some(joiner));
        let reply = RouterMessage::Neighbors {
            from: joiner,
            predecessor: None,
            successors: vec![nodes[2]],
        };
        r.on_message(joiner.addr, reply, 0);
        let mut expected = vec![joiner];
        expected.extend(&held[..3]);
        assert_eq!(r.successors, expected);
    }

    #[test]
    fn stabilize_evicts_unresponsive_successor() {
        let nodes = ring(&[10, 20, 30]);
        let mut r = Router::with_static_ring(nodes[0], &nodes, RouterConfig::default());
        assert_eq!(r.successor().unwrap().id, Id(20));
        // First stabilization probes the successor; it never answers.
        let effects = r.on_stabilize(0);
        assert!(effects
            .iter()
            .any(|e| matches!(e, RouterEffect::Send { to, msg: RouterMessage::GetNeighbors { .. } } if *to == NodeAddr(1))));
        // The other peer (id 30) does answer its probe, so it stays live.
        r.on_message(NodeAddr(2), RouterMessage::Notify { from: nodes[2] }, 1_000);
        // Well past the liveness timeout the successor is presumed dead,
        // evicted, and the next successor-list entry takes over.
        assert!(r.presumed_dead(NodeAddr(1), 60_000_000));
        let effects = r.on_stabilize(60_000_000);
        assert_eq!(r.successor().unwrap().id, Id(30), "dead successor evicted");
        assert!(effects
            .iter()
            .any(|e| matches!(e, RouterEffect::Send { to, msg: RouterMessage::GetNeighbors { .. } } if *to == NodeAddr(2))));
    }

    #[test]
    fn hearing_from_a_peer_clears_suspicion() {
        let nodes = ring(&[10, 20, 30]);
        let mut r = Router::with_static_ring(nodes[0], &nodes, RouterConfig::default());
        r.on_stabilize(0);
        // The successor answers (any message clears the unanswered probe).
        r.on_message(NodeAddr(1), RouterMessage::Notify { from: nodes[1] }, 1_000);
        assert!(!r.presumed_dead(NodeAddr(1), 60_000_000));
        r.on_stabilize(60_000_000);
        assert_eq!(r.successor().unwrap().id, Id(20), "live successor kept");
    }

    const SECOND: SimTime = 1_000_000;

    /// Nodes of a [`Ring`]: enough that a finger refresh takes a lookup.
    const RING_NODES: usize = 32;

    /// A converged ring of routers, every one ticking once a second, with
    /// every message delivered `delay` after it is sent — except that the
    /// `dead` neither tick nor receive.  Node 0 is the one watched.
    struct Ring {
        refs: Vec<NodeRef>,
        routers: Vec<Router>,
        delay: SimTime,
        dead: Vec<NodeAddr>,
        in_flight: Vec<(SimTime, NodeAddr, NodeAddr, RouterMessage)>,
        now: SimTime,
    }

    impl Ring {
        fn new(liveness_timeout: u64) -> Self {
            let config = RouterConfig {
                liveness_timeout,
                ..RouterConfig::default()
            };
            let step = u64::MAX / (RING_NODES as u64 + 1);
            let ids: Vec<u64> = (1..=RING_NODES as u64).map(|i| i * step).collect();
            let refs = ring(&ids);
            let routers = refs
                .iter()
                .map(|n| Router::with_static_ring(*n, &refs, config))
                .collect();
            Ring {
                refs,
                routers,
                delay: 1_000,
                dead: Vec::new(),
                in_flight: Vec::new(),
                now: 0,
            }
        }

        fn send(&mut self, from: NodeAddr, effects: Vec<RouterEffect>, at: SimTime) {
            for effect in effects {
                if let RouterEffect::Send { to, msg } = effect {
                    self.in_flight.push((at + self.delay, from, to, msg));
                }
            }
        }

        /// Deliver, in time order, everything due by `until`.
        fn run_until(&mut self, until: SimTime) {
            while let Some(next) = (0..self.in_flight.len())
                .filter(|&k| self.in_flight[k].0 <= until)
                .min_by_key(|&k| self.in_flight[k].0)
            {
                let (at, from, to, msg) = self.in_flight.remove(next);
                let Some(router) = self.routers.get_mut(to.index()) else {
                    continue; // a node that announced itself and was never built
                };
                if !self.dead.contains(&to) {
                    let effects = router.on_message(from, msg, at);
                    self.send(to, effects, at);
                }
            }
            self.now = until;
        }

        /// Run to the next whole second and tick every live router there;
        /// whether node 0's tick was a probing round.
        fn tick(&mut self) -> bool {
            let at = (self.now / SECOND + 1) * SECOND;
            self.run_until(at);
            let rounds = self.routers[0].probing_rounds();
            for i in 0..self.routers.len() {
                let addr = self.refs[i].addr;
                if !self.dead.contains(&addr) {
                    let effects = self.routers[i].on_stabilize(at);
                    self.send(addr, effects, at);
                }
            }
            self.routers[0].probing_rounds() > rounds
        }

        /// Tick until node 0's probe interval has reached its cap.
        fn back_off(&mut self) {
            for _ in 0..24 {
                self.tick();
            }
            assert_eq!(
                self.routers[0].probe_interval(),
                self.routers[0].probe_cap()
            );
        }

        /// Node `i` crashes half a tick from now.
        fn crash(&mut self, i: usize) -> SimTime {
            self.run_until(self.now + SECOND / 2);
            self.dead.push(self.refs[i].addr);
            self.now
        }
    }

    #[test]
    fn calm_rounds_double_the_probe_interval_up_to_the_derived_cap() {
        let mut ring = Ring::new(30 * SECOND);
        assert_eq!(ring.routers[0].probe_cap(), 8 * SECOND);
        let probed: Vec<SimTime> = (0..40)
            .filter_map(|_| ring.tick().then_some(ring.now / SECOND))
            .collect();
        assert_eq!(probed, vec![1, 3, 7, 15, 23, 31, 39]);
        assert_eq!(ring.routers[0].probe_interval(), 8 * SECOND);
        assert_eq!(ring.routers[0].backoff_resets(), 0);
        // The cap is the largest power-of-two number of ticks at most half
        // the liveness timeout.
        let cap = |liveness_timeout| {
            let config = RouterConfig {
                liveness_timeout,
                ..RouterConfig::default()
            };
            Router::new(node(0, 1), config).probe_cap() / SECOND
        };
        let caps: Vec<u64> = [3, 4, 8, 15, 16, 30, 60]
            .iter()
            .map(|&t| cap(t * SECOND))
            .collect();
        assert_eq!(caps, vec![1, 2, 4, 4, 8, 8, 16]);
    }

    #[test]
    fn at_a_three_second_timeout_every_tick_probes() {
        let mut ring = Ring::new(3 * SECOND);
        assert_eq!(ring.routers[0].probe_cap(), SECOND);
        for _ in 0..20 {
            assert!(ring.tick());
            assert_eq!(ring.routers[0].probe_interval(), SECOND);
        }
        // And every probing round re-arms a finger refresh.
        for _ in 0..5 {
            ring.routers[0].on_fix_fingers(ring.now);
            ring.tick();
            assert!(ring.routers[0].fingers_due);
        }
    }

    /// After `trigger` runs on a backed-off ring, the very next tick probes
    /// and the interval is back at one tick.
    fn snaps_back(sign: &str, trigger: impl FnOnce(&mut Ring)) {
        let mut ring = Ring::new(30 * SECOND);
        ring.back_off();
        while !ring.tick() {}
        trigger(&mut ring);
        assert!(ring.tick(), "the tick after {sign} probes");
        assert_eq!(ring.routers[0].probe_interval(), SECOND);
        assert_eq!(ring.routers[0].backoff_resets(), 1);
    }

    /// Node 0 refreshes a finger and hears back `answer(the finger held)`.
    fn refresh_finger(ring: &mut Ring, answer: impl FnOnce(NodeRef) -> NodeRef) {
        let r = &mut ring.routers[0];
        let (finger, request_id) = finger_lookup(r, ring.now);
        let held = r.fingers[finger as usize].expect("a static ring fills its fingers");
        let owner = answer(held);
        let reply = RouterMessage::FindSuccessorReply {
            request_id,
            owner,
            arc_start: owner.id,
            hops: 1,
        };
        r.on_message(owner.addr, reply, ring.now);
    }

    #[test]
    fn the_back_off_snaps_back_on_each_sign_of_change() {
        // A membership epoch bump: a newcomer announces itself.
        snaps_back("an epoch bump", |ring| {
            let newcomer = node(99, ring.refs[RING_NODES - 1].id.0 + 1);
            ring.routers[0].on_message(
                newcomer.addr,
                RouterMessage::Notify { from: newcomer },
                ring.now,
            );
        });
        // An unanswered probe: the successor crashed right after the round.
        snaps_back("an unanswered probe", |ring| {
            let successor = ring.refs[1].addr;
            ring.dead.push(successor);
            ring.in_flight.retain(|(_, from, ..)| *from != successor);
        });
        // A misdirected request, as the wrapper reports it.
        snaps_back("a misdirected request", |ring| {
            ring.routers[0].reset_backoff();
        });
        // A finger refresh whose answer moved the finger.
        snaps_back("a moved finger", |ring| {
            let others = ring.refs[1..].to_vec();
            refresh_finger(ring, |held| *others.iter().find(|n| **n != held).unwrap());
        });
        // A refresh that confirms the finger is no sign of change.
        let mut ring = Ring::new(30 * SECOND);
        ring.back_off();
        refresh_finger(&mut ring, |held| held);
        for _ in 0..16 {
            ring.tick();
        }
        assert_eq!(ring.routers[0].probe_interval(), 8 * SECOND);
        assert_eq!(ring.routers[0].backoff_resets(), 0);
    }

    #[test]
    fn a_crashed_successor_is_presumed_dead_one_timeout_and_a_tick_after_the_crash() {
        let timeout = 30 * SECOND;
        // Crash it at every phase of the ramp and of the backed-off cycle.
        for warm_up in 0..24 {
            let mut ring = Ring::new(timeout);
            for _ in 0..warm_up {
                ring.tick();
            }
            let successor = ring.refs[1];
            let crashed_at = ring.crash(1);
            while ring.routers[0].successor() == Some(successor) {
                ring.tick();
                assert!(
                    ring.now <= crashed_at + timeout + SECOND,
                    "not evicted by {}",
                    ring.now
                );
            }
            assert!(ring.routers[0].presumed_dead(successor.addr, ring.now));
        }
    }

    #[test]
    fn a_silent_predecessor_is_dropped_one_timeout_and_a_cap_after_it_was_heard() {
        let timeout = 30 * SECOND;
        for warm_up in [1, 5, 20, 21, 22, 23, 24, 25, 26, 27] {
            let mut ring = Ring::new(timeout);
            for _ in 0..warm_up {
                ring.tick();
            }
            let predecessor = ring.refs[RING_NODES - 1];
            assert_eq!(ring.routers[0].predecessor(), Some(predecessor));
            ring.crash(RING_NODES - 1);
            let heard = ring.routers[0].last_heard[&predecessor.addr];
            let bound = heard + timeout + ring.routers[0].probe_cap() + SECOND;
            while ring.routers[0].predecessor() == Some(predecessor) {
                ring.tick();
                assert!(ring.now <= bound, "still held at {}", ring.now);
            }
        }
    }

    #[test]
    fn a_live_peer_answering_within_half_the_timeout_is_never_presumed_dead() {
        let timeout = 30 * SECOND;
        let mut ring = Ring::new(timeout);
        ring.back_off();
        // From now on every probe is answered half a timeout after it is
        // sent.
        ring.delay = timeout / 4;
        for _ in 0..120 {
            ring.tick();
            let r = &ring.routers[0];
            assert_eq!(r.successor(), Some(ring.refs[1]));
            assert_eq!(r.predecessor(), Some(ring.refs[RING_NODES - 1]));
            assert!(ring.refs[1..]
                .iter()
                .all(|p| !r.presumed_dead(p.addr, ring.now)));
        }
    }
}
