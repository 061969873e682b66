//! The overlay wrapper — the Table-2 API of the paper.
//!
//! The overlay network is composed of three modules (Figure 5): the
//! [`Router`], the [`ObjectManager`], and this *wrapper*, which choreographs
//! the two to implement the inter-node operations `get`, `put`, `send` and
//! `renew`, and the intra-node operations `localScan`, `newData` and
//! `upcall`.  The query processor only ever talks to the wrapper.
//!
//! Operation message flows follow Figure 6 of the paper:
//!
//! * **put / renew / get** — *resolve, transfer, check*.  The identifier is
//!   resolved to an owner — from the router's own neighbor state, else from
//!   the arcs earlier answers stated (the owner cache), else by a routed
//!   *lookup* — then the object, renewal or request goes to that node in
//!   one direct message (a `get` is answered by a response carrying the
//!   matching objects).  The receiver checks that it is responsible for the
//!   identifier and, when it is not, forwards the operation through a
//!   routed lookup of its own.  The batched forms, `put_batch` and
//!   `get_batch`, share one message per owner; the receiver checks each
//!   entry on its own.
//! * **send** — the object itself is routed hop-by-hop to the destination.
//!   Every intermediate node hands it to the application as an *upcall*,
//!   which continues it with [`Overlay::forward`] — possibly altered — or
//!   consumes it (hierarchical aggregation and en-route combining).
//!
//! The wrapper is wiring: the owner cache with the lookups in flight
//! ([`crate::resolver`]) and the query-broadcast distribution tree
//! (§3.3.3, [`crate::tree`]) are plain state that takes data in and hands
//! decisions out; the wrapper asks the router, builds the messages and
//! keeps the counters.

use crate::id::{hash_str, Id};
use crate::messages::{DhtMessage, RoutedObject, GET_KEYS_MAX};
use crate::naming::ObjectName;
use crate::object_manager::{ObjectManager, StoredObject};
use crate::resolver::{Dropped, Resolution, Resolver};
use crate::router::{
    NodeRef, Router, RouterConfig, RouterEffect, RouterMessage, STABILIZE_INTERVAL,
};
use crate::tree::{BroadcastId, Direction, DistributionTree};
use pier_runtime::{Duration, NodeAddr, SimTime, WireSize};
use pier_telemetry::{SpanRecord, Telemetry};
use pier_trace::TraceContext;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// One entry of a grouped put: object name, value, and its soft-state TTL.
type PutEntry<V> = (ObjectName, V, Duration);

/// One key of a grouped get and the token its answer comes back under.
type GetKey = (String, u64);

/// Well-known name of the query-dissemination tree root; its hash is the
/// root identifier hard-coded into every PIER node (§3.3.3).
pub const TREE_ROOT_NAME: &str = "pier::distribution-tree";

/// Interval between finger-table refreshes (while probing rounds run every
/// tick; they back off together).
const FIX_FINGERS_INTERVAL: Duration = 2_000_000;
/// Interval between soft-state expiry sweeps.
const EXPIRE_INTERVAL: Duration = 5_000_000;
/// Maximum soft-state lifetime a node will grant.
const MAX_LIFETIME: Duration = 600_000_000;
/// Interval between distribution-tree re-join announcements.
const TREE_REFRESH_INTERVAL: Duration = 10_000_000;

/// Tuning knobs for the overlay wrapper.  The maintenance intervals and
/// soft-state lifetimes are the constants above, not fields: nothing needs
/// two values of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlayConfig {
    /// Router configuration.
    pub router: RouterConfig,
}

/// Periodic maintenance timers the host must schedule on the wrapper's
/// behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayTimer {
    /// Chord stabilization round.
    Stabilize,
    /// Finger-table refresh.
    FixFingers,
    /// Soft-state expiry sweep.
    Expire,
    /// Distribution-tree re-join announcement.
    TreeRefresh,
}

/// Notifications delivered to the application (the query processor).  These
/// are the wrapper's `handleGet`, `handleNewData`, `handleUpcall` and
/// `handleLScan` callbacks, plus tree-broadcast delivery.
#[derive(Debug, Clone)]
pub enum OverlayEvent<V> {
    /// Result of a previously issued [`Overlay::get`].
    GetResult {
        /// Token returned by `get`.
        request_id: u64,
        /// Namespace queried.
        namespace: String,
        /// Key queried.
        key: String,
        /// Matching objects.
        objects: Vec<StoredObject<V>>,
    },
    /// Result of a previously issued [`Overlay::renew`].
    RenewResult {
        /// Token returned by `renew`.
        request_id: u64,
        /// Whether the object was present and its lifetime extended.
        success: bool,
    },
    /// A new object arrived at this node (via `put` or `send`).
    NewData {
        /// The stored object.
        object: StoredObject<V>,
        /// Trace context carried by the transfer, when the originating
        /// query is sampled.
        trace: Option<TraceContext>,
    },
    /// A routed object is passing through this node, handed over by value:
    /// the application continues it with [`Overlay::forward`] or consumes
    /// it by not doing so.
    Upcall(RoutedObject<V>),
    /// A payload broadcast over the distribution tree reached this node.
    Broadcast {
        /// The broadcast payload.
        payload: V,
    },
    /// Result of a raw [`Overlay::lookup`].
    LookupDone {
        /// Token returned by `lookup`.
        request_id: u64,
        /// Node responsible for the identifier.
        owner: NodeRef,
        /// Overlay hops the lookup took.
        hops: u32,
    },
}

/// Effects the wrapper asks its host program to perform.
#[derive(Debug, Clone)]
pub enum OverlayEffect<V> {
    /// Transmit a message to another node.
    Send {
        /// Destination address.
        to: NodeAddr,
        /// Message to transmit.
        msg: DhtMessage<V>,
    },
    /// Schedule a maintenance timer.
    SetTimer {
        /// Delay from now, microseconds.
        delay: Duration,
        /// Which timer.
        timer: OverlayTimer,
    },
    /// Deliver a notification to the application.
    Event(OverlayEvent<V>),
}

/// One inter-node operation on its way to the node responsible for its
/// routing identifier.  `reply_to` and the request's token name the node
/// and token the answer goes back to — this node's own for an operation
/// issued here, the originator's for one this node is forwarding.
#[derive(Debug, Clone)]
enum Op<V> {
    Get {
        namespace: String,
        key: GetKey,
        reply_to: NodeAddr,
    },
    Put {
        entry: PutEntry<V>,
        trace: Option<TraceContext>,
    },
    Renew {
        name: ObjectName,
        lifetime: Duration,
        reply_to: NodeAddr,
        request_id: u64,
    },
}

impl<V> Op<V> {
    fn routing_id(&self) -> Id {
        match self {
            Op::Get { namespace, key, .. } => crate::id::routing_id(namespace, &key.0),
            Op::Put { entry, .. } => entry.0.routing_id(),
            Op::Renew { name, .. } => name.routing_id(),
        }
    }

    /// The one direct message that carries this operation to its owner.
    fn into_message(self) -> DhtMessage<V> {
        match self {
            Op::Get {
                namespace,
                key,
                reply_to,
            } => DhtMessage::GetRequest {
                namespace,
                keys: vec![key],
                reply_to,
            },
            Op::Put {
                entry: (name, value, lifetime),
                trace,
            } => DhtMessage::PutRequest {
                name,
                value,
                lifetime,
                trace,
            },
            Op::Renew {
                name,
                lifetime,
                reply_to,
                request_id,
            } => DhtMessage::RenewRequest {
                name,
                lifetime,
                reply_to,
                request_id,
            },
        }
    }
}

/// One resolve-and-group pass over a batch of operations: what this node
/// owns, what goes to each other owner the resolver names (owners in
/// address order), and what it could not name, with the stale arc each
/// fell into.
struct Grouped<T> {
    local: Vec<T>,
    remote: BTreeMap<NodeAddr, Vec<T>>,
    unresolved: Vec<(T, Option<Id>)>,
}

/// The overlay wrapper: one instance per node.
#[derive(Debug, Clone)]
pub struct Overlay<V> {
    me: NodeRef,
    router: Router,
    objects: ObjectManager<V>,
    /// The owner cache and the lookups in flight.
    resolver: Resolver<Op<V>>,
    /// Trace context armed by [`Overlay::set_trace`] and consumed by the
    /// next `put`/`put_batch`/`send` issued on this wrapper; it rides
    /// the resulting wire messages so the receiving node can attach its
    /// work to the sampled query's span tree.  `None` (the steady state
    /// when tracing is off) adds no wire bytes and no behaviour.
    pending_trace: Option<TraceContext>,
    next_request_id: u64,
    tree_root: Id,
    tree: DistributionTree,
    /// Telemetry handle (empty unless the host attaches one): lookup
    /// hop/latency histograms, owner-cache hit/miss/invalidation counters
    /// and put-/get-batch coalescing counters, all under the `dht.*` prefix.
    tel: Telemetry,
}

impl<V: Clone + Debug + WireSize> Overlay<V> {
    /// Create an overlay instance for a node that will join dynamically.
    pub fn new(me: NodeRef, config: OverlayConfig) -> Self {
        Overlay {
            me,
            router: Router::new(me, config.router),
            objects: ObjectManager::new(MAX_LIFETIME),
            resolver: Resolver::new(me.addr, config.router.liveness_timeout),
            pending_trace: None,
            next_request_id: 0,
            tree_root: hash_str(TREE_ROOT_NAME),
            tree: DistributionTree::new(me.addr),
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry hub (the node's) to this overlay instance.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Arm a trace context for the **next** operation issued on this
    /// wrapper (`put`/`put_batch`/`send`); it travels on the wire
    /// with that operation and is cleared once consumed.  Callers pass
    /// `Some` only for queries the proxy sampled, so an untraced run never
    /// reaches this with a payload.
    pub fn set_trace(&mut self, trace: Option<TraceContext>) {
        self.pending_trace = trace;
    }

    /// Create an overlay whose routing state is pre-converged from full
    /// knowledge of the ring (used by experiments and tests to skip the join
    /// phase).
    pub fn with_static_ring(me: NodeRef, all: &[NodeRef], config: OverlayConfig) -> Self {
        let mut overlay = Overlay::new(me, config);
        overlay.router = Router::with_static_ring(me, all, config.router);
        overlay
    }

    /// This node's ring identity.
    pub fn me(&self) -> NodeRef {
        self.me
    }

    /// Read access to the router (diagnostics, experiments).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Read access to the local soft-state store.
    pub fn objects(&self) -> &ObjectManager<V> {
        &self.objects
    }

    fn next_request_id(&mut self) -> u64 {
        self.next_request_id += 1;
        self.next_request_id
    }

    /// Boot the overlay: start the routing join (if a bootstrap address is
    /// given) and schedule all periodic maintenance timers.
    pub fn start(&mut self, bootstrap: Option<NodeAddr>, now: SimTime) -> Vec<OverlayEffect<V>> {
        let join = self.router.bootstrap(bootstrap);
        let mut effects = self.absorb_router_effects(join, now);
        effects.push(OverlayEffect::SetTimer {
            delay: STABILIZE_INTERVAL,
            timer: OverlayTimer::Stabilize,
        });
        effects.push(OverlayEffect::SetTimer {
            delay: FIX_FINGERS_INTERVAL,
            timer: OverlayTimer::FixFingers,
        });
        effects.push(OverlayEffect::SetTimer {
            delay: EXPIRE_INTERVAL,
            timer: OverlayTimer::Expire,
        });
        effects.push(OverlayEffect::SetTimer {
            delay: TREE_REFRESH_INTERVAL / 2,
            timer: OverlayTimer::TreeRefresh,
        });
        effects
    }

    // ----- Inter-node operations (Table 2) --------------------------------

    /// `get(namespace, key)`: fetch every object stored under the
    /// (namespace, key) pair.  The result arrives later as
    /// [`OverlayEvent::GetResult`] carrying the returned request id.  The
    /// one-key case of [`Overlay::get_batch`].
    pub fn get(
        &mut self,
        namespace: &str,
        key: &str,
        now: SimTime,
    ) -> (u64, Vec<OverlayEffect<V>>) {
        let (request_ids, effects) = self.get_batch(namespace, vec![key.to_string()], now);
        (request_ids[0], effects)
    }

    /// A batched `get`: every key goes through the same resolver as any
    /// other operation; keys this node owns are answered at once, keys the
    /// resolver names an owner for share one [`DhtMessage::GetRequest`] per
    /// destination node, the rest take the per-key lookup-then-transfer
    /// flow of Figure 6 — or wait behind the refresh of their arc.  Returns
    /// one request id per key, in key order; each key is answered by its
    /// own [`OverlayEvent::GetResult`].
    pub fn get_batch(
        &mut self,
        namespace: &str,
        keys: Vec<String>,
        now: SimTime,
    ) -> (Vec<u64>, Vec<OverlayEffect<V>>) {
        let keys: Vec<GetKey> = keys
            .into_iter()
            .map(|key| (key, self.next_request_id()))
            .collect();
        let request_ids = keys.iter().map(|(_, id)| *id).collect();
        (
            request_ids,
            self.get_keys(namespace, self.me.addr, keys, now),
        )
    }

    /// [`Overlay::get_batch`] for whoever asked — also how the gets parked
    /// behind an arc's refresh leave once it is answered.
    fn get_keys(
        &mut self,
        namespace: &str,
        reply_to: NodeAddr,
        keys: Vec<GetKey>,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let total = keys.len() as u64;
        let id = |(key, _): &GetKey| crate::id::routing_id(namespace, key);
        let grouped = self.resolve_each(keys, id, now);
        self.tel.inc("dht.get_batch.calls");
        self.tel.add("dht.get_batch.keys", total);
        self.tel
            .add("dht.get_batch.local", grouped.local.len() as u64);
        self.tel
            .add("dht.get_batch.unresolved", grouped.unresolved.len() as u64);
        let mut effects = self.answer(namespace, reply_to, grouped.local, now);
        for (to, group) in grouped.remote {
            let mut group = group.into_iter().peekable();
            while group.peek().is_some() {
                let keys: Vec<GetKey> = group.by_ref().take(GET_KEYS_MAX).collect();
                self.tel
                    .observe_count("dht.get_batch.group_size", keys.len() as f64);
                effects.push(OverlayEffect::Send {
                    to,
                    msg: DhtMessage::GetRequest {
                        namespace: namespace.to_string(),
                        keys,
                        reply_to,
                    },
                });
            }
        }
        for (key, stale) in grouped.unresolved {
            let op = Op::Get {
                namespace: namespace.to_string(),
                key,
                reply_to,
            };
            effects.extend(self.route(op, stale, now));
        }
        effects
    }

    /// Read `keys` from the local store and answer whoever asked: an event
    /// per key when that is this node, one response for all of them
    /// otherwise.
    fn answer(
        &mut self,
        namespace: &str,
        reply_to: NodeAddr,
        keys: Vec<GetKey>,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        if keys.is_empty() {
            return Vec::new();
        }
        let answers = keys.into_iter().map(|(key, request_id)| {
            let objects = self.objects.get(namespace, &key, now);
            (request_id, key, objects)
        });
        let namespace = namespace.to_string();
        if reply_to == self.me.addr {
            return Self::get_results(namespace, answers.collect());
        }
        vec![OverlayEffect::Send {
            to: reply_to,
            msg: DhtMessage::GetResponse {
                namespace,
                answers: answers.collect(),
            },
        }]
    }

    /// One [`OverlayEvent::GetResult`] per answered key.
    fn get_results(
        namespace: String,
        answers: Vec<(u64, String, Vec<StoredObject<V>>)>,
    ) -> Vec<OverlayEffect<V>> {
        let result = |(request_id, key, objects)| {
            OverlayEffect::Event(OverlayEvent::GetResult {
                request_id,
                namespace: namespace.clone(),
                key,
                objects,
            })
        };
        answers.into_iter().map(result).collect()
    }

    /// `put(namespace, key, suffix, object, lifetime)`: store an object at
    /// the node responsible for its routing identifier.
    pub fn put(
        &mut self,
        name: ObjectName,
        value: V,
        lifetime: Duration,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let op = Op::Put {
            entry: (name, value, lifetime),
            trace: self.pending_trace.take(),
        };
        self.dispatch(op, now)
    }

    /// Resolve, then transfer: run `op` here when this node owns its
    /// identifier, send it in one direct message when the resolver names
    /// another owner, and otherwise [`Overlay::route`] it.
    fn dispatch(&mut self, op: Op<V>, now: SimTime) -> Vec<OverlayEffect<V>> {
        match self.resolve_arc(op.routing_id(), now) {
            Ok(owner) if owner.addr == self.me.addr => self.serve(op, now),
            Ok(owner) => vec![OverlayEffect::Send {
                to: owner.addr,
                msg: op.into_message(),
            }],
            Err(stale) => self.route(op, stale, now),
        }
    }

    /// The resolve-and-group pass in front of every batched operation:
    /// each item's identifier goes to the resolver, and the item to the
    /// group of what it names.
    fn resolve_each<T>(
        &mut self,
        items: Vec<T>,
        id: impl Fn(&T) -> Id,
        now: SimTime,
    ) -> Grouped<T> {
        let mut grouped = Grouped {
            local: Vec::new(),
            remote: BTreeMap::new(),
            unresolved: Vec::new(),
        };
        for item in items {
            match self.resolve_arc(id(&item), now) {
                Ok(owner) if owner.addr == self.me.addr => grouped.local.push(item),
                Ok(owner) => grouped.remote.entry(owner.addr).or_default().push(item),
                Err(stale) => grouped.unresolved.push((item, stale)),
            }
        }
        grouped
    }

    /// Run `op` against the local store and answer whoever asked — with an
    /// event when that is this node, with the response message otherwise.
    fn serve(&mut self, op: Op<V>, now: SimTime) -> Vec<OverlayEffect<V>> {
        let me = self.me.addr;
        match op {
            Op::Put { entry, trace } => self.store_entry(entry, trace, now),
            Op::Get {
                namespace,
                key,
                reply_to,
            } => self.answer(&namespace, reply_to, vec![key], now),
            Op::Renew {
                name,
                lifetime,
                reply_to,
                request_id,
            } => {
                let success = self.objects.renew(&name, lifetime, now);
                vec![if reply_to == me {
                    OverlayEffect::Event(OverlayEvent::RenewResult {
                        request_id,
                        success,
                    })
                } else {
                    OverlayEffect::Send {
                        to: reply_to,
                        msg: DhtMessage::RenewResponse {
                            request_id,
                            success,
                        },
                    }
                }]
            }
        }
    }

    /// Put `op` (`None`: a raw lookup) behind a routed lookup for `target`;
    /// [`Overlay::finish_lookup`] picks it up when the answer lands.  This
    /// never consults the owner cache; with `refreshes` it marks the expired
    /// arc ending there as being refreshed by this lookup.
    fn route_lookup(
        &mut self,
        target: Id,
        op: Option<Op<V>>,
        refreshes: Option<Id>,
        now: SimTime,
    ) -> (u64, Vec<OverlayEffect<V>>) {
        let lookup_id = self.next_request_id();
        let epoch = self.router.membership_epoch();
        if self.resolver.start(lookup_id, op, refreshes, epoch, now) {
            self.tel.inc("dht.owner_cache.refreshes");
        }
        let effects = self.router.lookup(target, lookup_id, now);
        (lookup_id, self.absorb_router_effects(effects, now))
    }

    /// The classic Figure-6 flow for `op`: a routed lookup, then the direct
    /// transfer.  An operation the resolver found in a stale arc waits
    /// behind the lookup already refreshing that arc, if there is one (no
    /// message); if not, its own lookup is the refresh.
    fn route(&mut self, op: Op<V>, stale: Option<Id>, now: SimTime) -> Vec<OverlayEffect<V>> {
        match self.resolver.park(op, stale) {
            Ok(()) => {
                self.tel.inc("dht.owner_cache.parked");
                Vec::new()
            }
            Err(op) => self.route_lookup(op.routing_id(), Some(op), stale, now).1,
        }
    }

    /// The receive side of a direct transfer: run `op` when this node is
    /// responsible for its identifier.  When it is not — the sender's arc
    /// went stale, or membership changed while the message was in flight —
    /// forward it through a fresh routed lookup (never the owner cache, so
    /// two nodes with stale arcs cannot bounce it between them), keeping
    /// the originator's reply address, token and trace context: stored
    /// here, no correctly routed `get` would ever find the object, and a
    /// `get` or `renew` answered here would miss objects that do exist.
    fn receive(&mut self, op: Op<V>, now: SimTime) -> Vec<OverlayEffect<V>> {
        if self.router.is_responsible(op.routing_id()) {
            self.serve(op, now)
        } else {
            self.tel.inc("dht.misdirected");
            self.router.reset_backoff();
            self.route(op, None, now)
        }
    }

    /// The owner of `id` as far as this node can tell without a routed
    /// lookup: what the one resolver in front of every inter-node operation
    /// (`resolve_arc`) names.  `None` means an operation on `id`
    /// would pay a routed lookup or wait for one already asking about its
    /// arc.  Public so tests can hold its answers against the ring's true
    /// owners.
    pub fn resolve(&mut self, id: Id, now: SimTime) -> Option<NodeRef> {
        self.resolve_arc(id, now).ok()
    }

    /// The resolver: authoritative local routing state first
    /// ([`Router::known_owner`]), then the owner cache
    /// ([`Resolver::resolve`]).  `Err` means a routed lookup, and carries
    /// the end of the stale arc `id` fell into, if any: that lookup
    /// refreshes it, or the operation waits behind the one that already
    /// does.
    fn resolve_arc(&mut self, id: Id, now: SimTime) -> Result<NodeRef, Option<Id>> {
        if let Some(owner) = self.router.known_owner(id, now) {
            return Ok(owner);
        }
        let router = &self.router;
        let dead = |addr| router.presumed_dead(addr, now);
        let epoch = router.membership_epoch();
        let (resolution, dropped) = self.resolver.resolve(id, epoch, dead, now);
        self.count_dropped(dropped);
        let counted: &[&str] = match resolution {
            Resolution::Owner(_) => &["dht.owner_cache.hits"],
            Resolution::Miss => &["dht.owner_cache.misses"],
            Resolution::Dead
            | Resolution::Stale {
                refreshing: false, ..
            } => &["dht.owner_cache.expired", "dht.owner_cache.misses"],
            Resolution::Stale {
                refreshing: true, ..
            } => &[],
        };
        for counter in counted {
            self.tel.inc(counter);
        }
        match resolution {
            Resolution::Owner(owner) => Ok(owner),
            Resolution::Stale { end, .. } => Err(Some(end)),
            Resolution::Miss | Resolution::Dead => Err(None),
        }
    }

    /// Record that `owner` is responsible for `(arc_start, owner.id]`, as a
    /// peer just stated.
    fn learn_arc(&mut self, arc_start: Id, owner: NodeRef, now: SimTime) {
        let epoch = self.router.membership_epoch();
        let dropped = self.resolver.learn(arc_start, owner, epoch, now);
        self.count_dropped(dropped);
    }

    /// Count the arcs a read or write of the owner cache dropped.
    fn count_dropped(&self, dropped: Dropped) {
        if dropped.flushed > 0 {
            let epoch = self.router.membership_epoch();
            self.tel.inc("dht.owner_cache.invalidations");
            let values = [epoch, dropped.flushed as u64];
            let names = &["epoch", "dropped"];
            self.tel.record(SpanRecord::event(
                "owner_cache_invalidate",
                0,
                names,
                values,
            ));
        }
        if dropped.evicted > 0 {
            self.tel
                .add("dht.owner_cache.lru_evictions", dropped.evicted as u64);
        }
    }

    /// A batched `put`: every entry goes through the same resolver as a
    /// single `put` ([`Overlay::resolve`]'s); entries it names an owner
    /// for are grouped into one [`DhtMessage::PutBatch`] per destination
    /// node (locally-owned entries are stored directly), the rest take the
    /// per-entry lookup-then-transfer flow of Figure 6 — or wait behind the
    /// refresh of their arc — whose answers feed the owner cache for the
    /// next flush.  Every entry keeps its own name and lifetime, so storage
    /// and expiry behave exactly as separate puts — only message framing is
    /// shared.
    pub fn put_batch(
        &mut self,
        entries: Vec<(ObjectName, V, Duration)>,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let trace = self.pending_trace.take();
        self.put_entries(entries, trace, None, now)
    }

    /// [`Overlay::put_batch`] under an explicit trace context — also how the
    /// puts parked behind an arc's refresh leave once it is answered.  A
    /// `carried` entry goes to the owner it names, unresolved, at the head
    /// of whatever else goes there.
    fn put_entries(
        &mut self,
        entries: Vec<PutEntry<V>>,
        trace: Option<TraceContext>,
        carried: Option<(NodeAddr, PutEntry<V>)>,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let total = (entries.len() + usize::from(carried.is_some())) as u64;
        let id = |(name, ..): &PutEntry<V>| name.routing_id();
        let mut grouped = self.resolve_each(entries, id, now);
        if let Some((to, entry)) = carried {
            grouped.remote.entry(to).or_default().insert(0, entry);
        }
        self.tel
            .add("dht.put_batch.local", grouped.local.len() as u64);
        let mut effects = Vec::new();
        for entry in grouped.local {
            effects.extend(self.store_entry(entry, trace, now));
        }
        let mut coalesced = 0u64;
        let mut singles = 0u64;
        for (to, mut batch) in grouped.remote {
            let msg = if batch.len() == 1 {
                // No point framing a batch around a single object.
                singles += 1;
                let entry = batch.pop().expect("len checked");
                Op::Put { entry, trace }.into_message()
            } else {
                coalesced += batch.len() as u64;
                self.tel
                    .observe_count("dht.put_batch.group_size", batch.len() as f64);
                DhtMessage::PutBatch {
                    entries: batch,
                    trace,
                }
            };
            effects.push(OverlayEffect::Send { to, msg });
        }
        // Coalescing ratio = dht.put_batch.coalesced / dht.put_batch.entries.
        self.tel.inc("dht.put_batch.flushes");
        self.tel.add("dht.put_batch.entries", total);
        self.tel.add("dht.put_batch.coalesced", coalesced);
        self.tel.add("dht.put_batch.singles", singles);
        self.tel
            .add("dht.put_batch.unresolved", grouped.unresolved.len() as u64);
        for (entry, stale) in grouped.unresolved {
            effects.extend(self.route(Op::Put { entry, trace }, stale, now));
        }
        effects
    }

    /// `renew(namespace, key, suffix, lifetime)`: extend an object's
    /// lifetime.  Succeeds only if the object is already stored at the
    /// destination; the outcome arrives as [`OverlayEvent::RenewResult`].
    pub fn renew(
        &mut self,
        name: ObjectName,
        lifetime: Duration,
        now: SimTime,
    ) -> (u64, Vec<OverlayEffect<V>>) {
        let request_id = self.next_request_id();
        let op = Op::Renew {
            name,
            lifetime,
            reply_to: self.me.addr,
            request_id,
        };
        (request_id, self.dispatch(op, now))
    }

    /// `send(namespace, key, suffix, object, lifetime)`: route the object
    /// hop-by-hop to the responsible node, offering an upcall at every
    /// intermediate hop.
    pub fn send(
        &mut self,
        name: ObjectName,
        value: V,
        lifetime: Duration,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let target = name.routing_id();
        self.send_routed(target, name, value, lifetime, now)
    }

    /// Route an object toward an explicit identifier (used by hierarchical
    /// aggregation, where the query names the aggregation-tree root).
    pub fn send_routed(
        &mut self,
        target: Id,
        name: ObjectName,
        value: V,
        lifetime: Duration,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let routed = RoutedObject {
            target,
            name,
            value,
            lifetime,
            hops: 0,
            trace: self.pending_trace.take(),
        };
        self.forward(routed, now)
    }

    /// Carry a routed object one hop on toward its target, or store it here
    /// when this node is responsible: how [`Overlay::send_routed`] starts
    /// it, and how an application continues one handed to it as an
    /// [`OverlayEvent::Upcall`].
    pub fn forward(&mut self, mut routed: RoutedObject<V>, now: SimTime) -> Vec<OverlayEffect<V>> {
        match self.router.next_hop(routed.target, now) {
            None => {
                let entry = (routed.name, routed.value, routed.lifetime);
                self.store_entry(entry, routed.trace, now)
            }
            Some(next) => {
                routed.hops += 1;
                let msg = DhtMessage::Routed(routed);
                vec![OverlayEffect::Send { to: next.addr, msg }]
            }
        }
    }

    /// Resolve the node responsible for an arbitrary identifier.  The answer
    /// arrives as [`OverlayEvent::LookupDone`].  Unlike `put`/`get`/`renew`
    /// this always issues a routed lookup and never reads the owner cache:
    /// it is the diagnostic that measures what the routing layer itself
    /// does — EXP-D counts overlay hops with it — so a cached answer, which
    /// takes no hops, would be measuring the cache.
    pub fn lookup(&mut self, target: Id, now: SimTime) -> (u64, Vec<OverlayEffect<V>>) {
        self.route_lookup(target, None, None, now)
    }

    // ----- Intra-node operations ------------------------------------------

    /// `localScan(namespace)`: every live object of a namespace stored here.
    pub fn local_scan(&self, namespace: &str, now: SimTime) -> Vec<StoredObject<V>> {
        self.objects.scan_namespace(namespace, now)
    }

    /// Store an object directly in the local store (used both when this node
    /// is itself responsible for the object and for operator state, which the
    /// query processor keeps in the DHT's local storage layer, §3.3.6).
    pub fn store_local(
        &mut self,
        name: ObjectName,
        value: V,
        lifetime: Duration,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let trace = self.pending_trace.take();
        self.store_entry((name, value, lifetime), trace, now)
    }

    /// [`Overlay::store_local`] with an explicit trace context, used on
    /// receive paths where the context arrived on the wire rather than from
    /// [`Overlay::set_trace`].
    fn store_entry(
        &mut self,
        (name, value, lifetime): PutEntry<V>,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let expires_at = self.objects.put(name.clone(), value.clone(), lifetime, now);
        vec![OverlayEffect::Event(OverlayEvent::NewData {
            object: StoredObject {
                name,
                value,
                expires_at,
            },
            trace,
        })]
    }

    // ----- Distribution tree ----------------------------------------------

    /// Announce this node to its distribution-tree parent (the first hop on
    /// the route toward the tree root).  Called periodically because the tree
    /// is soft state.
    pub fn join_tree(&mut self, now: SimTime) -> Vec<OverlayEffect<V>> {
        match self.tree_parent(now) {
            None => Vec::new(), // we are the root
            Some(parent) => vec![OverlayEffect::Send {
                to: parent,
                msg: DhtMessage::TreeJoin,
            }],
        }
    }

    /// Broadcast a payload to every node via the distribution tree, as a
    /// flood from here ([`crate::tree`]): up to this node's parent, down to
    /// its children, on from every node that delivers it.  Every node
    /// (including this one) receives it once as [`OverlayEvent::Broadcast`].
    pub fn broadcast(&mut self, payload: V, now: SimTime) -> Vec<OverlayEffect<V>> {
        let parent = self.tree_parent(now);
        let (id, hops) = self.tree.originate(parent, now);
        self.tel.inc("dht.broadcast.originated");
        self.deliver_broadcast(id, payload, hops)
    }

    /// This node's distribution-tree parent: the next hop toward the root,
    /// none at the root.
    fn tree_parent(&self, now: SimTime) -> Option<NodeAddr> {
        self.router.next_hop(self.tree_root, now).map(|p| p.addr)
    }

    /// A broadcast hop arrived: deliver and forward it, unless this node
    /// has seen the broadcast already.
    fn receive_broadcast(
        &mut self,
        from: NodeAddr,
        id: BroadcastId,
        payload: V,
        direction: Direction,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let parent = self.tree_parent(now);
        match self.tree.receive(id, from, direction, parent, now) {
            Some(hops) => self.deliver_broadcast(id, payload, hops),
            None => {
                self.tel.inc("dht.broadcast.duplicates");
                Vec::new()
            }
        }
    }

    fn deliver_broadcast(
        &mut self,
        id: BroadcastId,
        payload: V,
        hops: Vec<(NodeAddr, Direction)>,
    ) -> Vec<OverlayEffect<V>> {
        self.tel.inc("dht.broadcast.delivered");
        let mut effects: Vec<_> = hops
            .into_iter()
            .map(|(to, direction)| {
                let payload = payload.clone();
                let msg = match direction {
                    Direction::Up => DhtMessage::TreeBroadcastUp { id, payload },
                    Direction::Down => DhtMessage::TreeBroadcastDown { id, payload },
                };
                OverlayEffect::Send { to, msg }
            })
            .collect();
        effects.push(OverlayEffect::Event(OverlayEvent::Broadcast { payload }));
        effects
    }

    // ----- Message and timer handling --------------------------------------

    /// Handle an incoming overlay message.
    pub fn on_message(
        &mut self,
        from: NodeAddr,
        msg: DhtMessage<V>,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        match msg {
            DhtMessage::Routing(m) => {
                let effects = self.router.on_message(from, m, now);
                self.absorb_router_effects(effects, now)
            }
            DhtMessage::GetRequest {
                namespace,
                keys,
                reply_to,
            } => {
                // The receive rule, per key: what this node is responsible
                // for is answered in one response, every other key is
                // forwarded alone.
                let (mine, others): (Vec<GetKey>, Vec<GetKey>) =
                    keys.into_iter().partition(|(key, _)| {
                        let id = crate::id::routing_id(&namespace, key);
                        self.router.is_responsible(id)
                    });
                let mut effects = self.answer(&namespace, reply_to, mine, now);
                for key in others {
                    let op = Op::Get {
                        namespace: namespace.clone(),
                        key,
                        reply_to,
                    };
                    effects.extend(self.receive(op, now));
                }
                effects
            }
            DhtMessage::GetResponse { namespace, answers } => Self::get_results(namespace, answers),
            DhtMessage::PutRequest {
                name,
                value,
                lifetime,
                trace,
            } => {
                let entry = (name, value, lifetime);
                self.receive(Op::Put { entry, trace }, now)
            }
            DhtMessage::PutBatch { entries, trace } => {
                let mut effects = Vec::new();
                for entry in entries {
                    effects.extend(self.receive(Op::Put { entry, trace }, now));
                }
                effects
            }
            DhtMessage::RenewRequest {
                name,
                lifetime,
                reply_to,
                request_id,
            } => {
                let op = Op::Renew {
                    name,
                    lifetime,
                    reply_to,
                    request_id,
                };
                self.receive(op, now)
            }
            DhtMessage::RenewResponse {
                request_id,
                success,
            } => vec![OverlayEffect::Event(OverlayEvent::RenewResult {
                request_id,
                success,
            })],
            // Stored at the owner; anywhere else, the application's upcall
            // forwards it or consumes it.
            DhtMessage::Routed(routed) if self.router.is_responsible(routed.target) => {
                self.forward(routed, now)
            }
            DhtMessage::Routed(routed) => vec![OverlayEffect::Event(OverlayEvent::Upcall(routed))],
            DhtMessage::TreeJoin => {
                self.tree.join(from, now);
                Vec::new()
            }
            DhtMessage::TreeBroadcastUp { id, payload } => {
                self.receive_broadcast(from, id, payload, Direction::Up, now)
            }
            DhtMessage::TreeBroadcastDown { id, payload } => {
                self.receive_broadcast(from, id, payload, Direction::Down, now)
            }
        }
    }

    /// Handle a maintenance timer; the returned effects include re-arming the
    /// same timer.
    pub fn on_timer(&mut self, timer: OverlayTimer, now: SimTime) -> Vec<OverlayEffect<V>> {
        let mut effects = match timer {
            OverlayTimer::Stabilize => {
                let (rounds, resets) = (self.router.probing_rounds(), self.router.backoff_resets());
                let e = self.router.on_stabilize(now);
                if self.tel.is_enabled() {
                    let router = &self.router;
                    self.tel.inc("dht.stabilize.ticks");
                    self.tel.add(
                        "dht.stabilize.probing_rounds",
                        router.probing_rounds() - rounds,
                    );
                    self.tel
                        .add("dht.stabilize.resets", router.backoff_resets() - resets);
                    self.tel
                        .gauge("dht.stabilize.interval_us", router.probe_interval() as f64);
                }
                self.absorb_router_effects(e, now)
            }
            OverlayTimer::FixFingers => {
                let e = self.router.on_fix_fingers(now);
                self.absorb_router_effects(e, now)
            }
            OverlayTimer::Expire => {
                self.objects.expire(now);
                self.tree.expire(now);
                // What waited behind an unanswered refresh pays lookups of
                // its own.
                let (released, abandoned) = self.resolver.sweep(now);
                if abandoned > 0 {
                    self.tel.add("dht.lookups.abandoned", abandoned as u64);
                }
                let routes = released.into_iter().map(|op| self.route(op, None, now));
                routes.flatten().collect()
            }
            OverlayTimer::TreeRefresh => self.join_tree(now),
        };
        let delay = match timer {
            OverlayTimer::Stabilize => STABILIZE_INTERVAL,
            OverlayTimer::FixFingers => FIX_FINGERS_INTERVAL,
            OverlayTimer::Expire => EXPIRE_INTERVAL,
            OverlayTimer::TreeRefresh => TREE_REFRESH_INTERVAL,
        };
        effects.push(OverlayEffect::SetTimer { delay, timer });
        effects
    }

    fn absorb_router_effects(
        &mut self,
        effects: Vec<RouterEffect>,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let mut out = Vec::new();
        for effect in effects {
            match effect {
                RouterEffect::Send { to, msg } => {
                    self.tel.inc(match msg {
                        RouterMessage::FindSuccessor { .. } => "dht.routing.sent.find_successor",
                        RouterMessage::FindSuccessorReply { .. } => {
                            "dht.routing.sent.find_successor_reply"
                        }
                        RouterMessage::GetNeighbors { .. } => "dht.routing.sent.get_neighbors",
                        RouterMessage::Neighbors { .. } => "dht.routing.sent.neighbors",
                        RouterMessage::Notify { .. } => "dht.routing.sent.notify",
                    });
                    out.push(OverlayEffect::Send {
                        to,
                        msg: DhtMessage::Routing(msg),
                    });
                }
                RouterEffect::LookupDone {
                    request_id,
                    owner,
                    arc_start,
                    hops,
                } => out.extend(self.finish_lookup(request_id, owner, arc_start, hops, now)),
                RouterEffect::OwnedArc { arc_start, owner } => {
                    self.learn_arc(arc_start, owner, now);
                }
            }
        }
        out
    }

    /// A routed lookup came back naming `owner` for `(arc_start, owner]`:
    /// remember the arc, finish the operation the lookup carried and
    /// release what parked behind it — a carried put leaves with the
    /// parked puts bound for `owner` ([`Overlay::release`]).
    fn finish_lookup(
        &mut self,
        lookup_id: u64,
        owner: NodeRef,
        arc_start: Id,
        hops: u32,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        // The answer's arc is remembered, so later operations on it skip
        // the lookup round, unless membership changed while it was out.
        let epoch = self.router.membership_epoch();
        let Some((lookup, dropped)) = self
            .resolver
            .answer(lookup_id, arc_start, owner, epoch, now)
        else {
            return Vec::new();
        };
        self.tel.inc("dht.lookups");
        self.tel.observe_count("dht.lookup_hops", hops as f64);
        self.tel.observe_latency(
            "dht.lookup_latency_us",
            now.saturating_sub(lookup.issued_at) as f64,
        );
        self.count_dropped(dropped);
        let mut effects = Vec::new();
        let mut carried = None;
        match lookup.op {
            None => effects.push(OverlayEffect::Event(OverlayEvent::LookupDone {
                request_id: lookup_id,
                owner,
                hops,
            })),
            // The ring says this node owns it, whatever its own predecessor
            // pointer says: serve, or a forwarded operation would circle.
            Some(op) if owner.addr == self.me.addr => effects = self.serve(op, now),
            // A put leaves with the parked puts bound for the same owner.
            Some(Op::Put { entry, trace }) => carried = Some((owner.addr, entry, trace)),
            Some(op) => effects.push(OverlayEffect::Send {
                to: owner.addr,
                msg: op.into_message(),
            }),
        }
        effects.extend(self.release(lookup.parked, carried, now));
        effects
    }

    /// Send the operations that waited behind an arc's refresh on their
    /// way, in arrival order, through the same resolver as any other: the
    /// puts as one batch per trace context (so those the fresh arc covers
    /// share a `PutBatch`), the gets as one batch per namespace and asker
    /// (so they share a `GetRequest`), renewals one by one.  What the
    /// answer did not cover — the arc shrank, or was not vouched for — pays
    /// its own routed lookup.  The put `carried` by the lookup goes to the
    /// owner its answer named, never resolved again: in the `PutBatch` of
    /// the parked puts of its trace context bound there, or alone in a
    /// `PutRequest` when none is.
    fn release(
        &mut self,
        parked: Vec<Op<V>>,
        carried: Option<(NodeAddr, PutEntry<V>, Option<TraceContext>)>,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let mut effects = Vec::new();
        let parked_with = |trace| {
            let put_of = |op: &Op<V>| matches!(op, Op::Put { trace: t, .. } if *t == trace);
            parked.iter().any(put_of)
        };
        let mut carried = match carried {
            Some((to, entry, trace)) if !parked_with(trace) => {
                let msg = Op::Put { entry, trace }.into_message();
                effects.push(OverlayEffect::Send { to, msg });
                None
            }
            carried => carried,
        };
        let mut puts: Vec<(Option<TraceContext>, Vec<PutEntry<V>>)> = Vec::new();
        let mut gets: Vec<((String, NodeAddr), Vec<GetKey>)> = Vec::new();
        for op in parked {
            match op {
                Op::Get {
                    namespace,
                    key,
                    reply_to,
                } => push_grouped(&mut gets, (namespace, reply_to), key),
                Op::Put { entry, trace } => push_grouped(&mut puts, trace, entry),
                op => effects.extend(self.dispatch(op, now)),
            }
        }
        for (trace, entries) in puts {
            let carrier = carried.take_if(|(.., t)| *t == trace);
            let carrier = carrier.map(|(to, entry, _)| (to, entry));
            effects.extend(self.put_entries(entries, trace, carrier, now));
        }
        for ((namespace, reply_to), keys) in gets {
            effects.extend(self.get_keys(&namespace, reply_to, keys, now));
        }
        effects
    }
}

/// Add `item` to the group of `key`, groups in first-seen order.
fn push_grouped<K: PartialEq, T>(groups: &mut Vec<(K, Vec<T>)>, key: K, item: T) {
    match groups.iter_mut().find(|(k, _)| *k == key) {
        Some((_, items)) => items.push(item),
        None => groups.push((key, vec![item])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::routing_id;

    fn two_node_ring() -> (Overlay<String>, Overlay<String>, Vec<NodeRef>) {
        let refs = vec![
            NodeRef {
                id: Id(100),
                addr: NodeAddr(0),
            },
            NodeRef {
                id: Id(u64::MAX / 2),
                addr: NodeAddr(1),
            },
        ];
        let a = Overlay::with_static_ring(refs[0], &refs, OverlayConfig::default());
        let b = Overlay::with_static_ring(refs[1], &refs, OverlayConfig::default());
        (a, b, refs)
    }

    fn sends<V: Clone>(effects: &[OverlayEffect<V>]) -> Vec<(NodeAddr, DhtMessage<V>)> {
        effects
            .iter()
            .filter_map(|e| match e {
                OverlayEffect::Send { to, msg } => Some((*to, msg.clone())),
                _ => None,
            })
            .collect()
    }

    fn events<V: Clone>(effects: &[OverlayEffect<V>]) -> Vec<OverlayEvent<V>> {
        effects
            .iter()
            .filter_map(|e| match e {
                OverlayEffect::Event(ev) => Some(ev.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn local_put_and_get_short_circuit() {
        let (mut a, _b, _) = two_node_ring();
        // Find a key that node a owns.
        let mut key = String::new();
        for i in 0..10_000 {
            let candidate = format!("k{i}");
            if a.router().is_responsible(routing_id("t", &candidate)) {
                key = candidate;
                break;
            }
        }
        assert!(!key.is_empty(), "no locally owned key found");
        let effects = a.put(
            ObjectName::new("t", key.clone(), 1),
            "v".into(),
            1_000_000,
            0,
        );
        assert!(matches!(
            events(&effects).as_slice(),
            [OverlayEvent::NewData { .. }]
        ));
        let (rid, effects) = a.get("t", &key, 10);
        match &events(&effects)[..] {
            [OverlayEvent::GetResult {
                request_id,
                objects,
                ..
            }] => {
                assert_eq!(*request_id, rid);
                assert_eq!(objects.len(), 1);
                assert_eq!(objects[0].value, "v");
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    /// Six evenly spaced nodes whose successor lists hold one entry: arcs
    /// beyond the direct successor are not locally determinable, so node 0
    /// resolves them only through a routed lookup or the owner cache.
    fn six_node_ring() -> (Vec<Overlay<String>>, Vec<NodeRef>) {
        let n = 6u64;
        let refs: Vec<NodeRef> = (0..n)
            .map(|i| NodeRef {
                id: Id(100 + i * (u64::MAX / n)),
                addr: NodeAddr(i as u32),
            })
            .collect();
        let config = OverlayConfig {
            router: RouterConfig {
                successor_list_len: 1,
                ..RouterConfig::default()
            },
        };
        let overlays = refs
            .iter()
            .map(|r| Overlay::with_static_ring(*r, &refs, config))
            .collect();
        (overlays, refs)
    }

    /// `count` keys of namespace `t` whose routing id lies in `(from, to]`.
    fn keys_in_arc(from: Id, to: Id, count: usize) -> Vec<String> {
        let keys: Vec<String> = (0..2_000)
            .map(|i| format!("k{i}"))
            .filter(|k| routing_id("t", k).in_interval(from, to))
            .take(count)
            .collect();
        assert_eq!(keys.len(), count, "need {count} keys in the arc");
        keys
    }

    fn batch_of(keys: &[String], suffix: u64) -> Vec<(ObjectName, String, u64)> {
        keys.iter()
            .enumerate()
            .map(|(i, k)| {
                (
                    ObjectName::new("t", k.clone(), suffix + i as u64),
                    "v".to_string(),
                    1_000_000,
                )
            })
            .collect()
    }

    type InFlight = (NodeAddr, NodeAddr, DhtMessage<String>);

    /// Deliver the routing-protocol messages among `effects` (issued by
    /// `from`) and everything they trigger until the lookups have settled;
    /// every other message — the direct transfers — comes back undelivered
    /// as `(sender, destination, message)`.  Messages addressed to `hold`
    /// are returned undelivered as well.
    fn settle(
        overlays: &mut [Overlay<String>],
        from: NodeAddr,
        effects: Vec<OverlayEffect<String>>,
        hold: Option<NodeAddr>,
        now: SimTime,
    ) -> Vec<InFlight> {
        let mut queue: Vec<InFlight> = sends(&effects)
            .into_iter()
            .map(|(to, msg)| (from, to, msg))
            .collect();
        let mut out = Vec::new();
        let mut guard = 0;
        while let Some((from, to, msg)) = queue.pop() {
            guard += 1;
            assert!(guard < 512, "lookups did not converge");
            if !matches!(msg, DhtMessage::Routing(_)) || Some(to) == hold {
                out.push((from, to, msg));
                continue;
            }
            for (next, msg) in sends(&overlays[to.index()].on_message(from, msg, now)) {
                queue.push((to, next, msg));
            }
        }
        out
    }

    #[test]
    fn remote_put_goes_through_lookup_then_direct_transfer() {
        let (mut overlays, refs) = six_node_ring();
        let target = refs[3];
        let keys = keys_in_arc(refs[2].id, refs[3].id, 4);
        // Cold: nothing at node 0 names the far arc's owner, so the put
        // issues a routed lookup and nothing else…
        let effects = overlays[0].put(
            ObjectName::new("t", keys[0].clone(), 7),
            "val".into(),
            1_000_000,
            0,
        );
        assert!(sends(&effects)
            .iter()
            .all(|(_, m)| matches!(m, DhtMessage::Routing(_))));
        // …whose answer releases the one direct transfer to the owner.
        let transfers = settle(&mut overlays, NodeAddr(0), effects, None, 0);
        assert_eq!(transfers.len(), 1);
        let (from, to, msg) = transfers.into_iter().next().unwrap();
        assert_eq!((from, to), (NodeAddr(0), target.addr));
        assert!(matches!(msg, DhtMessage::PutRequest { .. }));
        let stored = overlays[3].on_message(from, msg, 5);
        assert!(matches!(
            events(&stored).as_slice(),
            [OverlayEvent::NewData { .. }]
        ));
        assert_eq!(overlays[3].objects().get("t", &keys[0], 10).len(), 1);
        // Warm: the answer covered the whole arc, so a put, a renew and a
        // get for OTHER keys of it each cost exactly the direct message.
        let effects = overlays[0].put(
            ObjectName::new("t", keys[1].clone(), 8),
            "val".into(),
            1_000_000,
            20,
        );
        assert!(
            matches!(sends(&effects).as_slice(), [(to, DhtMessage::PutRequest { .. })] if *to == target.addr),
            "a cached arc resolves without a lookup: {effects:?}"
        );
        let (_, effects) = overlays[0].renew(ObjectName::new("t", keys[2].clone(), 9), 1_000, 20);
        assert!(
            matches!(sends(&effects).as_slice(), [(to, DhtMessage::RenewRequest { .. })] if *to == target.addr)
        );
        // The get round-trips through the owner and comes back as an event.
        let (rid, effects) = overlays[0].get("t", &keys[0], 20);
        let msgs = sends(&effects);
        assert!(
            matches!(msgs.as_slice(), [(to, DhtMessage::GetRequest { .. })] if *to == target.addr)
        );
        let resp = sends(&overlays[3].on_message(NodeAddr(0), msgs[0].1.clone(), 25));
        assert!(
            matches!(resp.as_slice(), [(to, DhtMessage::GetResponse { .. })] if *to == NodeAddr(0))
        );
        let final_effects = overlays[0].on_message(target.addr, resp[0].1.clone(), 30);
        match &events(&final_effects)[..] {
            [OverlayEvent::GetResult {
                request_id,
                objects,
                ..
            }] => {
                assert_eq!(*request_id, rid);
                assert_eq!(objects.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn put_batch_groups_same_owner_entries_into_one_message() {
        let (mut a, mut b, _) = two_node_ring();
        // Partition a pile of keys by owner as the router sees them.
        let mut a_keys = Vec::new();
        let mut b_keys = Vec::new();
        for i in 0..40 {
            let key = format!("k{i}");
            if a.router().is_responsible(routing_id("t", &key)) {
                a_keys.push(key);
            } else {
                b_keys.push(key);
            }
        }
        assert!(a_keys.len() >= 2, "need locally owned keys");
        assert!(b_keys.len() >= 2, "need remotely owned keys");
        let entries: Vec<(ObjectName, String, u64)> = a_keys
            .iter()
            .chain(&b_keys)
            .enumerate()
            .map(|(i, k)| {
                (
                    ObjectName::new("t", k.clone(), i as u64),
                    format!("v{i}"),
                    1_000_000,
                )
            })
            .collect();
        let total = entries.len();
        let effects = a.put_batch(entries, 0);
        // Local entries stored immediately (one NewData each)…
        assert_eq!(events(&effects).len(), a_keys.len());
        // …and every remote entry travels in a single coalesced message (in
        // a two-node ring the successor arc covers the whole remainder).
        let msgs = sends(&effects);
        assert_eq!(msgs.len(), 1, "all remote entries share one PutBatch");
        assert!(
            matches!(&msgs[0].1, DhtMessage::PutBatch { entries, .. } if entries.len() == b_keys.len())
        );
        // The receiver unpacks into per-object storage with per-object
        // lifetimes, exactly as separate puts would have produced.
        let recv_effects = b.on_message(NodeAddr(0), msgs[0].1.clone(), 5);
        assert_eq!(events(&recv_effects).len(), b_keys.len());
        let stored: usize = b_keys
            .iter()
            .map(|k| b.objects().get("t", k, 10).len())
            .sum();
        assert_eq!(stored, b_keys.len());
        assert_eq!(a.objects().len() + b.objects().len(), total);
        // The coalesced transfer's dictionary framing undercuts the bytes
        // the same entries would cost as separate PutRequests (the shared
        // namespace travels once).
        let separate: usize = match &msgs[0].1 {
            DhtMessage::PutBatch { entries, .. } => entries
                .iter()
                .map(|(name, value, lifetime)| {
                    DhtMessage::PutRequest {
                        name: name.clone(),
                        value: value.clone(),
                        lifetime: *lifetime,
                        trace: None,
                    }
                    .wire_size()
                })
                .sum(),
            other => panic!("unexpected {other:?}"),
        };
        assert!(msgs[0].1.wire_size() < separate);
    }

    #[test]
    fn put_batch_never_coalesces_toward_a_departed_node() {
        // Three nodes; node 1 owns the middle arc, then leaves (its probes
        // go unanswered until stabilization evicts it).  A batch flushed
        // after the eviction must not group a single entry toward it.
        let refs = vec![
            NodeRef {
                id: Id(100),
                addr: NodeAddr(0),
            },
            NodeRef {
                id: Id(u64::MAX / 3),
                addr: NodeAddr(1),
            },
            NodeRef {
                id: Id(2 * (u64::MAX / 3)),
                addr: NodeAddr(2),
            },
        ];
        let mut a: Overlay<String> =
            Overlay::with_static_ring(refs[0], &refs, OverlayConfig::default());
        let keys: Vec<String> = (0..200)
            .map(|i| format!("k{i}"))
            .filter(|k| {
                let id = routing_id("t", k);
                id.in_interval(refs[0].id, refs[1].id)
            })
            .take(6)
            .collect();
        assert!(keys.len() >= 4, "need keys in the departed node's arc");
        let entries = |suffix: u64| -> Vec<(ObjectName, String, u64)> {
            keys.iter()
                .enumerate()
                .map(|(i, k)| {
                    (
                        ObjectName::new("t", k.clone(), suffix + i as u64),
                        "v".to_string(),
                        1_000_000,
                    )
                })
                .collect()
        };
        // Before the churn the whole pile coalesces toward node 1.
        let effects = a.put_batch(entries(0), 0);
        assert!(sends(&effects).iter().all(|(to, _)| *to == NodeAddr(1)));
        assert!(sends(&effects)
            .iter()
            .any(|(_, m)| matches!(m, DhtMessage::PutBatch { .. })));
        // Node 1 departs: its stabilization probe goes unanswered past the
        // liveness timeout; node 2 — node 0's predecessor — answers and
        // keeps probing node 0 as its successor, so it stays trusted.
        a.on_timer(OverlayTimer::Stabilize, 0);
        for at in (1_000..60_000_000).step_by(5_000_000) {
            a.on_message(
                NodeAddr(2),
                DhtMessage::Routing(RouterMessage::GetNeighbors {
                    from: refs[2],
                    as_successor: true,
                }),
                at,
            );
        }
        let epoch_before = a.router().membership_epoch();
        a.on_timer(OverlayTimer::Stabilize, 60_000_000);
        assert!(
            a.router().membership_epoch() > epoch_before,
            "eviction must bump the membership epoch"
        );
        // The same arc now resolves to node 2 (the next live successor);
        // nothing — batched or otherwise — travels to the departed node.
        let effects = a.put_batch(entries(100), 60_000_001);
        let msgs = sends(&effects);
        assert!(!msgs.is_empty());
        assert!(
            msgs.iter().all(|(to, _)| *to != NodeAddr(1)),
            "no transfer may target the departed node: {msgs:?}"
        );
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == NodeAddr(2) && matches!(m, DhtMessage::PutBatch { .. })));
    }

    #[test]
    fn owner_cache_extends_coalescing_and_invalidates_on_membership_change() {
        let (mut overlays, refs) = six_node_ring();
        let target = refs[3];
        let keys = keys_in_arc(refs[2].id, refs[3].id, 5);
        // A single put resolves the far arc's owner via a routed lookup…
        let effects = overlays[0].put(
            ObjectName::new("t", keys[0].clone(), 1),
            "v".into(),
            1_000_000,
            0,
        );
        let transfers = settle(&mut overlays, NodeAddr(0), effects, None, 0);
        assert!(
            matches!(transfers.as_slice(), [(_, to, DhtMessage::PutRequest { .. })] if *to == target.addr),
            "the put must reach the owner: {transfers:?}"
        );
        assert_eq!(overlays[0].resolver.cached(), 1);
        // …and the answer names the whole arc, so a batch of OTHER keys of
        // it coalesces into ONE PutBatch straight to the owner — no lookup
        // round at all, not even a first one per identifier.
        let effects = overlays[0].put_batch(batch_of(&keys[1..], 10), 10);
        let msgs = sends(&effects);
        assert_eq!(
            msgs.len(),
            1,
            "one coalesced transfer, no lookups: {msgs:?}"
        );
        assert_eq!(msgs[0].0, target.addr);
        assert!(matches!(&msgs[0].1, DhtMessage::PutBatch { entries, .. } if entries.len() == 4));
        // A membership change (a new predecessor announces itself) bumps the
        // router's epoch and clears the cache: the next batch must not trust
        // the stale arc.
        let newcomer = NodeRef {
            id: Id(99),
            addr: NodeAddr(42),
        };
        overlays[0].on_message(
            newcomer.addr,
            DhtMessage::Routing(RouterMessage::Notify { from: newcomer }),
            30,
        );
        let effects = overlays[0].put_batch(batch_of(&keys[1..], 50), 30);
        assert_eq!(
            overlays[0].resolver.cached(),
            0,
            "membership change must clear the owner cache"
        );
        assert!(
            sends(&effects)
                .iter()
                .all(|(_, m)| matches!(m, DhtMessage::Routing(_))),
            "no transfer may ride a stale arc"
        );
    }

    /// Three nodes; returns node 1's overlay (with a telemetry hub) and keys
    /// of the arc node 2 owns — operations on them that land at node 1 are
    /// misdirected.
    fn misdirected_at_node_1() -> (Overlay<String>, Vec<String>, Telemetry) {
        let refs = vec![
            NodeRef {
                id: Id(100),
                addr: NodeAddr(0),
            },
            NodeRef {
                id: Id(u64::MAX / 3),
                addr: NodeAddr(1),
            },
            NodeRef {
                id: Id(2 * (u64::MAX / 3)),
                addr: NodeAddr(2),
            },
        ];
        let mut b: Overlay<String> =
            Overlay::with_static_ring(refs[1], &refs, OverlayConfig::default());
        let tel = Telemetry::attached();
        b.set_telemetry(tel.clone());
        let keys = keys_in_arc(refs[1].id, refs[2].id, 3);
        (b, keys, tel)
    }

    #[test]
    fn put_batch_receiver_forwards_entries_it_does_not_own() {
        // A coalesced transfer landing at a node that is not (or no longer)
        // responsible for its entries — e.g. the sender's cached arc went
        // stale after a join — must re-enter the routed put flow, never
        // store the objects where no correctly routed get would find them.
        let (mut b, keys, tel) = misdirected_at_node_1();
        let entries = batch_of(&keys, 0);
        let misdirected = DhtMessage::PutBatch {
            entries: entries.clone(),
            trace: None,
        };
        let effects = b.on_message(NodeAddr(0), misdirected, 0);
        assert!(
            events(&effects).is_empty(),
            "nothing may be stored out of place"
        );
        assert_eq!(b.objects().len(), 0);
        // Every entry is forwarded toward the true owner instead (node 2 is
        // b's successor, so the forwarding lookup resolves it directly).
        let msgs = sends(&effects);
        assert_eq!(msgs.len(), entries.len());
        assert!(msgs
            .iter()
            .all(|(to, m)| *to == NodeAddr(2) && matches!(m, DhtMessage::PutRequest { .. })));
        assert_eq!(tel.counter("dht.misdirected"), entries.len() as u64);
    }

    #[test]
    fn put_request_receiver_forwards_an_object_it_does_not_own() {
        let (mut b, keys, tel) = misdirected_at_node_1();
        let trace = Some(TraceContext::root(42));
        let misdirected = DhtMessage::PutRequest {
            name: ObjectName::new("t", keys[0].clone(), 1),
            value: "v".to_string(),
            lifetime: 1_000_000,
            trace,
        };
        let effects = b.on_message(NodeAddr(0), misdirected, 0);
        assert!(
            events(&effects).is_empty(),
            "nothing may be stored out of place"
        );
        assert_eq!(b.objects().len(), 0);
        match sends(&effects).as_slice() {
            [(
                to,
                DhtMessage::PutRequest {
                    name,
                    value,
                    lifetime,
                    trace: forwarded,
                },
            )] => {
                assert_eq!(*to, NodeAddr(2));
                assert_eq!((name.key.as_str(), name.suffix), (keys[0].as_str(), 1));
                assert_eq!((value.as_str(), *lifetime), ("v", 1_000_000));
                assert_eq!(*forwarded, trace, "the trace context rides along");
            }
            other => panic!("expected one forwarded PutRequest, got {other:?}"),
        }
        assert_eq!(tel.counter("dht.misdirected"), 1);
    }

    #[test]
    fn get_request_receiver_forwards_a_request_it_cannot_answer() {
        // Answered from node 1's store, the get would report "no objects"
        // for a key whose objects sit at node 2.
        let (mut b, keys, tel) = misdirected_at_node_1();
        let misdirected = DhtMessage::GetRequest {
            namespace: "t".to_string(),
            keys: vec![(keys[0].clone(), 77)],
            reply_to: NodeAddr(0),
        };
        let effects = b.on_message(NodeAddr(0), misdirected, 0);
        match sends(&effects).as_slice() {
            [(
                to,
                DhtMessage::GetRequest {
                    keys: sent,
                    reply_to,
                    ..
                },
            )] => {
                assert_eq!(*to, NodeAddr(2));
                // The owner answers the originator, under its token.
                assert_eq!(sent, &[(keys[0].clone(), 77)]);
                assert_eq!(*reply_to, NodeAddr(0));
            }
            other => panic!("expected one forwarded GetRequest, got {other:?}"),
        }
        assert_eq!(tel.counter("dht.misdirected"), 1);
    }

    #[test]
    fn get_request_receiver_answers_its_keys_once_and_forwards_the_rest_alone() {
        // A request naming keys of two arcs — the sender's view of node 1's
        // arc was too wide.  What node 1 owns is answered in ONE response;
        // every other key travels on alone, as a misdirected get always has.
        let (mut b, theirs, tel) = misdirected_at_node_1();
        let mine = keys_in_arc(Id(100), Id(u64::MAX / 3), 2);
        b.put(
            ObjectName::new("t", mine[1].clone(), 1),
            "v".into(),
            1_000_000,
            0,
        );
        let keys = vec![
            (theirs[0].clone(), 70),
            (mine[0].clone(), 71),
            (theirs[1].clone(), 72),
            (mine[1].clone(), 73),
        ];
        let mixed = DhtMessage::GetRequest {
            namespace: "t".to_string(),
            keys,
            reply_to: NodeAddr(0),
        };
        let effects = b.on_message(NodeAddr(0), mixed, 10);
        assert!(events(&effects).is_empty());
        match sends(&effects).as_slice() {
            [(to, DhtMessage::GetResponse { namespace, answers }), forwarded @ ..] => {
                assert_eq!((*to, namespace.as_str()), (NodeAddr(0), "t"));
                let answered: Vec<(u64, &str, usize)> = answers
                    .iter()
                    .map(|(id, key, objects)| (*id, key.as_str(), objects.len()))
                    .collect();
                assert_eq!(
                    answered,
                    [(71, mine[0].as_str(), 0), (73, mine[1].as_str(), 1)]
                );
                let expected = [(theirs[0].clone(), 70), (theirs[1].clone(), 72)];
                assert_eq!(forwarded.len(), expected.len());
                for ((to, msg), expected) in forwarded.iter().zip(expected) {
                    assert!(
                        matches!(msg, DhtMessage::GetRequest { keys, reply_to, .. }
                            if *to == NodeAddr(2) && keys[..] == [expected] && *reply_to == NodeAddr(0)),
                        "each forwarded alone, originator's address and token: {msg:?}"
                    );
                }
            }
            other => panic!("expected one response, then the forwards: {other:?}"),
        }
        assert_eq!(tel.counter("dht.misdirected"), 2);
    }

    #[test]
    fn renew_request_receiver_forwards_a_renewal_it_cannot_judge() {
        // Judged against node 1's store, the renewal would fail although
        // the object is alive at node 2.
        let (mut b, keys, tel) = misdirected_at_node_1();
        let misdirected = DhtMessage::RenewRequest {
            name: ObjectName::new("t", keys[0].clone(), 5),
            lifetime: 2_000_000,
            reply_to: NodeAddr(0),
            request_id: 78,
        };
        let effects = b.on_message(NodeAddr(0), misdirected, 0);
        match sends(&effects).as_slice() {
            [(
                to,
                DhtMessage::RenewRequest {
                    name,
                    lifetime,
                    reply_to,
                    request_id,
                },
            )] => {
                assert_eq!(*to, NodeAddr(2));
                assert_eq!((name.key.as_str(), name.suffix), (keys[0].as_str(), 5));
                assert_eq!(*lifetime, 2_000_000);
                assert_eq!((*reply_to, *request_id), (NodeAddr(0), 78));
            }
            other => panic!("expected one forwarded RenewRequest, got {other:?}"),
        }
        assert_eq!(tel.counter("dht.misdirected"), 1);
    }

    #[test]
    fn forwarding_takes_a_routed_lookup_never_the_owner_cache() {
        // Node 1 holds a stale arc that names node 5 for identifiers node 3
        // owns.  Its own puts would follow the arc; an operation it
        // FORWARDS must not, or two nodes holding stale arcs for each
        // other could bounce it forever.
        let (mut overlays, refs) = six_node_ring();
        let keys = keys_in_arc(refs[2].id, refs[3].id, 1);
        overlays[1].learn_arc(refs[2].id, refs[5], 0);
        assert_eq!(
            overlays[1]
                .resolve(routing_id("t", &keys[0]), 0)
                .map(|o| o.addr),
            Some(refs[5].addr),
            "the stale arc is what node 1's resolver answers"
        );
        // The request is mixed: one key is node 1's own.
        let own = keys_in_arc(refs[0].id, refs[1].id, 1);
        let misdirected = DhtMessage::GetRequest {
            namespace: "t".to_string(),
            keys: vec![(keys[0].clone(), 9), (own[0].clone(), 10)],
            reply_to: NodeAddr(0),
        };
        let effects = overlays[1].on_message(NodeAddr(0), misdirected, 0);
        let (answered, forwarded): (Vec<_>, Vec<_>) = sends(&effects)
            .into_iter()
            .partition(|(_, m)| matches!(m, DhtMessage::GetResponse { .. }));
        assert!(
            matches!(answered.as_slice(), [(to, DhtMessage::GetResponse { answers, .. })]
                if *to == NodeAddr(0) && answers.len() == 1 && answers[0].0 == 10),
            "its own key is answered on the spot: {answered:?}"
        );
        assert!(
            forwarded
                .iter()
                .all(|(_, m)| matches!(m, DhtMessage::Routing(_))),
            "the forward starts with a lookup: {forwarded:?}"
        );
        let transfers = settle(&mut overlays, NodeAddr(1), effects, None, 0);
        let forwarded: Vec<_> = transfers
            .iter()
            .filter(|(_, _, m)| matches!(m, DhtMessage::GetRequest { .. }))
            .collect();
        assert!(
            matches!(
                forwarded.as_slice(),
                [(_, to, DhtMessage::GetRequest { keys: sent, reply_to, .. })]
                    if *to == refs[3].addr && *reply_to == NodeAddr(0) && sent[..] == [(keys[0].clone(), 9)]
            ),
            "the lookup's answer, not the stale arc, names the destination: {transfers:?}"
        );
        // And the answer replaced nothing it did not cover: node 3's arc is
        // now cached beside the (still stale) one for node 5.
        assert_eq!(overlays[1].resolver.cached(), 2);
    }

    #[test]
    fn get_batch_asks_each_owner_once_in_address_order() {
        // Node 0 knows its own arc and its successor's from routing state,
        // node 3's from the warm-up and node 4's from a stated arc; node
        // 2's it cannot name.
        let (mut overlays, refs, far, tel) = warmed(3);
        overlays[0].learn_arc(refs[3].id, refs[4], 0);
        let arc = |from: usize, to: usize, n| keys_in_arc(refs[from].id, refs[to].id, n);
        let (own, next, farther, cold) = (arc(5, 0, 2), arc(0, 1, 2), arc(3, 4, 2), arc(1, 2, 1));
        overlays[0].put(
            ObjectName::new("t", own[1].clone(), 1),
            "mine".into(),
            1_000_000,
            5,
        );
        let keys: Vec<String> = [
            &farther[0],
            &far[0],
            &own[0],
            &next[0],
            &cold[0],
            &far[1],
            &farther[1],
            &own[1],
            &next[1],
            &far[2],
        ]
        .into_iter()
        .cloned()
        .collect();
        let (ids, effects) = overlays[0].get_batch("t", keys.clone(), 10);
        assert_eq!(ids.len(), keys.len());
        let id_of = |key: &String| ids[keys.iter().position(|k| k == key).unwrap()];
        // Local keys are answered on the spot, no message…
        let answered: Vec<(u64, usize)> = events(&effects)
            .iter()
            .map(|e| match e {
                OverlayEvent::GetResult {
                    request_id,
                    objects,
                    ..
                } => (*request_id, objects.len()),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(answered, [(id_of(&own[0]), 0), (id_of(&own[1]), 1)]);
        // …every named owner gets ONE request holding its keys in the order
        // given, owners in address order, and the cold key one lookup.
        let msgs = sends(&effects);
        let requests: Vec<(NodeAddr, Vec<(String, u64)>)> = msgs
            .iter()
            .filter_map(|(to, m)| match m {
                DhtMessage::GetRequest {
                    namespace,
                    keys,
                    reply_to,
                } => {
                    assert_eq!((namespace.as_str(), *reply_to), ("t", NodeAddr(0)));
                    Some((*to, keys.clone()))
                }
                _ => None,
            })
            .collect();
        let group = |to: usize, keys: &[String]| {
            let keys = keys.iter().map(|k| (k.clone(), id_of(k))).collect();
            (refs[to].addr, keys)
        };
        assert_eq!(
            requests,
            [group(1, &next), group(3, &far), group(4, &farther)]
        );
        assert_eq!((msgs.len(), lookups_in(&msgs)), (4, 1), "{msgs:?}");
        let counted = ["calls", "keys", "local", "unresolved"]
            .map(|c| tel.counter(&format!("dht.get_batch.{c}")));
        assert_eq!(counted, [1, 10, 2, 1]);
        // An owner answers its whole request in one response, which comes
        // back as one result per key under the tokens handed out.
        let (to, request) = msgs
            .iter()
            .find(|(to, _)| *to == refs[3].addr)
            .cloned()
            .unwrap();
        let response = sends(&overlays[to.index()].on_message(NodeAddr(0), request, 15));
        assert!(
            matches!(response.as_slice(), [(to, DhtMessage::GetResponse { answers, .. })]
                if *to == NodeAddr(0) && answers.len() == 3)
        );
        let results = events(&overlays[0].on_message(to, response[0].1.clone(), 20));
        let tokens: Vec<u64> = results
            .iter()
            .map(|e| match e {
                OverlayEvent::GetResult { request_id, .. } => *request_id,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(tokens, far.iter().map(id_of).collect::<Vec<_>>());
    }

    #[test]
    fn neighbors_replies_feed_the_owner_cache() {
        // A stabilization reply spells out the replier's own arc, and it
        // resolves operations afterwards.
        let (mut overlays, refs) = six_node_ring();
        let reply = DhtMessage::Routing(RouterMessage::Neighbors {
            from: refs[3],
            predecessor: Some(refs[2]),
            successors: vec![refs[4]],
        });
        overlays[0].on_message(refs[3].addr, reply, 0);
        assert_eq!(overlays[0].resolver.cached(), 1);
        let key = &keys_in_arc(refs[2].id, refs[3].id, 1)[0];
        let effects = overlays[0].put(
            ObjectName::new("t", key.clone(), 1),
            "v".into(),
            1_000_000,
            1,
        );
        assert!(
            matches!(sends(&effects).as_slice(), [(to, DhtMessage::PutRequest { .. })] if *to == refs[3].addr),
            "the stated arc must resolve to the replier: {effects:?}"
        );
    }

    /// The `FindSuccessor` messages among `msgs`.
    fn lookups_in(msgs: &[(NodeAddr, DhtMessage<String>)]) -> usize {
        msgs.iter()
            .filter(|(_, m)| matches!(m, DhtMessage::Routing(RouterMessage::FindSuccessor { .. })))
            .count()
    }

    /// Node 0 of the six-node ring with the far arc `(refs[2], refs[3]]`
    /// learned at time 0, a telemetry hub attached, and `count` keys of
    /// that arc.
    fn warmed(count: usize) -> (Vec<Overlay<String>>, Vec<NodeRef>, Vec<String>, Telemetry) {
        let (mut overlays, refs) = six_node_ring();
        let keys = keys_in_arc(refs[2].id, refs[3].id, count);
        let effects = overlays[0].put(
            ObjectName::new("t", keys[0].clone(), 0),
            "v".into(),
            1_000_000,
            0,
        );
        settle(&mut overlays, NodeAddr(0), effects, None, 0);
        assert_eq!(overlays[0].resolver.cached(), 1);
        let tel = Telemetry::attached();
        overlays[0].set_telemetry(tel.clone());
        (overlays, refs, keys, tel)
    }

    /// Past the TTL at which every arc learned at time 0 has expired.
    const EXPIRED: SimTime = 2 * 30_000_000 + 1;

    #[test]
    fn owner_cache_entries_expire_and_in_flight_lookups_cannot_repoison() {
        let (mut overlays, refs, keys, _) = warmed(3);
        let target = refs[3];
        let id = routing_id("t", &keys[0]);
        // Within the TTL the batch coalesces…
        let ttl = RouterConfig::default().liveness_timeout;
        let msgs = sends(&overlays[0].put_batch(batch_of(&keys, 10), ttl));
        assert_eq!(msgs.len(), 1);
        assert!(matches!(&msgs[0].1, DhtMessage::PutBatch { .. }));
        assert_eq!(msgs[0].0, target.addr);
        // …past it the arc is no longer trusted: membership may have
        // changed outside our neighbor view (a remote join never bumps our
        // epoch), so nothing rides it.  The entry stays, as refreshing: it
        // resolves nothing and one lookup re-asks about it.
        let effects = overlays[0].put_batch(batch_of(&keys, 20), EXPIRED);
        let msgs = sends(&effects);
        assert!(
            msgs.iter()
                .all(|(_, m)| matches!(m, DhtMessage::Routing(_))),
            "an expired arc must force a lookup: {msgs:?}"
        );
        assert_eq!(lookups_in(&msgs), 1, "and only one");
        assert_eq!(overlays[0].resolver.cached(), 1, "kept while refreshing");
        assert_eq!(overlays[0].resolve(id, EXPIRED), None);
        // The answer teaches the arc afresh and everything leaves.
        let transfers = settle(&mut overlays, NodeAddr(0), effects, None, EXPIRED);
        assert!(transfers.iter().all(|(_, to, _)| *to == target.addr));
        assert_eq!(
            overlays[0].resolve(id, EXPIRED).map(|o| o.addr),
            Some(target.addr)
        );
        assert_eq!(overlays[0].resolver.in_flight(), 0);
        // In-flight poisoning: a put issues its lookup (the arc has expired
        // again), THEN the membership changes, THEN the pre-churn reply
        // arrives.  The reply still completes the put (the receiver's check
        // covers the race) but its arc must not enter the cache the epoch
        // bump just cleared.
        let t = 2 * EXPIRED;
        let effects = overlays[0].put(
            ObjectName::new("t", keys[0].clone(), 99),
            "v".into(),
            1_000_000,
            t,
        );
        let replies = settle(&mut overlays, NodeAddr(0), effects, Some(NodeAddr(0)), t);
        assert!(!replies.is_empty(), "the lookup must produce a reply");
        let newcomer = NodeRef {
            id: Id(99),
            addr: NodeAddr(42),
        };
        overlays[0].on_message(
            newcomer.addr,
            DhtMessage::Routing(RouterMessage::Notify { from: newcomer }),
            t,
        );
        let mut completed = Vec::new();
        for (from, _, msg) in replies {
            completed.extend(sends(&overlays[0].on_message(from, msg, t)));
        }
        assert!(
            matches!(completed.as_slice(), [(to, DhtMessage::PutRequest { .. })] if *to == target.addr),
            "the answer still serves its own operation: {completed:?}"
        );
        assert_eq!(
            overlays[0].resolver.cached(),
            0,
            "a pre-churn lookup reply must not re-poison the cleared cache"
        );
    }

    #[test]
    fn an_expired_arc_is_refreshed_by_one_lookup_whatever_arrives_meanwhile() {
        let (mut overlays, refs, keys, tel) = warmed(5);
        let (target, keys_of) = (refs[3].addr, &keys);
        // A five-row flush, a get and a renewal into the expired arc, all
        // in one instant: one FindSuccessor leaves and nothing else.
        let mut effects = overlays[0].put_batch(batch_of(&keys, 10), EXPIRED);
        let (get_id, get) = overlays[0].get("t", &keys[1], EXPIRED);
        effects.extend(get);
        let renewal = ObjectName::new("t", keys[2].clone(), 0);
        effects.extend(overlays[0].renew(renewal, 1_000, EXPIRED).1);
        let msgs = sends(&effects);
        assert_eq!(msgs.len(), 1, "one message in all: {msgs:?}");
        assert_eq!(lookups_in(&msgs), 1);
        assert_eq!(tel.counter("dht.owner_cache.refreshes"), 1);
        assert_eq!(tel.counter("dht.owner_cache.parked"), 6);
        // The answer releases the put that carried the lookup together with
        // the four parked puts as one PutBatch of 5, and the get and the
        // renewal as one direct message each.  No second lookup.
        let transfers = settle(&mut overlays, NodeAddr(0), effects, None, EXPIRED);
        assert!(transfers
            .iter()
            .all(|(from, to, _)| (*from, *to) == (NodeAddr(0), target)));
        let mut kinds: Vec<&str> = transfers
            .iter()
            .map(|(_, _, m)| match m {
                DhtMessage::PutBatch { entries, .. } if entries.len() == 5 => "batch of 5",
                DhtMessage::GetRequest { keys, .. }
                    if keys[..] == [(keys_of[1].clone(), get_id)] =>
                {
                    "get"
                }
                DhtMessage::RenewRequest { .. } => "renew",
                other => panic!("unexpected transfer {other:?}"),
            })
            .collect();
        kinds.sort_unstable();
        assert_eq!(kinds, ["batch of 5", "get", "renew"]);
        assert_eq!(tel.counter("dht.lookups"), 1);
        assert_eq!(overlays[0].resolver.in_flight(), 0);
        // Gets share too: k of them — one call or k — cost one lookup, the
        // request that carried it and ONE request for the k - 1 that waited.
        let t = 2 * EXPIRED;
        let (ids, mut effects) = overlays[0].get_batch("t", keys[..3].to_vec(), t);
        let (id, get) = overlays[0].get("t", &keys[3], t);
        effects.extend(get);
        assert_eq!(sends(&effects).len(), 1);
        let transfers = settle(&mut overlays, NodeAddr(0), effects, None, t);
        let mut asked: Vec<Vec<u64>> = transfers
            .iter()
            .map(|(_, to, m)| match m {
                DhtMessage::GetRequest { keys, reply_to, .. }
                    if (*to, *reply_to) == (target, NodeAddr(0)) =>
                {
                    keys.iter().map(|(_, id)| *id).collect()
                }
                other => panic!("unexpected transfer {other:?}"),
            })
            .collect();
        asked.sort_unstable();
        assert_eq!(asked, [vec![ids[0]], vec![ids[1], ids[2], id]]);
        assert_eq!(tel.counter("dht.lookups"), 2);
    }

    #[test]
    fn what_a_shrunken_arc_no_longer_covers_pays_its_own_lookup() {
        let (mut overlays, refs, mut keys, tel) = warmed(6);
        // While the arc was cached a node joined in its middle (nobody in
        // this ring has heard of it, so node 3 still answers for all of
        // it): the refresh's answer vouches for the upper half only.
        keys.sort_by_key(|k| std::cmp::Reverse(routing_id("t", k)));
        let split = routing_id("t", &keys[3]);
        let effects = overlays[0].put_batch(batch_of(&keys, 10), EXPIRED);
        let held = settle(
            &mut overlays,
            NodeAddr(0),
            effects,
            Some(NodeAddr(0)),
            EXPIRED,
        );
        let request_id = match held.as_slice() {
            [(_, _, DhtMessage::Routing(RouterMessage::FindSuccessorReply { request_id, .. }))] => {
                *request_id
            }
            other => panic!("expected the one held reply, got {other:?}"),
        };
        let shrunk = DhtMessage::Routing(RouterMessage::FindSuccessorReply {
            request_id,
            owner: refs[3],
            arc_start: split,
            hops: 2,
        });
        let effects = overlays[0].on_message(refs[3].addr, shrunk, EXPIRED);
        // Keys 0..3 lie above the split: the carrier and the two parked
        // there in one batch.  Keys 3..6 lie at or below it: a lookup each
        // (the first of which nothing parks behind: no arc covers them any
        // more).
        let msgs = sends(&effects);
        assert_eq!(lookups_in(&msgs), 3, "{msgs:?}");
        assert_eq!(msgs.len(), 4);
        assert!(msgs.iter().any(|(to, m)| *to == refs[3].addr
            && matches!(m, DhtMessage::PutBatch { entries, .. } if entries.len() == 3)));
        let transfers = settle(&mut overlays, NodeAddr(0), effects, None, EXPIRED);
        assert_eq!(transfers.len(), 4);
        for (from, to, msg) in transfers {
            assert_eq!(to, refs[3].addr, "the ring's true owner");
            overlays[3].on_message(from, msg, EXPIRED);
        }
        for key in &keys {
            assert_eq!(overlays[3].objects().get("t", key, EXPIRED).len(), 1);
        }
        assert_eq!(tel.counter("dht.lookups"), 4);
        assert_eq!(overlays[0].resolver.in_flight(), 0);
    }

    #[test]
    fn a_refresh_answered_across_an_epoch_bump_completes_what_it_parked() {
        let (mut overlays, refs, keys, _) = warmed(3);
        let effects = overlays[0].put_batch(batch_of(&keys, 10), EXPIRED);
        let held = settle(
            &mut overlays,
            NodeAddr(0),
            effects,
            Some(NodeAddr(0)),
            EXPIRED,
        );
        assert_eq!(held.len(), 1);
        let newcomer = NodeRef {
            id: Id(99),
            addr: NodeAddr(42),
        };
        overlays[0].on_message(
            newcomer.addr,
            DhtMessage::Routing(RouterMessage::Notify { from: newcomer }),
            EXPIRED,
        );
        let (from, _, reply) = held.into_iter().next().unwrap();
        let effects = overlays[0].on_message(from, reply, EXPIRED);
        assert_eq!(
            overlays[0].resolver.cached(),
            0,
            "an answer asked in an older epoch is not remembered"
        );
        // The carrier leaves on the answer; the two parked puts, covered by
        // nothing, take the path a miss takes.
        let msgs = sends(&effects);
        assert_eq!((msgs.len(), lookups_in(&msgs)), (3, 2), "{msgs:?}");
        let transfers = settle(&mut overlays, NodeAddr(0), effects, None, EXPIRED);
        assert_eq!(transfers.len(), 3);
        assert!(transfers
            .iter()
            .all(|(_, to, m)| *to == refs[3].addr && matches!(m, DhtMessage::PutRequest { .. })));
        assert_eq!(overlays[0].resolver.in_flight(), 0);
    }

    #[test]
    fn a_refresh_never_answered_strands_nothing_and_stops_leaking() {
        let (mut overlays, refs, keys, tel) = warmed(4);
        let id = routing_id("t", &keys[0]);
        // The refresh's FindSuccessor is lost.
        let lost = overlays[0].put_batch(batch_of(&keys, 10), EXPIRED);
        assert_eq!(sends(&lost).len(), 1);
        assert_eq!(tel.counter("dht.owner_cache.parked"), 3);
        // The next sweep finds it unanswered: the three parked puts leave
        // through lookups of their own, in arrival order, and the arc is
        // given up — the next operation is a plain miss.
        let sweep = EXPIRED + EXPIRE_INTERVAL;
        let effects = overlays[0].on_timer(OverlayTimer::Expire, sweep);
        assert_eq!(lookups_in(&sends(&effects)), 3);
        assert_eq!(overlays[0].resolver.cached(), 0);
        let transfers = settle(&mut overlays, NodeAddr(0), effects, None, sweep);
        let suffixes: Vec<u64> = transfers
            .iter()
            .map(|(_, to, m)| match m {
                DhtMessage::PutRequest { name, .. } if *to == refs[3].addr => name.suffix,
                other => panic!("unexpected transfer {other:?}"),
            })
            .collect();
        assert_eq!(suffixes.len(), 3);
        assert!(suffixes.iter().all(|s| (11..=13).contains(s)));
        assert_eq!(
            overlays[0].resolve(id, sweep).map(|o| o.addr),
            Some(refs[3].addr),
            "their answers taught the arc again"
        );
        // What the lost lookup carried is lost with it, as it always was;
        // its entry goes once nobody can still answer it.
        assert_eq!(overlays[0].resolver.in_flight(), 1);
        let ttl = RouterConfig::default().liveness_timeout;
        overlays[0].on_timer(OverlayTimer::Expire, EXPIRED + ttl);
        assert_eq!(
            overlays[0].resolver.in_flight(),
            1,
            "not before the timeout"
        );
        let effects = overlays[0].on_timer(OverlayTimer::Expire, EXPIRED + ttl + 1);
        assert!(sends(&effects).is_empty());
        assert_eq!(overlays[0].resolver.in_flight(), 0);
        assert_eq!(tel.counter("dht.lookups.abandoned"), 1);
    }

    #[test]
    fn owner_cache_is_lru_bounded_on_a_large_ring() {
        // Node 0 of the six-node ring cannot name owners inside the far
        // arc; feed it arcs of far more distinct owners there than the
        // capacity bound — a large ring seen through one node's lookups.
        let (mut overlays, refs) = six_node_ring();
        let overlay = &mut overlays[0];
        let step = u64::MAX / 6;
        // Owner `i` sits strictly inside (refs[2], refs[3]) and answers for
        // the two identifiers ending at its own.
        let far = |i: u64| NodeRef {
            id: Id(refs[2].id.0 + 2 + 2 * (i % (step / 2 - 2))),
            addr: NodeAddr(1_000 + i as u32),
        };
        let learn = |overlay: &mut Overlay<String>, i: u64, now: SimTime| {
            let owner = far(i);
            overlay.learn_arc(Id(owner.id.0 - 2), owner, now);
        };
        let max = crate::resolver::OWNER_CACHE_MAX;
        for i in 0..(3 * max as u64) {
            learn(overlay, i, 0);
            assert!(
                overlay.resolver.cached() <= max,
                "cache exceeded its bound at insert {i}: {}",
                overlay.resolver.cached()
            );
        }
        assert_eq!(overlay.resolver.cached(), max);
        // A recently-used arc survives LRU churn: touch one, then push a
        // full capacity's worth of fresh owners through.  Every timestamp
        // stays within the TTL, so the bound below is enforced purely by
        // least-recently-used eviction — and the touched arc is never the
        // victim.
        let hot = far(3 * max as u64);
        learn(overlay, 3 * max as u64, 1);
        assert_eq!(overlay.resolve(hot.id, 2).map(|o| o.addr), Some(hot.addr));
        for i in 0..(max as u64 - 1) {
            learn(overlay, 10_000_000 + i, 2);
            assert!(overlay.resolver.cached() <= max);
        }
        assert_eq!(
            overlay.resolve(hot.id, 2).map(|o| o.addr),
            Some(hot.addr),
            "the most-recently-used arc must survive LRU eviction"
        );
        assert_eq!(overlay.resolver.cached(), max);
        // Re-learning a cached owner's arc replaces it in place.
        learn(overlay, 3 * max as u64, 3);
        assert_eq!(overlay.resolver.cached(), max);
    }

    #[test]
    fn renew_requires_existing_object() {
        let (mut a, _b, _) = two_node_ring();
        let mut key = String::new();
        for i in 0..10_000 {
            let candidate = format!("k{i}");
            if a.router().is_responsible(routing_id("t", &candidate)) {
                key = candidate;
                break;
            }
        }
        let name = ObjectName::new("t", key.clone(), 1);
        // Renew before put fails.
        let (_, effects) = a.renew(name.clone(), 1_000, 0);
        assert!(matches!(
            events(&effects).as_slice(),
            [OverlayEvent::RenewResult { success: false, .. }]
        ));
        a.put(name.clone(), "v".into(), 1_000_000, 0);
        let (_, effects) = a.renew(name, 2_000_000, 100);
        assert!(matches!(
            events(&effects).as_slice(),
            [OverlayEvent::RenewResult { success: true, .. }]
        ));
    }

    #[test]
    fn routed_send_offers_upcall_and_can_be_dropped() {
        // Three nodes so a send can pass through an intermediate hop.
        let refs = vec![
            NodeRef {
                id: Id(0),
                addr: NodeAddr(0),
            },
            NodeRef {
                id: Id(u64::MAX / 3),
                addr: NodeAddr(1),
            },
            NodeRef {
                id: Id(2 * (u64::MAX / 3)),
                addr: NodeAddr(2),
            },
        ];
        let mut overlays: Vec<Overlay<String>> = refs
            .iter()
            .map(|r| Overlay::with_static_ring(*r, &refs, OverlayConfig::default()))
            .collect();
        // Pick a name owned by node 2 and send it from node 0; with only
        // three nodes the message may go direct, so also verify the upcall
        // path explicitly by delivering a Routed message to a non-owner.
        let name = ObjectName::new("agg", "root", 1);
        let target = name.routing_id();
        let owner = refs
            .iter()
            .position(|r| overlays[r.addr.index()].router().is_responsible(target))
            .unwrap();
        let non_owner = (owner + 1) % 3;
        let routed: DhtMessage<String> = DhtMessage::Routed(RoutedObject {
            target,
            name,
            value: "partial".into(),
            lifetime: 1_000_000,
            hops: 1,
            trace: None,
        });
        let effects = overlays[non_owner].on_message(NodeAddr(9), routed, 0);
        assert!(
            sends(&effects).is_empty(),
            "nothing moves before the upcall"
        );
        let routed = match events(&effects).as_slice() {
            [OverlayEvent::Upcall(routed)] => routed.clone(),
            other => panic!("expected an upcall, got {other:?}"),
        };
        assert_eq!((routed.value.as_str(), routed.hops), ("partial", 1));
        // Dropping it is not forwarding it: the overlay holds nothing back.
        // Forwarding it sends it on, one hop further.
        let forwarded = sends(&overlays[non_owner].forward(routed, 3));
        assert!(
            matches!(forwarded.as_slice(), [(_, DhtMessage::Routed(RoutedObject { hops: 2, value, .. }))]
                if value == "partial"),
            "{forwarded:?}"
        );
    }

    #[test]
    fn tree_join_recorded_and_broadcast_reaches_children() {
        let (mut a, mut b, refs) = two_node_ring();
        let root_owner_is_a = a.router.is_responsible(a.tree_root);
        let (root, child, root_addr, child_addr) = if root_owner_is_a {
            (&mut a, &mut b, refs[0].addr, refs[1].addr)
        } else {
            (&mut b, &mut a, refs[1].addr, refs[0].addr)
        };
        // Child joins the tree: with two nodes, its parent is the root.
        let join = child.join_tree(0);
        let msgs = sends(&join);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0, root_addr);
        root.on_message(child_addr, msgs[0].1.clone(), 0);
        assert_eq!(root.tree.children(0).collect::<Vec<_>>(), vec![child_addr]);

        // Broadcasting from the root delivers locally and to the child.
        let effects = root.broadcast("query-plan".to_string(), 1);
        let evs = events(&effects);
        assert!(
            matches!(&evs[..], [OverlayEvent::Broadcast { payload }] if payload == "query-plan")
        );
        let down = sends(&effects);
        assert_eq!(down.len(), 1);
        assert_eq!(down[0].0, child_addr);
        let child_effects = child.on_message(root_addr, down[0].1.clone(), 2);
        assert!(matches!(
            events(&child_effects).as_slice(),
            [OverlayEvent::Broadcast { .. }]
        ));
        assert!(sends(&child_effects).is_empty(), "a leaf forwards nothing");
        // A repeat of the same broadcast is dropped.
        let repeat = child.on_message(root_addr, down[0].1.clone(), 3);
        assert!(repeat.is_empty(), "delivered once: {repeat:?}");

        // From the child, the broadcast goes straight up: the root delivers
        // it and has no other child to send it down to.
        let effects = child.broadcast("roster".to_string(), 4);
        assert_eq!(events(&effects).len(), 1, "the origin delivers it itself");
        let up = sends(&effects);
        assert!(matches!(
            &up[..],
            [(to, DhtMessage::TreeBroadcastUp { .. })] if *to == root_addr
        ));
        let root_effects = root.on_message(child_addr, up[0].1.clone(), 5);
        assert_eq!(events(&root_effects).len(), 1);
        assert!(sends(&root_effects).is_empty(), "not back to the sender");
    }

    #[test]
    fn timers_rearm_themselves() {
        let (mut a, _b, _) = two_node_ring();
        for timer in [
            OverlayTimer::Stabilize,
            OverlayTimer::FixFingers,
            OverlayTimer::Expire,
            OverlayTimer::TreeRefresh,
        ] {
            let effects = a.on_timer(timer, 1_000);
            assert!(
                effects
                    .iter()
                    .any(|e| matches!(e, OverlayEffect::SetTimer { timer: t, .. } if *t == timer)),
                "{timer:?} must reschedule itself"
            );
        }
    }

    #[test]
    fn expire_timer_sweeps_soft_state() {
        let (mut a, _b, _) = two_node_ring();
        let mut key = String::new();
        for i in 0..10_000 {
            let candidate = format!("k{i}");
            if a.router().is_responsible(routing_id("t", &candidate)) {
                key = candidate;
                break;
            }
        }
        a.put(ObjectName::new("t", key.clone(), 1), "v".into(), 1_000, 0);
        assert_eq!(a.objects().len(), 1);
        a.on_timer(OverlayTimer::Expire, 10_000);
        assert_eq!(a.objects().len(), 0, "expired object must be swept");
    }
}
