//! A node's window engines and their pane traffic.
//!
//! [`Engines`] owns every [`WindowEngine`] at a node — an unshared query's
//! own, a share group's, a one-shot aggregate's — the numbered shipments
//! that carry their closed panes toward each engine's root
//! ([`crate::pane_link`]), and an index of the window-partial namespaces
//! they read.  Arrivals, instants and a lent `&mut Overlay` / `&mut Rng64`
//! go in; overlay effects, shipments, requests for lost shipments and
//! emissions come out.  Plain state: [`crate::node::PierNode`] arms the
//! tick timers, records the spans and posts what comes out.

use crate::node::{PierConfig, PierMsg};
use crate::pane_link::{Inbox, Outbox};
use crate::plan::QpObject;
use crate::tuple::{ColumnChunk, Tuple, TupleBatch};
use crate::window_engine::{Emission, EngineSpec, MemberSpec, WindowEngine, OCCUPANCY_GAUGES};
use pier_cq::DurableStore;
use pier_dht::{routing_id, DhtMessage, Id, ObjectName, Overlay, OverlayEffect};
use pier_runtime::{Duration, NodeAddr, Rng64, SimTime, WireSize};
use pier_telemetry::{SpanRecord, Telemetry};
use pier_trace::TraceContext;
use std::collections::{BTreeMap, HashMap};

/// Which of a node's engines: an unshared query's own, or a share
/// group's.  [`crate::PierTimer::WindowTick`] and
/// [`crate::PierTimer::ShareTick`] are the timer addresses of the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EngineKey {
    Query(u64),
    Group(u64),
}

/// An engine and its pane links.
#[derive(Debug)]
struct EngineSlot {
    engine: WindowEngine,
    /// Routing identifier of the engine's window root.
    root_id: Id,
    /// The incarnation a firing tick must be for: a share group's epoch,
    /// 0 for a query's own engine.
    epoch: u64,
    /// This engine's numbered pane shipments, kept for resending.
    sent: Outbox<DhtMessage<QpObject>>,
    /// The senders whose pane shipments this engine absorbed.
    heard: Inbox,
}

/// Where closed-pane partials arrive: at their engine's root (`NewData`),
/// where what its store refuses is dropped, or at an upcall hop, where it
/// goes on toward the root under the given trace context.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Hop {
    Root,
    Upcall(Option<TraceContext>),
}

/// What an arrival in a namespace asks of the node.
#[derive(Debug, Default)]
pub(crate) struct Arrival {
    /// An engine here absorbed the arrival, or dropped it as a copy it
    /// absorbed before; if not, route or forward it as if none were here.
    pub taken: bool,
    /// A request for the shipments the arrival's number shows missing, to
    /// post to their sender.
    pub ask: Option<(NodeAddr, PierMsg)>,
    /// Refused rows re-shipped from an upcall hop.
    pub effects: Vec<OverlayEffect<QpObject>>,
}

/// What one tick of an engine hands the node.
#[derive(Debug)]
pub(crate) struct Ticked {
    /// The closed panes' numbered shipment, for [`Engines::ship`]; none
    /// when no pane closed with a row.
    pub shipment: Option<QpObject>,
    /// A traced engine's flush span, `(query, stage, [partials, bytes,
    /// panes bundled or, for shared work, members])`, whose context rides
    /// the shipment.
    pub flush_span: Option<(u64, &'static str, [u64; 3])>,
    /// Per-member emissions (only at the root).
    pub emissions: Vec<Emission>,
    /// A share group's engine: emissions trace under the member's own root.
    pub shared: bool,
    /// `(charged query, shed, evicted)`, for [`Engines::tock`].
    pub health: (u64, u64, u64),
}

/// Every window engine at one node.
#[derive(Debug, Default)]
pub(crate) struct Engines {
    slots: BTreeMap<EngineKey, EngineSlot>,
    /// The engine each windowed query (unshared or member) lives in.
    engine_of: HashMap<u64, EngineKey>,
    /// Each engine's window-partial namespace.
    partials: HashMap<String, EngineKey>,
    /// The incarnation of the engine opened last: engines number their
    /// pane shipments under strictly increasing incarnations, taken from
    /// the virtual clock.
    pane_epoch: u64,
    /// The instant the `cq.*` occupancy gauges were last summed.
    gauges_at: Option<SimTime>,
    publish_lifetime: Duration,
    durable: Option<DurableStore>,
    tel: Telemetry,
}

impl Engines {
    /// No engines, under `config`'s `publish_lifetime` and `durable`
    /// store, reporting to `tel`.
    pub(crate) fn new(config: &PierConfig, tel: Telemetry) -> Self {
        Engines {
            publish_lifetime: config.publish_lifetime,
            durable: config.durable.clone(),
            tel,
            ..Engines::default()
        }
    }

    /// `query_id` becomes a member of engine `key`.  The first member
    /// `open`s it, as incarnation `epoch` of `spec`: cold, or rehydrated
    /// warm from the durable segments.
    pub(crate) fn join(
        &mut self,
        key: EngineKey,
        open: Option<(u64, EngineSpec)>,
        query_id: u64,
        member: MemberSpec,
        trace: bool,
        now: SimTime,
    ) {
        if let Some((epoch, spec)) = open {
            let mut engine = WindowEngine::new(spec);
            if let Some(report) = self.durable.as_ref().and_then(|d| engine.rehydrate(d)) {
                self.tel.add("cq.rehydrated_windows", report.windows as u64);
                self.tel.add("cq.rehydrate_skipped", report.skipped as u64);
                self.tel
                    .add("cq.rehydrate_torn_tails", u64::from(report.torn_tail));
                let counts = [report.windows as u64, report.groups as u64, report.tuples];
                let names = &["windows", "groups", "tuples"];
                self.tel.record(SpanRecord::event(
                    "window.rehydrate",
                    query_id,
                    names,
                    counts,
                ));
            }
            let (namespace, root_key) = (&engine.spec().namespace, &engine.spec().root_key);
            let root_id = routing_id(namespace, root_key);
            self.partials.insert(namespace.clone(), key);
            self.pane_epoch = now.max(self.pane_epoch + 1);
            let (sent, heard) = (Outbox::new(self.pane_epoch), Inbox::default());
            let slot = EngineSlot {
                engine,
                root_id,
                epoch,
                sent,
                heard,
            };
            self.slots.insert(key, slot);
        }
        if let Some(slot) = self.slots.get_mut(&key) {
            slot.engine.add_member(query_id, member, trace, now);
            self.engine_of.insert(query_id, key);
        }
    }

    /// `query_id` leaves its engine.  The last member out retires it, and
    /// a deliberate teardown means the engine is over everywhere it
    /// matters: its durable segments will never be rehydrated, so they are
    /// dropped rather than leak "disk".
    pub(crate) fn leave(&mut self, query_id: u64) {
        let key = self.engine_of.remove(&query_id);
        let Some((key, slot)) = key.and_then(|key| Some((key, self.slots.get_mut(&key)?))) else {
            return;
        };
        slot.engine.remove_member(query_id);
        if slot.engine.members().is_empty() {
            self.partials.remove(&slot.engine.spec().namespace);
            if let Some(durable) = self.durable.as_ref() {
                slot.engine.forget(durable);
            }
            self.slots.remove(&key);
        }
    }

    /// Renew the lease of `query_id`; `false` when it lives in no engine
    /// here.  A one-shot aggregate holds no lease: nothing is renewed.
    pub(crate) fn renew(&mut self, query_id: u64, now: SimTime) -> bool {
        let Some(key) = self.engine_of.get(&query_id) else {
            return false;
        };
        let slot = self.slots.get_mut(key);
        if let Some(lease) = slot.and_then(|s| s.engine.lease_mut(query_id)) {
            lease.renew(now);
            self.tel.inc("cq.lease_renewals");
            self.tel
                .record(SpanRecord::event("lease_renew", query_id, &[], []));
        }
        true
    }

    /// The engine `query_id` lives in here.
    pub(crate) fn holding(&self, query_id: u64) -> Option<&WindowEngine> {
        Some(&self.slots.get(self.engine_of.get(&query_id)?)?.engine)
    }

    /// Engine `key`: an unshared query's own, which its aggregating graph
    /// feeds, or a share group's, which absorbs the rows members select.
    pub(crate) fn engine(&mut self, key: EngineKey) -> Option<&mut WindowEngine> {
        self.slots.get_mut(&key).map(|slot| &mut slot.engine)
    }

    /// The engine whose window-partial namespace `namespace` is, and the
    /// telemetry its pane traffic reports to.
    fn reading(&mut self, namespace: &str) -> Option<(EngineKey, &mut EngineSlot, &Telemetry)> {
        let key = *self.partials.get(namespace)?;
        Some((key, self.slots.get_mut(&key)?, &self.tel))
    }

    /// A numbered shipment of closed-pane partials, `value`, arrives in
    /// `namespace` at `hop`.  It is noted, asks its sender again for every
    /// shipment its number shows missing, and is dropped when absorbed
    /// before; then the engine absorbs it.  At an upcall hop, a shipment
    /// the engine took none of goes on whole, and the rows it refused
    /// (budget shed, evicted pane) are re-shipped toward the root as a
    /// shipment of this hop's own.  Nothing unnumbered is an engine's: it
    /// is not taken, so the node routes or forwards it as if no engine
    /// were here.
    pub(crate) fn arrive(
        &mut self,
        namespace: &str,
        value: &QpObject,
        hop: Hop,
        now: SimTime,
        overlay: &mut Overlay<QpObject>,
        rng: &mut Rng64,
    ) -> Arrival {
        let mut arrival = Arrival::default();
        let QpObject::Panes { stamp, batch } = value else {
            return arrival;
        };
        let upcall = matches!(hop, Hop::Upcall(_));
        let reading = self
            .reading(namespace)
            .filter(|_| !upcall || !batch.is_empty());
        let Some((key, slot, tel)) = reading else {
            return arrival;
        };
        let heard = slot.heard.arrive(*stamp);
        if !heard.fresh {
            tel.inc("cq.panes.duplicates");
        }
        if !heard.ask.is_empty() {
            tel.add("cq.panes.asked", heard.ask.len() as u64);
            let request = PierMsg::PaneRequest {
                namespace: namespace.to_string(),
                epoch: stamp.epoch,
                seqs: heard.ask,
            };
            arrival.ask = Some((stamp.origin, request));
        }
        if !heard.fresh {
            arrival.taken = true;
            return arrival;
        }
        let chunks = batch.chunks();
        let refused: Vec<Vec<u32>> = chunks.iter().map(|c| slot.engine.absorb_panes(c)).collect();
        let refused_rows = refused.iter().map(Vec::len).sum::<usize>();
        arrival.taken = !upcall || refused_rows < batch.len();
        if let (Hop::Upcall(trace), true) = (hop, arrival.taken && refused_rows > 0) {
            let refused = (chunks.iter().zip(&refused))
                .filter(|(_, rows)| !rows.is_empty())
                .map(|(chunk, rows)| chunk.gather(rows))
                .collect();
            if let Some(shipment) = self.pane_shipment(key, refused, overlay.me().addr) {
                arrival.effects = self.ship(key, shipment, trace, now, overlay, rng);
            }
        }
        arrival
    }

    /// Copies of the kept shipments of the engine reading `namespace` that
    /// hop `to` asks for again (a [`PierMsg::PaneRequest`]).
    pub(crate) fn resend(
        &mut self,
        namespace: &str,
        epoch: u64,
        seqs: &[u32],
        to: NodeAddr,
    ) -> Vec<DhtMessage<QpObject>> {
        let Some((_, slot, tel)) = self.reading(namespace) else {
            return Vec::new();
        };
        let copies = slot.sent.resend(epoch, seqs, to);
        if !copies.is_empty() {
            tel.add("cq.panes.resent", copies.len() as u64);
        }
        copies
    }

    /// The shipment that carries engine `key`'s closed-pane partials
    /// `chunks` one hop from `me`, numbered next in the engine's stream;
    /// none when they hold no row.
    fn pane_shipment(
        &mut self,
        key: EngineKey,
        chunks: Vec<ColumnChunk>,
        me: NodeAddr,
    ) -> Option<QpObject> {
        if chunks.iter().all(|c| c.rows() == 0) {
            return None;
        }
        let stamp = self.slots.get_mut(&key)?.sent.stamp(me);
        let batch = TupleBatch::from_chunks(chunks);
        Some(QpObject::Panes { stamp, batch })
    }

    /// Send a numbered shipment of engine `key` one hop toward its window
    /// root (upcalls combine it en route), or by `put` straight to it for
    /// a `flat` engine, and keep it, with the hop it went to, for
    /// resending.  `trace` rides the shipment — armed for this send,
    /// because `set_trace` is consumed by the next overlay op and must not
    /// leak onto unrelated traffic.
    pub(crate) fn ship(
        &mut self,
        key: EngineKey,
        shipment: QpObject,
        trace: Option<TraceContext>,
        now: SimTime,
        overlay: &mut Overlay<QpObject>,
        rng: &mut Rng64,
    ) -> Vec<OverlayEffect<QpObject>> {
        let (Some(slot), QpObject::Panes { stamp, .. }) = (self.slots.get_mut(&key), &shipment)
        else {
            return Vec::new();
        };
        let seq = stamp.seq;
        let spec = slot.engine.spec();
        let lifetime = spec.min_lifetime.max(self.publish_lifetime);
        let (namespace, root_key) = (spec.namespace.clone(), spec.root_key.clone());
        let name = ObjectName::new(namespace, root_key, rng.next_u64());
        overlay.set_trace(trace);
        let sent = if spec.flat {
            overlay.put(name, shipment, lifetime, now)
        } else {
            overlay.send_routed(slot.root_id, name, shipment, lifetime, now)
        };
        for effect in &sent {
            if let OverlayEffect::Send { to, msg } = effect {
                slot.sent.keep(seq, *to, msg.clone());
            }
        }
        sent
    }

    /// Tick engine `key` for the timer of incarnation `epoch`: close due
    /// panes into numbered shipments and, at the root, emit each member's
    /// windows.  `None` when the engine is retired or re-created since the
    /// timer was armed: the chain stops, and a stale timer must not stack a
    /// duplicate one.
    pub(crate) fn tick(
        &mut self,
        key: EngineKey,
        epoch: u64,
        now: SimTime,
        overlay: &Overlay<QpObject>,
    ) -> Option<Ticked> {
        let slot = self.slots.get_mut(&key).filter(|s| s.epoch == epoch)?;
        let is_root = overlay.router().is_responsible(slot.root_id);
        let out = slot.engine.tick(now, is_root);
        let names = slot.engine.spec().names;
        // Shared work is charged to the engine's lowest member.
        let members = slot.engine.members();
        let charged = members.iter().next().map(|(id, m)| (*id, m.trace));
        let members = members.len() as u64;
        let (shed, evicted) = slot.engine.take_shed_evicted();
        let partials = out.partials.into_iter().collect();
        let shipment = self.pane_shipment(key, partials, overlay.me().addr);
        // Every shipping flush ticks the engine's flush counters; a traced
        // engine's also records a span.
        let mut flush_span = None;
        if let Some(shipment) = shipment.as_ref().filter(|_| self.tel.is_enabled()) {
            let partials = shipment.tuple_count() as u64;
            self.tel.inc(names.flushes);
            self.tel.add(names.flush_partials, partials);
            if let Some((query_id, true)) = charged {
                let bytes = shipment.wire_size() as u64;
                let aux = if names.shared { members } else { out.panes };
                flush_span = Some((query_id, names.flush_span, [partials, bytes, aux]));
            }
        }
        Some(Ticked {
            shipment,
            flush_span,
            emissions: out.emissions,
            shared: names.shared,
            health: (charged.map_or(0, |(id, _)| id), shed, evicted),
        })
    }

    /// Close a tick of engine `key` once its results are posted: report
    /// window health — the tick's `health` deltas as trace events and,
    /// once per instant however many engines tick at it, occupancy gauges
    /// summed over every engine — and persist the surviving state as
    /// durable segments, so a crash after this tick restarts warm.  The
    /// slide to re-arm the tick after, while the engine lives.
    pub(crate) fn tock(
        &mut self,
        key: EngineKey,
        now: SimTime,
        (query_id, shed, evicted): (u64, u64, u64),
    ) -> Option<Duration> {
        if self.tel.is_enabled() {
            let pressure = [
                ("window_shed", &["shed"], shed),
                ("window_evict", &["evicted"], evicted),
            ];
            for (event, name, n) in pressure.into_iter().filter(|p| p.2 > 0) {
                self.tel
                    .record(SpanRecord::event(event, query_id, name, [n]));
            }
            if self.gauges_at != Some(now) {
                self.gauges_at = Some(now);
                let mut totals = [0u64; 6];
                for slot in self.slots.values() {
                    for (total, v) in totals.iter_mut().zip(slot.engine.occupancy()) {
                        *total += v;
                    }
                }
                for (name, total) in OCCUPANCY_GAUGES.iter().zip(totals) {
                    self.tel.gauge(name, total as f64);
                }
            }
        }
        let slot = self.slots.get(&key)?;
        if let Some(durable) = self.durable.as_ref() {
            slot.engine.persist(durable);
        }
        Some(slot.engine.spec().window.slide)
    }

    /// One-shot aggregate `query_id` reached its final instant: at its
    /// root, the proxy and the one answer of every pane held here.
    pub(crate) fn finish(
        &mut self,
        query_id: u64,
        overlay: &Overlay<QpObject>,
    ) -> Option<(NodeAddr, Vec<Tuple>)> {
        let slot = self.slots.get_mut(&EngineKey::Query(query_id))?;
        let root = overlay.router().is_responsible(slot.root_id);
        root.then(|| slot.engine.finish())?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::pane_link::PaneStamp;
    use crate::plan::{CqSpec, OpGraph, PlanBuilder, QueryPlan, SinkSpec, SourceSpec};
    use crate::tuple::TupleBatch;
    use crate::value::Value;
    use pier_cq::{CqBudget, DeltaMode, WindowSpec};
    use pier_dht::{make_ring_refs, OverlayConfig};

    const QUERY: u64 = 7;
    const PANE: SimTime = 1_000_000;
    /// Late enough that the first pane has closed everywhere.
    const LATER: SimTime = 3 * PANE;

    /// `SELECT k, COUNT(*) FROM packets GROUP BY k WINDOW 1s` under
    /// `budget`.
    fn plan(budget: CqBudget) -> QueryPlan {
        let sink = SinkSpec::WindowedAgg {
            window: WindowSpec::tumbling(PANE),
            group_cols: vec!["k".to_string()],
            aggs: vec![AggFunc::Count],
            time_col: Some("ts".to_string()),
            delta: DeltaMode::Snapshot,
            final_ops: Vec::new(),
        };
        let source = SourceSpec::Table {
            namespace: "packets".to_string(),
        };
        let graph = OpGraph {
            id: 0,
            source,
            join: None,
            ops: Vec::new(),
            sink,
        };
        let cq = CqSpec {
            budget,
            ..CqSpec::default()
        };
        let mut plan = PlanBuilder::new(NodeAddr(99)).opgraph(graph).cq(cq).build();
        plan.query_id = QUERY;
        plan
    }

    /// A node's engines, holding `plan`'s, whose first pane has absorbed a
    /// row of each of `keys`.
    fn engines_for(plan: &QueryPlan, config: &PierConfig, keys: &[i64]) -> Engines {
        let (_, spec, member) = EngineSpec::unshared(plan).expect("an aggregating sink");
        let mut engines = Engines::new(config, Telemetry::default());
        let key = EngineKey::Query(QUERY);
        engines.join(key, Some((0, spec)), QUERY, member, false, 0);
        let row = |k: &i64| {
            let fields = vec![("k", Value::Int(*k)), ("ts", Value::Int(PANE as i64 / 2))];
            Tuple::new("packets", fields)
        };
        let rows = TupleBatch::new(keys.iter().map(row).collect());
        let engine = engines.engine(key).expect("opened");
        for chunk in rows.chunks() {
            engine.absorb(chunk, None, PANE / 2);
        }
        engines
    }

    /// The overlays of an `n`-node static ring, and which of them is the
    /// root of `plan`'s engine.
    fn ring(n: usize, plan: &QueryPlan) -> (Vec<Overlay<QpObject>>, usize) {
        let refs = make_ring_refs(n, 5);
        let overlay = |me: &_| Overlay::with_static_ring(*me, &refs, OverlayConfig::default());
        let ring: Vec<_> = refs.iter().map(overlay).collect();
        let root_id = routing_id(&plan.window_namespace(), &plan.agg_root_key());
        let root = ring.iter().position(|o| o.router().is_responsible(root_id));
        (ring, root.expect("someone owns the root"))
    }

    /// The one numbered shipment a tick of `engines` at `overlay` ships.
    fn shipped(engines: &mut Engines, overlay: &Overlay<QpObject>) -> QpObject {
        let ticked = engines.tick(EngineKey::Query(QUERY), 0, LATER, overlay);
        let shipment = ticked.expect("a live engine").shipment;
        let shipment = shipment.expect("one shipment");
        assert!(matches!(shipment, QpObject::Panes { .. }), "numbered");
        shipment
    }

    fn groups(engines: &Engines) -> usize {
        let engine = engines.holding(QUERY).expect("a member");
        engine.diagnostics(QUERY).expect("a member").total_groups
    }

    /// The counts the root's tick emits for the first window, by group.
    fn counts_at_root(engines: &mut Engines, overlay: &Overlay<QpObject>) -> Vec<i64> {
        let ticked = engines.tick(EngineKey::Query(QUERY), 0, LATER, overlay);
        let [window] = &ticked.expect("a live engine").emissions[..] else {
            panic!("one window emitted");
        };
        let count = |t: &Tuple| t.get("count").and_then(Value::as_i64);
        window
            .inserts
            .iter()
            .map(|t| count(t).expect("a count"))
            .collect()
    }

    #[test]
    fn an_engine_is_routed_while_it_lives_and_forgotten_after_its_last_member() {
        let durable = DurableStore::default();
        let config = PierConfig {
            durable: Some(durable.clone()),
            ..PierConfig::default()
        };
        let plan = plan(CqBudget::default());
        let (mut ring, root) = ring(1, &plan);
        let (overlay, mut rng) = (&mut ring[root], Rng64::new(1));
        let mut engines = engines_for(&plan, &config, &[1, 2, 2]);
        let (key, namespace) = (EngineKey::Query(QUERY), plan.window_namespace());
        let stamp = PaneStamp {
            origin: NodeAddr(1),
            epoch: 0,
            seq: 0,
        };
        let batch = TupleBatch::default();
        let probe = QpObject::Panes { stamp, batch };
        let mut arrive = |engines: &mut Engines, overlay: &mut Overlay<QpObject>| {
            let arrival = engines.arrive(&namespace, &probe, Hop::Root, LATER, overlay, &mut rng);
            arrival.taken
        };
        assert!(
            arrive(&mut engines, overlay),
            "the partial namespace is read"
        );

        // Alone, the node is the root: the tick emits the closed window and
        // ships nothing; a stale incarnation's tick stops its chain.
        let ticked = engines.tick(key, 0, LATER, overlay).expect("live");
        assert!(ticked.shipment.is_none());
        let counts: Vec<usize> = ticked.emissions.iter().map(|e| e.inserts.len()).collect();
        assert_eq!(counts, [2], "one window, two groups");
        assert!(engines.tick(key, 1, LATER, overlay).is_none());
        assert_eq!(
            engines.tock(key, LATER, ticked.health),
            Some(PANE),
            "re-armed"
        );
        assert!(!durable.keys().is_empty(), "the surviving state persisted");

        // A second member keeps the engine; the last one out retires it.
        let (_, _, member) = EngineSpec::unshared(&plan).expect("an aggregating sink");
        engines.join(key, None, QUERY + 1, member, false, LATER);
        engines.leave(QUERY);
        assert!(arrive(&mut engines, overlay), "still read");
        assert!(!durable.keys().is_empty(), "still kept");
        engines.leave(QUERY + 1);
        assert!(engines.slots.is_empty() && engines.engine_of.is_empty());
        assert!(!arrive(&mut engines, overlay), "no longer read");
        assert!(durable.keys().is_empty(), "its segments forgotten");
        assert!(
            engines.tick(key, 0, LATER, overlay).is_none(),
            "the chain stops"
        );
    }

    #[test]
    fn a_shipment_arriving_twice_is_absorbed_once_and_a_gap_is_asked_for() {
        let plan = plan(CqBudget::default());
        let config = PierConfig::default();
        let (mut ring, root) = ring(8, &plan);
        let leaf = (root + 1) % ring.len();
        let mut at_leaf = engines_for(&plan, &config, &[1, 2, 3]);
        let mut at_root = engines_for(&plan, &config, &[]);
        let shipment = shipped(&mut at_leaf, &ring[leaf]);
        let QpObject::Panes { stamp, batch } = &shipment else {
            unreachable!("checked by `shipped`");
        };
        assert_eq!((stamp.origin, stamp.seq), (ring[leaf].me().addr, 0));
        let namespace = plan.window_namespace();
        let mut rng = Rng64::new(1);
        for _copy in 0..2 {
            let overlay = &mut ring[root];
            let arrival =
                at_root.arrive(&namespace, &shipment, Hop::Root, LATER, overlay, &mut rng);
            assert!(arrival.taken && arrival.ask.is_none() && arrival.effects.is_empty());
        }

        // Number 2 arrives where 1 was due: absorbed, and 1 is asked of
        // the leaf, directly.
        let stamp = PaneStamp { seq: 2, ..*stamp };
        let batch = batch.clone();
        let later = QpObject::Panes { stamp, batch };
        let overlay = &mut ring[root];
        let arrival = at_root.arrive(&namespace, &later, Hop::Root, LATER, overlay, &mut rng);
        assert!(arrival.taken);
        let Some((to, PierMsg::PaneRequest { epoch, seqs, .. })) = arrival.ask else {
            panic!("a gap is asked for: {:?}", arrival.ask);
        };
        // Number 0 counted once, number 2 once.
        assert_eq!(counts_at_root(&mut at_root, &ring[root]), [2, 2, 2]);
        assert_eq!((to, epoch, seqs), (stamp.origin, stamp.epoch, vec![1]));
    }

    #[test]
    fn unnumbered_partials_are_not_an_engine_s_at_the_root_or_an_upcall_hop() {
        let plan = plan(CqBudget::default());
        let config = PierConfig::default();
        let (mut ring, root) = ring(8, &plan);
        let [leaf, relay] = [1, 2].map(|i| (root + i) % ring.len());
        let shipment = shipped(&mut engines_for(&plan, &config, &[1, 2, 3]), &ring[leaf]);
        let QpObject::Panes { batch, .. } = shipment else {
            unreachable!("checked by `shipped`");
        };
        let row = batch.iter().next().expect("a partial row");
        let unnumbered = [QpObject::Batch(batch), QpObject::Tuple(row)];
        let namespace = plan.window_namespace();
        let mut rng = Rng64::new(1);
        for (at, hop) in [(root, Hop::Root), (relay, Hop::Upcall(None))] {
            let mut engines = engines_for(&plan, &config, &[]);
            for value in &unnumbered {
                let overlay = &mut ring[at];
                let arrival = engines.arrive(&namespace, value, hop, LATER, overlay, &mut rng);
                assert!(!arrival.taken, "{hop:?} took {value:?}");
                assert!(arrival.ask.is_none() && arrival.effects.is_empty());
                assert_eq!(groups(&engines), 0, "{hop:?} absorbed {value:?}");
            }
        }
    }

    #[test]
    fn refused_rows_go_on_from_an_upcall_hop_and_stop_at_the_root() {
        let roomy = plan(CqBudget::default());
        let tight = plan(CqBudget {
            max_groups_per_window: 1,
            ..CqBudget::default()
        });
        let config = PierConfig::default();
        let (mut ring, root) = ring(8, &roomy);
        let [leaf, other_leaf, relay] = [1, 2, 3].map(|i| (root + i) % ring.len());
        let shipment = shipped(&mut engines_for(&roomy, &config, &[1, 2, 3]), &ring[leaf]);
        let namespace = roomy.window_namespace();
        let mut rng = Rng64::new(1);
        let (mut at_relay, mut at_root) = (Engines::default(), Engines::default());
        for engines in [&mut at_relay, &mut at_root] {
            *engines = engines_for(&tight, &config, &[]);
        }

        // The relay takes the one group its cap holds; the two past it go
        // on toward the root as a shipment of its own.
        let hop = Hop::Upcall(None);
        let overlay = &mut ring[relay];
        let arrival = at_relay.arrive(&namespace, &shipment, hop, LATER, overlay, &mut rng);
        assert!(arrival.taken);
        assert_eq!(groups(&at_relay), 1);
        let sent: Vec<&QpObject> = (arrival.effects.iter())
            .filter_map(|effect| match effect {
                OverlayEffect::Send {
                    msg: DhtMessage::Routed(routed),
                    ..
                } => Some(&routed.value),
                _ => None,
            })
            .collect();
        let [QpObject::Panes { stamp, batch }] = sent[..] else {
            panic!("one numbered re-shipment: {sent:?}");
        };
        assert_eq!((stamp.origin, batch.len()), (ring[relay].me().addr, 2));

        // A shipment the relay takes none of goes on whole, untouched.
        let others = shipped(
            &mut engines_for(&roomy, &config, &[4, 5]),
            &ring[other_leaf],
        );
        let overlay = &mut ring[relay];
        let arrival = at_relay.arrive(&namespace, &others, hop, LATER, overlay, &mut rng);
        assert!(!arrival.taken && arrival.effects.is_empty());

        // At the root what its cap refuses goes nowhere.
        let overlay = &mut ring[root];
        let arrival = at_root.arrive(&namespace, &shipment, Hop::Root, LATER, overlay, &mut rng);
        assert!(arrival.taken && arrival.effects.is_empty());
        assert_eq!(groups(&at_root), 1);
    }
}
