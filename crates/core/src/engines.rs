//! A node's window engines and their pane traffic.
//!
//! [`Engines`] owns every [`WindowEngine`] at a node — an unshared query's
//! own, a share group's, a one-shot aggregate's — the numbered shipments
//! that carry their closed panes toward each engine's root
//! ([`crate::pane_link`]), and an index of the window-partial namespaces
//! they read.  Arrivals, instants and a lent `&mut Overlay` go in;
//! overlay effects, shipments, requests for lost shipments and emissions
//! come out.  Plain state: [`crate::node::PierNode`] arms the
//! tick timers, records the spans and posts what comes out.
//!
//! Every engine ticks at its window's close instants (its end,
//! [`pier_cq::WindowSpec::next_close`]), so every node's engines for one
//! spec close together, and each tick opens a **round**.  An engine that
//! absorbed no child's shipment last round releases at once: it ships its
//! closed panes or, at the root, emits.  One that did holds the round until
//! every origin it heard last round has shipped again, or for half a slide,
//! whichever comes first; the arrival that completes the set releases it.
//! This is TAG's depth slotting (Madden et al., OSDI 2002), clocked by
//! arrivals instead of a depth estimate: a leaf ships at the close, each
//! relay as soon as its children have, and the root emits each window once,
//! a few link latencies after it closes.  A partial that misses the hold
//! refines its pane and rides the next round's one shipment, or the next
//! emission: a late child costs latency, never a message.  A one-shot
//! aggregate's engine ticks one hold apart from its install, unheld (see
//! `rounds`).
//!
//! A durable node persists each engine where its round's hold ends, or
//! would end had it held: half a slide after each close, once the pane the
//! close opened has half filled (a one-shot's unheld rounds persist at
//! their release).  A node without durable segments arms no such tick.

use crate::node::{PierConfig, PierMsg};
use crate::pane_link::{Inbox, Outbox};
use crate::plan::QpObject;
use crate::tuple::{ColumnChunk, Tuple, TupleBatch};
use crate::window_engine::{Emission, EngineSpec, MemberSpec, WindowEngine, OCCUPANCY_GAUGES};
use pier_cq::DurableStore;
use pier_dht::{routing_id, DhtMessage, Id, ObjectName, Overlay, OverlayEffect};
use pier_runtime::{Duration, NodeAddr, SimTime, WireSize};
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
    /// The instant the engine's one tick timer in flight is armed for: a
    /// firing before it is a stale chain's, and stops it.  (A stalled node
    /// fires its timers late.)
    armed: SimTime,
    /// The window close at which the next round opens.
    next_close: SimTime,
    /// On a node with durable segments, the instant this round's snapshot
    /// is due: where its hold ends, or would end had it held.
    persist_at: Option<SimTime>,
    /// The round the engine is in.
    round: Round,
}

/// When the round after `now` opens for an engine of `spec`, and how long
/// a round may be held: a window's next close and half a slide.  A one-shot
/// aggregate keeps the phase of its install and opens its rounds unheld,
/// one hold apart.  Its answer is due at a fixed instant, so a close-aligned
/// round buys it nothing, while a leaf that shipped at a close just after
/// its install could reach the root before the query's broadcast did, and
/// be dropped there; and its leaves ship once, so a relay's hold would only
/// wait for children with nothing more to send.
fn rounds(spec: &EngineSpec, now: SimTime) -> (SimTime, Duration) {
    let window = spec.window;
    if spec.emit_once {
        (now + window.slide, 0)
    } else {
        (window.next_close(now), window.slide / 2)
    }
}

/// Which children one engine's round waits for.
#[derive(Debug, Default)]
struct Round {
    /// The origins whose fresh shipments the engine absorbed last round,
    /// ascending: the hold waits to hear from each again.
    expect: Vec<NodeAddr>,
    /// The origins heard from since this round opened, ascending.
    heard: Vec<NodeAddr>,
    /// How many of `expect` are not in `heard` yet.
    missing: usize,
    /// While the round is held, the instant the hold ends at the latest.
    held_until: Option<SimTime>,
}

impl Round {
    /// Open the round at `now`, holding it for at most `hold` when any
    /// child shipped last round; `true` when it is held.
    fn open(&mut self, now: SimTime, hold: Duration) -> bool {
        self.expect = std::mem::take(&mut self.heard);
        self.missing = self.expect.len();
        let held = self.missing > 0 && hold > 0;
        self.held_until = held.then_some(now + hold);
        held
    }

    /// A fresh shipment from `origin` was absorbed; `true` when that ends
    /// the hold.
    fn hear(&mut self, origin: NodeAddr) -> bool {
        if let Err(at) = self.heard.binary_search(&origin) {
            self.heard.insert(at, origin);
            self.missing -= usize::from(self.expect.binary_search(&origin).is_ok());
        }
        let ends = self.missing == 0 && self.held_until.is_some();
        if ends {
            self.held_until = None;
        }
        ends
    }
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
    /// The arrival completed its engine's held round: what the release
    /// ships and emits, to post as a tick's.
    pub released: Option<(EngineKey, Ticked)>,
}

/// What one release of an engine hands the node.
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
    /// warm from the durable segments; then the instant to arm its first
    /// tick at, its window's next close.
    pub(crate) fn join(
        &mut self,
        key: EngineKey,
        open: Option<(u64, EngineSpec)>,
        query_id: u64,
        member: MemberSpec,
        trace: bool,
        now: SimTime,
    ) -> Option<SimTime> {
        let mut first_tick = None;
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
            let (next_close, _) = rounds(engine.spec(), now);
            first_tick = Some(next_close);
            let slot = EngineSlot {
                engine,
                root_id,
                epoch,
                sent,
                heard,
                armed: next_close,
                next_close,
                persist_at: None,
                round: Round::default(),
            };
            self.slots.insert(key, slot);
        }
        if let Some(slot) = self.slots.get_mut(&key) {
            slot.engine.add_member(query_id, member, trace, now);
            self.engine_of.insert(query_id, key);
        }
        first_tick
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
    /// shipment of this hop's own.  A shipment taken is heard from its
    /// origin, and may end the engine's held round: the arrival carries
    /// the release.  Nothing unnumbered is an engine's: it
    /// is not taken, so the node routes or forwards it as if no engine
    /// were here.
    pub(crate) fn arrive(
        &mut self,
        namespace: &str,
        value: &QpObject,
        hop: Hop,
        now: SimTime,
        overlay: &mut Overlay<QpObject>,
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
        let absorb = |c| slot.engine.absorb_panes(c, !upcall);
        let refused: Vec<Vec<u32>> = chunks.iter().map(absorb).collect();
        let refused_rows = refused.iter().map(Vec::len).sum::<usize>();
        arrival.taken = !upcall || refused_rows < batch.len();
        if let (Hop::Upcall(trace), true) = (hop, arrival.taken && refused_rows > 0) {
            let refused = (chunks.iter().zip(&refused))
                .filter(|(_, rows)| !rows.is_empty())
                .map(|(chunk, rows)| chunk.gather(rows))
                .collect();
            if let Some(shipment) = self.pane_shipment(key, refused, overlay.me().addr) {
                arrival.effects = self.ship(key, shipment, trace, now, overlay);
            }
        }
        let slot = self
            .slots
            .get_mut(&key)
            .expect("the engine read the arrival");
        if arrival.taken && slot.round.hear(stamp.origin) {
            arrival.released = self.release(key, now, overlay).map(|t| (key, t));
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
    ) -> Vec<OverlayEffect<QpObject>> {
        let (Some(slot), QpObject::Panes { stamp, .. }) = (self.slots.get_mut(&key), &shipment)
        else {
            return Vec::new();
        };
        let (seq, suffix) = (stamp.seq, stamp.name_suffix());
        let spec = slot.engine.spec();
        let lifetime = spec.min_lifetime.max(self.publish_lifetime);
        let (namespace, root_key) = (spec.namespace.clone(), spec.root_key.clone());
        let name = ObjectName::new(namespace, root_key, suffix);
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

    /// Engine `key`'s tick timer of incarnation `epoch` fired at `now`.  A
    /// held round whose hold ran out releases.  Otherwise, at (or, stalled,
    /// past) a window close the round opens, and the engine releases at
    /// once or holds.  A hold an arrival already ended only re-arms.  On a
    /// durable node, the tick where the hold ends or would end persists the
    /// engine, after any release.  What a release ships and emits, if one
    /// happened, and the instant to arm the next tick at: the hold's end
    /// while held, then the snapshot's instant while one is due, else the
    /// next close.  `None` when the engine is retired or re-created since
    /// the timer was armed, or the timer is not the one in flight: the
    /// chain stops, and a stale timer must not stack a duplicate one.
    pub(crate) fn tick(
        &mut self,
        key: EngineKey,
        epoch: u64,
        now: SimTime,
        overlay: &Overlay<QpObject>,
    ) -> Option<(Option<Ticked>, SimTime)> {
        let durable = self.durable.is_some();
        let slot = self.slots.get_mut(&key);
        let slot = slot.filter(|s| s.epoch == epoch && now >= s.armed)?;
        let release = if slot.round.held_until.take().is_some() {
            true
        } else if now >= slot.next_close {
            let (next_close, hold) = rounds(slot.engine.spec(), now);
            slot.next_close = next_close;
            slot.persist_at = durable.then_some(now + hold);
            !slot.round.open(now, hold)
        } else {
            false
        };
        let persist = slot.persist_at.take_if(|at| now >= *at).is_some();
        // A stall may have fired this tick past the next close: that round
        // opens at once.
        let due = slot.round.held_until.or(slot.persist_at);
        slot.armed = due.unwrap_or(slot.next_close).max(now);
        let armed = slot.armed;
        let ticked = if release {
            self.release(key, now, overlay)
        } else {
            None
        };
        if let (true, Some(slot), Some(durable)) = (persist, self.slots.get(&key), &self.durable) {
            slot.engine.persist(durable);
        }
        Some((ticked, armed))
    }

    /// Release engine `key`'s round: close its due panes into one numbered
    /// shipment and, at the root, emit each member's windows.
    fn release(
        &mut self,
        key: EngineKey,
        now: SimTime,
        overlay: &Overlay<QpObject>,
    ) -> Option<Ticked> {
        let slot = self.slots.get_mut(&key)?;
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

    /// Close a release once its results are posted: report window health —
    /// the release's `health` deltas as trace events and, once per instant
    /// however many engines release at it, occupancy gauges summed over
    /// every engine.
    pub(crate) fn tock(&mut self, now: SimTime, (query_id, shed, evicted): (u64, u64, u64)) {
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
    use pier_runtime::Rng64;
    use proptest::prelude::*;

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

    /// Fire the tick of `engines`' engine at `now`, as if its timer in
    /// flight were armed there: what a release produced, and the instant
    /// the next tick is armed at.
    fn fire(
        engines: &mut Engines,
        now: SimTime,
        overlay: &Overlay<QpObject>,
    ) -> (Option<Ticked>, SimTime) {
        let key = EngineKey::Query(QUERY);
        engines.slots.get_mut(&key).expect("a live engine").armed = now;
        engines
            .tick(key, 0, now, overlay)
            .expect("the timer in flight")
    }

    /// The one numbered shipment a tick of `engines` at `overlay` ships.
    fn shipped(engines: &mut Engines, overlay: &Overlay<QpObject>) -> QpObject {
        let ticked = fire(engines, LATER, overlay).0;
        let shipment = ticked.expect("released at once").shipment;
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
        let (ticked, hold_end) = fire(engines, LATER, overlay);
        let ticked = ticked.or_else(|| fire(engines, hold_end, overlay).0);
        let [window] = &ticked.expect("released").emissions[..] else {
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
        let overlay = &mut ring[root];
        let mut engines = engines_for(&plan, &config, &[1, 2, 2]);
        let (key, namespace) = (EngineKey::Query(QUERY), plan.window_namespace());
        let stamp = PaneStamp {
            origin: NodeAddr(1),
            epoch: 0,
            seq: 0,
        };
        let batch = TupleBatch::default();
        let probe = QpObject::Panes { stamp, batch };
        let arrive = |engines: &mut Engines, overlay: &mut Overlay<QpObject>| {
            let arrival = engines.arrive(&namespace, &probe, Hop::Root, LATER, overlay);
            arrival.taken
        };
        assert!(
            arrive(&mut engines, overlay),
            "the partial namespace is read"
        );

        // The first tick is armed at the window's first close.
        assert_eq!(engines.slots[&key].armed, PANE);
        // Alone, the node is the root.  It heard the probe's sender, so its
        // round holds for half a slide; then the tick emits the closed
        // window, ships nothing and persists, and the next close is armed.
        // A stale incarnation's tick, or one not in flight, stops its
        // chain.
        let (held, hold_end) = fire(&mut engines, LATER, overlay);
        assert!(held.is_none());
        assert_eq!(hold_end, LATER + PANE / 2, "held half a slide at most");
        let (ticked, next) = fire(&mut engines, hold_end, overlay);
        let ticked = ticked.expect("released at the hold's end");
        assert!(ticked.shipment.is_none());
        let counts: Vec<usize> = ticked.emissions.iter().map(|e| e.inserts.len()).collect();
        assert_eq!(counts, [2], "one window, two groups");
        assert_eq!(next, LATER + PANE, "re-armed at the next close");
        assert!(engines.tick(key, 1, next, overlay).is_none());
        assert!(engines.tick(key, 0, LATER, overlay).is_none());
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
            engines.tick(key, 0, next, overlay).is_none(),
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
        for _copy in 0..2 {
            let overlay = &mut ring[root];
            let arrival = at_root.arrive(&namespace, &shipment, Hop::Root, LATER, overlay);
            assert!(arrival.taken && arrival.ask.is_none() && arrival.effects.is_empty());
        }

        // Number 2 arrives where 1 was due: absorbed, and 1 is asked of
        // the leaf, directly.
        let stamp = PaneStamp { seq: 2, ..*stamp };
        let batch = batch.clone();
        let later = QpObject::Panes { stamp, batch };
        let overlay = &mut ring[root];
        let arrival = at_root.arrive(&namespace, &later, Hop::Root, LATER, overlay);
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
        for (at, hop) in [(root, Hop::Root), (relay, Hop::Upcall(None))] {
            let mut engines = engines_for(&plan, &config, &[]);
            for value in &unnumbered {
                let overlay = &mut ring[at];
                let arrival = engines.arrive(&namespace, value, hop, LATER, overlay);
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
        let (mut at_relay, mut at_root) = (Engines::default(), Engines::default());
        for engines in [&mut at_relay, &mut at_root] {
            *engines = engines_for(&tight, &config, &[]);
        }

        // The relay takes the one group its cap holds; the two past it go
        // on toward the root as a shipment of its own.
        let hop = Hop::Upcall(None);
        let overlay = &mut ring[relay];
        let arrival = at_relay.arrive(&namespace, &shipment, hop, LATER, overlay);
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
        let arrival = at_relay.arrive(&namespace, &others, hop, LATER, overlay);
        assert!(!arrival.taken && arrival.effects.is_empty());

        // At the root what its cap refuses goes nowhere.
        let overlay = &mut ring[root];
        let arrival = at_root.arrive(&namespace, &shipment, Hop::Root, LATER, overlay);
        assert!(arrival.taken && arrival.effects.is_empty());
        assert_eq!(groups(&at_root), 1);
    }

    /// Fold a row of each of `keys` into pane `pane` of `engines`' engine.
    fn feed(engines: &mut Engines, pane: u64, keys: &[i64]) {
        let ts = pane * PANE + PANE / 2;
        let row = |k: &i64| {
            let fields = vec![("k", Value::Int(*k)), ("ts", Value::Int(ts as i64))];
            Tuple::new("packets", fields)
        };
        let rows = TupleBatch::new(keys.iter().map(row).collect());
        let engine = engines.engine(EngineKey::Query(QUERY)).expect("opened");
        for chunk in rows.chunks() {
            engine.absorb(chunk, None, ts);
        }
    }

    /// `(pane, key, count)` of every partial row `shipment` carries, sorted.
    fn partial_rows(shipment: &QpObject) -> Vec<(i64, i64, i64)> {
        let QpObject::Panes { batch, .. } = shipment else {
            panic!("a numbered shipment: {shipment:?}");
        };
        let cell = |t: &Tuple, column| t.get(column).and_then(Value::as_i64).expect("an integer");
        let mut rows: Vec<_> = (batch.iter())
            .map(|t| (cell(&t, "_w"), cell(&t, "k"), cell(&t, "count")))
            .collect();
        rows.sort_unstable();
        rows
    }

    /// The shipment a leaf's tick at `now` releases at once.
    fn leaf_ships(engines: &mut Engines, now: SimTime, overlay: &Overlay<QpObject>) -> QpObject {
        let ticked = fire(engines, now, overlay)
            .0
            .expect("a leaf releases at once");
        ticked.shipment.expect("a pane with rows")
    }

    /// `(pane, key, count)` of every partial that a node restarted from
    /// `durable` holds: what its rehydrated engine ships as a leaf once
    /// every pane has closed.
    fn restarted(
        plan: &QueryPlan,
        durable: &DurableStore,
        overlay: &Overlay<QpObject>,
    ) -> Vec<(i64, i64, i64)> {
        let config = PierConfig {
            durable: Some(durable.clone()),
            ..PierConfig::default()
        };
        let mut engines = engines_for(plan, &config, &[]);
        partial_rows(&leaf_ships(&mut engines, 10 * PANE, overlay))
    }

    #[test]
    fn a_durable_engine_persists_half_a_slide_after_each_close_held_or_not() {
        let durable = DurableStore::default();
        let config = PierConfig {
            durable: Some(durable.clone()),
            ..PierConfig::default()
        };
        let plan = plan(CqBudget::default());
        let (mut ring, root) = ring(8, &plan);
        let [relay, child] = [1, 2].map(|i| (root + i) % ring.len());
        let mut engines = engines_for(&plan, &config, &[1, 2]);

        // Round 1 opens unheld: the engine ships pane 0 at its close, and
        // its next tick is the snapshot's, half a slide on.
        let (ticked, next) = fire(&mut engines, PANE, &ring[relay]);
        assert!(ticked.expect("released at once").shipment.is_some());
        assert_eq!(next, PANE + PANE / 2, "the snapshot's instant");
        assert!(durable.keys().is_empty(), "nothing persisted at the close");
        // The snapshot holds the rows absorbed since the close.
        feed(&mut engines, 1, &[3]);
        let (nothing, next) = fire(&mut engines, PANE + PANE / 2, &ring[relay]);
        assert!(nothing.is_none());
        assert_eq!(next, 2 * PANE, "then the next close");
        assert_eq!(restarted(&plan, &durable, &ring[relay]), [(1, 3, 1)]);

        // A child ships pane 0 late: round 2 is held for it, and persists
        // at the hold's end, where it releases.
        let mut at_child = engines_for(&plan, &config, &[5]);
        let shipment = leaf_ships(&mut at_child, PANE, &ring[child]);
        let namespace = plan.window_namespace();
        let (hop, overlay) = (Hop::Upcall(None), &mut ring[relay]);
        let arrival = engines.arrive(&namespace, &shipment, hop, PANE + PANE / 2, overlay);
        assert!(arrival.taken && arrival.released.is_none());
        let (held, hold_end) = fire(&mut engines, 2 * PANE, &ring[relay]);
        assert!(held.is_none());
        assert_eq!(hold_end, 2 * PANE + PANE / 2, "the same instant");
        assert_eq!(restarted(&plan, &durable, &ring[relay]), [(1, 3, 1)]);
        feed(&mut engines, 2, &[4]);
        let (ticked, next) = fire(&mut engines, hold_end, &ring[relay]);
        let shipment = ticked.expect("released at the hold's end").shipment;
        let rows = [(0, 5, 1), (1, 3, 1)];
        assert_eq!(partial_rows(&shipment.expect("panes")), rows);
        assert_eq!(next, 3 * PANE);
        assert_eq!(restarted(&plan, &durable, &ring[relay]), [(2, 4, 1)]);

        // Without durable segments, the tick after a release is armed at
        // the next close.
        let mut soft = engines_for(&plan, &PierConfig::default(), &[1]);
        let (ticked, next) = fire(&mut soft, PANE, &ring[relay]);
        assert!(ticked.expect("released at once").shipment.is_some());
        assert_eq!(next, 2 * PANE);
    }

    #[test]
    fn a_held_relay_ships_once_after_its_children_and_a_silent_one_costs_half_a_slide() {
        let plan = plan(CqBudget::default());
        let config = PierConfig::default();
        let (mut ring, root) = ring(8, &plan);
        let [relay, a, b] = [1, 2, 3].map(|i| (root + i) % ring.len());
        let namespace = plan.window_namespace();
        let mut at_relay = engines_for(&plan, &config, &[1]);
        let mut children = [
            engines_for(&plan, &config, &[1, 2]),
            engines_for(&plan, &config, &[1]),
        ];
        let arrive = |at_relay: &mut Engines, shipment: &QpObject, now, ring: &mut [_]| {
            let hop = Hop::Upcall(None);
            let overlay = &mut ring[relay];
            let arrival = at_relay.arrive(&namespace, shipment, hop, now, overlay);
            assert!(arrival.taken);
            arrival.released.map(|(key, ticked)| {
                assert_eq!(key, EngineKey::Query(QUERY));
                ticked
            })
        };

        // Round 1, pane 0 closing: nothing was heard before, so the relay
        // ships its own pane at once, and its children's land after it.
        let (ticked, next) = fire(&mut at_relay, PANE, &ring[relay]);
        let shipment = ticked.expect("released at once").shipment;
        assert_eq!(partial_rows(&shipment.expect("its pane")), [(0, 1, 1)]);
        assert_eq!(next, 2 * PANE);
        for (child, at) in children.iter_mut().zip([a, b]) {
            let shipment = leaf_ships(child, PANE, &ring[at]);
            assert!(arrive(&mut at_relay, &shipment, PANE + 1, &mut ring).is_none());
        }

        // Round 2: the relay holds for both children...
        feed(&mut at_relay, 1, &[1, 2]);
        feed(&mut children[0], 1, &[2, 3]);
        feed(&mut children[1], 1, &[3]);
        let (held, hold_end) = fire(&mut at_relay, 2 * PANE, &ring[relay]);
        assert!(held.is_none());
        assert_eq!(hold_end, 2 * PANE + PANE / 2, "half a slide at most");
        let first = leaf_ships(&mut children[0], 2 * PANE, &ring[a]);
        assert!(arrive(&mut at_relay, &first, 2 * PANE + 1, &mut ring).is_none());
        let second = leaf_ships(&mut children[1], 2 * PANE, &ring[b]);
        let released = arrive(&mut at_relay, &second, 2 * PANE + 2, &mut ring);
        // ...and the second one's arrival releases it: one shipment, each
        // pane once — pane 0's late partials, merged, riding along, and
        // pane 1 with its own groups and its children's merged.
        let shipment = released.expect("released").shipment.expect("panes");
        let rows = [(0, 1, 2), (0, 2, 1), (1, 1, 1), (1, 2, 2), (1, 3, 2)];
        assert_eq!(partial_rows(&shipment), rows);
        // The hold's own timer, still in flight, only arms the next close.
        let (nothing, next) = fire(&mut at_relay, hold_end, &ring[relay]);
        assert!(nothing.is_none());
        assert_eq!(next, 3 * PANE);

        // Round 3: child b has nothing to ship.  The relay waits for it half
        // a slide, then ships what it has.
        feed(&mut children[0], 2, &[4]);
        let (held, hold_end) = fire(&mut at_relay, 3 * PANE, &ring[relay]);
        assert!(held.is_none());
        assert_eq!(hold_end, 3 * PANE + PANE / 2);
        let only = leaf_ships(&mut children[0], 3 * PANE, &ring[a]);
        assert!(arrive(&mut at_relay, &only, 3 * PANE + 1, &mut ring).is_none());
        let (ticked, next) = fire(&mut at_relay, hold_end, &ring[relay]);
        let shipment = ticked.expect("released at the hold's end").shipment;
        assert_eq!(partial_rows(&shipment.expect("panes")), [(2, 4, 1)]);
        assert_eq!(next, 4 * PANE);

        // Round 4: only child a, heard last round, is waited for.
        feed(&mut children[0], 3, &[5]);
        assert!(fire(&mut at_relay, 4 * PANE, &ring[relay]).0.is_none());
        let only = leaf_ships(&mut children[0], 4 * PANE, &ring[a]);
        let released = arrive(&mut at_relay, &only, 4 * PANE + 1, &mut ring);
        let shipment = released.expect("released").shipment;
        assert_eq!(partial_rows(&shipment.expect("panes")), [(3, 5, 1)]);
    }

    #[test]
    fn a_one_shot_ticks_a_hold_after_its_install_and_never_holds() {
        // `plan`'s count as a one-shot with a hold of one pane, installed a
        // quarter into the pane at a relay and at its child.
        let mut plan = plan(CqBudget::default());
        plan.cq = None;
        plan.opgraphs[0].sink = SinkSpec::HierarchicalAgg {
            group_cols: vec!["k".to_string()],
            aggs: vec![AggFunc::Count],
            hold: PANE,
            final_ops: Vec::new(),
            flat: false,
        };
        let install = PANE / 4;
        let open = |keys: &[i64]| {
            let (_, spec, member) = EngineSpec::unshared(&plan).expect("a one-shot sink");
            let mut engines = Engines::new(&PierConfig::default(), Telemetry::default());
            let key = EngineKey::Query(QUERY);
            let first = engines.join(key, Some((0, spec)), QUERY, member, false, install);
            // A hold after install, not at the pane's close.
            assert_eq!(first, Some(install + PANE));
            feed(&mut engines, 0, keys);
            engines
        };
        let (mut at_relay, mut at_child) = (open(&[1]), open(&[1, 2]));
        let spec = at_relay.holding(QUERY).expect("a member").spec();
        let namespace = spec.namespace.clone();
        let root_id = routing_id(&namespace, &spec.root_key);
        let (mut ring, _) = ring(8, &plan);
        let mut away = (0..ring.len()).filter(|&i| !ring[i].router().is_responsible(root_id));
        let [relay, child] = [(); 2].map(|_| away.next().expect("a node away from the root"));

        // Round 1: both ship their pane at once.
        let (ticked, next) = fire(&mut at_relay, install + PANE, &ring[relay]);
        let own = ticked.expect("released at once").shipment;
        assert_eq!(partial_rows(&own.expect("its pane")), [(0, 1, 1)]);
        assert_eq!(next, install + 2 * PANE);
        let shipment = leaf_ships(&mut at_child, install + PANE, &ring[child]);
        let overlay = &mut ring[relay];
        let hop = Hop::Upcall(None);
        let arrival = at_relay.arrive(&namespace, &shipment, hop, install + PANE + 1, overlay);
        assert!(arrival.taken && arrival.released.is_none());

        // Round 2: the relay heard its child last round, and still ships
        // what it absorbed at once, a hold on.
        let (ticked, next) = fire(&mut at_relay, install + 2 * PANE, &ring[relay]);
        let relayed = ticked.expect("released at once, unheld").shipment;
        assert_eq!(
            partial_rows(&relayed.expect("the child's pane")),
            [(0, 1, 1), (0, 2, 1)]
        );
        assert_eq!(next, install + 3 * PANE);
    }

    /// A tree of engines on a static ring, for the hold property: tree
    /// node 0 is the window root, every other node relays to its parent,
    /// an earlier node.
    struct Tree {
        engines: Vec<Engines>,
        ring: Vec<Overlay<QpObject>>,
        /// Each tree node's overlay in `ring`.
        at: Vec<usize>,
        parent: Vec<Option<usize>>,
        namespace: String,
        /// Per node, the shipments it sent in the current round.
        shipped: Vec<u32>,
        /// Shipments sent and not yet delivered, with their receiver.
        flight: Vec<(usize, QpObject)>,
        /// Per window, how often the root emitted it and its last answer's
        /// `(key, count)` rows.
        answers: BTreeMap<u64, (u32, Vec<(i64, i64)>)>,
    }

    impl Tree {
        fn new(nodes: usize, rng: &mut Rng64) -> Tree {
            let plan = plan(CqBudget::default());
            let (ring, root) = ring(8, &plan);
            let config = PierConfig::default();
            Tree {
                engines: (0..nodes)
                    .map(|_| engines_for(&plan, &config, &[]))
                    .collect(),
                at: (0..nodes).map(|j| (root + j) % ring.len()).collect(),
                parent: (0..nodes).map(|j| (j > 0).then(|| rng.index(j))).collect(),
                ring,
                namespace: plan.window_namespace(),
                shipped: vec![0; nodes],
                flight: Vec::new(),
                answers: BTreeMap::new(),
            }
        }

        /// Node `j`'s tick at `now`; `true` when it released.
        fn fire(&mut self, j: usize, now: SimTime) -> (bool, SimTime) {
            let (ticked, next) = fire(&mut self.engines[j], now, &self.ring[self.at[j]]);
            let released = ticked.map(|ticked| self.release(j, ticked)).is_some();
            (released, next)
        }

        /// Deliver a shipment to node `to` at `now`; `true` when its arrival
        /// released a held round.
        fn deliver(&mut self, to: usize, shipment: &QpObject, now: SimTime) -> bool {
            let hop = if to == 0 {
                Hop::Root
            } else {
                Hop::Upcall(None)
            };
            let overlay = &mut self.ring[self.at[to]];
            let arrival = self.engines[to].arrive(&self.namespace, shipment, hop, now, overlay);
            assert!(arrival.taken && arrival.ask.is_none());
            let released = arrival.released.map(|(_, ticked)| self.release(to, ticked));
            released.is_some()
        }

        /// Node `j` released `ticked`: the root's emissions are answers, a
        /// shipment goes in flight to the parent.
        fn release(&mut self, j: usize, ticked: Ticked) {
            let cell =
                |t: &Tuple, column| t.get(column).and_then(Value::as_i64).expect("an integer");
            for e in ticked.emissions {
                let rows = e.inserts.iter().map(|t| (cell(t, "k"), cell(t, "count")));
                let answer = self.answers.entry(e.window_start / PANE).or_default();
                *answer = (answer.0 + 1, rows.collect());
            }
            if let Some(shipment) = ticked.shipment {
                self.shipped[j] += 1;
                let parent = self.parent[j].expect("the root ships nothing");
                self.flight.push((parent, shipment));
            }
        }
    }

    proptest! {
        /// Over any tree of two to eight nodes, rows at every node every
        /// round, and any order of arrivals, some of them past the hold's
        /// end: every node ships at most once a round and the root's last
        /// answer for each window is exact.  When no arrival is late, no
        /// hold runs out while rows flow, and every window after the first
        /// (whose children's partials land after everyone released at
        /// once) is emitted once.
        #[test]
        fn a_held_round_ships_once_and_the_root_answers_each_window_once(
            seed in any::<u64>(),
            nodes in 2usize..9,
            late in 0u64..3,
        ) {
            let mut rng = Rng64::new(seed);
            let mut tree = Tree::new(nodes, &mut rng);
            let mut truth: BTreeMap<u64, BTreeMap<i64, i64>> = BTreeMap::new();
            let rounds = 8;
            // Then rounds without rows carry what was late to the root: a
            // level a round, as a silent round's holds all run out at once.
            for r in 1..=rounds + nodes as u64 {
                let (close, pane) = (r * PANE, r - 1);
                let hold_end = close + PANE / 2;
                for engines in tree.engines.iter_mut().filter(|_| r <= rounds) {
                    let keys: Vec<i64> = (0..=rng.index(3)).map(|_| rng.index(4) as i64).collect();
                    for k in &keys {
                        *truth.entry(pane).or_default().entry(*k).or_default() += 1;
                    }
                    feed(engines, pane, &keys);
                }
                tree.shipped = vec![0; nodes];
                let mut order: Vec<usize> = (0..nodes).collect();
                for i in (1..nodes).rev() {
                    order.swap(i, rng.index(i + 1));
                }
                for j in order {
                    let (released, next) = tree.fire(j, close);
                    prop_assert_eq!(next, if released { close + PANE } else { hold_end });
                }
                // Deliveries in any order; a late one waits past the hold.
                let mut late_ones = Vec::new();
                while !tree.flight.is_empty() {
                    let pick = rng.index(tree.flight.len());
                    let (to, shipment) = tree.flight.swap_remove(pick);
                    if late > 0 && rng.next_below(4 * late) == 0 {
                        late_ones.push((to, shipment));
                    } else {
                        tree.deliver(to, &shipment, close + 1);
                    }
                }
                // The holds still open run out.
                for j in 0..nodes {
                    let (released, next) = tree.fire(j, hold_end);
                    prop_assert_eq!(next, close + PANE);
                    let rows_flow = r <= rounds;
                    prop_assert!(!released || late > 0 || !rows_flow, "round {} node {}", r, j);
                }
                late_ones.append(&mut tree.flight);
                for (to, shipment) in late_ones {
                    prop_assert!(!tree.deliver(to, &shipment, hold_end + 1), "no hold is open");
                }
                prop_assert!(tree.shipped.iter().all(|&n| n <= 1), "{:?}", tree.shipped);
            }
            for (window, counts) in &truth {
                let answer = tree.answers.get(window).map(|a| a.1.clone());
                let expected: Vec<(i64, i64)> = counts.iter().map(|(k, n)| (*k, *n)).collect();
                prop_assert_eq!(answer, Some(expected), "window {}", window);
                if late == 0 && *window > 0 {
                    prop_assert_eq!(tree.answers[window].0, 1, "window {} emitted once", window);
                }
            }
        }
    }
}
