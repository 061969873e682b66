//! Share groups and the [`MultiQuerySharing`] implementation.
//!
//! A `ShareGroup` is the runtime of one plan fingerprint at one node: the
//! [`PredicateIndex`] over its members' predicates, the single
//! [`SharedWindowState`] their windows accumulate in, and the per-member
//! residue (compiled derivation predicate, proxy address, lease, result
//! schema, finishers).  [`MqoLayer`] is the registry the executor talks to
//! through the [`MultiQuerySharing`] trait: fingerprint → group,
//! query → group, and the namespace routing tables for ingest chunks and
//! relayed window partials.
//!
//! Life of a shared chunk: the executor hands each arriving chunk of a
//! subscribed namespace to the layer once; the predicate index scans every
//! referenced column and produces per-member masks plus their union; rows
//! in the union fold into the group's shared local store (group key,
//! event time and aggregate inputs resolved once per schema).  At each
//! window tick the group ships **one** partial stream toward its window
//! root (`g{fp:016x}.windows` / `g{fp:016x}.root` — identical on every
//! node, so partials combine across the overlay with no coordination); the
//! root derives each member's rows from the shared per-group accumulators
//! by evaluating the member's predicate against the group *values* (sound
//! because eligibility required the predicate to reference GROUP BY
//! columns only), applies the member's finishers, and routes the member's
//! snapshot/delta stream to the member's own proxy.

use crate::fingerprint::{normalize, ShareCandidate};
use crate::index::PredicateIndex;
use pier_core::plan::QueryPlan;
use pier_core::sharing::{
    GroupRoute, InstallOutcome, MultiQuerySharing, SharedEmission, SharingStats, TickOutput,
    UninstallOutcome,
};
use pier_core::tuple::{
    ColumnChunk, ColumnRef, ColumnResolver, Schema, SchemaRegistry, Tuple, TupleBatch,
};
use pier_core::{
    finish_rows, AggFunc, AggState, CompiledExpr, GroupAgg, OperatorSpec, PartialCodec, Value,
    WindowSpec,
};
use pier_cq::{Delta, Lease, SharedWindowState};
use pier_runtime::{NodeAddr, SimTime};
use pier_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::Arc;

/// Construct the sharing layer — the value to plug into
/// [`PierConfig::sharing`](pier_core::PierConfig).
pub fn layer() -> Box<dyn MultiQuerySharing + Send> {
    Box::new(MqoLayer::default())
}

/// Per-member residue within a share group.
#[derive(Debug)]
struct MemberState {
    /// The member's predicate compiled against the group-values schema:
    /// derivation evaluates it per *group*, not per row.
    derive: CompiledExpr,
    proxy: NodeAddr,
    lease: Lease,
    /// `q{id}.win` — identical to the shape independent execution emits,
    /// so clients cannot tell shared from independent results.
    result_schema: Arc<Schema>,
    final_ops: Vec<OperatorSpec>,
}

/// The runtime of one share group at one node.
#[derive(Debug)]
struct ShareGroup {
    fingerprint: u64,
    /// This incarnation's epoch (see
    /// [`GroupRoute::epoch`](pier_core::sharing::GroupRoute::epoch)).
    epoch: u64,
    namespace: String,
    window: WindowSpec,
    index: PredicateIndex,
    members: HashMap<u64, MemberState>,
    state: SharedWindowState<GroupAgg, Tuple>,
    /// Encodes drained windows as `g{fp:016x}.wp` chunks and merges
    /// relayed ones into the shared root store.
    codec: PartialCodec,
    /// `g{fp:016x}.gv` — the synthetic schema derivation predicates compile
    /// against (columns = the GROUP BY columns).
    gv_schema: Arc<Schema>,
    group_resolver: ColumnResolver,
    time_ref: Option<ColumnRef>,
    agg_inputs: Vec<Option<ColumnRef>>,
}

fn window_namespace(fingerprint: u64) -> String {
    format!("g{fingerprint:016x}.windows")
}

fn root_key(fingerprint: u64) -> String {
    format!("g{fingerprint:016x}.root")
}

impl ShareGroup {
    fn new(c: &ShareCandidate, epoch: u64) -> ShareGroup {
        let tag = format!("g{:016x}", c.fingerprint);
        let codec = PartialCodec::new(format!("{tag}.wp"), c.group_cols.clone(), c.aggs.clone());
        let gv_schema =
            SchemaRegistry::global().intern_owned(format!("{tag}.gv"), c.group_cols.clone());
        ShareGroup {
            fingerprint: c.fingerprint,
            epoch,
            namespace: c.namespace.clone(),
            window: c.window,
            index: PredicateIndex::new(),
            members: HashMap::new(),
            state: SharedWindowState::new(c.window, c.budget),
            codec,
            gv_schema,
            group_resolver: ColumnResolver::new(c.group_cols.clone()),
            time_ref: c.time_col.clone().map(ColumnRef::new),
            agg_inputs: c
                .aggs
                .iter()
                .map(|a| a.input_column().map(ColumnRef::new))
                .collect(),
        }
    }

    fn add_member(&mut self, query_id: u64, c: &ShareCandidate, proxy: NodeAddr, now: SimTime) {
        let result_schema = {
            let mut columns = vec!["window_start".to_string(), "window_end".to_string()];
            columns.extend(self.group_resolver.columns().iter().cloned());
            columns.extend(self.codec.aggs().iter().map(AggFunc::output_column));
            SchemaRegistry::global().intern_owned(format!("q{query_id}.win"), columns)
        };
        self.index.insert(query_id, c.predicate.clone());
        self.state.add_member(query_id, c.delta);
        self.members.insert(
            query_id,
            MemberState {
                derive: c.predicate.compile(&self.gv_schema),
                proxy,
                lease: Lease::granted(now, c.lease),
                result_schema,
                final_ops: c.final_ops.clone(),
            },
        );
    }

    /// Absorb one ingest chunk: one predicate-index scan, union rows folded
    /// into the shared store.  Returns `(rows scanned, rows selected)`.
    fn absorb_chunk(&mut self, chunk: &ColumnChunk, now: SimTime) -> (u64, u64) {
        let rows = chunk.rows() as u64;
        let schema = chunk.schema();
        let Some(group_idxs) = self.group_resolver.indices_for(schema) else {
            return (rows, 0); // malformed chunk for this group: discard
        };
        self.index.eval_chunk(chunk);
        let selected = self.index.union().count() as u64;
        if selected == 0 {
            return (rows, 0);
        }
        let time_idx = self.time_ref.as_mut().and_then(|c| c.index_for(schema));
        let agg_idxs: Vec<Option<usize>> = self
            .agg_inputs
            .iter_mut()
            .map(|input| input.as_mut().and_then(|c| c.index_for(schema)))
            .collect();
        let aggs = self.codec.aggs();
        let union = self.index.union();
        let store = self.state.local_mut();
        let mut key = String::new();
        for r in 0..chunk.rows() {
            if !union.get(r) {
                continue;
            }
            let event_time = time_idx
                .and_then(|i| chunk.col(i).value_ref(r).as_i64())
                .map_or(now, |v| v.max(0) as u64);
            key.clear();
            chunk.write_key_at(group_idxs, r, &mut key);
            store.push(
                event_time,
                &key,
                None,
                || GroupAgg {
                    vals: group_idxs.iter().map(|&i| chunk.col(i).value(r)).collect(),
                    states: aggs.iter().map(AggFunc::init).collect(),
                },
                |acc| {
                    for ((agg, idx), state) in aggs.iter().zip(&agg_idxs).zip(acc.states.iter_mut())
                    {
                        state.update_ref(agg, idx.map(|i| chunk.col(i).value_ref(r)));
                    }
                },
            );
        }
        (rows, selected)
    }

    /// One window tick: at the root, roll local windows up and derive every
    /// member's emissions; elsewhere, drain due windows into the group's
    /// single partial stream.
    fn tick(&mut self, now: SimTime, is_root: bool) -> TickOutput {
        let mut out = TickOutput::default();
        if is_root {
            self.state.roll_up_local(now);
            let members = &self.members;
            let window = self.window;
            let emissions = self.state.emit_due(now, |member_id, wid, groups| {
                let Some(m) = members.get(&member_id) else {
                    return Vec::new();
                };
                let (ws, we) = window.bounds(wid);
                let mut rows: Vec<Tuple> = groups
                    .iter()
                    .filter(|(_, acc)| m.derive.matches(&acc.vals))
                    .map(|(_, acc)| {
                        let mut values = Vec::with_capacity(m.result_schema.arity());
                        values.push(Value::Int(ws as i64));
                        values.push(Value::Int(we as i64));
                        values.extend(acc.vals.iter().cloned());
                        values.extend(acc.states.iter().map(AggState::finish));
                        Tuple::from_schema(Arc::clone(&m.result_schema), values)
                    })
                    .collect();
                // Same deterministic order as the independent path's
                // window_tick; cached keys render each row once instead of
                // twice per comparison.
                rows.sort_by_cached_key(std::string::ToString::to_string);
                if !m.final_ops.is_empty() {
                    rows = finish_rows(&m.final_ops, &TupleBatch::new(rows));
                }
                rows
            });
            for e in emissions {
                let Some(m) = self.members.get(&e.member) else {
                    continue;
                };
                let (window_start, window_end) = self.window.bounds(e.window);
                let mut retracts = Vec::new();
                let mut inserts = Vec::new();
                for d in e.deltas {
                    match d {
                        Delta::Retract(t) => retracts.push(t),
                        Delta::Insert(t) => inserts.push(t),
                    }
                }
                out.emissions.push(SharedEmission {
                    query_id: e.member,
                    proxy: m.proxy,
                    window_start,
                    window_end,
                    retracts,
                    inserts,
                });
            }
        } else {
            out.partials = self.codec.encode(&self.state.drain_closed(now));
        }
        out
    }
}

/// The share-group registry implementing [`MultiQuerySharing`].
#[derive(Debug, Default)]
pub struct MqoLayer {
    groups: HashMap<u64, ShareGroup>,
    by_query: HashMap<u64, u64>,
    /// `g{fp:016x}.windows` → fingerprint.
    window_ns: HashMap<String, u64>,
    /// Base table namespace → fingerprints ingesting it.
    base_ns: HashMap<String, Vec<u64>>,
    /// Monotone incarnation counter: every created group gets a fresh
    /// epoch, so a tick chain armed for a retired group with the same
    /// fingerprint can recognise it is stale.
    next_epoch: u64,
    chunks_absorbed: u64,
    rows_absorbed: u64,
    rows_selected: u64,
    /// Node telemetry handle (inert unless the executor attaches one).
    tel: Telemetry,
}

impl MqoLayer {
    /// The share group a member query belongs to (its plan fingerprint),
    /// if installed here.
    pub fn group_of(&self, query_id: u64) -> Option<u64> {
        self.by_query.get(&query_id).copied()
    }

    /// Sync membership gauges (and, on join, the joined group's size) into
    /// the telemetry hub.
    fn sync_membership(&self, joined: Option<u64>) {
        if !self.tel.is_enabled() {
            return;
        }
        self.tel.gauge("mqo.groups", self.groups.len() as f64);
        self.tel.gauge("mqo.members", self.by_query.len() as f64);
        if let Some(size) = joined
            .and_then(|fp| self.groups.get(&fp))
            .map(|g| g.members.len())
        {
            self.tel.observe_count("mqo.group_size", size as f64);
        }
    }
}

impl MultiQuerySharing for MqoLayer {
    fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    fn try_install(&mut self, plan: &QueryPlan, now: SimTime) -> InstallOutcome {
        let Some(candidate) = normalize(plan) else {
            return InstallOutcome::NotShareable;
        };
        let query_id = plan.query_id;
        if self.by_query.contains_key(&query_id) {
            // Defensive: the executor renews before offering, but a re-offer
            // of a live member is just a renewal.
            self.renew(query_id, now);
            let group = self.by_query[&query_id];
            let epoch = self.groups.get(&group).map_or(0, |g| g.epoch);
            return InstallOutcome::Member {
                group,
                new_group: false,
                epoch,
                slide: candidate.window.slide,
                lease: candidate.lease,
            };
        }
        let fingerprint = candidate.fingerprint;
        let new_group = !self.groups.contains_key(&fingerprint);
        if new_group {
            self.next_epoch += 1;
        }
        let next_epoch = self.next_epoch;
        let group = self
            .groups
            .entry(fingerprint)
            .or_insert_with(|| ShareGroup::new(&candidate, next_epoch));
        group.add_member(query_id, &candidate, plan.proxy, now);
        let epoch = group.epoch;
        if new_group {
            self.window_ns
                .insert(window_namespace(fingerprint), fingerprint);
            self.base_ns
                .entry(candidate.namespace.clone())
                .or_default()
                .push(fingerprint);
        }
        self.by_query.insert(query_id, fingerprint);
        self.sync_membership(Some(fingerprint));
        InstallOutcome::Member {
            group: fingerprint,
            new_group,
            epoch,
            slide: candidate.window.slide,
            lease: candidate.lease,
        }
    }

    fn renew(&mut self, query_id: u64, now: SimTime) -> bool {
        let Some(fp) = self.by_query.get(&query_id) else {
            return false;
        };
        let Some(member) = self
            .groups
            .get_mut(fp)
            .and_then(|g| g.members.get_mut(&query_id))
        else {
            return false;
        };
        member.lease.renew(now);
        true
    }

    fn uninstall(&mut self, query_id: u64) -> UninstallOutcome {
        let Some(fp) = self.by_query.remove(&query_id) else {
            return UninstallOutcome::not_member();
        };
        let Some(group) = self.groups.get_mut(&fp) else {
            return UninstallOutcome {
                was_member: true,
                retired_group: None,
            };
        };
        group.index.remove(query_id);
        group.state.remove_member(query_id);
        group.members.remove(&query_id);
        if group.members.is_empty() {
            let namespace = group.namespace.clone();
            self.groups.remove(&fp);
            self.window_ns.retain(|_, g| *g != fp);
            if let Some(fps) = self.base_ns.get_mut(&namespace) {
                fps.retain(|g| *g != fp);
                if fps.is_empty() {
                    self.base_ns.remove(&namespace);
                }
            }
            self.sync_membership(None);
            UninstallOutcome {
                was_member: true,
                retired_group: Some(fp),
            }
        } else {
            self.sync_membership(None);
            UninstallOutcome {
                was_member: true,
                retired_group: None,
            }
        }
    }

    fn lease_expires_at(&self, query_id: u64) -> Option<SimTime> {
        let fp = self.by_query.get(&query_id)?;
        self.groups
            .get(fp)
            .and_then(|g| g.members.get(&query_id))
            .map(|m| m.lease.expires_at)
    }

    fn wants_namespace(&self, namespace: &str) -> bool {
        self.base_ns.contains_key(namespace)
    }

    fn absorb_chunk(&mut self, namespace: &str, chunk: &ColumnChunk, now: SimTime) {
        let Some(fps) = self.base_ns.get(namespace) else {
            return;
        };
        let fanout = fps.len();
        self.chunks_absorbed += 1;
        let mut scanned_total = 0u64;
        let mut selected_total = 0u64;
        for fp in fps {
            if let Some(group) = self.groups.get_mut(fp) {
                let (scanned, selected) = group.absorb_chunk(chunk, now);
                self.rows_absorbed += scanned;
                self.rows_selected += selected;
                scanned_total += scanned;
                selected_total += selected;
            }
        }
        if self.tel.is_enabled() {
            self.tel.inc("mqo.chunks_absorbed");
            self.tel.observe_count("mqo.index_fanout", fanout as f64);
            self.tel.add("mqo.rows_scanned", scanned_total);
            self.tel.add("mqo.rows_selected", selected_total);
        }
    }

    fn absorb_window_partials(
        &mut self,
        namespace: &str,
        chunk: &ColumnChunk,
    ) -> Option<(u64, Vec<u32>)> {
        let fp = *self.window_ns.get(namespace)?;
        let group = self.groups.get_mut(&fp)?;
        Some((fp, group.codec.absorb(chunk, group.state.root_mut())))
    }

    fn group_route(&self, group: u64) -> Option<GroupRoute> {
        self.groups.get(&group).map(|g| GroupRoute {
            namespace: window_namespace(g.fingerprint),
            root_key: root_key(g.fingerprint),
            slide: g.window.slide,
            epoch: g.epoch,
        })
    }

    fn member_ids(&self, group: u64) -> Vec<u64> {
        let Some(g) = self.groups.get(&group) else {
            return Vec::new();
        };
        let mut ids: Vec<u64> = g.members.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn tick(&mut self, group: u64, now: SimTime, is_root: bool) -> TickOutput {
        match self.groups.get_mut(&group) {
            Some(g) => g.tick(now, is_root),
            None => TickOutput::default(),
        }
    }

    fn stats(&self) -> SharingStats {
        SharingStats {
            groups: self.groups.len(),
            members: self.by_query.len(),
            open_windows: self.groups.values().map(|g| g.state.open_windows()).sum(),
            state_groups: self.groups.values().map(|g| g.state.total_groups()).sum(),
            chunks_absorbed: self.chunks_absorbed,
            rows_absorbed: self.rows_absorbed,
            rows_selected: self.rows_selected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_core::sqlish;
    use pier_core::{TupleBatch, Value};

    fn tenant_plan(query_id: u64, src: &str) -> QueryPlan {
        let mut plan = sqlish::compile(
            &format!(
                "SELECT src, COUNT(*), SUM(len) FROM packets WHERE src = '{src}' \
                 GROUP BY src WINDOW 2s SLIDE 1s"
            ),
            NodeAddr(1),
            60_000_000,
        )
        .expect("tenant query compiles");
        plan.query_id = query_id;
        plan
    }

    fn packets(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    "packets",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{}", i % 8).into())),
                        ("len", Value::Int(100 + i)),
                        ("ts", Value::Int(i * 10_000)),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn constant_varied_tenants_share_one_group_and_get_their_own_answers() {
        let mut layer = MqoLayer::default();
        for (qid, src) in [(1u64, "10.0.0.1"), (2, "10.0.0.2"), (3, "10.0.0.3")] {
            let out = layer.try_install(&tenant_plan(qid, src), 0);
            match out {
                InstallOutcome::Member { new_group, .. } => {
                    assert_eq!(
                        new_group,
                        qid == 1,
                        "only the first member creates the group"
                    );
                }
                other => panic!("expected membership, got {other:?}"),
            }
        }
        let stats = layer.stats();
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.members, 3);
        // Absorb a stream; every chunk is scanned once for all members.
        let batch = TupleBatch::new(packets(400));
        for chunk in batch.chunks() {
            layer.absorb_chunk("packets", chunk, 0);
        }
        assert!(layer.stats().rows_absorbed >= 400);
        // Tick as root far enough in the future to close every window.
        let group = *layer.by_query.get(&1).unwrap();
        let out = layer.tick(group, 60_000_000, true);
        assert!(out.partials.is_none(), "the root ships no partials");
        // Each member sees exactly its own source's counts, per window,
        // matching ground truth computed with the same window arithmetic.
        let spec = pier_cq::WindowSpec::sliding(2_000_000, 1_000_000);
        for qid in 1u64..=3 {
            let mine: Vec<&SharedEmission> =
                out.emissions.iter().filter(|e| e.query_id == qid).collect();
            assert!(!mine.is_empty(), "member {qid} must receive emissions");
            let src = format!("10.0.0.{qid}");
            let mut total = 0i64;
            for e in mine {
                for row in &e.inserts {
                    assert_eq!(
                        row.get("src").and_then(Value::as_str),
                        Some(src.as_str()),
                        "member {qid} must only see its own group"
                    );
                    assert_eq!(row.table(), format!("q{qid}.win"));
                    total += row.get("count").and_then(Value::as_i64).unwrap_or(0);
                }
            }
            let expected: i64 = packets(400)
                .iter()
                .filter(|t| t.get("src").and_then(Value::as_str) == Some(src.as_str()))
                .map(|t| {
                    let ts = t.get("ts").and_then(Value::as_i64).unwrap() as u64;
                    spec.windows_containing(ts).count() as i64
                })
                .sum();
            assert_eq!(total, expected, "member {qid} count across windows");
        }
        // Rows no member selects never enter the shared store: only the
        // three watched sources hold state.
        assert!(layer.stats().rows_selected < layer.stats().rows_absorbed);
    }

    #[test]
    fn non_root_ticks_ship_one_partial_stream_that_roots_can_decode() {
        let mut relay = MqoLayer::default();
        let mut root = MqoLayer::default();
        for l in [&mut relay, &mut root] {
            l.try_install(&tenant_plan(1, "10.0.0.1"), 0);
            l.try_install(&tenant_plan(2, "10.0.0.2"), 0);
        }
        let batch = TupleBatch::new(packets(200));
        for chunk in batch.chunks() {
            relay.absorb_chunk("packets", chunk, 0);
        }
        let group = *relay.by_query.get(&1).unwrap();
        let shipped = relay.tick(group, 60_000_000, false);
        let partials = shipped
            .partials
            .expect("non-root ticks ship closed-window partials");
        assert!(shipped.emissions.is_empty());
        let route = relay.group_route(group).expect("group is live");
        // The root absorbs the relayed partials and derives per-member
        // results from them.
        let (g, refused) = root
            .absorb_window_partials(&route.namespace, &partials)
            .expect("group namespace");
        assert_eq!(g, group);
        assert!(refused.is_empty());
        let out = root.tick(group, 120_000_000, true);
        assert!(out.emissions.iter().any(|e| e.query_id == 1));
        assert!(out.emissions.iter().any(|e| e.query_id == 2));
        // Unknown namespaces are not the layer's.
        assert!(root.absorb_window_partials("packets", &partials).is_none());
    }

    #[test]
    fn refcounted_teardown_leaves_no_groups_behind() {
        let mut layer = MqoLayer::default();
        for qid in 1u64..=4 {
            layer.try_install(&tenant_plan(qid, &format!("10.0.0.{qid}")), 0);
        }
        assert_eq!(layer.stats().groups, 1);
        assert!(layer.wants_namespace("packets"));
        for qid in 1u64..=3 {
            let out = layer.uninstall(qid);
            assert!(out.was_member);
            assert!(out.retired_group.is_none(), "group still has members");
        }
        assert_eq!(layer.stats().members, 1);
        let last = layer.uninstall(4);
        assert!(last.was_member);
        assert!(
            last.retired_group.is_some(),
            "last member retires the group"
        );
        assert_eq!(layer.stats().groups, 0);
        assert_eq!(layer.stats().members, 0);
        assert!(!layer.wants_namespace("packets"));
        assert!(layer.group_route(last.retired_group.unwrap()).is_none());
        assert!(
            !layer.uninstall(4).was_member,
            "double uninstall is a no-op"
        );
    }

    #[test]
    fn recreated_groups_get_a_fresh_epoch() {
        // A group retired and re-formed under the same fingerprint must be
        // distinguishable, so a stale tick chain armed for the first
        // incarnation stops instead of double-driving the second.
        let mut layer = MqoLayer::default();
        let first = match layer.try_install(&tenant_plan(1, "10.0.0.1"), 0) {
            InstallOutcome::Member {
                group,
                new_group,
                epoch,
                ..
            } => {
                assert!(new_group);
                (group, epoch)
            }
            other => panic!("expected membership, got {other:?}"),
        };
        assert_eq!(layer.group_route(first.0).unwrap().epoch, first.1);
        assert!(layer.uninstall(1).retired_group.is_some());
        let second = match layer.try_install(&tenant_plan(2, "10.0.0.2"), 5) {
            InstallOutcome::Member {
                group,
                new_group,
                epoch,
                ..
            } => {
                assert!(new_group, "re-creation is a new incarnation");
                (group, epoch)
            }
            other => panic!("expected membership, got {other:?}"),
        };
        assert_eq!(first.0, second.0, "same fingerprint");
        assert_ne!(first.1, second.1, "fresh epoch per incarnation");
        assert_eq!(layer.group_route(second.0).unwrap().epoch, second.1);
        // A member joining the live incarnation reports the same epoch and
        // does not start a new chain.
        match layer.try_install(&tenant_plan(3, "10.0.0.3"), 6) {
            InstallOutcome::Member {
                new_group, epoch, ..
            } => {
                assert!(!new_group);
                assert_eq!(epoch, second.1);
            }
            other => panic!("expected membership, got {other:?}"),
        }
    }

    #[test]
    fn leases_renew_and_expire_per_member() {
        let mut layer = MqoLayer::default();
        layer.try_install(&tenant_plan(1, "10.0.0.1"), 0);
        let initial = layer.lease_expires_at(1).expect("member has a lease");
        assert!(layer.renew(1, initial));
        assert!(layer.lease_expires_at(1).unwrap() > initial);
        assert!(!layer.renew(99, 0), "unknown queries do not renew");
        assert!(layer.lease_expires_at(99).is_none());
    }
}
