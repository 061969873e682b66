//! Share groups and the [`MultiQuerySharing`] implementation.
//!
//! What only this crate knows about a share group is *who is in it and
//! which rows they want*: a `ShareGroup` is the [`PredicateIndex`] over its
//! members' predicates plus the group's incarnation epoch.  The group's
//! window state, partial stream, per-member derivation, leases and durable
//! segments are a [`pier_core::WindowEngine`] owned by the executor — the
//! same engine an unshared query runs in — which [`MqoLayer`] describes
//! ([`EngineSpec`], [`MemberSpec`]) when a plan joins.
//!
//! Life of a shared chunk: the executor hands each arriving chunk of a
//! subscribed namespace to the layer once ([`MultiQuerySharing::select`]);
//! the predicate index scans every referenced column and produces
//! per-member masks plus their union; the executor's engine folds the
//! union's rows into the group's one local store.  From there on a group is
//! an engine like any other (`ARCHITECTURE.md`, "Life of a closed window"):
//! **one** partial stream toward `g{fp:016x}.windows` / `g{fp:016x}.root`,
//! and at the root each member's rows derived from the shared per-group
//! accumulators by evaluating the member's predicate against the group
//! *values* (sound because eligibility required the predicate to reference
//! GROUP BY columns only).

use crate::fingerprint::{normalize, ShareCandidate};
use crate::index::PredicateIndex;
use pier_core::plan::QueryPlan;
use pier_core::sharing::{
    InstallOutcome, MemberInstall, Membership, MultiQuerySharing, SharingStats, UninstallOutcome,
};
use pier_core::tuple::ColumnChunk;
use pier_core::{EngineNames, EngineSpec, Expr, MemberSpec, Value};
use pier_telemetry::Telemetry;
use std::collections::HashMap;

/// Construct the sharing layer — the value to plug into
/// [`PierConfig::sharing`](pier_core::PierConfig).
pub fn layer() -> Box<dyn MultiQuerySharing + Send> {
    Box::new(MqoLayer::default())
}

/// The telemetry vocabulary of a share group's engine.
const GROUP_NAMES: EngineNames = EngineNames {
    flushes: "mqo.share_flushes",
    flush_partials: "mqo.share_flush_partials",
    flush_span: "share.flush",
    shared: true,
};

/// What the layer keeps per share group at one node.
#[derive(Debug)]
struct ShareGroup {
    /// This incarnation's epoch (see
    /// [`Membership::epoch`](pier_core::sharing::Membership::epoch)).
    epoch: u64,
    /// Base table the group ingests.
    namespace: String,
    /// The members' predicates; its member set *is* the membership.
    index: PredicateIndex,
}

/// The engine every member of `c`'s group shares — a function of the
/// group-level shape only, so every node derives the same.
fn engine_spec(c: &ShareCandidate) -> EngineSpec {
    let tag = format!("g{:016x}", c.fingerprint);
    EngineSpec {
        namespace: format!("{tag}.windows"),
        root_key: format!("{tag}.root"),
        tag,
        window: c.window,
        budget: c.budget,
        group_cols: c.group_cols.clone(),
        aggs: c.aggs.clone(),
        time_col: c.time_col.clone(),
        min_lifetime: 0,
        names: GROUP_NAMES,
        emit_once: false,
        flat: false,
    }
}

/// The member-level residue of `c`, normalized from `plan`: what a member
/// of the group runs that its fellow members may not.
fn member_spec(c: ShareCandidate, plan: &QueryPlan) -> MemberSpec {
    MemberSpec {
        derive: Some(c.predicate),
        proxy: plan.proxy,
        lease: c.lease,
        delta: c.delta,
        final_ops: c.final_ops,
    }
}

/// The share-group registry implementing [`MultiQuerySharing`].
#[derive(Debug, Default)]
pub struct MqoLayer {
    groups: HashMap<u64, ShareGroup>,
    by_query: HashMap<u64, u64>,
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
            .map(|g| g.index.len())
        {
            self.tel.observe_count("mqo.group_size", size as f64);
        }
    }
}

impl MultiQuerySharing for MqoLayer {
    fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    fn try_install(&mut self, plan: &QueryPlan) -> InstallOutcome {
        let Some(candidate) = normalize(plan) else {
            return InstallOutcome::NotShareable;
        };
        let fingerprint = candidate.fingerprint;
        let mut engine = None;
        if !self.groups.contains_key(&fingerprint) {
            self.next_epoch += 1;
            let group = ShareGroup {
                epoch: self.next_epoch,
                namespace: candidate.namespace.clone(),
                index: PredicateIndex::new(),
            };
            self.groups.insert(fingerprint, group);
            self.base_ns
                .entry(candidate.namespace.clone())
                .or_default()
                .push(fingerprint);
            engine = Some(engine_spec(&candidate));
        }
        let member = member_spec(candidate, plan);
        let joined = self.join(fingerprint, plan.query_id, member);
        let mut membership = joined.expect("the group is live: opened above");
        membership.engine = engine;
        InstallOutcome::Member(Box::new(membership))
    }

    fn member_form(&self, plan: &QueryPlan) -> Option<MemberInstall> {
        let candidate = normalize(plan)?;
        self.groups
            .contains_key(&candidate.fingerprint)
            .then(|| MemberInstall {
                group: candidate.fingerprint,
                query_id: plan.query_id,
                timeout: plan.timeout,
                member: member_spec(candidate, plan),
            })
    }

    fn join(&mut self, group: u64, query_id: u64, member: MemberSpec) -> Option<Membership> {
        let share = self.groups.get_mut(&group)?;
        let all = Expr::Const(Value::Bool(true));
        let predicate = member.derive.clone().unwrap_or(all);
        // (A re-offer of a live member keeps the predicate it has.)
        share.index.insert(query_id, predicate);
        let epoch = share.epoch;
        self.by_query.insert(query_id, group);
        self.sync_membership(Some(group));
        Some(Membership {
            group,
            epoch,
            engine: None,
            member,
        })
    }

    fn uninstall(&mut self, query_id: u64) -> UninstallOutcome {
        let Some(fp) = self.by_query.remove(&query_id) else {
            return UninstallOutcome::default();
        };
        let mut retired_group = None;
        if let Some(group) = self.groups.get_mut(&fp) {
            group.index.remove(query_id);
            if group.index.is_empty() {
                let namespace = std::mem::take(&mut group.namespace);
                self.groups.remove(&fp);
                if let Some(fps) = self.base_ns.get_mut(&namespace) {
                    fps.retain(|g| *g != fp);
                    if fps.is_empty() {
                        self.base_ns.remove(&namespace);
                    }
                }
                retired_group = Some(fp);
            }
        }
        self.sync_membership(None);
        UninstallOutcome {
            was_member: true,
            retired_group,
        }
    }

    fn wants_namespace(&self, namespace: &str) -> bool {
        self.base_ns.contains_key(namespace)
    }

    fn select(
        &mut self,
        namespace: &str,
        chunk: &ColumnChunk,
        absorb: &mut dyn FnMut(u64, &[u64]),
    ) {
        let Some(fps) = self.base_ns.get(namespace) else {
            return;
        };
        let fanout = fps.len();
        self.chunks_absorbed += 1;
        let scanned = chunk.rows() as u64 * fanout as u64;
        let mut selected = 0u64;
        for fp in fps {
            if let Some(group) = self.groups.get_mut(fp) {
                group.index.eval_chunk(chunk);
                let union = group.index.union();
                let rows = union.count() as u64;
                if rows > 0 {
                    absorb(*fp, union.words());
                    selected += rows;
                }
            }
        }
        self.rows_absorbed += scanned;
        self.rows_selected += selected;
        if self.tel.is_enabled() {
            self.tel.inc("mqo.chunks_absorbed");
            self.tel.observe_count("mqo.index_fanout", fanout as f64);
            self.tel.add("mqo.rows_scanned", scanned);
            self.tel.add("mqo.rows_selected", selected);
        }
    }

    fn stats(&self) -> SharingStats {
        SharingStats {
            groups: self.groups.len(),
            members: self.by_query.len(),
            chunks_absorbed: self.chunks_absorbed,
            rows_absorbed: self.rows_absorbed,
            rows_selected: self.rows_selected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_core::{sqlish, Tuple, TupleBatch, WindowEngine};
    use pier_runtime::NodeAddr;

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

    fn membership(outcome: InstallOutcome) -> Membership {
        match outcome {
            InstallOutcome::Member(m) => *m,
            other => panic!("expected membership, got {other:?}"),
        }
    }

    /// The layer plus the engines it describes, wired as the executor wires
    /// them: one engine per group, fed under the layer's union mask.
    #[derive(Default)]
    struct Node {
        layer: MqoLayer,
        engines: HashMap<u64, WindowEngine>,
    }

    impl Node {
        fn install(&mut self, plan: &QueryPlan) -> Membership {
            let m = membership(self.layer.try_install(plan));
            if let Some(spec) = m.engine.clone() {
                let stale = self.engines.insert(m.group, WindowEngine::new(spec));
                assert!(stale.is_none(), "only a new group hands out an engine");
            }
            let engine = self
                .engines
                .get_mut(&m.group)
                .expect("opened by its first member");
            engine.add_member(plan.query_id, m.member.clone(), false, 0);
            m
        }

        fn ingest(&mut self, rows: Vec<Tuple>) {
            let engines = &mut self.engines;
            for chunk in TupleBatch::new(rows).chunks() {
                self.layer.select("packets", chunk, &mut |group, selected| {
                    let engine = engines
                        .get_mut(&group)
                        .expect("selected group has an engine");
                    engine.absorb(chunk, Some(selected), 0);
                });
            }
        }
    }

    #[test]
    fn constant_varied_tenants_share_one_group_and_get_their_own_answers() {
        let mut node = Node::default();
        let mut first = None;
        for (qid, src) in [(1u64, "10.0.0.1"), (2, "10.0.0.2"), (3, "10.0.0.3")] {
            let m = node.install(&tenant_plan(qid, src));
            assert_eq!(
                m.engine.is_some(),
                qid == 1,
                "only the first member creates the group"
            );
            let incarnation = first.get_or_insert((m.group, m.epoch));
            assert_eq!((m.group, m.epoch), *incarnation, "one incarnation");
        }
        let stats = node.layer.stats();
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.members, 3);
        // Absorb a stream; every chunk is scanned once for all members.
        node.ingest(packets(400));
        assert!(node.layer.stats().rows_absorbed >= 400);
        // Tick as root far enough in the future to close every window.
        let group = node.layer.by_query[&1];
        let out = node.engines.get_mut(&group).unwrap().tick(60_000_000, true);
        assert!(out.partials.is_none(), "the root ships no partials");
        // Each member sees exactly its own source's counts, per window,
        // matching ground truth computed with the same window arithmetic.
        let spec = pier_cq::WindowSpec::sliding(2_000_000, 1_000_000);
        let mut folded = 0u64;
        for qid in 1u64..=3 {
            let mine: Vec<_> = out.emissions.iter().filter(|e| e.query_id == qid).collect();
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
                    // On the group's schema; the proxy relabels it `q{qid}.win`.
                    assert_eq!(row.table(), format!("g{group:016x}.win"));
                    total += row.get("count").and_then(Value::as_i64).unwrap_or(0);
                }
            }
            let rows = packets(400);
            let mine = rows
                .iter()
                .filter(|t| t.get("src").and_then(Value::as_str) == Some(src.as_str()));
            let in_windows = mine.clone().map(|t| {
                let ts = t.get("ts").and_then(Value::as_i64).unwrap() as u64;
                spec.windows_containing(ts).count() as i64
            });
            assert_eq!(total, in_windows.sum(), "member {qid} count across windows");
            folded += mine.count() as u64;
        }
        // Rows no member selects never enter the shared store: only the
        // three watched sources hold state, and each of their rows folds
        // into one pane, however many windows cover it.
        assert!(node.layer.stats().rows_selected < node.layer.stats().rows_absorbed);
        let diag = node.engines[&group].diagnostics(1).expect("member");
        assert_eq!(diag.local.accepted, folded);
    }

    #[test]
    fn non_root_ticks_ship_one_partial_stream_that_roots_can_decode() {
        let mut relay = Node::default();
        let mut root = Node::default();
        for n in [&mut relay, &mut root] {
            n.install(&tenant_plan(1, "10.0.0.1"));
            n.install(&tenant_plan(2, "10.0.0.2"));
        }
        relay.ingest(packets(200));
        let group = relay.layer.by_query[&1];
        let shipped = relay
            .engines
            .get_mut(&group)
            .unwrap()
            .tick(60_000_000, false);
        let partials = shipped
            .partials
            .expect("non-root ticks ship closed-window partials");
        assert!(shipped.emissions.is_empty());
        // Both nodes derived the same group and the same partial route
        // from the plans alone.
        assert_eq!(root.layer.by_query.get(&1), Some(&group));
        let root_engine = root.engines.get_mut(&group).unwrap();
        assert_eq!(root_engine.spec(), relay.engines[&group].spec());
        assert_eq!(
            root_engine.spec().namespace,
            format!("g{group:016x}.windows")
        );
        // The root absorbs the relayed partials and derives per-member
        // results from them.
        assert!(root_engine.absorb_panes(&partials, true).is_empty());
        let out = root_engine.tick(120_000_000, true);
        assert!(out.emissions.iter().any(|e| e.query_id == 1));
        assert!(out.emissions.iter().any(|e| e.query_id == 2));
    }

    #[test]
    fn refcounted_teardown_leaves_no_groups_behind() {
        let mut layer = MqoLayer::default();
        for qid in 1u64..=4 {
            layer.try_install(&tenant_plan(qid, &format!("10.0.0.{qid}")));
        }
        assert_eq!(layer.stats().groups, 1);
        assert!(layer.wants_namespace("packets"));
        for qid in 1u64..=3 {
            let out = layer.uninstall(qid);
            assert!(out.was_member);
            assert!(out.retired_group.is_none(), "group still has members");
        }
        assert_eq!(layer.stats().members, 1);
        let group = layer.by_query.get(&4).copied();
        let last = layer.uninstall(4);
        assert!(last.was_member);
        assert_eq!(last.retired_group, group, "last member retires the group");
        assert_eq!(layer.stats().groups, 0);
        assert_eq!(layer.stats().members, 0);
        assert!(!layer.wants_namespace("packets"));
        assert!(!layer.by_query.contains_key(&4));
        assert!(
            !layer.uninstall(4).was_member,
            "double uninstall is a no-op"
        );
    }

    #[test]
    fn a_member_form_joins_a_live_group_as_its_plan_would() {
        let (mut proxy, mut holder) = (MqoLayer::default(), MqoLayer::default());
        let first = tenant_plan(1, "10.0.0.1");
        assert!(proxy.member_form(&first).is_none(), "no group is live yet");
        for layer in [&mut proxy, &mut holder] {
            layer.try_install(&first);
        }
        let plan = tenant_plan(2, "10.0.0.2");
        let form = proxy.member_form(&plan).expect("the group is live");
        assert_eq!((form.query_id, form.timeout), (2, plan.timeout));
        let by_form = holder.join(form.group, form.query_id, form.member.clone());
        assert_eq!(by_form, Some(membership(proxy.try_install(&plan))));
        assert_eq!(holder.stats().members, 2);
        // A node without the group cannot join it by its constants.
        let mut retired = MqoLayer::default();
        assert!(retired.join(form.group, 2, form.member).is_none());
        assert_eq!(retired.stats().members, 0);
        // A shed plan is never a member.
        let mut shed = tenant_plan(3, "10.0.0.3");
        shed.sample_every = 4;
        assert!(proxy.member_form(&shed).is_none());
    }

    #[test]
    fn recreated_groups_get_a_fresh_epoch() {
        // A group retired and re-formed under the same fingerprint must be
        // distinguishable, so a stale tick chain armed for the first
        // incarnation stops instead of double-driving the second.
        let mut layer = MqoLayer::default();
        let first = membership(layer.try_install(&tenant_plan(1, "10.0.0.1")));
        assert!(layer.uninstall(1).retired_group.is_some());
        let second = membership(layer.try_install(&tenant_plan(2, "10.0.0.2")));
        assert_eq!(first.group, second.group, "same fingerprint");
        assert!(
            first.engine.is_some(),
            "re-creation is a new incarnation..."
        );
        assert_eq!(first.engine, second.engine, "...namespaces and all");
        assert_ne!(first.epoch, second.epoch, "fresh epoch per incarnation");
        // A member joining the live incarnation reports the same epoch and
        // no engine, so the executor does not start a new chain.
        let third = membership(layer.try_install(&tenant_plan(3, "10.0.0.3")));
        assert_eq!(third.epoch, second.epoch);
        assert!(third.engine.is_none());
        // A re-offer of a live member changes nothing.
        let again = membership(layer.try_install(&tenant_plan(3, "10.0.0.3")));
        assert_eq!(again, third);
        assert_eq!(layer.stats().members, 2);
    }
}
