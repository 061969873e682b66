//! The one window executor: every windowed standing query at a node runs
//! inside a [`WindowEngine`].
//!
//! An engine is a share group's worth of window state — one local and one
//! root [`pier_cq::WindowStore`] behind a [`SharedWindowState`], one
//! [`PartialCodec`], and per [`Member`] a derivation predicate, a proxy, a
//! lease and a delta tracker.  An **unshared** query
//! is an engine of one member with no predicate, tagged `q{id}` and fed its
//! pipeline's survivor chunks; a **share group** (`pier-mqo`) is an engine
//! tagged `g{fp:016x}` fed the ingest chunk under the predicate index's
//! union mask.  Which of the two an engine is shows only in its
//! [`EngineSpec`] — data, set by whoever built it.
//!
//! The engine is a plain struct: chunks and instants in, partial chunks and
//! [`Emission`]s out.  It sends nothing and arms no timer; the node
//! ([`crate::node`]) owns the engines, ships what a tick returns and
//! forwards the emissions.  Every member's rows are built, sorted, finished
//! and delta-tracked on the one engine-level schema `{tag}.win` (GROUP BY
//! columns + aggregate outputs; the window's bounds are the emission's, not
//! the row's), so a tick's emissions for one proxy and window pack into one
//! chunk; which query a row answers is relabelled at its proxy
//! ([`crate::proxy::window_result_schema`]).
//!
//! At the root a window's groups are walked once per emission, not once
//! per member.  A member whose predicate pins every GROUP BY column to a
//! constant of exact equality (`src = 'a'`, the constant-varied tenants of
//! a share group) is *filed*: the engine's index maps the store key of its
//! constants to it, each group's key is looked up once, and each matched
//! row is built once and shared.  A filed member pays for the rows it gets
//! and nothing in a window it has none in; any other predicate is tested
//! group by group.

use crate::aggregate::{AggFunc, AggState};
use crate::expr::{CmpOp, CompiledExpr, Expr};
use crate::partial::{GroupAgg, PartialCodec};
use crate::plan::{finish_rows, OperatorSpec, QueryPlan, SinkSpec};
use crate::tuple::{
    ColumnChunk, ColumnRef, ColumnResolver, Schema, SchemaRegistry, Tuple, TupleBatch,
};
use crate::value::Value;
use pier_cq::{
    CqBudget, Delta, DeltaMode, DeltaTracker, DurableStore, Lease, RehydrateReport, SegmentLog,
    SharedWindowState, WindowSpec, WindowStats,
};
use pier_runtime::{Duration, NodeAddr, SimTime, WireSize};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// What an engine's shipping flush is called in telemetry, and how the
/// spans of its work are attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineNames {
    /// Counter ticked once per shipping flush.
    pub flushes: &'static str,
    /// Counter of partials shipped.
    pub flush_partials: &'static str,
    /// Stage name of the flush span (charged to the lowest member id).
    pub flush_span: &'static str,
    /// The work is shared by many queries: the flush span's `aux` counts
    /// the members riding it instead of the windows it bundles, and every
    /// member's `window.emit` is a top-level span of its own trace.
    pub shared: bool,
}

/// The vocabulary of an unshared query's engine.
pub const QUERY_NAMES: EngineNames = EngineNames {
    flushes: "cq.window_flushes",
    flush_partials: "cq.flush_partials",
    flush_span: "window.flush",
    shared: false,
};

/// Everything that tells one engine from another.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// `q{id}` or `g{fp:016x}`: prefixes the partial schema (`{tag}.wp`),
    /// the derivation schema (`{tag}.gv`) and the durable segment keys
    /// (`{tag}.local` / `{tag}.root`).
    pub tag: String,
    /// DHT namespace the closed-window partials travel under.
    pub namespace: String,
    /// Key hashed (with `namespace`) to locate the window root.
    pub root_key: String,
    /// The window every member shares.
    pub window: WindowSpec,
    /// Per-node work/state budget of each of the two stores.
    pub budget: CqBudget,
    /// GROUP BY columns.
    pub group_cols: Vec<String>,
    /// Aggregates computed per window and group.
    pub aggs: Vec<AggFunc>,
    /// Event-time column (arrival time when absent).
    pub time_col: Option<String>,
    /// Window-scoped dedup columns (a missing column keys as "∅").
    pub dedup_cols: Vec<String>,
    /// Shipped partials live at least this long, whatever the node's
    /// publish lifetime.
    pub min_lifetime: Duration,
    /// Telemetry vocabulary.
    pub names: EngineNames,
}

/// One member query, as handed to [`WindowEngine::add_member`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemberSpec {
    /// Which of the engine's groups are this member's: a predicate over the
    /// GROUP BY columns, evaluated per group at emission.  `None` = all.
    pub derive: Option<Expr>,
    /// Where the member's results go.
    pub proxy: NodeAddr,
    /// Soft-state lease granted per (re)dissemination.
    pub lease: Duration,
    /// Snapshot or insert/retract output.
    pub delta: DeltaMode,
    /// Finishers applied to the member's rows at the root (e.g. `TOP k`).
    pub final_ops: Vec<OperatorSpec>,
}

impl EngineSpec {
    /// The one-member engine of an unshared windowed plan: the index of the
    /// opgraph that feeds it, its spec and its sole member.
    pub fn unshared(plan: &QueryPlan) -> Option<(usize, EngineSpec, MemberSpec)> {
        let (graph_idx, sink) = plan.windowed_sink()?;
        let SinkSpec::WindowedAgg {
            window,
            group_cols,
            aggs,
            time_col,
            dedup_cols,
            delta,
            final_ops,
        } = sink
        else {
            return None;
        };
        let cq = plan.cq.unwrap_or_default();
        let engine = EngineSpec {
            tag: format!("q{}", plan.query_id),
            namespace: plan.window_namespace(),
            root_key: plan.agg_root_key(),
            window: *window,
            budget: cq.budget,
            group_cols: group_cols.clone(),
            aggs: aggs.clone(),
            time_col: time_col.clone(),
            dedup_cols: dedup_cols.clone(),
            min_lifetime: cq.lease,
            names: QUERY_NAMES,
        };
        let member = MemberSpec {
            derive: None,
            proxy: plan.proxy,
            lease: cq.lease,
            delta: *delta,
            final_ops: final_ops.clone(),
        };
        Some((graph_idx, engine, member))
    }
}

/// One member's per-window result emission, produced at the window root.
#[derive(Debug, Clone)]
pub struct Emission {
    /// The member query.
    pub query_id: u64,
    /// The member's proxy node (results destination).
    pub proxy: NodeAddr,
    /// The member records trace spans.
    pub trace: bool,
    /// Window start (inclusive).
    pub window_start: SimTime,
    /// Window end (exclusive).
    pub window_end: SimTime,
    /// Rows retracted by this emission (delta mode), on the engine's
    /// `{tag}.win` schema like `inserts`.
    pub retracts: Vec<Tuple>,
    /// Rows inserted by this emission.
    pub inserts: Vec<Tuple>,
}

/// What one [`WindowEngine::tick`] produced.
#[derive(Debug, Default)]
pub struct TickOutput {
    /// Closed-window partials to ship one hop toward the root, one row per
    /// group (`None` at the root, or when nothing closed).
    pub partials: Option<ColumnChunk>,
    /// Distinct windows `partials` bundles (a tick catching up after an
    /// EVERY-cadence gap ships several at once).
    pub windows: u64,
    /// Per-member emissions (non-empty only at the root).
    pub emissions: Vec<Emission>,
}

/// Diagnostics of a continuous query installed at a node (tests and the
/// experiment drivers assert bounded state through this).  The store figures are
/// the engine's — shared by every member of a share group — the tracker,
/// emission and lease figures are the member's own.
#[derive(Debug, Clone, Copy)]
pub struct CqDiagnostics {
    /// Activity counters of the node-local window store.
    pub local: WindowStats,
    /// Activity counters of the relay/root window store.
    pub root: WindowStats,
    /// Open windows across both stores.
    pub open_windows: usize,
    /// Groups held across both stores (the node's CQ state footprint).
    pub total_groups: usize,
    /// Windows the root-side delta tracker currently remembers.
    pub tracked_emissions: usize,
    /// Per-window emissions this node sent to the proxy as root.
    pub windows_emitted: u64,
    /// Lease renewals observed since installation.
    pub lease_renewals: u32,
    /// Windows rehydrated from durable segments at installation (0 on a
    /// cold install): nonzero means this node restarted warm.
    pub rehydrated_windows: u64,
}

/// The occupancy gauges, in the order of [`WindowEngine::occupancy`].
pub const OCCUPANCY_GAUGES: [&str; 6] = [
    "cq.accepted",
    "cq.shed",
    "cq.evicted_windows",
    "cq.open_windows",
    "cq.state_groups",
    "cq.state_bytes",
];

/// One member query's residue within an engine.
#[derive(Debug)]
pub struct Member {
    /// Where the member's results go.
    pub proxy: NodeAddr,
    /// Soft-state lease, renewed by every roster that names the member.
    pub lease: Lease,
    /// The member's emissions (and, for the lowest member, the engine's
    /// flushes) record spans.
    pub trace: bool,
    derive: Derive,
    final_ops: Vec<OperatorSpec>,
    /// Snapshot/delta output against this member's previous emissions.
    tracker: DeltaTracker<Tuple>,
    windows_emitted: u64,
}

/// How a member picks its groups out of an emitted window.
#[derive(Debug)]
enum Derive {
    /// Every group: the member has no predicate.
    All,
    /// The one group with this store key; the member is filed under it in
    /// the engine's index.
    Filed(Box<str>),
    /// The groups whose values satisfy the predicate, tested one by one.
    Scan(CompiledExpr),
}

/// The store key of the one group `predicate` accepts, when the predicate
/// is only `col = const` conjuncts (either operand order) pinning each of
/// `group_cols` exactly once, each constant a `Str`, `Bytes` or `Bool`: the
/// constants' [`Value::write_key`] renderings joined by `|`, as
/// [`ColumnChunk::write_key_at`] keys the stored groups.  `None` for any
/// other predicate.  `Int` and `Float` compare across types (`5 = 5.0`),
/// so a numeric pin accepts groups of two keys; a `Str` holding `|` could
/// render the same key as a different split of the values.
fn filing_key(group_cols: &[String], predicate: &Expr) -> Option<Box<str>> {
    let mut pinned: Vec<Option<&Value>> = vec![None; group_cols.len()];
    let mut conjuncts = vec![predicate];
    while let Some(conjunct) = conjuncts.pop() {
        let (column, value) = match conjunct {
            Expr::And(l, r) => {
                conjuncts.extend([r.as_ref(), l.as_ref()]);
                continue;
            }
            Expr::Cmp(CmpOp::Eq, l, r) => match (l.as_ref(), r.as_ref()) {
                (Expr::Column(c), Expr::Const(v)) | (Expr::Const(v), Expr::Column(c)) => (c, v),
                _ => return None,
            },
            _ => return None,
        };
        let exact = match value {
            Value::Str(s) => !s.contains('|'),
            Value::Bytes(_) | Value::Bool(_) => true,
            _ => false,
        };
        let slot = &mut pinned[group_cols.iter().position(|g| g == column)?];
        if !exact || slot.replace(value).is_some() {
            return None;
        }
    }
    let mut key = String::new();
    for (i, value) in pinned.into_iter().enumerate() {
        if i > 0 {
            key.push('|');
        }
        value?.write_key(&mut key);
    }
    Some(key.into())
}

/// The window state and member residue of one engine at one node.
#[derive(Debug)]
pub struct WindowEngine {
    spec: EngineSpec,
    state: SharedWindowState<GroupAgg>,
    /// Encodes drained windows as `{tag}.wp` chunks and merges relayed ones
    /// into the root store.
    codec: PartialCodec,
    group_resolver: ColumnResolver,
    time_ref: Option<ColumnRef>,
    agg_inputs: Vec<Option<ColumnRef>>,
    dedup_refs: Vec<ColumnRef>,
    /// `{tag}.gv` — the schema derivation predicates compile against
    /// (columns = the GROUP BY columns); interned with the first predicate.
    gv_schema: Option<Arc<Schema>>,
    /// `{tag}.win` — the schema every member's result rows are built on
    /// (GROUP BY columns, then the aggregates' output columns).
    win_schema: Arc<Schema>,
    members: BTreeMap<u64, Member>,
    /// Group key → the filed members ([`Derive::Filed`]) that take exactly
    /// that group; empty in an engine without any.
    index: HashMap<Box<str>, Vec<u64>>,
    /// One root emission's `(member, group)` pairs the index matched,
    /// reused across windows.
    filed: Vec<(u64, usize)>,
    rehydrated_windows: u64,
    /// Shed tuples+groups / evicted windows already handed out by
    /// [`WindowEngine::take_shed_evicted`].
    reported: (u64, u64),
    /// Buffers one [`WindowEngine::absorb`] fills and the next reuses: the
    /// dedup and aggregate-input columns of the chunk's schema, the group
    /// and the dedup key of the row at hand.
    dedup_idxs: Vec<Option<usize>>,
    agg_idxs: Vec<Option<usize>>,
    key: String,
    dedup: String,
}

impl WindowEngine {
    /// A log larger than this is compacted (rewritten as one fresh
    /// snapshot) on the next persist.
    pub const SEGMENT_COMPACT_BYTES: usize = 1 << 20;

    /// An engine with no members and cold stores.
    pub fn new(spec: EngineSpec) -> WindowEngine {
        let mut win_columns = spec.group_cols.clone();
        win_columns.extend(spec.aggs.iter().map(AggFunc::output_column));
        WindowEngine {
            win_schema: SchemaRegistry::global()
                .intern_owned(format!("{}.win", spec.tag), win_columns),
            state: SharedWindowState::new(spec.window, spec.budget),
            codec: PartialCodec::new(
                format!("{}.wp", spec.tag),
                spec.group_cols.clone(),
                spec.aggs.clone(),
            ),
            group_resolver: ColumnResolver::new(spec.group_cols.clone()),
            time_ref: spec.time_col.clone().map(ColumnRef::new),
            agg_inputs: spec
                .aggs
                .iter()
                .map(|a| a.input_column().map(ColumnRef::new))
                .collect(),
            dedup_refs: spec
                .dedup_cols
                .iter()
                .cloned()
                .map(ColumnRef::new)
                .collect(),
            gv_schema: None,
            members: BTreeMap::new(),
            index: HashMap::new(),
            filed: Vec::new(),
            rehydrated_windows: 0,
            reported: (0, 0),
            dedup_idxs: Vec::new(),
            agg_idxs: Vec::new(),
            key: String::new(),
            dedup: String::new(),
            spec,
        }
    }

    /// The engine's spec.
    pub fn spec(&self) -> &EngineSpec {
        &self.spec
    }

    // ----- members ----------------------------------------------------------

    /// Add member `query_id` (replacing any member of that id), leased
    /// from `now` ([`Member::trace`] as given).
    pub fn add_member(&mut self, query_id: u64, member: MemberSpec, trace: bool, now: SimTime) {
        self.remove_member(query_id);
        let spec = &self.spec;
        let derive = match member.derive {
            None => Derive::All,
            Some(predicate) => match filing_key(&spec.group_cols, &predicate) {
                Some(key) => {
                    self.index.entry(key.clone()).or_default().push(query_id);
                    Derive::Filed(key)
                }
                None => {
                    let gv = self.gv_schema.get_or_insert_with(|| {
                        SchemaRegistry::global()
                            .intern_owned(format!("{}.gv", spec.tag), spec.group_cols.clone())
                    });
                    Derive::Scan(predicate.compile(gv))
                }
            },
        };
        self.members.insert(
            query_id,
            Member {
                derive,
                proxy: member.proxy,
                lease: Lease::granted(now, member.lease),
                final_ops: member.final_ops,
                trace,
                tracker: DeltaTracker::new(member.delta),
                windows_emitted: 0,
            },
        );
    }

    /// Remove a member; `true` when it was one.
    pub fn remove_member(&mut self, query_id: u64) -> bool {
        let Some(member) = self.members.remove(&query_id) else {
            return false;
        };
        if let Derive::Filed(key) = &member.derive {
            let ids = self.index.get_mut(key).expect("a filed member is indexed");
            ids.retain(|&id| id != query_id);
            if ids.is_empty() {
                self.index.remove(key);
            }
        }
        true
    }

    /// The members, ascending: shared work is charged to the first, and an
    /// engine without any can be retired.
    pub fn members(&self) -> &BTreeMap<u64, Member> {
        &self.members
    }

    /// A member's lease, to renew when its proxy's roster names it.
    pub fn lease_mut(&mut self, query_id: u64) -> Option<&mut Lease> {
        self.members.get_mut(&query_id).map(|m| &mut m.lease)
    }

    // ----- data -------------------------------------------------------------

    /// Fold the rows of `chunk` into the local store — all of them, or only
    /// those whose bit is set in `selected` (bit `r % 64` of word `r / 64`;
    /// bits past the chunk select nothing).
    /// The event-time, group, dedup and aggregate-input columns resolve
    /// against the chunk's schema once; a chunk lacking a group column is
    /// discarded (best effort).
    pub fn absorb(&mut self, chunk: &ColumnChunk, selected: Option<&[u64]>, now: SimTime) {
        let schema = chunk.schema();
        let Some(group_idxs) = self.group_resolver.indices_for(schema) else {
            return;
        };
        let time_idx = self.time_ref.as_mut().and_then(|c| c.index_for(schema));
        self.dedup_idxs.clear();
        let dedups = self.dedup_refs.iter_mut();
        self.dedup_idxs.extend(dedups.map(|c| c.index_for(schema)));
        self.agg_idxs.clear();
        let inputs = self.agg_inputs.iter_mut();
        let inputs = inputs.map(|input| input.as_mut().and_then(|c| c.index_for(schema)));
        self.agg_idxs.extend(inputs);
        let (dedup_idxs, agg_idxs) = (&self.dedup_idxs, &self.agg_idxs);
        let (key, dedup) = (&mut self.key, &mut self.dedup);
        let aggs = self.codec.aggs();
        let store = self.state.local_mut();
        let mut absorb_row = |r: usize| {
            let event_time = time_idx
                .and_then(|i| chunk.col(i).value_ref(r).as_i64())
                .map_or(now, |v| v.max(0) as u64);
            key.clear();
            chunk.write_key_at(group_idxs, r, key);
            dedup.clear();
            // A row missing a dedup column is treated as unique.
            for (i, idx) in dedup_idxs.iter().enumerate() {
                if i > 0 {
                    dedup.push('|');
                }
                match idx {
                    Some(c) => chunk.col(*c).value_ref(r).write_key(dedup),
                    None => dedup.push('∅'),
                }
            }
            store.push_with(
                event_time,
                key,
                (!dedup_idxs.is_empty()).then_some(dedup.as_str()),
                |new| GroupAgg {
                    // Only a group new to the store keeps its values.
                    vals: if new {
                        group_idxs.iter().map(|&i| chunk.col(i).value(r)).collect()
                    } else {
                        Vec::new()
                    },
                    states: aggs.iter().map(AggFunc::init).collect(),
                },
                |acc| {
                    let inputs = aggs.iter().zip(agg_idxs);
                    for ((agg, idx), state) in inputs.zip(acc.states.iter_mut()) {
                        state.update_ref(agg, idx.map(|i| chunk.col(i).value_ref(r)));
                    }
                },
            );
        };
        match selected {
            None => (0..chunk.rows()).for_each(absorb_row),
            // Walk the set bits; bits past the chunk select nothing.
            Some(words) => {
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let r = w * 64 + bits.trailing_zeros() as usize;
                        if r >= chunk.rows() {
                            return;
                        }
                        absorb_row(r);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// Merge a chunk of relayed closed-window partials into the root store
    /// and return the indices of the rows it refused
    /// ([`PartialCodec::absorb`]).
    pub fn absorb_partials(&mut self, chunk: &ColumnChunk) -> Vec<u32> {
        self.codec.absorb(chunk, self.state.root_mut())
    }

    /// One window-maintenance tick.  Away from the root: drain every due
    /// window of both stores into one partial stream.  At the root: roll
    /// the local store up into the retained root state, snapshot every due
    /// window that changed and derive each member's rows from it — the
    /// member's groups (looked up in the index for a filed member, tested
    /// one by one for the others), in display order, through its finishers
    /// — which the member's delta tracker turns into its snapshot or
    /// insert/retract stream; an unchanged answer emits nothing, and a
    /// filed member with neither rows nor a record of the window is skipped.
    pub fn tick(&mut self, now: SimTime, is_root: bool) -> TickOutput {
        let mut out = TickOutput::default();
        if !is_root {
            let mut partials = self.codec.encoder();
            let mut wids = Vec::new();
            self.state.drain_closed(now, |wid, groups| {
                wids.push(wid);
                for g in groups {
                    partials.push(wid, &g.identity.vals, &g.acc.states);
                }
            });
            // Each store drains ascending; both may hold the same window.
            wids.sort_unstable();
            wids.dedup();
            out.windows = wids.len() as u64;
            out.partials = partials.finish();
            return out;
        }
        self.state.roll_up_local(now);
        let (members, window) = (&mut self.members, self.spec.window);
        let (index, filed, win_schema) = (&self.index, &mut self.filed, &self.win_schema);
        let retired = self.state.emit_due(now, |wid, groups| {
            let (window_start, window_end) = window.bounds(wid);
            // Each group's row, built by the first member that takes it and
            // shared (a `Tuple` clone is two `Arc` bumps).
            let mut built: Vec<Option<Tuple>> = vec![None; groups.len()];
            let mut row = |i: usize| {
                let built = built[i].get_or_insert_with(|| {
                    let g = &groups[i];
                    let finished = g.acc.states.iter().map(AggState::finish);
                    let values: Arc<[Value]> =
                        g.identity.vals.iter().cloned().chain(finished).collect();
                    Tuple::from_schema(Arc::clone(win_schema), values)
                });
                built.clone()
            };
            // One index probe per group; sorted, each filed member's groups
            // are one run in group order, and the runs ascend as members do.
            filed.clear();
            if !index.is_empty() {
                for (i, g) in groups.iter().enumerate() {
                    if let Some(ids) = index.get(g.key) {
                        filed.extend(ids.iter().map(|&id| (id, i)));
                    }
                }
                filed.sort_unstable();
            }
            let mut next = 0;
            for (&query_id, m) in members.iter_mut() {
                let mut rows: Vec<Tuple> = match &m.derive {
                    Derive::All => (0..groups.len()).map(&mut row).collect(),
                    Derive::Scan(d) => (0..groups.len())
                        .filter(|&i| d.matches(&groups[i].identity.vals))
                        .map(&mut row)
                        .collect(),
                    Derive::Filed(_) => {
                        let run = next;
                        while filed.get(next).is_some_and(|&(id, _)| id == query_id) {
                            next += 1;
                        }
                        // No rows and none on record: the emission would be
                        // empty, and so would every finisher's output.
                        if run == next && !m.tracker.remembers(wid) {
                            continue;
                        }
                        filed[run..next].iter().map(|&(_, i)| row(i)).collect()
                    }
                };
                // Display order.  Cached keys render each row once, not
                // twice per comparison.
                rows.sort_by_cached_key(std::string::ToString::to_string);
                if !m.final_ops.is_empty() {
                    rows = finish_rows(&m.final_ops, &TupleBatch::new(rows));
                }
                let deltas = m.tracker.emit(wid, rows);
                if deltas.is_empty() {
                    continue;
                }
                m.windows_emitted += 1;
                let mut retracts = Vec::new();
                let mut inserts = Vec::new();
                for d in deltas {
                    match d {
                        Delta::Retract(t) => retracts.push(t),
                        Delta::Insert(t) => inserts.push(t),
                    }
                }
                out.emissions.push(Emission {
                    query_id,
                    proxy: m.proxy,
                    trace: m.trace,
                    window_start,
                    window_end,
                    retracts,
                    inserts,
                });
            }
        });
        // Past the refinement horizon a tracker forgets too (bounded memory).
        if let Some(through) = retired {
            for m in self.members.values_mut() {
                m.tracker.retire(through);
            }
        }
        out
    }

    // ----- durability -------------------------------------------------------

    fn segment_keys(&self) -> [String; 2] {
        [
            format!("{}.local", self.spec.tag),
            format!("{}.root", self.spec.tag),
        ]
    }

    /// Append a snapshot of both stores to the engine's two segment logs in
    /// `durable`.  A log that has outgrown
    /// [`WindowEngine::SEGMENT_COMPACT_BYTES`] is rewritten from scratch —
    /// rehydration only reads the *latest* snapshot of each window, so
    /// compaction loses nothing.
    pub fn persist(&self, durable: &DurableStore) {
        let keys = self.segment_keys();
        let [mut local, mut root] = keys.each_ref().map(|k| durable.with_log(k, std::mem::take));
        for log in [&mut local, &mut root] {
            if log.len() > Self::SEGMENT_COMPACT_BYTES {
                *log = SegmentLog::new();
            }
        }
        self.state.write_segments(&mut local, &mut root);
        for (key, log) in keys.iter().zip([local, root]) {
            durable.with_log(key, |slot| *slot = log);
        }
    }

    /// Rehydrate freshly built stores from `durable` (warm restart: called
    /// before the first chunk is absorbed).  `None` when nothing durable
    /// exists for this engine — a genuinely cold start.
    pub fn rehydrate(&mut self, durable: &DurableStore) -> Option<RehydrateReport> {
        let [local, root] = self.segment_keys().map(|k| durable.get(&k));
        let report = self.state.rehydrate(local.as_ref(), root.as_ref());
        if report.records == 0 && !report.torn_tail {
            return None;
        }
        self.rehydrated_windows = report.windows as u64;
        Some(report)
    }

    /// Drop the engine's segments: it was torn down deliberately and will
    /// never be rehydrated.
    pub fn forget(&self, durable: &DurableStore) {
        for key in self.segment_keys() {
            durable.remove(&key);
        }
    }

    // ----- diagnostics ------------------------------------------------------

    /// Diagnostics of member `query_id` (`None` when it is not a member).
    pub fn diagnostics(&self, query_id: u64) -> Option<CqDiagnostics> {
        let m = self.members.get(&query_id)?;
        let (local, root) = self.state.stats();
        Some(CqDiagnostics {
            local,
            root,
            open_windows: self.state.open_windows(),
            total_groups: self.state.total_groups(),
            tracked_emissions: m.tracker.tracked_windows(),
            windows_emitted: m.windows_emitted,
            lease_renewals: m.lease.renewals,
            rehydrated_windows: self.rehydrated_windows,
        })
    }

    /// Accepted rows, shed rows+groups, evicted windows, open windows,
    /// groups and approximate state bytes over both stores — the values of
    /// [`OCCUPANCY_GAUGES`].
    pub fn occupancy(&self) -> [u64; 6] {
        let (local, root) = self.state.stats();
        let (shed, evicted) = Self::shed_evicted(local, root);
        let acc_bytes = |g: &GroupAgg| -> usize {
            g.vals.iter().map(WireSize::wire_size).sum::<usize>()
                + g.states.iter().map(WireSize::wire_size).sum::<usize>()
        };
        [
            local.accepted + root.accepted,
            shed,
            evicted,
            self.state.open_windows() as u64,
            self.state.total_groups() as u64,
            self.state.approx_state_bytes(&acc_bytes) as u64,
        ]
    }

    fn shed_evicted(local: WindowStats, root: WindowStats) -> (u64, u64) {
        (
            local.shed_tuples + local.shed_groups + root.shed_tuples + root.shed_groups,
            local.evicted_windows + root.evicted_windows,
        )
    }

    /// Rows+groups shed and windows evicted since the previous call.
    pub fn take_shed_evicted(&mut self) -> (u64, u64) {
        let (local, root) = self.state.stats();
        let now = Self::shed_evicted(local, root);
        let delta = (now.0 - self.reported.0, now.1 - self.reported.1);
        self.reported = now;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn netmon_rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    "packets",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{}", i % 5).into())),
                        ("len", Value::Int(40 + i % 1400)),
                        ("ts", Value::Int(i * 250_000)),
                    ],
                )
            })
            .collect()
    }

    fn netmon_engine() -> WindowEngine {
        let plan = crate::sqlish::compile(
            "SELECT src, COUNT(*), SUM(len) FROM packets GROUP BY src WINDOW 30s SLIDE 10s",
            pier_runtime::NodeAddr(1),
            60_000_000,
        )
        .expect("windowed netmon query must compile");
        let (graph_idx, spec, member) = EngineSpec::unshared(&plan).expect("windowed sink");
        assert_eq!(graph_idx, 0);
        assert_eq!(spec.tag, format!("q{}", plan.query_id));
        let mut engine = WindowEngine::new(spec);
        engine.add_member(plan.query_id, member, false, 0);
        engine
    }

    /// The per-tuple absorb [`WindowEngine::absorb`] replaced, kept as the
    /// reference the chunk path is compared against.
    fn absorb_tuple(e: &mut WindowEngine, tuple: &Tuple, now: SimTime) {
        let event_time = e
            .time_ref
            .as_mut()
            .and_then(|c| c.get(tuple))
            .and_then(Value::as_i64)
            .map_or(now, |v| v.max(0) as u64);
        let Some(indices) = e.group_resolver.indices(tuple) else {
            return; // malformed tuple: discard
        };
        let key = tuple.key_at(indices);
        let vals: Vec<Value> = indices.iter().map(|&i| tuple.values()[i].clone()).collect();
        let dedup = if e.dedup_refs.is_empty() {
            None
        } else {
            // A tuple missing a dedup column is treated as unique.
            let mut out = String::with_capacity(12 * e.dedup_refs.len());
            for (i, col) in e.dedup_refs.iter_mut().enumerate() {
                if i > 0 {
                    out.push('|');
                }
                match col.get(tuple) {
                    Some(v) => v.write_key(&mut out),
                    None => out.push('∅'),
                }
            }
            Some(out)
        };
        let agg_values: Vec<Option<&Value>> = e
            .agg_inputs
            .iter_mut()
            .map(|input| input.as_mut().and_then(|c| c.get(tuple)))
            .collect();
        let aggs = e.codec.aggs();
        e.state.local_mut().push(
            event_time,
            &key,
            dedup.as_deref(),
            || GroupAgg {
                vals: vals.clone(),
                states: aggs.iter().map(AggFunc::init).collect(),
            },
            |acc| {
                for ((agg, value), state) in aggs.iter().zip(&agg_values).zip(acc.states.iter_mut())
                {
                    state.update_with(agg, *value);
                }
            },
        );
    }

    /// Canonical view of the local store's content after closing
    /// everything: `(window, group key, group values, finished aggregates)`.
    fn drain_canonical(e: &mut WindowEngine) -> Vec<(u64, String, Vec<Value>, Vec<Value>)> {
        let mut out = Vec::new();
        for (wid, groups) in e.state.local_mut().close_due(1_000_000_000_000) {
            for (key, acc) in groups {
                let finished = acc.states.iter().map(AggState::finish).collect();
                out.push((wid, key, acc.vals.clone(), finished));
            }
        }
        out.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        out
    }

    #[test]
    fn chunk_absorb_equals_per_tuple_absorb() {
        let rows = netmon_rows(400);
        let mut per_tuple = netmon_engine();
        let mut chunked = netmon_engine();
        let now = 1_000_000;
        for t in &rows {
            absorb_tuple(&mut per_tuple, t, now);
        }
        for chunk in TupleBatch::new(rows).chunks() {
            chunked.absorb(chunk, None, now);
        }
        let a = drain_canonical(&mut per_tuple);
        let b = drain_canonical(&mut chunked);
        assert!(!a.is_empty(), "the workload must populate windows");
        assert_eq!(a, b);
    }

    #[test]
    fn a_mask_selects_exactly_its_rows_and_a_long_one_is_clipped() {
        let rows = netmon_rows(130);
        let mut masked = netmon_engine();
        let mut filtered = netmon_engine();
        // Every third row, plus phantom bits past the chunk's end.
        let mut words = vec![0u64; 4];
        for r in (0..256).step_by(3) {
            words[r / 64] |= 1 << (r % 64);
        }
        let batch = TupleBatch::new(rows.clone());
        assert_eq!(batch.chunks().len(), 1);
        masked.absorb(&batch.chunks()[0], Some(&words), 0);
        for t in rows.iter().step_by(3) {
            absorb_tuple(&mut filtered, t, 0);
        }
        assert_eq!(drain_canonical(&mut masked), drain_canonical(&mut filtered));
    }

    #[test]
    fn chunk_absorb_discards_malformed_chunks() {
        let mut engine = netmon_engine();
        let rows: Vec<Tuple> = (0..10)
            .map(|i| Tuple::new("packets", vec![("nothing", Value::Int(i))]))
            .collect();
        for chunk in TupleBatch::new(rows).chunks() {
            engine.absorb(chunk, None, 0);
        }
        assert!(drain_canonical(&mut engine).is_empty());
    }

    #[test]
    fn persisted_state_rehydrates_warm() {
        let mut engine = netmon_engine();
        for t in netmon_rows(120) {
            absorb_tuple(&mut engine, &t, 0);
        }
        let durable = DurableStore::new();
        engine.persist(&durable);
        let tag = engine.spec().tag.clone();
        assert_eq!(
            durable.keys(),
            [format!("{tag}.local"), format!("{tag}.root")]
        );

        // A cold engine (what a restarted node builds) rehydrates to the
        // same canonical contents the crashed node held.
        let mut cold = netmon_engine();
        let report = cold.rehydrate(&durable).expect("snapshot was written");
        assert!(report.windows > 0, "open windows came back");
        assert!(!report.torn_tail);
        let member = *cold.members().keys().next().expect("one member");
        let diag = cold.diagnostics(member).expect("member");
        assert_eq!(diag.rehydrated_windows, report.windows as u64);
        assert_eq!(drain_canonical(&mut cold), drain_canonical(&mut engine));
        // A deliberate teardown leaves no "disk" behind, and nothing
        // durable means a cold start.
        engine.forget(&durable);
        assert!(durable.keys().is_empty());
        assert!(netmon_engine().rehydrate(&durable).is_none());
    }

    #[test]
    fn persist_compacts_once_the_log_outgrows_the_bound() {
        let mut engine = netmon_engine();
        for t in netmon_rows(50) {
            absorb_tuple(&mut engine, &t, 0);
        }
        let durable = DurableStore::new();
        engine.persist(&durable);
        let after_one = durable.total_bytes();
        // Snapshots append...
        engine.persist(&durable);
        assert!(durable.total_bytes() > after_one);
        // ...until the log crosses the compaction bound, which rewrites it
        // as a single fresh snapshot.
        let local_key = format!("{}.local", engine.spec().tag);
        let len = || durable.get(&local_key).map_or(0, |log| log.len());
        while len() <= WindowEngine::SEGMENT_COMPACT_BYTES {
            engine.persist(&durable);
        }
        engine.persist(&durable);
        assert!(
            len() <= WindowEngine::SEGMENT_COMPACT_BYTES,
            "compaction rewrote the oversized log"
        );
        let mut cold = netmon_engine();
        cold.rehydrate(&durable).expect("compacted snapshot");
        assert_eq!(drain_canonical(&mut cold), drain_canonical(&mut engine));
    }

    #[test]
    fn only_exact_pins_of_every_group_column_are_filed() {
        let (src, port) = (|| Expr::col("src"), || Expr::col("port"));
        let lit = |v: Value| Expr::Const(v);
        let and = |l: Expr, r: Expr| Expr::And(Box::new(l), Box::new(r));
        let eq = |l: Expr, r: Expr| Expr::cmp(CmpOp::Eq, l, r);
        let one = ["src".to_string()];
        let two = ["src".to_string(), "port".to_string()];
        let filed = |cols: &[String], p: Expr| filing_key(cols, &p).map(String::from);
        let key = |k: &str| Some(k.to_string());

        // Filed: the store's key of the constants, in GROUP BY order.
        assert_eq!(filed(&one, Expr::eq("src", "a")), key("s:a"));
        assert_eq!(filed(&one, eq(lit("a".into()), src())), key("s:a"));
        assert_eq!(filed(&one, Expr::eq("src", true)), key("b:true"));
        assert_eq!(
            filed(&one, Expr::eq("src", Value::bytes([0xab, 1]))),
            key("x:ab01")
        );
        let both = and(Expr::eq("port", false), eq(lit("a".into()), src()));
        assert_eq!(filed(&two, both), key("s:a|b:false"));
        // A lone `|` is unambiguous with one column, but stays scanned.
        assert_eq!(filed(&one, Expr::eq("src", "a|b")), None);

        // Scanned: numbers, which compare across types...
        assert_eq!(filed(&one, Expr::eq("src", 5i64)), None);
        assert_eq!(filed(&one, Expr::eq("src", 5.0)), None);
        assert_eq!(filed(&one, Expr::eq("src", Value::Null)), None);
        // ...anything but `=`, `AND` of `=`, column against constant...
        assert_eq!(
            filed(&one, Expr::cmp(CmpOp::Lt, src(), lit("a".into()))),
            None
        );
        let either = Expr::Or(
            Box::new(Expr::eq("src", "a")),
            Box::new(Expr::eq("src", "b")),
        );
        assert_eq!(filed(&one, either), None);
        assert_eq!(filed(&one, Expr::Not(Box::new(Expr::eq("src", "a")))), None);
        assert_eq!(filed(&one, eq(src(), port())), None);
        assert_eq!(
            filed(&one, and(Expr::eq("src", "a"), lit(true.into()))),
            None
        );
        assert_eq!(filed(&one, lit(true.into())), None);
        // ...a column pinned twice, a partial pin, a column not grouped on.
        assert_eq!(
            filed(&one, and(Expr::eq("src", "a"), Expr::eq("src", "b"))),
            None
        );
        assert_eq!(
            filed(&one, and(Expr::eq("src", "a"), Expr::eq("src", "a"))),
            None
        );
        assert_eq!(filed(&two, Expr::eq("src", "a")), None);
        assert_eq!(filed(&one, Expr::eq("port", "a")), None);
        let dup = ["src".to_string(), "src".to_string()];
        assert_eq!(filed(&dup, Expr::eq("src", "a")), None);

        // The engine files and unfiles as members come and go; replacing a
        // member refiles it.
        let mut engine = netmon_engine();
        let spec = |derive| MemberSpec {
            derive,
            proxy: NodeAddr(2),
            lease: 5_000_000,
            delta: DeltaMode::Deltas,
            final_ops: Vec::new(),
        };
        let indexed = |e: &WindowEngine| {
            let mut index: Vec<(String, Vec<u64>)> = e
                .index
                .iter()
                .map(|(k, ids)| (k.to_string(), ids.clone()))
                .collect();
            index.sort();
            index
        };
        engine.add_member(7, spec(Some(Expr::eq("src", "10.0.0.1"))), false, 0);
        engine.add_member(8, spec(Some(Expr::eq("src", "10.0.0.1"))), false, 0);
        engine.add_member(9, spec(Some(Expr::eq("src", 1i64))), false, 0);
        assert!(matches!(engine.members()[&9].derive, Derive::Scan(_)));
        assert_eq!(indexed(&engine), [("s:10.0.0.1".to_string(), vec![7, 8])]);
        engine.add_member(7, spec(Some(Expr::eq("src", "10.0.0.2"))), false, 0);
        assert_eq!(
            indexed(&engine),
            [
                ("s:10.0.0.1".to_string(), vec![8]),
                ("s:10.0.0.2".to_string(), vec![7])
            ]
        );
        assert!(engine.remove_member(8) && engine.remove_member(7));
        assert!(indexed(&engine).is_empty());
    }

    #[test]
    fn leases_renew_per_member_and_the_last_member_out_empties_the_engine() {
        let mut engine = netmon_engine();
        let first = *engine.members().keys().next().expect("one member");
        let member = MemberSpec {
            derive: Some(Expr::eq("src", "10.0.0.1")),
            proxy: NodeAddr(2),
            lease: 5_000_000,
            delta: DeltaMode::Snapshot,
            final_ops: Vec::new(),
        };
        engine.add_member(first + 1, member, true, 100);
        let lowest = |e: &WindowEngine| e.members().iter().next().map(|(id, m)| (*id, m.trace));
        assert_eq!(engine.members().len(), 2);
        assert_eq!(lowest(&engine), Some((first, false)));
        let initial = engine.members()[&(first + 1)].lease;
        assert_eq!(initial.expires_at, 5_000_100);
        engine
            .lease_mut(first + 1)
            .expect("member has a lease")
            .renew(initial.expires_at);
        assert!(engine.members()[&(first + 1)].lease.expires_at > initial.expires_at);
        assert_eq!(engine.diagnostics(first + 1).unwrap().lease_renewals, 1);
        assert_eq!(engine.diagnostics(first).unwrap().lease_renewals, 0);
        assert!(
            engine.lease_mut(99).is_none(),
            "unknown queries do not renew"
        );
        assert!(engine.diagnostics(99).is_none());
        assert!(engine.remove_member(first));
        assert!(!engine.remove_member(first));
        assert_eq!(lowest(&engine), Some((first + 1, true)));
        assert!(engine.remove_member(first + 1));
        assert!(engine.members().is_empty());
    }
}
