//! Query plans: UFL opgraphs and their physical operator specifications.
//!
//! PIER queries are written in UFL, a "box-and-arrow" dataflow language
//! whose programs *are* physical execution plans (§3.3.2).  A plan is a set
//! of **opgraphs**; separate opgraphs are connected through the DHT (a
//! namespace acts as the rendezvous, like a distributed Exchange), and each
//! opgraph is the unit of dissemination — it is shipped only to the nodes
//! that must run it, using one of the three distributed indexes of §3.3.3
//! (the broadcast tree, the equality index, or — once integrated — the PHT
//! range index).
//!
//! These types are plain data: they travel across the network inside
//! [`QpObject`] values and are instantiated into runtime operator state by
//! the [`executor`](crate::node).

use crate::aggregate::AggFunc;
use crate::expr::Expr;
use crate::operators::{LocalOperator, Pipeline, Projection, Selection, TopK};
use crate::pane_link::PaneStamp;
use crate::proxy::roster_len;
use crate::sharing::MemberInstall;
use crate::tuple::{ColumnChunk, Tuple, TupleBatch};
use pier_cq::{CqBudget, DeltaMode, WindowSpec};
use pier_runtime::{Duration, NodeAddr, WireSize};
use std::borrow::Cow;

/// Serializable description of a local physical operator.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorSpec {
    /// Filter by predicate.
    Selection(Expr),
    /// Project onto columns.
    Projection(Vec<String>),
    /// Keep the `k` tuples with the largest `order_col`.
    TopK {
        /// Number of tuples to keep.
        k: usize,
        /// Column ordered on (descending).
        order_col: String,
    },
    /// Distributed index join (Fetch Matches, §3.3.3): for every input tuple,
    /// fetch the objects published under `inner_namespace` with partitioning
    /// key equal to the probe column's value and join them.  Handled
    /// asynchronously by the executor; must be the last operator before the
    /// sink.
    FetchMatches {
        /// Namespace of the inner (index) relation.
        inner_namespace: String,
        /// Column of the outer tuple providing the probe key.
        probe_col: String,
        /// Table name of join-result tuples.
        output_table: String,
    },
    /// A Fetch Matches join whose probe column already holds the inner
    /// relation's exact partitioning-key string — the *tupleID* of a
    /// secondary-index entry (§3.3.3).  The index entry is the outer
    /// relation; the executor follows the tupleID with a DHT `get` to fetch
    /// the base tuples.  Like [`OperatorSpec::FetchMatches`], it is handled
    /// by the executor and must be the last operator before the sink.
    FetchByTupleId {
        /// Namespace of the base relation the tupleID points into.
        inner_namespace: String,
        /// Column of the outer tuple holding the tupleID (partition-key
        /// string) of the base tuple.
        id_col: String,
        /// Table name of join-result tuples.
        output_table: String,
    },
}

impl OperatorSpec {
    /// Instantiate the operator.  `None` for the two Fetch Matches joins,
    /// which are coordinated by the executor rather than run locally.
    pub fn build(&self) -> Option<Box<dyn LocalOperator + Send>> {
        match self {
            OperatorSpec::Selection(p) => Some(Box::new(Selection::new(p.clone()))),
            OperatorSpec::Projection(cols) => Some(Box::new(Projection::new(cols.clone()))),
            OperatorSpec::TopK { k, order_col } => Some(Box::new(TopK::new(*k, order_col.clone()))),
            OperatorSpec::FetchMatches { .. } | OperatorSpec::FetchByTupleId { .. } => None,
        }
    }
}

/// Run `rows` through the finishing pipeline `final_ops` describes (the
/// `TOP k` tail applied to merged aggregates at a root) and flush it: what
/// streamed out, then what the stateful stages had buffered.
pub fn finish_rows(final_ops: &[OperatorSpec], rows: &TupleBatch) -> Vec<Tuple> {
    let mut finisher = Pipeline::new(final_ops.iter().filter_map(OperatorSpec::build).collect());
    let mut out = finisher.push_batch(rows).into_tuples();
    out.extend(finisher.flush());
    out
}

/// What one operator spec costs on the wire: a coarse but monotone
/// estimate, as specs are small compared to data.
pub(crate) const SPEC_BYTES: usize = 32;

impl WireSize for OperatorSpec {
    fn wire_size(&self) -> usize {
        SPEC_BYTES
    }
}

/// Where an opgraph's input tuples come from.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceSpec {
    /// Tuples of a table: both rows stored locally at the node (the access
    /// method over node-local data such as its own firewall log) and rows of
    /// the DHT-published partition this node is responsible for, plus any
    /// new rows that arrive while the query runs.
    Table {
        /// Table namespace.
        namespace: String,
    },
}

impl SourceSpec {
    /// The namespace this source reads.
    pub fn namespace(&self) -> &str {
        match self {
            SourceSpec::Table { namespace } => namespace,
        }
    }
}

/// A two-input symmetric-hash join consumed from a rehash namespace: tuples
/// of `left_table` and `right_table` arrive interleaved and join on
/// `left_key = right_key`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Table name identifying left-side tuples.
    pub left_table: String,
    /// Table name identifying right-side tuples.
    pub right_table: String,
    /// Left join-key columns.
    pub left_key: Vec<String>,
    /// Right join-key columns.
    pub right_key: Vec<String>,
    /// Table name of join results.
    pub output_table: String,
}

/// Where an opgraph's output tuples go.
#[derive(Debug, Clone, PartialEq)]
pub enum SinkSpec {
    /// Send result tuples directly to the query's proxy node.
    ToProxy,
    /// Repartition by key through the DHT (the Put/Exchange operator): each
    /// tuple is published under `namespace` hashed on `key_cols`, where the
    /// consuming opgraph picks it up.
    Rehash {
        /// Rendezvous namespace.
        namespace: String,
        /// Hashing attributes.
        key_cols: Vec<String>,
    },
    /// Hierarchical aggregation (§3.3.4): aggregate locally, ship partials
    /// up an aggregation tree rooted at the query-specific root identifier,
    /// combine en route, and apply `final_ops` at the root before forwarding
    /// the answer to the proxy, once, one `hold` before the timeout.  Runs
    /// in a window engine over panes of `hold`.
    HierarchicalAgg {
        /// Grouping columns.
        group_cols: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggFunc>,
        /// How long a node folds partials before shipping them up (see
        /// [`aggregation_hold`]).
        hold: Duration,
        /// Operators applied to the merged result at the root (e.g. top-k):
        /// the one place a stateful finisher goes, as [`finish_rows`]
        /// flushes it and [`OpGraph::ops`] is never flushed.
        final_ops: Vec<OperatorSpec>,
        /// When true, partials are sent straight to the root's address
        /// (flat aggregation) instead of hop-by-hop combination; used as the
        /// baseline in the hierarchical-aggregation ablation.
        flat: bool,
    },
    /// Windowed continuous aggregation (the `pier-cq` subsystem): tuples are
    /// folded into tumbling/sliding time windows at each node; closed-window
    /// partials travel toward the query's window root (combining en route at
    /// upcall hops), and the root streams per-window results to the proxy as
    /// snapshots or insert/retract deltas.
    WindowedAgg {
        /// The tumbling/sliding window specification.
        window: WindowSpec,
        /// Grouping columns within each window.
        group_cols: Vec<String>,
        /// Aggregates to compute per window and group.
        aggs: Vec<AggFunc>,
        /// Column carrying the event time (virtual-time microseconds);
        /// tuples without it fall back to arrival time.
        time_col: Option<String>,
        /// Snapshot or insert/retract output semantics.
        delta: DeltaMode,
        /// Operators applied to each window's merged result at the root
        /// (e.g. top-k) before streaming to the proxy: the one place a
        /// stateful finisher goes, as [`finish_rows`] flushes it and
        /// [`OpGraph::ops`] is never flushed.
        final_ops: Vec<OperatorSpec>,
    },
}

impl SinkSpec {
    /// The sink aggregates in a window engine: windowed, or one-shot.
    pub fn aggregates(&self) -> bool {
        matches!(
            self,
            SinkSpec::WindowedAgg { .. } | SinkSpec::HierarchicalAgg { .. }
        )
    }
}

/// How a plan (or a single opgraph) is shipped to the nodes that must run it.
#[derive(Debug, Clone, PartialEq)]
pub enum Dissemination {
    /// Broadcast over the distribution tree — the true-predicate index.
    Broadcast,
    /// Route to the single node responsible for `hash(namespace, key)` — the
    /// equality-predicate index.
    ByKey {
        /// Table namespace the predicate constrains.
        namespace: String,
        /// Canonical key string of the equality constant.
        key: String,
    },
    /// Route to the nodes responsible for the PHT-style range-index buckets
    /// overlapping a range predicate (§3.3.3 "Range Index Substrate"); the
    /// bucket keys are computed by
    /// [`range_index::RangeIndexConfig::buckets_for_range`](crate::range_index::RangeIndexConfig::buckets_for_range).
    ByRange {
        /// Table namespace the predicate constrains.
        namespace: String,
        /// Partition keys of the overlapping buckets.
        bucket_keys: Vec<String>,
    },
    /// Install only at the proxy (used for purely local queries and tests).
    Local,
}

/// One operator graph: source → local operators → sink.
#[derive(Debug, Clone, PartialEq)]
pub struct OpGraph {
    /// Identifier unique within the plan.
    pub id: u32,
    /// Input.
    pub source: SourceSpec,
    /// Optional two-input join fed by the source namespace.
    pub join: Option<JoinSpec>,
    /// Local operator pipeline.  It is pushed and never flushed, so it holds
    /// streaming operators only (a selection, a projection, a Fetch Matches
    /// join last); a stateful finisher such as [`OperatorSpec::TopK`]
    /// belongs in a sink's `final_ops`, which [`finish_rows`] flushes.
    pub ops: Vec<OperatorSpec>,
    /// Output.
    pub sink: SinkSpec,
}

/// The soft-state lifecycle of a *continuous* query (the `pier-cq`
/// subsystem): how often the proxy renews the standing query, how long each
/// renewal leases it at a node, and the work/state budget every node
/// enforces for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CqSpec {
    /// Lease renewal period: the proxy's renewal clock runs at the smallest
    /// one among its standing queries, and each round names them all on one
    /// roster.  Renewal doubles as churn repair: nodes that joined or
    /// restarted after the original dissemination pull the plan on the next
    /// round.
    pub renew_every: Duration,
    /// Lease granted by the installation and by each renewal; a node missing renewals
    /// uninstalls the query when the lease lapses.
    pub lease: Duration,
    /// Per-node work/state bound for the query's window state.
    pub budget: CqBudget,
}

impl Default for CqSpec {
    fn default() -> Self {
        let renew_every = 10_000_000; // 10 s
        CqSpec {
            renew_every,
            lease: renew_every * 3,
            budget: CqBudget::default(),
        }
    }
}

impl CqSpec {
    /// Shortest accepted renewal period — a renewal round is a broadcast, so
    /// sub-second periods would flood the overlay.
    pub const MIN_RENEW_EVERY: Duration = 1_000_000;

    /// A lifecycle renewing every `renew_every` microseconds (clamped to
    /// [`CqSpec::MIN_RENEW_EVERY`]) with the conventional 3× lease.
    pub fn renewing_every(renew_every: Duration) -> Self {
        let renew_every = renew_every.max(Self::MIN_RENEW_EVERY);
        CqSpec {
            renew_every,
            lease: renew_every.saturating_mul(3),
            budget: CqBudget::default(),
        }
    }
}

impl WireSize for CqSpec {
    fn wire_size(&self) -> usize {
        16 + self.budget.wire_size()
    }
}

/// A complete query plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Query identifier (assigned by the proxy when 0).
    pub query_id: u64,
    /// The proxy node results are forwarded to.
    pub proxy: NodeAddr,
    /// How the plan reaches the participating nodes.
    pub dissemination: Dissemination,
    /// The opgraphs making up the plan.
    pub opgraphs: Vec<OpGraph>,
    /// Lifetime of the query: execution stops when it expires (§3.3.2 uses
    /// timeouts for both snapshot and continuous queries).
    pub timeout: Duration,
    /// Continuous queries keep delivering results until the timeout; snapshot
    /// queries deliver what the timeout has collected.
    pub continuous: bool,
    /// Soft-state lifecycle for continuous queries; `None` for one-shot
    /// queries (install once, die at the timeout).
    pub cq: Option<CqSpec>,
    /// The tenant this query is billed to (admission control charges the
    /// plan's predicted cost against this tenant's SLO budget; `0` is the
    /// anonymous default tenant).
    pub tenant: u64,
    /// Shed-to-sampling modulus stamped by admission control before
    /// dissemination: every node keeps only one in `sample_every` source
    /// rows for this query.  `1` (the default) is full fidelity.  The
    /// counter is per query per node, so equal-seed runs thin identically.
    pub sample_every: u32,
    /// The query is traced: stamped **once at the proxy** (a deterministic
    /// 1-in-N draw from the proxy's seeded RNG, or forced by a sqlish
    /// `EXPLAIN ANALYZE` prefix) and disseminated with the plan, so every
    /// participating node agrees on the sampling decision without
    /// re-rolling.  Traced queries record `pier-trace` spans and attach
    /// wire trace contexts; untraced queries pay one boolean test.
    pub trace: bool,
}

impl QueryPlan {
    /// The aggregation-tree root key for this query (hashing it yields the
    /// root identifier named in the query, §3.3.4).
    pub fn agg_root_key(&self) -> String {
        format!("q{}.agg-root", self.query_id)
    }

    /// Namespace under which this query's closed-window partials travel.
    pub fn window_namespace(&self) -> String {
        format!("q{}.windows", self.query_id)
    }

    /// The windowed-aggregation sink of this plan, if any.
    pub fn windowed_sink(&self) -> Option<(usize, &SinkSpec)> {
        self.opgraphs
            .iter()
            .enumerate()
            .find(|(_, g)| matches!(g.sink, SinkSpec::WindowedAgg { .. }))
            .map(|(i, g)| (i, &g.sink))
    }
}

/// True for table names of the query-scoped form `q{digits}.{suffix}` — the
/// namespaces queries intern per installation (`q{id}.agg`, `q{id}.wp`,
/// `q{id}.win`, `q{id}.partials`, …): derived data, which shedding to a
/// sample passes untouched.  User tables that merely start with `q` do not
/// match.
pub(crate) fn is_query_scoped_table(table: &str) -> bool {
    let Some(rest) = table.strip_prefix('q') else {
        return false;
    };
    let Some(dot) = rest.find('.') else {
        return false;
    };
    !rest[..dot].is_empty() && rest.as_bytes()[..dot].iter().all(u8::is_ascii_digit)
}

impl WireSize for QueryPlan {
    fn wire_size(&self) -> usize {
        // 64 covers the fixed header (ids, proxy, timeout, tenant, the
        // sampling modulus and the trace flag); opgraphs are priced per
        // spec below.
        64 + self
            .opgraphs
            .iter()
            .map(|g| 48 + g.ops.iter().map(WireSize::wire_size).sum::<usize>())
            .sum::<usize>()
    }
}

/// Values stored in (and routed through) the DHT by the query processor.
#[derive(Debug, Clone, PartialEq)]
pub enum QpObject {
    /// A base or derived data tuple: a lone published row, or the one row
    /// a rehash flush holds for a partition key.
    Tuple(Tuple),
    /// A batch of same-destination tuples coalesced into one transfer (the
    /// executor's rehash/exchange path); unpacked back into per-tuple
    /// dataflow at the receiving node.
    Batch(TupleBatch),
    /// Closed-pane partials on one hop toward their window root, numbered
    /// in the sender's stream so the hop that absorbs them can ask for a
    /// lost one again ([`crate::pane_link`]).
    Panes {
        /// Sender, incarnation and number.
        stamp: PaneStamp,
        /// The partials.
        batch: TupleBatch,
    },
    /// A query plan being disseminated.
    Plan(QueryPlan),
    /// A standing plan broadcast by its constants, because it joins a
    /// share group live at its proxy ([`MemberInstall`]).
    Member(MemberInstall),
    /// A proxy's lease roster: the standing broadcast queries it still
    /// owns, ascending.  A holder renews the lease of each it has installed
    /// and pulls the plans of the ones it lacks from `proxy` — renew by
    /// name, re-put only where the renew fails (§3.2.4, Table 2).  The ids
    /// go frame of reference when that is shorter
    /// ([`crate::proxy::encode_roster`]).
    Renew {
        /// The proxy whose round this is (where a missing plan is pulled).
        proxy: NodeAddr,
        /// The standing queries being renewed.
        queries: Vec<u64>,
        /// A standing plan submitted while the round was open, that the
        /// round rides on: installed before the roster is read.
        plan: Option<Box<Install>>,
    },
}

/// A standing query crossing the tree to be installed: whole, or by its
/// constants when it joins a share group live at its proxy.
#[derive(Debug, Clone, PartialEq)]
pub enum Install {
    /// The whole plan.
    Plan(QueryPlan),
    /// The member form.
    Member(MemberInstall),
}

impl Install {
    /// The query being installed.
    pub fn query_id(&self) -> u64 {
        match self {
            Install::Plan(plan) => plan.query_id,
            Install::Member(m) => m.query_id,
        }
    }
}

/// The byte before an install (the presence byte of `Renew.plan`) says
/// which form follows.
impl WireSize for Install {
    fn wire_size(&self) -> usize {
        match self {
            Install::Plan(plan) => plan.wire_size(),
            Install::Member(m) => m.wire_size(),
        }
    }
}

impl QpObject {
    /// Number of data tuples this object carries (0 for plans).
    pub fn tuple_count(&self) -> usize {
        match self {
            QpObject::Tuple(_) => 1,
            QpObject::Batch(b) | QpObject::Panes { batch: b, .. } => b.len(),
            QpObject::Plan(_) | QpObject::Member(_) | QpObject::Renew { .. } => 0,
        }
    }

    /// Iterate the data tuples this object carries: one for
    /// [`QpObject::Tuple`], all of them (materialised lazily from the
    /// columnar chunks; values are shared, not copied) for
    /// [`QpObject::Batch`] and [`QpObject::Panes`], none for plans.
    /// Batch-aware consumers should walk [`QpObject::chunks`] instead.
    pub fn iter_tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        let (single, batch) = match self {
            QpObject::Tuple(t) => (Some(t.clone()), None),
            QpObject::Batch(b) | QpObject::Panes { batch: b, .. } => (None, Some(b.iter())),
            QpObject::Plan(_) | QpObject::Member(_) | QpObject::Renew { .. } => (None, None),
        };
        single.into_iter().chain(batch.into_iter().flatten())
    }

    /// The data this object carries as columnar chunks: a batch's own, a
    /// single tuple as a one-row chunk, none for plans — what chunk-native
    /// consumers walk whichever way the sender shipped.
    pub fn chunks(&self) -> Cow<'_, [ColumnChunk]> {
        match self {
            QpObject::Tuple(t) => Cow::Owned(vec![ColumnChunk::from_tuple(t)]),
            QpObject::Batch(b) | QpObject::Panes { batch: b, .. } => Cow::Borrowed(b.chunks()),
            QpObject::Plan(_) | QpObject::Member(_) | QpObject::Renew { .. } => Cow::Borrowed(&[]),
        }
    }

    /// Consume the object into its data tuples (empty for plans).
    pub fn into_tuples(self) -> Vec<Tuple> {
        match self {
            QpObject::Tuple(t) => vec![t],
            QpObject::Batch(b) | QpObject::Panes { batch: b, .. } => b.into_tuples(),
            QpObject::Plan(_) | QpObject::Member(_) | QpObject::Renew { .. } => Vec::new(),
        }
    }
}

impl WireSize for QpObject {
    fn wire_size(&self) -> usize {
        1 + match self {
            QpObject::Tuple(t) => t.wire_size(),
            QpObject::Batch(b) => b.wire_size(),
            QpObject::Panes { stamp, batch } => stamp.wire_size() + batch.wire_size(),
            QpObject::Plan(p) => p.wire_size(),
            QpObject::Member(m) => m.wire_size(),
            // The proxy's address, the encoded roster, and the plan the
            // round rides on.
            QpObject::Renew {
                proxy,
                queries,
                plan,
            } => proxy.wire_size() + roster_len(queries) + plan.wire_size(),
        }
    }
}

/// How long a one-shot aggregate's nodes hold partials before shipping
/// them up the tree: 2 s, or a ninth of a shorter `timeout`.  A leaf ships
/// its pane when the pane closes, within a hold of install; a relay ships
/// what it absorbed one hold after its own pane, so hop `k` ships by
/// `k + 1` holds; the root answers one hold before the timeout.  A tree
/// up to seven hops deep is thus heard in full at any timeout.
pub fn aggregation_hold(timeout: Duration) -> Duration {
    (timeout / 9).clamp(1, 2_000_000)
}

/// Panes a one-shot aggregate's engine keeps open per store: one per
/// `hold` of its `timeout`, plus the one its install falls part-way into.
/// The engine's open-pane cap and `pier-analyze`'s state bound both use it.
pub fn one_shot_panes(timeout: Duration, hold: Duration) -> u32 {
    let panes = timeout.div_ceil(hold.max(1)).saturating_add(1);
    u32::try_from(panes).unwrap_or(u32::MAX)
}

/// A convenience builder for the common single-table aggregation / selection
/// plans used by the examples and experiments.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    proxy: NodeAddr,
    dissemination: Dissemination,
    opgraphs: Vec<OpGraph>,
    timeout: Duration,
    continuous: bool,
    cq: Option<CqSpec>,
    tenant: u64,
}

impl PlanBuilder {
    /// Start building a plan whose results flow to `proxy`.
    pub fn new(proxy: NodeAddr) -> Self {
        PlanBuilder {
            proxy,
            dissemination: Dissemination::Broadcast,
            opgraphs: Vec::new(),
            timeout: 30_000_000,
            continuous: false,
            cq: None,
            tenant: 0,
        }
    }

    /// Bill the query to `tenant` (see [`QueryPlan::tenant`]).
    pub fn tenant(mut self, tenant: u64) -> Self {
        self.tenant = tenant;
        self
    }

    /// Set the dissemination strategy.
    pub fn dissemination(mut self, d: Dissemination) -> Self {
        self.dissemination = d;
        self
    }

    /// Set the query timeout.
    pub fn timeout(mut self, t: Duration) -> Self {
        self.timeout = t;
        self
    }

    /// Mark the query as continuous.
    pub fn continuous(mut self, yes: bool) -> Self {
        self.continuous = yes;
        self
    }

    /// Attach a continuous-query lifecycle (implies `continuous`).
    pub fn cq(mut self, spec: CqSpec) -> Self {
        self.cq = Some(spec);
        self.continuous = true;
        self
    }

    /// Add an opgraph.
    pub fn opgraph(mut self, graph: OpGraph) -> Self {
        self.opgraphs.push(graph);
        self
    }

    /// Finish building.
    pub fn build(self) -> QueryPlan {
        QueryPlan {
            query_id: 0,
            proxy: self.proxy,
            dissemination: self.dissemination,
            opgraphs: self.opgraphs,
            timeout: self.timeout,
            continuous: self.continuous,
            cq: self.cq,
            tenant: self.tenant,
            sample_every: 1,
            trace: false,
        }
    }

    /// Shorthand for a broadcast select-project query over one table.
    pub fn select(
        proxy: NodeAddr,
        table: &str,
        predicate: Expr,
        columns: Vec<String>,
        timeout: Duration,
    ) -> QueryPlan {
        let mut ops = vec![OperatorSpec::Selection(predicate)];
        if !columns.is_empty() {
            ops.push(OperatorSpec::Projection(columns));
        }
        PlanBuilder::new(proxy)
            .timeout(timeout)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: table.to_string(),
                },
                join: None,
                ops,
                sink: SinkSpec::ToProxy,
            })
            .build()
    }

    /// Shorthand for one *tenant* of the multi-query monitoring workload: a
    /// windowed grouped count restricted to a single group constant
    /// (`WHERE group_col = watched`).  Plans built this way for different
    /// `watched` constants are identical up to the constant, so a sharing
    /// layer (`pier-mqo`) normalizes them into one share group; without a
    /// layer each runs as an independent continuous query.
    pub fn windowed_filtered_count(
        proxy: NodeAddr,
        table: &str,
        group_col: &str,
        watched: impl Into<crate::value::Value>,
        window: WindowSpec,
        cq: CqSpec,
        timeout: Duration,
    ) -> QueryPlan {
        PlanBuilder::new(proxy)
            .timeout(timeout)
            .cq(cq)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: table.to_string(),
                },
                join: None,
                ops: vec![OperatorSpec::Selection(Expr::eq(group_col, watched))],
                sink: SinkSpec::WindowedAgg {
                    window,
                    group_cols: vec![group_col.to_string()],
                    aggs: vec![AggFunc::Count],
                    time_col: Some("ts".to_string()),
                    delta: DeltaMode::Snapshot,
                    final_ops: vec![],
                },
            })
            .build()
    }

    /// Shorthand for the Figure-2 style "top-k grouped count" query computed
    /// with hierarchical aggregation.
    pub fn top_k_group_count(
        proxy: NodeAddr,
        table: &str,
        group_col: &str,
        k: usize,
        timeout: Duration,
    ) -> QueryPlan {
        PlanBuilder::new(proxy)
            .timeout(timeout)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: table.to_string(),
                },
                join: None,
                ops: vec![],
                sink: SinkSpec::HierarchicalAgg {
                    group_cols: vec![group_col.to_string()],
                    aggs: vec![AggFunc::Count],
                    hold: aggregation_hold(timeout),
                    final_ops: vec![OperatorSpec::TopK {
                        k,
                        order_col: "count".to_string(),
                    }],
                    flat: false,
                },
            })
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    /// One case per spec, matched with no wildcard arm: a variant added
    /// without a planner that emits it fails to compile here.
    #[test]
    fn operator_specs_build_local_operators() {
        let specs = [
            OperatorSpec::Selection(Expr::eq("a", 1i64)),
            OperatorSpec::Projection(vec!["a".into()]),
            OperatorSpec::TopK {
                k: 3,
                order_col: "count".into(),
            },
            OperatorSpec::FetchMatches {
                inner_namespace: "inv".into(),
                probe_col: "k".into(),
                output_table: "j".into(),
            },
            OperatorSpec::FetchByTupleId {
                inner_namespace: "base".into(),
                id_col: "tuple_id".into(),
                output_table: "j".into(),
            },
        ];
        for spec in &specs {
            let local = match spec {
                // `sqlish`'s WHERE, `range_index`'s range test and
                // `secondary_index`'s entry filter.
                OperatorSpec::Selection(_) => true,
                // `sqlish`'s SELECT list and `range_index`'s projection.
                OperatorSpec::Projection(_) => true,
                // `sqlish`'s `TOP k BY col` finisher in `final_ops`.
                OperatorSpec::TopK { .. } => true,
                // The Fetch Matches joins the harness and benchmark build.
                OperatorSpec::FetchMatches { .. } => false,
                // `secondary_index`'s tupleID follow.
                OperatorSpec::FetchByTupleId { .. } => false,
            };
            assert_eq!(spec.build().is_some(), local, "{spec:?}");
        }
    }

    #[test]
    fn windowed_filtered_count_builds_a_share_eligible_shape() {
        use pier_cq::WindowSpec;
        let plan = PlanBuilder::windowed_filtered_count(
            NodeAddr(2),
            "packets",
            "src",
            "10.0.0.9",
            WindowSpec::sliding(2_000_000, 1_000_000),
            CqSpec::default(),
            60_000_000,
        );
        assert!(plan.cq.is_some());
        assert!(matches!(plan.dissemination, Dissemination::Broadcast));
        let graph = &plan.opgraphs[0];
        assert!(matches!(&graph.ops[..], [OperatorSpec::Selection(_)]));
        match &graph.sink {
            SinkSpec::WindowedAgg { group_cols, .. } => {
                assert_eq!(group_cols, &vec!["src".to_string()]);
            }
            other => panic!("unexpected sink {other:?}"),
        }
    }

    #[test]
    fn builder_shorthands_produce_expected_shapes() {
        let select = PlanBuilder::select(
            NodeAddr(3),
            "files",
            Expr::eq("keyword", "rock"),
            vec!["file".into()],
            10_000_000,
        );
        assert_eq!(select.opgraphs.len(), 1);
        assert_eq!(select.proxy, NodeAddr(3));
        assert!(matches!(select.opgraphs[0].sink, SinkSpec::ToProxy));
        assert_eq!(select.opgraphs[0].ops.len(), 2);

        let topk = PlanBuilder::top_k_group_count(NodeAddr(0), "events", "src", 10, 20_000_000);
        match &topk.opgraphs[0].sink {
            SinkSpec::HierarchicalAgg {
                group_cols,
                final_ops,
                flat,
                ..
            } => {
                assert_eq!(group_cols, &vec!["src".to_string()]);
                assert_eq!(final_ops.len(), 1);
                assert!(!flat);
            }
            other => panic!("unexpected sink {other:?}"),
        }
    }

    #[test]
    fn query_specific_names_include_the_query_id() {
        let mut plan = PlanBuilder::select(NodeAddr(0), "t", Expr::all(vec![]), vec![], 1_000);
        plan.query_id = 42;
        assert_eq!(plan.agg_root_key(), "q42.agg-root");
    }

    #[test]
    fn qp_object_wire_size_scales_with_contents() {
        let small = QpObject::Tuple(Tuple::new("t", vec![("a", crate::value::Value::Int(1))]));
        let plan = QpObject::Plan(PlanBuilder::select(
            NodeAddr(0),
            "t",
            Expr::all(vec![]),
            vec![],
            1_000,
        ));
        assert!(small.wire_size() > 10);
        assert!(plan.wire_size() > 64);
        assert_eq!(small.tuple_count(), 1);
        assert_eq!(plan.tuple_count(), 0);
    }

    /// A one-query roster is priced as it was before rosters had a
    /// frame-of-reference layout: the tag, the proxy's address, a four-byte
    /// count, the eight-byte id and the absent ride's presence byte.  A
    /// roster of one proxy's ids costs a byte an id past its frame.
    #[test]
    fn a_one_id_roster_prices_as_a_plain_roster() {
        let renew = |queries: Vec<u64>| QpObject::Renew {
            proxy: NodeAddr(3),
            queries,
            plan: None,
        };
        let id = (3u64 << 32) | 17;
        assert_eq!(renew(vec![id]).wire_size(), 1 + 6 + 4 + 8 + 1);
        let ids: Vec<u64> = (0..25).map(|seq| id + seq).collect();
        assert_eq!(renew(ids).wire_size(), 1 + 6 + (4 + 8 + 1 + 25) + 1);
    }

    /// A member form costs the widths the plan model gives its fields, and
    /// less than the plan it stands for only by what it leaves out.
    #[test]
    fn a_member_form_prices_its_fields() {
        use crate::sharing::MemberInstall;
        use crate::window_engine::MemberSpec;
        let member = MemberSpec {
            derive: Some(Expr::Const(crate::value::Value::Bool(true))),
            proxy: NodeAddr(3),
            lease: 15_000_000,
            delta: pier_cq::DeltaMode::Snapshot,
            final_ops: vec![OperatorSpec::TopK {
                k: 3,
                order_col: "count".into(),
            }],
        };
        let form = QpObject::Member(MemberInstall {
            group: 1,
            query_id: 2,
            timeout: 3,
            member,
        });
        // Tag; group, id, timeout; predicate behind its presence byte;
        // proxy; lease; output mode; one finisher behind its count.
        assert_eq!(form.wire_size(), 1 + 24 + (1 + 32) + 6 + 8 + 1 + (4 + 32));
    }
}
