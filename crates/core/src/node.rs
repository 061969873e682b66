//! The PIER node program: query executor over the overlay.
//!
//! A [`PierNode`] is the "Program" box of Figures 3 and 4 with the query
//! processor included: it embeds an [`Overlay`] (the DHT wrapper), installs
//! opgraphs that arrive via query dissemination, runs their local dataflow
//! over locally stored and DHT-partitioned data, and uses the overlay for
//! the distributed parts of query execution exactly as §3.3.6 enumerates —
//! query dissemination, hash indexes, partitioned parallelism (rehash),
//! operator state, and hierarchical operators.
//!
//! Life of a query (§3.3.2): a client hands a [`QueryPlan`] to any node
//! (its *proxy*) through [`PierNode::submit_query`]; the proxy disseminates
//! the plan (broadcast tree, equality index, or locally), every receiving
//! node instantiates the opgraphs and starts feeding them; answer rows are
//! forwarded to the proxy as the chunks the operators produced, and the
//! proxy turns them into the client's tuples ([`crate::proxy`]); execution
//! stops when the query's timeout expires.

use crate::admission::{AdmissionControl, AdmissionFactory, AdmissionVerdict, SloPolicy};
use crate::operators::{GroupBy, JoinSide, LocalOperator, Pipeline, SymmetricHashJoin};
use crate::plan::{
    finish_rows, CqSpec, Dissemination, OpGraph, OperatorSpec, QpObject, QueryPlan, SinkSpec,
};
use crate::proxy::{MemberRun, PierOut, Proxy, WindowBundle};
use crate::sharing::{
    is_share_scoped_table, InstallOutcome, Membership, MultiQuerySharing, SharingFactory,
    SharingStats,
};
use crate::tuple::{ColumnChunk, SchemaRegistry, Tuple, TupleBatch};
use crate::value::Value;
use crate::window_engine::{CqDiagnostics, EngineSpec, WindowEngine, OCCUPANCY_GAUGES};
use pier_cq::{DurableStore, LeaseStatus};
use pier_dht::{
    routing_id, DhtMessage, Id, NodeRef, ObjectName, Overlay, OverlayConfig, OverlayEffect,
    OverlayEvent, OverlayTimer,
};
use pier_runtime::{Duration, NodeAddr, Program, ProgramContext, Rng64, SimTime, WireSize};
use pier_telemetry::{SpanRecord, Telemetry, TelemetryConfig};
use pier_trace::{trace_id_for, TraceConfig, TraceContext};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Upper bound on how long a rehash tuple may sit in the batch buffer before
/// the periodic flush tick ships it.
const BATCH_FLUSH_INTERVAL: Duration = 100_000;

/// Tuning knobs for a PIER node.
#[derive(Debug, Clone)]
pub struct PierConfig {
    /// Overlay configuration.
    pub overlay: OverlayConfig,
    /// Soft-state lifetime used when publishing tuples and partial results.
    pub publish_lifetime: Duration,
    /// Coalesce same-destination tuples into [`TupleBatch`] transfers on the
    /// rehash/exchange and partial-aggregate paths (one overlay operation
    /// per destination per flush instead of one per tuple).  Disable to get
    /// the paper's original per-tuple `put` behaviour (the baseline of the
    /// batching-equivalence tests).
    pub batching: bool,
    /// Rehash tuples buffered per node before an early flush.
    pub batch_max_tuples: usize,
    /// Optional multi-query sharing layer constructor (`pier_mqo::layer`):
    /// when set, disseminated plans are offered to the layer first and
    /// constant-varied continuous queries execute as share-group members
    /// instead of independent dataflows.  `None` (the default) preserves
    /// per-query execution exactly.
    pub sharing: Option<SharingFactory>,
    /// Self-monitoring telemetry: disabled by default (zero overhead beyond
    /// one discriminant check per instrumentation point).  When enabled the
    /// node keeps a [`pier_telemetry::TelemetryHub`] of counters, gauges,
    /// histograms and a bounded trace ring; when
    /// [`TelemetryConfig::publish_interval`] is also set the node
    /// periodically materialises its hub as tuples into the
    /// `system.metrics` DHT namespace so standing queries can monitor the
    /// cluster through PIER itself.
    pub telemetry: TelemetryConfig,
    /// Durable window segments: when set, every window tick snapshots the
    /// ticking engine's window state into this [`DurableStore`] (keys
    /// `q{id}.local` / `q{id}.root` for an unshared query,
    /// `g{fp:016x}.local` / `g{fp:016x}.root` for a share group), and a
    /// node restarted with the *same* store handle rehydrates warm windows
    /// when it pulls the query back after the next lease roster, instead of
    /// recomputing retained panes from scratch.  `None` (the default) keeps
    /// all state soft.
    pub durable: Option<DurableStore>,
    /// Optional admission-control layer constructor (`pier_analyze`): when
    /// set, every plan submitted at this node is statically costed *before
    /// dissemination* and admitted, degraded to a sampled plan, or rejected
    /// with a machine-readable report ([`PierOut::Admission`]).  `None`
    /// (the default) admits everything unconditionally.
    pub admission: Option<AdmissionFactory>,
    /// Per-tenant SLO budgets and the deployment assumptions the admission
    /// layer's cost model scales by.  Ignored without
    /// [`PierConfig::admission`].
    pub slo: SloPolicy,
    /// Distributed tracing (`pier-trace`): off by default.  When
    /// [`TraceConfig::sample_every`] is nonzero the proxy samples one in N
    /// submitted queries with a seeded-RNG draw (an `EXPLAIN ANALYZE` plan
    /// arrives pre-marked and skips the roll); sampled queries record
    /// virtual-time spans through the telemetry hub and their trace context
    /// travels on the wire.  With tracing off the RNG is never drawn and no
    /// context is attached, so runs stay byte-identical — results *and*
    /// message sizes — to a build without tracing.  Spans are inert unless
    /// [`PierConfig::telemetry`] is also enabled.
    pub trace: TraceConfig,
}

impl Default for PierConfig {
    fn default() -> Self {
        PierConfig {
            overlay: OverlayConfig::default(),
            publish_lifetime: 600_000_000,
            batching: true,
            batch_max_tuples: 64,
            sharing: None,
            telemetry: TelemetryConfig::default(),
            durable: None,
            admission: None,
            slo: SloPolicy::default(),
            trace: TraceConfig::off(),
        }
    }
}

/// Messages exchanged between PIER nodes.
// Nearly every message is the large variant, `Dht`: boxing it would buy an
// allocation per message to shrink the rare ones.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PierMsg {
    /// Overlay traffic (routing, get/put/send/renew, broadcast).
    Dht(DhtMessage<QpObject>),
    /// Answer rows flowing back to the query's proxy node, as the chunks
    /// the sink was handed.
    Results {
        /// Query the rows belong to.
        query_id: u64,
        /// The answer rows.
        rows: TupleBatch,
    },
    /// One window's results streamed from a window root to a proxy: one
    /// message per (proxy, window) per root tick, carrying every member
    /// query of that proxy the tick emitted for.  Distinct windows stay
    /// distinct messages, so a refinement of an older window never rides in
    /// front of the newest window's rows.
    WindowResults {
        /// Window start (virtual-time microseconds, inclusive).
        window_start: SimTime,
        /// Window end (exclusive).  The rows do not repeat the bounds.
        window_end: SimTime,
        /// Every member's rows under the engine's `{tag}.win` schema — one
        /// chunk — member by member, retractions before inserts.
        rows: TupleBatch,
        /// Per member query, in emission order: its run of `rows`.
        members: Vec<MemberRun>,
    },
    /// A node that received a lease roster naming queries it does not hold
    /// asks their proxy for the plans (the "renew failed, put it again" of
    /// §3.2.4, pulled by the holder).
    PlanRequest {
        /// The queries the sender lacks.
        queries: Vec<u64>,
    },
    /// The proxy's answer to a [`PierMsg::PlanRequest`]: the plans it still
    /// owns, each with its remaining lifetime.
    Plans {
        /// The plans to install.
        plans: Vec<QueryPlan>,
    },
}

impl WireSize for PierMsg {
    fn wire_size(&self) -> usize {
        1 + match self {
            PierMsg::Dht(m) => m.wire_size(),
            PierMsg::Results { rows, .. } => 8 + rows.wire_size(),
            PierMsg::WindowResults { rows, members, .. } => {
                16 + rows.wire_size() + members.iter().map(WireSize::wire_size).sum::<usize>()
            }
            PierMsg::PlanRequest { queries } => 4 + 8 * queries.len(),
            PierMsg::Plans { plans } => 4 + plans.iter().map(WireSize::wire_size).sum::<usize>(),
        }
    }
}

/// Timers used by a PIER node.
#[derive(Debug, Clone)]
pub enum PierTimer {
    /// Overlay maintenance.
    Overlay(OverlayTimer),
    /// Periodic flush of buffered partial aggregates up the aggregation tree.
    AggFlush {
        /// Query being flushed.
        query_id: u64,
    },
    /// Final aggregation flush at the aggregation-tree root.
    AggFinal {
        /// Query being finalized.
        query_id: u64,
    },
    /// The query's lifetime expired at this node: uninstall it.
    QueryEnd {
        /// Query being uninstalled.
        query_id: u64,
    },
    /// The proxy's view of the query lifetime expired: notify the client.
    ProxyDone {
        /// Query being completed.
        query_id: u64,
    },
    /// Periodic window maintenance for a continuous query: close due
    /// windows, forward partials toward the window root, emit per-window
    /// results at the root.  Fires every window slide.
    WindowTick {
        /// Query being ticked.
        query_id: u64,
    },
    /// Proxy-side soft-state renewal: one round of this node's renewal
    /// clock — broadcast the lease roster of the standing queries it
    /// proxies, so leases extend and churned-in nodes pull what they lack.
    CqRenew,
    /// Node-side lease check: uninstall the continuous query if its lease
    /// lapsed (the owner stopped renewing or we are partitioned away).
    CqLease {
        /// Query being checked.
        query_id: u64,
    },
    /// Ship every buffered rehash batch that the size threshold has not
    /// already flushed (the "flush on tick" half of batched transfer).
    BatchFlush,
    /// Periodic window maintenance for one **share group** of the sharing
    /// layer: one tick chain per group *incarnation*, however many member
    /// queries it serves (the shared counterpart of
    /// [`PierTimer::WindowTick`]).
    ShareTick {
        /// The share group (plan fingerprint) being ticked.
        group: u64,
        /// The group incarnation this chain was armed for; the chain stops
        /// when the live group's epoch differs (retired and re-created).
        epoch: u64,
    },
    /// Periodic self-monitoring publish: materialise the telemetry hub as a
    /// `system.metrics` tuple into the DHT (the dogfood loop — armed only
    /// when [`TelemetryConfig::publish_interval`] is set).
    MetricsPublish,
    /// Zero-delay drain of the rows [`PierNode::ingest`] staged at this
    /// virtual instant and no earlier trigger absorbed (armed on the first
    /// staged row, like [`PierTimer::BatchFlush`]).
    IngestFlush,
}

/// True for table names of the query-scoped form `q{digits}.{suffix}` — the
/// namespaces queries intern per installation (`q{id}.agg`, `q{id}.wp`,
/// `q{id}.win`, `q{id}.partials`, …) and the shapes the teardown sweep is
/// allowed to evict.  User tables that merely start with `q` do not match.
pub(crate) fn is_query_scoped_table(table: &str) -> bool {
    let Some(rest) = table.strip_prefix('q') else {
        return false;
    };
    let Some(dot) = rest.find('.') else {
        return false;
    };
    !rest[..dot].is_empty() && rest.as_bytes()[..dot].iter().all(u8::is_ascii_digit)
}

#[derive(Debug)]
struct GraphState {
    spec: OpGraph,
    pipeline: Pipeline,
    join: Option<SymmetricHashJoin>,
    /// Local + relayed partial aggregates waiting to travel up the tree.
    uplink: Option<GroupBy>,
    /// Partials merged at the aggregation-tree root.
    root_merge: Option<GroupBy>,
}

#[derive(Debug)]
struct QueryState {
    plan: QueryPlan,
    graphs: Vec<GraphState>,
    agg_root_id: Id,
    /// The opgraph feeding the query's own window engine
    /// (`EngineKey::Query`), when the plan has a windowed sink.
    cq_graph: Option<usize>,
    /// Source rows seen by a shed plan (`sample_every > 1`): the
    /// deterministic per-query per-node sampling counter.
    ingest_seen: u64,
}

/// Rehash tuples buffered per rendezvous namespace, grouped by partition
/// key so each flush performs one overlay `put` per key instead of one per
/// tuple.
#[derive(Debug, Default)]
struct RehashBuffer {
    by_key: HashMap<String, Vec<Tuple>>,
    tuples: usize,
}

/// Where arrivals in one namespace go, maintained by `install_query` /
/// `uninstall_query` so routing is one map lookup per arrival instead of a
/// `format!` scan over every installed query.
#[derive(Debug)]
enum NamespaceRoute {
    /// `q{id}.windows` / `g{fp}.windows`: closed-window partials of an
    /// engine.
    WindowPartials(EngineKey),
    /// `q{id}.partials`: partial aggregates travelling up the tree.
    AggPartials(u64),
    /// A base table or rehash namespace: the `(query, graph index)` pairs
    /// reading it, ascending.
    Sources(Vec<(u64, usize)>),
}

/// Which of this node's [`WindowEngine`]s: an unshared query's own, or a
/// share group's.  [`PierTimer::WindowTick`] and [`PierTimer::ShareTick`]
/// are the timer addresses of the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EngineKey {
    Query(u64),
    Group(u64),
}

/// An engine and what the node needs to drive it.
#[derive(Debug)]
struct EngineSlot {
    engine: WindowEngine,
    /// Routing identifier of the engine's window root.
    root_id: Id,
    /// The incarnation a firing tick timer must be for: the one a
    /// [`PierTimer::ShareTick`] carries, 0 for a query's own engine.
    epoch: u64,
    /// The timer that ticks this engine, re-armed every slide.
    tick: PierTimer,
}

/// The transfers that carry closed-window partials one hop toward their
/// root: with `batching` every row shares one [`QpObject::Batch`] (a lone
/// partial still travels as a bare tuple), without it each row is its own
/// [`QpObject::Tuple`].
fn partial_shipments(chunks: Vec<ColumnChunk>, batching: bool) -> Vec<QpObject> {
    if batching && chunks.iter().map(ColumnChunk::rows).sum::<usize>() > 1 {
        vec![QpObject::Batch(TupleBatch::from_chunks(chunks))]
    } else {
        chunks
            .iter()
            .flat_map(ColumnChunk::iter_rows)
            .map(QpObject::Tuple)
            .collect()
    }
}

/// Rows handed to [`PierNode::ingest`] that have not been absorbed yet: one
/// table at a time, all observed at the virtual instant `at`.
#[derive(Debug, Default)]
struct IngestStage {
    table: String,
    at: SimTime,
    rows: TupleBatch,
    /// A zero-delay [`PierTimer::IngestFlush`] is in flight.
    flush_armed: bool,
}

/// A PIER node: overlay + query processor, runnable under the simulator or
/// the physical runtime.
#[derive(Debug)]
pub struct PierNode {
    overlay: Overlay<QpObject>,
    bootstrap: Option<NodeAddr>,
    config: PierConfig,
    rng: Rng64,
    local_tables: HashMap<String, Vec<Tuple>>,
    queries: HashMap<u64, QueryState>,
    /// The queries submitted here and their renewal clock.
    proxy: Proxy,
    pending_fetches: HashMap<u64, (u64, usize, Tuple)>,
    next_query_seq: u64,
    rehash_buf: HashMap<String, RehashBuffer>,
    batch_timer_armed: bool,
    /// Every window engine at this node, and the engine each windowed
    /// query (unshared or share-group member) lives in.
    engines: BTreeMap<EngineKey, EngineSlot>,
    engine_of: HashMap<u64, EngineKey>,
    /// The instant the `cq.*` occupancy gauges were last summed.
    gauges_at: Option<SimTime>,
    /// Namespace routing table over the installed queries and engines.
    routes: HashMap<String, NamespaceRoute>,
    /// Streamed rows staged by `ingest`, drained through the chunk path.
    stage: IngestStage,
    /// The multi-query sharing layer (`pier-mqo`), when configured.
    sharing: Option<Box<dyn MultiQuerySharing + Send>>,
    /// The admission-control layer (`pier-analyze`), when configured.
    /// Consulted at the proxy before dissemination; absent = admit all.
    admission: Option<Box<dyn AdmissionControl + Send>>,
    /// Self-monitoring telemetry handle (shared with the overlay, the
    /// sharing layer and every installed pipeline; inert when disabled).
    tel: Telemetry,
    /// Per-node span-id sequence (`pier-trace`): ids are
    /// `(addr + 1) << 32 | seq`, cluster-unique and purely counter-derived
    /// so equal seeds allocate equal ids.
    next_span_seq: u64,
    /// Most recent span at this node that absorbed upstream work of a
    /// sampled query (`window.combine` / `window.upcall`): the parent the
    /// root's `window.emit` span links to.
    last_combine_span: HashMap<u64, u64>,
    /// Span ordinals at or above this watermark have not yet been published
    /// into `system.spans` (the dogfood loop, [`TraceConfig::publish`]).
    span_publish_cursor: u64,
}

impl PierNode {
    /// A node whose overlay routing state is precomputed from the full ring.
    pub fn with_static_ring(me: NodeRef, all: &[NodeRef], config: PierConfig) -> Self {
        let overlay = Overlay::with_static_ring(me, all, config.overlay);
        Self::build(me, overlay, None, config)
    }

    /// A node that joins an existing overlay through `bootstrap` when started.
    pub fn joining(me: NodeRef, bootstrap: Option<NodeAddr>, config: PierConfig) -> Self {
        let overlay = Overlay::new(me, config.overlay);
        Self::build(me, overlay, bootstrap, config)
    }

    fn build(
        me: NodeRef,
        mut overlay: Overlay<QpObject>,
        bootstrap: Option<NodeAddr>,
        config: PierConfig,
    ) -> Self {
        let tel = Telemetry::from_config(&config.telemetry);
        overlay.set_telemetry(tel.clone());
        let mut sharing = config.sharing.map(|factory| factory());
        if let Some(layer) = sharing.as_mut() {
            layer.set_telemetry(tel.clone());
        }
        let mut admission = config.admission.map(|factory| factory());
        if let Some(layer) = admission.as_mut() {
            layer.configure(&config.slo);
            layer.set_telemetry(&tel);
        }
        PierNode {
            overlay,
            bootstrap,
            rng: Rng64::new(me.id.0 ^ 0x9D5F),
            sharing,
            admission,
            tel,
            config,
            local_tables: HashMap::new(),
            queries: HashMap::new(),
            proxy: Proxy::default(),
            pending_fetches: HashMap::new(),
            next_query_seq: 0,
            rehash_buf: HashMap::new(),
            batch_timer_armed: false,
            engines: BTreeMap::new(),
            engine_of: HashMap::new(),
            gauges_at: None,
            routes: HashMap::new(),
            stage: IngestStage::default(),
            next_span_seq: 0,
            last_combine_span: HashMap::new(),
            span_publish_cursor: 0,
        }
    }

    /// Read access to the overlay (diagnostics, experiments).
    pub fn overlay(&self) -> &Overlay<QpObject> {
        &self.overlay
    }

    /// The node's telemetry handle (inert unless
    /// [`PierConfig::telemetry`] enables it).  Harnesses use this to read
    /// counters, sync host-level stats in as gauges, or export the trace.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Number of queries currently installed at this node, counting both
    /// independent dataflows and share-group members.
    pub fn installed_queries(&self) -> usize {
        self.queries.len() + self.sharing.as_ref().map_or(0, |l| l.stats().members)
    }

    /// Diagnostics of the multi-query sharing layer (`None` when the node
    /// was built without one).
    pub fn sharing_stats(&self) -> Option<SharingStats> {
        self.sharing.as_ref().map(|l| l.stats())
    }

    /// Queries this node proxies: submitted here and not yet `Done`.
    pub fn proxied_queries(&self) -> usize {
        self.proxy.len()
    }

    // ----- distributed tracing (pier-trace) ---------------------------------

    /// Allocate the next cluster-unique span id: node address in the high
    /// half, a per-node sequence in the low half.  Counter-derived, never
    /// random, so equal-seed runs allocate identical ids.
    fn next_span_id(&mut self, me: NodeAddr) -> u64 {
        self.next_span_seq += 1;
        ((u64::from(me.0) + 1) << 32) | self.next_span_seq
    }

    /// Append a row to a node-local table.  Rows become visible to queries
    /// over that table that are installed later; rows added while a
    /// continuous query is running are fed to it on arrival only if they are
    /// also published into the DHT.
    pub fn add_local_row(&mut self, table: &str, tuple: Tuple) {
        self.local_tables
            .entry(table.to_string())
            .or_default()
            .push(tuple);
    }

    /// Publish a tuple into the DHT-partitioned primary index of `table`,
    /// hashed on `key_cols` (§3.3.3 "a primary index in PIER is achieved by
    /// publishing a table into the DHT").
    pub fn publish(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        table: &str,
        key_cols: &[String],
        tuple: Tuple,
    ) {
        let Some(key) = tuple.partition_key(key_cols) else {
            return; // malformed tuple: nothing to hash on
        };
        self.publish_keyed(ctx, table, key, tuple);
    }

    /// Publish a tuple under an explicit partition key instead of one derived
    /// from its columns.  Used by the range index (the key is the PHT bucket
    /// label) and by any access method that wants custom placement.
    pub fn publish_keyed(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        table: &str,
        key: String,
        tuple: Tuple,
    ) {
        self.drain_ingest(ctx);
        let name = ObjectName::new(table, key, self.rng.next_u64());
        let lifetime = self.config.publish_lifetime;
        let effects = self
            .overlay
            .put(name, QpObject::Tuple(tuple), lifetime, ctx.now());
        self.drive(ctx, effects);
    }

    /// Publish a tuple together with secondary-index entries on `index_cols`
    /// (§3.3.3): the base tuple goes into the primary index hashed on
    /// `key_cols`, and one `(index-key, tupleID)` entry per indexed column
    /// goes into the corresponding index table hashed on the indexed value.
    /// Consistency between the base tuple and its entries remains the
    /// publisher's responsibility, exactly as in the paper.
    pub fn publish_with_secondary_indexes(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        table: &str,
        key_cols: &[String],
        index_cols: &[String],
        tuple: Tuple,
    ) {
        let entries = crate::secondary_index::index_entries(table, key_cols, index_cols, &tuple);
        self.publish(ctx, table, key_cols, tuple);
        let index_key_cols = crate::secondary_index::index_partition_cols();
        for entry in entries {
            let index_table = entry.table().to_string();
            self.publish(ctx, &index_table, &index_key_cols, entry);
        }
    }

    /// Publish a tuple into the range index of `table` on `column` using the
    /// PHT-style bucket addressing of [`crate::range_index`] (§3.3.3 "Range
    /// Index Substrate").  Malformed tuples (missing or non-integer column)
    /// are silently skipped.
    pub fn publish_range_indexed(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        table: &str,
        column: &str,
        config: crate::range_index::RangeIndexConfig,
        tuple: Tuple,
    ) {
        let Some(key) = crate::range_index::publish_key(column, config, &tuple) else {
            return;
        };
        self.publish_keyed(ctx, table, key, tuple);
    }

    /// Submit a query at this node, which becomes its proxy.  Returns the
    /// assigned query id; results arrive as [`PierOut::Result`] outputs and
    /// the stream is terminated by [`PierOut::Done`].
    pub fn submit_query(&mut self, ctx: &mut ProgramContext<Self>, mut plan: QueryPlan) -> u64 {
        self.drain_ingest(ctx);
        if plan.query_id == 0 {
            self.next_query_seq += 1;
            plan.query_id = ((ctx.me().0 as u64) << 32) | self.next_query_seq;
        }
        plan.proxy = ctx.me();
        // A windowed sink is a standing query: without a lifecycle nobody
        // would renew the nodes' leases and the query would silently die
        // when the default lease lapses, so one is always attached.
        if plan.cq.is_none() && plan.windowed_sink().is_some() {
            plan.cq = Some(CqSpec::default());
        }
        let query_id = plan.query_id;
        // Admission: the proxy consults the static analyzer before any of
        // the network sees the plan.  Rejected plans never disseminate —
        // the submitter gets the machine-readable report plus a
        // terminating `Done`; shed plans disseminate with the derived
        // sampling modulus stamped in.
        if let Some(layer) = self.admission.as_mut() {
            let decision = layer.assess(&plan);
            match decision.verdict {
                AdmissionVerdict::Admit => {
                    self.tel.inc("admission.admit");
                    self.tel.event("admission.admit", || {
                        vec![
                            ("query", query_id.to_string()),
                            ("tenant", plan.tenant.to_string()),
                        ]
                    });
                    ctx.output(PierOut::Admission {
                        query_id,
                        tenant: plan.tenant,
                        accepted: true,
                        sample_every: plan.sample_every,
                        report: decision.report,
                    });
                }
                AdmissionVerdict::Shed { sample_every } => {
                    plan.sample_every = sample_every.max(2);
                    let every = plan.sample_every;
                    self.tel.inc("admission.shed");
                    self.tel.event("admission.shed", || {
                        vec![
                            ("query", query_id.to_string()),
                            ("tenant", plan.tenant.to_string()),
                            ("sample_every", every.to_string()),
                        ]
                    });
                    ctx.output(PierOut::Admission {
                        query_id,
                        tenant: plan.tenant,
                        accepted: true,
                        sample_every: plan.sample_every,
                        report: decision.report,
                    });
                }
                AdmissionVerdict::Reject { reason } => {
                    self.tel.inc("admission.reject");
                    self.tel.event("admission.reject", || {
                        vec![
                            ("query", query_id.to_string()),
                            ("tenant", plan.tenant.to_string()),
                            ("reason", reason.clone()),
                        ]
                    });
                    ctx.output(PierOut::Admission {
                        query_id,
                        tenant: plan.tenant,
                        accepted: false,
                        sample_every: plan.sample_every,
                        report: decision.report,
                    });
                    ctx.output(PierOut::Done { query_id });
                    return query_id;
                }
            }
        }
        // Tracing: sampled once, here at the proxy — one seeded-RNG draw
        // per submission *only while tracing is enabled*, so untraced runs
        // consume the exact RNG stream of a pre-tracing build.  An
        // `EXPLAIN ANALYZE` plan arrives pre-marked and skips the roll; the
        // decision rides the disseminated plan so every node agrees.
        if self.config.trace.enabled() && !plan.trace {
            let roll = self.rng.next_u64();
            plan.trace = self.config.trace.keeps(roll);
        }
        if plan.trace && self.tel.is_enabled() {
            let trace_id = trace_id_for(query_id);
            let now = ctx.now();
            self.tel.record_span(
                now,
                now,
                trace_id,
                trace_id, // the trace's root span IS the trace id
                0,
                query_id,
                "query.disseminate",
                0,
                0,
                u64::from(plan.sample_every),
            );
        }
        // A standing query joins this node's lease roster; the first one
        // starts the renewal clock.
        if let Some(delay) = self.proxy.submit(&plan, ctx.now()) {
            ctx.set_timer(delay, PierTimer::CqRenew);
        }
        ctx.set_timer(plan.timeout, PierTimer::ProxyDone { query_id });
        self.disseminate(ctx, plan);
        query_id
    }

    fn disseminate(&mut self, ctx: &mut ProgramContext<Self>, plan: QueryPlan) {
        let now = ctx.now();
        match plan.dissemination.clone() {
            Dissemination::Broadcast => {
                let effects = self.overlay.broadcast(QpObject::Plan(plan), now);
                self.drive(ctx, effects);
            }
            Dissemination::ByKey { namespace, key } => {
                let name = ObjectName::new(namespace, key, self.rng.next_u64());
                let lifetime = plan.timeout;
                let effects = self.overlay.send(name, QpObject::Plan(plan), lifetime, now);
                self.drive(ctx, effects);
            }
            Dissemination::ByRange {
                namespace,
                bucket_keys,
            } => {
                // Route one copy of the plan to the partition of every
                // range-index bucket overlapping the predicate (§3.3.3).
                let lifetime = plan.timeout;
                for key in bucket_keys {
                    let name = ObjectName::new(namespace.clone(), key, self.rng.next_u64());
                    let effects =
                        self.overlay
                            .send(name, QpObject::Plan(plan.clone()), lifetime, now);
                    self.drive(ctx, effects);
                }
            }
            Dissemination::Local => {
                self.install_query(ctx, plan);
            }
        }
    }

    /// Rows [`PierNode::ingest`] stages before an early drain.  64 is one
    /// dictionary's worth (`column::DICT_MAX`): a staged string column never
    /// spills to the arena layout.  Measured on the end-to-end benchmark,
    /// 256- and 1,024-row stages are no faster and cost 7–9 % resident
    /// memory on `netmon_stream`.
    const INGEST_STAGE_ROWS: usize = 64;

    /// Feed a streamed tuple to every installed opgraph reading `table`
    /// without retaining it — the access method for transient monitoring
    /// streams (a packet trace is observed once, not stored).  Tuples
    /// arriving while no matching query is installed are simply dropped.
    ///
    /// The row is *staged*, not absorbed: rows of one table observed at one
    /// virtual instant accumulate into a columnar chunk that drains through
    /// the chunk path (`PierNode::route_new_batch`) when it is full, when
    /// a row of another table or instant arrives, at the top of every other
    /// entry point, and on a zero-delay [`PierTimer::IngestFlush`] — always
    /// with the instant the rows were observed as `now`, so windows, results
    /// and traffic are those of absorbing each row on arrival.
    pub fn ingest(&mut self, ctx: &mut ProgramContext<Self>, table: &str, tuple: Tuple) {
        let now = ctx.now();
        if self.stage.at != now || self.stage.table != table {
            self.drain_ingest(ctx);
            self.stage.at = now;
            self.stage.table.clear();
            self.stage.table.push_str(table);
        }
        self.stage.rows.push_tuple(tuple);
        if self.stage.rows.len() >= Self::INGEST_STAGE_ROWS {
            self.drain_ingest(ctx);
        } else if !self.stage.flush_armed {
            self.stage.flush_armed = true;
            ctx.set_timer(0, PierTimer::IngestFlush);
        }
    }

    /// Absorb the staged rows, as of the instant they were staged at.
    fn drain_ingest(&mut self, ctx: &mut ProgramContext<Self>) {
        if self.stage.rows.is_empty() {
            return;
        }
        let rows = std::mem::take(&mut self.stage.rows);
        let table = std::mem::take(&mut self.stage.table);
        let effects = self.route_new_batch(ctx, &table, &rows, self.stage.at, || rows.wire_size());
        self.stage.table = table;
        self.drive(ctx, effects);
    }

    // ----- effect / event plumbing ------------------------------------------

    fn drive(&mut self, ctx: &mut ProgramContext<Self>, effects: Vec<OverlayEffect<QpObject>>) {
        let mut work = effects;
        while !work.is_empty() {
            let mut next = Vec::new();
            for effect in work {
                match effect {
                    OverlayEffect::Send { to, msg } => ctx.send(to, PierMsg::Dht(msg)),
                    OverlayEffect::SetTimer { delay, timer } => {
                        ctx.set_timer(delay, PierTimer::Overlay(timer));
                    }
                    OverlayEffect::Event(event) => {
                        next.extend(self.handle_overlay_event(ctx, event));
                    }
                }
            }
            work = next;
        }
    }

    fn handle_overlay_event(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        event: OverlayEvent<QpObject>,
    ) -> Vec<OverlayEffect<QpObject>> {
        match event {
            OverlayEvent::GetResult {
                request_id,
                objects,
                ..
            } => {
                // A Fetch Matches probe came back: join the probe tuple with
                // every fetched inner tuple and forward to the sink.
                if let Some((query_id, graph_idx, probe)) = self.pending_fetches.remove(&request_id)
                {
                    let Some(output_table) = self.fetch_spec(query_id, graph_idx) else {
                        return Vec::new();
                    };
                    let inner = objects.iter().flat_map(|o| o.value.iter_tuples());
                    let joined = inner.map(|inner| probe.join_with(&inner, &output_table));
                    let joined = TupleBatch::new(joined.collect());
                    return self.deliver_sink(ctx, query_id, graph_idx, joined);
                }
                Vec::new()
            }
            OverlayEvent::NewData { object, trace } => {
                // A context on arriving data means the sender's stage was
                // sampled: record the absorption — arrival at (or relay
                // into) the window root — as a `window.combine` span
                // parented to the sender's wire-carried span.
                if let Some(t) = trace {
                    if self.tel.is_enabled() && object.value.tuple_count() > 0 {
                        let now = ctx.now();
                        let span = self.next_span_id(ctx.me());
                        self.tel.record_span(
                            now,
                            now,
                            t.trace_id,
                            span,
                            t.span_id,
                            t.query_id,
                            "window.combine",
                            object.value.tuple_count() as u64,
                            object.value.wire_size() as u64,
                            0,
                        );
                        self.last_combine_span.insert(t.query_id, span);
                    }
                }
                let namespace = &object.name.namespace;
                let now = ctx.now();
                match object.value {
                    QpObject::Plan(plan) => {
                        self.install_query(ctx, plan);
                        Vec::new()
                    }
                    // Rosters travel by broadcast only.
                    QpObject::Renew { .. } => Vec::new(),
                    QpObject::Tuple(tuple) => {
                        // Most single-object arrivals are published rows
                        // landing at their owner while nothing here reads
                        // the namespace: don't build a chunk nobody reads.
                        let shared = self.sharing.as_ref();
                        if !self.routes.contains_key(namespace)
                            && !shared.is_some_and(|l| l.wants_namespace(namespace))
                        {
                            return Vec::new();
                        }
                        // A lone tuple is a one-row chunk; its `ingest` span
                        // still reports the bytes that arrived.
                        let batch = TupleBatch::from_chunks(vec![ColumnChunk::from_tuple(&tuple)]);
                        self.route_new_batch(ctx, namespace, &batch, now, || tuple.wire_size())
                    }
                    // A coalesced transfer: the dispatch (namespace routing,
                    // target lookup) happens once per batch and the
                    // operators consume whole chunks.
                    QpObject::Batch(batch) => {
                        self.route_new_batch(ctx, namespace, &batch, now, || batch.wire_size())
                    }
                }
            }
            OverlayEvent::Upcall {
                token,
                object,
                trace,
                ..
            } => {
                // Hierarchical aggregation: intercept partials travelling up
                // the tree, fold them into our own buffered partials, and
                // drop the original message (§3.3.4).  Closed-window partials
                // combine the same way en route to their engine's window
                // root, a chunk at a time.
                let now = ctx.now();
                // Sampled senders get the §3.2.4 upcall offer recorded as a
                // `window.upcall` span; anything this node re-ships (refused
                // partials) parents to it via a fresh child context.
                let upcall_ctx = match trace {
                    Some(t) if self.tel.is_enabled() => {
                        let span = self.next_span_id(ctx.me());
                        self.tel.record_span(
                            now,
                            now,
                            t.trace_id,
                            span,
                            t.span_id,
                            t.query_id,
                            "window.upcall",
                            object.value.tuple_count() as u64,
                            0,
                            0,
                        );
                        self.last_combine_span.insert(t.query_id, span);
                        Some(t.child(span))
                    }
                    _ => None,
                };
                let partials = object.value.tuple_count();
                if partials > 0 {
                    if let Some(&NamespaceRoute::AggPartials(query_id)) =
                        self.routes.get(&object.name.namespace)
                    {
                        let mut absorbed = false;
                        for partial in object.value.iter_tuples() {
                            absorbed |= self.absorb_partial(query_id, &partial);
                        }
                        if absorbed {
                            return self.overlay.resume_upcall(token, false, now);
                        }
                    } else {
                        let chunks = object.value.chunks();
                        let absorbed = self
                            .absorb_window_chunks(&object.name.namespace, &chunks)
                            .filter(|(_, refused)| {
                                refused.iter().map(Vec::len).sum::<usize>() < partials
                            });
                        if let Some((key, refused)) = absorbed {
                            // The absorbed share is ours now; anything this
                            // node's state refused (budget shed, evicted
                            // window) must still reach the root — exactly
                            // as an unbatched per-tuple upcall would have
                            // continued routing it.
                            let mut effects = self.overlay.resume_upcall(token, false, now);
                            if refused.iter().any(|rows| !rows.is_empty()) {
                                let refused = chunks
                                    .iter()
                                    .zip(&refused)
                                    .filter(|(_, rows)| !rows.is_empty())
                                    .map(|(chunk, rows)| chunk.gather(rows))
                                    .collect();
                                let shipments = partial_shipments(refused, self.config.batching);
                                effects.extend(self.ship_partials(key, shipments, upcall_ctx, now));
                            }
                            return effects;
                        }
                    }
                }
                self.overlay.resume_upcall(token, true, now)
            }
            OverlayEvent::Broadcast { payload } => {
                match payload {
                    QpObject::Plan(plan) => self.install_query(ctx, plan),
                    QpObject::Renew { proxy, queries } => self.receive_roster(ctx, proxy, queries),
                    QpObject::Tuple(_) | QpObject::Batch(_) => {}
                }
                Vec::new()
            }
            OverlayEvent::RenewResult { .. } | OverlayEvent::LookupDone { .. } => Vec::new(),
        }
    }

    fn fetch_spec(&self, query_id: u64, graph_idx: usize) -> Option<String> {
        let q = self.queries.get(&query_id)?;
        let g = q.graphs.get(graph_idx)?;
        g.spec.ops.iter().find_map(|op| match op {
            OperatorSpec::FetchMatches { output_table, .. }
            | OperatorSpec::FetchByTupleId { output_table, .. } => Some(output_table.clone()),
            _ => None,
        })
    }

    /// Send closed-window partials one hop toward engine `key`'s window root
    /// (upcalls combine them en route): what a tick drained, or what this
    /// node refused of a batch it only partly absorbed at an upcall hop.
    /// `trace` rides every shipment — armed per send, because `set_trace`
    /// is consumed by the next overlay op and must not leak onto unrelated
    /// traffic.
    fn ship_partials(
        &mut self,
        key: EngineKey,
        shipments: Vec<QpObject>,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<OverlayEffect<QpObject>> {
        let Some(slot) = self.engines.get(&key) else {
            return Vec::new();
        };
        let spec = slot.engine.spec();
        let lifetime = spec.min_lifetime.max(self.config.publish_lifetime);
        let mut effects = Vec::new();
        for shipment in shipments {
            let name = ObjectName::new(
                spec.namespace.clone(),
                spec.root_key.clone(),
                self.rng.next_u64(),
            );
            self.overlay.set_trace(trace);
            effects.extend(
                self.overlay
                    .send_routed(slot.root_id, name, shipment, lifetime, now),
            );
        }
        effects
    }

    /// Offer arriving chunks to the engine whose window-partial namespace
    /// `namespace` is.  `None`, before any row is looked at, when it is
    /// none's; otherwise the engine and, per chunk, the indices of the rows
    /// its root store refused.
    fn absorb_window_chunks(
        &mut self,
        namespace: &str,
        chunks: &[ColumnChunk],
    ) -> Option<(EngineKey, Vec<Vec<u32>>)> {
        let Some(&NamespaceRoute::WindowPartials(key)) = self.routes.get(namespace) else {
            return None;
        };
        let engine = &mut self.engines.get_mut(&key)?.engine;
        let refused = chunks.iter().map(|c| engine.absorb_partials(c)).collect();
        Some((key, refused))
    }

    fn absorb_partial(&mut self, query_id: u64, partial: &Tuple) -> bool {
        let Some(q) = self.queries.get_mut(&query_id) else {
            return false;
        };
        let mut absorbed = false;
        for g in &mut q.graphs {
            if let Some(uplink) = g.uplink.as_mut() {
                absorbed |= uplink.merge_partial(partial);
            }
        }
        absorbed
    }

    /// Merge arriving partial aggregates into the aggregation-tree root.
    fn merge_agg_partials(&mut self, query_id: u64, partials: impl Iterator<Item = Tuple>) {
        let Some(q) = self.queries.get_mut(&query_id) else {
            return;
        };
        for tuple in partials {
            for g in &mut q.graphs {
                if let Some(root) = g.root_merge.as_mut() {
                    root.merge_partial(&tuple);
                }
            }
        }
    }

    /// Record one `ingest` span per *sampled* query fed by an arriving
    /// batch (rows = tuples routed, bytes = wire size of the payload as it
    /// arrived, computed only when some target is sampled).
    fn ingest_spans(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        targets: &[(u64, usize)],
        now: SimTime,
        rows: u64,
        bytes: impl FnOnce() -> usize,
    ) {
        if !self.tel.is_enabled() {
            return;
        }
        // Targets ascend by query id, so span ordinals are deterministic.
        let mut qids: Vec<u64> = targets
            .iter()
            .map(|(qid, _)| *qid)
            .filter(|qid| self.queries.get(qid).is_some_and(|q| q.plan.trace))
            .collect();
        qids.dedup();
        if qids.is_empty() {
            return;
        }
        let bytes = bytes() as u64;
        for qid in qids {
            let trace_id = trace_id_for(qid);
            let span = self.next_span_id(ctx.me());
            self.tel.record_span(
                now, now, trace_id, span, trace_id, qid, "ingest", rows, bytes, 0,
            );
        }
    }

    /// Route arriving rows — a coalesced DHT transfer, a single
    /// DHT-delivered tuple (a one-row chunk), or the rows
    /// [`PierNode::ingest`] staged at `now`: the namespace lookup happens
    /// once for the whole batch, and the opgraphs consume columnar chunks.
    /// `wire_bytes` is the size of the payload as it arrived.
    fn route_new_batch(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        namespace: &str,
        batch: &TupleBatch,
        now: SimTime,
        wire_bytes: impl FnOnce() -> usize,
    ) -> Vec<OverlayEffect<QpObject>> {
        // Partial aggregates arriving at the aggregation-tree root.
        if let Some(&NamespaceRoute::AggPartials(query_id)) = self.routes.get(namespace) {
            self.merge_agg_partials(query_id, batch.iter());
            return Vec::new();
        }
        // Closed-window partials arriving at their engine's root
        // (budget-refused arrivals are dropped: there is nowhere further to
        // send them).
        if self
            .absorb_window_chunks(namespace, batch.chunks())
            .is_some()
        {
            return Vec::new();
        }
        if let Some(layer) = self.sharing.as_mut() {
            // Shared ingest: each chunk is handed to the sharing layer once
            // — the dispatch cost of N member queries is one
            // predicate-index scan — and each group's engine absorbs the
            // rows some member selected.
            if layer.wants_namespace(namespace) {
                let engines = &mut self.engines;
                for chunk in batch.chunks() {
                    layer.select(namespace, chunk, &mut |group, selected| {
                        if let Some(slot) = engines.get_mut(&EngineKey::Group(group)) {
                            slot.engine.absorb(chunk, Some(selected), now);
                        }
                    });
                }
            }
        }
        // Base-table or rehash-namespace batches feeding installed
        // opgraphs, ascending by `(query, graph)`.  The target list is
        // taken for the loop and put back: nothing below installs or
        // uninstalls a query.
        let targets = match self.routes.get_mut(namespace) {
            Some(NamespaceRoute::Sources(targets)) => std::mem::take(targets),
            _ => return Vec::new(),
        };
        self.ingest_spans(ctx, &targets, now, batch.len() as u64, wire_bytes);
        let mut effects = Vec::new();
        for &(qid, gidx) in &targets {
            effects.extend(self.feed_graph_batch(ctx, qid, gidx, batch, now));
        }
        if let Some(NamespaceRoute::Sources(slot)) = self.routes.get_mut(namespace) {
            *slot = targets;
        }
        effects
    }

    // ----- query installation and execution ---------------------------------

    /// Renew the lease of `query_id` if it is installed here; false when it
    /// is not (the caller installs it, or pulls its plan).
    fn renew_lease(&mut self, query_id: u64, now: SimTime) -> bool {
        let Some(key) = self.engine_of.get(&query_id) else {
            return self.queries.contains_key(&query_id);
        };
        let slot = self.engines.get_mut(key);
        if let Some(lease) = slot.and_then(|s| s.engine.lease_mut(query_id)) {
            lease.renew(now);
        }
        self.tel.inc("cq.lease_renewals");
        self.tel
            .event("lease_renew", || vec![("query_id", query_id.to_string())]);
        true
    }

    /// A proxy's lease roster arrived: renew every listed query held here
    /// and pull the rest from the proxy in one request.
    fn receive_roster(&mut self, ctx: &mut ProgramContext<Self>, proxy: NodeAddr, ids: Vec<u64>) {
        let now = ctx.now();
        let mut missing = ids;
        missing.retain(|id| !self.renew_lease(*id, now));
        if missing.is_empty() {
            return;
        }
        self.tel.inc("cq.plan_pulls");
        if proxy == ctx.me() {
            self.serve_plans(ctx, proxy, &missing);
        } else {
            ctx.send(proxy, PierMsg::PlanRequest { queries: missing });
        }
    }

    /// Answer a pull: the plans of the `queries` still proxied here go to
    /// `to` (installed on the spot when that is this node).
    fn serve_plans(&mut self, ctx: &mut ProgramContext<Self>, to: NodeAddr, queries: &[u64]) {
        let plans = self.proxy.plans_for(queries, ctx.now());
        if plans.is_empty() {
            return;
        }
        self.tel.add("cq.plans_served", plans.len() as u64);
        if to == ctx.me() {
            for plan in plans {
                self.install_query(ctx, plan);
            }
        } else {
            ctx.send(to, PierMsg::Plans { plans });
        }
    }

    /// One round of the renewal clock: broadcast the roster, re-send the
    /// keyed plans, arm the next round.
    fn renew_round(&mut self, ctx: &mut ProgramContext<Self>) {
        let now = ctx.now();
        let round = self.proxy.renew_round(now, &mut self.rng);
        let Some(delay) = round.next_delay else {
            return;
        };
        self.tel.inc("cq.roster_rounds");
        if round.attempt > 0 {
            let queries = round.roster.len() + round.resend.len();
            self.tel.event("lease.backoff", || {
                vec![
                    ("queries", queries.to_string()),
                    ("attempt", round.attempt.to_string()),
                    ("delay", delay.to_string()),
                ]
            });
        }
        if !round.roster.is_empty() {
            let roster = QpObject::Renew {
                proxy: ctx.me(),
                queries: round.roster,
            };
            let effects = self.overlay.broadcast(roster, now);
            self.drive(ctx, effects);
        }
        for plan in round.resend {
            self.disseminate(ctx, plan);
        }
        ctx.set_timer(delay, PierTimer::CqRenew);
    }

    fn install_query(&mut self, ctx: &mut ProgramContext<Self>, plan: QueryPlan) {
        let query_id = plan.query_id;
        let now = ctx.now();
        // A standing plan arriving again (a keyed re-send, a pulled copy
        // that crossed the plan's own broadcast) is a lease renewal.
        if self.renew_lease(query_id, now) {
            return;
        }
        // Multi-query sharing: offer the plan to the layer first.  A plan
        // that normalizes into a share group installs as a *member* of the
        // group's engine — the executor arms its lifecycle timers but
        // builds no dataflow; the engine's tick chain starts with its first
        // member.
        let shared = self.sharing.as_mut().map(|layer| layer.try_install(&plan));
        if let Some(InstallOutcome::Member(membership)) = shared {
            let Membership {
                group,
                epoch,
                engine,
                member,
            } = *membership;
            let key = EngineKey::Group(group);
            let lease = member.lease;
            // The group's first member opens its engine and, below, starts
            // its tick chain.
            let tick = engine.map(|spec| {
                let tick = PierTimer::ShareTick { group, epoch };
                let slide = spec.window.slide;
                self.open_engine(key, epoch, tick.clone(), spec, query_id);
                (slide, tick)
            });
            // Per-query sampling decisions are meaningless for work N
            // queries share: a group's members trace in trace-all mode only.
            let trace = self.config.trace.sample_every == 1;
            if let Some(slot) = self.engines.get_mut(&key) {
                slot.engine.add_member(query_id, member, trace, now);
                self.engine_of.insert(query_id, key);
            }
            self.tel.event("share_join", || {
                vec![
                    ("query_id", query_id.to_string()),
                    ("group", format!("{group:016x}")),
                    ("new_group", tick.is_some().to_string()),
                ]
            });
            ctx.set_timer(plan.timeout, PierTimer::QueryEnd { query_id });
            ctx.set_timer(lease, PierTimer::CqLease { query_id });
            if let Some((slide, tick)) = tick {
                ctx.set_timer(slide, tick);
            }
            return;
        }
        let agg_root_id = routing_id(&plan.partial_namespace(), &plan.agg_root_key());
        // A windowed plan gets an engine of its own, rehydrated warm from
        // durable segments when this is a restart.
        let mut cq_graph = None;
        let mut cq_timers = None;
        if let Some((graph_idx, engine, member)) = EngineSpec::unshared(&plan) {
            let key = EngineKey::Query(query_id);
            cq_graph = Some(graph_idx);
            cq_timers = Some((engine.window.slide, member.lease));
            self.open_engine(key, 0, PierTimer::WindowTick { query_id }, engine, query_id);
            if let Some(slot) = self.engines.get_mut(&key) {
                slot.engine.add_member(query_id, member, plan.trace, now);
                self.engine_of.insert(query_id, key);
            }
        }
        let mut graphs = Vec::new();
        let mut has_agg = false;
        for spec in &plan.opgraphs {
            let mut pipeline =
                Pipeline::new(spec.ops.iter().filter_map(OperatorSpec::build).collect());
            pipeline.set_telemetry(&self.tel);
            let join = spec.join.as_ref().map(|j| {
                SymmetricHashJoin::new(
                    j.left_key.clone(),
                    j.right_key.clone(),
                    j.output_table.clone(),
                )
            });
            let (uplink, root_merge) = match &spec.sink {
                SinkSpec::HierarchicalAgg {
                    group_cols, aggs, ..
                } => {
                    has_agg = true;
                    let table = format!("q{query_id}.agg");
                    (
                        Some(GroupBy::new(
                            group_cols.clone(),
                            aggs.clone(),
                            table.clone(),
                        )),
                        Some(GroupBy::new(group_cols.clone(), aggs.clone(), table)),
                    )
                }
                _ => (None, None),
            };
            graphs.push(GraphState {
                spec: spec.clone(),
                pipeline,
                join,
                uplink,
                root_merge,
            });
        }
        let timeout = plan.timeout;
        let hold = plan
            .opgraphs
            .iter()
            .find_map(|g| match &g.sink {
                SinkSpec::HierarchicalAgg { hold, .. } => Some(*hold),
                _ => None,
            })
            .unwrap_or(2_000_000);
        let has_cq = cq_graph.is_some();
        self.tel.inc("query.installs");
        self.tel.event("query_install", || {
            vec![
                ("query_id", query_id.to_string()),
                ("graphs", graphs.len().to_string()),
                ("continuous", has_cq.to_string()),
            ]
        });
        if plan.trace && self.tel.is_enabled() {
            let trace_id = trace_id_for(query_id);
            let now = ctx.now();
            let span = self.next_span_id(ctx.me());
            self.tel.record_span(
                now,
                now,
                trace_id,
                span,
                trace_id,
                query_id,
                "query.install",
                graphs.len() as u64,
                0,
                0,
            );
        }
        // Partial namespaces are the query's own (the engine's was routed
        // when it opened); a source that names one is shadowed, as partials
        // were always tried first.
        let route = NamespaceRoute::AggPartials(query_id);
        self.routes.insert(plan.partial_namespace(), route);
        for (gidx, g) in graphs.iter().enumerate() {
            let route = self
                .routes
                .entry(g.spec.source.namespace().to_string())
                .or_insert_with(|| NamespaceRoute::Sources(Vec::new()));
            if let NamespaceRoute::Sources(targets) = route {
                let at = targets.partition_point(|t| *t < (query_id, gidx));
                targets.insert(at, (query_id, gidx));
            }
        }
        self.queries.insert(
            query_id,
            QueryState {
                plan,
                graphs,
                agg_root_id,
                cq_graph,
                ingest_seen: 0,
            },
        );
        ctx.set_timer(timeout, PierTimer::QueryEnd { query_id });
        if has_agg {
            ctx.set_timer(hold, PierTimer::AggFlush { query_id });
            ctx.set_timer(
                timeout.saturating_sub(hold),
                PierTimer::AggFinal { query_id },
            );
        }
        if let Some((slide, lease)) = cq_timers {
            ctx.set_timer(slide, PierTimer::WindowTick { query_id });
            ctx.set_timer(lease, PierTimer::CqLease { query_id });
        }
        // Feed the opgraphs their initial data: node-local rows plus the
        // DHT-partitioned rows this node is responsible for.  The snapshot of
        // every source is taken *before* any graph runs, so tuples that one
        // opgraph republishes during installation (e.g. a rehash into the
        // query's rendezvous namespace) are not double-counted by another
        // opgraph that reads that namespace — those arrive via `newData`.
        let graph_count = self.queries[&query_id].graphs.len();
        let mut initial_rows: Vec<Vec<Tuple>> = Vec::with_capacity(graph_count);
        for gidx in 0..graph_count {
            let namespace = self.queries[&query_id].graphs[gidx]
                .spec
                .source
                .namespace()
                .to_string();
            let mut rows: Vec<Tuple> = self
                .local_tables
                .get(&namespace)
                .cloned()
                .unwrap_or_default();
            rows.extend(
                self.overlay
                    .local_scan(&namespace, ctx.now())
                    .into_iter()
                    .flat_map(|o| o.value.into_tuples()),
            );
            initial_rows.push(rows);
        }
        for (gidx, rows) in initial_rows.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let batch = TupleBatch::new(rows);
            let effects = self.feed_graph_batch(ctx, query_id, gidx, &batch, ctx.now());
            self.drive(ctx, effects);
        }
    }

    /// Open engine `key` — cold, or rehydrated warm from this node's durable
    /// segments — for `query_id`, its first member, and route its
    /// window-partial namespace to it.  `tick` is the timer that will drive
    /// it; the caller arms it.
    fn open_engine(
        &mut self,
        key: EngineKey,
        epoch: u64,
        tick: PierTimer,
        spec: EngineSpec,
        query_id: u64,
    ) {
        let mut engine = WindowEngine::new(spec);
        let durable = self.config.durable.as_ref();
        if let Some(report) = durable.and_then(|d| engine.rehydrate(d)) {
            self.tel.add("cq.rehydrated_windows", report.windows as u64);
            self.tel.event("window.rehydrate", || {
                vec![
                    ("query_id", query_id.to_string()),
                    ("windows", report.windows.to_string()),
                    ("groups", report.groups.to_string()),
                    ("tuples", report.tuples.to_string()),
                    ("skipped", report.skipped.to_string()),
                    ("torn_tail", report.torn_tail.to_string()),
                ]
            });
        }
        let spec = engine.spec();
        let root_id = routing_id(&spec.namespace, &spec.root_key);
        let route = NamespaceRoute::WindowPartials(key);
        self.routes.insert(spec.namespace.clone(), route);
        let slot = EngineSlot {
            engine,
            root_id,
            epoch,
            tick,
        };
        self.engines.insert(key, slot);
    }

    /// Uninstall a query and release query-scoped interned schemas
    /// (`q{id}.agg`, `q{id}.wp`, `q{id}.win`, …) from the process-wide
    /// [`SchemaRegistry`].  The sweep covers *every* no-longer-referenced
    /// query-scoped shape, not just this query's: a schema still pinned by
    /// in-flight tuples when its own query tore down gets collected by a
    /// later teardown's sweep, so the registry stays bounded by the live
    /// working set instead of growing with every query ever installed.
    fn uninstall_query(&mut self, query_id: u64) {
        self.last_combine_span.remove(&query_id);
        // Leave the window engine.  The last member out retires it, and a
        // deliberate teardown means the engine is over everywhere it
        // matters: its durable segments will never be rehydrated, so drop
        // them rather than leak "disk".
        if let Some(key) = self.engine_of.remove(&query_id) {
            if let Some(slot) = self.engines.get_mut(&key) {
                slot.engine.remove_member(query_id);
                if slot.engine.members().is_empty() {
                    self.routes.remove(&slot.engine.spec().namespace);
                    if let Some(durable) = self.config.durable.as_ref() {
                        slot.engine.forget(durable);
                    }
                    self.engines.remove(&key);
                }
            }
        }
        if let Some(q) = self.queries.remove(&query_id) {
            self.routes.remove(&q.plan.partial_namespace());
            for g in &q.graphs {
                let namespace = g.spec.source.namespace();
                if let Some(NamespaceRoute::Sources(targets)) = self.routes.get_mut(namespace) {
                    targets.retain(|(qid, _)| *qid != query_id);
                    if targets.is_empty() {
                        self.routes.remove(namespace);
                    }
                }
            }
            self.tel.inc("query.teardowns");
            self.tel.event("query_teardown", || {
                vec![("query_id", query_id.to_string())]
            });
            SchemaRegistry::global().sweep_matching(is_query_scoped_table);
            return;
        }
        // Share-group members also leave the layer: the group's refcount
        // drops, and retiring its last member sweeps both the group's
        // interned shapes (`g{fp:016x}.…`) and any unreferenced
        // query-scoped ones (the member's result schema).
        if let Some(layer) = self.sharing.as_mut() {
            let out = layer.uninstall(query_id);
            if out.was_member {
                self.tel.event("share_leave", || {
                    let retired = out
                        .retired_group
                        .map(|g| format!("{g:016x}"))
                        .unwrap_or_default();
                    vec![
                        ("query_id", query_id.to_string()),
                        ("retired_group", retired),
                    ]
                });
                SchemaRegistry::global()
                    .sweep_matching(|t| is_query_scoped_table(t) || is_share_scoped_table(t));
            }
        }
    }

    /// Feed a batch of source rows to one opgraph: joins consume whole
    /// columnar chunks ([`SymmetricHashJoin::push_chunk_batch`]), plain
    /// pipelines consume the batch **chunk-to-chunk** via
    /// `Pipeline::push_batch` (every stage hands the next a re-chunked
    /// survivor batch), uplink aggregation absorbs the survivors chunk-wise,
    /// and a windowed graph's engine absorbs them chunk-wise
    /// ([`WindowEngine::absorb`]) — the source chunks themselves when the
    /// pipeline is a pass-through — so there is no per-tuple dispatch
    /// anywhere, and what is left goes to the sink as the batch it is.
    fn feed_graph_batch(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        query_id: u64,
        graph_idx: usize,
        batch: &TupleBatch,
        now: SimTime,
    ) -> Vec<OverlayEffect<QpObject>> {
        let outputs = {
            let Some(q) = self.queries.get_mut(&query_id) else {
                return Vec::new();
            };
            // Shed-to-sampling, chunk-wise: a degraded plan keeps one in
            // `sample_every` *source* rows (query-scoped namespaces —
            // rehashed join sides, shipped partials — are derived data and
            // pass untouched).  The counter is per query per node, so
            // equal-seed runs thin identically.
            let sampled;
            let batch = if q.plan.sample_every > 1 {
                let every = u64::from(q.plan.sample_every);
                let mut kept = TupleBatch::default();
                for chunk in batch.chunks() {
                    if is_query_scoped_table(chunk.schema().table()) {
                        kept.push_chunk(chunk.clone());
                        continue;
                    }
                    let seen = q.ingest_seen;
                    q.ingest_seen += chunk.rows() as u64;
                    let idx: Vec<u32> = (0..chunk.rows() as u32)
                        .filter(|r| (seen + u64::from(*r)) % every == 0)
                        .collect();
                    kept.push_chunk(chunk.gather(&idx));
                }
                sampled = kept;
                &sampled
            } else {
                batch
            };
            let Some(g) = q.graphs.get_mut(graph_idx) else {
                return Vec::new();
            };
            let windows = (q.cq_graph == Some(graph_idx))
                .then(|| self.engines.get_mut(&EngineKey::Query(query_id)))
                .flatten();
            let direct = windows.is_some() && g.join.is_none() && g.pipeline.is_empty();
            let mut outputs = match (&mut g.join, &g.spec.join) {
                _ if direct => TupleBatch::default(), // absorbed below, unscanned
                (Some(join), Some(join_spec)) => {
                    // Two-input join fed from the rehash namespace: each
                    // chunk's table name decides the side it belongs to.
                    // The join emits whole typed chunks (gathered from
                    // both sides' stored buffers), which share one output
                    // schema — so the staged batch flows into the
                    // pipeline's chunk-to-chunk traversal without ever
                    // materialising per-row tuples.
                    let mut staged = TupleBatch::default();
                    for chunk in batch.chunks() {
                        let table = chunk.schema().table();
                        if table == join_spec.left_table {
                            staged.append(join.push_chunk_batch(JoinSide::Left, chunk));
                        } else if table == join_spec.right_table {
                            staged.append(join.push_chunk_batch(JoinSide::Right, chunk));
                        } // unknown table: discard (best effort)
                    }
                    if staged.is_empty() {
                        TupleBatch::default()
                    } else {
                        g.pipeline.push_batch(&staged)
                    }
                }
                _ => g.pipeline.push_batch(batch),
            };
            // Hierarchical aggregation absorbs the survivors chunk-wise.
            if let Some(uplink) = g.uplink.as_mut() {
                uplink.push_batch(&outputs);
                outputs = TupleBatch::default();
            }
            // A windowed graph folds the survivors into its engine.
            if let Some(slot) = windows {
                let survivors = if direct { batch } else { &outputs };
                for chunk in survivors.chunks() {
                    slot.engine.absorb(chunk, None, now);
                }
                outputs = TupleBatch::default();
            }
            outputs
        };
        self.deliver_sink(ctx, query_id, graph_idx, outputs)
    }

    fn deliver_sink(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        query_id: u64,
        graph_idx: usize,
        mut rows: TupleBatch,
    ) -> Vec<OverlayEffect<QpObject>> {
        if rows.is_empty() {
            return Vec::new();
        }
        let (sink, proxy, fetch, lifetime) = {
            let Some(q) = self.queries.get(&query_id) else {
                return Vec::new();
            };
            let Some(g) = q.graphs.get(graph_idx) else {
                return Vec::new();
            };
            // (namespace, probe column, probe column already holds the key
            // string, output table of the join results)
            let fetch = g.spec.ops.iter().find_map(|op| match op {
                OperatorSpec::FetchMatches {
                    inner_namespace,
                    probe_col,
                    output_table,
                } => Some((
                    inner_namespace.clone(),
                    probe_col.clone(),
                    false,
                    output_table.clone(),
                )),
                OperatorSpec::FetchByTupleId {
                    inner_namespace,
                    id_col,
                    output_table,
                } => Some((
                    inner_namespace.clone(),
                    id_col.clone(),
                    true,
                    output_table.clone(),
                )),
                _ => None,
            });
            (
                g.spec.sink.clone(),
                q.plan.proxy,
                fetch,
                self.config.publish_lifetime,
            )
        };
        let mut effects = Vec::new();
        // Fetch Matches: pipeline outputs are probe rows — issue an
        // asynchronous DHT get per probe and join when results come back
        // (the one place a sink still walks rows).  Chunks already carrying
        // the join's output table *are* the joined results returning from a
        // completed fetch; those continue to the opgraph's real sink below.
        if let Some((inner_namespace, probe_col, probe_is_key, fetch_output)) = fetch {
            let now = ctx.now();
            let mut completed = TupleBatch::default();
            for chunk in rows.into_chunks() {
                if chunk.schema().table() == fetch_output {
                    completed.push_chunk(chunk);
                    continue;
                }
                for probe in chunk.iter_rows() {
                    let Some(key) = probe.get(&probe_col).map(|v| {
                        if probe_is_key {
                            // The column already carries the inner relation's
                            // partition-key string (a secondary index tupleID).
                            v.as_str().map_or_else(|| v.key_string(), str::to_string)
                        } else {
                            v.key_string()
                        }
                    }) else {
                        continue;
                    };
                    let (request_id, get_effects) = self.overlay.get(&inner_namespace, &key, now);
                    self.pending_fetches
                        .insert(request_id, (query_id, graph_idx, probe));
                    effects.extend(get_effects);
                }
            }
            if completed.is_empty() {
                return effects;
            }
            rows = completed;
        }
        match sink {
            SinkSpec::ToProxy => self.send_results(ctx, proxy, query_id, rows),
            SinkSpec::Rehash {
                namespace,
                key_cols,
            } => {
                let now = ctx.now();
                if self.config.batching {
                    // Coalesce: buffer per (namespace, partition key); one
                    // overlay put per key per flush.  The policy is stated
                    // per appended row — ship the moment the buffer holds
                    // `batch_max_tuples`, otherwise make sure the periodic
                    // flush tick is armed — so the puts and timers do not
                    // depend on how the rows were chunked on their way here.
                    let mut buf = self.rehash_buf.remove(&namespace).unwrap_or_default();
                    for t in rows.iter() {
                        let Some(key) = t.partition_key(&key_cols) else {
                            continue;
                        };
                        buf.by_key.entry(key).or_default().push(t);
                        buf.tuples += 1;
                        if buf.tuples >= self.config.batch_max_tuples {
                            let full = std::mem::take(&mut buf);
                            effects.extend(self.flush_rehash(&namespace, full, now));
                        } else if !self.batch_timer_armed {
                            self.batch_timer_armed = true;
                            ctx.set_timer(BATCH_FLUSH_INTERVAL, PierTimer::BatchFlush);
                        }
                    }
                    if buf.tuples > 0 {
                        self.rehash_buf.insert(namespace, buf);
                    }
                } else {
                    for t in rows.iter() {
                        let Some(key) = t.partition_key(&key_cols) else {
                            continue;
                        };
                        let name = ObjectName::new(namespace.clone(), key, self.rng.next_u64());
                        effects.extend(self.overlay.put(name, QpObject::Tuple(t), lifetime, now));
                    }
                }
            }
            SinkSpec::HierarchicalAgg { .. } => {
                // Handled in feed_graph_batch (outputs are absorbed into
                // uplink); reaching here means a fetch-join result fed an
                // agg graph, which we also absorb.
                if let Some(q) = self.queries.get_mut(&query_id) {
                    if let Some(g) = q.graphs.get_mut(graph_idx) {
                        if let Some(uplink) = g.uplink.as_mut() {
                            uplink.push_batch(&rows);
                        }
                    }
                }
            }
            SinkSpec::WindowedAgg { .. } => {
                // Like hierarchical aggregation: a fetch-join result feeding
                // a windowed graph is folded into the window store.
                let now = ctx.now();
                if let Some(slot) = self.engines.get_mut(&EngineKey::Query(query_id)) {
                    for chunk in rows.chunks() {
                        slot.engine.absorb(chunk, None, now);
                    }
                }
            }
        }
        effects
    }

    /// Ship one namespace's buffered rehash batches: one `put` per distinct
    /// partition key, each carrying a [`TupleBatch`] (or a bare tuple when
    /// only one accumulated), handed to the overlay's batched put so
    /// same-owner keys share a single transfer when local routing state
    /// identifies the owner.
    fn flush_rehash(
        &mut self,
        namespace: &str,
        buf: RehashBuffer,
        now: SimTime,
    ) -> Vec<OverlayEffect<QpObject>> {
        let lifetime = self.config.publish_lifetime;
        let mut entries = Vec::with_capacity(buf.by_key.len());
        // Key order feeds both the rng stream (name suffixes) and the
        // message order, so it must not depend on hash seeding.
        let mut by_key: Vec<(String, Vec<Tuple>)> = buf.by_key.into_iter().collect();
        by_key.sort_by(|a, b| a.0.cmp(&b.0));
        for (key, mut tuples) in by_key {
            let name = ObjectName::new(namespace.to_string(), key, self.rng.next_u64());
            let value = if tuples.len() == 1 {
                QpObject::Tuple(tuples.pop().expect("len checked"))
            } else {
                QpObject::Batch(TupleBatch::new(tuples))
            };
            entries.push((name, value, lifetime));
        }
        self.overlay.put_batch(entries, now)
    }

    /// Flush every buffered rehash namespace (the periodic tick).
    fn flush_all_rehash(&mut self, now: SimTime) -> Vec<OverlayEffect<QpObject>> {
        let mut namespaces: Vec<String> = self.rehash_buf.keys().cloned().collect();
        namespaces.sort_unstable();
        let mut effects = Vec::new();
        for ns in namespaces {
            if let Some(buf) = self.rehash_buf.remove(&ns) {
                effects.extend(self.flush_rehash(&ns, buf, now));
            }
        }
        effects
    }

    fn send_results(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        proxy: NodeAddr,
        query_id: u64,
        rows: TupleBatch,
    ) {
        if rows.is_empty() {
            return;
        }
        if proxy == ctx.me() {
            let outs = self.proxy.receive(query_id, &rows);
            self.deliver(ctx, outs);
        } else {
            ctx.send(proxy, PierMsg::Results { query_id, rows });
        }
    }

    /// Hand the client what the proxy made of a results message; `None` is
    /// a malformed message, dropped whole and counted.
    fn deliver(&mut self, ctx: &mut ProgramContext<Self>, outs: Option<Vec<PierOut>>) {
        match outs {
            Some(outs) => outs.into_iter().for_each(|out| ctx.output(out)),
            None => self.tel.inc("proxy.malformed_results"),
        }
    }

    fn agg_flush(&mut self, ctx: &mut ProgramContext<Self>, query_id: u64, final_flush: bool) {
        let Some(q) = self.queries.get(&query_id) else {
            return;
        };
        let agg_root_id = q.agg_root_id;
        let partial_namespace = q.plan.partial_namespace();
        let agg_root_key = q.plan.agg_root_key();
        let proxy = q.plan.proxy;
        let is_root = self.overlay.router().is_responsible(agg_root_id);
        let graph_count = q.graphs.len();
        let lifetime = self.config.publish_lifetime;

        let mut to_send: Vec<Tuple> = Vec::new();
        let mut final_results: Vec<Tuple> = Vec::new();
        {
            let q = self.queries.get_mut(&query_id).expect("query present");
            for g in &mut q.graphs {
                let Some(uplink) = g.uplink.as_mut() else {
                    continue;
                };
                let partials = uplink.flush();
                if is_root {
                    if let Some(root) = g.root_merge.as_mut() {
                        for p in &partials {
                            root.merge_partial(p);
                        }
                    }
                } else {
                    to_send.extend(partials);
                }
                if final_flush && is_root {
                    if let Some(root) = g.root_merge.as_mut() {
                        let merged = TupleBatch::new(root.flush());
                        let final_ops: &[OperatorSpec] = match &g.spec.sink {
                            SinkSpec::HierarchicalAgg { final_ops, .. } => final_ops,
                            _ => &[],
                        };
                        final_results.extend(finish_rows(final_ops, &merged));
                    }
                }
            }
        }
        // Send buffered partials one hop up the aggregation tree (or directly
        // to the root when the plan asked for flat aggregation).
        let flat = {
            let q = self.queries.get(&query_id).expect("query present");
            q.graphs
                .iter()
                .any(|g| matches!(g.spec.sink, SinkSpec::HierarchicalAgg { flat: true, .. }))
        };
        let now = ctx.now();
        let mut effects = Vec::new();
        // All partials of one flush share the aggregation-root destination,
        // so batching collapses them into a single transfer per hop.
        let shipments: Vec<QpObject> = if self.config.batching && to_send.len() > 1 {
            vec![QpObject::Batch(TupleBatch::new(to_send))]
        } else {
            to_send.into_iter().map(QpObject::Tuple).collect()
        };
        for shipment in shipments {
            let name = ObjectName::new(
                partial_namespace.clone(),
                agg_root_key.clone(),
                self.rng.next_u64(),
            );
            if flat {
                effects.extend(self.overlay.put(name, shipment, lifetime, now));
            } else {
                effects.extend(self.overlay.send_routed(
                    agg_root_id,
                    name,
                    shipment,
                    lifetime,
                    now,
                ));
            }
        }
        self.drive(ctx, effects);
        if !final_results.is_empty() {
            self.send_results(ctx, proxy, query_id, TupleBatch::new(final_results));
        }
        // Re-arm the periodic flush while the query is still installed.
        if !final_flush && graph_count > 0 {
            if let Some(q) = self.queries.get(&query_id) {
                let hold = q
                    .plan
                    .opgraphs
                    .iter()
                    .find_map(|g| match &g.sink {
                        SinkSpec::HierarchicalAgg { hold, .. } => Some(*hold),
                        _ => None,
                    })
                    .unwrap_or(2_000_000);
                ctx.set_timer(hold, PierTimer::AggFlush { query_id });
            }
        }
    }
}

impl PierNode {
    /// Periodic window maintenance of one engine (fires every slide, once
    /// per engine however many member queries it serves): close due
    /// windows, ship their partials one hop toward the engine's window root
    /// — combining en route — and, at the root, stream each member's
    /// per-window results to its proxy; then report window health, persist
    /// the surviving state and re-arm.  `epoch` is the incarnation the
    /// firing timer was armed for.
    fn engine_tick(&mut self, ctx: &mut ProgramContext<Self>, key: EngineKey, epoch: u64) {
        let now = ctx.now();
        let Some(slot) = self.engines.get_mut(&key) else {
            return; // engine retired: the tick chain stops
        };
        if epoch != slot.epoch {
            // The group was retired and re-created since this chain was
            // armed; the new incarnation drives its own chain — a stale
            // timer must not stack a duplicate one.
            return;
        }
        let is_root = self.overlay.router().is_responsible(slot.root_id);
        let out = slot.engine.tick(now, is_root);
        let names = slot.engine.spec().names;
        let slide = slot.engine.spec().window.slide;
        let tick = slot.tick.clone();
        // Shared work is charged to the engine's lowest member.
        let members = slot.engine.members();
        let charged = members.iter().next().map(|(id, m)| (*id, m.trace));
        let members = members.len() as u64;
        let (shed, evicted) = slot.engine.take_shed_evicted();

        // 1. Ship partials one hop toward the root and stream emissions to
        //    the proxies.  Every partial of a tick shares the window-root
        //    destination, so batching collapses the per-group message train
        //    into one transfer per tick.
        let shipments = partial_shipments(out.partials.into_iter().collect(), self.config.batching);
        // Flush instrumentation: every shipping flush ticks the engine's
        // flush counters (the ones the span-reconciliation tests anchor
        // to), and a traced engine's flush additionally records a flush
        // span whose context rides the wire on every shipment of this tick.
        // Its `aux` is the distinct windows bundled, so the per-*window*
        // static bound can be reconciled against a per-*tick* measurement —
        // or, for shared work, the members riding it.
        let mut flush_ctx: Option<TraceContext> = None;
        if self.tel.is_enabled() && !shipments.is_empty() {
            let partials: u64 = shipments.iter().map(|s| s.tuple_count() as u64).sum();
            self.tel.inc(names.flushes);
            self.tel.add(names.flush_partials, partials);
            if let Some((query_id, true)) = charged {
                let bytes: u64 = shipments.iter().map(|s| s.wire_size() as u64).sum();
                let trace_id = trace_id_for(query_id);
                let span = self.next_span_id(ctx.me());
                self.tel.record_span(
                    now,
                    now,
                    trace_id,
                    span,
                    trace_id,
                    query_id,
                    names.flush_span,
                    partials,
                    bytes,
                    if names.shared { members } else { out.windows },
                );
                flush_ctx = Some(TraceContext {
                    trace_id,
                    span_id: span,
                    query_id,
                });
            }
        }
        let effects = self.ship_partials(key, shipments, flush_ctx, now);
        self.drive(ctx, effects);
        // One results message per (proxy, window), in first-emission order:
        // every member of a proxy the tick emitted for rides one message,
        // distinct windows never share one.
        let mut bundles: Vec<((NodeAddr, SimTime, SimTime), WindowBundle)> = Vec::new();
        for e in out.emissions {
            // A traced member's per-window emission: the `window.emit` span
            // parents to the newest absorption at this root (shared work:
            // to the member's own trace root) and its context travels to
            // the proxy on the results message.
            let emit_ctx = (self.tel.is_enabled() && e.trace).then(|| {
                let trace_id = trace_id_for(e.query_id);
                let span = self.next_span_id(ctx.me());
                let combined = self.last_combine_span.get(&e.query_id);
                let parent = combined.filter(|_| !names.shared).map_or(trace_id, |s| *s);
                self.tel.record_span(
                    now,
                    now,
                    trace_id,
                    span,
                    parent,
                    e.query_id,
                    "window.emit",
                    (e.retracts.len() + e.inserts.len()) as u64,
                    0,
                    e.window_start,
                );
                TraceContext {
                    trace_id,
                    span_id: span,
                    query_id: e.query_id,
                }
            });
            let to = (e.proxy, e.window_start, e.window_end);
            let at = bundles.iter().position(|b| b.0 == to).unwrap_or_else(|| {
                bundles.push((to, WindowBundle::default()));
                bundles.len() - 1
            });
            let bundle = &mut bundles[at].1;
            bundle.push(e.query_id, e.retracts, e.inserts, emit_ctx);
        }
        for ((proxy, window_start, window_end), WindowBundle { rows, members }) in bundles {
            if proxy == ctx.me() {
                self.proxy_receive_window(ctx, window_start, window_end, &rows, &members);
            } else {
                let results = PierMsg::WindowResults {
                    window_start,
                    window_end,
                    rows,
                    members,
                };
                ctx.send(proxy, results);
            }
        }
        // 2. Window health into telemetry: this engine's shed/evict
        //    *deltas* as trace events, and — once per instant, however many
        //    engines tick at it — absolute occupancy gauges summed over
        //    every engine at this node.
        if self.tel.is_enabled() {
            let query_id = charged.map_or(0, |(id, _)| id);
            let pressure = [
                ("window_shed", "shed", shed),
                ("window_evict", "evicted", evicted),
            ];
            for (event, field, n) in pressure.into_iter().filter(|p| p.2 > 0) {
                self.tel.event(event, || {
                    vec![("query_id", query_id.to_string()), (field, n.to_string())]
                });
            }
            if self.gauges_at != Some(now) {
                self.gauges_at = Some(now);
                let mut totals = [0u64; 6];
                for slot in self.engines.values() {
                    for (total, v) in totals.iter_mut().zip(slot.engine.occupancy()) {
                        *total += v;
                    }
                }
                for (name, total) in OCCUPANCY_GAUGES.iter().zip(totals) {
                    self.tel.gauge(name, total as f64);
                }
            }
        }
        // 3. Persist the surviving window state as durable segments, so a
        //    crash after this tick restarts warm; re-arm while the engine
        //    lives.
        if let Some(slot) = self.engines.get(&key) {
            if let Some(durable) = self.config.durable.as_ref() {
                slot.engine.persist(durable);
            }
            ctx.set_timer(slide, tick);
        }
    }

    /// Hand one window's results — off the wire, or straight from this
    /// node's own tick when it is both root and proxy — to the client.
    fn proxy_receive_window(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        window_start: SimTime,
        window_end: SimTime,
        rows: &TupleBatch,
        members: &[MemberRun],
    ) {
        let outs = self
            .proxy
            .receive_window(window_start, window_end, rows, members);
        // The delivery at the proxy closes the span tree: `result.emit`
        // parents to the root's wire-carried `window.emit` span.
        if self.tel.is_enabled() && outs.is_some() {
            let now = ctx.now();
            let live = members.iter().filter(|m| self.proxy.contains(m.query_id));
            let traced: Vec<(TraceContext, u32)> =
                live.filter_map(|m| Some((m.trace?, m.inserts))).collect();
            for (t, rows) in traced {
                let span = self.next_span_id(ctx.me());
                self.tel.record_span(
                    now,
                    now,
                    t.trace_id,
                    span,
                    t.span_id,
                    t.query_id,
                    "result.emit",
                    u64::from(rows),
                    0,
                    window_start,
                );
            }
        }
        self.deliver(ctx, outs);
    }

    /// Materialise the telemetry hub as one `system.metrics` tuple and
    /// publish it into the DHT — the self-monitoring dogfood loop.  The
    /// tuple travels to its DHT owner like any other published row and is
    /// absorbed there **exactly once** (via `newData`), so standing queries
    /// over `system.metrics` — installed everywhere by broadcast
    /// dissemination — observe every node's metrics without double
    /// counting.  `system.metrics` matches neither the query-scoped nor the
    /// share-scoped namespace forms, so teardown sweeps never evict it.
    fn publish_metrics(&mut self, ctx: &mut ProgramContext<Self>) {
        let Some(interval) = self.config.telemetry.publish_interval else {
            return;
        };
        if !self.tel.is_enabled() {
            return;
        }
        let now = ctx.now();
        let node_label = format!("n{}", ctx.me().0);
        let p50 = self
            .tel
            .percentile("dht.lookup_latency_us", 50.0)
            .unwrap_or(0.0);
        let p99 = self
            .tel
            .percentile("dht.lookup_latency_us", 99.0)
            .unwrap_or(0.0);
        // Ring-drop visibility: events or spans evicted from the bounded
        // rings surface as a gauge *and* as a `system.metrics` column, so
        // both local summaries and standing queries can flag incomplete
        // traces (a dropped span invalidates profile reconciliation).
        let dropped = self
            .tel
            .with(|h| h.trace_dropped() + h.spans_dropped())
            .unwrap_or(0);
        self.tel.gauge("telemetry.trace_dropped", dropped as f64);
        let schema = SchemaRegistry::global().intern(
            "system.metrics",
            &[
                "node",
                "ts",
                "msgs_recv",
                "bytes_recv",
                "lookups",
                "lookup_p50_us",
                "lookup_p99_us",
                "owner_cache_hits",
                "owner_cache_misses",
                "trace_dropped",
            ],
        );
        let count = |name: &str| Value::Int(self.tel.counter(name) as i64);
        let tuple = Tuple::from_schema(
            schema,
            vec![
                Value::str(&node_label),
                Value::Int(now as i64),
                count("net.msgs_recv"),
                count("net.bytes_recv"),
                count("dht.lookups"),
                Value::Float(p50),
                Value::Float(p99),
                count("dht.owner_cache.hits"),
                count("dht.owner_cache.misses"),
                Value::Int(dropped as i64),
            ],
        );
        self.tel.inc("telemetry.publishes");
        self.publish_keyed(ctx, "system.metrics", node_label.clone(), tuple);
        self.publish_spans(ctx, &node_label);
        ctx.set_timer(interval, PierTimer::MetricsPublish);
    }

    /// Materialise spans recorded since the last publish round as
    /// `system.spans` tuples — the tracing half of the dogfood loop, armed
    /// by [`TraceConfig::publish`].  Bounded per round (the ring itself is
    /// bounded, and a cursor watermark prevents re-publishing), and keyed
    /// by node so a node's spans land on one DHT owner in recording order.
    /// `system.spans` matches neither the query- nor share-scoped
    /// namespace forms, so teardown sweeps never evict it.
    fn publish_spans(&mut self, ctx: &mut ProgramContext<Self>, node_label: &str) {
        if !self.config.trace.publish {
            return;
        }
        const MAX_SPANS_PER_ROUND: usize = 64;
        let cursor = self.span_publish_cursor;
        let fresh: Vec<SpanRecord> = self
            .tel
            .with(|h| {
                h.spans()
                    .filter(|s| s.ordinal >= cursor)
                    .take(MAX_SPANS_PER_ROUND)
                    .copied()
                    .collect()
            })
            .unwrap_or_default();
        let Some(last) = fresh.last() else {
            return;
        };
        self.span_publish_cursor = last.ordinal + 1;
        let schema = SchemaRegistry::global().intern(
            "system.spans",
            &[
                "node", "start", "end", "ordinal", "trace", "span", "parent", "query", "stage",
                "rows", "bytes", "aux",
            ],
        );
        for s in fresh {
            let tuple = Tuple::from_schema(
                Arc::clone(&schema),
                vec![
                    Value::str(node_label),
                    Value::Int(s.start as i64),
                    Value::Int(s.end as i64),
                    Value::Int(s.ordinal as i64),
                    Value::Int(s.trace_id as i64),
                    Value::Int(s.span_id as i64),
                    Value::Int(s.parent as i64),
                    Value::Int(s.query_id as i64),
                    Value::str(s.stage),
                    Value::Int(s.rows as i64),
                    Value::Int(s.bytes as i64),
                    Value::Int(s.aux as i64),
                ],
            );
            self.tel.inc("telemetry.span_publishes");
            self.publish_keyed(ctx, "system.spans", node_label.to_string(), tuple);
        }
    }

    /// Diagnostics of a continuous query installed here, unshared or a
    /// share-group member (`None` when the query is not installed here or
    /// is not continuous).
    pub fn cq_diagnostics(&self, query_id: u64) -> Option<CqDiagnostics> {
        let slot = self.engines.get(self.engine_of.get(&query_id)?)?;
        slot.engine.diagnostics(query_id)
    }
}

impl Program for PierNode {
    type Msg = PierMsg;
    type Timer = PierTimer;
    type Out = PierOut;

    fn on_start(&mut self, ctx: &mut ProgramContext<Self>) {
        let now: SimTime = ctx.now();
        self.tel.set_now(now);
        let effects = self.overlay.start(self.bootstrap, now);
        self.drive(ctx, effects);
        if self.tel.is_enabled() {
            if let Some(interval) = self.config.telemetry.publish_interval {
                ctx.set_timer(interval, PierTimer::MetricsPublish);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut ProgramContext<Self>, from: NodeAddr, msg: Self::Msg) {
        self.drain_ingest(ctx);
        if self.tel.is_enabled() {
            self.tel.set_now(ctx.now());
            self.tel.inc("net.msgs_recv");
            self.tel.add("net.bytes_recv", msg.wire_size() as u64);
        }
        match msg {
            PierMsg::Dht(m) => {
                let now = ctx.now();
                let effects = self.overlay.on_message(from, m, now);
                self.drive(ctx, effects);
            }
            PierMsg::Results { query_id, rows } => {
                let outs = self.proxy.receive(query_id, &rows);
                self.deliver(ctx, outs);
            }
            PierMsg::WindowResults {
                window_start,
                window_end,
                rows,
                members,
            } => self.proxy_receive_window(ctx, window_start, window_end, &rows, &members),
            PierMsg::PlanRequest { queries } => self.serve_plans(ctx, from, &queries),
            PierMsg::Plans { plans } => {
                for plan in plans {
                    self.install_query(ctx, plan);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ProgramContext<Self>, timer: Self::Timer) {
        self.drain_ingest(ctx);
        self.tel.set_now(ctx.now());
        match timer {
            PierTimer::IngestFlush => self.stage.flush_armed = false,
            PierTimer::Overlay(t) => {
                let now = ctx.now();
                let effects = self.overlay.on_timer(t, now);
                self.drive(ctx, effects);
            }
            PierTimer::AggFlush { query_id } => self.agg_flush(ctx, query_id, false),
            PierTimer::AggFinal { query_id } => self.agg_flush(ctx, query_id, true),
            PierTimer::QueryEnd { query_id } => {
                self.uninstall_query(query_id);
            }
            PierTimer::ProxyDone { query_id } => {
                if self.proxy.done(query_id) {
                    // The query's budget charge returns to its tenant.
                    if let Some(layer) = self.admission.as_mut() {
                        layer.release(query_id);
                    }
                    ctx.output(PierOut::Done { query_id });
                }
            }
            PierTimer::WindowTick { query_id } => {
                self.engine_tick(ctx, EngineKey::Query(query_id), 0);
            }
            PierTimer::ShareTick { group, epoch } => {
                self.engine_tick(ctx, EngineKey::Group(group), epoch);
            }
            PierTimer::MetricsPublish => self.publish_metrics(ctx),
            PierTimer::BatchFlush => {
                let now = ctx.now();
                self.batch_timer_armed = false;
                let effects = self.flush_all_rehash(now);
                self.drive(ctx, effects);
            }
            PierTimer::CqRenew => self.renew_round(ctx),
            PierTimer::CqLease { query_id } => {
                let now = ctx.now();
                let engine = self.engine_of.get(&query_id);
                let engine = engine.and_then(|key| self.engines.get(key));
                let Some(lease) = engine.and_then(|s| s.engine.members().get(&query_id)) else {
                    return;
                };
                let lease = lease.lease;
                // With durable segments the owner may be a *restarted* node
                // whose renewals resume once it rejoins: a lapsed lease
                // parks in a grace window (one lease duration) before the
                // query is swept; soft-only nodes keep the original hard
                // expiry.
                let grace = if self.config.durable.is_some() {
                    lease.duration
                } else {
                    0
                };
                let recheck_at = match lease.status(now, grace) {
                    LeaseStatus::Gone => {
                        // The owner stopped renewing (or we are partitioned
                        // away): the soft state lapses.
                        self.uninstall_query(query_id);
                        return;
                    }
                    LeaseStatus::Active => lease.expires_at,
                    // Parked: hold the state through the grace window and
                    // re-check at its end (a renewal arriving in between
                    // pushes `expires_at` forward again).
                    LeaseStatus::Rehydrating => lease.expires_at.saturating_add(grace),
                };
                let delay = recheck_at.saturating_sub(now).max(1);
                ctx.set_timer(delay, PierTimer::CqLease { query_id });
            }
        }
    }

    fn on_stop(&mut self, ctx: &mut ProgramContext<Self>) {
        self.drain_ingest(ctx);
    }
}
