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
//! node instantiates the opgraphs and starts feeding them; answer tuples are
//! forwarded to the proxy, which delivers them to the client; execution
//! stops when the query's timeout expires.

use crate::admission::{AdmissionControl, AdmissionFactory, AdmissionVerdict, SloPolicy};
use crate::aggregate::{AggFunc, AggState};
use crate::operators::{GroupBy, JoinSide, LocalOperator, Pipeline, SymmetricHashJoin};
use crate::partial::{GroupAgg, PartialCodec};
use crate::plan::{
    finish_rows, CqSpec, Dissemination, OpGraph, OperatorSpec, QpObject, QueryPlan, SinkSpec,
};
use crate::sharing::{
    is_share_scoped_table, InstallOutcome, MultiQuerySharing, SharingFactory, SharingStats,
};
use crate::tuple::{
    ColumnChunk, ColumnRef, ColumnResolver, Schema, SchemaRegistry, Tuple, TupleBatch,
};
use crate::value::Value;
use pier_cq::{
    Delta, DeltaTracker, DurableStore, Lease, LeaseStatus, RehydrateReport, RenewalBackoff,
    SegmentLog, WindowId, WindowSpec, WindowStats, WindowStore,
};
use pier_dht::{
    routing_id, DhtMessage, Id, NodeRef, ObjectName, Overlay, OverlayConfig, OverlayEffect,
    OverlayEvent, OverlayTimer,
};
use pier_runtime::{Duration, NodeAddr, Program, ProgramContext, Rng64, SimTime, WireSize};
use pier_telemetry::{SpanRecord, Telemetry, TelemetryConfig};
use pier_trace::{trace_id_for, TraceConfig, TraceContext};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

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
    /// Upper bound on how long a rehash tuple may sit in the batch buffer
    /// before the periodic flush tick ships it, microseconds.
    pub batch_flush_interval: Duration,
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
    /// node's continuous-query window state into this [`DurableStore`]
    /// (keys `q{id}.local` / `q{id}.root`), and a node restarted with the
    /// *same* store handle rehydrates warm windows when the query's next
    /// re-dissemination re-installs it, instead of recomputing retained
    /// panes from scratch.  `None` (the default) keeps all state soft.
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
            batch_flush_interval: 100_000,
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
#[derive(Debug, Clone)]
pub enum PierMsg {
    /// Overlay traffic (routing, get/put/send/renew, broadcast).
    Dht(DhtMessage<QpObject>),
    /// Answer tuples flowing back to the query's proxy node.
    Results {
        /// Query the tuples belong to.
        query_id: u64,
        /// The answer tuples (possibly a batch).
        tuples: Vec<Tuple>,
    },
    /// Per-window results of a continuous query streamed from the query's
    /// window root to the proxy: retractions of superseded rows (delta mode
    /// only) followed by the window's current rows.
    WindowResults {
        /// Query the window belongs to.
        query_id: u64,
        /// Window start (virtual-time microseconds, inclusive).
        window_start: SimTime,
        /// Window end (exclusive).
        window_end: SimTime,
        /// Rows retracted by this emission.
        retracts: Vec<Tuple>,
        /// Rows inserted by this emission.
        inserts: Vec<Tuple>,
        /// Trace context when the emitting query is sampled: the proxy's
        /// `result.emit` span parents to the root's `window.emit` span.
        trace: Option<TraceContext>,
    },
}

impl WireSize for PierMsg {
    fn wire_size(&self) -> usize {
        1 + match self {
            PierMsg::Dht(m) => m.wire_size(),
            PierMsg::Results { tuples, .. } => {
                8 + tuples.iter().map(WireSize::wire_size).sum::<usize>()
            }
            PierMsg::WindowResults {
                retracts,
                inserts,
                trace,
                ..
            } => {
                24 + retracts.iter().map(WireSize::wire_size).sum::<usize>()
                    + inserts.iter().map(WireSize::wire_size).sum::<usize>()
                    + trace.map_or(0, |t| t.wire_size())
            }
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
    /// Proxy-side soft-state renewal: re-disseminate the standing plan so
    /// leases extend and churned-in nodes join the computation.
    CqRenew {
        /// Query being renewed.
        query_id: u64,
    },
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

/// Values delivered to the client application attached to a node.
#[derive(Debug, Clone)]
pub enum PierOut {
    /// An answer tuple for a query this node proxies.
    Result {
        /// Query the tuple answers.
        query_id: u64,
        /// The answer tuple.
        tuple: Tuple,
    },
    /// The query's timeout expired; no more results will be delivered.
    Done {
        /// The completed query.
        query_id: u64,
    },
    /// One row of a per-window result of a continuous query.
    WindowResult {
        /// Query the row answers.
        query_id: u64,
        /// Window start (inclusive).
        window_start: SimTime,
        /// Window end (exclusive).
        window_end: SimTime,
        /// True when this row retracts a previously delivered row
        /// (delta-mode refinement); false for inserts/snapshots.
        retract: bool,
        /// The result row.
        tuple: Tuple,
    },
    /// The proxy's admission decision for a submitted query (emitted only
    /// when the node is built with an admission layer,
    /// [`crate::node::PierConfig::admission`]).  A rejected query also
    /// receives a terminating [`PierOut::Done`]; a shed query runs with
    /// `sample_every > 1`.
    Admission {
        /// The assessed query.
        query_id: u64,
        /// The tenant billed ([`QueryPlan::tenant`]).
        tenant: u64,
        /// False when the query was rejected and will not run.
        accepted: bool,
        /// Sampling modulus the plan was disseminated with (1 = full
        /// fidelity, >1 = shed-to-sampling degraded mode).
        sample_every: u32,
        /// The machine-readable static cost report (JSON; schema in
        /// `docs/ANALYSIS.md`).
        report: String,
    },
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

/// Runtime state of one continuous (windowed) query at one node.
#[derive(Debug)]
struct CqState {
    spec: CqSpec,
    window: WindowSpec,
    final_ops: Vec<OperatorSpec>,
    /// Group columns resolved to schema indices once per input schema.
    group_resolver: ColumnResolver,
    /// Per-aggregate input column (`None` for `COUNT(*)`), resolved once
    /// per input schema.
    agg_inputs: Vec<Option<ColumnRef>>,
    /// Event-time column, resolved once per input schema.
    time_ref: Option<ColumnRef>,
    /// Window-scoped dedup columns (a missing column keys as "∅").
    dedup_refs: Vec<ColumnRef>,
    /// Encodes closed windows for the trip to the root (`q{id}.wp`) and
    /// merges arriving partials into `root_store`.
    codec: PartialCodec,
    /// Interned shape of the per-window result rows emitted at the root.
    result_schema: Arc<Schema>,
    /// Index of the opgraph feeding the windows.
    graph_idx: usize,
    /// Node-local window accumulation over this node's share of the stream.
    store: WindowStore<GroupAgg>,
    /// Partials absorbed while travelling toward (or arriving at) the
    /// query's window root; closes one slide after `store` so relayed
    /// partials have time to arrive.
    root_store: WindowStore<GroupAgg>,
    /// Root-side emission tracker implementing snapshot/delta output.
    tracker: DeltaTracker<Tuple>,
    /// Soft-state lease granted by (re)dissemination.
    lease: Lease,
    /// Windows this node emitted to the proxy as root.
    windows_emitted: u64,
    /// Shed tuples+groups already reported to telemetry (delta baseline for
    /// the `window_shed` trace event).
    tel_shed: u64,
    /// Evicted windows already reported to telemetry (delta baseline for
    /// the `window_evict` trace event).
    tel_evicted: u64,
    /// Windows restored from durable segments when this installation
    /// rehydrated (0 for a cold install) — the warm-restart diagnostic.
    rehydrated_windows: u64,
}

impl CqState {
    /// Per-window result rows are retired from the delta tracker once they
    /// are this many windows old (late refinements beyond that are dropped).
    fn retention_windows(&self) -> u64 {
        self.window.windows_per_event() + 4
    }
}

#[derive(Debug)]
struct QueryState {
    plan: QueryPlan,
    graphs: Vec<GraphState>,
    agg_root_id: Id,
    /// Continuous-query runtime, present when the plan has a windowed sink.
    cq: Option<CqState>,
    /// Source rows seen by a shed plan (`sample_every > 1`): the
    /// deterministic per-query per-node sampling counter.
    ingest_seen: u64,
}

/// Proxy-side state of one submitted query, held from `submit_query` until
/// [`PierTimer::ProxyDone`] removes it: a query id absent from
/// [`PierNode::proxied`] is finished (or was never proxied here) and its
/// late results are dropped.
#[derive(Debug, Default)]
struct ProxyState {
    results: u64,
    /// The standing plan, kept proxy-side for periodic re-dissemination.
    renew_plan: Option<QueryPlan>,
    /// Jittered exponential backoff driving the re-dissemination clock
    /// (created on the first renewal round from the plan's lifecycle).
    backoff: Option<RenewalBackoff>,
    /// `results` at the previous renewal round: a stalled stream (no new
    /// results since the last round) escalates the backoff, progress
    /// resets it.
    renew_results: u64,
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
    /// `q{id}.windows`: closed-window partials of a continuous query.
    WindowPartials(u64),
    /// `q{id}.partials`: partial aggregates travelling up the tree.
    AggPartials(u64),
    /// A base table or rehash namespace: the `(query, graph index)` pairs
    /// reading it, ascending.
    Sources(Vec<(u64, usize)>),
}

/// Whose window store a namespace's closed-window partials merge into.
#[derive(Debug, Clone, Copy)]
enum PartialOwner {
    /// An installed continuous query's root store.
    Query(u64),
    /// A share group's root store, inside the sharing layer.
    Group(u64),
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
    proxied: HashMap<u64, ProxyState>,
    pending_fetches: HashMap<u64, (u64, usize, Tuple)>,
    next_query_seq: u64,
    rehash_buf: HashMap<String, RehashBuffer>,
    batch_timer_armed: bool,
    /// Namespace routing table over the installed queries.
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
            proxied: HashMap::new(),
            pending_fetches: HashMap::new(),
            next_query_seq: 0,
            rehash_buf: HashMap::new(),
            batch_timer_armed: false,
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
        self.proxied.len()
    }

    /// Queries currently holding admission budget at this proxy (`None`
    /// when the node was built without an admission layer).
    pub fn admitted_queries(&self) -> Option<usize> {
        self.admission.as_ref().map(|l| l.admitted())
    }

    // ----- distributed tracing (pier-trace) ---------------------------------

    /// Allocate the next cluster-unique span id: node address in the high
    /// half, a per-node sequence in the low half.  Counter-derived, never
    /// random, so equal-seed runs allocate identical ids.
    fn next_span_id(&mut self, me: NodeAddr) -> u64 {
        self.next_span_seq += 1;
        ((u64::from(me.0) + 1) << 32) | self.next_span_seq
    }

    /// The trace id of `query_id` when the query is installed at this node,
    /// was sampled at its proxy, and telemetry can record the span.
    fn traced(&self, query_id: u64) -> Option<u64> {
        if !self.tel.is_enabled() {
            return None;
        }
        self.queries
            .get(&query_id)
            .filter(|q| q.plan.trace)
            .map(|_| trace_id_for(query_id))
    }

    /// Rows of a node-local table (the decoupled-storage access method over
    /// data that lives only on this node, e.g. its own firewall log).
    pub fn local_table_len(&self, table: &str) -> usize {
        self.local_tables.get(table).map_or(0, Vec::len)
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
        let mut proxy_state = ProxyState::default();
        if let Some(cq) = &plan.cq {
            // Standing query: keep the plan for periodic re-dissemination
            // (lease renewal + churn repair) and start the renewal clock.
            proxy_state.renew_plan = Some(plan.clone());
            ctx.set_timer(cq.renew_every, PierTimer::CqRenew { query_id });
        }
        self.proxied.insert(query_id, proxy_state);
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
                    let (output_table, sink_ok) = match self.fetch_spec(query_id, graph_idx) {
                        Some(t) => (t, true),
                        None => (String::new(), false),
                    };
                    if !sink_ok {
                        return Vec::new();
                    }
                    let joined: Vec<Tuple> = objects
                        .iter()
                        .flat_map(|o| o.value.iter_tuples())
                        .map(|inner| probe.join_with(&inner, &output_table))
                        .collect();
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
                    QpObject::Tuple(tuple) => {
                        // Most single-object arrivals are published rows
                        // landing at their owner while nothing here reads
                        // the namespace: don't build a chunk nobody reads.
                        if !self.routes.contains_key(namespace) && self.sharing.is_none() {
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
                // of continuous queries — and of share groups, into the
                // group's single shared store — combine the same way en
                // route to the window root, a chunk at a time.
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
                        if let Some((owner, refused)) = absorbed {
                            // The absorbed share is ours now; anything this
                            // node's state refused (budget shed, evicted
                            // window) must still reach the root — exactly
                            // as an unbatched per-tuple upcall would have
                            // continued routing it.
                            let mut effects = self.overlay.resume_upcall(token, false, now);
                            if refused.iter().any(|rows| !rows.is_empty()) {
                                // Arm only when a send follows: `set_trace`
                                // is consumed by the next overlay op and
                                // must not leak onto unrelated traffic.
                                self.overlay.set_trace(upcall_ctx);
                                effects.extend(self.reship_partials(owner, &chunks, &refused, now));
                            }
                            return effects;
                        }
                    }
                }
                self.overlay.resume_upcall(token, true, now)
            }
            OverlayEvent::Broadcast { payload } => {
                if let QpObject::Plan(plan) = payload {
                    self.install_query(ctx, plan);
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

    /// Re-route the window partials this node refused (`refused[i]` indexes
    /// rows of `chunks[i]`, a batch that was only partly absorbed at an
    /// upcall hop) toward their owner's window root, as one transfer.
    fn reship_partials(
        &mut self,
        owner: PartialOwner,
        chunks: &[ColumnChunk],
        refused: &[Vec<u32>],
        now: SimTime,
    ) -> Vec<OverlayEffect<QpObject>> {
        let (namespace, root_key, lifetime) = match owner {
            PartialOwner::Query(query_id) => {
                let Some(q) = self.queries.get(&query_id) else {
                    return Vec::new();
                };
                let lease = q.cq.as_ref().map_or(0, |cq| cq.spec.lease);
                (
                    q.plan.window_namespace(),
                    q.plan.agg_root_key(),
                    lease.max(self.config.publish_lifetime),
                )
            }
            PartialOwner::Group(group) => {
                let Some(route) = self.sharing.as_ref().and_then(|l| l.group_route(group)) else {
                    return Vec::new();
                };
                (
                    route.namespace,
                    route.root_key,
                    self.config.publish_lifetime,
                )
            }
        };
        let root_id = routing_id(&namespace, &root_key);
        let mut effects = Vec::new();
        let refused = chunks
            .iter()
            .zip(refused)
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(chunk, rows)| chunk.gather(rows))
            .collect();
        for shipment in partial_shipments(refused, true) {
            let name = ObjectName::new(namespace.clone(), root_key.clone(), self.rng.next_u64());
            effects.extend(
                self.overlay
                    .send_routed(root_id, name, shipment, lifetime, now),
            );
        }
        effects
    }

    /// Offer arriving chunks to the window store that owns `namespace` — an
    /// installed query's root store, or a share group's (asked second: the
    /// namespaces are disjoint).  `None`, before any row is looked at, when
    /// `namespace` carries no closed-window partials; otherwise the owner
    /// and, per chunk, the indices of the rows its store refused.
    fn absorb_window_chunks(
        &mut self,
        namespace: &str,
        chunks: &[ColumnChunk],
    ) -> Option<(PartialOwner, Vec<Vec<u32>>)> {
        if let Some(&NamespaceRoute::WindowPartials(query_id)) = self.routes.get(namespace) {
            let cq = self.queries.get_mut(&query_id)?.cq.as_mut()?;
            let refused = chunks
                .iter()
                .map(|chunk| cq.codec.absorb(chunk, &mut cq.root_store))
                .collect();
            return Some((PartialOwner::Query(query_id), refused));
        }
        let layer = self.sharing.as_mut()?;
        let mut group = None;
        let mut refused = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let (g, rows) = layer.absorb_window_partials(namespace, chunk)?;
            group = Some(g);
            refused.push(rows);
        }
        Some((PartialOwner::Group(group?), refused))
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
        // Closed-window partials arriving at their root — a query's or a
        // share group's (budget-refused arrivals are dropped: there is
        // nowhere further to send them).
        if self
            .absorb_window_chunks(namespace, batch.chunks())
            .is_some()
        {
            return Vec::new();
        }
        if let Some(layer) = self.sharing.as_mut() {
            // Shared ingest: each chunk is handed to the sharing layer once
            // — the dispatch cost of N member queries is one
            // predicate-index scan.
            if layer.wants_namespace(namespace) {
                for chunk in batch.chunks() {
                    layer.absorb_chunk(namespace, chunk, now);
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

    fn install_query(&mut self, ctx: &mut ProgramContext<Self>, plan: QueryPlan) {
        let query_id = plan.query_id;
        if let Some(q) = self.queries.get_mut(&query_id) {
            // Re-dissemination of a standing query: renew the lease.
            if let Some(cq) = q.cq.as_mut() {
                cq.lease.renew(ctx.now());
                self.tel.inc("cq.lease_renewals");
                self.tel
                    .event("lease_renew", || vec![("query_id", query_id.to_string())]);
            }
            return;
        }
        // Multi-query sharing: offer the plan to the layer first.  A plan
        // that normalizes into a share group installs as a *member* — the
        // executor arms its lifecycle timers but builds no dataflow; the
        // group's single tick chain starts with its first member.  Plans
        // marked exclusive skip the offer: shared state is not persisted,
        // so a durable query keeps its own (rehydratable) stores.
        let exclusive = plan.cq.as_ref().is_some_and(|cq| cq.exclusive);
        if let Some(layer) = self.sharing.as_mut().filter(|_| !exclusive) {
            if layer.renew(query_id, ctx.now()) {
                return; // re-dissemination of a shared standing query
            }
            if let InstallOutcome::Member {
                group,
                new_group,
                epoch,
                slide,
                lease,
            } = layer.try_install(&plan, ctx.now())
            {
                self.tel.event("share_join", || {
                    vec![
                        ("query_id", query_id.to_string()),
                        ("group", format!("{group:016x}")),
                        ("new_group", new_group.to_string()),
                    ]
                });
                ctx.set_timer(plan.timeout, PierTimer::QueryEnd { query_id });
                ctx.set_timer(lease, PierTimer::CqLease { query_id });
                if new_group {
                    ctx.set_timer(slide, PierTimer::ShareTick { group, epoch });
                }
                return;
            }
        }
        let agg_root_id = routing_id(&plan.partial_namespace(), &plan.agg_root_key());
        let mut cq = Self::build_cq_state(&plan, ctx.now());
        if let Some(cq) = cq.as_mut() {
            // Warm restart: rehydrate retained panes from durable segments
            // (a no-op on cold installs or without a durable store).
            self.rehydrate_cq(query_id, cq);
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
        let has_cq = cq.is_some();
        let cq_slide = cq.as_ref().map_or(0, |c| c.window.slide);
        let cq_lease = cq.as_ref().map_or(0, |c| c.spec.lease);
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
        // Partial namespaces are the query's own; a source that names one is
        // shadowed, as partials were always tried first.
        if has_cq {
            let route = NamespaceRoute::WindowPartials(query_id);
            self.routes.insert(plan.window_namespace(), route);
        }
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
                cq,
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
        if has_cq {
            ctx.set_timer(cq_slide, PierTimer::WindowTick { query_id });
            ctx.set_timer(cq_lease, PierTimer::CqLease { query_id });
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

    /// Uninstall a query and release query-scoped interned schemas
    /// (`q{id}.agg`, `q{id}.wp`, `q{id}.win`, …) from the process-wide
    /// [`SchemaRegistry`].  The sweep covers *every* no-longer-referenced
    /// query-scoped shape, not just this query's: a schema still pinned by
    /// in-flight tuples when its own query tore down gets collected by a
    /// later teardown's sweep, so the registry stays bounded by the live
    /// working set instead of growing with every query ever installed.
    fn uninstall_query(&mut self, query_id: u64) {
        self.last_combine_span.remove(&query_id);
        if let Some(q) = self.queries.remove(&query_id) {
            self.routes.remove(&q.plan.window_namespace());
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
            // A deliberate teardown means the query is over everywhere it
            // matters: its durable segments will never be rehydrated, so
            // drop them rather than leak "disk".
            if q.cq.is_some() {
                if let Some(durable) = self.config.durable.as_ref() {
                    let (local_key, root_key) = Self::segment_keys(query_id);
                    durable.remove(&local_key);
                    durable.remove(&root_key);
                }
            }
            SchemaRegistry::global().sweep_matching(is_query_scoped_table);
            return;
        }
        // Share-group members tear down through the layer: the group's
        // refcount drops, and retiring its last member sweeps both the
        // group's interned shapes (`g{fp:016x}.…`) and any unreferenced
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
    /// and a windowed graph with a pass-through pipeline absorbs chunks
    /// straight into the window store ([`PierNode::cq_absorb_chunk`]) — no
    /// per-tuple dispatch anywhere; rows materialise only at the sink
    /// boundary.
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
            let cq_direct = q.cq.as_ref().is_some_and(|cq| cq.graph_idx == graph_idx)
                && q.graphs
                    .get(graph_idx)
                    .is_some_and(|g| g.join.is_none() && g.pipeline.is_empty());
            if cq_direct {
                let cq = q.cq.as_mut().expect("checked above");
                for chunk in batch.chunks() {
                    Self::cq_absorb_chunk(cq, chunk, now);
                }
                TupleBatch::default()
            } else {
                let Some(g) = q.graphs.get_mut(graph_idx) else {
                    return Vec::new();
                };
                let mut outputs = match (&mut g.join, &g.spec.join) {
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
                // A windowed graph folds the survivors into the window store
                // chunk-wise.
                if let Some(cq) = q.cq.as_mut() {
                    if cq.graph_idx == graph_idx {
                        for chunk in outputs.chunks() {
                            Self::cq_absorb_chunk(cq, chunk, now);
                        }
                        outputs = TupleBatch::default();
                    }
                }
                outputs
            }
        };
        if outputs.is_empty() {
            return Vec::new();
        }
        self.deliver_sink(ctx, query_id, graph_idx, outputs.into_tuples())
    }

    fn deliver_sink(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        query_id: u64,
        graph_idx: usize,
        mut tuples: Vec<Tuple>,
    ) -> Vec<OverlayEffect<QpObject>> {
        if tuples.is_empty() {
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
        // Fetch Matches: pipeline outputs are probe tuples — issue an
        // asynchronous DHT get per probe and join when results come back.
        // Tuples already carrying the join's output table *are* the joined
        // results returning from a completed fetch; those continue to the
        // opgraph's real sink below.
        if let Some((inner_namespace, probe_col, probe_is_key, fetch_output)) = fetch {
            let now = ctx.now();
            let mut completed = Vec::new();
            for probe in tuples {
                if probe.table() == fetch_output {
                    completed.push(probe);
                    continue;
                }
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
            if completed.is_empty() {
                return effects;
            }
            tuples = completed;
        }
        match sink {
            SinkSpec::ToProxy => {
                self.send_results(ctx, proxy, query_id, tuples);
            }
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
                    for t in tuples {
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
                            ctx.set_timer(self.config.batch_flush_interval, PierTimer::BatchFlush);
                        }
                    }
                    if buf.tuples > 0 {
                        self.rehash_buf.insert(namespace, buf);
                    }
                } else {
                    for t in tuples {
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
                            uplink.push_batch(&TupleBatch::new(tuples));
                        }
                    }
                }
            }
            SinkSpec::WindowedAgg { .. } => {
                // Like hierarchical aggregation: a fetch-join result feeding
                // a windowed graph is folded into the window store.
                let now = ctx.now();
                if let Some(q) = self.queries.get_mut(&query_id) {
                    if let Some(cq) = q.cq.as_mut() {
                        for chunk in TupleBatch::new(tuples).chunks() {
                            Self::cq_absorb_chunk(cq, chunk, now);
                        }
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
        tuples: Vec<Tuple>,
    ) {
        if tuples.is_empty() {
            return;
        }
        if proxy == ctx.me() {
            self.proxy_receive(ctx, query_id, tuples);
        } else {
            ctx.send(proxy, PierMsg::Results { query_id, tuples });
        }
    }

    fn proxy_receive(&mut self, ctx: &mut ProgramContext<Self>, query_id: u64, tuples: Vec<Tuple>) {
        let Some(state) = self.proxied.get_mut(&query_id) else {
            return; // finished, or never proxied here
        };
        state.results += tuples.len() as u64;
        for tuple in tuples {
            ctx.output(PierOut::Result { query_id, tuple });
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
            self.send_results(ctx, proxy, query_id, final_results);
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

/// Diagnostics of a continuous query installed at a node (tests and the
/// bench harness assert bounded state through this).
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

impl PierNode {
    fn build_cq_state(plan: &QueryPlan, now: SimTime) -> Option<CqState> {
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
        let spec = plan.cq.unwrap_or_default();
        // Both shipped shapes are fixed by the sink spec, so their schemas
        // intern once at installation rather than once per emitted tuple.
        let codec = PartialCodec::new(
            format!("q{}.wp", plan.query_id),
            group_cols.clone(),
            aggs.clone(),
        );
        let result_schema = {
            let mut columns = vec!["window_start".to_string(), "window_end".to_string()];
            columns.extend(group_cols.iter().cloned());
            columns.extend(aggs.iter().map(AggFunc::output_column));
            SchemaRegistry::global().intern_owned(format!("q{}.win", plan.query_id), columns)
        };
        Some(CqState {
            spec,
            window: *window,
            final_ops: final_ops.clone(),
            group_resolver: ColumnResolver::new(group_cols.clone()),
            agg_inputs: aggs
                .iter()
                .map(|a| a.input_column().map(ColumnRef::new))
                .collect(),
            time_ref: time_col.clone().map(ColumnRef::new),
            dedup_refs: dedup_cols.iter().cloned().map(ColumnRef::new).collect(),
            codec,
            result_schema,
            graph_idx,
            store: WindowStore::new(*window, spec.budget),
            // The root store closes one slide later so partials relayed
            // from other nodes have time to arrive and combine.
            root_store: WindowStore::new(
                window.with_grace(window.grace + window.slide),
                spec.budget,
            ),
            tracker: DeltaTracker::new(*delta),
            lease: Lease::granted(now, spec.lease),
            windows_emitted: 0,
            tel_shed: 0,
            tel_evicted: 0,
            rehydrated_windows: 0,
        })
    }

    /// A per-store segment log larger than this is compacted (rewritten as
    /// one fresh snapshot) on the next persist.
    const SEGMENT_COMPACT_BYTES: usize = 1 << 20;

    /// Durable-store keys of one query's two window stores.
    fn segment_keys(query_id: u64) -> (String, String) {
        (format!("q{query_id}.local"), format!("q{query_id}.root"))
    }

    /// Rehydrate a freshly built [`CqState`] from durable window segments,
    /// if the node has a [`DurableStore`] holding any.  Called on the
    /// install path *before* the state is inserted, so a restarted node
    /// serves warm windows from its first tick: re-dissemination re-installs
    /// the query and the retained panes come back from the segment log
    /// instead of being recomputed.
    fn rehydrate_cq(&self, query_id: u64, cq: &mut CqState) {
        let Some(durable) = self.config.durable.as_ref() else {
            return;
        };
        let (local_key, root_key) = Self::segment_keys(query_id);
        let mut total = RehydrateReport::default();
        for (key, store) in [(local_key, &mut cq.store), (root_key, &mut cq.root_store)] {
            let Some(log) = durable.get(&key) else {
                continue;
            };
            let report = store.rehydrate_from(&log);
            total.windows += report.windows;
            total.groups += report.groups;
            total.tuples += report.tuples;
            total.records += report.records;
            total.skipped += report.skipped;
            total.torn_tail |= report.torn_tail;
        }
        if total.records == 0 && !total.torn_tail {
            return; // nothing durable for this query: a genuinely cold start
        }
        cq.rehydrated_windows = total.windows as u64;
        self.tel.add("cq.rehydrated_windows", total.windows as u64);
        self.tel.event("window.rehydrate", || {
            vec![
                ("query_id", query_id.to_string()),
                ("windows", total.windows.to_string()),
                ("groups", total.groups.to_string()),
                ("tuples", total.tuples.to_string()),
                ("skipped", total.skipped.to_string()),
                ("torn_tail", total.torn_tail.to_string()),
            ]
        });
    }

    /// Snapshot a continuous query's window state into the durable store
    /// (both the local and the relay/root [`WindowStore`]).  Appends one
    /// snapshot per tick; once a log outgrows
    /// [`PierNode::SEGMENT_COMPACT_BYTES`] it is rewritten from scratch —
    /// rehydration only reads the *latest* snapshot of each window, so
    /// compaction loses nothing.
    fn persist_cq(durable: &DurableStore, query_id: u64, cq: &CqState) {
        let (local_key, root_key) = Self::segment_keys(query_id);
        for (key, store) in [(local_key, &cq.store), (root_key, &cq.root_store)] {
            durable.with_log(&key, |log| {
                if log.len() > Self::SEGMENT_COMPACT_BYTES {
                    *log = SegmentLog::new();
                }
                store.write_segments(log);
            });
        }
    }

    /// Fold one chunk of dataflow output into the query's window store.  The
    /// event-time, group, dedup and aggregate-input columns all resolve
    /// against the chunk's schema once; the per-row work is column indexing
    /// only.
    fn cq_absorb_chunk(cq: &mut CqState, chunk: &ColumnChunk, now: SimTime) {
        let schema = chunk.schema();
        let Some(group_idxs) = cq.group_resolver.indices_for(schema) else {
            return; // malformed chunk: discard (best-effort policy)
        };
        let time_idx = cq.time_ref.as_mut().and_then(|c| c.index_for(schema));
        let dedup_idxs: Vec<Option<usize>> = cq
            .dedup_refs
            .iter_mut()
            .map(|c| c.index_for(schema))
            .collect();
        let agg_idxs: Vec<Option<usize>> = cq
            .agg_inputs
            .iter_mut()
            .map(|input| input.as_mut().and_then(|c| c.index_for(schema)))
            .collect();
        let aggs = cq.codec.aggs();
        // One key and one dedup buffer serve every row of the chunk.
        let mut key = String::new();
        let mut dedup = String::new();
        for r in 0..chunk.rows() {
            let event_time = time_idx
                .and_then(|i| chunk.col(i).value_ref(r).as_i64())
                .map_or(now, |v| v.max(0) as u64);
            key.clear();
            chunk.write_key_at(group_idxs, r, &mut key);
            dedup.clear();
            // A row missing a dedup column is treated as unique.
            for (i, idx) in dedup_idxs.iter().enumerate() {
                if i > 0 {
                    dedup.push('|');
                }
                match idx {
                    Some(c) => chunk.col(*c).value_ref(r).write_key(&mut dedup),
                    None => dedup.push('∅'),
                }
            }
            cq.store.push(
                event_time,
                &key,
                (!dedup_idxs.is_empty()).then_some(dedup.as_str()),
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
    }

    /// Periodic window maintenance (fires every slide): close due windows,
    /// forward their partials toward the window root — combining en route —
    /// and, at the root, merge arrived partials and stream per-window
    /// results to the proxy.
    fn window_tick(&mut self, ctx: &mut ProgramContext<Self>, query_id: u64) {
        let now = ctx.now();
        let Some(q) = self.queries.get_mut(&query_id) else {
            return; // query uninstalled: the tick chain stops
        };
        let Some(cq) = q.cq.as_mut() else {
            return;
        };
        let window_ns = q.plan.window_namespace();
        let root_key = q.plan.agg_root_key();
        let root_id = routing_id(&window_ns, &root_key);
        let proxy = q.plan.proxy;
        let is_root = self.overlay.router().is_responsible(root_id);

        // 1. Close this node's due windows.  At the root the partials merge
        //    straight into the root store; elsewhere they are encoded for
        //    the trip up (along with anything absorbed from upcall relays).
        let mut closed = cq.store.close_due(now);
        let mut to_send = None;
        // Distinct windows whose partials this flush bundles (a tick that
        // catches up after an EVERY-cadence gap ships several windows at
        // once); the flush span's `aux` records it so the per-*window*
        // static bound can be reconciled against a per-*tick* measurement.
        let mut flushed_windows: BTreeSet<WindowId> = BTreeSet::new();
        if is_root {
            for (wid, groups) in closed {
                for (key, acc) in groups {
                    cq.root_store.accept_refinement(wid, &key, acc);
                }
            }
        } else {
            closed.extend(cq.root_store.close_due(now));
            flushed_windows.extend(closed.iter().map(|(wid, _)| *wid));
            to_send = cq.codec.encode(&closed);
        }

        // 2. At the root: snapshot every due window that changed — state is
        //    *retained* so late partials keep merging and re-emit refined
        //    results — and turn each snapshot into result rows.
        let mut emissions: Vec<(WindowId, Vec<Delta<Tuple>>)> = Vec::new();
        if is_root {
            let mut emitted_max = None;
            for (wid, groups) in cq.root_store.emit_due(now) {
                let (ws, we) = cq.window.bounds(wid);
                let mut rows: Vec<Tuple> = groups
                    .into_iter()
                    .map(|(_, acc)| {
                        let mut values = Vec::with_capacity(cq.result_schema.arity());
                        values.push(Value::Int(ws as i64));
                        values.push(Value::Int(we as i64));
                        values.extend(acc.vals.iter().cloned());
                        values.extend(acc.states.iter().map(AggState::finish));
                        Tuple::from_schema(Arc::clone(&cq.result_schema), values)
                    })
                    .collect();
                rows.sort_by_cached_key(std::string::ToString::to_string);
                if !cq.final_ops.is_empty() {
                    rows = finish_rows(&cq.final_ops, &TupleBatch::new(rows));
                }
                let deltas = cq.tracker.emit(wid, rows);
                if !deltas.is_empty() {
                    cq.windows_emitted += 1;
                    emissions.push((wid, deltas));
                }
                emitted_max = Some(emitted_max.unwrap_or(0u64).max(wid));
            }
            // Retire windows past the refinement horizon from both the
            // retained root state and the delta tracker (bounded memory).
            if let Some(newest) = emitted_max {
                let retain = cq.retention_windows();
                if newest > retain {
                    cq.root_store.retire_before(newest - retain);
                    cq.tracker.retire(newest - retain - 1);
                }
            }
        }
        let window = cq.window;
        let lifetime = cq.spec.lease.max(self.config.publish_lifetime);

        // 3. Ship partials one hop toward the root (upcalls combine en
        //    route) and stream emissions to the proxy.  Every partial of a
        //    tick shares the window-root destination, so batching collapses
        //    the per-group message train into one transfer per tick.
        let mut effects = Vec::new();
        let shipments = partial_shipments(to_send.into_iter().collect(), self.config.batching);
        // Flush instrumentation: every shipping flush ticks
        // `cq.window_flushes` / `cq.flush_partials` (the counters the
        // span-reconciliation tests anchor to), and a sampled query's flush
        // additionally records a `window.flush` span whose context rides
        // the wire on every shipment of this tick.
        let mut flush_ctx: Option<TraceContext> = None;
        if self.tel.is_enabled() && !shipments.is_empty() {
            let partials: u64 = shipments.iter().map(|s| s.tuple_count() as u64).sum();
            let bytes: u64 = shipments.iter().map(|s| s.wire_size() as u64).sum();
            self.tel.inc("cq.window_flushes");
            self.tel.add("cq.flush_partials", partials);
            if let Some(trace_id) = self.traced(query_id) {
                let span = self.next_span_id(ctx.me());
                self.tel.record_span(
                    now,
                    now,
                    trace_id,
                    span,
                    trace_id,
                    query_id,
                    "window.flush",
                    partials,
                    bytes,
                    flushed_windows.len() as u64,
                );
                flush_ctx = Some(TraceContext {
                    trace_id,
                    span_id: span,
                    query_id,
                });
            }
        }
        for shipment in shipments {
            let name = ObjectName::new(window_ns.clone(), root_key.clone(), self.rng.next_u64());
            self.overlay.set_trace(flush_ctx);
            effects.extend(
                self.overlay
                    .send_routed(root_id, name, shipment, lifetime, now),
            );
        }
        self.drive(ctx, effects);
        for (wid, deltas) in emissions {
            let (window_start, window_end) = window.bounds(wid);
            let mut retracts = Vec::new();
            let mut inserts = Vec::new();
            for d in deltas {
                match d {
                    Delta::Retract(t) => retracts.push(t),
                    Delta::Insert(t) => inserts.push(t),
                }
            }
            // A sampled query's per-window emission: the `window.emit`
            // span parents to the newest absorption at this root and its
            // context travels to the proxy on the results message.
            let emit_ctx = self.traced(query_id).map(|trace_id| {
                let span = self.next_span_id(ctx.me());
                let parent = self
                    .last_combine_span
                    .get(&query_id)
                    .copied()
                    .unwrap_or(trace_id);
                self.tel.record_span(
                    now,
                    now,
                    trace_id,
                    span,
                    parent,
                    query_id,
                    "window.emit",
                    (retracts.len() + inserts.len()) as u64,
                    0,
                    window_start,
                );
                TraceContext {
                    trace_id,
                    span_id: span,
                    query_id,
                }
            });
            if proxy == ctx.me() {
                self.proxy_receive_window(
                    ctx,
                    query_id,
                    window_start,
                    window_end,
                    retracts,
                    inserts,
                    emit_ctx,
                );
            } else {
                ctx.send(
                    proxy,
                    PierMsg::WindowResults {
                        query_id,
                        window_start,
                        window_end,
                        retracts,
                        inserts,
                        trace: emit_ctx,
                    },
                );
            }
        }
        // 4. Window health into telemetry: absolute occupancy/shed gauges
        //    summed over every installed continuous query, plus shed/evict
        //    *deltas* of this query as trace events.
        if self.tel.is_enabled() {
            if let Some(cq) = self.queries.get_mut(&query_id).and_then(|q| q.cq.as_mut()) {
                let local = cq.store.stats();
                let root = cq.root_store.stats();
                let shed =
                    local.shed_tuples + local.shed_groups + root.shed_tuples + root.shed_groups;
                let evicted = local.evicted_windows + root.evicted_windows;
                if shed > cq.tel_shed {
                    let delta = shed - cq.tel_shed;
                    cq.tel_shed = shed;
                    self.tel.event("window_shed", || {
                        vec![
                            ("query_id", query_id.to_string()),
                            ("shed", delta.to_string()),
                        ]
                    });
                }
                if evicted > cq.tel_evicted {
                    let delta = evicted - cq.tel_evicted;
                    cq.tel_evicted = evicted;
                    self.tel.event("window_evict", || {
                        vec![
                            ("query_id", query_id.to_string()),
                            ("evicted", delta.to_string()),
                        ]
                    });
                }
            }
            let mut accepted = 0u64;
            let mut shed = 0u64;
            let mut evicted = 0u64;
            let mut open = 0u64;
            let mut groups = 0u64;
            let mut state_bytes = 0u64;
            let acc_bytes = |g: &GroupAgg| -> usize {
                g.vals.iter().map(WireSize::wire_size).sum::<usize>()
                    + g.states.iter().map(WireSize::wire_size).sum::<usize>()
            };
            for q in self.queries.values() {
                let Some(cq) = q.cq.as_ref() else { continue };
                for stats in [cq.store.stats(), cq.root_store.stats()] {
                    accepted += stats.accepted;
                    shed += stats.shed_tuples + stats.shed_groups;
                    evicted += stats.evicted_windows;
                }
                open += (cq.store.open_windows() + cq.root_store.open_windows()) as u64;
                groups += (cq.store.total_groups() + cq.root_store.total_groups()) as u64;
                state_bytes += (cq.store.approx_state_bytes(&acc_bytes)
                    + cq.root_store.approx_state_bytes(&acc_bytes))
                    as u64;
            }
            self.tel.gauge("cq.accepted", accepted as f64);
            self.tel.gauge("cq.shed", shed as f64);
            self.tel.gauge("cq.evicted_windows", evicted as f64);
            self.tel.gauge("cq.open_windows", open as f64);
            self.tel.gauge("cq.state_groups", groups as f64);
            self.tel.gauge("cq.state_bytes", state_bytes as f64);
        }

        // 5. Persist the surviving window state as durable segments, so a
        //    crash after this tick restarts warm.
        if let Some(durable) = self.config.durable.as_ref() {
            if let Some(cq) = self.queries.get(&query_id).and_then(|q| q.cq.as_ref()) {
                Self::persist_cq(durable, query_id, cq);
            }
        }

        // 6. Re-arm while the query is installed.
        if self.queries.contains_key(&query_id) {
            ctx.set_timer(window.slide, PierTimer::WindowTick { query_id });
        }
    }

    /// Periodic window maintenance for one share group (fires every slide,
    /// once per group — the shared counterpart of
    /// [`PierNode::window_tick`]): the layer closes due windows and hands
    /// back one partial stream to ship toward the group's root plus, at the
    /// root, per-member emissions the executor forwards to each member's
    /// proxy.
    fn share_tick(&mut self, ctx: &mut ProgramContext<Self>, group: u64, epoch: u64) {
        let now = ctx.now();
        let Some(route) = self.sharing.as_ref().and_then(|l| l.group_route(group)) else {
            return; // group retired: the tick chain stops
        };
        if route.epoch != epoch {
            // The group was retired and re-created since this chain was
            // armed; the new incarnation drives its own chain — a stale
            // timer must not stack a duplicate one.
            return;
        }
        let root_id = routing_id(&route.namespace, &route.root_key);
        let is_root = self.overlay.router().is_responsible(root_id);
        let out = self
            .sharing
            .as_mut()
            .expect("route resolved above")
            .tick(group, now, is_root);
        let lifetime = self.config.publish_lifetime;
        let mut effects = Vec::new();
        // One transfer per tick per group: every partial shares the group's
        // window-root destination, so batching collapses the train.
        let shipments = partial_shipments(out.partials.into_iter().collect(), self.config.batching);
        // Share-group attribution: shared work is charged to the group's
        // canonical (lowest-id) member — one `share.flush` span per
        // shipping tick when tracing is in trace-all mode (per-query
        // sampling decisions are meaningless for work N queries share).
        let mut share_ctx: Option<TraceContext> = None;
        if self.tel.is_enabled() && !shipments.is_empty() {
            let partials: u64 = shipments.iter().map(|s| s.tuple_count() as u64).sum();
            self.tel.inc("mqo.share_flushes");
            self.tel.add("mqo.share_flush_partials", partials);
            if self.config.trace.sample_every == 1 {
                let members = self
                    .sharing
                    .as_ref()
                    .map_or_else(Vec::new, |l| l.member_ids(group));
                if let Some(&canonical) = members.first() {
                    let bytes: u64 = shipments.iter().map(|s| s.wire_size() as u64).sum();
                    let trace_id = trace_id_for(canonical);
                    let span = self.next_span_id(ctx.me());
                    self.tel.record_span(
                        now,
                        now,
                        trace_id,
                        span,
                        trace_id,
                        canonical,
                        "share.flush",
                        partials,
                        bytes,
                        members.len() as u64,
                    );
                    share_ctx = Some(TraceContext {
                        trace_id,
                        span_id: span,
                        query_id: canonical,
                    });
                }
            }
        }
        for shipment in shipments {
            let name = ObjectName::new(
                route.namespace.clone(),
                route.root_key.clone(),
                self.rng.next_u64(),
            );
            self.overlay.set_trace(share_ctx);
            effects.extend(
                self.overlay
                    .send_routed(root_id, name, shipment, lifetime, now),
            );
        }
        self.drive(ctx, effects);
        for e in out.emissions {
            // Per-member emission spans (trace-all mode only): each member
            // gets a top-level `window.emit` in its *own* trace, so shared
            // execution still yields per-query profiles.
            let emit_ctx = if self.tel.is_enabled() && self.config.trace.sample_every == 1 {
                let trace_id = trace_id_for(e.query_id);
                let span = self.next_span_id(ctx.me());
                self.tel.record_span(
                    now,
                    now,
                    trace_id,
                    span,
                    trace_id,
                    e.query_id,
                    "window.emit",
                    (e.retracts.len() + e.inserts.len()) as u64,
                    0,
                    e.window_start,
                );
                Some(TraceContext {
                    trace_id,
                    span_id: span,
                    query_id: e.query_id,
                })
            } else {
                None
            };
            if e.proxy == ctx.me() {
                self.proxy_receive_window(
                    ctx,
                    e.query_id,
                    e.window_start,
                    e.window_end,
                    e.retracts,
                    e.inserts,
                    emit_ctx,
                );
            } else {
                ctx.send(
                    e.proxy,
                    PierMsg::WindowResults {
                        query_id: e.query_id,
                        window_start: e.window_start,
                        window_end: e.window_end,
                        retracts: e.retracts,
                        inserts: e.inserts,
                        trace: emit_ctx,
                    },
                );
            }
        }
        // Re-arm while this incarnation of the group lives.
        if self
            .sharing
            .as_ref()
            .and_then(|l| l.group_route(group))
            .is_some_and(|r| r.epoch == epoch)
        {
            ctx.set_timer(route.slide, PierTimer::ShareTick { group, epoch });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn proxy_receive_window(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        query_id: u64,
        window_start: SimTime,
        window_end: SimTime,
        retracts: Vec<Tuple>,
        inserts: Vec<Tuple>,
        trace: Option<TraceContext>,
    ) {
        let Some(state) = self.proxied.get_mut(&query_id) else {
            return; // finished, or never proxied here
        };
        state.results += inserts.len() as u64;
        // The delivery at the proxy closes the span tree: `result.emit`
        // parents to the root's wire-carried `window.emit` span.
        if let Some(t) = trace {
            if self.tel.is_enabled() {
                let now = ctx.now();
                let span = self.next_span_id(ctx.me());
                self.tel.record_span(
                    now,
                    now,
                    t.trace_id,
                    span,
                    t.span_id,
                    t.query_id,
                    "result.emit",
                    inserts.len() as u64,
                    0,
                    window_start,
                );
            }
        }
        for tuple in retracts {
            ctx.output(PierOut::WindowResult {
                query_id,
                window_start,
                window_end,
                retract: true,
                tuple,
            });
        }
        for tuple in inserts {
            ctx.output(PierOut::WindowResult {
                query_id,
                window_start,
                window_end,
                retract: false,
                tuple,
            });
        }
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

    /// Diagnostics of an installed continuous query (`None` when the query
    /// is not installed here or is not continuous).
    pub fn cq_diagnostics(&self, query_id: u64) -> Option<CqDiagnostics> {
        let q = self.queries.get(&query_id)?;
        let cq = q.cq.as_ref()?;
        Some(CqDiagnostics {
            local: cq.store.stats(),
            root: cq.root_store.stats(),
            open_windows: cq.store.open_windows() + cq.root_store.open_windows(),
            total_groups: cq.store.total_groups() + cq.root_store.total_groups(),
            tracked_emissions: cq.tracker.tracked_windows(),
            windows_emitted: cq.windows_emitted,
            lease_renewals: cq.lease.renewals,
            rehydrated_windows: cq.rehydrated_windows,
        })
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
            PierMsg::Results { query_id, tuples } => {
                self.proxy_receive(ctx, query_id, tuples);
            }
            PierMsg::WindowResults {
                query_id,
                window_start,
                window_end,
                retracts,
                inserts,
                trace,
            } => {
                self.proxy_receive_window(
                    ctx,
                    query_id,
                    window_start,
                    window_end,
                    retracts,
                    inserts,
                    trace,
                );
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
                if self.proxied.remove(&query_id).is_some() {
                    // The query's budget charge returns to its tenant.
                    if let Some(layer) = self.admission.as_mut() {
                        layer.release(query_id);
                    }
                    ctx.output(PierOut::Done { query_id });
                }
            }
            PierTimer::WindowTick { query_id } => self.window_tick(ctx, query_id),
            PierTimer::ShareTick { group, epoch } => self.share_tick(ctx, group, epoch),
            PierTimer::MetricsPublish => self.publish_metrics(ctx),
            PierTimer::BatchFlush => {
                let now = ctx.now();
                self.batch_timer_armed = false;
                let effects = self.flush_all_rehash(now);
                self.drive(ctx, effects);
            }
            PierTimer::CqRenew { query_id } => {
                // Proxy-side: re-disseminate the standing plan so leases
                // extend everywhere and churned-in nodes pick the query up.
                // The next round is scheduled by jittered exponential
                // backoff rather than a fixed interval: rounds that are not
                // producing results (the stream stalled — partitioned away,
                // or the holders are down) spread out exponentially instead
                // of hammering a dead path in lockstep with every other
                // proxy, and the first successful round snaps back to the
                // base interval.  Jitter desynchronises proxies after a
                // partition heals.
                let plan = self
                    .proxied
                    .get(&query_id)
                    .and_then(|state| state.renew_plan.clone());
                if let Some(plan) = plan {
                    let renew_every = plan.cq.map_or(10_000_000, |c| c.renew_every).max(1);
                    let lease = plan.cq.map_or(renew_every * 3, |c| c.lease);
                    self.disseminate(ctx, plan);
                    let mut delay = renew_every;
                    if let Some(state) = self.proxied.get_mut(&query_id) {
                        // Cap below the lease so a healthy-but-quiet query
                        // still renews in time; holders additionally park
                        // (rather than sweep) lapsed leases when durable.
                        let cap = lease.saturating_sub(renew_every / 2).max(renew_every);
                        let backoff = state
                            .backoff
                            .get_or_insert_with(|| RenewalBackoff::new(renew_every, cap));
                        if state.results > state.renew_results || state.results == 0 {
                            // Progress — or a stream that has not started
                            // yet, which is not evidence of failure.
                            backoff.reset();
                        } else {
                            backoff.escalate();
                        }
                        state.renew_results = state.results;
                        let attempt = backoff.attempt();
                        delay = backoff.next_delay(&mut self.rng);
                        if attempt > 0 {
                            self.tel.event("lease.backoff", || {
                                vec![
                                    ("query_id", query_id.to_string()),
                                    ("attempt", attempt.to_string()),
                                    ("delay", delay.to_string()),
                                ]
                            });
                        }
                    }
                    ctx.set_timer(delay.max(1), PierTimer::CqRenew { query_id });
                }
            }
            PierTimer::CqLease { query_id } => {
                let now = ctx.now();
                let (lease, shared) = match self.queries.get(&query_id) {
                    Some(q) => match q.cq.as_ref() {
                        Some(cq) => (cq.lease, false),
                        None => return,
                    },
                    // Share-group members keep their lease in the layer.
                    None => match self
                        .sharing
                        .as_ref()
                        .and_then(|l| l.lease_expires_at(query_id))
                    {
                        Some(expires_at) => (Lease::granted(expires_at, 0), true),
                        None => return,
                    },
                };
                // With durable segments the owner may be a *restarted* node
                // whose renewals resume once it rejoins: a lapsed lease
                // parks in a grace window (one lease duration) before the
                // query is swept; shared members and soft-only nodes keep
                // the original hard expiry.
                let grace = if !shared && self.config.durable.is_some() {
                    lease.duration
                } else {
                    0
                };
                match lease.status(now, grace) {
                    LeaseStatus::Gone => {
                        // The owner stopped renewing (or we are partitioned
                        // away): the soft state lapses.
                        self.uninstall_query(query_id);
                    }
                    LeaseStatus::Active => {
                        ctx.set_timer(
                            lease.expires_at.saturating_sub(now).max(1),
                            PierTimer::CqLease { query_id },
                        );
                    }
                    LeaseStatus::Rehydrating => {
                        // Parked: hold the state through the grace window
                        // and re-check at its end (a renewal arriving in
                        // between pushes `expires_at` forward again).
                        ctx.set_timer(
                            lease
                                .expires_at
                                .saturating_add(grace)
                                .saturating_sub(now)
                                .max(1),
                            PierTimer::CqLease { query_id },
                        );
                    }
                }
            }
        }
    }

    fn on_stop(&mut self, ctx: &mut ProgramContext<Self>) {
        self.drain_ingest(ctx);
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

    fn windowed_cq_state() -> CqState {
        let plan = crate::sqlish::compile(
            "SELECT src, COUNT(*), SUM(len) FROM packets GROUP BY src WINDOW 30s SLIDE 10s",
            pier_runtime::NodeAddr(1),
            60_000_000,
        )
        .expect("windowed netmon query must compile");
        PierNode::build_cq_state(&plan, 0).expect("plan has a windowed sink")
    }

    /// The per-tuple absorb `cq_absorb_chunk` replaced, kept as the reference
    /// the chunk path is compared against.
    fn cq_absorb(cq: &mut CqState, tuple: &Tuple, now: SimTime) {
        let event_time = cq
            .time_ref
            .as_mut()
            .and_then(|c| c.get(tuple))
            .and_then(Value::as_i64)
            .map_or(now, |v| v.max(0) as u64);
        let Some(indices) = cq.group_resolver.indices(tuple) else {
            return; // malformed tuple: discard
        };
        let key = tuple.key_at(indices);
        let vals: Vec<Value> = indices.iter().map(|&i| tuple.values()[i].clone()).collect();
        let dedup = if cq.dedup_refs.is_empty() {
            None
        } else {
            // A tuple missing a dedup column is treated as unique.
            let mut out = String::with_capacity(12 * cq.dedup_refs.len());
            for (i, col) in cq.dedup_refs.iter_mut().enumerate() {
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
        let agg_values: Vec<Option<&Value>> = cq
            .agg_inputs
            .iter_mut()
            .map(|input| input.as_mut().and_then(|c| c.get(tuple)))
            .collect();
        let aggs = cq.codec.aggs();
        cq.store.push(
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

    /// Canonical view of a window store's content after closing everything:
    /// `(window, group key, group values, finished aggregates)` rows.
    fn drain_canonical(cq: &mut CqState) -> Vec<(u64, String, Vec<Value>, Vec<Value>)> {
        let mut out = Vec::new();
        for (wid, groups) in cq.store.close_due(1_000_000_000_000) {
            for (key, acc) in groups {
                out.push((
                    wid,
                    key,
                    acc.vals.clone(),
                    acc.states.iter().map(AggState::finish).collect(),
                ));
            }
        }
        out.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        out
    }

    #[test]
    fn cq_chunk_absorb_equals_per_tuple_absorb() {
        let rows = netmon_rows(400);
        let mut per_tuple = windowed_cq_state();
        let mut chunked = windowed_cq_state();
        let now = 1_000_000;
        for t in &rows {
            cq_absorb(&mut per_tuple, t, now);
        }
        let batch = TupleBatch::new(rows);
        for chunk in batch.chunks() {
            PierNode::cq_absorb_chunk(&mut chunked, chunk, now);
        }
        let a = drain_canonical(&mut per_tuple);
        let b = drain_canonical(&mut chunked);
        assert!(!a.is_empty(), "the workload must populate windows");
        assert_eq!(a, b);
    }

    #[test]
    fn cq_chunk_absorb_discards_malformed_chunks() {
        let mut cq = windowed_cq_state();
        let rows: Vec<Tuple> = (0..10)
            .map(|i| Tuple::new("packets", vec![("nothing", Value::Int(i))]))
            .collect();
        let batch = TupleBatch::new(rows);
        for chunk in batch.chunks() {
            PierNode::cq_absorb_chunk(&mut cq, chunk, 0);
        }
        assert!(drain_canonical(&mut cq).is_empty());
    }

    #[test]
    fn persisted_cq_state_rehydrates_warm() {
        let mut cq = windowed_cq_state();
        for t in netmon_rows(120) {
            cq_absorb(&mut cq, &t, 0);
        }
        let durable = DurableStore::new();
        PierNode::persist_cq(&durable, 7, &cq);
        let (local_key, _) = PierNode::segment_keys(7);
        let log = durable.get(&local_key).expect("snapshot was written");

        // A cold store (what a restarted node builds) rehydrates to the
        // same canonical contents the crashed node held.
        let mut cold = windowed_cq_state();
        let report = cold.store.rehydrate_from(&log);
        assert!(report.windows > 0, "open windows came back");
        assert!(!report.torn_tail);
        assert_eq!(drain_canonical(&mut cold), drain_canonical(&mut cq));
    }

    #[test]
    fn persist_compacts_once_the_log_outgrows_the_bound() {
        let mut cq = windowed_cq_state();
        for t in netmon_rows(50) {
            cq_absorb(&mut cq, &t, 0);
        }
        let durable = DurableStore::new();
        PierNode::persist_cq(&durable, 1, &cq);
        let after_one = durable.total_bytes();
        // Snapshots append...
        PierNode::persist_cq(&durable, 1, &cq);
        assert!(durable.total_bytes() > after_one);
        // ...until the log crosses the compaction bound, which rewrites it
        // as a single fresh snapshot.
        let (local_key, _) = PierNode::segment_keys(1);
        loop {
            let over = durable
                .get(&local_key)
                .is_some_and(|log| log.len() > PierNode::SEGMENT_COMPACT_BYTES);
            if over {
                break;
            }
            PierNode::persist_cq(&durable, 1, &cq);
        }
        PierNode::persist_cq(&durable, 1, &cq);
        durable.with_log(&local_key, |log| {
            assert!(
                log.len() <= PierNode::SEGMENT_COMPACT_BYTES,
                "compaction rewrote the oversized log"
            );
        });
        let mut cold = windowed_cq_state();
        let log = durable.get(&local_key).expect("compacted snapshot");
        cold.store.rehydrate_from(&log);
        assert_eq!(drain_canonical(&mut cold), drain_canonical(&mut cq));
    }
}
