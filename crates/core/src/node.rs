//! The PIER node program: the query processor wired to the overlay and the
//! runtime.
//!
//! A [`PierNode`] is the "Program" box of Figures 3 and 4 with the query
//! processor included.  It embeds an [`Overlay`] (the DHT wrapper) and the
//! plain structs that do the work — the opgraph executor
//! ([`crate::graph_exec`]), the node's window engines and their pane
//! traffic (`engines.rs`, over [`crate::window_engine`]), the proxy
//! ([`crate::proxy`]) — each indexing the namespaces it reads, and is
//! only what connects them: timers, messages, spans, telemetry, admission
//! and the install-time scan.
//!
//! Life of a query (§3.3.2): a client hands a [`QueryPlan`] to any node
//! (its *proxy*) through [`PierNode::submit_query`]; the proxy disseminates
//! the plan (broadcast tree, equality index, or locally), every receiving
//! node instantiates the opgraphs and starts feeding them; answer rows are
//! forwarded to the proxy as the chunks the operators produced, and the
//! proxy turns them into the client's tuples ([`crate::proxy`]); execution
//! stops when the query's timeout expires.

use crate::admission::{AdmissionControl, AdmissionFactory, AdmissionVerdict, SloPolicy};
use crate::deadlines::{Deadline, Deadlines, Due};
use crate::engines::{EngineKey, Engines, Hop};
use crate::graph_exec::{ExecOut, GraphExec, GraphRef};
use crate::plan::{CqSpec, Dissemination, Install, QpObject, QueryPlan};
use crate::proxy::{MemberRun, PierOut, Proxy, RenewalRound, WindowBundle};
use crate::sharing::{
    InstallOutcome, MemberInstall, Membership, MultiQuerySharing, SharingFactory, SharingStats,
};
use crate::tuple::{ColumnChunk, Tuple, TupleBatch};
use crate::window_engine::{CqDiagnostics, EngineSpec};
use pier_cq::DurableStore;
use pier_dht::{
    DhtMessage, NodeRef, ObjectName, Overlay, OverlayConfig, OverlayEffect, OverlayEvent,
    OverlayTimer,
};
use pier_runtime::{Duration, NodeAddr, Program, ProgramContext, Rng64, SimTime, WireSize};
use pier_telemetry::{SpanRecord, Telemetry, TelemetryConfig, SPAN_SLOTS};
use pier_trace::{TraceConfig, TraceContext};
use std::collections::HashMap;

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
    /// histograms and a bounded ring of spans and events; when
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
    /// A hop that absorbs closed-pane partials noticed a gap in a sender's
    /// numbered shipments and asks the sender for them again
    /// ([`crate::pane_link`]).
    PaneRequest {
        /// The engine's window-partial namespace.
        namespace: String,
        /// The sender engine's incarnation the numbers belong to.
        epoch: u64,
        /// The missing shipments' numbers.
        seqs: Vec<u32>,
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
            PierMsg::PaneRequest {
                namespace, seqs, ..
            } => namespace.wire_size() + 8 + 4 + 4 * seqs.len(),
        }
    }
}

/// Timers used by a PIER node.
#[derive(Debug, Clone)]
pub enum PierTimer {
    /// Overlay maintenance.
    Overlay(OverlayTimer),
    /// Never armed: a one-shot aggregate's engine ships its panes on
    /// [`PierTimer::WindowTick`].  Declared for the benchmark's timer
    /// classes.
    AggFlush {
        /// Query being flushed.
        query_id: u64,
    },
    /// A one-shot aggregate's final instant, one hold before its timeout:
    /// its root answers once ([`crate::WindowEngine::finish`]).
    AggFinal {
        /// Query being finalized.
        query_id: u64,
    },
    /// The lifecycle sweep: act on every soft-state deadline due now —
    /// query ends, proxy completions, lease re-checks ([`Deadlines`]).  One
    /// is in flight per node for the earliest deadline.
    QueryEnd,
    /// Never armed: a proxy's completion is a [`Deadline::ProxyDone`] of
    /// the lifecycle sweep.  Declared for the benchmark's timer classes.
    ProxyDone,
    /// Periodic window maintenance for a continuous query or a one-shot
    /// aggregate: close due panes, forward partials toward the root, emit
    /// per-window results at a continuous query's root.  Fires every
    /// window slide (a one-shot aggregate's hold).
    WindowTick {
        /// Query being ticked.
        query_id: u64,
    },
    /// Proxy-side soft-state renewal: one round of this node's renewal
    /// clock — broadcast the lease roster of the standing queries it
    /// proxies, so leases extend and churned-in nodes pull what they lack.
    CqRenew,
    /// Never armed: a lease re-check is a [`Deadline::Lease`] of the
    /// lifecycle sweep.  Declared for the benchmark's timer classes.
    CqLease,
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
    /// The installed unshared plans, their dataflow and sinks.
    exec: GraphExec,
    /// Answer rows the current handler invocation has produced, one entry
    /// per `(proxy, query id)` in first-result order: [`PierNode::settle`]
    /// stages them, [`PierNode::drive`] posts them once its effects are
    /// driven.  Empty between invocations.
    outbox: Vec<(NodeAddr, u64, TupleBatch)>,
    /// The queries submitted here and their renewal clock.
    proxy: Proxy,
    /// Query ends, proxy completions and lease re-checks, swept by one
    /// [`PierTimer::QueryEnd`] timer.
    deadlines: Deadlines,
    next_query_seq: u64,
    /// Every window engine at this node and its pane traffic.
    engines: Engines,
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
            local_tables: HashMap::new(),
            exec: GraphExec::new(&config, tel.clone()),
            engines: Engines::new(&config, tel.clone()),
            outbox: Vec::new(),
            tel,
            config,
            proxy: Proxy::default(),
            deadlines: Deadlines::default(),
            next_query_seq: 0,
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
        self.exec.installed() + self.sharing.as_ref().map_or(0, |l| l.stats().members)
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

    /// Record the instantaneous span `span` (its own id in `span_id`) of
    /// `stage` under span `parent`, with the stage's `[rows, bytes, aux]`.
    fn record_span(
        &self,
        now: SimTime,
        span: TraceContext,
        parent: u64,
        stage: &'static str,
        values: [u64; 3],
    ) {
        self.tel.record(SpanRecord {
            start: now,
            end: now,
            ordinal: 0,
            trace_id: span.trace_id,
            span_id: span.span_id,
            parent,
            query_id: span.query_id,
            stage,
            names: SPAN_SLOTS,
            values,
        });
    }

    /// Record a `stage` span under `parent` and return its context, which
    /// parents whatever the stage hands on.  Span ids are node address (high
    /// half) and a per-node sequence (low half): cluster-unique and
    /// counter-derived, never random, so equal seeds allocate equal ids.
    fn span(
        &mut self,
        now: SimTime,
        parent: TraceContext,
        stage: &'static str,
        counts: [u64; 3],
    ) -> TraceContext {
        self.next_span_seq += 1;
        let me = u64::from(self.overlay.me().addr.0);
        let span = parent.child(((me + 1) << 32) | self.next_span_seq);
        self.record_span(now, span, parent.span_id, stage, counts);
        span
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
            let accepted = !matches!(decision.verdict, AdmissionVerdict::Reject { .. });
            let tenant = plan.tenant;
            let event = match decision.verdict {
                AdmissionVerdict::Admit => {
                    SpanRecord::event("admission.admit", query_id, &["tenant"], [tenant])
                }
                AdmissionVerdict::Shed { sample_every } => {
                    plan.sample_every = sample_every.max(2);
                    let values = [tenant, u64::from(plan.sample_every)];
                    let names = &["tenant", "sample_every"];
                    SpanRecord::event("admission.shed", query_id, names, values)
                }
                // The reason rides the report, not the event.
                AdmissionVerdict::Reject { .. } => {
                    SpanRecord::event("admission.reject", query_id, &["tenant"], [tenant])
                }
            };
            self.tel.inc(event.stage);
            self.tel.record(event);
            ctx.output(PierOut::Admission {
                query_id,
                tenant: plan.tenant,
                accepted,
                sample_every: plan.sample_every,
                report: decision.report,
            });
            if !accepted {
                ctx.output(PierOut::Done { query_id });
                return query_id;
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
            // The trace's root span IS the trace id, under no parent.
            let counts = [0, 0, u64::from(plan.sample_every)];
            let root = TraceContext::root(query_id);
            self.record_span(ctx.now(), root, 0, "query.disseminate", counts);
        }
        // A standing query joins this node's lease roster; the first one
        // starts the renewal clock.
        let now = ctx.now();
        if let Some(delay) = self.proxy.submit(&plan, now) {
            ctx.set_timer(delay, PierTimer::CqRenew);
        }
        let done = Deadline::ProxyDone(query_id);
        self.deadlines.file(now + plan.timeout, done);
        self.arm_sweep(ctx);
        // A standing broadcast plan submitted while the renewal round is
        // open takes the round with it: one broadcast carries both.
        let round = if plan.cq.is_some() && plan.dissemination == Dissemination::Broadcast {
            self.proxy.open_round(now, &mut self.rng)
        } else {
            None
        };
        // A plan joining a share group live here travels by its constants.
        let member = self.sharing.as_ref().and_then(|l| l.member_form(&plan));
        let install = match member {
            Some(m) => Install::Member(m),
            None => Install::Plan(plan),
        };
        match (round, install) {
            (Some(round), ride) => self.send_round(ctx, round, Some(ride)),
            (None, Install::Member(m)) => {
                let effects = self.overlay.broadcast(QpObject::Member(m), now);
                self.drive(ctx, effects);
            }
            (None, Install::Plan(plan)) => self.disseminate(ctx, plan),
        }
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

    /// Perform `effects` and whatever the events among them lead to, then
    /// post the results staged on the way: one `Results` message per
    /// (proxy, query), however many answers the invocation joined.
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
        for (proxy, query_id, rows) in std::mem::take(&mut self.outbox) {
            self.tel.inc("query.results.sent");
            self.post(ctx, proxy, PierMsg::Results { query_id, rows });
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
                // A Fetch Matches probe came back.
                let (overlay, rng) = (&mut self.overlay, &mut self.rng);
                let out = self
                    .exec
                    .fetched(request_id, &objects, ctx.now(), overlay, rng);
                self.settle(ctx, out)
            }
            OverlayEvent::NewData { object, trace } => {
                // A context on arriving data means the sender's stage was
                // sampled: record the absorption — arrival at (or relay
                // into) the window root — as a `window.combine` span
                // parented to the sender's wire-carried span.
                if let Some(t) = trace {
                    if self.tel.is_enabled() && object.value.tuple_count() > 0 {
                        let rows = object.value.tuple_count() as u64;
                        let counts = [rows, object.value.wire_size() as u64, 0];
                        let span = self.span(ctx.now(), t, "window.combine", counts);
                        self.last_combine_span.insert(t.query_id, span.span_id);
                    }
                }
                let namespace = &object.name.namespace;
                let now = ctx.now();
                if let QpObject::Plan(plan) = object.value {
                    self.install_query(ctx, plan);
                    return Vec::new();
                }
                // Closed-pane partials at their engine's root.
                let arrival = self.pane_arrival(ctx, namespace, &object.value, Hop::Root);
                if let Some(effects) = arrival {
                    return effects;
                }
                match object.value {
                    // Plans are installed above; member forms and rosters
                    // travel by broadcast only.
                    QpObject::Plan(_) | QpObject::Member(_) | QpObject::Renew { .. } => Vec::new(),
                    QpObject::Tuple(tuple) => {
                        // Most single-object arrivals are published rows
                        // landing at their owner while nothing here reads
                        // the namespace: don't build a chunk nobody reads.
                        let shared = self.sharing.as_ref();
                        if self.exec.readers(namespace).is_empty()
                            && !shared.is_some_and(|l| l.wants_namespace(namespace))
                        {
                            return Vec::new();
                        }
                        // A lone tuple is a one-row chunk; its `ingest` span
                        // still reports the bytes that arrived.
                        let batch = TupleBatch::from_chunks(vec![ColumnChunk::from_tuple(&tuple)]);
                        self.route_new_batch(ctx, namespace, &batch, now, || tuple.wire_size())
                    }
                    // A coalesced transfer: the dispatch happens once per
                    // batch and the operators consume whole chunks.
                    QpObject::Batch(batch) | QpObject::Panes { batch, .. } => {
                        self.route_new_batch(ctx, namespace, &batch, now, || batch.wire_size())
                    }
                }
            }
            OverlayEvent::Upcall(routed) => {
                // Hierarchical aggregation: intercept closed-pane partials
                // travelling up the tree to their engine's root, fold them
                // into our own, a chunk at a time, and consume the original
                // message (§3.3.4).
                let now = ctx.now();
                // Sampled senders get the §3.2.4 upcall offer recorded as a
                // `window.upcall` span; anything this node re-ships (refused
                // partials) parents to it via a fresh child context.
                let upcall_ctx = match routed.trace {
                    Some(t) if self.tel.is_enabled() => {
                        let rows = routed.value.tuple_count() as u64;
                        let span = self.span(now, t, "window.upcall", [rows, 0, 0]);
                        self.last_combine_span.insert(t.query_id, span.span_id);
                        Some(span)
                    }
                    _ => None,
                };
                let hop = Hop::Upcall(upcall_ctx);
                let namespace = &routed.name.namespace;
                match self.pane_arrival(ctx, namespace, &routed.value, hop) {
                    Some(effects) => effects,
                    None => self.overlay.forward(routed, now),
                }
            }
            OverlayEvent::Broadcast { payload } => {
                match payload {
                    QpObject::Plan(plan) => self.install_query(ctx, plan),
                    QpObject::Member(m) => {
                        let (proxy, query_id) = (m.member.proxy, m.query_id);
                        if !self.install_member(ctx, m) {
                            self.pull_plans(ctx, proxy, vec![query_id]);
                        }
                    }
                    QpObject::Renew {
                        proxy,
                        queries,
                        plan,
                    } => {
                        // The plan a round rides on first, so the roster
                        // finds it installed — or, a member form whose
                        // group is not live here, pulls it with the rest.
                        match plan.map(|ride| *ride) {
                            Some(Install::Plan(plan)) => self.install_query(ctx, plan),
                            Some(Install::Member(m)) => {
                                self.install_member(ctx, m);
                            }
                            None => {}
                        }
                        self.receive_roster(ctx, proxy, queries);
                    }
                    QpObject::Tuple(_) | QpObject::Batch(_) | QpObject::Panes { .. } => {}
                }
                Vec::new()
            }
            OverlayEvent::RenewResult { .. } | OverlayEvent::LookupDone { .. } => Vec::new(),
        }
    }

    /// Offer closed-pane partials arriving in `namespace` at `hop` to the
    /// engine reading it, and post its request for lost shipments; the
    /// effects to drive once the engine took them, `None` when none here
    /// did.
    fn pane_arrival(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        namespace: &str,
        value: &QpObject,
        hop: Hop,
    ) -> Option<Vec<OverlayEffect<QpObject>>> {
        let (now, overlay, rng) = (ctx.now(), &mut self.overlay, &mut self.rng);
        let arrival = self
            .engines
            .arrive(namespace, value, hop, now, overlay, rng);
        if let Some((origin, ask)) = arrival.ask {
            self.post(ctx, origin, ask);
        }
        arrival.taken.then_some(arrival.effects)
    }

    /// Record one `ingest` span per *sampled* query fed by an arriving
    /// batch (rows = tuples routed, bytes = wire size of the payload as it
    /// arrived, computed only when some target is sampled).
    fn ingest_spans(
        &mut self,
        targets: &[GraphRef],
        now: SimTime,
        rows: u64,
        bytes: impl FnOnce() -> usize,
    ) {
        if !self.tel.is_enabled() {
            return;
        }
        // Targets ascend by query id, so span ordinals are deterministic.
        let traced = |at: &&GraphRef| self.exec.plan(at.0).is_some_and(|p| p.trace);
        let mut qids: Vec<u64> = targets.iter().filter(traced).map(|at| at.0).collect();
        qids.dedup();
        if qids.is_empty() {
            return;
        }
        let bytes = bytes() as u64;
        for qid in qids {
            self.span(now, TraceContext::root(qid), "ingest", [rows, bytes, 0]);
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
        if let Some(layer) = self.sharing.as_mut() {
            // Shared ingest: each chunk is handed to the sharing layer once
            // — the dispatch cost of N member queries is one
            // predicate-index scan — and each group's engine absorbs the
            // rows some member selected.
            if layer.wants_namespace(namespace) {
                let engines = &mut self.engines;
                for chunk in batch.chunks() {
                    layer.select(namespace, chunk, &mut |group, selected| {
                        if let Some(engine) = engines.engine(EngineKey::Group(group)) {
                            engine.absorb(chunk, Some(selected), now);
                        }
                    });
                }
            }
        }
        // Base-table or rehash-namespace batches feeding installed
        // opgraphs, ascending by `(query, graph)`.
        let targets = self.exec.take_readers(namespace);
        self.ingest_spans(&targets, now, batch.len() as u64, wire_bytes);
        let mut effects = Vec::new();
        for &at in &targets {
            effects.extend(self.feed(ctx, at, batch, now));
        }
        self.exec.put_readers(namespace, targets);
        effects
    }

    // ----- query installation and execution ---------------------------------

    /// Renew the lease of `query_id` if it is installed here; false when it
    /// is not (the caller installs it, or pulls its plan).
    fn renew_lease(&mut self, query_id: u64, now: SimTime) -> bool {
        self.engines.renew(query_id, now) || self.exec.plan(query_id).is_some()
    }

    /// A proxy's lease roster arrived: renew every listed query held here
    /// and pull the rest from the proxy in one request.
    fn receive_roster(&mut self, ctx: &mut ProgramContext<Self>, proxy: NodeAddr, ids: Vec<u64>) {
        let now = ctx.now();
        let mut missing = ids;
        missing.retain(|id| !self.renew_lease(*id, now));
        self.pull_plans(ctx, proxy, missing);
    }

    /// Ask `proxy` for the plans of `queries`, in one request (none when
    /// empty).
    fn pull_plans(&mut self, ctx: &mut ProgramContext<Self>, proxy: NodeAddr, queries: Vec<u64>) {
        if queries.is_empty() {
            return;
        }
        self.tel.inc("cq.plan_pulls");
        self.post(ctx, proxy, PierMsg::PlanRequest { queries });
    }

    /// Answer a pull: the plans of the `queries` still proxied here go to
    /// `to` (installed on the spot when that is this node).
    fn serve_plans(&mut self, ctx: &mut ProgramContext<Self>, to: NodeAddr, queries: &[u64]) {
        let plans = self.proxy.plans_for(queries, ctx.now());
        if plans.is_empty() {
            return;
        }
        self.tel.add("cq.plans_served", plans.len() as u64);
        self.post(ctx, to, PierMsg::Plans { plans });
    }

    /// The renewal timer fired: run the round if it is due.
    fn renew_round(&mut self, ctx: &mut ProgramContext<Self>) {
        let round = self.proxy.renew_round(ctx.now(), &mut self.rng);
        self.send_round(ctx, round, None);
    }

    /// Send one round of the renewal clock — broadcast the roster, with
    /// the standing query `ride` when the round rides one; re-send the
    /// keyed plans — and arm the next round.
    fn send_round(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        round: RenewalRound,
        ride: Option<Install>,
    ) {
        let now = ctx.now();
        let Some(delay) = round.next_delay else {
            return;
        };
        self.tel.inc("cq.roster_rounds");
        if ride.is_some() {
            self.tel.inc("cq.roster_rides");
        }
        if round.attempt > 0 {
            let queries = (round.roster.len() + round.resend.len()) as u64;
            let values = [queries, u64::from(round.attempt), delay];
            let names = &["queries", "attempt", "delay"];
            self.tel
                .record(SpanRecord::event("lease.backoff", 0, names, values));
        }
        // A riding plan's own query is on the roster.
        if !round.roster.is_empty() {
            let roster = QpObject::Renew {
                proxy: ctx.me(),
                queries: round.roster,
                plan: ride.map(Box::new),
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
        // group's engine — the node files its lifecycle deadlines but
        // builds no dataflow; the engine's tick chain starts with its first
        // member.
        let shared = self.sharing.as_mut().map(|layer| layer.try_install(&plan));
        if let Some(InstallOutcome::Member(membership)) = shared {
            self.join_group(ctx, query_id, plan.timeout, *membership);
            return;
        }
        // An aggregating plan gets an engine of its own, rehydrated warm
        // from durable segments when this is a restart.  A one-shot
        // aggregate's engine holds no lease — it lives out its timeout — and
        // answers one hold before it.
        let mut engine_timers = None;
        if let Some((_, engine, member)) = EngineSpec::unshared(&plan) {
            let key = EngineKey::Query(query_id);
            let (hold, once) = (engine.window.slide, engine.emit_once);
            let lease = (!once).then_some(member.lease);
            let final_at = once.then(|| plan.timeout.saturating_sub(hold));
            engine_timers = Some((hold, lease, final_at));
            let open = Some((0, engine));
            self.engines
                .join(key, open, query_id, member, plan.trace, now);
        }
        let (timeout, trace, graphs) = (plan.timeout, plan.trace, plan.opgraphs.len());
        self.exec.install(plan);
        let lease = engine_timers.and_then(|(_, lease, _)| lease);
        let has_cq = lease.is_some();
        self.tel.inc("query.installs");
        let values = [graphs as u64, u64::from(has_cq)];
        let names = &["graphs", "continuous"];
        self.tel
            .record(SpanRecord::event("query_install", query_id, names, values));
        if trace && self.tel.is_enabled() {
            let counts = [graphs as u64, 0, 0];
            self.span(now, TraceContext::root(query_id), "query.install", counts);
        }
        self.file_lifetime(ctx, query_id, timeout, lease);
        if let Some((slide, _, final_at)) = engine_timers {
            ctx.set_timer(slide, PierTimer::WindowTick { query_id });
            if let Some(at) = final_at {
                ctx.set_timer(at, PierTimer::AggFinal { query_id });
            }
        }
        // Feed the opgraphs their initial data: node-local rows plus the
        // DHT-partitioned rows this node is responsible for.  The snapshot
        // of every source is taken
        // *before* any graph runs, so tuples that one opgraph republishes
        // during installation (e.g. a rehash into the query's rendezvous
        // namespace) are not double-counted by another opgraph that reads
        // that namespace — those arrive via `newData`.
        let mut initial_rows: Vec<Vec<Tuple>> = Vec::with_capacity(graphs);
        let installed = self.exec.plan(query_id);
        for g in installed.iter().flat_map(|p| &p.opgraphs) {
            let namespace = g.source.namespace();
            let local = self.local_tables.get(namespace);
            let mut rows = local.cloned().unwrap_or_default();
            let stored = self.overlay.local_scan(namespace, now);
            rows.extend(stored.into_iter().flat_map(|o| o.value.into_tuples()));
            initial_rows.push(rows);
        }
        for (gidx, rows) in initial_rows.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let batch = TupleBatch::new(rows);
            let effects = self.feed(ctx, (query_id, gidx), &batch, now);
            self.drive(ctx, effects);
        }
    }

    /// A standing query arrived in its member form: join its share group
    /// when the group is live here.  False when it is not — the caller
    /// pulls the whole plan from the proxy.
    fn install_member(&mut self, ctx: &mut ProgramContext<Self>, m: MemberInstall) -> bool {
        // A member form crossing a pulled copy renews, as a plan would.
        if self.renew_lease(m.query_id, ctx.now()) {
            return true;
        }
        let MemberInstall {
            group,
            query_id,
            timeout,
            member,
        } = m;
        let layer = self.sharing.as_mut();
        let Some(membership) = layer.and_then(|l| l.join(group, query_id, member)) else {
            return false;
        };
        self.tel.inc("cq.member_installs");
        self.join_group(ctx, query_id, timeout, membership);
        true
    }

    /// `query_id` became a member of a share group (`membership`): add it
    /// to the group's engine — opening the engine and starting its tick
    /// chain when it is the group's first member — and file its lifetime.
    fn join_group(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        query_id: u64,
        timeout: Duration,
        membership: Membership,
    ) {
        let Membership {
            group,
            epoch,
            engine,
            member,
        } = membership;
        let key = EngineKey::Group(group);
        let lease = member.lease;
        // The group's first member opens its engine and, below, starts its
        // tick chain.
        let tick = engine.as_ref().map(|spec| spec.window.slide);
        // Per-query sampling decisions are meaningless for work N queries
        // share: a group's members trace in trace-all mode only.
        let trace = self.config.trace.sample_every == 1;
        let open = engine.map(|spec| (epoch, spec));
        self.engines
            .join(key, open, query_id, member, trace, ctx.now());
        let values = [group, u64::from(tick.is_some())];
        let names = &["group", "new_group"];
        self.tel
            .record(SpanRecord::event("share_join", query_id, names, values));
        self.file_lifetime(ctx, query_id, timeout, Some(lease));
        if let Some(slide) = tick {
            ctx.set_timer(slide, PierTimer::ShareTick { group, epoch });
        }
    }

    /// File a query's end here `timeout` from now and, for a standing
    /// query, the first re-check of its `lease`, unless the end comes first.
    fn file_lifetime(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        query_id: u64,
        timeout: Duration,
        lease: Option<Duration>,
    ) {
        let now = ctx.now();
        let end = now + timeout;
        self.deadlines.file(end, Deadline::End(query_id));
        if let Some(lease) = lease.filter(|lease| now + lease < end) {
            self.deadlines
                .file(now + lease, Deadline::Lease { query_id, end });
        }
        self.arm_sweep(ctx);
    }

    /// Arm the lifecycle sweep for the earliest deadline, unless a sweep
    /// at or before it is already in flight.
    fn arm_sweep(&mut self, ctx: &mut ProgramContext<Self>) {
        if let Some(at) = self.deadlines.arm() {
            ctx.set_timer(at.saturating_sub(ctx.now()), PierTimer::QueryEnd);
        }
    }

    /// The lifecycle sweep: uninstall the queries that ended here or whose
    /// lease lapsed, report the proxied queries that are done, and arm the
    /// sweep for the next deadline.
    fn sweep_deadlines(&mut self, ctx: &mut ProgramContext<Self>) {
        let now = ctx.now();
        // With durable segments the owner may be a *restarted* node whose
        // renewals resume once it rejoins: a lapsed lease parks in a grace
        // window (one lease duration) before the query is swept; soft-only
        // nodes keep the original hard expiry.
        let durable = self.config.durable.is_some();
        loop {
            let engines = &self.engines;
            let lease = |q| Some(engines.holding(q)?.members().get(&q)?.lease);
            let Some(due) = self.deadlines.next_due(now, durable, lease) else {
                break;
            };
            match due {
                Due::Uninstall(query_id) => self.uninstall_query(query_id),
                Due::Done(query_id) => {
                    if self.proxy.done(query_id) {
                        // The query's budget charge returns to its tenant.
                        if let Some(layer) = self.admission.as_mut() {
                            layer.release(query_id);
                        }
                        ctx.output(PierOut::Done { query_id });
                    }
                }
            }
        }
        self.arm_sweep(ctx);
    }

    /// Feed `batch` to opgraph `at`, with the query's own window engine if
    /// it has one.
    fn feed(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        at: GraphRef,
        batch: &TupleBatch,
        now: SimTime,
    ) -> Vec<OverlayEffect<QpObject>> {
        let windows = self.engines.engine(EngineKey::Query(at.0));
        let (overlay, rng) = (&mut self.overlay, &mut self.rng);
        let out = self.exec.feed(at, batch, now, windows, overlay, rng);
        self.settle(ctx, out)
    }

    /// Do what an executor call asks: results are staged in the outbox,
    /// merged per (proxy, query), and the rehash flush tick is armed; the
    /// overlay effects are the caller's to [`PierNode::drive`], which posts
    /// the outbox.
    fn settle(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        out: ExecOut,
    ) -> Vec<OverlayEffect<QpObject>> {
        for (proxy, query_id, rows) in out.results {
            self.tel.inc("query.results.staged");
            let to = (proxy, query_id);
            match self.outbox.iter_mut().find(|(p, q, _)| (*p, *q) == to) {
                Some((_, _, staged)) => staged.append(rows),
                None => self.outbox.push((proxy, query_id, rows)),
            }
        }
        if out.arm_batch_flush {
            ctx.set_timer(BATCH_FLUSH_INTERVAL, PierTimer::BatchFlush);
        }
        out.effects
    }

    /// Uninstall a query: leave its window engine, drop its dataflow and
    /// routes, or leave its share group.  The schemas it interned need no
    /// release here: the registry forgets a shape once nothing holds it.
    fn uninstall_query(&mut self, query_id: u64) {
        self.last_combine_span.remove(&query_id);
        self.engines.leave(query_id);
        if self.exec.uninstall(query_id).is_some() {
            self.tel.inc("query.teardowns");
            self.tel
                .record(SpanRecord::event("query_teardown", query_id, &[], []));
            return;
        }
        // Share-group members also leave the layer: the group's refcount
        // drops, and its last member retires it.
        if let Some(layer) = self.sharing.as_mut() {
            let out = layer.uninstall(query_id);
            if out.was_member {
                let retired = [out.retired_group.unwrap_or(0)];
                self.tel.record(SpanRecord::event(
                    "share_leave",
                    query_id,
                    &["retired_group"],
                    retired,
                ));
            }
        }
    }

    /// Hand `msg` to node `to`: over the wire, or — when that is this node —
    /// straight to its own handler (a local hand-over is not traffic:
    /// nothing is counted as received).
    fn post(&mut self, ctx: &mut ProgramContext<Self>, to: NodeAddr, msg: PierMsg) {
        if to == ctx.me() {
            self.handle(ctx, to, msg);
        } else {
            ctx.send(to, msg);
        }
    }

    /// Act on a message from `from` (this node itself, for a local
    /// hand-over).
    fn handle(&mut self, ctx: &mut ProgramContext<Self>, from: NodeAddr, msg: PierMsg) {
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
            PierMsg::PaneRequest {
                namespace,
                epoch,
                seqs,
            } => {
                for msg in self.engines.resend(&namespace, epoch, &seqs, from) {
                    ctx.send(from, PierMsg::Dht(msg));
                }
            }
            PierMsg::Plans { plans } => {
                for plan in plans {
                    self.install_query(ctx, plan);
                }
            }
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

    /// One-shot aggregate `query_id` reached its final instant: at its
    /// root, send the proxy the one answer of every pane held here.
    fn finish_aggregate(&mut self, ctx: &mut ProgramContext<Self>, query_id: u64) {
        if let Some((proxy, rows)) = self.engines.finish(query_id, &self.overlay) {
            let mut out = ExecOut::default();
            out.results.push((proxy, query_id, TupleBatch::new(rows)));
            let effects = self.settle(ctx, out);
            self.drive(ctx, effects);
        }
    }

    /// Periodic window maintenance of one engine (fires every slide, once
    /// per engine however many member queries it serves): close due
    /// windows, ship their partials one hop toward the engine's window root
    /// — combining en route — and, at the root, stream each member's
    /// per-window results to its proxy; then report window health, persist
    /// the surviving state and re-arm `timer`.  `epoch` is the incarnation
    /// the firing timer was armed for.
    fn engine_tick(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        key: EngineKey,
        epoch: u64,
        timer: PierTimer,
    ) {
        let now = ctx.now();
        let Some(ticked) = self.engines.tick(key, epoch, now, &self.overlay) else {
            return; // engine retired or re-created: this tick chain stops
        };
        // 1. Ship partials one hop toward the root and stream emissions to
        //    the proxies.  Every partial of a tick shares the window-root
        //    destination, so batching collapses the per-group message train
        //    into one transfer per tick.  A traced engine's flush span
        //    parents every shipment of the tick; its `aux` lets the
        //    per-*pane* static bound be reconciled against a per-*tick*
        //    measurement.
        let flush_ctx = ticked.flush_span.map(|(query_id, stage, counts)| {
            self.span(now, TraceContext::root(query_id), stage, counts)
        });
        let (overlay, rng) = (&mut self.overlay, &mut self.rng);
        let effects = self
            .engines
            .ship(key, ticked.shipments, flush_ctx, now, overlay, rng);
        self.drive(ctx, effects);
        // One results message per (proxy, window), in first-emission order:
        // every member of a proxy the tick emitted for rides one message,
        // distinct windows never share one.
        let mut bundles: Vec<((NodeAddr, SimTime, SimTime), WindowBundle)> = Vec::new();
        for e in ticked.emissions {
            // A traced member's per-window emission: the `window.emit` span
            // parents to the newest absorption at this root (shared work:
            // to the member's own trace root) and its context travels to
            // the proxy on the results message.
            let emit_ctx = (self.tel.is_enabled() && e.trace).then(|| {
                let root = TraceContext::root(e.query_id);
                let combined = self.last_combine_span.get(&e.query_id);
                let parent = combined.filter(|_| !ticked.shared);
                let parent = parent.map_or(root, |span| root.child(*span));
                let rows = (e.retracts.len() + e.inserts.len()) as u64;
                self.span(now, parent, "window.emit", [rows, 0, e.window_start])
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
            let results = PierMsg::WindowResults {
                window_start,
                window_end,
                rows,
                members,
            };
            self.post(ctx, proxy, results);
        }
        // 2. Window health, durable segments, and the next tick while the
        //    engine lives.
        if let Some(slide) = self.engines.tock(key, now, ticked.health) {
            ctx.set_timer(slide, timer);
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
                self.span(now, t, "result.emit", [u64::from(rows), 0, window_start]);
            }
        }
        self.deliver(ctx, outs);
    }

    /// One round of the self-monitoring dogfood loop: publish the telemetry
    /// hub as a `system.metrics` row and, with [`TraceConfig::publish`],
    /// the spans recorded since the last round as `system.spans` rows, then
    /// re-arm.  The rows travel to their DHT owner (keyed by node label)
    /// like any other published row and are absorbed there exactly once,
    /// so standing queries over them — installed everywhere by broadcast —
    /// see every node without double counting.  Their schemas live while
    /// rows of them are held, like any other shape.
    fn publish_metrics(&mut self, ctx: &mut ProgramContext<Self>) {
        let Some(interval) = self.config.telemetry.publish_interval else {
            return;
        };
        let now = ctx.now();
        let node = format!("n{}", ctx.me().0);
        let tuple = |table: &str, row: pier_telemetry::Row<'_>| {
            Tuple::new(table, row.into_iter().map(|(c, v)| (c, v.into())).collect())
        };
        let metrics = self.tel.with(|hub| {
            // Ring drops also show as a gauge, for local summaries.
            hub.set_gauge("telemetry.trace_dropped", hub.dropped() as f64);
            tuple("system.metrics", hub.metrics_row(&node, now))
        });
        let Some(metrics) = metrics else {
            return; // telemetry is off
        };
        self.tel.inc("telemetry.publishes");
        self.publish_keyed(ctx, "system.metrics", node.clone(), metrics);
        if self.config.trace.publish {
            let cursor = self.span_publish_cursor;
            let spans = self.tel.with(|hub| {
                let (rows, cursor) = hub.span_rows(&node, cursor);
                let spans = rows.into_iter().map(|row| tuple("system.spans", row));
                (spans.collect::<Vec<Tuple>>(), cursor)
            });
            let (spans, cursor) = spans.unwrap_or((Vec::new(), cursor));
            self.span_publish_cursor = cursor;
            for span in spans {
                self.tel.inc("telemetry.span_publishes");
                self.publish_keyed(ctx, "system.spans", node.clone(), span);
            }
        }
        ctx.set_timer(interval, PierTimer::MetricsPublish);
    }

    /// Diagnostics of a continuous query or one-shot aggregate installed
    /// here, unshared or a share-group member (`None` when the query is not
    /// installed here or runs in no window engine).
    pub fn cq_diagnostics(&self, query_id: u64) -> Option<CqDiagnostics> {
        self.engines.holding(query_id)?.diagnostics(query_id)
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
        self.handle(ctx, from, msg);
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
            PierTimer::AggFinal { query_id } => self.finish_aggregate(ctx, query_id),
            PierTimer::QueryEnd => self.sweep_deadlines(ctx),
            PierTimer::ProxyDone | PierTimer::CqLease | PierTimer::AggFlush { .. } => {}
            PierTimer::WindowTick { query_id } => {
                self.engine_tick(ctx, EngineKey::Query(query_id), 0, timer);
            }
            PierTimer::ShareTick { group, epoch } => {
                self.engine_tick(ctx, EngineKey::Group(group), epoch, timer);
            }
            PierTimer::MetricsPublish => self.publish_metrics(ctx),
            PierTimer::BatchFlush => {
                let effects = self
                    .exec
                    .flush_rehash(ctx.now(), &mut self.overlay, &mut self.rng);
                self.drive(ctx, effects);
            }
            PierTimer::CqRenew => self.renew_round(ctx),
        }
    }

    fn on_stop(&mut self, ctx: &mut ProgramContext<Self>) {
        self.drain_ingest(ctx);
    }
}
