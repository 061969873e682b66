//! The system under test: every call the benchmark makes into the
//! repository goes through this file, so the public surface the benchmark
//! pins is one reviewable list (repeated in `README.md`).
//!
//! Three parts:
//!
//! * the cluster builder — `make_ring_refs` + `Simulator::new` +
//!   `PierNode::with_static_ring`, generic over the node program so the
//!   same driver code runs bare [`PierNode`]s (end-to-end numbers) and
//!   [`Traced`] nodes (per-layer numbers);
//! * [`Traced`], a `Program` with `PierNode`'s own `Msg/Timer/Out` types
//!   that times every call into the node by message/timer class;
//! * direct probes of the other crates' chunk/batch entry points.

use pier::analyze::{admission_factory, analyze, EnvModel};
use pier::cq::{CqBudget, SegmentCodec, SegmentLog, WindowAccumulator, WindowStore};
use pier::dht::{
    make_ring_refs, DhtMessage, Id, NodeRef, ObjectManager, ObjectName, Router, RouterConfig,
};
use pier::mqo::{normalize, PredicateIndex};
use pier::qp::{
    sqlish, CmpOp, Expr, JoinSide, JoinSpec, LocalOperator, OpGraph, OperatorSpec, PierConfig,
    PierMsg, PierNode, PierOut, PierTimer, Pipeline, PlanBuilder, Projection, QueryPlan,
    SchemaRegistry, Selection, SinkSpec, SourceSpec, SymmetricHashJoin, TelemetryConfig,
    TupleBatch,
};
use pier::runtime::sim::{CongestionKind, SimOutput, TopologyConfig};
use pier::runtime::{Context, Program, SimConfig, Simulator, WireSize};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub use pier::cq::WindowSpec;
pub use pier::qp::{PierNode as PierNodeBare, Schema, Tuple, Value};
pub use pier::runtime::{NodeAddr, Rng64, SimTime, Zipf};

/// The handler context shared by [`PierNode`] and [`Traced`].
pub type Ctx = Context<PierMsg, PierTimer, PierOut>;

/// One second of virtual time.
pub const SEC: u64 = pier::runtime::MICROS_PER_SEC;

// ----- span classes ----------------------------------------------------------

/// The classes calls into a node are attributed to.  One span per call;
/// the metric prefix names the module that owns the handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanClass {
    Ingest,
    SubmitQuery,
    Publish,
    TimerWindowTick,
    TimerShareTick,
    TimerBatchFlush,
    TimerLifecycle,
    TimerAgg,
    TimerOverlay,
    MsgRouted,
    MsgWindowResults,
    MsgResults,
    MsgPutBatch,
    MsgPutRequest,
    MsgGet,
    MsgTree,
    MsgRouting,
    Other,
}

impl SpanClass {
    pub const ALL: [SpanClass; 18] = [
        SpanClass::Ingest,
        SpanClass::SubmitQuery,
        SpanClass::Publish,
        SpanClass::TimerWindowTick,
        SpanClass::TimerShareTick,
        SpanClass::TimerBatchFlush,
        SpanClass::TimerLifecycle,
        SpanClass::TimerAgg,
        SpanClass::TimerOverlay,
        SpanClass::MsgRouted,
        SpanClass::MsgWindowResults,
        SpanClass::MsgResults,
        SpanClass::MsgPutBatch,
        SpanClass::MsgPutRequest,
        SpanClass::MsgGet,
        SpanClass::MsgTree,
        SpanClass::MsgRouting,
        SpanClass::Other,
    ];

    /// Metric name prefix (`<prefix>.calls`, `<prefix>.busy_ms`, and for
    /// message classes `<prefix>.bytes`).
    pub fn prefix(self) -> &'static str {
        match self {
            SpanClass::Ingest => "core.node.ingest",
            SpanClass::SubmitQuery => "core.node.submit_query",
            SpanClass::Publish => "core.node.publish",
            SpanClass::TimerWindowTick => "core.node.timer_window_tick",
            SpanClass::TimerShareTick => "core.node.timer_share_tick",
            SpanClass::TimerBatchFlush => "core.node.timer_batch_flush",
            SpanClass::TimerLifecycle => "core.node.timer_lifecycle",
            SpanClass::TimerAgg => "core.node.timer_agg",
            SpanClass::TimerOverlay => "dht.wrapper.timer_overlay",
            SpanClass::MsgRouted => "core.node.msg_routed",
            SpanClass::MsgWindowResults => "core.node.msg_window_results",
            SpanClass::MsgResults => "core.node.msg_results",
            SpanClass::MsgPutBatch => "core.node.msg_put_batch",
            SpanClass::MsgPutRequest => "core.node.msg_put_request",
            SpanClass::MsgGet => "core.node.msg_get",
            SpanClass::MsgTree => "core.node.msg_tree",
            SpanClass::MsgRouting => "dht.router.msg_routing",
            SpanClass::Other => "core.node.other",
        }
    }

    /// Message classes also report `.bytes`.
    pub fn is_message(self) -> bool {
        matches!(
            self,
            SpanClass::MsgRouted
                | SpanClass::MsgWindowResults
                | SpanClass::MsgResults
                | SpanClass::MsgPutBatch
                | SpanClass::MsgPutRequest
                | SpanClass::MsgGet
                | SpanClass::MsgTree
                | SpanClass::MsgRouting
        )
    }

    // The wildcard arms keep the benchmark compiling and attributing when a
    // later change adds a message or timer variant: it lands in `other`.
    #[allow(unreachable_patterns)]
    fn of_msg(msg: &PierMsg) -> SpanClass {
        match msg {
            PierMsg::Results { .. } => SpanClass::MsgResults,
            PierMsg::WindowResults { .. } => SpanClass::MsgWindowResults,
            PierMsg::Dht(m) => match m {
                DhtMessage::Routing(_) => SpanClass::MsgRouting,
                DhtMessage::Routed { .. } => SpanClass::MsgRouted,
                DhtMessage::PutBatch { .. } => SpanClass::MsgPutBatch,
                DhtMessage::PutRequest { .. } => SpanClass::MsgPutRequest,
                DhtMessage::GetRequest { .. } | DhtMessage::GetResponse { .. } => SpanClass::MsgGet,
                DhtMessage::TreeJoin { .. }
                | DhtMessage::TreeBroadcastUp { .. }
                | DhtMessage::TreeBroadcastDown { .. } => SpanClass::MsgTree,
                _ => SpanClass::Other,
            },
            _ => SpanClass::Other,
        }
    }

    #[allow(unreachable_patterns)]
    fn of_timer(timer: &PierTimer) -> SpanClass {
        match timer {
            PierTimer::Overlay(_) => SpanClass::TimerOverlay,
            PierTimer::WindowTick { .. } => SpanClass::TimerWindowTick,
            PierTimer::ShareTick { .. } => SpanClass::TimerShareTick,
            PierTimer::BatchFlush => SpanClass::TimerBatchFlush,
            PierTimer::AggFlush { .. } | PierTimer::AggFinal { .. } => SpanClass::TimerAgg,
            PierTimer::QueryEnd { .. }
            | PierTimer::ProxyDone { .. }
            | PierTimer::CqRenew { .. }
            | PierTimer::CqLease { .. } => SpanClass::TimerLifecycle,
            _ => SpanClass::Other,
        }
    }
}

/// Per-class call counts, wall time inside the call and (messages) wire
/// bytes, kept by each [`Traced`] node and summed by the cluster.
#[derive(Debug, Clone, Default)]
pub struct SpanTable {
    pub calls: [u64; SpanClass::ALL.len()],
    pub busy_ns: [u64; SpanClass::ALL.len()],
    pub bytes: [u64; SpanClass::ALL.len()],
    /// Wall time the wrapper itself spent (classification + `wire_size`),
    /// outside every span: tracing overhead, not simulator time.
    pub tracer_ns: u64,
}

impl SpanTable {
    pub fn add(&mut self, other: &SpanTable) {
        for i in 0..SpanClass::ALL.len() {
            self.calls[i] += other.calls[i];
            self.busy_ns[i] += other.busy_ns[i];
            self.bytes[i] += other.bytes[i];
        }
        self.tracer_ns += other.tracer_ns;
    }

    /// The growth of this table since the snapshot `earlier`.
    pub fn since(&self, earlier: &SpanTable) -> SpanTable {
        let mut out = self.clone();
        for i in 0..SpanClass::ALL.len() {
            out.calls[i] -= earlier.calls[i];
            out.busy_ns[i] -= earlier.busy_ns[i];
            out.bytes[i] -= earlier.bytes[i];
        }
        out.tracer_ns -= earlier.tracer_ns;
        out
    }

    pub fn busy_total_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

// ----- node programs ---------------------------------------------------------

/// What the drivers need from a node program: the simulator's `Program`
/// with `PierNode`'s own message/timer/output types, plus the three client
/// entry points in tick-batch form (one call per node per tick, so the
/// traced variant's clock reads do not swamp a sub-microsecond `ingest`).
pub trait Node: Program<Msg = PierMsg, Timer = PierTimer, Out = PierOut> {
    const TRACED: bool;
    fn wrap(inner: PierNode) -> Self;
    fn pier(&self) -> &PierNode;
    fn spans(&self) -> Option<&SpanTable>;
    fn ingest_rows(&mut self, ctx: &mut Ctx, table: &str, rows: Vec<Tuple>);
    /// Compile and submit one statement; the client's whole submit path
    /// (parse, plan, admission, dissemination) is one call, so one span.
    fn submit_sql(&mut self, ctx: &mut Ctx, sql: &str, tenant: u64, timeout: u64) -> u64;
    fn submit_plan(&mut self, ctx: &mut Ctx, plan: QueryPlan) -> u64;
    fn publish_rows(&mut self, ctx: &mut Ctx, table: &str, key_cols: &[String], rows: Vec<Tuple>);
}

impl Node for PierNode {
    const TRACED: bool = false;

    fn wrap(inner: PierNode) -> Self {
        inner
    }

    fn pier(&self) -> &PierNode {
        self
    }

    fn spans(&self) -> Option<&SpanTable> {
        None
    }

    fn ingest_rows(&mut self, ctx: &mut Ctx, table: &str, rows: Vec<Tuple>) {
        for row in rows {
            self.ingest(ctx, table, row);
        }
    }

    fn submit_sql(&mut self, ctx: &mut Ctx, sql: &str, tenant: u64, timeout: u64) -> u64 {
        let mut plan = sqlish::compile(sql, ctx.me(), timeout).expect("benchmark query compiles");
        plan.tenant = tenant;
        self.submit_query(ctx, plan)
    }

    fn submit_plan(&mut self, ctx: &mut Ctx, plan: QueryPlan) -> u64 {
        self.submit_query(ctx, plan)
    }

    fn publish_rows(&mut self, ctx: &mut Ctx, table: &str, key_cols: &[String], rows: Vec<Tuple>) {
        for row in rows {
            self.publish(ctx, table, key_cols, row);
        }
    }
}

/// A `PierNode` whose every entry point is timed from outside.  It forwards
/// each call unchanged, so a traced run must produce the same results and
/// the same traffic as a bare one (the benchmark asserts it).
pub struct Traced {
    inner: PierNode,
    spans: SpanTable,
}

impl Traced {
    fn span<R>(&mut self, class: SpanClass, calls: u64, f: impl FnOnce(&mut PierNode) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let i = class as usize;
        self.spans.busy_ns[i] += start.elapsed().as_nanos() as u64;
        self.spans.calls[i] += calls;
        out
    }
}

impl Program for Traced {
    type Msg = PierMsg;
    type Timer = PierTimer;
    type Out = PierOut;

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.span(SpanClass::Other, 1, |n| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: NodeAddr, msg: PierMsg) {
        // Classification and `wire_size` happen outside the timed call and
        // are charged to the tracer, not to the handler or the simulator.
        let enter = Instant::now();
        let class = SpanClass::of_msg(&msg);
        self.spans.bytes[class as usize] += msg.wire_size() as u64;
        self.spans.tracer_ns += enter.elapsed().as_nanos() as u64;
        self.span(class, 1, |n| n.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx, timer: PierTimer) {
        let class = SpanClass::of_timer(&timer);
        self.span(class, 1, |n| n.on_timer(ctx, timer));
    }

    fn on_stop(&mut self, ctx: &mut Ctx) {
        self.span(SpanClass::Other, 1, |n| n.on_stop(ctx));
    }
}

impl Node for Traced {
    const TRACED: bool = true;

    fn wrap(inner: PierNode) -> Self {
        Traced {
            inner,
            spans: SpanTable::default(),
        }
    }

    fn pier(&self) -> &PierNode {
        &self.inner
    }

    fn spans(&self) -> Option<&SpanTable> {
        Some(&self.spans)
    }

    fn ingest_rows(&mut self, ctx: &mut Ctx, table: &str, rows: Vec<Tuple>) {
        let n = rows.len() as u64;
        self.span(SpanClass::Ingest, n, |node| {
            node.ingest_rows(ctx, table, rows)
        });
    }

    fn submit_sql(&mut self, ctx: &mut Ctx, sql: &str, tenant: u64, timeout: u64) -> u64 {
        self.span(SpanClass::SubmitQuery, 1, |node| {
            node.submit_sql(ctx, sql, tenant, timeout)
        })
    }

    fn submit_plan(&mut self, ctx: &mut Ctx, plan: QueryPlan) -> u64 {
        self.span(SpanClass::SubmitQuery, 1, |node| {
            node.submit_plan(ctx, plan)
        })
    }

    fn publish_rows(&mut self, ctx: &mut Ctx, table: &str, key_cols: &[String], rows: Vec<Tuple>) {
        let n = rows.len() as u64;
        self.span(SpanClass::Publish, n, |node| {
            node.publish_rows(ctx, table, key_cols, rows);
        });
    }
}

// ----- cluster ---------------------------------------------------------------

/// Network model of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// Uniform 1 ms LAN, no congestion.
    Lan,
    /// Transit-stub wide area with FIFO access-link queuing
    /// (`ClusterConfig::internet` of the repository's harness).
    Internet,
}

/// What a workload asks of its cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    pub nodes: usize,
    pub seed: u64,
    pub net: Net,
    /// Execute share-eligible standing queries through `pier_mqo::layer`.
    pub sharing: bool,
    /// Cost every submitted plan through `pier_analyze::admission_factory`.
    pub admission: bool,
    /// Attach a telemetry hub to every node (the overhead comparison).
    pub telemetry: bool,
    /// Fail-stop detection; the standing-query workloads tighten it the way
    /// the repository's continuous harness does.
    pub liveness_timeout: u64,
    /// Soft-state lifetime of published and rehashed tuples.
    pub publish_lifetime: u64,
}

/// One client output with its virtual arrival time and node.
pub type Output = SimOutput<PierOut>;

/// A simulated deployment of `N` nodes with pre-converged routing state.
pub struct Cluster<N: Node> {
    sim: Simulator<N>,
    refs: Vec<NodeRef>,
    /// Wall time inside simulator calls; kept by traced clusters only, so
    /// the bare cluster pays no clock reads.
    sim_ns: u64,
}

impl<N: Node> Cluster<N> {
    /// Boot the cluster and let start-up timers fire and the distribution
    /// tree form.
    pub fn boot(spec: &ClusterSpec) -> Self {
        let refs = make_ring_refs(spec.nodes, spec.seed);
        let (topology, congestion) = match spec.net {
            Net::Lan => (TopologyConfig::lan(), CongestionKind::None),
            Net::Internet => (TopologyConfig::internet_like(), CongestionKind::Fifo),
        };
        let mut sim: Simulator<N> = Simulator::new(SimConfig {
            seed: spec.seed,
            topology,
            congestion,
            // The churn workload processes more events than the default
            // storm guard allows a whole run.
            max_events: u64::MAX,
            ..SimConfig::default()
        });
        let mut pier = PierConfig::default();
        pier.overlay.router.liveness_timeout = spec.liveness_timeout;
        pier.publish_lifetime = spec.publish_lifetime;
        if spec.sharing {
            pier.sharing = Some(pier::mqo::layer);
            pier.slo.shared_execution = true;
        }
        if spec.admission {
            pier.admission = Some(admission_factory);
        }
        if spec.telemetry {
            pier.telemetry = TelemetryConfig::enabled();
        }
        for r in &refs {
            sim.add_node(N::wrap(PierNode::with_static_ring(*r, &refs, pier.clone())));
        }
        let mut cluster = Cluster {
            sim,
            refs,
            sim_ns: 0,
        };
        cluster.run_for(6 * SEC);
        cluster
    }

    fn in_sim<R>(&mut self, f: impl FnOnce(&mut Simulator<N>) -> R) -> R {
        if N::TRACED {
            let start = Instant::now();
            let out = f(&mut self.sim);
            self.sim_ns += start.elapsed().as_nanos() as u64;
            out
        } else {
            f(&mut self.sim)
        }
    }

    pub fn addr(&self, i: usize) -> NodeAddr {
        self.refs[i % self.refs.len()].addr
    }

    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    pub fn run_for(&mut self, micros: u64) {
        self.in_sim(|sim| sim.run_for(micros));
    }

    pub fn ingest(&mut self, at: NodeAddr, table: &str, rows: Vec<Tuple>) {
        self.in_sim(|sim| sim.invoke(at, |node, ctx| node.ingest_rows(ctx, table, rows)));
    }

    pub fn submit_sql(&mut self, at: NodeAddr, sql: &str, tenant: u64, timeout: u64) -> u64 {
        let mut id = 0;
        self.in_sim(|sim| {
            sim.invoke(at, |node, ctx| {
                id = node.submit_sql(ctx, sql, tenant, timeout)
            });
        });
        id
    }

    pub fn submit_plan(&mut self, at: NodeAddr, plan: QueryPlan) -> u64 {
        let mut id = 0;
        self.in_sim(|sim| sim.invoke(at, |node, ctx| id = node.submit_plan(ctx, plan)));
        id
    }

    pub fn publish(&mut self, at: NodeAddr, table: &str, key_cols: &[String], rows: Vec<Tuple>) {
        self.in_sim(|sim| {
            sim.invoke(at, |node, ctx| {
                node.publish_rows(ctx, table, key_cols, rows)
            });
        });
    }

    pub fn drain(&mut self) -> Vec<Output> {
        self.in_sim(Simulator::drain_outputs)
    }

    /// `(total_msgs, total_bytes)` delivered since boot.
    pub fn net(&self) -> (u64, u64) {
        let s = self.sim.stats();
        (s.total_msgs, s.total_bytes)
    }

    pub fn events(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Wall nanoseconds inside simulator calls (0 on a bare cluster).
    pub fn sim_ns(&self) -> u64 {
        self.sim_ns
    }

    /// The span tables of all nodes, summed (empty on a bare cluster).
    pub fn spans(&self) -> SpanTable {
        let mut total = SpanTable::default();
        for r in &self.refs {
            if let Some(t) = self.sim.node(r.addr).and_then(Node::spans) {
                total.add(t);
            }
        }
        total
    }

    /// Largest `(open windows, groups)` any node holds for `query`.
    pub fn cq_state_max(&self, query: u64) -> (usize, usize) {
        let mut max = (0, 0);
        for r in &self.refs {
            if let Some(d) = self
                .sim
                .node(r.addr)
                .and_then(|n| n.pier().cq_diagnostics(query))
            {
                max.0 = max.0.max(d.open_windows);
                max.1 = max.1.max(d.total_groups);
            }
        }
        max
    }
}

// ----- client outputs --------------------------------------------------------

/// A client output in the benchmark's own terms.
#[derive(Debug)]
pub enum Out {
    /// One row of a per-window result: `src` group and its count.
    Window {
        query: u64,
        start: SimTime,
        end: SimTime,
        retract: bool,
        src: Arc<str>,
        count: i64,
    },
    /// One answer row of a one-shot query, as its integer columns
    /// `(a, b, c)`.
    Row {
        abc: (i64, i64, i64),
    },
    Done {
        query: u64,
    },
    Admission {
        accepted: bool,
        sample_every: u32,
    },
    /// A row the benchmark cannot read (counted as a failure).
    Malformed,
}

/// Decode a drained output (outside the system-timed region).
pub fn decode(out: Output) -> (SimTime, Out) {
    let decoded = match out.value {
        PierOut::WindowResult {
            query_id,
            window_start,
            window_end,
            retract,
            tuple,
        } => {
            let src = match tuple.get("src") {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            };
            let count = tuple.get("count").and_then(Value::as_i64);
            match (src, count) {
                (Some(src), Some(count)) => Out::Window {
                    query: query_id,
                    start: window_start,
                    end: window_end,
                    retract,
                    src,
                    count,
                },
                _ => Out::Malformed,
            }
        }
        PierOut::Result { tuple, .. } => {
            let int = |c: &str| tuple.get(c).and_then(Value::as_i64);
            match (int("a"), int("b"), int("c")) {
                (Some(a), Some(b), Some(c)) => Out::Row { abc: (a, b, c) },
                _ => Out::Malformed,
            }
        }
        PierOut::Done { query_id } => Out::Done { query: query_id },
        PierOut::Admission {
            accepted,
            sample_every,
            ..
        } => Out::Admission {
            accepted,
            sample_every,
        },
    };
    (out.time, decoded)
}

// ----- plans and tuples ------------------------------------------------------

/// The standing netmon aggregate: per-source packet counts per window.
pub const NETMON_SQL: &str =
    "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s";

/// The dotted-quad source address of rank `rank`.
pub fn source_addr(rank: usize) -> String {
    format!("10.0.{}.{}", (rank / 256) % 256, rank % 256)
}

/// A tenant's constant-varied variant of it, watching `src`.
pub fn tenant_sql(src: &str) -> String {
    format!(
        "SELECT src, COUNT(*) FROM packets WHERE src = '{src}' \
         GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"
    )
}

fn compile(sql: &str) -> QueryPlan {
    sqlish::compile(sql, NodeAddr(0), 60 * SEC).expect("benchmark query compiles")
}

/// The window arithmetic of the standing queries (all share one WINDOW
/// clause).
pub fn window_spec() -> WindowSpec {
    match compile(NETMON_SQL).windowed_sink() {
        Some((_, SinkSpec::WindowedAgg { window, .. })) => *window,
        _ => panic!("standing plan must have a WINDOW clause"),
    }
}

/// Window starts (microseconds) of the windows covering instant `t`.
pub fn windows_covering(spec: &WindowSpec, t: SimTime) -> impl Iterator<Item = SimTime> + '_ {
    spec.windows_containing(t).map(|id| spec.bounds(id).0)
}

fn table_source(namespace: &str) -> SourceSpec {
    SourceSpec::Table {
        namespace: namespace.to_string(),
    }
}

/// Symmetric-hash join of `r ⋈ s` on `b`: rescan and rehash both relations
/// into `rendezvous`, join as tuples arrive (plans as in
/// `experiments::join_strategies`).
pub fn symmetric_hash_join_plan(
    proxy: NodeAddr,
    r: &str,
    s: &str,
    rendezvous: &str,
    timeout: u64,
) -> QueryPlan {
    let key = vec!["b".to_string()];
    let rehash = |id: u32, table: &str| OpGraph {
        id,
        source: table_source(table),
        join: None,
        ops: vec![],
        sink: SinkSpec::Rehash {
            namespace: rendezvous.to_string(),
            key_cols: key.clone(),
        },
    };
    PlanBuilder::new(proxy)
        .timeout(timeout)
        .opgraph(rehash(0, r))
        .opgraph(rehash(1, s))
        .opgraph(OpGraph {
            id: 2,
            source: table_source(rendezvous),
            join: Some(JoinSpec {
                left_table: r.to_string(),
                right_table: s.to_string(),
                left_key: key.clone(),
                right_key: key.clone(),
                output_table: format!("{r}_{s}"),
            }),
            ops: vec![],
            sink: SinkSpec::ToProxy,
        })
        .build()
}

/// Fetch-Matches index join: scan `r`, fetch the `s` partition per probe.
pub fn fetch_matches_plan(proxy: NodeAddr, r: &str, s: &str, timeout: u64) -> QueryPlan {
    PlanBuilder::new(proxy)
        .timeout(timeout)
        .opgraph(OpGraph {
            id: 0,
            source: table_source(r),
            join: None,
            ops: vec![OperatorSpec::FetchMatches {
                inner_namespace: s.to_string(),
                probe_col: "b".to_string(),
                output_table: format!("{r}_{s}"),
            }],
            sink: SinkSpec::ToProxy,
        })
        .build()
}

/// The interned schema of `table(columns…)`.
pub fn schema(table: &str, columns: &[&str]) -> Arc<Schema> {
    SchemaRegistry::global().intern(table, columns)
}

pub fn tuple(schema: &Arc<Schema>, values: Vec<Value>) -> Tuple {
    Tuple::from_schema(schema.clone(), values)
}

// ----- direct probes ---------------------------------------------------------

/// Median wall nanoseconds of `reps` calls of `f`, after one warm-up call.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut samples)
}

/// A `count` accumulator for the window-store probes (the shape of the
/// node's own `GroupAgg` with one `COUNT(*)`).
#[derive(Debug, Clone)]
struct CountAcc(u64);

impl WindowAccumulator for CountAcc {
    fn merge(&mut self, other: &Self) {
        self.0 += other.0;
    }
}

impl SegmentCodec for CountAcc {
    fn encode_state(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0.to_le_bytes());
    }

    fn decode_state(bytes: &[u8]) -> Option<Self> {
        Some(CountAcc(u64::from_le_bytes(bytes.try_into().ok()?)))
    }
}

/// Rows per probe input: one tick's ingest at one node.
pub const PROBE_ROWS: usize = 1024;

/// The direct probes, in metric order.  Each calls one public chunk/batch
/// entry point the way the workloads' handlers do, on workload-shaped
/// 1,024-row inputs, and reports the median of `reps` repetitions.
pub fn probes(seed: u64, reps: usize) -> Vec<(&'static str, f64)> {
    let mut rng = Rng64::new(seed ^ 0x009E_0BE5);
    let zipf = Zipf::new(1024, 0.9);
    let packets = schema("packets", &["src", "ts", "port"]);
    let rows: Vec<Tuple> = (0..PROBE_ROWS)
        .map(|i| {
            tuple(
                &packets,
                vec![
                    Value::str(source_addr(zipf.sample(&mut rng) - 1)),
                    Value::Int(i as i64 * 250),
                    Value::Int([22, 80, 443, 445][rng.index(4)]),
                ],
            )
        })
        .collect();
    let n = PROBE_ROWS as f64;
    let mut out = Vec::new();

    // core.tuple: columnar batch build + wire size (the rehash payload path).
    out.push((
        "core.tuple.batch_build_ns_per_row",
        median_ns(reps, || {
            let batch = TupleBatch::new(black_box(rows.clone()));
            black_box(batch.wire_size());
        }) / n,
    ));

    // core.operators: selection → projection over the whole batch.
    let batch = TupleBatch::new(rows.clone());
    let mut pipeline = Pipeline::new(vec![
        Box::new(Selection::new(Expr::cmp(
            CmpOp::Ge,
            Expr::col("port"),
            Expr::lit(80i64),
        ))) as Box<dyn LocalOperator + Send>,
        Box::new(Projection::new(vec!["src".into(), "ts".into()])),
    ]);
    out.push((
        "core.operators.pipeline_ns_per_row",
        median_ns(reps, || {
            black_box(pipeline.push_batch(black_box(&batch)).len());
        }) / n,
    ));

    // core.operators: chunk-native symmetric hash join, 64-row arrivals of
    // r(a,b) and s(b,c) alternating, as the rehash path delivers them.
    let r_schema = schema("r", &["a", "b"]);
    let s_schema = schema("s", &["b", "c"]);
    let join_chunks: Vec<(JoinSide, pier::qp::ColumnChunk)> = (0..PROBE_ROWS / 64)
        .map(|c| {
            let left = c % 2 == 0;
            let tuples: Vec<Tuple> = (0..64)
                .map(|i| {
                    let k = Value::Int(rng.index(512) as i64);
                    let v = Value::Int((c * 64 + i) as i64);
                    if left {
                        tuple(&r_schema, vec![v, k])
                    } else {
                        tuple(&s_schema, vec![k, v])
                    }
                })
                .collect();
            let side = if left {
                JoinSide::Left
            } else {
                JoinSide::Right
            };
            (side, TupleBatch::new(tuples).chunks()[0].clone())
        })
        .collect();
    out.push((
        "core.operators.join_ns_per_row",
        median_ns(reps, || {
            let key = vec!["b".to_string()];
            let mut join = SymmetricHashJoin::new(key.clone(), key, "r_s");
            for (side, chunk) in &join_chunks {
                black_box(join.push_chunk_batch(*side, chunk).len());
            }
        }) / n,
    ));

    // core.sqlish: one tenant statement, text to plan.
    let sql = tenant_sql(&source_addr(7));
    out.push((
        "core.sqlish.compile_us",
        median_ns(reps, || {
            black_box(sqlish::compile(black_box(&sql), NodeAddr(0), 60 * SEC).is_ok());
        }) / 1e3,
    ));

    // cq.state: absorb one tick's rows, then close the windows they opened
    // and persist a snapshot of the same state.
    let spec = window_spec();
    let keys: Vec<String> = rows
        .iter()
        .map(|t| t.get("src").map_or_else(String::new, Value::key_string))
        .collect();
    let absorb = |store: &mut WindowStore<CountAcc>| {
        for (i, key) in keys.iter().enumerate() {
            store.push(i as u64 * 250, key, None, || CountAcc(0), |a| a.0 += 1);
        }
    };
    out.push((
        "cq.state.push_ns_per_row",
        median_ns(reps, || {
            let mut store = WindowStore::new(spec, CqBudget::default());
            absorb(&mut store);
            black_box(store.total_groups());
        }) / n,
    ));
    let mut groups = 1usize;
    let mut close_samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut store = WindowStore::new(spec, CqBudget::default());
            absorb(&mut store);
            groups = store.total_groups().max(1);
            let start = Instant::now();
            black_box(store.close_due(3_600 * SEC).len());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    out.push((
        "cq.state.close_ns_per_group",
        crate::stats::median(&mut close_samples) / groups as f64,
    ));
    let mut store = WindowStore::new(spec, CqBudget::default());
    absorb(&mut store);
    out.push((
        "cq.segment.write_ns_per_group",
        median_ns(reps, || {
            let mut log = SegmentLog::new();
            store.write_segments(&mut log);
            black_box(log.len());
        }) / groups as f64,
    ));

    // mqo.index: 64 constant-varied members answered by one scan.
    let mut index = PredicateIndex::new();
    for member in 0..64u64 {
        index.insert(
            member,
            Expr::eq("src", source_addr(member as usize).as_str()),
        );
    }
    let chunk = &batch.chunks()[0];
    out.push((
        "mqo.index.eval_ns_per_row",
        median_ns(reps, || {
            index.eval_chunk(black_box(chunk));
            black_box(index.union().count());
        }) / chunk.rows().max(1) as f64,
    ));

    // mqo.fingerprint + analyze.cost: the submit path's static work.
    let plan = compile(&sql);
    out.push((
        "mqo.fingerprint.normalize_us",
        median_ns(reps, || {
            black_box(normalize(black_box(&plan)).is_some());
        }) / 1e3,
    ));
    let env = EnvModel::default();
    out.push((
        "analyze.cost.analyze_us",
        median_ns(reps, || {
            black_box(analyze(black_box(&plan), &env).state_bytes_per_node);
        }) / 1e3,
    ));

    // dht.router: next-hop decisions on a 1,024-node ring.
    let refs = make_ring_refs(1024, seed);
    let router = Router::with_static_ring(refs[0], &refs, RouterConfig::default());
    let targets: Vec<Id> = (0..PROBE_ROWS).map(|_| Id(rng.next_u64())).collect();
    out.push((
        "dht.router.next_hop_ns",
        median_ns(reps, || {
            for t in &targets {
                black_box(router.next_hop(*t, 0));
            }
        }) / n,
    ));

    // dht.object_manager: store then fetch under steady-state overwrites.
    let names: Vec<String> = (0..PROBE_ROWS).map(|i| format!("k{}", i % 256)).collect();
    let mut om: ObjectManager<u64> = ObjectManager::new(u64::MAX);
    let mut round = 0u64;
    out.push((
        "dht.object_manager.put_get_ns",
        median_ns(reps, || {
            round += 1;
            for (i, key) in names.iter().enumerate() {
                om.put(
                    ObjectName::new("t", key.clone(), i as u64 % 4),
                    round,
                    SEC,
                    round,
                );
                black_box(om.get("t", key, round).len());
            }
        }) / n,
    ));
    out
}
