//! # pier-core — the PIER query processor
//!
//! This crate is the paper's primary contribution: a relational query
//! processor designed to run on thousands of Internet nodes over a DHT
//! overlay (`pier-dht`) and an event-driven runtime (`pier-runtime`).
//!
//! * [`value`] / [`mod@tuple`] — self-describing tuples with best-effort typing
//!   (no catalog, §3.3.1), held zero-copy: values share string/bytes
//!   payloads behind `Arc`s, tuples pair an interned `Arc<Schema>` with an
//!   `Arc<[Value]>` (cloning is allocation-free), and [`tuple::TupleBatch`]
//!   stores same-schema runs **columnar** ([`tuple::ColumnChunk`], one typed
//!   [`column::Column`] per column — native `i64`/`f64` buffers, dictionary
//!   or arena strings, validity bitmaps) for batch-at-a-time operator scans
//!   and schema-amortised wire accounting.
//! * [`expr`] — predicate and scalar expressions with discard-on-mismatch
//!   semantics (§3.3.4 "Malformed Tuples"), plus their compiled form
//!   ([`expr::CompiledExpr`]/[`expr::CompiledPredicate`]): column names
//!   resolve to positional indices once per interned schema, so selections
//!   and eddies evaluate by index over rows or columnar chunks.
//! * [`aggregate`] — mergeable partial aggregates (distributive/algebraic
//!   classification) used by hierarchical aggregation.
//! * [`eddy`] — the adaptive eddy operator of §4.2.2: runtime reordering of
//!   commutative filters with observation-driven (lottery) routing and
//!   mergeable cross-node statistics.
//! * [`operators`] — the local physical operators: selection, projection,
//!   duplicate elimination, group-by, top-k, limit, queues, Bloom filters,
//!   Symmetric Hash join, and the push-based [`operators::Pipeline`]
//!   realising the non-blocking local dataflow of §3.3.5.
//! * [`partial`] — closed-window partials of continuous queries: the
//!   per-group accumulator ([`partial::GroupAgg`]) and the one codec
//!   ([`partial::PartialCodec`]) that ships drained windows as a columnar
//!   chunk and merges arriving chunks into a window store in place.
//! * [`pane_link`] — the numbering, keeping and gap-finding that let the
//!   hop absorbing pane partials ask its sender for a lost shipment again
//!   and drop a copy it absorbed before.
//! * [`plan`] — UFL-style physical plans: opgraphs, sources, sinks
//!   (to-proxy, DHT rehash/Exchange, hierarchical aggregation), and the
//!   dissemination strategies of §3.3.3.
//! * [`graph_exec`] — [`graph_exec::GraphExec`], the opgraph executor of a
//!   node's installed plans as a plain struct (chunks in, an
//!   [`graph_exec::ExecOut`] of overlay effects and result chunks out):
//!   Fetch Matches index joins, rehash-based Symmetric Hash joins through
//!   the [`rehash::Rehash`] buffer; an aggregating graph's survivors go to
//!   its [`window_engine::WindowEngine`].
//! * [`node`] — [`node::PierNode`], the runnable node program wiring the
//!   overlay, the executor, the window engines and the proxy to the
//!   runtime: query dissemination and installation, namespace routing,
//!   timers, spans, result delivery and timeout-based termination
//!   (§3.3.2).
//! * [`sqlish`] — the "naive SQL-like language" front end of §4.2: a small
//!   SELECT-FROM-WHERE-GROUP BY parser and planner, reflecting the paper's
//!   observation that users preferred SQL to raw UFL.
//!
//! ## Invariants
//!
//! * **Schema interning**: schemas are immutable and interned process-wide
//!   ([`tuple::SchemaRegistry`]); `Arc::ptr_eq` on two live schema handles
//!   is equivalent to deep equality.  Every per-schema cache
//!   ([`tuple::ColumnResolver`], [`tuple::ColumnRef`],
//!   [`expr::CompiledPredicate`], operator output-schema caches) keys on
//!   this.  The registry forgets a shape once nothing else holds it, pruning
//!   itself as it grows, so it stays within twice the live shapes (at least
//!   a small floor) whatever they are named; no teardown has to tell it.
//! * **Parallel shapes**: a tuple's value slice is parallel to its schema's
//!   columns (equal arity); a [`tuple::ColumnChunk`]'s column vectors are
//!   parallel to its schema's columns and of equal length.
//! * **Batch equivalence**: every `push_batch`/`push_chunk` override
//!   produces exactly the tuples per-row dispatch would (pinned by the
//!   batching-equivalence tests); batches preserve row order across the
//!   columnar round trip bit-for-bit (property-tested).
//! * **Best effort everywhere** (§3.3.4): malformed tuples (missing
//!   columns, incompatible types) are silently discarded by the operator
//!   that notices, never surfaced as query errors.
//!
//! See `ARCHITECTURE.md` at the repository root for the cross-crate
//! picture (life of a query, message flows).

pub mod admission;
pub mod aggregate;
pub mod column;
pub mod deadlines;
pub mod eddy;
mod engines;
pub mod expr;
pub mod graph_exec;
pub mod node;
pub mod operators;
pub mod pane_link;
pub mod partial;
pub mod plan;
pub mod proxy;
pub mod range_index;
pub mod recursive;
pub mod rehash;
pub mod secondary_index;
pub mod sharing;
pub mod sqlish;
pub mod tuple;
pub mod value;
pub mod window_engine;

pub use admission::{
    AdmissionControl, AdmissionDecision, AdmissionFactory, AdmissionVerdict, EnvModel, SloBudget,
    SloPolicy,
};
pub use aggregate::{AggClass, AggFunc, AggState, PartialDecoder};
pub use column::{Bitmap, Column, DICT_MAX};
pub use eddy::{
    Eddy, EddyFilter, OperatorObservation, PredicateFilter, RoutingPolicy, EDDY_REORDER_ROWS,
    OBS_HALF_LIFE_ROWS,
};
pub use expr::{ArithOp, CmpOp, CompiledExpr, CompiledPredicate, EvalError, Expr};
pub use graph_exec::{ExecOut, GraphExec, GraphRef};
pub use node::{PierConfig, PierMsg, PierNode, PierTimer};
pub use operators::{
    nested_loop_join, BloomFilter, Distinct, GroupBy, JoinSide, Limit, LocalOperator, Pipeline,
    Projection, Queue, Selection, SymmetricHashJoin, TopK,
};
pub use partial::{GroupAgg, PartialCodec, PartialEncoder};
pub use pier_cq::{CqBudget, DeltaMode, WindowSpec};
pub use pier_telemetry::{SpanRecord, Telemetry, TelemetryConfig, TelemetryHub};
pub use pier_trace::{trace_id_for, TraceConfig, TraceContext};
pub use plan::{
    finish_rows, CqSpec, Dissemination, Install, JoinSpec, OpGraph, OperatorSpec, PlanBuilder,
    QpObject, QueryPlan, SinkSpec, SourceSpec,
};
pub use proxy::{window_result_schema, MemberRun, PierOut, Proxy, RenewalRound, WindowBundle};
pub use range_index::RangeIndexConfig;
pub use recursive::TransitiveClosure;
pub use rehash::Rehash;
pub use sharing::{
    InstallOutcome, MemberInstall, Membership, MultiQuerySharing, SharingFactory, SharingStats,
    UninstallOutcome,
};
pub use tuple::{
    ChunkRow, ColumnChunk, ColumnRef, ColumnResolver, Schema, SchemaRegistry, Tuple, TupleBatch,
};
pub use value::{Value, ValueRef};
pub use window_engine::{
    CqDiagnostics, Emission, EngineNames, EngineSpec, MemberSpec, TickOutput, WindowEngine,
};
