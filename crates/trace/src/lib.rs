//! # pier-trace — sampled distributed tracing and EXPLAIN ANALYZE profiles
//!
//! PIER's observability story is recursive: the system monitors itself by
//! running queries over its own introspection state (`system.metrics`,
//! PR 6) and bounds queries *before* they run with a static cost report
//! (`pier-analyze`, PR 9).  What neither layer answers is *where a specific
//! query's result latency actually went* across nodes.  This crate closes
//! that loop with classic distributed tracing, adapted to the workspace's
//! determinism rules:
//!
//! * A [`TraceContext`] — query id, trace id, parent span id — piggybacks
//!   on DHT messages (`PutRequest`/`PutBatch`/`Routed`) and on
//!   `WindowResults`, so one tuple's journey (dissemination → ingest →
//!   operator stages → window flush → root upcall → result emit) links into
//!   a single cross-node span tree.  An absent context costs **zero wire
//!   bytes**: with sampling off, message sizes are bit-identical to an
//!   untraced build.
//! * The **sampling decision is deterministic**: taken once at the proxy
//!   from the node's seeded RNG (1-in-`sample_every`), stamped into the
//!   plan, and carried with it — never a wall clock, never re-rolled
//!   downstream.  Equal seeds therefore produce byte-identical span
//!   exports (pinned by `tests/span_profile.rs`).
//! * Spans land in the node's `pier-telemetry` hub (one bounded ring with
//!   the node's events, which are zero-duration spans no profile counts;
//!   the benchmark measures its cost as
//!   `telemetry.hub.enabled_overhead_share`) and are dogfooded
//!   into the `system.spans` DHT namespace so ordinary sqlish standing
//!   queries can compute per-query stage latency breakdowns through PIER
//!   itself.
//! * [`QueryProfile`] reconciles the *measured* spans against the *static*
//!   `CostReport` bounds ([`StaticBounds`], measured ≤ static asserted),
//!   computes the per-stage critical path of result latency, and renders
//!   the `EXPLAIN ANALYZE` summary plus a Chrome `trace_event` JSON export
//!   for flamegraph viewing.
//!
//! See `docs/OBSERVABILITY.md` for the span schema, the stage catalogue and
//! the sampling rules.

mod context;
mod merge;
mod profile;

pub use context::{trace_id_for, TraceConfig, TraceContext};
pub use merge::{chrome_trace_json, merge_spans, merged_span_jsonl, NodeSpan};
pub use profile::{CriticalHop, OperatorStats, QueryProfile, StageStats, StaticBounds};
