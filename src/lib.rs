//! # pier — facade crate for the PIER reproduction
//!
//! PIER ("Peer-to-peer Information Exchange and Retrieval") is an
//! Internet-scale relational query processor built over a distributed hash
//! table, described in *"The Architecture of PIER: an Internet-Scale Query
//! Processor"* (CIDR 2005).  This workspace reproduces the system in Rust.
//!
//! This crate simply re-exports the workspace crates under one roof so that
//! examples, integration tests and downstream users can depend on a single
//! `pier` crate:
//!
//! * [`runtime`] — Virtual Runtime Interface, discrete-event simulator,
//!   physical runtime on in-process channels (§3.1.3's UdpCC is not
//!   reproduced).
//! * [`dht`] — the overlay network: identifiers, Chord-style routing,
//!   soft-state object manager, Table-2 wrapper API, distribution and
//!   aggregation trees.
//! * [`pht`] — Prefix Hash Tree range-index substrate.
//! * [`qp`] — the query processor: tuples, operators, opgraphs, dataflow,
//!   dissemination, hierarchical operators, SQL-ish front end.
//! * [`cq`] — the continuous-query subsystem: tumbling/sliding windows with
//!   budgeted per-node state, snapshot/delta output semantics, and the
//!   soft-state lease lifecycle of standing queries.
//! * [`mqo`] — multi-query sharing: plan fingerprinting, the vectorised
//!   predicate index, and share-group execution that turns N
//!   constant-varied standing queries into one shared dataflow.
//! * [`analyze`] — static plan cost/boundedness analysis (PIQL-style
//!   predeclared bounds) and the SLO admission layer that admits, sheds to
//!   sampling, or rejects standing queries before dissemination (see
//!   `docs/ANALYSIS.md`).
//! * [`security`] — the §4.1 defenses the EXP-I experiment models:
//!   duplicate-insensitive sketches, redundant aggregation topologies and
//!   adversary fidelity metrics, and spot-checking with early commitment.
//!   None runs on the query path; rate limitation and accountability are
//!   not reproduced.
//! * [`gnutella`] — a Gnutella-style flooding-search baseline used by the
//!   Figure-1 comparison.
//! * [`telemetry`] — the self-monitoring layer: per-node metric hubs
//!   (counters, gauges, histograms) and one bounded ring of spans and events,
//!   stamped with sim time for deterministic replay, queryable through
//!   PIER itself via the `system.metrics` namespace (see
//!   `docs/OBSERVABILITY.md`).
//! * [`trace`] — sampled distributed tracing: wire-propagated trace
//!   contexts, deterministic merged span exports (JSONL + Chrome
//!   `trace_event`), and the `EXPLAIN ANALYZE` [`trace::QueryProfile`]
//!   that reconciles measured spans against `pier-analyze`'s static
//!   bounds.
//! * [`harness`] — cluster builder, workload generators, metrics and the
//!   experiment drivers that regenerate every figure/table of the paper.
//!
//! See `README.md` for a quickstart, the crate map and how to run the
//! examples and benches.

pub use pier_analyze as analyze;
pub use pier_core as qp;
pub use pier_cq as cq;
pub use pier_dht as dht;
pub use pier_gnutella as gnutella;
pub use pier_harness as harness;
pub use pier_mqo as mqo;
pub use pier_pht as pht;
pub use pier_runtime as runtime;
pub use pier_security as security;
pub use pier_telemetry as telemetry;
pub use pier_trace as trace;
