//! # pier-telemetry — deterministic per-node observability
//!
//! The paper evaluates PIER through per-node bandwidth and latency figures
//! (§3.3.4) and pitches network monitoring as the flagship workload.  This
//! crate is the reproduction's own monitoring substrate: every node owns a
//! [`TelemetryHub`] holding typed counters, gauges, fixed-bucket histograms
//! and a bounded ring buffer of structured [`TraceEvent`]s.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.**  Nothing in this crate reads a wall clock or iterates
//!   a hash map.  Events are stamped with the simulation's virtual time
//!   (fed in via [`Telemetry::set_now`]) plus a monotonically increasing
//!   per-hub ordinal, metric maps are `BTreeMap`s, and histogram buckets
//!   are fixed at construction — so two identical sim runs export
//!   byte-identical JSONL traces (pinned by an integration test).
//! * **Zero overhead when disabled.**  The [`Telemetry`] handle cloned into
//!   each subsystem is an `Option<Arc<Mutex<TelemetryHub>>>`; disabled
//!   telemetry is `None` and every recording call is a branch on that
//!   discriminant.  Nothing is formatted, allocated or locked unless a hub
//!   is attached.  What an *enabled* hub costs end to end is measured, not
//!   budgeted: the benchmark reports it as
//!   `telemetry.hub.enabled_overhead_share`, an estimator that cannot be
//!   read at today's run length (identical runs disagree; ROADMAP item 2).
//!
//! The hub is also the source for the dogfood loop: `pier-core` nodes
//! periodically materialise their hub as tuples into the `system.metrics`
//! DHT namespace so standing `sqlish` queries can monitor the cluster
//! through the query processor itself.  See `docs/OBSERVABILITY.md` for the
//! metric catalogue and event schema.

use pier_runtime::metrics::weighted_percentile;
use pier_runtime::time::{Duration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// Bucket upper bounds (µs) for latency histograms: roughly logarithmic
/// from 100µs to 5s, wide enough for WAN lookups under congestion.
pub const LATENCY_US_BUCKETS: &[f64] = &[
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
    2_500_000.0,
    5_000_000.0,
    f64::INFINITY,
];

/// Bucket upper bounds for small-count histograms (routing hop counts,
/// batch sizes, fan-outs).
pub const COUNT_BUCKETS: &[f64] = &[
    0.0,
    1.0,
    2.0,
    3.0,
    4.0,
    6.0,
    8.0,
    12.0,
    16.0,
    24.0,
    32.0,
    64.0,
    f64::INFINITY,
];

/// Configuration for a node's telemetry, carried inside `PierConfig`.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Attach a hub to the node.  When false every recording call is a
    /// single null check and the node behaves bit-identically to a build
    /// without telemetry.
    pub enabled: bool,
    /// Ring-buffer capacity of the structured event trace; the oldest
    /// events are dropped (and counted) once the buffer is full.
    pub trace_capacity: usize,
    /// When set (and `enabled`), the node periodically materialises its hub
    /// as a tuple published into the `system.metrics` DHT namespace — the
    /// dogfood loop that lets standing queries monitor the cluster.
    pub publish_interval: Option<Duration>,
    /// Ring-buffer capacity of the per-query span ring (`pier-trace`);
    /// the oldest spans are dropped (and counted) once the buffer is full.
    pub span_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            trace_capacity: 1024,
            publish_interval: None,
            span_capacity: 4096,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry on, dogfood publishing off.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }

    /// Telemetry on with periodic `system.metrics` publishing.
    pub fn publishing(interval: Duration) -> Self {
        TelemetryConfig {
            enabled: true,
            publish_interval: Some(interval),
            ..TelemetryConfig::default()
        }
    }
}

/// A fixed-bucket histogram.
///
/// Buckets are chosen at construction (see [`LATENCY_US_BUCKETS`] /
/// [`COUNT_BUCKETS`]) so observation is a linear scan over ≤16 bounds with
/// no allocation.  Percentiles reuse the workspace's single nearest-rank
/// implementation ([`pier_runtime::metrics::weighted_percentile`], the same
/// logic behind `LatencyCdf`) over `(bucket bound, count)` pairs, i.e. a
/// percentile is the upper bound of the bucket holding that rank.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram over the given (sorted, inclusive) upper bounds.
    /// The final bound should be `f64::INFINITY` to make it exhaustive.
    pub fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len()],
            total: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Nearest-rank percentile, reported as the upper bound of the bucket
    /// holding that rank (the unbounded last bucket reports the maximum
    /// observed value instead).  `None` if empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let pairs: Vec<(f64, u64)> = self
            .bounds
            .iter()
            .zip(&self.counts)
            .map(|(b, c)| {
                let v = if b.is_finite() { *b } else { self.max };
                (v, *c)
            })
            .collect();
        weighted_percentile(&pairs, p)
    }

    /// `(upper bound, count)` pairs for export.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds.iter().copied().zip(self.counts.iter().copied())
    }
}

/// One structured trace event: virtual-time stamp, per-hub ordinal, a
/// static kind tag and pre-formatted key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time the event was recorded at.
    pub time: SimTime,
    /// Monotonic per-hub sequence number (total order within a node even
    /// when several events share a timestamp).
    pub ordinal: u64,
    /// Static event tag, e.g. `"query_install"`.
    pub kind: &'static str,
    /// Event payload; values are pre-formatted strings.
    pub fields: Vec<(&'static str, String)>,
}

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl TraceEvent {
    /// One JSON object (a JSONL line without the trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"time\":");
        out.push_str(&self.time.to_string());
        out.push_str(",\"ordinal\":");
        out.push_str(&self.ordinal.to_string());
        out.push_str(",\"kind\":\"");
        json_escape(&mut out, self.kind);
        out.push_str("\",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(&mut out, k);
            out.push_str("\":\"");
            json_escape(&mut out, v);
            out.push('"');
        }
        out.push_str("}}");
        out
    }
}

/// One cell of a self-monitoring row ([`TelemetryHub::metrics_row`],
/// [`TelemetryHub::span_rows`]).  Telemetry sits below the query
/// processor's value type, which converts from this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell<'a> {
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(&'a str),
}

/// A self-monitoring row: `(column, cell)` pairs in schema order.
pub type Row<'a> = Vec<(&'static str, Cell<'a>)>;

/// Spans one `system.spans` publish round materialises at most (the ring
/// itself is bounded too).
pub const MAX_SPANS_PER_ROUND: usize = 64;

/// One measured span of a sampled distributed trace (`pier-trace`): a
/// virtual-time interval attributed to a query stage on one node, linked
/// into a cross-node span tree through `parent`.
///
/// Spans are fixed-width numeric records (the stage tag is `&'static str`)
/// so recording one is a ring push with no allocation beyond the ring slot;
/// its cost is part of the measured `telemetry.hub.enabled_overhead_share`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Virtual time the stage began.
    pub start: SimTime,
    /// Virtual time the stage ended (≥ `start`; equal for instantaneous
    /// stages such as an ingest routing decision).
    pub end: SimTime,
    /// Monotonic per-hub span sequence number (total order within a node).
    pub ordinal: u64,
    /// Trace identifier (derived deterministically from the query id).
    pub trace_id: u64,
    /// This span's identifier, unique across the cluster.
    pub span_id: u64,
    /// Parent span identifier (the trace id itself for top-level spans).
    pub parent: u64,
    /// Query the work is charged to.  For shared (MQO) work this is the
    /// group's canonical member, not necessarily the query that triggered
    /// the stage.
    pub query_id: u64,
    /// Static stage tag, e.g. `"window.flush"`.
    pub stage: &'static str,
    /// Rows processed by the stage.
    pub rows: u64,
    /// Wire bytes attributable to the stage (0 for local stages).
    pub bytes: u64,
    /// Stage-specific auxiliary value (window start for window stages,
    /// hop count for routed stages, 0 otherwise).
    pub aux: u64,
}

impl SpanRecord {
    /// One JSON object (a JSONL line without the trailing newline).  Key
    /// order is fixed so equal runs export byte-identical span files.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"start\":");
        out.push_str(&self.start.to_string());
        out.push_str(",\"end\":");
        out.push_str(&self.end.to_string());
        out.push_str(",\"ordinal\":");
        out.push_str(&self.ordinal.to_string());
        out.push_str(",\"trace\":");
        out.push_str(&self.trace_id.to_string());
        out.push_str(",\"span\":");
        out.push_str(&self.span_id.to_string());
        out.push_str(",\"parent\":");
        out.push_str(&self.parent.to_string());
        out.push_str(",\"query\":");
        out.push_str(&self.query_id.to_string());
        out.push_str(",\"stage\":\"");
        json_escape(&mut out, self.stage);
        out.push_str("\",\"rows\":");
        out.push_str(&self.rows.to_string());
        out.push_str(",\"bytes\":");
        out.push_str(&self.bytes.to_string());
        out.push_str(",\"aux\":");
        out.push_str(&self.aux.to_string());
        out.push('}');
        out
    }
}

/// The per-node metric store: counters, gauges, histograms, the bounded
/// event trace and the bounded span ring.  All maps are `BTreeMap`s so
/// iteration (and therefore every export) is deterministic.
#[derive(Debug)]
pub struct TelemetryHub {
    now: SimTime,
    next_ordinal: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    trace: VecDeque<TraceEvent>,
    trace_capacity: usize,
    trace_dropped: u64,
    spans: VecDeque<SpanRecord>,
    span_capacity: usize,
    next_span_ordinal: u64,
    spans_dropped: u64,
}

impl TelemetryHub {
    /// An empty hub with the given trace ring capacity (span ring defaults
    /// to the `TelemetryConfig` default).
    pub fn new(trace_capacity: usize) -> Self {
        TelemetryHub::with_capacities(trace_capacity, TelemetryConfig::default().span_capacity)
    }

    /// An empty hub with explicit trace and span ring capacities.
    pub fn with_capacities(trace_capacity: usize, span_capacity: usize) -> Self {
        TelemetryHub {
            now: 0,
            next_ordinal: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            trace: VecDeque::new(),
            trace_capacity: trace_capacity.max(1),
            trace_dropped: 0,
            spans: VecDeque::new(),
            span_capacity: span_capacity.max(1),
            next_span_ordinal: 0,
            spans_dropped: 0,
        }
    }

    /// Advance the hub's notion of virtual time (stamped onto events).
    pub fn set_now(&mut self, now: SimTime) {
        if now > self.now {
            self.now = now;
        }
    }

    /// The hub's current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add `by` to counter `name` (created at zero on first use).
    pub fn add(&mut self, name: &str, by: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        if let Some(v) = self.gauges.get_mut(name) {
            *v = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Record `value` into histogram `name`, creating it over `bounds` on
    /// first use.
    pub fn observe(&mut self, name: &str, value: f64, bounds: &'static [f64]) {
        if let Some(h) = self.hists.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::new(bounds);
            h.observe(value);
            self.hists.insert(name.to_string(), h);
        }
    }

    /// Append a structured event to the trace ring, stamping it with the
    /// hub's current time and the next ordinal.
    pub fn event(&mut self, kind: &'static str, fields: Vec<(&'static str, String)>) {
        let ev = TraceEvent {
            time: self.now,
            ordinal: self.next_ordinal,
            kind,
            fields,
        };
        self.next_ordinal += 1;
        if self.trace.len() == self.trace_capacity {
            self.trace.pop_front();
            self.trace_dropped += 1;
        }
        self.trace.push_back(ev);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Percentile `p` of histogram `name` (`None` if absent or empty).
    pub fn percentile(&self, name: &str, p: f64) -> Option<f64> {
        self.hists.get(name).and_then(|h| h.percentile(p))
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The retained trace events, oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &TraceEvent> {
        self.trace.iter()
    }

    /// Events evicted from the ring because it was full.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped
    }

    /// The retained trace as JSONL (one event object per line, trailing
    /// newline after each).  Byte-identical across identical runs.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.trace {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Append a span to the span ring, stamping it with the next span
    /// ordinal.  `start`/`end` are virtual times supplied by the caller
    /// (stage boundaries rarely coincide with the hub's `now`).
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        start: SimTime,
        end: SimTime,
        trace_id: u64,
        span_id: u64,
        parent: u64,
        query_id: u64,
        stage: &'static str,
        rows: u64,
        bytes: u64,
        aux: u64,
    ) {
        let rec = SpanRecord {
            start,
            end: end.max(start),
            ordinal: self.next_span_ordinal,
            trace_id,
            span_id,
            parent,
            query_id,
            stage,
            rows,
            bytes,
            aux,
        };
        self.next_span_ordinal += 1;
        if self.spans.len() == self.span_capacity {
            self.spans.pop_front();
            self.spans_dropped += 1;
        }
        self.spans.push_back(rec);
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter()
    }

    /// Spans evicted from the ring because it was full.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    /// The hub as the one `system.metrics` row of node `node` at `now` — the
    /// self-monitoring dogfood loop publishes it into the DHT like any other
    /// row.  Events or spans evicted from the bounded rings surface as the
    /// `trace_dropped` column, so a standing query can flag incomplete
    /// traces (a dropped span invalidates profile reconciliation).
    pub fn metrics_row<'a>(&self, node: &'a str, now: SimTime) -> Row<'a> {
        let count = |name: &str| Cell::Int(self.counter(name) as i64);
        let lookup =
            |p: f64| Cell::Float(self.percentile("dht.lookup_latency_us", p).unwrap_or(0.0));
        let sum = |names: &[&str]| {
            Cell::Int(names.iter().map(|name| self.counter(name)).sum::<u64>() as i64)
        };
        let dropped = self.trace_dropped() + self.spans_dropped();
        vec![
            ("node", Cell::Str(node)),
            ("ts", Cell::Int(now as i64)),
            ("msgs_recv", count("net.msgs_recv")),
            ("bytes_recv", count("net.bytes_recv")),
            ("lookups", count("dht.lookups")),
            ("lookups_parked", count("dht.owner_cache.parked")),
            (
                "lookup_msgs_sent",
                sum(&[
                    "dht.routing.sent.find_successor",
                    "dht.routing.sent.find_successor_reply",
                ]),
            ),
            (
                "maintenance_msgs_sent",
                sum(&[
                    "dht.routing.sent.get_neighbors",
                    "dht.routing.sent.neighbors",
                    "dht.routing.sent.notify",
                ]),
            ),
            ("stabilize_ticks", count("dht.stabilize.ticks")),
            ("probing_rounds", count("dht.stabilize.probing_rounds")),
            ("probe_resets", count("dht.stabilize.resets")),
            (
                "probe_interval_us",
                Cell::Int(self.gauge("dht.stabilize.interval_us").unwrap_or(0.0) as i64),
            ),
            ("lookup_p50_us", lookup(50.0)),
            ("lookup_p99_us", lookup(99.0)),
            ("owner_cache_hits", count("dht.owner_cache.hits")),
            ("owner_cache_misses", count("dht.owner_cache.misses")),
            ("trace_dropped", Cell::Int(dropped as i64)),
        ]
    }

    /// The spans recorded at or after ordinal `cursor` as `system.spans`
    /// rows of node `node`, in recording order and at most
    /// [`MAX_SPANS_PER_ROUND`] of them, and the cursor of the next round (a
    /// watermark, so nothing is published twice).
    pub fn span_rows<'a>(&self, node: &'a str, cursor: u64) -> (Vec<Row<'a>>, u64) {
        let fresh = self.spans().filter(|s| s.ordinal >= cursor);
        let mut next = cursor;
        let row = |s: &SpanRecord| {
            next = s.ordinal + 1;
            let int = |v: u64| Cell::Int(v as i64);
            vec![
                ("node", Cell::Str(node)),
                ("start", int(s.start)),
                ("end", int(s.end)),
                ("ordinal", int(s.ordinal)),
                ("trace", int(s.trace_id)),
                ("span", int(s.span_id)),
                ("parent", int(s.parent)),
                ("query", int(s.query_id)),
                ("stage", Cell::Str(s.stage)),
                ("rows", int(s.rows)),
                ("bytes", int(s.bytes)),
                ("aux", int(s.aux)),
            ]
        };
        let rows = fresh.take(MAX_SPANS_PER_ROUND).map(row).collect();
        (rows, next)
    }

    /// The retained spans as JSONL.  Byte-identical across identical runs.
    pub fn span_jsonl(&self) -> String {
        let mut out = String::new();
        for sp in &self.spans {
            out.push_str(&sp.to_json());
            out.push('\n');
        }
        out
    }
}

/// A cheap-clone handle to a node's [`TelemetryHub`], or nothing.
///
/// Every instrumented subsystem (overlay, pipeline, eddy, sharing layer)
/// holds a clone.  When telemetry is disabled the handle is empty and each
/// recording call costs one discriminant check; event payloads are built
/// inside closures so they are never formatted in that case.  The `Mutex`
/// is uncontended — a node and everything it owns run on one logical
/// thread — it exists only to keep the handle `Send + Sync`.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<TelemetryHub>>>,
}

impl Telemetry {
    /// A handle per `cfg`: attached to a fresh hub when enabled, empty
    /// otherwise.
    pub fn from_config(cfg: &TelemetryConfig) -> Self {
        if cfg.enabled {
            Telemetry {
                inner: Some(Arc::new(Mutex::new(TelemetryHub::with_capacities(
                    cfg.trace_capacity,
                    cfg.span_capacity,
                )))),
            }
        } else {
            Telemetry::disabled()
        }
    }

    /// An empty handle; every recording call is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An attached handle with default capacity (convenience for tests).
    pub fn attached() -> Self {
        Telemetry::from_config(&TelemetryConfig::enabled())
    }

    /// Whether a hub is attached.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn hub(&self) -> Option<MutexGuard<'_, TelemetryHub>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Run `f` against the hub, if attached.
    pub fn with<R>(&self, f: impl FnOnce(&mut TelemetryHub) -> R) -> Option<R> {
        self.hub().map(|mut h| f(&mut h))
    }

    /// Advance the hub's virtual time (call on entry to every handler).
    pub fn set_now(&self, now: SimTime) {
        if let Some(mut h) = self.hub() {
            h.set_now(now);
        }
    }

    /// Increment counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Add `by` to counter `name`.
    pub fn add(&self, name: &str, by: u64) {
        if let Some(mut h) = self.hub() {
            h.add(name, by);
        }
    }

    /// Set gauge `name`.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(mut h) = self.hub() {
            h.set_gauge(name, value);
        }
    }

    /// Record a latency observation (µs) into histogram `name`.
    pub fn observe_latency(&self, name: &str, micros: f64) {
        if let Some(mut h) = self.hub() {
            h.observe(name, micros, LATENCY_US_BUCKETS);
        }
    }

    /// Record a small-count observation (hops, fan-out, batch size).
    pub fn observe_count(&self, name: &str, value: f64) {
        if let Some(mut h) = self.hub() {
            h.observe(name, value, COUNT_BUCKETS);
        }
    }

    /// Append a trace event.  `fields` is a closure so the payload is only
    /// formatted when a hub is attached.
    pub fn event(&self, kind: &'static str, fields: impl FnOnce() -> Vec<(&'static str, String)>) {
        if let Some(mut h) = self.hub() {
            let f = fields();
            h.event(kind, f);
        }
    }

    /// Snapshot a counter (0 when disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.hub().map_or(0, |h| h.counter(name))
    }

    /// Snapshot a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.hub().and_then(|h| h.gauge(name))
    }

    /// Snapshot a histogram percentile.
    pub fn percentile(&self, name: &str, p: f64) -> Option<f64> {
        self.hub().and_then(|h| h.percentile(name, p))
    }

    /// Export the trace ring as JSONL (empty string when disabled).
    pub fn trace_jsonl(&self) -> String {
        self.hub().map(|h| h.trace_jsonl()).unwrap_or_default()
    }

    /// Record a span into the span ring (no-op when disabled).  Callers
    /// gate on the query's sampling decision before reaching this, so the
    /// disabled-path cost is one discriminant check.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        start: SimTime,
        end: SimTime,
        trace_id: u64,
        span_id: u64,
        parent: u64,
        query_id: u64,
        stage: &'static str,
        rows: u64,
        bytes: u64,
        aux: u64,
    ) {
        if let Some(mut h) = self.hub() {
            h.span(
                start, end, trace_id, span_id, parent, query_id, stage, rows, bytes, aux,
            );
        }
    }

    /// Export the span ring as JSONL (empty string when disabled).
    pub fn span_jsonl(&self) -> String {
        self.hub().map(|h| h.span_jsonl()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms() {
        let tel = Telemetry::attached();
        tel.inc("a");
        tel.add("a", 2);
        tel.gauge("g", 1.5);
        for v in [50.0, 900.0, 40_000.0, 2_000_000.0] {
            tel.observe_latency("lat", v);
        }
        assert_eq!(tel.counter("a"), 3);
        assert_eq!(tel.counter("missing"), 0);
        assert_eq!(tel.gauge_value("g"), Some(1.5));
        let p100 = tel.percentile("lat", 100.0).unwrap();
        assert_eq!(p100, 2_500_000.0);
        let p0 = tel.percentile("lat", 0.0).unwrap();
        assert_eq!(p0, 100.0);
    }

    #[test]
    fn disabled_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.inc("a");
        tel.gauge("g", 1.0);
        tel.observe_latency("lat", 5.0);
        tel.event("never", || unreachable!("fields must not be built"));
        assert_eq!(tel.counter("a"), 0);
        assert_eq!(tel.gauge_value("g"), None);
        assert_eq!(tel.trace_jsonl(), "");
    }

    #[test]
    fn histogram_percentile_matches_weighted_rank() {
        let mut h = Histogram::new(COUNT_BUCKETS);
        for v in [1.0, 1.0, 2.0, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.percentile(0.0), Some(1.0));
        assert_eq!(h.percentile(50.0), Some(2.0));
        // The unbounded bucket reports the observed maximum.
        assert_eq!(h.percentile(100.0), Some(100.0));
        assert!((h.mean() - 21.4).abs() < 1e-9);
        let empty = Histogram::new(COUNT_BUCKETS);
        assert_eq!(empty.percentile(50.0), None);
    }

    #[test]
    fn trace_ring_bounds_and_jsonl() {
        let tel = Telemetry::from_config(&TelemetryConfig {
            enabled: true,
            trace_capacity: 2,
            ..TelemetryConfig::default()
        });
        tel.set_now(10);
        tel.event("first", Vec::new);
        tel.set_now(20);
        tel.event("second", || vec![("k", "v\"x".to_string())]);
        tel.set_now(30);
        tel.event("third", Vec::new);
        let jsonl = tel.trace_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"time\":20,\"ordinal\":1,\"kind\":\"second\",\"fields\":{\"k\":\"v\\\"x\"}}"
        );
        assert_eq!(
            lines[1],
            "{\"time\":30,\"ordinal\":2,\"kind\":\"third\",\"fields\":{}}"
        );
        assert_eq!(tel.with(|h| h.trace_dropped()), Some(1));
    }

    #[test]
    fn span_ring_bounds_and_jsonl() {
        let tel = Telemetry::from_config(&TelemetryConfig {
            enabled: true,
            span_capacity: 2,
            ..TelemetryConfig::default()
        });
        tel.record_span(10, 20, 7, 100, 7, 42, "ingest", 1, 0, 0);
        tel.record_span(20, 25, 7, 101, 100, 42, "window.flush", 3, 96, 1_000_000);
        tel.record_span(25, 30, 7, 102, 101, 42, "window.emit", 2, 0, 1_000_000);
        let lines: Vec<String> = tel.span_jsonl().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"start\":20,\"end\":25,\"ordinal\":1,\"trace\":7,\"span\":101,\
             \"parent\":100,\"query\":42,\"stage\":\"window.flush\",\"rows\":3,\
             \"bytes\":96,\"aux\":1000000}"
        );
        assert_eq!(tel.with(|h| h.spans_dropped()), Some(1));
        // End is clamped to start for malformed intervals.
        tel.record_span(50, 40, 7, 103, 7, 42, "ingest", 1, 0, 0);
        let last = tel.with(|h| *h.spans().last().unwrap()).unwrap();
        assert_eq!((last.start, last.end), (50, 50));
    }

    #[test]
    fn disabled_span_recording_is_inert() {
        let tel = Telemetry::disabled();
        tel.record_span(0, 1, 1, 1, 1, 1, "ingest", 1, 0, 0);
        assert_eq!(tel.span_jsonl(), "");
    }

    #[test]
    fn ordinals_are_monotonic_at_equal_times() {
        let tel = Telemetry::attached();
        tel.set_now(5);
        tel.event("a", Vec::new);
        tel.event("b", Vec::new);
        let ords: Vec<u64> = tel
            .with(|h| h.trace().map(|e| e.ordinal).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(ords, vec![0, 1]);
    }
}
