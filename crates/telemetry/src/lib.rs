//! # pier-telemetry — deterministic per-node observability
//!
//! The paper evaluates PIER through per-node bandwidth and latency figures
//! (§3.3.4) and pitches network monitoring as the flagship workload.  This
//! crate is the reproduction's own monitoring substrate: every node owns a
//! [`TelemetryHub`] holding typed counters, gauges, fixed-bucket histograms
//! and one bounded ring of [`SpanRecord`]s: the spans of sampled traces and
//! structured events, an event being a zero-duration span.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.**  Nothing in this crate reads a wall clock or iterates
//!   a hash map.  Events are stamped with the simulation's virtual time
//!   (fed in via [`Telemetry::set_now`]), every record with a monotonically
//!   increasing per-hub ordinal, metric maps are `BTreeMap`s, and histogram
//!   buckets are fixed at construction — so two identical sim runs export
//!   byte-identical JSONL (pinned by an integration test).
//! * **Zero overhead when disabled.**  The [`Telemetry`] handle cloned into
//!   each subsystem is an `Option<Arc<Mutex<TelemetryHub>>>`; disabled
//!   telemetry is `None` and every recording call is a branch on that
//!   discriminant.  Nothing is locked unless a hub is attached, and a
//!   record is plain numbers, so nothing is formatted or allocated either.
//!   What an *enabled* hub costs end to end is measured, not budgeted: the
//!   benchmark reports it as
//!   `telemetry.hub.enabled_overhead_share`, an estimator that cannot be
//!   read at today's run length (identical runs disagree; ROADMAP item 2).
//!
//! The hub is also the source for the dogfood loop: `pier-core` nodes
//! periodically materialise their hub as tuples into the `system.metrics`
//! DHT namespace so standing `sqlish` queries can monitor the cluster
//! through the query processor itself.  See `docs/OBSERVABILITY.md` for the
//! metric catalogue and the record schema.

use pier_runtime::metrics::weighted_percentile;
use pier_runtime::time::{Duration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write;
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
    /// When set (and `enabled`), the node periodically materialises its hub
    /// as a tuple published into the `system.metrics` DHT namespace — the
    /// dogfood loop that lets standing queries monitor the cluster.
    pub publish_interval: Option<Duration>,
    /// Capacity of the record ring (events and spans alike); the oldest
    /// records are dropped (and counted) once it is full.
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            publish_interval: None,
            capacity: 5_120,
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

/// The names of a span's three value slots.
pub const SPAN_SLOTS: &[&str] = &["rows", "bytes", "aux"];

/// One record of a node's telemetry ring: a span or an event.
///
/// A **span** is a virtual-time interval of a sampled distributed trace
/// (`pier-trace`) attributed to a query stage on one node, linked into a
/// cross-node span tree through `parent`; its slots are [`SPAN_SLOTS`].
/// An **event** is a zero-duration record with no trace: `start == end` at
/// the hub's time, `trace_id`, `span_id` and `parent` all 0, `stage` its
/// kind, and up to three values under names of its own.
///
/// Records are fixed-width numbers (the stage tag and slot names are
/// `&'static`), so recording one is a ring push with nothing formatted or
/// allocated beyond the ring slot; its cost is part of the measured
/// `telemetry.hub.enabled_overhead_share`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Virtual time the stage began.
    pub start: SimTime,
    /// Virtual time the stage ended (≥ `start`; equal for instantaneous
    /// stages such as an ingest routing decision, and for every event).
    pub end: SimTime,
    /// Monotonic per-hub sequence number over spans and events alike
    /// (total order within a node).
    pub ordinal: u64,
    /// Trace identifier (derived deterministically from the query id).
    pub trace_id: u64,
    /// This span's identifier, unique across the cluster; 0 for an event.
    pub span_id: u64,
    /// Parent span identifier (the trace id itself for top-level spans).
    pub parent: u64,
    /// Query the work is charged to (0 when an event concerns none).  For
    /// shared (MQO) work this is the group's canonical member, not
    /// necessarily the query that triggered the stage.
    pub query_id: u64,
    /// Static stage tag, e.g. `"window.flush"`, or an event's kind.
    pub stage: &'static str,
    /// The names of the value slots, in slot order; a slot with no name is
    /// not exported.
    pub names: &'static [&'static str],
    /// The slot values: a span's rows processed, wire bytes attributable to
    /// the stage (0 for local stages) and a stage-specific auxiliary value
    /// (window start for window stages, hop count for routed stages).
    pub values: [u64; 3],
}

impl SpanRecord {
    /// An event of kind `stage` concerning query `query_id` (0 for none),
    /// with `values` under `names`.  The hub stamps its time and ordinal.
    pub fn event<const N: usize>(
        stage: &'static str,
        query_id: u64,
        names: &'static [&'static str; N],
        values: [u64; N],
    ) -> Self {
        const { assert!(N <= 3, "an event has at most three values") };
        let mut slots = [0; 3];
        slots[..N].copy_from_slice(&values);
        SpanRecord {
            start: 0,
            end: 0,
            ordinal: 0,
            trace_id: 0,
            span_id: 0,
            parent: 0,
            query_id,
            stage,
            names,
            values: slots,
        }
    }

    /// Whether this is an event rather than a span.
    pub fn is_event(&self) -> bool {
        self.span_id == 0
    }

    /// One JSON object (a JSONL line without the trailing newline).  Key
    /// order is fixed so equal runs export byte-identical files.  The stage
    /// and slot names are code literals, written unescaped.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"start\":{},\"end\":{},\"ordinal\":{},\"trace\":{},\"span\":{},\"parent\":{},\"query\":{},\"stage\":\"{}\"",
            self.start,
            self.end,
            self.ordinal,
            self.trace_id,
            self.span_id,
            self.parent,
            self.query_id,
            self.stage
        );
        for (name, value) in self.names.iter().zip(self.values) {
            let _ = write!(out, ",\"{name}\":{value}");
        }
        out.push('}');
        out
    }
}

/// The per-node metric store: counters, gauges, histograms and the bounded
/// record ring.  All maps are `BTreeMap`s so iteration (and therefore
/// every export) is deterministic.
#[derive(Debug)]
pub struct TelemetryHub {
    now: SimTime,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    ring: VecDeque<SpanRecord>,
    capacity: usize,
    next_ordinal: u64,
    dropped: u64,
}

impl TelemetryHub {
    /// An empty hub whose ring holds `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TelemetryHub {
            now: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            next_ordinal: 0,
            dropped: 0,
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

    /// Append a record to the ring, stamping it with the next ordinal; an
    /// event also gets the hub's current time.  A span's `start`/`end` are
    /// virtual times supplied by the caller (stage boundaries rarely
    /// coincide with the hub's `now`).
    pub fn record(&mut self, mut rec: SpanRecord) {
        if rec.is_event() {
            (rec.start, rec.end) = (self.now, self.now);
        }
        rec.end = rec.end.max(rec.start);
        rec.ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
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

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &SpanRecord> {
        self.ring.iter()
    }

    /// Records evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records as JSONL (one object per line, trailing newline
    /// after each).  Byte-identical across identical runs.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.ring {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }

    /// The hub as the one `system.metrics` row of node `node` at `now` — the
    /// self-monitoring dogfood loop publishes it into the DHT like any other
    /// row.  Records evicted from the bounded ring surface as the
    /// `trace_dropped` column, so a standing query can flag incomplete
    /// traces (a dropped span invalidates profile reconciliation).
    pub fn metrics_row<'a>(&self, node: &'a str, now: SimTime) -> Row<'a> {
        let count = |name: &str| Cell::Int(self.counter(name) as i64);
        let lookup =
            |p: f64| Cell::Float(self.percentile("dht.lookup_latency_us", p).unwrap_or(0.0));
        let sum = |names: &[&str]| {
            Cell::Int(names.iter().map(|name| self.counter(name)).sum::<u64>() as i64)
        };
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
            ("trace_dropped", Cell::Int(self.dropped as i64)),
        ]
    }

    /// The spans recorded at or after ordinal `cursor` as `system.spans`
    /// rows of node `node`, in recording order and at most
    /// [`MAX_SPANS_PER_ROUND`] of them, and the cursor of the next round (a
    /// watermark past every record read, so nothing is published twice).
    /// Events are stepped over: they are not spans.
    pub fn span_rows<'a>(&self, node: &'a str, cursor: u64) -> (Vec<Row<'a>>, u64) {
        let mut rows = Vec::new();
        let mut next = cursor;
        for s in self.ring.iter().filter(|s| s.ordinal >= cursor) {
            if rows.len() == MAX_SPANS_PER_ROUND {
                break;
            }
            next = s.ordinal + 1;
            if s.is_event() {
                continue;
            }
            let int = |v: u64| Cell::Int(v as i64);
            let [r, b, aux] = s.values;
            rows.push(vec![
                ("node", Cell::Str(node)),
                ("start", int(s.start)),
                ("end", int(s.end)),
                ("ordinal", int(s.ordinal)),
                ("trace", int(s.trace_id)),
                ("span", int(s.span_id)),
                ("parent", int(s.parent)),
                ("query", int(s.query_id)),
                ("stage", Cell::Str(s.stage)),
                ("rows", int(r)),
                ("bytes", int(b)),
                ("aux", int(aux)),
            ]);
        }
        (rows, next)
    }
}

/// A cheap-clone handle to a node's [`TelemetryHub`], or nothing.
///
/// Every instrumented subsystem (overlay, pipeline, eddy, sharing layer)
/// holds a clone.  When telemetry is disabled the handle is empty and each
/// recording call costs one discriminant check; a record is plain numbers,
/// so nothing is formatted or allocated in either case.  The `Mutex`
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
                inner: Some(Arc::new(Mutex::new(TelemetryHub::new(cfg.capacity)))),
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

    /// Append a span or an event to the ring (no-op when disabled).
    /// Span callers gate on the query's sampling decision before reaching
    /// this, so the disabled-path cost is one discriminant check.
    #[inline]
    pub fn record(&self, rec: SpanRecord) {
        if let Some(mut h) = self.hub() {
            h.record(rec);
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

    /// Export the ring as JSONL (empty string when disabled).
    pub fn jsonl(&self) -> String {
        self.hub().map(|h| h.jsonl()).unwrap_or_default()
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
        tel.record(SpanRecord::event("never", 1, &["k"], [2]));
        assert_eq!(tel.counter("a"), 0);
        assert_eq!(tel.gauge_value("g"), None);
        assert_eq!(tel.jsonl(), "");
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

    fn ring_of(capacity: usize) -> Telemetry {
        Telemetry::from_config(&TelemetryConfig {
            capacity,
            ..TelemetryConfig::enabled()
        })
    }

    fn span(
        start: u64,
        end: u64,
        trace_id: u64,
        span_id: u64,
        parent: u64,
        stage: &'static str,
        values: [u64; 3],
    ) -> SpanRecord {
        SpanRecord {
            start,
            end,
            ordinal: 0,
            trace_id,
            span_id,
            parent,
            query_id: 42,
            stage,
            names: SPAN_SLOTS,
            values,
        }
    }

    #[test]
    fn trace_ring_bounds_and_jsonl() {
        let tel = ring_of(2);
        tel.set_now(10);
        tel.record(SpanRecord::event("first", 0, &[], []));
        tel.set_now(20);
        let names = &["queries", "attempt", "delay"];
        tel.record(SpanRecord::event(
            "lease.backoff",
            7,
            names,
            [2, 1, 3_000_000],
        ));
        tel.set_now(30);
        tel.record(SpanRecord::event("share_leave", 7, &["retired_group"], [0]));
        let jsonl = tel.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"start\":20,\"end\":20,\"ordinal\":1,\"trace\":0,\"span\":0,\"parent\":0,\
             \"query\":7,\"stage\":\"lease.backoff\",\"queries\":2,\"attempt\":1,\"delay\":3000000}"
        );
        assert_eq!(
            lines[1],
            "{\"start\":30,\"end\":30,\"ordinal\":2,\"trace\":0,\"span\":0,\"parent\":0,\
             \"query\":7,\"stage\":\"share_leave\",\"retired_group\":0}"
        );
        assert_eq!(tel.with(|h| h.dropped()), Some(1));
    }

    #[test]
    fn span_ring_bounds_and_jsonl() {
        let tel = ring_of(2);
        tel.record(span(10, 20, 7, 100, 7, "ingest", [1, 0, 0]));
        tel.record(span(
            20,
            25,
            7,
            101,
            100,
            "window.flush",
            [3, 96, 1_000_000],
        ));
        tel.record(span(25, 30, 7, 102, 101, "window.emit", [2, 0, 1_000_000]));
        let lines: Vec<String> = tel.jsonl().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"start\":20,\"end\":25,\"ordinal\":1,\"trace\":7,\"span\":101,\
             \"parent\":100,\"query\":42,\"stage\":\"window.flush\",\"rows\":3,\
             \"bytes\":96,\"aux\":1000000}"
        );
        assert_eq!(tel.with(|h| h.dropped()), Some(1));
        // End is clamped to start for malformed intervals.
        tel.record(span(50, 40, 7, 103, 7, "ingest", [1, 0, 0]));
        let last = tel.with(|h| *h.records().last().unwrap()).unwrap();
        assert_eq!((last.start, last.end), (50, 50));
    }

    #[test]
    fn disabled_span_recording_is_inert() {
        let tel = Telemetry::disabled();
        tel.record(span(0, 1, 1, 1, 1, "ingest", [1, 0, 0]));
        assert_eq!(tel.jsonl(), "");
    }

    #[test]
    fn ordinals_are_monotonic_at_equal_times() {
        let tel = Telemetry::attached();
        tel.set_now(5);
        tel.record(SpanRecord::event("a", 0, &[], []));
        tel.record(SpanRecord::event("b", 0, &[], []));
        let ords: Vec<u64> = tel
            .with(|h| h.records().map(|e| e.ordinal).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(ords, vec![0, 1]);
    }

    #[test]
    fn events_and_spans_share_one_capacity_drop_counter_and_ordinal_sequence() {
        let tel = ring_of(3);
        tel.set_now(5);
        tel.record(SpanRecord::event("query_install", 1, &["graphs"], [1]));
        tel.record(span(5, 9, 7, 100, 7, "ingest", [4, 0, 0]));
        tel.record(SpanRecord::event("query_teardown", 1, &[], []));
        tel.record(span(9, 9, 7, 101, 100, "window.flush", [2, 64, 1]));
        let kept = tel
            .with(|h| {
                let kept: Vec<_> = h.records().map(|r| (r.ordinal, r.stage)).collect();
                (kept, h.dropped())
            })
            .unwrap();
        // The oldest record went first, an event here; one drop counted.
        let stages = vec![(1, "ingest"), (2, "query_teardown"), (3, "window.flush")];
        assert_eq!(kept, (stages, 1));
        tel.record(SpanRecord::event("lease_renew", 1, &[], []));
        // Now the oldest is a span, and it goes the same way.
        let first = tel.with(|h| h.records().next().unwrap().stage).unwrap();
        assert_eq!(
            (first, tel.with(|h| h.dropped()).unwrap()),
            ("query_teardown", 2)
        );
    }

    #[test]
    fn span_rows_publish_spans_only_and_the_cursor_steps_past_events() {
        let tel = Telemetry::attached();
        tel.record(SpanRecord::event("query_install", 1, &["graphs"], [1]));
        tel.record(span(5, 9, 7, 100, 7, "ingest", [4, 0, 0]));
        tel.record(SpanRecord::event("lease_renew", 1, &[], []));
        let (rows, next) = tel.with(|h| h.span_rows("n0", 0)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][8], ("stage", Cell::Str("ingest")));
        assert_eq!(next, 3, "the cursor passes the trailing event too");
        let (rows, next) = tel.with(|h| h.span_rows("n0", next)).unwrap();
        assert_eq!((rows.len(), next), (0, 3));
        // A full round stops at its last span: the events behind it wait.
        for i in 0..MAX_SPANS_PER_ROUND as u64 + 1 {
            tel.record(span(10, 10, 7, 200 + i, 7, "ingest", [1, 0, 0]));
            tel.record(SpanRecord::event("lease_renew", 1, &[], []));
        }
        let (rows, next) = tel.with(|h| h.span_rows("n0", 3)).unwrap();
        assert_eq!(rows.len(), MAX_SPANS_PER_ROUND);
        let (rest, _) = tel.with(|h| h.span_rows("n0", next)).unwrap();
        assert_eq!(rest.len(), 1);
    }
}
