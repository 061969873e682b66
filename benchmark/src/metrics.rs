//! The metrics the benchmark declares, by name, with unit, direction and
//! (end-to-end) regression bound.  `BENCHMARK.json` repeats this
//! declaration; a test holds the two equal.

use crate::sut::SpanClass;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it is a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, measured on bare `PierNode`s.  Wall-clock bounds
/// are set from the measured run-to-run spread (README, "Spread"); the
/// virtual-time and traffic metrics repeat exactly under equal seeds and
/// equal segment counts and vary only across seeds.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    vec![
        metric("setup_s", "s", Lower, Some(0.25)),
        metric("throughput_per_s", "1/s", Higher, Some(0.25)),
        metric("result_latency_ms_p50", "ms", Lower, Some(0.05)),
        metric("result_latency_ms_p99", "ms", Lower, Some(0.05)),
        metric("net_bytes_per_op", "B", Lower, Some(0.05)),
        metric("net_msgs_per_op", "count", Lower, Some(0.05)),
        metric("peak_rss_mb", "MB", Lower, Some(0.10)),
    ]
}

/// Names of the direct probes, in the order `sut::probes` reports them.
pub const PROBES: [(&str, &str); 12] = [
    ("core.tuple.batch_build_ns_per_row", "ns"),
    ("core.operators.pipeline_ns_per_row", "ns"),
    ("core.operators.join_ns_per_row", "ns"),
    ("core.sqlish.compile_us", "us"),
    ("cq.state.push_ns_per_row", "ns"),
    ("cq.state.close_ns_per_group", "ns"),
    ("cq.segment.write_ns_per_group", "ns"),
    ("mqo.index.eval_ns_per_row", "ns"),
    ("mqo.fingerprint.normalize_us", "us"),
    ("analyze.cost.analyze_us", "us"),
    ("dht.router.next_hop_ns", "ns"),
    ("dht.object_manager.put_get_ns", "ns"),
];

/// The per-layer metrics, measured on `Traced` nodes and by direct probes.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    for class in SpanClass::ALL {
        let p = class.prefix();
        // Calls are work done: neither direction is better by itself, but
        // the declaration needs one; fewer calls for the same work is the
        // direction an optimisation moves them.
        out.push(metric(format!("{p}.calls"), "count", Lower, None));
        out.push(metric(format!("{p}.busy_ms"), "ms", Lower, None));
        if class.is_message() {
            out.push(metric(format!("{p}.bytes"), "B", Lower, None));
        }
    }
    out.push(metric("runtime.sim.loop.events", "count", Lower, None));
    out.push(metric("runtime.sim.loop.busy_ms", "ms", Lower, None));
    out.push(metric("harness.generator.busy_ms", "ms", Lower, None));
    out.push(metric("trace.overhead_share", "share", Lower, None));
    out.push(metric("trace.unattributed_share", "share", Lower, None));
    out.push(metric("alloc.allocs_per_op", "count", Lower, None));
    out.push(metric("alloc.bytes_per_op", "B", Lower, None));
    out.push(metric("cq.state.open_windows_max", "count", Lower, None));
    out.push(metric("cq.state.groups_max", "count", Lower, None));
    out.push(metric(
        "telemetry.hub.enabled_overhead_share",
        "share",
        Lower,
        None,
    ));
    out.push(metric("trace.segments", "count", Higher, None));
    for (name, unit) in PROBES {
        out.push(metric(name, unit, Lower, None));
    }
    out
}
