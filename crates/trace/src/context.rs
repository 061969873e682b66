//! The wire-propagated trace context and the sampling configuration.

use pier_runtime::WireSize;

/// The per-message tracing header: enough to attach work observed at a
/// remote node to the right place in a query's span tree.
///
/// The context is 24 wire bytes **when present** and zero when absent —
/// [`DhtMessage`](../pier_dht/enum.DhtMessage.html) variants carry an
/// `Option<TraceContext>`, and `wire_size` charges nothing for `None`, so a
/// run with sampling off is bit-identical (results *and* message sizes) to
/// a build without tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace identifier, derived deterministically from the query id via
    /// [`trace_id_for`] (never random, never a wall clock).
    pub trace_id: u64,
    /// The sender-side span this message's work should parent to.
    pub span_id: u64,
    /// The query the work is charged to.
    pub query_id: u64,
}

impl TraceContext {
    /// Wire bytes a present context costs (3 × u64).
    pub const WIRE_BYTES: usize = 24;

    /// The root context for a sampled query: the trace's root span *is* the
    /// trace id, so any node can parent top-level work without additional
    /// wire state.
    pub fn root(query_id: u64) -> Self {
        let trace_id = trace_id_for(query_id);
        TraceContext {
            trace_id,
            span_id: trace_id,
            query_id,
        }
    }

    /// A child context: same trace and query, parented to `span_id` (a span
    /// the caller just recorded).
    pub fn child(&self, span_id: u64) -> Self {
        TraceContext { span_id, ..*self }
    }

    /// Append the context's [`TraceContext::WIRE_BYTES`]: the trace, span
    /// and query ids, little-endian.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        for word in [self.trace_id, self.span_id, self.query_id] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
    }

    /// Read a context from the front of `buf`; `None` when it is shorter
    /// than [`TraceContext::WIRE_BYTES`].
    pub fn decode(buf: &[u8]) -> Option<TraceContext> {
        let word = |i: usize| {
            Some(u64::from_le_bytes(
                buf.get(8 * i..8 * i + 8)?.try_into().ok()?,
            ))
        };
        Some(TraceContext {
            trace_id: word(0)?,
            span_id: word(1)?,
            query_id: word(2)?,
        })
    }
}

impl WireSize for TraceContext {
    fn wire_size(&self) -> usize {
        TraceContext::WIRE_BYTES
    }
}

/// Derive a trace id from a query id (splitmix64 finalizer).  Deterministic
/// by construction: the same query id always yields the same trace id, so
/// equal-seed runs (which assign equal query ids) export identical traces.
pub fn trace_id_for(query_id: u64) -> u64 {
    let mut z = query_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-node tracing configuration, carried inside `PierConfig`.
///
/// Sampling is decided **once, at the proxy, when the query is submitted**:
/// the proxy draws one value from its seeded RNG and keeps the query iff
/// `roll % sample_every == 0`.  The decision is stamped into the plan and
/// disseminated with it, so every node agrees without re-rolling.
/// `sample_every == 0` disables tracing entirely — the RNG is not drawn, no
/// spans are recorded and no contexts travel, keeping untraced runs
/// bit-identical to pre-tracing builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Keep one in `sample_every` submitted queries (0 = tracing off).
    pub sample_every: u32,
    /// Publish recorded spans into the `system.spans` DHT namespace on the
    /// node's metrics-publish cadence (requires telemetry publishing).
    pub publish: bool,
}

impl TraceConfig {
    /// Tracing off (the default).
    pub fn off() -> Self {
        TraceConfig::default()
    }

    /// Trace every query, keep spans node-local.
    pub fn sample_all() -> Self {
        TraceConfig {
            sample_every: 1,
            publish: false,
        }
    }

    /// Trace every query and dogfood spans into `system.spans`.
    pub fn publishing() -> Self {
        TraceConfig {
            sample_every: 1,
            publish: true,
        }
    }

    /// Whether tracing is enabled at all.
    pub fn enabled(&self) -> bool {
        self.sample_every > 0
    }

    /// Apply the 1-in-N sampling rule to a seeded-RNG draw.
    pub fn keeps(&self, roll: u64) -> bool {
        self.sample_every > 0 && roll.is_multiple_of(u64::from(self.sample_every))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_is_deterministic_and_spreads() {
        assert_eq!(trace_id_for(42), trace_id_for(42));
        assert_ne!(trace_id_for(42), trace_id_for(43));
        assert_ne!(trace_id_for(0), 0);
    }

    #[test]
    fn root_context_parents_to_itself() {
        let ctx = TraceContext::root(7);
        assert_eq!(ctx.span_id, ctx.trace_id);
        assert_eq!(ctx.query_id, 7);
        let child = ctx.child(99);
        assert_eq!(child.trace_id, ctx.trace_id);
        assert_eq!(child.span_id, 99);
    }

    #[test]
    fn sampling_rule() {
        assert!(!TraceConfig::off().keeps(0));
        assert!(TraceConfig::sample_all().keeps(17));
        let one_in_four = TraceConfig {
            sample_every: 4,
            publish: false,
        };
        assert!(one_in_four.keeps(8));
        assert!(!one_in_four.keeps(9));
    }

    #[test]
    fn context_wire_size_is_fixed() {
        let ctx = TraceContext::root(1).child(99);
        assert_eq!(ctx.wire_size(), 24);
        let mut buf = Vec::new();
        ctx.encode(&mut buf);
        assert_eq!(buf.len(), ctx.wire_size());
        assert_eq!(TraceContext::decode(&buf), Some(ctx));
        assert_eq!(TraceContext::decode(&buf[..23]), None);
    }
}
