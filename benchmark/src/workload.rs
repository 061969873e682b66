//! What the runner needs from a workload, and the names of the four.

use crate::alloc;
use crate::sut::{Cluster, Node};
use std::collections::BTreeMap;
use std::time::Instant;

/// One measured slice of a workload's virtual time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    /// Work units completed (rows ingested, rows moved, lifecycles ended).
    pub work: u64,
    /// Wall nanoseconds inside the system: feeding inputs, `run_for`,
    /// draining outputs.  Input generation and checking are outside.
    pub system_ns: u64,
    /// Wall nanoseconds generating this segment's inputs.
    pub generator_ns: u64,
    /// Allocations (and bytes requested) inside the system, counted only
    /// while a traced pass has the counting allocator switched on.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// An open stretch of system time: started before inputs are fed, stopped
/// after the simulator returns.
pub struct SystemSpan {
    started: Instant,
    allocs: (u64, u64),
}

impl SystemSpan {
    pub fn start() -> Self {
        SystemSpan {
            allocs: alloc::counters(),
            started: Instant::now(),
        }
    }

    pub fn stop(self, segment: &mut Segment) {
        segment.system_ns += self.started.elapsed().as_nanos() as u64;
        let (allocs, bytes) = alloc::counters();
        segment.allocs += allocs - self.allocs.0;
        segment.alloc_bytes += bytes - self.allocs.1;
    }
}

/// Latency samples as counts per value, so that memory does not grow with
/// the length of the run (a faster system measures more rows in the same
/// time, and must not look bigger for it).  Values keep their 14 leading
/// bits, an error below 0.007 %.
#[derive(Debug, Clone, Default)]
pub struct LatencyHist {
    counts: BTreeMap<u64, u64>,
    samples: u64,
}

impl LatencyHist {
    const KEPT_BITS: u32 = 14;

    pub fn add(&mut self, micros: u64) {
        let bits = u64::BITS - micros.leading_zeros();
        let drop = bits.saturating_sub(Self::KEPT_BITS);
        *self.counts.entry(micros >> drop << drop).or_default() += 1;
        self.samples += 1;
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    pub fn clear(&mut self) {
        *self = LatencyHist::default();
    }

    /// Nearest-rank percentile `p` (0–100), `None` without samples.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let rank = ((p / 100.0 * self.samples as f64).ceil() as u64).clamp(1, self.samples.max(1));
        let mut seen = 0;
        self.counts.iter().find_map(|(value, n)| {
            seen += n;
            (seen >= rank).then_some(*value)
        })
    }
}

/// What a workload has checked and observed so far.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Virtual microseconds from the first instant a result row can exist
    /// to its arrival at the proxy's client, one sample per row.
    pub latency_us: LatencyHist,
    /// Result rows (and lifecycles) expected by the reference computation.
    pub attempted: u64,
    /// Of those, missing or wrong, plus rows the reference does not have.
    pub failed: u64,
    /// Order-independent digest of every checked result.
    pub digest: u64,
    /// Largest per-node window state seen at a segment end.
    pub open_windows_max: usize,
    pub groups_max: usize,
}

impl Report {
    /// Fold one checked result into the order-independent digest.
    pub fn digest_add(&mut self, parts: [u64; 4]) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in parts {
            h ^= p;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            h ^= h >> 29;
        }
        self.digest = self.digest.wrapping_add(h);
    }
}

/// A workload instance over node program `N`.  Equal `seed` and `smoke`
/// give equal inputs, whichever `N` runs them.
pub trait Workload<N: Node>: Sized {
    /// Boot the cluster and bring it to the state the first measured
    /// operation needs (standing queries installed and settled).
    fn setup(seed: u64, smoke: bool, telemetry: bool) -> Self;
    /// Generate, feed and check the next segment.
    fn segment(&mut self) -> Segment;
    /// Let in-flight results arrive and check everything still pending.
    fn finish(&mut self);
    fn cluster(&self) -> &Cluster<N>;
    fn report(&mut self) -> &mut Report;
}

pub const NETMON_STREAM: &str = "netmon_stream";
pub const TENANTS_SHARED: &str = "tenants_shared";
pub const JOIN_PUBLISH: &str = "join_publish";
pub const QUERY_CHURN: &str = "query_churn";

pub const ALL: [&str; 4] = [NETMON_STREAM, TENANTS_SHARED, JOIN_PUBLISH, QUERY_CHURN];
