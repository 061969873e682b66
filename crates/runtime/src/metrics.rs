//! Per-node and aggregate network statistics.
//!
//! The experiments in the paper are reported in terms of messages and bytes
//! sent/received per node (in-bandwidth and out-bandwidth, §3.3.4) and
//! query latency.  The runtime maintains these counters transparently for
//! every message it delivers.

use crate::node::NodeAddr;
use crate::time::SimTime;
use std::collections::HashMap;

/// Counters for a single node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Messages sent by this node.
    pub msgs_sent: u64,
    /// Payload + header bytes sent by this node.
    pub bytes_sent: u64,
    /// Messages received by this node.
    pub msgs_recv: u64,
    /// Payload + header bytes received by this node.
    pub bytes_recv: u64,
}

/// Aggregate statistics for a run.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    per_node: HashMap<NodeAddr, NodeStats>,
    /// Total messages delivered.
    pub total_msgs: u64,
    /// Total bytes delivered (payload + per-message header overhead).
    pub total_bytes: u64,
    /// Virtual time of the last delivered event.
    pub last_event_time: SimTime,
}

impl NetStats {
    /// Create empty statistics.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Record a message of `bytes` bytes sent from `from` to `to`.
    pub fn record_send(&mut self, from: NodeAddr, to: NodeAddr, bytes: usize) {
        let b = bytes as u64;
        {
            let s = self.per_node.entry(from).or_default();
            s.msgs_sent += 1;
            s.bytes_sent += b;
        }
        {
            let r = self.per_node.entry(to).or_default();
            r.msgs_recv += 1;
            r.bytes_recv += b;
        }
        self.total_msgs += 1;
        self.total_bytes += b;
    }

    /// Statistics for one node (zeros if the node never communicated).
    pub fn node(&self, addr: NodeAddr) -> NodeStats {
        self.per_node.get(&addr).copied().unwrap_or_default()
    }

    /// Iterate over all nodes with non-zero counters.
    pub fn iter(&self) -> impl Iterator<Item = (NodeAddr, &NodeStats)> {
        self.per_node.iter().map(|(a, s)| (*a, s))
    }

    /// The maximum inbound byte count over all nodes — the "in-bandwidth"
    /// hot-spot metric used when evaluating hierarchical aggregation.
    pub fn max_in_bytes(&self) -> u64 {
        self.per_node
            .values()
            .map(|s| s.bytes_recv)
            .max()
            .unwrap_or(0)
    }

    /// Reset all counters (used between experiment phases so that setup
    /// traffic, e.g. DHT bootstrap, is not charged to the measured query).
    pub fn reset(&mut self) {
        self.per_node.clear();
        self.total_msgs = 0;
        self.total_bytes = 0;
        self.last_event_time = 0;
    }
}

/// Index of the sample holding percentile `p` (in `[0, 100]`) among `total`
/// rank-ordered samples — the nearest-rank rule used by every percentile
/// reporter in the workspace ([`LatencyCdf`] and pier-telemetry's
/// fixed-bucket histogram).
pub fn percentile_rank(total: u64, p: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((p / 100.0).clamp(0.0, 1.0) * (total - 1) as f64).round() as u64;
    rank.min(total - 1)
}

/// Value at percentile `p` over `(value, weight)` pairs sorted by value.
///
/// This is the weighted counterpart of [`LatencyCdf::percentile`]: each pair
/// stands for `weight` identical samples.  Returns `None` when the total
/// weight is zero.
pub fn weighted_percentile(pairs: &[(f64, u64)], p: f64) -> Option<f64> {
    let total: u64 = pairs.iter().map(|(_, w)| w).sum();
    if total == 0 {
        return None;
    }
    let rank = percentile_rank(total, p);
    let mut seen = 0u64;
    for (value, weight) in pairs {
        seen += weight;
        if seen > rank {
            return Some(*value);
        }
    }
    pairs.last().map(|(v, _)| *v)
}

/// An online latency/percentile accumulator used for CDF-style figures.
#[derive(Debug, Clone, Default)]
pub struct LatencyCdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl LatencyCdf {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        LatencyCdf::default()
    }

    /// Add one latency sample (any unit; callers should stay consistent).
    pub fn add(&mut self, value: f64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
    }

    /// Value at percentile `p` in `[0, 100]`; `None` if empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let rank = percentile_rank(self.samples.len() as u64, p) as usize;
        Some(self.samples[rank])
    }

    /// Fraction of samples ≤ `value`, in `[0, 1]`.
    pub fn fraction_at_most(&mut self, value: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let count = self.samples.partition_point(|v| *v <= value);
        count as f64 / self.samples.len() as f64
    }

    /// Mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_send_updates_both_sides() {
        let mut s = NetStats::new();
        s.record_send(NodeAddr(1), NodeAddr(2), 100);
        s.record_send(NodeAddr(1), NodeAddr(3), 50);
        assert_eq!(s.node(NodeAddr(1)).msgs_sent, 2);
        assert_eq!(s.node(NodeAddr(1)).bytes_sent, 150);
        assert_eq!(s.node(NodeAddr(2)).bytes_recv, 100);
        assert_eq!(s.node(NodeAddr(3)).msgs_recv, 1);
        assert_eq!(s.total_msgs, 2);
        assert_eq!(s.total_bytes, 150);
        assert_eq!(s.max_in_bytes(), 100);
    }

    #[test]
    fn reset_clears_counters() {
        let mut s = NetStats::new();
        s.record_send(NodeAddr(1), NodeAddr(2), 10);
        s.last_event_time = 42;
        s.reset();
        assert_eq!(s.total_msgs, 0);
        assert_eq!(s.node(NodeAddr(1)), NodeStats::default());
        assert_eq!(s.last_event_time, 0);
    }

    #[test]
    fn weighted_percentile_matches_expanded_samples() {
        // (value, weight) pairs must select exactly what a LatencyCdf over
        // the expanded sample list would.
        let pairs = [(1.0, 3), (5.0, 2), (9.0, 5)];
        let mut cdf = LatencyCdf::new();
        for (v, w) in pairs {
            for _ in 0..w {
                cdf.add(v);
            }
        }
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            assert_eq!(weighted_percentile(&pairs, p), cdf.percentile(p));
        }
        assert_eq!(weighted_percentile(&[], 50.0), None);
        assert_eq!(weighted_percentile(&[(2.0, 0)], 50.0), None);
    }

    #[test]
    fn cdf_percentiles() {
        let mut c = LatencyCdf::new();
        for i in 1..=100 {
            c.add(i as f64);
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.percentile(0.0), Some(1.0));
        assert_eq!(c.percentile(100.0), Some(100.0));
        let median = c.percentile(50.0).unwrap();
        assert!((49.0..=52.0).contains(&median));
        assert!((c.fraction_at_most(50.0) - 0.5).abs() < 0.02);
        assert!((c.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_series_monotone() {
        let mut c = LatencyCdf::new();
        for v in [5.0, 1.0, 9.0, 3.0, 7.0] {
            c.add(v);
        }
        let series: Vec<f64> = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
            .iter()
            .map(|&x| c.fraction_at_most(x))
            .collect();
        for w in series.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(series.last(), Some(&1.0));
    }

    #[test]
    fn empty_cdf_behaviour() {
        let mut c = LatencyCdf::new();
        assert!(c.is_empty());
        assert_eq!(c.percentile(50.0), None);
        assert_eq!(c.fraction_at_most(10.0), 0.0);
        assert_eq!(c.mean(), 0.0);
    }
}
