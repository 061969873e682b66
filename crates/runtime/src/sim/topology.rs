//! Network topology models for the Simulation Environment.
//!
//! The paper's simulator (§3.1.4) supports two standard topology types —
//! *star* and *transit-stub* — and we implement both, plus a uniform
//! topology that is convenient for unit tests.  A topology answers two
//! questions about the virtual Internet:
//!
//! * the propagation latency between two node addresses, and
//! * the access-link ("last mile") bandwidth of each node, which is where
//!   p2p hosts see their bottleneck (§2.1.1).
//!
//! Per-node parameters are derived deterministically from the topology seed
//! and the node index, so nodes can join at any time without the topology
//! having to be resized.

use crate::node::NodeAddr;
use crate::rng::Rng64;
use crate::time::{Duration, MICROS_PER_MILLI};

/// Declarative description of the topology, part of [`crate::sim::SimConfig`].
#[derive(Debug, Clone)]
pub enum TopologyConfig {
    /// Every pair of nodes is separated by the same fixed latency and every
    /// node has the same access bandwidth.  Useful for tests where network
    /// variance is noise.
    Uniform {
        /// One-way latency between any two distinct nodes, microseconds.
        latency: Duration,
        /// Access bandwidth in bytes per second.
        bandwidth_bps: f64,
    },
    /// A star: every node hangs off a central hub through an access link with
    /// a per-node latency and bandwidth drawn from the given ranges.
    Star {
        /// Minimum access latency (one way, node to hub), microseconds.
        min_access_latency: Duration,
        /// Maximum access latency, microseconds.
        max_access_latency: Duration,
        /// Minimum access bandwidth, bytes per second.
        min_bandwidth_bps: f64,
        /// Maximum access bandwidth, bytes per second.
        max_bandwidth_bps: f64,
    },
    /// A two-level transit-stub Internet: nodes belong to stub domains, stub
    /// domains attach to transit domains, transit domains form a ring.
    TransitStub {
        /// Number of transit domains.
        transit_domains: usize,
        /// Stub domains attached to each transit domain.
        stubs_per_transit: usize,
        /// Latency between adjacent transit domains, microseconds.
        transit_transit_latency: Duration,
        /// Latency between a stub domain and its transit domain, microseconds.
        stub_transit_latency: Duration,
        /// Latency between two nodes in the same stub domain, microseconds.
        intra_stub_latency: Duration,
        /// Minimum access bandwidth, bytes per second.
        min_bandwidth_bps: f64,
        /// Maximum access bandwidth, bytes per second.
        max_bandwidth_bps: f64,
    },
}

impl TopologyConfig {
    /// A reasonable wide-area default: 4 transit domains, 3 stubs each,
    /// DSL/cable-class access links.  Used by most experiments.
    pub fn internet_like() -> Self {
        TopologyConfig::TransitStub {
            transit_domains: 4,
            stubs_per_transit: 3,
            transit_transit_latency: 30 * MICROS_PER_MILLI,
            stub_transit_latency: 10 * MICROS_PER_MILLI,
            intra_stub_latency: 2 * MICROS_PER_MILLI,
            min_bandwidth_bps: 128.0 * 1024.0,
            max_bandwidth_bps: 1024.0 * 1024.0,
        }
    }

    /// A fast LAN-like uniform topology for functional tests.
    pub fn lan() -> Self {
        TopologyConfig::Uniform {
            latency: MICROS_PER_MILLI,
            bandwidth_bps: 100.0 * 1024.0 * 1024.0,
        }
    }
}

/// Materialised topology: answers latency/bandwidth queries for node pairs.
#[derive(Debug, Clone)]
pub struct NetworkTopology {
    config: TopologyConfig,
    seed: u64,
}

impl NetworkTopology {
    /// Build a topology from its configuration and a seed.
    pub fn new(config: TopologyConfig, seed: u64) -> Self {
        NetworkTopology { config, seed }
    }

    fn node_rng(&self, node: NodeAddr, salt: u64) -> Rng64 {
        Rng64::new(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(node.0 as u64)
                .wrapping_add(salt.wrapping_mul(0x1000_0000_01B3)),
        )
    }

    /// One-way propagation latency between two nodes in microseconds.
    /// Latency from a node to itself is zero.
    pub fn latency(&self, from: NodeAddr, to: NodeAddr) -> Duration {
        if from == to {
            return 0;
        }
        match &self.config {
            TopologyConfig::Uniform { latency, .. } => *latency,
            TopologyConfig::Star {
                min_access_latency,
                max_access_latency,
                ..
            } => {
                let a = self.access_latency(from, *min_access_latency, *max_access_latency);
                let b = self.access_latency(to, *min_access_latency, *max_access_latency);
                a + b
            }
            TopologyConfig::TransitStub {
                transit_domains,
                stubs_per_transit,
                transit_transit_latency,
                stub_transit_latency,
                intra_stub_latency,
                ..
            } => {
                let spt = (*stubs_per_transit).max(1);
                let total_stubs = (transit_domains * spt).max(1);
                let stub_of = |n: NodeAddr| (n.0 as usize) % total_stubs;
                let transit_of = |stub: usize| stub / spt;
                let (sa, sb) = (stub_of(from), stub_of(to));
                if sa == sb {
                    return *intra_stub_latency;
                }
                let (ta, tb) = (transit_of(sa), transit_of(sb));
                if ta == tb {
                    // Up to the shared transit domain and back down.
                    return 2 * stub_transit_latency + intra_stub_latency / 2;
                }
                // Hop count around the transit ring (shortest direction).
                let n = *transit_domains;
                let d = ta.abs_diff(tb);
                let ring_hops = d.min(n - d).max(1) as u64;
                2 * stub_transit_latency + ring_hops * transit_transit_latency
            }
        }
    }

    fn access_latency(&self, node: NodeAddr, lo: Duration, hi: Duration) -> Duration {
        if hi <= lo {
            return lo;
        }
        let mut rng = self.node_rng(node, 1);
        rng.range(lo, hi)
    }

    /// Access-link bandwidth of a node in bytes per second.
    pub fn bandwidth_bps(&self, node: NodeAddr) -> f64 {
        let (lo, hi) = match &self.config {
            TopologyConfig::Uniform { bandwidth_bps, .. } => (*bandwidth_bps, *bandwidth_bps),
            TopologyConfig::Star {
                min_bandwidth_bps,
                max_bandwidth_bps,
                ..
            }
            | TopologyConfig::TransitStub {
                min_bandwidth_bps,
                max_bandwidth_bps,
                ..
            } => (*min_bandwidth_bps, *max_bandwidth_bps),
        };
        if hi <= lo {
            return lo;
        }
        let mut rng = self.node_rng(node, 2);
        lo + rng.f64() * (hi - lo)
    }

    /// Transmission time for `bytes` over `node`'s access link, microseconds.
    pub fn transmit_time(&self, node: NodeAddr, bytes: usize) -> Duration {
        let bw = self.bandwidth_bps(node).max(1.0);
        ((bytes as f64 / bw) * 1_000_000.0).ceil() as Duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_latency_is_symmetric_and_zero_to_self() {
        let t = NetworkTopology::new(TopologyConfig::lan(), 1);
        let a = NodeAddr(0);
        let b = NodeAddr(5);
        assert_eq!(t.latency(a, a), 0);
        assert_eq!(t.latency(a, b), t.latency(b, a));
        assert_eq!(t.latency(a, b), MICROS_PER_MILLI);
    }

    #[test]
    fn star_latency_is_sum_of_access_latencies() {
        let cfg = TopologyConfig::Star {
            min_access_latency: 5_000,
            max_access_latency: 20_000,
            min_bandwidth_bps: 1e6,
            max_bandwidth_bps: 1e6,
        };
        let t = NetworkTopology::new(cfg, 7);
        let l_ab = t.latency(NodeAddr(1), NodeAddr(2));
        let l_ba = t.latency(NodeAddr(2), NodeAddr(1));
        assert_eq!(l_ab, l_ba);
        assert!((10_000..=40_000).contains(&l_ab), "latency {l_ab}");
        // Deterministic across topology instances with the same seed.
        let t2 = NetworkTopology::new(
            TopologyConfig::Star {
                min_access_latency: 5_000,
                max_access_latency: 20_000,
                min_bandwidth_bps: 1e6,
                max_bandwidth_bps: 1e6,
            },
            7,
        );
        assert_eq!(l_ab, t2.latency(NodeAddr(1), NodeAddr(2)));
    }

    #[test]
    fn transit_stub_distances_increase_with_domain_distance() {
        let t = NetworkTopology::new(TopologyConfig::internet_like(), 3);
        // Nodes 0 and 12 are in the same stub (12 stubs total).
        let same_stub = t.latency(NodeAddr(0), NodeAddr(12));
        // Nodes 0 and 1 are in different stubs.
        let diff_stub = t.latency(NodeAddr(0), NodeAddr(1));
        assert!(same_stub < diff_stub, "{same_stub} vs {diff_stub}");
    }

    #[test]
    fn bandwidth_within_configured_range() {
        let t = NetworkTopology::new(TopologyConfig::internet_like(), 11);
        for i in 0..50 {
            let bw = t.bandwidth_bps(NodeAddr(i));
            assert!(bw >= 128.0 * 1024.0 - 1.0);
            assert!(bw <= 1024.0 * 1024.0 + 1.0);
        }
    }

    #[test]
    fn transmit_time_scales_with_size() {
        let t = NetworkTopology::new(TopologyConfig::lan(), 5);
        let small = t.transmit_time(NodeAddr(0), 100);
        let big = t.transmit_time(NodeAddr(0), 100_000);
        assert!(big > small);
    }
}
