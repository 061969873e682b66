//! The range-predicate index: PHT-style prefix buckets over the DHT
//! (§3.3.3 "Range Index Substrate").
//!
//! PIER's three distributed indexes are the broadcast tree (true
//! predicates), the DHT itself (equality predicates) and the **Prefix Hash
//! Tree** for range predicates — "essentially a resilient distributed trie
//! implemented over DHTs" whose nodes are addressed by binary prefixes of
//! the key space.  The paper notes the PHT had been implemented on the DHT
//! codebase but "\[had\] yet to \[be\] integrate\[d\] into PIER"; this module is
//! that integration.
//!
//! The published structure follows the PHT addressing scheme with the trie
//! truncated at a fixed depth (every leaf lives at level `prefix_bits`):
//! a value is stored in the DHT under the namespace of its table with the
//! partition key `"rng:<prefix>"`, where `<prefix>` is the high
//! `prefix_bits` bits of the value rendered in binary.  A range query
//! computes the set of leaf prefixes overlapping `[lo, hi]` and disseminates
//! its opgraph to exactly those partitions ([`Dissemination::ByRange`]),
//! instead of broadcasting to every node.  The trade-off is the classic
//! PHT one: more prefix bits → finer dissemination but more partitions (and
//! more publish traffic per value); fewer bits → coarser buckets that
//! over-approximate the range.
//!
//! The dynamic leaf split/merge of the full PHT is implemented in the
//! `pier-pht` crate; truncating at a fixed level keeps the *distributed*
//! integration simple while preserving the property the paper's ablation
//! cares about — a range query touches `O(buckets overlapping the range)`
//! nodes rather than all of them.

use crate::expr::{CmpOp, Expr};
use crate::plan::{
    Dissemination, OpGraph, OperatorSpec, PlanBuilder, QueryPlan, SinkSpec, SourceSpec,
};
use crate::tuple::Tuple;
use pier_runtime::{Duration, NodeAddr};

/// Configuration of a fixed-depth prefix range index over a non-negative
/// integer column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeIndexConfig {
    /// Number of bits of the value that form the bucket prefix (the trie
    /// depth at which every leaf lives).  `2^prefix_bits` buckets exist.
    pub prefix_bits: u32,
    /// Total width of the indexed domain in bits; values are clamped into
    /// `[0, 2^domain_bits)`.
    pub domain_bits: u32,
}

impl RangeIndexConfig {
    /// A small default: 6-bit prefixes (64 buckets) over a 32-bit domain.
    pub fn new(prefix_bits: u32, domain_bits: u32) -> Self {
        assert!((1..=63).contains(&domain_bits), "domain must be 1–63 bits");
        assert!(
            prefix_bits >= 1 && prefix_bits <= domain_bits,
            "prefix bits must be between 1 and domain_bits"
        );
        RangeIndexConfig {
            prefix_bits,
            domain_bits,
        }
    }

    fn clamp(&self, value: i64) -> u64 {
        let max = (1u64 << self.domain_bits) - 1;
        if value < 0 {
            0
        } else {
            (value as u64).min(max)
        }
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(&self, value: i64) -> u64 {
        self.clamp(value) >> (self.domain_bits - self.prefix_bits)
    }

    /// The DHT partition key (`rng:<binary prefix>`) of a value's bucket —
    /// the PHT leaf label.
    pub fn bucket_key(&self, value: i64) -> String {
        self.label(self.bucket_of(value))
    }

    /// The label of bucket `index`.
    pub fn label(&self, index: u64) -> String {
        format!("rng:{:0width$b}", index, width = self.prefix_bits as usize)
    }

    /// The labels of every bucket overlapping `[lo, hi]` (inclusive).  An
    /// empty range yields no buckets.
    pub fn buckets_for_range(&self, lo: i64, hi: i64) -> Vec<String> {
        if hi < lo {
            return Vec::new();
        }
        let first = self.bucket_of(lo);
        let last = self.bucket_of(hi);
        (first..=last).map(|b| self.label(b)).collect()
    }
}

/// Build a range-scan plan over `table.column ∈ [lo, hi]` using the range
/// index: the opgraph is disseminated only to the partitions of the buckets
/// that overlap the range, each of which applies the exact predicate before
/// shipping results to the proxy.
#[allow(clippy::too_many_arguments)]
pub fn range_scan_plan(
    proxy: NodeAddr,
    table: &str,
    column: &str,
    lo: i64,
    hi: i64,
    config: RangeIndexConfig,
    projection: Vec<String>,
    timeout: Duration,
) -> QueryPlan {
    let buckets = config.buckets_for_range(lo, hi);
    let mut ops = vec![OperatorSpec::Selection(Expr::all(vec![
        Expr::cmp(CmpOp::Ge, Expr::col(column), Expr::lit(lo)),
        Expr::cmp(CmpOp::Le, Expr::col(column), Expr::lit(hi)),
    ]))];
    if !projection.is_empty() {
        ops.push(OperatorSpec::Projection(projection));
    }
    PlanBuilder::new(proxy)
        .dissemination(Dissemination::ByRange {
            namespace: table.to_string(),
            bucket_keys: buckets,
        })
        .timeout(timeout)
        .opgraph(OpGraph {
            id: 0,
            source: SourceSpec::Table {
                namespace: table.to_string(),
            },
            join: None,
            ops,
            sink: SinkSpec::ToProxy,
        })
        .build()
}

/// The partition key a publisher must use when publishing `tuple` into the
/// range index of `table` on `column` (`None` when the tuple lacks the
/// column or it is not an integer — malformed tuples are simply not
/// indexed).
pub fn publish_key(column: &str, config: RangeIndexConfig, tuple: &Tuple) -> Option<String> {
    let value = tuple.get(column)?.as_i64()?;
    Some(config.bucket_key(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn bucket_arithmetic_is_consistent() {
        let cfg = RangeIndexConfig::new(4, 16);
        assert_eq!(cfg.bucket_of(0), 0);
        assert_eq!(cfg.bucket_of(4095), 0);
        assert_eq!(cfg.bucket_of(4096), 1);
        assert_eq!(cfg.bucket_of(65535), 15);
        // Out-of-domain values clamp instead of panicking (best effort).
        assert_eq!(cfg.bucket_of(-5), 0);
        assert_eq!(cfg.bucket_of(1 << 20), 15);
    }

    #[test]
    fn labels_are_fixed_width_binary_prefixes() {
        let cfg = RangeIndexConfig::new(4, 16);
        assert_eq!(cfg.label(0), "rng:0000");
        assert_eq!(cfg.label(5), "rng:0101");
        assert_eq!(cfg.label(15), "rng:1111");
        assert_eq!(cfg.bucket_key(4097), "rng:0001");
    }

    #[test]
    fn range_covers_exactly_the_overlapping_buckets() {
        let cfg = RangeIndexConfig::new(4, 16);
        // [4000, 9000] touches buckets 0, 1 and 2.
        let buckets = cfg.buckets_for_range(4000, 9000);
        assert_eq!(buckets, vec!["rng:0000", "rng:0001", "rng:0010"]);
        // A range within one bucket touches only it.
        assert_eq!(cfg.buckets_for_range(100, 200), vec!["rng:0000"]);
        // Inverted ranges are empty.
        assert!(cfg.buckets_for_range(10, 5).is_empty());
        // The full domain touches every bucket.
        assert_eq!(cfg.buckets_for_range(0, 65535).len(), 16);
    }

    #[test]
    fn publish_key_follows_the_indexed_column() {
        let cfg = RangeIndexConfig::new(4, 16);
        let t = Tuple::new("readings", vec![("temp", Value::Int(5000))]);
        assert_eq!(publish_key("temp", cfg, &t), Some("rng:0001".to_string()));
        let missing = Tuple::new("readings", vec![("other", Value::Int(1))]);
        assert_eq!(publish_key("temp", cfg, &missing), None);
        let wrong_type = Tuple::new("readings", vec![("temp", Value::Str("hot".into()))]);
        assert_eq!(publish_key("temp", cfg, &wrong_type), None);
    }

    #[test]
    fn range_scan_plan_disseminates_by_range_and_filters_exactly() {
        let cfg = RangeIndexConfig::new(4, 16);
        let plan = range_scan_plan(
            NodeAddr(1),
            "readings",
            "temp",
            4000,
            9000,
            cfg,
            vec!["temp".to_string()],
            5_000_000,
        );
        match &plan.dissemination {
            Dissemination::ByRange {
                namespace,
                bucket_keys,
            } => {
                assert_eq!(namespace, "readings");
                assert_eq!(bucket_keys.len(), 3);
            }
            other => panic!("expected ByRange, got {other:?}"),
        }
        assert_eq!(plan.opgraphs[0].ops.len(), 2);
    }

    #[test]
    #[should_panic(expected = "prefix bits")]
    fn prefix_wider_than_domain_is_rejected() {
        RangeIndexConfig::new(20, 16);
    }
}
