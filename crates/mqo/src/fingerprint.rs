//! Plan normalization and fingerprinting.
//!
//! Two standing queries belong to the same **share group** when their plans
//! are identical up to predicate constants: same source namespace, same
//! window, same GROUP BY, same aggregates, same per-node budget, and
//! selection predicates of the same *shape* (`src = 'a'` and `src = 'b'`
//! normalize together; `src = 'a'` and `port > 80` do not).  The
//! fingerprint is a stable hash over exactly that shape — constants are
//! abstracted to placeholders — so every node that receives a disseminated
//! plan independently routes it into the same group, and the group's DHT
//! namespaces (`g{fingerprint:016x}.…`) align across the overlay without
//! any coordination.
//!
//! **Eligibility.**  Beyond shape, sharing must be *sound*: the group keeps
//! one window store and derives each member's answer from the shared
//! per-group accumulators at flush, which is exact only when every member's
//! residual predicate references GROUP BY columns alone (the predicate is
//! then constant within each group, so a member's answer is precisely the
//! subset of shared groups its predicate accepts).  The predicate must also
//! be a conjunction of `column op constant` atoms ([`Expr::atoms`]): the
//! group's predicate index evaluates members atom by atom.  [`normalize`]
//! returns `None` for anything else — joins, rehash sinks, predicates over
//! non-grouping columns or with no atom form — and the executor falls back
//! to independent execution, so sharing never changes results, only cost.
//!
//! A plan admission shed to sampling (`sample_every > 1`) is not shared
//! either: a group's store is fed every selected row, and thinning is a
//! per-query filter on the plan's own dataflow (`GraphExec::feed`), which
//! a member does not have.  Shared, a shed tenant would be told it runs at
//! 1 in `sample_every` and receive full counts.
//!
//! Output semantics (`DELTAS` vs snapshots), per-member `TOP k` finishers
//! and lease durations are *member-level*: they live in each member's
//! tracker/finisher and are deliberately excluded from the fingerprint, so
//! a snapshot consumer and a delta consumer of the same aggregate still
//! share one store.

use pier_core::plan::{Dissemination, QueryPlan, SinkSpec};
use pier_core::{AggFunc, CmpOp, CqBudget, Expr, OperatorSpec, Value, WindowSpec};
use pier_cq::DeltaMode;
use pier_runtime::Duration;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A plan that normalized into a share group: the group-level shape (hashed
/// into `fingerprint`) plus the member-level residue.
#[derive(Debug, Clone)]
pub struct ShareCandidate {
    /// The share-group identifier: a stable hash of the group-level shape.
    pub fingerprint: u64,
    /// Source table namespace the group ingests.
    pub namespace: String,
    /// The group's window specification.
    pub window: WindowSpec,
    /// GROUP BY columns.
    pub group_cols: Vec<String>,
    /// Aggregates computed per window and group.
    pub aggs: Vec<AggFunc>,
    /// Event-time column (arrival time when absent).
    pub time_col: Option<String>,
    /// Per-node work/state budget of the shared store.
    pub budget: CqBudget,
    /// **Member-level:** this query's selection predicate (references only
    /// `group_cols`; `TRUE` when the plan had no selection).
    pub predicate: Expr,
    /// **Member-level:** snapshot or insert/retract output.
    pub delta: DeltaMode,
    /// **Member-level:** finishers applied to this member's derived rows at
    /// the root (e.g. `TOP k`).
    pub final_ops: Vec<OperatorSpec>,
    /// **Member-level:** soft-state lease granted per (re)dissemination.
    pub lease: Duration,
}

/// Normalize a disseminated plan into a share-group candidate, or `None`
/// when the plan is not shareable (the executor then installs it
/// independently — normalization never rejects a query, only sharing).
pub fn normalize(plan: &QueryPlan) -> Option<ShareCandidate> {
    let cq = plan.cq.as_ref()?;
    if plan.sample_every != 1
        || plan.dissemination != Dissemination::Broadcast
        || plan.opgraphs.len() != 1
    {
        return None;
    }
    let graph = &plan.opgraphs[0];
    if graph.join.is_some() {
        return None;
    }
    let SinkSpec::WindowedAgg {
        window,
        group_cols,
        aggs,
        time_col,
        delta,
        final_ops,
    } = &graph.sink
    else {
        return None;
    };
    let predicate = match graph.ops.as_slice() {
        [] => Expr::Const(Value::Bool(true)),
        [OperatorSpec::Selection(p)] => p.clone(),
        _ => return None,
    };
    // Soundness: the predicate must be decidable from the group columns
    // alone, so it is constant within each shared accumulator group.
    if !predicate
        .atoms()?
        .iter()
        .all(|a| group_cols.contains(&a.column))
    {
        return None;
    }
    let mut h = DefaultHasher::new();
    graph.source.namespace().hash(&mut h);
    (window.size, window.slide).hash(&mut h);
    group_cols.hash(&mut h);
    for agg in aggs {
        hash_agg(agg, &mut h);
    }
    time_col.hash(&mut h);
    (
        cq.budget.max_open_windows,
        cq.budget.max_groups_per_window,
        cq.budget.max_tuples_per_window,
    )
        .hash(&mut h);
    hash_predicate_shape(&predicate, &mut h);
    Some(ShareCandidate {
        fingerprint: h.finish(),
        namespace: graph.source.namespace().to_string(),
        window: *window,
        group_cols: group_cols.clone(),
        aggs: aggs.clone(),
        time_col: time_col.clone(),
        budget: cq.budget,
        predicate,
        delta: *delta,
        final_ops: final_ops.clone(),
        lease: cq.lease,
    })
}

fn hash_agg(agg: &AggFunc, h: &mut DefaultHasher) {
    match agg {
        AggFunc::Count => 0u8.hash(h),
        AggFunc::Sum(c) => {
            1u8.hash(h);
            c.hash(h);
        }
        AggFunc::Min(c) => {
            2u8.hash(h);
            c.hash(h);
        }
        AggFunc::Max(c) => {
            3u8.hash(h);
            c.hash(h);
        }
        AggFunc::Avg(c) => {
            4u8.hash(h);
            c.hash(h);
        }
    }
}

/// Hash a predicate's *shape*: structure, operators and column names, with
/// every constant abstracted to a placeholder — the whole point of the
/// fingerprint is that constant-only-different predicates collide.
fn hash_predicate_shape(e: &Expr, h: &mut DefaultHasher) {
    match e {
        Expr::Column(c) => {
            0u8.hash(h);
            c.hash(h);
        }
        Expr::Const(_) => 1u8.hash(h),
        Expr::Cmp(op, l, r) => {
            2u8.hash(h);
            cmp_tag(*op).hash(h);
            hash_predicate_shape(l, h);
            hash_predicate_shape(r, h);
        }
        // Tag 3 stays unused: renumbering would change every share-group
        // fingerprint and the `g{fp:016x}` namespaces named by it.
        Expr::And(l, r) => {
            4u8.hash(h);
            hash_predicate_shape(l, h);
            hash_predicate_shape(r, h);
        }
    }
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_core::sqlish;
    use pier_runtime::NodeAddr;

    fn compile(sql: &str) -> QueryPlan {
        let mut plan = sqlish::compile(sql, NodeAddr(1), 60_000_000).expect("compiles");
        // Dissemination assigns query ids at submit time; fingerprinting
        // must not depend on them.
        plan.query_id = 42;
        plan
    }

    #[test]
    fn constant_varied_queries_share_a_fingerprint() {
        let a = normalize(&compile(
            "SELECT src, COUNT(*) FROM packets WHERE src = '10.0.0.1' GROUP BY src WINDOW 2s SLIDE 1s",
        ))
        .expect("shareable");
        let b = normalize(&compile(
            "SELECT src, COUNT(*) FROM packets WHERE src = '10.9.9.9' GROUP BY src WINDOW 2s SLIDE 1s",
        ))
        .expect("shareable");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.predicate, b.predicate, "constants stay member-level");
    }

    #[test]
    fn output_mode_and_top_k_are_member_level() {
        let a = normalize(&compile(
            "SELECT src, COUNT(*) FROM packets WHERE src = 'x' GROUP BY src WINDOW 2s SLIDE 1s",
        ))
        .unwrap();
        let b = normalize(&compile(
            "SELECT src, COUNT(*) FROM packets WHERE src = 'y' GROUP BY src TOP 3 BY count WINDOW 2s SLIDE 1s DELTAS",
        ))
        .unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(b.delta, DeltaMode::Deltas);
        assert_eq!(b.final_ops.len(), 1);
        assert!(a.final_ops.is_empty());
    }

    #[test]
    fn shape_differences_split_groups() {
        let base = normalize(&compile(
            "SELECT src, COUNT(*) FROM packets WHERE src = 'x' GROUP BY src WINDOW 2s SLIDE 1s",
        ))
        .unwrap();
        for other in [
            // different window
            "SELECT src, COUNT(*) FROM packets WHERE src = 'x' GROUP BY src WINDOW 4s SLIDE 1s",
            // different aggregate set
            "SELECT src, COUNT(*), SUM(len) FROM packets WHERE src = 'x' GROUP BY src WINDOW 2s SLIDE 1s",
            // different namespace
            "SELECT src, COUNT(*) FROM flows WHERE src = 'x' GROUP BY src WINDOW 2s SLIDE 1s",
            // different predicate shape (operator)
            "SELECT src, COUNT(*) FROM packets WHERE src != 'x' GROUP BY src WINDOW 2s SLIDE 1s",
        ] {
            let o = normalize(&compile(other)).unwrap();
            assert_ne!(base.fingerprint, o.fingerprint, "{other}");
        }
    }

    #[test]
    fn non_shareable_plans_are_rejected() {
        // Predicate over a non-grouping column: derivation would be unsound.
        assert!(normalize(&compile(
            "SELECT src, COUNT(*) FROM packets WHERE port = 80 GROUP BY src WINDOW 2s SLIDE 1s",
        ))
        .is_none());
        // No window sink at all (one-shot aggregation).
        assert!(normalize(&compile("SELECT src, COUNT(*) FROM packets GROUP BY src",)).is_none());
        // Plain select (no CQ lifecycle).
        assert!(normalize(&compile("SELECT src FROM packets WHERE src = 'x'")).is_none());
        // Shed to sampling: a member's rows are never thinned.
        let mut shed = compile(
            "SELECT src, COUNT(*) FROM packets WHERE src = 'x' GROUP BY src WINDOW 2s SLIDE 1s",
        );
        shed.sample_every = 4;
        assert!(normalize(&shed).is_none());
        // A selection with no atom form, here a column against a column —
        // both GROUP BY columns, so the predicate is constant per group —
        // is no member: the plan runs unshared.
        use pier_core::{CqSpec, OpGraph, PlanBuilder, SourceSpec, WindowSpec};
        let src_is_dst = Expr::cmp(CmpOp::Eq, Expr::col("src"), Expr::col("dst"));
        let plan = PlanBuilder::new(NodeAddr(1))
            .cq(CqSpec::default())
            .timeout(60_000_000)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: "packets".into(),
                },
                join: None,
                ops: vec![OperatorSpec::Selection(src_is_dst.clone())],
                sink: SinkSpec::WindowedAgg {
                    window: WindowSpec::sliding(2_000_000, 1_000_000),
                    group_cols: vec!["src".into(), "dst".into()],
                    aggs: vec![AggFunc::Count],
                    time_col: Some("ts".into()),
                    delta: DeltaMode::Snapshot,
                    final_ops: Vec::new(),
                },
            })
            .build();
        assert!(normalize(&plan).is_none());
        assert!(!crate::PredicateIndex::new().insert(1, src_is_dst));
    }

    #[test]
    fn plan_builder_tenant_shorthand_normalizes_into_one_group() {
        use pier_core::{CqSpec, PlanBuilder, WindowSpec};
        let build = |watched: &str, qid: u64| {
            let mut plan = PlanBuilder::windowed_filtered_count(
                NodeAddr(3),
                "packets",
                "src",
                watched,
                WindowSpec::sliding(2_000_000, 1_000_000),
                CqSpec::default(),
                60_000_000,
            );
            plan.query_id = qid;
            plan
        };
        let a = normalize(&build("10.0.0.1", 7)).expect("shareable");
        let b = normalize(&build("10.0.0.2", 8)).expect("shareable");
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn predicate_free_windowed_aggregates_share_too() {
        let a = normalize(&compile(
            "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s",
        ))
        .expect("shareable");
        assert_eq!(a.predicate, Expr::Const(Value::Bool(true)));
    }
}
