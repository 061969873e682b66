//! The static cost model: from a compiled plan to a [`CostReport`].
//!
//! Everything here is a *worst-case upper bound* under the declared
//! [`EnvModel`]: the analyzer never samples, never executes, and never
//! assumes a value distribution.  Predicate atoms are used only where they
//! yield bounds that hold for **any** distribution — an equality constraint
//! on a grouping column pins that column to one group; a selectivity guess
//! for an equality over a skewed stream would not be sound, so rows-touched
//! is bounded by the full stream rate.

use pier_core::admission::EnvModel;
use pier_core::expr::{CmpOp, Expr};
use pier_core::plan::{one_shot_panes, Dissemination, OpGraph, OperatorSpec, QueryPlan, SinkSpec};
use std::collections::BTreeSet;

/// Whether a query's resource usage is provably finite, and on what grounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Boundedness {
    /// Finite and *enforced*: the engine itself caps the figure (a window
    /// plus its [`pier_cq::CqBudget`], or a one-shot timeout over derived
    /// data).  `bound` is worst-case rows touched per window per node.
    Bounded {
        /// Worst-case rows touched per window per node.
        bound: u64,
    },
    /// Finite only under the [`EnvModel`] assumptions listed (table sizes,
    /// distinct-value counts, stream rates) — nothing in the engine enforces
    /// them.
    ConditionallyBounded {
        /// Bound on rows touched per node under the assumptions.
        bound: u64,
        /// The assumptions the bound rests on.
        assumptions: Vec<String>,
    },
    /// No finite bound exists: a standing query whose state or output grows
    /// with the stream.
    Unbounded {
        /// Why (e.g. "continuous join with no window on either side").
        reason: String,
    },
}

impl Boundedness {
    /// Stable lower-case tag used in the JSON report.
    pub fn tag(&self) -> &'static str {
        match self {
            Boundedness::Bounded { .. } => "bounded",
            Boundedness::ConditionallyBounded { .. } => "conditionally_bounded",
            Boundedness::Unbounded { .. } => "unbounded",
        }
    }
}

/// The static cost report for one query: every figure is a worst-case
/// prediction per the [`EnvModel`], derived before execution.  Serialized
/// with [`CostReport::to_json`] (schema in `docs/ANALYSIS.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Query id (0 when analyzed before the proxy assigned one).
    pub query_id: u64,
    /// Tenant the plan bills to.
    pub tenant: u64,
    /// The verdict.
    pub boundedness: Boundedness,
    /// Nodes the dissemination strategy installs the plan at.
    pub nodes_reached: u64,
    /// Messages one dissemination round costs.
    pub dissemination_msgs: u64,
    /// Overlay hops per DHT operation (the static one-hop ring).
    pub dht_hops: u64,
    /// Worst-case source rows touched per window per node (per run for a
    /// one-shot plan).
    pub rows_per_window_per_node: u64,
    /// Worst-case groups resident per window (equality-constrained group
    /// columns count one value each).
    pub groups_per_window: u64,
    /// Worst-case groups resident per pane: a window store holds panes, so
    /// this, not the window's figure, prices state and shipped partials.
    pub groups_per_pane: u64,
    /// Worst-case `WindowStore` bytes resident per node, both stores
    /// (ingest + root), all concurrently open panes.
    pub state_bytes_per_node: u64,
    /// Worst-case entries shipped per flush per node (a closed pane's
    /// group partials; the batched rehash path for joins).
    pub entries_per_flush_per_node: u64,
    /// Worst-case senders converging on the query's root/proxy per flush.
    pub root_fan_in: u64,
    /// Window length in microseconds (0 for non-windowed plans).
    pub window_size_us: u64,
    /// Window slide in microseconds (0 for non-windowed plans).
    pub window_slide_us: u64,
    /// Pane length in microseconds, `gcd(size, slide)` (0 for non-windowed
    /// plans): every row folds into one pane, whatever the window/slide
    /// ratio.
    pub window_pane_us: u64,
    /// Windows every event falls into (1 for non-windowed plans).
    pub windows_per_event: u64,
    /// The plan normalizes into a `pier-mqo` share group.
    pub share_eligible: bool,
    /// The share-group fingerprint, when eligible.
    pub fingerprint: Option<u64>,
    /// Assumptions the figures rest on (echoed from the verdict plus
    /// env-model facts, human-readable).
    pub assumptions: Vec<String>,
}

impl CostReport {
    /// The report as one JSON object (hand-rolled; the workspace carries no
    /// serde).  Keys are stable — CI and the soundness tests parse this.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        push_kv_u64(&mut out, "query_id", self.query_id);
        push_kv_u64(&mut out, "tenant", self.tenant);
        push_kv_str(&mut out, "verdict", self.boundedness.tag());
        match &self.boundedness {
            Boundedness::Bounded { bound } => push_kv_u64(&mut out, "bound", *bound),
            Boundedness::ConditionallyBounded { bound, .. } => {
                push_kv_u64(&mut out, "bound", *bound);
            }
            Boundedness::Unbounded { reason } => push_kv_str(&mut out, "reason", reason),
        }
        push_kv_u64(&mut out, "nodes_reached", self.nodes_reached);
        push_kv_u64(&mut out, "dissemination_msgs", self.dissemination_msgs);
        push_kv_u64(&mut out, "dht_hops", self.dht_hops);
        push_kv_u64(
            &mut out,
            "rows_per_window_per_node",
            self.rows_per_window_per_node,
        );
        push_kv_u64(&mut out, "groups_per_window", self.groups_per_window);
        push_kv_u64(&mut out, "groups_per_pane", self.groups_per_pane);
        push_kv_u64(&mut out, "state_bytes_per_node", self.state_bytes_per_node);
        push_kv_u64(
            &mut out,
            "entries_per_flush_per_node",
            self.entries_per_flush_per_node,
        );
        push_kv_u64(&mut out, "root_fan_in", self.root_fan_in);
        push_kv_u64(&mut out, "window_size_us", self.window_size_us);
        push_kv_u64(&mut out, "window_slide_us", self.window_slide_us);
        push_kv_u64(&mut out, "window_pane_us", self.window_pane_us);
        push_kv_u64(&mut out, "windows_per_event", self.windows_per_event);
        out.push_str("\"share_eligible\":");
        out.push_str(if self.share_eligible { "true" } else { "false" });
        out.push(',');
        if let Some(fp) = self.fingerprint {
            out.push_str(&format!("\"fingerprint\":\"{fp:016x}\","));
        }
        out.push_str("\"assumptions\":[");
        for (i, a) in self.assumptions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, a);
            out.push('"');
        }
        out.push_str("]}");
        out
    }
}

fn push_kv_u64(out: &mut String, key: &str, v: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
    out.push(',');
}

fn push_kv_str(out: &mut String, key: &str, v: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    escape_into(out, v);
    out.push_str("\",");
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Fixed overhead charged per resident (pane, group).
/// `WindowStore::approx_state_bytes`, the measured side, charges a group's
/// key, identity and directory entry once and a slot per pane holding it:
/// less than this per pane as soon as two panes share the group; while
/// exactly one does, about half as much again, and four bytes more for
/// every open pane (a pane's `id → slot` map spans the directory's ids).
/// The bound is stated at the budget's cap — every pane it allows open,
/// every one full — for panes that overlap in their groups, which is what
/// a stream of a few hot keys reaches; `tests/admission_soundness.rs` fills
/// a store pair to that cap and compares, and pins the other case — eight
/// panes that share no key — within twice the bound.  Such a query stays
/// under the bound itself as long as `max_open_windows` is twice the panes
/// it really holds open: the panes of one window in flight, and at the
/// root those of the `windows_per_event + 4` windows retained for
/// refinement.
const ENTRY_OVERHEAD: u64 = 48;
/// Charged per open pane (container headers, stats).
const WINDOW_OVERHEAD: u64 = 256;
/// Bytes charged per aggregate's partial state (`AggState` wire sizes top
/// out at 17 for AVG; 32 leaves headroom for MIN/MAX over strings).
const AGG_STATE_BYTES: u64 = 32;

/// Columns pinned to a single value by a `Selection` conjunct of the
/// opgraph: an equality atom (`col = const` or `const = col`).
fn pinned_columns(graph: &OpGraph) -> BTreeSet<String> {
    let mut pinned = BTreeSet::new();
    for op in &graph.ops {
        if let OperatorSpec::Selection(p) = op {
            let atoms = p.conjuncts().filter_map(Expr::atom);
            pinned.extend(atoms.filter(|a| a.op == CmpOp::Eq).map(|a| a.column));
        }
    }
    pinned
}

/// Derive the static [`CostReport`] for `plan` under `env`.  Total, never
/// errors: every plan the executor accepts gets a verdict (unknown shapes
/// degrade to conservative figures, not panics).
pub fn analyze(plan: &QueryPlan, env: &EnvModel) -> CostReport {
    let (nodes_reached, dissemination_msgs) = match &plan.dissemination {
        Dissemination::Broadcast => (env.nodes.max(1), env.nodes.max(1)),
        Dissemination::ByKey { .. } => (1, 1),
        Dissemination::ByRange { bucket_keys, .. } => {
            let n = (bucket_keys.len() as u64).clamp(1, env.nodes.max(1));
            (n, bucket_keys.len() as u64)
        }
        Dissemination::Local => (1, 0),
    };

    let share = pier_mqo::fingerprint::normalize(plan);
    let share_eligible = share.is_some();
    let fingerprint = share.as_ref().map(|c| c.fingerprint);

    let mut assumptions = vec![
        format!("events_per_node_per_sec<={}", env.events_per_node_per_sec),
        format!("bytes_per_value<={}", env.bytes_per_value),
    ];

    // The plan's dominant sink decides the shape of the bound: a windowed
    // sink is engine-enforced finite, a one-shot scan is finite under the
    // table-size assumption, and anything standing without a window is not.
    let windowed = plan.windowed_sink().map(|(i, _)| i);
    let continuous = plan.continuous || plan.cq.is_some();

    let mut rows_per_window_per_node: u64 = 0;
    let mut groups_per_window: u64 = 1;
    let mut groups_per_pane: u64 = 1;
    let mut state_bytes_per_node: u64 = 0;
    let mut entries_per_flush_per_node: u64 = 0;
    let mut root_fan_in: u64 = 1;
    let mut window_size_us: u64 = 0;
    let mut window_slide_us: u64 = 0;
    let mut window_pane_us: u64 = 0;
    let mut windows_per_event: u64 = 1;
    let mut unbounded_reason: Option<String> = None;
    let mut conditional = false;

    for graph in &plan.opgraphs {
        let pinned = pinned_columns(graph);
        match &graph.sink {
            SinkSpec::WindowedAgg {
                window,
                group_cols,
                aggs,
                ..
            } => {
                let budget = plan.cq.map(|c| c.budget).unwrap_or_default();
                window_size_us = window.size;
                window_slide_us = window.slide;
                window_pane_us = window.pane();
                windows_per_event = window.windows_per_event().max(1);
                // Rows *touched* per window per node: the full stream rate
                // over the window — selection selectivity is distributional
                // and therefore not a sound discount.  Each row folds into
                // the one pane it falls in; rows *retained* are capped by
                // the enforced per-pane budget.
                let rows_over = |us: u64| {
                    us.div_ceil(1_000_000)
                        .saturating_mul(env.events_per_node_per_sec)
                };
                let raw_rows = rows_over(window.size);
                rows_per_window_per_node = rows_per_window_per_node.max(raw_rows);
                // Groups: every equality-pinned group column contributes one
                // value; a free column contributes at most the distinct-value
                // assumption; the enforced budget caps the product either way.
                let mut distinct: u64 = 1;
                let mut distributional = false;
                for col in group_cols {
                    if !pinned.contains(col) {
                        distinct = distinct.saturating_mul(env.distinct_values.max(1));
                        distributional = true;
                    }
                }
                let cap = |rows: u64| {
                    distinct
                        .min(rows.min(budget.max_tuples_per_window))
                        .min(u64::from(budget.max_groups_per_window))
                        .max(1)
                };
                let groups = cap(raw_rows);
                let pane_groups = cap(rows_over(window.pane()));
                if distributional {
                    assumptions.push(format!(
                        "free group columns capped by enforced max_groups_per_window={}",
                        budget.max_groups_per_window
                    ));
                }
                groups_per_window = groups_per_window.max(groups);
                groups_per_pane = groups_per_pane.max(pane_groups);
                // State: both stores (ingest + root), every concurrently
                // open pane at the enforced cap, every group resident.
                let open = u64::from(budget.max_open_windows).max(1);
                let group_bytes = ENTRY_OVERHEAD
                    + env
                        .bytes_per_value
                        .saturating_mul(group_cols.len() as u64 + 1)
                    + AGG_STATE_BYTES.saturating_mul(aggs.len().max(1) as u64);
                let per_pane = pane_groups.saturating_mul(group_bytes) + WINDOW_OVERHEAD;
                state_bytes_per_node = state_bytes_per_node.max(2 * open.saturating_mul(per_pane));
                // Each closed pane ships its groups once toward the root,
                // however many windows cover it; the root absorbs one such
                // batch per sender.
                entries_per_flush_per_node = entries_per_flush_per_node.max(pane_groups);
                root_fan_in = root_fan_in.max(nodes_reached);
            }
            SinkSpec::HierarchicalAgg {
                group_cols,
                aggs,
                hold,
                ..
            } => {
                let rows = env.table_rows_per_node.max(1);
                rows_per_window_per_node = rows_per_window_per_node.max(rows);
                let mut groups: u64 = 1;
                for col in group_cols {
                    if !pinned.contains(col) {
                        groups = groups.saturating_mul(env.distinct_values.max(1));
                    }
                }
                groups = groups.min(rows).max(1);
                groups_per_window = groups_per_window.max(groups);
                let group_bytes = ENTRY_OVERHEAD
                    + env
                        .bytes_per_value
                        .saturating_mul(group_cols.len() as u64 + 1)
                    + AGG_STATE_BYTES.saturating_mul(aggs.len().max(1) as u64);
                // State: a one-shot aggregate runs in a window engine over
                // panes of its hold, so it is priced like a window — both
                // stores, every pane of the query's life open, each holding
                // every group.
                let open = u64::from(one_shot_panes(plan.timeout, *hold));
                let per_pane = groups.saturating_mul(group_bytes) + WINDOW_OVERHEAD;
                state_bytes_per_node = state_bytes_per_node.max(2 * open.saturating_mul(per_pane));
                entries_per_flush_per_node = entries_per_flush_per_node.max(groups);
                root_fan_in = root_fan_in.max(nodes_reached);
                conditional = true;
                assumptions.push(format!(
                    "one-shot scan of <={} stored rows per node",
                    env.table_rows_per_node
                ));
                assumptions.push(format!(
                    "free group columns assume <={} distinct values",
                    env.distinct_values
                ));
                if continuous {
                    unbounded_reason.get_or_insert_with(|| {
                        "standing aggregation with no window: group state and \
                         partial volume grow with the stream"
                            .to_string()
                    });
                }
            }
            SinkSpec::ToProxy | SinkSpec::Rehash { .. } => {
                let rows = env.table_rows_per_node.max(1);
                rows_per_window_per_node = rows_per_window_per_node.max(rows);
                // A join buffers both inputs in the symmetric-hash state; a
                // one-shot scan only streams through.
                if graph.join.is_some() {
                    state_bytes_per_node = state_bytes_per_node
                        .max(rows.saturating_mul(ENTRY_OVERHEAD + 4 * env.bytes_per_value));
                }
                if matches!(graph.sink, SinkSpec::Rehash { .. }) {
                    entries_per_flush_per_node = entries_per_flush_per_node.max(rows);
                } else {
                    root_fan_in = root_fan_in.max(nodes_reached);
                }
                conditional = true;
                assumptions.push(format!(
                    "one-shot scan of <={} stored rows per node",
                    env.table_rows_per_node
                ));
                if continuous {
                    let reason = if graph.join.is_some() {
                        "continuous join with no window on either side: \
                         symmetric-hash state grows with the stream"
                    } else {
                        "standing query with no window: output and operator \
                         state grow with the stream"
                    };
                    unbounded_reason.get_or_insert_with(|| reason.to_string());
                }
            }
        }
    }

    // A standing plan with no windowed sink at all is unbounded even when
    // the loop above found no specific culprit (e.g. empty opgraph list
    // never happens, but a continuous ToProxy select does).
    if continuous && windowed.is_none() {
        unbounded_reason.get_or_insert_with(|| {
            "standing query with no window: output and operator state grow \
             with the stream"
                .to_string()
        });
    }

    // A windowed sink makes the plan engine-bounded: the window plus its
    // CqBudget cap rows, groups and open windows, so no standing-state
    // reason found above survives.
    if windowed.is_some() {
        unbounded_reason = None;
    }

    let boundedness = if let Some(reason) = unbounded_reason {
        Boundedness::Unbounded { reason }
    } else if windowed.is_some() && !conditional {
        Boundedness::Bounded {
            bound: rows_per_window_per_node,
        }
    } else {
        Boundedness::ConditionallyBounded {
            bound: rows_per_window_per_node,
            assumptions: assumptions.clone(),
        }
    };

    CostReport {
        query_id: plan.query_id,
        tenant: plan.tenant,
        boundedness,
        nodes_reached,
        dissemination_msgs,
        dht_hops: 1, // the static one-hop ring
        rows_per_window_per_node,
        groups_per_window,
        groups_per_pane,
        state_bytes_per_node,
        entries_per_flush_per_node,
        root_fan_in,
        window_size_us,
        window_slide_us,
        window_pane_us,
        windows_per_event,
        share_eligible,
        fingerprint,
        assumptions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_core::sqlish;
    use pier_runtime::NodeAddr;

    fn compile(sql: &str) -> QueryPlan {
        sqlish::compile(sql, NodeAddr(1), 30_000_000).expect("compiles")
    }

    #[test]
    fn windowed_group_count_is_bounded() {
        let plan = compile("SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s");
        let report = analyze(&plan, &EnvModel::default());
        assert!(matches!(report.boundedness, Boundedness::Bounded { .. }));
        assert!(report.rows_per_window_per_node > 0);
        assert!(report.groups_per_window >= 1);
        assert!(report.state_bytes_per_node > 0);
        assert!(report.share_eligible);
        assert!(report.fingerprint.is_some());
    }

    #[test]
    fn equality_pinned_group_column_counts_one_group() {
        let plan = compile(
            "SELECT src, COUNT(*) FROM packets WHERE src = 'a' GROUP BY src WINDOW 2s SLIDE 1s",
        );
        let report = analyze(&plan, &EnvModel::default());
        assert_eq!(report.groups_per_window, 1);
    }

    #[test]
    fn state_and_shipped_entries_are_priced_per_pane() {
        let env = EnvModel {
            events_per_node_per_sec: 16,
            ..EnvModel::default()
        };
        let report = |window: &str| {
            let sql = format!("SELECT src, COUNT(*) FROM packets GROUP BY src {window}");
            analyze(&compile(&sql), &env)
        };
        let (tumbling, sliding) = (report("WINDOW 1s"), report("WINDOW 30s SLIDE 1s"));
        assert_eq!(
            (sliding.window_pane_us, sliding.windows_per_event),
            (1_000_000, 30)
        );
        // A window's rows and groups grow with its length...
        assert_eq!(sliding.rows_per_window_per_node, 30 * 16);
        assert_eq!(sliding.groups_per_window, 30 * 16);
        // ...but a row folds into one pane, so what a store holds and ships
        // is a one-pane window's, whatever the window/slide ratio.
        assert_eq!(sliding.groups_per_pane, 16);
        assert_eq!(sliding.state_bytes_per_node, tumbling.state_bytes_per_node);
        assert_eq!(
            sliding.entries_per_flush_per_node,
            tumbling.entries_per_flush_per_node
        );
        // Panes are gcd(size, slide) long.
        assert_eq!(report("WINDOW 5s SLIDE 2s").window_pane_us, 1_000_000);
    }

    #[test]
    fn one_shot_aggregate_is_conditionally_bounded() {
        let plan = compile("SELECT src, COUNT(*) FROM events GROUP BY src TOP 10 BY count");
        let report = analyze(&plan, &EnvModel::default());
        match &report.boundedness {
            Boundedness::ConditionallyBounded { assumptions, .. } => {
                assert!(!assumptions.is_empty());
            }
            other => panic!("expected conditional, got {other:?}"),
        }
    }

    #[test]
    fn one_shot_select_is_conditionally_bounded_and_bykey_reaches_one_node() {
        let plan = compile("SELECT file FROM files WHERE keyword = 'rock'");
        let report = analyze(&plan, &EnvModel::default());
        assert!(matches!(
            report.boundedness,
            Boundedness::ConditionallyBounded { .. }
        ));
        assert_eq!(report.nodes_reached, 1);
    }

    #[test]
    fn continuous_plan_without_window_is_unbounded() {
        let mut plan = compile("SELECT file FROM files WHERE size > 10");
        plan.continuous = true;
        let report = analyze(&plan, &EnvModel::default());
        assert!(matches!(report.boundedness, Boundedness::Unbounded { .. }));
    }

    #[test]
    fn report_json_is_parseable_shape() {
        let plan = compile("SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s");
        let json = analyze(&plan, &EnvModel::default()).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"verdict\":\"bounded\""));
        assert!(json.contains("\"rows_per_window_per_node\":"));
        assert!(json.contains("\"fingerprint\":\""));
    }
}
