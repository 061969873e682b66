//! Experiment drivers — one per paper figure/table plus the ablations listed
//! in `DESIGN.md`.  Each driver builds its workload, runs the simulated
//! deployment, and returns structured rows.  The `*_table()` function after
//! each driver runs it at the size the paper (or the ablation) calls for and
//! renders the text `docs/baselines/tables/` records under the same name
//! and `tests/paper_tables.rs` compares.

use crate::cluster::{Cluster, ClusterConfig};
use crate::workloads::{join_tables, FilesharingWorkload, FirewallWorkload};
use crate::{slug, Table};
use pier_core::{
    AggFunc, Dissemination, Expr, JoinSpec, OpGraph, OperatorSpec, PlanBuilder, SinkSpec,
    SourceSpec, Value,
};
use pier_gnutella::{random_overlay, GnutellaNode, SharedFile};
use pier_runtime::metrics::LatencyCdf;
use pier_runtime::{SimConfig, Simulator};

/// FIG1 — first-result latency CDFs for PIER (rare items) vs the Gnutella
/// flooding baseline (all queries, rare items), reproducing Figure 1.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// CDF evaluation points, seconds.
    pub points: Vec<f64>,
    /// `(x, fraction of queries answered within x)` for PIER on rare queries.
    pub pier_rare: Vec<(f64, f64)>,
    /// Same for Gnutella over all queries.
    pub gnutella_all: Vec<(f64, f64)>,
    /// Same for Gnutella restricted to rare queries.
    pub gnutella_rare: Vec<(f64, f64)>,
    /// Fraction of rare queries that got no answer at all, PIER.
    pub pier_rare_no_answer: f64,
    /// Fraction of rare queries that got no answer at all, Gnutella.
    pub gnutella_rare_no_answer: f64,
}

/// Run the Figure-1 experiment.  `nodes` defaults to 50 in the paper.
pub fn fig1_filesharing(nodes: usize, files: usize, queries: usize, seed: u64) -> Fig1Result {
    let workload = FilesharingWorkload::generate(nodes, files, files / 6, 1.0, queries, 3, seed);
    let key_cols = vec!["keyword".to_string()];

    // --- PIER: publish the inverted index into the DHT, then answer each
    // rare query with an equality-index selection routed to the partition.
    let mut cluster = Cluster::start(&ClusterConfig::internet(nodes, seed));
    for (node, keyword, file) in &workload.publications {
        let tuple = FilesharingWorkload::tuple(keyword, file);
        let addr = cluster.addr(node % cluster.len());
        cluster.publish(addr, "files", &key_cols, tuple);
    }
    cluster.settle(10_000_000);
    let mut pier_rare = LatencyCdf::new();
    let mut pier_rare_issued = 0usize;
    let mut pier_rare_answered = 0usize;
    for (i, (keyword, rare)) in workload.queries.iter().enumerate() {
        if !rare {
            continue;
        }
        pier_rare_issued += 1;
        let proxy = cluster.addr(i % cluster.len());
        let plan = PlanBuilder::new(proxy)
            .dissemination(Dissemination::ByKey {
                namespace: "files".into(),
                key: Value::str(keyword).key_string(),
            })
            .timeout(15_000_000)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: "files".into(),
                },
                join: None,
                ops: vec![OperatorSpec::Selection(Expr::eq(
                    "keyword",
                    keyword.as_str(),
                ))],
                sink: SinkSpec::ToProxy,
            })
            .build();
        let outcome = cluster.run_query(proxy, plan);
        if let Some(latency) = outcome.first_result_latency_secs() {
            pier_rare.add(latency);
            pier_rare_answered += 1;
        }
    }

    // --- Gnutella baseline: same corpus shared on a random overlay, TTL-4
    // floods from the querying node.
    let overlay = random_overlay(nodes, 4, seed ^ 0xA11);
    let mut sim: Simulator<GnutellaNode> = Simulator::new(SimConfig::internet(seed ^ 0xA11));
    let mut libraries: Vec<Vec<SharedFile>> = vec![Vec::new(); nodes];
    for (fid, (node, keyword, _file)) in workload.publications.iter().enumerate() {
        libraries[node % nodes].push(SharedFile {
            file_id: fid as u64,
            keywords: vec![keyword.clone()],
        });
    }
    let mut addrs = Vec::new();
    for (neighbors, library) in overlay.into_iter().zip(libraries) {
        addrs.push(sim.add_node(GnutellaNode::new(neighbors, library)));
    }
    sim.run_until(1_000);
    let mut gnutella_all = LatencyCdf::new();
    let mut gnutella_rare = LatencyCdf::new();
    let mut gnutella_rare_issued = 0usize;
    let mut gnutella_rare_answered = 0usize;
    for (i, (keyword, rare)) in workload.queries.iter().enumerate() {
        let origin = addrs[i % addrs.len()];
        let submitted = sim.now();
        let _ = sim.drain_outputs();
        let kw = keyword.clone();
        sim.invoke(origin, move |node, ctx| {
            node.issue_query(ctx, vec![kw], 3);
        });
        sim.run_for(15_000_000);
        let first = sim
            .drain_outputs()
            .into_iter()
            .filter(|o| o.node == origin)
            .map(|o| o.time)
            .min();
        if *rare {
            gnutella_rare_issued += 1;
        }
        match first {
            Some(t) => {
                let latency = (t.saturating_sub(submitted)) as f64 / 1_000_000.0;
                gnutella_all.add(latency);
                if *rare {
                    gnutella_rare.add(latency);
                    gnutella_rare_answered += 1;
                }
            }
            None => {
                // No answer: contributes to the CDF never reaching 1.0.
            }
        }
    }

    let points: Vec<f64> = (0..=30).map(|i| i as f64 * 0.5).collect();
    let frac = |answered: usize, issued: usize| {
        if issued == 0 {
            0.0
        } else {
            1.0 - answered as f64 / issued as f64
        }
    };
    // Scale each CDF by its answer rate so "no answer" shows up as the curve
    // plateauing below 100%, as in the paper's figure.
    let scale = |cdf: &mut LatencyCdf, answered: usize, issued: usize| -> Vec<(f64, f64)> {
        let rate = if issued == 0 {
            0.0
        } else {
            answered as f64 / issued as f64
        };
        points
            .iter()
            .map(|&x| (x, cdf.fraction_at_most(x) * rate))
            .collect()
    };
    let mut gnutella_all_cdf = gnutella_all;
    let total_queries = workload.queries.len().max(1);
    let all_answered = gnutella_all_cdf.len();
    Fig1Result {
        points: points.clone(),
        pier_rare: scale(&mut pier_rare.clone(), pier_rare_answered, pier_rare_issued),
        gnutella_all: scale(&mut gnutella_all_cdf, all_answered, total_queries),
        gnutella_rare: scale(
            &mut gnutella_rare.clone(),
            gnutella_rare_answered,
            gnutella_rare_issued,
        ),
        pier_rare_no_answer: frac(pier_rare_answered, pier_rare_issued),
        gnutella_rare_no_answer: frac(gnutella_rare_answered, gnutella_rare_issued),
    }
}

/// The Figure-1 table at the paper's PlanetLab deployment size (50 nodes).
/// Panics unless PIER answers at least as many rare queries as flooding —
/// the figure's claim.
pub fn fig1_filesharing_table() -> String {
    let result = fig1_filesharing(50, 3_000, 120, 42);
    let (pier, gnutella) = (
        result.pier_rare_no_answer * 100.0,
        result.gnutella_rare_no_answer * 100.0,
    );
    assert!(
        pier <= gnutella,
        "PIER must answer at least as many rare queries as flooding"
    );
    let mut t = Table::new(
        "fig1_filesharing",
        "# Figure 1 — CDF of first-result latency (50 nodes, synthetic Zipf corpus)\n\
         # columns: latency_s  pier_rare  gnutella_all  gnutella_rare  (fraction of queries answered)",
    );
    for ((x, pier), (ga, gr)) in result
        .pier_rare
        .iter()
        .zip(result.gnutella_all.iter().zip(&result.gnutella_rare))
    {
        t.line(format_args!(
            "{x:6.1}  {pier:8.3}  {:8.3}  {:8.3}",
            ga.1, gr.1
        ));
    }
    t.line(format_args!(
        "# no-answer rate: PIER rare = {pier:.1}%, Gnutella rare = {gnutella:.1}%"
    ));
    t.metric("pier_rare_no_answer_pct", pier);
    t.metric("gnutella_rare_no_answer_pct", gnutella);
    t.finish()
}

/// FIG2 — the top-k sources of firewall events computed by a distributed
/// aggregation query, reproducing Figure 2.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// `(source ip, count)` reported by the PIER query, descending.
    pub reported: Vec<(String, i64)>,
    /// Ground-truth top-k from the generated workload.
    pub ground_truth: Vec<(String, i64)>,
    /// How many of the reported sources are in the true top-k.
    pub overlap: usize,
}

/// Run the Figure-2 experiment.  The paper used 350 PlanetLab nodes.
pub fn fig2_netmon(nodes: usize, events: usize, k: usize, seed: u64) -> Fig2Result {
    let workload = FirewallWorkload::generate(nodes, events, 2_000, 1.2, seed);
    let mut cluster = Cluster::start(&ClusterConfig::internet(nodes, seed));
    for (node, src, port) in &workload.events {
        let addr = cluster.addr(node % cluster.len());
        cluster.add_local_row(addr, "events", FirewallWorkload::tuple(src, *port));
    }
    let proxy = cluster.addr(0);
    let plan = PlanBuilder::top_k_group_count(proxy, "events", "src", k, 25_000_000);
    let outcome = cluster.run_query(proxy, plan);
    let mut reported: Vec<(String, i64)> = outcome
        .tuples()
        .iter()
        .filter_map(|t| {
            Some((
                t.get("src")?.as_str()?.to_string(),
                t.get("count")?.as_i64()?,
            ))
        })
        .collect();
    reported.sort_by_key(|r| std::cmp::Reverse(r.1));
    reported.truncate(k);
    let ground_truth = workload.top_k(k);
    let truth_set: std::collections::HashSet<&str> =
        ground_truth.iter().map(|(s, _)| s.as_str()).collect();
    let overlap = reported
        .iter()
        .filter(|(s, _)| truth_set.contains(s.as_str()))
        .count();
    Fig2Result {
        reported,
        ground_truth,
        overlap,
    }
}

/// The Figure-2 table at the paper's PlanetLab deployment size (350 nodes).
/// Panics unless the reported top 10 largely matches ground truth.
pub fn fig2_netmon_table() -> String {
    let result = fig2_netmon(350, 60_000, 10, 7);
    assert!(
        result.overlap >= 7,
        "top-10 should largely match ground truth"
    );
    let mut t = Table::new(
        "fig2_netmon",
        "# Figure 2 — top 10 sources of firewall events (350 nodes)\n\
         # rank  reported_source      reported_count   true_source          true_count",
    );
    for (i, ((rs, rc), (ts, tc))) in result.reported.iter().zip(&result.ground_truth).enumerate() {
        t.line(format_args!(
            "{:4}  {rs:<20} {rc:>10}   {ts:<20} {tc:>10}",
            i + 1
        ));
    }
    t.line(format_args!(
        "# overlap with ground truth: {}/{}",
        result.overlap,
        result.ground_truth.len()
    ));
    t.metric("top10_overlap", result.overlap as f64);
    t.finish()
}

/// EXP-A — join strategy comparison: bytes shipped and result latency for a
/// rehash-based Symmetric Hash join versus a Fetch Matches index join.
#[derive(Debug, Clone)]
pub struct JoinStrategyResult {
    /// Strategy name.
    pub strategy: String,
    /// Result tuples delivered to the proxy.
    pub results: usize,
    /// Total bytes moved over the network during the query.
    pub bytes: u64,
    /// First-result latency, seconds (None when the join is empty).
    pub first_result_secs: Option<f64>,
}

/// Run EXP-A at the given scale.
pub fn join_strategies(nodes: usize, rows: usize, seed: u64) -> Vec<JoinStrategyResult> {
    let key = vec!["b".to_string()];
    let mut out = Vec::new();

    for strategy in ["symmetric-hash", "fetch-matches"] {
        let (r_rows, s_rows) = join_tables(nodes, rows, rows / 2, rows / 4, seed);
        let mut cluster = Cluster::start(&ClusterConfig::internet(nodes, seed));
        // Both relations are published into the DHT hashed on the join key,
        // i.e. each has a primary index on `b`.
        for (node, t) in r_rows.iter().chain(s_rows.iter()) {
            let addr = cluster.addr(node % cluster.len());
            cluster.publish(addr, t.table(), &key, t.clone());
        }
        cluster.settle(10_000_000);
        cluster.reset_stats();
        let proxy = cluster.addr(1);
        let plan = match strategy {
            "symmetric-hash" => {
                // Opgraph 0/1: rescan and rehash both relations into the
                // query's rendezvous namespace; opgraph 2: join as tuples
                // arrive (the DHT partition is the operator state).
                let ns = "q.join".to_string();
                PlanBuilder::new(proxy)
                    .timeout(25_000_000)
                    .opgraph(OpGraph {
                        id: 0,
                        source: SourceSpec::Table {
                            namespace: "r".into(),
                        },
                        join: None,
                        ops: vec![],
                        sink: SinkSpec::Rehash {
                            namespace: ns.clone(),
                            key_cols: key.clone(),
                        },
                    })
                    .opgraph(OpGraph {
                        id: 1,
                        source: SourceSpec::Table {
                            namespace: "s".into(),
                        },
                        join: None,
                        ops: vec![],
                        sink: SinkSpec::Rehash {
                            namespace: ns.clone(),
                            key_cols: key.clone(),
                        },
                    })
                    .opgraph(OpGraph {
                        id: 2,
                        source: SourceSpec::Table { namespace: ns },
                        join: Some(JoinSpec {
                            left_table: "r".into(),
                            right_table: "s".into(),
                            left_key: key.clone(),
                            right_key: key.clone(),
                            output_table: "r_s".into(),
                        }),
                        ops: vec![],
                        sink: SinkSpec::ToProxy,
                    })
                    .build()
            }
            _ => {
                // Fetch Matches: scan R, and for each tuple fetch the S
                // partition indexed by the same key (a distributed index
                // join; S is the "inner" relation, §3.3.3).
                PlanBuilder::new(proxy)
                    .timeout(25_000_000)
                    .opgraph(OpGraph {
                        id: 0,
                        source: SourceSpec::Table {
                            namespace: "r".into(),
                        },
                        join: None,
                        ops: vec![OperatorSpec::FetchMatches {
                            inner_namespace: "s".into(),
                            probe_col: "b".into(),
                            output_table: "r_s".into(),
                        }],
                        sink: SinkSpec::ToProxy,
                    })
                    .build()
            }
        };
        let outcome = cluster.run_query(proxy, plan);
        out.push(JoinStrategyResult {
            strategy: strategy.to_string(),
            results: outcome.results.len(),
            bytes: cluster.sim.stats().total_bytes,
            first_result_secs: outcome.first_result_latency_secs(),
        });
    }
    out
}

/// The EXP-A table: both join strategies on 32 nodes.
pub fn join_strategies_table() -> String {
    let mut t = Table::new(
        "join_strategies",
        "# EXP-A — join strategies, 32 nodes\n\
         # strategy          results      bytes    first_result_s",
    );
    for row in join_strategies(32, 600, 17) {
        let first = row
            .first_result_secs
            .map_or_else(|| "-".into(), |s| format!("{s:.2}"));
        t.line(format_args!(
            "{:<18} {:>8} {:>10} {first:>12}",
            row.strategy, row.results, row.bytes
        ));
        let strategy = slug(&row.strategy);
        t.metric(&format!("bytes_{strategy}"), row.bytes as f64);
        t.metric(&format!("results_{strategy}"), row.results as f64);
    }
    t.finish()
}

/// EXP-B — hierarchical vs flat aggregation: maximum per-node in-bandwidth
/// and bytes into the root.
#[derive(Debug, Clone)]
pub struct AggregationResult {
    /// Number of nodes.
    pub nodes: usize,
    /// "hierarchical" or "flat".
    pub mode: String,
    /// Maximum bytes received by any single node during the aggregation.
    pub max_in_bytes: u64,
    /// Total bytes moved.
    pub total_bytes: u64,
    /// Number of groups reported.
    pub groups_reported: usize,
}

/// Run EXP-B for one network size.
pub fn hierarchical_aggregation(
    nodes: usize,
    events_per_node: usize,
    seed: u64,
) -> Vec<AggregationResult> {
    let mut out = Vec::new();
    for (mode, flat) in [("hierarchical", false), ("flat", true)] {
        let mut cluster = Cluster::start(&ClusterConfig::internet(nodes, seed));
        let workload = FirewallWorkload::generate(nodes, nodes * events_per_node, 500, 1.1, seed);
        for (node, src, port) in &workload.events {
            let addr = cluster.addr(node % cluster.len());
            cluster.add_local_row(addr, "events", FirewallWorkload::tuple(src, *port));
        }
        cluster.reset_stats();
        let proxy = cluster.addr(0);
        let plan = PlanBuilder::new(proxy)
            .timeout(25_000_000)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: "events".into(),
                },
                join: None,
                ops: vec![],
                sink: SinkSpec::HierarchicalAgg {
                    group_cols: vec!["src".into()],
                    aggs: vec![AggFunc::Count],
                    hold: 2_000_000,
                    final_ops: vec![],
                    flat,
                },
            })
            .build();
        let outcome = cluster.run_query(proxy, plan);
        out.push(AggregationResult {
            nodes,
            mode: mode.to_string(),
            max_in_bytes: cluster.sim.stats().max_in_bytes(),
            total_bytes: cluster.sim.stats().total_bytes,
            groups_reported: outcome.results.len(),
        });
    }
    out
}

/// The EXP-B table: both aggregation modes on 25 to 200 nodes.
pub fn hier_aggregation_table() -> String {
    let mut t = Table::new(
        "hier_aggregation",
        "# EXP-B — hierarchical vs flat aggregation\n\
         # nodes  mode           max_in_bytes   total_bytes   groups",
    );
    for nodes in [25, 50, 100, 200] {
        for row in hierarchical_aggregation(nodes, 40, 23) {
            t.line(format_args!(
                "{:>6}  {:<13} {:>12} {:>12} {:>8}",
                row.nodes, row.mode, row.max_in_bytes, row.total_bytes, row.groups_reported
            ));
            if nodes == 200 {
                let mode = slug(&row.mode);
                t.metric(&format!("max_in_bytes_{mode}_200"), row.max_in_bytes as f64);
                t.metric(&format!("total_bytes_{mode}_200"), row.total_bytes as f64);
            }
        }
    }
    t.finish()
}

/// EXP-C — query dissemination: nodes contacted and messages used by
/// broadcast vs equality-index routing.
#[derive(Debug, Clone)]
pub struct DisseminationResult {
    /// Number of nodes in the network.
    pub nodes: usize,
    /// "broadcast" or "equality-index".
    pub strategy: String,
    /// Messages sent while disseminating and answering the query.
    pub messages: u64,
    /// Result tuples returned (sanity check: both must answer correctly).
    pub results: usize,
}

/// Run EXP-C for one network size.
pub fn dissemination(nodes: usize, seed: u64) -> Vec<DisseminationResult> {
    let mut out = Vec::new();
    let key_cols = vec!["keyword".to_string()];
    for strategy in ["broadcast", "equality-index"] {
        let mut cluster = Cluster::start(&ClusterConfig::lan(nodes, seed));
        for i in 0..20 {
            let tuple = FilesharingWorkload::tuple("needle", &format!("file-{i}"));
            let addr = cluster.addr(i % cluster.len());
            cluster.publish(addr, "files", &key_cols, tuple);
        }
        cluster.settle(5_000_000);
        cluster.reset_stats();
        let proxy = cluster.addr(2);
        let dissemination = if strategy == "broadcast" {
            Dissemination::Broadcast
        } else {
            Dissemination::ByKey {
                namespace: "files".into(),
                key: Value::Str("needle".into()).key_string(),
            }
        };
        let plan = PlanBuilder::new(proxy)
            .dissemination(dissemination)
            .timeout(10_000_000)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: "files".into(),
                },
                join: None,
                ops: vec![OperatorSpec::Selection(Expr::eq("keyword", "needle"))],
                sink: SinkSpec::ToProxy,
            })
            .build();
        let outcome = cluster.run_query(proxy, plan);
        out.push(DisseminationResult {
            nodes,
            strategy: strategy.to_string(),
            messages: cluster.sim.stats().total_msgs,
            results: outcome.results.len(),
        });
    }
    out
}

/// The EXP-C table: both dissemination strategies on 16 to 256 nodes.
pub fn dissemination_table() -> String {
    let mut t = Table::new(
        "dissemination",
        "# EXP-C — query dissemination strategies\n\
         # nodes  strategy          messages  results",
    );
    for nodes in [16, 64, 128, 256] {
        for row in dissemination(nodes, 5) {
            t.line(format_args!(
                "{:>6}  {:<16} {:>9} {:>8}",
                row.nodes, row.strategy, row.messages, row.results
            ));
            if nodes == 256 {
                let strategy = slug(&row.strategy);
                t.metric(&format!("messages_{strategy}_256"), row.messages as f64);
            }
        }
    }
    t.finish()
}

/// EXP-D — DHT routing scalability: mean lookup hop count vs network size.
#[derive(Debug, Clone)]
pub struct ScalabilityResult {
    /// Network size.
    pub nodes: usize,
    /// Mean overlay hops per lookup.
    pub mean_hops: f64,
    /// 95th-percentile hops.
    pub p95_hops: f64,
}

/// Run EXP-D for one network size using the DHT directly (no query layer).
pub fn dht_scalability(nodes: usize, lookups: usize, seed: u64) -> ScalabilityResult {
    use pier_dht::{make_ring_refs, DhtNode, OverlayConfig, OverlayEvent};
    let refs = make_ring_refs(nodes, seed);
    let mut sim: Simulator<DhtNode<String>> = Simulator::new(SimConfig::lan(seed));
    for r in &refs {
        sim.add_node(DhtNode::with_static_ring(
            *r,
            &refs,
            OverlayConfig::default(),
        ));
    }
    sim.run_until(1_000);
    let mut rng = pier_runtime::Rng64::new(seed ^ 0x5ca1e);
    for _ in 0..lookups {
        let issuer = refs[rng.index(nodes)].addr;
        let target = pier_dht::Id(rng.next_u64());
        sim.invoke(issuer, move |node, ctx| {
            let now = ctx.now();
            let (_rid, effects) = node.overlay_mut().lookup(target, now);
            node.apply(ctx, effects);
        });
    }
    sim.run_for(30_000_000);
    let mut cdf = LatencyCdf::new();
    for r in &refs {
        for e in &sim.node(r.addr).unwrap().events {
            if let OverlayEvent::LookupDone { hops, .. } = e {
                cdf.add(*hops as f64);
            }
        }
    }
    ScalabilityResult {
        nodes,
        mean_hops: cdf.mean(),
        p95_hops: cdf.percentile(95.0).unwrap_or(0.0),
    }
}

/// The EXP-D table: lookup hop counts on rings of 16 to 1,024 nodes.
pub fn dht_scalability_table() -> String {
    let mut t = Table::new(
        "dht_scalability",
        "# EXP-D — DHT lookup hop counts vs network size\n\
         # nodes   mean_hops   p95_hops",
    );
    for nodes in [16, 32, 64, 128, 256, 512, 1024] {
        let row = dht_scalability(nodes, 200, 13);
        t.line(format_args!(
            "{:>6}   {:>9.2}   {:>8.2}",
            row.nodes, row.mean_hops, row.p95_hops
        ));
        if nodes == 1024 {
            t.metric("mean_hops_1024", row.mean_hops);
            t.metric("p95_hops_1024", row.p95_hops);
        }
    }
    t.finish()
}

/// EXP-E — churn: query recall as a function of the fraction of failed nodes.
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// Fraction of nodes failed before the query ran.
    pub failed_fraction: f64,
    /// Fraction of the published rows the query still returned.
    pub recall: f64,
}

/// Run EXP-E: publish rows, fail a fraction of the network, re-query.
pub fn churn(nodes: usize, rows: usize, failed_fraction: f64, seed: u64) -> ChurnResult {
    let key_cols = vec!["keyword".to_string()];
    let mut cluster = Cluster::start(&ClusterConfig::lan(nodes, seed));
    for i in 0..rows {
        let tuple = FilesharingWorkload::tuple("needle", &format!("file-{i}"));
        let addr = cluster.addr(i % cluster.len());
        cluster.publish(addr, "files", &key_cols, tuple);
    }
    cluster.settle(5_000_000);
    let failed = ((nodes as f64) * failed_fraction).round() as usize;
    // Never fail the proxy (the last node) so the query can still be issued.
    for i in 0..failed.min(nodes - 1) {
        let addr = cluster.addr(i);
        let now = cluster.sim.now();
        cluster.sim.fail_node_at(addr, now);
    }
    // Give the overlay time to detect the failures (liveness timeout), route
    // around them, and re-form the distribution tree under the new root, as
    // the soft-state design intends; the query then measures data loss.
    cluster.settle(60_000_000);
    let proxy = cluster.addr(nodes - 1);
    let plan = PlanBuilder::select(
        proxy,
        "files",
        Expr::eq("keyword", "needle"),
        vec!["file".to_string()],
        15_000_000,
    );
    let outcome = cluster.run_query(proxy, plan);
    ChurnResult {
        failed_fraction,
        recall: outcome.results.len() as f64 / rows as f64,
    }
}

/// The EXP-E table: recall with up to 30 % of 100 nodes failed.
pub fn churn_table() -> String {
    let mut t = Table::new(
        "churn",
        "# EXP-E — recall under node failures (100 nodes, 200 published rows)\n\
         # failed_fraction   recall",
    );
    for failed in [0.0, 0.05, 0.1, 0.2, 0.3] {
        let row = churn(100, 200, failed, 31);
        t.line(format_args!(
            "{:>16.2}   {:>6.3}",
            row.failed_fraction, row.recall
        ));
        let pct = (failed * 100.0) as u32;
        t.metric(&format!("recall_at_{pct}pct_failed"), row.recall);
    }
    t.finish()
}

/// EXP-F — congestion models: completion latency of the Figure-2 query under
/// the three congestion models of the simulator.
#[derive(Debug, Clone)]
pub struct CongestionResult {
    /// Congestion model name.
    pub model: String,
    /// Latency (seconds) of the last result to arrive.
    pub last_result_secs: f64,
    /// Number of grouped results delivered.
    pub results: usize,
}

/// Run EXP-F at a fixed scale.
pub fn congestion_models(nodes: usize, events: usize, seed: u64) -> Vec<CongestionResult> {
    use pier_runtime::sim::CongestionKind;
    let mut out = Vec::new();
    for (name, kind) in [
        ("none", CongestionKind::None),
        ("fifo", CongestionKind::Fifo),
        ("fair-queue", CongestionKind::FairQueue),
    ] {
        let mut config = ClusterConfig::internet(nodes, seed);
        config.congestion = kind;
        let mut cluster = Cluster::start(&config);
        let workload = FirewallWorkload::generate(nodes, events, 500, 1.2, seed);
        for (node, src, port) in &workload.events {
            let addr = cluster.addr(node % cluster.len());
            cluster.add_local_row(addr, "events", FirewallWorkload::tuple(src, *port));
        }
        let proxy = cluster.addr(0);
        let plan = PlanBuilder::top_k_group_count(proxy, "events", "src", 10, 25_000_000);
        let outcome = cluster.run_query(proxy, plan);
        let last = outcome
            .results
            .iter()
            .map(|(t, _)| (*t - outcome.submitted_at) as f64 / 1_000_000.0)
            .fold(0.0f64, f64::max);
        out.push(CongestionResult {
            model: name.to_string(),
            last_result_secs: last,
            results: outcome.results.len(),
        });
    }
    out
}

/// The EXP-F table: the three congestion models on 100 nodes.
pub fn congestion_models_table() -> String {
    let mut t = Table::new(
        "congestion_models",
        "# EXP-F — congestion models (100 nodes, 20k events)\n\
         # model        last_result_s   results",
    );
    for row in congestion_models(100, 20_000, 19) {
        t.line(format_args!(
            "{:<12} {:>13.2} {:>9}",
            row.model, row.last_result_secs, row.results
        ));
        let model = slug(&row.model);
        t.metric(&format!("last_result_secs_{model}"), row.last_result_secs);
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_small_scale_finds_the_heavy_hitters() {
        let r = fig2_netmon(20, 2_000, 5, 3);
        assert_eq!(r.ground_truth.len(), 5);
        assert!(!r.reported.is_empty(), "query must report sources");
        assert!(
            r.overlap >= 3,
            "top sources must largely match ground truth: {:?} vs {:?}",
            r.reported,
            r.ground_truth
        );
    }

    #[test]
    fn dissemination_equality_index_uses_fewer_messages() {
        let rows = dissemination(24, 11);
        let broadcast = rows.iter().find(|r| r.strategy == "broadcast").unwrap();
        let equality = rows
            .iter()
            .find(|r| r.strategy == "equality-index")
            .unwrap();
        assert_eq!(broadcast.results, 20);
        assert_eq!(equality.results, 20);
        assert!(
            equality.messages < broadcast.messages,
            "equality routing ({}) must use fewer messages than broadcast ({})",
            equality.messages,
            broadcast.messages
        );
    }

    #[test]
    fn dht_scalability_hops_grow_slowly() {
        let small = dht_scalability(16, 60, 5);
        let large = dht_scalability(128, 60, 5);
        assert!(small.mean_hops >= 0.5);
        assert!(large.mean_hops > small.mean_hops);
        // Logarithmic growth: 8x the nodes should not cost 8x the hops.
        assert!(large.mean_hops < small.mean_hops * 4.0);
    }

    #[test]
    fn churn_degrades_recall_gracefully() {
        let healthy = churn(20, 40, 0.0, 9);
        let degraded = churn(20, 40, 0.25, 9);
        assert!(healthy.recall > 0.95, "healthy recall {}", healthy.recall);
        assert!(degraded.recall <= healthy.recall);
        assert!(
            degraded.recall > 0.3,
            "recall should degrade gracefully, got {}",
            degraded.recall
        );
    }
}
