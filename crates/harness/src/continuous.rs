//! The continuous network-monitoring workload (the paper's Figure-2
//! scenario run the way it is meant to be run: as a *standing* query).
//!
//! A sqlish windowed aggregate is registered once at a proxy and then a
//! packet/flow stream is fed to every node for many windows of virtual
//! time, optionally with churn (node kills and fresh joins) mid-stream.
//! The driver collects the per-window result stream delivered to the
//! proxy's client and reports sustained throughput, per-window latency and
//! per-node state bounds — the metrics that make a continuous query
//! deployable on shared infrastructure.

use crate::cluster::{Cluster, ClusterConfig};
use crate::{slug, Table};
use pier_core::{sqlish, PierConfig, PierNode, PierOut, Tuple, Value};
use pier_dht::NodeRef;
use pier_runtime::{NodeAddr, Rng64, SimTime, Zipf};
use std::collections::BTreeMap;

/// Configuration of a continuous netmon run.
#[derive(Debug, Clone)]
pub struct ContinuousNetmonConfig {
    /// Number of nodes at boot.
    pub nodes: usize,
    /// Determinism seed.
    pub seed: u64,
    /// The standing query (sqlish; must contain a `WINDOW` clause).
    pub sql: String,
    /// Events generated per node per second of virtual time.
    pub events_per_node_per_sec: u64,
    /// Distinct packet source addresses.
    pub sources: usize,
    /// Zipf skew of source popularity.
    pub zipf_theta: f64,
    /// How long the stream runs (virtual seconds).
    pub run_secs: u64,
    /// Churn: `(at_sec, kills, joins)` — at virtual second `at_sec`, fail
    /// `kills` non-proxy nodes and boot `joins` fresh nodes.
    pub churn: Option<(u64, usize, usize)>,
    /// Per-node configuration (the profiled runs turn on telemetry and
    /// tracing).
    pub pier: PierConfig,
}

impl ContinuousNetmonConfig {
    /// The default standing query: per-source packet counts over a sliding
    /// window, renewed every 5 s.
    pub fn default_query() -> String {
        "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s".to_string()
    }

    /// A small steady-state run (tests, examples).
    pub fn steady(nodes: usize, run_secs: u64, seed: u64) -> Self {
        ContinuousNetmonConfig {
            nodes,
            seed,
            sql: Self::default_query(),
            events_per_node_per_sec: 8,
            sources: 64,
            zipf_theta: 0.9,
            run_secs,
            churn: None,
            pier: PierConfig::default(),
        }
    }
}

/// One per-window emission observed at the proxy's client.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowEmission {
    /// Insert/snapshot rows, latest emission per window.
    pub rows: Vec<Tuple>,
    /// Rows retracted across the window's emissions (delta mode).
    pub retractions: usize,
    /// Virtual time the first emission for this window arrived.
    pub first_emitted_at: SimTime,
    /// Virtual time the latest emission arrived (refinements re-emit).
    pub last_emitted_at: SimTime,
    /// Number of emissions: 1 for a single snapshot, more when late
    /// partials refined the window after its first emission.
    pub emissions: u32,
}

/// Result of a continuous netmon run.
#[derive(Debug)]
pub struct ContinuousOutcome {
    /// The standing query's id.
    pub query_id: u64,
    /// Per-window results keyed by `(window_start, window_end)`.
    pub windows: BTreeMap<(SimTime, SimTime), WindowEmission>,
    /// Ground truth: events generated per `(window_start, window_end)`,
    /// counted over the same window arithmetic the query uses.
    pub generated: BTreeMap<(SimTime, SimTime), u64>,
    /// Total events fed to the cluster.
    pub events: u64,
    /// Sustained ingest rate over the run (tuples per virtual second).
    pub tuples_per_sec: f64,
    /// Mean delay from window end to first emission (virtual seconds).
    pub mean_window_latency_secs: f64,
    /// Largest per-node CQ state footprint observed at the end of the run:
    /// `(open panes, groups, tracked emissions)`.
    pub max_node_state: (usize, usize, usize),
    /// Largest state a node that never emitted held as the stream ended:
    /// `(open panes, groups)` — a leaf's or relay's footprint, which the
    /// root's retained panes would hide in `max_node_state`.
    pub max_leaf_state: (usize, usize),
    /// Rows the nodes' local stores had accepted when the stream ended, over
    /// all nodes: one per row, whatever the window/slide ratio.
    pub folds: u64,
    /// Messages delivered between the start of the stream and the end of the
    /// drain (dissemination/boot traffic excluded).
    pub total_msgs: u64,
    /// Bytes delivered over the same interval.
    pub total_bytes: u64,
    /// Cluster-wide telemetry sums at the end of the run (all zeros when
    /// the cluster ran without telemetry).
    pub telemetry: crate::cluster::ClusterTelemetrySummary,
}

impl ContinuousOutcome {
    /// Total count delivered for a window across groups (last emissions).
    pub fn total_for(&self, window: (SimTime, SimTime)) -> i64 {
        self.windows.get(&window).map_or(0, |w| {
            w.rows
                .iter()
                .filter_map(|t| t.get("count").and_then(Value::as_i64))
                .sum()
        })
    }
}

/// Run the continuous netmon workload.  Panics on an invalid query (the
/// configuration is part of the experiment, not user input).
pub fn continuous_netmon(cfg: &ContinuousNetmonConfig) -> ContinuousOutcome {
    continuous_netmon_observed(cfg).0
}

/// Like [`continuous_netmon`], but hands the drained cluster back so the
/// caller can inspect post-run state — the profile driver
/// ([`crate::profile`]) collects every node's span ring from it to
/// assemble the merged EXPLAIN ANALYZE trace.
pub fn continuous_netmon_observed(cfg: &ContinuousNetmonConfig) -> (ContinuousOutcome, Cluster) {
    // Continuous queries need routes to heal within a window slide, so
    // fail-stop detection is tightened well below the 30 s default.
    let mut cluster_cfg = ClusterConfig::lan(cfg.nodes, cfg.seed);
    cluster_cfg.pier = cfg.pier.clone();
    let cluster_cfg = cluster_cfg.with_liveness_timeout(3_000_000);
    let mut cluster = Cluster::start(&cluster_cfg);
    let proxy = cluster.addr(0);
    let run_micros = cfg.run_secs * 1_000_000;
    // The query outlives the stream so trailing windows can close and
    // travel; the proxy keeps renewing until the timeout.
    let plan = sqlish::compile(&cfg.sql, proxy, run_micros + 20_000_000)
        .expect("continuous netmon query must compile");
    let window_spec = match plan.windowed_sink() {
        Some((_, pier_core::SinkSpec::WindowedAgg { window, .. })) => *window,
        _ => panic!("continuous netmon query must have a WINDOW clause"),
    };
    let _ = cluster.sim.drain_outputs();
    let mut query_id = 0u64;
    cluster.sim.invoke(proxy, |node, ctx| {
        query_id = node.submit_query(ctx, plan);
    });
    // Let dissemination reach everyone before the stream starts, then
    // isolate the stream's traffic from boot/dissemination traffic.
    cluster.settle(1_000_000);
    cluster.reset_stats();

    let mut rng = Rng64::new(cfg.seed ^ 0xCAFE);
    let zipf = Zipf::new(cfg.sources.max(1), cfg.zipf_theta);
    let tick = 250_000u64; // 4 ingest rounds per virtual second
    let mut events = 0u64;
    let mut generated: BTreeMap<(SimTime, SimTime), u64> = BTreeMap::new();
    let stream_end = cluster.sim.now() + run_micros;
    let mut churned = false;
    while cluster.sim.now() < stream_end {
        let now = cluster.sim.now();
        // Churn: kill some non-proxy nodes and boot fresh ones mid-stream.
        if let Some((at_sec, kills, joins)) = cfg.churn {
            if !churned && now >= at_sec * 1_000_000 {
                churned = true;
                let alive: Vec<NodeAddr> = cluster
                    .sim
                    .alive_nodes()
                    .into_iter()
                    .filter(|a| *a != proxy)
                    .collect();
                for victim in alive.iter().rev().take(kills) {
                    cluster.sim.fail_node_at(*victim, now);
                }
                for _ in 0..joins {
                    let addr = NodeAddr(cluster.sim.node_count() as u32);
                    let me = NodeRef {
                        id: pier_dht::Id(rng.next_u64()),
                        addr,
                    };
                    let mut ring = cluster.refs.clone();
                    ring.push(me);
                    let assigned = cluster.sim.add_node(PierNode::with_static_ring(
                        me,
                        &ring,
                        cluster_cfg.pier.clone(),
                    ));
                    debug_assert_eq!(assigned, addr);
                }
                // Process the failure before streaming on.
                cluster.settle(1);
                continue;
            }
        }
        let per_tick = (cfg.events_per_node_per_sec * tick / 1_000_000).max(1) as usize;
        let alive = cluster.sim.alive_nodes();
        for addr in alive {
            for _ in 0..per_tick {
                let rank = zipf.sample(&mut rng);
                let src = format!("10.0.{}.{}", (rank / 256) % 256, rank % 256);
                let tuple = Tuple::new(
                    "packets",
                    vec![
                        ("src", Value::Str(src.into())),
                        ("ts", Value::Int(now as i64)),
                        ("port", Value::Int([22, 80, 443, 445][rng.index(4)])),
                    ],
                );
                events += 1;
                for wid in window_spec.windows_containing(now) {
                    *generated.entry(window_spec.bounds(wid)).or_default() += 1;
                }
                cluster.sim.invoke(addr, move |node, ctx| {
                    node.ingest(ctx, "packets", tuple);
                });
            }
        }
        cluster.sim.run_for(tick);
    }
    // What the nodes folded and hold as the stream ends (a long window's
    // query may expire before the drain is over).
    let diags: Vec<_> = cluster
        .sim
        .alive_nodes()
        .into_iter()
        .filter_map(|addr| cluster.sim.node(addr)?.cq_diagnostics(query_id))
        .collect();
    let folds = diags.iter().map(|d| d.local.accepted).sum();
    let leaves = diags.iter().filter(|d| d.windows_emitted == 0);
    let max_leaf_state = leaves.fold((0, 0), |(panes, groups), d| {
        (panes.max(d.open_windows), groups.max(d.total_groups))
    });
    // Drain: let trailing windows close, travel and emit.
    let drain = window_spec.size + 4 * window_spec.slide + 2_000_000;
    cluster.sim.run_for(drain);
    let total_msgs = cluster.sim.stats().total_msgs;
    let total_bytes = cluster.sim.stats().total_bytes;

    // Collect per-window emissions delivered to the proxy's client.
    let mut windows: BTreeMap<(SimTime, SimTime), WindowEmission> = BTreeMap::new();
    for out in cluster.sim.drain_outputs() {
        if out.node != proxy {
            continue;
        }
        if let PierOut::WindowResult {
            query_id: qid,
            window_start,
            window_end,
            retract,
            tuple,
        } = out.value
        {
            if qid != query_id {
                continue;
            }
            let w = windows.entry((window_start, window_end)).or_default();
            if w.first_emitted_at == 0 {
                w.first_emitted_at = out.time;
            }
            // Rows of one emission share an arrival instant; a later
            // instant means the window was re-emitted (refinement).
            if w.last_emitted_at != out.time {
                w.last_emitted_at = out.time;
                w.emissions += 1;
            }
            if retract {
                w.retractions += 1;
                w.rows.retain(|t| *t != tuple);
            } else {
                // A re-emission (snapshot refresh or delta refinement)
                // supersedes the group's earlier row.
                w.rows.retain(|t| t.get("src") != tuple.get("src"));
                w.rows.push(tuple);
            }
        }
    }
    let mean_window_latency_secs = if windows.is_empty() {
        0.0
    } else {
        windows
            .iter()
            .map(|((_, end), w)| w.first_emitted_at.saturating_sub(*end) as f64 / 1e6)
            .sum::<f64>()
            / windows.len() as f64
    };
    // Per-node state bound at the end of the run.
    let mut max_node_state = (0usize, 0usize, 0usize);
    for addr in cluster.sim.alive_nodes() {
        if let Some(diag) = cluster
            .sim
            .node(addr)
            .and_then(|n| n.cq_diagnostics(query_id))
        {
            max_node_state.0 = max_node_state.0.max(diag.open_windows);
            max_node_state.1 = max_node_state.1.max(diag.total_groups);
            max_node_state.2 = max_node_state.2.max(diag.tracked_emissions);
        }
    }
    let outcome = ContinuousOutcome {
        query_id,
        windows,
        generated,
        events,
        tuples_per_sec: events as f64 / cfg.run_secs.max(1) as f64,
        mean_window_latency_secs,
        max_node_state,
        max_leaf_state,
        folds,
        total_msgs,
        total_bytes,
        telemetry: cluster.telemetry_summary(),
    };
    (outcome, cluster)
}

/// The EXP-L table: the standing netmon query in steady state on 10, 25 and
/// 50 nodes, and under churn.  Every figure is in
/// virtual time, so the table is a function of the seeds.
pub fn cq_continuous_table() -> String {
    let mut t = Table::new(
        "cq_continuous",
        "# EXP-L — continuous netmon: sustained tuples/sec and per-window latency",
    );
    let mut row = |label: &str, cfg: &ContinuousNetmonConfig| {
        let run = continuous_netmon(cfg);
        // Delivery over the steady tail (skips ramp-up and healing windows).
        let (delivered, generated) = run
            .generated
            .iter()
            .filter(|(&(s, e), _)| s >= 15_000_000 && e + 8_000_000 <= cfg.run_secs * 1_000_000)
            .fold((0u64, 0u64), |(d, g), (&w, &gw)| {
                (d + run.total_for(w).max(0) as u64, g + gw)
            });
        let delivery = if generated == 0 {
            0.0
        } else {
            delivered as f64 / generated as f64
        };
        t.line(format_args!(
            "{label:<26} {:>5} nodes  {:>8.0} tup/s  {:>4} windows  {:>6.2}s mean latency  {delivery:>6.3} delivery",
            cfg.nodes,
            run.tuples_per_sec,
            run.windows.len(),
            run.mean_window_latency_secs,
        ));
        let tag = format!("{}_{}n", slug(label), cfg.nodes);
        t.metric(&format!("tuples_per_sec_{tag}"), run.tuples_per_sec);
        t.metric(
            &format!("mean_window_latency_secs_{tag}"),
            run.mean_window_latency_secs,
        );
        t.metric(&format!("delivery_{tag}"), delivery);
    };
    let steady = |nodes, seed| {
        let mut cfg = ContinuousNetmonConfig::steady(nodes, 40, seed);
        cfg.events_per_node_per_sec = 16;
        cfg
    };
    for nodes in [10, 25, 50] {
        row("steady", &steady(nodes, 11));
    }
    let mut churn = steady(25, 13);
    churn.churn = Some((18, 5, 3));
    row("churn (kill 5, join 3)", &churn);
    // The window/slide ratio costs a leaf nothing: a row folds into one
    // pane and a pane ships once, so what a node folds, holds and ships
    // is the same at 2 s / 1 s and at 30 s / 1 s.
    for (size, label) in [(2, "window 2s/1s"), (30, "window 30s/1s")] {
        let mut cfg = steady(25, 11);
        cfg.sql = format!(
            "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW {size}s SLIDE 1s EVERY 5s"
        );
        let run = continuous_netmon(&cfg);
        let events = run.events.max(1) as f64;
        let folds = run.folds as f64 / events;
        let bytes = run.total_bytes as f64 / events;
        let (panes, groups) = run.max_leaf_state;
        t.line(format_args!(
            "{label:<26} {:>5} nodes  {folds:>5.2} folds/row  leaf {panes:>3} panes {groups:>4} groups  {bytes:>7.1} B/row sent",
            cfg.nodes,
        ));
        let tag = format!("{}_{}n", slug(label), cfg.nodes);
        t.metric(&format!("folds_per_row_{tag}"), folds);
        t.metric(&format!("leaf_open_panes_{tag}"), panes as f64);
        t.metric(&format!("leaf_groups_{tag}"), groups as f64);
        t.metric(&format!("bytes_per_row_{tag}"), bytes);
    }
    t.finish()
}
