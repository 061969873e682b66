//! The chaos workload: continuous netmon plus shared mqo tenants driven
//! through loss, partition and restart-storm phases under a seeded
//! [`FaultPlan`].
//!
//! The run is split into contiguous phases of virtual time:
//!
//! 1. **baseline** — clean network, establishes that the standing queries
//!    are healthy before anything is injected.
//! 2. **degraded** — probabilistic message loss across the whole phase plus
//!    a network partition of one or two non-proxy nodes over an inner
//!    sub-span.  Result quality is measured here: the mean relative error
//!    of the netmon per-window counts against the generated ground truth
//!    must stay bounded.
//! 3. **heal** — the network is clean again; the first post-heal window
//!    whose error falls under the recovery threshold dates the recovery.
//! 4. **storm** — a pre-drawn crash/restart storm kills durable nodes and
//!    brings them back cold.  Because every node carries a
//!    [`DurableStore`](pier_cq::DurableStore) "disk", the restarted nodes
//!    rehydrate warm window segments when the next lease roster makes
//!    them pull the queries back — the outcome records the
//!    rehydrated-window evidence.
//!
//! Every fault the simulator injects is mirrored into the netmon proxy's
//! telemetry hub as an event whose stage is the fault's label (`loss`,
//! `partition_heal`, …), so the outcome's trace can be reconciled against
//! the plan's own log — and two runs with equal seeds must produce
//! **byte-identical** traces.

use crate::cluster::{Cluster, ClusterConfig};
use crate::continuous::WindowEmission;
use crate::Table;
use pier_core::{sqlish, PierConfig, PierOut, SpanRecord, TelemetryConfig, Tuple, Value};
use pier_runtime::sim::{FaultCounts, FaultKind, FaultPlan, StormEvent};
use pier_runtime::{NodeAddr, Rng64, SimTime, Zipf};
use std::collections::BTreeMap;

/// Configuration of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of nodes at boot.
    pub nodes: usize,
    /// Determinism seed: topology, stream, fault schedule and storm draws.
    pub seed: u64,
    /// Shared mqo tenants riding along (each watches one source).
    pub tenants: usize,
    /// Events generated per node per second of virtual time.
    pub events_per_node_per_sec: u64,
    /// Distinct packet source addresses.
    pub sources: usize,
    /// Zipf skew of source popularity.
    pub zipf_theta: f64,
    /// Clean warm-up phase (virtual seconds).
    pub baseline_secs: u64,
    /// Loss + partition phase (virtual seconds).
    pub degraded_secs: u64,
    /// Clean recovery phase (virtual seconds).
    pub heal_secs: u64,
    /// Crash/restart-storm phase (virtual seconds).
    pub storm_secs: u64,
    /// Per-message drop probability across the degraded phase.
    pub loss: f64,
    /// Nodes cut away by the partition (an inner sub-span of the degraded
    /// phase); chosen from nodes that host no proxy.
    pub partition_nodes: usize,
    /// Storm victims crashed (and restarted warm) during the storm phase.
    pub storm_kills: usize,
    /// Acceptance bound on the mean relative netmon error over the
    /// degraded phase.
    pub error_bound: f64,
    /// A post-heal window counts as recovered once its relative error is at
    /// or under this threshold.
    pub recovered_below: f64,
    /// Per-node configuration (the driver enables sharing, telemetry and
    /// durable segments on it).
    pub pier: PierConfig,
}

impl ChaosConfig {
    /// The standard chaos run: 5% loss, a one-node partition, two storm
    /// kills.
    pub fn standard(nodes: usize, seed: u64) -> Self {
        ChaosConfig {
            nodes,
            seed,
            tenants: 6,
            events_per_node_per_sec: 8,
            sources: 48,
            zipf_theta: 0.8,
            baseline_secs: 12,
            degraded_secs: 10,
            heal_secs: 8,
            storm_secs: 10,
            loss: 0.05,
            partition_nodes: 1,
            storm_kills: 2,
            error_bound: 0.10,
            recovered_below: 0.05,
            pier: PierConfig::default(),
        }
    }
}

/// Phase boundaries of a run, in absolute virtual time.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpans {
    /// Stream start / end.
    pub stream: (SimTime, SimTime),
    /// Clean-measurable prefix of the baseline phase: only windows whose
    /// close-and-emit pipeline (`EVERY` interval plus transit) completes
    /// before fault onset — later baseline windows emit their deltas *into*
    /// the loss phase and are not a fault-free measurement.
    pub baseline: (SimTime, SimTime),
    /// The degraded (loss + partition) phase.
    pub degraded: (SimTime, SimTime),
    /// The partition's inner sub-span.
    pub partition: (SimTime, SimTime),
    /// Instant the partition healed and the loss schedule ended.
    pub heal_at: SimTime,
    /// The restart-storm phase.
    pub storm: (SimTime, SimTime),
}

/// Result of a chaos run.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The netmon standing query's id.
    pub query_id: u64,
    /// Netmon per-window results keyed by `(window_start, window_end)`.
    pub windows: BTreeMap<(SimTime, SimTime), WindowEmission>,
    /// Ground truth: events generated per window, over the same window
    /// arithmetic the query uses.
    pub generated: BTreeMap<(SimTime, SimTime), u64>,
    /// Total events fed to the cluster.
    pub events: u64,
    /// Phase boundaries (for error/recovery attribution).
    pub spans: ChaosSpans,
    /// Node indexes the storm crashed and restarted.
    pub restarted: Vec<usize>,
    /// Largest warm-restart evidence on any restarted node: windows the
    /// netmon query rehydrated from durable segments after coming back.
    pub rehydrated_windows: u64,
    /// The same for the riding tenants' share group.
    pub tenant_rehydrated_windows: u64,
    /// Fraction of expected tenant windows that received at least one row.
    pub tenant_coverage: f64,
    /// Aggregate fault-injection counts from the plan's log.
    pub fault_counts: FaultCounts,
    /// The netmon proxy's telemetry trace (JSONL), with every injected
    /// fault mirrored in — equal seeds must reproduce this byte-for-byte.
    pub trace: String,
    /// Every node's records merged under the `(time, node, ordinal)`
    /// total order — the all-nodes form of [`ChaosOutcome::trace`], equally
    /// byte-reproducible under equal seeds.
    pub merged_trace: String,
    /// Messages delivered between stream start and end of drain.
    pub total_msgs: u64,
    /// Bytes delivered over the same interval.
    pub total_bytes: u64,
    /// Cluster-wide telemetry sums at the end of the run (zeros for
    /// metrics the run never touched).
    pub telemetry: crate::cluster::ClusterTelemetrySummary,
}

impl ChaosOutcome {
    /// Total netmon count delivered for a window across groups (last
    /// emission per group wins).
    pub fn total_for(&self, window: (SimTime, SimTime)) -> i64 {
        self.windows.get(&window).map_or(0, |w| {
            w.rows
                .iter()
                .filter_map(|t| t.get("count").and_then(Value::as_i64))
                .sum()
        })
    }

    /// Relative error of one window against the generated ground truth.
    pub fn rel_error(&self, window: (SimTime, SimTime)) -> Option<f64> {
        let gen = *self.generated.get(&window)?;
        if gen == 0 {
            return None;
        }
        let obs = self.total_for(window);
        Some((obs - gen as i64).abs() as f64 / gen as f64)
    }

    /// Mean relative error over the windows lying fully inside `span`.
    pub fn mean_rel_error(&self, span: (SimTime, SimTime)) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (&(start, end), _) in self.generated.range((span.0, 0)..) {
            if start < span.0 {
                continue;
            }
            if end > span.1 {
                break;
            }
            if let Some(err) = self.rel_error((start, end)) {
                sum += err;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Seconds from the heal instant until the end of the first post-heal
    /// window whose relative error is at or under `below` (`None` when no
    /// window recovered).
    pub fn recovery_secs(&self, below: f64) -> Option<f64> {
        let heal = self.spans.heal_at;
        for (&(start, end), _) in self.generated.range((heal, 0)..) {
            if start < heal {
                continue;
            }
            if self.rel_error((start, end)).is_some_and(|e| e <= below) {
                return Some(end.saturating_sub(heal) as f64 / 1e6);
            }
        }
        None
    }
}

/// Source address of rank `i` (shared by tenants and the generator).
fn source_addr(rank: usize) -> String {
    format!("10.0.{}.{}", (rank / 256) % 256, rank % 256)
}

/// A fault as an event: its stable label, and the nodes, partition or
/// delay it names.  The node a crash, restart or stall hits is its
/// `target`: a merged export already keys each line by the recording
/// `node`.
fn fault_event(kind: &FaultKind) -> SpanRecord {
    let label = kind.label();
    let ix = |n: &NodeAddr| n.index() as u64;
    match kind {
        FaultKind::Loss { from, to } | FaultKind::PartitionDrop { from, to } => {
            SpanRecord::event(label, 0, &["from", "to"], [ix(from), ix(to)])
        }
        FaultKind::Duplicate { from, to, extra }
        | FaultKind::Reorder { from, to, extra }
        | FaultKind::DelaySpike { from, to, extra } => {
            let names = &["from", "to", "extra"];
            SpanRecord::event(label, 0, names, [ix(from), ix(to), *extra])
        }
        FaultKind::PartitionStart { id } | FaultKind::PartitionHeal { id } => {
            SpanRecord::event(label, 0, &["id"], [u64::from(*id)])
        }
        FaultKind::Crash { node }
        | FaultKind::Restart { node }
        | FaultKind::StallStart { node }
        | FaultKind::StallEnd { node } => SpanRecord::event(label, 0, &["target"], [ix(node)]),
    }
}

/// One riding tenant: query id, proxy, watched source and collected
/// per-window rows.
struct TenantRun {
    query_id: u64,
    proxy: NodeAddr,
    windows: BTreeMap<(SimTime, SimTime), Vec<Tuple>>,
}

/// Run the chaos workload.  Panics on an invalid configuration (the
/// configuration is part of the experiment, not user input).
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    assert!(
        cfg.nodes > cfg.tenants + cfg.partition_nodes + cfg.storm_kills + 1,
        "need enough nodes to keep proxies out of the fault sets"
    );
    let mut cluster_cfg = ClusterConfig::lan(cfg.nodes, cfg.seed);
    cluster_cfg.pier = cfg.pier.clone();
    cluster_cfg.pier.sharing = Some(pier_mqo::layer);
    let cluster_cfg = cluster_cfg
        .with_liveness_timeout(3_000_000)
        .with_telemetry(TelemetryConfig {
            capacity: 65_536,
            ..TelemetryConfig::enabled()
        })
        .with_durable();
    let mut cluster = Cluster::start(&cluster_cfg);
    let proxy = cluster.addr(0);
    let stream_micros =
        (cfg.baseline_secs + cfg.degraded_secs + cfg.heal_secs + cfg.storm_secs) * 1_000_000;

    // The netmon standing query at node 0, outliving the stream so trailing
    // windows can close and travel.
    let netmon_sql =
        "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s".to_string();
    // With the sharing layer on, the netmon query runs as a share group of
    // one beside the tenants' group; both persist through the same segments.
    let plan = sqlish::compile(&netmon_sql, proxy, stream_micros + 40_000_000)
        .expect("chaos netmon query must compile");
    let window_spec = match plan.windowed_sink() {
        Some((_, pier_core::SinkSpec::WindowedAgg { window, .. })) => *window,
        _ => panic!("chaos netmon query must have a WINDOW clause"),
    };
    let _ = cluster.sim.drain_outputs();
    let mut query_id = 0u64;
    cluster.sim.invoke(proxy, |node, ctx| {
        query_id = node.submit_query(ctx, plan);
    });
    // The riding tenants: constant-varied per-source queries sharing one
    // mqo dataflow, proxied at nodes 1..=tenants (kept out of the faults).
    let mut tenants: Vec<TenantRun> = Vec::with_capacity(cfg.tenants);
    for tenant in 0..cfg.tenants {
        let src = source_addr(tenant);
        let sql = format!(
            "SELECT src, COUNT(*) FROM packets WHERE src = '{src}' \
             GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"
        );
        let t_proxy = cluster.addr(1 + tenant);
        let plan = sqlish::compile(&sql, t_proxy, stream_micros + 40_000_000)
            .expect("tenant query compiles");
        let mut qid = 0u64;
        cluster.sim.invoke(t_proxy, |node, ctx| {
            qid = node.submit_query(ctx, plan);
        });
        tenants.push(TenantRun {
            query_id: qid,
            proxy: t_proxy,
            windows: BTreeMap::new(),
        });
    }
    // Let dissemination reach everyone, then isolate stream traffic.
    cluster.settle(1_000_000);
    cluster.reset_stats();

    // Phase boundaries in absolute virtual time.
    let stream_begin = cluster.sim.now();
    let d_start = stream_begin + cfg.baseline_secs * 1_000_000;
    let d_end = d_start + cfg.degraded_secs * 1_000_000;
    let fifth = cfg.degraded_secs * 1_000_000 / 5;
    let p_start = d_start + fifth;
    let p_end = d_end - fifth;
    let storm_start = d_end + cfg.heal_secs * 1_000_000;
    let stream_end = storm_start + cfg.storm_secs * 1_000_000;

    // Fault eligibility: node 0 and the tenant proxies host clients, so
    // they stay out of every fault set.  The partition cuts away the
    // highest-indexed nodes; the storm draws from the rest.
    let partition_side: Vec<NodeAddr> = (0..cfg.partition_nodes)
        .map(|i| cluster.addr(cfg.nodes - 1 - i))
        .collect();
    let storm_victims: Vec<NodeAddr> = (0..cfg.storm_kills.max(1))
        .map(|i| cluster.addr(1 + cfg.tenants + i))
        .collect();
    let plan = FaultPlan::new(cfg.seed ^ 0xFA017)
        .with_loss(d_start, d_end, cfg.loss)
        .with_partition(p_start, p_end, partition_side)
        .with_restart_storm(
            storm_start,
            storm_start + cfg.storm_secs * 1_000_000 * 2 / 5,
            &storm_victims,
            cfg.storm_kills,
            2_000_000,
            3_500_000,
        );
    // The simulator cannot construct fresh programs, so the harness arms
    // the storm schedule itself: crashes lose the program, restarts bring
    // the node back cold with its durable disk reattached.
    let storm: Vec<StormEvent> = plan.storm().to_vec();
    let mut restarted: Vec<usize> = Vec::new();
    for ev in &storm {
        cluster.crash_node_at(ev.node.index(), ev.crash_at);
        if let Some(at) = ev.restart_at {
            cluster.restart_node_at(ev.node.index(), at);
            if !restarted.contains(&ev.node.index()) {
                restarted.push(ev.node.index());
            }
        }
    }
    // Mirror every injected fault into the netmon proxy's telemetry hub so
    // traces can be reconciled against the plan's own log.
    let tel = cluster
        .telemetry(proxy)
        .expect("netmon proxy has a telemetry hub");
    cluster.sim.set_fault_sink(move |rec| {
        tel.set_now(rec.time);
        tel.record(fault_event(&rec.kind));
    });
    cluster.sim.set_fault_plan(plan);

    // The stream: every alive node ingests Zipf-popular packet tuples;
    // ground truth counts only what was actually generated (dead nodes
    // generate nothing).
    let mut rng = Rng64::new(cfg.seed ^ 0xC4A05);
    let zipf = Zipf::new(cfg.sources.max(1), cfg.zipf_theta);
    let tick = 250_000u64; // 4 ingest rounds per virtual second
    let mut events = 0u64;
    let mut generated: BTreeMap<(SimTime, SimTime), u64> = BTreeMap::new();
    let mut tenant_gen: Vec<BTreeMap<(SimTime, SimTime), u64>> = vec![BTreeMap::new(); cfg.tenants];
    while cluster.sim.now() < stream_end {
        let now = cluster.sim.now();
        let per_tick = (cfg.events_per_node_per_sec * tick / 1_000_000).max(1) as usize;
        for addr in cluster.sim.alive_nodes() {
            for _ in 0..per_tick {
                // Zipf ranks are 1-based; sources (and tenants) are 0-based.
                let rank = zipf.sample(&mut rng) - 1;
                let tuple = Tuple::new(
                    "packets",
                    vec![
                        ("src", Value::Str(source_addr(rank).into())),
                        ("ts", Value::Int(now as i64)),
                        ("port", Value::Int([22, 80, 443, 445][rng.index(4)])),
                    ],
                );
                events += 1;
                for wid in window_spec.windows_containing(now) {
                    let bounds = window_spec.bounds(wid);
                    *generated.entry(bounds).or_default() += 1;
                    if rank < cfg.tenants {
                        *tenant_gen[rank].entry(bounds).or_default() += 1;
                    }
                }
                cluster.sim.invoke(addr, move |node, ctx| {
                    node.ingest(ctx, "packets", tuple);
                });
            }
        }
        cluster.sim.run_for(tick);
    }
    // Drain: trailing windows close and travel; restarted nodes have had
    // their roster, pull and rehydration by the end.
    let drain = window_spec.size + window_spec.grace + 4 * window_spec.slide + 10_000_000;
    cluster.sim.run_for(drain);
    let total_msgs = cluster.sim.stats().total_msgs;
    let total_bytes = cluster.sim.stats().total_bytes;
    let fault_counts = cluster
        .sim
        .fault_plan()
        .map(pier_runtime::FaultPlan::counts)
        .unwrap_or_default();

    // Collect netmon windows at node 0 and tenant windows at their proxies.
    let mut windows: BTreeMap<(SimTime, SimTime), WindowEmission> = BTreeMap::new();
    let by_query: BTreeMap<u64, usize> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.query_id, i))
        .collect();
    for out in cluster.sim.drain_outputs() {
        let PierOut::WindowResult {
            query_id: qid,
            window_start,
            window_end,
            retract,
            tuple,
        } = out.value
        else {
            continue;
        };
        if qid == query_id && out.node == proxy {
            let w = windows.entry((window_start, window_end)).or_default();
            if w.first_emitted_at == 0 {
                w.first_emitted_at = out.time;
            }
            if w.last_emitted_at != out.time {
                w.last_emitted_at = out.time;
                w.emissions += 1;
            }
            if retract {
                w.retractions += 1;
                w.rows.retain(|t| *t != tuple);
            } else {
                w.rows.retain(|t| t.get("src") != tuple.get("src"));
                w.rows.push(tuple);
            }
        } else if let Some(&idx) = by_query.get(&qid) {
            if tenants[idx].proxy != out.node {
                continue;
            }
            let rows = tenants[idx]
                .windows
                .entry((window_start, window_end))
                .or_default();
            if retract {
                rows.retain(|t| *t != tuple);
            } else {
                rows.retain(|t| t.get("src") != tuple.get("src"));
                rows.push(tuple);
            }
        }
    }
    // Warm-restart evidence: the restarted nodes' re-installed queries
    // report how many windows their engine rehydrated from durable segments.
    let rehydrated = |query: u64| {
        let nodes = restarted.iter().map(|&i| cluster.sim.node(cluster.addr(i)));
        let diags = nodes.filter_map(|n| n?.cq_diagnostics(query));
        diags.map(|d| d.rehydrated_windows).max().unwrap_or(0)
    };
    let rehydrated_windows = rehydrated(query_id);
    let tenant_rehydrated_windows = tenants.iter().map(|t| rehydrated(t.query_id)).max();
    let tenant_rehydrated_windows = tenant_rehydrated_windows.unwrap_or(0);
    // Tenant liveness: of the windows a tenant's source actually appeared
    // in (and that closed before the stream ended), how many produced at
    // least one row at that tenant's proxy?
    let mut expected = 0usize;
    let mut covered = 0usize;
    for (tenant, gen) in tenant_gen.iter().enumerate() {
        for &(start, end) in gen.keys() {
            if start < stream_begin || end > stream_end {
                continue;
            }
            expected += 1;
            if tenants[tenant]
                .windows
                .get(&(start, end))
                .is_some_and(|rows| !rows.is_empty())
            {
                covered += 1;
            }
        }
    }
    let tenant_coverage = if expected == 0 {
        1.0
    } else {
        covered as f64 / expected as f64
    };
    let trace = cluster
        .telemetry(proxy)
        .map(|t| t.jsonl())
        .unwrap_or_default();
    let merged_trace = cluster.merged_span_jsonl();
    ChaosOutcome {
        query_id,
        windows,
        generated,
        events,
        spans: ChaosSpans {
            stream: (stream_begin, stream_end),
            // A window's results are fault-free only if its EVERY-5s emission
            // tick *and* the deltas' transit land before faults begin.
            baseline: (stream_begin, d_start.saturating_sub(6_000_000)),
            degraded: (d_start, d_end),
            partition: (p_start, p_end),
            heal_at: d_end,
            storm: (storm_start, stream_end),
        },
        restarted,
        rehydrated_windows,
        tenant_rehydrated_windows,
        tenant_coverage,
        fault_counts,
        trace,
        merged_trace,
        total_msgs,
        total_bytes,
        telemetry: cluster.telemetry_summary(),
    }
}

/// The `chaos` table for one run: error, recovery, fault and warm-restart
/// figures, then the same as metric lines.  All of it is a function of
/// `cfg` (virtual time, seeded faults), so `docs/baselines/tables/chaos.txt`
/// records it for `ChaosConfig::standard(20, 4)`.
pub fn chaos_table(cfg: &ChaosConfig, run: &ChaosOutcome) -> String {
    let degraded_err = run.mean_rel_error(run.spans.degraded);
    let baseline_err = run.mean_rel_error(run.spans.baseline);
    let recovery = run.recovery_secs(cfg.recovered_below);
    let faults = &run.fault_counts;
    let mut t = Table::new(
        "chaos",
        "# chaos: netmon + shared tenants through loss, partition and restart storm",
    );
    t.line(format_args!(
        "chaos_error                     baseline {baseline_err:>6.4}   degraded {degraded_err:>6.4}  (bound {:.2})\n\
         chaos_recovery                  {:>6.2} s after heal  (threshold {:.2})\n\
         chaos_faults                    {} losses, {} partition drops, {} crashes, {} restarts\n\
         chaos_warm_restart              {} panes rehydrated ({} by the tenants' group) on nodes {:?}",
        cfg.error_bound,
        recovery.unwrap_or(f64::NAN),
        cfg.recovered_below,
        faults.losses,
        faults.partition_drops,
        faults.crashes,
        faults.restarts,
        run.rehydrated_windows,
        run.tenant_rehydrated_windows,
        run.restarted
    ));
    for (metric, value) in [
        ("events", run.events as f64),
        ("windows", run.windows.len() as f64),
        ("baseline_rel_error", baseline_err),
        ("degraded_rel_error", degraded_err),
        ("recovery_secs", recovery.unwrap_or(-1.0)),
        ("rehydrated_windows", run.rehydrated_windows as f64),
        (
            "tenant_rehydrated_windows",
            run.tenant_rehydrated_windows as f64,
        ),
        ("tenant_coverage", run.tenant_coverage),
        ("losses", faults.losses as f64),
        ("partition_drops", faults.partition_drops as f64),
        ("crashes", faults.crashes as f64),
        ("restarts", faults.restarts as f64),
        ("total_msgs", run.total_msgs as f64),
        ("trace_events_node0", run.trace.lines().count() as f64),
    ] {
        t.metric(metric, value);
    }
    t.finish()
}
