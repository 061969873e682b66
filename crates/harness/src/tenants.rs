//! The `many_tenants` workload: N constant-varied monitoring queries.
//!
//! The multi-tenant network-monitoring scenario the paper's scale target
//! implies: tens to hundreds of users each install the *same* standing
//! windowed aggregate over the shared packet stream, differing only in the
//! constant of their `WHERE src = <mine>` predicate.  The driver installs
//! one such continuous query per tenant (optionally staggered mid-stream,
//! optionally torn down early), streams Zipf-skewed packet events to every
//! node for many windows of virtual time — optionally with node churn —
//! and collects each tenant's per-window result stream at that tenant's
//! own proxy.
//!
//! Run with [`ManyTenantsConfig::sharing`] on, the cluster executes the
//! tenants through `pier-mqo` share groups (one shared dataflow, one
//! predicate-index scan per chunk, one partial stream per group); off,
//! every tenant runs its own dataflow.  The mqo equivalence suite runs the
//! same stream both ways and pins identical per-tenant results and the
//! rows each way scans; the `mqo_shared` table reports the traffic ratio.

use crate::cluster::{Cluster, ClusterConfig};
use crate::Table;
use pier_core::{sqlish, PierConfig, PierNode, PierOut, Tuple, Value};
use pier_dht::NodeRef;
use pier_runtime::{LatencyCdf, NodeAddr, Rng64, SimTime, Zipf};
use std::collections::BTreeMap;

/// Configuration of a many-tenants run.
#[derive(Debug, Clone)]
pub struct ManyTenantsConfig {
    /// Number of nodes at boot.
    pub nodes: usize,
    /// Determinism seed (also controls the packet stream, which is
    /// identical for equal seeds regardless of `sharing`).
    pub seed: u64,
    /// Number of tenant queries; tenant `i` watches source `i`.
    pub tenants: usize,
    /// Execute tenants through the `pier-mqo` sharing layer.
    pub sharing: bool,
    /// Events generated per node per second of virtual time.
    pub events_per_node_per_sec: u64,
    /// Distinct packet sources (at least `tenants`; extra sources generate
    /// rows no tenant selects).
    pub sources: usize,
    /// Zipf skew of source popularity.
    pub zipf_theta: f64,
    /// How long the stream runs (virtual seconds).
    pub run_secs: u64,
    /// This many tenants (from the high end) install mid-stream, at
    /// one-third of the run.
    pub late_installs: usize,
    /// This many tenants (from the low end) tear down mid-stream, at
    /// two-thirds of the run (their query timeout expires there).
    pub early_uninstalls: usize,
    /// Churn: `(at_sec, kills, joins)` — at virtual second `at_sec`, fail
    /// `kills` non-proxy nodes and boot `joins` fresh ones.
    pub churn: Option<(u64, usize, usize)>,
    /// Per-node configuration (the driver sets `sharing` on it).
    pub pier: PierConfig,
}

impl ManyTenantsConfig {
    /// A standard run: `tenants` constant-varied queries over a steady
    /// stream, all installed up front.
    pub fn new(nodes: usize, tenants: usize, run_secs: u64, seed: u64) -> Self {
        ManyTenantsConfig {
            nodes,
            seed,
            tenants,
            sharing: true,
            events_per_node_per_sec: 8,
            sources: tenants + tenants / 4,
            zipf_theta: 0.6,
            run_secs,
            late_installs: 0,
            early_uninstalls: 0,
            churn: None,
            pier: PierConfig::default(),
        }
    }

    /// The tenant's source address and standing query.
    pub fn tenant_query(&self, tenant: usize) -> (String, String) {
        let src = source_addr(tenant);
        let sql = format!(
            "SELECT src, COUNT(*) FROM packets WHERE src = '{src}' \
             GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"
        );
        (src, sql)
    }
}

/// Source address of rank `i` (shared by tenants and the generator).
fn source_addr(rank: usize) -> String {
    format!("10.0.{}.{}", (rank / 256) % 256, rank % 256)
}

/// The admission decision a tenant's proxy reported for its query
/// (captured from [`PierOut::Admission`]; absent when the cluster runs
/// without an admission layer).
#[derive(Debug, Clone)]
pub struct AdmissionOutcome {
    /// Whether the query was admitted (possibly shed to sampling).
    pub accepted: bool,
    /// Sampling stride imposed by shed-to-sampling (1 = full stream).
    pub sample_every: u32,
    /// The machine-readable decision envelope (JSON) from the analyzer.
    pub report: String,
}

/// One tenant's collected results.
#[derive(Debug, Clone)]
pub struct TenantResult {
    /// The tenant's query id.
    pub query_id: u64,
    /// The tenant's proxy node.
    pub proxy: NodeAddr,
    /// The source this tenant watches.
    pub src: String,
    /// Admission decision for this tenant's query, if an admission layer
    /// was configured on the cluster.
    pub admission: Option<AdmissionOutcome>,
    /// Virtual time the tenant's query was submitted.
    pub installed_at: SimTime,
    /// Virtual time the tenant's query times out.
    pub ends_at: SimTime,
    /// Final per-window rows (last emission wins, retractions applied),
    /// keyed by `(window_start, window_end)`.
    pub windows: BTreeMap<(SimTime, SimTime), Vec<Tuple>>,
    /// Result latency samples (microseconds): per result row, the delay
    /// from the row's window *end* — the first instant the window's answer
    /// can exist — to its arrival at this tenant's proxy.
    pub result_latency: LatencyCdf,
}

/// Result of a many-tenants run.
#[derive(Debug)]
pub struct ManyTenantsOutcome {
    /// Per-tenant results, indexed by tenant rank.
    pub tenants: Vec<TenantResult>,
    /// Total events fed to the cluster.
    pub events: u64,
    /// Virtual instant the stream started / ended.
    pub stream: (SimTime, SimTime),
    /// Messages delivered between stream start and end of drain.
    pub total_msgs: u64,
    /// Bytes delivered over the same interval.
    pub total_bytes: u64,
    /// Largest number of live share groups observed on any node (0 without
    /// sharing).
    pub max_shared_groups: usize,
    /// Virtual instant the configured churn fired, if it did.
    pub churn_at: Option<SimTime>,
    /// Share groups still alive anywhere after the run's tenants ended
    /// (leak detector for refcounted teardown).
    pub residual_groups: usize,
    /// Share-group members still alive anywhere after the run.
    pub residual_members: usize,
    /// Cluster-wide telemetry sums at the end of the run (all zeros when
    /// the cluster ran without telemetry).
    pub telemetry: crate::cluster::ClusterTelemetrySummary,
}

impl ManyTenantsOutcome {
    /// Cross-tenant result-latency summary in microseconds: the median of
    /// the per-tenant p50s and the worst per-tenant p99 (`None` until some
    /// tenant received a result).  [`mqo_shared_table`] records both.
    pub fn result_latency_summary_us(&mut self) -> Option<(f64, f64)> {
        let mut p50s = LatencyCdf::new();
        let mut worst_p99 = f64::NEG_INFINITY;
        for t in &mut self.tenants {
            let Some(p50) = t.result_latency.percentile(50.0) else {
                continue;
            };
            p50s.add(p50);
            worst_p99 = worst_p99.max(t.result_latency.percentile(99.0)?);
        }
        Some((p50s.percentile(50.0)?, worst_p99))
    }
}

/// Run the many-tenants workload.
pub fn many_tenants(cfg: &ManyTenantsConfig) -> ManyTenantsOutcome {
    assert!(cfg.sources >= cfg.tenants, "every tenant needs its source");
    let mut cluster_cfg = ClusterConfig::lan(cfg.nodes, cfg.seed);
    cluster_cfg.pier = cfg.pier.clone();
    cluster_cfg.pier.sharing = if cfg.sharing {
        Some(pier_mqo::layer)
    } else {
        None
    };
    let cluster_cfg = cluster_cfg.with_liveness_timeout(3_000_000);
    let mut cluster = Cluster::start(&cluster_cfg);
    let _ = cluster.sim.drain_outputs();
    let run_micros = cfg.run_secs * 1_000_000;

    // Install the up-front tenants; late ones install at run/3, early
    // teardowns expire their timeout at 2*run/3.
    let late_from = cfg.tenants.saturating_sub(cfg.late_installs);
    let stream_begin_estimate = cluster.sim.now() + 1_000_000;
    let mut tenants: Vec<TenantResult> = Vec::with_capacity(cfg.tenants);
    let submit = |cluster: &mut Cluster, tenant: usize, ends_at: SimTime| -> TenantResult {
        let (src, sql) = cfg.tenant_query(tenant);
        let proxy = cluster.addr(tenant % cfg.nodes);
        let now = cluster.sim.now();
        let mut plan = sqlish::compile(&sql, proxy, ends_at.saturating_sub(now).max(1_000_000))
            .expect("tenant query compiles");
        // Tenant rank doubles as the SLO tenant id, so per-tenant budgets
        // in `PierConfig::slo` attach to the right queries.
        plan.tenant = tenant as u64;
        let mut query_id = 0u64;
        cluster.sim.invoke(proxy, |node, ctx| {
            query_id = node.submit_query(ctx, plan);
        });
        TenantResult {
            query_id,
            proxy,
            src,
            admission: None,
            installed_at: now,
            ends_at,
            windows: BTreeMap::new(),
            result_latency: LatencyCdf::new(),
        }
    };
    let default_end = stream_begin_estimate + run_micros + 20_000_000;
    let early_end = stream_begin_estimate + (run_micros / 3) * 2;
    for tenant in 0..late_from {
        let ends_at = if tenant < cfg.early_uninstalls {
            early_end
        } else {
            default_end
        };
        let t = submit(&mut cluster, tenant, ends_at);
        tenants.push(t);
    }
    // Let dissemination reach everyone, then isolate stream traffic.
    cluster.settle(1_000_000);
    cluster.reset_stats();

    let mut rng = Rng64::new(cfg.seed ^ 0x7E4A47);
    let zipf = Zipf::new(cfg.sources.max(1), cfg.zipf_theta);
    let tick = 250_000u64; // 4 ingest rounds per virtual second
    let mut events = 0u64;
    let stream_begin = cluster.sim.now();
    let stream_end = stream_begin + run_micros;
    let late_at = stream_begin + run_micros / 3;
    let mut churned = false;
    let mut churn_at = None;
    let mut late_installed = false;
    let mut max_shared_groups = 0usize;
    while cluster.sim.now() < stream_end {
        let now = cluster.sim.now();
        if !late_installed && cfg.late_installs > 0 && now >= late_at {
            late_installed = true;
            for tenant in late_from..cfg.tenants {
                let t = submit(&mut cluster, tenant, default_end);
                tenants.push(t);
            }
            cluster.settle(1_000_000);
            continue;
        }
        if let Some((at_sec, kills, joins)) = cfg.churn {
            if !churned && now >= stream_begin + at_sec * 1_000_000 {
                churned = true;
                churn_at = Some(now);
                let proxies: Vec<NodeAddr> = tenants.iter().map(|t| t.proxy).collect();
                let alive: Vec<NodeAddr> = cluster
                    .sim
                    .alive_nodes()
                    .into_iter()
                    .filter(|a| !proxies.contains(a))
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
                cluster.settle(1);
                continue;
            }
        }
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
                        ("len", Value::Int(40 + (rng.index(1400) as i64))),
                    ],
                );
                events += 1;
                cluster.sim.invoke(addr, move |node, ctx| {
                    node.ingest(ctx, "packets", tuple);
                });
            }
        }
        cluster.sim.run_for(tick);
        if cfg.sharing {
            for addr in cluster.sim.alive_nodes() {
                if let Some(stats) = cluster
                    .sim
                    .node(addr)
                    .and_then(pier_core::PierNode::sharing_stats)
                {
                    max_shared_groups = max_shared_groups.max(stats.groups);
                }
            }
        }
    }
    // Drain: trailing windows close and travel; every tenant's timeout —
    // and the lease lapse of any straggler node still holding the query —
    // has comfortably passed at the end, so teardown is observable.
    cluster.sim.run_for(run_micros / 2 + 40_000_000);
    let total_msgs = cluster.sim.stats().total_msgs;
    let total_bytes = cluster.sim.stats().total_bytes;

    // Collect each tenant's per-window rows at that tenant's proxy.
    let by_query: BTreeMap<u64, usize> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.query_id, i))
        .collect();
    for out in cluster.sim.drain_outputs() {
        match out.value {
            PierOut::WindowResult {
                query_id,
                window_start,
                window_end,
                retract,
                tuple,
            } => {
                let Some(&idx) = by_query.get(&query_id) else {
                    continue;
                };
                if tenants[idx].proxy != out.node {
                    continue;
                }
                let tenant = &mut tenants[idx];
                if !retract {
                    tenant
                        .result_latency
                        .add(out.time.saturating_sub(window_end) as f64);
                }
                let rows = tenant
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
            PierOut::Admission {
                query_id,
                accepted,
                sample_every,
                report,
                ..
            } => {
                let Some(&idx) = by_query.get(&query_id) else {
                    continue;
                };
                if tenants[idx].proxy != out.node {
                    continue;
                }
                tenants[idx].admission = Some(AdmissionOutcome {
                    accepted,
                    sample_every,
                    report,
                });
            }
            _ => {}
        }
    }
    // Leak detection: after every tenant ended, no node may retain share
    // groups or members.
    let mut residual_groups = 0usize;
    let mut residual_members = 0usize;
    for addr in cluster.sim.alive_nodes() {
        if let Some(stats) = cluster
            .sim
            .node(addr)
            .and_then(pier_core::PierNode::sharing_stats)
        {
            residual_groups += stats.groups;
            residual_members += stats.members;
        }
    }
    ManyTenantsOutcome {
        tenants,
        events,
        stream: (stream_begin, stream_end),
        total_msgs,
        total_bytes,
        max_shared_groups,
        churn_at,
        residual_groups,
        residual_members,
        telemetry: cluster.telemetry_summary(),
    }
}

/// What shed-to-sampling costs in accuracy: one tenant set run at full
/// rate and again under a budget that forces sampling.
#[derive(Debug)]
pub struct ShedAccuracy {
    /// Sampling modulus admission imposed on each tenant of the tight run.
    pub sample_every: Vec<u32>,
    /// Per tenant window with a non-zero true count, the relative error of
    /// the sampled count scaled back up by the tenant's modulus.
    pub rel_errors: Vec<f64>,
}

impl ShedAccuracy {
    /// Mean of [`ShedAccuracy::rel_errors`].
    pub fn mean_rel_error(&self) -> f64 {
        self.rel_errors.iter().sum::<f64>() / self.rel_errors.len().max(1) as f64
    }
}

/// Run `tenants` tenants under `pier_analyze::admission_factory` twice from
/// one seed — at full rate, then under a ceiling of 8 rows per window per
/// node against the declared 32, which forces a 1-in-4 modulus — and
/// compare the scaled sampled counts with the full-rate ones.  With
/// `sharing` the nodes run the `pier-mqo` layer: the full-rate tenants
/// share a group, and the shed ones must still be sampled.
pub fn shed_accuracy(
    nodes: usize,
    tenants: usize,
    run_secs: u64,
    seed: u64,
    sharing: bool,
) -> ShedAccuracy {
    let run = |max_rows: Option<u64>| {
        let mut cfg = ManyTenantsConfig::new(nodes, tenants, run_secs, seed);
        cfg.sharing = sharing;
        cfg.pier.admission = Some(pier_analyze::admission_factory);
        if let Some(rows) = max_rows {
            cfg.pier.slo.default_budget.max_rows_per_window_per_node = rows;
        }
        many_tenants(&cfg)
    };
    let truth = run(None);
    let shed = run(Some(8));
    let window_count = |rows: &[Tuple]| -> i64 {
        rows.iter()
            .filter_map(|t| t.get("count").and_then(Value::as_i64))
            .sum()
    };
    let mut acc = ShedAccuracy {
        sample_every: Vec::new(),
        rel_errors: Vec::new(),
    };
    for (full, sampled) in truth.tenants.iter().zip(&shed.tenants) {
        let m = sampled.admission.as_ref().map_or(1, |a| a.sample_every);
        acc.sample_every.push(m);
        for (span, rows) in &full.windows {
            let true_count = window_count(rows);
            if true_count == 0 {
                continue;
            }
            let est = sampled
                .windows
                .get(span)
                .map_or(0, |rows| window_count(rows))
                * i64::from(m);
            acc.rel_errors
                .push((est - true_count).abs() as f64 / true_count as f64);
        }
    }
    acc
}

/// The `admission` table: [`shed_accuracy`] of 4 unshared tenants on 8
/// nodes.
/// Counts of virtual-time windows, so a function of the seed;
/// `docs/baselines/tables/admission.txt` records it.
pub fn admission_table() -> String {
    let acc = shed_accuracy(8, 4, 20, 17, false);
    let modulus = acc.sample_every.iter().copied().max().unwrap_or(1);
    let (windows, mean) = (acc.rel_errors.len(), acc.mean_rel_error());
    let mut t = Table::new(
        "admission",
        "# admission: shed-mode accuracy against full-rate ground truth",
    );
    t.line(format_args!(
        "admission_shed                  modulus {modulus}   windows {windows}   \
         mean rel error {mean:>6.4}"
    ));
    t.metric("shed_sample_every", f64::from(modulus));
    t.metric("shed_windows_compared", windows as f64);
    t.metric("shed_mean_rel_error", mean);
    t.finish()
}

/// The `mqo_shared` table for one equal-seed pair of runs, sharing on and
/// off: traffic and result latency, all in virtual time.
/// `docs/baselines/tables/mqo_shared.txt` records it for
/// `ManyTenantsConfig::new(12, 64, 15, 29)` at 16 events per node per
/// second.  Panics unless both runs streamed the same workload, the shared
/// one formed a share group, and no group or member outlived its tenants.
pub fn mqo_shared_table(
    shared: &mut ManyTenantsOutcome,
    independent: &mut ManyTenantsOutcome,
) -> String {
    assert_eq!(shared.events, independent.events, "one workload, both ways");
    assert!(shared.max_shared_groups > 0, "no share group formed");
    let residual = (shared.residual_groups, shared.residual_members);
    assert_eq!(residual, (0, 0), "no share group outlives its members");
    let mut t = Table::new(
        "mqo_shared",
        "# multi-query sharing: constant-varied tenants, shared vs independent\n\
         # mode           events      msgs       bytes  latency_p50_us  latency_p99_us",
    );
    let mut latency = Vec::new();
    for (mode, run) in [("shared", &mut *shared), ("independent", &mut *independent)] {
        let (p50, p99) = run
            .result_latency_summary_us()
            .expect("tenants received results");
        t.line(format_args!(
            "{mode:<13} {:>8} {:>9} {:>11} {p50:>15.0} {p99:>15.0}",
            run.events, run.total_msgs, run.total_bytes
        ));
        latency.push((format!("tenants_{mode}_result_latency_p50_us"), p50));
        latency.push((format!("tenants_{mode}_result_latency_p99_us"), p99));
    }
    t.metric(
        "tenants_msgs_ratio",
        independent.total_msgs as f64 / shared.total_msgs.max(1) as f64,
    );
    t.metric(
        "tenants_bytes_ratio",
        independent.total_bytes as f64 / shared.total_bytes.max(1) as f64,
    );
    for (metric, value) in latency {
        t.metric(&metric, value);
    }
    t.finish()
}
