//! Multi-query sharing (pier-mqo): equivalence with independent execution
//! and share-group lifecycle over a live cluster.
//!
//! The load-bearing claim of the sharing layer is that it is *invisible* in
//! the results: N constant-varied standing queries executed through share
//! groups deliver, per query and per window, exactly the rows independent
//! per-query execution delivers — under steady state, under mid-stream
//! query install/uninstall, and under node churn.  These tests run the
//! `many_tenants` workload twice from the same seed (sharing on/off) and
//! compare the per-tenant per-window result multisets, then pin the
//! refcounted teardown: once every tenant's query ends, no node retains a
//! share group.  A query joining a group live at its proxy crosses the
//! tree by its constants (its member form); the suites count where it was
//! installed that way and where a node without the group pulled the plan.

use pier::harness::tenants::{many_tenants, ManyTenantsConfig, ManyTenantsOutcome};
use pier::harness::{Cluster, ClusterConfig};
use pier::qp::{sqlish, PierOut, QueryPlan, Tuple, Value};
use pier::runtime::sim::SimOutput;
use pier::runtime::{NodeAddr, Rng64, SimTime};
use pier::telemetry::TelemetryConfig;
use std::collections::BTreeMap;

mod common;
use common::seeded;

/// Canonical view of one tenant's windows restricted to `[from, to]`:
/// window bounds → sorted row renderings (a multiset fingerprint).  Clients
/// cannot tell shared from unshared results: in either mode every row a
/// tenant reads is labelled `q{id}.win(window_start, window_end, src,
/// count)` and states its window's bounds — the rendering repeats the
/// label, the assertions here say what it is.
fn canonical(
    outcome: &ManyTenantsOutcome,
    tenant: usize,
    from: SimTime,
    to: SimTime,
) -> BTreeMap<(SimTime, SimTime), Vec<String>> {
    let tenant = &outcome.tenants[tenant];
    let table = format!("q{}.win", tenant.query_id);
    tenant
        .windows
        .iter()
        .filter(|((start, end), _)| *start >= from && *end <= to)
        .map(|(bounds, rows)| {
            let bounds_cells = [bounds.0, bounds.1].map(|t| Value::Int(t as i64));
            for row in rows {
                assert_eq!(row.table(), table);
                let columns = ["window_start", "window_end", "src", "count"];
                assert_eq!(row.columns(), columns);
                assert_eq!(row.values()[..2], bounds_cells);
            }
            let mut rendered: Vec<String> =
                rows.iter().map(std::string::ToString::to_string).collect();
            rendered.sort();
            (*bounds, rendered)
        })
        .collect()
}

/// Compare every tenant's windows between a shared and an independent run
/// over the spans where the two executions are *defined* to agree:
///
/// * from the first window opening after the tenant installed (a shared
///   member joining a live group sees the group's already-accumulated state
///   for in-flight windows — a strictly more complete first answer);
/// * up to the last window fully refined before the tenant's query wound
///   down (a query dying mid-refinement truncates the two modes' late
///   partials at different relay depths);
/// * excluding a guard band around a node-churn instant: a killed node
///   holds different in-flight window state in the two modes (that is the
///   sharing), so windows *straddling* the kill lose different partials —
///   windows fully before it, and windows opening after repair completed,
///   must still match exactly.  Repair spans failure detection, ring
///   stabilisation, owner-cache expiry, and — since lease renewals back
///   off exponentially on no-progress rounds — up to two stretched renewal
///   rounds before churned-in nodes receive the plan, so the post-churn
///   guard is 12 s: a seed sweep puts the last loss-affected window start
///   at churn + 9 s, and nothing diverges beyond it.
fn assert_equivalent(
    shared: &ManyTenantsOutcome,
    independent: &ManyTenantsOutcome,
    label: &str,
) -> usize {
    assert_eq!(shared.tenants.len(), independent.tenants.len());
    assert_eq!(shared.churn_at, independent.churn_at);
    let mut compared_rows = 0usize;
    for tenant in 0..shared.tenants.len() {
        let s = &shared.tenants[tenant];
        let i = &independent.tenants[tenant];
        assert_eq!(s.query_id, i.query_id, "same seed ⇒ same ids");
        assert_eq!(s.src, i.src);
        let from = s.installed_at.max(i.installed_at) + 3_000_000;
        let to = if s.ends_at < shared.stream.1 + 10_000_000 {
            // Early teardown: stop at windows fully refined pre-teardown.
            s.ends_at.saturating_sub(6_000_000)
        } else {
            shared.stream.1
        };
        let spans: Vec<(SimTime, SimTime)> = match shared.churn_at {
            Some(churn) => vec![
                (from, churn.saturating_sub(4_000_000).min(to)),
                ((churn + 12_000_000).max(from), to),
            ],
            None => vec![(from, to)],
        };
        for (from, to) in spans {
            if from >= to {
                continue;
            }
            let a = canonical(shared, tenant, from, to);
            let b = canonical(independent, tenant, from, to);
            assert_eq!(
                a, b,
                "{label}: tenant {tenant} ({}) diverges between shared and independent \
                 execution in [{from}, {to}]",
                s.src
            );
            compared_rows += a.values().map(Vec::len).sum::<usize>();
        }
    }
    compared_rows
}

/// Shared runs must leave nothing behind once every tenant ended.
fn assert_no_leaked_groups(shared: &ManyTenantsOutcome, label: &str) {
    assert_eq!(
        (shared.residual_groups, shared.residual_members),
        (0, 0),
        "{label}: share groups must be retired once all members ended"
    );
}

#[test]
fn shared_execution_matches_independent_execution_steady_state() {
    let mut cfg = ManyTenantsConfig::new(10, 24, 12, seeded(61));
    cfg.pier.telemetry = TelemetryConfig::enabled();
    cfg.sharing = true;
    let shared = many_tenants(&cfg);
    cfg.sharing = false;
    let independent = many_tenants(&cfg);
    // A tenant submitted at a proxy that already ran the group went out in
    // its member form and joined the group by it at every node; the first
    // tenant at each proxy went out whole.  Nobody pulled a plan.
    let later = (shared.tenants.iter().enumerate())
        .filter(|(i, t)| shared.tenants[..*i].iter().any(|e| e.proxy == t.proxy))
        .count() as u64;
    assert!(later > 0, "some proxy must submit twice");
    assert_eq!(
        shared.telemetry.member_installs,
        later * cfg.nodes as u64,
        "every later tenant installs by its constants at every node"
    );
    assert_eq!(shared.telemetry.plan_pulls, 0, "no node lacks a live group");
    assert_eq!(independent.telemetry.member_installs, 0);
    // The stream actually exercised sharing…
    assert!(shared.max_shared_groups >= 1, "tenants must form a group");
    assert_eq!(independent.max_shared_groups, 0);
    // …results are identical, and the comparison is not vacuous.
    let rows = assert_equivalent(&shared, &independent, "steady");
    assert!(
        rows > 100,
        "equivalence must cover a substantial result set, covered {rows}"
    );
    // Every tenant must have received real windows with its own source.
    for t in &shared.tenants {
        assert!(
            !t.windows.is_empty(),
            "tenant {} received no windows",
            t.src
        );
        for rows in t.windows.values() {
            for row in rows {
                assert_eq!(row.get("src").and_then(Value::as_str), Some(t.src.as_str()));
            }
        }
    }
    assert_no_leaked_groups(&shared, "steady");
}

#[test]
fn shared_execution_matches_independent_under_install_uninstall_mid_stream() {
    let mut cfg = ManyTenantsConfig::new(8, 16, 15, seeded(77));
    cfg.late_installs = 4;
    cfg.early_uninstalls = 4;
    cfg.sharing = true;
    let shared = many_tenants(&cfg);
    cfg.sharing = false;
    let independent = many_tenants(&cfg);
    let rows = assert_equivalent(&shared, &independent, "membership churn");
    assert!(rows > 50, "covered {rows}");
    // Late installs joined the (already live) group and still got windows.
    for tenant in 12..16 {
        assert!(
            !shared.tenants[tenant].windows.is_empty(),
            "late tenant {tenant} received no windows"
        );
    }
    assert_no_leaked_groups(&shared, "membership churn");
}

#[test]
fn shared_execution_matches_independent_under_node_churn() {
    // 28 s of stream keeps the post-repair comparison span (churn + 12 s
    // onward) wide enough that the equivalence check is not vacuous.
    let mut cfg = ManyTenantsConfig::new(10, 12, 28, seeded(93));
    cfg.churn = Some((6, 2, 2));
    cfg.pier.telemetry = TelemetryConfig::enabled();
    cfg.sharing = true;
    let shared = many_tenants(&cfg);
    cfg.sharing = false;
    let independent = many_tenants(&cfg);
    let rows = assert_equivalent(&shared, &independent, "node churn");
    assert!(rows > 50, "covered {rows}");
    assert_no_leaked_groups(&shared, "node churn");
    // Without churn nobody pulls (the steady-state test): the churned-in
    // nodes had no group and pulled the plans.
    assert!(shared.telemetry.plan_pulls > 0, "churned-in nodes pull");
}

/// `q{id}`'s final row per window at `proxy` (the queries here emit
/// snapshots: the last emission of a window wins).
fn windows_at(
    outputs: &[SimOutput<PierOut>],
    proxy: NodeAddr,
    query: u64,
) -> BTreeMap<(SimTime, SimTime), String> {
    let mut windows = BTreeMap::new();
    for out in outputs.iter().filter(|o| o.node == proxy) {
        if let PierOut::WindowResult {
            query_id,
            window_start,
            window_end,
            retract: false,
            ref tuple,
        } = out.value
        {
            if query_id == query {
                windows.insert((window_start, window_end), tuple.to_string());
            }
        }
    }
    windows
}

/// What [`retired_group_run`] observed.
struct RetiredRun {
    cluster: Cluster,
    /// The query submitted into the retired node's gap.
    query: u64,
    /// Its proxy, and when it was submitted.
    proxy: NodeAddr,
    at: SimTime,
    /// A second after the submission: did node 0 hold the query, in a
    /// share group of how many members, after how many plan pulls?
    settled: Option<(bool, usize, u64)>,
    outputs: Vec<SimOutput<PierOut>>,
}

/// Node 0 proxies a standing query `a` with a 10 s lifetime and, since it
/// installed `a` first, ends it first: its share group retires with `a`
/// while every other node still runs the group for a hop's delay.  In that
/// instant another node submits a second member `b`, which goes out in its
/// member form.  With `replay`, `b` is submitted at the given node and
/// instant instead (the independent run has no groups to watch).  Rows of
/// four sources stream throughout.
fn retired_group_run(sharing: bool, replay: Option<(NodeAddr, SimTime)>) -> RetiredRun {
    const SEC: u64 = 1_000_000;
    let seed = seeded(0x3E7);
    let mut cfg = ClusterConfig::lan(8, seed).with_telemetry(TelemetryConfig::enabled());
    cfg.pier.sharing = sharing.then_some(pier::mqo::layer as _);
    let mut cluster = Cluster::start(&cfg);
    let plan = |proxy: NodeAddr, src: &str, timeout: u64| -> QueryPlan {
        let sql = format!(
            "SELECT src, COUNT(*) FROM packets WHERE src = '{src}' \
             GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"
        );
        sqlish::compile(&sql, proxy, timeout).expect("compiles")
    };
    let first = cluster.addr(0);
    let a = plan(first, "10.0.0.1", 10 * SEC);
    cluster.sim.invoke(first, |node, ctx| {
        node.submit_query(ctx, a);
    });
    let begin = cluster.sim.now();
    let mut rng = Rng64::new(seed ^ 0x5EED);
    let mut submitted: Option<(u64, NodeAddr, SimTime)> = None;
    let mut settled = None;
    while cluster.sim.now() < begin + 30 * SEC {
        let now = cluster.sim.now();
        for addr in cluster.sim.alive_nodes() {
            for _ in 0..2 {
                let src = format!("10.0.0.{}", rng.next_below(4));
                let row = Tuple::new(
                    "packets",
                    vec![("src", Value::str(src)), ("ts", Value::Int(now as i64))],
                );
                cluster
                    .sim
                    .invoke(addr, |node, ctx| node.ingest(ctx, "packets", row));
            }
        }
        let until = now + SEC / 4;
        while submitted.is_none() && cluster.sim.now() < until && cluster.sim.step() {
            let now = cluster.sim.now();
            let at = match replay {
                Some((proxy, at)) => (now >= at).then_some(proxy),
                None => {
                    let groups = |addr| {
                        let node = cluster.sim.node(addr).expect("alive");
                        node.sharing_stats().map_or(0, |s| s.groups)
                    };
                    let live = (1..cluster.len()).map(|i| cluster.addr(i));
                    let live = live.rev().find(|&addr| groups(addr) > 0);
                    live.filter(|_| now > begin + SEC && groups(first) == 0)
                }
            };
            if let Some(proxy) = at {
                let b = plan(proxy, "10.0.0.2", 16 * SEC);
                let mut query = 0;
                cluster
                    .sim
                    .invoke(proxy, |node, ctx| query = node.submit_query(ctx, b));
                submitted = Some((query, proxy, now));
            }
        }
        cluster.sim.run_until(until);
        if let Some((query, _, at)) = submitted.filter(|_| settled.is_none()) {
            if cluster.sim.now() >= at + SEC {
                let node = cluster.sim.node(first).expect("alive");
                let members = node.sharing_stats().map_or(0, |s| s.members);
                let tel = cluster.telemetry(first).expect("enabled");
                let held = node.cq_diagnostics(query).is_some();
                settled = Some((held, members, tel.counter("cq.plan_pulls")));
            }
        }
    }
    cluster.sim.run_for(8 * SEC);
    let (query, proxy, at) = submitted.expect("the retired node's gap was found");
    let outputs = cluster.sim.drain_outputs();
    RetiredRun {
        cluster,
        query,
        proxy,
        at,
        settled,
        outputs,
    }
}

/// A node whose share group retired receives a member form it cannot join:
/// it pulls the plan from the proxy once, installs it whole — re-forming
/// the group — and the query's windows are those of an independent run.
#[test]
fn a_member_form_reaching_a_retired_group_pulls_the_plan_once() {
    let shared = retired_group_run(true, None);
    let retired = shared.cluster.addr(0);
    assert_ne!(shared.proxy, retired);
    let counter = |addr, name| {
        shared
            .cluster
            .telemetry(addr)
            .expect("enabled")
            .counter(name)
    };
    // The proxy ran the group, so the query went out by its constants and
    // the proxy joined by them; the retired node had no group to join.
    assert_eq!(counter(shared.proxy, "cq.member_installs"), 1);
    assert_eq!(counter(retired, "cq.member_installs"), 0);
    assert_eq!(
        shared.settled,
        Some((true, 1, 1)),
        "within a second the retired node pulled once and runs the query, its group's one member"
    );
    assert_eq!(
        counter(retired, "cq.plan_pulls"),
        1,
        "and never pulled again"
    );
    assert!(counter(shared.proxy, "cq.plans_served") >= 1);

    let independent = retired_group_run(false, Some((shared.proxy, shared.at)));
    assert_eq!(independent.proxy, shared.proxy);
    // From the first window opening after the install to the last one
    // fully refined six seconds before the query's end (as above).
    let (from, to) = (shared.at + 3_000_000, shared.at + 10_000_000);
    let span = |run: &RetiredRun| -> BTreeMap<(SimTime, SimTime), String> {
        windows_at(&run.outputs, run.proxy, run.query)
            .into_iter()
            .filter(|((start, end), _)| *start >= from && *end <= to)
            .collect()
    };
    let (a, b) = (span(&shared), span(&independent));
    assert!(a.len() >= 5, "compared over {} windows only", a.len());
    assert_eq!(
        a, b,
        "the pulled member's windows differ from an independent run"
    );
}

/// Independent execution hands every row to each tenant's selection; a
/// share group scans it once for all 64 members.  The meters count both, so
/// the bar (2x; about 64x expected) is a function of the seed.
#[test]
fn a_share_group_scans_each_row_once_for_all_its_tenants() {
    let mut cfg = ManyTenantsConfig::new(6, 64, 6, seeded(29));
    cfg.pier.telemetry = TelemetryConfig::enabled();
    let scanned = many_tenants(&cfg).telemetry.mqo_rows_scanned;
    cfg.sharing = false;
    let dispatched = many_tenants(&cfg).telemetry.selection_rows_in;
    assert!(
        scanned > 0 && dispatched >= 2 * scanned,
        "{dispatched} vs {scanned}"
    );
}
