//! Admission soundness: the static `CostReport` really is an upper bound.
//!
//! `pier-analyze` derives every figure without executing anything, so the
//! whole design stands on one claim: for any run whose actual environment
//! stays within the declared [`EnvModel`], the measured telemetry counters
//! never exceed the bounds the report predicts.  This suite checks that
//! claim on the three standing workloads (netmon, many-tenants, chaos), and
//! property-tests the verdict rules: a finite-window plan is never
//! `Unbounded`, a standing plan without a window always is, and every
//! sqlish-expressible plan gets a verdict and a report.
//!
//! It also pins the degradation semantics end to end: a rejected tenant
//! receives the machine-readable report and zero results while every other
//! tenant's per-window output is bit-identical to a run where the rejected
//! query was never submitted; a shed tenant runs at the derived sampling
//! modulus.

use pier::analyze::{admission_factory, analyze, Boundedness, CostReport, EnvModel};
use pier::cq::CqBudget;
use pier::harness::tenants::shed_accuracy;
use pier::harness::{
    continuous_netmon, many_tenants, run_chaos, ChaosConfig, Cluster, ClusterConfig,
    ClusterTelemetrySummary, ContinuousNetmonConfig, ManyTenantsConfig,
};
use pier::qp::{sqlish, CqSpec, EngineSpec, Tuple, TupleBatch, Value, WindowEngine};
use pier::runtime::NodeAddr;
use pier::telemetry::TelemetryConfig;
use proptest::prelude::*;

mod common;
use common::seeded;

/// Compile `sql` and derive its static report under the default env model.
fn report_for(sql: &str, tenant: u64) -> CostReport {
    let mut plan = sqlish::compile(sql, NodeAddr(0), 60_000_000).expect("query compiles");
    plan.tenant = tenant;
    analyze(&plan, &EnvModel::default())
}

/// Window instances a standing query can have opened over `run_us` of
/// stream time: one per slide, plus the overlap fringe, plus the retention
/// horizon the root keeps refining.
fn window_instances(r: &CostReport, run_us: u64) -> u64 {
    run_us / r.window_slide_us.max(1) + r.windows_per_event + 4
}

/// Run-level bounds derived from the per-window/per-flush report figures.
struct RunBounds {
    /// Rows accepted into window stores, cluster-wide, whole run: local
    /// inserts on every reached node plus partials absorbed at (and relayed
    /// toward) each root.
    accepted: u64,
    /// Resident window-store bytes on any single node at any instant.
    state_per_node: u64,
    /// Resident window-store bytes summed over the cluster.
    state_total: u64,
    /// `PutBatch` entries shipped cluster-wide over the whole run.
    entries: u64,
}

fn run_bounds(reports: &[CostReport], run_us: u64) -> RunBounds {
    let mut b = RunBounds {
        accepted: 0,
        state_per_node: 0,
        state_total: 0,
        entries: 0,
    };
    for r in reports {
        let w = window_instances(r, run_us);
        let local = w * r.nodes_reached * r.rows_per_window_per_node;
        // Each sender ships at most `groups` partials per window; a partial
        // may be absorbed at every relay hop plus the root itself.
        let root = w * r.root_fan_in * r.groups_per_window * (r.dht_hops + 1);
        b.accepted += local + root;
        b.state_per_node += r.state_bytes_per_node;
        b.state_total += r.nodes_reached * r.state_bytes_per_node;
        b.entries += w * r.nodes_reached * r.entries_per_flush_per_node;
    }
    b
}

/// The shared assertions: measured telemetry within the static bounds.
fn assert_sound(tel: &ClusterTelemetrySummary, bounds: &RunBounds, workload: &str) {
    assert!(
        tel.cq_accepted <= bounds.accepted,
        "{workload}: measured rows {} exceed static bound {}",
        tel.cq_accepted,
        bounds.accepted
    );
    assert!(
        tel.max_node_state_bytes <= bounds.state_per_node,
        "{workload}: one node held {} state bytes, static per-node bound {}",
        tel.max_node_state_bytes,
        bounds.state_per_node
    );
    assert!(
        tel.cq_state_bytes <= bounds.state_total,
        "{workload}: cluster state {} exceeds static bound {}",
        tel.cq_state_bytes,
        bounds.state_total
    );
    assert!(
        tel.put_batch_entries <= bounds.entries,
        "{workload}: measured PutBatch entries {} exceed static bound {}",
        tel.put_batch_entries,
        bounds.entries
    );
}

#[test]
fn netmon_static_report_bounds_measured_telemetry() {
    let mut cfg = ContinuousNetmonConfig::steady(12, 30, 42);
    cfg.pier.telemetry = TelemetryConfig::enabled();
    cfg.pier.admission = Some(admission_factory);

    let report = report_for(&ContinuousNetmonConfig::default_query(), 0);
    assert!(
        matches!(report.boundedness, Boundedness::Bounded { .. }),
        "the windowed netmon query is engine-bounded, got {:?}",
        report.boundedness
    );

    let out = continuous_netmon(&cfg);
    assert!(
        !out.windows.is_empty(),
        "admission on: results must still flow"
    );
    assert!(out.telemetry.admission_admit >= 1);
    assert_eq!(out.telemetry.admission_reject, 0);
    assert!(
        out.telemetry.cq_accepted > 0,
        "telemetry must actually measure the run"
    );
    let bounds = run_bounds(&[report], cfg.run_secs * 1_000_000);
    assert_sound(&out.telemetry, &bounds, "netmon");
}

/// A standing `COUNT(*), SUM(len) ... GROUP BY src` windowed by `window`
/// under a budget of eight open panes of 256 groups, its static report,
/// and two engines of it — a relay's and the root's — filled to that cap:
/// `sources(w)` names the 256 sources of the rows folded at second `20 + w`,
/// `w` in `0..seconds`.  Returns the report and what the root measures.
fn filled_to_the_cap(
    window: &str,
    seconds: u64,
    sources: impl Fn(u64) -> std::ops::Range<u64>,
) -> (CostReport, [u64; 6]) {
    let budget = CqBudget {
        max_open_windows: 8,
        max_groups_per_window: 256,
        max_tuples_per_window: 1_000_000,
    };
    let sql = format!("SELECT src, COUNT(*), SUM(len) FROM packets GROUP BY src {window}");
    let mut plan = sqlish::compile(&sql, NodeAddr(0), 60_000_000).expect("query compiles");
    plan.cq = Some(CqSpec {
        budget,
        ..plan.cq.unwrap_or_default()
    });
    let env = EnvModel {
        events_per_node_per_sec: 256,
        ..EnvModel::default()
    };
    let report = analyze(&plan, &env);
    assert_eq!(report.groups_per_window, 256);

    let (_, spec, _) = EngineSpec::unshared(&plan).expect("a windowed plan");
    let mut relay = WindowEngine::new(spec.clone());
    let mut root = WindowEngine::new(spec);
    for w in 0..seconds {
        let rows = sources(w).map(|h| {
            let src = Value::str(format!("10.{}.{}.{}", h >> 16, (h >> 8) & 255, h & 255));
            Tuple::new("packets", vec![("src", src), ("len", Value::Int(40))])
        });
        let batch = TupleBatch::new(rows.collect());
        relay.absorb(&batch.chunks()[0], None, (20 + w) * 1_000_000);
        root.absorb(&batch.chunks()[0], None, (20 + w) * 1_000_000);
    }
    let relayed = relay.tick(60_000_000, false).partials.expect("partials");
    assert!(root.absorb_panes(&relayed, true).is_empty());
    (report, root.occupancy())
}

/// The state bound is stated for a store pair at its budget's cap — every
/// pane the budget allows open, every one full — so fill one: both stores
/// of an engine, the eight panes of one window, every group the budget
/// admits (and one more, which is shed).
#[test]
fn an_engine_filled_to_its_budget_measures_within_the_static_state_bound() {
    let (report, measured) = filled_to_the_cap("WINDOW 8s SLIDE 1s", 8, |_| 0..257);
    let [accepted, shed, _, open_windows, groups, state_bytes] = measured;
    assert_eq!((accepted, shed), (8 * 256, 8), "a row folds into one pane");
    assert_eq!((open_windows, groups), (2 * 8, 2 * 8 * 256));
    assert!(
        state_bytes <= report.state_bytes_per_node,
        "{state_bytes} B measured at the cap, static bound {}",
        report.state_bytes_per_node
    );
}

/// Panes that share no group pay for a directory entry per (pane, group):
/// the measured side may then pass the bound, by the factor
/// `pier-analyze` states beside `ENTRY_OVERHEAD` and no more.
#[test]
fn windows_that_share_no_group_measure_within_twice_the_static_state_bound() {
    let (report, measured) = filled_to_the_cap("WINDOW 1s", 8, |w| w * 256..(w + 1) * 256);
    let [accepted, shed, _, open_windows, groups, state_bytes] = measured;
    assert_eq!((accepted, shed), (8 * 256, 0));
    assert_eq!((open_windows, groups), (2 * 8, 2 * 8 * 256));
    assert!(
        state_bytes <= 2 * report.state_bytes_per_node,
        "{state_bytes} B measured, twice the static bound is {}",
        2 * report.state_bytes_per_node
    );
}

/// A one-shot aggregate runs in the same engine, with no group cap and a
/// pane per hold of its life kept at the root until it answers: fill a
/// relay's engine and the root's with 256 sources in every pane of an 8 s
/// query, ship the relay's panes up as they close, and the root measures
/// within the static state bound, having shed nothing.
#[test]
fn a_one_shot_engine_filled_for_its_whole_life_measures_within_the_static_state_bound() {
    let sql = "SELECT src, COUNT(*), SUM(len) FROM packets GROUP BY src";
    let plan = sqlish::compile(sql, NodeAddr(0), 8_000_000).expect("query compiles");
    let env = EnvModel {
        distinct_values: 256,
        ..EnvModel::default()
    };
    let report = analyze(&plan, &env);
    assert_eq!(report.groups_per_window, 256);

    let (_, spec, _) = EngineSpec::unshared(&plan).expect("a one-shot aggregate");
    let hold = spec.window.slide;
    let mut relay = WindowEngine::new(spec.clone());
    let mut root = WindowEngine::new(spec);
    let rows = (0..256u64).map(|h| {
        let src = Value::str(format!("10.0.{}.{}", h >> 8, h & 255));
        Tuple::new("packets", vec![("src", src), ("len", Value::Int(40))])
    });
    let batch = TupleBatch::new(rows.collect());
    let mut now = 0;
    while now < plan.timeout {
        relay.absorb(&batch.chunks()[0], None, now);
        root.absorb(&batch.chunks()[0], None, now);
        now += hold;
        if let Some(relayed) = relay.tick(now, false).partials {
            assert!(root.absorb_panes(&relayed, true).is_empty());
        }
        assert!(root.tick(now, true).emissions.is_empty());
    }
    let [_, shed, _, open_windows, groups, state_bytes] = root.occupancy();
    assert_eq!(shed, 0);
    assert_eq!(groups, open_windows * 256, "every pane holds every source");
    assert!(
        state_bytes <= report.state_bytes_per_node,
        "{state_bytes} B measured over {open_windows} panes, static bound {}",
        report.state_bytes_per_node
    );
}

#[test]
fn many_tenants_static_reports_bound_measured_telemetry() {
    let mut cfg = ManyTenantsConfig::new(8, 6, 20, 7);
    cfg.sharing = false;
    cfg.pier.telemetry = TelemetryConfig::enabled();
    cfg.pier.admission = Some(admission_factory);

    let reports: Vec<CostReport> = (0..cfg.tenants)
        .map(|i| {
            let (_, sql) = cfg.tenant_query(i);
            report_for(&sql, i as u64)
        })
        .collect();
    for r in &reports {
        assert!(matches!(r.boundedness, Boundedness::Bounded { .. }));
        // `WHERE src = '<mine>'` pins the only group column.
        assert_eq!(r.groups_per_window, 1);
    }

    let out = many_tenants(&cfg);
    for t in &out.tenants {
        let a = t.admission.as_ref().expect("admission layer reported");
        assert!(a.accepted, "within-budget tenants are admitted");
        assert_eq!(a.sample_every, 1);
        assert!(a.report.contains("\"decision\":\"admit\""));
        assert!(a.report.contains("\"verdict\":\"bounded\""));
    }
    assert_eq!(out.telemetry.admission_admit, cfg.tenants as u64);
    assert_eq!(out.telemetry.admission_reject, 0);
    assert!(out.telemetry.cq_accepted > 0);
    let bounds = run_bounds(&reports, cfg.run_secs * 1_000_000);
    assert_sound(&out.telemetry, &bounds, "many_tenants");
}

#[test]
fn chaos_static_reports_bound_measured_telemetry() {
    let mut cfg = ChaosConfig::standard(12, 3);
    cfg.pier.admission = Some(admission_factory);
    // The chaos driver runs share-eligible tenants through `pier-mqo`;
    // mirror that in the policy so follow-on members charge marginally.
    cfg.pier.slo.shared_execution = true;

    let stream_secs = cfg.baseline_secs + cfg.degraded_secs + cfg.heal_secs + cfg.storm_secs;
    let mut reports = vec![report_for(
        "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s",
        0,
    )];
    for t in 0..cfg.tenants {
        let src = format!("10.0.{}.{}", (t / 256) % 256, t % 256);
        let sql = format!(
            "SELECT src, COUNT(*) FROM packets WHERE src = '{src}' \
             GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"
        );
        reports.push(report_for(&sql, 0));
    }

    let out = run_chaos(&cfg);
    // Crash/restart storms reset restarted nodes' counters, so only the
    // direction of the inequality is meaningful — and rejects are sticky
    // evidence either way.
    assert!(out.telemetry.admission_admit >= 1);
    assert_eq!(out.telemetry.admission_reject, 0);
    assert!(out.telemetry.cq_accepted > 0);
    let bounds = run_bounds(&reports, stream_secs * 1_000_000);
    assert_sound(&out.telemetry, &bounds, "chaos");
}

/// A rejected tenant gets the machine-readable report, zero results, and —
/// the SLO isolation property — zero effect on everyone else: the admitted
/// tenants' per-window outputs are identical to the all-admitted run.
#[test]
fn rejected_tenant_has_zero_effect_on_admitted_tenants() {
    let base = || {
        let mut cfg = ManyTenantsConfig::new(8, 5, 16, seeded(11));
        cfg.sharing = false;
        cfg.pier.admission = Some(admission_factory);
        cfg
    };

    let all = many_tenants(&base());
    let mut cfg = base();
    // Tenant 0's ceiling admits nothing and leaves no remaining budget for
    // a sampling modulus to fit into: reject, not shed.
    let mut tight = cfg.pier.slo.default_budget;
    tight.max_rows_per_window_per_node = 0;
    cfg.pier.slo.tenants.insert(0, tight);
    let one_rejected = many_tenants(&cfg);

    let rejected = one_rejected.tenants[0]
        .admission
        .as_ref()
        .expect("decision reported");
    assert!(!rejected.accepted);
    assert!(rejected.report.contains("\"decision\":\"reject\""));
    assert!(rejected.report.contains("\"report\":{"));
    assert!(
        one_rejected.tenants[0].windows.is_empty(),
        "a rejected query must never produce results"
    );

    for i in 1..all.tenants.len() {
        let a = &all.tenants[i];
        let b = &one_rejected.tenants[i];
        assert!(
            b.admission.as_ref().is_some_and(|d| d.accepted),
            "tenant {i} stays admitted"
        );
        assert_eq!(
            a.windows, b.windows,
            "tenant {i}'s results must not change when tenant 0 is rejected"
        );
    }
    assert!(
        all.tenants[1..].iter().any(|t| !t.windows.is_empty()),
        "equivalence must compare real results, not two empty runs"
    );
}

/// A tenant over budget with shedding enabled runs degraded: the derived
/// sampling modulus is stamped into the plan and reported back.
#[test]
fn over_budget_tenant_is_shed_to_sampling() {
    let mut cfg = ManyTenantsConfig::new(8, 3, 16, seeded(13));
    cfg.sharing = false;
    cfg.pier.admission = Some(admission_factory);
    // 2s window at the declared 16 ev/s is 32 predicted rows; a ceiling of
    // 8 forces 1-in-4 sampling.
    let mut tight = cfg.pier.slo.default_budget;
    tight.max_rows_per_window_per_node = 8;
    cfg.pier.slo.tenants.insert(0, tight);

    let out = many_tenants(&cfg);
    let shed = out.tenants[0]
        .admission
        .as_ref()
        .expect("decision reported");
    assert!(shed.accepted, "shedding degrades, it does not reject");
    assert!(shed.sample_every >= 4);
    assert!(shed.report.contains("\"decision\":\"shed\""));
    for t in &out.tenants[1..] {
        let a = t.admission.as_ref().expect("decision reported");
        assert!(a.accepted);
        assert_eq!(a.sample_every, 1, "other tenants run at full rate");
    }
}

/// Sampling is an estimator, not a guess: under a budget that sheds every
/// tenant, the per-window counts scaled back up by the modulus stay in the
/// right ballpark of the full-rate counts from the same seed — whether the
/// tenants run alone or through share groups (a shed plan must not join a
/// group, whose members are never sampled).
#[test]
fn shed_counts_scaled_by_the_modulus_estimate_the_full_rate_counts() {
    for sharing in [false, true] {
        let acc = shed_accuracy(6, 3, 12, seeded(17), sharing);
        assert!(
            acc.sample_every.iter().all(|&m| m >= 2),
            "sharing {sharing}: the tight budget must force sampling, got {:?}",
            acc.sample_every
        );
        assert!(
            !acc.rel_errors.is_empty(),
            "sharing {sharing}: shed run must overlap ground-truth windows"
        );
        assert!(
            acc.mean_rel_error() < 0.75,
            "sharing {sharing}: shed-mode mean relative error {:.3} out of range",
            acc.mean_rel_error()
        );
    }
}

/// The `admission.{admit,shed,reject}` trace events reconcile exactly with
/// the counters of the same name (the telemetry contract every other
/// subsystem honors — see `docs/OBSERVABILITY.md`).
#[test]
fn admission_trace_events_reconcile_with_counters() {
    let mut cfg = ClusterConfig::lan(6, 5).with_telemetry(TelemetryConfig::enabled());
    cfg.pier.admission = Some(admission_factory);
    // Tenant 1 sheds (32 declared rows against a ceiling of 8); tenant 2
    // rejects (no ceiling at all leaves no room for a sampling modulus).
    let mut shed = cfg.pier.slo.default_budget;
    shed.max_rows_per_window_per_node = 8;
    cfg.pier.slo.tenants.insert(1, shed);
    let mut reject = cfg.pier.slo.default_budget;
    reject.max_rows_per_window_per_node = 0;
    cfg.pier.slo.tenants.insert(2, reject);

    let mut cluster = Cluster::start(&cfg);
    cluster.settle(2_000_000);
    let proxy = cluster.addr(0);
    for tenant in 0..3u64 {
        let mut plan = sqlish::compile(
            "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s",
            proxy,
            20_000_000,
        )
        .expect("query compiles");
        plan.tenant = tenant;
        cluster.sim.invoke(proxy, move |node, ctx| {
            node.submit_query(ctx, plan);
        });
    }
    cluster.sim.run_for(3_000_000);

    let tel = cluster.telemetry(proxy).expect("telemetry enabled");
    let trace = tel.jsonl();
    for kind in ["admission.admit", "admission.shed", "admission.reject"] {
        let events = trace
            .lines()
            .filter(|l| l.contains(&format!("\"stage\":\"{kind}\"")))
            .count() as u64;
        assert_eq!(events, 1, "exactly one {kind} decision was made");
        assert_eq!(
            events,
            tel.counter(kind),
            "{kind} trace events must reconcile with the counter"
        );
    }
}

// ---------------------------------------------------------------------------
// Verdict rules, property-tested.
// ---------------------------------------------------------------------------

/// Build one sqlish statement from the sampled shape knobs.  Returns `None`
/// for combinations sqlish rejects (e.g. WINDOW without an aggregate).
fn sql_case(agg: bool, grouped: bool, pred: u32, window: Option<(u64, u64)>) -> Option<String> {
    if window.is_some() && !agg {
        return None; // sqlish: WINDOW requires an aggregate
    }
    let select = if agg {
        "SELECT src, COUNT(*) FROM packets"
    } else {
        "SELECT src FROM packets"
    };
    let mut sql = select.to_string();
    match pred {
        1 => sql.push_str(" WHERE src = '10.0.0.1'"),
        2 => sql.push_str(" WHERE len > 100"),
        _ => {}
    }
    if grouped || agg {
        sql.push_str(" GROUP BY src");
    }
    if let Some((size, slide)) = window {
        sql.push_str(&format!(" WINDOW {size}s SLIDE {slide}s EVERY 5s"));
    }
    Some(sql)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every sqlish-expressible plan gets a verdict and a report, and the
    /// window rule holds in both directions: a finite-window plan is never
    /// `Unbounded`; a standing plan without a window always is.
    #[test]
    fn verdicts_follow_the_window_rule(
        agg in 0u32..2,
        grouped in 0u32..2,
        pred in 0u32..3,
        windowed in 0u32..2,
        size_s in 1u64..30,
        slide_div in 1u64..4,
    ) {
        let window = (windowed == 1).then(|| (size_s, (size_s / slide_div).max(1)));
        let Some(sql) = sql_case(agg == 1, grouped == 1, pred, window) else {
            return Ok(());
        };
        let Ok(mut plan) = sqlish::compile(&sql, NodeAddr(0), 60_000_000) else {
            return Ok(());
        };
        if window.is_none() {
            // sqlish only makes windowed plans standing; force the
            // standing-no-window shape the rule forbids.
            plan.continuous = true;
        }
        let report = analyze(&plan, &EnvModel::default());

        // Total: a verdict and a parseable report for every plan.
        let json = report.to_json();
        prop_assert!(json.starts_with('{') && json.ends_with('}'));
        prop_assert!(json.contains("\"verdict\":\""));

        if window.is_some() {
            prop_assert!(
                !matches!(report.boundedness, Boundedness::Unbounded { .. }),
                "finite-window plan reported Unbounded: {sql}"
            );
            // The engine-enforced figures scale with the declared window.
            prop_assert_eq!(
                report.rows_per_window_per_node,
                size_s * EnvModel::default().events_per_node_per_sec
            );
            prop_assert!(report.window_slide_us > 0);
        } else {
            prop_assert!(
                matches!(report.boundedness, Boundedness::Unbounded { .. }),
                "standing no-window plan not reported Unbounded: {sql}"
            );
        }
    }

    /// One-shot plans are finite under assumptions — `ConditionallyBounded`
    /// with the assumptions listed, never `Unbounded`.
    #[test]
    fn one_shot_scans_are_conditionally_bounded(
        agg in 0u32..2,
        grouped in 0u32..2,
        pred in 0u32..3,
    ) {
        let Some(sql) = sql_case(agg == 1, grouped == 1, pred, None) else {
            return Ok(());
        };
        let Ok(plan) = sqlish::compile(&sql, NodeAddr(0), 60_000_000) else {
            return Ok(());
        };
        let report = analyze(&plan, &EnvModel::default());
        match &report.boundedness {
            Boundedness::ConditionallyBounded { bound, assumptions } => {
                prop_assert!(*bound > 0);
                prop_assert!(!assumptions.is_empty());
            }
            other => prop_assert!(false, "one-shot scan got {other:?} for {sql}"),
        }
    }
}
