//! Chaos-recovery integration tests: deterministic fault injection and the
//! telemetry that documents it.
//!
//! The invariants of the robustness work, where `cargo test` alone catches
//! a regression:
//!
//! 1. **Replayability** — equal-seed chaos runs produce byte-identical
//!    telemetry traces.  Every message drop, partition and crash is driven
//!    off the seeded [`FaultPlan`] RNG, and no send path may iterate a
//!    hash-ordered container, or the replay diverges.
//! 2. **Reconciliation** — the fault events (`loss` … `partition_heal`) the
//!    trace records agree exactly with the fault plan's own applied-fault
//!    counters: telemetry is a faithful journal of the schedule, not a
//!    best-effort sample.
//! 3. **The acceptance bar** — on the standard gauntlet, bounded
//!    degraded-phase error, a measured post-heal recovery and warm restarts
//!    from durable segments.
//!
//! [`FaultPlan`]: pier::runtime::FaultPlan

use pier::harness::{run_chaos, ChaosConfig};

mod common;
use common::{assert_export, seeded};

/// A deliberately small gauntlet so the debug-build test stays fast while
/// still exercising every phase: loss, partition + heal, and a one-node
/// crash/restart storm.
fn small_config(seed: u64) -> ChaosConfig {
    let mut cfg = ChaosConfig::standard(8, seed);
    cfg.tenants = 2;
    cfg.events_per_node_per_sec = 4;
    cfg.sources = 16;
    cfg.baseline_secs = 4;
    cfg.degraded_secs = 6;
    cfg.heal_secs = 5;
    cfg.storm_secs = 8;
    cfg.storm_kills = 1;
    cfg
}

/// Count trace lines whose stage is `stage` (a fault's label).
fn count_events(trace: &str, stage: &str) -> u64 {
    let pat = format!("\"stage\":\"{stage}\"");
    trace.lines().filter(|line| line.contains(&pat)).count() as u64
}

#[test]
fn equal_seed_chaos_runs_replay_byte_for_byte() {
    let cfg = small_config(seeded(7));
    let a = run_chaos(&cfg);
    let b = run_chaos(&cfg);
    assert!(!a.trace.is_empty(), "the trace must record the run");
    assert_eq!(
        a.trace, b.trace,
        "equal-seed chaos runs must produce byte-identical telemetry traces"
    );
    assert_eq!(
        a.merged_trace, b.merged_trace,
        "the merged all-nodes export inherits the byte-level determinism"
    );
    assert_eq!(a.fault_counts, b.fault_counts);
    assert_eq!(a.windows, b.windows, "results must replay too");
    assert_eq!(a.restarted, b.restarted);
}

#[test]
fn trace_fault_events_reconcile_with_the_plan() {
    let out = run_chaos(&small_config(seeded(7)));
    let c = &out.fault_counts;

    // The mirrored fault events keep the export on its documented schema.
    assert_export(&out.trace, false);
    assert_export(&out.merged_trace, true);

    // Every applied fault appears as exactly one trace event, labelled with
    // the plan's stable fault label.
    assert!(c.losses > 0 && c.partition_drops > 0, "faults must fire");
    assert_eq!(count_events(&out.trace, "loss"), c.losses);
    assert_eq!(
        count_events(&out.trace, "partition_drop"),
        c.partition_drops
    );
    assert_eq!(
        count_events(&out.trace, "partition_start"),
        c.partitions_started
    );
    assert_eq!(count_events(&out.trace, "crash"), c.crashes);
    assert_eq!(count_events(&out.trace, "restart"), c.restarts);

    // Heals are surfaced as their own event (recovery, not a fault).
    assert_eq!(
        count_events(&out.trace, "partition_heal"),
        c.partitions_healed
    );
    assert!(c.partitions_healed > 0, "the partition must heal");

    // The chaos phases never enable duplication or reordering — duplicate
    // partial deltas would double-count through additive refinement merges.
    assert_eq!(c.duplicates, 0);
    assert_eq!(c.reorders, 0);

    // The storm's armed crash/restart pairs all fired.
    assert_eq!(c.restarts as usize, out.restarted.len());
    assert!(!out.restarted.is_empty(), "the storm must restart a node");
}

/// Shared window state is durable: no plan is marked exclusive — the netmon
/// query runs as a share group of one beside the tenants' group — and a
/// crashed-and-restarted node rehydrates the windows of both from its
/// segment logs instead of starting them cold.
#[test]
fn a_restarted_node_rehydrates_share_group_windows_warm() {
    let out = run_chaos(&small_config(seeded(7)));
    assert!(!out.restarted.is_empty(), "the storm must restart a node");
    assert!(
        out.rehydrated_windows > 0,
        "the netmon group of one restarts warm"
    );
    assert!(
        out.tenant_rehydrated_windows > 0,
        "a shared tenant restarts warm"
    );
}

/// The robustness acceptance bar over seeds 1–32 of the standard gauntlet
/// (`docs/baselines/tables/chaos.txt` records seed 4; that its faults fire,
/// its restarts all happen and its restarted node comes back warm, the
/// tests above assert for any seed).  One seed's degraded-phase mean
/// depends on which windows its losses land in, so the bar is on the
/// range: every baseline clean, every tenant fed, the median degraded
/// error within half the per-run bound, nearly every run back below the
/// recovery threshold after the heal, and most runs exact between the
/// heal and the restart storm — one owner per key after the heal (ROADMAP
/// item 19), where a split root used to leave one node's rows in twenty
/// out of every post-heal window at all but one seed.
#[test]
fn the_standard_gauntlet_clears_its_acceptance_bar() {
    const SEEDS: u64 = 32;
    let mut degraded = Vec::new();
    let (mut recovered, mut exact_after_heal) = (0, 0);
    for seed in 1..=SEEDS {
        let cfg = ChaosConfig::standard(20, seed);
        let out = run_chaos(&cfg);
        let baseline_err = out.mean_rel_error(out.spans.baseline);
        assert!(
            baseline_err < 0.01,
            "seed {seed}: baseline phase must be clean, got {baseline_err}"
        );
        assert!(
            out.tenant_coverage > 0.5,
            "seed {seed}: tenants must keep receiving windows, got {}",
            out.tenant_coverage
        );
        let d = out.mean_rel_error(out.spans.degraded);
        let p = out.mean_rel_error((out.spans.heal_at, out.spans.storm.0));
        degraded.push(d);
        recovered += usize::from(out.recovery_secs(cfg.recovered_below).is_some());
        exact_after_heal += usize::from(p < 0.001);
    }
    degraded.sort_by(f64::total_cmp);
    let mid = degraded.len() / 2;
    let median = (degraded[mid - 1] + degraded[mid]) / 2.0;
    let bound = ChaosConfig::standard(20, 1).error_bound;
    assert!(
        median <= bound / 2.0,
        "median degraded-phase error {median} over seeds 1–{SEEDS} exceeds {}",
        bound / 2.0
    );
    assert!(
        recovered >= 28,
        "{recovered} of {SEEDS} runs recovered after the heal"
    );
    assert!(
        exact_after_heal >= 16,
        "{exact_after_heal} of {SEEDS} runs exact between heal and storm"
    );
}

/// Lease grace is per engine, not per executor.  The proxy of a standing
/// query dies, so renewals stop: on a durable node the query parks through
/// one more lease duration before it is swept — whether it runs unshared or
/// as a share-group member — and the sweep, a deliberate teardown, removes
/// the engine's segments from the node's disk; a soft-only node sweeps at
/// the hard expiry.  Returns, for an observer node, `(installed, segment
/// keys on disk)` two seconds after the lease lapsed and again after the
/// grace window.
fn orphaned_query_profile(sharing: bool, durable: bool) -> [(bool, usize); 2] {
    use pier::harness::{Cluster, ClusterConfig};
    use pier::qp::sqlish;
    const SEC: u64 = 1_000_000;

    let mut cfg = ClusterConfig::lan(6, 4242);
    cfg.pier.sharing = sharing.then_some(pier::mqo::layer);
    let cfg = if durable { cfg.with_durable() } else { cfg };
    let mut cluster = Cluster::start(&cfg);
    let (proxy, observer) = (1, 3);
    // EVERY 2s: renewals every 2 s, a 6 s lease.
    let plan = sqlish::compile(
        "SELECT src, COUNT(*) FROM packets WHERE src = '10.0.0.1' \
         GROUP BY src WINDOW 2s SLIDE 1s EVERY 2s",
        cluster.addr(proxy),
        120 * SEC,
    )
    .expect("tenant query compiles");
    let mut query = 0;
    cluster.sim.invoke(cluster.addr(proxy), |node, ctx| {
        query = node.submit_query(ctx, plan);
    });
    cluster.settle(3 * SEC);
    let orphaned_at = cluster.sim.now();
    cluster.crash_node_at(proxy, orphaned_at);
    let mut observe = |until: u64| {
        cluster.sim.run_for(orphaned_at + until - cluster.sim.now());
        let node = cluster.sim.node(cluster.addr(observer)).expect("alive");
        let shared = node.sharing_stats().is_some_and(|s| s.members > 0);
        assert_eq!(shared, sharing && node.cq_diagnostics(query).is_some());
        let keys = cluster
            .durable_store(observer)
            .map_or(0, |d| d.keys().len());
        (node.cq_diagnostics(query).is_some(), keys)
    };
    // The last renewal left before the crash, so the lease lapses by 6 s.
    [observe(8 * SEC), observe(15 * SEC)]
}

#[test]
fn an_orphaned_share_group_member_parks_through_the_lease_grace_like_an_unshared_query() {
    let parked = [(true, 2), (false, 0)];
    assert_eq!(orphaned_query_profile(false, true), parked, "unshared");
    assert_eq!(orphaned_query_profile(true, true), parked, "shared");
    let swept = [(false, 0), (false, 0)];
    assert_eq!(
        orphaned_query_profile(false, false),
        swept,
        "unshared, soft"
    );
    assert_eq!(orphaned_query_profile(true, false), swept, "shared, soft");
}

/// The gather-based symmetric-hash join survives a [`FaultPlan`]
/// loss/restart schedule: events are dropped by a seeded loss draw
/// (churn), and at each pre-drawn storm restart the operator is rebuilt
/// from scratch by replaying the surviving event log — exactly the warm
/// restart the durable-segment path performs.  After every rebuild and at
/// the end of the run, the join replayed in arrival-run chunks, the join
/// replayed one tuple (one-row chunk) at a time and a brute-force
/// nested-loop reference computed directly from the surviving inputs must
/// agree as multisets, with identical state sizes.
#[test]
fn join_rebuild_under_faultplan_loss_and_restart_matches_reference() {
    use pier::qp::tuple::ColumnChunk;
    use pier::qp::{JoinSide, SymmetricHashJoin, Tuple, TupleBatch, Value};
    use pier::runtime::rng::Rng64;
    use pier::runtime::sim::FaultPlan;
    use pier::runtime::NodeAddr;

    let seed = seeded(0xC0FFEE);
    // Pre-draw the restart schedule from a real fault plan: three kills in
    // the virtual window [2s, 10s), victims drawn by the plan's RNG.
    let victims = [NodeAddr(3)];
    let plan = FaultPlan::new(seed)
        .with_restart_storm(2_000_000, 10_000_000, &victims, 3, 100_000, 500_000);
    let restarts: Vec<u64> = plan.storm().iter().filter_map(|e| e.restart_at).collect();
    assert_eq!(restarts.len(), 3, "every storm kill must restart");

    // One virtual event per 10ms over 12s; each carries its timestamp.
    // The loss draw (churn) removes ~20% before either join sees them.
    let mut loss = Rng64::new(seed ^ 0x10555);
    let mut events: Vec<(u64, JoinSide, Tuple)> = Vec::new();
    for i in 0..1200u64 {
        let at = i * 10_000;
        if loss.chance(0.2) {
            continue;
        }
        let t = if i % 9 == 0 {
            (
                at,
                JoinSide::Right,
                Tuple::new(
                    "blocked",
                    vec![("src", Value::Str(format!("10.0.0.{}", i % 13).into()))],
                ),
            )
        } else {
            (
                at,
                JoinSide::Left,
                Tuple::new(
                    "flows",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{}", i % 8).into())),
                        ("bytes", Value::Int((i * 17) as i64)),
                    ],
                ),
            )
        };
        events.push(t);
    }

    let key = || vec!["src".to_string()];
    let multiset = |tuples: &[Tuple]| {
        let mut rows: Vec<String> = tuples.iter().map(Tuple::to_string).collect();
        rows.sort();
        rows
    };
    // Brute-force oracle: every (flow, blocked) pair with equal keys among
    // the surviving inputs seen so far.
    let brute_force = |log: &[(u64, JoinSide, Tuple)]| -> Vec<String> {
        let mut out = Vec::new();
        for (_, ls, l) in log.iter().filter(|(_, s, _)| *s == JoinSide::Left) {
            debug_assert_eq!(*ls, JoinSide::Left);
            for (_, _, r) in log.iter().filter(|(_, s, _)| *s == JoinSide::Right) {
                if l.get("src").zip(r.get("src")).is_some_and(|(a, b)| a == b) {
                    out.push(l.join_with(r, "hits").to_string());
                }
            }
        }
        out.sort();
        out
    };
    // Replay `log` through two fresh joins (the warm restart), one fed
    // arrival-run chunks and one fed single tuples, returning their
    // emissions and final states.
    let replay = |log: &[(u64, JoinSide, Tuple)]| {
        let mut chunked = SymmetricHashJoin::new(key(), key(), "hits");
        let mut per_tuple = SymmetricHashJoin::new(key(), key(), "hits");
        let mut chunk_out = Vec::new();
        let mut tuple_out = Vec::new();
        // The chunk path replays in arrival-run batches, as a durable
        // segment scan would hand them over.
        let mut run: Vec<Tuple> = Vec::new();
        let mut run_side = JoinSide::Left;
        for (_, side, t) in log {
            let single = ColumnChunk::from_tuple(t);
            tuple_out.extend(per_tuple.push_chunk_batch(*side, &single).into_tuples());
            if *side != run_side && !run.is_empty() {
                for chunk in TupleBatch::new(std::mem::take(&mut run)).chunks() {
                    chunk_out.extend(chunked.push_chunk_batch(run_side, chunk).into_tuples());
                }
            }
            run_side = *side;
            run.push(t.clone());
        }
        for chunk in TupleBatch::new(run).chunks() {
            chunk_out.extend(chunked.push_chunk_batch(run_side, chunk).into_tuples());
        }
        (chunk_out, tuple_out, chunked, per_tuple)
    };

    // Walk the schedule: at each restart boundary, rebuild from the
    // survivor log so far and check all three paths agree.
    let mut checked = 0;
    for boundary in restarts.iter().copied() {
        let prefix: Vec<_> = events
            .iter()
            .filter(|(at, _, _)| *at < boundary)
            .cloned()
            .collect();
        let (chunk_out, tuple_out, chunked, per_tuple) = replay(&prefix);
        let expected = brute_force(&prefix);
        assert_eq!(multiset(&chunk_out), expected, "rebuild at t={boundary}");
        assert_eq!(multiset(&tuple_out), expected, "rebuild at t={boundary}");
        assert_eq!(chunked.state_size(), per_tuple.state_size());
        assert!(!chunk_out.is_empty(), "joins must fire before t={boundary}");
        checked += 1;
    }
    assert_eq!(checked, 3);

    // And the full run, single-tuple pushes entering as one-row chunks.
    let (chunk_out, tuple_out, mut chunked, _) = replay(&events);
    let expected = brute_force(&events);
    assert_eq!(multiset(&chunk_out), expected);
    assert_eq!(multiset(&tuple_out), expected);
    // A late straggler arriving after the rebuild still joins against the
    // replayed state (one-row chunk through the same gather path).
    let straggler = Tuple::new(
        "flows",
        vec![
            ("src", Value::Str("10.0.0.1".into())),
            ("bytes", Value::Int(-1)),
        ],
    );
    let late = chunked.push_chunk_batch(JoinSide::Left, &ColumnChunk::from_tuple(&straggler));
    assert!(
        !late.is_empty(),
        "a straggler keyed to a blocked source must join after replay"
    );
}
