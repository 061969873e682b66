//! # pier-harness — clusters, workloads and experiment drivers
//!
//! Everything needed to regenerate the paper's figures and the ablation
//! experiments listed in `DESIGN.md`:
//!
//! * [`cluster`] — boot a network of [`pier_core::PierNode`]s over the
//!   discrete-event simulator, publish tables, submit queries and collect
//!   results.
//! * [`workloads`] — synthetic workload generators: a Zipf-popularity
//!   file-sharing corpus with a rare-keyword subset (Figure 1), a
//!   heavy-tailed firewall-event log (Figure 2), and generic relational
//!   tables for the join ablations.
//! * [`experiments`] — one driver per figure/table; each returns structured
//!   rows, and a `*_table()` function beside it renders the run the
//!   `pier-bench` bench of the same name prints.
//! * [`indexes`] — the range-index (EXP-G) and secondary-index (EXP-J)
//!   dissemination ablations of §3.3.3.
//! * [`continuous`] — the continuous-query netmon workload (`pier-cq`):
//!   a standing sqlish windowed aggregate over a live packet stream, with
//!   optional churn, measuring sustained throughput, per-window latency and
//!   per-node state bounds.
//! * [`tenants`] — the `many_tenants` workload (`pier-mqo`): 64–256
//!   constant-varied monitoring queries over one packet stream, run shared
//!   (share groups + predicate index) or independent, with optional
//!   mid-stream install/uninstall and node churn — the multi-query sharing
//!   equivalence and throughput driver.
//! * [`self_monitoring()`] — the telemetry dogfood workload: every node
//!   publishes its metrics hub into the `system.metrics` DHT namespace and
//!   standing sqlish queries monitor the cluster through PIER itself.
//! * [`chaos`] — the robustness gauntlet: continuous netmon plus shared
//!   mqo tenants driven through seeded loss, partition and restart-storm
//!   phases ([`pier_runtime::sim::FaultPlan`]), measuring bounded result
//!   error, post-heal recovery time and warm restarts from durable window
//!   segments.
//! * [`profile`] — the EXPLAIN ANALYZE driver: continuous netmon with
//!   tracing forced on, every node's span ring merged into one stably
//!   ordered stream, and the measured profile reconciled against the
//!   static `pier-analyze` cost bounds (measured ≤ static asserted).
//! * [`adaptivity`] — the eddy routing-policy ablation (EXP-H, §4.2.2).
//! * [`robustness`] — adversary fidelity and spot-checking studies
//!   (EXP-I, §4.1.2), built on `pier-security`.
//! * [`recursion`] — distributed reachability by rounds of index joins
//!   (EXP-K, §3.3.2).

pub mod adaptivity;
pub mod chaos;
pub mod cluster;
pub mod continuous;
pub mod experiments;
pub mod indexes;
pub mod profile;
pub mod recursion;
pub mod robustness;
pub mod self_monitoring;
pub mod tenants;
pub mod workloads;

pub use chaos::{run_chaos, ChaosConfig, ChaosOutcome, ChaosSpans};
pub use cluster::{Cluster, ClusterConfig, ClusterTelemetrySummary, QueryOutcome};
pub use continuous::{
    continuous_netmon, continuous_netmon_observed, ContinuousNetmonConfig, ContinuousOutcome,
};
pub use profile::{explain_analyze_netmon, QueryProfileOutcome};
pub use self_monitoring::{
    self_monitoring, MetricWindow, SelfMonitoringConfig, SelfMonitoringOutcome,
};
use std::fmt::Write as _;
pub use tenants::{
    many_tenants, AdmissionOutcome, ManyTenantsConfig, ManyTenantsOutcome, TenantResult,
};
pub use workloads::{FilesharingWorkload, FirewallWorkload};

/// One machine-readable metric line:
/// `{"bench": "...", "metric": "...", "value": ...}`.
///
/// The `*_table()` functions put their headline numbers in this form after
/// the human-readable rows.  Every value in a table is a function of the
/// seed, so `docs/baselines/tables/<bench>.txt` records the whole text and
/// `tests/paper_tables.rs` compares it byte for byte.
pub fn metric_line(bench: &str, metric: &str, value: f64) -> String {
    format!("{{\"bench\": \"{bench}\", \"metric\": \"{metric}\", \"value\": {value}}}")
}

/// A bench's table while it is rendered: text lines, and [`metric_line`]s
/// under the bench's name.
pub(crate) struct Table {
    bench: &'static str,
    text: String,
}

impl Table {
    /// The table of `bench`, opening with `header` (its `#` lines).
    pub(crate) fn new(bench: &'static str, header: &str) -> Table {
        let text = format!("{header}\n");
        Table { bench, text }
    }

    /// Append one line.
    pub(crate) fn line(&mut self, line: std::fmt::Arguments<'_>) {
        writeln!(self.text, "{line}").expect("a String takes any write");
    }

    /// Append the [`metric_line`] of `metric`.
    pub(crate) fn metric(&mut self, metric: &str, value: f64) {
        let line = metric_line(self.bench, metric, value);
        self.line(format_args!("{line}"));
    }

    /// The rendered text.
    pub(crate) fn finish(self) -> String {
        self.text
    }
}

/// Turn a free-form label ("flat mode", "kill 5, join 3") into a metric-name
/// segment: lowercase alphanumerics with single underscores.
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

#[cfg(test)]
mod tests {
    #[test]
    fn slug_flattens_labels() {
        assert_eq!(super::slug("churn (kill 5, join 3)"), "churn_kill_5_join_3");
        assert_eq!(super::slug("Fetch-Matches"), "fetch_matches");
    }
}
