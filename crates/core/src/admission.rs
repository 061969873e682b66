//! The admission-control seam: static cost/boundedness gating of queries.
//!
//! PIQL (see PAPERS.md) makes query cost a first-class, *predeclared*
//! contract: "success-tolerant" applications only run queries whose
//! operation count is provably bounded before execution.  This module is
//! the `pier-core` side of that idea — the executor consults an
//! [`AdmissionControl`] implementation at the proxy, **before
//! dissemination**, and either admits the plan untouched, degrades it to a
//! sampled plan (shed-to-sampling, [`QueryPlan::sample_every`]), or rejects
//! it outright with a machine-readable cost report.
//!
//! Like the multi-query sharing seam ([`crate::sharing`]), the trait lives
//! here but the implementation lives upstack (`pier-analyze`, which walks
//! compiled plans and derives the static `CostReport`-style bounds); the
//! function-pointer factory keeps `pier-core` free of a dependency cycle.
//! A node built without a factory behaves exactly as before: every query is
//! admitted unconditionally and no report is produced.
//!
//! Budgets are **per tenant** ([`QueryPlan::tenant`]): each tenant has an
//! SLO budget covering predicted rows touched per window per node, window
//! state bytes per node, message volume per flush and root fan-in, and the
//! proxy charges each admitted standing query against it until the query
//! ends.  Admission is proxy-local by design — consistent with PIER's
//! relaxed-consistency stance, there is no global admission coordinator;
//! a tenant's budget is enforced at the proxy its queries are submitted to.

use crate::plan::QueryPlan;
use pier_telemetry::Telemetry;
use std::collections::BTreeMap;

/// Assumptions about the deployment the static cost model multiplies its
/// per-plan bounds by.  These are *declared* inputs, not measurements: a
/// report derived from an `EnvModel` upper-bounds the measured counters of
/// any run whose actual environment stays within these figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvModel {
    /// Nodes participating in a broadcast-disseminated plan.
    pub nodes: u64,
    /// Worst-case stream events per node per second of virtual time.
    pub events_per_node_per_sec: u64,
    /// Worst-case encoded bytes per value (group key parts, accumulator
    /// scalars).
    pub bytes_per_value: u64,
    /// Assumed distinct values of a column no predicate constrains (the
    /// group-count assumption behind `ConditionallyBounded` verdicts).
    pub distinct_values: u64,
    /// Assumed stored rows per node of a table a one-shot query scans.
    pub table_rows_per_node: u64,
}

impl Default for EnvModel {
    fn default() -> Self {
        EnvModel {
            nodes: 64,
            events_per_node_per_sec: 16,
            bytes_per_value: 32,
            distinct_values: 4_096,
            table_rows_per_node: 100_000,
        }
    }
}

/// One tenant's SLO budget: ceilings on the *predicted* per-query cost the
/// proxy will accept on this tenant's behalf.  All ceilings are cumulative
/// over the tenant's concurrently admitted queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloBudget {
    /// Ceiling on predicted rows touched per window per node.
    pub max_rows_per_window_per_node: u64,
    /// Ceiling on predicted worst-case window state bytes per node.
    pub max_state_bytes_per_node: u64,
    /// Ceiling on predicted `PutBatch` entries shipped per flush per node.
    pub max_entries_per_flush: u64,
    /// Ceiling on predicted fan-in at the query's aggregation/window root.
    pub max_root_fan_in: u64,
    /// Accept `ConditionallyBounded` verdicts (bounds resting on the
    /// [`EnvModel`] distinct-values / table-size assumptions).  Verdicts of
    /// `Unbounded` are always rejected.
    pub allow_conditional: bool,
    /// Degrade over-budget standing queries to a sampled plan instead of
    /// rejecting them, when a sampling rate exists that fits the remaining
    /// budget.
    pub shed_to_sampling: bool,
}

impl Default for SloBudget {
    fn default() -> Self {
        SloBudget {
            max_rows_per_window_per_node: 1 << 20,
            max_state_bytes_per_node: 64 << 20,
            max_entries_per_flush: 1 << 20,
            max_root_fan_in: 1 << 16,
            allow_conditional: true,
            shed_to_sampling: true,
        }
    }
}

/// The proxy-wide admission policy: the environment model plus per-tenant
/// budgets (tenants not listed get the default budget).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloPolicy {
    /// Budget applied to tenants without an explicit entry.
    pub default_budget: SloBudget,
    /// Per-tenant overrides, keyed by [`QueryPlan::tenant`].
    pub tenants: BTreeMap<u64, SloBudget>,
    /// Deployment assumptions the cost model scales by.
    pub env: EnvModel,
    /// The cluster executes share-eligible plans through a sharing layer
    /// (`pier-mqo`): follow-on members of an existing group are charged
    /// marginal cost, and share-eligible plans are never degraded to
    /// sampling (a sampled member would distort the group's shared store).
    pub shared_execution: bool,
}

impl SloPolicy {
    /// The budget applying to `tenant`.
    pub fn budget_for(&self, tenant: u64) -> SloBudget {
        self.tenants
            .get(&tenant)
            .copied()
            .unwrap_or(self.default_budget)
    }
}

/// The decision arm of an admission outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The plan runs as submitted.
    Admit,
    /// The plan runs degraded: every node keeps only one in `sample_every`
    /// source rows for this query ([`QueryPlan::sample_every`]).
    Shed {
        /// The derived sampling modulus (≥ 2).
        sample_every: u32,
    },
    /// The plan does not run.
    Reject {
        /// Human-readable reason (the machine-readable detail is in the
        /// accompanying report).
        reason: String,
    },
}

/// An admission outcome: the decision plus the machine-readable static
/// cost report (JSON, produced by the analyzer) that justifies it.
#[derive(Debug, Clone)]
pub struct AdmissionDecision {
    /// What the proxy should do with the plan.
    pub verdict: AdmissionVerdict,
    /// The static cost report as a JSON object string (schema documented in
    /// `docs/ANALYSIS.md`).  Present for every decision, including admits.
    pub report: String,
}

/// The admission layer a proxy consults before disseminating a plan.
///
/// Implementations derive a static cost/boundedness report for the plan,
/// charge it against the tenant's [`SloBudget`], and answer with one of the
/// three [`AdmissionVerdict`] arms.  `release` returns an admitted query's
/// charge to its tenant's budget when the query ends.
pub trait AdmissionControl: std::fmt::Debug {
    /// Install the policy (budgets + environment model).  Called once at
    /// node construction, before any `assess`.
    fn configure(&mut self, policy: &SloPolicy);

    /// Attach the node's telemetry handle.
    fn set_telemetry(&mut self, tel: &Telemetry);

    /// Assess a plan about to be disseminated from this proxy.  On
    /// `Admit`/`Shed` the charge is recorded against the plan's tenant
    /// until [`AdmissionControl::release`].
    fn assess(&mut self, plan: &QueryPlan) -> AdmissionDecision;

    /// The admitted query ended (timeout or teardown): return its charge.
    fn release(&mut self, query_id: u64);

    /// Queries currently holding budget (diagnostics).
    fn admitted(&self) -> usize;
}

/// Constructor for the admission layer, carried by value in
/// [`crate::node::PierConfig`] (a plain function pointer keeps the config
/// `Clone` and the dependency arrow pointing at `pier-core`, exactly like
/// [`crate::sharing::SharingFactory`]).
pub type AdmissionFactory = fn() -> Box<dyn AdmissionControl + Send>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_budget_lookup_falls_back_to_default() {
        let mut policy = SloPolicy::default();
        let tight = SloBudget {
            max_rows_per_window_per_node: 10,
            ..SloBudget::default()
        };
        policy.tenants.insert(7, tight);
        assert_eq!(policy.budget_for(7).max_rows_per_window_per_node, 10);
        assert_eq!(
            policy.budget_for(8).max_rows_per_window_per_node,
            SloBudget::default().max_rows_per_window_per_node
        );
    }
}
