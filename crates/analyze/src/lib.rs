//! # pier-analyze — static plan cost/boundedness analysis
//!
//! PIQL (PAPERS.md) argues that for "success-tolerant" Internet-scale
//! applications, query cost must be a *predeclared contract*: only queries
//! whose operation count is provably bounded before execution are admitted.
//! This crate brings that discipline to PIER: [`analyze`] walks a compiled
//! [`QueryPlan`] — its opgraphs, sinks, compiled predicate atoms and (via
//! `pier-mqo`) share-group fingerprint — and derives, **without executing
//! anything**, a [`CostReport`]: rows touched per window per node, worst-case
//! `WindowStore` state bytes, `PutBatch` entries per flush, DHT hops, root
//! fan-in, and a [`Boundedness`] verdict.
//!
//! [`SloAdmission`] implements the executor's
//! [`pier_core::admission::AdmissionControl`] seam over those reports: each
//! tenant's predicted spend accumulates against its
//! [`SloBudget`], and a submitted plan is
//! admitted, degraded to a sampled plan (shed-to-sampling), or rejected with
//! the machine-readable report.  Share-eligible plans are charged to the
//! group member that *drives* the group — follow-on members ride at marginal
//! cost, and the charge migrates when the driver ends.
//!
//! Every estimate is an **upper bound** under the declared
//! [`EnvModel`]: the admission soundness
//! suite (`tests/admission_soundness.rs` at the workspace root) checks the
//! static figures against measured telemetry counters for the netmon,
//! many-tenants and chaos workloads.  See `docs/ANALYSIS.md` for the cost
//! model and the report schema.

pub mod cost;
pub mod slo;

pub use cost::{analyze, Boundedness, CostReport};
pub use slo::{admission_factory, SloAdmission};

pub use pier_core::admission::{
    AdmissionControl, AdmissionDecision, AdmissionFactory, AdmissionVerdict, EnvModel, SloBudget,
    SloPolicy,
};
pub use pier_core::plan::QueryPlan;
