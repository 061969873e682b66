//! [`SloAdmission`]: the admission-control layer over the static cost model.
//!
//! The proxy consults this before disseminating a plan.  Each tenant's
//! *predicted* spend — rows per window per node, state bytes per node,
//! `PutBatch` entries per flush, root fan-in — accumulates against its
//! [`SloBudget`] while its queries stand, and a new plan is:
//!
//! * **admitted** when its predicted cost fits the remaining budget,
//! * **shed to sampling** when a sampling modulus exists that scales the
//!   rate-proportional costs into the remaining budget (standing windowed
//!   plans only, and never share-eligible ones — a sampled member would
//!   distort the group's shared store),
//! * **rejected** otherwise, or whenever the verdict is
//!   [`Boundedness::Unbounded`] (or conditionally bounded while the
//!   tenant's budget forbids assumption-backed bounds).
//!
//! Share-group charging: under shared execution the group's aggregate cost
//! is charged to the member that *drives* it (the first admitted member);
//! follow-on members ride at marginal (zero) cost, and when the driver ends
//! the charge migrates to the next surviving member's tenant.

use crate::cost::{analyze, Boundedness, CostReport};
use pier_core::admission::{
    AdmissionControl, AdmissionDecision, AdmissionVerdict, SloBudget, SloPolicy,
};
use pier_core::plan::QueryPlan;
use pier_telemetry::Telemetry;
use std::collections::BTreeMap;

/// Largest sampling modulus shed-to-sampling will derive; a plan needing a
/// thinner stream than 1-in-1024 is rejected instead of admitted as noise.
const MAX_SAMPLE_EVERY: u64 = 1024;

/// A tenant's predicted spend across its standing queries (the unit-less
/// counterparts of the [`SloBudget`] ceilings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Spend {
    rows: u64,
    state_bytes: u64,
    entries: u64,
    fan_in: u64,
}

impl Spend {
    fn of(report: &CostReport, sample_every: u64) -> Spend {
        let scale = sample_every.max(1);
        Spend {
            rows: report.rows_per_window_per_node.div_ceil(scale),
            state_bytes: report.state_bytes_per_node.div_ceil(scale),
            entries: report.entries_per_flush_per_node.div_ceil(scale),
            // Fan-in is topological: sampling does not reduce the number of
            // senders converging on the root.
            fan_in: report.root_fan_in,
        }
    }

    fn add(&mut self, other: Spend) {
        self.rows = self.rows.saturating_add(other.rows);
        self.state_bytes = self.state_bytes.saturating_add(other.state_bytes);
        self.entries = self.entries.saturating_add(other.entries);
        self.fan_in = self.fan_in.saturating_add(other.fan_in);
    }

    fn sub(&mut self, other: Spend) {
        self.rows = self.rows.saturating_sub(other.rows);
        self.state_bytes = self.state_bytes.saturating_sub(other.state_bytes);
        self.entries = self.entries.saturating_sub(other.entries);
        self.fan_in = self.fan_in.saturating_sub(other.fan_in);
    }

    fn fits(&self, extra: Spend, budget: &SloBudget) -> bool {
        self.rows.saturating_add(extra.rows) <= budget.max_rows_per_window_per_node
            && self.state_bytes.saturating_add(extra.state_bytes) <= budget.max_state_bytes_per_node
            && self.entries.saturating_add(extra.entries) <= budget.max_entries_per_flush
            && self.fan_in.saturating_add(extra.fan_in) <= budget.max_root_fan_in
    }
}

/// What one admitted query is currently charged, so `release` can refund it.
#[derive(Debug, Clone, Copy)]
struct Charge {
    tenant: u64,
    spend: Spend,
    fingerprint: Option<u64>,
}

/// State of one share group the admission layer knows about.
#[derive(Debug, Clone)]
struct GroupState {
    /// The group's full (undiscounted) spend, charged to the driver.
    full: Spend,
    /// Member query ids in admission order; the first is the driver.
    members: Vec<u64>,
}

/// The default [`AdmissionControl`] implementation: static analysis plus
/// per-tenant SLO budget accounting.  Construct through
/// [`admission_factory`] in [`pier_core::node::PierConfig::admission`].
#[derive(Debug, Default)]
pub struct SloAdmission {
    policy: SloPolicy,
    tel: Option<Telemetry>,
    spend: BTreeMap<u64, Spend>,
    charges: BTreeMap<u64, Charge>,
    groups: BTreeMap<u64, GroupState>,
}

/// Factory for [`pier_core::node::PierConfig::admission`].
pub fn admission_factory() -> Box<dyn AdmissionControl + Send> {
    Box::<SloAdmission>::default()
}

impl SloAdmission {
    /// The report wrapped in the decision envelope the executor surfaces.
    fn envelope(decision: &str, sample_every: u64, report: &CostReport) -> String {
        format!(
            "{{\"decision\":\"{decision}\",\"sample_every\":{sample_every},\"report\":{}}}",
            report.to_json()
        )
    }

    /// Smallest sampling modulus that scales the rate-proportional costs of
    /// `report` into the tenant's remaining budget, if one exists.
    fn sampling_rate(spent: &Spend, budget: &SloBudget, report: &CostReport) -> Option<u64> {
        // Fan-in does not scale with sampling: if it alone overflows, no
        // modulus helps.
        if spent.fan_in.saturating_add(report.root_fan_in) > budget.max_root_fan_in {
            return None;
        }
        let need = |cost: u64, ceiling: u64, used: u64| -> Option<u64> {
            let remaining = ceiling.saturating_sub(used);
            if remaining == 0 {
                return None;
            }
            Some(cost.div_ceil(remaining))
        };
        let s = need(
            report.rows_per_window_per_node,
            budget.max_rows_per_window_per_node,
            spent.rows,
        )?
        .max(need(
            report.state_bytes_per_node,
            budget.max_state_bytes_per_node,
            spent.state_bytes,
        )?)
        .max(need(
            report.entries_per_flush_per_node,
            budget.max_entries_per_flush,
            spent.entries,
        )?)
        .max(2);
        (s <= MAX_SAMPLE_EVERY).then_some(s)
    }
}

impl AdmissionControl for SloAdmission {
    fn configure(&mut self, policy: &SloPolicy) {
        self.policy = policy.clone();
    }

    fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = Some(tel.clone());
    }

    fn assess(&mut self, plan: &QueryPlan) -> AdmissionDecision {
        let report = analyze(plan, &self.policy.env);
        let budget = self.policy.budget_for(plan.tenant);

        // Unconditional structural rejections first.
        if let Boundedness::Unbounded { reason } = &report.boundedness {
            return AdmissionDecision {
                verdict: AdmissionVerdict::Reject {
                    reason: reason.clone(),
                },
                report: Self::envelope("reject", plan.sample_every.into(), &report),
            };
        }
        if !budget.allow_conditional {
            if let Boundedness::ConditionallyBounded { .. } = &report.boundedness {
                return AdmissionDecision {
                    verdict: AdmissionVerdict::Reject {
                        reason: "bound rests on environment assumptions and the tenant's \
                                 budget forbids assumption-backed bounds"
                            .to_string(),
                    },
                    report: Self::envelope("reject", plan.sample_every.into(), &report),
                };
            }
        }

        // Share-group marginal charging: a follow-on member of a group this
        // proxy already drives rides at marginal cost and is admitted as-is
        // (sampling a member would distort the shared store).
        let sharable = self.policy.shared_execution && report.share_eligible;
        if sharable {
            if let Some(fp) = report.fingerprint {
                if let Some(group) = self.groups.get_mut(&fp) {
                    group.members.push(plan.query_id);
                    self.charges.insert(
                        plan.query_id,
                        Charge {
                            tenant: plan.tenant,
                            spend: Spend::default(),
                            fingerprint: Some(fp),
                        },
                    );
                    return AdmissionDecision {
                        verdict: AdmissionVerdict::Admit,
                        report: Self::envelope("admit", 1, &report),
                    };
                }
            }
        }

        let cost = Spend::of(&report, 1);
        let spent = self.spend.entry(plan.tenant).or_default();
        if spent.fits(cost, &budget) {
            spent.add(cost);
            self.charges.insert(
                plan.query_id,
                Charge {
                    tenant: plan.tenant,
                    spend: cost,
                    fingerprint: sharable.then_some(report.fingerprint).flatten(),
                },
            );
            if sharable {
                if let Some(fp) = report.fingerprint {
                    self.groups.insert(
                        fp,
                        GroupState {
                            full: cost,
                            members: vec![plan.query_id],
                        },
                    );
                }
            }
            return AdmissionDecision {
                verdict: AdmissionVerdict::Admit,
                report: Self::envelope("admit", 1, &report),
            };
        }

        // Over budget: shed to sampling when allowed and the plan tolerates
        // it — a standing windowed, non-share-eligible plan.
        let standing_windowed = report.window_size_us > 0;
        if budget.shed_to_sampling && standing_windowed && !sharable {
            if let Some(s) = Self::sampling_rate(spent, &budget, &report) {
                let scaled = Spend::of(&report, s);
                if spent.fits(scaled, &budget) {
                    spent.add(scaled);
                    self.charges.insert(
                        plan.query_id,
                        Charge {
                            tenant: plan.tenant,
                            spend: scaled,
                            fingerprint: None,
                        },
                    );
                    return AdmissionDecision {
                        verdict: AdmissionVerdict::Shed {
                            sample_every: u32::try_from(s).unwrap_or(u32::MAX),
                        },
                        report: Self::envelope("shed", s, &report),
                    };
                }
            }
        }

        AdmissionDecision {
            verdict: AdmissionVerdict::Reject {
                reason: format!(
                    "tenant {} over SLO budget: predicted rows/window/node {} \
                     (spent {}/{}), state bytes {} (spent {}/{}), entries/flush {} \
                     (spent {}/{})",
                    plan.tenant,
                    report.rows_per_window_per_node,
                    spent.rows,
                    budget.max_rows_per_window_per_node,
                    report.state_bytes_per_node,
                    spent.state_bytes,
                    budget.max_state_bytes_per_node,
                    report.entries_per_flush_per_node,
                    spent.entries,
                    budget.max_entries_per_flush,
                ),
            },
            report: Self::envelope("reject", plan.sample_every.into(), &report),
        }
    }

    fn release(&mut self, query_id: u64) {
        let Some(charge) = self.charges.remove(&query_id) else {
            return;
        };
        if let Some(entry) = self.spend.get_mut(&charge.tenant) {
            entry.sub(charge.spend);
        }
        // Share-group driver handoff: when the driver ends while members
        // survive, the group's full cost migrates to the next member's
        // tenant (re-assessed bookkeeping, not re-dissemination).
        let Some(fp) = charge.fingerprint else {
            return;
        };
        let Some(group) = self.groups.get_mut(&fp) else {
            return;
        };
        group.members.retain(|&id| id != query_id);
        if group.members.is_empty() {
            self.groups.remove(&fp);
            return;
        }
        let was_driver = charge.spend != Spend::default();
        if was_driver {
            let full = group.full;
            let next = group.members[0];
            if let Some(next_charge) = self.charges.get_mut(&next) {
                next_charge.spend = full;
                next_charge.fingerprint = Some(fp);
                self.spend.entry(next_charge.tenant).or_default().add(full);
            }
        }
    }

    fn admitted(&self) -> usize {
        self.charges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_core::sqlish;
    use pier_runtime::NodeAddr;

    fn windowed_plan(tenant: u64, pred: &str) -> QueryPlan {
        let sql = format!(
            "SELECT src, COUNT(*) FROM packets {pred} GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"
        );
        let mut plan = sqlish::compile(&sql, NodeAddr(1), 30_000_000).expect("compiles");
        plan.tenant = tenant;
        plan.query_id = tenant * 100 + 1;
        plan
    }

    fn layer(policy: SloPolicy) -> SloAdmission {
        let mut l = SloAdmission::default();
        l.configure(&policy);
        l
    }

    #[test]
    fn admits_within_budget_and_releases() {
        let mut l = layer(SloPolicy::default());
        let plan = windowed_plan(1, "");
        let d = l.assess(&plan);
        assert!(matches!(d.verdict, AdmissionVerdict::Admit));
        assert!(d.report.contains("\"decision\":\"admit\""));
        assert_eq!(l.admitted(), 1);
        l.release(plan.query_id);
        assert_eq!(l.admitted(), 0);
        assert_eq!(
            l.spend.get(&1).copied().unwrap_or_default(),
            Spend::default()
        );
    }

    #[test]
    fn rejects_unbounded() {
        let mut l = layer(SloPolicy::default());
        let mut plan =
            sqlish::compile("SELECT file FROM files WHERE size > 10", NodeAddr(1), 1_000).unwrap();
        plan.continuous = true;
        let d = l.assess(&plan);
        assert!(matches!(d.verdict, AdmissionVerdict::Reject { .. }));
        assert!(d.report.contains("\"verdict\":\"unbounded\""));
        assert_eq!(l.admitted(), 0);
    }

    #[test]
    fn sheds_to_sampling_when_over_budget() {
        let mut policy = SloPolicy::default();
        // Rows/window/node for 2s window at 16 ev/s is 32: a ceiling of 8
        // forces 1-in-4 sampling.
        policy.default_budget.max_rows_per_window_per_node = 8;
        let mut l = layer(policy);
        let plan = windowed_plan(3, "");
        let d = l.assess(&plan);
        match d.verdict {
            AdmissionVerdict::Shed { sample_every } => assert!(sample_every >= 4),
            other => panic!("expected shed, got {other:?}"),
        }
        assert!(d.report.contains("\"decision\":\"shed\""));
    }

    #[test]
    fn rejects_when_sampling_cannot_fit() {
        let mut policy = SloPolicy::default();
        policy.default_budget.max_rows_per_window_per_node = 0;
        let mut l = layer(policy);
        let d = l.assess(&windowed_plan(4, ""));
        assert!(matches!(d.verdict, AdmissionVerdict::Reject { .. }));
    }

    #[test]
    fn tenants_are_isolated() {
        let mut policy = SloPolicy::default();
        policy.default_budget.max_rows_per_window_per_node = 40;
        let mut l = layer(policy);
        let mut first = windowed_plan(1, "");
        first.query_id = 11;
        let mut second_same_tenant = windowed_plan(1, "");
        second_same_tenant.query_id = 12;
        let mut other_tenant = windowed_plan(2, "");
        other_tenant.query_id = 21;
        assert!(matches!(l.assess(&first).verdict, AdmissionVerdict::Admit));
        // Tenant 1 is now over (32 + 32 > 40): shed or reject, not admit.
        assert!(!matches!(
            l.assess(&second_same_tenant).verdict,
            AdmissionVerdict::Admit
        ));
        // Tenant 2 is untouched.
        assert!(matches!(
            l.assess(&other_tenant).verdict,
            AdmissionVerdict::Admit
        ));
    }

    #[test]
    fn share_group_followers_ride_marginal_and_charge_migrates() {
        let mut policy = SloPolicy {
            shared_execution: true,
            ..SloPolicy::default()
        };
        // Budget fits exactly one full charge per tenant.
        policy.default_budget.max_rows_per_window_per_node = 40;
        let mut l = layer(policy);
        let mut driver = windowed_plan(1, "");
        driver.query_id = 1;
        let mut follower = windowed_plan(2, "");
        follower.query_id = 2;
        assert!(matches!(l.assess(&driver).verdict, AdmissionVerdict::Admit));
        // Identical share-eligible plan from another tenant: marginal admit.
        assert!(matches!(
            l.assess(&follower).verdict,
            AdmissionVerdict::Admit
        ));
        assert_eq!(
            l.spend.get(&2).copied().unwrap_or_default(),
            Spend::default()
        );
        // Driver ends: the full charge migrates to the follower's tenant.
        l.release(1);
        assert!(l.spend.get(&1).copied().unwrap_or_default() == Spend::default());
        assert!(l.spend.get(&2).copied().unwrap_or_default().rows > 0);
        l.release(2);
        assert_eq!(
            l.spend.get(&2).copied().unwrap_or_default(),
            Spend::default()
        );
        assert!(l.groups.is_empty());
    }

    #[test]
    fn share_eligible_plans_are_never_shed() {
        let mut policy = SloPolicy {
            shared_execution: true,
            ..SloPolicy::default()
        };
        policy.default_budget.max_rows_per_window_per_node = 8;
        let mut l = layer(policy);
        let d = l.assess(&windowed_plan(1, ""));
        assert!(matches!(d.verdict, AdmissionVerdict::Reject { .. }));
    }
}
