//! A node's soft-state deadlines, swept by one timer.
//!
//! Soft state at a node runs out three ways (§3.2.3): a query's lifetime
//! ends here ([`Deadline::End`]), the lifetime a proxy promised its client
//! ends ([`Deadline::ProxyDone`]), or a standing query's lease lapses
//! because no roster renewed it ([`Deadline::Lease`]).  Instead of a timer
//! per (query, kind), [`Deadlines`] files each entry under its instant and
//! asks for one sweep timer at the earliest of them: [`Deadlines::arm`]
//! names an instant only when the head moved earlier than every sweep
//! already in flight.
//!
//! A lease renewal does no work here.  It moves the lease's `expires_at`,
//! and a lease entry reads the lease again when it is due: a live lease
//! re-files the entry at its current `expires_at` (a roster renews all of
//! its proxy's queries to one instant, so these entries share a bucket), a
//! lapsed one asks for the uninstall — after the grace window when window
//! state is durable.  Once `expires_at` reaches the query's end here the
//! entry is dropped: a lease only ever extends, so the end comes first.
//!
//! Plain state, data in and instructions out: [`crate::node::PierNode`]
//! arms the timer and acts on what a sweep returns, tests drive the rules
//! with no simulator.

use pier_cq::{Lease, LeaseStatus};
use pier_runtime::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// One filed deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadline {
    /// The query's lifetime at this node is over: uninstall it.
    End(u64),
    /// The query's lifetime at its proxy is over: tell the client.
    ProxyDone(u64),
    /// Re-check the query's lease.  `end` is the query's end at this node,
    /// past which the lease no longer matters.
    Lease {
        /// The query holding the lease.
        query_id: u64,
        /// The query's end at this node.
        end: SimTime,
    },
}

/// What a sweep asks the node to do, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Due {
    /// The query ended here, or its lease lapsed: uninstall it.
    Uninstall(u64),
    /// The proxied query is done: report it to the client.
    Done(u64),
}

/// Deadlines by instant, and the instants a sweep timer is in flight for.
#[derive(Debug, Default)]
pub struct Deadlines {
    /// `(instant, filing order)` → the deadline due then.
    due: BTreeMap<(SimTime, u64), Deadline>,
    /// Deadlines ever filed: the filing order of the latest.
    filed: u64,
    /// Instants a sweep timer was armed for and has not fired at.
    armed: BTreeSet<SimTime>,
}

impl Deadlines {
    /// File `deadline` at `at`, behind whatever is already due then.  The
    /// caller then asks [`Deadlines::arm`] whether the head needs a timer.
    pub fn file(&mut self, at: SimTime, deadline: Deadline) {
        self.filed += 1;
        self.due.insert((at, self.filed), deadline);
    }

    /// The instant a sweep timer must be armed for, if any: the head, when
    /// it is earlier than every sweep in flight.  The caller arms it.
    pub fn arm(&mut self) -> Option<SimTime> {
        let (&(head, _), _) = self.due.first_key_value()?;
        if self.armed.first().is_some_and(|at| *at <= head) {
            return None;
        }
        self.armed.insert(head);
        Some(head)
    }

    /// A sweep at `now`: the next thing the node must do, taking entries
    /// due at or before `now` in order and re-filing each lease still live;
    /// `None` once nothing more is due.  `lease` reads a query's lease,
    /// `None` when it is not installed here; `durable` grants a lapsed
    /// lease one more lease duration of grace.  The node acts on each
    /// answer before asking again.
    pub fn next_due(
        &mut self,
        now: SimTime,
        durable: bool,
        mut lease: impl FnMut(u64) -> Option<Lease>,
    ) -> Option<Due> {
        while self.armed.first().is_some_and(|at| *at <= now) {
            self.armed.pop_first();
        }
        while let Some(entry) = self.due.first_entry() {
            if entry.key().0 > now {
                break;
            }
            let deadline = entry.remove();
            let (query_id, end) = match deadline {
                Deadline::End(query_id) => return Some(Due::Uninstall(query_id)),
                Deadline::ProxyDone(query_id) => return Some(Due::Done(query_id)),
                Deadline::Lease { query_id, end } => (query_id, end),
            };
            let Some(lease) = lease(query_id) else {
                continue;
            };
            let grace = if durable { lease.duration } else { 0 };
            let recheck = match lease.status(now, grace) {
                LeaseStatus::Gone => return Some(Due::Uninstall(query_id)),
                LeaseStatus::Active => lease.expires_at,
                // Parked: hold the state through the grace window and
                // re-check at its end.
                LeaseStatus::Rehydrating => lease.expires_at.saturating_add(grace),
            };
            if recheck < end {
                self.file(recheck, deadline);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// One query of a schedule: installed at `at` for `timeout`, its lease
    /// `lease` long and renewed at `renewals`.
    #[derive(Debug)]
    struct Query {
        at: SimTime,
        end: SimTime,
        lease: u64,
        renewals: Vec<SimTime>,
    }

    impl Query {
        /// When the lease lapses for good, if before the end: renewals at
        /// an instant land before a sweep at that instant.
        fn lapse(&self, grace: bool) -> Option<SimTime> {
            let grace = if grace { self.lease } else { 0 };
            let mut expires_at = self.at + self.lease;
            for &r in &self.renewals {
                if r > expires_at + grace {
                    break;
                }
                expires_at = expires_at.max(r + self.lease);
            }
            Some(expires_at + grace).filter(|lapse| *lapse < self.end)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Drive `Deadlines` the way a node does — file at install, arm a
        /// timer whenever `arm` asks, sweep when a timer fires, renew
        /// leases in between — against the per-query answer: an end or a
        /// proxy completion fires once, exactly at its instant; a lease
        /// uninstalls only once it lapsed (never while renewals keep it
        /// live), exactly at expiry plus grace; and a sweep timer is armed
        /// only for the head, never twice for one instant.
        #[test]
        fn every_deadline_fires_once_at_its_instant(
            queries in prop::collection::vec(
                ((0u64..40, 1u64..60, 1u64..16), prop::collection::vec(0u64..70, 0..8)),
                1..10,
            ),
            proxied in prop::collection::vec(0u64..90, 0..6),
            durable: bool,
        ) {
            let queries: Vec<Query> = queries
                .into_iter()
                .map(|((at, timeout, lease), mut renewals)| {
                    renewals.iter_mut().for_each(|r| *r += at);
                    renewals.sort_unstable();
                    Query { at, end: at + timeout, lease, renewals }
                })
                .collect();
            // Instant → what happens then, in this order: installs and
            // renewals, then the sweeps of the timers due.
            let mut installs: BTreeMap<SimTime, Vec<usize>> = BTreeMap::new();
            let mut renewals: BTreeMap<SimTime, Vec<usize>> = BTreeMap::new();
            for (q, query) in queries.iter().enumerate() {
                installs.entry(query.at).or_default().push(q);
                for &r in &query.renewals {
                    renewals.entry(r).or_default().push(q);
                }
            }
            let mut deadlines = Deadlines::default();
            let mut leases: BTreeMap<u64, Lease> = BTreeMap::new();
            let mut timers: BTreeSet<SimTime> = BTreeSet::new();
            let mut fired: Vec<(SimTime, Due)> = Vec::new();
            let arm = |deadlines: &mut Deadlines, timers: &mut BTreeSet<SimTime>| {
                if let Some(at) = deadlines.arm() {
                    let head = deadlines.due.first_key_value().map(|(k, _)| k.0);
                    prop_assert_eq!(Some(at), head, "armed for the head");
                    prop_assert!(
                        timers.iter().all(|t| *t > at),
                        "armed {} with a sweep at or before it in flight: {:?}", at, timers
                    );
                    timers.insert(at);
                }
                Ok(())
            };
            for (q, &at) in proxied.iter().enumerate() {
                deadlines.file(at, Deadline::ProxyDone(q as u64));
                arm(&mut deadlines, &mut timers)?;
            }
            let instants: Vec<SimTime> = installs.keys().chain(renewals.keys()).copied().collect();
            let last = instants.into_iter().max().unwrap_or(0);
            for now in 0..=last.max(200) {
                for &q in renewals.get(&now).into_iter().flatten() {
                    if let Some(lease) = leases.get_mut(&(q as u64)) {
                        lease.renew(now);
                    }
                }
                for &q in installs.get(&now).into_iter().flatten() {
                    let query = &queries[q];
                    let query_id = q as u64;
                    leases.insert(query_id, Lease::granted(now, query.lease));
                    deadlines.file(query.end, Deadline::End(query_id));
                    if now + query.lease < query.end {
                        let end = query.end;
                        deadlines.file(now + query.lease, Deadline::Lease { query_id, end });
                    }
                    arm(&mut deadlines, &mut timers)?;
                }
                if !timers.remove(&now) {
                    continue;
                }
                while let Some(due) = deadlines.next_due(now, durable, |q| leases.get(&q).copied()) {
                    if let Due::Uninstall(q) = due {
                        leases.remove(&q);
                    }
                    fired.push((now, due));
                }
                arm(&mut deadlines, &mut timers)?;
            }
            prop_assert!(timers.is_empty() && deadlines.due.is_empty(), "all swept");
            let mut expected: Vec<(SimTime, Due)> = Vec::new();
            for (q, query) in queries.iter().enumerate() {
                let q = q as u64;
                expected.push((query.end, Due::Uninstall(q)));
                expected.extend(query.lapse(durable).map(|at| (at, Due::Uninstall(q))));
            }
            for (q, &at) in proxied.iter().enumerate() {
                expected.push((at, Due::Done(q as u64)));
            }
            let key = |(at, due): &(SimTime, Due)| match *due {
                Due::Uninstall(q) => (*at, 0, q),
                Due::Done(q) => (*at, 1, q),
            };
            expected.sort_by_key(key);
            fired.sort_by_key(key);
            prop_assert_eq!(fired, expected);
        }
    }
}
