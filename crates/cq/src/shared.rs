//! Shared window state for multi-query (share-group) execution.
//!
//! PIER's target of *thousands* of simultaneous continuous queries is only
//! reachable if near-identical queries — the network-monitoring case where
//! many users install the same windowed aggregate with different selection
//! constants — stop paying per-query state and per-query partial streams.
//! A [`SharedWindowState`] is the window engine of one **share group**: it
//! keeps exactly one local [`WindowStore`] and one root-side [`WindowStore`]
//! for the whole group (instead of one pair per member query), and derives
//! each member's per-window answer *at flush time* from the shared
//! accumulators.
//!
//! The derivation contract is the caller's: sharing is sound when every
//! member's residual predicate references only the group's GROUP BY columns,
//! because then a predicate is constant within each group — a member's
//! answer is exactly the subset of shared groups its predicate accepts, with
//! identical accumulator values (`pier-mqo` enforces this eligibility during
//! plan normalization).  This module stays generic over the accumulator `A`
//! and the emitted row type `R`, like the rest of `pier-cq`; the caller
//! supplies the per-member derivation as a closure at emission time.
//!
//! Per member the state kept here is one [`DeltaTracker`] (snapshot/delta
//! output against that member's previous emissions) plus counters — O(1) in
//! the stream, so the marginal cost of the (N+1)-th constant-varied query is
//! a tracker and a predicate, not a window store.

use crate::delta::{Delta, DeltaMode, DeltaTracker};
use crate::lifecycle::CqBudget;
use crate::state::{WindowAccumulator, WindowStats, WindowStore};
use crate::window::{WindowId, WindowSpec};
use pier_runtime::SimTime;
use std::collections::BTreeMap;

/// Per-member output state within a share group.
#[derive(Debug)]
struct MemberSink<R> {
    tracker: DeltaTracker<R>,
    windows_emitted: u64,
}

/// One per-member emission produced by [`SharedWindowState::emit_due`].
#[derive(Debug)]
pub struct MemberEmission<R> {
    /// The member query this emission belongs to.
    pub member: u64,
    /// The emitted window.
    pub window: WindowId,
    /// The member's delta stream for this (re-)emission.
    pub deltas: Vec<Delta<R>>,
}

/// The window state of one share group: a single local/root
/// [`WindowStore`] pair serving every member query, with per-member
/// [`DeltaTracker`]s deriving member-specific snapshots or insert/retract
/// streams at flush.
#[derive(Debug)]
pub struct SharedWindowState<A, R> {
    window: WindowSpec,
    /// This node's share of the stream, drained toward the root each slide.
    local: WindowStore<A>,
    /// Partials combined at (or relayed toward) the group's window root;
    /// closes one slide after `local` so relayed partials can arrive.
    root: WindowStore<A>,
    members: BTreeMap<u64, MemberSink<R>>,
}

impl<A: WindowAccumulator + Clone, R: Clone + PartialEq> SharedWindowState<A, R> {
    /// Fresh state for a group windowing by `window` under `budget`.
    pub fn new(window: WindowSpec, budget: CqBudget) -> Self {
        SharedWindowState {
            window,
            local: WindowStore::new(window, budget),
            root: WindowStore::new(window.with_grace(window.grace + window.slide), budget),
            members: BTreeMap::new(),
        }
    }

    /// The group's window specification.
    pub fn window(&self) -> &WindowSpec {
        &self.window
    }

    /// Register a member query's output stream.  Returns `false` when the
    /// member was already registered (a lease renewal, not a new member).
    pub fn add_member(&mut self, member: u64, mode: DeltaMode) -> bool {
        if self.members.contains_key(&member) {
            return false;
        }
        self.members.insert(
            member,
            MemberSink {
                tracker: DeltaTracker::new(mode),
                windows_emitted: 0,
            },
        );
        true
    }

    /// Drop a member's output stream.  Returns `true` when the member was
    /// registered.
    pub fn remove_member(&mut self, member: u64) -> bool {
        self.members.remove(&member).is_some()
    }

    /// Number of member queries sharing this state.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// True when no member remains (the group can be retired).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member ids, ascending.
    pub fn members(&self) -> impl Iterator<Item = u64> + '_ {
        self.members.keys().copied()
    }

    /// Windows emitted to `member` so far.
    pub fn windows_emitted(&self, member: u64) -> u64 {
        self.members.get(&member).map_or(0, |m| m.windows_emitted)
    }

    /// The shared local store (the absorb entry point: the caller folds the
    /// union of the members' selected rows into it, once per row).
    pub fn local_mut(&mut self) -> &mut WindowStore<A> {
        &mut self.local
    }

    /// The shared root-side store (the relay entry point: closed-window
    /// partials arriving at, or relayed through, the group's window root
    /// merge into it as refinements).
    pub fn root_mut(&mut self) -> &mut WindowStore<A> {
        &mut self.root
    }

    /// Non-root tick: drain every due window from both stores for shipment
    /// toward the group's root — **one** partial stream per group, however
    /// many members it serves.
    pub fn drain_closed(&mut self, now: SimTime) -> Vec<(WindowId, Vec<(String, A)>)> {
        let mut out = self.local.close_due(now);
        out.extend(self.root.close_due(now));
        out
    }

    /// Root tick, step 1: fold this node's own due windows into the
    /// retained root state.
    pub fn roll_up_local(&mut self, now: SimTime) {
        for (wid, groups) in self.local.close_due(now) {
            for (key, acc) in groups {
                self.root.accept_refinement(wid, &key, acc);
            }
        }
    }

    /// Root tick, step 2: snapshot every due window that changed (state is
    /// retained so late partials keep refining) and derive **each member's**
    /// rows from the shared groups via `derive(member, window, groups)`.
    /// Each member's [`DeltaTracker`] turns the derived rows into that
    /// member's snapshot or insert/retract stream; unchanged answers emit
    /// nothing.  Windows past the refinement horizon are retired from the
    /// shared store and from every tracker, bounding memory.
    pub fn emit_due(
        &mut self,
        now: SimTime,
        mut derive: impl FnMut(u64, WindowId, &[(String, A)]) -> Vec<R>,
    ) -> Vec<MemberEmission<R>> {
        let mut out = Vec::new();
        let mut emitted_max = None;
        for (wid, groups) in self.root.emit_due(now) {
            for (member, sink) in &mut self.members {
                let rows = derive(*member, wid, &groups);
                let deltas = sink.tracker.emit(wid, rows);
                if !deltas.is_empty() {
                    sink.windows_emitted += 1;
                    out.push(MemberEmission {
                        member: *member,
                        window: wid,
                        deltas,
                    });
                }
            }
            emitted_max = Some(emitted_max.unwrap_or(0u64).max(wid));
        }
        if let Some(newest) = emitted_max {
            let retain = self.retention_windows();
            if newest > retain {
                self.root.retire_before(newest - retain);
                for sink in self.members.values_mut() {
                    sink.tracker.retire(newest - retain - 1);
                }
            }
        }
        out
    }

    /// Windows kept for late refinement past their first emission.
    pub fn retention_windows(&self) -> u64 {
        self.window.windows_per_event() + 4
    }

    /// Open windows across both shared stores.
    pub fn open_windows(&self) -> usize {
        self.local.open_windows() + self.root.open_windows()
    }

    /// Groups held across both shared stores (the group's state footprint —
    /// crucially independent of the member count).
    pub fn total_groups(&self) -> usize {
        self.local.total_groups() + self.root.total_groups()
    }

    /// Activity counters of the two shared stores `(local, root)`.
    pub fn stats(&self) -> (WindowStats, WindowStats) {
        (self.local.stats(), self.root.stats())
    }

    /// Windows currently remembered across all member trackers.
    pub fn tracked_emissions(&self) -> usize {
        self.members
            .values()
            .map(|m| m.tracker.tracked_windows())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy mergeable count.
    #[derive(Debug, Clone, PartialEq)]
    struct Count(u64);

    impl WindowAccumulator for Count {
        fn merge(&mut self, other: &Self) {
            self.0 += other.0;
        }
    }

    fn shared() -> SharedWindowState<Count, (String, u64)> {
        SharedWindowState::new(WindowSpec::tumbling(10), CqBudget::default())
    }

    /// Derivation used by the tests: member `m` accepts only groups whose
    /// key starts with `g{m}` — a stand-in for "predicate over the group
    /// columns".
    fn derive_prefix(
        member: u64,
        _wid: WindowId,
        groups: &[(String, Count)],
    ) -> Vec<(String, u64)> {
        let prefix = format!("g{member}");
        let mut rows: Vec<(String, u64)> = groups
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(k, c)| (k.clone(), c.0))
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn one_store_serves_every_member_with_its_own_subset() {
        let mut s = shared();
        s.add_member(1, DeltaMode::Snapshot);
        s.add_member(2, DeltaMode::Snapshot);
        // The union stream: groups g1 and g2, 3 and 5 tuples in window 0.
        for _ in 0..3 {
            s.local_mut().push(1, "g1", None, || Count(0), |c| c.0 += 1);
        }
        for _ in 0..5 {
            s.local_mut().push(2, "g2", None, || Count(0), |c| c.0 += 1);
        }
        s.roll_up_local(50);
        let emissions = s.emit_due(50, derive_prefix);
        assert_eq!(emissions.len(), 2);
        for e in &emissions {
            assert_eq!(e.window, 0);
            assert_eq!(e.deltas.len(), 1);
            let expect = if e.member == 1 { 3 } else { 5 };
            match &e.deltas[0] {
                Delta::Insert((k, n)) => {
                    assert_eq!(k, &format!("g{}", e.member));
                    assert_eq!(*n, expect);
                }
                other => panic!("unexpected delta {other:?}"),
            }
        }
        // The state footprint is one store's worth, not one per member.
        assert_eq!(s.total_groups(), 2);
        assert_eq!(s.windows_emitted(1), 1);
        assert_eq!(s.windows_emitted(2), 1);
    }

    #[test]
    fn refinement_reemits_only_to_affected_members_and_deltas_retract() {
        let mut s: SharedWindowState<Count, (String, u64)> = shared();
        s.add_member(1, DeltaMode::Deltas);
        s.add_member(2, DeltaMode::Deltas);
        s.root_mut().accept_refinement(0, "g1a", Count(4));
        s.root_mut().accept_refinement(0, "g2a", Count(7));
        assert_eq!(s.emit_due(60, derive_prefix).len(), 2);
        // A late partial refines only member 1's group: member 2's tracker
        // stays silent, member 1 sees retract+insert.
        s.root_mut().accept_refinement(0, "g1a", Count(1));
        let refined = s.emit_due(70, derive_prefix);
        assert_eq!(refined.len(), 1);
        assert_eq!(refined[0].member, 1);
        assert_eq!(
            refined[0].deltas,
            vec![
                Delta::Retract(("g1a".to_string(), 4)),
                Delta::Insert(("g1a".to_string(), 5)),
            ]
        );
    }

    #[test]
    fn drain_closed_produces_one_partial_stream_for_the_group() {
        let mut s = shared();
        s.add_member(1, DeltaMode::Snapshot);
        s.add_member(2, DeltaMode::Snapshot);
        s.local_mut().push(3, "g1", None, || Count(0), |c| c.0 += 1);
        s.local_mut().push(4, "g2", None, || Count(0), |c| c.0 += 1);
        let drained = s.drain_closed(100);
        // One window, two groups — shipped once for the whole group, not
        // once per member.
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].1.len(), 2);
    }

    #[test]
    fn membership_changes_and_retirement_bound_state() {
        let mut s = shared();
        assert!(s.add_member(7, DeltaMode::Snapshot));
        assert!(!s.add_member(7, DeltaMode::Snapshot), "re-add is a renewal");
        // Stream through many windows; retirement keeps both the shared
        // store and the tracker bounded.
        for w in 0..200u64 {
            s.root_mut().accept_refinement(w, "g7", Count(1));
            s.emit_due(w * 10 + 25, derive_prefix);
        }
        let retain = s.retention_windows() as usize;
        assert!(s.root.open_windows() <= retain + 2);
        assert!(s.tracked_emissions() <= retain + 2);
        assert!(s.remove_member(7));
        assert!(!s.remove_member(7));
        assert!(s.is_empty());
        assert_eq!(s.member_count(), 0);
        assert_eq!(s.tracked_emissions(), 0, "no sink outlives its member");
    }
}
