//! The window state every member of one window engine shares.
//!
//! PIER's target of *thousands* of simultaneous continuous queries is only
//! reachable if near-identical queries — the network-monitoring case where
//! many users install the same windowed aggregate with different selection
//! constants — stop paying per-query state and per-query partial streams.
//! A [`SharedWindowState`] keeps exactly one local [`WindowStore`] and one
//! root-side [`WindowStore`] for a whole share group (instead of one pair
//! per member query); an unshared query is the same thing with one member.
//! Each member's per-window answer is derived *at flush time* from the
//! shared accumulators, by the caller: [`SharedWindowState::emit_due`] hands
//! every due window's groups out once, and the caller (`pier-core`'s window
//! engine) hands each member its groups — a constant-varied member's by one
//! key lookup per group, shared by all such members — and runs each
//! member's own [`DeltaTracker`](crate::DeltaTracker), so the marginal cost
//! of the (N+1)-th constant-varied query is an index entry, paid only in
//! windows it has rows in, not a window store.
//!
//! Sharing is sound when every member's residual predicate references only
//! the group's GROUP BY columns, because then a predicate is constant
//! within each group — a member's answer is exactly the subset of shared
//! groups its predicate accepts, with identical accumulator values
//! (`pier-mqo` enforces this eligibility during plan normalization).

use crate::lifecycle::CqBudget;
use crate::segment::{RehydrateReport, SegmentCodec, SegmentLog};
use crate::state::{Group, WindowAccumulator, WindowStats, WindowStore};
use crate::window::{WindowId, WindowSpec};
use pier_runtime::SimTime;

/// A single local/root [`WindowStore`] pair serving every member query of
/// one window engine.
#[derive(Debug)]
pub struct SharedWindowState<A> {
    window: WindowSpec,
    /// This node's share of the stream, drained toward the root each slide.
    local: WindowStore<A>,
    /// Partials combined at (or relayed toward) the window root; closes one
    /// slide after `local` so relayed partials can arrive.
    root: WindowStore<A>,
}

impl<A: WindowAccumulator> SharedWindowState<A> {
    /// Fresh state windowing by `window` under `budget`.
    pub fn new(window: WindowSpec, budget: CqBudget) -> Self {
        SharedWindowState {
            window,
            local: WindowStore::new(window, budget),
            root: WindowStore::new(window.with_grace(window.grace + window.slide), budget),
        }
    }

    /// The shared local store (the absorb entry point: the caller folds the
    /// union of the members' selected rows into it, once per row).
    pub fn local_mut(&mut self) -> &mut WindowStore<A> {
        &mut self.local
    }

    /// The shared root-side store (the relay entry point: closed-window
    /// partials arriving at, or relayed through, the window root merge into
    /// it as refinements).
    pub fn root_mut(&mut self) -> &mut WindowStore<A> {
        &mut self.root
    }

    /// Non-root tick: drain every due window from both stores for shipment
    /// toward the root — **one** partial stream, however many members the
    /// state serves — lending `visit` each window's groups in key order,
    /// the local store's windows first.
    pub fn drain_closed(&mut self, now: SimTime, mut visit: impl FnMut(WindowId, &[Group<'_, A>])) {
        self.local.close_due_with(now, &mut visit);
        self.root.close_due_with(now, &mut visit);
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

    /// Root tick, step 2: lend `emit` every due window that changed, its
    /// groups in key order (state is retained so late partials keep
    /// refining and re-emit), then retire windows past the refinement
    /// horizon from the root store, bounding memory.  Returns the window
    /// through which the caller's per-member trackers should retire too,
    /// when the horizon moved.
    pub fn emit_due(
        &mut self,
        now: SimTime,
        mut emit: impl FnMut(WindowId, &[Group<'_, A>]),
    ) -> Option<WindowId> {
        let mut newest = None;
        self.root.emit_due_with(now, |wid, groups| {
            emit(wid, groups);
            newest = Some(newest.unwrap_or(0u64).max(wid));
        });
        let retain = self.retention_windows();
        let horizon = newest?.checked_sub(retain).filter(|h| *h > 0)?;
        self.root.retire_before(horizon);
        Some(horizon - 1)
    }

    /// Windows kept for late refinement past their first emission (later
    /// partials for them are dropped).
    fn retention_windows(&self) -> u64 {
        self.window.windows_per_event() + 4
    }

    /// Open windows across both stores.
    pub fn open_windows(&self) -> usize {
        self.local.open_windows() + self.root.open_windows()
    }

    /// Groups held across both stores (the state footprint — crucially
    /// independent of the member count).
    pub fn total_groups(&self) -> usize {
        self.local.total_groups() + self.root.total_groups()
    }

    /// Activity counters of the two stores `(local, root)`.
    pub fn stats(&self) -> (WindowStats, WindowStats) {
        (self.local.stats(), self.root.stats())
    }

    /// Approximate resident bytes of both stores
    /// ([`WindowStore::approx_state_bytes`]).
    pub fn approx_state_bytes(&self, acc_bytes: &dyn Fn(&A) -> usize) -> usize {
        self.local.approx_state_bytes(acc_bytes) + self.root.approx_state_bytes(acc_bytes)
    }

    /// Append a snapshot of each store to its own log
    /// ([`WindowStore::write_segments`]).
    pub fn write_segments(&self, local: &mut SegmentLog, root: &mut SegmentLog)
    where
        A: SegmentCodec,
    {
        self.local.write_segments(local);
        self.root.write_segments(root);
    }

    /// Rebuild both stores from their logs (warm restart; a missing log
    /// leaves its store cold) and report what came back in total.
    pub fn rehydrate(
        &mut self,
        local: Option<&SegmentLog>,
        root: Option<&SegmentLog>,
    ) -> RehydrateReport
    where
        A: SegmentCodec,
    {
        let mut total = RehydrateReport::default();
        for (log, store) in [(local, &mut self.local), (root, &mut self.root)] {
            let Some(log) = log else { continue };
            let report = store.rehydrate_from(log);
            total.windows += report.windows;
            total.groups += report.groups;
            total.tuples += report.tuples;
            total.records += report.records;
            total.skipped += report.skipped;
            total.torn_tail |= report.torn_tail;
        }
        total
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

    impl SegmentCodec for Count {
        fn encode_state(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }

        fn decode_state(bytes: &[u8]) -> Option<Self> {
            Some(Count(u64::from_le_bytes(bytes.try_into().ok()?)))
        }
    }

    fn shared() -> SharedWindowState<Count> {
        SharedWindowState::new(WindowSpec::tumbling(10), CqBudget::default())
    }

    /// Every `(window, key, count)` an `emit_due` hands out.
    fn emitted(s: &mut SharedWindowState<Count>, now: SimTime) -> Vec<(WindowId, String, u64)> {
        let mut out = Vec::new();
        s.emit_due(now, |wid, groups| {
            out.extend(groups.iter().map(|g| (wid, g.key.to_string(), g.acc.0)));
        });
        out
    }

    /// Every `(window, key, count)` a `drain_closed` hands out.
    fn drained(s: &mut SharedWindowState<Count>, now: SimTime) -> Vec<(WindowId, String, u64)> {
        let mut out = Vec::new();
        s.drain_closed(now, |wid, groups| {
            out.extend(groups.iter().map(|g| (wid, g.key.to_string(), g.acc.0)));
        });
        out
    }

    #[test]
    fn one_store_hands_every_due_window_out_once_for_all_members() {
        let mut s = shared();
        // The union stream: groups g1 and g2, 3 and 5 tuples in window 0.
        for _ in 0..3 {
            s.local_mut().push(1, "g1", None, || Count(0), |c| c.0 += 1);
        }
        for _ in 0..5 {
            s.local_mut().push(2, "g2", None, || Count(0), |c| c.0 += 1);
        }
        s.roll_up_local(50);
        assert_eq!(
            emitted(&mut s, 50),
            [(0, "g1".to_string(), 3), (0, "g2".to_string(), 5)],
            "key order"
        );
        // The state footprint is one store's worth, and an unchanged window
        // is not handed out again.
        assert_eq!(s.total_groups(), 2);
        assert!(emitted(&mut s, 60).is_empty());
    }

    #[test]
    fn a_late_partial_reemits_the_retained_window_refined() {
        let mut s = shared();
        s.root_mut().accept_refinement(0, "g1a", Count(4));
        s.root_mut().accept_refinement(0, "g2a", Count(7));
        assert_eq!(emitted(&mut s, 60).len(), 2);
        s.root_mut().accept_refinement(0, "g1a", Count(1));
        assert_eq!(
            emitted(&mut s, 70),
            [(0, "g1a".to_string(), 5), (0, "g2a".to_string(), 7)]
        );
    }

    #[test]
    fn drain_closed_produces_one_partial_stream_for_the_group() {
        let mut s = shared();
        s.local_mut().push(3, "g1", None, || Count(0), |c| c.0 += 1);
        s.local_mut().push(4, "g2", None, || Count(0), |c| c.0 += 1);
        // One window, two groups — shipped once for the whole group, not
        // once per member.
        assert_eq!(
            drained(&mut s, 100),
            [(0, "g1".into(), 1), (0, "g2".into(), 1)]
        );
    }

    #[test]
    fn retirement_bounds_the_root_store_and_names_the_tracker_horizon() {
        let mut s = shared();
        let retain = s.retention_windows();
        assert_eq!(retain, 5, "tumbling: one window per event, plus four");
        for w in 0..200u64 {
            s.root_mut().accept_refinement(w, "g7", Count(1));
            let through = s.emit_due(w * 10 + 25, |_, _| {});
            assert_eq!(through, (w > retain).then(|| w - retain - 1));
            assert!(s.root.open_windows() <= retain as usize + 2);
        }
        // A retired window refuses even refinements.
        assert!(!s.root_mut().accept_refinement(100, "g7", Count(1)));
    }

    #[test]
    fn both_stores_persist_and_rehydrate_through_their_own_logs() {
        let mut s = shared();
        s.local_mut().push(3, "g1", None, || Count(0), |c| c.0 += 1);
        s.root_mut().accept_refinement(0, "g2", Count(7));
        let (mut local, mut root) = (SegmentLog::new(), SegmentLog::new());
        s.write_segments(&mut local, &mut root);
        let mut warm = shared();
        let report = warm.rehydrate(Some(&local), Some(&root));
        assert_eq!((report.windows, report.groups), (2, 2));
        let (mut local2, mut root2) = (SegmentLog::new(), SegmentLog::new());
        warm.write_segments(&mut local2, &mut root2);
        assert_eq!(local.as_bytes(), local2.as_bytes());
        assert_eq!(root.as_bytes(), root2.as_bytes());
        // A missing log leaves its store cold.
        let mut half = shared();
        assert_eq!(half.rehydrate(None, Some(&root)).windows, 1);
        assert_eq!(half.local.open_windows(), 0);
        assert_eq!(drained(&mut half, 1_000), drained(&mut s, 1_000)[1..]);
    }
}
