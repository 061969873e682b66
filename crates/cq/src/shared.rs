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
//! shared accumulators, by the caller: [`SharedWindowState::emit_due`] puts
//! every due window together from its panes and hands its groups out once,
//! and the caller (`pier-core`'s window
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
use std::cell::RefCell;

/// A single local/root [`WindowStore`] pair serving every member query of
/// one window engine.
///
/// Both stores hold tumbling **panes** of [`WindowSpec::pane`], not
/// windows: a row folds into the one pane it falls in, a closed pane is
/// shipped — and combined en route — once, and only the window root puts a
/// window together, from the panes it spans, when it emits.  Per-row work,
/// leaf and relay state and shipped partials are those of a tumbling
/// window of one pane, whatever the window/slide ratio.
///
/// Both stores close a pane with the first window ending at or after it,
/// at that window's end.  Away from the window root the partials a node's
/// children relay merge into its local store, so a relay ships each pane
/// once, its groups and its children's merged
/// ([`SharedWindowState::drain_closed`]); at the root they merge into the
/// retained root panes, and the root's own closed panes roll up into them
/// ([`SharedWindowState::roll_up_local`]).  How long a relay or root waits
/// for its children before it drains or emits is its caller's
/// (`pier-core`'s engines hold each round until the children heard last
/// round have shipped again, or half a slide).
#[derive(Debug)]
pub struct SharedWindowState<A> {
    window: WindowSpec,
    /// This node's share of the stream, one pane per `window.pane()`, and
    /// away from the root what its children relay: what this node ships.
    local: WindowStore<A>,
    /// Pane partials combined at the window root, retained for emission;
    /// away from the root, only what arrived while this node was the root,
    /// drained toward the new one.
    root: WindowStore<A>,
    /// The newest window that was due at an emission pass: the windows
    /// past it have never been put together here.
    emitted_through: Option<WindowId>,
    /// The root store's eviction count already turned into retirement.
    evicted: u64,
}

impl<A: WindowAccumulator> SharedWindowState<A> {
    /// Fresh state windowing by `window` under `budget` — a budget of
    /// panes: the caps apply to each pane and to the panes open at once.
    pub fn new(window: WindowSpec, budget: CqBudget) -> Self {
        let panes = WindowSpec::tumbling(window.pane());
        SharedWindowState {
            window,
            local: WindowStore::new(panes, budget),
            root: WindowStore::new(panes, budget),
            emitted_through: None,
            evicted: 0,
        }
    }

    /// Fold one row into the shared local store — the absorb entry point:
    /// the caller folds the union of the members' selected rows, once per
    /// row, into the pane of `event_time` (see [`WindowStore::push_with`]
    /// for `init` and `fold`).  A row whose pane has already closed here
    /// re-opens it as a refinement, shipped (or rolled up) at the next
    /// release like a late relayed partial, until the root retires the
    /// pane.
    pub fn fold_local(
        &mut self,
        event_time: SimTime,
        group_key: &str,
        init: impl Fn(bool) -> A,
        fold: impl FnMut(&mut A),
    ) {
        let pane = event_time / self.window.pane();
        if self.local.closed_through().is_some_and(|c| pane <= c) {
            let fold = RefCell::new(fold);
            self.local.refine_with(
                pane,
                group_key,
                |acc| (fold.borrow_mut())(acc),
                |new| {
                    let mut acc = init(new);
                    (fold.borrow_mut())(&mut acc);
                    acc
                },
            );
        } else {
            self.local
                .push_with(event_time, group_key, None, init, fold);
        }
    }

    /// The shared root-side store (the window root's entry point:
    /// closed-pane partials arriving at the root merge into it as
    /// refinements).
    pub fn root_mut(&mut self) -> &mut WindowStore<A> {
        &mut self.root
    }

    /// The local store (the relay entry point: closed-pane partials relayed
    /// through a node away from the root merge into it, an open pane in
    /// place, a drained one re-opened as a refinement).
    pub fn local_mut(&mut self) -> &mut WindowStore<A> {
        &mut self.local
    }

    /// Non-root release: drain every due pane for shipment toward the root
    /// — **one** partial stream, however many members the state serves and
    /// however many windows cover a pane, each pane once with this node's
    /// groups and its children's merged — lending `visit` each pane's
    /// groups in key order, oldest pane first.  A pane refined since it was
    /// drained (a late row or partial) drains again.  Then the panes this
    /// node retained while it was the window root, if any, so the new root
    /// gets them.
    pub fn drain_closed(&mut self, now: SimTime, mut visit: impl FnMut(WindowId, &[Group<'_, A>])) {
        if let Some(at) = self.closing_instant(now) {
            self.local.close_due_with(at, &mut visit);
            self.root.close_due_with(at, visit);
        }
    }

    /// Root release, step 1: fold this node's due panes — its own, and
    /// what it relayed before it was the root — into the retained root
    /// panes.
    pub fn roll_up_local(&mut self, now: SimTime) {
        let Some(at) = self.closing_instant(now) else {
            return;
        };
        for (pane, groups) in self.local.close_due(at) {
            for (key, acc) in groups {
                self.root.accept_refinement(pane, &key, acc);
            }
        }
    }

    /// The instant at which a pane store closes exactly the panes of the
    /// windows that have closed at `now`, the end of the last of them: a
    /// pane closes with the first window ending at or after it, so a store
    /// ships or rolls up at the instants — and in the bundles — a window
    /// store would, and its close horizon names the last window closed.
    fn closing_instant(&self, now: SimTime) -> Option<SimTime> {
        let window = self.window;
        Some(window.bounds(window.last_closable(now)?).1)
    }

    /// Root release, step 2: put together every due window that is new
    /// here or covers a pane refined since the last pass, and lend `emit`
    /// each non-empty one, oldest first, its groups merged across its panes
    /// in key order (panes are retained, so late partials keep refining and
    /// re-emit every retained window over them).  A window is due when its
    /// panes close, at its end; the caller rolls the local panes up first
    /// ([`SharedWindowState::roll_up_local`]).  Then retire
    /// the panes below the oldest window kept for refinement, bounding
    /// memory.  Returns the window through which the caller's per-member
    /// trackers should retire too, when the horizon moved.
    pub fn emit_due(
        &mut self,
        now: SimTime,
        mut emit: impl FnMut(WindowId, &[Group<'_, A>]),
    ) -> Option<WindowId>
    where
        A: Clone,
    {
        let window = self.window;
        let last = window.last_closable(now)?;
        // Panes the budget evicted leave every window over them short:
        // those retire, as if their horizon had passed.
        let evicted = self.root.stats().evicted_windows;
        let lost = evicted > self.evicted;
        if lost {
            self.evicted = evicted;
            if let Some(&oldest) = self.root.open_ids().first() {
                self.root.retire_before(oldest);
            }
        }
        let floor = self.first_retained();
        let fresh = self.emitted_through.map_or(0, |e| e + 1).max(floor);
        // Windows emitted before that cover a refined pane...
        let mut due: Vec<WindowId> = Vec::new();
        for pane in self.root.take_changed() {
            let covering = window.windows_containing(pane * window.pane());
            due.extend(covering.filter(|&w| w >= floor && w < fresh && w <= last));
        }
        // ...and the windows due for the first time, skipping those over no
        // pane at all.
        let mut w = fresh;
        while w <= last {
            let panes = window.panes_of(w);
            let held = self.root.open_ids();
            match held.get(held.partition_point(|&p| p < panes.start)) {
                None => break,
                Some(&p) if p >= panes.end => {
                    let first = window.windows_containing(p * window.pane()).next();
                    w = first.unwrap_or(w).max(w + 1);
                }
                Some(_) => {
                    due.push(w);
                    w += 1;
                }
            }
        }
        due.sort_unstable();
        due.dedup();
        let mut newest = None;
        for w in due {
            self.root.compose_with(window.panes_of(w), |groups| {
                emit(w, groups);
                newest = Some(w);
            });
        }
        self.emitted_through = self.emitted_through.max(Some(last));
        let retain = self.retention_windows();
        let horizon = newest.and_then(|n: WindowId| n.checked_sub(retain));
        let horizon = horizon.filter(|h| *h > 0);
        if let Some(horizon) = horizon {
            self.root.retire_before(window.panes_of(horizon).start);
        }
        let through = horizon.map(|h| h - 1);
        if lost {
            return through.max(self.first_retained().checked_sub(1));
        }
        through
    }

    /// Put every pane held here together — the local store's, open or
    /// closed, rolled up into the root's first — and lend `visit` the
    /// groups merged across all of them, in key order: a one-shot
    /// aggregate's answer at its root, where nothing retires.  `visit` is
    /// not called when no pane holds a group.
    pub fn compose_all(&mut self, visit: impl FnOnce(&[Group<'_, A>]))
    where
        A: Clone,
    {
        self.roll_up_local(SimTime::MAX);
        self.root.compose_with(0..WindowId::MAX, visit);
    }

    /// Windows kept for late refinement past the newest emitted one (later
    /// partials for them are dropped); the root holds their panes.
    fn retention_windows(&self) -> u64 {
        self.window.windows_per_event() + 4
    }

    /// The oldest window whose panes the root still holds in full.
    fn first_retained(&self) -> WindowId {
        let held_from = self.root.retired_through().map_or(0, |r| r + 1);
        (held_from * self.window.pane()).div_ceil(self.window.slide)
    }

    /// Open panes across both stores.
    pub fn open_windows(&self) -> usize {
        self.local.open_windows() + self.root.open_windows()
    }

    /// Groups held across both stores' panes (the state footprint —
    /// crucially independent of the member count).
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
    /// leaves its store cold) and report what came back in total.  The
    /// local store's close horizon names the last window closed here, and
    /// so the last one a root put together: a restarted root neither puts
    /// it together again nor skips the one after it.
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
        // Both stores close at the same instants, and a root emits at the
        // release that rolls its local panes up: closed through window `c`
        // here means emitted through `c`.
        let window = self.window;
        let closed_end = self.local.closed_through().map(|p| (p + 1) * window.pane());
        let closed = closed_end.and_then(|end| end.checked_sub(window.size));
        let emitted = closed.map(|start| start / window.slide);
        self.emitted_through = self.emitted_through.max(emitted);
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
            s.fold_local(1, "g1", |_| Count(0), |c| c.0 += 1);
        }
        for _ in 0..5 {
            s.fold_local(2, "g2", |_| Count(0), |c| c.0 += 1);
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
        s.fold_local(3, "g1", |_| Count(0), |c| c.0 += 1);
        s.fold_local(4, "g2", |_| Count(0), |c| c.0 += 1);
        // One window, two groups — shipped once for the whole group, not
        // once per member.
        assert_eq!(
            drained(&mut s, 100),
            [(0, "g1".into(), 1), (0, "g2".into(), 1)]
        );
    }

    /// A pane ships its groups in key order whatever order they entered
    /// in: the chunk codec front-codes a shipment's group column, so each
    /// key costs only what it does not share with the key before.
    #[test]
    fn a_pane_drains_its_groups_in_key_order_whatever_order_they_entered() {
        let mut s = shared();
        let mut keys: Vec<String> = (0..300).map(|i| format!("10.0.{}.{}", i / 50, i)).collect();
        keys.sort();
        for key in keys.iter().rev() {
            s.fold_local(3, key, |_| Count(0), |c| c.0 += 1);
        }
        // A child's partial for a key between two of this node's.
        s.local_mut().accept_refinement(0, "10.0.2.1000", Count(5));
        keys.push("10.0.2.1000".into());
        keys.sort();
        let order: Vec<String> = drained(&mut s, 100)
            .into_iter()
            .map(|(_, k, _)| k)
            .collect();
        assert_eq!(order, keys);
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
    fn a_pane_ships_with_the_first_window_that_covers_it() {
        // 2 / 1: panes of 1 tile windows [w, w + 2).  Pane 0 ends before
        // any window does, so it waits for window 0 and ships with pane 1.
        let mut s = SharedWindowState::new(WindowSpec::sliding(2, 1), CqBudget::default());
        s.fold_local(0, "a", |_| Count(0), |c| c.0 += 1);
        s.fold_local(1, "a", |_| Count(0), |c| c.0 += 1);
        assert!(drained(&mut s, 1).is_empty());
        assert_eq!(drained(&mut s, 2), [(0, "a".into(), 1), (1, "a".into(), 1)]);
        // 5 / 2: panes of 1, windows end at odd instants; a slide closes two
        // panes at a time, in one bundle.
        let mut s = SharedWindowState::new(WindowSpec::sliding(5, 2), CqBudget::default());
        for t in 0..8 {
            s.fold_local(t, "a", |_| Count(0), |c| c.0 += 1);
        }
        let panes = |out: Vec<(WindowId, String, u64)>| -> Vec<WindowId> {
            out.into_iter().map(|(pane, _, _)| pane).collect()
        };
        assert_eq!(panes(drained(&mut s, 6)), [0, 1, 2, 3, 4]);
        assert_eq!(panes(drained(&mut s, 7)), [5, 6]);
    }

    #[test]
    fn panes_the_budget_evicts_retire_every_window_over_them() {
        // 3 / 1 at the root under a cap of four open panes: refining panes
        // 0..7 evicts 0..3, so windows 0..3 (each over one of them) would
        // come out short — they retire instead, and the trackers with them.
        let budget = CqBudget {
            max_open_windows: 4,
            ..CqBudget::default()
        };
        let mut s = SharedWindowState::new(WindowSpec::sliding(3, 1), budget);
        for pane in 0..8 {
            s.root_mut().accept_refinement(pane, "a", Count(1));
        }
        assert_eq!(s.root.stats().evicted_windows, 4);
        let mut windows = Vec::new();
        let through = s.emit_due(20, |w, groups| windows.push((w, groups[0].acc.0)));
        assert_eq!(windows, [(4, 3), (5, 3), (6, 2), (7, 1)]);
        assert_eq!(through, Some(3));
        // Refinements of what retired are refused.
        assert!(!s.root_mut().accept_refinement(3, "a", Count(1)));
    }

    #[test]
    fn compose_all_merges_every_pane_held_open_ones_included() {
        let mut s = shared();
        s.fold_local(3, "a", |_| Count(0), |c| c.0 += 1);
        s.roll_up_local(10); // pane 0 closes here and rolls up
        s.fold_local(15, "a", |_| Count(0), |c| c.0 += 1); // still open
        s.fold_local(16, "b", |_| Count(0), |c| c.0 += 1);
        s.root_mut().accept_refinement(4, "a", Count(5)); // relayed
        let mut out = Vec::new();
        s.compose_all(|groups| {
            out.extend(groups.iter().map(|g| (g.key.to_string(), g.acc.0)));
        });
        assert_eq!(out, [("a".to_string(), 7), ("b".to_string(), 1)]);
    }

    #[test]
    fn a_restarted_root_neither_reemits_nor_skips_the_last_window_it_emitted() {
        // 20 / 10: window w closes, and is due, at 10 w + 20.
        let window = WindowSpec::sliding(20, 10);
        let release = |s: &mut SharedWindowState<Count>, now| -> Vec<(WindowId, u64)> {
            s.roll_up_local(now);
            let out = emitted(s, now).into_iter();
            out.map(|(w, _, n)| (w, n)).collect()
        };
        let mut s = SharedWindowState::new(window, CqBudget::default());
        for t in [3, 13, 23, 33] {
            s.fold_local(t, "a", |_| Count(0), |c| c.0 += 1);
        }
        assert_eq!(release(&mut s, 30), [(0, 2), (1, 2)]);
        let (mut local, mut root) = (SegmentLog::new(), SegmentLog::new());
        s.write_segments(&mut local, &mut root);
        let mut warm = SharedWindowState::new(window, CqBudget::default());
        warm.rehydrate(Some(&local), Some(&root));
        // Window 1 was emitted: not again...
        assert!(release(&mut warm, 30).is_empty());
        // ...and window 2 is emitted at its close, as by the root that ran on.
        assert_eq!(release(&mut s, 40), [(2, 2)]);
        assert_eq!(release(&mut warm, 40), [(2, 2)]);
    }

    #[test]
    fn both_stores_persist_and_rehydrate_through_their_own_logs() {
        let mut s = shared();
        s.fold_local(3, "g1", |_| Count(0), |c| c.0 += 1);
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
