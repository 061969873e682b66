//! Per-node window state: grouped accumulators with budgets and eviction.
//!
//! A [`WindowStore`] holds, for every *open* window, a map from group key to
//! an accumulator plus an optional window-scoped duplicate-elimination set.
//! Closing a window **drains** it: the caller receives the accumulated
//! groups and the store forgets the window, so state never outlives the
//! windows it belongs to.  Partial state relayed from other nodes merges
//! into the same structure order-insensitively (the accumulator contract
//! requires commutative, associative `merge`).
//!
//! Unbounded state is the cardinal sin of long-running queries on shared
//! nodes, so every store enforces a [`CqBudget`]: tuples beyond the
//! per-window work budget and groups beyond the per-window state budget are
//! *shed* (dropped and counted) rather than stored, and the number of
//! simultaneously open windows is capped by evicting the oldest.
//!
//! Group and dedup keys are borrowed canonical strings produced by the
//! executor's resolved-column fast path (`pier_core::tuple::ColumnResolver`
//! over interned schemas); the store only copies a key when it actually
//! creates state for it, so the per-tuple path allocates nothing for
//! already-seen groups and duplicates.

use crate::lifecycle::CqBudget;
use crate::segment::{RehydrateReport, SegmentCodec, SegmentLog, SegmentRecord, WindowSegment};
use crate::window::{WindowId, WindowSpec};
use pier_runtime::SimTime;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Debug;

/// Mergeable per-group accumulator state (the contract `pier-core`'s
/// aggregate partials satisfy): `merge` must be commutative and associative
/// so relayed partials can arrive in any order.
pub trait WindowAccumulator: Debug {
    /// Fold another partial of the same shape into this one.
    fn merge(&mut self, other: &Self);
}

/// State of one open window.
#[derive(Debug)]
struct OpenWindow<A> {
    /// Group key → accumulator.
    groups: HashMap<String, A>,
    /// Window-scoped duplicate-elimination keys.
    seen: HashSet<String>,
    /// Tuples folded into this window at this node.
    tuples: u64,
    /// Changed since the last [`WindowStore::emit_due`] snapshot.
    dirty: bool,
}

impl<A> Default for OpenWindow<A> {
    fn default() -> Self {
        OpenWindow {
            groups: HashMap::new(),
            seen: HashSet::new(),
            tuples: 0,
            dirty: false,
        }
    }
}

/// Counters describing a store's activity (exposed for tests, budgeting
/// decisions and the bench harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Tuples accepted into some window.
    pub accepted: u64,
    /// Tuples dropped by the per-window work budget.
    pub shed_tuples: u64,
    /// Groups refused by the per-window state budget.
    pub shed_groups: u64,
    /// Tuples suppressed by window-scoped duplicate elimination.
    pub duplicates: u64,
    /// Windows evicted to respect the open-window cap.
    pub evicted_windows: u64,
    /// Windows closed (drained) normally.
    pub closed_windows: u64,
    /// Tuples rejected because their window was already closed (late data).
    pub late_tuples: u64,
}

/// Window-scoped grouped state for one continuous query at one node.
#[derive(Debug)]
pub struct WindowStore<A> {
    spec: WindowSpec,
    budget: CqBudget,
    /// Open windows, ordered so the oldest evicts first.
    windows: BTreeMap<WindowId, OpenWindow<A>>,
    /// Everything at or below this id has been closed; late tuples for those
    /// windows are dropped (and counted) instead of resurrecting state.
    closed_through: Option<WindowId>,
    /// Everything at or below this id has been *retired*: even refinements
    /// ([`WindowStore::accept_refinement`]) are refused, so memory stays
    /// bounded no matter how late a partial straggles in.
    retired_through: Option<WindowId>,
    stats: WindowStats,
}

impl<A: WindowAccumulator> WindowStore<A> {
    /// An empty store for `spec` under `budget`.
    pub fn new(spec: WindowSpec, budget: CqBudget) -> Self {
        WindowStore {
            spec,
            budget,
            windows: BTreeMap::new(),
            closed_through: None,
            retired_through: None,
            stats: WindowStats::default(),
        }
    }

    /// The window specification.
    pub fn spec(&self) -> &WindowSpec {
        &self.spec
    }

    /// Activity counters.
    pub fn stats(&self) -> WindowStats {
        self.stats
    }

    /// Number of currently open windows.
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// Total groups across all open windows (the node's state footprint).
    pub fn total_groups(&self) -> usize {
        self.windows.values().map(|w| w.groups.len()).sum()
    }

    /// Approximate resident bytes of the open-window state: group keys,
    /// accumulators (sized by the caller-supplied estimator), the
    /// window-scoped dedup set, plus a fixed per-entry container overhead.
    /// This is the measured counterpart of the static analyzer's
    /// worst-case state-bytes bound (gauge `cq.state_bytes`).
    pub fn approx_state_bytes(&self, acc_bytes: &dyn Fn(&A) -> usize) -> usize {
        const ENTRY_OVERHEAD: usize = 48; // hash bucket + String header
        self.windows
            .values()
            .map(|w| {
                let groups: usize = w
                    .groups
                    .iter()
                    .map(|(k, a)| k.len() + acc_bytes(a) + ENTRY_OVERHEAD)
                    .sum();
                let seen: usize = w.seen.iter().map(|k| k.len() + ENTRY_OVERHEAD).sum();
                groups + seen + std::mem::size_of::<OpenWindow<A>>()
            })
            .sum()
    }

    /// Fold one tuple with event time `event_time` into every window that
    /// covers it.  `dedup_key` (when given) suppresses duplicates *within
    /// each window*; `group_key` selects the accumulator; `init` creates a
    /// fresh accumulator and `fold` updates it.
    pub fn push(
        &mut self,
        event_time: SimTime,
        group_key: &str,
        dedup_key: Option<&str>,
        init: impl Fn() -> A,
        mut fold: impl FnMut(&mut A),
    ) {
        for id in self.spec.windows_containing(event_time) {
            if self.closed_through.is_some_and(|c| id <= c) {
                self.stats.late_tuples += 1;
                continue;
            }
            self.ensure_window(id);
            let Some(win) = self.windows.get_mut(&id) else {
                continue; // evicted by the cap (id was the oldest)
            };
            if let Some(dk) = dedup_key {
                // Membership test first: the common duplicate case must not
                // pay for an owned copy of the key.
                if win.seen.contains(dk) {
                    self.stats.duplicates += 1;
                    continue;
                }
                win.seen.insert(dk.to_string());
            }
            if win.tuples >= self.budget.max_tuples_per_window {
                self.stats.shed_tuples += 1;
                continue;
            }
            let at_capacity = win.groups.len() >= self.budget.max_groups_per_window as usize;
            match win.groups.get_mut(group_key) {
                Some(acc) => {
                    fold(acc);
                    win.tuples += 1;
                    win.dirty = true;
                    self.stats.accepted += 1;
                }
                None if at_capacity => self.stats.shed_groups += 1,
                None => {
                    let mut acc = init();
                    fold(&mut acc);
                    win.groups.insert(group_key.to_string(), acc);
                    win.tuples += 1;
                    win.dirty = true;
                    self.stats.accepted += 1;
                }
            }
        }
    }

    /// Merge a relayed partial accumulator for (`id`, `group_key`) into the
    /// store (the in-network combine step).  Order-insensitive by the
    /// accumulator contract.  Returns `false` when the window was already
    /// closed here (the partial is late) or was refused by the budget.
    pub fn merge_partial(&mut self, id: WindowId, group_key: &str, partial: A) -> bool {
        if self.closed_through.is_some_and(|c| id <= c) {
            self.stats.late_tuples += 1;
            return false;
        }
        self.accept_refinement(id, group_key, partial)
    }

    /// [`WindowStore::accept_refinement_with`] for an already-built partial.
    pub fn accept_refinement(&mut self, id: WindowId, group_key: &str, partial: A) -> bool {
        // Exactly one of the two closures runs; the cell lets either take
        // the partial.
        let partial = Cell::new(Some(partial));
        let take = || partial.take().expect("hit and make are exclusive");
        self.accept_refinement_with(id, group_key, |acc| acc.merge(&take()), &take)
    }

    /// Fold a relayed partial for (`id`, `group_key`) into the store: `hit`
    /// merges it into the group's accumulator in place, `make` builds the
    /// accumulator of a group this window has not seen — so the common case,
    /// a partial for a known group, allocates nothing.  A window that was
    /// already drained here re-opens for the refinement (relay nodes must
    /// forward refinements up the tree, and the next close drains the entry
    /// again; a re-opened window is not held to the group budget); the
    /// caller takes responsibility for not double-counting.  Returns `false`
    /// — having run neither closure — when the window is retired or was
    /// refused by the budget.
    pub fn accept_refinement_with(
        &mut self,
        id: WindowId,
        group_key: &str,
        hit: impl FnOnce(&mut A),
        make: impl FnOnce() -> A,
    ) -> bool {
        if self.retired_through.is_some_and(|r| id <= r) {
            self.stats.late_tuples += 1;
            return false;
        }
        let reopened = self.closed_through.is_some_and(|c| id <= c);
        self.ensure_window(id);
        let Some(win) = self.windows.get_mut(&id) else {
            return false; // evicted by the cap (id was the oldest)
        };
        let at_capacity =
            !reopened && win.groups.len() >= self.budget.max_groups_per_window as usize;
        match win.groups.get_mut(group_key) {
            Some(acc) => hit(acc),
            None if at_capacity => {
                self.stats.shed_groups += 1;
                return false;
            }
            None => {
                win.groups.insert(group_key.to_string(), make());
            }
        }
        win.dirty = true;
        true
    }

    /// Close (drain) every window whose close time has passed at `now`,
    /// oldest first.  Returns `(window_id, groups)` pairs; the store forgets
    /// the drained windows.
    pub fn close_due(&mut self, now: SimTime) -> Vec<(WindowId, Vec<(String, A)>)> {
        let Some(last) = self.spec.last_closable(now) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let due: Vec<WindowId> = self.windows.range(..=last).map(|(id, _)| *id).collect();
        for id in due {
            if let Some(win) = self.windows.remove(&id) {
                if !win.groups.is_empty() {
                    // Drain in key order: group order feeds message order,
                    // and equal-seed runs must replay byte-for-byte.  Map
                    // keys are unique, so the unstable sort (no scratch
                    // buffer) yields the one possible order.
                    let mut groups: Vec<(String, A)> = win.groups.into_iter().collect();
                    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                    out.push((id, groups));
                }
                self.stats.closed_windows += 1;
            }
        }
        // Advance the late-data horizon even for windows that never opened.
        self.closed_through = Some(self.closed_through.map_or(last, |c| c.max(last)));
        out
    }

    /// Snapshot every due window that changed since its last snapshot,
    /// **retaining** the state so late partials can still merge and trigger
    /// a refined re-emission.  This is the root-side counterpart of
    /// [`WindowStore::close_due`] (which drains — right for nodes that
    /// forward partials and must not re-send).  Pair with
    /// [`WindowStore::retire_before`] to bound memory.
    pub fn emit_due(&mut self, now: SimTime) -> Vec<(WindowId, Vec<(String, A)>)>
    where
        A: Clone,
    {
        let Some(last) = self.spec.last_closable(now) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (&id, win) in self.windows.range_mut(..=last) {
            if win.dirty && !win.groups.is_empty() {
                win.dirty = false;
                // Snapshot in key order (see close_due): deterministic
                // emission order regardless of hash seeding.
                let mut groups: Vec<(String, A)> = win
                    .groups
                    .iter()
                    .map(|(k, a)| (k.clone(), a.clone()))
                    .collect();
                groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                out.push((id, groups));
            }
        }
        out
    }

    /// Drop every window strictly below `horizon` and refuse future state
    /// for them (the refinement horizon has passed).  Bounds the memory of
    /// an emit-and-retain store.
    pub fn retire_before(&mut self, horizon: WindowId) {
        if horizon == 0 {
            return;
        }
        self.windows = self.windows.split_off(&horizon);
        let through = horizon - 1;
        self.closed_through = Some(self.closed_through.map_or(through, |c| c.max(through)));
        self.retired_through = Some(self.retired_through.map_or(through, |c| c.max(through)));
    }

    /// Append a snapshot of every open window (plus the close/retire
    /// horizons) to `log`.  Groups and dedup keys are written in sorted
    /// order, so equal states always produce equal bytes.
    pub fn write_segments(&self, log: &mut SegmentLog)
    where
        A: SegmentCodec,
    {
        for (&id, win) in &self.windows {
            let mut groups: Vec<(String, Vec<u8>)> = win
                .groups
                .iter()
                .map(|(k, a)| {
                    let mut state = Vec::new();
                    a.encode_state(&mut state);
                    (k.clone(), state)
                })
                .collect();
            groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let mut seen: Vec<String> = win.seen.iter().cloned().collect();
            seen.sort();
            log.append(&SegmentRecord::Window(WindowSegment {
                id,
                tuples: win.tuples,
                dirty: win.dirty,
                groups,
                seen,
            }));
        }
        log.append(&SegmentRecord::Watermark {
            closed_through: self.closed_through,
            retired_through: self.retired_through,
        });
    }

    /// Rebuild open-window state from a segment log (warm restart).  Later
    /// snapshots of a window supersede earlier ones; snapshots of windows
    /// the log's own watermark says were closed or retired are skipped —
    /// re-opening a drained window would double-count downstream.  A torn
    /// tail is ignored (only the clean prefix rehydrates).
    pub fn rehydrate_from(&mut self, log: &SegmentLog) -> RehydrateReport
    where
        A: SegmentCodec,
    {
        let scan = log.scan();
        let mut report = RehydrateReport {
            records: scan.records.len(),
            torn_tail: scan.torn_tail,
            ..RehydrateReport::default()
        };
        let mut restored: BTreeMap<WindowId, WindowSegment> = BTreeMap::new();
        for rec in scan.records {
            match rec {
                SegmentRecord::Window(seg) => {
                    restored.insert(seg.id, seg);
                }
                SegmentRecord::Watermark {
                    closed_through,
                    retired_through,
                } => {
                    if let Some(c) = closed_through {
                        self.closed_through = Some(self.closed_through.map_or(c, |cur| cur.max(c)));
                    }
                    if let Some(r) = retired_through {
                        self.retired_through =
                            Some(self.retired_through.map_or(r, |cur| cur.max(r)));
                    }
                }
            }
        }
        for (id, seg) in restored {
            let closed = self.closed_through.is_some_and(|c| id <= c);
            let retired = self.retired_through.is_some_and(|r| id <= r);
            if closed || retired {
                report.skipped += 1;
                continue;
            }
            let mut win = OpenWindow {
                groups: HashMap::new(),
                seen: HashSet::new(),
                tuples: seg.tuples,
                dirty: seg.dirty,
            };
            for (key, state) in seg.groups {
                match A::decode_state(&state) {
                    Some(acc) => {
                        win.groups.insert(key, acc);
                    }
                    None => {
                        report.skipped += 1;
                    }
                }
            }
            win.seen.extend(seg.seen);
            report.windows += 1;
            report.groups += win.groups.len();
            report.tuples += win.tuples;
            self.windows.insert(id, win);
        }
        report
    }

    /// Open window `id` if it is not, evicting the oldest to respect the cap.
    fn ensure_window(&mut self, id: WindowId) {
        if self.windows.contains_key(&id) {
            return;
        }
        while self.windows.len() >= self.budget.max_open_windows as usize {
            // Evict the oldest window to stay within the cap; if the new
            // window *is* the oldest, refuse it instead.
            let oldest = *self.windows.keys().next().expect("non-empty");
            if oldest > id {
                return;
            }
            self.windows.remove(&oldest);
            self.stats.evicted_windows += 1;
        }
        self.windows.insert(id, OpenWindow::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowSpec;

    /// A toy mergeable count.
    #[derive(Debug, Clone, PartialEq)]
    struct Count(u64);

    impl WindowAccumulator for Count {
        fn merge(&mut self, other: &Self) {
            self.0 += other.0;
        }
    }

    fn store(spec: WindowSpec, budget: CqBudget) -> WindowStore<Count> {
        WindowStore::new(spec, budget)
    }

    #[test]
    fn push_and_close_counts_per_window() {
        let mut s = store(WindowSpec::tumbling(10), CqBudget::default());
        for t in 0..25u64 {
            s.push(t, "g", None, || Count(0), |c| c.0 += 1);
        }
        // At t=25 only windows 0 ([0,10)) and 1 ([10,20)) are closable.
        let closed = s.close_due(25);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].0, 0);
        assert_eq!(closed[0].1[0].1, Count(10));
        assert_eq!(closed[1].1[0].1, Count(10));
        // Window 2 (t=20..25 so far) still open.
        assert_eq!(s.open_windows(), 1);
    }

    #[test]
    fn dedup_is_window_scoped() {
        let mut s = store(WindowSpec::tumbling(10), CqBudget::default());
        // Same dedup key in two different windows: counted once per window.
        for t in [1u64, 2, 3, 11, 12] {
            s.push(t, "g", Some("dup"), || Count(0), |c| c.0 += 1);
        }
        let closed = s.close_due(100);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].1[0].1, Count(1));
        assert_eq!(closed[1].1[0].1, Count(1));
        assert_eq!(s.stats().duplicates, 3);
    }

    #[test]
    fn budgets_shed_instead_of_growing() {
        let budget = CqBudget {
            max_open_windows: 2,
            max_groups_per_window: 3,
            max_tuples_per_window: 5,
        };
        let mut s = store(WindowSpec::tumbling(10), budget);
        // 10 distinct groups in window 0: only 3 stored.
        for g in 0..10 {
            s.push(1, &format!("g{g}"), None, || Count(0), |c| c.0 += 1);
        }
        assert_eq!(s.total_groups(), 3);
        assert_eq!(s.stats().shed_groups, 7);
        // Work budget: max 5 tuples per window (3 already accepted).
        for _ in 0..10 {
            s.push(2, "g0", None, || Count(0), |c| c.0 += 1);
        }
        assert_eq!(s.stats().shed_tuples, 8);
        // Open-window cap: touching windows 0,1,2 evicts the oldest.
        s.push(11, "g", None, || Count(0), |c| c.0 += 1);
        s.push(21, "g", None, || Count(0), |c| c.0 += 1);
        assert_eq!(s.open_windows(), 2);
        assert_eq!(s.stats().evicted_windows, 1);
    }

    #[test]
    fn merge_partial_is_order_insensitive() {
        let spec = WindowSpec::sliding(20, 10);
        let parts = [
            (3u64, "a", Count(5)),
            (3, "b", Count(2)),
            (3, "a", Count(7)),
            (4, "a", Count(1)),
        ];
        let mut fwd = store(spec, CqBudget::default());
        let mut rev = store(spec, CqBudget::default());
        for (id, g, c) in &parts {
            fwd.merge_partial(*id, g, c.clone());
        }
        for (id, g, c) in parts.iter().rev() {
            rev.merge_partial(*id, g, c.clone());
        }
        let norm = |mut v: Vec<(WindowId, Vec<(String, Count)>)>| {
            for (_, groups) in &mut v {
                groups.sort_by(|a, b| a.0.cmp(&b.0));
            }
            v
        };
        assert_eq!(norm(fwd.close_due(1_000)), norm(rev.close_due(1_000)));
    }

    #[test]
    fn refinement_hits_merge_in_place_and_only_misses_build() {
        let budget = CqBudget {
            max_groups_per_window: 1,
            ..CqBudget::default()
        };
        let mut s = store(WindowSpec::tumbling(10), budget);
        let built = Cell::new(0u32);
        let refine = |s: &mut WindowStore<Count>, id, key: &str, n| {
            s.accept_refinement_with(
                id,
                key,
                |acc| acc.0 += n,
                || {
                    built.set(built.get() + 1);
                    Count(n)
                },
            )
        };
        assert!(refine(&mut s, 0, "a", 2));
        assert!(refine(&mut s, 0, "a", 3), "a hit merges");
        assert_eq!(built.get(), 1, "and builds nothing");
        // The group budget refuses a second group without running either
        // closure.
        assert!(!refine(&mut s, 0, "b", 7));
        assert_eq!((built.get(), s.stats().shed_groups), (1, 1));
        assert_eq!(s.close_due(50), [(0, vec![("a".to_string(), Count(5))])]);
        // A drained window re-opens for refinements, past the group budget
        // (the next close drains it again) ...
        assert!(refine(&mut s, 0, "a", 1) && refine(&mut s, 0, "b", 1));
        assert_eq!(s.close_due(60)[0].1.len(), 2);
        // ... but not for `merge_partial`, and not once retired.
        assert!(!s.merge_partial(0, "a", Count(1)));
        s.retire_before(1);
        assert!(!refine(&mut s, 0, "a", 1));
        assert_eq!(s.stats().late_tuples, 2);
        assert_eq!(built.get(), 3);
        assert_eq!(s.open_windows(), 0);
    }

    #[test]
    fn late_data_after_close_is_dropped_and_counted() {
        let mut s = store(WindowSpec::tumbling(10), CqBudget::default());
        s.push(5, "g", None, || Count(0), |c| c.0 += 1);
        assert_eq!(s.close_due(50).len(), 1);
        s.push(5, "g", None, || Count(0), |c| c.0 += 1);
        assert_eq!(s.open_windows(), 0, "late tuple must not reopen state");
        assert_eq!(s.stats().late_tuples, 1);
    }

    impl crate::segment::SegmentCodec for Count {
        fn encode_state(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode_state(bytes: &[u8]) -> Option<Self> {
            Some(Count(u64::from_le_bytes(bytes.try_into().ok()?)))
        }
    }

    #[test]
    fn segments_round_trip_windows_byte_for_byte() {
        let mut s = store(WindowSpec::sliding(20, 10), CqBudget::default());
        for t in 0..35u64 {
            s.push(
                t,
                &format!("g{}", t % 3),
                Some(&format!("d{t}")),
                || Count(0),
                |c| {
                    c.0 += 1;
                },
            );
        }
        s.close_due(25); // advance closed_through so the watermark is real
        let mut log = crate::segment::SegmentLog::new();
        s.write_segments(&mut log);

        let mut warm = store(WindowSpec::sliding(20, 10), CqBudget::default());
        let report = warm.rehydrate_from(&log);
        assert!(!report.torn_tail);
        assert!(report.windows > 0 && report.groups > 0);
        assert_eq!(warm.open_windows(), s.open_windows());
        assert_eq!(warm.total_groups(), s.total_groups());

        // Byte-for-byte: re-encoding the rehydrated store matches exactly.
        let mut relog = crate::segment::SegmentLog::new();
        warm.write_segments(&mut relog);
        assert_eq!(relog.as_bytes(), log.as_bytes());

        // The rehydrated store behaves identically from here on.
        assert_eq!(
            {
                let mut v = warm.close_due(1_000);
                v.iter_mut()
                    .for_each(|(_, g)| g.sort_by(|a, b| a.0.cmp(&b.0)));
                v
            },
            {
                let mut v = s.close_due(1_000);
                v.iter_mut()
                    .for_each(|(_, g)| g.sort_by(|a, b| a.0.cmp(&b.0)));
                v
            }
        );
    }

    #[test]
    fn rehydrate_skips_closed_windows_and_torn_tails() {
        let mut s = store(WindowSpec::tumbling(10), CqBudget::default());
        s.push(5, "g", None, || Count(0), |c| c.0 += 1);
        s.push(15, "g", None, || Count(0), |c| c.0 += 1);
        let mut log = crate::segment::SegmentLog::new();
        s.write_segments(&mut log); // snapshot with both windows open
        s.close_due(25); // both now closed
        s.write_segments(&mut log); // second snapshot: watermark closed_through=1

        let mut warm = store(WindowSpec::tumbling(10), CqBudget::default());
        let report = warm.rehydrate_from(&log);
        assert_eq!(report.windows, 0, "all snapshotted windows were closed");
        assert_eq!(report.skipped, 2);
        assert_eq!(warm.open_windows(), 0);

        // A torn tail hides the second watermark: the first snapshot's
        // windows rehydrate, the damage is reported.
        log.tear_tail(7);
        let mut warm2 = store(WindowSpec::tumbling(10), CqBudget::default());
        let report2 = warm2.rehydrate_from(&log);
        assert!(report2.torn_tail);
        assert!(report2.windows > 0);
    }

    #[test]
    fn thousand_windows_leave_no_residue() {
        // The memory-bound property: stream through 1k tumbling windows,
        // closing as we go; open state stays tiny and closed state is gone.
        let mut s = store(WindowSpec::tumbling(10), CqBudget::default());
        let mut closed = 0usize;
        for t in 0..10_000u64 {
            s.push(t, &format!("g{}", t % 4), None, || Count(0), |c| c.0 += 1);
            if t % 100 == 0 {
                closed += s.close_due(t).len();
            }
        }
        closed += s.close_due(20_000).len();
        assert_eq!(closed, 1_000);
        assert_eq!(s.open_windows(), 0);
        assert_eq!(s.total_groups(), 0);
    }
}
