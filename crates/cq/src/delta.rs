//! Delta-output semantics for per-window results.
//!
//! A continuous query's client can consume results two ways (§3.3.2 calls
//! both "continuous queries" and leaves the choice to the application):
//!
//! * **Snapshot** — every window emission replaces the previous one; the
//!   client sees the freshest per-window answer and can simply overwrite.
//! * **Deltas** — the engine emits an explicit insert/retract stream: when a
//!   window's answer is refined (late partials arriving after the first
//!   emission), the superseded rows are retracted before the new rows are
//!   inserted, so a downstream materialised view stays exact.
//!
//! The [`DeltaTracker`] remembers the last emission per window and turns a
//! new emission into the minimal delta.  Its memory is bounded: tracked
//! windows are dropped once `retire` is called for them (the query engine
//! retires a window when its refinement horizon passes).

use crate::window::WindowId;
use std::collections::BTreeMap;

/// How per-window results are streamed to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaMode {
    /// Each emission is a full snapshot of the window's answer.
    #[default]
    Snapshot,
    /// Emissions are insert/retract streams against prior emissions.
    Deltas,
}

/// One element of a delta stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta<R> {
    /// A row newly part of the window's answer.
    Insert(R),
    /// A previously emitted row no longer part of the window's answer.
    Retract(R),
}

impl<R> Delta<R> {
    /// The row inside.
    pub fn row(&self) -> &R {
        match self {
            Delta::Insert(r) | Delta::Retract(r) => r,
        }
    }
}

/// Turns successive emissions of the same window into delta streams.
#[derive(Debug)]
pub struct DeltaTracker<R> {
    mode: DeltaMode,
    last: BTreeMap<WindowId, Vec<R>>,
}

impl<R: Clone + PartialEq> DeltaTracker<R> {
    /// A tracker operating in `mode`.
    pub fn new(mode: DeltaMode) -> Self {
        DeltaTracker {
            mode,
            last: BTreeMap::new(),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> DeltaMode {
        self.mode
    }

    /// Number of windows currently tracked (bounded-memory assertion hook).
    pub fn tracked_windows(&self) -> usize {
        self.last.len()
    }

    /// Whether an emission of window `id` is on record: when none is, an
    /// empty one changes nothing and can be skipped unrecorded.
    pub fn remembers(&self, id: WindowId) -> bool {
        self.last.contains_key(&id)
    }

    /// Record that window `id` now evaluates to `rows` and return what to
    /// send: in snapshot mode, all rows as inserts (the client overwrites);
    /// in delta mode, retractions for superseded rows then inserts for new
    /// ones.  An unchanged emission produces nothing.
    pub fn emit(&mut self, id: WindowId, rows: Vec<R>) -> Vec<Delta<R>> {
        match self.mode {
            DeltaMode::Snapshot => {
                let changed = self.last.get(&id) != Some(&rows);
                self.last.insert(id, rows.clone());
                if changed {
                    rows.into_iter().map(Delta::Insert).collect()
                } else {
                    Vec::new()
                }
            }
            DeltaMode::Deltas => {
                let prev = self.last.get(&id).cloned().unwrap_or_default();
                let mut out = Vec::new();
                for old in &prev {
                    if !rows.contains(old) {
                        out.push(Delta::Retract(old.clone()));
                    }
                }
                for new in &rows {
                    if !prev.contains(new) {
                        out.push(Delta::Insert(new.clone()));
                    }
                }
                self.last.insert(id, rows);
                out
            }
        }
    }

    /// Forget every window at or below `through` (their refinement horizon
    /// has passed; no further emissions can occur).
    pub fn retire(&mut self, through: WindowId) {
        self.last = self.last.split_off(&(through + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_mode_reemits_only_on_change() {
        let mut t: DeltaTracker<i64> = DeltaTracker::new(DeltaMode::Snapshot);
        assert_eq!(t.emit(0, vec![1, 2]).len(), 2);
        assert!(t.emit(0, vec![1, 2]).is_empty(), "unchanged → silent");
        assert_eq!(t.emit(0, vec![1, 3]).len(), 2);
    }

    #[test]
    fn delta_mode_retracts_superseded_rows() {
        let mut t: DeltaTracker<&str> = DeltaTracker::new(DeltaMode::Deltas);
        assert_eq!(
            t.emit(7, vec!["a", "b"]),
            vec![Delta::Insert("a"), Delta::Insert("b")]
        );
        let refined = t.emit(7, vec!["a", "c"]);
        assert_eq!(refined, vec![Delta::Retract("b"), Delta::Insert("c")]);
        assert!(t.emit(7, vec!["a", "c"]).is_empty());
    }

    #[test]
    fn retire_bounds_memory() {
        let mut t: DeltaTracker<u64> = DeltaTracker::new(DeltaMode::Deltas);
        for w in 0..1_000u64 {
            t.emit(w, vec![w]);
        }
        assert_eq!(t.tracked_windows(), 1_000);
        t.retire(989);
        assert_eq!(t.tracked_windows(), 10);
        assert!(t.remembers(990) && !t.remembers(989));
        // A retired window's re-emission is treated as fresh (inserts only).
        assert_eq!(t.emit(5, vec![5]), vec![Delta::Insert(5)]);
    }

    #[test]
    fn delta_accessors() {
        assert_eq!(*Delta::Retract(41).row(), 41);
        assert_eq!(*Delta::Insert(1).row(), 1);
    }
}
