//! Time-window arithmetic for continuous queries.
//!
//! A window specification divides the time axis into (possibly overlapping)
//! windows of length `size` starting every `slide` microseconds.  Window `w`
//! covers `[w * slide, w * slide + size)`.  A tumbling window is the special
//! case `slide == size`; a sliding window has `slide < size` and every event
//! falls into `ceil(size / slide)` windows.
//!
//! A sliding window is also a run of tumbling **panes** of
//! `gcd(size, slide)` (Li et al., "No pane, no gain"): every window start
//! and end is a pane boundary, so window `w` is exactly the panes
//! [`WindowSpec::panes_of`] names, and state kept per pane is folded,
//! shipped and combined once however many windows cover it.

use pier_runtime::{Duration, SimTime};

/// Identifier of one window instance: window `w` covers
/// `[w * slide, w * slide + size)` on the virtual-time axis.
pub type WindowId = u64;

/// A tumbling or sliding time-window specification (all times in
/// microseconds of virtual time, like every other duration in the system).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window length.
    pub size: Duration,
    /// Distance between consecutive window starts; `slide == size` tumbles.
    pub slide: Duration,
}

impl WindowSpec {
    /// A tumbling window of length `size`.
    pub fn tumbling(size: Duration) -> Self {
        WindowSpec {
            size: size.max(1),
            slide: size.max(1),
        }
    }

    /// A sliding window of length `size` advancing every `slide`.
    pub fn sliding(size: Duration, slide: Duration) -> Self {
        let size = size.max(1);
        WindowSpec {
            size,
            slide: slide.clamp(1, size),
        }
    }

    /// True when the window tumbles (no overlap).
    pub fn is_tumbling(&self) -> bool {
        self.slide == self.size
    }

    /// Number of windows every event falls into.
    pub fn windows_per_event(&self) -> u64 {
        self.size.div_ceil(self.slide)
    }

    /// The pane length: the longest duration that divides both the window
    /// length and the slide, so windows are whole runs of panes.
    pub fn pane(&self) -> Duration {
        let (mut a, mut b) = (self.size, self.slide);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a.max(1)
    }

    /// The panes of window `id`, on the axis of
    /// `WindowSpec::tumbling(self.pane())`: `[start, end)` in pane ids.
    pub fn panes_of(&self, id: WindowId) -> std::ops::Range<WindowId> {
        let (start, end) = self.bounds(id);
        let pane = self.pane();
        start / pane..end / pane
    }

    /// `[start, end)` bounds of window `id`.
    pub fn bounds(&self, id: WindowId) -> (SimTime, SimTime) {
        let start = id.saturating_mul(self.slide);
        (start, start.saturating_add(self.size))
    }

    /// All windows containing event-time `t`, oldest first.
    pub fn windows_containing(&self, t: SimTime) -> impl Iterator<Item = WindowId> {
        // w * slide <= t < w * slide + size  ⇔  (t - size, t] ∋ w * slide.
        let last = t / self.slide;
        let first = t
            .saturating_sub(self.size.saturating_sub(1))
            .div_ceil(self.slide);
        first..=last
    }

    /// The newest window that is closable at `now` (it has ended), if any.
    pub fn last_closable(&self, now: SimTime) -> Option<WindowId> {
        Some(now.checked_sub(self.size)? / self.slide)
    }

    /// The first instant after `now` at which a window closes (at its
    /// end): the instants every node's engines for this window tick at,
    /// together.
    pub fn next_close(&self, now: SimTime) -> SimTime {
        if now < self.size {
            return self.size;
        }
        let closed = (now - self.size) / self.slide + 1;
        self.size.saturating_add(closed.saturating_mul(self.slide))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_windows_partition_time() {
        let w = WindowSpec::tumbling(10);
        for t in 0..100u64 {
            let ids: Vec<WindowId> = w.windows_containing(t).collect();
            assert_eq!(ids.len(), 1, "t={t} ids={ids:?}");
            let (s, e) = w.bounds(ids[0]);
            assert!(s <= t && t < e);
        }
    }

    #[test]
    fn sliding_windows_overlap_by_the_expected_factor() {
        let w = WindowSpec::sliding(30, 10);
        assert_eq!(w.windows_per_event(), 3);
        // Once past the ramp-up, every instant is covered by exactly 3 windows.
        for t in 30..200u64 {
            let ids: Vec<WindowId> = w.windows_containing(t).collect();
            assert_eq!(ids.len(), 3, "t={t} ids={ids:?}");
            for id in ids {
                let (s, e) = w.bounds(id);
                assert!(s <= t && t < e, "t={t} not in [{s},{e})");
            }
        }
    }

    #[test]
    fn windows_are_whole_runs_of_panes() {
        for (size, slide, pane) in [(20, 10, 10), (30, 10, 10), (5, 2, 1), (60, 1, 1), (7, 7, 7)] {
            let w = WindowSpec::sliding(size, slide);
            assert_eq!(w.pane(), pane, "{size}/{slide}");
            let panes = WindowSpec::tumbling(pane);
            for id in 0..20 {
                let covered = w.panes_of(id);
                assert_eq!(covered.end - covered.start, size / pane);
                // The panes tile the window exactly.
                let (start, end) = w.bounds(id);
                assert_eq!(panes.bounds(covered.start).0, start);
                assert_eq!(panes.bounds(covered.end - 1).1, end);
            }
        }
    }

    #[test]
    fn the_next_close_is_the_first_window_end_after_now() {
        let w = WindowSpec::sliding(30, 10);
        assert_eq!(w.next_close(0), 30);
        assert_eq!(w.next_close(29), 30);
        assert_eq!(w.next_close(30), 40, "strictly after now");
        assert_eq!(w.next_close(39), 40);
        for now in 0..200 {
            let at = w.next_close(now);
            assert!(at > now && (now < 30 || at - now <= w.slide));
            assert_eq!(
                w.last_closable(at),
                w.last_closable(at - 1).map_or(Some(0), |c| Some(c + 1))
            );
        }
    }

    #[test]
    fn degenerate_specs_are_clamped() {
        let w = WindowSpec::sliding(10, 0);
        assert_eq!(w.slide, 1);
        let w = WindowSpec::sliding(10, 99);
        assert!(w.is_tumbling());
        let w = WindowSpec::tumbling(0);
        assert_eq!(w.size, 1);
    }
}
