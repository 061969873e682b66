//! The pane property: a [`SharedWindowState`] keeps its state in tumbling
//! panes of `gcd(size, slide)` — a row folds into one pane, a closed pane
//! is combined once — and the window root puts each window together from
//! its panes when it emits.  The reference kept here holds every window
//! whole, on purpose: each closed pane's contribution is folded into every
//! window that covers it, in a per-window [`WindowStore`] emitted, refined
//! and retired the way the root's per-window state was before panes.
//!
//! Over random schedules of local rows (late ones among them), relayed
//! pane partials (late and retired ones among them), root ticks at and
//! between slides, and warm restarts, both must emit the same windows with
//! the same groups and counts, in the same order — re-emissions included —
//! and name the same tracker horizon at every tick.  Directed tests pin
//! what the schedules rely on: the late-row rule and the pane arithmetic of
//! a 60 s / 1 s window.

use pier::cq::{
    CqBudget, SegmentCodec, SegmentLog, SharedWindowState, WindowAccumulator, WindowId, WindowSpec,
    WindowStore,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeMap;

/// A mergeable count.
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

/// Time unit of the schedules (any unit works; a small one keeps ids short).
const SEC: u64 = 1_000;

/// Nothing is shed or evicted: the property is about composition.
const ROOMY: CqBudget = CqBudget {
    max_open_windows: 4_096,
    max_groups_per_window: 4_096,
    max_tuples_per_window: 1_000_000,
};

/// One tick's emissions, `(window, [(group, count)])` in emission order,
/// and the window through which the trackers retire.
type Tick = (Vec<(WindowId, Vec<(String, u64)>)>, Option<WindowId>);

/// Windows kept for refinement past the newest emitted one.
fn retention(window: &WindowSpec) -> u64 {
    window.windows_per_event() + 4
}

// ----- the per-window reference ------------------------------------------------

/// Local rows wait, per pane, for their pane to close here; a closed pane's
/// contribution is then folded into every window covering it, each kept
/// whole.
struct Reference {
    window: WindowSpec,
    /// `(pane, group) → rows` not yet rolled up (late rows re-open a pane).
    local: BTreeMap<(WindowId, String), u64>,
    /// Every pane at or below this one has closed here.
    closed: Option<WindowId>,
    /// The root's windows, whole.
    windows: WindowStore<Count>,
}

impl Reference {
    fn new(window: WindowSpec) -> Self {
        Reference {
            window,
            local: BTreeMap::new(),
            closed: None,
            windows: WindowStore::new(window, ROOMY),
        }
    }

    fn row(&mut self, t: u64, group: &str) {
        let pane = t / self.window.pane();
        *self.local.entry((pane, group.to_string())).or_default() += 1;
    }

    /// Fold a pane's contribution into every window over it (a retired
    /// window refuses it).
    fn contribute(&mut self, pane: WindowId, group: &str, n: u64) {
        for w in self.window.windows_containing(pane * self.window.pane()) {
            self.windows.accept_refinement(w, group, Count(n));
        }
    }

    fn tick(&mut self, now: u64) -> Tick {
        // A pane closes with the first window that ends at or after it.
        if let Some(w) = self.window.last_closable(now) {
            self.closed = self.closed.max(Some(self.window.panes_of(w).end - 1));
        }
        let closed = self.closed;
        let due: Vec<(WindowId, String)> = self
            .local
            .keys()
            .filter(|(pane, _)| closed.is_some_and(|c| *pane <= c))
            .cloned()
            .collect();
        for key in due {
            let n = self.local.remove(&key).expect("listed");
            self.contribute(key.0, &key.1, n);
        }
        let mut out = Vec::new();
        self.windows.emit_due_with(now, |w, groups| {
            out.push((
                w,
                groups
                    .iter()
                    .map(|g| (g.key.to_string(), g.acc.0))
                    .collect(),
            ));
        });
        let newest = out.iter().map(|(w, _)| *w).max();
        let horizon = newest.and_then(|n| n.checked_sub(retention(&self.window)));
        let horizon = horizon.filter(|h| *h > 0);
        if let Some(h) = horizon {
            self.windows.retire_before(h);
        }
        (out, horizon.map(|h| h - 1))
    }

    /// A warm restart keeps everything but the panes late rows re-opened:
    /// a store rehydrates nothing at or below its close horizon.
    fn restart(&mut self) {
        let closed = self.closed;
        self.local
            .retain(|(pane, _), _| closed.is_none_or(|c| *pane > c));
    }
}

// ----- the state under test ----------------------------------------------------

struct Subject {
    window: WindowSpec,
    state: SharedWindowState<Count>,
}

impl Subject {
    fn new(window: WindowSpec) -> Self {
        Subject {
            window,
            state: SharedWindowState::new(window, ROOMY),
        }
    }

    fn row(&mut self, t: u64, group: &str) {
        self.state.fold_local(t, group, |_| Count(0), |c| c.0 += 1);
    }

    fn relayed(&mut self, pane: WindowId, group: &str, n: u64) {
        self.state
            .root_mut()
            .accept_refinement(pane, group, Count(n));
    }

    fn tick(&mut self, now: u64) -> Tick {
        self.state.roll_up_local(now);
        let mut out = Vec::new();
        let through = self.state.emit_due(now, |w, groups| {
            out.push((
                w,
                groups
                    .iter()
                    .map(|g| (g.key.to_string(), g.acc.0))
                    .collect(),
            ));
        });
        (out, through)
    }

    fn restart(&mut self) {
        let (mut local, mut root) = (SegmentLog::new(), SegmentLog::new());
        self.state.write_segments(&mut local, &mut root);
        let mut warm = SharedWindowState::new(self.window, ROOMY);
        warm.rehydrate(Some(&local), Some(&root));
        self.state = warm;
    }
}

// ----- schedules ----------------------------------------------------------------

/// What a schedule exercised (the coverage test asserts on it).
#[derive(Debug, Default)]
struct Seen {
    emissions: u64,
    reemissions: u64,
    late_rows: u64,
    restarts: u64,
    retirements: u64,
}

/// The windows of the property: 2 s / 1 s and 60 s / 1 s (panes of one
/// slide), 30 s / 10 s, 5 s / 2 s (panes of 1 s, shorter than the slide),
/// and a tumbling window; each closes at its end, as sqlish's do.
fn specs() -> [WindowSpec; 5] {
    [(2, 1), (30, 10), (5, 2), (60, 1), (3, 3)]
        .map(|(size, slide)| WindowSpec::sliding(size * SEC, slide * SEC))
}

fn run(window: WindowSpec, rng: &mut TestRng, seen: &mut Seen) {
    let (mut subject, mut reference) = (Subject::new(window), Reference::new(window));
    let (slide, pane) = (window.slide, window.pane());
    let mut now = 7 * SEC + 250;
    let mut emitted: BTreeMap<WindowId, u32> = BTreeMap::new();
    // Enough ticks to emit, refine and retire a few dozen windows.
    let ticks = 3 * retention(&window) + 2 * window.size / slide + 20;
    let mut done = 0;
    while done < ticks {
        let group = format!("g{}", rng.below(4));
        match rng.below(12) {
            0..=4 => {
                // Mostly fresh rows; some as late as a window and more.
                let lag = match rng.below(3) {
                    0 => rng.below(window.size + 3 * slide),
                    _ => rng.below(slide),
                };
                let t = now.saturating_sub(lag);
                seen.late_rows += u64::from(t < now.saturating_sub(slide));
                subject.row(t, &group);
                reference.row(t, &group);
            }
            5..=7 => {
                // A relayed pane partial, from the current pane back a
                // window and a few slides (past the retirement horizon for
                // the shorter windows).
                let back = rng.below(window.size / pane + 3 * slide / pane + 6);
                let p = (now / pane).saturating_sub(back);
                let n = 1 + rng.below(4);
                subject.relayed(p, &group, n);
                reference.contribute(p, &group, n);
            }
            8 if rng.below(8) == 0 => {
                subject.restart();
                reference.restart();
                seen.restarts += 1;
            }
            _ => {
                now += match rng.below(6) {
                    0 => slide / 2,
                    1 => 2 * slide,
                    2 => 3 * slide,
                    _ => slide,
                };
                let (got, want) = (subject.tick(now), reference.tick(now));
                assert_eq!(got, want, "{window:?} at {now}");
                for (w, _) in &got.0 {
                    let times = emitted.entry(*w).or_default();
                    *times += 1;
                    seen.reemissions += u64::from(*times > 1);
                }
                seen.emissions += got.0.len() as u64;
                seen.retirements += u64::from(got.1.is_some());
                done += 1;
            }
        }
    }
}

fn run_seed(seed: u64) -> Seen {
    let mut rng = TestRng::new(seed);
    let mut seen = Seen::default();
    for window in specs() {
        run(window, &mut rng, &mut seen);
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn windows_composed_from_panes_emit_what_whole_windows_emit(seed in any::<u64>()) {
        run_seed(seed);
    }
}

#[test]
fn the_schedules_refine_restart_and_retire() {
    // The equality above is only worth what the schedules exercise.
    let seen = (0..4).map(run_seed).fold(Seen::default(), |a, b| Seen {
        emissions: a.emissions + b.emissions,
        reemissions: a.reemissions + b.reemissions,
        late_rows: a.late_rows + b.late_rows,
        restarts: a.restarts + b.restarts,
        retirements: a.retirements + b.retirements,
    });
    for (what, n) in [
        ("emissions", seen.emissions),
        ("re-emissions", seen.reemissions),
        ("late rows", seen.late_rows),
        ("restarts", seen.restarts),
        ("retirements", seen.retirements),
    ] {
        assert!(n >= 20, "{what}: {n}");
    }
}

// ----- directed -------------------------------------------------------------------

#[test]
fn a_row_late_for_its_closed_pane_reopens_it_until_the_root_retires_it() {
    // 2 s / 1 s: pane p closes here at p + 1, with window p - 1 ending
    // there; window w is due at the root at its end, w + 2, and retires
    // once the newest emitted window is six ahead.
    let window = WindowSpec::sliding(2 * SEC, SEC);
    let mut s = Subject::new(window);
    s.row(10 * SEC, "a");
    let (out, _) = s.tick(14 * SEC);
    let counts = |out: &[(WindowId, Vec<(String, u64)>)]| -> Vec<(WindowId, u64)> {
        out.iter().map(|(w, g)| (*w, g[0].1)).collect()
    };
    assert_eq!(counts(&out), [(9, 1), (10, 1)], "both windows over pane 10");
    // Pane 10 has closed here; a row for it re-opens it, and the next tick
    // re-emits both retained windows over it — window 11 is not over it.
    s.row(10 * SEC + 1, "a");
    let (out, _) = s.tick(15 * SEC);
    assert_eq!(counts(&out), [(9, 2), (10, 2)]);
    // Once the root has retired pane 10, a row for it changes nothing.
    for t in 16..25 {
        s.row(t * SEC, "b");
        s.tick(t * SEC);
    }
    s.row(10 * SEC + 2, "a");
    let (out, _) = s.tick(25 * SEC);
    assert!(out.iter().all(|(w, _)| *w > 10), "{out:?}");
}

#[test]
fn a_sixty_second_window_is_sixty_one_second_panes() {
    let window = WindowSpec::sliding(60 * SEC, SEC);
    assert_eq!((window.pane(), window.panes_of(5)), (SEC, 5..65));
    let mut s = Subject::new(window);
    for t in 0..120 {
        s.row(t * SEC, "a");
    }
    // A row is folded once, into the one pane it falls in.
    let (local, _) = s.state.stats();
    assert_eq!(local.accepted, 120);
    assert_eq!(s.state.open_windows(), 120);
    // Each window counts its sixty seconds all the same.
    let (out, _) = s.tick(200 * SEC);
    assert!(!out.is_empty());
    for (w, groups) in &out {
        let expected = (w + 60).min(120).saturating_sub(*w);
        assert_eq!(groups, &[("a".to_string(), expected)], "window {w}");
    }
}
