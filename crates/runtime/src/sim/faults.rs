//! Deterministic fault injection for the simulation environment.
//!
//! A [`FaultPlan`] is a *seeded schedule* of network and node faults that the
//! [`Simulator`](super::Simulator) consults on every send and every event
//! dispatch: probabilistic message loss, duplication and reordering windows,
//! per-link delay spikes, network partitions that heal, stalled
//! (alive-but-silent) nodes, and pre-drawn crash/restart storms.  Every random
//! decision comes from one [`Rng64`] stream owned by the plan, and every
//! schedule boundary is fixed at plan-build time, so two runs with the same
//! seed and the same plan replay **byte-for-byte** — the property the
//! equal-seed chaos trace test pins.
//!
//! Each fault the simulator actually applies is appended to the plan's
//! [`log`](FaultPlan::log) as a [`FaultRecord`].  The simulator forwards new
//! records to an optional *fault sink* callback, which the harness uses to
//! mirror injections into a node's telemetry hub (one event per fault, its
//! stage the fault's [`label`](FaultKind::label)) — and tests reconcile
//! the telemetry stream against the plan's own log.

use super::topology::NetworkTopology;
use crate::node::NodeAddr;
use crate::rng::Rng64;
use crate::time::{Duration, SimTime};

/// Half-open activity window `[start, end)` in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: SimTime,
    end: SimTime,
}

impl Span {
    fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// One fault the simulator applied, stamped with the virtual time it hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Virtual time at which the fault was injected.
    pub time: SimTime,
    /// What was injected.
    pub kind: FaultKind,
}

/// The kinds of fault the plan can inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// A message was dropped by the loss schedule.
    Loss { from: NodeAddr, to: NodeAddr },
    /// A message was delivered twice; the copy arrives `extra` later.
    Duplicate {
        from: NodeAddr,
        to: NodeAddr,
        extra: Duration,
    },
    /// A message was held back `extra` so later traffic can overtake it.
    Reorder {
        from: NodeAddr,
        to: NodeAddr,
        extra: Duration,
    },
    /// A per-link delay spike added `extra` to the delivery time.
    DelaySpike {
        from: NodeAddr,
        to: NodeAddr,
        extra: Duration,
    },
    /// A message crossed an active partition cut and was dropped.
    PartitionDrop { from: NodeAddr, to: NodeAddr },
    /// A scheduled partition became active.
    PartitionStart { id: u32 },
    /// A scheduled partition healed.
    PartitionHeal { id: u32 },
    /// A node fail-stopped (scheduled via `fail_node_at`).
    Crash { node: NodeAddr },
    /// A node restarted in place (scheduled via `restart_node_at`).
    Restart { node: NodeAddr },
    /// A node entered a stall: alive, but deferring every message and timer.
    StallStart { node: NodeAddr },
    /// A stalled node resumed; deferred events fire from here.
    StallEnd { node: NodeAddr },
}

impl FaultKind {
    /// Stable lowercase label for telemetry fields and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Loss { .. } => "loss",
            FaultKind::Duplicate { .. } => "duplicate",
            FaultKind::Reorder { .. } => "reorder",
            FaultKind::DelaySpike { .. } => "delay_spike",
            FaultKind::PartitionDrop { .. } => "partition_drop",
            FaultKind::PartitionStart { .. } => "partition_start",
            FaultKind::PartitionHeal { .. } => "partition_heal",
            FaultKind::Crash { .. } => "crash",
            FaultKind::Restart { .. } => "restart",
            FaultKind::StallStart { .. } => "stall_start",
            FaultKind::StallEnd { .. } => "stall_end",
        }
    }
}

/// Aggregate injection counts, handy for bench metrics and reconciliation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    pub losses: u64,
    pub duplicates: u64,
    pub reorders: u64,
    pub delay_spikes: u64,
    pub partition_drops: u64,
    pub partitions_started: u64,
    pub partitions_healed: u64,
    pub crashes: u64,
    pub restarts: u64,
    pub stalls: u64,
}

/// One pre-drawn crash (and optional restart) of a storm schedule.  The
/// simulator cannot construct a fresh program itself, so the harness reads
/// this schedule and arms `fail_node_at` / `restart_node_at` accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormEvent {
    pub node: NodeAddr,
    pub crash_at: SimTime,
    /// `None` means the node stays down for the rest of the run.
    pub restart_at: Option<SimTime>,
}

#[derive(Debug, Clone)]
struct RatePhase {
    at: Span,
    prob: f64,
}

#[derive(Debug, Clone)]
struct ReorderPhase {
    at: Span,
    prob: f64,
    max_extra: Duration,
}

#[derive(Debug, Clone)]
struct SpikePhase {
    at: Span,
    /// `None` applies the spike to every link.
    link: Option<(NodeAddr, NodeAddr)>,
    extra: Duration,
    /// Additional delay as a multiple of the link's base latency, so a spike
    /// scales with the topology (WAN links spike harder than LAN ones).
    latency_multiplier: f64,
}

#[derive(Debug, Clone)]
struct Partition {
    id: u32,
    at: Span,
    /// Sorted node list forming one side of the cut.
    side_a: Vec<NodeAddr>,
    started: bool,
    healed: bool,
}

#[derive(Debug, Clone)]
struct Stall {
    node: NodeAddr,
    at: Span,
    started: bool,
    ended: bool,
}

/// A seeded, replayable schedule of faults.  Build one with the `with_*`
/// methods and install it via `Simulator::set_fault_plan`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: Rng64,
    loss: Vec<RatePhase>,
    duplicate: Vec<RatePhase>,
    reorder: Vec<ReorderPhase>,
    spikes: Vec<SpikePhase>,
    partitions: Vec<Partition>,
    stalls: Vec<Stall>,
    storm: Vec<StormEvent>,
    log: Vec<FaultRecord>,
    counts: FaultCounts,
    cursor: usize,
}

impl FaultPlan {
    /// An empty plan drawing all probabilistic decisions from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: Rng64::new(seed),
            loss: Vec::new(),
            duplicate: Vec::new(),
            reorder: Vec::new(),
            spikes: Vec::new(),
            partitions: Vec::new(),
            stalls: Vec::new(),
            storm: Vec::new(),
            log: Vec::new(),
            counts: FaultCounts::default(),
            cursor: 0,
        }
    }

    /// Drop each message sent during `[start, end)` with probability `prob`.
    pub fn with_loss(mut self, start: SimTime, end: SimTime, prob: f64) -> Self {
        self.loss.push(RatePhase {
            at: Span { start, end },
            prob,
        });
        self
    }

    /// Deliver each message sent during `[start, end)` twice with
    /// probability `prob` (the copy arrives a little later).
    pub fn with_duplication(mut self, start: SimTime, end: SimTime, prob: f64) -> Self {
        self.duplicate.push(RatePhase {
            at: Span { start, end },
            prob,
        });
        self
    }

    /// Hold back each message sent during `[start, end)` with probability
    /// `prob` by up to `max_extra` µs, letting later traffic overtake it.
    pub fn with_reorder(
        mut self,
        start: SimTime,
        end: SimTime,
        prob: f64,
        max_extra: Duration,
    ) -> Self {
        self.reorder.push(ReorderPhase {
            at: Span { start, end },
            prob,
            max_extra,
        });
        self
    }

    /// Add a delay spike during `[start, end)`: `extra` µs plus
    /// `latency_multiplier` times the link's base latency, on one link
    /// (`Some((from, to))`) or every link (`None`).
    pub fn with_delay_spike(
        mut self,
        start: SimTime,
        end: SimTime,
        link: Option<(NodeAddr, NodeAddr)>,
        extra: Duration,
        latency_multiplier: f64,
    ) -> Self {
        self.spikes.push(SpikePhase {
            at: Span { start, end },
            link,
            extra,
            latency_multiplier,
        });
        self
    }

    /// Partition `side_a` from everyone else during `[start, heal)`.
    pub fn with_partition(
        mut self,
        start: SimTime,
        heal: SimTime,
        mut side_a: Vec<NodeAddr>,
    ) -> Self {
        side_a.sort_unstable_by_key(|n| n.index());
        side_a.dedup();
        let id = self.partitions.len() as u32;
        self.partitions.push(Partition {
            id,
            at: Span { start, end: heal },
            side_a,
            started: false,
            healed: false,
        });
        self
    }

    /// Stall `node` during `[start, end)`: it stays alive but every message
    /// and timer addressed to it is deferred until the stall ends.
    pub fn with_stall(mut self, node: NodeAddr, start: SimTime, end: SimTime) -> Self {
        self.stalls.push(Stall {
            node,
            at: Span { start, end },
            started: false,
            ended: false,
        });
        self
    }

    /// Pre-draw a crash/restart storm: `kills` victims chosen from `victims`
    /// crash at seeded times in `[start, end)` and restart after a seeded
    /// downtime in `[min_down, max_down)`.
    pub fn with_restart_storm(
        mut self,
        start: SimTime,
        end: SimTime,
        victims: &[NodeAddr],
        kills: usize,
        min_down: Duration,
        max_down: Duration,
    ) -> Self {
        assert!(end > start && !victims.is_empty());
        for _ in 0..kills {
            let node = *self.rng.choose(victims);
            let crash_at = start + self.rng.next_below(end - start);
            let down = min_down
                + self
                    .rng
                    .next_below(max_down.saturating_sub(min_down).max(1));
            self.storm.push(StormEvent {
                node,
                crash_at,
                restart_at: Some(crash_at + down),
            });
        }
        self.storm.sort_by_key(|e| (e.crash_at, e.node.index()));
        self
    }

    /// The pre-drawn crash/restart schedule, for the harness to arm.
    pub fn storm(&self) -> &[StormEvent] {
        &self.storm
    }

    /// Every fault injected so far, in injection order.
    pub fn log(&self) -> &[FaultRecord] {
        &self.log
    }

    /// Aggregate counts over [`log`](Self::log).
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    fn record(&mut self, time: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::Loss { .. } => self.counts.losses += 1,
            FaultKind::Duplicate { .. } => self.counts.duplicates += 1,
            FaultKind::Reorder { .. } => self.counts.reorders += 1,
            FaultKind::DelaySpike { .. } => self.counts.delay_spikes += 1,
            FaultKind::PartitionDrop { .. } => self.counts.partition_drops += 1,
            FaultKind::PartitionStart { .. } => self.counts.partitions_started += 1,
            FaultKind::PartitionHeal { .. } => self.counts.partitions_healed += 1,
            FaultKind::Crash { .. } => self.counts.crashes += 1,
            FaultKind::Restart { .. } => self.counts.restarts += 1,
            FaultKind::StallStart { .. } => self.counts.stalls += 1,
            FaultKind::StallEnd { .. } => {}
        }
        self.log.push(FaultRecord { time, kind });
    }

    /// Records appended since the last drain (the simulator forwards these to
    /// its fault sink).
    pub(super) fn drain_new(&mut self) -> Vec<FaultRecord> {
        let new = self.log[self.cursor..].to_vec();
        self.cursor = self.log.len();
        new
    }

    fn partition_separates(p: &Partition, from: NodeAddr, to: NodeAddr) -> bool {
        let a = p
            .side_a
            .binary_search_by_key(&from.index(), |n| n.index())
            .is_ok();
        let b = p
            .side_a
            .binary_search_by_key(&to.index(), |n| n.index())
            .is_ok();
        a != b
    }

    /// Whether an active partition currently separates `from` and `to`.
    pub fn is_partitioned(&self, now: SimTime, from: NodeAddr, to: NodeAddr) -> bool {
        self.partitions
            .iter()
            .any(|p| p.at.contains(now) && Self::partition_separates(p, from, to))
    }

    /// If `node` is stalled at `now`, the time the stall ends.
    pub fn stall_until(&self, node: NodeAddr, now: SimTime) -> Option<SimTime> {
        self.stalls
            .iter()
            .filter(|s| s.node == node && s.at.contains(now))
            .map(|s| s.at.end)
            .max()
    }

    /// Advance scheduled boundary records (partition start/heal, stall
    /// start/end) up to `now`.  Called by the simulator as the clock moves.
    pub(super) fn observe(&mut self, now: SimTime) {
        let mut due: Vec<(SimTime, FaultKind)> = Vec::new();
        for p in &mut self.partitions {
            if !p.started && now >= p.at.start {
                p.started = true;
                due.push((p.at.start, FaultKind::PartitionStart { id: p.id }));
            }
            if !p.healed && now >= p.at.end {
                p.healed = true;
                due.push((p.at.end, FaultKind::PartitionHeal { id: p.id }));
            }
        }
        for s in &mut self.stalls {
            if !s.started && now >= s.at.start {
                s.started = true;
                due.push((s.at.start, FaultKind::StallStart { node: s.node }));
            }
            if !s.ended && now >= s.at.end {
                s.ended = true;
                due.push((s.at.end, FaultKind::StallEnd { node: s.node }));
            }
        }
        due.sort_by_key(|(t, _)| *t);
        for (t, kind) in due {
            self.record(t, kind);
        }
    }

    /// Record a fail-stop the simulator just applied.
    pub(super) fn record_crash(&mut self, now: SimTime, node: NodeAddr) {
        self.record(now, FaultKind::Crash { node });
    }

    /// Record an in-place restart the simulator just applied.
    pub(super) fn record_restart(&mut self, now: SimTime, node: NodeAddr) {
        self.record(now, FaultKind::Restart { node });
    }

    /// Decide the fate of one message: the returned vector holds one entry of
    /// *extra delay* per copy to deliver — empty means the message is dropped.
    /// Loopback sends are never touched.
    pub(super) fn on_send(
        &mut self,
        now: SimTime,
        from: NodeAddr,
        to: NodeAddr,
        topo: &NetworkTopology,
    ) -> Vec<Duration> {
        if from == to {
            return vec![0];
        }
        if self.is_partitioned(now, from, to) {
            self.record(now, FaultKind::PartitionDrop { from, to });
            return Vec::new();
        }
        for i in 0..self.loss.len() {
            if self.loss[i].at.contains(now) {
                let p = self.loss[i].prob;
                if self.rng.chance(p) {
                    self.record(now, FaultKind::Loss { from, to });
                    return Vec::new();
                }
            }
        }
        let mut extra: Duration = 0;
        for i in 0..self.spikes.len() {
            let s = &self.spikes[i];
            let applies = s.at.contains(now) && s.link.is_none_or(|(f, t)| f == from && t == to);
            if applies {
                let add = s.extra + (s.latency_multiplier * topo.latency(from, to) as f64) as u64;
                extra += add;
                self.record(
                    now,
                    FaultKind::DelaySpike {
                        from,
                        to,
                        extra: add,
                    },
                );
            }
        }
        for i in 0..self.reorder.len() {
            if self.reorder[i].at.contains(now) {
                let (p, max_extra) = (self.reorder[i].prob, self.reorder[i].max_extra);
                if self.rng.chance(p) {
                    let add = 1 + self.rng.next_below(max_extra.max(1));
                    extra += add;
                    self.record(
                        now,
                        FaultKind::Reorder {
                            from,
                            to,
                            extra: add,
                        },
                    );
                }
            }
        }
        let mut copies = vec![extra];
        for i in 0..self.duplicate.len() {
            if self.duplicate[i].at.contains(now) {
                let p = self.duplicate[i].prob;
                if self.rng.chance(p) {
                    let add = extra + 1 + self.rng.next_below(5_000);
                    copies.push(add);
                    self.record(
                        now,
                        FaultKind::Duplicate {
                            from,
                            to,
                            extra: add,
                        },
                    );
                }
            }
        }
        copies
    }
}
