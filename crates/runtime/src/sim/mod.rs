//! The Simulation Environment (Figure 4 of the paper).
//!
//! A single [`Simulator`] drives thousands of virtual nodes with one global
//! discrete-event priority queue.  Events are annotated with the virtual
//! node that must handle them and demultiplexed to the corresponding
//! [`Program`] instance; outbound messages are passed through the network
//! model (topology + congestion) to decide their delivery time.  The program
//! code is identical to what the [`crate::physical::PhysicalRuntime`] runs —
//! that is the point of native simulation.

pub mod congestion;
pub mod faults;
pub mod topology;

pub use congestion::{CongestionKind, CongestionState};
pub use faults::{FaultCounts, FaultKind, FaultPlan, FaultRecord, StormEvent};
pub use topology::{NetworkTopology, TopologyConfig};

use crate::metrics::NetStats;
use crate::node::{Action, Context, NodeAddr, Program, ProgramContext};
use crate::queue::EventQueue;
use crate::time::{Duration, SimTime};
use crate::wire::{on_wire_bytes, WireSize};

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for topology parameters and any runtime tie-breaking.
    pub seed: u64,
    /// Network topology model.
    pub topology: TopologyConfig,
    /// Congestion model applied to every message.
    pub congestion: CongestionKind,
    /// Safety valve: the run aborts (panics) after this many events, which
    /// catches runaway message storms in buggy experiments.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            topology: TopologyConfig::lan(),
            congestion: CongestionKind::None,
            max_events: 200_000_000,
        }
    }
}

impl SimConfig {
    /// LAN-like configuration with a given seed — the default for tests.
    pub fn lan(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Wide-area transit-stub configuration with FIFO access-link queuing —
    /// the default for experiments that reproduce the paper's figures.
    pub fn internet(seed: u64) -> Self {
        SimConfig {
            seed,
            topology: TopologyConfig::internet_like(),
            congestion: CongestionKind::Fifo,
            ..SimConfig::default()
        }
    }
}

enum EventKind<P: Program> {
    Start,
    Deliver { from: NodeAddr, msg: P::Msg },
    Timer { timer: P::Timer },
    Fail,
    Restart { program: Box<P> },
}

/// A value produced by a node for its locally attached client, with the time
/// and node at which it was produced.
#[derive(Debug, Clone)]
pub struct SimOutput<O> {
    /// Virtual time at which the output was produced.
    pub time: SimTime,
    /// Node that produced the output.
    pub node: NodeAddr,
    /// The output value itself.
    pub value: O,
}

/// Discrete-event simulator for node programs.
pub struct Simulator<P: Program> {
    config: SimConfig,
    nodes: Vec<P>,
    alive: Vec<bool>,
    /// Pending events, each addressed to a node.
    queue: EventQueue<(NodeAddr, EventKind<P>)>,
    now: SimTime,
    events_processed: u64,
    topology: NetworkTopology,
    congestion: CongestionState,
    stats: NetStats,
    outputs: Vec<SimOutput<P::Out>>,
    faults: Option<FaultPlan>,
    fault_sink: Option<FaultSink>,
}

/// Callback journaling every injected fault (see [`Simulator::set_fault_sink`]).
pub type FaultSink = Box<dyn FnMut(&FaultRecord)>;

impl<P: Program> Simulator<P> {
    /// Create an empty simulator.
    pub fn new(config: SimConfig) -> Self {
        let topology = NetworkTopology::new(config.topology.clone(), config.seed);
        let congestion = CongestionState::new(config.congestion);
        Simulator {
            config,
            nodes: Vec::new(),
            alive: Vec::new(),
            queue: EventQueue::default(),
            now: 0,
            events_processed: 0,
            topology,
            congestion,
            stats: NetStats::new(),
            outputs: Vec::new(),
            faults: None,
            fault_sink: None,
        }
    }

    /// Install a fault plan.  Subsequent sends and dispatches consult it; the
    /// schedule is replayed identically for equal seeds and plans.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The installed fault plan, if any (its log records every injection).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Install a callback invoked once per injected fault, in injection
    /// order.  The harness uses this to mirror faults into telemetry.
    pub fn set_fault_sink(&mut self, sink: impl FnMut(&FaultRecord) + 'static) {
        self.fault_sink = Some(Box::new(sink));
    }

    fn flush_fault_records(&mut self) {
        if let Some(plan) = self.faults.as_mut() {
            let new = plan.drain_new();
            if let Some(sink) = self.fault_sink.as_mut() {
                for rec in &new {
                    sink(rec);
                }
            }
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology in use (read-only).
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// Network statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mutable access to statistics, e.g. to reset them between phases.
    pub fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    /// Number of nodes ever added (alive or failed).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Addresses of all currently live nodes.
    pub fn alive_nodes(&self) -> Vec<NodeAddr> {
        (0..self.nodes.len())
            .filter(|&i| self.alive[i])
            .map(|i| NodeAddr(i as u32))
            .collect()
    }

    /// Whether a node is currently alive.
    pub fn is_alive(&self, addr: NodeAddr) -> bool {
        self.alive.get(addr.index()).copied().unwrap_or(false)
    }

    /// Read-only access to a node's program state (available even after the
    /// node has failed; useful for assertions in tests).
    pub fn node(&self, addr: NodeAddr) -> Option<&P> {
        self.nodes.get(addr.index())
    }

    /// Add a node that boots immediately (its `on_start` runs at the current
    /// virtual time).  Returns the node's address.
    pub fn add_node(&mut self, program: P) -> NodeAddr {
        self.add_node_at(program, self.now)
    }

    /// Add a node that boots at virtual time `at` (must not be in the past).
    pub fn add_node_at(&mut self, program: P, at: SimTime) -> NodeAddr {
        let addr = NodeAddr(self.nodes.len() as u32);
        self.nodes.push(program);
        self.alive.push(true);
        self.queue.push(at.max(self.now), (addr, EventKind::Start));
        addr
    }

    /// Schedule a fail-stop crash of `node` at time `at`.  A failed node
    /// silently drops all subsequent messages and timers.
    pub fn fail_node_at(&mut self, node: NodeAddr, at: SimTime) {
        self.queue.push(at.max(self.now), (node, EventKind::Fail));
    }

    /// Schedule an in-place restart of a previously failed node at time `at`:
    /// the address is re-occupied by `program`, whose `on_start` runs then.
    /// Durable state (e.g. a window-segment store shared with the replaced
    /// program) is how a restarted node comes back warm — the simulator
    /// itself hands over nothing.
    pub fn restart_node_at(&mut self, node: NodeAddr, program: P, at: SimTime) {
        assert!(
            node.index() < self.nodes.len(),
            "restart_node_at: unknown node {node}"
        );
        let restart = EventKind::Restart {
            program: Box::new(program),
        };
        self.queue.push(at.max(self.now), (node, restart));
    }

    /// Invoke a closure against a live node's program, applying any actions
    /// it records.  This models an external client request arriving at the
    /// node (e.g. a query submitted over the proxy's TCP connection).
    pub fn invoke<F>(&mut self, node: NodeAddr, f: F)
    where
        F: FnOnce(&mut P, &mut ProgramContext<P>),
    {
        if self.is_alive(node) {
            self.dispatch(node, f);
        }
    }

    /// Inspect a live node mutably without a context (no actions possible).
    pub fn with_node_mut<R>(&mut self, node: NodeAddr, f: impl FnOnce(&mut P) -> R) -> Option<R> {
        self.nodes.get_mut(node.index()).map(f)
    }

    /// All outputs produced so far.
    pub fn outputs(&self) -> &[SimOutput<P::Out>] {
        &self.outputs
    }

    /// Remove and return all outputs produced so far.
    pub fn drain_outputs(&mut self) -> Vec<SimOutput<P::Out>> {
        std::mem::take(&mut self.outputs)
    }

    fn dispatch<F>(&mut self, node: NodeAddr, f: F)
    where
        F: FnOnce(&mut P, &mut ProgramContext<P>),
    {
        let Some(program) = self.nodes.get_mut(node.index()) else {
            return;
        };
        let mut ctx: ProgramContext<P> = Context::new(self.now, node);
        f(program, &mut ctx);
        for action in ctx.into_actions() {
            self.apply_action(node, action);
        }
    }

    fn apply_action(&mut self, node: NodeAddr, action: Action<P::Msg, P::Timer, P::Out>) {
        match action {
            Action::Send { to, msg } => {
                // A multi-MSS `PutBatch` pays transmission time and stats
                // for every fragment, not for one fictitious jumbo packet.
                let bytes = on_wire_bytes(msg.wire_size());
                self.stats.record_send(node, to, bytes);
                // The fault plan decides how many copies arrive and with how
                // much extra delay; an empty set means the message was lost
                // in the network (the sender still paid for the send).
                let copies = match self.faults.as_mut() {
                    Some(plan) => {
                        let copies = plan.on_send(self.now, node, to, &self.topology);
                        self.flush_fault_records();
                        copies
                    }
                    None => vec![0],
                };
                if copies.is_empty() {
                    return;
                }
                let arrival =
                    self.congestion
                        .delivery_time(self.now, node, to, bytes, &self.topology);
                let n = copies.len();
                let mut msg = Some(msg);
                for (i, extra) in copies.into_iter().enumerate() {
                    let payload = if i + 1 == n {
                        msg.take().expect("last copy consumes the original")
                    } else {
                        msg.as_ref().expect("copies remain").clone()
                    };
                    let deliver = EventKind::Deliver {
                        from: node,
                        msg: payload,
                    };
                    self.queue.push(arrival + extra, (to, deliver));
                }
            }
            Action::SetTimer { delay, timer } => {
                self.queue
                    .push(self.now + delay, (node, EventKind::Timer { timer }));
            }
            Action::Output(value) => {
                self.outputs.push(SimOutput {
                    time: self.now,
                    node,
                    value,
                });
            }
        }
    }

    /// Process a single event.  Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((time, &(node, ref kind))) = self.queue.peek() else {
            return false;
        };
        let deferrable = matches!(kind, EventKind::Deliver { .. } | EventKind::Timer { .. });
        self.events_processed += 1;
        assert!(
            self.events_processed <= self.config.max_events,
            "simulation exceeded max_events = {}; likely a message storm",
            self.config.max_events
        );
        self.now = self.now.max(time);
        self.stats.last_event_time = self.now;
        if let Some(plan) = self.faults.as_mut() {
            plan.observe(self.now);
        }
        self.flush_fault_records();
        // A stalled node is alive but silent: its deliveries and timers are
        // deferred (re-queued) until the stall ends, then fire in a burst —
        // the GC-pause / overloaded-node failure mode.
        if deferrable {
            let stall_until = self
                .faults
                .as_ref()
                .and_then(|plan| plan.stall_until(node, self.now));
            if let Some(until) = stall_until {
                self.queue.defer_head(until);
                return true;
            }
        }
        let (_, (_, kind)) = self.queue.pop().expect("peeked");
        match kind {
            EventKind::Start => {
                if self.is_alive(node) {
                    self.dispatch(node, super::node::Program::on_start);
                }
            }
            EventKind::Deliver { from, msg } => {
                if self.is_alive(node) {
                    self.dispatch(node, |p, ctx| p.on_message(ctx, from, msg));
                }
            }
            EventKind::Timer { timer } => {
                if self.is_alive(node) {
                    self.dispatch(node, |p, ctx| p.on_timer(ctx, timer));
                }
            }
            EventKind::Fail => {
                if node.index() < self.alive.len() && self.alive[node.index()] {
                    self.alive[node.index()] = false;
                    if let Some(plan) = self.faults.as_mut() {
                        plan.record_crash(self.now, node);
                    }
                    self.flush_fault_records();
                }
            }
            EventKind::Restart { program } => {
                let idx = node.index();
                if idx < self.nodes.len() && !self.alive[idx] {
                    self.nodes[idx] = *program;
                    self.alive[idx] = true;
                    if let Some(plan) = self.faults.as_mut() {
                        plan.record_restart(self.now, node);
                    }
                    self.flush_fault_records();
                    self.dispatch(node, super::node::Program::on_start);
                }
            }
        }
        true
    }

    /// Run until virtual time `deadline`: every event with a timestamp at or
    /// before the deadline is processed, and the clock is advanced to the
    /// deadline even if the queue drains early.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.queue.peek().is_some_and(|(time, _)| time <= deadline) {
            self.step();
        }
        self.now = self.now.max(deadline);
        if let Some(plan) = self.faults.as_mut() {
            plan.observe(self.now);
        }
        self.flush_fault_records();
    }

    /// Run for `duration` of virtual time from the current clock.
    pub fn run_for(&mut self, duration: Duration) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    /// Total events processed so far (for diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial program used to exercise the simulator: every node greets a
    /// peer on start, replies to greetings, and reports replies as output.
    #[derive(Debug, Default)]
    struct Greeter {
        peer: Option<NodeAddr>,
        greetings_seen: u32,
    }

    #[derive(Debug, Clone)]
    enum GreeterMsg {
        Hello,
        Reply,
    }

    impl WireSize for GreeterMsg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    impl Program for Greeter {
        type Msg = GreeterMsg;
        type Timer = u32;
        type Out = String;

        fn on_start(&mut self, ctx: &mut ProgramContext<Self>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, GreeterMsg::Hello);
            }
            ctx.set_timer(1_000_000, 1);
        }

        fn on_message(&mut self, ctx: &mut ProgramContext<Self>, from: NodeAddr, msg: Self::Msg) {
            match msg {
                GreeterMsg::Hello => {
                    self.greetings_seen += 1;
                    ctx.send(from, GreeterMsg::Reply);
                }
                GreeterMsg::Reply => {
                    ctx.output(format!("reply from {from}"));
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut ProgramContext<Self>, timer: Self::Timer) {
            if timer == 1 {
                ctx.output("tick".to_string());
            }
        }
    }

    #[test]
    fn request_reply_round_trip() {
        let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::lan(1));
        let a = sim.add_node(Greeter::default());
        let b = sim.add_node(Greeter {
            peer: Some(a),
            ..Default::default()
        });
        sim.run_until(500_000);
        let outputs = sim.outputs();
        assert!(outputs
            .iter()
            .any(|o| o.node == b && o.value.contains(&format!("reply from {a}"))));
        assert_eq!(sim.node(a).unwrap().greetings_seen, 1);
        // Latency is nonzero: the reply cannot have arrived at time 0.
        assert!(outputs.iter().all(|o| o.time > 0));
    }

    #[test]
    fn timers_fire_at_the_right_time() {
        let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::lan(2));
        let a = sim.add_node(Greeter::default());
        sim.run_until(999_999);
        assert!(sim.outputs().iter().all(|o| o.value != "tick"));
        sim.run_until(1_000_001);
        assert!(sim
            .outputs()
            .iter()
            .any(|o| o.node == a && o.value == "tick"));
    }

    #[test]
    fn failed_nodes_drop_messages_and_timers() {
        let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::lan(3));
        let a = sim.add_node(Greeter::default());
        let b = sim.add_node(Greeter {
            peer: Some(a),
            ..Default::default()
        });
        // Fail node `a` before anything happens: b's Hello is never answered.
        sim.fail_node_at(a, 0);
        sim.run_until(2_000_000);
        assert!(!sim.is_alive(a));
        assert!(sim.is_alive(b));
        assert!(!sim
            .outputs()
            .iter()
            .any(|o| o.node == b && o.value.starts_with("reply")));
        // b still produced its own tick.
        assert!(sim
            .outputs()
            .iter()
            .any(|o| o.node == b && o.value == "tick"));
        assert_eq!(sim.node(a).unwrap().greetings_seen, 0);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::lan(4));
        let a = sim.add_node(Greeter::default());
        let b = sim.add_node(Greeter {
            peer: Some(a),
            ..Default::default()
        });
        sim.run_until(500_000);
        let stats = sim.stats();
        assert_eq!(stats.total_msgs, 2); // Hello + Reply
        assert!(stats.node(b).msgs_sent == 1 && stats.node(b).msgs_recv == 1);
        assert!(stats.node(a).bytes_recv > 0);
        assert_eq!(stats.total_bytes, 2 * (8 + 48) as u64);
    }

    /// A program whose single message is far larger than one MSS, standing
    /// in for a bulk `PutBatch` flush.
    #[derive(Debug, Default)]
    struct BulkSender {
        peer: Option<NodeAddr>,
    }

    #[derive(Debug, Clone)]
    struct JumboMsg;

    impl WireSize for JumboMsg {
        fn wire_size(&self) -> usize {
            10_000
        }
    }

    impl Program for BulkSender {
        type Msg = JumboMsg;
        type Timer = u32;
        type Out = ();

        fn on_start(&mut self, ctx: &mut ProgramContext<Self>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, JumboMsg);
            }
        }

        fn on_message(&mut self, _ctx: &mut ProgramContext<Self>, _from: NodeAddr, _msg: JumboMsg) {
        }

        fn on_timer(&mut self, _ctx: &mut ProgramContext<Self>, _timer: u32) {}
    }

    #[test]
    fn multi_mss_message_pays_per_fragment_headers() {
        // 10_000-byte payload over MSS=1_400 → 8 fragments, each paying the
        // 48-byte header: the wire carries 10_000 + 8*48 bytes, not 10_048.
        let mut sim: Simulator<BulkSender> = Simulator::new(SimConfig::lan(8));
        let a = sim.add_node(BulkSender::default());
        let _b = sim.add_node(BulkSender { peer: Some(a) });
        sim.run_until(500_000);
        let frags = 10_000_u64.div_ceil(1_400);
        assert_eq!(sim.stats().total_msgs, 1);
        assert_eq!(sim.stats().total_bytes, 10_000 + frags * 48);
    }

    #[test]
    fn invoke_injects_external_events() {
        let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::lan(5));
        let a = sim.add_node(Greeter::default());
        let b = sim.add_node(Greeter::default());
        sim.run_until(10_000);
        // Externally instruct b to greet a.
        sim.invoke(b, |_p, ctx| ctx.send(a, GreeterMsg::Hello));
        sim.run_until(200_000);
        assert!(sim
            .outputs()
            .iter()
            .any(|o| o.node == b && o.value.starts_with("reply")));
    }

    #[test]
    fn add_node_at_defers_start() {
        let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::lan(6));
        let a = sim.add_node(Greeter::default());
        let _late = sim.add_node_at(
            Greeter {
                peer: Some(a),
                ..Default::default()
            },
            5_000_000,
        );
        sim.run_until(1_000_000);
        assert_eq!(sim.stats().total_msgs, 0, "late node has not started yet");
        sim.run_until(6_000_000);
        assert!(sim.stats().total_msgs >= 2);
    }

    #[test]
    fn total_loss_drops_every_message() {
        let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::lan(7));
        sim.set_fault_plan(FaultPlan::new(7).with_loss(0, 10_000_000, 1.0));
        let a = sim.add_node(Greeter::default());
        let b = sim.add_node(Greeter {
            peer: Some(a),
            ..Default::default()
        });
        sim.run_until(2_000_000);
        // The Hello was sent (and counted) but never delivered.
        assert_eq!(sim.stats().total_msgs, 1);
        assert_eq!(sim.node(a).unwrap().greetings_seen, 0);
        let plan = sim.fault_plan().unwrap();
        assert_eq!(plan.counts().losses, 1);
        assert!(matches!(plan.log()[0].kind, FaultKind::Loss { .. }));
        let _ = b;
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::lan(8));
        sim.set_fault_plan(FaultPlan::new(8).with_duplication(0, 10_000_000, 1.0));
        let a = sim.add_node(Greeter::default());
        let _b = sim.add_node(Greeter {
            peer: Some(a),
            ..Default::default()
        });
        sim.run_until(2_000_000);
        // Hello duplicated: a greets twice (replies are duplicated too).
        assert_eq!(sim.node(a).unwrap().greetings_seen, 2);
        assert!(sim.fault_plan().unwrap().counts().duplicates >= 1);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::lan(9));
        let plan = FaultPlan::new(9).with_partition(0, 1_000_000, vec![NodeAddr(0)]);
        sim.set_fault_plan(plan);
        let a = sim.add_node(Greeter::default());
        let b = sim.add_node(Greeter {
            peer: Some(a),
            ..Default::default()
        });
        sim.run_until(500_000);
        assert_eq!(sim.node(a).unwrap().greetings_seen, 0, "cut blocks Hello");
        // After heal, a fresh Hello goes through.
        sim.run_until(1_100_000);
        sim.invoke(b, |_p, ctx| ctx.send(a, GreeterMsg::Hello));
        sim.run_until(2_000_000);
        assert_eq!(sim.node(a).unwrap().greetings_seen, 1);
        let counts = sim.fault_plan().unwrap().counts();
        assert_eq!(counts.partition_drops, 1);
        assert_eq!(counts.partitions_started, 1);
        assert_eq!(counts.partitions_healed, 1);
    }

    #[test]
    fn stalled_node_defers_then_catches_up() {
        let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::lan(10));
        sim.set_fault_plan(FaultPlan::new(10).with_stall(NodeAddr(0), 0, 3_000_000));
        let a = sim.add_node(Greeter::default());
        let _b = sim.add_node(Greeter {
            peer: Some(a),
            ..Default::default()
        });
        sim.run_until(2_999_999);
        assert_eq!(sim.node(a).unwrap().greetings_seen, 0, "stalled: deferred");
        assert!(sim.is_alive(a), "stalled is not dead");
        sim.run_until(4_000_000);
        assert_eq!(sim.node(a).unwrap().greetings_seen, 1, "burst after stall");
        // a's own 1s tick was also deferred to the stall end, not dropped.
        assert!(sim
            .outputs()
            .iter()
            .any(|o| o.node == a && o.value == "tick" && o.time >= 3_000_000));
    }

    #[test]
    fn restart_reoccupies_the_address() {
        let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::lan(11));
        sim.set_fault_plan(FaultPlan::new(11));
        let a = sim.add_node(Greeter::default());
        let b = sim.add_node(Greeter::default());
        sim.fail_node_at(a, 100_000);
        sim.restart_node_at(a, Greeter::default(), 2_000_000);
        sim.run_until(1_000_000);
        assert!(!sim.is_alive(a));
        sim.invoke(b, |_p, ctx| ctx.send(a, GreeterMsg::Hello));
        sim.run_until(1_500_000);
        assert_eq!(sim.node(a).unwrap().greetings_seen, 0, "dead nodes drop");
        sim.run_until(2_500_000);
        assert!(sim.is_alive(a), "restarted in place");
        sim.invoke(b, |_p, ctx| ctx.send(a, GreeterMsg::Hello));
        sim.run_until(3_000_000);
        assert_eq!(sim.node(a).unwrap().greetings_seen, 1);
        let counts = sim.fault_plan().unwrap().counts();
        assert_eq!((counts.crashes, counts.restarts), (1, 1));
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = |seed: u64| {
            let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::internet(seed));
            let plan = FaultPlan::new(seed)
                .with_loss(0, 8_000_000, 0.3)
                .with_duplication(0, 8_000_000, 0.2)
                .with_reorder(0, 8_000_000, 0.5, 20_000)
                .with_delay_spike(2_000_000, 4_000_000, None, 5_000, 1.0)
                .with_partition(3_000_000, 6_000_000, vec![NodeAddr(1), NodeAddr(2)])
                .with_stall(NodeAddr(3), 1_000_000, 2_000_000);
            sim.set_fault_plan(plan);
            let mut sink_seen = 0u64;
            // A sink must observe exactly the log, in order.
            let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let seen2 = seen.clone();
            sim.set_fault_sink(move |rec| seen2.borrow_mut().push(rec.clone()));
            let a = sim.add_node(Greeter::default());
            for _ in 0..8 {
                sim.add_node(Greeter {
                    peer: Some(a),
                    ..Default::default()
                });
            }
            for i in 0..9u32 {
                let peer = NodeAddr((i + 1) % 9);
                sim.invoke(NodeAddr(i), |_p, ctx| ctx.send(peer, GreeterMsg::Hello));
            }
            sim.run_until(10_000_000);
            sink_seen += seen.borrow().len() as u64;
            let log = sim.fault_plan().unwrap().log().to_vec();
            assert_eq!(seen.borrow().as_slice(), log.as_slice());
            (sim.stats().total_bytes, sim.outputs().len(), log, sink_seen)
        };
        let (b1, o1, l1, s1) = run(42);
        let (b2, o2, l2, s2) = run(42);
        assert_eq!((b1, o1, s1), (b2, o2, s2));
        assert_eq!(l1, l2, "fault logs replay byte-for-byte");
        assert!(!l1.is_empty());
    }

    #[test]
    fn storm_schedule_is_pre_drawn_and_sorted() {
        let victims = [NodeAddr(0), NodeAddr(1), NodeAddr(2)];
        let plan = FaultPlan::new(5)
            .with_restart_storm(1_000_000, 9_000_000, &victims, 4, 500_000, 1_500_000);
        let storm = plan.storm();
        assert_eq!(storm.len(), 4);
        assert!(storm.windows(2).all(|w| w[0].crash_at <= w[1].crash_at));
        for e in storm {
            assert!((1_000_000..9_000_000).contains(&e.crash_at));
            let up = e.restart_at.unwrap();
            assert!((500_000..1_500_000).contains(&(up - e.crash_at)));
        }
        let plan2 = FaultPlan::new(5)
            .with_restart_storm(1_000_000, 9_000_000, &victims, 4, 500_000, 1_500_000);
        assert_eq!(storm, plan2.storm(), "storms replay from the seed");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim: Simulator<Greeter> = Simulator::new(SimConfig::internet(seed));
            let a = sim.add_node(Greeter::default());
            for _ in 0..10 {
                sim.add_node(Greeter {
                    peer: Some(a),
                    ..Default::default()
                });
            }
            sim.run_until(10_000_000);
            (sim.stats().total_bytes, sim.outputs().len())
        };
        assert_eq!(run(42), run(42));
    }
}
