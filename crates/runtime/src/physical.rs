//! The Physical Runtime Environment (Figure 3 of the paper).
//!
//! In the real deployment each PIER node runs on its own machine with a
//! system clock, a main scheduler and an asynchronous I/O thread.  In this
//! reproduction the Physical Runtime Environment runs every node on its own
//! OS thread against the *real* clock, with an in-process channel per node
//! standing in for the UDP socket.  The important property is preserved:
//! the node program is byte-for-byte the same [`Program`] implementation the
//! discrete-event [`Simulator`](crate::sim::Simulator) executes, so behaviour
//! validated in simulation carries over (the paper's "native simulation"
//! argument, §3.1.2), which we verify in the `native_simulation` integration
//! test.
//!
//! The transport is reliable and ordered (an mpsc channel), which models a
//! well-behaved LAN; wide-area effects are the simulator's job.

use crate::metrics::NetStats;
use crate::node::{Action, Context, NodeAddr, Program, ProgramContext};
use crate::queue::EventQueue;
use crate::sim::SimOutput;
use crate::time::SimTime;
use crate::wire::{on_wire_bytes, WireSize};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

enum Inbound<M> {
    Net { from: NodeAddr, msg: M },
    Stop,
}

/// The result of a completed physical run.
pub struct PhysicalRun<P: Program> {
    /// Client outputs produced by every node, in arrival order at the
    /// collector (times are microseconds since the run started).
    pub outputs: Vec<SimOutput<P::Out>>,
    /// Final program states, indexed by node address.
    pub programs: Vec<P>,
    /// Message/byte counters for the run.
    pub stats: NetStats,
}

/// Runs node programs on OS threads against the real clock.
pub struct PhysicalRuntime<P: Program> {
    programs: Vec<P>,
}

impl<P: Program> Default for PhysicalRuntime<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Program> PhysicalRuntime<P> {
    /// Create an empty runtime.
    pub fn new() -> Self {
        PhysicalRuntime {
            programs: Vec::new(),
        }
    }

    /// Register a node; it boots when [`run_for`](Self::run_for) is called.
    pub fn add_node(&mut self, program: P) -> NodeAddr {
        let addr = NodeAddr(self.programs.len() as u32);
        self.programs.push(program);
        addr
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.programs.len()
    }
}

impl<P> PhysicalRuntime<P>
where
    P: Program + Send + 'static,
    P::Msg: Send,
    P::Timer: Send,
    P::Out: Send,
{
    /// Boot every node, let the system run for `wall` of real time, then
    /// stop all nodes and collect their outputs and final states.
    pub fn run_for(self, wall: StdDuration) -> PhysicalRun<P> {
        let n = self.programs.len();
        let epoch = Instant::now();
        let stats = Arc::new(Mutex::new(NetStats::new()));
        let (out_tx, out_rx) = mpsc::channel::<SimOutput<P::Out>>();

        // One inbox per node; the senders form the "network".
        let mut inboxes: Vec<Sender<Inbound<P::Msg>>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Inbound<P::Msg>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel();
            inboxes.push(tx);
            receivers.push(rx);
        }
        let network = Arc::new(inboxes);

        let mut handles: Vec<JoinHandle<(NodeAddr, P)>> = Vec::with_capacity(n);
        for (i, program) in self.programs.into_iter().enumerate() {
            let addr = NodeAddr(i as u32);
            let rx = receivers.remove(0);
            let network = Arc::clone(&network);
            let out_tx = out_tx.clone();
            let stats = Arc::clone(&stats);
            handles.push(std::thread::spawn(move || {
                node_thread(addr, program, rx, network, out_tx, stats, epoch)
            }));
        }
        drop(out_tx);

        std::thread::sleep(wall);
        for tx in network.iter() {
            // A node that already exited has dropped its receiver; ignore.
            let _ = tx.send(Inbound::Stop);
        }

        let mut finished: Vec<(NodeAddr, P)> = handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        finished.sort_by_key(|(a, _)| *a);
        let programs = finished.into_iter().map(|(_, p)| p).collect();

        let outputs = out_rx.try_iter().collect();
        let stats = Arc::try_unwrap(stats).map_or_else(
            |arc| arc.lock().expect("stats poisoned").clone(),
            |m| m.into_inner().expect("stats poisoned"),
        );
        PhysicalRun {
            outputs,
            programs,
            stats,
        }
    }
}

fn node_thread<P>(
    addr: NodeAddr,
    mut program: P,
    rx: Receiver<Inbound<P::Msg>>,
    network: Arc<Vec<Sender<Inbound<P::Msg>>>>,
    out_tx: Sender<SimOutput<P::Out>>,
    stats: Arc<Mutex<NetStats>>,
    epoch: Instant,
) -> (NodeAddr, P)
where
    P: Program,
{
    let mut timers: EventQueue<P::Timer> = EventQueue::default();
    let now_us = |epoch: &Instant| epoch.elapsed().as_micros() as SimTime;

    let apply = |program: &mut P,
                 timers: &mut EventQueue<P::Timer>,
                 f: &mut dyn FnMut(&mut P, &mut ProgramContext<P>)| {
        let now = now_us(&epoch);
        let mut ctx: ProgramContext<P> = Context::new(now, addr);
        f(program, &mut ctx);
        for action in ctx.into_actions() {
            match action {
                Action::Send { to, msg } => {
                    let bytes = on_wire_bytes(msg.wire_size());
                    stats
                        .lock()
                        .expect("stats poisoned")
                        .record_send(addr, to, bytes);
                    if let Some(tx) = network.get(to.index()) {
                        let _ = tx.send(Inbound::Net { from: addr, msg });
                    }
                }
                Action::SetTimer { delay, timer } => timers.push(now + delay, timer),
                Action::Output(value) => {
                    let _ = out_tx.send(SimOutput {
                        time: now,
                        node: addr,
                        value,
                    });
                }
            }
        }
    };

    apply(&mut program, &mut timers, &mut |p, ctx| {
        p.on_start(ctx);
    });

    loop {
        // Fire any due timers first.
        while timers.peek().is_some_and(|(at, _)| at <= now_us(&epoch)) {
            let (_, timer) = timers.pop().expect("peeked");
            apply(&mut program, &mut timers, &mut |p, ctx| {
                p.on_timer(ctx, timer.clone());
            });
        }
        let wait = match timers.peek() {
            Some((at, _)) => {
                let now = now_us(&epoch);
                StdDuration::from_micros(at.saturating_sub(now).max(100))
            }
            None => StdDuration::from_millis(20),
        };
        match rx.recv_timeout(wait) {
            Ok(Inbound::Net { from, msg }) => {
                apply(&mut program, &mut timers, &mut |p, ctx| {
                    p.on_message(ctx, from, msg.clone());
                });
            }
            Ok(Inbound::Stop) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    (addr, program)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong program: node 0 pings its peer every 5 ms, the peer echoes,
    /// and node 0 reports each echo.
    #[derive(Debug, Default)]
    struct PingPong {
        peer: Option<NodeAddr>,
        echoes: u32,
    }

    #[derive(Debug, Clone)]
    enum PpMsg {
        Ping,
        Pong,
    }
    impl WireSize for PpMsg {
        fn wire_size(&self) -> usize {
            4
        }
    }

    impl Program for PingPong {
        type Msg = PpMsg;
        type Timer = ();
        type Out = u32;

        fn on_start(&mut self, ctx: &mut ProgramContext<Self>) {
            if self.peer.is_some() {
                ctx.set_timer(5_000, ());
            }
        }

        fn on_message(&mut self, ctx: &mut ProgramContext<Self>, from: NodeAddr, msg: Self::Msg) {
            match msg {
                PpMsg::Ping => ctx.send(from, PpMsg::Pong),
                PpMsg::Pong => {
                    self.echoes += 1;
                    ctx.output(self.echoes);
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut ProgramContext<Self>, _timer: ()) {
            if let Some(peer) = self.peer {
                ctx.send(peer, PpMsg::Ping);
                ctx.set_timer(5_000, ());
            }
        }
    }

    #[test]
    fn physical_runtime_runs_the_same_programs() {
        let mut rt: PhysicalRuntime<PingPong> = PhysicalRuntime::new();
        let echoer = rt.add_node(PingPong::default());
        let _pinger = rt.add_node(PingPong {
            peer: Some(echoer),
            echoes: 0,
        });
        let run = rt.run_for(StdDuration::from_millis(120));
        assert!(
            !run.outputs.is_empty(),
            "pinger should have reported at least one echo"
        );
        assert!(run.programs[1].echoes >= 1);
        assert!(run.stats.total_msgs >= 2);
        // Outputs carry increasing echo counts.
        let counts: Vec<u32> = run
            .outputs
            .iter()
            .filter(|o| o.node == NodeAddr(1))
            .map(|o| o.value)
            .collect();
        for w in counts.windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}
