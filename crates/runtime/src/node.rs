//! The Virtual Runtime Interface: node programs, contexts and actions.
//!
//! A PIER node is written as an event-driven state machine (the paper's
//! "Program" box in Figures 3 and 4).  The runtime invokes the handlers of
//! the [`Program`] trait — never concurrently, never re-entrantly — and the
//! program responds by recording [`Action`]s on its [`Context`]: messages to
//! send, timers to set, and results to hand to the locally attached client.
//!
//! This is the Rust rendering of Table 1 of the paper.  The correspondence:
//!
//! | Paper (VRI)                         | Here                                   |
//! |-------------------------------------|----------------------------------------|
//! | `getCurrentTime()`                  | [`Context::now`]                       |
//! | `scheduleEvent(delay, data, client)`| [`Context::set_timer`]                 |
//! | `handleTimer(data)`                 | [`Program::on_timer`]                  |
//! | UDP `send(src, dst, payload, …)`    | [`Context::send`]                      |
//! | `handleUDP(source, payload)`        | [`Program::on_message`]                |
//! | TCP client connection               | [`Context::output`] (proxy → client)   |
//!
//! Table 1's `handleUDPAck(data, success)` has no counterpart: the UdpCC
//! reliable-delivery layer (§3.1.3) is not reproduced.
//!
//! Handlers must not block and must not loop for long periods: long-running
//! work is broken up by re-scheduling continuation timers, exactly as §3.1.2
//! requires.

use crate::time::{Duration, SimTime};
use crate::wire::WireSize;
use std::fmt::Debug;

/// The address of a node on the (virtual or physical) network.
///
/// Addresses identify transport endpoints (the analogue of an IP address +
/// port); they are distinct from DHT identifiers, which name points in the
/// overlay's identifier space and are mapped onto addresses by routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeAddr(pub u32);

impl NodeAddr {
    /// Convenience accessor for indexing node-keyed tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl WireSize for NodeAddr {
    fn wire_size(&self) -> usize {
        // IPv4 address + port.
        6
    }
}

/// An effect requested by a node handler.
///
/// Actions are applied by the runtime *after* the handler returns, which is
/// what guarantees the single-threaded, non-reentrant execution model.
#[derive(Debug, Clone)]
pub enum Action<M, T, O> {
    /// Send `msg` to the node at `to`.  Delivery latency (and whether the
    /// message is delayed by congestion) is decided by the environment.
    Send { to: NodeAddr, msg: M },
    /// Ask to be woken up with `timer` after `delay` has elapsed.
    SetTimer { delay: Duration, timer: T },
    /// Deliver a value to the client application attached to this node
    /// (in the real system: the TCP connection to the user's proxy client).
    Output(O),
}

/// The handle through which a node program interacts with its runtime.
///
/// A fresh context is passed to every handler invocation; it exposes the
/// current virtual time and the node's own address, and buffers the actions
/// the handler requests.
pub struct Context<M, T, O> {
    now: SimTime,
    me: NodeAddr,
    actions: Vec<Action<M, T, O>>,
}

impl<M, T, O> Context<M, T, O> {
    /// Create a context for a handler invocation at time `now` on node `me`.
    pub fn new(now: SimTime, me: NodeAddr) -> Self {
        Context {
            now,
            me,
            actions: Vec::new(),
        }
    }

    /// Current virtual time (paper: `getCurrentTime`).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's network address.
    pub fn me(&self) -> NodeAddr {
        self.me
    }

    /// Queue a message for delivery to `to` (paper: UDP `send`).
    pub fn send(&mut self, to: NodeAddr, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Schedule a timer `delay` microseconds in the future
    /// (paper: `scheduleEvent`).
    pub fn set_timer(&mut self, delay: Duration, timer: T) {
        self.actions.push(Action::SetTimer { delay, timer });
    }

    /// Deliver a value to the locally attached client application.
    pub fn output(&mut self, out: O) {
        self.actions.push(Action::Output(out));
    }

    /// Number of actions recorded so far (useful in tests).
    pub fn pending(&self) -> usize {
        self.actions.len()
    }

    /// Consume the context, returning the recorded actions in order.
    pub fn into_actions(self) -> Vec<Action<M, T, O>> {
        self.actions
    }
}

/// An event-driven node program.
///
/// Programs are written once and executed under either the
/// [`Simulator`](crate::sim::Simulator) or the
/// [`PhysicalRuntime`](crate::physical::PhysicalRuntime).
pub trait Program: Sized {
    /// Network message type exchanged between nodes running this program.
    type Msg: Clone + Debug + WireSize;
    /// Timer token type; carries whatever state the continuation needs.
    type Timer: Clone + Debug;
    /// Values delivered to the locally attached client application.
    type Out: Clone + Debug;

    /// Invoked once when the node boots (joins the network).
    fn on_start(&mut self, ctx: &mut Context<Self::Msg, Self::Timer, Self::Out>);

    /// Invoked when a message from `from` arrives.
    fn on_message(
        &mut self,
        ctx: &mut Context<Self::Msg, Self::Timer, Self::Out>,
        from: NodeAddr,
        msg: Self::Msg,
    );

    /// Invoked when a previously set timer expires.
    fn on_timer(
        &mut self,
        ctx: &mut Context<Self::Msg, Self::Timer, Self::Out>,
        timer: Self::Timer,
    );

    /// Invoked when the runtime removes the node (fail-stop).  Most programs
    /// need no cleanup because soft state at other nodes expires on its own.
    fn on_stop(&mut self, _ctx: &mut Context<Self::Msg, Self::Timer, Self::Out>) {}
}

/// Convenience alias for the context type of a given program.
pub type ProgramContext<P> =
    Context<<P as Program>::Msg, <P as Program>::Timer, <P as Program>::Out>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_records_actions_in_order() {
        let mut ctx: Context<u64, u8, String> = Context::new(10, NodeAddr(3));
        assert_eq!(ctx.now(), 10);
        assert_eq!(ctx.me(), NodeAddr(3));
        ctx.send(NodeAddr(1), 99);
        ctx.set_timer(5, 7);
        ctx.output("hello".to_string());
        assert_eq!(ctx.pending(), 3);
        let actions = ctx.into_actions();
        assert_eq!(actions.len(), 3);
        match &actions[0] {
            Action::Send { to, msg } => {
                assert_eq!(*to, NodeAddr(1));
                assert_eq!(*msg, 99);
            }
            _ => panic!("expected send first"),
        }
        match &actions[1] {
            Action::SetTimer { delay, timer } => {
                assert_eq!(*delay, 5);
                assert_eq!(*timer, 7);
            }
            _ => panic!("expected timer second"),
        }
        match &actions[2] {
            Action::Output(o) => assert_eq!(o, "hello"),
            _ => panic!("expected output third"),
        }
    }

    #[test]
    fn node_addr_display_and_index() {
        let a = NodeAddr(17);
        assert_eq!(a.to_string(), "n17");
        assert_eq!(a.index(), 17);
        assert_eq!(a.wire_size(), 6);
    }
}
