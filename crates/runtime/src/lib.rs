//! # pier-runtime — Virtual Runtime Interface and execution environments
//!
//! This crate is the lowest layer of the PIER reproduction.  It provides the
//! *Virtual Runtime Interface* (VRI) described in §3.1 of the paper: a narrow
//! abstraction over the clock, timers, the network, and the main scheduler,
//! together with two bindings of that interface:
//!
//! * the [`sim::Simulator`] — a discrete-event **Simulation Environment**
//!   capable of running thousands of virtual nodes in a single process, with
//!   pluggable network [`topology`](sim::topology) and
//!   [`congestion`](sim::congestion) models and node-failure injection, and
//! * the [`physical::PhysicalRuntime`] — a **Physical Runtime Environment**
//!   that runs each node on its own OS thread against the real clock, using
//!   in-process channels as the transport.
//!
//! Node logic is written once as an event-driven state machine implementing
//! the [`Program`] trait and runs unmodified under either environment — the
//! property the paper calls *native simulation* (§2.1.3, §3.1.2).
//!
//! The programming model mirrors the paper exactly:
//!
//! * a single logical thread per node: handlers are invoked for message
//!   arrivals and timer expirations and must return quickly,
//! * handlers never block; all state lives in the node struct,
//! * all interaction with the outside world goes through a [`Context`],
//!   which records *actions* (send a message, set a timer, emit output to
//!   the local client) that the runtime then performs.
//!
//! The crate also contains [`rng`], a small deterministic PRNG used
//! throughout the workspace so that every simulation run is reproducible
//! from a seed.  The paper's UdpCC reliable-delivery layer (§3.1.3) is not
//! reproduced: both environments deliver what the network model lets
//! through, with no acknowledgement or retransmission underneath.

pub mod hash;
pub mod metrics;
pub mod node;
pub mod physical;
mod queue;
pub mod rng;
pub mod sim;
pub mod time;
pub mod wire;

pub use hash::{fold_hash, FoldState};
pub use metrics::{percentile_rank, weighted_percentile, LatencyCdf, NetStats, NodeStats};
pub use node::{Action, Context, NodeAddr, Program, ProgramContext};
pub use rng::{Rng64, Zipf};
pub use sim::{FaultCounts, FaultKind, FaultPlan, FaultRecord, SimConfig, Simulator, StormEvent};
pub use time::{Duration, SimTime, MICROS_PER_MILLI, MICROS_PER_SEC};
pub use wire::WireSize;
