//! FIG3 / FIG4 — "native simulation": the same node program, unmodified,
//! runs under the discrete-event Simulation Environment and under the
//! Physical Runtime Environment, and produces equivalent behaviour
//! (§2.1.3, §3.1).

use pier::dht::{make_ring_refs, DhtNode, ObjectName, OverlayConfig};
use pier::runtime::physical::PhysicalRuntime;
use pier::runtime::{NodeAddr, Program, ProgramContext, SimConfig, Simulator, WireSize};

/// The workload: node 1 publishes an object; node 2 reads it back.
/// We run it once under each environment and require the same outcome.
#[test]
fn same_program_runs_under_simulator_and_physical_runtime() {
    let refs = make_ring_refs(4, 15);

    // --- Simulation Environment ------------------------------------------
    let mut sim: Simulator<DhtNode<String>> = Simulator::new(SimConfig::lan(15));
    for r in &refs {
        sim.add_node(DhtNode::with_static_ring(
            *r,
            &refs,
            OverlayConfig::default(),
        ));
    }
    sim.run_until(1_000);
    sim.invoke(refs[1].addr, |node, ctx| {
        let now = ctx.now();
        let effects = node.overlay_mut().put(
            ObjectName::new("t", "k", 7),
            "native".to_string(),
            60_000_000,
            now,
        );
        node.apply(ctx, effects);
    });
    sim.run_for(1_000_000);
    sim.invoke(refs[2].addr, |node, ctx| {
        let now = ctx.now();
        let (_rid, effects) = node.overlay_mut().get("t", "k", now);
        node.apply(ctx, effects);
    });
    sim.run_for(1_000_000);
    let sim_results = sim.node(refs[2].addr).unwrap().get_results();
    assert_eq!(sim_results.len(), 1);
    assert_eq!(sim_results[0].1, 1, "simulation: one object found");

    // --- Physical Runtime Environment --------------------------------------
    // The same `DhtNode` type — byte-for-byte the same program logic — runs
    // on OS threads against the real clock.  We pre-load the object at the
    // node that owns it (the same responsibility the simulation computed)
    // through the same overlay API, boot the network for a while, and check
    // that the object is still being served and that the same maintenance
    // protocol generated traffic.
    let mut rt: PhysicalRuntime<DhtNode<String>> = PhysicalRuntime::new();
    let mut nodes: Vec<DhtNode<String>> = refs
        .iter()
        .map(|r| DhtNode::with_static_ring(*r, &refs, OverlayConfig::default()))
        .collect();
    let name = ObjectName::new("t", "k", 7);
    let target = name.routing_id();
    let owner_idx = refs
        .iter()
        .position(|r| {
            sim.node(r.addr)
                .unwrap()
                .overlay()
                .router()
                .is_responsible(target)
        })
        .expect("some node owns the key");
    // A local put at the owner stores the object directly (no network yet).
    let _ = nodes[owner_idx]
        .overlay_mut()
        .put(name, "native".to_string(), 60_000_000, 0);
    for node in nodes {
        rt.add_node(node);
    }
    // Run long enough for at least one stabilization round (1 s) to fire.
    let run = rt.run_for(std::time::Duration::from_millis(1300));
    assert_eq!(run.programs.len(), 4);
    assert!(run.stats.total_msgs > 0, "maintenance traffic must flow");
    let served = run.programs[owner_idx].overlay().local_scan("t", 1_000_000);
    assert_eq!(served.len(), 1, "physical runtime: object still served");
    assert_eq!(served[0].value, "native");
}

/// A node that sends its peer one message far larger than one MSS on start,
/// standing in for a bulk `PutBatch`.
#[derive(Debug, Default)]
struct BulkSender {
    peer: Option<NodeAddr>,
}

#[derive(Debug, Clone)]
struct Jumbo;

impl WireSize for Jumbo {
    fn wire_size(&self) -> usize {
        10_000
    }
}

impl Program for BulkSender {
    type Msg = Jumbo;
    type Timer = ();
    type Out = ();

    fn on_start(&mut self, ctx: &mut ProgramContext<Self>) {
        if let Some(peer) = self.peer {
            ctx.send(peer, Jumbo);
        }
    }

    fn on_message(&mut self, _ctx: &mut ProgramContext<Self>, _from: NodeAddr, _msg: Jumbo) {}

    fn on_timer(&mut self, _ctx: &mut ProgramContext<Self>, _timer: ()) {}
}

/// The same multi-MSS message costs the same bytes in both environments:
/// one header per fragment (§3.1.2 — the byte counts validated in
/// simulation are the ones the deployment pays).
#[test]
fn both_runtimes_charge_a_multi_mss_message_per_fragment() {
    let mut sim: Simulator<BulkSender> = Simulator::new(SimConfig::lan(16));
    let to = sim.add_node(BulkSender::default());
    sim.add_node(BulkSender { peer: Some(to) });
    sim.run_until(1_000_000);

    let mut rt: PhysicalRuntime<BulkSender> = PhysicalRuntime::new();
    let to = rt.add_node(BulkSender::default());
    rt.add_node(BulkSender { peer: Some(to) });
    let run = rt.run_for(std::time::Duration::from_millis(50));

    let fragments = 10_000_u64.div_ceil(1_400);
    assert_eq!(sim.stats().total_msgs, 1);
    assert_eq!(run.stats.total_msgs, 1);
    assert_eq!(sim.stats().total_bytes, 10_000 + fragments * 48);
    assert_eq!(run.stats.total_bytes, sim.stats().total_bytes);
}
