//! TAB1 / TAB2 — conformance of the public API surface to the method lists
//! of Table 1 (the Virtual Runtime Interface) and Table 2 (the overlay
//! wrapper) of the paper.  These tests exercise each operation rather than
//! merely naming it, so they double as smoke tests of the two layers.
//! Table 1's UdpCC acknowledgement callback (`handleUDPAck`) is not
//! reproduced, so no test names it.

use pier::dht::{make_ring_refs, DhtMessage, OverlayTimer, RoutedObject};
use pier::dht::{ObjectName, Overlay, OverlayConfig, OverlayEffect, OverlayEvent};
use pier::runtime::{Context, NodeAddr};

/// Table 1: clock + main scheduler (`getCurrentTime`, `scheduleEvent`,
/// `handleTimer`) and the UDP send path, expressed through the `Context`
/// action interface that both runtime bindings implement.
#[test]
fn table1_vri_clock_scheduler_and_udp() {
    let mut ctx: Context<u32, &'static str, ()> = Context::new(123, NodeAddr(1));
    // getCurrentTime
    assert_eq!(ctx.now(), 123);
    // scheduleEvent(delay, callbackData, ...)
    ctx.set_timer(500, "renew-soft-state");
    // UDP send(source, destination, payload, ...)
    ctx.send(NodeAddr(2), 42);
    let actions = ctx.into_actions();
    assert_eq!(actions.len(), 2);
}

fn single_node_overlay() -> Overlay<String> {
    let refs = make_ring_refs(1, 77);
    Overlay::with_static_ring(refs[0], &refs, OverlayConfig::default())
}

fn events<V: Clone>(effects: &[OverlayEffect<V>]) -> Vec<OverlayEvent<V>> {
    effects
        .iter()
        .filter_map(|e| match e {
            OverlayEffect::Event(ev) => Some(ev.clone()),
            _ => None,
        })
        .collect()
}

/// Table 2 inter-node operations: `put`, `get`, `renew`, `send` and the
/// `handleGet` callback.
#[test]
fn table2_inter_node_operations() {
    let mut overlay = single_node_overlay();
    let name = ObjectName::new("table", "key", 1);
    // put(namespace, key, suffix, object, lifetime)
    let put = overlay.put(name.clone(), "object".to_string(), 1_000_000, 0);
    assert!(matches!(
        events(&put).as_slice(),
        [OverlayEvent::NewData { .. }]
    ));
    // get(namespace, key) -> handleGet(namespace, key, objects[])
    let (rid, got) = overlay.get("table", "key", 10);
    match &events(&got)[..] {
        [OverlayEvent::GetResult {
            request_id,
            objects,
            ..
        }] => {
            assert_eq!(*request_id, rid);
            assert_eq!(objects.len(), 1);
        }
        other => panic!("unexpected events {other:?}"),
    }
    // renew(namespace, key, suffix, lifetime)
    let (_, renewed) = overlay.renew(name, 2_000_000, 20);
    assert!(matches!(
        events(&renewed).as_slice(),
        [OverlayEvent::RenewResult { success: true, .. }]
    ));
    // send(namespace, key, suffix, object, lifetime): on a single node this
    // is a local store, and it still fires newData.
    let sent = overlay.send(
        ObjectName::new("table", "other", 2),
        "routed".to_string(),
        1_000_000,
        30,
    );
    assert!(matches!(
        events(&sent).as_slice(),
        [OverlayEvent::NewData { .. }]
    ));
}

/// Table 2 intra-node operations: `localScan`/`handleLScan`,
/// `newData`/`handleNewData`, and `upcall`/`handleUpcall`, which hands the
/// routed object over by value (`OverlayEvent::Upcall`, continued with
/// `Overlay::forward`).
#[test]
fn table2_intra_node_operations() {
    let mut overlay = single_node_overlay();
    overlay.put(ObjectName::new("t", "a", 1), "x".to_string(), 1_000_000, 0);
    overlay.put(ObjectName::new("t", "b", 2), "y".to_string(), 1_000_000, 0);
    overlay.put(ObjectName::new("u", "c", 3), "z".to_string(), 1_000_000, 0);
    // localScan(namespace)
    let scan = overlay.local_scan("t", 10);
    assert_eq!(scan.len(), 2);
    assert!(overlay.local_scan("missing", 10).is_empty());
    // The maintenance timers of the wrapper re-arm themselves (the soft-state
    // expiry sweep is the garbage collector of §3.2.3).
    let effects = overlay.on_timer(OverlayTimer::Expire, 20);
    assert!(effects
        .iter()
        .any(|e| matches!(e, OverlayEffect::SetTimer { .. })));

    // upcall -> handleUpcall: a routed object passing through a node that
    // does not own its target is handed up, and moves on only when the
    // application forwards it; at the owner it is stored and fires newData.
    let refs = make_ring_refs(2, 77);
    let mut ring: Vec<Overlay<String>> = refs
        .iter()
        .map(|r| Overlay::with_static_ring(*r, &refs, OverlayConfig::default()))
        .collect();
    let name = ObjectName::new("agg", "root", 1);
    let target = name.routing_id();
    let owner = usize::from(ring[1].router().is_responsible(target));
    let relay = 1 - owner;
    let routed = RoutedObject {
        target,
        name,
        value: "partial".to_string(),
        lifetime: 1_000_000,
        hops: 1,
        trace: None,
    };
    let up = ring[relay].on_message(NodeAddr(9), DhtMessage::Routed(routed), 30);
    let routed = match events(&up).as_slice() {
        [OverlayEvent::Upcall(routed)] if up.len() == 1 => routed.clone(),
        other => panic!("expected only an upcall, got {other:?}"),
    };
    let (to, msg) = match ring[relay].forward(routed, 30).as_slice() {
        [OverlayEffect::Send { to, msg }] => (*to, msg.clone()),
        other => panic!("expected one send, got {other:?}"),
    };
    assert_eq!(to, refs[owner].addr);
    assert!(matches!(
        &msg,
        DhtMessage::Routed(RoutedObject { hops: 2, .. })
    ));
    let stored = ring[owner].on_message(refs[relay].addr, msg, 40);
    assert!(matches!(
        events(&stored).as_slice(),
        [OverlayEvent::NewData { .. }]
    ));
}
