//! Seeded violation corpus for the lint's "effects out" markers.  Like its
//! siblings, this file is NOT compiled.  A plain-struct executor sends
//! nothing itself — it *returns* what its caller will send — so none of the
//! `ctx.send` / `.event(` / `persist` markers appear in it; the lint must
//! know it by what it builds and returns, or by the overlay call it makes.

use std::collections::HashMap;

enum OverlayEffect {
    Send { to: u64, msg: String },
}

struct Overlay;
impl Overlay {
    fn put_batch(&mut self, _entries: Vec<(u64, String)>) -> Vec<OverlayEffect> {
        Vec::new()
    }
}

/// VIOLATION: the returned effects are in hash order, and whoever drives
/// them sends in that order.
fn flush_buffers(buffers: &HashMap<u64, String>) -> Vec<OverlayEffect> {
    let mut effects = Vec::new();
    for (to, msg) in buffers.iter() {
        effects.push(OverlayEffect::Send {
            to: *to,
            msg: msg.clone(),
        });
    }
    effects
}

/// VIOLATION: entries reach the overlay's batched put in hash order (and
/// would draw their name suffixes in it).
fn ship(overlay: &mut Overlay, by_key: HashMap<u64, String>) {
    let entries = by_key.into_iter().collect();
    let _ = overlay.put_batch(entries);
}

/// CLEAN: same shape, ordered before anything is built.
fn flush_sorted(buffers: &HashMap<u64, String>) -> Vec<OverlayEffect> {
    let mut sorted: Vec<_> = buffers.iter().collect();
    sorted.sort();
    let send = |(to, msg): (&u64, &String)| OverlayEffect::Send {
        to: *to,
        msg: msg.clone(),
    };
    sorted.into_iter().map(send).collect()
}
