//! Repairing a lost pane shipment, one hop at a time.
//!
//! A closed pane travels toward its window root once
//! ([`pier_cq::SharedWindowState`]), so a shipment lost on a hop is data
//! missing from every window over its panes.  Each batched shipment an
//! engine sends carries a [`PaneStamp`] — the sender, the sender engine's
//! incarnation and a sequence number — and the sender keeps a copy of
//! its newest few ([`Outbox`]).  The hop that
//! absorbs shipments ([`Inbox`]) notices a gap in a sender's numbers when
//! the sender's next shipment arrives and asks the sender, directly, for
//! the missing ones ([`PierMsg::PaneRequest`](crate::PierMsg::PaneRequest)).
//! The sender sends a kept copy again only to the hop it first sent it to,
//! so a shipment that went elsewhere because the route moved is never
//! absorbed twice, and a copy the hop has already absorbed is dropped.
//!
//! Without loss nothing is asked for and nothing is resent: the repair
//! costs the stamp's bytes and the [`KEPT`] newest shipments' memory, not
//! a message.  A sender keeps only those, so a run of at most `KEPT - 1`
//! lost shipments is filled, or one loss asked for twice; a longer run, a
//! shipment lost after a hop that only forwarded it, or one whose panes
//! the root has retired, stays lost.

use pier_runtime::{NodeAddr, WireSize};
use std::collections::{BTreeMap, VecDeque};

/// Times an [`Inbox`] asks for one missing shipment.
pub const ASKS: u8 = 2;

/// Shipments an [`Outbox`] keeps, and how far back an [`Inbox`] asks: the
/// newest three, so a gap of two, or one gap asked for twice, can still be
/// filled.
pub const KEPT: u32 = ASKS as u32 + 1;

/// Where a pane shipment comes from and where it falls in its sender's
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaneStamp {
    /// The node that shipped it.
    pub origin: NodeAddr,
    /// The sending engine's incarnation at `origin`: a re-opened engine
    /// (a restart, a share group formed again) numbers from 0 under a
    /// later one.
    pub epoch: u64,
    /// Position in the incarnation's stream, from 0.
    pub seq: u32,
}

impl PaneStamp {
    /// The suffix of the shipment's object name: the stamp, which no other
    /// shipment of the incarnation shares, folded into 64 bits.  Naming a
    /// shipment draws nothing from its node's random stream.
    pub(crate) fn name_suffix(&self) -> u64 {
        let stream = u64::from(self.origin.0) << 32 | u64::from(self.seq);
        stream ^ self.epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

impl WireSize for PaneStamp {
    fn wire_size(&self) -> usize {
        16
    }
}

/// One shipment kept for resending.
#[derive(Debug)]
struct Kept<M> {
    seq: u32,
    to: NodeAddr,
    msg: M,
}

/// A sending engine's stream: the next number, and the shipments it can
/// still send again.
#[derive(Debug)]
pub struct Outbox<M> {
    epoch: u64,
    next: u32,
    kept: VecDeque<Kept<M>>,
}

impl<M: Clone> Outbox<M> {
    /// An empty stream of incarnation `epoch`.
    pub fn new(epoch: u64) -> Self {
        Outbox {
            epoch,
            next: 0,
            kept: VecDeque::new(),
        }
    }

    /// Number the next shipment from `origin`.
    pub fn stamp(&mut self, origin: NodeAddr) -> PaneStamp {
        let seq = self.next;
        self.next += 1;
        PaneStamp {
            origin,
            epoch: self.epoch,
            seq,
        }
    }

    /// Keep shipment `seq`, sent as `msg` to the hop `to`, in place of the
    /// oldest kept once [`KEPT`] are.
    pub fn keep(&mut self, seq: u32, to: NodeAddr, msg: M) {
        if self.kept.len() == KEPT as usize {
            self.kept.pop_front();
        }
        self.kept.push_back(Kept { seq, to, msg });
    }

    /// Copies of the kept shipments of incarnation `epoch` among `seqs`
    /// that were sent to `to` (the hop asking), in sending order.
    pub fn resend(&self, epoch: u64, seqs: &[u32], to: NodeAddr) -> Vec<M> {
        if epoch != self.epoch {
            return Vec::new();
        }
        let asked = |k: &&Kept<M>| k.to == to && seqs.contains(&k.seq);
        self.kept
            .iter()
            .filter(asked)
            .map(|k| k.msg.clone())
            .collect()
    }
}

/// What an absorbing hop has heard of one sender.
#[derive(Debug)]
struct Heard {
    epoch: u64,
    /// One past the highest number heard.
    next: u32,
    /// Numbers below `next` not heard yet, ascending, with the times each
    /// was asked for.
    missing: Vec<(u32, u8)>,
}

/// What one [`Inbox::arrive`] decided.
#[derive(Debug, PartialEq, Eq)]
pub struct Arrival {
    /// The shipment has not been absorbed here before: absorb it.
    pub fresh: bool,
    /// Numbers to ask the sender for (empty: ask nothing).
    pub ask: Vec<u32>,
}

/// The senders an absorbing engine has heard from.
#[derive(Debug, Default)]
pub struct Inbox {
    heard: BTreeMap<NodeAddr, Heard>,
}

impl Inbox {
    /// Record a shipment stamped `stamp`.  A shipment numbered past the
    /// sender's last one reveals the gap before it, and is when the gap is
    /// asked for: each missing number among the [`KEPT`] newest, at most
    /// [`ASKS`] times.  A resent copy fills its gap and asks nothing.  A
    /// shipment heard before, or given up, is not fresh.  One from an
    /// incarnation older than the sender's latest is absorbed unnumbered.
    pub fn arrive(&mut self, stamp: PaneStamp) -> Arrival {
        let fresh_from = |epoch| Heard {
            epoch,
            next: stamp.seq,
            missing: Vec::new(),
        };
        let heard = self
            .heard
            .entry(stamp.origin)
            .or_insert_with(|| fresh_from(stamp.epoch));
        if stamp.epoch > heard.epoch {
            *heard = fresh_from(stamp.epoch);
        }
        let mut arrival = Arrival {
            fresh: true,
            ask: Vec::new(),
        };
        if stamp.epoch < heard.epoch {
            return arrival;
        }
        if stamp.seq >= heard.next {
            let oldest = (stamp.seq + 1).saturating_sub(KEPT);
            heard.missing.retain(|&(seq, _)| seq >= oldest);
            let gap = heard.next.max(oldest);
            heard.missing.extend((gap..stamp.seq).map(|seq| (seq, 0)));
            heard.next = stamp.seq + 1;
            for (seq, asked) in heard.missing.iter_mut().filter(|m| m.1 < ASKS) {
                *asked += 1;
                arrival.ask.push(*seq);
            }
        } else if let Some(at) = heard.missing.iter().position(|m| m.0 == stamp.seq) {
            heard.missing.remove(at);
        } else {
            arrival.fresh = false;
        }
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const A: NodeAddr = NodeAddr(1);
    const B: NodeAddr = NodeAddr(2);

    fn stamp(epoch: u64, seq: u32) -> PaneStamp {
        PaneStamp {
            origin: A,
            epoch,
            seq,
        }
    }

    #[test]
    fn a_gap_is_asked_for_twice_and_filled_once() {
        let mut inbox = Inbox::default();
        let arrive = |inbox: &mut Inbox, seq| inbox.arrive(stamp(5, seq));
        assert_eq!(arrive(&mut inbox, 3).ask, [0u32; 0], "the first heard");
        let got = arrive(&mut inbox, 6);
        assert!(got.fresh);
        assert_eq!(got.ask, [4, 5]);
        // A resent copy fills its gap and asks nothing.
        assert_eq!(
            arrive(&mut inbox, 4),
            Arrival {
                fresh: true,
                ask: vec![]
            }
        );
        assert!(!arrive(&mut inbox, 4).fresh, "a second copy is dropped");
        assert!(!arrive(&mut inbox, 6).fresh);
        assert_eq!(arrive(&mut inbox, 7).ask, [5], "asked a second time");
        assert!(arrive(&mut inbox, 5).fresh, "a late copy still fills it");
        assert_eq!(arrive(&mut inbox, 9).ask, [8]);
        assert_eq!(arrive(&mut inbox, 10).ask, [8], "the second time");
        assert_eq!(arrive(&mut inbox, 11).ask, [0u32; 0], "not a third");
        assert!(!arrive(&mut inbox, 8).fresh, "past the newest three");
    }

    #[test]
    fn a_new_incarnation_starts_over_and_an_old_one_is_absorbed_unnumbered() {
        let mut inbox = Inbox::default();
        inbox.arrive(stamp(5, 40));
        let got = inbox.arrive(stamp(9, 0));
        assert_eq!((got.fresh, got.ask.len()), (true, 0));
        assert!(inbox.arrive(stamp(9, 1)).ask.is_empty());
        assert!(inbox.arrive(stamp(5, 41)).fresh);
        assert!(inbox.arrive(stamp(5, 41)).fresh, "not tracked");
    }

    #[test]
    fn a_long_gap_asks_for_the_newest_only() {
        let mut inbox = Inbox::default();
        inbox.arrive(stamp(1, 0));
        let got = inbox.arrive(stamp(1, 100));
        assert_eq!(got.ask, [98, 99]);
        assert!(!inbox.arrive(stamp(1, 50)).fresh, "given up");
    }

    #[test]
    fn a_copy_goes_again_only_to_the_hop_it_went_to() {
        let mut out: Outbox<&str> = Outbox::new(7);
        let s0 = out.stamp(A);
        let s1 = out.stamp(A);
        assert_eq!((s0.seq, s1.seq, s1.epoch), (0, 1, 7));
        out.keep(0, A, "zero");
        out.keep(1, B, "one");
        assert_eq!(out.resend(7, &[0, 1], A), ["zero"]);
        assert_eq!(out.resend(7, &[0, 1], B), ["one"]);
        assert!(out.resend(6, &[0, 1], A).is_empty(), "another incarnation");
        // Past the newest three a copy is forgotten.
        out.keep(2, A, "two");
        out.keep(3, A, "three");
        assert!(out.resend(7, &[0], A).is_empty());
        assert_eq!(out.resend(7, &[0, 1, 2, 3], A), ["two", "three"]);
    }

    proptest! {
        /// Over any loss and duplication of a sender's shipments, with each
        /// request answered by copies that may be lost or duplicated in
        /// turn, the hop absorbs every shipment at most once; exactly once
        /// when its first delivery arrived, or — once the hop has heard the
        /// sender — when the next shipment's did and so did the copy that
        /// arrival asked for.
        #[test]
        fn each_shipment_is_absorbed_at_most_once(
            fates in prop::collection::vec((0u8..4, 0u8..4), 1..60),
        ) {
            let mut inbox = Inbox::default();
            let mut out: Outbox<u32> = Outbox::new(3);
            let mut absorbed = vec![0u32; fates.len()];
            // (lost, duplicated) per delivery: 0 = lost, 3 = twice.
            let copies = |fate: u8| match fate { 0 => 0, 3 => 2, _ => 1 };
            for (i, &(first, again)) in fates.iter().enumerate() {
                let s = out.stamp(A);
                prop_assert_eq!(s.seq as usize, i);
                out.keep(s.seq, B, s.seq);
                for _ in 0..copies(first) {
                    let got = inbox.arrive(s);
                    if got.fresh {
                        absorbed[i] += 1;
                    }
                    for copy in out.resend(3, &got.ask, B) {
                        for _ in 0..copies(again) {
                            if inbox.arrive(stamp(3, copy)).fresh {
                                absorbed[copy as usize] += 1;
                            }
                        }
                    }
                }
            }
            prop_assert!(absorbed.iter().all(|&n| n <= 1), "{:?}", absorbed);
            for (i, &(first, _)) in fates.iter().enumerate() {
                // A gap shows only after the hop has heard the sender.
                let heard = fates[..i].iter().any(|&(f, _)| f != 0);
                let next = fates.get(i + 1).is_some_and(|&(f, again)| f != 0 && again != 0);
                if first != 0 || (heard && next) {
                    prop_assert_eq!(absorbed[i], 1, "shipment {}", i);
                }
            }
        }
    }
}
