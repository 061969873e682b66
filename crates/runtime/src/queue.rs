//! The pending-event queue both runtimes schedule from.
//!
//! Events pop in `(time, seq)` order, `seq` being the order they were pushed
//! in, so equal-time events run first-come first-served and equal seeds
//! replay byte for byte.  The heap orders only 24-byte `(time, seq, slot)`
//! keys; each payload sits in a slab slot, written once on push and taken
//! once on pop, and a freed slot is reused by the next push.  A sift up or
//! down therefore moves keys, never a message, whatever the payload's size.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-queue of payloads keyed by `(time, push order)`.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    /// `(time, seq, slot)`, earliest first.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Payloads by slot; `None` is a free slot.
    slab: Vec<Option<T>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    /// Sequence number of the latest push.
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Queue `item` at `time`, behind everything already queued at `time`.
    pub(crate) fn push(&mut self, time: SimTime, item: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(item);
                slot
            }
            None => {
                self.slab.push(Some(item));
                u32::try_from(self.slab.len() - 1).expect("under 2^32 pending events")
            }
        };
        self.rekey(time, slot);
    }

    /// File `slot` under a fresh sequence number at `time`.
    fn rekey(&mut self, time: SimTime, slot: u32) {
        self.seq += 1;
        self.heap.push(Reverse((time, self.seq, slot)));
    }

    /// The earliest event, without taking it.
    pub(crate) fn peek(&self) -> Option<(SimTime, &T)> {
        let Reverse((time, _, slot)) = self.heap.peek()?;
        let item = self.slab[*slot as usize].as_ref();
        Some((*time, item.expect("a queued key names a filled slot")))
    }

    /// Take the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        let Reverse((time, _, slot)) = self.heap.pop()?;
        let item = self.slab[slot as usize].take();
        self.free.push(slot);
        Some((time, item.expect("a queued key names a filled slot")))
    }

    /// Move the earliest event to `time`, behind everything already queued
    /// there, as if popped and pushed again; its payload stays in place.
    pub(crate) fn defer_head(&mut self, time: SimTime) {
        let Some(Reverse((_, _, slot))) = self.heap.pop() else {
            return;
        };
        self.rekey(time, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any interleaving of pushes, pops and stall deferrals pops what a
        /// reference ordered by `(time, push order)` pops, and the slab never
        /// holds more slots than events were ever pending at once.
        #[test]
        fn pops_in_time_then_push_order_and_reuses_slots(
            ops in prop::collection::vec((0u8..4, 0u64..6), 1..300),
        ) {
            let mut queue: EventQueue<u64> = EventQueue::default();
            let mut reference: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
            let (mut seq, mut next_item, mut now, mut most_pending) = (0u64, 0u64, 0, 0);
            for (op, dt) in ops {
                match op {
                    // Push at or after the clock (few distinct times, so
                    // ties are common).
                    0 | 1 => {
                        seq += 1;
                        next_item += 1;
                        queue.push(now + dt, next_item);
                        reference.insert((now + dt, seq), next_item);
                    }
                    2 => {
                        let want = reference.pop_first();
                        let got = queue.pop();
                        prop_assert_eq!(got, want.map(|((time, _), item)| (time, item)));
                        if let Some((time, _)) = got {
                            now = time;
                        }
                    }
                    // A stalled head is deferred to a later instant.
                    _ => {
                        let head = queue.peek().map(|(time, item)| (time, *item));
                        let want = reference.first_key_value().map(|((t, _), i)| (*t, *i));
                        prop_assert_eq!(head, want);
                        if let Some(((time, _), item)) = reference.pop_first() {
                            seq += 1;
                            queue.defer_head(time + dt);
                            reference.insert((time + dt, seq), item);
                        }
                    }
                }
                most_pending = most_pending.max(reference.len());
                prop_assert!(
                    queue.slab.len() <= most_pending,
                    "{} slots for at most {most_pending} pending",
                    queue.slab.len()
                );
            }
            while let Some(((time, _), item)) = reference.pop_first() {
                prop_assert_eq!(queue.pop(), Some((time, item)));
            }
            prop_assert_eq!(queue.pop(), None);
        }
    }
}
