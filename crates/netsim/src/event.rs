//! A generic discrete-event queue.
//!
//! Events fire in time order; ties break by insertion sequence so
//! simulations are fully deterministic.
//!
//! This is the general-purpose, boxed-payload queue — the *reference*
//! semantics for event ordering. The gossip hot path does not use it:
//! [`GossipScratch`](crate::GossipScratch)'s event loop packs each event
//! into one `u128` word (time bits over the insertion sequence, the kind
//! and a CSR edge index or node id) on the scratch's calendar queue,
//! which pops them in this queue's order without a slot allocation per
//! event. The oracle
//! [`reference::gossip_block`](crate::reference::gossip_block) runs the
//! seed's engine on this queue, and the suites (`tests/gossip_legacy.rs`,
//! `tests/gossip_ties.rs`) assert the production kernels equal it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A deterministic discrete-event priority queue.
///
/// # Examples
///
/// ```
/// use perigee_netsim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ms(5.0), "later");
/// q.schedule(SimTime::from_ms(1.0), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(e, "sooner");
/// assert_eq!(t, SimTime::from_ms(1.0));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    events: Vec<Option<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let slot = self.events.len();
        self.events.push(Some(event));
        self.heap.push(Reverse((time, self.seq, slot)));
        self.seq += 1;
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((t, _, slot)) = self.heap.pop()?;
        let event = self.events[slot].take().expect("event scheduled once");
        Some((t, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(3.0), 3);
        q.schedule(SimTime::from_ms(1.0), 1);
        q.schedule(SimTime::from_ms(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(1.0);
        q.schedule(t, "a");
        q.schedule(t, "b");
        q.schedule(t, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
