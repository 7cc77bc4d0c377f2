//! The pending-event set.
//!
//! The engine runs on the classic binary-heap future-event list. A calendar
//! queue (Brown, 1988) and a hierarchical timer wheel were measured against
//! it on event traces recorded from paper-scale runs and removed (see
//! EXPERIMENTS.md, "One event queue"). The [`EventQueue`] trait stays as the
//! contract any replacement must meet: a *stable* priority queue, where
//! events with equal timestamps dequeue in insertion order, which the
//! engine relies on for deterministic causality (see `engine::Engine`).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry: timestamp, a monotone sequence number for FIFO
/// tie-breaking, and the payload.
#[derive(Debug)]
pub struct Scheduled<E> {
    pub time: SimTime,
    pub seq: u64,
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    // Reversed so BinaryHeap (a max-heap) pops the earliest entry.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A pending-event set: push timestamped events, pop them in nondecreasing
/// time order with FIFO tie-breaking.
pub trait EventQueue<E> {
    fn push(&mut self, entry: Scheduled<E>);
    fn pop(&mut self) -> Option<Scheduled<E>>;
    /// Timestamp of the earliest pending event, if any.
    fn peek_time(&self) -> Option<SimTime>;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The classic future-event list: a binary heap. O(log n) push/pop, great
/// constants, the default.
#[derive(Debug)]
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
}

impl<E> BinaryHeapQueue<E> {
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> for BinaryHeapQueue<E> {
    #[inline]
    fn push(&mut self, entry: Scheduled<E>) {
        self.heap.push(entry);
    }

    #[inline]
    fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop()
    }

    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: u64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            time: SimTime::from_nanos(t),
            seq,
            event: t * 1000 + seq,
        }
    }

    fn drain<Q: EventQueue<u64>>(q: &mut Q) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(s) = q.pop() {
            out.push((s.time.as_nanos(), s.seq));
        }
        out
    }

    #[test]
    fn heap_orders_by_time_then_seq() {
        let mut q = BinaryHeapQueue::new();
        q.push(entry(5, 0));
        q.push(entry(3, 1));
        q.push(entry(5, 2));
        q.push(entry(1, 3));
        assert_eq!(drain(&mut q), vec![(1, 3), (3, 1), (5, 0), (5, 2)]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = BinaryHeapQueue::new();
        for i in 0..200u64 {
            h.push(entry((i * 37) % 1009, i));
        }
        assert_eq!(h.len(), 200);
        while let Some(pt) = h.peek_time() {
            assert_eq!(h.pop().unwrap().time, pt);
        }
        assert!(h.pop().is_none());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }
}
