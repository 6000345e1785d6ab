//! Deterministic future-event list.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Time;

/// A deterministic discrete-event queue.
///
/// Events are delivered in non-decreasing timestamp order; events scheduled
/// for the same instant are delivered in insertion (FIFO) order, which makes
/// simulations bit-exact reproducible. The backing store is a binary
/// min-heap on `(time, seq)`: `O(log n)` insert and pop for any timestamp
/// distribution.
///
/// The queue also tracks the simulation clock: [`EventQueue::now`] is the
/// timestamp of the most recently popped event.
///
/// # Example
///
/// ```
/// use astra_des::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule_at(Time::from_us(2), 'b');
/// q.schedule_at(Time::from_us(1), 'a');
/// q.schedule_at(Time::from_us(2), 'c'); // same instant as 'b', FIFO after it
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: Time,
}

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// Total delivery order: earliest time first, FIFO (`seq`) for ties.
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

// Manual ordering: min-heap on (time, seq). `BinaryHeap` is a max-heap, so
// the comparison is reversed.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
        }
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `at` is in the simulated past
    /// (`at < self.now()`); a causality violation always indicates a
    /// modeling bug. Release builds skip the check — this is the hottest
    /// call in the simulator, and the tier-1 test suite (which runs in
    /// debug) exercises every scheduling path.
    // astra-lint: hot-path
    pub fn schedule_at(&mut self, at: Time, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {:?} < {:?}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry {
            time: at,
            seq,
            event,
        };
        self.heap.push(entry);
    }

    /// Schedules `event` after a relative `delay` from the current time.
    pub fn schedule_after(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty (the clock stays at
    /// the last popped time).
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Removes and returns the earliest event only if its timestamp is at
    /// or before `limit`; otherwise leaves the queue (and the clock)
    /// untouched and returns `None`. This is the co-simulation primitive:
    /// a backend drains its events up to an external clock frontier
    /// without ever running ahead of it.
    pub fn pop_up_to(&mut self, limit: Time) -> Option<(Time, E)> {
        if self.peek_time().is_some_and(|t| t <= limit) {
            self.pop()
        } else {
            None
        }
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
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
        q.schedule_at(Time::from_us(3), 3u32);
        q.schedule_at(Time::from_us(1), 1u32);
        q.schedule_at(Time::from_us(2), 2u32);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule_at(Time::from_us(7), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(5), 0);
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_us(5));
        // Relative scheduling is based on the advanced clock.
        q.schedule_after(Time::from_us(2), 0);
        assert_eq!(q.peek_time(), Some(Time::from_us(7)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(5), ());
        q.pop();
        q.schedule_at(Time::from_us(4), ());
    }

    #[test]
    fn pop_up_to_respects_the_frontier() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(1), 1u32);
        q.schedule_at(Time::from_us(5), 5u32);
        // Nothing at or before 0: no pop, clock untouched.
        assert_eq!(q.pop_up_to(Time::ZERO), None);
        assert_eq!(q.now(), Time::ZERO);
        // The frontier is inclusive.
        assert_eq!(q.pop_up_to(Time::from_us(1)), Some((Time::from_us(1), 1)));
        assert_eq!(q.now(), Time::from_us(1));
        assert_eq!(q.pop_up_to(Time::from_us(4)), None);
        assert_eq!(q.pop_up_to(Time::from_us(500)), Some((Time::from_us(5), 5)));
        assert_eq!(q.pop_up_to(Time::from_us(500)), None);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_us(1), 0);
        q.schedule_at(Time::from_us(2), 0);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), Time::ZERO);
    }
}
