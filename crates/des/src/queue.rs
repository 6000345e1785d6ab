//! Deterministic future-event list.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

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

/// An [`EventQueue`] plus per-source FIFO **lanes**: the same delivery
/// order at a lower cost when most events arrive in sorted streams.
///
/// A caller whose events come from per-source sorted streams (one packet
/// link's completions, in FIFO grant order) pushes them onto a lane with
/// [`LanedEventQueue::schedule_on`]: an `O(1)` append, where the times
/// pushed onto one lane must be non-decreasing. Laned events draw their
/// `seq` from the same counter as [`LanedEventQueue::schedule_at`], and
/// every read merges the plain heap with a small heap over the lane heads
/// by `(time, seq)`. The delivery order is therefore **exactly** the
/// order a plain [`EventQueue`] gives for the same schedule; the lanes
/// only make the merge `O(log active lanes)` instead of
/// `O(log pending events)`.
///
/// It is a type of its own so that a queue that never uses lanes, like
/// the graph engine's, keeps [`EventQueue`]'s pop path unchanged.
///
/// # Example
///
/// ```
/// use astra_des::{LanedEventQueue, Time};
///
/// let mut q = LanedEventQueue::new();
/// q.schedule_on(7, Time::from_us(2), 'b');
/// q.schedule_at(Time::from_us(2), 'c'); // same instant, scheduled later
/// q.schedule_on(3, Time::from_us(1), 'a');
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct LanedEventQueue<E> {
    /// The plain heap, the shared `seq` counter and the clock.
    queue: EventQueue<E>,
    /// Per lane: pending `(time, seq, event)` in delivery order.
    lanes: Vec<VecDeque<(Time, u64, E)>>,
    /// One `(time, seq, lane)` per non-empty lane: its front entry's key.
    heads: BinaryHeap<Reverse<(Time, u64, usize)>>,
    /// Events pending on all lanes.
    laned: usize,
}

impl<E> LanedEventQueue<E> {
    /// Creates an empty queue with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        LanedEventQueue {
            queue: EventQueue::new(),
            lanes: Vec::new(),
            heads: BinaryHeap::new(),
            laned: 0,
        }
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.queue.now
    }

    /// Schedules `event` at absolute time `at` on the plain heap (see
    /// [`EventQueue::schedule_at`]).
    pub fn schedule_at(&mut self, at: Time, event: E) {
        self.queue.schedule_at(at, event);
    }

    /// Schedules `event` at absolute time `at` on `lane`: an `O(1)` FIFO
    /// append. Lanes are plain indices, created on first use; a caller
    /// typically uses one per link.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `at` is in the simulated past, like
    /// [`EventQueue::schedule_at`], or earlier than the last event still
    /// pending on the same lane: a lane must stay sorted for the merge to
    /// deliver in `(time, seq)` order.
    // astra-lint: hot-path
    pub fn schedule_on(&mut self, lane: usize, at: Time, event: E) {
        debug_assert!(
            at >= self.queue.now,
            "event scheduled in the past: {:?} < {:?}",
            at,
            self.queue.now
        );
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let seq = self.queue.seq;
        self.queue.seq += 1;
        let queue = &mut self.lanes[lane];
        match queue.back() {
            None => self.heads.push(Reverse((at, seq, lane))),
            Some(&(last, _, _)) => debug_assert!(
                last <= at,
                "non-monotone push on lane {lane}: {at:?} after {last:?}"
            ),
        }
        queue.push_back((at, seq, event));
        self.laned += 1;
    }

    /// The earliest pending event's time and whether it sits on a lane
    /// rather than in the plain heap: the `(time, seq)` merge of the two.
    fn next(&self) -> Option<(Time, bool)> {
        let heap = self.queue.heap.peek().map(Entry::key);
        match self.heads.peek() {
            Some(&Reverse((time, seq, _))) if heap.is_none_or(|key| (time, seq) < key) => {
                Some((time, true))
            }
            _ => heap.map(|(time, _)| (time, false)),
        }
    }

    /// Pops the front of the lane at the top of the heads heap.
    fn pop_lane(&mut self) -> Option<(Time, E)> {
        let mut head = self.heads.peek_mut()?;
        let lane = head.0 .2;
        let queue = &mut self.lanes[lane];
        let (time, _, event) = queue.pop_front()?;
        match queue.front() {
            // Re-key the lane in place: one sift instead of pop + push.
            Some(&(next, seq, _)) => *head = Reverse((next, seq, lane)),
            None => {
                PeekMut::pop(head);
            }
        }
        self.laned -= 1;
        self.queue.now = time;
        Some((time, event))
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp (see [`EventQueue::pop`]).
    // astra-lint: hot-path
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_up_to(Time::MAX)
    }

    /// Removes and returns the earliest event only if its timestamp is at
    /// or before `limit` (see [`EventQueue::pop_up_to`]).
    // astra-lint: hot-path
    pub fn pop_up_to(&mut self, limit: Time) -> Option<(Time, E)> {
        match self.next()? {
            (time, _) if time > limit => None,
            (_, true) => self.pop_lane(),
            (_, false) => self.queue.pop(),
        }
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.next().map(|(time, _)| time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len() + self.laned
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.queue.clear();
        for Reverse((_, _, lane)) in self.heads.drain() {
            self.lanes[lane].clear();
        }
        self.laned = 0;
    }
}

impl<E> Default for LanedEventQueue<E> {
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

    /// The check is a `debug_assert!`, so release builds do not panic.
    #[test]
    #[cfg(debug_assertions)]
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
    fn lanes_merge_with_the_heap_in_time_then_seq_order() {
        let mut q = LanedEventQueue::new();
        q.schedule_on(3, Time::from_us(2), 'b');
        q.schedule_at(Time::from_us(2), 'c');
        q.schedule_on(0, Time::from_us(1), 'a');
        q.schedule_on(3, Time::from_us(2), 'd');
        q.schedule_at(Time::from_us(5), 'f');
        q.schedule_on(0, Time::from_us(4), 'e');
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_time(), Some(Time::from_us(1)));
        assert_eq!(q.pop_up_to(Time::ZERO), None);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd', 'e', 'f']);
        assert_eq!(q.now(), Time::from_us(5));
    }

    #[test]
    fn clear_empties_the_lanes() {
        let mut q = LanedEventQueue::new();
        q.schedule_on(1, Time::from_us(1), 1u32);
        q.schedule_on(1, Time::from_us(2), 2u32);
        q.schedule_at(Time::from_us(3), 3u32);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // A cleared lane accepts an earlier time again.
        q.schedule_on(1, Time::ZERO, 4u32);
        assert_eq!(q.pop(), Some((Time::ZERO, 4)));
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
