//! Property-based model check for [`EventQueue`].
//!
//! The queue must be observationally indistinguishable from a trivially
//! correct reference: a `Vec` kept sorted by `(time, seq)`, where `seq` is
//! the global insertion counter. For *any* schedule — batched, interleaved
//! with pops, or packed with tied timestamps — both pop the exact same
//! `(time, event)` sequence with FIFO tie-breaking, and agree on `len` /
//! `peek_time` / `now` at every step. These properties pin the determinism
//! contract the simulator layers above rely on.
//!
//! [`LanedEventQueue`] is checked against the same model: a laned event
//! ([`LanedEventQueue::schedule_on`]) is just an event whose `seq` comes
//! from the shared counter, so the model schedules it like any other, and
//! the queue's lane merge must reproduce the model's order exactly.

use astra_des::{EventQueue, LanedEventQueue, Time};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Reference future-event list: pending `(time, seq, event)` triples in
/// delivery order, so the next event is always at index 0.
#[derive(Default)]
struct Model {
    pending: Vec<(Time, u64, usize)>,
    seq: u64,
    now: Time,
}

impl Model {
    fn schedule_at(&mut self, at: Time, event: usize) {
        // `seq` exceeds every pending seq, so the entry goes after all
        // pending entries at or before `at`.
        let pos = self.pending.partition_point(|&(t, _, _)| t <= at);
        self.pending.insert(pos, (at, self.seq, event));
        self.seq += 1;
    }

    fn schedule_after(&mut self, delay: Time, event: usize) {
        self.schedule_at(self.now + delay, event);
    }

    fn pop(&mut self) -> Option<(Time, usize)> {
        if self.pending.is_empty() {
            return None;
        }
        let (t, _, e) = self.pending.remove(0);
        self.now = t;
        Some((t, e))
    }

    fn peek_time(&self) -> Option<Time> {
        self.pending.first().map(|&(t, _, _)| t)
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn clear(&mut self) {
        self.pending.clear();
    }
}

/// The read side of both queue types, so one lockstep check covers both.
trait Queue {
    fn pop(&mut self) -> Option<(Time, usize)>;
    fn now(&self) -> Time;
    fn len(&self) -> usize;
    fn peek_time(&self) -> Option<Time>;
}

impl Queue for EventQueue<usize> {
    fn pop(&mut self) -> Option<(Time, usize)> {
        EventQueue::pop(self)
    }
    fn now(&self) -> Time {
        EventQueue::now(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn peek_time(&self) -> Option<Time> {
        EventQueue::peek_time(self)
    }
}

impl Queue for LanedEventQueue<usize> {
    fn pop(&mut self) -> Option<(Time, usize)> {
        LanedEventQueue::pop(self)
    }
    fn now(&self) -> Time {
        LanedEventQueue::now(self)
    }
    fn len(&self) -> usize {
        LanedEventQueue::len(self)
    }
    fn peek_time(&self) -> Option<Time> {
        LanedEventQueue::peek_time(self)
    }
}

/// Pops one event from both and asserts they agree on it and on the
/// resulting clock; returns the popped event.
fn pop_both(
    queue: &mut impl Queue,
    model: &mut Model,
) -> Result<Option<(Time, usize)>, TestCaseError> {
    let (a, b) = (queue.pop(), model.pop());
    prop_assert_eq!(a, b);
    prop_assert_eq!(queue.now(), model.now);
    Ok(a)
}

/// Drains both, asserting they agree on every pop and every peek.
fn assert_same_drain(queue: &mut impl Queue, model: &mut Model) -> Result<(), TestCaseError> {
    loop {
        prop_assert_eq!(queue.len(), model.len());
        prop_assert_eq!(queue.peek_time(), model.peek_time());
        if pop_both(queue, model)?.is_none() {
            return Ok(());
        }
    }
}

/// Schedules one identical batch of absolute times on a fresh queue and
/// model, then drains both.
fn assert_batch_drain(times: &[u64]) -> Result<(), TestCaseError> {
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    for (i, &t) in times.iter().enumerate() {
        queue.schedule_at(Time::from_ps(t), i);
        model.schedule_at(Time::from_ps(t), i);
    }
    assert_same_drain(&mut queue, &mut model)
}

proptest! {
    /// Batched inserts over a wide timestamp range drain identically.
    #[test]
    fn batch_drain_matches(times in prop::collection::vec(0u64..1_000_000_000, 1..300)) {
        assert_batch_drain(&times)?;
    }

    /// Heavily tied timestamps (tiny range, many events) keep FIFO order.
    #[test]
    fn tied_timestamps_match(times in prop::collection::vec(0u64..4, 1..300)) {
        assert_batch_drain(&times)?;
    }

    /// Clustered-plus-outlier schedules (a dense band and a sparse far
    /// future) drain identically.
    #[test]
    fn clustered_with_far_future_matches(
        near in prop::collection::vec(0u64..10_000, 1..150),
        far in prop::collection::vec(1_000_000_000_000u64..2_000_000_000_000, 1..50),
    ) {
        let mut times = near;
        times.extend(far);
        assert_batch_drain(&times)?;
    }

    /// Interleaved schedule/pop programs stay in lockstep: after every
    /// operation the queue and the model agree on the popped event, the
    /// clock, the length, and the next pending timestamp.
    #[test]
    fn interleaved_ops_stay_in_lockstep(
        ops in prop::collection::vec((0u64..1_000_000, 0u64..4), 1..250),
    ) {
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        for (i, &(offset, action)) in ops.iter().enumerate() {
            if action == 0 {
                pop_both(&mut queue, &mut model)?;
            } else {
                // Relative offsets keep scheduled times causal (>= now).
                queue.schedule_after(Time::from_ps(offset), i);
                model.schedule_after(Time::from_ps(offset), i);
            }
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.peek_time(), model.peek_time());
        }
        assert_same_drain(&mut queue, &mut model)?;
    }

    /// Laned and plain schedules mixed with pops stay in lockstep with
    /// the model. Each lane's times are non-decreasing (the contract of
    /// `schedule_on`), drawn from a wide range or a tiny one so that ties
    /// across lanes and against the heap are common.
    #[test]
    fn laned_ops_stay_in_lockstep(
        ops in prop::collection::vec((0u64..1_000_000, 0u64..5, 0usize..6), 1..300),
        tiny in any::<bool>(),
    ) {
        let mut queue = LanedEventQueue::new();
        let mut model = Model::default();
        let mut lane_last = [Time::ZERO; 6];
        for (i, &(offset, action, lane)) in ops.iter().enumerate() {
            let offset = Time::from_ps(if tiny { offset % 3 } else { offset });
            match action {
                0 => {
                    pop_both(&mut queue, &mut model)?;
                }
                1 | 2 => {
                    queue.schedule_at(queue.now() + offset, i);
                    model.schedule_after(offset, i);
                }
                _ => {
                    let at = lane_last[lane].max(queue.now()) + offset;
                    lane_last[lane] = at;
                    queue.schedule_on(lane, at, i);
                    model.schedule_at(at, i);
                }
            }
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.peek_time(), model.peek_time());
        }
        assert_same_drain(&mut queue, &mut model)?;
    }

    /// `pop_up_to` over a laned schedule stops at the same frontier as the
    /// model and never moves the clock past it.
    #[test]
    fn laned_pop_up_to_respects_the_frontier(
        times in prop::collection::vec((0u64..10_000, 0usize..4), 1..200),
        step in 1u64..2_000,
    ) {
        let mut queue = LanedEventQueue::new();
        let mut model = Model::default();
        let mut lane_last = [Time::ZERO; 4];
        for (i, &(gap, lane)) in times.iter().enumerate() {
            let at = lane_last[lane] + Time::from_ps(gap);
            lane_last[lane] = at;
            if i % 3 == 0 {
                queue.schedule_at(at, i);
            } else {
                queue.schedule_on(lane, at, i);
            }
            model.schedule_at(at, i);
        }
        let mut limit = Time::ZERO;
        while !model.pending.is_empty() {
            loop {
                let got = queue.pop_up_to(limit);
                let want = if model.peek_time().is_some_and(|t| t <= limit) {
                    model.pop()
                } else {
                    None
                };
                prop_assert_eq!(got, want);
                prop_assert_eq!(queue.now(), model.now);
                if got.is_none() {
                    break;
                }
            }
            limit += Time::from_ps(step);
        }
        prop_assert!(queue.is_empty());
    }

    /// A hold-model workload (every pop schedules a successor) — the DES
    /// steady state — stays identical across thousands of operations while
    /// the population grows.
    #[test]
    fn hold_model_matches(seed in prop::collection::vec((1u64..100_000, 0u64..64), 32..64)) {
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        for (i, &(gap, _)) in seed.iter().enumerate() {
            queue.schedule_at(Time::from_ps(gap), i);
            model.schedule_at(Time::from_ps(gap), i);
        }
        let mut next_id = seed.len();
        let mut steps = 0usize;
        while let Some((t, e)) = pop_both(&mut queue, &mut model)? {
            if steps < 2_000 {
                let (gap, fanout) = seed[e % seed.len()];
                // Occasionally schedule two successors so the population
                // grows.
                let kids = 1 + usize::from(fanout == 0);
                for k in 0..kids {
                    let at = t + Time::from_ps(gap + k as u64);
                    queue.schedule_at(at, next_id);
                    model.schedule_at(at, next_id);
                    next_id += 1;
                }
            }
            steps += 1;
        }
        prop_assert!(queue.is_empty() && model.len() == 0);
    }

    /// `clear` keeps the clock and leaves the queue equivalent for
    /// subsequent use.
    #[test]
    fn clear_preserves_equivalence(
        first in prop::collection::vec(0u64..1_000_000, 1..100),
        second in prop::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        for (i, &t) in first.iter().enumerate() {
            queue.schedule_at(Time::from_ps(t), i);
            model.schedule_at(Time::from_ps(t), i);
        }
        // Pop a prefix so `now` advances, then discard the rest.
        for _ in 0..first.len() / 2 {
            pop_both(&mut queue, &mut model)?;
        }
        queue.clear();
        model.clear();
        prop_assert_eq!(queue.len(), model.len());
        prop_assert_eq!(queue.now(), model.now);
        let base = queue.now();
        for (i, &t) in second.iter().enumerate() {
            queue.schedule_at(base + Time::from_ps(t), i);
            model.schedule_at(base + Time::from_ps(t), i);
        }
        assert_same_drain(&mut queue, &mut model)?;
    }

    /// Identical timestamps scheduled across *separate* pops (not one
    /// batch) still break ties by global insertion order.
    #[test]
    fn cross_batch_ties_match(reps in 2usize..20, t in 0u64..1_000) {
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        let at = Time::from_ps(t);
        for batch in 0..reps {
            for event in [batch * 2, batch * 2 + 1] {
                queue.schedule_at(at, event);
                model.schedule_at(at, event);
            }
        }
        for expect in 0..reps * 2 {
            let popped = pop_both(&mut queue, &mut model)?;
            prop_assert_eq!(popped.map(|(_, e)| e), Some(expect), "FIFO across batches");
        }
    }
}

/// Non-property regression: a large near-sorted drain (the packet
/// backend's distribution) pops exactly the `(time, seq)`-sorted schedule.
#[test]
fn large_near_sorted_schedule_matches() {
    let mut queue = EventQueue::new();
    // Interleaved arithmetic ramps, mimicking per-link FIFO completions.
    let mut expected = Vec::new();
    for lane in 0..64u64 {
        for step in 0..500u64 {
            let t = Time::from_ps(1_000 + lane * 13 + step * 5_120);
            queue.schedule_at(t, expected.len());
            expected.push((t, expected.len()));
        }
    }
    // Events are numbered in insertion order, so sorting by `(time, id)`
    // is sorting by `(time, seq)`.
    expected.sort_unstable();
    let popped: Vec<(Time, usize)> = std::iter::from_fn(|| queue.pop()).collect();
    assert_eq!(popped, expected);
}

/// A lane must stay sorted: a debug build rejects a push earlier than the
/// lane's last pending event.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "non-monotone push on lane 2")]
fn non_monotone_lane_push_panics() {
    let mut queue = LanedEventQueue::new();
    queue.schedule_on(2, Time::from_ps(10), 0usize);
    queue.schedule_on(2, Time::from_ps(9), 1usize);
}
