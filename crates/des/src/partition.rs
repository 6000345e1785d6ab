//! Domain-partitioned event scheduling under conservative lookahead.
//!
//! The sequential [`crate::EventQueue`] totally orders every future event
//! in one structure. This module partitions the event population into
//! **domains** (the caller cuts along NPU groups / topology dimensions /
//! link ranges) and advances all domains together through bulk-synchronous
//! **windows**: with `L` the minimum cross-domain propagation latency
//! (the conservative lookahead), every event processed at time `t` may
//! only emit events at `t + L` or later, so all events in the window
//! `[W, W + L)` — `W` the global minimum next-event time — are causally
//! independent across domains and can be processed concurrently.
//!
//! Within a domain, events live on **lanes**: FIFO queues whose pushes
//! must be non-decreasing in time. This is not a restriction in practice —
//! a lane maps to one FIFO resource's completion stream (e.g. one
//! `(route, hop)` pair of a packet network), and FIFO reservations
//! complete in grant order — and it replaces the `O(log n)` heap over the
//! whole event population with a small k-way merge over the domain's
//! *active lanes* plus `O(1)` lane pushes. On wide simulations (hundreds
//! of thousands of in-flight events, a few hundred active lanes) that
//! alone is a multiple of wall-clock, before any thread fan-out.
//!
//! Determinism: the window sequence (`W` and `W + L` per round), the
//! per-domain pop order (`(time, lane)`-ordered merge), and the barrier
//! application order (domains ascending, each outbox in emission order)
//! are all functions of the event population only — never of the worker
//! thread count — so results are bit-identical for 1, 2, or N threads.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::Time;

/// How the simulation core executes: the frozen sequential reference, or
/// the domain-partitioned conservative-lookahead core (a different —
/// parallelizable — event order).
///
/// Selectable end to end
/// (`SystemConfig.sim_mode`, `SimulationBuilder::sim_threads`,
/// `astra --sim-threads N`), with the sequential engine kept as the
/// baseline. The two cores are pinned bit-identical only on traffic
/// that never overlaps; where batched trains overlap on a link, the
/// sequential core splits them and the parallel core serializes them.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimMode {
    /// One totally-ordered event queue (the frozen reference).
    #[default]
    Sequential,
    /// Domain-partitioned windows driven by `threads` worker threads.
    /// `threads: 1` runs the identical partitioned schedule inline —
    /// results are bit-identical for every thread count by construction.
    Parallel {
        /// Worker threads driving the domains (≥ 1).
        threads: usize,
    },
}

impl SimMode {
    /// Every mode, with a representative parallel thread count (used by
    /// equivalence tests sweeping the configuration space).
    pub const ALL: [SimMode; 2] = [SimMode::Sequential, SimMode::Parallel { threads: 2 }];

    /// Stable name for CLI/JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            SimMode::Sequential => "sequential",
            SimMode::Parallel { .. } => "parallel",
        }
    }

    /// Worker threads implied by the mode (1 when sequential).
    pub fn threads(&self) -> usize {
        match self {
            SimMode::Sequential => 1,
            SimMode::Parallel { threads } => (*threads).max(1),
        }
    }
}

impl std::fmt::Display for SimMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimMode::Sequential => write!(f, "sequential"),
            SimMode::Parallel { threads } => write!(f, "parallel:{threads}"),
        }
    }
}

/// Identifier of a lane registered with [`PartitionedEventQueue::add_lane`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LaneId(pub usize);

/// One domain: its lanes' pending events plus the merge frontier.
#[derive(Debug)]
struct Domain<E> {
    /// Global lane id per local lane slot (registration order).
    global: Vec<usize>,
    /// Pending events per local lane slot (front = earliest).
    queues: Vec<VecDeque<(Time, E)>>,
    /// Merge heap over this domain's non-empty lanes, keyed
    /// `(head time, local lane slot)` — a deterministic total order
    /// (slots follow registration order, never thread scheduling).
    heap: BinaryHeap<Reverse<(Time, usize)>>,
}

impl<E> Default for Domain<E> {
    fn default() -> Self {
        Domain {
            global: Vec::new(),
            queues: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }
}

/// Emissions collected while processing one domain's window. Everything a
/// handler produces goes through here — never through shared state — so
/// the barrier can apply all cross-domain effects in a deterministic
/// order.
#[derive(Debug)]
pub struct Outbox<E> {
    /// `(lane, time, event)` emissions, applied to the lanes at the
    /// barrier. Per lane these arrive in non-decreasing time order
    /// because each lane has a single producing domain.
    emits: Vec<(LaneId, Time, E)>,
    /// Timestamped records handed back to the caller at the barrier
    /// (e.g. message-completion bookkeeping that lives outside the
    /// partitioned state).
    deferred: Vec<(Time, E)>,
    /// Exclusive upper bound of the window being processed; emissions
    /// must land at or beyond it (checked in debug builds).
    window_end: Time,
}

impl<E> Outbox<E> {
    /// Emits a future event onto `lane`. The conservative-lookahead
    /// contract requires `time >= window_end`.
    pub fn emit(&mut self, lane: LaneId, time: Time, event: E) {
        debug_assert!(
            time >= self.window_end,
            "emission inside the conservative window violates lookahead"
        );
        self.emits.push((lane, time, event));
    }

    /// Defers a timestamped record back to the caller's barrier hook.
    pub fn defer(&mut self, time: Time, event: E) {
        self.deferred.push((time, event));
    }
}

/// Outcome of one [`PartitionedEventQueue::run_window`] round.
#[derive(Debug)]
pub struct WindowOutcome<E> {
    /// Events processed in this window, summed over all domains.
    pub processed: u64,
    /// Deferred records from every domain, concatenated in ascending
    /// domain order (each domain's records in its processing order) —
    /// a deterministic sequence independent of the thread count.
    pub deferred: Vec<(Time, E)>,
}

/// A future-event list partitioned into per-domain FIFO lanes, advanced
/// in conservative-lookahead windows (see the module docs).
///
/// # Example
///
/// ```
/// use astra_des::{PartitionedEventQueue, Time};
///
/// // Two domains, one lane each, 10 ns lookahead.
/// let mut q = PartitionedEventQueue::new(2, Time::from_ns(10));
/// let a = q.add_lane(0);
/// let b = q.add_lane(1);
/// q.push(a, Time::from_ns(1), "ping");
/// q.push(b, Time::from_ns(2), "pong");
/// while q
///     .run_window(&mut [(), ()], 1, None, |_, _, _, _, _, _| {})
///     .is_some()
/// {}
/// assert_eq!(q.processed(), 2);
/// ```
#[derive(Debug)]
pub struct PartitionedEventQueue<E> {
    /// Owning `(domain, local slot)` per global lane id.
    lane_slot: Vec<(usize, usize)>,
    /// Most recent push time per global lane id (monotonicity check).
    lane_tail: Vec<Time>,
    domains: Vec<Domain<E>>,
    /// The conservative lookahead `L` (must be > 0).
    lookahead: Time,
    /// Start of the most recently completed window.
    now: Time,
    processed: u64,
}

impl<E: Send> PartitionedEventQueue<E> {
    /// Creates an empty partitioned queue with `num_domains` domains and
    /// the given conservative `lookahead`.
    ///
    /// # Panics
    ///
    /// Panics if `num_domains == 0` or `lookahead` is zero — a zero
    /// lookahead admits no conservative window (callers with zero-latency
    /// topologies must fall back to [`SimMode::Sequential`]).
    pub fn new(num_domains: usize, lookahead: Time) -> Self {
        // astra-lint: allow(panic, construction-time configuration errors must fail loudly, not mis-simulate)
        assert!(num_domains > 0, "need at least one domain");
        // astra-lint: allow(panic, zero lookahead admits no conservative window; callers must use SimMode::Sequential)
        assert!(lookahead > Time::ZERO, "lookahead must be positive");
        PartitionedEventQueue {
            lane_slot: Vec::new(),
            lane_tail: Vec::new(),
            domains: (0..num_domains).map(|_| Domain::default()).collect(),
            lookahead,
            now: Time::ZERO,
            processed: 0,
        }
    }

    /// Registers a new FIFO lane owned by `domain` and returns its id.
    pub fn add_lane(&mut self, domain: usize) -> LaneId {
        debug_assert!(domain < self.domains.len(), "lane domain out of range");
        let id = self.lane_slot.len();
        let local = self.domains[domain].queues.len();
        self.domains[domain].global.push(id);
        self.domains[domain].queues.push(VecDeque::new());
        self.lane_slot.push((domain, local));
        self.lane_tail.push(Time::ZERO);
        LaneId(id)
    }

    /// Number of registered lanes.
    pub fn num_lanes(&self) -> usize {
        self.lane_slot.len()
    }

    /// The conservative lookahead the queue was built with.
    pub fn lookahead(&self) -> Time {
        self.lookahead
    }

    /// Start of the most recently completed window.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events processed across all windows.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Pushes a future event onto `lane`. Pushes per lane must be
    /// non-decreasing in time (FIFO-resource completion streams are; the
    /// invariant is checked in debug builds).
    pub fn push(&mut self, lane: LaneId, time: Time, event: E) {
        debug_assert!(
            time >= self.lane_tail[lane.0],
            "lane pushes must be non-decreasing in time"
        );
        self.lane_tail[lane.0] = time;
        let (domain, local) = self.lane_slot[lane.0];
        let d = &mut self.domains[domain];
        if d.queues[local].is_empty() {
            d.heap.push(Reverse((time, local)));
        }
        d.queues[local].push_back((time, event));
    }

    /// Earliest pending event time across every domain, or `None` when
    /// the queue is idle.
    pub fn next_time(&self) -> Option<Time> {
        self.domains
            .iter()
            .filter_map(|d| d.heap.peek().map(|Reverse((t, _))| *t))
            .min()
    }

    /// Total pending events.
    pub fn len(&self) -> usize {
        self.domains
            .iter()
            .map(|d| d.queues.iter().map(|q| q.len()).sum::<usize>())
            .sum()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.domains
            .iter()
            .all(|d| d.queues.iter().all(|q| q.is_empty()))
    }

    /// Processes one conservative window `[W, min(W + L, limit + 1))`
    /// across all domains — on `threads` worker threads when
    /// `threads > 1` — then applies every outbox at the barrier
    /// (domains ascending, emissions in order) and returns the deferred
    /// records in the same deterministic order.
    ///
    /// `state` provides one mutable per-domain state value (e.g. the
    /// domain's owned FIFO resources); `handler` is invoked as
    /// `handler(domain, state, outbox, lane, time, event)` for every
    /// event in the window, in `(time, lane)` order within each domain.
    ///
    /// Returns `None` without processing anything when no pending event
    /// is at or before `limit`.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the domain count.
    pub fn run_window<S, F>(
        &mut self,
        state: &mut [S],
        threads: usize,
        limit: Option<Time>,
        handler: F,
    ) -> Option<WindowOutcome<E>>
    where
        S: Send,
        F: Fn(usize, &mut S, &mut Outbox<E>, LaneId, Time, E) + Sync,
    {
        // astra-lint: allow(panic, a state/domain arity mismatch is a caller bug that must fail loudly)
        assert_eq!(state.len(), self.domains.len(), "one state per domain");
        let window_start = self.next_time()?;
        if limit.is_some_and(|l| window_start > l) {
            return None;
        }
        let mut window_end = window_start.saturating_add(self.lookahead);
        if let Some(l) = limit {
            // `limit` is inclusive: the bound below is exclusive.
            window_end = window_end.min(l.saturating_add(Time::from_ps(1)));
        }

        let num_domains = self.domains.len();
        let workers = threads.clamp(1, num_domains);
        let mut outboxes: Vec<Outbox<E>> = (0..num_domains)
            .map(|_| Outbox {
                emits: Vec::new(),
                deferred: Vec::new(),
                window_end,
            })
            .collect();

        let run_domain = |idx: usize, domain: &mut Domain<E>, st: &mut S, out: &mut Outbox<E>| {
            let mut processed = 0u64;
            while let Some(Reverse((t, local))) = domain.heap.pop() {
                if t >= window_end {
                    domain.heap.push(Reverse((t, local)));
                    break;
                }
                // Drain this lane for as long as it stays the earliest —
                // the common case is a whole packet train on one lane, so
                // most events cost O(1) instead of a heap round-trip.
                loop {
                    let Some((time, event)) = domain.queues[local].pop_front() else {
                        break;
                    };
                    debug_assert!(time >= t, "heap key bounds lane head");
                    handler(idx, st, out, LaneId(domain.global[local]), time, event);
                    processed += 1;
                    let Some(&(next, _)) = domain.queues[local].front() else {
                        break;
                    };
                    if next >= window_end {
                        domain.heap.push(Reverse((next, local)));
                        break;
                    }
                    if let Some(&Reverse(top)) = domain.heap.peek() {
                        if (next, local) > top {
                            domain.heap.push(Reverse((next, local)));
                            break;
                        }
                    }
                }
            }
            processed
        };

        // Each worker owns a disjoint set of domains (with their states
        // and outboxes); the only shared data is immutable, and every
        // mutation flows through the outboxes.
        let processed: u64 = if workers <= 1 {
            let mut total = 0;
            for (idx, ((domain, st), out)) in self
                .domains
                .iter_mut()
                .zip(state.iter_mut())
                .zip(outboxes.iter_mut())
                .enumerate()
            {
                total += run_domain(idx, domain, st, out);
            }
            total
        } else {
            let mut units: Vec<(usize, &mut Domain<E>, &mut S, &mut Outbox<E>)> = self
                .domains
                .iter_mut()
                .zip(state.iter_mut())
                .zip(outboxes.iter_mut())
                .enumerate()
                .map(|(idx, ((d, s), o))| (idx, d, s, o))
                .collect();
            // Round-robin the domains over the workers. Determinism does
            // not depend on the assignment (domains are independent
            // within a window); the counts are summed after the join.
            let mut chunks: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
            for (pos, unit) in units.drain(..).enumerate() {
                chunks[pos % workers].push(unit);
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|chunk| {
                        scope.spawn(|| {
                            let mut chunk = chunk;
                            let mut total = 0;
                            for (idx, domain, st, out) in chunk.iter_mut() {
                                total += run_domain(*idx, domain, st, out);
                            }
                            total
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(count) => count,
                        // astra-lint: allow(panic, a worker panic already poisoned the run; propagate it)
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .sum()
            })
        };

        // Barrier: apply every outbox in ascending domain order — a
        // deterministic sequence regardless of which worker ran which
        // domain.
        let mut deferred = Vec::new();
        for outbox in &mut outboxes {
            for (lane, time, event) in outbox.emits.drain(..) {
                self.push(lane, time, event);
            }
            deferred.append(&mut outbox.deferred);
        }
        self.processed += processed;
        self.now = self.now.max(window_start);
        Some(WindowOutcome {
            processed,
            deferred,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relay: event `n` at `t` on one lane emits `n + 1` at `t + 10ns`
    /// on the other lane, until `total` events have fired.
    fn relay(total: u32) -> Vec<(Time, u32)> {
        let mut q: PartitionedEventQueue<u32> = PartitionedEventQueue::new(2, Time::from_ns(10));
        let a = q.add_lane(0);
        let b = q.add_lane(1);
        q.push(a, Time::from_ns(1), 0);
        let mut log = Vec::new();
        while let Some(out) = q.run_window(&mut [(), ()], 1, None, |_, _, outbox, lane, t, n| {
            if n + 1 < total {
                let dest = if lane == a { b } else { a };
                outbox.emit(dest, t + Time::from_ns(10), n + 1);
            }
            outbox.defer(t, n);
        }) {
            log.extend(out.deferred);
        }
        log
    }

    #[test]
    fn relay_processes_in_time_order() {
        let log = relay(5);
        assert_eq!(log.len(), 5);
        for (i, &(t, n)) in log.iter().enumerate() {
            assert_eq!(n, i as u32);
            assert_eq!(t, Time::from_ns(1 + 10 * i as u64));
        }
    }

    #[test]
    fn thread_counts_produce_identical_logs() {
        // 8 lanes over 4 domains, staggered event trains.
        let build = || {
            let mut q: PartitionedEventQueue<u64> = PartitionedEventQueue::new(4, Time::from_ns(7));
            let lanes: Vec<LaneId> = (0..8).map(|i| q.add_lane(i % 4)).collect();
            for (i, &lane) in lanes.iter().enumerate() {
                for k in 0..50u64 {
                    q.push(
                        lane,
                        Time::from_ns(1 + i as u64 + 3 * k),
                        i as u64 * 100 + k,
                    );
                }
            }
            q
        };
        let run = |threads: usize| {
            let mut q = build();
            let mut log = Vec::new();
            while let Some(out) = q.run_window(&mut [(), (), (), ()], threads, None, {
                |_, _, outbox, lane, t, e| outbox.defer(t, lane.0 as u64 * 10_000 + e)
            }) {
                log.extend(out.deferred);
            }
            (log, q.processed())
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
        assert_eq!(reference.1, 400);
    }

    #[test]
    fn limit_is_inclusive_and_resumable() {
        let mut q: PartitionedEventQueue<u32> = PartitionedEventQueue::new(1, Time::from_ns(5));
        let lane = q.add_lane(0);
        for k in 0..10u64 {
            q.push(lane, Time::from_ns(k * 4), k as u32);
        }
        let mut seen = Vec::new();
        while let Some(out) =
            q.run_window(&mut [()], 1, Some(Time::from_ns(12)), |_, _, o, _, t, e| {
                o.defer(t, e);
            })
        {
            seen.extend(out.deferred.iter().map(|&(_, e)| e));
        }
        // Events at 0, 4, 8, 12 ns are at or before the limit.
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(q.next_time(), Some(Time::from_ns(16)));
        while let Some(out) = q.run_window(&mut [()], 1, None, |_, _, o, _, t, e| o.defer(t, e)) {
            seen.extend(out.deferred.iter().map(|&(_, e)| e));
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sim_mode_names_and_threads() {
        assert_eq!(SimMode::Sequential.name(), "sequential");
        assert_eq!(SimMode::Parallel { threads: 4 }.name(), "parallel");
        assert_eq!(SimMode::Sequential.threads(), 1);
        assert_eq!(SimMode::Parallel { threads: 4 }.threads(), 4);
        assert_eq!(SimMode::Parallel { threads: 0 }.threads(), 1);
        assert_eq!(SimMode::default(), SimMode::Sequential);
        assert_eq!(
            format!("{}", SimMode::Parallel { threads: 8 }),
            "parallel:8"
        );
    }
}
